"""Coding functions kept as reference oracles; steertrace itself no longer has them.

``nearest_state`` is the quantizer steertrace ran before it stopped calling
float ``np.mod`` on every element, unchanged; the library's ``_nearest_state``
must give the same states for every phase below 2**52 state steps.  ``wrap_phase`` and
``ideal_phase`` are the wrapped per-cell phase, which only tests used.
"""

from __future__ import annotations

import numpy as np

from steertrace.coding import TWO_PI, PhaseGradient, SurfaceConfig, _raw_phase


def nearest_state(phases: np.ndarray, n_states: int) -> np.ndarray:
    # Reducing the ratio modulo the (exactly representable) state count keeps
    # unwrapped phases free of the upward bias a float mod-2*pi wrap adds.
    ratio = np.mod(np.asarray(phases, dtype=float) / (TWO_PI / n_states), n_states)
    low = np.floor(ratio)
    # exact half-step ties round down to the lower neighbour
    k = np.where(ratio - low > 0.5, low + 1.0, low)
    return k.astype(np.int64) % n_states


def wrap_phase(x):
    """Reduce phases (scalar or array) into [0, 2*pi)."""
    r = np.mod(x, TWO_PI)
    # np.mod can round up to exactly 2*pi for tiny negative inputs
    return np.where(r >= TWO_PI, 0.0, r)


def ideal_phase(g: PhaseGradient, cfg: SurfaceConfig) -> np.ndarray:
    """Ideal continuous phase per cell: (gx*i + gy*j) * d_u wrapped to [0, 2*pi)."""
    return wrap_phase(_raw_phase(g, cfg))
