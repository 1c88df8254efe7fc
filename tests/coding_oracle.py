"""Coding functions kept as reference oracles; steertrace itself no longer has them.

``nearest_state`` is the quantizer steertrace ran before it stopped calling
float ``np.mod`` on every element, unchanged; the library's ``_nearest_state``
must give the same states for every phase below 2**52 state steps.
``full_grid_state_matrix`` is ``state_matrix`` as it stood before it coded one
line for a zero gradient component and quantized in place: the full-grid
``raw_phase`` and the quantizer ``nearest_state_with_temporaries``, unchanged.
``wrap_phase`` and ``ideal_phase`` are the wrapped per-cell phase, which only
tests used.
"""

from __future__ import annotations

import numpy as np

from steertrace.coding import TWO_PI, PhaseGradient, SurfaceConfig, phase_gradients
from steertrace.geometry import Angles


def nearest_state(phases: np.ndarray, n_states: int) -> np.ndarray:
    # Reducing the ratio modulo the (exactly representable) state count keeps
    # unwrapped phases free of the upward bias a float mod-2*pi wrap adds.
    ratio = np.mod(np.asarray(phases, dtype=float) / (TWO_PI / n_states), n_states)
    low = np.floor(ratio)
    # exact half-step ties round down to the lower neighbour
    k = np.where(ratio - low > 0.5, low + 1.0, low)
    return k.astype(np.int64) % n_states


def raw_phase(g: PhaseGradient, cfg: SurfaceConfig) -> np.ndarray:
    """Unwrapped per-cell phase (gx*i + gy*j) * d_u, shape (n_rows, n_cols)."""
    cols = np.arange(cfg.n_cols, dtype=float)
    rows = np.arange(cfg.n_rows, dtype=float)
    return (g.gx * cols[None, :] + g.gy * rows[:, None]) * cfg.d_u


def nearest_state_with_temporaries(phases: np.ndarray, n_states: int) -> np.ndarray:
    phases = np.asarray(phases, dtype=float)
    r = phases.reshape(-1) / (TWO_PI / n_states)
    n = float(n_states)
    m = r - np.floor(r / n) * n
    low = np.floor(m)
    # exact half-step ties round down to the lower neighbour; k == n wraps to 0
    k = low + (m - low > 0.5)
    k[k == n] = 0.0
    return k.astype(np.int64).reshape(phases.shape)


def full_grid_state_matrix(incident: Angles, reflected: Angles, cfg: SurfaceConfig) -> np.ndarray:
    g = phase_gradients(incident, reflected, cfg)
    return nearest_state_with_temporaries(raw_phase(g, cfg), cfg.n_states)


def wrap_phase(x):
    """Reduce phases (scalar or array) into [0, 2*pi)."""
    r = np.mod(x, TWO_PI)
    # np.mod can round up to exactly 2*pi for tiny negative inputs
    return np.where(r >= TWO_PI, 0.0, r)


def ideal_phase(g: PhaseGradient, cfg: SurfaceConfig) -> np.ndarray:
    """Ideal continuous phase per cell: (gx*i + gy*j) * d_u wrapped to [0, 2*pi)."""
    return wrap_phase(raw_phase(g, cfg))
