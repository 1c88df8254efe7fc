"""Coding functions kept as reference oracles; steertrace itself no longer has them.

``nearest_state`` is the quantizer steertrace ran before it stopped calling
float ``np.mod`` on every element, unchanged; the library's ``_nearest_state``
must give the same states for every phase below 2**52 state steps.
``full_grid_state_matrix`` is ``state_matrix`` as it stood before it coded one
line for a zero gradient component and quantized in place: the full-grid
``raw_phase`` and the quantizer ``nearest_state_with_temporaries``, unchanged.
``wrap_phase`` and ``ideal_phase`` are the wrapped per-cell phase, and
``quantize_phase`` the quantizer of one phase, which only tests used.
``phase_gradients`` is ``coding.gradients`` of one direction, as a
``PhaseGradient``, which only tests used.  ``scalar_gradients`` is
``phase_gradients`` as it stood before the gradients of many directions were
computed at once: one direction, in Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from steertrace.coding import MAX_PHASE_STEPS, MAX_STATES, TWO_PI, SurfaceConfig
from steertrace.coding import _cos_deg, _nearest_state, _sin_deg, gradients
from steertrace.errors import ValidationError
from steertrace.geometry import Angles


@dataclass(frozen=True, slots=True)
class PhaseGradient:
    """In-plane phase gradients, rad/m."""

    gx: float
    gy: float


def phase_gradients(incident: Angles, reflected: Angles, cfg: SurfaceConfig) -> PhaseGradient:
    """The ``coding.gradients`` that redirect ``incident`` into ``reflected``."""
    gx, gy = gradients(incident, (reflected.theta,), (reflected.phi,), cfg)
    return PhaseGradient(float(gx[0]), float(gy[0]))


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


def quantize_phase(phase: float, n_states: int) -> int:
    """Index of the discrete state phase 2*pi*k/n nearest to ``phase``.

    Distance is circular; an exact half-step tie rounds down to the lower
    neighbour (so a tie straddling the wrap stays at n_states - 1).
    """
    if not 2 <= n_states <= MAX_STATES:
        raise ValidationError(f"n_states must lie in [2, {MAX_STATES}]", key="n_states")
    if not abs(phase) / (TWO_PI / n_states) < MAX_PHASE_STEPS:
        raise ValidationError("phase must be below 2**52 state steps", key="phase")
    return int(_nearest_state(np.asarray(phase, dtype=float), n_states))


def scalar_gradients(incident: Angles, reflected: Angles, cfg: SurfaceConfig) -> PhaseGradient:
    for name, ang in (("incident", incident), ("reflected", reflected)):
        if not (math.isfinite(ang.theta) and math.isfinite(ang.phi)):
            raise ValidationError(f"{name} angles must be finite", key=name)
        if not 0.0 <= ang.theta < 90.0:
            raise ValidationError(
                f"{name}.theta={ang.theta!r} must lie in [0, 90)", key=name
            )
    sin_i = _sin_deg(incident.theta)
    sin_r = _sin_deg(reflected.theta)
    gx = cfg.k_r * sin_r * _cos_deg(reflected.phi) - cfg.k_i * sin_i * _cos_deg(incident.phi)
    gy = cfg.k_r * sin_r * _sin_deg(reflected.phi) - cfg.k_i * sin_i * _sin_deg(incident.phi)
    return PhaseGradient(gx, gy)
