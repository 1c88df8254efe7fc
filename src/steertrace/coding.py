"""Surface coding: phase gradients, per-cell ideal phases, and quantization.

Steering an incident plane wave toward a chosen direction requires linear
phase gradients across the surface; each unit cell then carries the ideal
phase sampled at its own position, rounded to the nearest of the cell's
discrete states.

Grid convention: matrices have shape (n_rows, n_cols) and entry [j, i]
belongs to the cell at column i, row j, whose reference corner sits at
(i * d_u, j * d_u).  Cell indices are 0-based.  Phases are not wrapped;
state k stands for the phase 2*pi*k/n_states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import Angles

TWO_PI = 2.0 * math.pi
MAX_CELLS = 10**6  # n_cols * n_rows, checked before any matrix is allocated
MAX_STATES = 2**16  # finer than any surface resolves; far below the ratio bound
MAX_PHASE_STEPS = 2**52  # |phase| / (2*pi/n_states) of any cell; see _nearest_state


@dataclass(frozen=True)
class SurfaceConfig:
    """Grid dimensions, cell pitch, state count, and working wavelengths."""

    n_cols: int = 50
    n_rows: int = 50
    d_u: float = 0.0075  # m, unit-cell side (quarter wavelength at 10 GHz)
    n_states: int = 4
    lambda_i: float = 0.03  # m, incident wavelength
    lambda_r: float = 0.03  # m, reflected wavelength

    def __post_init__(self):
        checks = (
            (self.n_cols >= 1, "n_cols must be >= 1", "n_cols"),
            (self.n_rows >= 1, "n_rows must be >= 1", "n_rows"),
            (self.d_u > 0, "d_u must be > 0", "d_u"),
            (self.n_cells <= MAX_CELLS, f"n_cols * n_rows must be <= {MAX_CELLS}", "n_cols"),
            (self.n_states >= 2, "n_states must be >= 2", "n_states"),
            (self.n_states <= MAX_STATES, f"n_states must be <= {MAX_STATES}", "n_states"),
            (self.lambda_i > 0, "lambda_i must be > 0", "lambda_i"),
            (self.lambda_r > 0, "lambda_r must be > 0", "lambda_r"),
        )
        for ok, message, key in checks:
            if not ok:
                raise ValidationError(message, key=key)
        # A bound on |_raw_phase| / step, the quantizer's ratio, in the same order of
        # operations.  It counts n_cols + n_rows cells where the indices reach only
        # n_cols - 1 and n_rows - 1: a margin far above the roundings of any cell's
        # ratio.  Under the limits above, only a wavelength or d_u can break it.
        k_sum, n_sum = self.k_i + self.k_r, self.n_cols + self.n_rows
        if not k_sum * n_sum * self.d_u / (TWO_PI / self.n_states) < MAX_PHASE_STEPS:
            key = "d_u" if self.d_u > max(self.k_i, self.k_r) else (
                "lambda_i" if self.k_i > self.k_r else "lambda_r"
            )
            raise ValidationError(
                f"{key}={getattr(self, key)!r} takes the phase ramp to 2**52 state steps", key=key
            )

    @property
    def k_i(self) -> float:
        """Incident wave number, rad/m."""
        return TWO_PI / self.lambda_i

    @property
    def k_r(self) -> float:
        """Reflected wave number, rad/m."""
        return TWO_PI / self.lambda_r

    @property
    def n_cells(self) -> int:
        return self.n_cols * self.n_rows


@dataclass(frozen=True, slots=True)
class PhaseGradient:
    """In-plane phase gradients, rad/m."""

    gx: float
    gy: float


@dataclass(frozen=True)
class AliasingReport:
    """Per-cell phase steps and whether either exceeds half a cycle.

    A step beyond pi means the cell grid undersamples the phase ramp and the
    steered direction is no longer faithfully represented.  Diagnostic only.
    """

    step_x: float  # rad per cell
    step_y: float

    @property
    def aliased(self) -> bool:
        return abs(self.step_x) > math.pi or abs(self.step_y) > math.pi


def _sin_deg(x: float) -> float:
    """sin of an angle in degrees, exact at quadrant angles."""
    r = x % 360.0
    if r == 0.0 or r == 180.0:
        return 0.0
    if r == 90.0:
        return 1.0
    if r == 270.0:
        return -1.0
    return math.sin(math.radians(x))


def _cos_deg(x: float) -> float:
    """cos of an angle in degrees, exact at quadrant angles."""
    return _sin_deg(x + 90.0)


def phase_gradients(incident: Angles, reflected: Angles, cfg: SurfaceConfig) -> PhaseGradient:
    """Gradients that redirect ``incident`` into ``reflected``.

    Wave-vector matching in the surface plane gives, per axis,
    k_i*sin(theta_i)*cos(phi_i) + gx = k_r*sin(theta_r)*cos(phi_r) and the
    sine counterpart for gy.
    """
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


def _raw_phase(g: PhaseGradient, cfg: SurfaceConfig) -> np.ndarray:
    """Unwrapped per-cell phase (gx*i + gy*j) * d_u, shape (n_rows, n_cols)."""
    cols = np.arange(cfg.n_cols, dtype=float)
    rows = np.arange(cfg.n_rows, dtype=float)
    return (g.gx * cols[None, :] + g.gy * rows[:, None]) * cfg.d_u


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


def _nearest_state(phases: np.ndarray, n_states: int) -> np.ndarray:
    """Nearest state index per phase, same shape as ``phases`` (0-d included).

    The phase is divided by the state step into r = phase / (2*pi/n) and r is
    reduced modulo n: reducing the ratio, not the phase mod 2*pi, keeps
    unwrapped phases free of the upward bias a float wrap adds.  Every caller
    keeps |r| < MAX_PHASE_STEPS (2**52).  There Q = floor(r/n) is the true
    floor of r/n or off by one, Q*n is exact, and m = r - Q*n rounds the exact
    remainder once, as numpy's float modulo does.  A floor that is off by one
    puts m in (-0.5, 0) or [n, n + 0.5), which round to the same state modulo
    n as that remainder, so mapping k == n to 0 is the only wrap needed.
    """
    phases = np.asarray(phases, dtype=float)
    r = phases.reshape(-1) / (TWO_PI / n_states)
    n = float(n_states)
    m = r - np.floor(r / n) * n
    low = np.floor(m)
    # exact half-step ties round down to the lower neighbour; k == n wraps to 0
    k = low + (m - low > 0.5)
    k[k == n] = 0.0
    return k.astype(np.int64).reshape(phases.shape)


def state_matrix(incident: Angles, reflected: Angles, cfg: SurfaceConfig) -> np.ndarray:
    """Quantized state index per cell for the given steering pair.

    Cell-wise composition of the gradients, the ideal per-cell phase, and the
    quantizer; the quantizer consumes the unwrapped phase so its rounding is
    identical to quantizing the mathematically reduced value.
    """
    g = phase_gradients(incident, reflected, cfg)
    return _nearest_state(_raw_phase(g, cfg), cfg.n_states)


def aliasing_check(g: PhaseGradient, cfg: SurfaceConfig) -> AliasingReport:
    """Report whether the per-cell phase step exceeds half a cycle on either axis."""
    return AliasingReport(g.gx * cfg.d_u, g.gy * cfg.d_u)
