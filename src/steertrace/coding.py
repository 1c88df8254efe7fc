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
from typing import Iterator, Sequence

import numpy as np

from .errors import ValidationError
from .geometry import Angles, Record, _require

TWO_PI = 2.0 * math.pi
MAX_CELLS = 10**6  # n_cols * n_rows, checked before any matrix is allocated
MAX_STATES = 2**16  # finer than any surface resolves; far below the ratio bound
MAX_PHASE_STEPS = 2**52  # |phase| / (2*pi/n_states) of any cell; see _nearest_state
BLOCK_CELLS = 2**14  # cells coded at once by state_blocks, unless one direction alone has more


class SurfaceConfig(Record):
    """Grid dimensions, cell pitch ``d_u`` (m, by default a quarter wavelength at 10 GHz),
    state count, and the incident and reflected wavelengths (m)."""

    __slots__ = ("n_cols", "n_rows", "d_u", "n_states", "lambda_i", "lambda_r")

    def __init__(self, n_cols: int = 50, n_rows: int = 50, d_u: float = 0.0075,
                 n_states: int = 4, lambda_i: float = 0.03, lambda_r: float = 0.03):
        self._fill(n_cols, n_rows, d_u, n_states, lambda_i, lambda_r)
        _require(n_cols >= 1, "n_cols must be >= 1", "n_cols")
        _require(n_rows >= 1, "n_rows must be >= 1", "n_rows")
        _require(d_u > 0, "d_u must be > 0", "d_u")
        _require(self.n_cells <= MAX_CELLS, f"n_cols * n_rows must be <= {MAX_CELLS}", "n_cols")
        _require(n_states >= 2, "n_states must be >= 2", "n_states")
        _require(n_states <= MAX_STATES, f"n_states must be <= {MAX_STATES}", "n_states")
        _require(lambda_i > 0, "lambda_i must be > 0", "lambda_i")
        _require(lambda_r > 0, "lambda_r must be > 0", "lambda_r")
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


def _check(name: str, theta: float, phi: float):
    """Refuse the ``name`` direction (theta, phi) unless it is finite with theta in [0, 90)."""
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValidationError(f"{name} angles must be finite", key=name)
    if not 0.0 <= theta < 90.0:
        raise ValidationError(f"{name}.theta={theta!r} must lie in [0, 90)", key=name)


def gradients(
    incident: Angles, thetas: Sequence[float], phis: Sequence[float], cfg: SurfaceConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (gx, gy) that redirect ``incident`` into each direction (thetas[k], phis[k]).

    Wave-vector matching in the surface plane gives, per axis,
    k_i*sin(theta_i)*cos(phi_i) + gx = k_r*sin(theta_r)*cos(phi_r) and the
    sine counterpart for gy.  The first bad direction raises, as if the
    directions were checked one by one.  The sines and cosines are the scalar
    ``_sin_deg``'s, whose bits do not depend on the CPU as numpy's SIMD
    kernels' may; the products run in numpy in the scalar formula's order.
    """
    _check("incident", incident.theta, incident.phi)
    theta, phi = np.array(thetas, dtype=float), np.array(phis, dtype=float)
    ok = (theta >= 0.0) & (theta < 90.0) & np.isfinite(phi)  # False for a nan or inf theta
    if not ok.all():
        k = int(ok.argmin())
        _check("reflected", thetas[k], phis[k])
    sin_i = _sin_deg(incident.theta)
    k_sin_r = cfg.k_r * np.array(list(map(_sin_deg, theta.tolist())))
    phi = phi.tolist()
    gx = k_sin_r * np.array(list(map(_cos_deg, phi))) - cfg.k_i * sin_i * _cos_deg(incident.phi)
    gy = k_sin_r * np.array(list(map(_sin_deg, phi))) - cfg.k_i * sin_i * _sin_deg(incident.phi)
    return gx, gy


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

    The steps run in two float buffers, r (then m, then m - low) and q (then
    low, then k), and never write ``phases``.
    """
    phases = np.asarray(phases, dtype=float)
    r = np.divide(phases.reshape(-1), TWO_PI / n_states)
    n = float(n_states)
    q = np.divide(r, n)
    m = np.subtract(r, np.multiply(np.floor(q, out=q), n, out=q), out=r)
    low = np.floor(m, out=q)
    # exact half-step ties round down to the lower neighbour; k == n wraps to 0
    k = np.add(low, np.subtract(m, low, out=m) > 0.5, out=low)
    np.multiply(k, k != n, out=k)  # k is finite and >= 0, so a wrapped 0.0 casts to 0
    return k.astype(np.int64).reshape(phases.shape)


def state_blocks(
    incident: Angles, thetas: Sequence[float], phis: Sequence[float], cfg: SurfaceConfig
) -> Iterator[np.ndarray]:
    """Quantized states of the directions (thetas[k], phis[k]), in order, as blocks of
    shape (n, r, c): ``gradient_blocks`` of their ``gradients``."""
    return gradient_blocks(*gradients(incident, thetas, phis, cfg), cfg)


def gradient_blocks(gx: np.ndarray, gy: np.ndarray, cfg: SurfaceConfig) -> Iterator[np.ndarray]:
    """Quantized states of the directions whose gradients are ``gx`` and ``gy``, in order,
    as blocks of shape (n, r, c).

    Entry [k, j, i] is the state of cell (i, j) for the block's direction k:
    its unwrapped phase (gx*i + gy*j) * d_u, quantized as the reduced phase
    would be.

    An axis is coded once when its gradient component is +0.0 or -0.0 for
    every direction of the block: gy*j is then that same signed zero for every
    row j >= 0, so every row holds the bits of row 0 (r is 1); likewise the
    columns when every gx is zero (c is 1).  A direction with a zero component
    in a block that codes the full axis gets the same bits on every line.  Each
    step is elementwise, so stacking changes no bit.  A block holds at most
    ``BLOCK_CELLS`` cells unless its one direction alone has more.
    """
    start, rows, cols = 0, False, False  # the block's first direction; whether all rows, cols
    for k, (x, y) in enumerate(zip((gx != 0).tolist(), (gy != 0).tolist())):
        r, c = rows or y, cols or x
        cells = (k + 1 - start) * (cfg.n_rows if r else 1) * (cfg.n_cols if c else 1)
        if k > start and cells > BLOCK_CELLS:
            yield _code_block(gx[start:k], gy[start:k], rows, cols, cfg)
            start, r, c = k, y, x
        rows, cols = r, c
    if len(gx) > start:
        yield _code_block(gx[start:], gy[start:], rows, cols, cfg)


def _code_block(gx: np.ndarray, gy: np.ndarray, rows: bool, cols: bool, cfg: SurfaceConfig):
    """States of a block's directions, over all rows and all columns where asked."""
    i = np.arange(cfg.n_cols if cols else 1, dtype=float)
    j = np.arange(cfg.n_rows if rows else 1, dtype=float)
    ramp = gx[:, None, None] * i + gy[:, None, None] * j[:, None]
    return _nearest_state(np.multiply(ramp, cfg.d_u, out=ramp), cfg.n_states)


def state_matrix(incident: Angles, reflected: Angles, cfg: SurfaceConfig) -> np.ndarray:
    """Quantized state index per cell for the given steering pair, shape (n_rows, n_cols).

    One direction's block from ``state_blocks``, which codes a line when a
    gradient component is zero; one broadcast copy then returns the full,
    writable, C-contiguous matrix.
    """
    full = (cfg.n_rows, cfg.n_cols)
    states = next(state_blocks(incident, (reflected.theta,), (reflected.phi,), cfg))[0]
    return states if states.shape == full else np.broadcast_to(states, full).copy()

