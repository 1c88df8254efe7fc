"""Gateway emulation: drift detection, state-matrix diffs, trace assembly.

The gateway watches the sampled reflection angles and reconfigures the
surface whenever either angle has drifted by the angular step.  Each
reconfiguration sends one packet per state-changing cell; the resulting
burst sequence is the traffic trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coding import SurfaceConfig, state_matrix
from .errors import ValidationError
from .geometry import MAX_SAMPLES, Angles, AngleStream, Trajectory, angle_stream
from .geometry import signed_circular_delta_deg

# Absorbs float round-off when a sample lands exactly on a threshold.
ANGLE_EPS_DEG = 1e-9
# Degrees short of a threshold at which the search over numpy's angles
# already stops, so that it passes no crossing of the scalar angles: numpy
# and math.* differ on 4,186 of case A's 81,645 default theta samples, by at
# most 1.4e-14 deg, so 1e-7 leaves a wide margin.
BAND = 1e-7

NORMAL_INCIDENCE = Angles(0.0, 0.0)


@dataclass(frozen=True)
class GatewayConfig:
    angular_step: float = 5.0  # degrees of drift that trigger a reconfiguration
    sample_dt: float = 1e-3  # s, angle sampling period

    def __post_init__(self):
        if not self.angular_step > 0:
            raise ValidationError("angular_step must be > 0", key="angular_step")
        if not self.sample_dt > 0:
            raise ValidationError("sample_dt must be > 0", key="sample_dt")


@dataclass(frozen=True)
class ReconfigEvent:
    """One gateway burst: trigger time, target direction, a (col, row, new state) row per packet."""

    t: float
    reflected: Angles
    updates: np.ndarray  # (n, 3) int64, read-only; built from integers only, never cast

    def __post_init__(self):
        for key, v in (("t", self.t), ("theta", self.reflected.theta), ("phi", self.reflected.phi)):
            if not math.isfinite(v):
                raise ValidationError(f"{key}={v!r} must be finite", key)
        try:
            u = np.asarray(self.updates)
            if u.shape == (0,):  # an empty sequence
                u = u.astype(np.int64).reshape(0, 3)
            if not (u.dtype.kind in "iu" and np.can_cast(u.dtype, np.int64) and u.shape[1:] == (3,)):
                raise ValueError(f"got {u.dtype} of shape {u.shape}")
        except ValueError as exc:  # a ragged sequence too
            raise ValidationError(f"updates must be (n, 3) integers: {exc}", "updates") from None
        u = u.astype(np.int64)  # a copy, so that nothing else can write it
        u.flags.writeable = False
        object.__setattr__(self, "updates", u)

    def __eq__(self, other):
        if not isinstance(other, ReconfigEvent):
            return NotImplemented
        same_updates = np.array_equal(self.updates, other.updates)
        return self.t == other.t and self.reflected == other.reflected and same_updates


@dataclass(frozen=True)
class TraceMeta:
    """Everything needed to re-run the scenario that produced a trace."""

    surface: SurfaceConfig
    gateway: GatewayConfig
    incident: Angles
    trajectory: Trajectory

    def __post_init__(self):
        if not 0.0 <= self.incident.theta < 90.0:
            raise ValidationError(f"theta={self.incident.theta!r} must lie in [0, 90)", "theta")
        if self.trajectory.duration / self.gateway.sample_dt > MAX_SAMPLES:
            raise ValidationError(f"sample_dt gives over {MAX_SAMPLES} samples", key="sample_dt")


@dataclass(frozen=True)
class TrafficTrace:
    meta: TraceMeta
    events: tuple[ReconfigEvent, ...]

    @property
    def total_packets(self) -> int:
        return sum(len(ev.updates) for ev in self.events)


def detect_events(stream: AngleStream, angular_step: float) -> list[tuple[float, Angles]]:
    """Pick the samples at which the gateway reconfigures.

    The first sample is always picked (initial configuration).  After that a
    sample is picked whenever its theta, or its phi measured circularly, sits
    at least ``angular_step`` away from the running reference of that angle.
    At each pick the crossed angle's reference advances by a whole number of
    steps, so a motion entering on a step multiple keeps firing on the
    nominal grid instead of accumulating per-sample slack, while the other
    angle re-anchors to the picked sample; the picked angles themselves are
    always the raw samples at each crossing.

    The scan skips over the stream's arrays to the next sample within ``BAND``
    of a threshold and decides it on its exact angles, so the picks are those
    of a sample-by-sample scan of the scalar path.
    """
    if not angular_step > 0:
        raise ValidationError("angular_step must be > 0", key="angular_step")
    if len(stream) == 0:
        raise ValidationError("stream must not be empty", key="stream")
    if not (np.diff(stream.t) > 0).all():
        raise ValidationError("stream times must be strictly increasing", key="stream")
    a = angular_step
    picked = [stream.exact(0)]
    theta_ref, phi_ref = picked[0][1].theta, picked[0][1].phi
    k = 0
    while (k := _next_near_crossing(stream, k + 1, theta_ref, phi_ref, a)) < len(stream):
        t, ang = stream.exact(k)
        d_theta, d_phi = _drift(ang.theta, ang.phi, theta_ref, phi_ref)
        hit_theta = d_theta >= a - ANGLE_EPS_DEG
        hit_phi = abs(d_phi) >= a - ANGLE_EPS_DEG
        if not (hit_theta or hit_phi):
            continue
        picked.append((t, ang))
        if hit_theta:
            steps = math.floor((d_theta + ANGLE_EPS_DEG) / a)
            theta_ref += math.copysign(steps * a, ang.theta - theta_ref)
        else:
            theta_ref = ang.theta
        if hit_phi:
            steps = math.floor((abs(d_phi) + ANGLE_EPS_DEG) / a)
            phi_ref = (phi_ref + math.copysign(steps * a, d_phi)) % 360.0
        else:
            phi_ref = ang.phi
    return picked


def _drift(theta, phi, theta_ref, phi_ref):
    """Distance of theta and signed circular distance of phi from the references."""
    return abs(theta - theta_ref), signed_circular_delta_deg(phi, phi_ref)


def _next_near_crossing(stream: AngleStream, k: int, theta_ref, phi_ref, step) -> int:
    """First sample from ``k`` whose array angles come within ``BAND`` of a step, else len(stream).

    Windows double in size: a near crossing costs little, a far one a few passes.
    """
    threshold = step - ANGLE_EPS_DEG - BAND
    width = 64
    while k < len(stream):
        window = slice(k, k + width)
        d_theta, d_phi = _drift(stream.theta[window], stream.phi[window], theta_ref, phi_ref)
        near = (d_theta >= threshold) | (np.abs(d_phi) >= threshold)
        i = int(near.argmax())
        if near[i]:
            return k + i
        k += width
        width *= 2
    return len(stream)


def diff_states(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Packets turning ``old`` into ``new``: (col, row, state) rows in row-major cell order."""
    old = np.asarray(old)
    new = np.asarray(new)
    if old.shape != new.shape:
        raise ValidationError(f"matrix shapes differ: {old.shape} vs {new.shape}")
    rows, cols = np.nonzero(old != new)
    return np.column_stack((cols, rows, new[rows, cols]))


def run_simulation(
    trajectory: Trajectory,
    surface: SurfaceConfig,
    gateway: GatewayConfig,
    incident: Angles = NORMAL_INCIDENCE,
) -> TrafficTrace:
    """Simulate one scenario end to end and return its traffic trace.

    The surface starts in the all-zero state.  Every detected event is
    recorded, including those whose diff is empty.
    """
    meta = TraceMeta(surface, gateway, incident, trajectory)  # checks the sample count
    stream = angle_stream(trajectory, gateway.sample_dt)
    current = np.zeros((surface.n_rows, surface.n_cols), dtype=np.int64)
    events = []
    for t, ang in detect_events(stream, gateway.angular_step):
        target = state_matrix(incident, ang, surface)
        events.append(ReconfigEvent(t, ang, diff_states(current, target)))
        current = target
    return TrafficTrace(meta, tuple(events))

