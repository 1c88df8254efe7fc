"""The scalar sampler and drift detector, kept as the reference oracle.

This is the list-of-tuples ``angle_stream`` and the per-sample
``detect_events`` scan that steertrace ran before sampling moved to numpy,
unchanged: every sample goes through ``position_at`` and
``angles_from_position``, every comparison through ``math``.  The library's
picks must equal these exactly, in times and in ``Angles``.
"""

from __future__ import annotations

import math

from steertrace.errors import ValidationError
from steertrace.gateway import ANGLE_EPS_DEG
from steertrace.geometry import (
    Angles,
    Trajectory,
    _require,
    angles_from_position,
    position_at,
    signed_circular_delta_deg,
)


def angle_stream(trajectory: Trajectory, dt: float) -> list[tuple[float, Angles]]:
    """Sample the trajectory every ``dt`` seconds, endpoint always included.

    Samples fall on t = 0, dt, 2*dt, ...; the final sample lands exactly on
    ``duration`` (appended when the regular grid misses it).
    """
    _require(dt > 0, "dt must be > 0", "dt")
    return [
        (t, angles_from_position(position_at(trajectory, t)))
        for t in _sample_times(trajectory.duration, dt)
    ]


def _sample_times(duration: float, dt: float) -> list[float]:
    n = int(math.floor(duration / dt + 1e-9))
    ts = [k * dt for k in range(n + 1)]
    if duration - ts[-1] > 1e-9 * dt:
        ts.append(duration)
    else:
        ts[-1] = duration
    return ts


def detect_events(
    stream: list[tuple[float, Angles]], angular_step: float
) -> list[tuple[float, Angles]]:
    """Pick the samples at which the gateway reconfigures.

    The first sample is always picked (initial configuration).  After that a
    sample is picked whenever its theta, or its phi measured circularly, sits
    at least ``angular_step`` away from the running reference of that angle.
    At each pick the crossed angle's reference advances by a whole number of
    steps, so a motion entering on a step multiple keeps firing on the
    nominal grid instead of accumulating per-sample slack, while the other
    angle re-anchors to the picked sample; the picked angles themselves are
    always the raw samples at each crossing.
    """
    if not angular_step > 0:
        raise ValidationError("angular_step must be > 0", key="angular_step")
    if len(stream) == 0:
        raise ValidationError("stream must not be empty", key="stream")
    a = angular_step
    t_prev, first = stream[0]
    picked = [stream[0]]
    theta_ref = first.theta
    phi_ref = first.phi
    for t, ang in stream[1:]:
        if t <= t_prev:
            raise ValidationError("stream times must be strictly increasing", key="stream")
        t_prev = t
        d_theta = abs(ang.theta - theta_ref)
        d_phi = signed_circular_delta_deg(ang.phi, phi_ref)
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
