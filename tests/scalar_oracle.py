"""The scalar sampler and drift detector, kept as the reference oracle.

This is the list-of-tuples ``angle_stream`` and the per-sample
``detect_events`` scan that steertrace ran before sampling moved to numpy,
unchanged: every sample goes through ``position`` and ``angles_from_position``,
every comparison through ``math``.  ``position`` is the seed's position
formulas, written here apart from the library's, so that they check its bits: in
cases A and B the walk and the flight, in case C the target at the leap angle of
the sample's interval, from ``leap_schedule``, the schedule as a tuple of
``Random.uniform`` draws, by ``math.tan``.  The library's picks must equal these
exactly, in times and in ``Angles``.  ``leap_runs`` and ``check_runs`` add the
contract of the library's stream: one entry per run of samples at equal angles,
which in case C is the run between two leaps.  ``entries``, ``positions`` and
``whole`` join a case-C stream's blocks of runs and of positions, or read a case-A
or B stream's positions sample by sample, for inspection, and ``check_positions``
checks them against ``position``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from random import Random

import numpy as np

from steertrace.errors import ValidationError
from steertrace.gateway import ANGLE_EPS_DEG
from steertrace.geometry import (
    GRAVITY,
    LEAP_THETA_MAX,
    Angles,
    Case,
    CaseParams,
    Point3D,
    Trajectory,
    _require,
    angles_from_position,
    signed_circular_delta_deg,
)


def angle_stream(trajectory: Trajectory, dt: float) -> list[tuple[float, Angles]]:
    """Sample the trajectory every ``dt`` seconds, endpoint always included.

    Samples fall on t = 0, dt, 2*dt, ...; the final sample lands exactly on
    ``duration`` (appended when the regular grid misses it).
    """
    _require(dt > 0, "dt must be > 0", "dt")
    return [
        (t, angles_from_position(position(trajectory, t)))
        for t in _sample_times(trajectory.duration, dt)
    ]


@lru_cache(maxsize=8)
def leap_schedule(params: CaseParams, count: int) -> tuple[float, ...]:
    """Case-C angle per leap interval: start angle, then ``count`` seeded uniform draws."""
    rng = Random(params.rng_seed)
    return (params.start_theta,) + tuple(rng.uniform(0.0, LEAP_THETA_MAX) for _ in range(count))


def n_leaps(trajectory: Trajectory) -> int:
    """The leaps of a case-C trajectory: one per whole leap interval of its duration."""
    return int(math.floor(trajectory.duration / trajectory.params.leap_interval + 1e-9))


def position(trajectory: Trajectory, t: float) -> Point3D:
    """The target at time ``t``: in case A walking at ``speed`` to arrive in front of
    the surface, in case B in flight from the on-axis point, in case C at the angle of
    the leap interval that holds ``t``, the last leap's past the final leap."""
    p = trajectory.params
    d, v = p.standoff_distance, p.speed
    if trajectory.case_id is Case.A:
        arrival = d * math.tan(math.radians(p.start_theta)) / v
        return Point3D(v * (arrival - t), 0.0, d)
    if trajectory.case_id is Case.B:
        a = math.radians(p.launch_angle)
        return Point3D(v * math.cos(a) * t, v * math.sin(a) * t - 0.5 * GRAVITY * t * t, d)
    schedule = leap_schedule(p, n_leaps(trajectory))
    theta = schedule[min(int(t / p.leap_interval), len(schedule) - 1)]
    return Point3D(d * math.tan(math.radians(theta)), 0.0, d)


def _sample_times(duration: float, dt: float) -> list[float]:
    n = int(math.floor(duration / dt + 1e-9))
    ts = [k * dt for k in range(n + 1)]
    if duration - ts[-1] > 1e-9 * dt:
        ts.append(duration)
    else:
        ts[-1] = duration
    return ts


def leap_runs(trajectory: Trajectory, times: list[float]) -> list[int]:
    """Index of the first of ``times`` in each run on one leap of the schedule, then
    the sample count; every sample is a run of its own outside case C."""
    if trajectory.case_id is not Case.C:
        return list(range(len(times) + 1))
    interval, last = trajectory.params.leap_interval, n_leaps(trajectory)
    leap = [min(int(t / interval), last) for t in times]
    return [k for k in range(len(times)) if k == 0 or leap[k] != leap[k - 1]] + [len(times)]


def entries(stream) -> list[tuple[int, int, float | None]]:
    """(first sample, sample after the last, leap) of the run of every entry of
    ``stream``: its blocks, none empty, joined, each block's runs ending where the
    next block's begin; in cases A and B, read along the path, one sample each."""
    if stream.trajectory.case_id is not Case.C:
        return [(s, s + 1, None) for s in range(len(stream))]
    runs: list = []
    for heads, t, x, _, leaps in stream.blocks():
        assert len(heads) == len(t) + 1 == len(x) + 1 > 1
        assert not runs or runs[-1][1] == heads[0]
        heads = heads.tolist()
        runs += zip(heads, heads[1:], [None] * len(t) if leaps is None else leaps.tolist())
    return runs


def check_runs(stream, scalar: list[tuple[float, Angles]]) -> None:
    """``stream`` has one entry per run of ``leap_runs`` over the ``scalar`` samples,
    and sample s of an entry's run is the scalar sample s, in time and exact angles,
    with the angles of the run's first sample."""
    runs = entries(stream)
    assert [head for head, _, _ in runs] + [len(scalar)] == leap_runs(
        stream.trajectory, [t for t, _ in scalar]
    )
    check_positions(stream, [scalar[head][0] for head, _, _ in runs])
    for head, end, leap in runs:
        for s in range(head, end):
            assert stream.exact(s, leap) == scalar[s]
            assert scalar[s][1] == scalar[head][1]


def positions(stream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, x, y) over every entry of ``stream``: its blocks, joined, a scalar y repeated;
    in cases A and B each sample's position as the search reads it."""
    if stream.trajectory.case_id is not Case.C:
        t = np.array([stream.time(s) for s in range(len(stream))])
        x, y = np.array([stream.motion(u) for u in t.tolist()]).T
        return t, x, y
    blocks = [(t, x, np.broadcast_to(y, x.shape)) for _, t, x, y, _ in stream.blocks()]
    t, x, y = (np.concatenate(arrays) for arrays in zip(*blocks))
    return t, x, y


def check_positions(stream, times: list[float]) -> None:
    """``stream``'s entries fall on ``times``, at ``position``'s positions with its
    bits; in case C, whose x comes from numpy's ``tan``, x within two ulps.  In case C
    every block's y is the scalar 0.0."""
    trajectory = stream.trajectory
    if trajectory.case_id is Case.C:
        assert all(type(y) is float and y == 0.0 for _, _, _, y, _ in stream.blocks())
    t, x, y = positions(stream)
    assert t.tolist() == times
    want = [position(trajectory, t) for t in times]
    want_x, want_y = np.array([p.x for p in want]), np.array([p.y for p in want])
    assert np.array_equal(y.view(np.int64), want_y.view(np.int64))
    if trajectory.case_id is Case.C:
        assert (np.abs(x - want_x) <= 2 * np.spacing(np.abs(want_x))).all()
    else:
        assert np.array_equal(x.view(np.int64), want_x.view(np.int64))


def whole(stream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, theta, phi) over every entry of ``stream``: its blocks' positions, joined, and
    their angles by numpy's ``hypot`` and ``arctan2``."""
    t, x, y = positions(stream)
    theta = np.degrees(np.arctan2(np.hypot(x, y), stream.standoff))
    return t, theta, np.degrees(np.arctan2(y, x)) % 360.0


class PairStream:
    """Explicit (t, Angles) pairs in the shape the library's ``detect_events`` searches.

    Each pair is a run and a piece of its own, so the search reads no position (``time``
    and ``motion`` are None) and decides every pair on ``exact(s)``, which returns pair
    s as given: the pairs are taken as exact, and the search is a scan.
    """

    standoff, wobble = 1.0, 0.0
    time = motion = None

    def __init__(self, pairs):
        self.pairs = list(pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def exact(self, s: int, leap=None) -> tuple[float, Angles]:
        return self.pairs[s]

    def pieces(self) -> range:
        return range(1, len(self.pairs) + 1)


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
