"""Target motion and reflection-angle geometry for a wall-mounted surface.

The surface lies in the x-y plane with its normal along +z and y pointing
up.  ``theta`` is the polar angle measured from the surface normal and
``phi`` the azimuth in the surface plane measured from +x.  Angles are
degrees at every interface; trigonometry runs in radians internally.

Three mobility cases are modelled:

* A -- walk in a straight line parallel to the surface at constant height,
  ending directly in front of it,
* B -- projectile flight in a plane parallel to the surface, launched from
  the on-axis point,
* C -- random angular leaps drawn from a seeded generator, piecewise
  constant between leap instants.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from random import Random
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import BehindSurfaceError, ValidationError

GRAVITY = 9.81  # m/s^2
LEAP_THETA_MAX = 85.0  # degrees, upper bound of the case-C leap draw
CASE_B_SPEED = 30.0  # m/s, launch speed typical of the projectile case
# Steps per run: angle samples, case-C leaps, metrics bins or sweep steps, each checked
# before the count is used.  Case-C leaps are computed a block at a time, so for them
# this bounds run time (about 0.1 us a leap), not memory; a case-A walk and a case-B
# flight are searched, not sampled.
MAX_STEPS = 10**7
SAMPLE_BLOCK = 2**13  # case-C leaps computed at once; cf. coding.BLOCK_CELLS
RAD_TO_DEG = 180.0 / math.pi  # the factor of np.degrees and math.degrees, so the same bits


class Case(str, Enum):
    """Mobility case identifier."""

    A = "A"
    B = "B"
    C = "C"


def _require(condition: bool, message: str, key: str | None = None):
    if not condition:
        raise ValidationError(message, key=key)


_set = object.__setattr__  # sets a record's field past its __setattr__


class Record:
    """Base of the package's records: immutable values whose fields are the class's
    ``__slots__``, in order, each set once by ``__init__``.  Records of one class with
    equal fields are equal and hash alike; ``repr`` shows each field, and a pickle holds
    the fields, rebuilt through ``__init__``.  ``replace(**changes)`` is a changed copy,
    checked as a new record is."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def _fill(self, *values):
        """Set the fields, in ``__slots__`` order; a record's ``__init__`` does, once its
        checks pass, unless it is built too often for a loop, as ``Angles`` and
        ``ReconfigEvent`` are."""
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def replace(self, **changes):
        return type(self)(**dict(zip(self.__slots__, self._values()), **changes))

    def __setattr__(self, name, value=None):  # and, with no value, __delattr__
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = map("{}={!r}".format, self.__slots__, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._values()


class Point3D(Record):
    """Position in meters; z > 0 is in front of the surface."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
        for name, value in (("x", x), ("y", y), ("z", z)):
            _require(math.isfinite(value), f"{name} must be finite", key=name)
        self._fill(x, y, z)


class Angles(Record):
    """A (theta, phi) direction pair in degrees."""

    __slots__ = ("theta", "phi")

    def __init__(self, theta: float, phi: float):
        _set(self, "theta", theta)
        _set(self, "phi", phi)


class CaseParams(Record):
    """Scenario knobs shared by the three mobility cases.

    ``standoff_distance`` (m) is the z-offset of the motion line or plane,
    ``start_theta`` (degrees) the initial polar angle (cases A and C),
    ``launch_angle`` (degrees) the elevation of the case-B launch, and
    ``leap_interval`` (s) and ``rng_seed`` drive the case-C leap schedule.  The
    default ``speed``, 1.4 m/s, is an average walking speed; case B's is 30.
    """

    __slots__ = (
        "standoff_distance", "speed", "start_theta", "launch_angle", "leap_interval", "rng_seed"
    )

    def __init__(self, standoff_distance: float = 10.0, speed: float = 1.4,
                 start_theta: float = 85.0, launch_angle: float = 45.0,
                 leap_interval: float = 2.0, rng_seed: int = 1):
        _require(standoff_distance > 0, "standoff_distance must be > 0", "standoff_distance")
        _require(speed > 0, "speed must be > 0", "speed")
        _require(0 < start_theta < 90, "start_theta must lie in (0, 90)", "start_theta")
        _require(0 < launch_angle < 90, "launch_angle must lie in (0, 90)", "launch_angle")
        _require(leap_interval > 0, "leap_interval must be > 0", "leap_interval")
        self._fill(standoff_distance, speed, start_theta, launch_angle, leap_interval, rng_seed)


class Trajectory(Record):
    __slots__ = ("case_id", "params", "duration")

    def __init__(self, case_id: Case, params: CaseParams, duration: float):  # duration in s
        _require(math.isfinite(duration) and duration > 0, "duration must be > 0", "duration")
        if case_id is Case.C and duration / params.leap_interval > MAX_STEPS:
            # the duration is behind the count if the default interval gives as many leaps
            long = duration / CaseParams().leap_interval > MAX_STEPS
            key = "duration" if long else "leap_interval"
            raise ValidationError(f"{key} gives over {MAX_STEPS} leaps", key=key)
        self._fill(case_id, params, duration)


def case_a_trajectory(params: CaseParams | None = None) -> Trajectory:
    """Straight walk toward the on-axis point; default duration ends there."""
    p = params or CaseParams()
    return Trajectory(Case.A, p, _case_a_arrival_time(p))


def case_b_trajectory(params: CaseParams | None = None, duration: float | None = None) -> Trajectory:
    """Projectile flight; default duration is the full flight back to launch height."""
    p = params or CaseParams(speed=CASE_B_SPEED)
    if duration is None:
        duration = 2.0 * p.speed * math.sin(math.radians(p.launch_angle)) / GRAVITY
    return Trajectory(Case.B, p, duration)


def case_c_trajectory(params: CaseParams | None = None, duration: float = 60.0) -> Trajectory:
    """Random angular leaps every ``leap_interval`` seconds for ``duration``."""
    return Trajectory(Case.C, params or CaseParams(), duration)


def _case_a_arrival_time(p: CaseParams) -> float:
    """Instant at which the case-A walker stands directly in front of the surface."""
    return p.standoff_distance * math.tan(math.radians(p.start_theta)) / p.speed


def _motion(trajectory: Trajectory) -> Callable:
    """Case A's or B's (x, y) as a function of time, y the scalar 0.0 in case A.

    The time may be a float or a numpy array of times; one order of operations serves
    both, so a time gives the same bits either way.  Case A's x never increases with
    the time: ``arrival - t`` and ``speed * (...)`` with ``speed > 0`` are monotone
    under rounding.
    """
    p = trajectory.params
    if trajectory.case_id is Case.A:
        # x expressed relative to the arrival instant so the walk ends on x = 0 exactly
        speed, arrival = p.speed, _case_a_arrival_time(p)
        return lambda t: (speed * (arrival - t), 0.0)
    if trajectory.case_id is Case.B:
        alpha = math.radians(p.launch_angle)
        vx, vy = p.speed * math.cos(alpha), p.speed * math.sin(alpha)
        return lambda t: (vx * t, vy * t - 0.5 * GRAVITY * t * t)
    raise ValidationError("position_at covers cases A and B", key="case")


def position_at(trajectory: Trajectory, t: float) -> Point3D:
    """Target position at time ``t`` in [0, duration], in case A or B; a case-C
    position depends on its leaps, which an ``AngleStream``'s blocks draw."""
    if not 0.0 <= t <= trajectory.duration:
        raise ValidationError(
            f"t={t!r} outside [0, {trajectory.duration!r}]", key="t"
        )
    return Point3D(*_motion(trajectory)(t), trajectory.params.standoff_distance)


def angles_from_position(p: Point3D) -> Angles:
    """Reflection direction of ``p`` seen from the surface center.

    phi is normalized to [0, 360); the on-axis point maps to (0, 0) by
    convention.
    """
    if p.z <= 0:
        raise BehindSurfaceError(f"z={p.z!r} is not in front of the surface (z > 0 required)")
    return _direction(p.x, p.y, p.z)


def _direction(x: float, y: float, z: float) -> Angles:
    """``angles_from_position`` of the finite point (x, y, z), z > 0, unchecked."""
    theta = math.degrees(math.atan2(math.hypot(x, y), z))
    phi = math.degrees(math.atan2(y, x)) % 360.0
    if phi >= 360.0:  # the modulo can round up for tiny negative inputs
        phi = 0.0
    return Angles(theta, phi)


class AngleStream(Record):
    """A trajectory's angle samples, from ``angle_stream``: in cases A and B read one
    position at a time, in case C a block of leap runs at a time.  A stream equals
    only itself.

    An entry stands for a run of samples at equal angles: one sample in cases A
    and B, the samples between two leaps in case C.  In cases A and B
    ``motion(time(s))`` gives any sample's position, and ``pieces()`` splits the
    samples where the path turns.  ``motion`` is the trajectory's (x, y) at a time, a
    float or an array of times, which ``position_at`` reads too, so positions have its
    bits.  In case C ``motion`` is None, and ``blocks()`` yields blocks of entries as
    (heads, t, x, y, leaps): each entry's first sample and then the sample that ends
    the block's last run, the entries' times, x and leap angles as numpy arrays, and y
    the scalar 0.0; x is by numpy's ``tan``, which may differ from ``math.tan`` in the
    last bits.  ``time(s)`` is sample s's time and ``standoff`` every position's z.
    ``exact(s, leap)`` gives sample s on the scalar path, in case C at its run's
    ``leap`` angle.  ``len()`` is the sample count; ``last`` is the endpoint's index.
    """

    __slots__ = ("trajectory", "dt", "last", "motion")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, trajectory: Trajectory, dt: float, last: int, motion: Callable | None):
        self._fill(trajectory, dt, last, motion)

    def __len__(self) -> int:
        return self.last + 1

    @property
    def standoff(self) -> float:
        return self.trajectory.params.standoff_distance

    def time(self, s: int) -> float:
        """Sample s's time, which does not fall as s grows: ``s * dt``, or the duration
        at the endpoint."""
        return self.trajectory.duration if s == self.last else s * self.dt

    def exact(self, s: int, leap: float | None = None) -> tuple[float, Angles]:
        t, d = self.time(s), self.standoff
        x, y = self.motion(t) if leap is None else (d * math.tan(math.radians(leap)), 0.0)
        return t, _direction(x, y, d)  # finite, as the stream was checked, and d > 0

    def blocks(self) -> Iterator[tuple]:
        """Case C's runs that leaps [0, SAMPLE_BLOCK), [SAMPLE_BLOCK, 2 * SAMPLE_BLOCK),
        ... head; no block is empty."""
        _require(self.motion is None, "cases A and B are read by motion(time(s))", key="case")
        return _leap_blocks(self.trajectory, self.dt, self.last)

    @property
    def wobble(self) -> float:
        """The most by which a case-A or B position, from a piece's second sample on, lies
        off a path whose x, squared radius and phi are monotone along the piece, relative to
        its radius: 0 in case A, whose x never increases as rounded, and in case B
        8 * 2**-53 * max(tan(launch), 1), as x = vx*t and y = vy*t - g*t*t/2 round."""
        if self.trajectory.case_id is Case.A:
            return 0.0
        return 8 * 2.0**-53 * max(math.tan(math.radians(self.trajectory.params.launch_angle)), 1)

    def pieces(self) -> Sequence[int]:
        """The end of each piece of samples, the last ``len(self)``, in cases A and B, along
        which the path of ``wobble`` is monotone.  Case A's is one piece.  Case B's r*r =
        t*t * (vx*vx + (vy - g*t/2)**2) turns at g*t/2 = (3*vy -/+ sqrt(vy*vy - 8*vx*vx))/4
        where tan(launch)**2 > 8; a piece ends at the first sample at or after each turn,
        where r*r is flat.  A first x under 2**-500, where floats lose bits, gets pieces of
        one sample."""
        n, p = len(self), self.trajectory.params
        if self.trajectory.case_id is Case.A:
            return (n,)
        if not self.motion(self.time(min(1, self.last)))[0] >= 2.0**-500:
            return range(1, n + 1)
        s = math.sin(math.radians(p.launch_angle))
        turns = [p.speed * (3 * s + sign * math.sqrt(9 * s * s - 8)) / (2 * GRAVITY)
                 for sign in (-1, 1) if 9 * s * s > 8]
        return [math.ceil(min(t / self.dt, n)) for t in turns] + [n]


def angle_stream(trajectory: Trajectory, dt: float) -> AngleStream:
    """Sample the trajectory every ``dt`` seconds, endpoint always included.

    Samples fall on t = 0, dt, 2*dt, ...; the final sample lands exactly on
    ``duration`` (appended when the regular grid misses it).  Positions are
    ``position_at``'s, from the stream's ``motion``: in cases A and B one at a time,
    when a search reads ``motion(time(s))``; no angle is computed until detection
    asks ``exact`` for one.  The stream holds no array: case C draws its leaps and
    settles their runs a block of leaps at a time, so its memory grows with neither
    the leaps nor the samples.  A position beyond float range
    is refused.  In cases A and B, |x| and t*t are largest at the endpoints, so
    the two endpoint samples decide it, here; in case C every run's first sample
    does, in the block that holds it.
    """
    duration = trajectory.duration
    if not (dt > 0 and duration / dt <= MAX_STEPS):
        raise ValidationError(f"dt must be > 0 and give <= {MAX_STEPS} samples", key="dt")
    n = int(math.floor(duration / dt + 1e-9))
    last = n + (duration - n * dt > 1e-9 * dt)  # the endpoint's sample index
    if trajectory.case_id is Case.C:
        return AngleStream(trajectory, dt, last, None)
    motion = _motion(trajectory)
    for t in (0.0, duration):  # Point3D refuses a non-finite position
        Point3D(*motion(t), trajectory.params.standoff_distance)
    return AngleStream(trajectory, dt, last, motion)


def _sample_times(trajectory: Trajectory, dt: float, last: int, k: np.ndarray) -> np.ndarray:
    """Times of samples ``k``, which do not fall: ``k * dt``, and the duration for the
    endpoint ``last``, which can only be at their end."""
    t = k * dt
    if k[-1] == last:
        t[k == last] = trajectory.duration
    return t


def _leap_blocks(trajectory: Trajectory, dt: float, last: int) -> Iterator[tuple]:
    """Case C's blocks, one per ``SAMPLE_BLOCK`` leaps that head a run.

    Leap 0 is the start angle and leap j > 0 the jth seeded draw, with the bits of
    ``Random.uniform(0.0, LEAP_THETA_MAX)``, which is ``0.0 + LEAP_THETA_MAX *
    random()``; a block takes its draws in turn.  Leap j heads a run when the first
    sample at leap j or later is at leap j, and a block's last run ends at that first
    sample for the next block's first leap, or after ``last``.  That first sample is
    ``ceil(j * leap_interval / dt)`` give or take a sample or two, so a few passes of
    the rule that times the samples settle it.
    """
    p = trajectory.params
    n_leaps = int(math.floor(trajectory.duration / p.leap_interval + 1e-9))

    def leap_of(k):  # the leap interval that holds each sample's time, the last past the end
        t = _sample_times(trajectory, dt, last, k)
        return np.minimum((t / p.leap_interval).astype(np.int64), n_leaps)

    draws = itertools.chain((0.0,), iter(Random(p.rng_seed).random, None))
    for j0 in range(0, n_leaps + 1, SAMPLE_BLOCK):
        j = np.arange(j0, min(j0 + SAMPLE_BLOCK, n_leaps + 1) + 1)  # and the next block's first
        leaps = np.fromiter(draws, float, len(j) - 1)
        leaps *= LEAP_THETA_MAX
        if j0 == 0:
            leaps[0] = p.start_theta
        # a leap time past the duration is past the last sample: capped, it stays in range
        k = np.ceil(np.minimum(j * p.leap_interval, trajectory.duration) / dt)
        k = np.minimum(k, last).astype(np.int64)
        while True:
            leap = leap_of(k)
            late = (k > 0) & (leap_of(k - (k > 0)) >= j)
            early = (k < last) & (leap < j)
            if not (late.any() or early.any()):
                break
            k += early.astype(np.int64) - late
        head = leap[:-1] == j[:-1]  # the leaps that head a run
        if head.any():
            leaps = leaps[head]
            with np.errstate(over="ignore"):  # refused below, not warned of
                x = p.standoff_distance * np.tan(np.radians(leaps))
            _require(bool(np.isfinite(x).all()), "x must be finite", key="x")
            heads = np.append(k[:-1][head], k[-1] if leap[-1] >= j[-1] else last + 1)
            yield heads, _sample_times(trajectory, dt, last, heads[:-1]), x, 0.0, leaps


def signed_circular_delta_deg(target: float, reference: float) -> float:
    """Signed shortest rotation taking ``reference`` to ``target``, in [-180, 180)."""
    return (target - reference + 180.0) % 360.0 - 180.0
