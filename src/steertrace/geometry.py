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

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from random import Random

import numpy as np

from .errors import BehindSurfaceError, ValidationError

GRAVITY = 9.81  # m/s^2
LEAP_THETA_MAX = 85.0  # degrees, upper bound of the case-C leap draw
CASE_B_SPEED = 30.0  # m/s, launch speed typical of the projectile case
MAX_SAMPLES = 10**7  # angle samples per run, and case-C leaps; checked before allocation


class Case(str, Enum):
    """Mobility case identifier."""

    A = "A"
    B = "B"
    C = "C"


def _require(condition: bool, message: str, key: str | None = None):
    if not condition:
        raise ValidationError(message, key=key)


@dataclass(frozen=True, slots=True)
class Point3D:
    """Position in meters; z > 0 is in front of the surface."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            _require(math.isfinite(getattr(self, name)), f"{name} must be finite", key=name)


@dataclass(frozen=True, slots=True)
class Angles:
    """A (theta, phi) direction pair in degrees."""

    theta: float
    phi: float


@dataclass(frozen=True)
class CaseParams:
    """Scenario knobs shared by the three mobility cases.

    ``standoff_distance`` is the z-offset of the motion line or plane,
    ``start_theta`` the initial polar angle (cases A and C), ``launch_angle``
    the elevation of the case-B launch, and ``leap_interval``/``rng_seed``
    drive the case-C leap schedule.
    """

    standoff_distance: float = 10.0  # m
    speed: float = 1.4  # m/s (average walking speed; case B typically uses 30)
    start_theta: float = 85.0  # degrees
    launch_angle: float = 45.0  # degrees
    leap_interval: float = 2.0  # s
    rng_seed: int = 1

    def __post_init__(self):
        _require(self.standoff_distance > 0, "standoff_distance must be > 0", "standoff_distance")
        _require(self.speed > 0, "speed must be > 0", "speed")
        _require(0 < self.start_theta < 90, "start_theta must lie in (0, 90)", "start_theta")
        _require(0 < self.launch_angle < 90, "launch_angle must lie in (0, 90)", "launch_angle")
        _require(self.leap_interval > 0, "leap_interval must be > 0", "leap_interval")


@dataclass(frozen=True)
class Trajectory:
    case_id: Case
    params: CaseParams
    duration: float  # s

    def __post_init__(self):
        _require(
            math.isfinite(self.duration) and self.duration > 0,
            "duration must be > 0",
            "duration",
        )
        if self.case_id is Case.C and self.duration / self.params.leap_interval > MAX_SAMPLES:
            raise ValidationError(f"leap_interval gives over {MAX_SAMPLES} leaps", key="leap_interval")


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


def position_at(trajectory: Trajectory, t: float) -> Point3D:
    """Target position at time ``t`` in [0, duration]."""
    if not 0.0 <= t <= trajectory.duration:
        raise ValidationError(
            f"t={t!r} outside [0, {trajectory.duration!r}]", key="t"
        )
    p = trajectory.params
    d = p.standoff_distance
    if trajectory.case_id is Case.A:
        # x expressed relative to the arrival instant so the walk ends on x = 0 exactly
        return Point3D(p.speed * (_case_a_arrival_time(p) - t), 0.0, d)
    if trajectory.case_id is Case.B:
        alpha = math.radians(p.launch_angle)
        x = p.speed * math.cos(alpha) * t
        y = p.speed * math.sin(alpha) * t - 0.5 * GRAVITY * t * t
        return Point3D(x, y, d)
    theta = _leap_angle(trajectory, t)
    return Point3D(d * math.tan(math.radians(theta)), 0.0, d)


def angles_from_position(p: Point3D) -> Angles:
    """Reflection direction of ``p`` seen from the surface center.

    phi is normalized to [0, 360); the on-axis point maps to (0, 0) by
    convention.
    """
    if p.z <= 0:
        raise BehindSurfaceError(f"z={p.z!r} is not in front of the surface (z > 0 required)")
    theta = math.degrees(math.atan2(math.hypot(p.x, p.y), p.z))
    phi = math.degrees(math.atan2(p.y, p.x)) % 360.0
    if phi >= 360.0:  # the modulo can round up for tiny negative inputs
        phi = 0.0
    return Angles(theta, phi)


@dataclass(frozen=True, eq=False)
class AngleStream:
    """A trajectory's angle samples as arrays, from ``angle_stream``.

    ``theta``/``phi`` come from numpy and may differ from the scalar path in
    the last bits; ``exact(k)`` gives sample k on that path.
    """

    trajectory: Trajectory
    t: np.ndarray
    theta: np.ndarray
    phi: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def exact(self, k: int) -> tuple[float, Angles]:
        t = float(self.t[k])
        return t, angles_from_position(position_at(self.trajectory, t))


def angle_stream(trajectory: Trajectory, dt: float) -> AngleStream:
    """Sample the trajectory every ``dt`` seconds, endpoint always included.

    Samples fall on t = 0, dt, 2*dt, ...; the final sample lands exactly on
    ``duration`` (appended when the regular grid misses it).  One numpy pass
    follows the operation order of ``position_at`` and ``angles_from_position``.
    """
    duration = trajectory.duration
    if not (dt > 0 and duration / dt <= MAX_SAMPLES):  # checked before any allocation
        raise ValidationError(f"dt must be > 0 and give <= {MAX_SAMPLES} samples", key="dt")
    n = int(math.floor(duration / dt + 1e-9))
    t = np.arange(n + 1) * dt
    if duration - t[-1] > 1e-9 * dt:
        t = np.append(t, duration)
    else:
        t[-1] = duration
    p = trajectory.params
    d = p.standoff_distance
    y = 0.0
    if trajectory.case_id is Case.A:
        x = p.speed * (_case_a_arrival_time(p) - t)
    elif trajectory.case_id is Case.B:
        alpha = math.radians(p.launch_angle)
        with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
            x = p.speed * math.cos(alpha) * t
            y = p.speed * math.sin(alpha) * t - 0.5 * GRAVITY * t * t
    else:
        schedule = np.array(_leap_schedule(p, duration))
        idx = np.minimum((t / p.leap_interval).astype(np.int64), len(schedule) - 1)
        x = d * np.tan(np.radians(schedule[idx]))
    for name, v in (("x", x), ("y", y)):
        _require(bool(np.isfinite(v).all()), f"{name} must be finite", key=name)
    theta = np.degrees(np.arctan2(np.hypot(x, y), d))
    phi = np.degrees(np.arctan2(y, x)) % 360.0  # may round up to 360, which is 0 circularly
    return AngleStream(trajectory, t, theta, phi)


@lru_cache(maxsize=64)
def _leap_schedule(params: CaseParams, duration: float) -> tuple[float, ...]:
    """Case-C angle per leap interval: start angle, then seeded uniform draws."""
    rng = Random(params.rng_seed)
    n_leaps = int(math.floor(duration / params.leap_interval + 1e-9))
    return (params.start_theta,) + tuple(
        rng.uniform(0.0, LEAP_THETA_MAX) for _ in range(n_leaps)
    )


def _leap_angle(trajectory: Trajectory, t: float) -> float:
    schedule = _leap_schedule(trajectory.params, trajectory.duration)
    idx = min(int(t / trajectory.params.leap_interval), len(schedule) - 1)
    return schedule[idx]


def signed_circular_delta_deg(target: float, reference: float) -> float:
    """Signed shortest rotation taking ``reference`` to ``target``, in [-180, 180)."""
    return (target - reference + 180.0) % 360.0 - 180.0
