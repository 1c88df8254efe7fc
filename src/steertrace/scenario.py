"""The scenario schema, shared by the CLI config and the trace header.

A scenario is the 18 keys of ``FIELDS``, in five sections and in that order.
:func:`meta_to_dict` lays a :class:`TraceMeta` out so, and :func:`meta_from_dict`
is the one strict parser of the layout: the CLI runs its merged config through
it, and ``read_trace`` its header.  An integer must be a JSON integer (not a
boolean); a float must be a finite JSON number and is stored as ``float(v)``;
``case`` must be A, B or C; a null ``speed`` or ``duration`` takes the per-case
default; unknown and missing keys are errors.  Every error is a
:class:`ValidationError` whose key is ``section.key``.
"""

from __future__ import annotations

import functools
import math
import sys

from . import gateway
from .coding import SurfaceConfig
from .errors import ValidationError
from .gateway import NORMAL_INCIDENCE, GatewayConfig, TraceMeta
from .geometry import (
    GRAVITY,
    LEAP_THETA_MAX,
    Angles,
    Case,
    CaseParams,
    Trajectory,
    _case_a_arrival_time,
    angles_from_position,
    case_a_trajectory,
    case_b_trajectory,
    case_c_trajectory,
    position_at,
)

INT = "an integer"
FLOAT = "a finite number"
PER_CASE = "a finite number, or null for the per-case default"
CASE = "one of A, B, C"

FIELDS = (  # (section, key, kind)
    ("surface", "n_cols", INT),
    ("surface", "n_rows", INT),
    ("surface", "d_u", FLOAT),
    ("surface", "n_states", INT),
    ("wave", "lambda_i", FLOAT),
    ("wave", "lambda_r", FLOAT),
    ("incidence", "theta", FLOAT),
    ("incidence", "phi", FLOAT),
    ("gateway", "angular_step", FLOAT),
    ("gateway", "sample_dt", FLOAT),
    ("scenario", "case", CASE),
    ("scenario", "standoff_distance", FLOAT),
    ("scenario", "speed", PER_CASE),
    ("scenario", "start_theta", FLOAT),
    ("scenario", "launch_angle", FLOAT),
    ("scenario", "leap_interval", FLOAT),
    ("scenario", "rng_seed", INT),
    ("scenario", "duration", PER_CASE),
)

_KINDS = {(section, key): kind for section, key, kind in FIELDS}
_SECTION_OF = {key: section for section, key, _ in FIELDS}
_TRAJECTORIES = {Case.A: case_a_trajectory, Case.B: case_b_trajectory, Case.C: case_c_trajectory}


def is_finite_number(value) -> bool:
    """True for a JSON number that is finite as a float; booleans are not numbers."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def meta_to_dict(meta: TraceMeta) -> dict:
    """``meta`` laid out as FIELDS, the same dict :func:`meta_from_dict` parses."""
    traj = meta.trajectory
    # the records' fields, in FIELDS order
    values = iter((
        *meta.surface._values(), *meta.incident._values(), *meta.gateway._values(),
        traj.case_id.value, *traj.params._values(), traj.duration,
    ))
    d: dict = {}
    for section, key, _ in FIELDS:
        d.setdefault(section, {})[key] = next(values)
    return d


def defaults() -> dict:
    """The scenario when nothing is set: the records' defaults, per-case keys null.  Each
    call gets its own copy, which the caller may change."""
    return {section: dict(values) for section, values in _default_layout().items()}


@functools.cache
def _default_layout() -> dict:
    """``defaults()``'s layout, built on the first call, not at import, and shared after it."""
    d = meta_to_dict(
        TraceMeta(SurfaceConfig(), GatewayConfig(), NORMAL_INCIDENCE, case_a_trajectory())
    )
    for section, key, kind in FIELDS:
        if kind is PER_CASE:
            d[section][key] = None
    return d


def _parse(kind: str, value, dotted: str):
    if kind is INT and type(value) is int:
        return value
    if kind is CASE and value in tuple(Case):
        return Case(value)
    if kind in (FLOAT, PER_CASE) and is_finite_number(value):
        return float(value)
    if kind is PER_CASE and value is None:
        return None
    raise ValidationError(f"{dotted} must be {kind}, got {value!r}", key=dotted)


def _sections(d) -> dict[str, dict]:
    """``d`` checked against FIELDS, with every value parsed."""
    if not isinstance(d, dict):
        raise ValidationError(f"scenario must be an object of sections, got {d!r}")
    parsed: dict = {section: {} for section, _, _ in FIELDS}
    for section, entries in d.items():
        if section not in parsed:
            raise ValidationError(f"unknown section {section!r}", key=section)
        if not isinstance(entries, dict):
            raise ValidationError(f"section {section} must be an object, got {entries!r}", section)
        for key, value in entries.items():
            dotted = f"{section}.{key}"
            if (section, key) not in _KINDS:
                raise ValidationError(f"unknown key {dotted}", key=dotted)
            parsed[section][key] = _parse(_KINDS[section, key], value, dotted)
    for section, key, _ in FIELDS:
        if key not in parsed[section]:
            raise ValidationError(f"missing key {section}.{key}", key=f"{section}.{key}")
    return parsed


def _trajectory(case: Case, speed: float | None, duration: float | None, **params) -> Trajectory:
    make = _TRAJECTORIES[case]
    if speed is None:
        speed = make().params.speed  # each case's own default
    p = CaseParams(speed=speed, **params)
    # Case A starts, and case C may leap, at x = d * tan(theta), with tan(theta < 90) < 2**52.
    # The bound spares most scenarios a tan: a process's first faults in about 0.15 MB of libm.
    if case is not Case.B and not math.isfinite(p.standoff_distance * 2.0**52 / speed):
        theta = max(p.start_theta, LEAP_THETA_MAX) if case is Case.C else p.start_theta
        x = p.standoff_distance * math.tan(math.radians(theta))
        if not math.isfinite(x):
            raise ValidationError(f"standoff_distance gives x={x}, not finite", "standoff_distance")
        if case is Case.A and not math.isfinite(x / speed):
            raise ValidationError("speed gives an arrival time that is not finite", "speed")
    try:
        traj = make(p) if duration is None else Trajectory(case, p, duration)
    except ValidationError as exc:
        if duration is not None or exc.key != "duration":
            raise
        # the case's own duration, d * tan(theta) / speed or 2 * speed * sin(launch) / g
        if case is Case.B:
            key = "speed" if math.sin(math.radians(p.launch_angle)) else "launch_angle"
        elif not (tan := math.tan(math.radians(p.start_theta))):
            key = "start_theta"
        else:
            key = "speed" if p.standoff_distance * tan else "standoff_distance"
        what = "an arrival time" if case is Case.A else "a flight time"
        raise ValidationError(f"{key} gives {what} that is 0 or not finite", key) from None
    if case is not Case.C:
        _refuse_grazing(traj, "speed" if duration is None else "duration")
    return traj


def _refuse_grazing(traj: Trajectory, reach_key: str):
    """Refuse a case-A or B target whose position is past float range, or whose furthest
    point off axis reflects at a theta that rounds to 90, grazing the surface.  Under 2**52
    standoffs off axis theta stays below 90, so most scenarios compute no position here."""
    p, t = traj.params, traj.duration
    bound = 2.0**52 * p.standoff_distance
    if traj.case_id is Case.A:  # its start is under the bound, by the tan bound above
        if p.speed * t < bound:
            return
        times = (t,)
    else:
        if p.speed * t + 0.5 * GRAVITY * t * t < bound:
            return
        # r*r = (v*t)**2 - v*s*g*t**3 + (g*t*t/2)**2 has a peak, at the first time, only
        # where 9*s*s > 8; elsewhere it grows with t
        s = math.sin(math.radians(p.launch_angle))
        times = (min(t, p.speed * (3 * s - math.sqrt(max(9 * s * s - 8, 0))) / (2 * GRAVITY)), t)
    try:
        far = max((position_at(traj, u) for u in times), key=lambda q: math.hypot(q.x, q.y))
    except ValidationError:
        message = f"{reach_key} gives a position that is not finite"
        raise ValidationError(message, reach_key) from None
    if angles_from_position(far).theta < 90.0:
        return
    reach = math.hypot(far.x, far.y)
    # a graze under 2**52 default standoffs off axis needs a standoff under its default
    key = "standoff_distance" if reach < 2.0**52 * CaseParams().standoff_distance else reach_key
    raise ValidationError(
        f"{key} puts the target {reach!r} m off axis, over 2**52 standoffs of "
        f"{p.standoff_distance!r} m, where its reflection grazes the surface",
        key,
    )


def meta_from_dict(d) -> TraceMeta:
    """Parse a scenario laid out as FIELDS; see the module docstring for the rules."""
    s = _sections(d)
    try:
        return TraceMeta(
            SurfaceConfig(**s["surface"], **s["wave"]),
            GatewayConfig(**s["gateway"]),
            Angles(**s["incidence"]),
            _trajectory(**s["scenario"]),
        )
    except ValidationError as exc:
        key, message = exc.key, str(exc)
        if key == "duration" and s["scenario"]["duration"] is None:  # too many samples
            key = _own_duration_key(s["scenario"])
            message = key + message.removeprefix("duration")
        section = _SECTION_OF.get(key)
        if section is None:
            raise
        # the records' messages begin with their bare key
        raise ValidationError(f"{section}.{message}", key=f"{section}.{key}") from None


def _own_duration_key(scenario: dict) -> str:
    """The key behind a case's own duration that the default sampling period samples
    over MAX_STEPS times: speed, unless case A's arrival time at the default speed is as
    long; then start_theta, unless it is as long at the default angle too; then
    standoff_distance.  Case B's own flight at its default speed lasts 6.1 s, case C's
    60 s."""
    if scenario["case"] is not Case.A:
        return "speed"
    p = _trajectory(**scenario).params
    for key in ("speed", "start_theta"):
        p = p.replace(**{key: getattr(CaseParams(), key)})
        if _case_a_arrival_time(p) / GatewayConfig().sample_dt <= gateway.MAX_STEPS:
            return key
    return "standoff_distance"
