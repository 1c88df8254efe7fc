"""The value semantics of the package's records: immutable, equal by value within one
class only, hashed by value where their fields hash, shown and pickled by field, and
changed only into a copy that is checked as a new record is."""

import inspect
import math
import pickle

import numpy as np
import pytest

from steertrace import (
    Angles,
    CaseParams,
    GatewayConfig,
    ReconfigEvent,
    SurfaceConfig,
    TraceMeta,
    TrafficTrace,
    Trajectory,
    ValidationError,
    WorkloadReport,
    case_a_trajectory,
    case_c_trajectory,
)
from steertrace.geometry import AngleStream, Case, Point3D, angle_stream


def changed(record, **changes):
    """A copy of ``record`` with ``changes``, by the record's own changed-copy path."""
    return record.replace(**changes)


def meta():
    return TraceMeta(SurfaceConfig(4, 3), GatewayConfig(), Angles(0.0, 0.0), case_a_trajectory())


# Each record built twice from equal fields, and the name of one of its fields.
RECORDS = {
    "Point3D": (lambda: Point3D(1.0, -2.0, 3.0), "y"),
    "Angles": (lambda: Angles(10.0, 20.0), "phi"),
    "CaseParams": (lambda: CaseParams(speed=2.0, rng_seed=7), "speed"),
    "Trajectory": (lambda: Trajectory(Case.C, CaseParams(), 60.0), "duration"),
    "SurfaceConfig": (lambda: SurfaceConfig(8, 6, n_states=2), "n_cols"),
    "GatewayConfig": (lambda: GatewayConfig(2.0, 0.01), "sample_dt"),
    "ReconfigEvent": (lambda: ReconfigEvent(1.5, Angles(10.0, 20.0), [[1, 2, 1]]), "updates"),
    "TraceMeta": (meta, "gateway"),
    "TrafficTrace": (
        lambda: TrafficTrace(meta(), (ReconfigEvent(0.0, Angles(85.0, 180.0), [[0, 0, 1]]),)),
        "events",
    ),
    "WorkloadReport": (lambda: WorkloadReport((0.5, 0.0), 6, (6, 0), (1.5,), 0.25), "spatial_cv"),
}
VALUE_RECORDS = pytest.mark.parametrize("name", RECORDS)


def stream():
    return angle_stream(case_c_trajectory(), 1e-3)


@pytest.mark.parametrize("name", [*RECORDS, "AngleStream"])
def test_a_records_fields_can_be_neither_assigned_nor_deleted(name):
    record, field = RECORDS[name] if name in RECORDS else (stream, "dt")
    record = record()
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == before


@VALUE_RECORDS
def test_records_of_equal_fields_are_equal_and_hash_alike(name):
    make, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if name in ("ReconfigEvent", "TrafficTrace"):  # an array field: no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@VALUE_RECORDS
def test_a_record_equals_no_tuple_and_no_record_of_another_class(name):
    make, field = RECORDS[name]
    record = make()
    names = list(inspect.signature(type(record)).parameters)
    values = tuple(getattr(record, n) for n in names)
    assert record != values and record != list(values)
    assert changed(record, **{field: getattr(make(), field)}) == record
    assert all(record != other() for key, (other, _) in RECORDS.items() if key != name)
    # of the same field values: GatewayConfig and Angles are two floats each
    assert GatewayConfig(1.0, 2.0) != Angles(1.0, 2.0)


def test_a_record_differs_from_one_that_differs_in_any_field():
    assert CaseParams() != CaseParams(rng_seed=2)
    assert Angles(1.0, 2.0) != Angles(1.0, 2.5)
    event = ReconfigEvent(1.0, Angles(1.0, 2.0), [[1, 2, 1]])
    assert event != ReconfigEvent(1.0, Angles(1.0, 2.0), [[1, 2, 0]])
    assert event != ReconfigEvent(1.0, Angles(1.0, 2.0), np.empty((0, 3), np.int64))


def test_a_records_repr_names_each_field_and_the_defaults_are_as_documented():
    assert repr(Angles(10.0, 20.0)) == "Angles(theta=10.0, phi=20.0)"
    assert repr(Point3D(1.0, -2.0, 3.0)) == "Point3D(x=1.0, y=-2.0, z=3.0)"
    params = (
        "CaseParams(standoff_distance=10.0, speed=1.4, start_theta=85.0, launch_angle=45.0, "
        "leap_interval=2.0, rng_seed=1)"
    )
    assert repr(CaseParams()) == params
    assert repr(Trajectory(Case.C, CaseParams(), 60.0)) == (
        f"Trajectory(case_id=<Case.C: 'C'>, params={params}, duration=60.0)"
    )
    assert repr(SurfaceConfig()) == (
        "SurfaceConfig(n_cols=50, n_rows=50, d_u=0.0075, n_states=4, lambda_i=0.03, "
        "lambda_r=0.03)"
    )
    assert repr(GatewayConfig()) == "GatewayConfig(angular_step=5.0, sample_dt=0.001)"
    event = ReconfigEvent(1.5, Angles(10.0, 20.0), [[1, 2, 1]])
    assert repr(event) == (
        "ReconfigEvent(t=1.5, reflected=Angles(theta=10.0, phi=20.0), updates=array([[1, 2, 1]]))"
    )
    assert repr(TraceMeta(SurfaceConfig(), GatewayConfig(), Angles(0.0, 0.0),
                          Trajectory(Case.C, CaseParams(), 60.0))) == (
        f"TraceMeta(surface={SurfaceConfig()!r}, gateway={GatewayConfig()!r}, "
        f"incident=Angles(theta=0.0, phi=0.0), trajectory=Trajectory(case_id=<Case.C: 'C'>, "
        f"params={params}, duration=60.0))"
    )
    assert repr(TrafficTrace(meta(), ())) == f"TrafficTrace(meta={meta()!r}, events=())"
    assert repr(WorkloadReport((0.5,), 2, (2,), (), 0.25)) == (
        "WorkloadReport(per_event_changed_fraction=(0.5,), total_packets=2, burst_sizes=(2,), "
        "inter_event_times=(), spatial_cv=0.25)"
    )
    assert repr(stream()) == (
        f"AngleStream(trajectory={case_c_trajectory()!r}, dt=0.001, last=60000, motion=None)"
    )


SIGNATURES = {
    Point3D: [("x", None), ("y", None), ("z", None)],
    Angles: [("theta", None), ("phi", None)],
    CaseParams: [("standoff_distance", 10.0), ("speed", 1.4), ("start_theta", 85.0),
                 ("launch_angle", 45.0), ("leap_interval", 2.0), ("rng_seed", 1)],
    Trajectory: [("case_id", None), ("params", None), ("duration", None)],
    AngleStream: [("trajectory", None), ("dt", None), ("last", None), ("motion", None)],
    SurfaceConfig: [("n_cols", 50), ("n_rows", 50), ("d_u", 0.0075), ("n_states", 4),
                    ("lambda_i", 0.03), ("lambda_r", 0.03)],
    GatewayConfig: [("angular_step", 5.0), ("sample_dt", 1e-3)],
    ReconfigEvent: [("t", None), ("reflected", None), ("updates", None)],
    TraceMeta: [("surface", None), ("gateway", None), ("incident", None), ("trajectory", None)],
    TrafficTrace: [("meta", None), ("events", None)],
    WorkloadReport: [("per_event_changed_fraction", None), ("total_packets", None),
                     ("burst_sizes", None), ("inter_event_times", None), ("spatial_cv", None)],
}


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_a_records_constructor_takes_its_fields_in_order_with_their_defaults(cls):
    params = inspect.signature(cls).parameters.values()
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    empty = inspect.Parameter.empty
    got = [(p.name, None if p.default is empty else p.default) for p in params]
    assert got == SIGNATURES[cls]


@VALUE_RECORDS
def test_a_record_pickles_to_an_equal_record(name):
    record = RECORDS[name][0]()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(record, protocol))
        assert type(again) is type(record) and again == record and again is not record
        assert repr(again) == repr(record)


@pytest.mark.parametrize(
    "name, changes, message, key",
    [
        ("CaseParams", {"speed": 0}, "speed must be > 0", "speed"),
        ("CaseParams", {"launch_angle": 90.0}, "launch_angle must lie in (0, 90)", "launch_angle"),
        ("Point3D", {"z": math.inf}, "z must be finite", "z"),
        ("Trajectory", {"duration": 0.0}, "duration must be > 0", "duration"),
        ("Trajectory", {"params": CaseParams(leap_interval=1e-6)},
         "leap_interval gives over 10000000 leaps", "leap_interval"),
        ("SurfaceConfig", {"n_rows": 0}, "n_rows must be >= 1", "n_rows"),
        ("SurfaceConfig", {"n_cols": 2000, "n_rows": 1000}, "n_cols * n_rows must be <= 1000000",
         "n_cols"),
        ("GatewayConfig", {"sample_dt": -1.0}, "sample_dt must be > 0", "sample_dt"),
        ("ReconfigEvent", {"t": math.nan}, "t=nan must be finite", "t"),
        ("ReconfigEvent", {"updates": [[1, 2]]},
         "updates must be (n, 3) integers: got int64 of shape (1, 2)", "updates"),
        ("TraceMeta", {"incident": Angles(90.0, 0.0)}, "theta=90.0 must lie in [0, 90)", "theta"),
        ("TraceMeta", {"gateway": GatewayConfig(sample_dt=1e-6)},
         "sample_dt gives over 10000000 samples", "sample_dt"),
    ],
)
def test_a_changed_copy_is_checked_as_a_new_record_is(name, changes, message, key):
    record = RECORDS[name][0]()
    with pytest.raises(ValidationError) as exc:
        changed(record, **changes)
    assert (str(exc.value), exc.value.key) == (message, key)


def test_a_changed_copy_keeps_the_other_fields_and_leaves_the_record_alone():
    params = CaseParams(speed=2.0)
    seeded = changed(params, rng_seed=9)
    assert seeded == CaseParams(speed=2.0, rng_seed=9) and params == CaseParams(speed=2.0)
    with pytest.raises(TypeError):
        changed(params, rng=9)


def test_an_angle_stream_is_equal_only_to_itself():
    a, b = stream(), stream()
    assert a == a and a != b and not a != a
    assert len({a, a, b}) == 2


def test_an_events_rows_are_kept_read_only_and_taken_without_a_copy_when_they_are():
    rows = np.array([[1, 2, 1], [3, 2, 0]], np.int64)
    rows.flags.writeable = False
    assert ReconfigEvent(1.0, Angles(1.0, 2.0), rows).updates is rows
    writable = np.array([[1, 2, 1]], np.int32)
    event = ReconfigEvent(1.0, Angles(1.0, 2.0), writable)
    assert event.updates is not writable and event.updates.dtype == np.int64
    assert not event.updates.flags.writeable
    writable[0, 0] = 9
    assert event.updates.tolist() == [[1, 2, 1]]
    assert ReconfigEvent(1.0, Angles(1.0, 2.0), []).updates.shape == (0, 3)
