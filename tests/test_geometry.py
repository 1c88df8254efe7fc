import math
import random

import numpy as np
import pytest
from geometry_helpers import circular_delta_deg, position_from_angles

from steertrace import (
    Angles,
    CaseParams,
    ValidationError,
    case_a_trajectory,
    case_b_trajectory,
    case_c_trajectory,
)
from steertrace.errors import BehindSurfaceError
from steertrace.geometry import GRAVITY, Point3D, angle_stream, angles_from_position, position_at


def test_case_a_start_position():
    traj = case_a_trajectory(CaseParams(standoff_distance=10.0, speed=1.4, start_theta=45.0))
    p = position_at(traj, 0.0)
    assert p.x == pytest.approx(10.0, rel=1e-12)
    assert p.y == 0.0
    assert p.z == 10.0


def test_case_a_ends_directly_in_front():
    traj = case_a_trajectory()
    p = position_at(traj, traj.duration)
    assert p.x == 0.0
    assert angles_from_position(p).theta == 0.0


def test_case_b_apex_height_matches_integration_oracle():
    # closed-form projectile apex, cross-checked by explicit Euler integration
    traj = case_b_trajectory()
    v, alpha = traj.params.speed, math.radians(traj.params.launch_angle)
    t_apex = v * math.sin(alpha) / GRAVITY
    closed_form = v * math.sin(alpha) * t_apex - 0.5 * GRAVITY * t_apex**2

    dt = 1e-6
    y = 0.0
    vy = v * math.sin(alpha)
    steps = int(t_apex / dt)
    for _ in range(steps):
        y += vy * dt
        vy -= GRAVITY * dt
    y += vy * (t_apex - steps * dt)
    assert closed_form == pytest.approx(y, abs=1e-4)

    assert closed_form == pytest.approx(22.935779816513762, rel=1e-12)
    assert position_at(traj, t_apex).y == pytest.approx(closed_form, rel=1e-12)
    assert position_at(traj, t_apex).x == pytest.approx(v * math.cos(alpha) * t_apex, rel=1e-12)


def test_position_at_rejects_out_of_range_time():
    traj = case_a_trajectory()
    with pytest.raises(ValidationError):
        position_at(traj, -1.0)
    with pytest.raises(ValidationError):
        position_at(traj, traj.duration + 1e-6)


@pytest.mark.parametrize(
    "point, theta, phi",
    [
        ((0.0, 0.0, 10.0), 0.0, 0.0),
        ((10.0, 0.0, 10.0), 45.0, 0.0),
        ((0.0, 10.0, 10.0), 45.0, 90.0),
        ((-10.0, 0.0, 10.0), 45.0, 180.0),
        ((0.0, -10.0, 10.0), 45.0, 270.0),
    ],
)
def test_angles_from_position_symmetry_points(point, theta, phi):
    ang = angles_from_position(Point3D(*point))
    assert ang.theta == pytest.approx(theta, abs=1e-12)
    assert ang.phi == pytest.approx(phi, abs=1e-12)


def test_angles_from_position_rejects_points_behind_surface():
    with pytest.raises(BehindSurfaceError):
        angles_from_position(Point3D(1.0, 1.0, 0.0))
    with pytest.raises(BehindSurfaceError):
        angles_from_position(Point3D(1.0, 1.0, -2.0))


def test_point_requires_finite_coordinates():
    with pytest.raises(ValidationError):
        Point3D(float("nan"), 0.0, 1.0)
    with pytest.raises(ValidationError):
        Point3D(0.0, float("inf"), 1.0)


def test_case_params_validation():
    with pytest.raises(ValidationError):
        CaseParams(speed=0.0)
    with pytest.raises(ValidationError):
        CaseParams(standoff_distance=-1.0)
    with pytest.raises(ValidationError):
        CaseParams(start_theta=90.0)
    with pytest.raises(ValidationError):
        CaseParams(leap_interval=0.0)


def test_angle_stream_with_dt_equal_to_duration_has_two_samples():
    traj = case_a_trajectory()
    stream = angle_stream(traj, traj.duration)
    assert len(stream) == 2
    assert stream.t[0] == 0.0
    assert stream.t[-1] == traj.duration


def test_angle_stream_times_increase_and_end_on_duration():
    traj = case_b_trajectory()
    stream = angle_stream(traj, 0.01)
    times = stream.t.tolist()
    assert all(b > a for a, b in zip(times, times[1:]))
    assert times[-1] == traj.duration


def test_angle_stream_rejects_nonpositive_dt():
    with pytest.raises(ValidationError):
        angle_stream(case_a_trajectory(), 0.0)


def test_angle_stream_rejects_too_many_samples_before_allocating():
    # 1e-12 s over the 81 s walk would be about 8e13 samples
    with pytest.raises(ValidationError) as err:
        angle_stream(case_a_trajectory(), 1e-12)
    assert err.value.key == "dt"


def test_angle_stream_rejects_a_position_beyond_float_range():
    traj = case_b_trajectory(CaseParams(speed=1e160))  # x reaches about 1e319 m on landing
    with pytest.raises(ValidationError) as err:
        angle_stream(traj, traj.duration)
    assert err.value.key == "x"


def test_case_c_is_seed_deterministic():
    traj = case_c_trajectory(CaseParams(rng_seed=7), duration=20.0)
    s1 = angle_stream(traj, 0.01)
    s2 = angle_stream(traj, 0.01)
    assert all(np.array_equal(getattr(s1, k), getattr(s2, k)) for k in ("t", "theta", "phi"))

    other = case_c_trajectory(CaseParams(rng_seed=8), duration=20.0)
    s3 = angle_stream(other, 0.01)
    assert s3.theta.tolist() != s1.theta.tolist()


def test_case_c_piecewise_constant_between_leaps():
    traj = case_c_trajectory(CaseParams(rng_seed=3, leap_interval=2.0), duration=10.0)
    stream = angle_stream(traj, 0.05)
    thetas = {}
    for t, theta in zip(stream.t.tolist(), stream.theta.tolist()):
        thetas.setdefault(int(t / 2.0), set()).add(theta)
    for interval, values in thetas.items():
        assert len(values) == 1, f"interval {interval} saw several angles: {values}"


def test_case_a_theta_near_ten_meters_is_45_degrees():
    # brute-force densest-sample oracle around x = 10 m
    traj = case_a_trajectory()
    stream = angle_stream(traj, 0.001)
    best = min(range(len(stream)), key=lambda k: abs(position_at(traj, stream.t[k]).x - 10.0))
    assert stream.theta[best] == pytest.approx(45.0, abs=0.05)


def test_case_a_theta_monotone_and_accelerating():
    traj = case_a_trajectory()
    stream = angle_stream(traj, 0.01)
    thetas = stream.theta.tolist()
    assert all(b <= a for a, b in zip(thetas, thetas[1:]))

    n = len(thetas) // 10
    early = (thetas[0] - thetas[n]) / n
    late = (thetas[-n - 1] - thetas[-1]) / n
    assert late > early, "angle change per step should grow toward the end of the walk"


def test_case_b_varies_both_angles():
    stream = angle_stream(case_b_trajectory(), 0.001)
    thetas = stream.theta.tolist()
    phis = stream.phi.tolist()
    assert max(thetas) - min(thetas) > 5.0
    assert max(phis) - min(phis) > 5.0


def test_angle_position_round_trip():
    rng = random.Random(12345)
    for _ in range(2000):
        ang = Angles(rng.uniform(0.01, 89.99), rng.uniform(0.0, 360.0))
        r = rng.uniform(0.1, 100.0)
        back = angles_from_position(position_from_angles(ang, r))
        assert abs(back.theta - ang.theta) < 1e-9
        assert circular_delta_deg(back.phi, ang.phi) < 1e-9


def test_circular_delta_wraps():
    assert circular_delta_deg(359.0, 1.0) == pytest.approx(2.0)
    assert circular_delta_deg(1.0, 359.0) == pytest.approx(2.0)
    assert circular_delta_deg(180.0, 0.0) == pytest.approx(180.0)
