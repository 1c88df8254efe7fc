import math
import random

import numpy as np
import pytest
import scalar_oracle
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
from steertrace.geometry import GRAVITY, Case, Point3D, Trajectory, angle_stream
from steertrace.geometry import angles_from_position, flight_turns, position_at


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


def test_position_at_refuses_case_c():
    # a case-C position depends on the leap schedule, which angle_stream draws
    with pytest.raises(ValidationError) as err:
        position_at(case_c_trajectory(), 0.0)
    assert err.value.key == "case"


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
    assert scalar_oracle.whole(stream)[0].tolist() == [0.0, traj.duration]


def test_angle_stream_times_increase_and_end_on_duration():
    traj = case_b_trajectory()
    stream = angle_stream(traj, 0.01)
    times = scalar_oracle.whole(stream)[0].tolist()
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
    w1 = scalar_oracle.whole(s1)
    assert all(np.array_equal(a, b) for a, b in zip(w1, scalar_oracle.whole(s2)))

    other = case_c_trajectory(CaseParams(rng_seed=8), duration=20.0)
    s3 = angle_stream(other, 0.01)
    assert scalar_oracle.whole(s3)[1].tolist() != w1[1].tolist()


def test_case_c_piecewise_constant_between_leaps():
    # one entry per leap's run of samples, and every sample of a run has its angles
    traj = case_c_trajectory(CaseParams(rng_seed=3, leap_interval=2.0), duration=10.0)
    stream = angle_stream(traj, 0.05)
    assert len(scalar_oracle.entries(stream)) == 6 and len(stream) == 201  # runs, samples
    scalar_oracle.check_runs(stream, scalar_oracle.angle_stream(traj, 0.05))


LANDING = case_b_trajectory().duration  # y is 1.4e-14 m there, and below 0 just after


@pytest.mark.parametrize(
    "trajectory, dt, end_phi",
    [
        (case_a_trajectory(), 1e-4, 0.0),  # 816,434 samples along the walk
        (case_a_trajectory(CaseParams(start_theta=89.0)), 0.03, 0.0),  # |x| from 572 m to 0
        (Trajectory(Case.A, CaseParams(), 100.0), 1e-3, 180.0),  # past the on-axis point
        (case_b_trajectory(duration=LANDING), 1e-3, 8.8750197831558e-15),
        (case_b_trajectory(duration=LANDING + 1e-15), 1e-3, 360.0),  # rounds up to 360
        (case_b_trajectory(duration=LANDING + 4e-15), 1e-3, 359.99999999999994),
        (case_b_trajectory(duration=LANDING + 5e-3), 1e-3, 359.93375925655147),  # 5 below y = 0
        (case_c_trajectory(CaseParams(rng_seed=3), duration=600.0), 1e-3, 0.0),  # 300 run heads
        (case_c_trajectory(CaseParams(leap_interval=0.01, rng_seed=17), duration=60.0), 0.02, 0.0),
    ],
    ids=["A", "A_far", "A_past_axis", "B_landing", "B_past_landing_360", "B_past_landing",
         "B_below", "C_runs", "C_leaps_outnumber_samples"],
)
def test_angle_blocks_have_the_bits_of_the_seed_formulas(trajectory, dt, end_phi):
    # case C's blocks' positions, and case A's and B's at each sample, are the seed
    # formulas', and give numpy's seed angles, which end on end_phi
    stream = angle_stream(trajectory, dt)
    heads = [head for head, _, _ in scalar_oracle.entries(stream)]
    times = [trajectory.duration if s == stream.last else s * dt for s in heads]
    scalar_oracle.check_positions(stream, times)
    if trajectory.case_id is Case.C:
        assert all(v.dtype == np.float64 for block in stream.blocks() for v in block[1:3])
    assert scalar_oracle.whole(stream)[2][-1] == end_phi


def test_case_a_is_read_by_its_motion_and_only_case_c_has_none():
    stream = angle_stream(case_a_trajectory(), 0.5)
    assert len(stream) == 165 and stream.time(163) == 81.5
    assert stream.time(164) == stream.trajectory.duration == 81.64323073400963
    assert stream.motion(stream.time(164)) == (0.0, 0.0)
    for stream in (stream, angle_stream(case_b_trajectory(), 0.5)):  # no blocks in A or B
        with pytest.raises(ValidationError) as err:
            next(stream.blocks())
        assert err.value.key == "case"
    assert angle_stream(case_b_trajectory(), 0.5).motion is not None
    assert angle_stream(case_c_trajectory(), 0.5).motion is None


def test_case_a_theta_near_ten_meters_is_45_degrees():
    # brute-force densest-sample oracle around x = 10 m
    traj = case_a_trajectory()
    stream = angle_stream(traj, 0.001)
    times, thetas, _ = scalar_oracle.whole(stream)
    best = min(range(len(stream)), key=lambda k: abs(position_at(traj, times[k]).x - 10.0))
    assert thetas[best] == pytest.approx(45.0, abs=0.05)


def test_case_a_theta_monotone_and_accelerating():
    traj = case_a_trajectory()
    thetas = scalar_oracle.whole(angle_stream(traj, 0.01))[1].tolist()
    assert all(b <= a for a, b in zip(thetas, thetas[1:]))

    n = len(thetas) // 10
    early = (thetas[0] - thetas[n]) / n
    late = (thetas[-n - 1] - thetas[-1]) / n
    assert late > early, "angle change per step should grow toward the end of the walk"


@pytest.mark.parametrize("launch", [45.0, 70.5, 70.6, 80.0, 89.0])
def test_flight_turns_are_where_the_squared_radius_turns(launch):
    """A launch above about 70.53 deg gives r*r a peak and then a trough; a lower one none,
    r*r growing all along the flight."""
    traj = case_b_trajectory(CaseParams(launch_angle=launch))
    turns = flight_turns(traj.params)

    def r2(t):
        p = position_at(traj, t)
        return p.x * p.x + p.y * p.y

    ts = np.linspace(0.0, traj.duration, 2001)[1:]
    grows = np.diff([r2(t) for t in ts]) > 0
    assert len(turns) == (0 if launch < 70.53 else 2)
    assert grows.all() == (not turns)
    h = 1e-4 * traj.duration
    for t, sign in zip(turns, (1, -1)):  # a peak, then a trough
        assert sign * (r2(t) - r2(t - h)) > 0 and sign * (r2(t) - r2(t + h)) > 0


def test_case_b_varies_both_angles():
    _, theta, phi = scalar_oracle.whole(angle_stream(case_b_trajectory(), 0.001))
    thetas, phis = theta.tolist(), phi.tolist()
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
