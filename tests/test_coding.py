import math
import random

import numpy as np
import pytest
from coding_oracle import PhaseGradient, ideal_phase, nearest_state_with_temporaries
from coding_oracle import phase_gradients, quantize_phase, wrap_phase

from steertrace import Angles, SurfaceConfig, ValidationError, coding, state_matrix
from steertrace.coding import TWO_PI, _nearest_state
from steertrace.gateway import _warn_on_aliasing
from steertrace.metrics import sweep_grid

INC = Angles(0.0, 0.0)

# enumeration of the quarter-cycle-per-cell case through the quantizer
ROW_PATTERN = [0, 0, 1, 1, 2, 2, 3, 3]


def brute_force_state(phase: float, n_states: int) -> int:
    """Exhaustive argmin over all state phases, circular distance."""
    best, best_d = 0, None
    for k in range(n_states):
        d = abs(phase - TWO_PI * k / n_states) % TWO_PI
        d = min(d, TWO_PI - d)
        if best_d is None or d < best_d - 1e-18:
            best, best_d = k, d
    return best


def test_gradients_vanish_for_straight_reflection():
    g = phase_gradients(INC, Angles(0.0, 0.0), SurfaceConfig())
    assert g.gx == 0.0 and g.gy == 0.0


def test_gradients_vanish_for_specular_pair():
    cfg = SurfaceConfig()
    g = phase_gradients(Angles(37.3, 123.4), Angles(37.3, 123.4), cfg)
    assert g.gx == 0.0 and g.gy == 0.0


def test_theta_0_at_phi_270_gives_a_negative_zero_gy():
    g = phase_gradients(INC, Angles(0.0, 270.0), SurfaceConfig())
    assert g.gx == 0.0 and math.copysign(1.0, g.gy) == -1.0


def test_gradient_hand_value_30_degrees():
    g = phase_gradients(INC, Angles(30.0, 0.0), SurfaceConfig())
    assert g.gx == pytest.approx((TWO_PI / 0.03) * 0.5, rel=1e-12)
    assert g.gy == 0.0


def test_gradients_reject_bad_angles():
    cfg = SurfaceConfig()
    with pytest.raises(ValidationError):
        phase_gradients(INC, Angles(float("nan"), 0.0), cfg)
    with pytest.raises(ValidationError):
        phase_gradients(INC, Angles(90.0, 0.0), cfg)
    with pytest.raises(ValidationError):
        phase_gradients(Angles(-1.0, 0.0), Angles(10.0, 0.0), cfg)


def test_gradient_round_trip_recovers_reflected_direction():
    cfg = SurfaceConfig(lambda_i=0.03, lambda_r=0.025)
    rng = random.Random(271828)
    for _ in range(1000):
        inc = Angles(rng.uniform(0.0, 89.9), rng.uniform(0.0, 360.0))
        ref = Angles(rng.uniform(0.0, 89.9), rng.uniform(0.0, 360.0))
        g = phase_gradients(inc, ref, cfg)
        si = math.sin(math.radians(inc.theta))
        got_c = (g.gx + cfg.k_i * si * math.cos(math.radians(inc.phi))) / cfg.k_r
        got_s = (g.gy + cfg.k_i * si * math.sin(math.radians(inc.phi))) / cfg.k_r
        want_c = math.sin(math.radians(ref.theta)) * math.cos(math.radians(ref.phi))
        want_s = math.sin(math.radians(ref.theta)) * math.sin(math.radians(ref.phi))
        for got, want in ((got_c, want_c), (got_s, want_s)):
            err = abs(got - want) / abs(want) if want != 0.0 else abs(got - want)
            assert err < 1e-9


def test_ideal_phase_zero_gradient_is_all_zero():
    cfg = SurfaceConfig()
    assert not ideal_phase(PhaseGradient(0.0, 0.0), cfg).any()


def test_ideal_phase_origin_cell_is_zero_for_any_gradient():
    cfg = SurfaceConfig()
    rng = random.Random(5)
    for _ in range(20):
        g = PhaseGradient(rng.uniform(-300, 300), rng.uniform(-300, 300))
        assert ideal_phase(g, cfg)[0, 0] == 0.0


def test_ideal_phase_quarter_cycle_increments():
    cfg = SurfaceConfig()
    g = PhaseGradient((TWO_PI / 0.03) * 0.5, 0.0)  # gx * d_u == pi/4
    phases = ideal_phase(g, cfg)
    for i in range(cfg.n_cols):
        expected = math.fmod(i * (g.gx * cfg.d_u), TWO_PI)
        assert phases[0, i] == pytest.approx(expected, abs=1e-9)
    assert phases.min() >= 0.0
    assert phases.max() < TWO_PI


def test_wrap_phase_handles_negatives_exactly():
    assert float(wrap_phase(-0.1)) == pytest.approx(TWO_PI - 0.1, rel=1e-15)
    assert float(wrap_phase(-1e-20)) == 0.0
    assert float(wrap_phase(TWO_PI)) == 0.0


def test_quantize_exact_state_phases():
    assert quantize_phase(0.0, 4) == 0
    assert quantize_phase(math.pi / 2, 4) == 1
    assert quantize_phase(math.pi, 4) == 2
    assert quantize_phase(3 * math.pi / 2, 4) == 3


def test_quantize_half_step_tie_rounds_down():
    assert quantize_phase(math.pi / 4, 4) == 0
    assert quantize_phase(math.pi / 8, 8) == 0


def test_quantize_wraps_near_full_turn():
    phase = TWO_PI - 0.01
    assert quantize_phase(phase, 4) == brute_force_state(phase, 4) == 0


def test_quantize_validation():
    with pytest.raises(ValidationError):
        quantize_phase(1.0, 1)
    with pytest.raises(ValidationError):
        quantize_phase(float("inf"), 4)
    with pytest.raises(ValidationError):
        quantize_phase(2**52 * (TWO_PI / 4), 4)
    with pytest.raises(ValidationError):
        quantize_phase(1.0, 2**16 + 1)


@pytest.mark.parametrize("n_states", [2, 4, 8, 16])
def test_quantizer_matches_exhaustive_argmin(n_states):
    rng = np.random.default_rng(424242)
    phases = rng.uniform(0.0, TWO_PI, 10000)
    got = _nearest_state(phases, n_states)
    states = TWO_PI * np.arange(n_states) / n_states
    d = np.abs(phases[:, None] - states[None, :])
    d = np.minimum(d, TWO_PI - d)
    assert np.array_equal(got, np.argmin(d, axis=1))
    # scalar entry point agrees with the array kernel
    for p in phases[:200]:
        assert quantize_phase(float(p), n_states) == int(_nearest_state(np.asarray(p), n_states))


@pytest.mark.parametrize("n_states", [2, 4, 8, 16])
def test_quantizer_error_bound(n_states):
    rng = np.random.default_rng(7)
    for p in rng.uniform(0.0, TWO_PI, 2000):
        k = quantize_phase(float(p), n_states)
        d = abs(p - TWO_PI * k / n_states) % TWO_PI
        d = min(d, TWO_PI - d)
        assert d <= math.pi / n_states + 1e-12


def test_state_matrix_zero_direction_is_all_zero():
    m = state_matrix(INC, Angles(0.0, 0.0), SurfaceConfig())
    assert not m.any()


def test_state_matrix_row_pattern_at_30_degrees():
    cfg = SurfaceConfig()
    m = state_matrix(INC, Angles(30.0, 0.0), cfg)
    expected = np.tile(ROW_PATTERN, math.ceil(cfg.n_cols / 8))[: cfg.n_cols]
    assert np.array_equal(m[0], expected)
    # period 8 along the columns
    assert np.array_equal(m[0, :-8], m[0, 8:])


def test_state_matrix_row_invariance_for_in_plane_azimuths():
    cfg = SurfaceConfig()
    for phi in (0.0, 180.0):
        m = state_matrix(INC, Angles(30.0, phi), cfg)
        assert (m == m[0]).all(), f"rows differ for phi={phi}"


def test_state_matrix_column_invariance_for_vertical_azimuths():
    cfg = SurfaceConfig()
    for phi in (90.0, 270.0):
        m = state_matrix(INC, Angles(30.0, phi), cfg)
        assert (m == m[:, [0]]).all(), f"columns differ for phi={phi}"


@pytest.mark.parametrize("reflected, coded", [
    (Angles(30.0, 0.0), 30),
    (Angles(30.0, 90.0), 70),
    (Angles(30.0, 33.0), 30 * 70),
    (Angles(0.0, 270.0), 1),  # gx == 0.0 and gy == -0.0
], ids=["phi-0", "phi-90", "phi-33", "theta-0"])
def test_a_zero_gradient_component_codes_one_line(monkeypatch, reflected, coded):
    sizes = []

    def nearest_state(phases, n_states):
        sizes.append(np.size(phases))
        return _nearest_state(phases, n_states)

    monkeypatch.setattr(coding, "_nearest_state", nearest_state)
    m = state_matrix(INC, reflected, SurfaceConfig(n_cols=30, n_rows=70))
    assert sizes == [coded]
    assert m.shape == (70, 30)


@pytest.mark.parametrize("phi, sizes", [
    # 341 rows of 120 cells: two full blocks and the rest
    (0.0, [136 * 120, 136 * 120, 69 * 120]),
    # a full 120x120 grid a block, until theta 0 codes one cell
    (33.0, [120 * 120] * 340 + [1]),
])
def test_a_sweep_quantizes_once_per_capped_block(monkeypatch, phi, sizes):
    coded = []

    def nearest_state(phases, n_states):
        coded.append(np.size(phases))
        return _nearest_state(phases, n_states)

    monkeypatch.setattr(coding, "_nearest_state", nearest_state)
    surface = SurfaceConfig(n_cols=120, n_rows=120)
    assert len(list(sweep_grid(0.25, phi, phi, surface))) == 340
    assert coded == sizes
    assert max(coded) <= coding.BLOCK_CELLS == 2**14


def _read_only(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("phases", [
    _read_only(2.5),
    _read_only([[-3.0, 0.7, 1e6], [TWO_PI, -0.0, math.pi / 4]]),
    _read_only(np.arange(12.0).reshape(3, 4) * 0.9).T,
    np.linspace(-20.0, 20.0, 7),
], ids=["0-d", "2-d", "transposed", "writable"])
def test_the_quantizer_leaves_its_input_unchanged(phases):
    before = phases.copy()
    got = _nearest_state(phases, 5)
    assert phases.tobytes() == before.tobytes()
    assert got.shape == phases.shape
    assert np.array_equal(got, nearest_state_with_temporaries(before, 5))
    for phase, state in zip(before.reshape(-1), got.reshape(-1)):
        scalar = _read_only(phase)
        assert quantize_phase(scalar, 5) == state
        assert scalar.tobytes() == phase.tobytes()


def test_state_matrix_is_pure():
    cfg = SurfaceConfig(n_states=8)
    a = state_matrix(INC, Angles(42.0, 17.0), cfg)
    b = state_matrix(INC, Angles(42.0, 17.0), cfg)
    assert np.array_equal(a, b)


def test_state_matrix_entries_in_range():
    cfg = SurfaceConfig(n_states=16)
    m = state_matrix(Angles(20.0, 45.0), Angles(70.0, 200.0), cfg)
    assert m.min() >= 0
    assert m.max() < 16


def test_aliasing_check_thresholds(caplog):
    # per-cell steps of 0, pi/4 and 1.05*pi rad on x, and 0 on y: only the last is aliased
    cfg = SurfaceConfig()
    quarter, over = (math.pi / 4) / cfg.d_u, (1.05 * math.pi) / cfg.d_u
    gx, gy = np.array([0.0, quarter, over]), np.zeros(3)
    picks = [(0.0, INC), (1.0, INC), (2.5, INC)]
    for k in (1, 2, 3):
        caplog.clear()
        _warn_on_aliasing(picks[:k], gx[:k] * cfg.d_u, gy[:k] * cfg.d_u)
        assert len(caplog.records) == (k == 3)
    message = caplog.records[0].getMessage()
    assert message.startswith("aliasing at 1 of 3 events, first at t=2.5: the per-cell phase "
                              "step (3.2987, 0.0000 rad) exceeds half a cycle")
    # on y too, and at exactly pi, which is not aliased
    caplog.clear()
    _warn_on_aliasing(picks[:2], np.array([math.pi, 0.0]), np.array([0.0, -1.05 * math.pi]))
    assert "aliasing at 1 of 2 events, first at t=1:" in caplog.records[0].getMessage()
