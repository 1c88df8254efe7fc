"""Tests of the benchmark itself: span arithmetic and failure accounting.

    python3 -m pytest perfbench
"""

import io
import json
import sys
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run
import spans
from spans import Recorder, Span, layer_metrics, self_times

sys.path.insert(0, str(run.SRC))


class FakeClock:
    """Returns the queued instants in order."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def test_self_time_of_nested_spans():
    # outer [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 6]
    rec = Recorder(clock=FakeClock(0, 1, 2, 3, 4, 5, 6, 10))
    c = rec.wrap("c", lambda: None)
    a = rec.wrap("a", lambda: c())
    b = rec.wrap("b", lambda: None)
    outer = rec.wrap("outer", lambda: (a(), b()))
    outer()
    by_name = {s.name: (s, own) for s, own in zip(rec.spans, self_times(rec.spans))}
    assert {name: own for name, (_, own) in by_name.items()} == {
        "outer": 6.0, "a": 2.0, "c": 1.0, "b": 1.0,
    }
    assert by_name["c"][0].parent == rec.spans.index(by_name["a"][0])
    assert by_name["outer"][0].parent is None


def test_self_time_counts_overlapping_children_once_and_clips_them():
    parent = Span("p", 0.0, 10.0, None, 0)
    children = [
        Span("x", 1.0, 5.0, 0, 0),
        Span("y", 3.0, 6.0, 0, 0),  # overlaps x: [1, 6] is covered once
        Span("z", 9.0, 12.0, 0, 0),  # runs past the parent: only [9, 10] counts
    ]
    assert self_times([parent, *children])[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_take_medians_per_iteration_and_counters():
    rows = []
    for iteration, (dur, packets) in enumerate([(1.0, 10), (3.0, 30), (2.0, 20)]):
        counts = {"gateway.packets": packets}
        rows.append(Span("gateway.diff_states", 0.0, dur, None, iteration, counts))
    rows.append(Span("gateway.diff_states", 0.0, 100.0, None, 99))  # not a traced iteration
    out = layer_metrics(rows, [0, 1, 2])
    assert out["gateway.diff_states_s"] == 2.0
    assert out["gateway.packets"] == 20
    assert out["geometry.angle_stream_s"] == 0.0  # never called: zero, not an error
    assert out["gateway.samples_per_event"] == 0.0


def test_installed_wraps_and_restores_and_skips_missing_names(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.work = lambda n: list(range(n))
    original = module.work
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    layers = (
        ("fake_layer", "work", "geometry.angle_stream", spans._count_samples),
        ("fake_layer", "gone", "gateway.detect_events", spans._count_events),
        ("no_such_module", "work", "gateway.diff_states", spans._count_packets),
    )
    rec = Recorder()
    with rec.installed(layers):
        assert module.work(4) == [0, 1, 2, 3]
    assert module.work is original
    assert not hasattr(module, "gone")
    assert [(s.name, s.counts) for s in rec.spans] == [
        ("geometry.angle_stream", {"geometry.samples": 4})
    ]


def test_repeated_codings_are_counted_per_iteration():
    rec = Recorder()
    matrix = types.SimpleNamespace(size=4)
    code = rec.wrap("coding.state_matrix", lambda *a: matrix, spans._count_cells)
    code(1, 2)
    code(1, 2)
    rec.start_iteration(1)
    code(1, 2)
    repeats = [s.counts["coding.repeated_calls"] for s in rec.spans]
    assert repeats == [0, 1, 0]
    assert all(s.counts["coding.cells_coded"] == 4 for s in rec.spans)


GOOD = b"the recorded trace\n"


def fake_cli(trace_bytes=GOOD, rc=0):
    def main(argv):
        if argv[0] == "simulate":
            Path(argv[argv.index("--out") + 1]).write_bytes(trace_bytes)
            print("events=1 packets=2")
        return rc

    return main


@pytest.fixture
def walkby(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return run.Run(
        "walkby", run.DEFAULT_SEED, fake_cli(), {"walkby": {"trace": run.sha256(GOOD)}},
        reference=lambda: run.REFERENCE_S,
    )


def simulate_once(r: run.Run):
    trace = r.files("run")[0]
    return r.op("simulate_s", r.simulate_argv(trace), lambda out: r.check_simulate(trace, out))


def test_matching_output_is_timed(walkby):
    assert simulate_once(walkby) is not None
    assert (walkby.tally.attempted, walkby.tally.failed) == (1, 0)
    assert len(walkby.tally.times["simulate_s"]) == 1


@pytest.mark.parametrize(
    "main",
    [
        fake_cli(trace_bytes=b"the recorded trace, corrupted\n"),
        fake_cli(rc=2),
    ],
    ids=["corrupted-output", "nonzero-exit"],
)
def test_failure_is_counted_not_timed(walkby, main):
    walkby.main = main
    assert simulate_once(walkby) is None
    assert (walkby.tally.attempted, walkby.tally.failed) == (1, 1)
    assert walkby.tally.times["simulate_s"] == []


def test_crash_and_rejected_arguments_are_failures(walkby, capsys):
    def crash(argv):
        raise RuntimeError("boom")

    def reject(argv):
        raise SystemExit(2)

    for main in (crash, reject):
        walkby.main = main
        assert simulate_once(walkby) is None
    assert (walkby.tally.attempted, walkby.tally.failed) == (2, 2)
    assert "boom" in capsys.readouterr().err


def test_time_is_scaled_by_the_reference_passes_around_it(walkby):
    walkby.reference = FakeClock(0.3, 0.1, 0.5)
    simulate_once(walkby)  # passes 0.3 before, 0.1 after: mean 0.2
    simulate_once(walkby)  # passes 0.1 before, 0.5 after: mean 0.3
    scaled, raw = walkby.tally.times["simulate_s"], walkby.tally.raw["simulate_s"]
    expected = [run.REFERENCE_S / 0.2, run.REFERENCE_S / 0.3]
    assert [s / r for s, r in zip(scaled, raw)] == pytest.approx(expected)


def test_leaps_takes_its_rng_seeds_in_turn(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    r = run.Run("leaps", 5, fake_cli(), {}, reference=lambda: run.REFERENCE_S)

    def seed_of_next_simulate():
        argv = r.simulate_argv(tmp_path / "t.jsonl")
        return int(argv[argv.index("--seed") + 1])

    seen = []
    for next_seed in (False, True, True):
        seen.append(seed_of_next_simulate())
        r.iteration(next_seed=next_seed)
    assert seen == [5, 5, 5 + run.SEED_STRIDE]
    assert r.output_key("trace") == f"trace@{5 + 2 * run.SEED_STRIDE}"
    assert len(r.rng_seeds) == run.WORKLOADS["leaps"].seeds


def test_failed_child_is_none(tmp_path):
    assert run.run_child(["no-such-command"], tmp_path) is None


def test_unknown_seed_checks_round_trip_and_summary(tmp_path):
    from steertrace.cli import main

    out = tmp_path / "t.jsonl"
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["simulate", "--out", str(out), "--seed", "5",
                   "scenario.case=C", "scenario.duration=6"])
    assert rc == 0
    summary = run.summary_fields(buf.getvalue())
    data = out.read_bytes()
    assert run.trace_round_trips(data, summary)
    assert not run.trace_round_trips(data, dict(summary, packets="0"))
    assert not run.trace_round_trips(data.replace(b'"t":', b'"t" :', 1), summary)
    assert not run.trace_round_trips(data[:-2], summary)


def test_benchmark_json_names_the_metrics_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
