import json
import logging
import math
import os
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import steertrace
from steertrace import (
    CaseParams,
    GatewayConfig,
    SurfaceConfig,
    TraceMeta,
    case_a_trajectory,
    case_c_trajectory,
    read_report,
    read_trace,
)
from steertrace import cli, gateway, scenario
from steertrace.cli import main
from steertrace.coding import gradients
from steertrace.errors import ValidationError
from steertrace.gateway import NORMAL_INCIDENCE, iter_events


def run_cli(*argv):
    return main(list(argv))


def test_simulate_default_case_a(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    assert run_cli("simulate", "--out", str(out)) == 0
    summary = capsys.readouterr().out.strip()
    assert "events=18" in summary
    assert f"trace={out}" in summary
    with open(out, "rb") as fh:
        trace = read_trace(fh)
    assert len(trace.events) == 18


def test_simulate_rejects_single_state_surface(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code = run_cli("simulate", "--out", str(out), "surface.n_states=1")
    assert code == 2
    assert "n_states" in capsys.readouterr().err


def test_a_refused_simulation_leaves_an_existing_output_alone(tmp_path, capsys, monkeypatch):
    # the reflection check of iter_events, the last that it runs, refuses after sampling and
    # detection, and still before cmd_simulate opens the output
    def refuse(incident, thetas, phis, cfg):
        gradients(incident, [90.0], [0.0], cfg)

    monkeypatch.setattr(gateway, "gradients", refuse)
    out = tmp_path / "trace.jsonl"
    out.write_bytes(b"an earlier trace\n")
    assert run_cli("simulate", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: reflected.theta=90.0 must lie in [0, 90)\n"
    assert out.read_bytes() == b"an earlier trace\n"


def test_a_scenario_that_the_schema_refuses_leaves_an_existing_output_alone(tmp_path, capsys):
    # the flight is so fast that the target passes far overhead, where theta rounds to 90
    out = tmp_path / "trace.jsonl"
    out.write_bytes(b"an earlier trace\n")
    argv = ["scenario.case=B", "scenario.speed=1e20", "scenario.duration=1"]
    assert run_cli("simulate", "--out", str(out), *argv) == 2
    assert capsys.readouterr().err.startswith("error: scenario.duration puts the target 1e+20 m")
    assert out.read_bytes() == b"an earlier trace\n"


def outputs(tmp_path, name, *extra):
    """The paths of ``name``'s trace, report and heat map, written by one ``simulate`` on
    the 8x8 surface, with the ``extra`` overrides, and one ``metrics --heatmap``."""
    paths = [tmp_path / f"{name}.{ext}" for ext in ("jsonl", "report.jsonl", "csv")]
    scenario = ["surface.n_cols=8", "surface.n_rows=8", *extra]
    assert run_cli("simulate", "--out", str(paths[0]), *scenario) == 0
    assert run_cli("metrics", "--trace", str(paths[0]), "--report", str(paths[1]),
                   "--heatmap", str(paths[2])) == 0
    return paths


def test_shorter_outputs_written_over_longer_old_ones_equal_a_fresh_paths_bytes(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    old = outputs(tmp_path, "old", "surface.n_cols=12", "surface.n_rows=12")
    fresh = [path.read_bytes() for path in outputs(tmp_path, "fresh")]
    assert all(len(new) < path.stat().st_size for new, path in zip(fresh, old))
    assert [path.read_bytes() for path in outputs(tmp_path, "old")] == fresh


def test_a_symlinked_output_is_written_through_and_stays_a_link(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    fresh = tmp_path / "fresh.jsonl"
    assert run_cli("simulate", "--out", str(fresh)) == 0
    target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
    target.write_bytes(fresh.read_bytes() * 2)
    link.symlink_to(target)
    assert run_cli("simulate", "--out", str(link)) == 0
    assert link.is_symlink() and target.read_bytes() == fresh.read_bytes()


def test_a_fifo_and_dev_null_are_written_as_streams(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    fresh = tmp_path / "fresh.jsonl"
    assert run_cli("simulate", "--out", str(fresh)) == 0
    fifo, got = tmp_path / "fifo", []
    os.mkfifo(fifo)
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run_cli("simulate", "--out", str(fifo)) == 0
    reader.join(timeout=60)
    assert got == [fresh.read_bytes()]
    assert run_cli("simulate", "--out", os.devnull) == 0
    assert run_cli("metrics", "--trace", str(fresh), "--report", os.devnull,
                   "--heatmap", os.devnull) == 0


def test_a_new_output_gets_mode_666_less_the_umask_and_an_old_one_keeps_its_inode_and_mode(
    tmp_path, capsys
):
    new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
    old.write_bytes(b"an earlier trace\n")
    old.chmod(0o640)
    inode = old.stat().st_ino
    umask = os.umask(0o027)
    try:
        assert run_cli("simulate", "--out", str(new)) == 0
        assert run_cli("simulate", "--out", str(old)) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~0o027
    assert stat.S_IMODE(old.stat().st_mode) == 0o640 and old.stat().st_ino == inode
    assert old.read_bytes().startswith(b'{"format_version":1')


def test_no_output_is_truncated_when_opened(tmp_path, capsys, monkeypatch):
    # truncating a file whose old pages are still dirty writes them back first; each
    # output is written over in place and cut at its end instead
    paths = outputs(tmp_path, "t")  # every output exists, as in a loop of runs
    flags, os_open = {}, os.open

    def spy(path, flag, *args, **kwargs):
        flags[str(path)] = flag
        return os_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    outputs(tmp_path, "t")
    assert {str(path) for path in paths} <= flags.keys()
    assert not any(flags[str(path)] & os.O_TRUNC for path in paths)


def test_a_write_that_fails_leaves_an_empty_trace_that_metrics_refuses(tmp_path, capsys):
    # the file size limit admits the header and two event lines, so the third line fails
    fresh = tmp_path / "fresh.jsonl"
    assert run_cli("simulate", "--out", str(fresh)) == 0
    lines = fresh.read_bytes().splitlines(keepends=True)
    limit = sum(map(len, lines[:3]))
    out = tmp_path / "t.jsonl"
    for old in (None, fresh.read_bytes()):  # a new path, and a longer old trace
        if old is not None:
            out.write_bytes(old)
        done = run_limited(["simulate", "--out", str(out)], "RLIMIT_FSIZE", limit)
        assert done.returncode == 3
        assert done.stderr == (
            f"i/o error: write failed at byte offset {limit}: [Errno 27] File too large\n"
        )
        assert out.read_bytes() == b""
        capsys.readouterr()
        assert run_cli("metrics", "--trace", str(out), "--report", str(tmp_path / "r")) == 2
        assert capsys.readouterr().err == "error: line 1: empty file, header missing\n"


@pytest.mark.parametrize("cut_fails", [False, True])
def test_a_refusal_mid_write_leaves_an_empty_output_and_its_own_error(
    tmp_path, capsys, monkeypatch, cut_fails
):
    # the header and the first event line are still in the writer's buffer when the
    # second event is refused; none of them may reach the file once it is cut
    def refuse_the_second(meta):
        events = iter_events(meta)
        yield next(events)
        raise ValidationError("the second event is refused", key="scenario.case")

    def fail(*args):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(cli, "iter_events", refuse_the_second)
    if cut_fails:
        monkeypatch.setattr(os, "ftruncate", fail)
    out = tmp_path / "t.jsonl"
    out.write_bytes(b"an earlier trace\n")
    assert run_cli("simulate", "--out", str(out), "surface.n_cols=4", "surface.n_rows=4") == 2
    assert capsys.readouterr().err == "error: the second event is refused\n"
    assert out.read_bytes() == (b"an earlier trace\n" if cut_fails else b"")


def test_simulate_computes_each_picks_gradients_once(tmp_path, capsys):
    # a profile hook sees every call of the function, whatever name a module imported it by
    code, directions = steertrace.coding.gradients.__code__, []

    def count_directions(frame, event, arg):
        if event == "call" and frame.f_code is code:
            directions.append(len(frame.f_locals["thetas"]))

    argv = ["surface.n_cols=8", "surface.n_rows=8", "gateway.angular_step=0.02"]
    sys.setprofile(count_directions)
    try:
        rc = run_cli("simulate", "--out", str(tmp_path / "t.jsonl"), *argv)
    finally:
        sys.setprofile(None)
    assert rc == 0
    assert "events=4251 " in capsys.readouterr().out
    assert directions == [4251]


def test_simulate_unknown_override_key(tmp_path, capsys):
    code = run_cli("simulate", "--out", str(tmp_path / "t.jsonl"), "surface.bogus=3")
    assert code == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, key",
    [
        (("simulate", "scenario.speed=abc"), "scenario.speed"),
        (("simulate", "scenario.duration=x"), "scenario.duration"),
        (("simulate", "scenario.rng_seed=1e400"), "scenario.rng_seed"),
        (("simulate", "surface.n_cols=7.9"), "surface.n_cols"),
        (("simulate", "surface.n_cols=true"), "surface.n_cols"),
        (("simulate", "scenario.rng_seed=2.5"), "scenario.rng_seed"),
        (("simulate", "surface.d_u=1e400"), "surface.d_u"),
        (("simulate", "scenario.leap_interval=1e400"), "scenario.leap_interval"),
        (("sweep", "--from-theta", "30", "--to-theta", "0", "scenario.case=Z"), "scenario.case"),
        (("simulate", "incidence.theta=95"), "incidence.theta"),
        # 2*pi / 1e-307 rad/m times 100 cells overflows the phase ramp
        (("simulate", "wave.lambda_r=1e-307"), "wave.lambda_r"),
        # a finite ramp, but far beyond 2**52 state steps: every cell would be state 0
        (
            ("sweep", "--from-theta", "10", "--to-theta", "20",
             "wave.lambda_r=1e-300", "wave.lambda_i=1e-300"),
            "wave.lambda_r",
        ),
        (("simulate", "surface.n_states=65537"), "surface.n_states"),
        # steps beyond the 85 degree sweep would print nothing
        (("sweep", "--grid", "100"), "grid"),
        (("sweep", "--grid", "inf"), "grid"),
    ],
)
def test_malformed_value_exits_2_naming_the_key(tmp_path, capsys, argv, key):
    out = tmp_path / "t.jsonl"
    if argv[0] == "simulate":
        argv = (*argv, "--out", str(out))
    assert run_cli(*argv) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        # 1e308 m * tan(85 deg) is past float range, with the walk's own duration or a set one
        (("scenario.standoff_distance=1e308",), "scenario.standoff_distance gives x=inf"),
        (("scenario.standoff_distance=1e308", "scenario.duration=5"),
         "scenario.standoff_distance gives x=inf"),
        # 114 m at 1e-320 m/s: the walk would arrive after an infinite time
        (("scenario.speed=1e-320",), "scenario.speed gives an arrival time"),
        # any case-C leap may reach 85 deg, whatever the start
        (("scenario.case=C", "scenario.standoff_distance=1e308", "scenario.start_theta=1"),
         "scenario.standoff_distance gives x=inf"),
        # case A walks on past the axis for 2 s at 1e308 m/s
        (("scenario.speed=1e308", "scenario.duration=2", "gateway.sample_dt=1"),
         "scenario.duration gives a position"),
        # case B falls 4.9e400 m in 1e200 s; its own flight at 1e160 m/s falls past float
        # range too
        (("scenario.case=B", "scenario.duration=1e200", "gateway.sample_dt=1e195"),
         "scenario.duration gives a position"),
        (("scenario.case=B", "scenario.speed=1e160"), "scenario.speed gives a position"),
        # case B's own flight time at 1e308 m/s, 2 * speed * sin(45 deg) / g, overflows
        (("scenario.case=B", "scenario.speed=1e308"), "scenario.speed gives a flight time"),
    ],
)
def test_a_position_past_float_range_is_refused_naming_the_key_set(tmp_path, capsys, overrides,
                                                                    message):
    out = tmp_path / "t.jsonl"
    assert run_cli("simulate", "--out", str(out), *overrides) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.endswith(" not finite\n"), err
    assert not out.exists()


def test_tan_below_90_degrees_stays_under_the_schemas_bound():
    # the scenario schema computes no tan where d * 2**52 / speed is finite
    assert math.tan(math.radians(math.nextafter(90.0, 0.0))) < 2.0**52


@pytest.mark.parametrize(
    "overrides, key",
    [
        # the own flight of case B is 91.7 m long, and of a steep launch 45.9 m high
        (("scenario.case=B", "scenario.standoff_distance=1e-300"), "standoff_distance"),
        (("scenario.case=B", "scenario.standoff_distance=1e-14"), "standoff_distance"),
        (("scenario.case=B", "scenario.launch_angle=89.9", "scenario.standoff_distance=1e-15"),
         "standoff_distance"),
        # case A walks 2e17 m past the axis; case B flies 1e20 m, or 1e17 m on its own flight
        (("scenario.speed=1e17", "scenario.duration=2", "gateway.sample_dt=1"), "duration"),
        (("scenario.case=B", "scenario.speed=1e20", "scenario.duration=1"), "duration"),
        (("scenario.case=B", "scenario.speed=1e9"), "speed"),
    ],
)
def test_a_reflection_that_would_graze_the_surface_is_refused_naming_the_key_set(
    tmp_path, capsys, overrides, key
):
    out = tmp_path / "t.jsonl"
    assert run_cli("simulate", "--out", str(out), *overrides) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: scenario.{key}") and "grazes the surface" in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides",
    [
        ("scenario.case=B", "scenario.standoff_distance=1e-13"),
        ("scenario.case=B", "scenario.launch_angle=89.9", "scenario.standoff_distance=1e-14"),
        # the walk ends 5.6e16 m past the axis, over 2**52 standoffs and still below 90
        ("scenario.duration=4e16", "gateway.sample_dt=1e15"),
    ],
)
def test_a_target_whose_furthest_reflection_stays_below_90_is_accepted(tmp_path, overrides):
    out = tmp_path / "t.jsonl"
    assert run_cli("simulate", "--out", str(out), *overrides) == 0
    with open(out, "rb") as fh:
        assert max(ev.reflected.theta for ev in read_trace(fh).events) < 90.0


def test_under_2_52_standoffs_off_axis_the_reflection_stays_below_90():
    # the scenario schema computes no position where the target stays under this bound
    assert math.degrees(math.atan2(2.0**52, 1.0)) < 90.0


@pytest.mark.parametrize(
    "overrides, key",
    [
        # case A's own arrival time, d * tan(theta) / speed, rounds to 0
        (("scenario.start_theta=5e-324",), "start_theta"),
        (("scenario.standoff_distance=5e-324", "scenario.start_theta=1e-300"),
         "standoff_distance"),
        (("scenario.standoff_distance=5e-324", "scenario.speed=1e308"), "speed"),
        # case B's own flight time, 2 * speed * sin(launch_angle) / g, rounds to 0
        (("scenario.case=B", "scenario.launch_angle=5e-324"), "launch_angle"),
        (("scenario.case=B", "scenario.speed=5e-324"), "speed"),
    ],
)
def test_a_case_duration_of_0_is_refused_naming_the_key_set(tmp_path, capsys, overrides, key):
    out = tmp_path / "t.jsonl"
    assert run_cli("simulate", "--out", str(out), *overrides) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: scenario.{key} gives a") and "time that is 0" in err, err
    assert not out.exists()


@pytest.mark.parametrize("key", ["report", "heatmap", "heatmap_format"])
def test_removed_outputs_keys_are_rejected(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"outputs": {key: "x"}}))
    assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "t.jsonl")) == 2
    assert f"outputs.{key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, key",
    [
        # 10000.001 s at the default 1 ms: 10,000,001 samples
        (("scenario.case=C", "scenario.duration=10000.001"), "scenario.duration"),
        # 5,000,000.5 s in 0.5 s leaps: 10,000,001 leaps, with 1 s sampling
        (
            ("scenario.case=C", "gateway.sample_dt=1", "scenario.leap_interval=0.5",
             "scenario.duration=5000000.5"),
            "scenario.leap_interval",
        ),
        # 101 x 9901 = 1,000,001 cells
        (("surface.n_cols=101", "surface.n_rows=9901"), "surface.n_cols"),
        # 85 / 1e-9 grid steps, each coding two state matrices
        (("sweep", "--grid", "1e-9"), "grid"),
    ],
)
def test_value_just_over_a_resource_limit_exits_2_at_once(tmp_path, capsys, overrides, key):
    if overrides[0] != "sweep":
        overrides = ("simulate", "--out", str(tmp_path / "t.jsonl"), *overrides)
    start = time.perf_counter()
    assert run_cli(*overrides) == 2
    assert time.perf_counter() - start < 1.0
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, key",
    [
        # 1e6 s at the default 1 ms, set alone or with a finer period
        (("scenario.duration=1e6",), "scenario.duration"),
        (("scenario.duration=1e6", "gateway.sample_dt=1e-4"), "scenario.duration"),
        # case B's own flight at 1e6 m/s lasts 144,160 s
        (("scenario.case=B", "scenario.speed=1e6"), "scenario.speed"),
        # case A's own arrival time: 81,650 s from 10 km, 57,296 days from 89.9999 deg
        (("scenario.standoff_distance=1e4",), "scenario.standoff_distance"),
        (("scenario.start_theta=89.9999",), "scenario.start_theta"),
        (("scenario.start_theta=89.9999", "scenario.speed=1e-3"), "scenario.start_theta"),
        (("scenario.speed=1e-3",), "scenario.speed"),
        # the default 81.6 s walk at 1 us
        (("gateway.sample_dt=1e-6",), "gateway.sample_dt"),
    ],
)
def test_the_sample_count_refusal_names_the_key_behind_it(tmp_path, capsys, overrides, key):
    # the period is named only when the default period would give few enough samples
    out = tmp_path / "t.jsonl"
    assert run_cli("simulate", "--out", str(out), *overrides) == 2
    assert capsys.readouterr().err == f"error: {key} gives over 10000000 samples\n"
    assert not out.exists()


def test_resource_limits_admit_their_own_value():
    # 1000 x 1000 cells in 2**16 states, 10,000,000 samples and 10,000,000 leaps:
    # checked, never run
    TraceMeta(
        SurfaceConfig(n_cols=1000, n_rows=1000, n_states=2**16),
        GatewayConfig(),
        NORMAL_INCIDENCE,
        case_c_trajectory(CaseParams(leap_interval=0.001), duration=10000.0),
    )


def test_seeded_case_c_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        code = run_cli(
            "simulate", "--seed", "7", "--out", str(out),
            "scenario.case=C", "scenario.duration=10",
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().count(b"\n") >= 2


def test_config_file_and_override_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surface": {"n_states": 8}, "scenario": {"start_theta": 40.0}}))
    out = tmp_path / "t.jsonl"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out), "surface.n_cols=20") == 0
    with open(out, "rb") as fh:
        meta = read_trace(fh).meta
    assert meta.surface.n_states == 8  # from the config file
    assert meta.surface.n_cols == 20  # from the override
    assert meta.trajectory.params.start_theta == 40.0


def test_simulate_missing_config_file(tmp_path, capsys):
    code = run_cli("simulate", "--config", str(tmp_path / "absent.json"))
    assert code == 3


def test_simulate_bad_config_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert run_cli("simulate", "--config", str(cfg)) == 2


def test_metrics_matches_simulate_summary(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    assert run_cli("simulate", "--out", str(trace_path), "scenario.start_theta=40") == 0
    sim_summary = capsys.readouterr().out
    packets = int(next(p.split("=")[1] for p in sim_summary.split() if p.startswith("packets=")))

    report_path = tmp_path / "r.jsonl"
    heatmap_path = tmp_path / "h.csv"
    code = run_cli(
        "metrics", "--trace", str(trace_path), "--report", str(report_path),
        "--heatmap", str(heatmap_path), "--format", "csv",
    )
    assert code == 0
    with open(report_path, "rb") as fh:
        report = read_report(fh)
    assert report.total_packets == packets
    assert heatmap_path.exists()


def test_metrics_zero_packet_trace_gives_zero_heatmap(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    assert run_cli(
        "simulate", "--out", str(trace_path),
        "scenario.case=C", "scenario.duration=1", "scenario.start_theta=0.001",
    ) == 0
    capsys.readouterr()
    heatmap_path = tmp_path / "h.csv"
    code = run_cli(
        "metrics", "--trace", str(trace_path), "--report", str(tmp_path / "r.jsonl"),
        "--heatmap", str(heatmap_path),
    )
    assert code == 0
    values = {v for line in heatmap_path.read_text().splitlines() for v in line.split(",")}
    assert values == {"0"}


BAD_EPOCHS = ["99999999999999999", "-99999999999999", "abc", "1.5", "", " 5", "+5", "253402300800"]


@pytest.mark.parametrize("epoch", BAD_EPOCHS)
def test_a_bad_source_date_epoch_exits_2_before_any_output(tmp_path, capsys, monkeypatch, epoch):
    trace_path = tmp_path / "t.jsonl"
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    assert run_cli("simulate", "--out", str(trace_path), "surface.n_cols=4") == 0
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    out, report, heatmap = tmp_path / "u.jsonl", tmp_path / "r.jsonl", tmp_path / "h.csv"
    assert run_cli("simulate", "--out", str(out), "surface.n_cols=4") == 2
    assert "SOURCE_DATE_EPOCH" in capsys.readouterr().err
    argv = ["--trace", str(trace_path), "--report", str(report), "--heatmap", str(heatmap)]
    assert run_cli("metrics", *argv) == 2
    assert "SOURCE_DATE_EPOCH" in capsys.readouterr().err
    assert not (out.exists() or report.exists() or heatmap.exists())


@pytest.mark.parametrize(
    "epoch, stamp",
    [(None, "1970-01-01T00:00:00Z"), ("0", "1970-01-01T00:00:00Z"),
     ("1700000000", "2023-11-14T22:13:20Z"), ("253402300799", "9999-12-31T23:59:59Z")],
)
def test_source_date_epoch_stamps_the_outputs(tmp_path, capsys, monkeypatch, epoch, stamp):
    if epoch is None:
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    else:
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    trace_path, report = tmp_path / "t.jsonl", tmp_path / "r.jsonl"
    assert run_cli("simulate", "--out", str(trace_path), "surface.n_cols=4") == 0
    assert run_cli("metrics", "--trace", str(trace_path), "--report", str(report)) == 0
    for path in (trace_path, report):
        assert json.loads(path.read_bytes().split(b"\n")[0])["created"] == stamp


def test_metrics_missing_trace(tmp_path, capsys):
    code = run_cli("metrics", "--trace", str(tmp_path / "no.jsonl"), "--report", str(tmp_path / "r"))
    assert code == 3


def test_metrics_malformed_trace_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not a trace\n")
    code = run_cli("metrics", "--trace", str(bad), "--report", str(tmp_path / "r"))
    assert code == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "k, old, new",
    [
        (0, '"meta":', '"note":1,"meta":'),  # a header key too many
        (0, '"created":"1970-01-01T00:00:00Z"', '"created":5'),
        (1, '"updates":', '"note":1,"updates":'),  # an event key too many
        (-1, '"theta_r":', '"phi":0,"theta_r":'),
    ],
)
def test_metrics_rejects_a_line_with_other_keys(tmp_path, capsys, k, old, new):
    trace_path = tmp_path / "t.jsonl"
    argv = ["simulate", "--out", str(trace_path), "surface.n_cols=4", "surface.n_rows=4"]
    assert run_cli(*argv) == 0
    lines = trace_path.read_text().splitlines()
    assert lines[k].count(old) == 1
    lines[k] = lines[k].replace(old, new)
    trace_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    report = tmp_path / "r"
    assert run_cli("metrics", "--trace", str(trace_path), "--report", str(report)) == 2
    assert capsys.readouterr().err.startswith(f"error: line {k % len(lines) + 1}: ")
    assert not report.exists()


@pytest.mark.parametrize("k, t", [(1, "-5.0"), (-1, "1e9")])  # the first event, the last
def test_metrics_rejects_an_event_time_outside_the_scenario(tmp_path, capsys, k, t):
    trace_path = tmp_path / "t.jsonl"
    argv = ["simulate", "--out", str(trace_path), "surface.n_cols=4", "surface.n_rows=4"]
    assert run_cli(*argv) == 0
    lines = trace_path.read_text().splitlines()
    lines[k] = f'{{"t":{t},{lines[k].split(",", 1)[1]}'
    trace_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("metrics", "--trace", str(trace_path), "--report", str(tmp_path / "r")) == 2
    assert f"line {k % len(lines) + 1}: event time {float(t)!r} outside" in capsys.readouterr().err


def test_sweep_identity(capsys):
    assert run_cli("sweep", "--from-theta", "30", "--to-theta", "30") == 0
    assert "fraction=0" in capsys.readouterr().out


def test_sweep_anchor(capsys):
    assert run_cli("sweep", "--from-theta", "30", "--to-theta", "0") == 0
    assert "fraction=0.72" in capsys.readouterr().out


def test_sweep_grid_shape_and_trend(capsys):
    assert run_cli("sweep", "--grid", "5") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 17
    fractions = [float(line.rsplit("=", 1)[1]) for line in lines]
    # near-normal steps (end of the list) change more cells than near-grazing ones
    assert fractions[-1] > fractions[0]
    assert min(fractions[-3:]) > max(fractions[:2])


@pytest.mark.parametrize(
    "argv, steps, calls",
    [
        # 340 steps over 341 distinct directions
        (("--grid", "0.25"), 340, 341),
        # unequal phis: a step's end is never the next step's start
        (("--grid", "5", "--to-phi", "10"), 17, 34),
        (("--grid", "5", "--from-phi", "10"), 17, 34),
    ],
)
def test_grid_sweep_codes_each_distinct_direction_once(capsys, monkeypatch, argv, steps, calls):
    coded = []

    def counting_gradients(incident, thetas, phis, cfg):
        coded.extend(zip(thetas, phis))
        return gradients(incident, thetas, phis, cfg)

    monkeypatch.setattr(steertrace.coding, "gradients", counting_gradients)
    assert run_cli("sweep", *argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == steps
    assert len(coded) == len(set(coded)) == calls


def test_grid_lines_never_give_a_zero_the_text_of_the_other_signed_zero():
    steps = [(1.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (0.0, 0.0, 0.0)]
    assert list(cli._grid_lines(iter(steps))) == [
        "from_theta=1 to_theta=0 fraction=0\n",
        "from_theta=-0 to_theta=-0 fraction=-0\n",
        "from_theta=0 to_theta=0 fraction=0\n",
    ]


def test_sweep_requires_angles_without_grid(capsys):
    assert run_cli("sweep", "--from-theta", "30") == 2


def test_the_parser_is_built_on_the_first_call_and_not_at_import():
    probe = "import steertrace.cli as c; print(c.build_parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(steertrace.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.stdout == "0\n", done.stderr
    assert cli.build_parser() is cli.build_parser()


def test_the_default_scenario_is_laid_out_once_and_each_call_gets_its_own_copy():
    probe = ("import steertrace.cli, steertrace.scenario as s; "
             "print(s._default_layout.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": str(Path(steertrace.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.stdout == "0\n", done.stderr  # not at import
    first = scenario.defaults()
    first["scenario"]["case"] = "B"  # as load_scenario changes its copy
    first["outputs"] = {"trace": "t.jsonl"}
    want = scenario.meta_to_dict(
        TraceMeta(SurfaceConfig(), GatewayConfig(), NORMAL_INCIDENCE, case_a_trajectory())
    )
    want["scenario"].update(speed=None, duration=None)
    assert scenario.defaults() == want
    assert scenario._default_layout.cache_info().currsize == 1


def test_a_default_left_out_after_a_set_value_is_the_default_again(capsys):
    argv = ["sweep", "--from-theta", "10", "--to-theta", "20"]
    assert run_cli(*argv, "--from-phi", "5") == 0
    assert " from_phi=5 " in capsys.readouterr().out
    assert run_cli(*argv) == 0
    assert " from_phi=0 " in capsys.readouterr().out


def test_a_seed_set_in_one_call_does_not_reach_the_next(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    argv = ["simulate", "scenario.case=C", "surface.n_cols=4", "surface.n_rows=4"]
    fresh, seeded, unseeded = (tmp_path / f"{name}.jsonl" for name in ("f", "s", "u"))
    cli.build_parser.cache_clear()
    assert run_cli(*argv, "--out", str(fresh)) == 0
    assert run_cli(*argv, "--out", str(seeded), "--seed", "7") == 0
    assert run_cli(*argv, "--out", str(unseeded)) == 0
    assert unseeded.read_bytes() == fresh.read_bytes() != seeded.read_bytes()


def test_a_good_call_after_a_usage_error_succeeds(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("metrics", "--report", str(tmp_path / "r.jsonl"))
    assert exc.value.code == 2
    assert "the following arguments are required: --trace" in capsys.readouterr().err
    assert run_cli("sweep", "--from-theta", "30", "--to-theta", "0") == 0
    assert "fraction=0.72" in capsys.readouterr().out


def test_main_runs_the_command_function_bound_to_its_name_at_call_time(capsys, monkeypatch):
    assert run_cli("sweep", "--from-theta", "30", "--to-theta", "30") == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_sweep", lambda args: calls.append(args.to_theta) or 5)
    assert run_cli("sweep", "--from-theta", "30", "--to-theta", "0") == 5
    assert calls == [0.0]


def test_aliasing_is_one_logged_warning_with_the_count(tmp_path, monkeypatch):
    # a 5 cm cell pitch undersamples 14 of the 18 default walk-by directions
    out = tmp_path / "aliased.jsonl"
    env = {**os.environ, "PYTHONPATH": str(Path(steertrace.__file__).parents[1])}
    argv = ["simulate", "--out", str(out), "surface.d_u=0.05"]
    done = subprocess.run(
        [sys.executable, "-m", "steertrace.cli", *argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0
    warnings = done.stderr.splitlines()
    assert len(warnings) == 1
    assert "aliasing at 14 of 18 events, first at t=0:" in warnings[0]

    monkeypatch.setattr(logging.getLogger("steertrace"), "disabled", True)
    quiet = tmp_path / "quiet.jsonl"
    assert run_cli("simulate", "--out", str(quiet), "surface.d_u=0.05") == 0
    assert out.read_bytes() == quiet.read_bytes()


def run_capped(argv, mb):
    """``argv`` run by the CLI in a child whose address space is capped at ``mb`` MB."""
    return run_limited(argv, "RLIMIT_AS", mb << 20)


def run_limited(argv, limit, value):
    """``argv`` run by the CLI in a child whose resource ``limit`` is set to ``value``."""
    child = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.{limit}, ({value}, {value}))\n"
        "from steertrace.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(steertrace.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", child, *argv], env=env, capture_output=True,
                          text=True)


def test_fine_sampling_runs_under_a_400_mb_address_space(tmp_path, capsys):
    # case B at 0.5 us is 8,649,626 samples, 66 MiB for each array over them; searched,
    # not sampled, the run fits in a child whose address space is capped at 400 MB
    argv = ["simulate", "--out", str(tmp_path / "t.jsonl"), "scenario.case=B",
            "gateway.sample_dt=5e-7"]
    done = run_capped(argv, 400)
    assert done.returncode == 0, done.stderr
    assert run_cli(*argv) == 0
    unlimited = capsys.readouterr().out
    assert done.stdout.split()[0] == unlimited.split()[0] == "events=23"


def test_ten_million_leap_runs_fit_in_a_200_mb_address_space(tmp_path, capsys):
    # case C with 9,990,000 leaps and 9,926,332 runs of samples between them: the stream
    # draws the leaps and settles their runs a block of leaps at a time, and holds no
    # array over either, which would take about 80 MB each.  With Python 3.11 and numpy
    # 2.4 on x86-64 Linux the run needs about 105 MB of address space, and about 254 MB
    # with both arrays held whole
    out = tmp_path / "t.jsonl"
    argv = ["simulate", "--out", str(out), "scenario.case=C", "scenario.duration=9990",
            "scenario.leap_interval=0.001", "gateway.sample_dt=0.001", "surface.n_cols=8",
            "surface.n_rows=8", "gateway.angular_step=60"]
    done = run_capped(argv, 200)
    assert done.returncode == 0, done.stderr
    capped = out.read_bytes()
    assert run_cli(*argv) == 0
    assert done.stdout == capsys.readouterr().out
    assert out.read_bytes() == capped


@pytest.mark.parametrize("row", [b"[1,1,1]", b"[1, 1, 1]"], ids=["numpy_path", "json_path"])
def test_a_100_mb_line_of_too_many_rows_is_refused_in_a_200_mb_address_space(tmp_path, row):
    # 12.5 or 10 million rows for the 2,500 cells of the default surface: read whole, the
    # line alone would take twice its 100 MB; read 25 KB at a time, the longest event
    # line in the writer's spelling, it is refused once its pieces hold 2,502 "["
    trace = tmp_path / "t.jsonl"
    assert run_cli("simulate", "--out", str(trace)) == 0
    header = trace.read_bytes().split(b"\n")[0]
    rows = b",".join([row] * 100_000) + b","
    with trace.open("wb") as fh:
        fh.write(header + b'\n{"t":0.0,"theta_r":1.0,"phi_r":0.0,"updates":[')
        for _ in range(100_000_000 // len(rows)):
            fh.write(rows)
        fh.write(row + b"]}\n")
    try:
        done = run_capped(["metrics", "--trace", str(trace), "--report", str(tmp_path / "r")],
                          200)
    finally:
        trace.unlink()
    assert done.returncode == 2
    assert done.stderr == "error: line 2: more updates than the 2500 cells of the 50x50 grid\n"


@pytest.mark.parametrize("line_number, megabytes", [(1, 100), (2, 100), (2, 40)],
                         ids=["header", "event", "decoded_event"])
def test_a_line_too_long_to_hold_in_a_200_mb_address_space_is_refused_by_number(
    tmp_path, line_number, megabytes
):
    # Spaces that JSON allows, before the header's last brace or after an event's one row:
    # the header is read whole, and so is an event line of no more rows than cells.  A
    # 100 MB line does not fit twice in the address space left, and a 40 MB one is read
    # but not decoded, as the decoder's arrays are several times the line
    trace = tmp_path / "t.jsonl"
    assert run_cli("simulate", "--out", str(trace)) == 0
    header = trace.read_bytes().split(b"\n")[0]
    spaces = b" " * 1_000_000
    with trace.open("wb") as fh:
        if line_number == 1:
            fh.write(header[:-1])
        else:
            fh.write(header + b'\n{"t":0.0,"theta_r":1.0,"phi_r":0.0,"updates":[[1,1,1]')
        for _ in range(megabytes):
            fh.write(spaces)
        fh.write(b"}\n" if line_number == 1 else b"]}\n")
    try:
        done = run_capped(["metrics", "--trace", str(trace), "--report", str(tmp_path / "r")],
                          200)
    finally:
        trace.unlink()
    assert done.returncode == 2, done.stderr
    assert done.stderr == f"error: line {line_number}: too long a line to hold in memory\n"


def run_with_stdout(argv, stdout):
    """``argv`` run by the CLI in a child whose stdout is ``stdout``."""
    env = {**os.environ, "PYTHONPATH": str(Path(steertrace.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "steertrace.cli", *argv], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True)


@pytest.mark.parametrize("option", ["--out", "--report", "--heatmap"])
def test_an_output_on_the_file_stdout_writes_to_is_refused_before_it_is_opened(tmp_path,
                                                                             option):
    # the summary line goes to stdout after the output is written, so an output on the
    # same file would have its start overwritten; the file is left as it was
    trace, log = tmp_path / "t.jsonl", tmp_path / "stdout.txt"
    assert run_cli("simulate", "--out", str(trace), "surface.n_cols=4", "surface.n_rows=4") == 0
    for path in ("/dev/stdout", str(log)):
        outputs = {"--report": str(tmp_path / "r"), "--heatmap": str(tmp_path / "h"),
                   option: path}
        argv = (["simulate", "--out", path, "surface.n_cols=4", "surface.n_rows=4"]
                if option == "--out" else
                ["metrics", "--trace", str(trace), *(x for kv in outputs.items() for x in kv)])
        log.write_bytes(b"earlier output\n")
        with log.open("r+b") as stdout:
            done = run_with_stdout(argv, stdout)
        assert done.returncode == 2
        assert done.stderr == f"error: {option} {path!r} is the file that stdout writes to\n"
        assert log.read_bytes() == b"earlier output\n"
        assert not (tmp_path / "r").exists()


def test_an_output_on_stdouts_pipe_or_dev_null_is_a_stream(tmp_path):
    argv = ["simulate", "--out", "/dev/stdout", "surface.n_cols=4", "surface.n_rows=4"]
    piped = run_with_stdout(argv, subprocess.PIPE)
    assert piped.returncode == 0, piped.stderr
    assert piped.stdout.startswith('{"format_version":1,')
    assert piped.stdout.endswith(" trace=/dev/stdout\n")
    with open(os.devnull, "wb") as devnull:
        assert run_with_stdout(["simulate", "--out", os.devnull], devnull).returncode == 0
