"""steertrace benchmark: the three user commands, timed end to end.

    python3 perfbench/run.py --workload walkby --seed 3 --seconds 20 --trace 0

Each iteration runs ``simulate`` (config -> trace file), ``metrics
--heatmap`` (trace -> report + CSV heat map) and ``sweep`` in this process
through ``steertrace.cli.main``, one thread, host time.  Every command is
bracketed by reference passes, and its time is scaled to a host of fixed
speed (reference.py).  Every output is checked; a non-zero exit or a wrong
output is a failed operation and gives no timing.  With ``--trace 0`` the run also measures set-up time and peak
memory in fresh child processes and prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced iterations and prints the
per-layer metrics from spans.  The last stdout line is one JSON object;
a readable summary goes to stderr.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from reference import REFERENCE_S, reference_pass
from spans import COUNTS, TIMES, Recorder, call_summary, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 3  # the leaps seed whose outputs digests.json records
SEED_STRIDE = 1000  # rng seeds of one run: --seed, --seed + 1000, ...
SETUP_SAMPLES = 5  # fresh interpreters per run for setup_s
CHILD_TIMEOUT_S = 120

# The load is one thread: pin every BLAS/OpenMP pool numpy may start.
ENVIRONMENT = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "SOURCE_DATE_EPOCH": "0",  # trace and report headers carry this date
}


@dataclass(frozen=True)
class Workload:
    scenario: tuple[str, ...]  # simulate overrides
    sweep: tuple[str, ...]  # sweep arguments
    seeds: int = 0  # rng seeds drawn from --seed, taken in turn; 0: --seed is unused


# Why each workload exists, with measured layer shares, is in README.md.
WORKLOADS = {
    "walkby": Workload(scenario=(), sweep=("--grid", "0.5")),
    "leaps": Workload(
        scenario=("scenario.case=C",),
        sweep=("--grid", "0.5"),
        seeds=16,
    ),
    "bigwall": Workload(
        scenario=("surface.n_cols=100", "surface.n_rows=100", "gateway.sample_dt=0.01"),
        sweep=("--grid", "0.5", "surface.n_cols=100", "surface.n_rows=100"),
    ),
    "sweep": Workload(
        scenario=("scenario.case=B",),
        sweep=("--grid", "0.25", "surface.n_cols=120", "surface.n_rows=120"),
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "simulate_s": "s",
    "analyze_s": "s",
    "sweep_s": "s",
    "simulate_rss_mb": "MB",
    "analyze_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **dict.fromkeys(TIMES, "s"),
    **dict.fromkeys(COUNTS, "count"),
    "gateway.samples_per_event": "ratio",
    "trace_overhead_ratio": "ratio",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def summary_fields(stdout: str) -> dict[str, str]:
    """The key=value pairs of a command's one-line stdout summary."""
    lines = stdout.strip().splitlines()
    return dict(tok.split("=", 1) for tok in lines[-1].split() if "=" in tok) if lines else {}


@dataclass
class Tally:
    """Operations attempted and failed; timings only of operations that passed.

    ``times`` holds the values reported, ``raw`` the host seconds before
    scaling to the reference speed.
    """

    attempted: int = 0
    failed: int = 0
    times: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    raw: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))

    def record(self, metric: str, ok: bool, value: float, scale: float = 1.0):
        self.attempted += 1
        if ok:
            self.times[metric].append(value * scale)
            self.raw[metric].append(value)
        else:
            self.failed += 1

    def forget_times(self):
        """Drop the timings so far (warm-up); attempts and failures stay."""
        self.times.clear()
        self.raw.clear()


def run_in_process(main, argv: list[str]) -> tuple[int | None, float, str]:
    """Exit code (None on a crash), seconds and stdout of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        rc = exc.code
    except Exception:  # a crash is a failed operation, not the end of the run
        traceback.print_exc()
        rc = None
    seconds = time.perf_counter() - start
    if rc != 0:
        sys.stderr.write(f"command failed ({rc}): {' '.join(argv)}\n{err.getvalue()}")
    return rc, seconds, out.getvalue()


def run_child(argv: list[str], cwd: Path) -> dict | None:
    """Run child.py in a fresh interpreter; its JSON payload plus ``spawned``.

    Linux carries a process's peak RSS across exec, and a spawned child
    starts from the RSS of its parent, so the probe is forked from a small
    shell instead of from this process.  The shell and the probe share a
    process group, which a timeout kills whole.
    """
    env = dict(os.environ, **ENVIRONMENT)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    probe = [sys.executable, str(HERE / "child.py"), *argv]
    command = ["/bin/sh", "-c", '"$@"; exit $?', "sh", *probe]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        command, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write(f"child timed out: {' '.join(argv)}\n")
        return None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"child failed ({proc.returncode}): {' '.join(argv)}\n{stderr}")
        return None
    payload = json.loads(lines[-1])
    payload.update(spawned=spawned, stdout="\n".join(lines[:-1]))
    return payload


class Expected:
    """Output digests to match.

    A digest not known in advance is learnt from the first output that
    passes its content check; later outputs must then repeat it.
    """

    def __init__(self, digests: dict[str, str]):
        self.digests = dict(digests)

    def check(self, key: str, data: bytes, verify) -> bool:
        digest = sha256(data)
        if key in self.digests:
            return digest == self.digests[key]
        if not verify(data):
            return False
        self.digests[key] = digest
        return True


def trace_round_trips(data: bytes, summary: dict[str, str]) -> bool:
    """read_trace then write_trace gives ``data`` back, and the summary matches."""
    from steertrace.trace_io import read_trace, write_trace

    try:
        trace = read_trace(io.BytesIO(data))
    except ValueError:  # TraceParseError and ValidationError
        return False
    again = io.BytesIO()
    write_trace(trace, again)
    return (
        again.getvalue() == data
        and summary.get("events") == str(len(trace.events))
        and summary.get("packets") == str(trace.total_packets)
    )


def heatmap_sums_to_one(data: bytes) -> bool:
    try:
        total = sum(float(v) for line in data.decode().splitlines() for v in line.split(","))
    except ValueError:
        return False
    return abs(total - 1.0) < 1e-9


class Run:
    """One workload at one seed: its commands, output checks and tally."""

    def __init__(
        self, name: str, seed: int, main, digests: dict[str, dict[str, str]],
        reference=reference_pass,
    ):
        self.workload = WORKLOADS[name]
        self.main = main
        self.reference = reference
        self.last_reference: float | None = None
        self.rng_seeds = [seed + SEED_STRIDE * k for k in range(self.workload.seeds)]
        self.iterations = 0
        known = digests.get(name, {}) if seed == DEFAULT_SEED or not self.rng_seeds else {}
        self.expected = Expected(known)
        self.trace_summary: dict[str, str] = {}
        self.tally = Tally()
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def files(self, tag: str) -> tuple[Path, Path, Path]:
        return tuple(self.work / f"{tag}.{ext}" for ext in ("jsonl", "report.jsonl", "csv"))

    @property
    def rng_seed(self) -> int | None:
        """The rng seed of the current iteration, None if the workload takes none."""
        if not self.rng_seeds:
            return None
        return self.rng_seeds[self.iterations % len(self.rng_seeds)]

    def output_key(self, output: str) -> str:
        """The digest key of a seed-dependent output of this iteration."""
        return output if self.rng_seed is None else f"{output}@{self.rng_seed}"

    def simulate_argv(self, trace: Path) -> list[str]:
        argv = ["simulate", "--out", str(trace), *self.workload.scenario]
        if self.rng_seed is not None:
            argv += ["--seed", str(self.rng_seed)]
        return argv

    def analyze_argv(self, tag: str) -> list[str]:
        trace, report, heat = self.files(tag)
        return ["metrics", "--trace", str(trace), "--report", str(report), "--heatmap", str(heat)]

    def check_simulate(self, trace: Path, stdout: str) -> bool:
        summary = summary_fields(stdout)
        if not trace.is_file():
            return False
        ok = self.expected.check(
            self.output_key("trace"), trace.read_bytes(),
            lambda data: trace_round_trips(data, summary),
        )
        if ok:
            self.trace_summary = summary
        return ok

    def check_analyze(self, report: Path, heat: Path, stdout: str) -> bool:
        from steertrace.trace_io import read_report

        summary = summary_fields(stdout)
        if not (report.is_file() and heat.is_file()):
            return False
        if any(summary.get(k) != self.trace_summary.get(k) for k in ("events", "packets")):
            return False

        def report_matches(data: bytes) -> bool:
            try:
                body = read_report(io.BytesIO(data))
            except ValueError:
                return False
            return str(body.total_packets) == self.trace_summary.get("packets")

        return self.expected.check(
            self.output_key("report"), report.read_bytes(), report_matches
        ) and self.expected.check(
            self.output_key("heatmap"), heat.read_bytes(), heatmap_sums_to_one
        )

    def check_sweep(self, stdout: str) -> bool:
        return self.expected.check("sweep", stdout.encode(), lambda data: b"fraction=" in data)

    def speed_scale(self) -> float:
        """REFERENCE_S over the mean of the reference passes before and after.

        Call it right after the timed operation: the pass it runs now is
        the next operation's pass before.
        """
        after = self.reference()
        before = after if self.last_reference is None else self.last_reference
        self.last_reference = after
        return REFERENCE_S / ((before + after) / 2)

    def op(self, metric: str, argv: list[str], check) -> float | None:
        """Run one command in process; its scaled seconds, or None if it failed."""
        if self.last_reference is None:
            self.last_reference = self.reference()
        rc, seconds, stdout = run_in_process(self.main, argv)
        ok = rc == 0 and check(stdout)
        if rc == 0 and not ok:
            sys.stderr.write(f"output check failed: {' '.join(argv)}\n")
        scale = self.speed_scale()
        self.tally.record(metric, ok, seconds, scale)
        return seconds * scale if ok else None

    def iteration(self, next_seed: bool = True) -> float | None:
        """simulate, analyze and sweep once; total seconds, None if any failed.

        With ``next_seed`` false the next iteration runs the same rng seed.
        """
        trace, report, heat = self.files("run")
        times = [
            self.op(
                "simulate_s", self.simulate_argv(trace),
                lambda out: self.check_simulate(trace, out),
            ),
            self.op(
                "analyze_s", self.analyze_argv("run"),
                lambda out: self.check_analyze(report, heat, out),
            ),
            self.op("sweep_s", ["sweep", *self.workload.sweep], self.check_sweep),
        ]
        self.iterations += next_seed
        return None if None in times else sum(times)

    def fresh_processes(self):
        """setup_s from bare imports, then peak RSS of one simulate and one analyze."""
        self.last_reference = self.reference()
        for _ in range(SETUP_SAMPLES):
            payload = run_child([], self.work)
            ok = payload is not None
            seconds = payload["imported"] - payload["spawned"] if ok else 0.0
            self.tally.record("setup_s", ok, seconds, self.speed_scale())
        trace, report, heat = self.files("child")
        payload = run_child(self.simulate_argv(trace), self.work)
        ok = payload is not None and self.check_simulate(trace, payload["stdout"])
        self.tally.record("simulate_rss_mb", ok, payload["maxrss_kb"] / 1024 if ok else 0.0)
        payload = run_child(self.analyze_argv("child"), self.work)
        ok = payload is not None and self.check_analyze(report, heat, payload["stdout"])
        self.tally.record("analyze_rss_mb", ok, payload["maxrss_kb"] / 1024 if ok else 0.0)
        self.last_reference = None  # stale after the memory probes


def median_or_none(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def measure(run: Run, seconds: float) -> dict[str, tuple[float | None, str]]:
    run.iteration()  # warm-up: checked, not timed
    run.tally.forget_times()
    run.fresh_processes()
    deadline = time.perf_counter() + seconds
    run.iteration()
    while time.perf_counter() < deadline:
        run.iteration()
    return {
        name: (median_or_none(run.tally.times[name]), unit)
        for name, unit in END_TO_END_UNITS.items()
    }


def measure_traced(run: Run, seconds: float) -> dict[str, tuple[float | None, str]]:
    """Untraced and traced iterations in turn; per-layer medians from the spans.

    The two iterations of a pair run the same rng seed.
    """
    recorder = Recorder()
    untraced, traced, traced_ids = [], [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < 2 or time.perf_counter() < deadline:
        if k % 2 == 0:
            total = run.iteration(next_seed=False)
            if total is not None:
                untraced.append(total)
        else:
            recorder.start_iteration(k)
            with recorder.installed():
                total = run.iteration()
            if total is not None:
                traced.append(total)
                traced_ids.append(k)
        k += 1
    recorder.write(run.work / "spans.jsonl")
    values = layer_metrics(recorder.spans, traced_ids)
    if traced and untraced:
        values["trace_overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    command_s = defaultdict(float)  # traced, unscaled time of the commands
    for span in recorder.spans:
        if span.parent is None:
            command_s[span.iteration] += span.end - span.start
    wall = statistics.median(command_s[i] for i in traced_ids) if traced_ids else 0.0
    summary = call_summary(recorder.spans, traced_ids)
    for name, (calls, own) in sorted(summary.items(), key=lambda kv: -kv[1][1]):
        share = own / wall if wall else 0.0
        sys.stderr.write(f"  {name:28s} calls={calls:<6g} self={own:.4f} s  {share:6.1%}\n")
    return {name: (values.get(name), unit) for name, unit in PER_LAYER_UNITS.items()}


def record_digests(main) -> dict[str, dict[str, str]]:
    """Digests of every workload's outputs at the default seed, from the current program."""
    digests = {}
    for name in WORKLOADS:
        run = Run(name, DEFAULT_SEED, main, {})
        for _ in range(max(1, len(run.rng_seeds))):
            run.iteration()
        if run.tally.failed:
            raise SystemExit(f"{name}: a command failed, digests not written")
        digests[name] = run.expected.digests
    return digests


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="first leaps rng seed")
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help="rewrite digests.json from the current program and exit",
    )
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "steertrace" / "cli.py").is_file():
        sys.stderr.write(f"steertrace sources not found under {SRC}\n")
        return 2
    os.environ.update(ENVIRONMENT)
    sys.path.insert(0, str(SRC))
    from steertrace.cli import main as cli_main

    if args.record_digests:
        DIGESTS.write_text(json.dumps(record_digests(cli_main), indent=2, sort_keys=True) + "\n")
        return 0

    run = Run(args.workload, args.seed, cli_main, json.loads(DIGESTS.read_text()))
    values = measure_traced(run, args.seconds) if args.trace else measure(run, args.seconds)
    tally = run.tally
    for name, (value, unit) in values.items():
        shown = "missing" if value is None else f"{value:.6g} {unit}"
        if name in tally.times:
            shown += f" (median of {len(tally.times[name])}"
            if unit == "s":
                shown += f"; unscaled {statistics.median(tally.raw[name]):.6g} s"
            shown += ")"
        sys.stderr.write(f"{args.workload} {name} = {shown}\n")
    sys.stderr.write(
        f"{args.workload} fail_ratio = {tally.failed}/{tally.attempted}"
        f" = {tally.failed / max(tally.attempted, 1):.4g}\n"
    )
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
