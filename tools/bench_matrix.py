"""Time ``steertrace simulate`` and ``steertrace metrics --heatmap`` on the north-star
scenario matrix, and ``steertrace sweep --grid`` on a few sweeps, parent against
change, and write the medians and quartiles as ``BENCH_<pr>.json``.

    python3 tools/bench_matrix.py PARENT_TREE CHANGE_TREE --pr N --change "what changed"
    python3 tools/bench_matrix.py ... --rows A_500x500,A_1000x1000 --rounds 21

``--rows`` runs only the named rows, so a change can re-run the rows it claims with
more rounds than the whole matrix allows.

PARENT_TREE and CHANGE_TREE are source trees of steertrace (``git archive`` of
each commit will do); each side imports the package from its tree's ``src``.
Each round runs ``simulate`` once per side and then ``metrics`` once per side on
that side's trace (or, for a sweep, ``sweep`` once per side), alternating which
side goes first, each command in a fresh interpreter started from /bin/sh, and
hashes every trace, report, heat map and sweep output.  Each interpreter then
runs its command a second time, the warm call, whose time shows a per-call cost
that the first call's imports and first uses hide; its outputs must be the first
call's bytes.  Runs go one at a time, so peak memory is that of one command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

SCENARIOS = {
    "A_default": ([], None),
    "B_default": (["scenario.case=B"], None),
    "C_600s_seed3": (["scenario.case=C", "scenario.duration=600", "--seed", "3"], None),
    "A_500x500": (["surface.n_cols=500", "surface.n_rows=500"], None),
    "A_1000x1000": (
        ["surface.n_cols=1000", "surface.n_rows=1000"],
        "MAX_CELLS: 18 events, 13,517,000 packets, a 159 MB trace",
    ),
    "A_100x100_dt10ms": (
        ["surface.n_cols=100", "surface.n_rows=100", "gateway.sample_dt=0.01"],
        "perfbench bigwall's scenario: 18 events, 134,400 packets",
    ),
    "A_8x8_step002": (
        ["surface.n_cols=8", "surface.n_rows=8", "gateway.angular_step=0.02"],
        "many tiny bursts: 4,251 events, 4,227 of them empty, 272 packets",
    ),
    "B_8x8_step002": (
        ["scenario.case=B", "surface.n_cols=8", "surface.n_rows=8", "gateway.angular_step=0.02"],
        "many case-B picks, each found on a squared radius and phi: 2,942 events, 400 packets",
    ),
    "C_9990s_seed3_8x8": (
        ["scenario.case=C", "scenario.duration=9990", "surface.n_cols=8", "surface.n_rows=8",
         "--seed", "3"],
        "9,990,001 samples at 1 ms, just under MAX_STEPS, and 4,995 leaps: 4,421 events",
    ),
    "B_fine": (
        ["scenario.case=B", "gateway.sample_dt=5e-7"],
        "fine sampling: 8,649,626 samples, 23 events",
    ),
    "A_fine": (
        ["gateway.sample_dt=1e-5"],
        "fine sampling: 8,164,325 samples, 18 events",
    ),
    "C_leaps_outnumber_samples": (
        ["scenario.case=C", "scenario.leap_interval=0.01", "gateway.sample_dt=0.02",
         "gateway.angular_step=40"],
        "6,000 leaps over 3,001 samples, so every sample heads a leap's run",
    ),
    "C_many_leap_runs": (
        ["scenario.case=C", "scenario.duration=1200", "scenario.leap_interval=0.001",
         "surface.n_cols=8", "surface.n_rows=8", "gateway.angular_step=60", "--seed", "3"],
        "1,192,169 leap runs over 1,200,001 samples, 146 times SAMPLE_BLOCK: a long case-C "
        "scan, 2 events",
    ),
    "C_10M_leap_runs": (
        ["scenario.case=C", "scenario.duration=9990", "scenario.leap_interval=0.001",
         "gateway.sample_dt=0.001", "surface.n_cols=8", "surface.n_rows=8",
         "gateway.angular_step=60"],
        "9,990,000 leaps and 9,926,332 leap runs over 9,990,001 samples, just under MAX_STEPS: "
        "a schedule and runs of about 80 MB each, were they held whole, 2 events",
    ),
    "C_10M_leaps_1s_samples": (
        ["scenario.case=C", "scenario.duration=9990", "scenario.leap_interval=0.001",
         "gateway.sample_dt=1", "surface.n_cols=8", "surface.n_rows=8"],
        "9,990,000 leaps over 9,991 samples at 1 s: every draw taken, 9,991 leap runs, "
        "8,814 events",
    ),
}

# The sweep workload of perfbench, and the same sweep and a 500x500 one off phi 0,
# where every direction codes the full grid; and a sweep from phi 0 to phi 10, whose
# directions alternate between the two phis.
SWEEPS = {
    "sweep_120x120": (
        ["--grid", "0.25", "surface.n_cols=120", "surface.n_rows=120"],
        "340 steps over 341 directions at phi 0, one row of 120 cells each",
    ),
    "sweep_120x120_phi33": (
        ["--grid", "0.25", "--from-phi", "33", "--to-phi", "33",
         "surface.n_cols=120", "surface.n_rows=120"],
        "340 steps over 341 directions that each code the full 120x120 grid but the last",
    ),
    "sweep_120x120_to_phi10": (
        ["--grid", "0.25", "--to-phi", "10", "surface.n_cols=120", "surface.n_rows=120"],
        "340 steps over 680 directions that alternate phi 0 and phi 10; the ends at phi 10 "
        "make every block code the full grid",
    ),
    "sweep_500x500_phi33": (
        ["--grid", "5", "--from-phi", "33", "--to-phi", "33",
         "surface.n_cols=500", "surface.n_rows=500"],
        "17 steps over 18 directions that each code the full 500x500 grid but the last",
    ),
}

ROWS = {
    **{name: ("simulate", *row) for name, row in SCENARIOS.items()},
    **{name: ("sweep", *row) for name, row in SWEEPS.items()},
}

# Runs one command and prints, as its last stdout line, the time.monotonic() at which
# steertrace.cli was imported (as perfbench/child.py reads it: the modules that the probe
# itself uses are imported after), the cli.main call's time and page faults, the time
# spent in gateway.detect_events, the process's peak RSS and the digests of the output
# files named in BENCH_FILES; then the same command again in the same process, its time
# and page faults as warm_main_s and warm_minflt, after a WARM line that splits the two
# calls' stdout.
WARM = "--- warm call ---\n"
CHILD = f"""\
import sys, time
from steertrace import gateway
from steertrace.cli import main
imported = time.monotonic()
import json, os, resource
detect, detect_s = gateway.detect_events, 0.0
def timed_detect(*args):
    global detect_s
    start = time.perf_counter()
    try:
        return detect(*args)
    finally:
        detect_s += time.perf_counter() - start
gateway.detect_events = timed_detect
def digests():
    import hashlib  # after the first call's getrusage: loading it adds about 3.8 MB of RSS
    files = json.loads(os.environ["BENCH_FILES"]).items()
    return {{key: hashlib.sha256(open(path, "rb").read()).hexdigest() for key, path in files}}
before = resource.getrusage(resource.RUSAGE_SELF)
start = time.perf_counter()
rc = main(sys.argv[1:])
elapsed = time.perf_counter() - start
after = resource.getrusage(resource.RUSAGE_SELF)
probe = {{"rc": rc, "imported": imported, "main_s": elapsed, "maxrss_kb": after.ru_maxrss,
         "minflt": after.ru_minflt - before.ru_minflt, "detect_s": detect_s, "sha": digests()}}
print({WARM!r}, end="", flush=True)
before = resource.getrusage(resource.RUSAGE_SELF)
start = time.perf_counter()
probe["warm_rc"] = main(sys.argv[1:])
probe["warm_main_s"] = time.perf_counter() - start
probe["warm_minflt"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before.ru_minflt
print(json.dumps(probe))
"""

METHOD = (
    "Each round runs simulate once per side, then metrics once per side on the trace "
    "that side wrote (a sweep row: sweep once per side), alternating which side goes "
    "first, each in a fresh interpreter "
    "started from /bin/sh (PYTHONDONTWRITEBYTECODE=1 with no __pycache__ in either "
    "tree, so every run compiles the package; SOURCE_DATE_EPOCH=0, one BLAS thread). "
    "Each process then runs the same command a second time, the warm call. "
    "Each side's trace path, and the report and heat-map paths that both sides share, are "
    "reused across rounds, so every call after the first, and every warm call, writes over "
    "an existing file. "
    "Every call's trace, report and heat map, or sweep stdout, are hashed, the warm "
    "call's apart from the first's; outputs_identical means every call of both sides "
    "gave the same bytes and exit code 0. Values are medians over the "
    "rounds, in host seconds, unscaled, each with its first and third quartiles beside it as "
    "<key>_quartiles (statistics.quantiles, exclusive method). "
    "command_s: spawn to exit, interpreter start, "
    "imports and both calls included. import_s: spawn to the end of the child's import of "
    "steertrace.cli, interpreter start included (time.monotonic() in the child less the "
    "same clock read just before the spawn, as perfbench's setup_s is taken), so it shows "
    "the start-up that every command pays before its work. "
    "main_s: the first cli.main call. warm_main_s: the "
    "warm call, which pays no import or first-use cost, so it shows a per-call cost "
    "that main_s buries. peak_rss_mb: getrusage ru_maxrss of that process after the "
    "first call. minflt: getrusage ru_minflt during the first call. warm_minflt: the same "
    "during the warm call; an in-process time moves with the page faults that the heap "
    "left by earlier calls costs, so this shows how much of a warm_main_s change is "
    "faults. change_lower, "
    "warm_lower and import_lower: rounds in which the change's first call, warm call or "
    "import was faster. rss_lower: "
    "rounds in which the change's peak_rss_mb was lower. detect_s (simulate only): the "
    "time inside gateway.detect_events during the first call, the drift-detection layer, "
    "which also computes the positions it reads: each sample's that a case-A or B search "
    "reads, and case C's blocks."
)


def run(tree: Path, argv: list[str], files: dict, env: dict) -> tuple[dict, float, list[tuple]]:
    """One command, run twice in a fresh interpreter on ``tree``'s package: the child's
    probe, with ``import_s`` the time from spawn to the end of its import of the package,
    the time from spawn to exit, and each call's exit code and output digests, those of
    ``files`` (key: path) or, when there are none, of the call's own stdout."""
    command = shlex.join([sys.executable, "-c", CHILD, *argv])
    spawned = time.monotonic()
    start = time.perf_counter()
    done = subprocess.run(
        ["/bin/sh", "-c", command], capture_output=True, text=True,
        env={**env, "PYTHONPATH": str(tree / "src"), "BENCH_FILES": json.dumps(
            {key: str(path) for key, path in files.items()})},
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{shlex.join(argv)} on {tree} failed:\n{done.stderr}")
    first, rest = done.stdout.split(WARM)
    *warm, probe = rest.splitlines(keepends=True)
    probe = json.loads(probe)
    probe["import_s"] = probe.pop("imported") - spawned
    sha = probe["sha"] or {"stdout": sha256(first)}
    last = {key: digest(path) for key, path in files.items()} or {"stdout": sha256("".join(warm))}
    return probe, elapsed, [(probe["rc"], *sha.items()), (probe["warm_rc"], *last.items())]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def hardware() -> str:
    model = platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        names = [ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
                 if ln.startswith("model name")]
        model = names[0] if names else model
    numpy = metadata.version("numpy")
    return f"{os.cpu_count()} CPUs, {model}, Python {platform.python_version()}, numpy {numpy}"


def bench(parent: Path, change: Path, rounds: int, work: Path, names: list[str]) -> dict:
    """The rows ``names`` of BENCH_<pr>.json, traces and outputs written under ``work``."""
    env = {
        **os.environ, "PYTHONDONTWRITEBYTECODE": "1", "SOURCE_DATE_EPOCH": "0",
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    }
    trees = {"parent": parent, "change": change}
    for tree in trees.values():
        if next((tree / "src").rglob("__pycache__"), None):  # a side that skips compiling
            raise SystemExit(f"{tree / 'src'} holds __pycache__; pass a tree without it")
    scenarios = {}
    for name in names:
        kind, args, why = ROWS[name]
        report, heat = work / "r.jsonl", work / "h.csv"
        traces = {side: work / f"{name}.{side}.jsonl" for side in trees}
        # per command and side: its argv and the named files that hold its output;
        # a command with no such file has its stdout as its output
        commands = {"sweep": lambda side: (["sweep", *args], {})} if kind == "sweep" else {
            "simulate": lambda side: (["simulate", "--out", str(traces[side]), *args],
                                      {"trace": traces[side]}),
            "metrics": lambda side: (["metrics", "--trace", str(traces[side]), "--report",
                                      str(report), "--heatmap", str(heat)],
                                     {"report": report, "heatmap": heat}),
        }
        samples = {command: {side: [] for side in trees} for command in commands}
        outputs = {command: set() for command in commands}
        for k in range(rounds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for command, spec in commands.items():
                for side in order:
                    probe, command_s, calls = run(trees[side], *spec(side), env)
                    outputs[command].update(calls)
                    samples[command][side].append({
                        "command_s": command_s, "import_s": probe["import_s"],
                        "main_s": probe["main_s"],
                        "warm_main_s": probe["warm_main_s"], "warm_minflt": probe["warm_minflt"],
                        "peak_rss_mb": probe["maxrss_kb"] / 1024, "minflt": probe["minflt"],
                        **({"detect_s": probe["detect_s"]} if command == "simulate" else {}),
                    })
        row = scenarios[name] = {
            "rounds": rounds,
            "outputs_identical": all(len(o) == 1 and min(o)[0] == 0 for o in outputs.values()),
            "outputs_sha256": {key: sha for o in outputs.values() for key, sha in min(o)[1:]},
        }
        if kind == "simulate":
            row.update(trace_bytes=traces["parent"].stat().st_size, format="csv")
        for command, by_side in samples.items():
            row[command] = {side: medians_and_quartiles(runs) for side, runs in by_side.items()}
            pairs = list(zip(*by_side.values()))
            lower = {key: sum(c[k] < p[k] for p, c in pairs) for key, k in (
                ("change_lower", "main_s"), ("warm_lower", "warm_main_s"),
                ("import_lower", "import_s"), ("rss_lower", "peak_rss_mb"))}
            row[command].update({key: f"{n}/{rounds}" for key, n in lower.items()})
        row["args"] = args
        if why:
            row["why"] = why
        for trace in traces.values():
            trace.unlink(missing_ok=True)  # a sweep row writes none
        print(name, json.dumps(row), file=sys.stderr)
    return scenarios


def medians_and_quartiles(runs: list[dict]) -> dict:
    """Each key's median over ``runs`` and, beside it as ``<key>_quartiles``, its first and
    third quartiles by ``statistics.quantiles``' default method; one run is its own."""
    out = {}
    for key in runs[0]:
        values = [r[key] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[key] = round(statistics.median(values), 6)
        out[f"{key}_quartiles"] = [round(q1, 6), round(q3, 6)]
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--change", dest="what", required=True, help="what the change does")
    parser.add_argument("--rounds", type=int, default=11)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    parser.add_argument("--rows", help="only these rows, NAME[,NAME...] (default: all)")
    args = parser.parse_args()
    names = args.rows.split(",") if args.rows else list(ROWS)
    for name in names:
        if name not in ROWS:
            parser.error(f"unknown row {name!r}; the rows are {', '.join(ROWS)}")
    with tempfile.TemporaryDirectory() as work:
        scenarios = bench(
            args.parent.resolve(), args.change.resolve(), args.rounds, Path(work), names
        )
    result = {
        "change": args.what,
        "commands": [
            "steertrace simulate --out T ARGS",
            "steertrace metrics --trace T --report R --heatmap H",
            "steertrace sweep ARGS",
        ],
        "hardware": hardware(),
        "method": METHOD,
        "scenarios": scenarios,
    }
    out = args.out_dir / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
