"""Command-line front end: simulate a scenario, analyze a trace, sweep angles.

Exit codes: 0 success, 2 invalid configuration or malformed input file,
3 I/O failure.  Summaries go to stdout as one line of key=value pairs.

An existing output file is written over from its start and cut at its last byte
written, not truncated when opened.  A command that fails once an output is open leaves
that file empty; one refused before leaves it alone.  Pipes and devices are streams.
An output that names the regular file stdout writes to is refused before any is opened.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys
from typing import BinaryIO, Iterator

from .coding import _check
from .errors import TraceParseError, ValidationError
from .gateway import TraceMeta, format_number, iter_events
from .geometry import Angles
from .metrics import summarize, sweep_diff, sweep_grid
from .scenario import defaults, meta_from_dict
from .trace_io import default_created, export_heatmap, iter_trace, write_events, write_report


def load_scenario(args) -> tuple[TraceMeta, str]:
    """Defaults <- ``--config`` <- ``key=value`` overrides, parsed by the scenario schema.

    Returns the scenario and ``outputs.trace``, the one config key that is not
    part of the trace header.
    """
    cfg = defaults()
    cfg["outputs"] = {"trace": "trace.jsonl"}
    if args.config is not None:
        with open(args.config, "rb") as fh:
            try:
                user = json.load(fh)
            except (ValueError, RecursionError) as exc:
                raise ValidationError(f"config is not valid JSON: {exc}", key="config") from None
        if not (isinstance(user, dict) and all(isinstance(v, dict) for v in user.values())):
            raise ValidationError("config must be a JSON object of section objects", key="config")
        for section, values in user.items():
            cfg.setdefault(section, {}).update(values)
    for pair in args.overrides:
        dotted, eq, raw = pair.partition("=")
        section, dot, key = dotted.partition(".")
        if not (eq and dot):
            raise ValidationError(f"override {pair!r} is not of the form section.key=value")
        try:
            value = json.loads(raw)
        except (ValueError, RecursionError):
            value = raw  # bare strings, e.g. case=A
        cfg.setdefault(section, {})[key] = value
    outputs = cfg.pop("outputs")
    trace_path = outputs.pop("trace")
    if outputs:
        dotted = f"outputs.{next(iter(outputs))}"
        raise ValidationError(f"unknown key {dotted}", key=dotted)
    if not isinstance(trace_path, str):
        raise ValidationError(f"outputs.trace must be a path, got {trace_path!r}", "outputs.trace")
    return meta_from_dict(cfg), trace_path


@contextlib.contextmanager
def _output(path: str) -> Iterator[BinaryIO]:
    """``open(path, "wb")``, but a regular file is written over in place and cut at the
    end: truncating one whose old pages are dirty writes them back first.  A new file
    gets mode 0o666 less the umask, as ``open`` gives it."""
    with open(path, "wb", opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # a pipe or device: a stream
            yield fh
            return
        try:
            yield fh
            fh.truncate()  # flushes, then cuts what is left of the old bytes
        except BaseException:  # cut to empty, so that no reader takes a part for the whole
            with contextlib.suppress(OSError):  # the error raised stays the one raised
                try:
                    os.ftruncate(fh.fileno(), 0)
                finally:
                    fh.raw.close()  # drops the buffer's unwritten bytes; close writes none
            raise


def _refuse_stdout(outputs: list[tuple[str, str | None]]):
    """Refuse the first of ``outputs``, (option, path), whose path names the regular file
    that stdout writes to: the summary line, printed there after, would overwrite the
    start of that output.  A pipe or a device, /dev/null too, is a stream: left alone."""
    try:
        out = os.fstat(sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):  # no stdout, or one with no file
        return
    if not stat.S_ISREG(out.st_mode):
        return
    for option, path in outputs:
        with contextlib.suppress(OSError):  # none there yet, or none can be: opening will tell
            if path is not None and os.path.samestat(os.stat(path), out):
                message = f"{option} {path!r} is the file that stdout writes to"
                raise ValidationError(message, option)


def cmd_simulate(args) -> int:
    created = default_created()  # a bad SOURCE_DATE_EPOCH stops the run before any output
    meta, out_path = load_scenario(args)
    if args.seed is not None:
        params = meta.trajectory.params.replace(rng_seed=args.seed)
        meta = meta.replace(trajectory=meta.trajectory.replace(params=params))
    if args.out is not None:
        out_path = args.out
    _refuse_stdout([("--out" if args.out is not None else "outputs.trace", out_path)])
    events = iter_events(meta)  # a refused scenario raises here, before the file is opened
    with _output(out_path) as fh:
        n_events, n_packets = write_events(meta, events, fh, created)
    print(
        f"events={n_events} packets={n_packets} "
        f"duration={format_number(meta.trajectory.duration)} trace={out_path}"
    )
    return 0


def cmd_metrics(args) -> int:
    created = default_created()
    if args.format is not None and args.heatmap is None:
        raise ValidationError("--format is not used without --heatmap", "--format")
    _refuse_stdout([("--report", args.report), ("--heatmap", args.heatmap)])
    with open(args.trace, "rb", buffering=1 << 17) as fh:  # a 100x100 burst is a 73 KB line
        meta, events = iter_trace(fh)
        report, matrix = summarize(meta.surface, events)
    with _output(args.report) as fh:
        write_report(report, fh, created)
    summary = (
        f"events={len(report.burst_sizes)} packets={report.total_packets} "
        f"spatial_cv={format_number(report.spatial_cv)} report={args.report}"
    )
    if args.heatmap is not None:
        with _output(args.heatmap) as fh:
            export_heatmap(matrix, args.format or "csv", fh)
        summary += f" heatmap={args.heatmap}"
    print(summary)
    return 0


def _grid_lines(steps: Iterator[tuple[float, float, float]]) -> Iterator[str]:
    """``sweep_grid``'s steps as lines, each distinct number formatted once: a step starts
    where the last one ended, and a fraction, a count over n_cells, has few values.  A
    zero is formatted anew, so that 0.0 and -0.0 never share a text."""
    fractions: dict[float, str] = {}
    last = last_text = None  # the previous step's end and its text
    for start, end, fraction in steps:
        start_text = last_text if start == last and start else format_number(start)
        last, last_text = end, format_number(end)
        if not fraction or fraction not in fractions:
            fractions[fraction] = format_number(fraction)
        yield f"from_theta={start_text} to_theta={last_text} fraction={fractions[fraction]}\n"


def cmd_sweep(args) -> int:
    meta, _ = load_scenario(args)
    grid = args.grid is not None
    ends = (("from", args.from_theta, args.from_phi), ("to", args.to_theta, args.to_phi))
    for end, theta, phi in ends:
        option = f"--{end}-theta"
        if grid != (theta is None):
            rule = "is not used with" if grid else "is required without"
            raise ValidationError(f"{option} {rule} --grid", option)
        theta = theta or 0.0  # None in a grid, whose thetas, 85 down to 0, pass as 0 does
        try:
            _check("reflected", theta, phi)
        except ValidationError as exc:  # named for the option at fault
            if math.isfinite(theta) and not math.isfinite(phi):
                option = f"--{end}-phi"
            raise ValidationError(f"{option}: {exc}", option) from None
    if grid:
        steps = sweep_grid(args.grid, args.from_phi, args.to_phi, meta.surface, meta.incident)
        sys.stdout.writelines(_grid_lines(steps))  # one call, and no text of all the lines at once
        return 0
    fraction = sweep_diff(
        Angles(args.from_theta, args.from_phi),
        Angles(args.to_theta, args.to_phi),
        meta.surface,
        meta.incident,
    )
    print(
        f"from_theta={format_number(args.from_theta)} from_phi={format_number(args.from_phi)} "
        f"to_theta={format_number(args.to_theta)} to_phi={format_number(args.to_phi)} "
        f"fraction={format_number(fraction)}"
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call, built on the first call, not at import, and
    shared after it: no caller may change it."""
    parser = argparse.ArgumentParser(
        prog="steertrace",
        description="Simulate beam-steering control traffic and analyze its traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and write its trace")
    sim.add_argument("--config", help="JSON scenario configuration file")
    sim.add_argument("--seed", type=int, help="override scenario.rng_seed")
    sim.add_argument("--out", help="override outputs.trace")
    sim.add_argument(
        "overrides", nargs="*", metavar="key=value",
        help="dotted config overrides, e.g. surface.n_states=8",
    )

    met = sub.add_parser("metrics", help="compute workload metrics from a trace")
    met.add_argument("--trace", required=True, help="input trace file")
    met.add_argument("--report", required=True, help="output report file")
    met.add_argument("--heatmap", help="optional destination heat-map file")
    met.add_argument("--format", choices=("csv", "pgm"), help="heat-map format (default csv)")

    swp = sub.add_parser("sweep", help="changed-cell fraction between two directions")
    swp.add_argument("--from-theta", type=float, dest="from_theta")
    swp.add_argument("--to-theta", type=float, dest="to_theta")
    swp.add_argument("--from-phi", type=float, dest="from_phi", default=0.0)
    swp.add_argument("--to-phi", type=float, dest="to_phi", default=0.0)
    swp.add_argument(
        "--grid", type=float,
        help="print the fraction for every consecutive pair from 85 down to 0 at this step",
    )
    swp.add_argument("--config", help="JSON scenario configuration file")
    swp.add_argument(
        "overrides", nargs="*", metavar="key=value",
        help="dotted config overrides, e.g. surface.n_states=8",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)  # looked up per call: a later wrapper runs
    except (ValidationError, TraceParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
