"""Command-line front end: simulate a scenario, analyze a trace, sweep angles.

Exit codes: 0 success, 2 invalid configuration or malformed input file,
3 I/O failure.  Summaries go to stdout as one line of key=value pairs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .coding import aliasing_check, phase_gradients
from .errors import TraceParseError, ValidationError
from .gateway import TraceMeta, TrafficTrace, run_simulation
from .geometry import MAX_SAMPLES, Angles
from .metrics import burst_stats, destination_matrix, sweep_diff, sweep_grid
from .scenario import defaults, meta_from_dict
from .trace_io import export_heatmap, format_number, read_trace, write_report, write_trace


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


def _warn_on_aliasing(trace: TrafficTrace):
    surface = trace.meta.surface
    incident = trace.meta.incident
    aliased = []
    for ev in trace.events:
        report = aliasing_check(phase_gradients(incident, ev.reflected, surface), surface)
        if report.aliased:
            aliased.append((ev, report))
    if aliased:
        import logging  # here, not at the top: every command would pay its import

        ev, report = aliased[0]
        logging.getLogger("steertrace").warning(
            "aliasing at %d of %d events, first at t=%s: the per-cell phase step "
            "(%.4f, %.4f rad) exceeds half a cycle, so the steered direction is undersampled",
            len(aliased), len(trace.events), format_number(ev.t), report.step_x, report.step_y,
        )


def cmd_simulate(args) -> int:
    meta, out_path = load_scenario(args)
    if args.seed is not None:
        params = replace(meta.trajectory.params, rng_seed=args.seed)
        meta = replace(meta, trajectory=replace(meta.trajectory, params=params))
    if args.out is not None:
        out_path = args.out
    trace = run_simulation(meta.trajectory, meta.surface, meta.gateway, meta.incident)
    _warn_on_aliasing(trace)
    with open(out_path, "wb") as fh:
        write_trace(trace, fh)
    print(
        f"events={len(trace.events)} packets={trace.total_packets} "
        f"duration={format_number(meta.trajectory.duration)} trace={out_path}"
    )
    return 0


def cmd_metrics(args) -> int:
    with open(args.trace, "rb") as fh:
        trace = read_trace(fh)
    matrix = destination_matrix(trace)
    report = burst_stats(trace, matrix=matrix)
    with open(args.report, "wb") as fh:
        write_report(report, fh)
    summary = (
        f"events={len(trace.events)} packets={report.total_packets} "
        f"spatial_cv={format_number(report.spatial_cv)} report={args.report}"
    )
    if args.heatmap is not None:
        with open(args.heatmap, "wb") as fh:
            export_heatmap(matrix, args.format, fh)
        summary += f" heatmap={args.heatmap}"
    print(summary)
    return 0


def cmd_sweep(args) -> int:
    meta, _ = load_scenario(args)
    if args.grid is not None:
        if not (0 < args.grid <= 85.0 and 85.0 / args.grid <= MAX_SAMPLES):  # two codings a step
            raise ValidationError(f"--grid must be in (0, 85] with <= {MAX_SAMPLES} steps", "grid")
        for start, end, fraction in sweep_grid(
            args.grid, args.from_phi, args.to_phi, meta.surface, meta.incident
        ):
            print(
                f"from_theta={format_number(start)} to_theta={format_number(end)} "
                f"fraction={format_number(fraction)}"
            )
        return 0
    if args.from_theta is None or args.to_theta is None:
        raise ValidationError("--from-theta and --to-theta are required without --grid")
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


def build_parser() -> argparse.ArgumentParser:
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
    sim.set_defaults(func=cmd_simulate)

    met = sub.add_parser("metrics", help="compute workload metrics from a trace")
    met.add_argument("--trace", required=True, help="input trace file")
    met.add_argument("--report", required=True, help="output report file")
    met.add_argument("--heatmap", help="optional destination heat-map file")
    met.add_argument("--format", choices=("csv", "pgm"), default="csv")
    met.set_defaults(func=cmd_metrics)

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
    swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, TraceParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
