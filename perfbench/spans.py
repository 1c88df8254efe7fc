"""Span recorder for the benchmark's traced run.

Spans are recorded from outside the program, by wrapping the public names
each steertrace module calls (``steertrace.gateway.angle_stream`` and so on)
for the length of one traced command.  Every span keeps its name, start,
end, parent and iteration id, plus the counters taken when its call
returned.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Recorder.spans
    iteration: int
    counts: dict[str, int] = field(default_factory=dict)


def _len_of(value) -> int | None:
    try:
        return len(value)
    except TypeError:
        return None


def _count_samples(rec, result, args):
    n = _len_of(result)
    return {} if n is None else {"geometry.samples": n}


def _count_events(rec, result, args):
    counts = {}
    events = _len_of(result)
    if events is not None:
        counts["gateway.events"] = events
    if args and (samples := _len_of(args[0])) is not None:
        counts["gateway.samples_evaluated"] = samples
    return counts


def _count_packets(rec, result, args):
    n = _len_of(result)
    return {} if n is None else {"gateway.packets": n, "gateway.empty_events": int(n == 0)}


def _count_cells(rec, result, args):
    counts = {}
    size = getattr(result, "size", None)
    if isinstance(size, int):
        counts["coding.cells_coded"] = size
    try:
        key = tuple(args)
        counts["coding.repeated_calls"] = int(key in rec.seen_codings)
        rec.seen_codings.add(key)
    except TypeError:  # unhashable arguments: repeats cannot be told apart
        pass
    return counts


def _file_offset(handle) -> int | None:
    try:
        return handle.tell()
    except (AttributeError, OSError, ValueError):
        return None


def _count_written(rec, result, args):
    # cli opens a fresh file for every trace, so the final offset is the size
    n = _file_offset(args[1]) if len(args) > 1 else None
    return {} if n is None else {"trace_io.bytes_written": n}


def _count_read(rec, result, args):
    n = _file_offset(args[0]) if args else None
    return {} if n is None else {"trace_io.bytes_read": n}


# (module, attribute, span name, counter).  A name listed under two modules
# is the same layer reached along two call paths.
LAYERS = (
    ("steertrace.cli", "cmd_simulate", "cli.simulate", None),
    ("steertrace.cli", "cmd_metrics", "cli.metrics", None),
    ("steertrace.cli", "cmd_sweep", "cli.sweep", None),
    ("steertrace.cli", "run_simulation", "gateway.run_simulation", None),
    ("steertrace.gateway", "angle_stream", "geometry.angle_stream", _count_samples),
    ("steertrace.gateway", "detect_events", "gateway.detect_events", _count_events),
    ("steertrace.gateway", "state_matrix", "coding.state_matrix", _count_cells),
    ("steertrace.gateway", "diff_states", "gateway.diff_states", _count_packets),
    ("steertrace.cli", "write_trace", "trace_io.write_trace", _count_written),
    ("steertrace.cli", "read_trace", "trace_io.read_trace", _count_read),
    ("steertrace.cli", "write_report", "trace_io.write_report", None),
    ("steertrace.cli", "export_heatmap", "trace_io.export_heatmap", None),
    ("steertrace.cli", "burst_stats", "metrics.burst_stats", None),
    ("steertrace.cli", "destination_matrix", "metrics.destination_matrix", None),
    ("steertrace.metrics", "destination_matrix", "metrics.destination_matrix", None),
    ("steertrace.cli", "sweep_diff", "metrics.sweep_diff", None),
    ("steertrace.metrics", "state_matrix", "coding.state_matrix", _count_cells),
)

# per-layer metric -> span names whose self times it sums
TIMES = {
    "geometry.angle_stream_s": ("geometry.angle_stream",),
    "gateway.detect_events_s": ("gateway.detect_events",),
    "gateway.diff_states_s": ("gateway.diff_states",),
    "gateway.run_simulation_self_s": ("gateway.run_simulation",),
    "coding.state_matrix_s": ("coding.state_matrix",),
    "trace_io.write_trace_s": ("trace_io.write_trace",),
    "trace_io.read_trace_s": ("trace_io.read_trace",),
    "trace_io.export_s": ("trace_io.write_report", "trace_io.export_heatmap"),
    "metrics.burst_stats_self_s": ("metrics.burst_stats",),
    "metrics.destination_matrix_s": ("metrics.destination_matrix",),
    "metrics.sweep_diff_self_s": ("metrics.sweep_diff",),
    "cli.simulate_self_s": ("cli.simulate",),
    "cli.metrics_self_s": ("cli.metrics",),
    "cli.sweep_self_s": ("cli.sweep",),
}

COUNTS = (
    "geometry.samples",
    "gateway.events",
    "gateway.empty_events",
    "gateway.packets",
    "coding.cells_coded",
    "coding.repeated_calls",
    "trace_io.bytes_written",
    "trace_io.bytes_read",
)


class Recorder:
    """Collects spans from wrapped calls; one recorder per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.iteration = 0
        self.seen_codings: set = set()
        self._open: list[int] = []

    def start_iteration(self, iteration: int):
        self.iteration = iteration
        self.seen_codings = set()

    def call(self, name, fn, args, kwargs, counter=None):
        parent = self._open[-1] if self._open else None
        start = self.clock()
        span = Span(name, start, start, parent, self.iteration)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._open.pop()
        if counter is not None:
            span.counts = counter(self, result, args)
        return result

    def wrap(self, name, fn, counter=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return wrapper

    @contextmanager
    def installed(self, layers=LAYERS):
        """Wrap every listed name for the duration of the block.

        A module or name the program no longer has is skipped, so its layer
        reports zero calls instead of failing the run.
        """
        saved = []
        try:
            for module_name, attr, name, counter in layers:
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, counter))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), separators=(",", ":")) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        clipped = sorted(
            (max(c.start, span.start), min(c.end, span.end)) for c in children[i]
        )
        for lo, hi in clipped:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((span.end - span.start) - covered)
    return result


def per_iteration(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Self time per span name and counter totals, keyed by iteration id."""
    totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        row = totals[span.iteration]
        row[span.name] += own
        row[span.name + ".calls"] += 1
        for key, value in span.counts.items():
            row[key] += value
    return totals


def layer_metrics(spans: list[Span], iterations: list[int]) -> dict[str, float]:
    """Median over ``iterations`` of every per-layer time and counter."""
    totals = per_iteration(spans)
    rows = [totals.get(i, {}) for i in iterations] or [{}]

    def median_of(*keys):
        return statistics.median([sum(row.get(k, 0.0) for k in keys) for row in rows])

    out = {metric: median_of(*names) for metric, names in TIMES.items()}
    out.update({key: median_of(key) for key in COUNTS})
    events = median_of("gateway.events")
    out["gateway.samples_per_event"] = (
        median_of("gateway.samples_evaluated") / events if events else 0.0
    )
    return out


def call_summary(spans: list[Span], iterations: list[int]) -> dict[str, tuple[float, float]]:
    """Per span name: median calls and median self time over ``iterations``."""
    totals = per_iteration(spans)
    rows = [totals.get(i, {}) for i in iterations] or [{}]
    return {
        name: (
            statistics.median([row.get(name + ".calls", 0) for row in rows]),
            statistics.median([row.get(name, 0.0) for row in rows]),
        )
        for name in sorted({name for _, _, name, _ in LAYERS})
    }
