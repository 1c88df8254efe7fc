"""Plain-text persistence for traces, workload reports, and heat maps.

Trace files are UTF-8 with LF newlines, one JSON object per line.  Line 1 is
the header::

    {"format_version": 1, "created": "...", "meta": {...}}

and every following line is one reconfiguration event::

    {"t": ..., "theta_r": ..., "phi_r": ..., "updates": [[col, row, state], ...]}

``meta`` snapshots the surface, gateway, incidence, and scenario in full, so
a trace header alone suffices to regenerate the trace; :mod:`.scenario`, the
schema of the CLI config too, lays it out and parses it.  Floats are rendered
with full round-trip precision and no locale dependence.  ``created``
defaults to the epoch of SOURCE_DATE_EPOCH (or 0 when unset) so identical
scenarios always produce identical bytes.

Heat maps export either as header-less CSV (one line per row) or as plain
PGM (P2, maxval 255, pixels scaled by the matrix maximum).
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from typing import BinaryIO

import numpy as np

from .errors import TraceParseError, TraceWriteError, ValidationError
from .gateway import CellUpdate, ReconfigEvent, TrafficTrace
from .geometry import Angles
from .metrics import WorkloadReport
from .scenario import is_finite_number, meta_from_dict, meta_to_dict

FORMAT_VERSION = 1

_PGM_MAX_LINE = 70  # plain-PGM line length limit


def format_number(value: float) -> str:
    """Shortest decimal form that round-trips; integral floats drop the '.0'."""
    s = repr(float(value))
    return s[:-2] if s.endswith(".0") else s


def default_created() -> str:
    """Deterministic creation stamp honoring SOURCE_DATE_EPOCH."""
    try:
        epoch = int(os.environ.get("SOURCE_DATE_EPOCH", "0"))
    except ValueError:
        epoch = 0
    return datetime.fromtimestamp(epoch, timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


class _CountingSink:
    """Tracks bytes written so failures can report the offending offset."""

    def __init__(self, dest: BinaryIO):
        self._dest = dest
        self.offset = 0

    def write_line(self, text: str):
        data = text.encode("utf-8") + b"\n"
        try:
            self._dest.write(data)
        except OSError as exc:
            raise TraceWriteError(
                f"write failed at byte offset {self.offset}: {exc}", byte_offset=self.offset
            ) from exc
        self.offset += len(data)


def write_trace(trace: TrafficTrace, dest: BinaryIO, created: str | None = None):
    """Serialize a trace; see the module docstring for the format."""
    sink = _CountingSink(dest)
    header = {
        "format_version": FORMAT_VERSION,
        "created": created if created is not None else default_created(),
        "meta": meta_to_dict(trace.meta),
    }
    sink.write_line(json.dumps(header, separators=(",", ":")))
    for ev in trace.events:
        record = {
            "t": ev.t,
            "theta_r": ev.reflected.theta,
            "phi_r": ev.reflected.phi,
            "updates": [[u.col, u.row, u.new_state] for u in ev.updates],
        }
        sink.write_line(json.dumps(record, separators=(",", ":")))


def _parse_line(text: str, line_number: int) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"invalid JSON: {exc.msg}", line_number) from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, or nesting too deep
        raise TraceParseError(f"invalid JSON: {exc}", line_number) from None
    if not isinstance(obj, dict):
        raise TraceParseError("expected a JSON object", line_number)
    return obj


def read_trace(source: BinaryIO) -> TrafficTrace:
    """Inverse of :func:`write_trace`; validates structure on load."""
    try:
        text = source.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceParseError(f"not valid UTF-8: {exc}", 1) from exc
    lines = text.splitlines()
    if not lines:
        raise TraceParseError("empty file, header missing", 1)

    header = _parse_line(lines[0], 1)
    version = header.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported format_version {version!r} (expected {FORMAT_VERSION})",
            key="format_version",
        )
    try:
        meta = meta_from_dict(header.get("meta"))
    except ValidationError as exc:
        raise TraceParseError(f"bad header meta: {exc}", 1) from None

    n_cols, n_rows, n_states = meta.surface.n_cols, meta.surface.n_rows, meta.surface.n_states
    events = []
    last_t = None
    for line_number, line in enumerate(lines[1:], start=2):
        obj = _parse_line(line, line_number)
        try:
            t, theta, phi, raw_updates = obj["t"], obj["theta_r"], obj["phi_r"], obj["updates"]
        except KeyError as exc:
            raise TraceParseError(f"event record lacks {exc}", line_number) from None
        if not (is_finite_number(t) and is_finite_number(theta) and is_finite_number(phi)):
            raise TraceParseError(
                f"t, theta_r and phi_r must be finite numbers, got {t!r}, {theta!r}, {phi!r}",
                line_number,
            )
        if type(raw_updates) is not list:
            raise TraceParseError(f"updates must be a list, got {raw_updates!r}", line_number)
        t = float(t)
        if last_t is not None and t <= last_t:
            raise ValidationError(
                f"line {line_number}: event times must be strictly increasing "
                f"({t!r} after {last_t!r})"
            )
        last_t = t
        updates = []
        seen = set()
        try:
            for c, r, s in raw_updates:
                if not (type(c) is int and type(r) is int and type(s) is int):
                    raise TraceParseError(f"update {[c, r, s]!r} is not 3 integers", line_number)
                if not (0 <= c < n_cols and 0 <= r < n_rows):
                    raise ValidationError(
                        f"line {line_number}: cell ({c}, {r}) outside the {n_cols}x{n_rows} grid"
                    )
                if not 0 <= s < n_states:
                    raise ValidationError(f"line {line_number}: state {s} outside [0, {n_states})")
                cell = r * n_cols + c
                if cell in seen:
                    raise ValidationError(f"line {line_number}: duplicate update for cell ({c}, {r})")
                seen.add(cell)
                updates.append(CellUpdate(c, r, s))
        except (TraceParseError, ValidationError):
            raise
        except (TypeError, ValueError) as exc:  # an update that is not a 3-item list
            raise TraceParseError(f"bad update: {exc}", line_number) from None
        events.append(ReconfigEvent(t, Angles(float(theta), float(phi)), tuple(updates)))
    return TrafficTrace(meta, tuple(events))


def write_report(report: WorkloadReport, dest: BinaryIO, created: str | None = None):
    """Write a workload report in the same line-delimited object format."""
    sink = _CountingSink(dest)
    header = {
        "format_version": FORMAT_VERSION,
        "created": created if created is not None else default_created(),
        "kind": "workload_report",
    }
    sink.write_line(json.dumps(header, separators=(",", ":")))
    body = {
        "total_packets": report.total_packets,
        "spatial_cv": report.spatial_cv,
        "per_event_changed_fraction": list(report.per_event_changed_fraction),
        "burst_sizes": list(report.burst_sizes),
        "inter_event_times": list(report.inter_event_times),
    }
    sink.write_line(json.dumps(body, separators=(",", ":")))


def read_report(source: BinaryIO) -> WorkloadReport:
    lines = source.read().decode("utf-8").splitlines()
    if len(lines) < 2:
        raise TraceParseError("report needs a header line and a body line", max(1, len(lines)))
    header = _parse_line(lines[0], 1)
    if header.get("format_version") != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported format_version {header.get('format_version')!r}",
            key="format_version",
        )
    body = _parse_line(lines[1], 2)
    try:
        return WorkloadReport(
            per_event_changed_fraction=tuple(float(x) for x in body["per_event_changed_fraction"]),
            total_packets=int(body["total_packets"]),
            burst_sizes=tuple(int(x) for x in body["burst_sizes"]),
            inter_event_times=tuple(float(x) for x in body["inter_event_times"]),
            spatial_cv=float(body["spatial_cv"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceParseError(f"bad report body: {exc!r}", 2) from exc


def export_heatmap(matrix: np.ndarray, fmt: str, dest: BinaryIO):
    """Write a destination matrix as header-less CSV or plain PGM (P2).

    CSV holds one matrix row per line.  PGM pixels are
    round(255 * entry / max entry); an all-zero matrix maps to all-zero
    pixels.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValidationError("heat-map matrix must be 2-D", key="matrix")
    if not np.all(np.isfinite(m)) or np.any(m < 0):
        raise ValidationError("heat-map entries must be finite and >= 0", key="matrix")
    sink = _CountingSink(dest)
    if fmt == "csv":
        for row in m:
            sink.write_line(",".join(format_number(v) for v in row))
    elif fmt == "pgm":
        peak = m.max()
        if peak > 0:
            pixels = np.rint(255.0 * m / peak).astype(int)
        else:
            pixels = np.zeros(m.shape, dtype=int)
        n_rows, n_cols = m.shape
        sink.write_line("P2")
        sink.write_line(f"{n_cols} {n_rows}")
        sink.write_line("255")
        for row in pixels:
            for chunk in _wrap_tokens([str(v) for v in row], _PGM_MAX_LINE):
                sink.write_line(chunk)
    else:
        raise ValidationError(f"unknown heat-map format {fmt!r}", key="format")


def _wrap_tokens(tokens: list[str], width: int):
    """Join tokens with spaces into lines no longer than ``width`` characters."""
    line = ""
    for tok in tokens:
        if line and len(line) + 1 + len(tok) > width:
            yield line
            line = tok
        else:
            line = tok if not line else f"{line} {tok}"
    if line:
        yield line
