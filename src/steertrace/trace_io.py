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
from dataclasses import fields
from datetime import datetime, timezone
from itertools import chain
from typing import BinaryIO

import numpy as np

from .errors import TraceParseError, TraceWriteError, ValidationError
from .gateway import ReconfigEvent, TrafficTrace
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

    def write_json(self, obj):
        self.write_line(json.dumps(obj, separators=(",", ":")))


def _start(dest: BinaryIO, created: str | None, **header) -> _CountingSink:
    """A sink on ``dest`` that has written the header line: version, stamp, ``header``."""
    sink = _CountingSink(dest)
    created = created if created is not None else default_created()
    sink.write_json({"format_version": FORMAT_VERSION, "created": created, **header})
    return sink


def write_trace(trace: TrafficTrace, dest: BinaryIO, created: str | None = None):
    """Serialize a trace; see the module docstring for the format."""
    sink = _start(dest, created, meta=meta_to_dict(trace.meta))
    for ev in trace.events:
        sink.write_json({
            "t": ev.t,
            "theta_r": ev.reflected.theta,
            "phi_r": ev.reflected.phi,
            "updates": ev.updates.tolist(),
        })


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


def _read_lines(source: BinaryIO) -> tuple[dict, list[str]]:
    """Decode a trace or report file; return its version-checked header and all lines."""
    data = source.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceParseError(f"not UTF-8: {exc}", data.count(b"\n", 0, exc.start) + 1) from None
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
    return header, lines


def _updates(raw, surface, line_number: int) -> np.ndarray:
    """``raw`` as (n, 3) int64 rows of distinct cells; an error names the bad update."""
    if type(raw) is not list:
        raise TraceParseError(f"updates must be a list, got {raw!r}", line_number)
    try:
        # one C-level pass over the values: np.array below would cast bools and floats
        if not set(map(type, chain.from_iterable(raw))) <= {int}:
            raise TypeError
        updates = np.array(raw, dtype=np.int64).reshape(len(raw), 3)
    except (TypeError, ValueError, OverflowError):
        for u in raw:
            if not (type(u) is list and len(u) == 3 and all(type(x) is int for x in u)):
                raise TraceParseError(f"update {u!r} is not 3 integers", line_number) from None
        raise TraceParseError("an update integer exceeds 64 bits", line_number) from None
    limits = (surface.n_cols, surface.n_rows, surface.n_states)
    inside = ((updates >= 0) & (updates < limits)).all(axis=1)
    if not inside.all():
        raise ValidationError(
            f"line {line_number}: update {updates[inside.argmin()].tolist()} outside the "
            f"{surface.n_cols}x{surface.n_rows} grid or the states [0, {surface.n_states})"
        )
    cells = np.sort(updates[:, 1] * surface.n_cols + updates[:, 0])
    repeated = cells[1:][cells[1:] == cells[:-1]]
    if repeated.size:
        r, c = divmod(int(repeated[0]), surface.n_cols)
        raise ValidationError(f"line {line_number}: duplicate update for cell ({c}, {r})")
    return updates


def read_trace(source: BinaryIO) -> TrafficTrace:
    """Inverse of :func:`write_trace`; validates structure on load."""
    header, lines = _read_lines(source)
    try:
        meta = meta_from_dict(header.get("meta"))
    except ValidationError as exc:
        raise TraceParseError(f"bad header meta: {exc}", 1) from None

    events = []
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
        t = float(t)
        if events and t <= events[-1].t:
            raise ValidationError(
                f"line {line_number}: event times must be strictly increasing "
                f"({t!r} after {events[-1].t!r})"
            )
        updates = _updates(raw_updates, meta.surface, line_number)
        events.append(ReconfigEvent(t, Angles(float(theta), float(phi)), updates))
    return TrafficTrace(meta, tuple(events))


def write_report(report: WorkloadReport, dest: BinaryIO, created: str | None = None):
    """Write a workload report in the same line-delimited object format."""
    sink = _start(dest, created, kind="workload_report")
    sink.write_json({
        "total_packets": report.total_packets,
        "spatial_cv": report.spatial_cv,
        "per_event_changed_fraction": list(report.per_event_changed_fraction),
        "burst_sizes": list(report.burst_sizes),
        "inter_event_times": list(report.inter_event_times),
    })


def read_report(source: BinaryIO) -> WorkloadReport:
    """Inverse of :func:`write_report`; each value must fit its WorkloadReport field's type."""
    _, lines = _read_lines(source)
    body = _parse_line(lines[1], 2) if len(lines) > 1 else {}
    values = {}
    for field in fields(WorkloadReport):
        value, many = body.get(field.name), str(field.type).startswith("tuple")
        kind = int if "int" in str(field.type) else float
        items = value if many and type(value) is list else [value]
        valid = (type(x) is int if kind is int else is_finite_number(x) for x in items)
        if many != (type(value) is list) or not all(valid):
            raise TraceParseError(f"bad report body: {field.name} is {value!r}", 2)
        values[field.name] = tuple(map(kind, items)) if many else kind(value)
    return WorkloadReport(**values)


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
