"""Trace I/O code kept as reference oracles; steertrace itself no longer runs it.

``export_heatmap_csv`` is the CSV branch of ``export_heatmap`` as it stood
before each distinct value was formatted once: ``format_number`` on every
entry.  ``cell_fault`` is the cell part of ``gateway.checked_events`` as it
stood before row-major order skipped the sort and before the reader checked
one event at a time: it sorts every event's cell keys, over a run of events
at once.  It refuses first an event of more updates than cells, as the library
does before reading such an event's long line whole.  The library must give the
same bytes, and the same first faulty event and message.
``outside_surface`` is the bounds test as it stood before it took each column's
maximum first: one broadcast compare of every value against its limit, which
also gives the first faulty row; the library's must give the same message.

``read_trace`` and the helpers above it are the trace reader as it stood
before it streamed: it decodes the whole file, splits it with
``str.splitlines`` and reads the text lines, decoding runs of them together
(``_groups``) and checking their cells with ``cell_fault``.  On a file with
one fault the streaming reader, which reads one line at a time, must give
the same events or the same first error.
"""

from __future__ import annotations

import json
from typing import BinaryIO

import numpy as np

from steertrace.errors import TraceParseError, ValidationError
from steertrace.gateway import ReconfigEvent, TrafficTrace, over_full
from steertrace.geometry import Angles
from steertrace.scenario import is_finite_number, meta_from_dict
from steertrace.trace_io import (
    _MAX_DIGITS,
    _ZERO,
    FORMAT_VERSION,
    _CountingSink,
    _updates,
    format_number,
)

_UPDATES_KEY = ',"updates":'
# The reader decoded a run of consecutive event lines in one numpy pass until
# it held this many updates plus lines: per-line numpy calls would cost more
# than the decoding on traces of many small bursts, and one pass over a whole
# trace would hold temporaries of several times its size.
_GROUP_ROWS = 2**12
_LBRACKET, _RBRACKET, _COMMA = b"[],"


def export_heatmap_csv(matrix: np.ndarray, dest: BinaryIO):
    m = np.asarray(matrix, dtype=float)
    sink = _CountingSink(dest)
    for row in m:
        sink.write_line(",".join(format_number(v) for v in row))


def cell_fault(rows: np.ndarray, bounds, surface) -> tuple[int, str]:
    k, fault = _cell_fault(rows, bounds, surface)
    over = np.flatnonzero(np.diff(bounds) > surface.n_cells)  # refused before anything else
    return (int(over[0]), over_full(surface)) if over.size and over[0] <= k else (k, fault)


def _cell_fault(rows: np.ndarray, bounds, surface) -> tuple[int, str]:
    limits = (surface.n_cols, surface.n_rows, surface.n_states)
    inside = ((rows >= 0) & (rows < limits)).all(axis=1)
    outside = len(rows) if inside.all() else int(inside.argmin())
    k_out = int(np.searchsorted(bounds, outside, side="right")) - 1
    # repeats among the events before that one, whose cells are all inside
    n = int(bounds[k_out]) if outside < len(rows) else len(rows)
    event = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))[:n]
    cells = np.sort((event * surface.n_rows + rows[:n, 1]) * surface.n_cols + rows[:n, 0])
    repeated = cells[1:][cells[1:] == cells[:-1]]
    if repeated.size:
        k, cell = divmod(int(repeated[0]), surface.n_cells)
        r, c = divmod(cell, surface.n_cols)
        return k, f"duplicate update for cell ({c}, {r})"
    if outside < len(rows):
        return k_out, (
            f"update {rows[outside].tolist()} outside the {surface.n_cols}x{surface.n_rows} "
            f"grid or the states [0, {surface.n_states})"
        )
    return len(bounds) - 1, ""


def outside_surface(rows: np.ndarray, surface) -> tuple[int, str]:
    limits = np.array([surface.n_cols, surface.n_rows, surface.n_states], np.uint64)
    bad = rows.view(np.uint64) >= limits  # a negative value wraps above every limit
    if not bad.any():
        return len(rows), ""
    k = int(bad.argmax()) // 3
    return k, (
        f"update {rows[k].tolist()} outside the {surface.n_cols}x{surface.n_rows} "
        f"grid or the states [0, {surface.n_states})"
    )


def _groups(items, size):
    """Runs of consecutive ``items``, each closed once its ``size(item)`` adds up to _GROUP_ROWS."""
    group, total = [], 0
    for item in items:
        group.append(item)
        total += size(item)
        if total >= _GROUP_ROWS:
            yield group
            group, total = [], 0
    if group:
        yield group


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


def _split_event(line: str) -> tuple[dict, str] | None:
    """The head object and the ``updates`` text of an event line that, like the
    writer's, ends in ``,"updates":...}`` after an object of exactly the keys
    ``t``, ``theta_r`` and ``phi_r``; None for any other line."""
    cut = line.rfind(_UPDATES_KEY)
    if cut < 0 or not line.endswith("}"):
        return None
    try:
        head = json.loads(line[:cut] + "}")
    except (ValueError, RecursionError):
        return None
    if type(head) is not dict or head.keys() != {"t", "theta_r", "phi_r"}:
        return None
    return head, line[cut + len(_UPDATES_KEY):-1]


def _decode_updates(bodies: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """The rows of ``updates`` texts in the writer's spelling, as (n, 3) int64 with the
    row offsets of each text; None unless every text is ``[]`` or ``[[c,r,s],...]``
    with no sign, no leading zero, at most _MAX_DIGITS digits a value and nothing else.

    For such a text the rows are those ``json`` parses; the texts are decoded together.
    """
    counts = [body.count("[") - 1 for body in bodies]
    if any(n < 1 and body != "[]" for n, body in zip(counts, bodies)):
        return None
    bounds = np.cumsum([0, *counts])
    full = [body for n, body in zip(counts, bodies) if n]
    text = "".join(full)
    if not text:
        return np.empty((0, 3), np.int64), bounds
    if not (text.isascii() and text.startswith("[[") and text.endswith("]]")):
        return None
    data = np.frombuffer(text.encode(), np.uint8)
    digit = data - _ZERO  # wraps around for bytes below "0"
    is_digit = digit < 10
    # the runs of digits: text[start[i]:stop[i]] is value i
    edges = np.flatnonzero(is_digit[1:] != is_digit[:-1]) + 1
    start, stop = edges[::2], edges[1::2]
    n_rows = int(bounds[-1])
    if len(start) != 3 * n_rows or start[0] != 2:
        return None
    lengths = np.diff(edges)  # a value's digits, then the bytes up to the next value, ...
    size, gap = lengths[::2], lengths[1::2]
    if size.max() > _MAX_DIGITS or ((size > 1) & (digit[start] == 0)).any():
        return None
    # Between values: "," inside a row; "],[" between rows of a text; "]][[" where
    # one text meets the next.  Texts end after their last value's "]]".
    after = data[stop].reshape(-1, 3)
    row_end = stop[2::3][:-1]  # the last value of every row but the final one
    text_rows = np.cumsum([n for n in counts if n])  # rows up to the end of each text
    meets = np.zeros(n_rows - 1, bool)  # a row is the last of its text
    meets[text_rows[:-1] - 1] = True
    if not (
        (gap[0::3] == 1).all()
        and (gap[1::3] == 1).all()
        and np.array_equal(gap[2::3], 3 + meets)
        and (after[:, :2] == _COMMA).all()
        and (after[:, 2] == _RBRACKET).all()
        and np.array_equal(data[row_end + 1], np.where(meets, _RBRACKET, _COMMA))
        and (data[row_end + 2] == _LBRACKET).all()
        and (data[row_end[meets] + 3] == _LBRACKET).all()
        and len(data) - stop[-1] == 2
        and np.array_equal(stop[3 * text_rows - 1] + 2, np.cumsum([len(b) for b in full]))
    ):
        return None
    values = digit[stop - 1].astype(np.int64)
    for k in range(1, size.max()):
        values += (size > k) * (digit.take(stop - 1 - k, mode="clip") * np.int64(10**k))
    return values.reshape(-1, 3), bounds


def _event_records(lines, surface):
    """(line number, object, updates, fault) of each event line, in order.

    A line in the writer's spelling yields its head object and its decoded
    rows with their ``cell_fault`` message ("" when sound); any other line
    yields ``json``'s object and None, None, and is parsed only when reached,
    so that an earlier line's error comes first.
    """
    numbered = enumerate(lines, start=2)
    for group in _groups(numbered, lambda item: item[1].count("[")):
        split = [_split_event(line) for _, line in group]
        decoded = _decode_updates([s[1] for s in split if s])
        if decoded is None:  # keep the lines that decode on their own
            split = [s if s and _decode_updates([s[1]]) else None for s in split]
            decoded = _decode_updates([s[1] for s in split if s])
        rows, bounds = decoded
        k_fault, fault = cell_fault(rows, bounds, surface)
        k = 0
        for (line_number, line), s in zip(group, split):
            if s is None:
                yield line_number, _parse_line(line, line_number), None, None
            else:
                updates = rows[bounds[k]:bounds[k + 1]]
                yield line_number, s[0], updates, fault if k == k_fault else ""
                k += 1


def read_trace(source: BinaryIO) -> TrafficTrace:
    """Inverse of :func:`write_trace`; validates structure on load."""
    header, lines = _read_lines(source)
    try:
        meta = meta_from_dict(header.get("meta"))
    except ValidationError as exc:
        raise TraceParseError(f"bad header meta: {exc}", 1) from None
    duration = meta.trajectory.duration

    events = []
    for line_number, obj, updates, fault in _event_records(lines[1:], meta.surface):
        try:
            t, theta, phi = obj["t"], obj["theta_r"], obj["phi_r"]
            raw = obj["updates"] if updates is None else None
        except KeyError as exc:
            raise TraceParseError(f"event record lacks {exc}", line_number) from None
        if not (is_finite_number(t) and is_finite_number(theta) and is_finite_number(phi)):
            raise TraceParseError(
                f"t, theta_r and phi_r must be finite numbers, got {t!r}, {theta!r}, {phi!r}",
                line_number,
            )
        t = float(t)
        if not 0.0 <= t <= duration:
            raise ValidationError(
                f"line {line_number}: event time {t!r} outside the scenario's [0, {duration!r}]"
            )
        if events and t <= events[-1].t:
            raise ValidationError(
                f"line {line_number}: event times must be strictly increasing "
                f"({t!r} after {events[-1].t!r})"
            )
        if updates is None:  # the json path
            updates = _updates(raw, line_number)
            fault = cell_fault(updates, (0, len(updates)), meta.surface)[1]
        if fault:
            raise ValidationError(f"line {line_number}: {fault}")
        events.append(ReconfigEvent(t, Angles(float(theta), float(phi)), updates))
    return TrafficTrace(meta, tuple(events))
