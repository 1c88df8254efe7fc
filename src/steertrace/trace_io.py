"""Plain-text persistence for traces, workload reports, and heat maps.

Trace files are UTF-8, one JSON object per line; lines end at LF and
nowhere else.  Line 1 is the header, of exactly these keys::

    {"format_version": 1, "created": "...", "meta": {...}}

with a string ``created``, and every following line is one reconfiguration
event, of exactly these keys::

    {"t": ..., "theta_r": ..., "phi_r": ..., "updates": [[col, row, state], ...]}

with ``t`` in ``[0, meta.scenario.duration]``.  The writer spells every line
as ``json.dumps`` does with ``separators=(",", ":")``; the reader accepts any
JSON spelling under the same rules.  The writer codes each event's
``updates`` from word tables built once per trace, one for each of col, row
and state, each entry a value's token in a NUL-padded machine word.  The
reader checks each line's ``updates`` against the writer's spelling from
where its values end, decodes them with digit arithmetic in numpy, and
leaves a line that is not in that spelling to ``json``.  It streams: it
holds one line at a time, never the whole file.  Both run every event
through :func:`.gateway.checked_events` (time, bounds, no cell twice), the
writer before it writes the event's line and the reader as it reads it, so
the writer writes no event that the reader refuses, and the first bad line
is the one reported.

``meta`` snapshots the surface, gateway, incidence, and scenario in full, so
a trace header alone suffices to regenerate the trace; :mod:`.scenario`, the
schema of the CLI config too, lays it out and parses it.  Floats are rendered
with full round-trip precision and no locale dependence.  ``created``
defaults to the time of SOURCE_DATE_EPOCH (epoch 0 when unset) so identical
scenarios always produce identical bytes.

Heat maps export either as header-less CSV (one line per row) or as plain
PGM (P2, maxval 255, pixels scaled by the matrix maximum).
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from itertools import chain, count
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .errors import TraceParseError, TraceWriteError, ValidationError
from .gateway import ReconfigEvent, TraceMeta, TrafficTrace, checked_events, format_number
from .gateway import over_full
from .geometry import Angles
from .metrics import WorkloadReport
from .scenario import is_finite_number, meta_from_dict, meta_to_dict

FORMAT_VERSION = 1

_PGM_MAX_LINE = 70  # plain-PGM line length limit

_MAX_DIGITS = 18  # digits a value may have on the reader's numpy path: 10**18 < 2**63
_UPDATES_KEY = b',"updates":'
_JSON = json.JSONEncoder(separators=(",", ":"))  # json.dumps's text with these separators
_EVENT_KEYS = ("t", "theta_r", "phi_r", "updates")
_RBRACE, _ZERO = b"}0"
# the longest head of an event line in the writer's spelling, and its "}\n": three floats
# of at most 24 characters, as "-2.2250738585072014e-308" is
_HEAD_BYTES = len(b'{"t":,"theta_r":,"phi_r":,"updates":}\n') + 3 * 24
_TOO_LONG = "too long a line to hold in memory"  # a MemoryError while a line is read or parsed


def default_created() -> str:
    """The UTC time of SOURCE_DATE_EPOCH, or of epoch 0 when it is unset, as a stamp.

    A set value must be ASCII digits whose time falls within year 9999;
    any other raises ValidationError.
    """
    raw = os.environ.get("SOURCE_DATE_EPOCH", "0")
    try:
        if not (raw.isascii() and raw.isdigit()):
            raise ValueError
        stamp = datetime.fromtimestamp(int(raw), timezone.utc)
    except (ValueError, OverflowError, OSError):  # OSError: past the platform's time_t
        raise ValidationError(
            f"SOURCE_DATE_EPOCH must be a non-negative integer of seconds up to year 9999, "
            f"got {raw[:40]!r}", key="SOURCE_DATE_EPOCH",
        ) from None
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


class _CountingSink:
    """Tracks bytes written so failures can report the offending offset."""

    def __init__(self, dest: BinaryIO):
        self._dest = dest
        self.offset = 0

    def write_line(self, text: str):
        self.write(text.encode() + b"\n")

    def write(self, data: bytes):
        try:
            self._dest.write(data)
        except OSError as exc:
            raise TraceWriteError(
                f"write failed at byte offset {self.offset}: {exc}", self.offset
            ) from exc
        self.offset += len(data)


def _start(dest: BinaryIO, created: str | None, **header) -> _CountingSink:
    """A sink on ``dest`` that has written the header line: version, stamp, ``header``."""
    sink = _CountingSink(dest)
    created = created if created is not None else default_created()
    sink.write_line(_JSON.encode({"format_version": FORMAT_VERSION, "created": created, **header}))
    return sink


def _token_table(n: int, after: bytes) -> np.ndarray:
    """``str(v).encode() + after`` of each v in 0 .. n-1 as (n,) unsigned words of 2, 4 or
    8 bytes, right-aligned after NULs, with NULs in place of the digits above v's."""
    digits = len(str(n - 1))
    width = 1 << (digits + len(after) - 1).bit_length()  # the next power of 2
    table = np.tile(np.frombuffer(after.rjust(width, b"\0"), np.uint8), (n, 1))
    for k in range(digits):  # the 10**k digit, NUL in values below 10**k (k > 0)
        lead = 10**k if k else 0
        digit = np.repeat(np.frombuffer(b"0123456789", np.uint8), 10**k)
        table[lead:, width - len(after) - 1 - k] = np.resize(digit, n)[lead:]
    return table.view(f"u{width}").ravel()


def write_trace(trace: TrafficTrace, dest: BinaryIO, created: str | None = None):
    """Serialize a trace: :func:`write_events` of its scenario and events."""
    write_events(trace.meta, trace.events, dest, created)


def write_events(
    meta: TraceMeta, events: Iterable[ReconfigEvent], dest: BinaryIO, created: str | None = None
) -> tuple[int, int]:
    """Serialize ``meta`` and ``events``, each event's line written as ``events`` yields
    it; see the module docstring for the format.  Returns the number of events and of
    packets written.

    An event that :func:`.gateway.checked_events` refuses, as the reader
    would, raises its ValidationError before any byte of its line is written.
    """
    surface = meta.surface
    # a row codes as "col," "row," "state],[" from these tables, NULs dropped; under the
    # schema's limits the largest tokens, "999999," and "65535],[", fit in 8 bytes
    tables = [
        _token_table(surface.n_cols, b","),
        _token_table(surface.n_rows, b","),
        _token_table(surface.n_states, b"],["),
    ]
    record = np.dtype([("", table.dtype) for table in tables])  # fields f0, f1 and f2
    sink = _start(dest, created, meta=meta_to_dict(meta))
    n_events = n_packets = 0
    for ev in checked_events(meta, events):
        rows = ev.updates
        opening, kept = b"[", b""  # "[]" for an event of no rows, which costs no numpy work
        if len(rows):
            words = bytearray(len(rows) * record.itemsize)
            coded = np.frombuffer(words, record)
            for name, table, column in zip(record.names, tables, rows.T):
                coded[name] = table[column]
            # "[[" + the rows but the last one's ",[" + "]"
            opening, kept = b"[[", memoryview(words.translate(None, b"\0"))[:-2]
        head = _JSON.encode({"t": ev.t, "theta_r": ev.reflected.theta, "phi_r": ev.reflected.phi})
        sink.write(b"".join([head[:-1].encode(), _UPDATES_KEY, opening, kept, b"]}\n"]))
        n_events += 1
        n_packets += len(rows)
    return n_events, n_packets


def _parse_line(line: bytes, line_number: int) -> dict:
    """The JSON object on ``line``, decoded as strict UTF-8 and parsed without its LF."""
    try:
        text = line.decode("utf-8")
        obj = json.loads(text[:-1] if text.endswith("\n") else text)
    except UnicodeDecodeError as exc:
        raise TraceParseError(f"not UTF-8: {exc}", line_number) from None
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"invalid JSON: {exc.msg}", line_number) from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, or nesting too deep
        raise TraceParseError(f"invalid JSON: {exc}", line_number) from None
    except MemoryError:
        raise TraceParseError(_TOO_LONG, line_number) from None
    if not isinstance(obj, dict):
        raise TraceParseError("expected a JSON object", line_number)
    return obj


def _exact_keys(obj: dict, keys: tuple[str, ...], what: str, line_number: int):
    """Reject an ``obj`` that lacks one of ``keys`` (the first, in their order) or has another."""
    for key in keys:
        if key not in obj:
            raise TraceParseError(f"{what} lacks {key!r}", line_number)
    for key in obj:
        if key not in keys:
            raise TraceParseError(f"{what} has unknown key {key!r}", line_number)


def _header(source: BinaryIO, key: str) -> dict:
    """The version-checked header on the first line of ``source``: exactly
    ``format_version``, a string ``created`` and ``key``."""
    try:
        line = source.readline()
    except MemoryError:
        raise TraceParseError(_TOO_LONG, 1) from None
    if not line:
        raise TraceParseError("empty file, header missing", 1)
    header = _parse_line(line, 1)
    version = header.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported format_version {version!r} (expected {FORMAT_VERSION})",
            key="format_version",
        )
    _exact_keys(header, ("format_version", "created", key), "header", 1)
    if type(header["created"]) is not str:
        raise TraceParseError(f"created must be a string, got {header['created']!r}", 1)
    return header


def _split_event(line: bytes) -> tuple[dict, memoryview] | None:
    """The head object and a view of the ``updates`` bytes of an event line that, like
    the writer's, ends in ``,"updates":...}`` after an object of exactly the keys
    ``t``, ``theta_r`` and ``phi_r``; None for any other line."""
    end = len(line) - 1 - line.endswith(b"\n")  # where the closing brace must be
    cut = line.find(_UPDATES_KEY, 0, end)  # the key has no other place in such a line
    if cut < 0 or line[end] != _RBRACE:
        return None
    try:
        head = json.loads(line[:cut].decode("utf-8") + "}")
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        return None
    if type(head) is not dict or head.keys() != {"t", "theta_r", "phi_r"}:
        return None
    return head, memoryview(line)[cut + len(_UPDATES_KEY):end]


def _decode_updates(body: bytes | memoryview) -> np.ndarray | None:
    """The rows of an ``updates`` body in the writer's spelling, as (n, 3) int64; None
    unless it is ``[]`` or ``[[c,r,s],...]`` with no sign, no leading zero, at most
    _MAX_DIGITS digits a value and nothing else.  Its rows are those ``json`` parses.

    Read with its last "]" as ",[0", such a body is "[[" and then runs of digits, each
    followed by "," "," or "],[" in turn.  So the rule is four checks on where a digit
    precedes another byte, where each value ends: the byte after each end is that ",",
    "," or "]"; the two after each "]" are ",["; the bytes that are not digits number
    exactly these and the first "[["; and no run of two or more digits begins with "0".
    The first two give each counted byte its place and the count leaves no other, so a
    value begins at byte 2, 2 bytes after the one before ends, or 4 after a "]".
    """
    if body == b"[]":  # no numpy for an empty burst: most are empty at a fine angular step
        return np.empty((0, 3), np.int64)
    if body[:2] != b"[[" or body[-1:] != b"]":
        return None
    # NULs before the body, so that digits[_MAX_DIGITS - k:][ends] is each value's kth
    # digit from the last, for k up to _MAX_DIGITS, with no index arithmetic; the one copy
    raw = np.frombuffer(b"".join([bytes(_MAX_DIGITS), body[:-1], b",[0"]), np.uint8)
    digits = raw - _ZERO  # wraps around for bytes below "0"
    data, digit = raw[_MAX_DIGITS:], digits[_MAX_DIGITS:]
    is_digit = digit < 10
    ends = np.flatnonzero(is_digit[:-1] > is_digit[1:])  # each value's last digit
    rows, row_ends = len(ends) // 3, ends[2::3]
    n_digits = np.count_nonzero(is_digit)  # the values' and the last "0"
    if (
        data[1:][ends].tobytes() != b",,]" * rows
        or data[2:][row_ends].tobytes() != b"," * rows
        or data[3:][row_ends].tobytes() != b"[" * rows
        or len(data) - n_digits != 5 * rows + 2
    ):
        return None
    if n_digits == len(ends) + 1:  # one digit a value, as on a surface of 10x10 or less
        return digit[ends].astype(np.int64).reshape(-1, 3)
    if ((digit[1:-1] == 0) & (is_digit[2:] > is_digit[:-2])).any():
        return None
    # a value's digits: it begins at byte 2, 2 bytes after the previous value ends or 4
    # after a "]"; out= saves a temporary the size of ends
    size = np.empty_like(ends)
    size[0] = ends[0] + 2
    np.subtract(ends[1:], ends[:-1], out=size[1:])
    size[::3] -= 2
    size -= 1
    width = int(size.max())
    if width > _MAX_DIGITS:
        return None
    size = size.astype(np.uint8)
    values = np.zeros(len(ends), np.min_scalar_type(10**width - 1))
    for k in range(width - 1, 0, -1):  # Horner from the top place, 0 above a value's digits
        values += digits[_MAX_DIGITS - k:][ends] * (size > k)
        values *= 10
    values += digit[ends]
    return values.astype(np.int64).reshape(-1, 3)


def _updates(raw, line_number: int) -> np.ndarray:
    """A ``json``-parsed ``updates`` as (n, 3) int64 rows; an error names the bad update."""
    if type(raw) is not list:
        raise TraceParseError(f"updates must be a list, got {raw!r}", line_number)
    try:
        # one C-level pass over the values: np.array below would cast bools and floats
        if not set(map(type, chain.from_iterable(raw))) <= {int}:
            raise TypeError
        return np.array(raw, dtype=np.int64).reshape(len(raw), 3)
    except (TypeError, ValueError, OverflowError):
        for u in raw:
            if not (type(u) is list and len(u) == 3 and all(type(x) is int for x in u)):
                raise TraceParseError(f"update {u!r} is not 3 integers", line_number) from None
        raise TraceParseError("an update integer exceeds 64 bits", line_number) from None


def iter_trace(source: BinaryIO) -> tuple[TraceMeta, Iterator[ReconfigEvent]]:
    """The scenario of a trace file and an iterator over its events.

    The header is read and checked at once.  Event lines are read and
    checked one at a time as the iterator reaches them, so memory is bounded
    by one line, not by the file; every rule of :func:`read_trace` holds, and
    the first bad line raises when reached.
    """
    header = _header(source, "meta")  # a binary file's lines end at LF only
    try:
        meta = meta_from_dict(header["meta"])
    except ValidationError as exc:
        raise TraceParseError(f"bad header meta: {exc}", 1) from None
    return meta, checked_events(meta, _events(source, meta.surface))


def _long_line(source: BinaryIO, line: bytes, limit: int, surface, line_number: int) -> bytes:
    """``line``, the first ``limit`` bytes of a longer line, and the rest of that line, read
    ``limit`` bytes at a time; refused as soon as its pieces hold more "[" than a list of
    one row a cell: more rows than cells, or "[" where a legal line has none."""
    pieces, brackets = [], 0
    while True:
        pieces.append(line)
        brackets += line.count(b"[")
        if brackets > surface.n_cells + 1:
            raise ValidationError(f"line {line_number}: {over_full(surface)}", "updates")
        if len(line) < limit or line.endswith(b"\n"):
            return b"".join(pieces)
        line = source.readline(limit)


def _events(source: BinaryIO, surface) -> Iterator[ReconfigEvent]:
    """The events of the lines after the header, each line read at once up to the length
    of the longest event line in the writer's spelling: a head and a row for every cell,
    each row at most the grid's longest "[c,r,s],", and "[]"; a longer one by
    ``_long_line``."""
    token = len(f"[{surface.n_cols - 1},{surface.n_rows - 1},{surface.n_states - 1}],")
    limit = _HEAD_BYTES + surface.n_cells * token + 2
    for line_number in count(2):
        try:  # the numpy path's arrays are several times the line
            line = source.readline(limit)
            if len(line) == limit and not line.endswith(b"\n"):
                line = _long_line(source, line, limit, surface, line_number)
            if not line:
                return
            split = _split_event(line)
            updates = split and _decode_updates(split[1])
        except MemoryError:
            raise TraceParseError(_TOO_LONG, line_number) from None
        if updates is None:  # the json path; the writer's spelling has the keys
            obj = _parse_line(line, line_number)
            _exact_keys(obj, _EVENT_KEYS, "event record", line_number)
        else:
            obj = split[0]
        t, theta, phi = obj["t"], obj["theta_r"], obj["phi_r"]
        if not (is_finite_number(t) and is_finite_number(theta) and is_finite_number(phi)):
            raise TraceParseError(
                f"t, theta_r and phi_r must be finite numbers, got {t!r}, {theta!r}, {phi!r}",
                line_number,
            )
        if updates is None:
            updates = _updates(obj["updates"], line_number)
        updates.flags.writeable = False  # fresh rows, which the event then takes without a copy
        yield ReconfigEvent(float(t), Angles(float(theta), float(phi)), updates)


def read_trace(source: BinaryIO) -> TrafficTrace:
    """Inverse of :func:`write_trace`; validates structure on load.

    Lines are split at LF only.  The header holds exactly ``format_version``,
    a string ``created`` and ``meta``; an event line exactly ``t``,
    ``theta_r``, ``phi_r`` and ``updates``.  The first bad line, whatever is
    wrong with it, raises with its number.
    """
    meta, events = iter_trace(source)
    return TrafficTrace(meta, tuple(events))


def write_report(report: WorkloadReport, dest: BinaryIO, created: str | None = None):
    """Write a workload report in the same line-delimited object format."""
    sink = _start(dest, created, kind="workload_report")
    sink.write_line(_JSON.encode({
        "total_packets": report.total_packets,
        "spatial_cv": report.spatial_cv,
        "per_event_changed_fraction": report.per_event_changed_fraction,  # tuples: arrays
        "burst_sizes": report.burst_sizes,
        "inter_event_times": report.inter_event_times,
    }))


def read_report(source: BinaryIO) -> WorkloadReport:
    """Inverse of :func:`write_report`: exactly a header and a body line, each value of
    the body fitting its WorkloadReport field's type."""
    header = _header(source, "kind")
    if header["kind"] != "workload_report":
        raise TraceParseError(f"kind must be 'workload_report', got {header['kind']!r}", 1)
    line = source.readline()
    if not line:
        raise TraceParseError("report body missing", 2)
    body = _parse_line(line, 2)
    values = {}
    for name in WorkloadReport.__slots__:
        value, many = body.get(name), name not in ("total_packets", "spatial_cv")
        kind = int if name in ("total_packets", "burst_sizes") else float
        items = value if many and type(value) is list else [value]
        valid = (type(x) is int if kind is int else is_finite_number(x) for x in items)
        if many != (type(value) is list) or not all(valid):
            raise TraceParseError(f"bad report body: {name} is {value!r}", 2)
        values[name] = tuple(map(kind, items)) if many else kind(value)
    _exact_keys(body, WorkloadReport.__slots__, "report body", 2)
    if source.readline(1):  # one byte of a third line tells of it
        raise TraceParseError("a report has two lines, a header and a body", 3)
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
    if not m.size:
        raise ValidationError(f"heat-map matrix of shape {m.shape} has no entries", key="matrix")
    if not np.all(np.isfinite(m)) or np.any(m < 0):
        raise ValidationError("heat-map entries must be finite and >= 0", key="matrix")
    sink = _CountingSink(dest)
    if fmt == "csv":
        # An entry is count / total, so a heat map holds few distinct values: each is
        # formatted once.  Bit patterns keep -0.0 apart from 0.0.
        keys, index = np.unique(np.ascontiguousarray(m).view(np.int64), return_inverse=True)
        words = [format_number(v) for v in keys.view(float)]
        for row in index.reshape(m.shape).tolist():
            sink.write_line(",".join([words[i] for i in row]))
    elif fmt == "pgm":
        pixels = np.rint(255.0 * m / (m.max() or 1.0)).astype(int)  # max 0: all entries are 0
        sink.write_line(f"P2\n{m.shape[1]} {m.shape[0]}\n255")
        for row in pixels.tolist():
            line = " ".join(map(str, row))
            while len(line) > _PGM_MAX_LINE:  # break at the last space that fits
                cut = line.rindex(" ", 0, _PGM_MAX_LINE + 1)
                sink.write_line(line[:cut])
                line = line[cut + 1:]
            sink.write_line(line)
    else:
        raise ValidationError(f"unknown heat-map format {fmt!r}", key="format")

