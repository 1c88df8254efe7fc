"""The reader's numpy path: the rows of an event line's ``updates`` in the spelling
the trace writer gives them, checked from where its values end and decoded with
digit arithmetic in pieces of about 128 KiB, each cut at a row, so that a long
line's temporaries stay in cache.  Values of at most two digits come from
byte-wide passes over a piece, wider ones digit by digit.
"""

from __future__ import annotations

import numpy as np

_MAX_DIGITS = 18  # digits a value may have on the numpy path: 10**18 < 2**63
_RBRACKET, _ZERO = b"]0"
_NULS = bytes(_MAX_DIGITS)
_PIECE = 1 << 17  # bytes of a body decoded at once, so that its temporaries stay in cache
_CUT = len(",[,,],[") + 3 * _MAX_DIGITS  # from within a row, past the next and its "],["


def decode_updates(line: bytes, start: int, end: int) -> np.ndarray | None:
    """The rows of the ``updates`` body ``line[start:end]`` in the writer's spelling, as
    (n, 3) int64; None unless it is ``[]`` or ``[[c,r,s],...]`` with no sign, no leading
    zero, at most _MAX_DIGITS digits a value and nothing else.  Its rows are those
    ``json`` parses.

    A body of more than _PIECE + _CUT bytes is decoded in pieces, so that their
    temporaries stay in cache, into rows counted by its "[", one more than its rows.
    A piece ends at the "]" of the first "],[" past _PIECE bytes, within _CUT in the
    writer's spelling, and the next begins at its ",[".
    """
    if end - start == 2 and line.startswith(b"[]", start):  # no numpy for an empty burst:
        return np.empty((0, 3), np.int64)  # most are empty at a fine angular step
    if not line.startswith(b"[[", start) or line[end - 1] != _RBRACKET:
        return None
    end -= 1  # the list's "]", in whose place _values reads ",[0"
    if end - start <= _PIECE + _CUT:
        values = _values(line, start, end, None)
        return None if values is None else values.reshape(-1, 3)
    rows = line.count(b"[", start, end) - 1
    if 8 * rows > end - start:  # a row takes at least ",[0,0,0]"
        return None
    out, done = np.empty(3 * rows, np.int64), 0
    while start < end:
        stop = end
        if end - start > _PIECE + _CUT:
            stop = line.find(b"],[", start + _PIECE, start + _PIECE + _CUT) + 1
        if not stop or (values := _values(line, start, stop, out[done:])) is None:
            return None
        done, start = done + len(values), stop
    return out.reshape(-1, 3)


def _values(line: bytes, start: int, stop: int, out: np.ndarray | None) -> np.ndarray | None:
    """The values of ``line[start:stop]``, a piece of an ``updates`` body from its "[["
    or a ",[" to a row's "]", written to the head of ``out`` (a new int64 array if None)
    and returned; None unless it is in the writer's spelling.

    Read with ",[0" after it, such a piece is two bytes and then runs of digits, each
    followed by "," "," or "],[" in turn.  So the rule is four checks on where a digit
    precedes another byte, where each value ends: the bytes that are not digits number
    exactly these and the first two; the byte after each end is that ",", "," or "]";
    the two after each "]" are ",["; and no run of two or more digits begins with "0".
    The middle two give each counted byte its place and the count leaves no other, so a
    value begins at byte 2, 2 bytes after the one before ends, or 4 after a "]".
    """
    # NULs before the piece, so that digits[_MAX_DIGITS - k:][ends] is each value's kth
    # digit from the last, for k up to _MAX_DIGITS, with no index arithmetic; the one copy
    raw = np.frombuffer(b"".join([_NULS, memoryview(line)[start:stop], b",[0"]), np.uint8)
    digits = raw - _ZERO  # wraps around for bytes below "0"
    is_digit = digits < 10
    data, digit = raw[_MAX_DIGITS:], digits[_MAX_DIGITS:]
    # each value's last digit
    ends = np.flatnonzero(is_digit[_MAX_DIGITS:-1] > is_digit[_MAX_DIGITS + 1:])
    rows, row_ends = len(ends) // 3, ends[2::3]
    n_digits = np.count_nonzero(is_digit)  # the values' and the last "0"
    if (
        len(data) - n_digits != 5 * rows + 2
        or data[1:][ends].tobytes() != b",,]" * rows
        or data[2:][row_ends].tobytes() != b"," * rows
        or data[3:][row_ends].tobytes() != b"[" * rows
    ):
        return None
    del raw, data  # not held while the values are built
    out = np.empty(len(ends), np.int64) if out is None else out[:len(ends)]
    more = n_digits - 1 - len(ends)  # the digits past each value's first
    if more <= len(ends):  # perhaps none has more than two, as on a grid of 100x100
        # byte-wide, over is_digit's bytes: each digit, plus ten times the one before it
        # where that is a digit
        tens = is_digit.view(np.uint8)[_MAX_DIGITS - 1:-1]
        np.multiply(digits[_MAX_DIGITS - 1:-1], tens, out=tens)
        tens *= 10
        tens += digit
        out[:] = tens[ends]
        if np.count_nonzero(out > 9) == more:  # so none has three digits, or two from a "0"
            return out
        is_digit = digits < 10
    if ((digit[1:-1] == 0) & (is_digit[_MAX_DIGITS + 2:] > is_digit[_MAX_DIGITS:-2])).any():
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
    out[:] = values
    return out
