"""A fixed reference pass that measures how fast the host is right now.

The benchmark runs on shared hosts whose speed drifts by up to 1.7x, over
seconds as well as over tens of minutes, with no CPU steal to show for it:
the command and any other code slow down together.  So every timed command
is bracketed by two reference passes, and its time is scaled to a host on
which one pass takes ``REFERENCE_S``:

    scaled = seconds * REFERENCE_S / mean(pass before, pass after)

A slower program still reads slower, by the same factor, because the pass
never changes; a slower host does not.  The pass mixes the kinds of work
steertrace does: small-object churn with JSON encode and decode (trace
files), numpy element-wise work and ``argwhere`` (diffing and coding), and
string formatting with dict building (reports and heat maps).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

REFERENCE_S = 0.06  # about one pass on a 2-vCPU 2.1 GHz Xeon VM, Python 3.11


@dataclass(frozen=True)
class _Cell:
    row: int
    col: int
    state: int


def _objects_and_json():
    cells = [_Cell(i % 97, i % 89, i % 5) for i in range(16_000)]
    records = [
        json.dumps(
            {"t": k * 0.01, "u": [[c.row, c.col, c.state] for c in cells[k * 400 : (k + 1) * 400]]},
            separators=(",", ":"),
        )
        for k in range(40)
    ]
    return [json.loads(r) for r in records]


def _arrays():
    import numpy as np  # not at import time: the runner pins numpy's threads first

    values = np.random.default_rng(0).random(100_000)
    for _ in range(8):
        scaled = np.sin(values) * values
        np.argwhere(scaled > 0.5)
        np.diff(values)


def _strings():
    lines = [f"{i},{i * 3 % 7},{i / 3:.3f}" for i in range(12_000)]
    return {line: len(line) for line in lines}


def reference_pass() -> float:
    """Seconds that one fixed pass of mixed work takes on this host now."""
    start = time.perf_counter()
    _objects_and_json()
    _arrays()
    _strings()
    return time.perf_counter() - start
