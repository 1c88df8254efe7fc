"""Trace I/O code kept as reference oracles; steertrace itself no longer runs it.

``export_heatmap_csv`` is the CSV branch of ``export_heatmap`` as it stood
before each distinct value was formatted once: ``format_number`` on every
entry.  ``cell_fault`` is ``_cell_fault`` as it stood before the writer's
row-major order skipped the sort: it sorts every event's cell keys.  The
library must give the same bytes and the same ``(event, message)``.
"""

from __future__ import annotations

from typing import BinaryIO

import numpy as np

from steertrace.trace_io import _CountingSink, format_number


def export_heatmap_csv(matrix: np.ndarray, dest: BinaryIO):
    m = np.asarray(matrix, dtype=float)
    sink = _CountingSink(dest)
    for row in m:
        sink.write_line(",".join(format_number(v) for v in row))


def cell_fault(rows: np.ndarray, bounds, surface) -> tuple[int, str]:
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
