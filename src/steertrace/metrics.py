"""Workload metrics computed from traffic traces."""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Literal

import numpy as np

from .coding import SurfaceConfig, state_blocks
from .errors import ValidationError
from .gateway import NORMAL_INCIDENCE, ReconfigEvent, TrafficTrace, checked_events
from .geometry import MAX_STEPS, SAMPLE_BLOCK, Angles, Record


class WorkloadReport(Record):
    """Aggregate burst statistics for one trace."""

    __slots__ = ("per_event_changed_fraction", "total_packets", "burst_sizes",
                 "inter_event_times", "spatial_cv")

    def __init__(self, per_event_changed_fraction: tuple[float, ...], total_packets: int,
                 burst_sizes: tuple[int, ...], inter_event_times: tuple[float, ...],
                 spatial_cv: float):
        self._fill(per_event_changed_fraction, total_packets, burst_sizes, inter_event_times,
                   spatial_cv)


def summarize(
    surface: SurfaceConfig, events: Iterable[ReconfigEvent]
) -> tuple[WorkloadReport, np.ndarray]:
    """The workload report and the destination matrix of ``events`` on ``surface``.

    One pass that keeps no event: per event, its size, its time and one
    ``np.add.at`` of its cells into the per-cell packet counts, so memory is
    one count per cell plus two numbers per event.  The events must be valid, or an
    update outside the surface is counted in another cell.  ``iter_events``' are valid
    by construction: the writer checks every one of them.  ``iter_trace`` checks its
    own with ``gateway.checked_events``; pass hand-built events through it too.
    """
    sizes, times = [], []
    counts = np.zeros(surface.n_cells, np.int64)
    for ev in events:
        sizes.append(len(ev.updates))
        times.append(ev.t)
        if sizes[-1]:  # an empty burst has no cell to count; many are, at a fine angular step
            np.add.at(counts, ev.updates[:, 1] * surface.n_cols + ev.updates[:, 0], 1)
        del ev  # so that the next event is read and decoded without this one's rows
    matrix = counts.reshape(surface.n_rows, surface.n_cols) / max(counts.sum(), 1)
    report = WorkloadReport(
        per_event_changed_fraction=tuple(s / surface.n_cells for s in sizes),
        total_packets=sum(sizes),
        burst_sizes=tuple(sizes),
        inter_event_times=tuple(t - prev for prev, t in zip(times, times[1:])),
        spatial_cv=spatial_cv(matrix),
    )
    return report, matrix


def injection_rate(
    trace: TrafficTrace,
    mode: Literal["per_burst", "binned"] = "per_burst",
    bin_width: float | None = None,
) -> list[tuple[float, float]]:
    """Packet injection rate over time, as (t, packets/s) points.

    ``per_burst`` rates each event after the first against the gap to its
    predecessor; ``binned`` counts packets per fixed bin across the scenario
    duration (partial final bin still divided by the full width) and reports
    bin midpoints.
    """
    events = tuple(checked_events(trace.meta, trace.events))
    if mode == "per_burst":
        return [(ev.t, len(ev.updates) / (ev.t - prev.t)) for prev, ev in zip(events, events[1:])]
    if mode != "binned":
        raise ValidationError("mode must be 'per_burst' or 'binned'", key="mode")
    duration = trace.meta.trajectory.duration
    # checked before the bins are allocated
    if bin_width is None or not (0 < bin_width < math.inf and duration / bin_width <= MAX_STEPS):
        raise ValidationError(
            f"bin_width must be finite, > 0 and give <= {MAX_STEPS} bins", key="bin_width"
        )
    n_bins = max(1, math.ceil(duration / bin_width))
    counts = [0] * n_bins
    for ev in events:
        counts[min(int(ev.t / bin_width), n_bins - 1)] += len(ev.updates)
    return [((k + 0.5) * bin_width, c / bin_width) for k, c in enumerate(counts)]


def _changed_cells(before: np.ndarray, after: np.ndarray, n_cells: int) -> int | list[int]:
    """Changed grid cells between two states, or per pair of states stacked on axis 0,
    in ``state_blocks``'s compact form, where a length-1 axis stands for the whole axis."""
    diff = before != after
    lines = n_cells // (diff.shape[-2] * diff.shape[-1])  # full cells per compact cell
    if diff.ndim == 2:  # one pair: count_nonzero is several times faster without an axis
        return np.count_nonzero(diff) * lines
    return (np.count_nonzero(diff, axis=(1, 2)) * lines).tolist()


def sweep_diff(
    start: Angles,
    end: Angles,
    surface: SurfaceConfig,
    incident: Angles = NORMAL_INCIDENCE,
) -> float:
    """Fraction of cells whose state differs between two steering directions."""
    blocks = state_blocks(incident, (start.theta, end.theta), (start.phi, end.phi), surface)
    before, after = itertools.chain.from_iterable(blocks)
    return _changed_cells(before, after, surface.n_cells) / surface.n_cells


def _grid_steps(step: float) -> Iterator[tuple[float, float]]:
    theta = 85.0
    while theta - step >= -1e-9:
        nxt = theta - step
        yield theta, max(nxt, 0.0)
        theta = nxt


def sweep_grid(
    step: float,
    from_phi: float,
    to_phi: float,
    surface: SurfaceConfig,
    incident: Angles = NORMAL_INCIDENCE,
) -> Iterator[tuple[float, float, float]]:
    """Yield (from_theta, to_theta, fraction) for each step from theta 85 down to 0.

    Each step is ``sweep_diff`` from (theta, ``from_phi``) to
    (max(theta - step, 0), ``to_phi``).  Each distinct direction is coded
    once, in ``state_blocks``'s blocks over ``SAMPLE_BLOCK`` directions at a
    time, and a block's steps are counted at once.  When the phis are equal, a
    step's end direction is the next step's start (only the last end can be
    clamped), so the coded states form one chain; otherwise they alternate
    start, end.  A ``step`` outside (0, 85], or of more than MAX_STEPS steps, raises
    ValidationError (key ``grid``) before any direction is coded.
    """
    if not (0 < step <= 85.0 and 85.0 / step <= MAX_STEPS):  # two codings a step
        raise ValidationError(f"grid step {step!r} must be in (0, 85], <={MAX_STEPS} steps", "grid")
    ahead, steps = itertools.tee(_grid_steps(step))
    if from_phi == to_phi:
        stride, phis = 1, [from_phi]
        thetas = itertools.chain([85.0], (end for _, end in ahead))
    else:
        stride, phis = 2, [from_phi, to_phi]
        thetas = itertools.chain.from_iterable(ahead)
    # lists of SAMPLE_BLOCK thetas, which is even, so that each starts with a from_phi one
    chunks = iter(lambda: list(itertools.islice(thetas, SAMPLE_BLOCK)), [])
    blocks = itertools.chain.from_iterable(
        state_blocks(incident, chunk, phis * (len(chunk) // stride), surface) for chunk in chunks
    )
    coded, last = 0, None  # states coded so far, and the last of them
    for block in blocks:
        # a step starts at every stride-th state: the block's first such state is at a,
        # and the step before it may start at the previous block's last state
        a, changed = -coded % stride, []
        if coded and (coded - 1) % stride == 0:
            changed.append(_changed_cells(last, block[0], surface.n_cells))
        if len(block) > a + 1:
            changed += _changed_cells(block[a:-1:stride], block[a + 1 :: stride], surface.n_cells)
        for count, (theta, end) in zip(changed, steps):
            yield theta, end, count / surface.n_cells
        coded, last = coded + len(block), block[-1]


def spatial_cv(ratios: np.ndarray) -> float:
    """Population coefficient of variation of a destination matrix; 0 when empty."""
    ratios = np.asarray(ratios, dtype=float)
    mean = ratios.mean()
    if mean == 0:
        return 0.0
    return float(ratios.std() / mean)

