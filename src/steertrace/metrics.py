"""Workload metrics computed from traffic traces."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Literal

import numpy as np

from .coding import SurfaceConfig, state_matrix
from .errors import ValidationError
from .gateway import NORMAL_INCIDENCE, TrafficTrace
from .geometry import MAX_SAMPLES, Angles


@dataclass(frozen=True)
class WorkloadReport:
    """Aggregate burst statistics for one trace."""

    per_event_changed_fraction: tuple[float, ...]
    total_packets: int
    burst_sizes: tuple[int, ...]
    inter_event_times: tuple[float, ...]
    spatial_cv: float


def destination_matrix(trace: TrafficTrace) -> np.ndarray:
    """Per-cell share of all packets, shape (n_rows, n_cols); zero if no packets."""
    surface = trace.meta.surface
    updates = np.concatenate([np.empty((0, 3), np.int64), *(ev.updates for ev in trace.events)])
    cells = np.bincount(updates[:, 1] * surface.n_cols + updates[:, 0], minlength=surface.n_cells)
    return cells.reshape(surface.n_rows, surface.n_cols) / max(cells.sum(), 1)


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
    if mode == "per_burst":
        return [
            (ev.t, len(ev.updates) / (ev.t - prev.t))
            for prev, ev in zip(trace.events, trace.events[1:])
        ]
    if mode != "binned":
        raise ValidationError("mode must be 'per_burst' or 'binned'", key="mode")
    duration = trace.meta.trajectory.duration
    # checked before the bins are allocated
    if bin_width is None or not (0 < bin_width < math.inf and duration / bin_width <= MAX_SAMPLES):
        raise ValidationError(
            f"bin_width must be finite, > 0 and give <= {MAX_SAMPLES} bins", key="bin_width"
        )
    n_bins = max(1, math.ceil(duration / bin_width))
    counts = [0] * n_bins
    for ev in trace.events:
        if not 0.0 <= ev.t <= duration:
            raise ValidationError(f"event t={ev.t!r} outside [0, {duration!r}]", key="t")
        counts[min(int(ev.t / bin_width), n_bins - 1)] += len(ev.updates)
    return [((k + 0.5) * bin_width, c / bin_width) for k, c in enumerate(counts)]


def sweep_diff(
    start: Angles,
    end: Angles,
    surface: SurfaceConfig,
    incident: Angles = NORMAL_INCIDENCE,
) -> float:
    """Fraction of cells whose state differs between two steering directions."""
    before = state_matrix(incident, start, surface)
    after = state_matrix(incident, end, surface)
    return float(np.count_nonzero(before != after)) / before.size


def sweep_grid(
    step: float,
    from_phi: float,
    to_phi: float,
    surface: SurfaceConfig,
    incident: Angles = NORMAL_INCIDENCE,
) -> Iterator[tuple[float, float, float]]:
    """Yield (from_theta, to_theta, fraction) for each step from theta 85 down to 0.

    Each step is ``sweep_diff`` from (theta, ``from_phi``) to
    (max(theta - step, 0), ``to_phi``).  When the phis are equal, a step's
    end direction is the next step's start, so its matrix is carried forward
    and each distinct direction is coded once.
    """
    theta, before = 85.0, None
    while theta - step >= -1e-9:
        nxt = theta - step
        end = max(nxt, 0.0)
        if before is None:
            before = state_matrix(incident, Angles(theta, from_phi), surface)
        after = state_matrix(incident, Angles(end, to_phi), surface)
        yield theta, end, float(np.count_nonzero(before != after)) / before.size
        # the next start is (nxt, from_phi): the same direction only if nothing was clamped
        before = after if from_phi == to_phi and end == nxt else None
        theta = nxt


def spatial_cv(ratios: np.ndarray) -> float:
    """Population coefficient of variation of a destination matrix; 0 when empty."""
    ratios = np.asarray(ratios, dtype=float)
    mean = ratios.mean()
    if mean == 0:
        return 0.0
    return float(ratios.std() / mean)


def burst_stats(trace: TrafficTrace, *, matrix: np.ndarray | None = None) -> WorkloadReport:
    """Per-event sizes and fractions, inter-event gaps, totals, spatial CV.

    ``matrix``, if given, is ``destination_matrix(trace)``, already computed.
    """
    sizes = [len(ev.updates) for ev in trace.events]
    n_cells = trace.meta.surface.n_cells
    gaps = [ev.t - prev.t for prev, ev in zip(trace.events, trace.events[1:])]
    return WorkloadReport(
        per_event_changed_fraction=tuple(s / n_cells for s in sizes),
        total_packets=sum(sizes),
        burst_sizes=tuple(sizes),
        inter_event_times=tuple(gaps),
        spatial_cv=spatial_cv(destination_matrix(trace) if matrix is None else matrix),
    )
