"""Gateway emulation: drift detection, state-matrix diffs, the event stream.

The gateway watches the sampled reflection angles and reconfigures the
surface whenever either angle has drifted by the angular step.  Each
reconfiguration sends one packet per state-changing cell; the resulting
burst sequence is the traffic trace.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator

import numpy as np

from .coding import SurfaceConfig, gradient_blocks, gradients
from .errors import ValidationError
from .geometry import (
    MAX_STEPS, RAD_TO_DEG, Angles, AngleStream, Case, Record, Trajectory, _require, _set,
    angle_stream, signed_circular_delta_deg
)

# Absorbs float round-off when a sample lands exactly on a threshold.
ANGLE_EPS_DEG = 1e-9
# Degrees short of a threshold at which a search already stops, so that it passes
# no crossing of the scalar angles: the radius bounds by ``tan``, a squared radius
# against ``hypot`` and case C's x by numpy's ``tan`` each move an angle by about
# 3e-14 deg at most, and a case-B search passes only over samples within about
# 1e-8 deg of the far ones it read (``_searched_entries``; a launch steeper than
# about 89.9994 deg widens the band), so 1e-7 leaves a margin.
BAND = 1e-7

NORMAL_INCIDENCE = Angles(0.0, 0.0)


def format_number(value: float) -> str:
    """Shortest decimal form that round-trips; integral floats drop the '.0'."""
    s = repr(float(value))
    return s[:-2] if s.endswith(".0") else s


class GatewayConfig(Record):
    """The drift (degrees) that triggers a reconfiguration, and the sampling period (s)."""

    __slots__ = ("angular_step", "sample_dt")

    def __init__(self, angular_step: float = 5.0, sample_dt: float = 1e-3):
        _require(angular_step > 0, "angular_step must be > 0", "angular_step")
        _require(sample_dt > 0, "sample_dt must be > 0", "sample_dt")
        self._fill(angular_step, sample_dt)


class ReconfigEvent(Record):
    """One gateway burst: trigger time, target direction, a (col, row, new state) row per packet.

    ``updates`` is (n, 3) int64, read-only; built from integers only, never cast; a copy
    of the given array unless that is already a read-only int64 (n, 3) array.
    """

    __slots__ = ("t", "reflected", "updates")

    def __init__(self, t: float, reflected: Angles, updates: np.ndarray):
        for key, v in (("t", t), ("theta", reflected.theta), ("phi", reflected.phi)):
            if not math.isfinite(v):
                raise ValidationError(f"{key}={v!r} must be finite", key)
        _set(self, "t", t)
        _set(self, "reflected", reflected)
        _set(self, "updates", updates)
        read_only = type(updates) is np.ndarray and not updates.flags.writeable
        if read_only and updates.dtype == np.int64 and updates.shape[1:] == (3,):
            return  # read-only rows, as the gateway and the reader build them: no copy
        try:
            u = np.asarray(updates)
            if u.shape == (0,):  # an empty sequence
                u = u.astype(np.int64).reshape(0, 3)
            if not (u.dtype.kind in "iu" and np.can_cast(u.dtype, np.int64) and u.shape[1:] == (3,)):
                raise ValueError(f"got {u.dtype} of shape {u.shape}")
        except ValueError as exc:  # a ragged sequence too
            raise ValidationError(f"updates must be (n, 3) integers: {exc}", "updates") from None
        u = u.astype(np.int64)  # a copy, so that the caller cannot write the event's rows
        u.flags.writeable = False
        _set(self, "updates", u)

    def __eq__(self, other):
        if not isinstance(other, ReconfigEvent):
            return NotImplemented
        same_updates = np.array_equal(self.updates, other.updates)
        return self.t == other.t and self.reflected == other.reflected and same_updates


def outside_surface(rows: np.ndarray, surface: SurfaceConfig) -> str:
    """What is wrong with the first of (col, row, state) ``rows`` outside the surface's
    grid or states; "" if none is."""
    limits = np.array([surface.n_cols, surface.n_rows, surface.n_states], np.uint64)
    wide = rows.view(np.uint64)  # a negative value wraps above every limit
    # From about 700 rows, a max per column costs less than the compare that finds the row
    if len(rows) > 1024 and all(wide[:, c].max() < limits[c] for c in range(3)):
        return ""
    bad = wide >= limits
    if not bad.any():
        return ""
    k = int(bad.argmax()) // 3
    return (
        f"update {rows[k].tolist()} outside the {surface.n_cols}x{surface.n_rows} "
        f"grid or the states [0, {surface.n_states})"
    )


def over_full(surface: SurfaceConfig) -> str:
    """The fault of an event of more updates than ``surface`` has cells."""
    grid = f"{surface.n_cols}x{surface.n_rows}"
    return f"more updates than the {surface.n_cells} cells of the {grid} grid"


def event_time_fault(t: float, last: float, duration: float) -> str:
    """What is wrong with an event time ``t`` after one at ``last`` (-inf for the first
    event) in a scenario of ``duration``; "" if nothing is."""
    if not 0.0 <= t <= duration:
        return f"event time {t!r} outside the scenario's [0, {duration!r}]"
    if not t > last:
        return f"event times must be strictly increasing ({t!r} after {last!r})"
    return ""


class TraceMeta(Record):
    """Everything needed to re-run the scenario that produced a trace."""

    __slots__ = ("surface", "gateway", "incident", "trajectory")

    def __init__(self, surface: SurfaceConfig, gateway: GatewayConfig, incident: Angles,
                 trajectory: Trajectory):
        if not 0.0 <= incident.theta < 90.0:
            raise ValidationError(f"theta={incident.theta!r} must lie in [0, 90)", "theta")
        duration = trajectory.duration
        if duration / gateway.sample_dt > MAX_STEPS:
            # the duration is behind the count if the default period gives as many samples
            key = "duration" if duration / GatewayConfig().sample_dt > MAX_STEPS else "sample_dt"
            raise ValidationError(f"{key} gives over {MAX_STEPS} samples", key=key)
        self._fill(surface, gateway, incident, trajectory)


class TrafficTrace(Record):
    __slots__ = ("meta", "events")

    def __init__(self, meta: TraceMeta, events: tuple[ReconfigEvent, ...]):
        self._fill(meta, events)

    @property
    def total_packets(self) -> int:
        return sum(len(ev.updates) for ev in self.events)


def checked_events(meta: TraceMeta, events: Iterable[ReconfigEvent]) -> Iterator[ReconfigEvent]:
    """``events``, each yielded once it is checked: no more updates than the surface's
    cells, before anything else, as the reader refuses a long line of more; its time in
    [0, duration] and after the previous event's; its updates inside the surface's grid
    and states, no cell twice.

    The first bad event raises ValidationError, key ``t`` for its time and ``updates``
    for its cells, naming the line that a trace file gives it (event k, from 0, on line
    k + 2), so that the writer, the reader and the metrics refuse it in the same words.
    """
    surface, duration, last = meta.surface, meta.trajectory.duration, -math.inf
    n_cells = surface.n_cells
    for line, ev in enumerate(events, start=2):
        if len(ev.updates) > n_cells:
            raise ValidationError(f"line {line}: {over_full(surface)}", "updates")
        fault = event_time_fault(ev.t, last, duration)
        if fault:
            raise ValidationError(f"line {line}: {fault}", "t")
        rows = ev.updates
        fault = len(rows) and outside_surface(rows, surface)  # an empty burst has no cell
        if not fault and len(rows) > 1:
            cells = rows[:, 1] * surface.n_cols
            cells += rows[:, 0]
            # Row-major rows, as the gateway and the writer give them, have increasing
            # cell keys and so no repeat; only another order needs the sort.
            if not (cells[1:] > cells[:-1]).all():
                cells.sort()
                repeated = cells[1:][cells[1:] == cells[:-1]]
                if repeated.size:
                    r, c = divmod(int(repeated[0]), surface.n_cols)
                    fault = f"duplicate update for cell ({c}, {r})"
            del cells  # not held while the caller takes the event and the next one is built
        if fault:
            raise ValidationError(f"line {line}: {fault}", "updates")
        last = ev.t
        yield ev


def detect_events(stream: AngleStream, angular_step: float) -> list[tuple[float, Angles]]:
    """Pick the samples at which the gateway reconfigures.

    The first sample is always picked (initial configuration).  After that a
    sample is picked whenever its theta, or its phi measured circularly, sits
    at least ``angular_step`` away from the running reference of that angle.
    At each pick the crossed angle's reference advances by a whole number of
    steps, so a motion entering on a step multiple keeps firing on the
    nominal grid instead of accumulating per-sample slack, while the other
    angle re-anchors to the picked sample; the picked angles themselves are
    always the raw samples at each crossing.

    Per reference the scan turns the thresholds, ``BAND`` short, into bounds on
    the radius and phi, skips to the next entry near them and decides that entry
    on its exact angles, so the picks are those of a sample-by-sample scan of the
    scalar path.  Cases A and B are searched along their path, one of its
    ``pieces()`` at a time: the samples of a piece that are far from the bounds
    are one interval, up to rounding that ``_searched_entries`` shows harmless, so
    the next near sample is the one at hand or the first after that interval, found
    by galloping and bisecting.
    Case C is read a block of leap runs at a time, each block's x scanned for the
    next near entry.  The rest of an entry's run has its angles, so after a pick
    only the run's next sample can fire, and after a sample that does not fire none
    of the run can.  The stream's ``pieces``, ``time``, ``motion``, ``blocks`` and
    ``exact`` are as ``AngleStream``'s; each entry's time must exceed the last's.
    """
    if not angular_step > 0:
        raise ValidationError("angular_step must be > 0", key="angular_step")
    a = angular_step
    leaps = isinstance(stream, AngleStream) and stream.trajectory.case_id is Case.C
    entries = (_block_entries if leaps else _searched_entries)(stream, a)
    head, end, leap = next(entries, (None,) * 3)
    if head is None:
        raise ValidationError("stream must not be empty", key="stream")
    picked = [stream.exact(head, leap)]
    t, ang = picked[0]
    theta_ref, phi_ref = ang.theta, ang.phi
    r = 1  # decide sample r of the run of ``end`` samples from ``head``
    while True:
        if r == end:
            try:
                head, end, leap = entries.send((theta_ref, phi_ref))
            except StopIteration:
                return picked
            r = 0
            t_last, (t, ang) = t, stream.exact(head, leap)
            if not t > t_last:
                raise ValidationError("stream times must be strictly increasing", key="stream")
        d_theta, d_phi = abs(ang.theta - theta_ref), signed_circular_delta_deg(ang.phi, phi_ref)
        hit_theta = d_theta >= a - ANGLE_EPS_DEG
        hit_phi = abs(d_phi) >= a - ANGLE_EPS_DEG
        if not (hit_theta or hit_phi):
            r = end
            continue
        if r:  # a later sample of the run: the same angles at its own time
            t, ang = stream.exact(head + r, leap)
        picked.append((t, ang))
        r += 1
        # Below ANGLE_EPS_DEG a step fires at every sample, whatever the references, so
        # a step count past float range, which only such a step gives, stops at 1e308.
        if hit_theta:
            steps = math.floor(min((d_theta + ANGLE_EPS_DEG) / a, 1e308))
            theta_ref += math.copysign(steps * a, ang.theta - theta_ref)
        else:
            theta_ref = ang.theta
        if hit_phi:
            steps = math.floor(min((abs(d_phi) + ANGLE_EPS_DEG) / a, 1e308))
            phi_ref = (phi_ref + math.copysign(steps * a, d_phi)) % 360.0
        else:
            phi_ref = ang.phi


def _searched_entries(stream, step: float) -> Iterator[tuple]:
    """The entries of a case-A or B stream for ``detect_events``, one sample each, as
    (sample, 1, None): the first of each of ``stream.pieces()``, then for each
    (theta_ref, phi_ref) sent the next of the piece that ``_far`` does not call far.

    A search passes over samples only between two it found far, inside the bounds.
    Positions lie within w = ``stream.wobble`` of their radius off a monotone path, so
    one passed over lies within 2w (rad, or of the radius) of the inside.  One that
    fires lies ``band`` past a phi bound, or twice that of its radius past a radius
    bound (dr/r = dtheta / (sin * cos)), and band >= 20w, in radians: ``BAND`` up to a
    launch of about 89.9994 deg.  x*x + y*y, ``atan2`` and ``tan`` round within a few
    ulps, so none passed over fires."""
    time, motion, standoff = stream.time, stream.motion, stream.standoff
    on_x_axis = isinstance(stream, AngleStream) and stream.trajectory.case_id is Case.A
    band = max(BAND, 20 * RAD_TO_DEG * stream.wobble)
    i = 0
    for end in stream.pieces():
        while i < end:
            theta_ref, phi_ref = yield i, 1, None
            bounds = _near_bounds(theta_ref, phi_ref, step, standoff, on_x_axis, band)
            i = _next_near_sample(_far(motion, time, bounds), end, i + 1)


def _far(motion, time, bounds):
    """Whether sample k, at ``motion(time(k))``, is far from ``_near_bounds``' ``bounds``:
    inside those on x, or on x*x + y*y and phi by ``math.atan2``."""
    lo, hi, phi_lo, phi_hi = bounds
    if phi_lo is None:
        return lambda k: lo < motion(time(k))[0] < hi

    def far(k):
        x, y = motion(time(k))
        return lo < x * x + y * y < hi and phi_lo < math.atan2(y, x) * RAD_TO_DEG < phi_hi
    return far


def _next_near_sample(far, n, i) -> int:
    """First sample from ``i`` below ``n`` that is not ``far``, else ``n``: ``i`` itself,
    or, where the far samples from ``i`` are one interval, the first after it, found by
    galloping and bisecting."""
    if i < n and far(i):  # the first near sample is at i + 1 or later
        width = 1
        while i + width < n and far(i + width):
            i += width
            width *= 2
        while width := width // 2:  # far(i), and the first near sample is by i + 2 * width
            if i + width < n and far(i + width):
                i += width
        i += 1
    return i


def _block_entries(stream, step: float) -> Iterator[tuple]:
    """Case C's entries for ``detect_events``, from ``stream.blocks()``, as (first sample,
    samples in the run, leap): the first, then for each (theta_ref, phi_ref) sent the
    next that is near by ``_near_bounds``."""
    blocks, standoff = stream.blocks(), stream.standoff
    heads, _, x, _, leaps = next(blocks)
    i = 0
    while True:
        head = heads.item(i)
        theta_ref, phi_ref = yield head, heads.item(i + 1) - head, leaps.item(i)
        bounds = _near_bounds(theta_ref, phi_ref, step, standoff, True)
        i = _next_near_crossing(x, i + 1, bounds)
        while i == len(x):  # none in this block: search the next
            if (block := next(blocks, None)) is None:
                return
            heads, _, x, _, leaps = block
            i = _next_near_crossing(x, 0, bounds, len(x))


def _near_bounds(theta_ref, phi_ref, step, standoff, on_x_axis: bool, band=BAND):
    """(lo, hi, phi_lo, phi_hi) of the search for the next near entry, for these references.

    An entry is near when its theta may come within ``band`` of a step, which is when
    its radius (at ``standoff``) reaches ``hi`` or falls to ``lo``, or when its phi
    may.  Radius 0 is always near.  ``on_x_axis``, where y is 0.0, phi is 0 or 180 by
    x's sign bit, so which side fires is decided here, and the bounds are on x: near
    is x >= hi or x <= lo, and the phi bounds are None.  Elsewhere the bounds are on
    x*x + y*y, and phi, in [-180, 180], is near at most ``phi_lo`` or at least
    ``phi_hi``, ``phi_ref`` less or more the threshold with ``phi_ref`` taken in
    [-180, 180) too: |phi - phi_ref| is at least phi's circular drift, so only an
    entry across 180 deg from ``phi_ref`` can be near in vain.
    """
    threshold = step - ANGLE_EPS_DEG - band
    up, down = theta_ref + threshold, theta_ref - threshold
    hi = standoff * math.tan(math.radians(max(up, 0.0))) if up < 90.0 else math.inf
    lo = standoff * math.tan(math.radians(max(down, 0.0))) if down < 90.0 else math.inf
    if not on_x_axis:
        phi_ref = phi_ref - 360.0 if phi_ref >= 180.0 else phi_ref
        return lo * lo, hi * hi, phi_ref - threshold, phi_ref + threshold
    fire_0 = abs(signed_circular_delta_deg(0.0, phi_ref)) >= threshold
    fire_180 = abs(signed_circular_delta_deg(180.0, phi_ref)) >= threshold
    if fire_0 and fire_180:  # every x
        lo = math.inf
    elif fire_0:  # every x >= +0.0, and x <= -0.0 by |x|'s bounds: x <= -hi or x >= -lo
        lo, hi = -hi, -lo
    # else every x <= -0.0 is near, being at most lo: phi 180 fires, or neither does,
    # which takes a step over 90 deg
    return lo, hi, None, None


def _next_near_crossing(x, i: int, bounds, width=64) -> int:
    """First index from ``i`` of a block's x that is near by ``_near_bounds``' bounds on
    x, else the block's length.

    Windows double in size from ``width``: a near crossing costs little, a far one a few
    passes.  A new block's search takes the whole block in one pass: the last block's
    search ended with no crossing near.
    """
    lo, hi, _, _ = bounds
    while i < len(x):
        window = x[i:i + width]
        near = (window >= hi) | (window <= lo)
        j = int(near.argmax())
        if near[j]:
            return i + j
        i += width
        width *= 2
    return len(x)


def diff_states(
    old: np.ndarray, new: np.ndarray, shape: tuple[int, int] | None = None
) -> np.ndarray:
    """Packets turning ``old`` into ``new``: (col, row, state) rows in row-major cell order.

    Given the grid's ``shape``, either matrix may be compact as ``state_blocks``
    codes it, a length-1 axis standing for the whole axis.  A compact change
    changes every cell of each changed line, so its rows are built from the
    lines, with no mask of the grid.  A full change writes its rows in one pass
    from the changed cells' flat indexes.
    """
    old = np.asarray(old)
    new = np.asarray(new)
    if shape is None and old.shape != new.shape:
        raise ValidationError(f"matrix shapes differ: {old.shape} vs {new.shape}")
    shape = shape or old.shape
    changed = old != new
    if not changed.any():
        return np.empty((0, 3), np.int64)
    if changed.shape != shape:
        # the changed rows and columns: all of an axis on which the comparison is compact
        rows, cols = (np.flatnonzero(m) if m.size > 1 else np.arange(n)
                      for m, n in zip((changed[:, 0], changed[0]), shape))
        out = np.empty((len(rows), len(cols), 3), np.int64)  # row-major already
        out[..., 0] = cols
        out[..., 1] = rows[:, None]
        # the changed lines' states: new is compact on the comparison's compact axis
        out[..., 2] = new[:, cols] if new.shape[1] > 1 else new[rows] if len(new) > 1 else new
        return out.reshape(-1, 3)
    cells = np.flatnonzero(changed)
    out = np.empty((len(cells), 3), np.result_type(cells, new))
    np.divmod(cells, shape[1], out=(out[:, 1], out[:, 0]))
    out[:, 2] = new.take(cells) if new.shape == shape else np.broadcast_to(new, shape)[changed]
    return out


def iter_events(meta: TraceMeta) -> Iterator[ReconfigEvent]:
    """The events of ``meta``'s scenario, each coded and diffed when the iterator reaches it.

    Sampling, detection and the picks' ``gradients`` run before this
    returns, so a scenario that any of them refuses raises here, before a
    caller opens an output; the aliasing warning, if a pick is aliased, is
    logged here too.  The iterator holds the picks, their gradients, the
    surface's state and one event, not the samples.  The surface starts in
    the all-zero state, and every pick is an event, even one whose diff is
    empty.  The picks are coded in ``gradient_blocks``'s blocks, and the
    surface's state is kept compact.
    """
    gw = meta.gateway
    picks = detect_events(angle_stream(meta.trajectory, gw.sample_dt), gw.angular_step)
    thetas, phis = zip(*((ang.theta, ang.phi) for _, ang in picks))
    gx, gy = gradients(meta.incident, thetas, phis, meta.surface)
    _warn_on_aliasing(picks, gx * meta.surface.d_u, gy * meta.surface.d_u)
    return _diffed(picks, gradient_blocks(gx, gy, meta.surface), meta.surface)


def _warn_on_aliasing(picks: list, step_x: np.ndarray, step_y: np.ndarray):
    """Log one warning if a pick's per-cell phase step, ``step_x`` or ``step_y`` rad,
    exceeds half a cycle: the cell grid then undersamples the phase ramp."""
    aliased = (np.abs(step_x) > math.pi) | (np.abs(step_y) > math.pi)
    if aliased.any():
        import logging  # here, not at the top: every command would pay its import

        k = int(aliased.argmax())
        logging.getLogger("steertrace").warning(
            "aliasing at %d of %d events, first at t=%s: the per-cell phase step "
            "(%.4f, %.4f rad) exceeds half a cycle, so the steered direction is undersampled",
            aliased.sum(), len(picks), format_number(picks[k][0]), step_x[k], step_y[k],
        )


def _diffed(picks: list, blocks: Iterator[np.ndarray], surface: SurfaceConfig) -> Iterator:
    full = (surface.n_rows, surface.n_cols)
    current = np.zeros((1, 1), dtype=np.int64)
    for (t, ang), target in zip(picks, itertools.chain.from_iterable(blocks)):
        rows = diff_states(current, target, full)
        rows.flags.writeable = False  # fresh rows, which the event then takes without a copy
        yield ReconfigEvent(t, ang, rows)
        current = target

