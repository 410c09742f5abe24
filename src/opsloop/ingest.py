"""Telemetry normalization and windowed anomaly detection.

Raw simulator output is kept in two shapes. Telemetry stays columnar: the
feed holds each tick's `TickFrame` (one entity x metric array) in a ring
of the last W ticks, and passes the clock over ticks no window is read at
(`pass_to`) by stepping only the last W of them. Discrete events are rare,
so each becomes a `UnifiedRecord` as it arrives. `UnifiedRecord`s for
telemetry are built only for the samples a fired series cites as
evidence, or when a caller iterates a batch or the window.

The detector scores each (entity, metric) series of the feed's window
with an exponentially weighted moving average started at the baseline b.
Each step is a convex combination of the sample and the last value, so the
EWMA stays within max |x - b| of the baseline, up to rounding: a series
whose samples all lie within the stray threshold 0.9 K sigma of b cannot
end beyond K sigma, and only the other series are scored. Each batch
memoises, per detection noise level, the flat indices of its live cells
beyond that threshold (its stray cells), so a tick's frame is compared
with the threshold once, and a window whose frames hold no stray cell
costs no EWMA step. The detector is a pure function of the window:
re-scoring the same window yields the same alerts.
"""
from __future__ import annotations

import functools
import math
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .cluster import RawEvent, TelemetrySample, TickFrame
from .config import (
    ANOMALY_ATTR,
    BASELINES,
    CLASSIFICATION,
    DETECT_K,
    DETECT_WINDOW,
    EVENT_SEVERITY,
    EVIDENCE_FLOOR_SIGMA,
    EWMA_ALPHA,
    METRICS,
    NOISE_PCT,
    SEVERITY_BUCKETS,
    metric_sigma,
)


@dataclass(frozen=True)
class UnifiedRecord:
    """One normalized observation: a metric sample, an event, or an alert."""

    tick: int
    entity: str
    source: str  # "telemetry" | "event" | "alert"
    category: str
    attribute: str
    value: float | None
    severity: int


@dataclass(frozen=True)
class Alert:
    tick: int
    entity: str
    attribute: str
    severity: int
    evidence: tuple[UnifiedRecord, ...]


@dataclass(frozen=True)
class TickBatch:
    """One tick as the feed holds it: the telemetry frame and the tick's
    event records. Iterating yields the records of the tick, telemetry
    first; `len()` counts them."""

    frame: TickFrame
    events: tuple[UnifiedRecord, ...]
    # Detection noise level -> the flat indices of the frame's stray cells.
    _strays: dict = field(default_factory=dict, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.frame) + len(self.events)

    def strays(self, noise_pct: float | None) -> np.ndarray:
        """The flat (row-major) indices of the frame's live cells whose
        sample lies beyond the stray threshold of `noise_pct`, ascending;
        computed once per noise level. A quiet frame whose envelope lies
        within the threshold in every column has none, and is not drawn."""
        cells = self._strays.get(noise_pct)
        if cells is None:
            frame = self.frame
            if frame.envelope is not None and _within_strays(frame.envelope, noise_pct):
                cells = _NO_CELLS
            else:
                out = np.abs(frame.values - _BASELINE) > _bands(noise_pct).stray
                out &= frame.live[:, None]
                cells = np.flatnonzero(out)
            self._strays[noise_pct] = cells
        return cells

    def __iter__(self) -> Iterator[UnifiedRecord]:
        for sample in self.frame:
            yield normalize(sample)
        yield from self.events


class FeedWindow:
    """The feed's last W ticks, oldest first. Iterating yields their records
    tick by tick; `len()` counts them."""

    def __init__(self, batches: Iterable[TickBatch]):
        self.batches = tuple(batches)

    def __len__(self) -> int:
        return sum(len(b) for b in self.batches)

    def __iter__(self) -> Iterator[UnifiedRecord]:
        for batch in self.batches:
            yield from batch


def normalize(raw: TelemetrySample | RawEvent) -> UnifiedRecord:
    """Map a raw simulator row to the unified shape.

    Telemetry keeps its metric name as the attribute at severity 0; events
    keep their kind and carry the fixed per-kind severity. Feeding an
    already-normalized record back in is an error, as is an unknown metric
    or event kind.
    """
    if isinstance(raw, UnifiedRecord):
        raise TypeError("record is already normalized")
    if isinstance(raw, TelemetrySample):
        if raw.metric not in BASELINES:
            raise ValueError(f"unknown metric: {raw.metric!r}")
        return UnifiedRecord(
            tick=raw.tick,
            entity=raw.entity,
            source="telemetry",
            category=CLASSIFICATION[raw.metric].value,
            attribute=raw.metric,
            value=float(raw.value),
            severity=0,
        )
    if isinstance(raw, RawEvent):
        if raw.kind not in EVENT_SEVERITY:
            raise ValueError(f"unknown event kind: {raw.kind!r}")
        return UnifiedRecord(
            tick=raw.tick,
            entity=raw.entity,
            source="event",
            category=CLASSIFICATION[raw.kind].value,
            attribute=raw.kind,
            value=None,
            severity=EVENT_SEVERITY[raw.kind],
        )
    raise TypeError(f"cannot normalize {type(raw).__name__}")


def _severity_from_sigma(deviation: float, sigma: float) -> int:
    if sigma == 0.0:
        return 3 if deviation > 0.0 else 0
    lo, mid, hi = SEVERITY_BUCKETS
    ratio = deviation / sigma
    if ratio > hi:
        return 3
    if ratio > mid:
        return 2
    if ratio > lo:
        return 1
    return 0


_BASELINE = np.array([BASELINES[m] for m in METRICS])
_NO_CELLS = np.zeros(0, dtype=np.intp)
_NO_CELLS.flags.writeable = False  # shared by every quiet batch
# A stray sample lies beyond this fraction of the alarm band K sigma.
_STRAY_FRACTION = 0.9
_UNIT_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class _Bands:
    sigma: tuple[float, ...]  # per metric
    stray: np.ndarray  # per metric: the stray threshold on |x - baseline|


@functools.lru_cache(maxsize=16)
def _bands(noise_pct: float | None) -> _Bands:
    """Sigma and the stray threshold theta of each metric at a detection
    noise level; the alarm band is K sigma.

    A series whose live samples all satisfy |x - b| <= theta ends the
    window with |EWMA - b| <= theta in exact arithmetic, since the EWMA
    starts at b and each step alpha*x + (1 - alpha)*ewma is a convex
    combination (Lucas & Saccucci 1990). In floating point, with unit
    roundoff u, one step's two products and sum, and 1 - alpha itself, add
    at most about 3u (|b| + 2 theta), and 1 - alpha damps what is carried
    in, so the computed EWMA stays within theta + 6u (theta + |b|) / alpha
    of b over any number of steps. So theta = 0.9 K sigma is used when the
    0.1 K sigma gap exceeds 32u (K sigma + |b|) / alpha, which leaves room
    for the rounding of |EWMA - b| and of K sigma too; that holds at every
    noise level above 1e-13. With b = 0 and sigma = 0 (`pod_restarts`)
    theta = 0: a series of exact zeros has an EWMA of exactly 0. Otherwise
    nothing is pruned (theta = -inf).

    The simulator's sampling noise reaches at most noise_pct * b =
    sqrt(3) sigma, about 0.58 K sigma, so at the simulator's own noise
    level no noise sample is a stray. `TickBatch.strays` answers a quiet
    frame from that bound without drawing it: the frame's envelope is
    noise_pct * b plus the rounding, well inside theta at that level. At
    a lower detection noise level, or where theta is -inf, the envelope
    exceeds theta in some column and the frame is drawn and compared.
    """
    if noise_pct is not None and not 0.0 < noise_pct < math.inf:
        raise ValueError(f"noise_pct must be a finite number > 0, got {noise_pct!r}")
    sigma = [metric_sigma(m, NOISE_PCT if noise_pct is None else noise_pct) for m in METRICS]
    stray = []
    for metric, s in zip(METRICS, sigma):
        band = DETECT_K * s
        baseline = abs(BASELINES[metric])
        rounding = 32.0 * _UNIT_ROUNDOFF * (band + baseline) / EWMA_ALPHA
        exact = baseline == 0.0 or band - _STRAY_FRACTION * band > rounding
        stray.append(_STRAY_FRACTION * band if exact else -math.inf)
    bands = _Bands(tuple(sigma), np.array(stray))
    bands.stray.flags.writeable = False  # shared by every caller
    return bands


@functools.lru_cache(maxsize=16)
def _within_strays(envelope: tuple[float, ...], noise_pct: float | None) -> bool:
    """True when a quiet frame of `envelope` can hold no stray cell at
    `noise_pct`: its envelope is within the stray threshold in every column."""
    return all(e <= theta for e, theta in zip(envelope, _bands(noise_pct).stray.tolist()))


def _metric_alert(
    entity: str, metric: str, ticks: list[int], values: list[float], deviation: float, sigma: float,
) -> Alert:
    """The alert of a fired series, given as its live ticks and samples
    oldest first. It cites the samples beyond the evidence floor, or the
    extreme one when none is, and records are built for those alone."""
    baseline = BASELINES[metric]
    floor = EVIDENCE_FLOOR_SIGMA * sigma
    cited = [k for k, value in enumerate(values) if abs(value - baseline) > floor]
    if not cited:  # the extreme sample always clears the floor
        cited = [max(range(len(values)), key=lambda k: abs(values[k] - baseline))]
    category = CLASSIFICATION[metric].value
    return Alert(
        tick=ticks[-1],
        entity=entity,
        attribute=ANOMALY_ATTR[metric],
        severity=_severity_from_sigma(deviation, sigma),
        evidence=tuple(
            UnifiedRecord(ticks[k], entity, "telemetry", category, metric, values[k], 0)
            for k in cited
        ),
    )


def _event_alerts(records: Iterable[UnifiedRecord]) -> list[Alert]:
    """One alert per (entity, kind) of the events with nonzero severity."""
    groups: dict[tuple[str, str], list[UnifiedRecord]] = {}
    for rec in records:
        if rec.source == "event" and rec.severity > 0:
            groups.setdefault((rec.entity, rec.attribute), []).append(rec)
    alerts = []
    for (entity, attribute), recs in groups.items():
        recs = sorted(recs, key=lambda r: r.tick)
        alerts.append(Alert(
            tick=recs[-1].tick,
            entity=entity,
            attribute=attribute,
            severity=max(r.severity for r in recs),
            evidence=tuple(recs),
        ))
    return alerts


def detect_anomalies(
    window: FeedWindow,
    *,
    min_ticks: int = DETECT_WINDOW,
    noise_pct: float | None = None,
) -> list[Alert]:
    """Score the feed's window and return alerts, sorted by (entity, attribute).

    Metric series need at least `min_ticks` live ticks; the EWMA (weight
    `EWMA_ALPHA`) starts at the metric baseline and an alert fires when the
    smoothed value ends the window more than `DETECT_K` sigma away from
    baseline. Severity escalates at the 3/5/8 sigma buckets. Events with
    nonzero severity alert directly. Every alert cites the window records
    that support it. `noise_pct` sets sigma (default: the simulator's
    noise) and must be a finite number > 0.

    Only the series with a stray cell in some frame of the window are
    scored: the union of the batches' memoised stray cells (see `_bands`
    for why no other series can fire). Each is scored alone over its live
    ticks (a prefix of the window, since removal is permanent), as
    `EWMA_ALPHA * x + (1.0 - EWMA_ALPHA) * ewma` in float64, tick by tick:
    the same operations in the same order as scoring every series, so
    the alerts are the same to the bit. Records are built only for the
    samples a fired series cites.
    """
    sigmas = _bands(noise_pct).sigma
    batches = window.batches
    alerts: list[Alert] = []
    strays = [cells for b in batches if (cells := b.strays(noise_pct)).size]
    if strays:
        cells = strays[0] if len(strays) == 1 else np.unique(np.concatenate(strays))
        rows = cells // len(METRICS)
        # per stray series: its sample and live flag at each tick of the window
        samples = np.stack([b.frame.values.take(cells) for b in batches], axis=1).tolist()
        lives = np.stack([b.frame.live.take(rows) for b in batches], axis=1).tolist()
        ticks = [b.frame.tick for b in batches]
        entities = batches[0].frame.entities
        for cell, xs, is_live in zip(cells.tolist(), samples, lives):
            if sum(is_live) < min_ticks:
                continue
            row, j = divmod(cell, len(METRICS))
            baseline, sigma = BASELINES[METRICS[j]], sigmas[j]
            xs = list(compress(xs, is_live))
            ewma = baseline
            for x in xs:
                ewma = EWMA_ALPHA * x + (1.0 - EWMA_ALPHA) * ewma
            deviation = abs(ewma - baseline)
            if deviation > DETECT_K * sigma if sigma > 0.0 else deviation > 0.0:
                alerts.append(_metric_alert(
                    entities[row], METRICS[j], list(compress(ticks, is_live)), xs, deviation, sigma,
                ))
    alerts += _event_alerts(rec for b in batches for rec in b.events)
    alerts.sort(key=lambda a: (a.entity, a.attribute))
    return alerts


class TelemetryFeed:
    """Owns the sim-stepping loop and a ring of the last `window_ticks` ticks."""

    def __init__(self, sim, window_ticks: int = DETECT_WINDOW):
        self.sim = sim
        self.window_ticks = window_ticks
        self._ring: deque[TickBatch] = deque(maxlen=window_ticks)

    def step(self) -> TickBatch:
        frame, events = self.sim.step()
        batch = TickBatch(frame, tuple(normalize(e) for e in events))
        self._ring.append(batch)
        return batch

    def window(self) -> FeedWindow:
        return FeedWindow(self._ring)

    def pass_to(self, tick: int) -> None:
        """Move the clock on to `tick`. Only the last W ticks before it (W
        the ring's size) can be in the ring, so the clock skips to
        `tick - W` and steps the rest: the ring then holds what stepping
        every tick would have left in it. No window is scored on the way."""
        self.sim.skip_to(tick - self.window_ticks)
        while self.sim.tick < tick:
            self.step()

    def quiet_until(self, limit: int, noise_pct: float) -> int:
        """The furthest tick, up to `limit` but at least the next one, that
        the clock can pass to without skipping a window that could fire at
        `noise_pct`.

        When the ring holds frames, every one quiet, with no event and
        within the stray threshold (`_within_strays`), so does every window
        read before the first tick a fault acts on: the ticks up to it are
        quiet with no event, and a simulator's quiet frames share one
        envelope. Such a window has no stray series and no event, and
        fires nothing. Otherwise the bound is the next tick."""
        now = self.sim.tick
        if self._ring and all(
            b.frame.envelope is not None and not b.events and _within_strays(b.frame.envelope, noise_pct)
            for b in self._ring
        ):
            acting = self.sim.next_acting_tick()
            return max(now + 1, limit if acting is None else min(acting, limit))
        return now + 1
