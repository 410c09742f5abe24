"""Telemetry normalization and windowed anomaly detection.

Raw simulator output is kept in two shapes. Telemetry stays columnar: the
feed holds each tick's `TickFrame` (one entity x metric array) in a ring
of the last W ticks. Discrete events are rare, so each becomes a
`UnifiedRecord` as it arrives. `UnifiedRecord`s for telemetry are built
only as evidence of a series that fired, or when a caller iterates a
batch or the window.

The detector scores each (entity, metric) series of the feed's window
with an exponentially weighted moving average, running the recurrence on
whole frames, tick by tick. The detector is a pure function of the
window: re-scoring the same window yields the same alerts.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

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

    def __len__(self) -> int:
        return len(self.frame) + len(self.events)

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


def _sigma(metric: str, noise_pct: float | None) -> float:
    if noise_pct is None:
        return metric_sigma(metric)
    return noise_pct * BASELINES[metric] / (3.0 ** 0.5)


def _metric_alert(recs: list[UnifiedRecord], deviation: float, sigma: float) -> Alert:
    """The alert of a fired series, given as its records oldest first. It
    cites the records beyond the evidence floor."""
    last = recs[-1]
    baseline = BASELINES[last.attribute]
    floor = EVIDENCE_FLOOR_SIGMA * sigma
    evidence = tuple(r for r in recs if abs(r.value - baseline) > floor)
    if not evidence:  # the extreme sample always clears the floor
        evidence = (max(recs, key=lambda r: abs(r.value - baseline)),)
    return Alert(
        tick=last.tick,
        entity=last.entity,
        attribute=ANOMALY_ATTR[last.attribute],
        severity=_severity_from_sigma(deviation, sigma),
        evidence=evidence,
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
    that support it.

    The recurrence runs on whole frames, tick by tick. An entity's series
    is its live ticks (a prefix of the window, since removal is permanent).
    Records are built only for the series that fire.
    """
    batches = window.batches
    alerts: list[Alert] = []
    if batches:
        ticks = [b.frame.tick for b in batches]
        entities = batches[0].frame.entities
        values = np.stack([b.frame.values for b in batches])  # (tick, entity, metric)
        live = np.stack([b.frame.live for b in batches])  # (tick, entity)
        baseline = np.array([BASELINES[m] for m in METRICS])
        sigma = np.array([_sigma(m, noise_pct) for m in METRICS])
        ewma = np.broadcast_to(baseline, values.shape[1:])
        for x, is_live in zip(values, live):
            ewma = np.where(is_live[:, None], EWMA_ALPHA * x + (1.0 - EWMA_ALPHA) * ewma, ewma)
        deviation = np.abs(ewma - baseline)
        fired = np.where(sigma > 0.0, deviation > DETECT_K * sigma, deviation > 0.0)
        fired &= (live.sum(axis=0) >= min_ticks)[:, None]
        for i, j in zip(*(ix.tolist() for ix in np.nonzero(fired))):
            metric = METRICS[j]
            category = CLASSIFICATION[metric].value
            recs = [
                UnifiedRecord(tick, entities[i], "telemetry", category, metric, value, 0)
                for tick, value, is_live in zip(ticks, values[:, i, j].tolist(), live[:, i]) if is_live
            ]
            alerts.append(_metric_alert(recs, float(deviation[i, j]), float(sigma[j])))
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
