"""Shared fixtures: a small three-rack topology and config paths, and the
record-list detector that the columnar one is checked against."""
from __future__ import annotations

import json
from collections.abc import Iterable
from pathlib import Path

import pytest

from opsloop.config import (
    ANOMALY_ATTR, BASELINES, DETECT_K, DETECT_WINDOW, EVIDENCE_FLOOR_SIGMA, EWMA_ALPHA, NOISE_PCT, metric_sigma,
)
from opsloop.ingest import Alert, UnifiedRecord, _event_alerts, _severity_from_sigma

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def small_topology_spec() -> dict:
    """Three racks, six nodes, twelve pods, four services in a call chain
    (checkout -> payments -> ledger -> dns)."""
    return json.loads((CONFIG_DIR / "recurring_dns.json").read_text())["topology"]


def tiny_topology_spec() -> dict:
    """One rack, two nodes, three pods, two services (front -> back)."""
    return {
        "racks": [
            {
                "id": "r1",
                "switch": "sw1",
                "nodes": [
                    {
                        "id": "n1",
                        "generation": "gen-7",
                        "pods": [
                            {"id": "p-front-1", "service": "svc-front"},
                            {"id": "p-back-1", "service": "svc-back"},
                        ],
                    },
                    {
                        "id": "n2",
                        "generation": "gen-8",
                        "pods": [{"id": "p-back-2", "service": "svc-back"}],
                    },
                ],
            }
        ],
        "dependencies": [["svc-front", "svc-back"]],
    }


@pytest.fixture
def small_topology():
    from opsloop.cluster import build_topology

    return build_topology(small_topology_spec())


@pytest.fixture
def tiny_topology():
    from opsloop.cluster import build_topology

    return build_topology(tiny_topology_spec())


@pytest.fixture
def dns_config_path() -> Path:
    return CONFIG_DIR / "recurring_dns.json"


@pytest.fixture
def forgetting_config_path() -> Path:
    return CONFIG_DIR / "decommission_forgetting.json"


@pytest.fixture
def mixed_config_path() -> Path:
    return CONFIG_DIR / "mixed_faults.json"


def _metric_alert(recs: list[UnifiedRecord], deviation: float, sigma: float) -> Alert:
    """The alert of a fired series, given as all its records oldest first.
    It cites the records beyond the evidence floor, or the extreme one."""
    last = recs[-1]
    baseline = BASELINES[last.attribute]
    floor = EVIDENCE_FLOOR_SIGMA * sigma
    evidence = tuple(r for r in recs if abs(r.value - baseline) > floor)
    if not evidence:
        evidence = (max(recs, key=lambda r: abs(r.value - baseline)),)
    return Alert(
        tick=last.tick,
        entity=last.entity,
        attribute=ANOMALY_ATTR[last.attribute],
        severity=_severity_from_sigma(deviation, sigma),
        evidence=evidence,
    )


def detect_records(
    window: Iterable[UnifiedRecord],
    *,
    alpha: float = EWMA_ALPHA,
    k: float = DETECT_K,
    min_ticks: int = DETECT_WINDOW,
    noise_pct: float | None = None,
) -> list[Alert]:
    """`detect_anomalies` over any list of records, one series at a time,
    every series scored: the reference for the columnar detector. Records of one series may
    share a tick; the series is ordered by tick, stably, and needs
    `min_ticks` distinct ticks."""
    series: dict[tuple[str, str], list[UnifiedRecord]] = {}
    events = []
    for rec in window:
        if rec.source == "telemetry":
            series.setdefault((rec.entity, rec.attribute), []).append(rec)
        else:
            events.append(rec)
    alerts: list[Alert] = []
    for (_, metric), recs in series.items():
        recs = sorted(recs, key=lambda r: r.tick)
        if len({r.tick for r in recs}) < min_ticks:
            continue
        baseline = BASELINES[metric]
        sigma = metric_sigma(metric, NOISE_PCT if noise_pct is None else noise_pct)
        ewma = baseline
        for rec in recs:
            ewma = alpha * rec.value + (1.0 - alpha) * ewma
        deviation = abs(ewma - baseline)
        fired = deviation > k * sigma if sigma > 0.0 else deviation > 0.0
        if fired:
            alerts.append(_metric_alert(recs, deviation, sigma))
    alerts += _event_alerts(events)
    alerts.sort(key=lambda a: (a.entity, a.attribute))
    return alerts
