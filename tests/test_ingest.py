"""Normalization and detector behavior, checked against hand-computed
EWMA arithmetic (alpha 0.3, start at baseline, threshold 3 sigma).

Windows written as record lists go to the record-list reference
(`conftest.detect_records`), which the telemetry-plane tests hold equal to
the columnar detector; the feed's own windows go to `detect_anomalies`."""
from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from opsloop.cluster import ClusterSim, FaultScenario, RawEvent, TelemetrySample, build_topology
from opsloop.config import BASELINES, EWMA_ALPHA, FaultKind
from opsloop.ingest import TelemetryFeed, UnifiedRecord, detect_anomalies, normalize

from conftest import detect_records, tiny_topology_spec


def tele(tick: int, entity: str, metric: str, value: float) -> UnifiedRecord:
    return normalize(TelemetrySample(tick, entity, metric, value))


def event(tick: int, entity: str, kind: str) -> UnifiedRecord:
    return normalize(RawEvent(tick, entity, kind))


def latency_window(values: list[float], entity: str = "svc-a") -> list[UnifiedRecord]:
    return [tele(i, entity, "net_latency_ms", v) for i, v in enumerate(values)]


# Independent oracle: sigma of uniform +/-2% noise on the 20.0 baseline.
SIGMA = 0.02 * 20.0 / math.sqrt(3.0)


def ewma_final(values: list[float], baseline: float, alpha: float = EWMA_ALPHA) -> float:
    e = baseline
    for v in values:
        e = alpha * v + (1 - alpha) * e
    return e


# -- normalize ---------------------------------------------------------------------


def test_normalize_telemetry_and_event_fields():
    rec = tele(3, "svc-a", "net_latency_ms", 21.5)
    assert (rec.source, rec.category, rec.attribute, rec.value, rec.severity) == (
        "telemetry", "performance", "net_latency_ms", 21.5, 0,
    )
    rec = event(4, "svc-a", "dns_error")
    assert (rec.source, rec.category, rec.attribute, rec.value, rec.severity) == (
        "event", "performance", "dns_error", None, 3,
    )
    assert event(4, "n1", "node_decommissioned").severity == 1
    assert event(4, "n1", "auth_failure").severity == 2
    assert event(4, "n1", "config_change").severity == 0


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown metric"):
        normalize(TelemetrySample(0, "e", "bogus_metric", 1.0))
    with pytest.raises(ValueError, match="unknown event"):
        normalize(RawEvent(0, "e", "bogus_event"))
    with pytest.raises(TypeError, match="already normalized"):
        normalize(tele(0, "e", "cpu_util", 0.3))
    with pytest.raises(TypeError):
        normalize("not a record")


def record_to_json(record: UnifiedRecord) -> str:
    return json.dumps(
        {
            "tick": record.tick,
            "entity": record.entity,
            "source": record.source,
            "category": record.category,
            "attribute": record.attribute,
            "value": record.value,
            "severity": record.severity,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def test_record_json_is_canonical():
    rec = tele(1, "svc-a", "cpu_util", 0.25)
    assert record_to_json(rec) == (
        '{"attribute":"cpu_util","category":"capacity","entity":"svc-a",'
        '"severity":0,"source":"telemetry","tick":1,"value":0.25}'
    )


# -- EWMA threshold arithmetic ---------------------------------------------------------


def test_single_blip_below_threshold_stays_quiet():
    # blip at window position 2 of 5 weighs alpha*(1-alpha)^2 = 0.147;
    # 0.147 * 4.0 = 0.588 < 3 sigma = 0.6928
    window = latency_window([20.0, 20.0, 24.0, 20.0, 20.0])
    assert abs(ewma_final([20, 20, 24, 20, 20], 20.0) - 20.0) < 3 * SIGMA
    assert detect_records(window) == []


def test_single_blip_above_threshold_alerts_with_the_blip_as_evidence():
    # 0.147 * 5.0 = 0.735 > 3 sigma = 0.6928 but below the 5-sigma bucket
    window = latency_window([20.0, 20.0, 25.0, 20.0, 20.0])
    deviation = abs(ewma_final([20, 20, 25, 20, 20], 20.0) - 20.0)
    assert 3 * SIGMA < deviation < 5 * SIGMA
    alerts = detect_records(window)
    assert len(alerts) == 1
    alert = alerts[0]
    assert alert.entity == "svc-a"
    assert alert.attribute == "latency_high"
    assert alert.severity == 1
    assert alert.tick == 4
    assert [rec.value for rec in alert.evidence] == [25.0]


def test_sustained_offsets_hit_severity_buckets():
    # sustained offset d leaves the EWMA at baseline + d*(1 - 0.7^5) = baseline + 0.83193 d
    for d, severity in ((1.0, 1), (2.0, 2), (3.0, 3)):
        deviation = 0.83193 * d
        ratio = deviation / SIGMA
        expected = 3 if ratio > 8 else 2 if ratio > 5 else 1
        assert expected == severity
        window = latency_window([20.0 + d] * 5)
        alerts = detect_records(window)
        assert len(alerts) == 1
        assert alerts[0].severity == severity
        # every sample clears the 2-sigma evidence floor
        assert len(alerts[0].evidence) == 5


def test_short_series_is_ignored():
    window = latency_window([26.0] * 4)  # only 4 distinct ticks
    assert detect_records(window) == []
    window = latency_window([26.0] * 5)
    assert len(detect_records(window)) == 1


def test_duplicate_ticks_do_not_count_as_history():
    window = latency_window([26.0] * 5)
    window += [tele(4, "svc-a", "net_latency_ms", 26.0)]  # same tick again
    assert len({r.tick for r in window}) == 5
    assert len(detect_records(window)) == 1


def test_zero_sigma_metric_fires_on_any_deviation():
    quiet = [tele(i, "p1", "pod_restarts", 0.0) for i in range(5)]
    assert detect_records(quiet) == []
    spiky = quiet[:4] + [tele(4, "p1", "pod_restarts", 1.0)]
    alerts = detect_records(spiky)
    assert len(alerts) == 1
    assert alerts[0].attribute == "restarts_high"
    assert alerts[0].severity == 3
    assert [rec.value for rec in alerts[0].evidence] == [1.0]


def test_detector_is_pure(tiny_topology):
    sim = ClusterSim(tiny_topology, seed=2)
    sim.inject(FaultScenario(FaultKind.NOISY_NEIGHBOR, "n1", start_tick=0, duration=20, magnitude=0.7))
    feed = TelemetryFeed(sim, window_ticks=5)
    for _ in range(8):
        feed.step()
    window = feed.window()
    alerts = detect_anomalies(window)
    assert alerts
    assert detect_anomalies(window) == alerts


# -- event alerts -------------------------------------------------------------------


def test_events_alert_directly_with_max_severity():
    window = [event(1, "svc-a", "dns_error"), event(3, "svc-a", "dns_error")]
    alerts = detect_records(window)
    assert len(alerts) == 1
    assert (alerts[0].attribute, alerts[0].severity, alerts[0].tick) == ("dns_error", 3, 3)
    assert len(alerts[0].evidence) == 2


def test_zero_severity_events_do_not_alert():
    assert detect_records([event(1, "svc-a", "config_change")]) == []


def test_alerts_sorted_by_entity_then_attribute():
    window = (
        latency_window([26.0] * 5, entity="svc-b")
        + latency_window([26.0] * 5, entity="svc-a")
        + [event(2, "svc-a", "dns_error")]
    )
    alerts = detect_records(window)
    assert [(a.entity, a.attribute) for a in alerts] == [
        ("svc-a", "dns_error"),
        ("svc-a", "latency_high"),
        ("svc-b", "latency_high"),
    ]


# -- feed ------------------------------------------------------------------------


def latest(feed: TelemetryFeed) -> list[UnifiedRecord]:
    """The records of the feed's newest tick."""
    batches = feed.window().batches
    return list(batches[-1]) if batches else []


def test_feed_window_slides(tiny_topology):
    feed = TelemetryFeed(ClusterSim(tiny_topology, seed=2), window_ticks=3)
    for _ in range(5):
        feed.step()
    ticks = {rec.tick for rec in feed.window()}
    assert ticks == {2, 3, 4}
    assert {rec.tick for rec in latest(feed)} == {4}


_PASS_TARGETS = {
    FaultKind.DNS_ERROR_BURST: "svc-back", FaultKind.TOR_PACKET_LOSS: "sw1",
    FaultKind.INGRESS_THROTTLE: "svc-front", FaultKind.NOISY_NEIGHBOR: "n1",
    FaultKind.NODE_DECOMMISSION: "n2",
}


@settings(max_examples=100, deadline=None)
@given(
    faults=st.lists(st.tuples(st.sampled_from(list(FaultKind)), st.integers(0, 30), st.integers(1, 8)),
                    max_size=4),
    start=st.integers(0, 12), target=st.integers(0, 40), window=st.integers(1, 8),
)
def test_passing_to_a_tick_leaves_the_ring_stepping_leaves(faults, start, target, window):
    # Both feeds step `start` ticks, so the ring holds frames from before
    # the pass; decommissions fall before, inside and after the skip.
    topology = build_topology(tiny_topology_spec())
    feeds = []
    for _ in range(2):
        sim = ClusterSim(topology, seed=4)
        for kind, tick, duration in faults:
            sim.inject(FaultScenario(kind, _PASS_TARGETS[kind], tick,
                                     None if kind is FaultKind.NODE_DECOMMISSION else duration))
        feed = TelemetryFeed(sim, window_ticks=window)
        for _ in range(start):
            feed.step()
        feeds.append(feed)
    passing, stepping = feeds
    passing.pass_to(target)
    while stepping.sim.tick < target:
        stepping.step()
    assert passing.sim.tick == stepping.sim.tick == max(start, target)
    ring = [(b.frame, b.events) for b in passing.window().batches]
    assert ring == [(b.frame, b.events) for b in stepping.window().batches]
    for _ in range(10):
        assert passing.step() == stepping.step()


def test_feed_quiet_cluster_never_alerts(tiny_topology):
    feed = TelemetryFeed(ClusterSim(tiny_topology, seed=2), window_ticks=5)
    for _ in range(12):
        feed.step()
        assert detect_anomalies(feed.window()) == []


def test_baseline_noise_respects_sigma_definition():
    # uniform noise on [-b, b] has standard deviation b / sqrt(3)
    from opsloop.config import metric_sigma

    assert metric_sigma("net_latency_ms") == pytest.approx(SIGMA)
    assert metric_sigma("pod_restarts") == 0.0
    assert metric_sigma("cpu_util", noise_pct=0.1) == pytest.approx(0.1 * 0.3 / math.sqrt(3))
    assert BASELINES["net_latency_ms"] == 20.0
