"""Simulator behavior: topology validation, determinism, fault blast sets,
remediation, decommissioning, and stream serialization."""
from __future__ import annotations

import dataclasses
import functools

import pytest
from hypothesis import given, settings, strategies as st

from opsloop.cluster import (
    ActionResult,
    ClusterSim,
    DecommissionedEntityError,
    FaultScenario,
    RawEvent,
    ScenarioError,
    TelemetrySample,
    TopologyError,
    UnknownEntityError,
    build_topology,
    parse_stream_line,
    stream_lines,
)
from opsloop.config import BASELINES, HEADROOM, METRICS, REMEDY, ActionKind, FaultKind

from conftest import tiny_topology_spec


# -- topology -----------------------------------------------------------------


def test_topology_shape(tiny_topology):
    assert tiny_topology.nodes == ("n1", "n2")
    assert tiny_topology.pods == ("p-back-1", "p-back-2", "p-front-1")
    assert tiny_topology.services == ("svc-back", "svc-front")
    assert tiny_topology.switches == ("sw1",)
    assert tiny_topology.pods_of_service("svc-back") == ("p-back-1", "p-back-2")
    assert tiny_topology.pods_on_node("n1") == ("p-back-1", "p-front-1")
    assert tiny_topology.pods_behind_switch("sw1") == ("p-back-1", "p-back-2", "p-front-1")
    assert tiny_topology.entity_class("n1") == "Node"
    assert tiny_topology.entity_class("p-front-1") == "Pod"
    assert tiny_topology.entity_class("svc-front") == "Service"
    assert tiny_topology.entity_class("sw1") == "ToRSwitch"
    assert tiny_topology.entity_class("r1") == "Rack"
    assert tiny_topology.entity_class("ghost") is None


def test_transitive_callers(small_topology):
    # chain: checkout -> payments -> ledger -> dns
    assert small_topology.callers_of("svc-dns") == (
        "svc-checkout", "svc-ledger", "svc-payments",
    )
    assert small_topology.callers_of("svc-payments") == ("svc-checkout",)
    assert small_topology.callers_of("svc-checkout") == ()


def test_duplicate_ids_rejected():
    spec = tiny_topology_spec()
    spec["racks"][0]["nodes"][1]["id"] = "n1"
    with pytest.raises(TopologyError, match="duplicate"):
        build_topology(spec)


def test_unknown_dependency_rejected():
    spec = tiny_topology_spec()
    spec["dependencies"] = [["svc-front", "svc-ghost"]]
    with pytest.raises(TopologyError, match="unknown service"):
        build_topology(spec)


def test_self_dependency_rejected():
    spec = tiny_topology_spec()
    spec["dependencies"] = [["svc-front", "svc-front"]]
    with pytest.raises(TopologyError, match="self-dependency"):
        build_topology(spec)


def test_service_id_colliding_with_infrastructure_rejected():
    spec = tiny_topology_spec()
    spec["racks"][0]["nodes"][0]["pods"][0]["service"] = "n2"
    with pytest.raises(TopologyError, match="duplicate id: 'n2' is already a Node"):
        build_topology(spec)


# -- determinism ----------------------------------------------------------------


def test_same_seed_same_stream(tiny_topology):
    a = ClusterSim(tiny_topology, seed=42)
    b = ClusterSim(tiny_topology, seed=42)
    for _ in range(8):
        assert a.step() == b.step()


def test_a_negative_seed_is_refused(tiny_topology):
    # SeedSequence takes no negative entropy: this once raised at the first tick.
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        ClusterSim(tiny_topology, seed=-1)


def test_different_seeds_differ(tiny_topology):
    a = ClusterSim(tiny_topology, seed=1)
    b = ClusterSim(tiny_topology, seed=2)
    sa, _ = a.step()
    sb, _ = b.step()
    assert sa != sb


def test_noise_stays_inside_band(tiny_topology):
    sim = ClusterSim(tiny_topology, seed=3)
    for _ in range(20):
        samples, events = sim.step()
        assert not events
        for s in samples:
            base = BASELINES[s.metric]
            assert abs(s.value - base) <= 0.02 * base + 1e-12


def test_removed_entity_does_not_shift_other_streams(tiny_topology):
    plain = ClusterSim(tiny_topology, seed=9)
    faulted = ClusterSim(tiny_topology, seed=9)
    faulted.inject(FaultScenario(FaultKind.NODE_DECOMMISSION, "n1", start_tick=3))
    for _ in range(10):
        ref, _ = plain.step()
        got, _ = faulted.step()
        survivors = {(s.entity, s.metric): s.value for s in got}
        for s in ref:
            if s.entity in ("n1", "p-back-1", "p-front-1"):
                continue
            assert survivors[(s.entity, s.metric)] == s.value


# -- fault blast sets --------------------------------------------------------------


def _values(samples: list[TelemetrySample]) -> dict[tuple[str, str], float]:
    return {(s.entity, s.metric): s.value for s in samples}


def test_dns_burst_hits_callers_and_emits_events(small_topology):
    sim = ClusterSim(small_topology, seed=5)
    sim.inject(FaultScenario(FaultKind.DNS_ERROR_BURST, "svc-dns", 2, duration=3, magnitude=0.5))
    sim.step()
    sim.step()
    samples, events = sim.step()  # tick 2: fault active
    vals = _values(samples)
    bump = 0.5 * HEADROOM["net_latency_ms"]
    for svc in ("svc-checkout", "svc-payments", "svc-ledger"):
        assert vals[(svc, "net_latency_ms")] > BASELINES["net_latency_ms"] + bump * 0.9
    # the faulted service itself reports only its own noise-level latency
    assert vals[("svc-dns", "net_latency_ms")] < BASELINES["net_latency_ms"] * 1.05
    assert events == [RawEvent(2, "svc-dns", "dns_error", (("scope", "svc-dns"),))]
    # expiry: duration 3 -> last active tick is 4
    for _ in range(2):
        sim.step()
    samples, events = sim.step()  # tick 5
    assert not events
    vals = _values(samples)
    assert vals[("svc-checkout", "net_latency_ms")] < BASELINES["net_latency_ms"] * 1.05


def test_tor_loss_hits_pods_behind_switch(small_topology):
    sim = ClusterSim(small_topology, seed=5)
    sim.inject(FaultScenario(FaultKind.TOR_PACKET_LOSS, "tor-2", 0, duration=2, magnitude=0.5))
    samples, events = sim.step()
    assert not events
    vals = _values(samples)
    behind = small_topology.pods_behind_switch("tor-2")
    assert behind == ("pod-dns-1", "pod-dns-2", "pod-ledger-2", "pod-payments-2")
    for pod in behind:
        assert vals[(pod, "packet_loss_rate")] > 0.4
        assert vals[(pod, "net_latency_ms")] > 100.0
    assert vals[("pod-checkout-1", "packet_loss_rate")] < 0.01


def test_noisy_neighbor_hits_pods_on_node(small_topology):
    sim = ClusterSim(small_topology, seed=5)
    sim.inject(FaultScenario(FaultKind.NOISY_NEIGHBOR, "node-1", 0, duration=2, magnitude=0.7))
    samples, _ = sim.step()
    vals = _values(samples)
    for pod in small_topology.pods_on_node("node-1"):
        assert vals[(pod, "cpu_util")] > 0.7
        assert vals[(pod, "disk_io")] > 0.7
    assert vals[("pod-dns-1", "cpu_util")] < 0.35


def test_ingress_throttle_hits_target_service_only(small_topology):
    sim = ClusterSim(small_topology, seed=5)
    sim.inject(FaultScenario(FaultKind.INGRESS_THROTTLE, "svc-checkout", 0, duration=2, magnitude=0.5))
    samples, _ = sim.step()
    vals = _values(samples)
    assert vals[("svc-checkout", "net_latency_ms")] > 100.0
    for svc in ("svc-payments", "svc-ledger", "svc-dns"):
        assert vals[(svc, "net_latency_ms")] < BASELINES["net_latency_ms"] * 1.05


def test_ratio_metrics_clamped(small_topology):
    sim = ClusterSim(small_topology, seed=5)
    sim.inject(FaultScenario(FaultKind.TOR_PACKET_LOSS, "tor-2", 0, duration=2, magnitude=1.0))
    samples, _ = sim.step()
    for s in samples:
        if s.metric in ("cpu_util", "mem_util", "disk_io", "packet_loss_rate"):
            assert 0.0 <= s.value <= 1.0
        else:
            assert s.value >= 0.0


# -- scenario validation ----------------------------------------------------------


def test_inject_rejects_wrong_target_class(tiny_topology):
    sim = ClusterSim(tiny_topology, seed=1)
    with pytest.raises(ScenarioError, match="targets a Service"):
        sim.inject(FaultScenario(FaultKind.DNS_ERROR_BURST, "n1", 1, duration=2))


def test_inject_rejects_unknown_target(tiny_topology):
    sim = ClusterSim(tiny_topology, seed=1)
    with pytest.raises(UnknownEntityError):
        sim.inject(FaultScenario(FaultKind.NOISY_NEIGHBOR, "ghost", 1, duration=2))


def test_inject_rejects_past_start_and_bad_magnitude(tiny_topology):
    sim = ClusterSim(tiny_topology, seed=1)
    sim.step()
    with pytest.raises(ScenarioError, match="past"):
        sim.inject(FaultScenario(FaultKind.NOISY_NEIGHBOR, "n1", 0, duration=2))
    with pytest.raises(ScenarioError, match="magnitude"):
        sim.inject(FaultScenario(FaultKind.NOISY_NEIGHBOR, "n1", 2, duration=2, magnitude=1.5))
    with pytest.raises(ScenarioError, match="duration"):
        sim.inject(FaultScenario(FaultKind.NOISY_NEIGHBOR, "n1", 2, duration=0))


# -- remediation ----------------------------------------------------------------


def test_matching_action_clears_fault(tiny_topology):
    sim = ClusterSim(tiny_topology, seed=7)
    scen = FaultScenario(FaultKind.NOISY_NEIGHBOR, "n1", 0, duration=50, magnitude=0.7)
    sim.inject(scen)
    sim.step()
    result = sim.apply_action(ActionKind.THROTTLE_TENANT, "n1")
    assert result.success and "noisy_neighbor" in result.detail
    assert sim.fault_cleared(scen)
    samples, _ = sim.step()
    vals = _values(samples)
    assert vals[("p-front-1", "cpu_util")] < 0.35


def test_wrong_action_or_target_does_not_clear(tiny_topology):
    sim = ClusterSim(tiny_topology, seed=7)
    scen = FaultScenario(FaultKind.NOISY_NEIGHBOR, "n1", 0, duration=50, magnitude=0.7)
    sim.inject(scen)
    sim.step()
    assert not sim.apply_action(ActionKind.FLUSH_DNS_CACHE, "n1").success
    assert not sim.apply_action(ActionKind.THROTTLE_TENANT, "n2").success
    assert not sim.fault_cleared(scen)


def test_action_on_unknown_or_removed_entity_raises(tiny_topology):
    sim = ClusterSim(tiny_topology, seed=7)
    sim.inject(FaultScenario(FaultKind.NODE_DECOMMISSION, "n1", 0))
    sim.step()
    with pytest.raises(UnknownEntityError):
        sim.apply_action(ActionKind.DRAIN_NODE, "ghost")
    with pytest.raises(DecommissionedEntityError):
        sim.apply_action(ActionKind.DRAIN_NODE, "n1")


def _reference_apply_action(sim: ClusterSim, kind: ActionKind, target: str) -> ActionResult:
    """`ClusterSim.apply_action` as it was before it walked only the faults
    that can still act: every fault ever injected is tried."""
    action = ActionKind(kind)
    if target not in sim._all_entities:
        raise UnknownEntityError(f"action target does not exist: {target!r}")
    if target in sim._removed:
        raise DecommissionedEntityError(
            f"action {action.value} targets decommissioned entity {target!r}"
        )
    cleared = []
    for fault in sim._faults:
        scen = fault.scenario
        if fault.cleared_at is not None:
            continue
        if scen.start_tick > sim.tick:
            continue
        if scen.duration is not None and sim.tick >= scen.start_tick + scen.duration:
            continue
        if REMEDY[fault.kind] is action and scen.target == target:
            fault.cleared_at = sim.tick
            cleared.append(fault.kind.value)
    if cleared:
        return ActionResult(action.value, target, sim.tick, True, "cleared " + ", ".join(cleared))
    return ActionResult(action.value, target, sim.tick, False, "no matching active fault")


def _reference_fault_cleared(sim: ClusterSim, scenario: FaultScenario) -> bool:
    """`ClusterSim.fault_cleared` as a walk: the first equal fault decides."""
    for fault in sim._faults:
        if fault.scenario == scenario:
            return fault.cleared_at is not None
    return False


_ACTION_TICKS = 14
_TARGETS = {
    FaultKind.DNS_ERROR_BURST: ["svc-back", "svc-front"],
    FaultKind.TOR_PACKET_LOSS: ["sw1"],
    FaultKind.INGRESS_THROTTLE: ["svc-back", "svc-front"],
    FaultKind.NOISY_NEIGHBOR: ["n1", "n2"],
    FaultKind.NODE_DECOMMISSION: ["n1", "n2"],
}
_ANY_TARGET = ["n1", "n2", "p-front-1", "p-back-1", "svc-back", "svc-front", "sw1", "r1", "ghost"]


@st.composite
def action_scripts(draw):
    """(tick, op) pairs in the order they run: an op is a scenario to inject
    or an (action, target) pair. Each fault gets up to two remedies, from a
    tick before its start to one after its end, so remedies land at the
    start tick, on a cleared fault, on an expired fault, and as drain_node
    on a decommission pending or done. Some faults get an equal twin,
    injected at its own tick; random actions and targets come on top."""
    scripted = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(list(FaultKind)))
        start = draw(st.integers(0, _ACTION_TICKS - 2))
        duration = None if kind is FaultKind.NODE_DECOMMISSION else draw(st.integers(1, 4))
        scen = FaultScenario(kind, draw(st.sampled_from(_TARGETS[kind])), start, duration,
                             draw(st.sampled_from([0.5, 0.8])))
        twins = [scen] + [dataclasses.replace(scen) for _ in range(draw(st.integers(0, 1)))]
        scripted += [(draw(st.integers(0, start)), twin) for twin in twins]
        for offset in draw(st.lists(st.integers(-1, (duration or 2) + 1), max_size=2)):
            scripted.append((max(0, start + offset), (REMEDY[kind], scen.target)))
    scripted += draw(st.lists(st.tuples(
        st.integers(0, _ACTION_TICKS - 1),
        st.tuples(st.sampled_from(list(ActionKind)), st.sampled_from(_ANY_TARGET)),
    ), max_size=4))
    return sorted(draw(st.permutations(scripted)), key=lambda pair: pair[0])


def _outcome(apply, kind, target):
    try:
        return apply(kind, target)
    except (UnknownEntityError, DecommissionedEntityError) as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(action_scripts())
def test_actions_and_fault_cleared_equal_a_walk_over_every_fault(script):
    topology = build_topology(tiny_topology_spec())
    sim, ref = ClusterSim(topology, seed=3), ClusterSim(topology, seed=3)
    scenarios = [op for _, op in script if isinstance(op, FaultScenario)]
    scenarios.append(FaultScenario(FaultKind.NOISY_NEIGHBOR, "n1", 99, duration=1))  # never injected
    by_tick: dict[int, list] = {}
    for tick, op in script:
        by_tick.setdefault(tick, []).append(op)
    for tick in range(script[-1][0] + 2):
        for op in by_tick.get(tick, ()):
            if isinstance(op, FaultScenario):
                sim.inject(op)
                ref.inject(op)
            else:
                assert _outcome(sim.apply_action, *op) == _outcome(
                    functools.partial(_reference_apply_action, ref), *op)
            for scen in scenarios:
                assert sim.fault_cleared(scen) == _reference_fault_cleared(ref, scen)
        assert sim.step() == ref.step()


# -- decommission ----------------------------------------------------------------


def test_decommission_emits_once_and_removes_node_with_pods(tiny_topology):
    sim = ClusterSim(tiny_topology, seed=7)
    sim.inject(FaultScenario(FaultKind.NODE_DECOMMISSION, "n1", 1))
    _, events = sim.step()
    assert events == []
    samples, events = sim.step()  # tick 1
    assert events == [RawEvent(1, "n1", "node_decommissioned", (("generation", "gen-7"),))]
    entities = {s.entity for s in samples}
    assert "n1" not in entities and "p-front-1" not in entities and "p-back-1" not in entities
    assert "n2" in entities and "p-back-2" in entities
    _, events = sim.step()  # no repeat event
    assert events == []
    assert sim.is_removed("n1")
    assert "n1" not in sim.live_entities()


# -- stream serialization ----------------------------------------------------------


def test_stream_round_trip(tiny_topology):
    sim = ClusterSim(tiny_topology, seed=4)
    sim.inject(FaultScenario(FaultKind.DNS_ERROR_BURST, "svc-back", 0, duration=1, magnitude=0.5))
    samples, events = sim.step()
    lines = stream_lines(samples, events)
    parsed = [parse_stream_line(line) for line in lines]
    assert parsed == list(samples) + events
    with pytest.raises(ValueError):
        parse_stream_line('{"tick": 0}')


def test_metrics_cover_expected_surface(tiny_topology):
    sim = ClusterSim(tiny_topology, seed=4)
    samples, _ = sim.step()
    per_entity = {}
    for s in samples:
        per_entity.setdefault(s.entity, set()).add(s.metric)
    # nodes, pods, and services all emit the full metric tuple
    for entity, metrics in per_entity.items():
        assert metrics == set(METRICS), entity
    assert set(per_entity) == {
        "n1", "n2", "p-back-1", "p-back-2", "p-front-1", "svc-back", "svc-front",
    }


# -- skipping ticks ------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    faults=st.lists(st.tuples(st.sampled_from(list(FaultKind)), st.integers(0, 12), st.integers(1, 6)),
                    min_size=1, max_size=5),
    node=st.sampled_from(["n1", "n2"]),
    skip=st.tuples(st.integers(0, 14), st.integers(0, 14)),
    clear=st.integers(0, 14),
)
def test_skip_to_leaves_the_fleet_as_stepping_does(faults, node, skip, clear):
    topology = build_topology(tiny_topology_spec())
    sim, ref = ClusterSim(topology, seed=5), ClusterSim(topology, seed=5)
    scenarios = []
    for kind, start, duration in faults:
        target = {FaultKind.NOISY_NEIGHBOR: node, FaultKind.NODE_DECOMMISSION: node}.get(
            kind, _TARGETS[kind][0])
        scen = FaultScenario(kind, target, start, None if kind is FaultKind.NODE_DECOMMISSION else duration)
        scenarios.append(scen)
        sim.inject(scen)
        ref.inject(scen)
    first, last = min(skip), max(skip)
    for tick in range(first):
        assert sim.step() == ref.step()
        if tick == clear:  # a fault cleared before the span
            kind, target = REMEDY[scenarios[0].kind], scenarios[0].target
            if not sim.is_removed(target):
                assert sim.apply_action(kind, target) == ref.apply_action(kind, target)
    sim.skip_to(last)
    while ref.tick < last:
        ref.step()
    sim.skip_to(last - 1)  # no step back
    assert sim.tick == ref.tick == last
    assert sim.live_entities() == ref.live_entities()
    assert [f.scenario for f in sim._acting] == [f.scenario for f in ref._acting]
    assert [sim.fault_cleared(s) for s in scenarios] == [ref.fault_cleared(s) for s in scenarios]
    for _ in range(16):
        assert sim.step() == ref.step()
