"""The columnar telemetry plane against its references.

Each tick's frame must equal a scalar, sample-by-sample recomputation of
the tick, and the detector over the feed's window must raise exactly the
alerts of the record-list reference (`conftest.detect_records`) over the
same records. The
simulator walks only the faults that can still act; the reference walks
every fault ever injected."""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from opsloop.cluster import SIM_STREAM, ClusterSim, FaultScenario, RawEvent, TelemetrySample, build_topology
from opsloop.config import BASELINES, HEADROOM, METRICS, NOISE_PCT, REMEDY, FaultKind
from opsloop.ingest import TelemetryFeed, detect_anomalies, normalize

from conftest import detect_records, small_topology_spec, tiny_topology_spec

TICKS = 24
RATIO_METRICS = ("cpu_util", "mem_util", "disk_io", "packet_loss_rate")


class ScalarSim:
    """The simulator's tick computed one sample at a time, with per-sample
    dict lookups and clamps: the reference for the frame."""

    def __init__(self, topology, seed: int, noise_pct: float):
        self.topology, self.seed, self.noise_pct = topology, seed, noise_pct
        self.order = topology.emitting_entities()
        # [scenario, offsets, emitters, decommission done, cleared at]
        self.faults: list[list] = []
        self.removed: set[str] = set()
        self.tick = 0

    def inject(self, scen: FaultScenario) -> None:
        topo, offsets = self.topology, {}

        def add(entity, metric):
            offsets[(entity, metric)] = offsets.get((entity, metric), 0.0) + scen.magnitude * HEADROOM[metric]

        emitters = ()
        if scen.kind is FaultKind.DNS_ERROR_BURST:
            for svc in topo.callers_of(scen.target):
                add(svc, "net_latency_ms")
            emitters = (scen.target,)
        elif scen.kind is FaultKind.TOR_PACKET_LOSS:
            for pod in topo.pods_behind_switch(scen.target):
                add(pod, "packet_loss_rate")
                add(pod, "net_latency_ms")
        elif scen.kind is FaultKind.INGRESS_THROTTLE:
            add(scen.target, "net_latency_ms")
        elif scen.kind is FaultKind.NOISY_NEIGHBOR:
            for pod in topo.pods_on_node(scen.target):
                add(pod, "cpu_util")
                add(pod, "disk_io")
        self.faults.append([scen, offsets, emitters, False, None])

    def clear(self, scen: FaultScenario) -> None:
        """The fault stops contributing from the next tick on, as when an
        action clears it between two steps."""
        for fault in self.faults:
            if fault[0] == scen:
                fault[4] = self.tick

    def step(self) -> tuple[list[TelemetrySample], list[RawEvent]]:
        tick, events = self.tick, []
        for fault in self.faults:
            scen = fault[0]
            if scen.kind is FaultKind.NODE_DECOMMISSION and not fault[3] and tick >= scen.start_tick:
                fault[3] = True
                if scen.target not in self.removed:
                    gen = self.topology.generation_of_node[scen.target]
                    events.append(RawEvent(tick, scen.target, "node_decommissioned", (("generation", gen),)))
                    self.removed.add(scen.target)
                    self.removed.update(self.topology.pods_on_node(scen.target))
        offsets: dict[tuple[str, str], float] = {}
        for scen, fault_offsets, emitters, _, cleared_at in self.faults:
            end = None if scen.duration is None else scen.start_tick + scen.duration
            if tick < scen.start_tick or (end is not None and tick >= end):
                continue
            if cleared_at is not None and tick >= cleared_at:
                continue
            for key, off in fault_offsets.items():
                if key[0] not in self.removed:
                    offsets[key] = offsets.get(key, 0.0) + off
            for emitter in emitters:
                if emitter not in self.removed:
                    events.append(RawEvent(tick, emitter, "dns_error", (("scope", emitter),)))
        rng = np.random.default_rng((self.seed, SIM_STREAM, tick))
        noise = rng.uniform(-1.0, 1.0, size=(len(self.order), len(METRICS)))
        samples = []
        for i, entity in enumerate(self.order):
            if entity in self.removed:
                continue
            for j, metric in enumerate(METRICS):
                base = BASELINES[metric]
                value = base + offsets.get((entity, metric), 0.0) + noise[i, j] * self.noise_pct * base
                value = min(1.0, max(0.0, value)) if metric in RATIO_METRICS else max(0.0, value)
                samples.append(TelemetrySample(tick, entity, metric, value))
        self.tick = tick + 1
        return samples, events


@st.composite
def fault_scripts(draw):
    topology = build_topology(draw(st.sampled_from([tiny_topology_spec, small_topology_spec]))())
    targets = {
        FaultKind.DNS_ERROR_BURST: topology.services,
        FaultKind.TOR_PACKET_LOSS: topology.switches,
        FaultKind.INGRESS_THROTTLE: topology.services,
        FaultKind.NOISY_NEIGHBOR: topology.nodes,
    }
    faults = [
        FaultScenario(
            kind,
            draw(st.sampled_from(targets[kind])),
            start_tick=draw(st.integers(0, TICKS - 1)),
            duration=draw(st.integers(1, 12)),
            magnitude=draw(st.floats(0.01, 1.0)),
        )
        for kind in draw(st.lists(st.sampled_from(sorted(targets)), min_size=1, max_size=5))
    ]
    # Decommissions land inside the run, so windows straddle a removal;
    # a node may be decommissioned twice.
    faults += [
        FaultScenario(FaultKind.NODE_DECOMMISSION, node, start_tick=draw(st.integers(1, TICKS - 2)))
        for node in draw(st.lists(st.sampled_from(topology.nodes), min_size=1, max_size=2))
    ]
    sim_noise = draw(st.sampled_from([NOISE_PCT, 0.05]))
    window_ticks = draw(st.integers(1, 6))
    return {
        "topology": topology,
        "faults": faults,
        "seed": draw(st.integers(0, 2**16)),
        "sim_noise": sim_noise,
        "window_ticks": window_ticks,
        "min_ticks": draw(st.integers(1, window_ticks)),
        "noise_pct": draw(st.one_of(st.none(), st.just(sim_noise), st.floats(0.001, 0.2))),
    }


def run_both(topology, faults, seed, sim_noise, window_ticks, min_ticks, noise_pct):
    """Step the feed and the scalar reference together; yield per tick the
    columnar and the record-path alerts."""
    sim = ClusterSim(topology, seed=seed, noise_pct=sim_noise)
    oracle = ScalarSim(topology, seed, sim_noise)
    for fault in faults:
        sim.inject(fault)
        oracle.inject(fault)
    feed = TelemetryFeed(sim, window_ticks=window_ticks)
    for _ in range(TICKS):
        batch = feed.step()
        samples, events = oracle.step()
        assert list(batch.frame) == samples
        assert list(batch.events) == [normalize(e) for e in events]
        assert len(batch) == len(samples) + len(events)
        window = feed.window()
        assert len(window) == len(list(window))
        columnar = detect_anomalies(window, min_ticks=min_ticks, noise_pct=noise_pct)
        records = detect_records(list(window), min_ticks=min_ticks, noise_pct=noise_pct)
        yield columnar, records


@settings(max_examples=40, deadline=None)
@given(fault_scripts())
def test_columnar_plane_matches_the_scalar_and_record_references(script):
    for columnar, records in run_both(**script):
        assert columnar == records


def test_columnar_alerts_across_a_removal_inside_the_window(small_topology):
    # node-1's pods run hot from tick 2; node-1 goes at tick 9, so for a
    # while the window holds ticks with and without its pods.
    faults = [
        FaultScenario(FaultKind.NOISY_NEIGHBOR, "node-1", start_tick=2, duration=20, magnitude=0.7),
        FaultScenario(FaultKind.NODE_DECOMMISSION, "node-1", start_tick=9),
    ]
    seen = []
    for tick, (columnar, records) in enumerate(run_both(
        small_topology, faults, seed=3, sim_noise=NOISE_PCT, window_ticks=5, min_ticks=3, noise_pct=None,
    )):
        assert columnar == records
        seen.append((tick, columnar))
    pods = set(small_topology.pods_on_node("node-1"))
    hot = {tick: {a.entity for a in alerts if a.attribute == "cpu_high"} for tick, alerts in seen}
    assert hot[8] == pods
    # 3 live ticks (6, 7, 8) are still in the window at tick 10, none at tick 11
    assert hot[10] == pods and hot[11] == set()
    evidence_ticks = {r.tick for a in seen[10][1] if a.attribute == "cpu_high" for r in a.evidence}
    assert max(evidence_ticks) == 8


def test_step_walks_only_the_faults_that_can_still_act(small_topology):
    # 50 DNS bursts that expire one after another, a noisy neighbour
    # cleared by its remedy while active, and a decommission.
    services = small_topology.services
    faults = [
        FaultScenario(FaultKind.DNS_ERROR_BURST, services[i % len(services)],
                      start_tick=i, duration=1 + i % 3, magnitude=0.4)
        for i in range(50)
    ]
    hot = FaultScenario(FaultKind.NOISY_NEIGHBOR, "node-2", start_tick=52, duration=30, magnitude=0.6)
    gone = FaultScenario(FaultKind.NODE_DECOMMISSION, "node-5", start_tick=58)
    faults += [hot, gone]
    sim = ClusterSim(small_topology, seed=11)
    oracle = ScalarSim(small_topology, 11, NOISE_PCT)
    for fault in faults:
        sim.inject(fault)
        oracle.inject(fault)
    for tick in range(70):
        if tick == 56:
            assert sim.apply_action(REMEDY[FaultKind.NOISY_NEIGHBOR], "node-2").success
            oracle.clear(hot)
        frame, events = sim.step()
        samples, oracle_events = oracle.step()
        assert list(frame) == samples
        assert events == oracle_events
        # Bursts last at most 3 ticks, so at most 3 started ones, the
        # two later faults and the bursts still to come are walked.
        assert len(sim._acting) <= 5 + max(0, 49 - tick)
    assert sim.fault_cleared(hot)
    assert sim.is_removed("node-5")
    assert len(sim._faults) == 52
    assert sim._acting == []
