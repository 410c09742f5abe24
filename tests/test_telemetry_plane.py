"""The columnar telemetry plane against its references.

Each tick's noise must equal numpy's own `default_rng((seed, SIM_STREAM,
tick))` draw, each tick's frame a scalar, sample-by-sample recomputation
of the tick, and the detector over the feed's window must raise exactly
the alerts of the record-list reference (`conftest.detect_records`) over
the same records. The simulator walks only the faults that can still act;
the reference walks every fault ever injected. The detector scores only
the series with a stray cell; the reference scores every series, so
windows with samples at the edges of the stray threshold and of the alarm
band pin the pruning. A quiet frame must answer as its drawn values do."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opsloop.cluster import (
    SIM_STREAM, ClusterSim, FaultScenario, RawEvent, TelemetrySample, TickFrame, _TickNoise, build_topology,
)
from opsloop.config import (
    ANOMALY_ATTR, BASELINES, DETECT_K, HEADROOM, METRICS, NOISE_PCT, REMEDY, FaultKind, metric_sigma,
)
from opsloop.ingest import FeedWindow, TelemetryFeed, TickBatch, _bands, detect_anomalies, normalize
from opsloop.orchestrator import AgentLoop, LoopParams
from opsloop.reasoner import StopCondition

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


# -- stray-cell pruning ------------------------------------------------------------

# Sample offsets from the baseline in units of the alarm band K sigma: on
# either side of the stray threshold (0.9) and of the band itself, and past
# it. A series held at 1.05 fires only over a long window, and only if it
# is scored.
BAND_LEVELS = (0.0, 0.5, 0.9 * (1 - 1e-9), 0.9, 0.9 * (1 + 1e-9), 1 - 1e-9, 1.0, 1 + 1e-9, 1.05, 2.0, 9.0)
# Absolute offsets, for the sigma = 0 column and for bands below rounding.
TINY_OFFSETS = (5e-324, 1e-300, 1e-17)
# Noise levels: the simulator's, others, and levels whose alarm band is
# below the rounding of an EWMA of baseline samples (no pruning there).
DETECT_NOISE = (None, NOISE_PCT, 0.005, 0.05, 1e-9, 1e-13, 1e-15, 1e-17)


def frame_window(values: np.ndarray, live: np.ndarray) -> FeedWindow:
    """A feed window straight from (tick, entity, metric) values and
    (tick, entity) live masks."""
    entities = tuple(f"pod-{i}" for i in range(values.shape[1]))
    rows = {e: i for i, e in enumerate(entities)}
    return FeedWindow(
        TickBatch(TickFrame(t, entities, rows, values[t], live[t]), ())
        for t in range(len(values))
    )


def edge_values(rng: np.random.Generator, ticks: int, entities: int, noise_pct, held: float) -> np.ndarray:
    """Samples at the levels above, each series at one level of one sign
    with probability `held` per tick, some at the stray threshold itself."""
    base = np.array([BASELINES[m] for m in METRICS])
    band = DETECT_K * np.array(_bands(noise_pct).sigma)
    stray = _bands(noise_pct).stray
    shape = (ticks, entities, len(METRICS))
    level = np.where(rng.random(shape) < held, rng.choice(BAND_LEVELS, size=shape[1:]),
                     rng.choice(BAND_LEVELS, size=shape))
    sign = np.where(rng.random(shape[1:]) < 0.5, -1.0, 1.0)
    values = base + sign * level * band
    at_threshold = rng.random(shape) < 0.1
    values = np.where(at_threshold, base + sign * np.maximum(stray, 0.0), values)
    tiny = rng.random(shape) < 0.1
    return np.where(tiny, base + rng.choice(TINY_OFFSETS, size=shape), values)


@settings(max_examples=150, deadline=None)
@given(
    ticks=st.integers(1, 24),
    entities=st.integers(1, 3),
    noise_pct=st.sampled_from(DETECT_NOISE),
    held=st.sampled_from([0.7, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_pruned_detector_matches_the_reference_at_the_band_edges(ticks, entities, noise_pct, held, seed, data):
    rng = np.random.default_rng(seed)
    values = edge_values(rng, ticks, entities, noise_pct, held)
    # Removal is permanent, so each entity is live for a prefix of the
    # window; its dead ticks hold samples far out of band.
    live_for = rng.integers(0, ticks + 1, size=entities)
    live = np.arange(ticks)[:, None] < live_for[None, :]
    values = np.where(live[:, :, None], values, values + 1e3)
    window = frame_window(values, live)
    min_ticks = data.draw(st.integers(1, ticks))
    assert detect_anomalies(window, min_ticks=min_ticks, noise_pct=noise_pct) == detect_records(
        list(window), min_ticks=min_ticks, noise_pct=noise_pct
    )


def test_a_series_just_inside_the_band_fires_only_when_scored():
    # 24 ticks at 1.05 K sigma: the EWMA ends at 1.05 (1 - 0.7**24) K
    # sigma, past the band, though no single sample is far out.
    band = DETECT_K * metric_sigma("cpu_util")
    values = np.full((24, 1, len(METRICS)), 0.0) + np.array([BASELINES[m] for m in METRICS])
    values[:, 0, METRICS.index("cpu_util")] += 1.05 * band
    window = frame_window(values, np.ones((24, 1), dtype=bool))
    alerts = detect_anomalies(window)
    assert [(a.entity, a.attribute) for a in alerts] == [("pod-0", "cpu_high")]
    assert alerts == detect_records(list(window))
    # every sample is past the evidence floor of 2 sigma, and all are cited
    assert len(alerts[0].evidence) == 24 and alerts[0].tick == 23


def test_baseline_samples_fire_on_rounding_when_the_band_is_below_it():
    # At noise 1e-17 the alarm band of mem_util (about 7e-18) is below the
    # rounding of 0.3 * 0.4 + 0.7 * 0.4 = 0.39999999999999997, so a series
    # held at its baseline fires and must not be pruned.
    values = np.tile(np.array([BASELINES[m] for m in METRICS]), (5, 1, 1))
    window = frame_window(values, np.ones((5, 1), dtype=bool))
    alerts = detect_anomalies(window, noise_pct=1e-17)
    assert "mem_high" in {a.attribute for a in alerts}
    assert alerts == detect_records(list(window), noise_pct=1e-17)
    assert detect_anomalies(window) == []


def test_one_window_scored_under_two_noise_levels_in_turn(small_topology):
    # The coarse level finds few stray cells; the fine one, scored after it
    # on the same batches, must not reuse them.
    sim = ClusterSim(small_topology, seed=5)
    sim.inject(FaultScenario(FaultKind.NOISY_NEIGHBOR, "node-2", start_tick=3, duration=30, magnitude=0.2))
    feed = TelemetryFeed(sim, window_ticks=5)
    for _ in range(8):
        feed.step()
    window = feed.window()
    results = {}
    for noise_pct in (0.2, 0.004, 0.2, None, 0.004):
        alerts = detect_anomalies(window, noise_pct=noise_pct)
        assert alerts == detect_records(list(window), noise_pct=noise_pct)
        results.setdefault(noise_pct, alerts)
        assert alerts == results[noise_pct]
    assert len(results[0.004]) > len(results[0.2])
    newest = window.batches[-1]
    assert newest.strays(0.2).size < newest.strays(0.004).size


def test_detection_noise_below_the_simulators_lets_noise_past_the_threshold(small_topology):
    # The simulator's noise reaches 0.05 b; at a detection level of 0.01 the
    # stray threshold is about 0.016 b, so about 2 in 3 cells of the five
    # noisy metrics are strays (`pod_restarts` never is).
    sim = ClusterSim(small_topology, seed=8, noise_pct=0.05)
    sim.inject(FaultScenario(FaultKind.DNS_ERROR_BURST, "svc-dns", start_tick=6, duration=6, magnitude=0.3))
    feed = TelemetryFeed(sim, window_ticks=5)
    fired = 0
    for _ in range(TICKS):
        batch = feed.step()
        window = feed.window()
        alerts = detect_anomalies(window, min_ticks=3, noise_pct=0.01)
        assert alerts == detect_records(list(window), min_ticks=3, noise_pct=0.01)
        fired += len(alerts)
        assert batch.strays(0.01).size > batch.frame.values.size // 3
    assert fired > 0


def test_a_decommissioned_row_is_scored_on_its_live_ticks_only(small_topology):
    # node-3's pods run hot and node-3 goes at tick 4; the simulator keeps
    # offsetting the dead rows, so their dead ticks hold out-of-band values
    # that neither the stray index nor the recurrence may read.
    sim = ClusterSim(small_topology, seed=2)
    sim.inject(FaultScenario(FaultKind.NOISY_NEIGHBOR, "node-3", start_tick=0, duration=40, magnitude=0.8))
    sim.inject(FaultScenario(FaultKind.NODE_DECOMMISSION, "node-3", start_tick=4))
    feed = TelemetryFeed(sim, window_ticks=5)
    pods = small_topology.pods_on_node("node-3")
    cpu = METRICS.index("cpu_util")
    for tick in range(10):
        batch = feed.step()
        window = feed.window()
        alerts = detect_anomalies(window, min_ticks=2)
        assert alerts == detect_records(list(window), min_ticks=2)
        frame = batch.frame
        dead = [frame.rows[p] for p in pods if not frame.live[frame.rows[p]]]
        assert bool(dead) == (tick >= 4)
        for row in dead:
            assert frame.values[row, cpu] > BASELINES["cpu_util"] + 0.5
            assert not set(batch.strays(None).tolist()) & set(range(row * len(METRICS), (row + 1) * len(METRICS)))
        hot = {a.entity for a in alerts if a.attribute == "cpu_high"}
        # a series needs two live ticks: from tick 1, and up to tick 6,
        # when ticks 2 and 3 are the last live ones in the window
        assert hot == (set(pods) if 1 <= tick <= 6 else set())


@pytest.mark.parametrize("noise_pct", [0.0, -0.02, float("nan"), float("inf")])
def test_detector_rejects_a_noise_level_that_is_not_a_finite_positive_number(noise_pct, small_topology):
    feed = TelemetryFeed(ClusterSim(small_topology, seed=1))
    feed.step()
    with pytest.raises(ValueError, match="noise_pct must be a finite number > 0"):
        detect_anomalies(feed.window(), noise_pct=noise_pct)


# -- block-seeded noise and quiet frames ---------------------------------------------

# Tick 0, the edges of the first blocks, and the last block below 2**32 and
# the first ones past it, where the block code falls back to `default_rng`.
EDGE_TICKS = (0, 1, 255, 256, 511, 512, 2**32 - 257, 2**32 - 256, 2**32 - 1,
              2**32, 2**32 + 1, 2**32 + 255, 2**32 + 256, 2**32 + 299)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64]), st.integers(0, 2**70 - 1)),
    ticks=st.lists(st.one_of(st.sampled_from(EDGE_TICKS), st.integers(0, 2**32 + 299)), min_size=1, max_size=10),
)
def test_block_seeded_noise_is_numpys_default_rng_at_every_tick(seed, ticks):
    # Ticks come in random order, so a block is left and read again.
    shape = (3, len(METRICS))
    noise = _TickNoise(seed, shape)
    for tick in ticks:
        expected = np.random.default_rng((seed, SIM_STREAM, tick)).uniform(-1.0, 1.0, shape)
        assert np.array_equal(noise.uniform(tick), expected), tick


def test_frames_read_late_and_out_of_order_equal_the_scalar_reference(tiny_topology):
    # 600 ticks cross two block edges; each frame is read only after the
    # simulator has moved on, most of them from an earlier block.
    sim, oracle = ClusterSim(tiny_topology, seed=6), ScalarSim(tiny_topology, 6, NOISE_PCT)
    for sim_or_oracle in (sim, oracle):
        sim_or_oracle.inject(FaultScenario(FaultKind.NOISY_NEIGHBOR, "n2", start_tick=250, duration=12))
        sim_or_oracle.inject(FaultScenario(FaultKind.NODE_DECOMMISSION, "n1", start_tick=300))
    frames = [sim.step()[0] for _ in range(600)]
    expected = [oracle.step()[0] for _ in range(600)]
    assert sum(f.envelope is None for f in frames) == 12
    for tick in np.random.default_rng(0).permutation(600).tolist():
        assert list(frames[tick]) == expected[tick], tick


def _quiet_twin(batch: TickBatch) -> TickBatch:
    """The batch with its frame drawn and no envelope: every answer from
    the drawn values."""
    f = batch.frame
    return TickBatch(TickFrame(f.tick, f.entities, f.rows, f.values, f.live), batch.events)


@settings(max_examples=150, deadline=None)
@given(
    sim_noise=st.sampled_from([1e-17, 1e-13, NOISE_PCT, 0.3, 5.0]),
    detect=st.one_of(st.sampled_from([1e-17, 1e-13, 5.0, "equal", None]),
                     st.floats(0.1, 0.999).map(lambda share: ("below", share))),
    seed=st.integers(0, 2**16),
    gone=st.lists(st.sampled_from(["node-1", "node-4"]), max_size=2),
    stops=st.lists(st.tuples(st.sampled_from(sorted(ANOMALY_ATTR.values())),
                             st.sets(st.sampled_from(["node-2", "pod-dns-1", "pod-ledger-2", "svc-dns",
                                                      "node-1", "pod-checkout-1"]))),
                   min_size=1, max_size=4),
)
def test_a_quiet_frame_answers_as_its_drawn_values_do(sim_noise, detect, seed, gone, stops):
    # A detection level below the simulator's puts the stray threshold
    # inside the noise, so those frames must be drawn.
    if detect == "equal":
        detect = sim_noise
    elif isinstance(detect, tuple):
        detect = sim_noise * detect[1]
    sim = ClusterSim(build_topology(small_topology_spec()), seed=seed, noise_pct=sim_noise)
    for node in gone:
        sim.inject(FaultScenario(FaultKind.NODE_DECOMMISSION, node, start_tick=1))
    drawn = []
    draw = sim._draw
    sim._draw = lambda tick, level: drawn.append(tick) or draw(tick, level)
    loop = AgentLoop(None, None, LoopParams(noise_pct=NOISE_PCT if detect is None else detect))
    for _ in range(3):
        frame, _ = sim.step()
        assert frame.envelope is not None
        quiet = TickBatch(frame, ())
        strays = quiet.strays(detect)
        met = [loop._stop_met(quiet, StopCondition(attr, frozenset(ents))) for attr, ents in stops]
        if detect == sim_noise > 1e-13:  # the envelope settles both answers (see `_bands`)
            assert frame.tick not in drawn
            assert strays.size == 0 and all(met)
        twin = _quiet_twin(quiet)
        assert np.array_equal(strays, twin.strays(detect))
        assert met == [loop._stop_met(twin, StopCondition(attr, frozenset(ents))) for attr, ents in stops]
