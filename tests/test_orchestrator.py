"""State machine legality, budget ledger, decomposition, full loop episodes."""
from __future__ import annotations

import numpy as np
import pytest

from opsloop.cluster import ClusterSim, FaultScenario, TickFrame, build_topology
from opsloop.config import BASELINES, METRICS, NOISE_PCT, SECTION_ORDER, TARIFF_MEMORY_ITEM
from opsloop.contextpack import BudgetPolicy, IncidentDescriptor, update_weights
from opsloop.ingest import TelemetryFeed, TickBatch, UnifiedRecord
from opsloop.memory import (
    EpisodicStore,
    KnowledgeGraph,
    Memories,
    Runbook,
    RunbookStore,
    ShortTermBuffer,
    bootstrap_from_topology,
    default_ontology,
)
from opsloop.orchestrator import (
    AgentLoop,
    BudgetLedger,
    Event,
    LoopParams,
    OrchestratorState,
    Phase,
    TransitionError,
    decompose,
    legal_transition_triples,
    transition,
)
from opsloop.reasoner import StopCondition

from conftest import tiny_topology_spec


# -- pure transition function ---------------------------------------------------


def test_happy_path_transitions():
    state = OrchestratorState()
    sequence = [
        (Event.ALERT_RAISED, Phase.DETECTING),
        (Event.ALERT_RAISED, Phase.ENRICHING),
        (Event.PACK_READY, Phase.DIAGNOSING),
        (Event.HYPOTHESES_READY, Phase.SELECTING),
        (Event.PLAN_READY, Phase.EXECUTING),
        (Event.ACTION_DONE, Phase.VERIFYING),
        (Event.SYMPTOMS_CLEAR, Phase.LOGGING),
        (Event.EPISODE_LOGGED, Phase.IDLE),
    ]
    for event, expected in sequence:
        state = transition(state, event)
        assert state.phase is expected


def test_retry_branch_counts_attempts():
    state = OrchestratorState(phase=Phase.VERIFYING, attempt=1, escalation_after=3)
    state = transition(state, Event.SYMPTOMS_PERSIST)
    assert state.phase is Phase.SELECTING and state.attempt == 2
    state = transition(OrchestratorState(phase=Phase.VERIFYING, attempt=2,
                                         escalation_after=3), Event.SYMPTOMS_PERSIST)
    assert state.phase is Phase.SELECTING and state.attempt == 3
    state = transition(OrchestratorState(phase=Phase.VERIFYING, attempt=3,
                                         escalation_after=3), Event.SYMPTOMS_PERSIST)
    assert state.phase is Phase.ESCALATED


def test_logging_branches_on_learning_due():
    idle = transition(OrchestratorState(phase=Phase.LOGGING, learning_due=False),
                      Event.EPISODE_LOGGED)
    assert idle.phase is Phase.IDLE
    learn = transition(OrchestratorState(phase=Phase.LOGGING, learning_due=True),
                       Event.EPISODE_LOGGED)
    assert learn.phase is Phase.LEARNING
    done = transition(learn, Event.LEARNING_DONE)
    assert done.phase is Phase.IDLE


def test_abstain_goes_terminal():
    state = transition(OrchestratorState(phase=Phase.DIAGNOSING), Event.ABSTAIN)
    assert state.phase is Phase.ESCALATED


def test_budget_exceeded_from_any_live_phase():
    for phase in Phase:
        if phase is Phase.ESCALATED:
            continue
        state = transition(OrchestratorState(phase=phase), Event.BUDGET_EXCEEDED)
        assert state.phase is Phase.ESCALATED
    with pytest.raises(TransitionError):
        transition(OrchestratorState(phase=Phase.ESCALATED), Event.BUDGET_EXCEEDED)


# Every (from, event, to) the machine may emit, pinned as a literal.
LEGAL_TRIPLES = frozenset({
    ("Detecting", "alert_raised", "Enriching"),
    ("Detecting", "budget_exceeded", "Escalated"),
    ("Diagnosing", "abstain", "Escalated"),
    ("Diagnosing", "budget_exceeded", "Escalated"),
    ("Diagnosing", "hypotheses_ready", "Selecting"),
    ("Enriching", "budget_exceeded", "Escalated"),
    ("Enriching", "pack_ready", "Diagnosing"),
    ("Executing", "action_done", "Verifying"),
    ("Executing", "budget_exceeded", "Escalated"),
    ("Idle", "alert_raised", "Detecting"),
    ("Idle", "budget_exceeded", "Escalated"),
    ("Idle", "idle_timeout", "Idle"),
    ("Learning", "budget_exceeded", "Escalated"),
    ("Learning", "learning_done", "Idle"),
    ("Logging", "budget_exceeded", "Escalated"),
    ("Logging", "episode_logged", "Idle"),
    ("Logging", "episode_logged", "Learning"),
    ("Selecting", "budget_exceeded", "Escalated"),
    ("Selecting", "plan_ready", "Executing"),
    ("Verifying", "budget_exceeded", "Escalated"),
    ("Verifying", "symptoms_clear", "Logging"),
    ("Verifying", "symptoms_persist", "Escalated"),
    ("Verifying", "symptoms_persist", "Selecting"),
})


def test_every_phase_event_pair_is_legal_or_raises():
    produced = set()
    for phase in Phase:
        for event in Event:
            for attempt in (1, 2, 3):
                for due in (False, True):
                    state = OrchestratorState(phase=phase, attempt=attempt,
                                              escalation_after=3, learning_due=due)
                    try:
                        nxt = transition(state, event)
                    except TransitionError as exc:
                        assert f"{phase.value} + {event.value}" in str(exc)
                        continue
                    triple = (phase.value, event.value, nxt.phase.value)
                    retry = triple == ("Verifying", "symptoms_persist", "Selecting")
                    assert nxt.attempt == attempt + retry, triple
                    assert nxt.learning_due == due and nxt.escalation_after == 3
                    produced.add(triple)
    assert len(LEGAL_TRIPLES) == 23
    assert produced == legal_transition_triples() == LEGAL_TRIPLES


def test_illegal_transition_message_names_the_pair():
    with pytest.raises(TransitionError, match="Idle.*pack_ready"):
        transition(OrchestratorState(), Event.PACK_READY)


# -- ledger --------------------------------------------------------------------


def test_ledger_charging_and_exhaustion():
    ledger = BudgetLedger(compute_limit=5.0, tool_call_limit=2)
    ledger.charge("detector", 2.0)
    ledger.charge("reasoner", 3.0)
    assert ledger.total == 5.0 and not ledger.exhausted  # at the limit is fine
    ledger.charge("memory", 0.01)
    assert ledger.exhausted
    with pytest.raises(ValueError):
        ledger.charge("detector", -1.0)
    snap = ledger.snapshot()
    assert snap["units"] == {"detector": 2.0, "memory": 0.01, "reasoner": 3.0}
    assert snap["exhausted"] is True and snap["tool_calls"] == 0

    calls = BudgetLedger(compute_limit=100.0, tool_call_limit=1)
    calls.call_tool()
    assert not calls.exhausted
    calls.call_tool()
    assert calls.exhausted


# -- decomposition ----------------------------------------------------------------


def _descriptor(services):
    return IncidentDescriptor(
        incident_id="inc-1",
        affected_service=services[0],
        affected_entity="p1",
        symptom_attributes=frozenset({"latency_high"}),
        max_severity=2,
        start_tick=3,
        affected_services=tuple(services),
    )


def test_decompose_orders_by_transitive_blast():
    kg = KnowledgeGraph(ontology=default_ontology())
    for svc in ("svc-a", "svc-b", "svc-c", "svc-d"):
        kg.register_entity(svc, "Service")
    kg.assert_triple("svc-a", "depends_on", "svc-b")
    kg.assert_triple("svc-b", "depends_on", "svc-c")
    kg.assert_triple("svc-d", "depends_on", "svc-c")
    # blast: svc-c = 1 + {svc-b, svc-a, svc-d} = 4; svc-b = 1 + {svc-a} = 2; svc-a = 1
    subtasks = decompose(_descriptor(["svc-a", "svc-c", "svc-b"]), kg)
    assert [s.affected_service for s in subtasks] == ["svc-c", "svc-b", "svc-a"]
    assert all(s.affected_services == (s.affected_service,) for s in subtasks)


def test_decompose_single_service_passthrough():
    kg = KnowledgeGraph(ontology=default_ontology())
    kg.register_entity("svc-a", "Service")
    out = decompose(_descriptor(["svc-a"]), kg)
    assert len(out) == 1 and out[0].affected_services == ("svc-a",)


def test_decompose_blast_ties_break_on_name():
    kg = KnowledgeGraph(ontology=default_ontology())
    for svc in ("svc-x", "svc-y"):
        kg.register_entity(svc, "Service")
    subtasks = decompose(_descriptor(["svc-y", "svc-x"]), kg)
    assert [s.affected_service for s in subtasks] == ["svc-x", "svc-y"]


# -- alert -> service mapping -------------------------------------------------------


def small_loop(topo):
    kg = KnowledgeGraph(ontology=default_ontology())
    bootstrap_from_topology(kg, topo)
    memories = Memories(buffer=ShortTermBuffer(4), episodic=EpisodicStore(), kg=kg,
                        runbooks=RunbookStore())
    return AgentLoop(TelemetryFeed(ClusterSim(topo, seed=1)), memories, LoopParams())


def expected_mapping(topo, entity):
    """The service an entity maps to and the rows each charged query
    returns, worked out from the topology: every level is read in name
    order and the walk goes down the first row, which in this fleet always
    reaches a serving pod."""
    if entity in topo.services:
        return entity, []
    rows = []
    if entity in topo.switches:
        racks = sorted(r for r, s in topo.switch_of_rack.items() if s == entity)
        nodes = sorted(n for n, r in topo.rack_of_node.items() if r == racks[0])
        rows += [len(racks), len(nodes)]
        entity = nodes[0]
    if entity in topo.nodes:
        pods = topo.pods_on_node(entity)
        rows.append(len(pods))
        entity = pods[0]
    return topo.service_of_pod[entity], rows + [1]  # the pod's one serves row


@pytest.mark.parametrize("entity", ["pod-ledger-2", "node-3", "tor-2", "svc-payments"],
                         ids=["Pod", "Node", "ToRSwitch", "Service"])
def test_to_service_charges_each_query_it_walks(small_topology, entity):
    service, rows = expected_mapping(small_topology, entity)
    charged = 0.0
    for n in rows:
        charged += TARIFF_MEMORY_ITEM * n
    ledger = BudgetLedger()
    assert small_loop(small_topology)._to_service(entity, ledger) == service
    assert ledger.units.get("memory", 0.0) == charged


def test_to_service_maps_a_rack_down_the_chain(small_topology):
    # rack-2 holds node-3 and node-4; node-3 runs pod-dns-1 and pod-payments-2;
    # pod-dns-1 serves svc-dns.
    charged = 0.0
    for n in (2, 2, 1):
        charged += TARIFF_MEMORY_ITEM * n
    ledger = BudgetLedger()
    assert small_loop(small_topology)._to_service("rack-2", ledger) == "svc-dns"
    assert ledger.units["memory"] == charged


# -- full loop episodes ------------------------------------------------------------


def throttle_runbook():
    return Runbook("rb-throttle", frozenset({"cpu_high", "disk_high"}),
                   ("throttle_tenant",))


def wrong_runbook():
    # restart_pod never remedies a noisy neighbor, so symptoms persist
    return Runbook("rb-wrong", frozenset({"cpu_high", "disk_high"}), ("restart_pod",))


def make_loop(runbooks, seed=5, **param_overrides):
    topo = build_topology(tiny_topology_spec())
    sim = ClusterSim(topo, seed=seed)
    params = LoopParams(**param_overrides)
    feed = TelemetryFeed(sim, window_ticks=params.detect_window)
    kg = KnowledgeGraph(ontology=default_ontology())
    bootstrap_from_topology(kg, topo)
    store = RunbookStore()
    for rb in runbooks:
        store.add(rb)
    memories = Memories(
        buffer=ShortTermBuffer(params.buffer_capacity),
        episodic=EpisodicStore(),
        kg=kg,
        runbooks=store,
    )
    loop = AgentLoop(feed, memories, params)
    for _ in range(params.detect_window + 1):
        feed.step()
    return sim, loop


def test_single_episode_resolves_noisy_neighbor():
    sim, loop = make_loop([throttle_runbook()])
    sim.inject(FaultScenario("noisy_neighbor", "n1", start_tick=sim.tick + 2,
                             duration=40, magnitude=0.8))
    run = loop.run_episode("ep-0001")
    assert run.final_phase == "Idle"
    assert run.escalation_reason is None
    assert run.episode.resolved is True
    assert run.episode.root_cause_label == "cause_noisy_neighbor"
    assert run.episode.symptom_attributes >= {"cpu_high", "disk_high"}
    assert [(rb, r.action, r.target, r.success) for rb, r in run.action_results] == [
        ("rb-throttle", "throttle_tenant", "n1", True)
    ]
    events = [t.event for t in run.transitions]
    assert events == [
        "alert_raised", "alert_raised", "pack_ready", "hypotheses_ready",
        "plan_ready", "action_done", "symptoms_clear", "episode_logged",
    ]
    legal = legal_transition_triples()
    assert all((t.phase_from, t.event, t.phase_to) in legal for t in run.transitions)
    assert run.diagnosis.path == "propagation"
    assert run.diagnosis.hypotheses[0].suspect_entity == "n1"
    snap = run.ledger.snapshot()
    for component in ("detector", "ace", "reasoner", "memory"):
        assert snap["units"][component] > 0
    assert snap["tool_calls"] == 1
    assert loop.memories.episodic.live_count() == 1
    assert loop.memories.buffer.snapshot("ep-0001") == ()  # incident evicted
    assert loop.memories.runbooks.get("rb-throttle").success_count == 1


def test_retries_then_escalates():
    sim, loop = make_loop([wrong_runbook()], escalation_after=3)
    sim.inject(FaultScenario("noisy_neighbor", "n1", start_tick=sim.tick + 2,
                             duration=200, magnitude=0.8))
    run = loop.run_episode("ep-0001")
    assert run.final_phase == "Escalated"
    assert run.escalation_reason == "retries exhausted after 3 attempts"
    events = [t.event for t in run.transitions]
    assert events.count("plan_ready") == 3
    assert events.count("symptoms_persist") == 3
    assert events[-1] == "symptoms_persist"
    assert run.transitions[-1].phase_to == "Escalated"
    # all three attempts ran the useless runbook without effect
    assert [r.success for _, r in run.action_results] == [False, False, False]
    # the episode is still logged for learning, marked unresolved
    assert run.episode.resolved is False and run.episode.root_cause_label is None
    rb = loop.memories.runbooks.get("rb-wrong")
    assert rb.attempt_count == 1 and rb.success_count == 0


def test_budget_exhaustion_escalates_on_next_transition():
    sim, loop = make_loop([throttle_runbook()], compute_limit=1.0)
    sim.inject(FaultScenario("noisy_neighbor", "n1", start_tick=sim.tick + 2,
                             duration=40, magnitude=0.8))
    run = loop.run_episode("ep-0001")
    assert run.final_phase == "Escalated"
    assert run.escalation_reason == "budget exhausted"
    last = run.transitions[-1]
    assert last.event == "budget_exceeded" and last.phase_to == "Escalated"
    # the ledger was exhausted by then, and only the final transition reacts to it
    assert run.ledger.exhausted
    over = [t for t in run.transitions if t.budget_total > loop.params.compute_limit]
    assert all(t.event == "budget_exceeded" for t in over)


def test_tool_call_exhaustion_escalates():
    sim, loop = make_loop([wrong_runbook()], tool_call_limit=1, escalation_after=3)
    sim.inject(FaultScenario("noisy_neighbor", "n1", start_tick=sim.tick + 2,
                             duration=200, magnitude=0.8))
    run = loop.run_episode("ep-0001")
    assert run.final_phase == "Escalated"
    assert run.escalation_reason == "budget exhausted"
    assert run.transitions[-1].event == "budget_exceeded"
    assert run.ledger.tool_calls == 2  # second call tripped the limit


def test_learning_fires_on_cadence():
    sim, loop = make_loop([throttle_runbook()], learning_cadence=2)
    for i in range(2):
        sim.inject(FaultScenario("noisy_neighbor", "n1", start_tick=sim.tick + 2,
                                 duration=40, magnitude=0.8))
        run = loop.run_episode(f"ep-{i + 1:04d}")
        assert run.episode.resolved
        assert (run.learning is None) == (i == 0)
        # drain the tail of the fault so the next wait starts quiet
        for _ in range(loop.params.detect_window + 25):
            loop.feed.step()
    first, second = loop.episode_count, loop.episodes_since_learning
    assert first == 2 and second == 0  # cadence reset after learning
    report = run.learning  # the second run's
    assert any(
        r.antecedent == frozenset({"cpu_high", "disk_high"}) for r in report.accepted
    )
    assert loop.active_rule_count() >= 1
    assert "ill" in loop.memories.kg.export_tsv()[1] or any(
        t.provenance == "ill" for t in loop.memories.kg.query(None, "indicates", None)
    )


def test_each_outcome_moves_the_section_caps_of_the_next_pack():
    # Three episodes escalate on the wrong runbook alone, three resolve once
    # the right one is added; the two tight caps bind in every pack.
    sim, loop = make_loop([wrong_runbook()], escalation_after=1,
                          section_caps={"short_term": 4, "kg_subgraph": 6})
    weights = {s: 1.0 for s in SECTION_ORDER}
    outcomes = []
    for i in range(6):
        if i == 3:
            loop.memories.runbooks.add(throttle_runbook())
        sim.inject(FaultScenario("noisy_neighbor", "n1", start_tick=sim.tick + 2,
                                 duration=40, magnitude=0.8))
        run = loop.run_episode(f"ep-{i + 1:04d}")
        caps = BudgetPolicy(section_caps=loop.policy.section_caps, weights=weights)
        packed = dict.fromkeys(SECTION_ORDER, 0)
        for entry in run.pack_traces[0]:
            packed[entry.section] += entry.cost if entry.included else 0
        assert all(packed[s] <= caps.effective_cap(s) for s in SECTION_ORDER), (i, packed)
        cited = {key.split(":", 1)[0] for key in run.diagnosis.hypotheses[0].evidence}
        weights = update_weights(weights, cited, run.episode.resolved)
        outcomes.append(run.episode.resolved)
        # pass the rest of the fault so the next wait starts quiet
        for _ in range(loop.params.detect_window + 45):
            loop.feed.step()
    assert outcomes == [False] * 3 + [True] * 3
    assert loop.policy.weights == weights


@pytest.mark.parametrize("detect_noise, fresh_feed, jumps", [
    (NOISE_PCT, False, True), (NOISE_PCT / 4, False, False), (NOISE_PCT / 4, True, False)])
def test_a_wait_passes_over_only_ticks_no_window_can_fire_on(monkeypatch, detect_noise, fresh_feed, jumps):
    # Below the simulator's noise a quiet window can fire, and a fresh feed
    # holds no frame to bound the ones to come, so such a wait steps every
    # tick; at the simulator's noise it jumps to the fault. Either way each
    # episode's transitions are those of stepping every tick.
    def episodes(quiet_until):
        monkeypatch.setattr(TelemetryFeed, "quiet_until", quiet_until)
        sim, loop = make_loop([throttle_runbook()], noise_pct=detect_noise, max_wait_ticks=400)
        if fresh_feed:
            loop.feed = TelemetryFeed(sim, window_ticks=loop.params.detect_window)
        sim.inject(FaultScenario("noisy_neighbor", "n1", start_tick=300, duration=40, magnitude=0.8))
        return [[(t.tick, t.event) for t in loop.run_episode(f"ep-{i}").transitions] for i in (1, 2)]

    passed = []  # per call, the ticks passed beyond the one a step passes
    quiet_until = TelemetryFeed.quiet_until

    def recorded(feed, limit, noise):
        tick = quiet_until(feed, limit, noise)
        passed.append(tick - feed.sim.tick - 1)
        return tick

    jumping = episodes(recorded)
    stepping = episodes(lambda feed, limit, noise: feed.sim.tick + 1)
    assert jumping == stepping
    assert (sum(passed) > 250) is jumps
    # Below the simulator's noise, quiet windows fired before the fault.
    assert (stepping[0][0][0] < 300) is not jumps


def test_loop_times_out_when_nothing_happens():
    # An idle timeout once raised LoopError and ended the whole run.
    sim, loop = make_loop([throttle_runbook()], max_wait_ticks=6)
    start = sim.tick
    run = loop.run_episode("ep-0001")
    assert [(t.tick, t.phase_from, t.event, t.phase_to) for t in run.transitions] == [
        (start + 6, "Idle", "idle_timeout", "Idle"),
    ]
    assert run.final_phase == "Idle"
    assert run.episode is None and run.diagnosis is None and run.escalation_reason is None
    assert run.ledger.total == 0.0 and loop.episode_count == 0
    # the loop goes on: the next fault is an incident like any other
    sim.inject(FaultScenario("noisy_neighbor", "n1", start_tick=sim.tick + 2,
                             duration=40, magnitude=0.8))
    assert loop.run_episode("ep-0002").episode.resolved


def test_stop_met_event_and_metric_semantics():
    _, loop = make_loop([throttle_runbook()])

    def batch(latency=None, events=(), live=None):
        # one tick: net_latency_ms per entity, every other metric at 0
        entities = tuple(latency or {})
        values = np.zeros((len(entities), len(METRICS)))
        values[:, METRICS.index("net_latency_ms")] = [latency[e] for e in entities]
        mask = np.array([e in (live if live is not None else entities) for e in entities], dtype=bool)
        rows = {e: i for i, e in enumerate(entities)}
        return TickBatch(TickFrame(1, entities, rows, values, mask), tuple(events))

    def event(entity, kind):
        return UnifiedRecord(tick=1, entity=entity, source="event",
                             category="configuration", attribute=kind,
                             value=None, severity=3)

    event_stop = StopCondition(attribute="dns_error", entities=frozenset({"svc-x"}))
    assert loop._stop_met(batch(), event_stop) is True
    assert loop._stop_met(batch(events=[event("svc-x", "dns_error")]), event_stop) is False
    assert loop._stop_met(batch(events=[event("svc-y", "dns_error")]), event_stop) is True

    metric_stop = StopCondition(attribute="latency_high", entities=frozenset({"p1"}))
    base = BASELINES["net_latency_ms"]
    assert loop._stop_met(batch({"p1": base}), metric_stop) is True
    assert loop._stop_met(batch({"p1": base * 1.5}), metric_stop) is False
    # whoever else is noisy does not matter
    assert loop._stop_met(batch({"p9": base * 9}), metric_stop) is True
    # no samples at all: the emitters are gone, nothing can violate the stop
    assert loop._stop_met(batch(), metric_stop) is True
    # a removed row is gone too, whatever its values hold
    assert loop._stop_met(batch({"p1": base * 9}, live=()), metric_stop) is True
    assert loop._stop_met(batch(), StopCondition(attribute="", entities=frozenset())) is False
