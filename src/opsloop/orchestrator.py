"""Finite-state incident loop with a compute budget ledger.

A closed table of guarded transition rows drives each incident through
detection, enrichment, diagnosis, action selection, execution,
verification, logging, and periodic learning. Every component call is metered in compute units;
once the ledger is exhausted, the very next transition must be
budget_exceeded into the terminal Escalated state. The full transition
history is kept as an audit log.

Each episode keeps its facts in one place, the `EpisodeRun` it returns:
its ledger, its transitions and what each phase produced. The loop keeps
one context `BudgetPolicy` across episodes, whose section weights each
logged outcome moves.
"""
from __future__ import annotations

from collections.abc import Callable
from contextlib import suppress
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import ClassVar, NamedTuple

from .cluster import ActionResult, SimError
from .config import (
    ActionKind,
    BUFFER_CAPACITY,
    COMPUTE_LIMIT,
    DEFAULT_SECTION_CAPS,
    DETECT_WINDOW,
    EPISODIC_K,
    ESCALATION_AFTER,
    EVENT_KINDS,
    ATTR_SOURCE,
    BASELINES,
    LEARNING_CADENCE,
    METRICS,
    MIN_CONFIDENCE,
    MIN_SUPPORT,
    NOISE_PCT,
    PACK_BUDGET,
    RETIRE_AGE_EPISODES,
    RETIRE_CONFIDENCE_FLOOR,
    SUBGRAPH_RADIUS,
    SYMPTOM_VOCAB,
    TARIFF_ACE_ASSEMBLY,
    TARIFF_ACE_ITEM,
    TARIFF_DETECTOR_WINDOW,
    TARIFF_ILL_CLOSURE,
    TARIFF_MEMORY_ITEM,
    TARIFF_REASONER_UNIT,
    TOOL_CALL_LIMIT,
    VERIFY_EPS,
    VERIFY_TICKS,
    cause_label,
    noise_band,
)
from .contextpack import BudgetPolicy, IncidentDescriptor, TraceEntry, assemble, update_weights
from .ingest import Alert, TelemetryFeed, TickBatch, detect_anomalies
from .lattice import DistillReport, RetireCriteria, distill, retire_rules, validated_rules
from .memory import Episode, ForgetCriteria, Memories
from .memory.knowledge import INFRA_CHAIN, INFRA_CLASSES, bfs
from .reasoner import ActionPlan, Diagnosis, diagnose, lead_alert_key, make_plan


class Phase(str, Enum):
    IDLE = "Idle"
    DETECTING = "Detecting"
    ENRICHING = "Enriching"
    DIAGNOSING = "Diagnosing"
    SELECTING = "Selecting"
    EXECUTING = "Executing"
    VERIFYING = "Verifying"
    LOGGING = "Logging"
    LEARNING = "Learning"
    ESCALATED = "Escalated"


class Event(str, Enum):
    ALERT_RAISED = "alert_raised"
    IDLE_TIMEOUT = "idle_timeout"
    PACK_READY = "pack_ready"
    HYPOTHESES_READY = "hypotheses_ready"
    ABSTAIN = "abstain"
    PLAN_READY = "plan_ready"
    ACTION_DONE = "action_done"
    SYMPTOMS_CLEAR = "symptoms_clear"
    SYMPTOMS_PERSIST = "symptoms_persist"
    EPISODE_LOGGED = "episode_logged"
    LEARNING_DONE = "learning_done"
    BUDGET_EXCEEDED = "budget_exceeded"


class TransitionError(Exception):
    pass


@dataclass(frozen=True)
class OrchestratorState:
    phase: Phase = Phase.IDLE
    attempt: int = 1
    escalation_after: int = ESCALATION_AFTER
    learning_due: bool = False


def _always(state: OrchestratorState) -> bool:
    return True


# (phase, event) -> ordered (guard, target, attempt bump) rows; the first row
# whose guard holds on the state wins. Pairs not listed are illegal.
_Row = tuple[Callable[[OrchestratorState], bool], Phase, int]
_TABLE: dict[tuple[Phase, Event], tuple[_Row, ...]] = {
    (Phase.IDLE, Event.ALERT_RAISED): ((_always, Phase.DETECTING, 0),),
    (Phase.IDLE, Event.IDLE_TIMEOUT): ((_always, Phase.IDLE, 0),),
    (Phase.DETECTING, Event.ALERT_RAISED): ((_always, Phase.ENRICHING, 0),),
    (Phase.ENRICHING, Event.PACK_READY): ((_always, Phase.DIAGNOSING, 0),),
    (Phase.DIAGNOSING, Event.HYPOTHESES_READY): ((_always, Phase.SELECTING, 0),),
    (Phase.DIAGNOSING, Event.ABSTAIN): ((_always, Phase.ESCALATED, 0),),
    (Phase.SELECTING, Event.PLAN_READY): ((_always, Phase.EXECUTING, 0),),
    (Phase.EXECUTING, Event.ACTION_DONE): ((_always, Phase.VERIFYING, 0),),
    (Phase.VERIFYING, Event.SYMPTOMS_CLEAR): ((_always, Phase.LOGGING, 0),),
    (Phase.VERIFYING, Event.SYMPTOMS_PERSIST): (
        (lambda s: s.attempt >= s.escalation_after, Phase.ESCALATED, 0),
        (_always, Phase.SELECTING, 1),  # retry
    ),
    (Phase.LOGGING, Event.EPISODE_LOGGED): (
        (lambda s: s.learning_due, Phase.LEARNING, 0),
        (_always, Phase.IDLE, 0),
    ),
    (Phase.LEARNING, Event.LEARNING_DONE): ((_always, Phase.IDLE, 0),),
    **{
        (phase, Event.BUDGET_EXCEEDED): ((_always, Phase.ESCALATED, 0),)
        for phase in Phase
        if phase is not Phase.ESCALATED
    },
}


def transition(state: OrchestratorState, event: Event) -> OrchestratorState:
    """Pure transition step; raises TransitionError on any pair not in the
    table. Retry and cadence branches depend only on the carried state."""
    for guard, target, attempt_bump in _TABLE.get((state.phase, event), ()):
        if guard(state):
            return replace(state, phase=target, attempt=state.attempt + attempt_bump)
    raise TransitionError(
        f"illegal transition: {state.phase.value} + {event.value} "
        f"(attempt {state.attempt})"
    )


def legal_transition_triples() -> frozenset[tuple[str, str, str]]:
    """Every (from, event, to) the machine may emit; used by audits."""
    return frozenset(
        (phase.value, event.value, target.value)
        for (phase, event), rows in _TABLE.items()
        for _, target, _ in rows
    )


@dataclass
class BudgetLedger:
    compute_limit: float = COMPUTE_LIMIT
    tool_call_limit: int = TOOL_CALL_LIMIT
    units: dict[str, float] = field(default_factory=dict)
    tool_calls: int = 0

    def charge(self, component: str, amount: float) -> None:
        if amount < 0:
            raise ValueError("charges are non-negative")
        self.units[component] = self.units.get(component, 0.0) + amount

    def call_tool(self) -> None:
        self.tool_calls += 1

    @property
    def total(self) -> float:
        return sum(self.units.values())

    @property
    def exhausted(self) -> bool:
        return self.total > self.compute_limit or self.tool_calls > self.tool_call_limit

    def snapshot(self) -> dict:
        return {
            "units": {k: self.units[k] for k in sorted(self.units)},
            "total": self.total,
            "tool_calls": self.tool_calls,
            "compute_limit": self.compute_limit,
            "tool_call_limit": self.tool_call_limit,
            "exhausted": self.exhausted,
        }


class TransitionRecord(NamedTuple):
    tick: int
    phase_from: str
    event: str
    phase_to: str
    budget_total: float


@dataclass
class LoopParams:
    # Not a field: episodes are embedded and mined over the detector's vocabulary.
    vocab: ClassVar[tuple[str, ...]] = SYMPTOM_VOCAB
    detect_window: int = DETECT_WINDOW
    noise_pct: float = NOISE_PCT
    escalation_after: int = ESCALATION_AFTER
    compute_limit: float = COMPUTE_LIMIT
    tool_call_limit: int = TOOL_CALL_LIMIT
    learning_cadence: int = LEARNING_CADENCE
    min_support: float = MIN_SUPPORT
    min_confidence: float = MIN_CONFIDENCE
    retire_confidence_floor: float = RETIRE_CONFIDENCE_FLOOR
    retire_age_episodes: int = RETIRE_AGE_EPISODES
    pack_budget: int = PACK_BUDGET
    section_caps: dict[str, int] | None = None  # laid over DEFAULT_SECTION_CAPS
    episodic_k: int = EPISODIC_K
    subgraph_radius: int = SUBGRAPH_RADIUS
    verify_ticks: int = VERIFY_TICKS
    max_wait_ticks: int = 80
    buffer_capacity: int = BUFFER_CAPACITY


@dataclass
class EpisodeRun:
    """Everything one episode did; `run_episode` fills it in as it goes."""

    episode_id: str
    ledger: BudgetLedger
    episode: Episode | None = None
    transitions: list[TransitionRecord] = field(default_factory=list)
    pack_traces: list[list[TraceEntry]] = field(default_factory=list)
    diagnosis: Diagnosis | None = None
    plan: ActionPlan | None = None
    action_results: list[tuple[str, ActionResult]] = field(default_factory=list)
    escalation_reason: str | None = None
    learning: DistillReport | None = None
    deferred_subtasks: list[IncidentDescriptor] = field(default_factory=list)
    final_phase: str = Phase.IDLE.value


class _Stop(Exception):
    """Internal signal: the episode ends early, escalated or timed out idle."""


def decompose(descriptor: IncidentDescriptor, kg) -> list[IncidentDescriptor]:
    """Split a multi-service incident into per-service subtasks, ordered by
    dependency blast size (the service plus its transitive callers),
    largest first; ties break on service id."""
    services = list(dict.fromkeys(descriptor.affected_services or (descriptor.affected_service,)))
    if len(services) <= 1:
        return [replace(descriptor, affected_services=tuple(services) or (descriptor.affected_service,))]
    callers: dict[str, set[str]] = {}
    for t in kg.query(None, "depends_on", None):
        callers.setdefault(t.object, set()).add(t.subject)

    def blast(service: str) -> int:
        return len(bfs(service, lambda v: callers.get(v, ())))

    ordered = sorted(services, key=lambda s: (-blast(s), s))
    return [
        replace(descriptor, affected_service=s, affected_services=(s,))
        for s in ordered
    ]


class AgentLoop:
    """Drives the full closed loop against a telemetry feed and memories.

    `policy` is the one context budget policy of the loop: its caps are
    `params.section_caps` laid over `DEFAULT_SECTION_CAPS`, and each logged
    episode's outcome moves its section weights."""

    def __init__(self, feed: TelemetryFeed, memories: Memories, params: LoopParams):
        self.feed = feed
        self.memories = memories
        self.params = params
        self.policy = BudgetPolicy(
            pack_budget=params.pack_budget,
            section_caps={**DEFAULT_SECTION_CAPS, **(params.section_caps or {})},
        )
        self.episode_count = 0
        self.episodes_since_learning = 0

    # -- helpers ---------------------------------------------------------------

    def _to_service(self, entity: str, ledger: BudgetLedger) -> str:
        """Map an alerting entity to the service it affects, via the graph.

        An entity of an `INFRA_CLASSES` class is walked down `INFRA_CHAIN`
        to the pods beneath it, depth first in query order, and the first
        pod that serves a service names it. Each graph query is charged to
        `memory` by the triples it returns, at least one. Any other entity,
        or one with no serving pod beneath it, maps to itself."""
        kg = self.memories.kg
        cls = kg.class_of(entity)
        if cls not in INFRA_CLASSES:
            return entity

        def charged_query(s, p, o):
            res = kg.query(s, p, o)
            ledger.charge("memory", TARIFF_MEMORY_ITEM * max(len(res), 1))
            return res

        def down(e: str, chain: tuple[str, ...]) -> str | None:
            if not chain:
                serves = charged_query(e, "serves", None)
                return serves[0].object if serves else None
            for t in charged_query(None, chain[-1], e):
                found = down(t.subject, chain[:-1])
                if found is not None:
                    return found
            return None

        return down(entity, INFRA_CHAIN[:INFRA_CLASSES.index(cls)]) or entity

    def _stop_met(self, batch: TickBatch, stop) -> bool:
        attr = stop.attribute
        if not attr:
            return False
        if attr in EVENT_KINDS:
            return not any(
                rec.attribute == attr and rec.entity in stop.entities for rec in batch.events
            )
        metric = ATTR_SOURCE[attr][1]
        band = noise_band(metric, self.params.noise_pct) + VERIFY_EPS
        envelope = batch.frame.envelope
        if envelope is not None and envelope[METRICS.index(metric)] <= band:
            return True  # a quiet frame: every sample lies within its envelope
        baseline = BASELINES[metric]
        values = batch.frame.live_values(metric, stop.entities)
        if not values:
            return True  # emitters gone (e.g. decommissioned): nothing violating
        return all(abs(v - baseline) <= band for v in values)

    # -- the loop ------------------------------------------------------------------

    def run_episode(self, episode_id: str) -> EpisodeRun:
        """Wait for the next incident (staying Idle if none comes in time),
        drive it to Logging or Escalated, and run the learning pass when
        the cadence is due. The wait ends at one deadline, `max_wait_ticks`
        after the clock at the call; what the episode does is recorded in
        the returned run as it happens."""
        params = self.params
        memories = self.memories
        run = EpisodeRun(episode_id, BudgetLedger(params.compute_limit, params.tool_call_limit))
        state = OrchestratorState(escalation_after=params.escalation_after)

        def fire(event: Event) -> None:
            nonlocal state
            new_state = transition(state, event)
            run.transitions.append(TransitionRecord(
                self.feed.sim.tick, state.phase.value, event.value,
                new_state.phase.value, run.ledger.total,
            ))
            state = new_state

        def advance(event: Event) -> None:
            if run.ledger.exhausted:
                fire(Event.BUDGET_EXCEEDED)
                if run.escalation_reason is None:
                    run.escalation_reason = "budget exhausted"
                raise _Stop()
            fire(event)

        alerts: list[Alert] = []
        resolved = False
        descriptor: IncidentDescriptor | None = None

        with suppress(_Stop):
            # Idle: watch the feed until the detector raises, or time out and
            # stay Idle. Windows that cannot fire are passed over, not scored.
            deadline = self.feed.sim.tick + params.max_wait_ticks
            while not alerts:
                if self.feed.sim.tick >= deadline:
                    advance(Event.IDLE_TIMEOUT)  # Idle -> Idle
                    raise _Stop()
                self.feed.pass_to(self.feed.quiet_until(deadline, params.noise_pct))
                found = detect_anomalies(
                    self.feed.window(), noise_pct=params.noise_pct,
                    min_ticks=params.detect_window,
                )
                if found:
                    run.ledger.charge("detector", TARIFF_DETECTOR_WINDOW)
                    alerts = found
            advance(Event.ALERT_RAISED)  # Idle -> Detecting

            # Detecting: record alerts, pin down the incident descriptor.
            for alert in alerts:
                memories.buffer.push(alert, priority=alert.severity, incident=episode_id)
                run.ledger.charge("memory", TARIFF_MEMORY_ITEM)
                if alert.attribute == "node_decommissioned":
                    memories.kg.register_entity(alert.entity, "Node")
                    memories.kg.assert_triple(
                        alert.entity, "decommissioned", str(alert.tick),
                        provenance="event", tick=alert.tick,
                    )
            top_alert = min(alerts, key=lead_alert_key)
            top_entities = sorted({a.entity for a in alerts if a.attribute == top_alert.attribute})
            services = list(dict.fromkeys(
                self._to_service(e, run.ledger) for e in top_entities
            ))
            descriptor = IncidentDescriptor(
                incident_id=episode_id,
                affected_service=services[0],
                affected_entity=top_alert.entity,
                symptom_attributes=frozenset(a.attribute for a in alerts),
                max_severity=max(a.severity for a in alerts),
                start_tick=min(a.tick for a in alerts),
                affected_services=tuple(services),
            )
            subtasks = decompose(descriptor, memories.kg)
            descriptor = subtasks[0]
            run.deferred_subtasks = subtasks[1:]
            advance(Event.ALERT_RAISED)  # Detecting -> Enriching

            # Enriching: assemble the pack.
            pack = assemble(
                descriptor, memories, self.policy,
                episodic_k=params.episodic_k,
                subgraph_radius=params.subgraph_radius,
            )
            run.pack_traces.append(pack.trace)
            run.ledger.charge("ace", TARIFF_ACE_ASSEMBLY + TARIFF_ACE_ITEM * pack.included_count)
            run.ledger.charge("memory", TARIFF_MEMORY_ITEM * pack.memory_touched)
            advance(Event.PACK_READY)  # Enriching -> Diagnosing

            # Diagnosing.
            diag = diagnose(pack)
            run.diagnosis = diag
            run.ledger.charge("reasoner", TARIFF_REASONER_UNIT * diag.compute_units)
            if not diag.hypotheses:
                run.escalation_reason = "diagnosis abstained"
                advance(Event.ABSTAIN)  # Diagnosing -> Escalated
            else:
                advance(Event.HYPOTHESES_READY)  # Diagnosing -> Selecting
                suggestions = [item.payload for item in pack.section("runbooks")]
                plan = make_plan(
                    diag.hypotheses, suggestions, alerts,
                    escalation_after=params.escalation_after,
                )
                run.plan = plan

                # Selecting / Executing / Verifying retry loop.
                while True:
                    advance(Event.PLAN_READY)  # Selecting -> Executing
                    entry = plan.entry_for_attempt(state.attempt)
                    if entry is not None:
                        for action_kind, target in entry.actions:
                            result = self._execute_action(action_kind, target, run.ledger)
                            run.action_results.append((entry.runbook_id, result))
                    advance(Event.ACTION_DONE)  # Executing -> Verifying

                    cleared = False
                    for _ in range(params.verify_ticks):
                        batch = self.feed.step()
                        if self._stop_met(batch, plan.stop):
                            cleared = True
                            break
                    if cleared:
                        advance(Event.SYMPTOMS_CLEAR)  # Verifying -> Logging
                        resolved = True
                        break
                    advance(Event.SYMPTOMS_PERSIST)  # -> Selecting, or Escalated at the limit
                    if state.phase is Phase.ESCALATED:
                        run.escalation_reason = (
                            f"retries exhausted after {params.escalation_after} attempts"
                        )
                        break

        # Logging happens for every closed incident; the machine only visits
        # the Logging phase on the resolved path.
        if descriptor is not None:
            run.episode = self._log_episode(run, descriptor, alerts, resolved)

        if state.phase is Phase.LOGGING:
            learning_due = self.episodes_since_learning >= params.learning_cadence
            state = replace(state, learning_due=learning_due)
            with suppress(_Stop):
                advance(Event.EPISODE_LOGGED)
                if state.phase is Phase.LEARNING:
                    run.learning = self._learn(run.ledger)
                    advance(Event.LEARNING_DONE)
        run.final_phase = state.phase.value
        return run

    # -- phase bodies -------------------------------------------------------------

    def _execute_action(self, action_kind: str, target: str, ledger: BudgetLedger) -> ActionResult:
        sim = self.feed.sim
        kg = self.memories.kg
        if (
            action_kind == ActionKind.DRAIN_NODE.value
            and target in kg.decommissioned_entities()
        ):
            # the node is already gone; draining is a bookkeeping acknowledgment
            return ActionResult(action_kind, target, sim.tick, True, "acknowledged decommission")
        ledger.call_tool()
        try:
            return sim.apply_action(action_kind, target)
        except SimError as exc:
            return ActionResult(action_kind, target, sim.tick, False, str(exc))

    def _log_episode(
        self,
        run: EpisodeRun,
        descriptor: IncidentDescriptor,
        alerts: list[Alert],
        resolved: bool,
    ) -> Episode:
        memories = self.memories
        top = run.diagnosis.hypotheses[0] if run.diagnosis and run.diagnosis.hypotheses else None
        entities = {a.entity for a in alerts} | {descriptor.affected_service}
        if top is not None:
            entities.add(top.suspect_entity)
        end_tick = self.feed.sim.tick
        actions = tuple(
            (res.action, res.target, res.success) for _, res in run.action_results
        )
        episode = Episode(
            episode_id=run.episode_id,
            start_tick=descriptor.start_tick,
            end_tick=end_tick,
            affected_service=descriptor.affected_service,
            symptom_attributes=descriptor.symptom_attributes,
            entities=frozenset(entities),
            max_severity=descriptor.max_severity,
            root_cause_label=cause_label(top.fault_kind) if (resolved and top) else None,
            actions=actions,
            resolved=resolved,
            ticks_to_resolve=(end_tick - descriptor.start_tick) if resolved else None,
        )
        memories.episodic.insert(episode)
        run.ledger.charge("memory", TARIFF_MEMORY_ITEM)

        # Runbook feedback: the final attempted runbook carries the outcome,
        # earlier attempts count as failures.
        attempted = list(dict.fromkeys(rb_id for rb_id, _ in run.action_results))
        for rb_id in attempted[:-1]:
            memories.runbooks.record_outcome(rb_id, False)
        if attempted:
            memories.runbooks.record_outcome(attempted[-1], resolved)

        if top is not None:
            cited = {key.split(":", 1)[0] for key in top.evidence}
            self.policy.weights = update_weights(self.policy.weights, cited, resolved)

        memories.buffer.evict_incident(run.episode_id)

        # Conditional forgetting for decommissioned hardware.
        dead_nodes = sorted({
            a.entity for a in alerts if a.attribute == "node_decommissioned"
        })
        if dead_nodes:
            removed = memories.episodic.forget(
                ForgetCriteria(entities=frozenset(dead_nodes)), now_tick=end_tick
            )
            run.ledger.charge("memory", TARIFF_MEMORY_ITEM * max(removed, 1))
            lookup = {ep.episode_id: ep for ep in memories.episodic.all_episodes()}
            retire_rules(
                memories.kg,
                RetireCriteria(decommissioned_entities=frozenset(dead_nodes)),
                lookup,
                episode_count=self.episode_count + 1,
            )

        self.episode_count += 1
        self.episodes_since_learning += 1
        return episode

    def _learn(self, ledger: BudgetLedger) -> DistillReport:
        params = self.params
        memories = self.memories
        live = memories.episodic.live_episodes()
        report = distill(
            live,
            memories.kg,
            params.vocab,
            min_support=params.min_support,
            min_confidence=params.min_confidence,
            confidence_floor=params.retire_confidence_floor,
            max_age_episodes=params.retire_age_episodes,
            tick=self.feed.sim.tick,
            episode_count=self.episode_count,
        )
        ledger.charge("ill", TARIFF_ILL_CLOSURE * report.closure_calls)
        ledger.charge("memory", TARIFF_MEMORY_ITEM * len(live))
        self.episodes_since_learning = 0
        return report

    def active_rule_count(self) -> int:
        return len(validated_rules(self.memories.kg))
