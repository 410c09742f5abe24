"""Root-cause diagnosis and remediation planning over a context pack.

Two routes, cheapest first. If any validated rule's antecedent is covered
by the observed symptoms, hypotheses come straight from those rules at one
compute unit per rule and graph propagation is skipped entirely. Otherwise
severity scores are propagated from the affected service across the packed
subgraph with geometric distance decay, and per-entity symptom patterns
are matched against the fault signature table.

Every hypothesis cites the pack items it used, so a diagnosis can be
audited against exactly what the reasoner was shown.
"""
from __future__ import annotations

from dataclasses import dataclass

from .config import (
    CAUSE_PREFIX,
    ESCALATION_AFTER,
    EVENT_KINDS,
    FAULT_SIGNATURE,
    PROPAGATION_DECAY,
    REMEDY,
    RULE_SCORE_BOOST,
    FaultKind,
)
from .contextpack import ContextPack, task_descriptor
from .memory.knowledge import Triple, bfs
from .memory.runbooks import Runbook


@dataclass(frozen=True)
class RootCauseHypothesis:
    fault_kind: FaultKind
    suspect_entity: str
    score: float
    evidence: tuple[str, ...]  # pack item keys
    via_rule: str | None = None

    def to_dict(self) -> dict:
        return {
            "fault_kind": self.fault_kind.value,
            "suspect_entity": self.suspect_entity,
            "score": self.score,
            "evidence": list(self.evidence),
            "via_rule": self.via_rule,
        }


@dataclass(frozen=True)
class Diagnosis:
    hypotheses: tuple[RootCauseHypothesis, ...]
    compute_units: float
    path: str  # "rule_shortcut" | "propagation" | "abstain"


@dataclass(frozen=True)
class StopCondition:
    attribute: str
    entities: frozenset[str]


@dataclass(frozen=True)
class PlanEntry:
    runbook_id: str
    actions: tuple[tuple[str, str], ...]  # (action kind, target)


@dataclass(frozen=True)
class ActionPlan:
    entries: tuple[PlanEntry, ...]
    stop: StopCondition
    escalation_after: int = ESCALATION_AFTER

    @property
    def escalate_only(self) -> bool:
        return not self.entries

    def entry_for_attempt(self, attempt: int) -> PlanEntry | None:
        if not self.entries:
            return None
        return self.entries[min(attempt - 1, len(self.entries) - 1)]

    def to_dict(self) -> dict:
        return {
            "entries": [
                {"runbook_id": e.runbook_id, "actions": [list(a) for a in e.actions]}
                for e in self.entries
            ],
            "stop_attribute": self.stop.attribute,
            "stop_entities": sorted(self.stop.entities),
            "escalation_after": self.escalation_after,
        }


def _alerts_from_pack(pack: ContextPack) -> list[tuple[str, object]]:
    """(pack key, alert) pairs from the short-term section."""
    out = []
    for item in pack.section("short_term"):
        payload = item.payload
        alert = getattr(payload, "payload", payload)  # buffer item wraps the alert
        if hasattr(alert, "attribute") and hasattr(alert, "severity"):
            out.append((item.key, alert))
    return out


def _adjacency(triples: list[Triple]) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {}
    for t in triples:
        adj.setdefault(t.subject, set()).add(t.object)
        adj.setdefault(t.object, set()).add(t.subject)
    return adj


def _triple_key(triple: Triple) -> str:
    return f"kg_subgraph:{triple.subject}|{triple.predicate}|{triple.object}"


def _follow(
    entity: str, triples: list[Triple], predicates: tuple[str, ...]
) -> tuple[str | None, list[Triple]]:
    """Walk one packed triple per predicate from `entity` (subject to
    object): the end entity, or None at a missing hop, and the triples walked."""
    path: list[Triple] = []
    for predicate in predicates:
        hop = next((t for t in triples if t.predicate == predicate and t.subject == entity), None)
        if hop is None:
            return None, path
        path.append(hop)
        entity = hop.object
    return entity, path


_TO_SWITCH = ("runs_on", "member_of", "uplink")  # pod -> node -> rack -> switch
_TO_NODE = ("runs_on",)  # pod -> node


def diagnose(
    pack: ContextPack,
    *,
    decay: float = PROPAGATION_DECAY,
    boost: float = RULE_SCORE_BOOST,
) -> Diagnosis:
    """Rank root-cause hypotheses from the pack; empty ranking means abstain."""
    descriptor = task_descriptor(pack)
    symptoms = descriptor.symptom_attributes
    keyed_alerts = _alerts_from_pack(pack)
    triples = [item.payload for item in pack.section("kg_subgraph")]

    # Route 1: validated-rule shortcut.
    matching = [
        item for item in pack.section("rules")
        if item.payload.antecedent <= symptoms
    ]
    if matching:
        hypotheses: dict[tuple[str, str], RootCauseHypothesis] = {}
        for item in sorted(matching, key=lambda it: (-it.payload.confidence, it.payload.rule_id)):
            rule = item.payload
            for label in sorted(rule.cause_labels):
                kind = FaultKind(label[len(CAUSE_PREFIX):])
                suspect, extra = _suspect_for(
                    kind, keyed_alerts, triples, descriptor.affected_service
                )
                evidence = (item.key,) + tuple(extra)
                hyp = RootCauseHypothesis(
                    fault_kind=kind,
                    suspect_entity=suspect,
                    score=rule.confidence * boost,
                    evidence=evidence,
                    via_rule=rule.rule_id,
                )
                prev = hypotheses.get((kind.value, suspect))
                if prev is None or hyp.score > prev.score:
                    hypotheses[(kind.value, suspect)] = hyp
        ranked = sorted(hypotheses.values(), key=lambda h: (-h.score, h.suspect_entity, h.fault_kind.value))
        return Diagnosis(tuple(ranked), compute_units=float(len(matching)), path="rule_shortcut")

    # Route 2: severity propagation over the packed subgraph.
    if not keyed_alerts:
        return Diagnosis((), compute_units=0.0, path="abstain")
    adj = _adjacency(triples)
    center = descriptor.affected_entity or descriptor.affected_service
    dist = bfs(center, lambda v: adj.get(v, ()))
    visited = len(dist)
    # Alert entities outside the packed neighborhood still carry evidence;
    # they score as one hop beyond the farthest reachable entity.
    far = max(dist.values(), default=0) + 1

    by_entity: dict[str, list[tuple[str, object]]] = {}
    for key, alert in keyed_alerts:
        by_entity.setdefault(alert.entity, []).append((key, alert))

    candidates: dict[tuple[str, str], RootCauseHypothesis] = {}
    for entity in sorted(by_entity):
        pairs = by_entity[entity]
        attrs = {alert.attribute for _, alert in pairs}
        score = sum(alert.severity * decay ** dist.get(entity, far) for _, alert in pairs)
        alert_keys = tuple(key for key, _ in sorted(pairs, key=lambda p: p[0]))

        def offer(kind: FaultKind, suspect: str, extra_evidence: tuple[str, ...] = ()) -> None:
            hyp = RootCauseHypothesis(
                fault_kind=kind,
                suspect_entity=suspect,
                score=score,
                evidence=alert_keys + extra_evidence,
            )
            prev = candidates.get((kind.value, suspect))
            if prev is None or hyp.score > prev.score:
                candidates[(kind.value, suspect)] = hyp

        if "dns_error" in attrs:
            offer(FaultKind.DNS_ERROR_BURST, entity)
        if "node_decommissioned" in attrs:
            offer(FaultKind.NODE_DECOMMISSION, entity)
        if "packet_loss_high" in attrs:
            switch, path = _follow(entity, triples, _TO_SWITCH)
            extra = tuple(_triple_key(t) for t in path)
            offer(FaultKind.TOR_PACKET_LOSS, switch or entity, extra)
        if {"cpu_high", "disk_high"} <= attrs:
            node, path = _follow(entity, triples, _TO_NODE)
            extra = tuple(_triple_key(t) for t in path)
            offer(FaultKind.NOISY_NEIGHBOR, node or entity, extra)
        if "latency_high" in attrs and entity == descriptor.affected_service:
            offer(FaultKind.INGRESS_THROTTLE, entity)

    ranked = sorted(candidates.values(), key=lambda h: (-h.score, h.suspect_entity, h.fault_kind.value))
    if not ranked:
        return Diagnosis((), compute_units=float(visited), path="abstain")
    return Diagnosis(tuple(ranked), compute_units=float(visited), path="propagation")


def _suspect_for(
    kind: FaultKind,
    keyed_alerts: list[tuple[str, object]],
    triples: list[Triple],
    affected_service: str,
) -> tuple[str, tuple[str, ...]]:
    """Pick the concrete suspect entity for a rule-implied fault kind."""
    signature = FAULT_SIGNATURE[kind]

    def first_entity_with(attr: str) -> str | None:
        entities = sorted(a.entity for _, a in keyed_alerts if a.attribute == attr)
        return entities[0] if entities else None

    if kind is FaultKind.DNS_ERROR_BURST:
        found = first_entity_with("dns_error")
        return found or affected_service, ()
    if kind is FaultKind.NODE_DECOMMISSION:
        found = first_entity_with("node_decommissioned")
        return found or affected_service, ()
    if kind is FaultKind.TOR_PACKET_LOSS:
        pod = first_entity_with("packet_loss_high")
        if pod is not None:
            switch, _ = _follow(pod, triples, _TO_SWITCH)
            if switch is not None:
                return switch, ()
            return pod, ()
        return affected_service, ()
    if kind is FaultKind.NOISY_NEIGHBOR:
        entities = sorted(
            e for e in {a.entity for _, a in keyed_alerts}
            if signature <= {a.attribute for _, a in keyed_alerts if a.entity == e}
        )
        if entities:
            node, _ = _follow(entities[0], triples, _TO_NODE)
            return node or entities[0], ()
        return affected_service, ()
    return affected_service, ()


def make_plan(
    hypotheses: tuple[RootCauseHypothesis, ...],
    suggestions: list[Runbook],
    alerts: list,
    *,
    escalation_after: int = ESCALATION_AFTER,
) -> ActionPlan:
    """Turn the top hypothesis into an ordered remediation plan.

    Runbooks whose trigger is covered by the fault's signature come first,
    in suggestion (success-rate) order; failing that, any suggested runbook
    whose steps include the remedy-table action for the kind. No hypotheses
    or no usable runbook yields an escalate-only plan.
    """
    stop = _stop_condition(alerts)
    if not hypotheses:
        return ActionPlan(entries=(), stop=stop, escalation_after=escalation_after)
    top = hypotheses[0]
    signature = FAULT_SIGNATURE[top.fault_kind]
    matching = [rb for rb in suggestions if rb.trigger <= signature]
    if not matching:
        seed_action = REMEDY[top.fault_kind].value
        matching = [rb for rb in suggestions if seed_action in rb.steps]
    entries = tuple(
        PlanEntry(
            runbook_id=rb.runbook_id,
            actions=tuple((step, top.suspect_entity) for step in rb.steps),
        )
        for rb in matching
    )
    return ActionPlan(entries=entries, stop=stop, escalation_after=escalation_after)


def lead_alert_key(alert) -> tuple:
    """Sort key that puts an incident's lead alert first: event alerts
    before metric alerts, then higher severity, then the oldest tick, then
    entity and attribute names."""
    return (
        0 if alert.attribute in EVENT_KINDS else 1,
        -alert.severity,
        alert.tick,
        alert.entity,
        alert.attribute,
    )


def _stop_condition(alerts: list) -> StopCondition:
    """The incident's leading symptom: the attribute of the lead alert (see
    `lead_alert_key`) and every entity alerting on it."""
    if not alerts:
        return StopCondition(attribute="", entities=frozenset())
    top_attr = min(alerts, key=lead_alert_key).attribute
    entities = frozenset(a.entity for a in alerts if a.attribute == top_attr)
    return StopCondition(attribute=top_attr, entities=entities)
