"""Root-cause diagnosis and remediation planning over a context pack.

Two routes, cheapest first. If any validated rule's antecedent is covered
by the observed symptoms, hypotheses come straight from those rules at one
compute unit per rule and graph propagation is skipped entirely. Otherwise
severity scores are propagated from the affected service across the packed
subgraph with geometric distance decay.

Both routes localise a fault kind through one table, `_localise`: an
alerting entity is a candidate when its symptoms cover the kind's
`FAULT_SIGNATURE`, and its suspect is found by walking the kind's share of
`INFRA_CHAIN` over the packed triples. The rule route blames the first
candidate by name; the propagation route offers one hypothesis per
candidate.

Every hypothesis cites the pack items it used, so a diagnosis can be
audited against exactly what the reasoner was shown.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
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
from .contextpack import ContextPack, PackItem, task_descriptor
from .memory.knowledge import INFRA_CHAIN, Triple, bfs
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


def _alerts_by_entity(pack: ContextPack) -> dict[str, list[tuple[str, object]]]:
    """(pack key, alert) pairs from the short-term section, by alerting entity."""
    out: dict[str, list[tuple[str, object]]] = {}
    for item in pack.section("short_term"):
        payload = item.payload
        alert = getattr(payload, "payload", payload)  # buffer item wraps the alert
        if hasattr(alert, "attribute") and hasattr(alert, "severity"):
            out.setdefault(alert.entity, []).append((item.key, alert))
    return out


def _adjacency(triples: list[Triple]) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {}
    for t in triples:
        adj.setdefault(t.subject, set()).add(t.object)
        adj.setdefault(t.object, set()).add(t.subject)
    return adj


def _follow(
    entity: str, items: list[PackItem], predicates: tuple[str, ...]
) -> tuple[str | None, list[PackItem]]:
    """Walk one packed triple per predicate from `entity` (subject to
    object): the end entity, or None at a missing hop, and the items walked."""
    path: list[PackItem] = []
    for predicate in predicates:
        hop = next((it for it in items
                    if it.payload.predicate == predicate and it.payload.subject == entity), None)
        if hop is None:
            return None, path
        path.append(hop)
        entity = hop.payload.object
    return entity, path


# How far up INFRA_CHAIN each kind's suspect sits from the alerting entity:
# a ToR fault is blamed on the switch above, a noisy neighbour on the node
# under the pod, and every other kind on the alerting entity itself.
_WALK = {
    FaultKind.TOR_PACKET_LOSS: INFRA_CHAIN,
    FaultKind.NOISY_NEIGHBOR: INFRA_CHAIN[:1],
}


def _localise(
    kind: FaultKind,
    attrs: dict[str, frozenset[str]],
    items: list[PackItem],
    affected_service: str,
) -> Iterator[tuple[str, str, list[PackItem]]]:
    """(alerting entity, suspect, packed triples walked) for each entity
    whose symptoms cover the kind's signature, in name order.

    The suspect is the end of the kind's walk, or the entity itself when a
    hop is missing from the pack. Ingress throttling is read only on the
    affected service."""
    signature = FAULT_SIGNATURE[kind]
    entities = (affected_service,) if kind is FaultKind.INGRESS_THROTTLE else sorted(attrs)
    for entity in entities:
        if signature <= attrs.get(entity, frozenset()):
            end, path = _follow(entity, items, _WALK.get(kind, ()))
            yield entity, end or entity, path


def _ranked(hypotheses: Iterable[RootCauseHypothesis]) -> tuple[RootCauseHypothesis, ...]:
    """The best-scoring hypothesis per (kind, suspect), the first on ties,
    ranked by score, then suspect, then kind."""
    best: dict[tuple[FaultKind, str], RootCauseHypothesis] = {}
    for hyp in hypotheses:
        key = (hyp.fault_kind, hyp.suspect_entity)
        if key not in best or hyp.score > best[key].score:
            best[key] = hyp
    return tuple(sorted(best.values(), key=lambda h: (-h.score, h.suspect_entity, h.fault_kind.value)))


def diagnose(pack: ContextPack) -> Diagnosis:
    """Rank root-cause hypotheses from the pack; empty ranking means abstain."""
    descriptor = task_descriptor(pack)
    affected_service = descriptor.affected_service
    by_entity = _alerts_by_entity(pack)
    attrs = {e: frozenset(alert.attribute for _, alert in pairs) for e, pairs in by_entity.items()}
    items = pack.section("kg_subgraph")

    # Route 1: validated-rule shortcut, blaming each implied kind's first
    # localised entity.
    matching = sorted(
        (item for item in pack.section("rules")
         if item.payload.antecedent <= descriptor.symptom_attributes),
        key=lambda it: (-it.payload.confidence, it.payload.rule_id),
    )
    if matching:
        def from_rules():
            for item in matching:
                rule = item.payload
                for label in sorted(rule.cause_labels):
                    kind = FaultKind(label[len(CAUSE_PREFIX):])
                    suspect = next(
                        (s for _, s, _ in _localise(kind, attrs, items, affected_service)),
                        affected_service,
                    )
                    yield RootCauseHypothesis(
                        fault_kind=kind,
                        suspect_entity=suspect,
                        score=rule.confidence * RULE_SCORE_BOOST,
                        evidence=(item.key,),
                        via_rule=rule.rule_id,
                    )

        return Diagnosis(_ranked(from_rules()), compute_units=float(len(matching)), path="rule_shortcut")

    # Route 2: severity propagation over the packed subgraph.
    if not by_entity:
        return Diagnosis((), compute_units=0.0, path="abstain")
    adj = _adjacency([item.payload for item in items])
    center = descriptor.affected_entity or affected_service
    dist = bfs(center, lambda v: adj.get(v, ()))
    # Alert entities outside the packed neighborhood still carry evidence;
    # they score as one hop beyond the farthest reachable entity.
    far = max(dist.values(), default=0) + 1

    def propagated():
        for kind in FaultKind:
            for entity, suspect, path in _localise(kind, attrs, items, affected_service):
                pairs = by_entity[entity]
                yield RootCauseHypothesis(
                    fault_kind=kind,
                    suspect_entity=suspect,
                    score=sum(
                        alert.severity * PROPAGATION_DECAY ** dist.get(entity, far)
                        for _, alert in pairs
                    ),
                    evidence=tuple(sorted(key for key, _ in pairs))
                    + tuple(item.key for item in path),
                )

    ranked = _ranked(propagated())
    return Diagnosis(ranked, compute_units=float(len(dist)), path="propagation" if ranked else "abstain")


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
