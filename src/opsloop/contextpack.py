"""Budgeted context assembly for the diagnosis step.

The pack has a fixed section order (task, policies, short-term, episodic,
knowledge subgraph, rules, runbooks). Candidates are gathered from the
memory tiers, then packed greedily: a candidate that would blow its
section cap is skipped, but the first candidate that would blow the
overall budget stops packing outright. The stop-at-first-overflow rule
gives the prefix property: shrinking the budget can only truncate the
pack, never reshuffle it. Every candidate's fate lands in the assembly
trace.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .config import (
    DEFAULT_SECTION_CAPS,
    EPISODIC_K,
    PACK_BUDGET,
    SECTION_ORDER,
    SUBGRAPH_RADIUS,
    SYMPTOM_VOCAB,
    WEIGHT_MAX,
    WEIGHT_MIN,
    WEIGHT_STEP,
)
from .lattice import validated_rules
from .memory import Memories
from .memory.episodic import embed_features


class PackBudgetError(Exception):
    """The mandatory task section does not fit in the budget."""


@dataclass(frozen=True)
class IncidentDescriptor:
    """What the loop knows about an open incident when assembly starts."""

    incident_id: str
    affected_service: str
    affected_entity: str
    symptom_attributes: frozenset[str]
    max_severity: int
    start_tick: int
    affected_services: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "incident_id": self.incident_id,
            "affected_service": self.affected_service,
            "affected_entity": self.affected_entity,
            "symptom_attributes": sorted(self.symptom_attributes),
            "max_severity": self.max_severity,
            "start_tick": self.start_tick,
            "affected_services": list(self.affected_services),
        }


@dataclass(frozen=True)
class PackItem:
    section: str
    key: str
    payload: Any
    priority: int
    cost: int


@dataclass(frozen=True)
class TraceEntry:
    section: str
    key: str
    cost: int
    included: bool
    reason: str


@dataclass
class BudgetPolicy:
    pack_budget: int = PACK_BUDGET
    section_caps: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_SECTION_CAPS))
    weights: dict[str, float] = field(default_factory=lambda: {s: 1.0 for s in SECTION_ORDER})

    def effective_cap(self, section: str) -> int:
        cap = self.section_caps.get(section, 0)
        weight = self.weights.get(section, 1.0)
        return max(1, int(cap * weight))


@dataclass
class ContextPack:
    budget: int
    items: dict[str, list[PackItem]]
    total_cost: int
    trace: list[TraceEntry]
    memory_touched: int

    def section(self, name: str) -> list[PackItem]:
        return self.items.get(name, [])

    @property
    def included_count(self) -> int:
        return sum(len(v) for v in self.items.values())

    def keys(self) -> frozenset[str]:
        return frozenset(it.key for section in self.items.values() for it in section)

    def trace_dict(self) -> list[dict]:
        return [
            {
                "section": t.section,
                "key": t.key,
                "cost": t.cost,
                "included": t.included,
                "reason": t.reason,
            }
            for t in self.trace
        ]


def _candidates(
    query: IncidentDescriptor,
    memories: Memories,
    *,
    episodic_k: int,
    subgraph_radius: int,
    vocab: tuple[str, ...],
) -> tuple[list[PackItem], int]:
    """Gather candidates per section, in deterministic rank order."""
    symptoms = query.symptom_attributes
    out: list[PackItem] = []
    touched = 0

    out.append(PackItem("task", f"task:{query.incident_id}", query, priority=3, cost=1))

    policies = memories.kg.query(None, "constrained_by", None)
    touched += len(policies)
    for t in policies:
        out.append(PackItem(
            "policies", f"policies:{t.subject}|{t.predicate}|{t.object}", t, priority=2, cost=1,
        ))

    stitems = memories.buffer.snapshot(incident=query.incident_id)
    touched += len(stitems)
    for it in sorted(stitems, key=lambda b: (-b.priority, b.seq)):
        out.append(PackItem("short_term", f"short_term:{it.seq}", it, priority=it.priority, cost=1))

    query_vec = embed_features(symptoms, 0, query.max_severity, vocab)
    touched += memories.episodic.live_count()
    for episode, similarity in memories.episodic.search(query_vec, episodic_k):
        out.append(PackItem(
            "episodic",
            f"episodic:{episode.episode_id}",
            (episode, similarity),
            priority=1,
            cost=1 + len(episode.actions),
        ))

    center = query.affected_entity or query.affected_service
    triples = memories.kg.subgraph(center, subgraph_radius)
    touched += len(triples)
    for t in triples:
        out.append(PackItem(
            "kg_subgraph", f"kg_subgraph:{t.subject}|{t.predicate}|{t.object}", t, priority=1, cost=1,
        ))

    touched += len(memories.kg.rules)
    rules = [r for r in validated_rules(memories.kg) if r.antecedent & symptoms]
    rules.sort(key=lambda r: (-r.confidence, r.rule_id))
    for r in rules:
        out.append(PackItem("rules", f"rules:{r.rule_id}", r, priority=2, cost=1))

    touched += len(memories.runbooks)
    for rb in memories.runbooks.suggest(symptoms, memories.blocked_policy_tags):
        out.append(PackItem("runbooks", f"runbooks:{rb.runbook_id}", rb, priority=1, cost=1))

    return out, touched


def assemble(
    query: IncidentDescriptor,
    memories: Memories,
    policy: BudgetPolicy,
    *,
    episodic_k: int = EPISODIC_K,
    subgraph_radius: int = SUBGRAPH_RADIUS,
    vocab: tuple[str, ...] = SYMPTOM_VOCAB,
) -> ContextPack:
    """Assemble a pack for the incident under the budget policy.

    Raises PackBudgetError when even the task item does not fit; everything
    else degrades gracefully and is visible in the trace."""
    candidates, touched = _candidates(
        query, memories,
        episodic_k=episodic_k, subgraph_radius=subgraph_radius, vocab=vocab,
    )
    order = {s: i for i, s in enumerate(SECTION_ORDER)}
    candidates.sort(key=lambda c: order[c.section])  # stable: keeps in-section rank

    items: dict[str, list[PackItem]] = {s: [] for s in SECTION_ORDER}
    caps = {s: policy.effective_cap(s) for s in SECTION_ORDER}
    trace: list[TraceEntry] = []
    section_cost: dict[str, int] = {s: 0 for s in SECTION_ORDER}
    total = 0
    stopped = False
    for cand in candidates:
        if stopped:
            trace.append(TraceEntry(cand.section, cand.key, cand.cost, False, "pack budget exhausted"))
            continue
        if section_cost[cand.section] + cand.cost > caps[cand.section]:
            trace.append(TraceEntry(cand.section, cand.key, cand.cost, False, "section cap"))
            continue
        if total + cand.cost > policy.pack_budget:
            stopped = True
            if cand.section == "task":
                raise PackBudgetError(
                    f"task section needs {cand.cost} units, budget is {policy.pack_budget}"
                )
            trace.append(TraceEntry(cand.section, cand.key, cand.cost, False, "pack budget exhausted"))
            continue
        items[cand.section].append(cand)
        section_cost[cand.section] += cand.cost
        total += cand.cost
        trace.append(TraceEntry(cand.section, cand.key, cand.cost, True, "included"))
    if not items["task"]:
        raise PackBudgetError("task section missing from pack")
    return ContextPack(
        budget=policy.pack_budget,
        items={s: v for s, v in items.items() if v},
        total_cost=total,
        trace=trace,
        memory_touched=touched,
    )


def update_weights(
    weights: dict[str, float],
    cited_sections: set[str],
    success: bool,
    step: float = WEIGHT_STEP,
) -> dict[str, float]:
    """Nudge section weights from diagnosis feedback, clamped to bounds."""
    out = dict(weights)
    delta = step if success else -step
    for section in cited_sections:
        if section in SECTION_ORDER:
            current = out.get(section, 1.0)
            out[section] = min(WEIGHT_MAX, max(WEIGHT_MIN, round(current + delta, 10)))
    return out


def task_descriptor(pack: ContextPack) -> IncidentDescriptor:
    task_items = pack.section("task")
    if not task_items:
        raise ValueError("pack has no task section")
    return task_items[0].payload
