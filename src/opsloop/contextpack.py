"""Budgeted context assembly for the diagnosis step.

The pack has a fixed section order (task, policies, short-term, episodic,
knowledge subgraph, rules, runbooks). Assembly makes one pass over the
sections in that order: it ranks a section's candidates from its memory
tier and packs them greedily at once, under the section's cap. A candidate that would blow its
section cap is skipped, but the first candidate that would blow the
overall budget stops packing outright, for this section and every later
one. The stop-at-first-overflow rule gives the prefix property: shrinking
the budget can only truncate the pack, never reshuffle it. Every
candidate's fate lands in the assembly trace; only a packed candidate
becomes a `PackItem`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

from .config import (
    DEFAULT_SECTION_CAPS,
    EPISODIC_K,
    PACK_BUDGET,
    SECTION_ORDER,
    SUBGRAPH_RADIUS,
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


class PackItem(NamedTuple):
    section: str
    key: str
    payload: Any
    priority: int
    cost: int


class TraceEntry(NamedTuple):
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
        """The section's cap scaled by its weight. A config cap is at least 1,
        and a weight below 1 never scales it down to no item."""
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


def assemble(
    query: IncidentDescriptor,
    memories: Memories,
    policy: BudgetPolicy,
    *,
    episodic_k: int = EPISODIC_K,
    subgraph_radius: int = SUBGRAPH_RADIUS,
) -> ContextPack:
    """Assemble a pack for the incident under the budget policy.

    Raises PackBudgetError when even the task item does not fit; everything
    else degrades gracefully and is visible in the trace."""
    budget = policy.pack_budget
    items: dict[str, list[PackItem]] = {}
    trace: list[TraceEntry] = []
    total = 0
    stopped = False

    def pack(section: str, candidates: list[tuple[str, Any, int, int]]) -> None:
        """Pack one section's (key, payload, priority, cost) candidates, in rank order."""
        nonlocal total, stopped
        cap = policy.effective_cap(section)
        packed: list[PackItem] = []
        used = 0
        for key, payload, priority, cost in candidates:
            if stopped:
                reason = "pack budget exhausted"
            elif used + cost > cap:
                reason = "section cap"
            elif total + cost > budget:
                if section == "task":
                    raise PackBudgetError(f"task section needs {cost} units, budget is {budget}")
                stopped = True
                reason = "pack budget exhausted"
            else:
                packed.append(PackItem(section, key, payload, priority, cost))
                used += cost
                total += cost
                trace.append(TraceEntry(section, key, cost, True, "included"))
                continue
            trace.append(TraceEntry(section, key, cost, False, reason))
        if packed:
            items[section] = packed

    symptoms = query.symptom_attributes
    pack("task", [(f"task:{query.incident_id}", query, 3, 1)])

    policies = memories.kg.query(None, "constrained_by", None)
    pack("policies", [
        (f"policies:{t.subject}|{t.predicate}|{t.object}", t, 2, 1) for t in policies
    ])

    stitems = memories.buffer.snapshot(incident=query.incident_id)
    pack("short_term", [
        (f"short_term:{it.seq}", it, it.priority, 1)
        for it in sorted(stitems, key=lambda b: (-b.priority, b.seq))
    ])

    query_vec = embed_features(symptoms, 0, query.max_severity)
    pack("episodic", [
        (f"episodic:{episode.episode_id}", (episode, similarity), 1, 1 + len(episode.actions))
        for episode, similarity in memories.episodic.search(query_vec, episodic_k)
    ])

    center = query.affected_entity or query.affected_service
    triples = memories.kg.subgraph(center, subgraph_radius)
    pack("kg_subgraph", [
        (f"kg_subgraph:{t.subject}|{t.predicate}|{t.object}", t, 1, 1) for t in triples
    ])

    rules = [r for r in validated_rules(memories.kg) if r.antecedent & symptoms]
    rules.sort(key=lambda r: (-r.confidence, r.rule_id))
    pack("rules", [(f"rules:{r.rule_id}", r, 2, 1) for r in rules])

    pack("runbooks", [
        (f"runbooks:{rb.runbook_id}", rb, 1, 1)
        for rb in memories.runbooks.suggest(symptoms, memories.blocked_policy_tags)
    ])
    touched = (len(policies) + len(stitems) + memories.episodic.live_count() + len(triples)
               + len(memories.kg.rules) + len(memories.runbooks))
    return ContextPack(
        budget=budget,
        items=items,
        total_cost=total,
        trace=trace,
        memory_touched=touched,
    )


def update_weights(
    weights: dict[str, float],
    cited_sections: set[str],
    success: bool,
) -> dict[str, float]:
    """Nudge section weights from diagnosis feedback, clamped to bounds."""
    out = dict(weights)
    delta = WEIGHT_STEP if success else -WEIGHT_STEP
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
