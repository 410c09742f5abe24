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

The knowledge subgraph is the one large section, and the same triples
rank in episode after episode. A triple's candidate, with its key and its
three possible trace entries, is made the first time the run's graph
ranks it and kept in the graph's `assembly_cache`, so equal entries are one
object. Once a section is full or packing has stopped, every remaining
candidate gets the same reason, and the trace takes their entries without
a check each.
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


# A candidate's fate in the pack, indexing `_REASONS`.
_INCLUDED, _CAPPED, _EXHAUSTED = range(3)
_REASONS = ("included", "section cap", "pack budget exhausted")


def _entry(section: str, key: str, cost: int, fate: int) -> TraceEntry:
    return TraceEntry(section, key, cost, fate == _INCLUDED, _REASONS[fate])


def _kg_candidate(cache: dict[int, tuple], t) -> tuple:
    """The `kg_subgraph` candidate of triple `t`, with all three of its trace
    entries, made on the graph's first ranking of `t` and kept in `cache`."""
    key = f"kg_subgraph:{t.subject}|{t.predicate}|{t.object}"
    fates = tuple(_entry("kg_subgraph", key, 1, fate) for fate in range(3))
    cache[id(t)] = cand = (key, t, 1, 1, fates)
    return cand


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

    def pack(section: str, candidates: list[tuple[str, Any, int, int, tuple | None]]) -> None:
        """Pack one section's candidates, in rank order. A candidate is (key,
        payload, priority, cost, fates): `fates` holds its trace entries made
        once per run, indexed by fate, or is None to make the entry here."""
        nonlocal total, stopped
        cap = policy.effective_cap(section)
        packed: list[PackItem] = []
        used = 0
        rest = iter(candidates)
        for key, payload, priority, cost, fates in rest:
            if stopped:
                fate = _EXHAUSTED
            elif used + cost > cap:
                fate = _CAPPED
            elif total + cost > budget:
                if section == "task":
                    raise PackBudgetError(f"task section needs {cost} units, budget is {budget}")
                stopped = True
                fate = _EXHAUSTED
            else:
                packed.append(PackItem(section, key, payload, priority, cost))
                used += cost
                total += cost
                fate = _INCLUDED
            trace.append(fates[fate] if fates else _entry(section, key, cost, fate))
            if stopped or used == cap:
                # Every candidate costs at least 1, so once packing has
                # stopped or the section is full, no later candidate fits:
                # they all get the same entry reason.
                fate = _EXHAUSTED if stopped else _CAPPED
                trace.extend(f[fate] if f else _entry(section, k, c, fate)
                             for k, _, _, c, f in rest)
                break
        if packed:
            items[section] = packed

    symptoms = query.symptom_attributes
    pack("task", [(f"task:{query.incident_id}", query, 3, 1, None)])

    policies = memories.kg.query(None, "constrained_by", None)
    pack("policies", [
        (f"policies:{t.subject}|{t.predicate}|{t.object}", t, 2, 1, None) for t in policies
    ])

    stitems = memories.buffer.snapshot(incident=query.incident_id)
    pack("short_term", [
        (f"short_term:{it.seq}", it, it.priority, 1, None)
        for it in sorted(stitems, key=lambda b: (-b.priority, b.seq))
    ])

    query_vec = embed_features(symptoms, 0, query.max_severity)
    pack("episodic", [
        (f"episodic:{episode.episode_id}", (episode, similarity), 1, 1 + len(episode.actions),
         None)
        for episode, similarity in memories.episodic.search(query_vec, episodic_k)
    ])

    center = query.affected_entity or query.affected_service
    triples = memories.kg.subgraph(center, subgraph_radius)
    cache = memories.kg.assembly_cache
    pack("kg_subgraph", [cache.get(id(t)) or _kg_candidate(cache, t) for t in triples])

    rules = [r for r in validated_rules(memories.kg) if r.antecedent & symptoms]
    rules.sort(key=lambda r: (-r.confidence, r.rule_id))
    pack("rules", [(f"rules:{r.rule_id}", r, 2, 1, None) for r in rules])

    pack("runbooks", [
        (f"runbooks:{rb.runbook_id}", rb, 1, 1, None)
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
