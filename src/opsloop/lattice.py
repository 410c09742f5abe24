"""Concept-lattice rule learning over episode histories.

Episodes become a binary object/attribute context (symptoms plus outcome
labels). Closed attribute sets are enumerated with the NextClosure
algorithm in lectic order, association rules are read off the closed
intents with exact support/confidence counting, and surviving rules are
checked against the knowledge graph before injection. Retirement handles
conditional forgetting: rules whose evidence died with decommissioned
hardware, lost confidence, or aged out without reconfirmation.

Internally a context stores incidence as per-attribute and per-object
int bitmasks; attribute index 0 is the lectically most significant
position. Enumeration and mining stay on masks from start to finish:
`_concept_masks` yields (extent, intent) mask pairs, each NextClosure
candidate's extent is one AND of a prefix extent with an attribute
extent, and a candidate is rejected by the Close-by-One canonicity test
(some attribute below it, outside the current intent, holds its whole
extent) before its intent is computed. Names and frozensets are built only
for what leaves the module: `concepts()` and the rules that survive the
thresholds.

`closure_calls` counts the candidate closures NextClosure examines, one
per candidate attribute tried, whatever the test rejects cheaply. That
count is a learning pass's `ill` charge.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .config import (
    ATTR_SOURCE,
    CAUSE_PREFIX,
    MIN_CONFIDENCE,
    MIN_SUPPORT,
    RESOLVED_PREFIX,
    is_outcome_label,
    resolved_label,
)
from .memory.knowledge import KnowledgeGraph


class ContextError(Exception):
    pass


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Concept:
    extent: frozenset[str]
    intent: frozenset[str]


def lattice_leq(a: Concept, b: Concept) -> bool:
    """Subconcept order: extent containment (equivalently intent reverse)."""
    return a.extent <= b.extent


class FormalContext:
    """Binary incidence between named objects and named attributes."""

    def __init__(self, objects: Iterable[str], attributes: Iterable[str],
                 incidence: Iterable[tuple[str, str]]):
        self.objects = tuple(objects)
        self.attributes = tuple(attributes)
        if len(set(self.objects)) != len(self.objects):
            raise ContextError("duplicate object names")
        if len(set(self.attributes)) != len(self.attributes):
            raise ContextError("duplicate attribute names")
        self._obj_index = {o: i for i, o in enumerate(self.objects)}
        self._attr_index = {a: i for i, a in enumerate(self.attributes)}
        self._attr_extents = [0] * len(self.attributes)
        self._obj_intents = [0] * len(self.objects)
        for obj, attr in incidence:
            try:
                oi = self._obj_index[obj]
                ai = self._attr_index[attr]
            except KeyError as exc:
                raise ContextError(f"incidence references unknown name: {exc}") from None
            self._attr_extents[ai] |= 1 << oi
            self._obj_intents[oi] |= 1 << ai
        self._all_objects = (1 << len(self.objects)) - 1
        self._all_attrs = (1 << len(self.attributes)) - 1
        self.closure_calls = 0

    # -- mask plumbing ---------------------------------------------------------

    def _attr_mask(self, attrs: Iterable[str]) -> int:
        mask = 0
        for a in attrs:
            try:
                mask |= 1 << self._attr_index[a]
            except KeyError:
                raise ContextError(f"unknown attribute: {a!r}") from None
        return mask

    def _obj_mask(self, objs: Iterable[str]) -> int:
        mask = 0
        for o in objs:
            try:
                mask |= 1 << self._obj_index[o]
            except KeyError:
                raise ContextError(f"unknown object: {o!r}") from None
        return mask

    def _attrs_from_mask(self, mask: int) -> frozenset[str]:
        return frozenset(self.attributes[i] for i in _bits(mask))

    def _objs_from_mask(self, mask: int) -> frozenset[str]:
        return frozenset(self.objects[i] for i in _bits(mask))

    def _extent_mask(self, attr_mask: int) -> int:
        extent = self._all_objects
        for i in _bits(attr_mask):
            extent &= self._attr_extents[i]
        return extent

    def _intent_mask(self, obj_mask: int) -> int:
        intent = self._all_attrs
        for i in _bits(obj_mask):
            intent &= self._obj_intents[i]
        return intent

    def _closure_mask(self, attr_mask: int) -> int:
        self.closure_calls += 1
        return self._intent_mask(self._extent_mask(attr_mask))

    # -- derivation operators ---------------------------------------------------

    def extent_of(self, attrs: Iterable[str]) -> frozenset[str]:
        """Objects having every attribute in `attrs` (prime on attributes)."""
        return self._objs_from_mask(self._extent_mask(self._attr_mask(attrs)))

    def intent_of(self, objs: Iterable[str]) -> frozenset[str]:
        """Attributes shared by every object in `objs` (prime on objects)."""
        return self._attrs_from_mask(self._intent_mask(self._obj_mask(objs)))

    def closure(self, attrs: Iterable[str]) -> frozenset[str]:
        """Double prime: the smallest closed attribute set containing attrs."""
        return self._attrs_from_mask(self._closure_mask(self._attr_mask(attrs)))

    # -- concept enumeration -----------------------------------------------------

    def _concept_masks(self) -> Iterator[tuple[int, int]]:
        """(extent, intent) masks of all concepts, intents in ascending
        lectic order: NextClosure, with each candidate computed on masks.

        From intent A, NextClosure tries each attribute i not in A, highest
        index first, as the candidate closure of (A below i) + {i}; the
        first candidate that adds no attribute below i is the next intent.
        Here the candidate's extent is `prefix_ext[i] & attr_extent[i]`,
        where `prefix_ext[i]` is the extent of A's attributes below i, and
        the candidate is canonical unless some attribute j < i outside A
        holds that whole extent (the Close-by-One test). Only a canonical
        candidate's intent is computed. Every candidate tried adds 1 to
        `closure_calls`, as a full closure per candidate would."""
        n = len(self.attributes)
        attr_ext = self._attr_extents
        # missing[j]: the objects without attribute j, so that an extent E
        # lies inside attribute j's extent exactly when E & missing[j] is 0.
        missing = [self._all_objects ^ e for e in attr_ext]
        self.closure_calls += 1
        extent = self._all_objects
        intent = self._intent_mask(extent)
        prefix_ext = [0] * n
        while True:
            yield extent, intent
            outside: list[int] = []  # attributes not in the intent, ascending
            ext = self._all_objects
            for i in range(n):
                if intent >> i & 1:
                    ext &= attr_ext[i]
                else:
                    outside.append(i)
                    prefix_ext[i] = ext
            for k in range(len(outside) - 1, -1, -1):
                i = outside[k]
                self.closure_calls += 1
                cand = prefix_ext[i] & attr_ext[i]
                for j in outside[:k]:
                    if not cand & missing[j]:
                        break
                else:
                    # Canonical: below i the intent keeps A's attributes;
                    # above i it gains each attribute holding the extent.
                    bit = 1 << i
                    intent = (intent & (bit - 1)) | bit
                    for j in range(i + 1, n):
                        if not cand & missing[j]:
                            intent |= 1 << j
                    extent = cand
                    break
            else:
                return

    def concepts(self) -> list[Concept]:
        """All formal concepts, intents in ascending lectic order.

        Includes the top concept (all objects) and, when no object has every
        attribute, the bottom concept (full attribute set, possibly empty
        extent)."""
        return [
            Concept(extent=self._objs_from_mask(extent), intent=self._attrs_from_mask(intent))
            for extent, intent in self._concept_masks()
        ]

    def meet(self, a: Concept, b: Concept) -> Concept:
        intent = self._closure_mask(self._attr_mask(a.intent | b.intent))
        return Concept(
            extent=self._objs_from_mask(self._extent_mask(intent)),
            intent=self._attrs_from_mask(intent),
        )

    def join(self, a: Concept, b: Concept) -> Concept:
        extent = self._extent_mask(self._intent_mask(self._obj_mask(a.extent | b.extent)))
        return Concept(
            extent=self._objs_from_mask(extent),
            intent=self._attrs_from_mask(self._intent_mask(extent)),
        )

    # -- serialization -------------------------------------------------------------

    def to_csv(self) -> str:
        lines = ["object," + ",".join(self.attributes)]
        for i, obj in enumerate(self.objects):
            row = self._obj_intents[i]
            cells = ["1" if row >> j & 1 else "0" for j in range(len(self.attributes))]
            lines.append(obj + "," + ",".join(cells))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "FormalContext":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("object,"):
            raise ContextError("context csv must start with an 'object,...' header")
        attributes = lines[0].split(",")[1:]
        objects: list[str] = []
        incidence: list[tuple[str, str]] = []
        for line in lines[1:]:
            cells = line.split(",")
            obj = cells[0]
            objects.append(obj)
            if len(cells) - 1 != len(attributes):
                raise ContextError(f"row width mismatch for object {obj!r}")
            for attr, cell in zip(attributes, cells[1:]):
                if cell == "1":
                    incidence.append((obj, attr))
                elif cell != "0":
                    raise ContextError(f"cell must be 0 or 1, got {cell!r}")
        return cls(objects, attributes, incidence)


def context_from_episodes(episodes: list, vocab: tuple[str, ...]) -> FormalContext:
    """Build the mining context: one object per episode, attributes are the
    episode's symptoms plus cause_*/resolved_by_* outcome labels."""
    vocab_set = set(vocab)
    rows: dict[str, set[str]] = {}
    for ep in sorted(episodes, key=lambda e: e.episode_id):
        attrs = set(ep.symptom_attributes)
        bad = attrs - vocab_set
        if bad:
            raise ContextError(
                f"episode {ep.episode_id!r} has symptoms outside the vocabulary: {sorted(bad)}"
            )
        if ep.root_cause_label:
            attrs.add(ep.root_cause_label)
        for action, _target, success in ep.actions:
            if success:
                attrs.add(resolved_label(action))
        rows[ep.episode_id] = attrs
    attributes = sorted(set().union(*rows.values())) if rows else []
    incidence = [(obj, attr) for obj, attrs in rows.items() for attr in sorted(attrs)]
    return FormalContext(rows.keys(), attributes, incidence)


# -- rules ---------------------------------------------------------------------


@dataclass
class Rule:
    """Symptom-pattern implication distilled from closed intents."""

    antecedent: frozenset[str]
    consequent: frozenset[str]
    support: float
    confidence: float
    status: str = "candidate"  # candidate | validated | retired
    provenance: tuple[str, ...] = ()
    asserted_tick: int = -1
    last_confirmed_tick: int = -1
    last_confirmed_count: int = -1
    checked: bool = False

    @property
    def rule_id(self) -> str:
        return (
            "rule:" + "+".join(sorted(self.antecedent))
            + "=>" + "+".join(sorted(self.consequent))
        )

    @property
    def cause_labels(self) -> frozenset[str]:
        return frozenset(c for c in self.consequent if c.startswith(CAUSE_PREFIX))

    def to_dict(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "antecedent": sorted(self.antecedent),
            "consequent": sorted(self.consequent),
            "support": self.support,
            "confidence": self.confidence,
            "status": self.status,
            "provenance": list(self.provenance),
            "asserted_tick": self.asserted_tick,
            "last_confirmed_tick": self.last_confirmed_tick,
            "last_confirmed_count": self.last_confirmed_count,
        }


def mine_rules(
    context: FormalContext,
    min_support: float = MIN_SUPPORT,
    min_confidence: float = MIN_CONFIDENCE,
) -> list[Rule]:
    """Read actionable rules off the closed intents.

    Each concept intent I splits into antecedent A = symptom attributes and
    consequent C = outcome labels; the rule A => C is kept when both halves
    are nonempty and support |ext(I)|/n and confidence |ext(I)|/|ext(A)|
    clear the thresholds. Counting is exact."""
    n = len(context.objects)
    if n == 0:
        return []
    outcome = context._attr_mask(a for a in context.attributes if is_outcome_label(a))
    rules: dict[str, Rule] = {}
    for extent, intent in context._concept_masks():
        ante_mask = intent & ~outcome
        cons_mask = intent & outcome
        if not ante_mask or not cons_mask:
            continue
        full_count = extent.bit_count()
        if full_count == 0:
            continue
        support = full_count / n
        if support < min_support:
            continue
        # ext(A) contains ext(I), so it is not empty either.
        confidence = full_count / context._extent_mask(ante_mask).bit_count()
        if confidence < min_confidence:
            continue
        rule = Rule(
            antecedent=context._attrs_from_mask(ante_mask),
            consequent=context._attrs_from_mask(cons_mask),
            support=support,
            confidence=confidence,
            provenance=tuple(sorted(context._objs_from_mask(extent))),
        )
        rules[rule.rule_id] = rule
    return [rules[k] for k in sorted(rules)]


@dataclass(frozen=True)
class ConsistencyResult:
    ok: bool
    reason: str | None = None


def check_consistency(
    rule: Rule, kg: KnowledgeGraph, episodes: Mapping[str, object]
) -> ConsistencyResult:
    """Validate a mined rule against the knowledge graph.

    Checks: antecedent attributes are vocabulary symptoms; consequent labels
    resolve to registered FaultKind/Action entities; no provenance episode
    touches decommissioned hardware; and no validated rule with the same
    antecedent asserts a different cause at strictly higher confidence."""
    for attr in sorted(rule.antecedent):
        if attr not in ATTR_SOURCE:
            return ConsistencyResult(False, f"antecedent {attr!r} is not a known symptom")
    for label in sorted(rule.consequent):
        if label.startswith(CAUSE_PREFIX):
            kind = label[len(CAUSE_PREFIX):]
            if kg.class_of(kind) != "FaultKind":
                return ConsistencyResult(False, f"{label!r} names unknown fault kind")
        elif label.startswith(RESOLVED_PREFIX):
            action = label[len(RESOLVED_PREFIX):]
            if kg.class_of(action) != "Action":
                return ConsistencyResult(False, f"{label!r} names unknown action")
        else:
            return ConsistencyResult(False, f"consequent {label!r} is not an outcome label")
    decommissioned = kg.decommissioned_entities()
    for episode_id in rule.provenance:
        ep = episodes.get(episode_id)
        if ep is None:
            return ConsistencyResult(False, f"provenance episode {episode_id!r} unknown")
        if decommissioned and ep.entities & decommissioned:
            return ConsistencyResult(
                False, f"provenance episode {episode_id!r} references decommissioned hardware"
            )
    causes = rule.cause_labels
    if causes:
        for other in kg.rules.values():
            if (
                other.status == "validated"
                and other.antecedent == rule.antecedent
                and other.cause_labels
                and other.cause_labels != causes
                and other.confidence > rule.confidence
            ):
                return ConsistencyResult(
                    False,
                    f"contradicts higher-confidence rule {other.rule_id}",
                )
    return ConsistencyResult(True)


def aset_id(antecedent: frozenset[str]) -> str:
    return "aset:" + "+".join(sorted(antecedent))


def inject_rules(
    rules: list[Rule], kg: KnowledgeGraph, tick: int, episode_count: int
) -> list[Rule]:
    """Promote consistency-checked rules into the graph.

    New rules are stored validated with indicates/remedied_by triples;
    re-mined rules update their counters and provenance in place (a retired
    rule re-proven by live evidence comes back)."""
    injected: list[Rule] = []
    for rule in rules:
        if not rule.checked:
            raise ValueError(f"rule {rule.rule_id} has not passed a consistency check")
        existing = kg.rules.get(rule.rule_id)
        if existing is None:
            rule.status = "validated"
            rule.asserted_tick = tick
            rule.last_confirmed_tick = tick
            rule.last_confirmed_count = episode_count
            kg.rules[rule.rule_id] = rule
            stored = rule
        else:
            existing.support = rule.support
            existing.confidence = rule.confidence
            existing.provenance = rule.provenance
            existing.status = "validated"
            existing.last_confirmed_tick = tick
            existing.last_confirmed_count = episode_count
            existing.checked = True
            stored = existing
        kg.register_entity(stored.rule_id, "Rule")
        set_id = aset_id(stored.antecedent)
        kg.register_entity(set_id, "AttributeSet")
        kinds = [c[len(CAUSE_PREFIX):] for c in sorted(stored.cause_labels)]
        actions = [
            c[len(RESOLVED_PREFIX):]
            for c in sorted(stored.consequent)
            if c.startswith(RESOLVED_PREFIX)
        ]
        for kind in kinds:
            kg.assert_triple(set_id, "indicates", kind, provenance="ill", tick=tick)
            for action in actions:
                kg.assert_triple(kind, "remedied_by", action, provenance="ill", tick=tick)
        injected.append(stored)
    return injected


@dataclass(frozen=True)
class RetireCriteria:
    decommissioned_entities: frozenset[str] | None = None
    confidence_floor: float | None = None
    max_age_episodes: int | None = None


def retire_rules(
    kg: KnowledgeGraph,
    criteria: RetireCriteria,
    episodes: Mapping[str, object],
    episode_count: int,
) -> list[Rule]:
    """Retire validated rules matching any criterion; returns those retired.

    The decommission criterion is exclusive-provenance: every supporting
    episode must reference dead hardware. Rules retired here stay in the
    registry (status 'retired') for audit."""
    retired: list[Rule] = []
    for rule_id in sorted(kg.rules):
        rule = kg.rules[rule_id]
        if rule.status != "validated":
            continue
        hit = False
        dec = criteria.decommissioned_entities
        if dec and rule.provenance:
            def references_dead(episode_id: str) -> bool:
                ep = episodes.get(episode_id)
                return ep is None or bool(ep.entities & dec)
            if all(references_dead(eid) for eid in rule.provenance):
                hit = True
        if criteria.confidence_floor is not None and rule.confidence < criteria.confidence_floor:
            hit = True
        if (
            criteria.max_age_episodes is not None
            and rule.last_confirmed_count >= 0
            and episode_count - rule.last_confirmed_count > criteria.max_age_episodes
        ):
            hit = True
        if hit:
            rule.status = "retired"
            retired.append(rule)
    return retired


def validated_rules(kg: KnowledgeGraph) -> list[Rule]:
    return [kg.rules[k] for k in sorted(kg.rules) if kg.rules[k].status == "validated"]


def rules_jsonl(kg: KnowledgeGraph) -> list[str]:
    return [
        json.dumps(kg.rules[k].to_dict(), sort_keys=True, separators=(",", ":"))
        for k in sorted(kg.rules)
    ]


@dataclass
class DistillReport:
    context: FormalContext
    mined: list[Rule]
    accepted: list[Rule]
    rejected: list[tuple[Rule, str]]
    retired: list[Rule] = field(default_factory=list)
    closure_calls: int = 0


def distill(
    episodes: list,
    kg: KnowledgeGraph,
    vocab: tuple[str, ...],
    *,
    min_support: float = MIN_SUPPORT,
    min_confidence: float = MIN_CONFIDENCE,
    confidence_floor: float | None = None,
    max_age_episodes: int | None = None,
    tick: int = 0,
    episode_count: int = 0,
) -> DistillReport:
    """The full learning pass: context -> concepts -> rules -> checked
    injection, then confidence/age retirement sweep."""
    context = context_from_episodes(episodes, vocab)
    mined = mine_rules(context, min_support, min_confidence)
    lookup = {ep.episode_id: ep for ep in episodes}
    accepted: list[Rule] = []
    rejected: list[tuple[Rule, str]] = []
    for rule in mined:
        result = check_consistency(rule, kg, lookup)
        if result.ok:
            rule.checked = True
            accepted.append(rule)
        else:
            rejected.append((rule, result.reason or "inconsistent"))
    inject_rules(accepted, kg, tick=tick, episode_count=episode_count)
    retired = retire_rules(
        kg,
        RetireCriteria(
            confidence_floor=confidence_floor,
            max_age_episodes=max_age_episodes,
        ),
        lookup,
        episode_count=episode_count,
    )
    return DistillReport(
        context=context,
        mined=mined,
        accepted=accepted,
        rejected=rejected,
        retired=retired,
        closure_calls=context.closure_calls,
    )
