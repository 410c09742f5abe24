"""Concept-lattice rule learning over episode histories.

Episodes become a binary object/attribute context (symptoms plus outcome
labels). Closed attribute sets are the context's concept lattice,
association rules are read off the closed intents with exact
support/confidence counting, and surviving rules are checked against the
knowledge graph before injection. Retirement handles conditional
forgetting: rules whose evidence died with decommissioned hardware, lost
confidence, or aged out without reconfirmation.

Internally a context stores incidence as per-attribute and per-object
int bitmasks. Attribute i of m sits at bit m - 1 - i, so attribute 0 is
the lectically most significant position and lectic order is integer
order; object i sits at bit i, so rows append. Names and frozensets are
built only for what leaves the module: `concepts()` and the rules that
survive the thresholds.

A context keeps two things apart. Its lattice, once computed, is the
intents in ascending order and their NextClosure count, and exists only
for that count: `closure_calls` counts the candidate closures Ganter's
NextClosure would examine to list the lattice, one per candidate
attribute tried, and that count is a learning pass's `ill` charge.
Mining does not read the lattice. It runs Close-by-One (Kuznetsov 1993)
from the top concept and visits only the concepts whose extent is large
enough to clear the support threshold, which in a learning pass are a
handful of the hundreds of intents. Both exist because the `ill` charge
is NextClosure's count over the whole lattice and the run's artifacts
record it: charging the search's own candidates instead would drop the
lattice but change those bytes.

Insertion builds every lattice, the way Godin, Missaoui & Alaoui (1995)
add an object. A context's lattice starts as the lattice of no objects,
the full attribute set alone, and takes each row in object order. The
new intents are the intersections of the row with the old intents that
are not intents already; a row the lattice already holds adds none and
costs one set lookup. Between learning passes the history only grows, so
`context_from_episodes` extends the last context it built and moves that
context's lattice into the new one, inserting only the new rows; most of
them recur. The count follows from the intents alone: from intent A,
NextClosure tries every attribute outside A at or above the lowest index
where A and its lectic successor differ, which is their highest
differing bit. So insertion keeps the count summed over lectic
neighbours, without running NextClosure.

The search carries, at each concept, the attributes that can still
extend it with an extent that clears the cut, each with that extent, as
In-Close does (Andrews 2009): a child's extent is one AND, and an
attribute whose extent falls below the cut cannot hold a frequent
extent, so canonicity and closure are tested against frequent attributes
only.
"""
from __future__ import annotations

import bisect
import copy
import json
import operator
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Iterator, Mapping

from .config import (
    ASET_PREFIX,
    ATTR_SOURCE,
    CAUSE_PREFIX,
    MIN_CONFIDENCE,
    MIN_SUPPORT,
    RESOLVED_PREFIX,
    RULE_PREFIX,
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


# Binary digits to 0/1 bytes, for `compress`.
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _selected(names: tuple[str, ...], mask: int) -> Iterator[str]:
    """The names at the set bits of an object mask (name i at bit i), in
    order, in one C-level pass: the mask's binary digits, reversed, flag
    each name in turn."""
    return compress(names, bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS))


def _tries(a: int, b: int) -> int:
    """The candidates NextClosure tries from intent `a` to reach its lectic
    successor `b`: the attributes outside `a` at or above the lowest index
    where the two differ, the bits of `~a` up to their highest differing
    bit."""
    return (~a & ((1 << (a ^ b).bit_length()) - 1)).bit_count()


@dataclass
class _Lattice:
    """A context's intents in ascending (lectic) order, the same intents
    as a set, and the candidates NextClosure tries to list them; and the
    mask of the outcome labels, which holds while the attributes do."""

    intents: list[int]
    known: set[int]
    closure_calls: int
    outcome: int


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
        # Each attribute's bit, the first attribute's highest (module
        # docstring); `_attr_extents` is indexed by bit.
        top = len(self.attributes) - 1
        self._attr_bit = {a: top - i for i, a in enumerate(self.attributes)}
        self._attr_extents = [0] * len(self.attributes)
        self._obj_intents = [0] * len(self.objects)
        for obj, attr in incidence:
            try:
                oi = self._obj_index[obj]
                b = self._attr_bit[attr]
            except KeyError as exc:
                raise ContextError(f"incidence references unknown name: {exc}") from None
            self._attr_extents[b] |= 1 << oi
            self._obj_intents[oi] |= 1 << b
        self._all_objects = (1 << len(self.objects)) - 1
        self._all_attrs = (1 << len(self.attributes)) - 1
        self.closure_calls = 0
        self._lattice: _Lattice | None = None
        # `to_csv`'s lines of the first objects, shared with the context
        # extended from this one, which starts with the same rows.
        self._csv_rows: list[str] = []
        self._csv_shared = False

    # -- mask plumbing ---------------------------------------------------------

    def _attr_mask(self, attrs: Iterable[str]) -> int:
        mask = 0
        for a in attrs:
            try:
                mask |= 1 << self._attr_bit[a]
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

    def _attr_digits(self, mask: int) -> str:
        """The 0/1 digit of each attribute in `mask`, in attribute order:
        the mask's binary digits below a top bit."""
        return bin(mask | 1 << len(self.attributes))[3:]

    def _attrs_from_mask(self, mask: int) -> frozenset[str]:
        flags = self._attr_digits(mask).encode().translate(_DIGIT_FLAGS)
        return frozenset(compress(self.attributes, flags))

    def _objs_from_mask(self, mask: int) -> frozenset[str]:
        return frozenset(_selected(self.objects, mask))

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

    def _listed_lattice(self) -> _Lattice:
        """The lattice, built first if there is none. Each call adds the
        lattice's NextClosure count to `closure_calls`, as listing the
        lattice afresh would."""
        lattice = self._lattice
        if lattice is None:
            # The lattice of no objects: the full set, one closure to reach.
            full = self._all_attrs
            outcome = self._attr_mask(a for a in self.attributes if is_outcome_label(a))
            lattice = self._lattice = _Lattice([full], {full}, 1, outcome)
            for row in self._obj_intents:
                self._insert(row)
        self.closure_calls += lattice.closure_calls
        return lattice

    def _insert(self, row: int) -> None:
        """Add an object with intent `row` to the lattice (Godin's
        insertion). The new intents are the intersections of each intent
        with `row` that are not intents yet; a row that is an intent
        already adds none, since intents are closed under intersection.
        Each new intent is placed in order, and the count trades its
        neighbours' term for the two through it."""
        lattice = self._lattice
        known = lattice.known
        if row in known:
            return
        intents = lattice.intents
        for intent in {intent & row for intent in intents}.difference(known):
            known.add(intent)
            i = bisect.bisect(intents, intent)
            after = intents[i]  # never past the end: the full set is last
            calls = _tries(intent, after)
            if i:
                before = intents[i - 1]
                calls += _tries(before, intent) - _tries(before, after)
            lattice.closure_calls += calls
            intents.insert(i, intent)

    def _extended(self, rows: dict[str, int]) -> FormalContext:
        """This context with `rows` (new object name -> intent mask over the
        same attributes) appended. The new context takes this one's lattice,
        if it has one, and inserts each row into it; this context computes
        its lattice again if it is asked for it. The first context extended
        from this one shares its CSV lines; a later one would append other
        rows to them, so it takes a copy."""
        new = copy.copy(self)
        new.objects = self.objects + tuple(rows)
        new._obj_index = dict(self._obj_index)
        new._attr_extents = self._attr_extents.copy()
        new._obj_intents = self._obj_intents + list(rows.values())
        new.closure_calls = 0
        new._lattice, self._lattice = self._lattice, None
        if self._csv_shared:
            new._csv_rows = self._csv_rows[:len(self.objects)]
        new._csv_shared, self._csv_shared = False, True
        for oi, (obj, row) in enumerate(rows.items(), start=len(self.objects)):
            bit = 1 << oi
            new._obj_index[obj] = oi
            for b in _bits(row):
                new._attr_extents[b] |= bit
            new._all_objects |= bit
            if new._lattice is not None:
                new._insert(row)
        return new

    def concepts(self) -> list[Concept]:
        """All formal concepts, intents in ascending lectic order.

        Includes the top concept (all objects) and, when no object has every
        attribute, the bottom concept (full attribute set, possibly empty
        extent)."""
        return [
            Concept(extent=self._objs_from_mask(self._extent_mask(intent)),
                    intent=self._attrs_from_mask(intent))
            for intent in self._listed_lattice().intents
        ]

    def _frequent(self, cut: int) -> list[tuple[int, int]]:
        """(extent, intent) masks of the concepts whose extent holds at least
        `cut` objects, found by Close-by-One from the top concept (module
        docstring); none when there are fewer than `cut` objects."""
        top = self._all_objects
        if top.bit_count() < cut:
            return []
        intent = 0
        candidates = []  # (attribute bit, its extent), in attribute order
        for b in range(len(self.attributes) - 1, -1, -1):
            extent = self._attr_extents[b]
            if extent == top:
                intent |= 1 << b
            elif extent.bit_count() >= cut:
                candidates.append((1 << b, extent))
        found = [(top, intent)]
        _close_by_one(found, intent, [], candidates, cut)
        return found

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
        """The context as CSV: a header, then one 0/1 row per object. Row
        lines are kept in a list shared with the contexts extended from this
        one, so each row of a chain of passes is formatted once."""
        lines = self._csv_rows
        for obj, row in zip(self.objects[len(lines):], self._obj_intents[len(lines):]):
            lines.append(obj + "," + ",".join(self._attr_digits(row)))
        return "\n".join(["object," + ",".join(self.attributes), *lines[:len(self.objects)]]) + "\n"

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


def _close_by_one(found: list[tuple[int, int]], intent: int, earlier: list[int],
                  candidates: list[tuple[int, int]], cut: int) -> None:
    """Append to `found` the frequent concepts below the concept with
    `intent` that Close-by-One generates from it. `candidates` are the
    attributes after this concept's own and outside its intent, as (bit,
    extent within this concept's extent), and `earlier` the extents within
    it of the attributes before its own and outside its intent; both keep
    only extents of at least `cut` objects. Any attribute whose extent
    contains a frequent child's is among them, so a child is canonical
    when no extent of `earlier` contains its own, and its intent adds the
    later candidates that do. `earlier` gains each candidate in turn."""
    for i, (bit, extent) in enumerate(candidates):
        for other in earlier:
            if other & extent == extent:
                break  # not canonical: an earlier attribute closes it
        else:
            closed = intent | bit
            later = []
            for b, other in candidates[i + 1:]:
                other &= extent
                if other == extent:
                    closed |= b
                elif other.bit_count() >= cut:
                    later.append((b, other))
            found.append((extent, closed))
            if later:
                _close_by_one(found, closed, [
                    within for other in earlier if (within := other & extent).bit_count() >= cut
                ], later, cut)
        earlier.append(extent)


def _episode_row(ep, vocab_set: set[str]) -> set[str]:
    """An episode's attributes: its symptoms, which must be in the
    vocabulary, plus its cause_*/resolved_by_* outcome labels."""
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
    return attrs


# The last mining context built: (vocab, its episodes sorted by id, context).
# Extending it relies on an episode's id, symptoms, label and actions never
# being written once a pass has read them; today only `EpisodicStore.insert`
# writes to an `Episode`, and it writes `feature_vector`. The slot is shared
# by every caller in the process and is not guarded for concurrent calls.
_last: tuple[tuple[str, ...], list, FormalContext] | None = None


def _extend_last(ordered: list, vocab: tuple[str, ...], vocab_set: set[str]) -> FormalContext | None:
    """The last context extended by the episodes past its own, or None when
    the vocabulary differs, the episodes do not start with the last ones
    (same objects, same order), or a new episode brings an attribute or an
    id the last context already has."""
    if _last is None:
        return None
    last_vocab, last_ordered, last = _last
    done = len(last_ordered)
    if vocab != last_vocab or len(ordered) < done or not all(map(operator.is_, last_ordered, ordered)):
        return None
    attr_bit = last._attr_bit
    rows: dict[str, int] = {}
    for ep in ordered[done:]:
        mask = 0
        for attr in _episode_row(ep, vocab_set):
            if attr not in attr_bit:
                return None
            mask |= 1 << attr_bit[attr]
        rows[ep.episode_id] = mask
    if len(rows) != len(ordered) - done or any(obj in last._obj_index for obj in rows):
        return None
    return last._extended(rows)


def context_from_episodes(episodes: list, vocab: tuple[str, ...]) -> FormalContext:
    """Build the mining context: one object per episode (by id), attributes
    are the episode's symptoms plus cause_*/resolved_by_* outcome labels.

    When the episodes, sorted by id, are the last call's episodes followed
    by new ones with no new attribute, under the same vocabulary, the last
    context is extended and its lattice moved into the new one. Anything
    else (a dropped episode, a new attribute, another history) rebuilds."""
    global _last
    ordered = sorted(episodes, key=operator.attrgetter("episode_id"))
    vocab_set = set(vocab)
    context = _extend_last(ordered, vocab, vocab_set)
    if context is None:
        rows = {ep.episode_id: _episode_row(ep, vocab_set) for ep in ordered}
        attributes = sorted(set().union(*rows.values())) if rows else []
        incidence = [(obj, attr) for obj, attrs in rows.items() for attr in sorted(attrs)]
        context = FormalContext(rows.keys(), attributes, incidence)
        if _last is not None:
            _last[2]._lattice = None  # one lattice alive at a time
    _last = (vocab, ordered, context)
    return context


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
            RULE_PREFIX + "+".join(sorted(self.antecedent))
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
    clear the thresholds. Counting is exact.

    Only concepts whose extent holds at least the cut are read: the least
    nonzero count c with c / n >= min_support, found by that same float
    test, so the cut keeps exactly the intents whose support clears it.
    Each call adds the lattice's NextClosure count to `closure_calls`."""
    n = len(context.objects)
    if n == 0:
        return []
    outcome = context._listed_lattice().outcome
    cut = bisect.bisect_left(range(1, n + 1), min_support, key=lambda c: c / n) + 1
    rules: dict[str, Rule] = {}
    for extent, intent in context._frequent(cut):
        full_count = extent.bit_count()
        ante_mask = intent & ~outcome
        cons_mask = intent & outcome
        if not ante_mask or not cons_mask:
            continue
        support = full_count / n
        # ext(A) contains ext(I), so it is not empty either.
        confidence = full_count / context._extent_mask(ante_mask).bit_count()
        if confidence < min_confidence:
            continue
        rule = Rule(
            antecedent=context._attrs_from_mask(ante_mask),
            consequent=context._attrs_from_mask(cons_mask),
            support=support,
            confidence=confidence,
            provenance=tuple(sorted(_selected(context.objects, extent))),
        )
        rules[rule.rule_id] = rule
    return [rules[k] for k in sorted(rules)]


@dataclass(frozen=True)
class ConsistencyResult:
    ok: bool
    reason: str | None = None


def check_consistency(
    rule: Rule, kg: KnowledgeGraph, episodes: Mapping[str, object] | None
) -> ConsistencyResult:
    """Validate a mined rule against the knowledge graph.

    Checks: antecedent attributes are vocabulary symptoms; consequent labels
    resolve to registered FaultKind/Action entities; every provenance
    episode is in `episodes` and none touches decommissioned hardware; and
    no validated rule with the same antecedent asserts a different cause at
    strictly higher confidence. `episodes=None` skips the provenance walk:
    `distill` passes it for a rule mined from the episodes at hand, whose
    provenance ids are all known, when no hardware is decommissioned."""
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
    if episodes is not None:
        decommissioned = kg.decommissioned_entities()
        for episode_id in rule.provenance:
            ep = episodes.get(episode_id)
            if ep is None:
                return ConsistencyResult(False, f"provenance episode {episode_id!r} unknown")
            if not ep.entities.isdisjoint(decommissioned):
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
    return ASET_PREFIX + "+".join(sorted(antecedent))


def inject_rules(
    rules: list[Rule], kg: KnowledgeGraph, tick: int, episode_count: int
) -> list[Rule]:
    """Promote consistency-checked rules into the graph.

    New rules are stored validated with indicates/remedied_by triples;
    re-mined rules update their counters and provenance in place (a retired
    rule re-proven by live evidence comes back). A re-mined rule asserts
    nothing: the graph is append-only, so its entities and triples are
    still there from when it was new."""
    injected: list[Rule] = []
    for rule in rules:
        if not rule.checked:
            raise ValueError(f"rule {rule.rule_id} has not passed a consistency check")
        existing = kg.rules.get(rule.rule_id)
        if existing is not None:
            existing.support = rule.support
            existing.confidence = rule.confidence
            existing.provenance = rule.provenance
            existing.status = "validated"
            existing.last_confirmed_tick = tick
            existing.last_confirmed_count = episode_count
            existing.checked = True
            injected.append(existing)
            continue
        rule.status = "validated"
        rule.asserted_tick = tick
        rule.last_confirmed_tick = tick
        rule.last_confirmed_count = episode_count
        kg.rules[rule.rule_id] = rule
        kg.register_entity(rule.rule_id, "Rule")
        set_id = aset_id(rule.antecedent)
        kg.register_entity(set_id, "AttributeSet")
        kinds = [c[len(CAUSE_PREFIX):] for c in sorted(rule.cause_labels)]
        actions = [
            c[len(RESOLVED_PREFIX):]
            for c in sorted(rule.consequent)
            if c.startswith(RESOLVED_PREFIX)
        ]
        for kind in kinds:
            kg.assert_triple(set_id, "indicates", kind, provenance="ill", tick=tick)
            for action in actions:
                kg.assert_triple(kind, "remedied_by", action, provenance="ill", tick=tick)
        injected.append(rule)
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
    # Mined provenance names only these episodes, so with no hardware
    # decommissioned there is nothing to look up.
    lookup = {ep.episode_id: ep for ep in episodes} if kg.decommissioned_entities() else None
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
        {},  # read only by the decommission criterion, not set here
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
