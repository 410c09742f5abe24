"""Concept lattice: derivation laws, the lattice built by object insertion
(checked against a textbook NextClosure), the frequent-concept search,
incremental passes, rule lifecycle.

Oracles here are independent of the implementation: concepts come from a
power-set sweep that closes every attribute subset, order is checked with a
standalone lectic comparator, and rule counts are recomputed by brute force.
"""
from __future__ import annotations

import itertools
import operator
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from opsloop import lattice as lattice_module
from opsloop.config import is_outcome_label
from opsloop.lattice import (
    Concept,
    ContextError,
    FormalContext,
    RetireCriteria,
    Rule,
    aset_id,
    check_consistency,
    context_from_episodes,
    distill,
    inject_rules,
    lattice_leq,
    mine_rules,
    retire_rules,
    rules_jsonl,
    validated_rules,
)
from opsloop.memory import Episode, KnowledgeGraph, default_ontology
from opsloop.runner import load_config, run


# -- independent oracles ----------------------------------------------------------


def brute_ext(objects, incidence, attrs):
    return frozenset(o for o in objects if all((o, a) in incidence for a in attrs))


def brute_int(attributes, incidence, objs):
    return frozenset(a for a in attributes if all((o, a) in incidence for o in objs))


def brute_concepts(objects, attributes, incidence) -> set[Concept]:
    """Close every attribute subset; collect the distinct (extent, intent) pairs."""
    inc = set(incidence)
    found: set[Concept] = set()
    for r in range(len(attributes) + 1):
        for combo in itertools.combinations(attributes, r):
            extent = brute_ext(objects, inc, combo)
            intent = brute_int(attributes, inc, extent)
            found.add(Concept(extent=extent, intent=intent))
    return found


def lectic_less(a: frozenset, b: frozenset, attributes) -> bool:
    """a < b iff the lowest-index attribute present in exactly one of them is in b."""
    for attr in attributes:
        in_a, in_b = attr in a, attr in b
        if in_a != in_b:
            return in_b
    return False


def brute_rules(objects, attributes, incidence, min_support, min_confidence):
    inc = set(incidence)
    n = len(objects)
    intents = {c.intent for c in brute_concepts(objects, attributes, incidence)}
    out: dict[str, tuple[float, float]] = {}
    for intent in intents:
        ante = frozenset(a for a in intent if not is_outcome_label(a))
        cons = intent - ante
        if not ante or not cons:
            continue
        full = len(brute_ext(objects, inc, intent))
        ante_n = len(brute_ext(objects, inc, ante))
        if full == 0 or ante_n == 0:
            continue
        support, confidence = full / n, full / ante_n
        if support < min_support or confidence < min_confidence:
            continue
        rid = "rule:" + "+".join(sorted(ante)) + "=>" + "+".join(sorted(cons))
        out[rid] = (support, confidence)
    return out


def random_context(rng: random.Random, max_objects=9, max_attrs=7, density=0.45):
    n_obj = rng.randint(1, max_objects)
    n_attr = rng.randint(1, max_attrs)
    objects = [f"o{i}" for i in range(n_obj)]
    attributes = [f"a{j}" for j in range(n_attr)]
    incidence = [
        (o, a) for o in objects for a in attributes if rng.random() < density
    ]
    return objects, attributes, incidence


# -- construction guards ------------------------------------------------------------


def test_context_rejects_bad_construction():
    with pytest.raises(ContextError, match="duplicate object"):
        FormalContext(["o1", "o1"], ["a"], [])
    with pytest.raises(ContextError, match="duplicate attribute"):
        FormalContext(["o1"], ["a", "a"], [])
    with pytest.raises(ContextError, match="unknown name"):
        FormalContext(["o1"], ["a"], [("o1", "zz")])
    with pytest.raises(ContextError, match="unknown attribute"):
        FormalContext(["o1"], ["a"], []).extent_of(["zz"])
    with pytest.raises(ContextError, match="unknown object"):
        FormalContext(["o1"], ["a"], []).intent_of(["zz"])


# -- derivation operators and closure laws -----------------------------------------


def test_primes_match_brute_force_on_random_contexts():
    rng = random.Random(101)
    for _ in range(40):
        objects, attributes, incidence = random_context(rng)
        ctx = FormalContext(objects, attributes, incidence)
        inc = set(incidence)
        for _ in range(10):
            attrs = frozenset(a for a in attributes if rng.random() < 0.5)
            objs = frozenset(o for o in objects if rng.random() < 0.5)
            assert ctx.extent_of(attrs) == brute_ext(objects, inc, attrs)
            assert ctx.intent_of(objs) == brute_int(attributes, inc, objs)
            assert ctx.closure(attrs) == brute_int(
                attributes, inc, brute_ext(objects, inc, attrs)
            )


@st.composite
def context_and_subsets(draw):
    n_obj = draw(st.integers(1, 7))
    n_attr = draw(st.integers(1, 6))
    objects = [f"o{i}" for i in range(n_obj)]
    attributes = [f"a{j}" for j in range(n_attr)]
    incidence = [
        (o, a)
        for o in objects
        for a in attributes
        if draw(st.booleans())
    ]
    a_set = frozenset(a for a in attributes if draw(st.booleans()))
    b_set = frozenset(a for a in attributes if draw(st.booleans()))
    obj_set = frozenset(o for o in objects if draw(st.booleans()))
    return FormalContext(objects, attributes, incidence), a_set, b_set, obj_set


@settings(max_examples=200, deadline=None)
@given(context_and_subsets())
def test_closure_is_extensive_monotone_idempotent(payload):
    ctx, a_set, b_set, _ = payload
    ca, cb = ctx.closure(a_set), ctx.closure(b_set)
    assert a_set <= ca
    if a_set <= b_set:
        assert ca <= cb
    assert ctx.closure(ca) == ca


@settings(max_examples=200, deadline=None)
@given(context_and_subsets())
def test_galois_connection(payload):
    ctx, a_set, _, obj_set = payload
    # A ⊆ B' iff B ⊆ A' for any object set B and attribute set A
    lhs = a_set <= ctx.intent_of(obj_set)
    rhs = obj_set <= ctx.extent_of(a_set)
    assert lhs == rhs
    # antitone derivations
    assert ctx.extent_of(ctx.intent_of(obj_set)) >= obj_set


def test_closure_calls_counter_increments():
    ctx = FormalContext(["o1"], ["a", "b"], [("o1", "a")])
    before = ctx.closure_calls
    ctx.closure(["a"])
    assert ctx.closure_calls == before + 1
    ctx.concepts()
    assert ctx.closure_calls > before + 1


# -- concept enumeration -------------------------------------------------------------


def test_concepts_hand_worked_example():
    ctx = FormalContext(
        ["o1", "o2", "o3"],
        ["a", "b", "c"],
        [("o1", "a"), ("o1", "b"), ("o2", "a"), ("o2", "c"), ("o3", "b")],
    )
    got = ctx.concepts()
    assert [(sorted(c.extent), sorted(c.intent)) for c in got] == [
        (["o1", "o2", "o3"], []),
        (["o1", "o3"], ["b"]),
        (["o1", "o2"], ["a"]),
        (["o2"], ["a", "c"]),
        (["o1"], ["a", "b"]),
        ([], ["a", "b", "c"]),
    ]


def test_concepts_match_brute_force_and_lectic_order():
    rng = random.Random(202)
    for _ in range(30):
        objects, attributes, incidence = random_context(rng)
        ctx = FormalContext(objects, attributes, incidence)
        got = ctx.concepts()
        assert set(got) == brute_concepts(objects, attributes, incidence)
        assert len({c.intent for c in got}) == len(got)
        for prev, nxt in zip(got, got[1:]):
            assert lectic_less(prev.intent, nxt.intent, attributes)


def test_concepts_degenerate_contexts():
    empty = FormalContext(["o1", "o2"], ["a"], [])
    assert [(c.extent, c.intent) for c in empty.concepts()] == [
        (frozenset({"o1", "o2"}), frozenset()),
        (frozenset(), frozenset({"a"})),
    ]
    full = FormalContext(["o1"], ["a", "b"], [("o1", "a"), ("o1", "b")])
    assert [(c.extent, c.intent) for c in full.concepts()] == [
        (frozenset({"o1"}), frozenset({"a", "b"})),
    ]


# -- lattice order, meet, join --------------------------------------------------------


def test_meet_join_are_glb_and_lub():
    rng = random.Random(303)
    for _ in range(12):
        objects, attributes, incidence = random_context(rng, max_objects=6, max_attrs=5)
        ctx = FormalContext(objects, attributes, incidence)
        concepts = ctx.concepts()
        universe = set(concepts)
        for a, b in itertools.product(concepts, repeat=2):
            m, j = ctx.meet(a, b), ctx.join(a, b)
            assert m in universe and j in universe
            assert lattice_leq(m, a) and lattice_leq(m, b)
            assert lattice_leq(a, j) and lattice_leq(b, j)
            for c in concepts:
                if lattice_leq(c, a) and lattice_leq(c, b):
                    assert lattice_leq(c, m)
                if lattice_leq(a, c) and lattice_leq(b, c):
                    assert lattice_leq(j, c)
            # the two characterizations of the order agree
            assert lattice_leq(a, b) == (a.extent <= b.extent) == (b.intent <= a.intent)


# -- csv round trip -----------------------------------------------------------------


def test_csv_round_trip():
    rng = random.Random(404)
    objects, attributes, incidence = random_context(rng)
    ctx = FormalContext(objects, attributes, incidence)
    clone = FormalContext.from_csv(ctx.to_csv())
    assert clone.objects == ctx.objects
    assert clone.attributes == ctx.attributes
    for obj in objects:
        assert clone.intent_of([obj]) == ctx.intent_of([obj])
    assert clone.to_csv() == ctx.to_csv()


def _csv_cell_by_cell(ctx: FormalContext) -> str:
    lines = ["object," + ",".join(ctx.attributes)]
    for obj in ctx.objects:
        intent = ctx.intent_of([obj])
        lines.append(obj + "," + ",".join("1" if a in intent else "0" for a in ctx.attributes))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_extended_contexts_write_the_csv_of_their_own_rows(data):
    # Extended contexts share their parent's CSV lines. A run writes every
    # pass's context at its end, parent first; a context extended twice
    # must not see its sibling's rows; and no attribute at all is a row of
    # the object name alone.
    width = data.draw(st.integers(0, 6))
    attributes = [f"a{j}" for j in range(width)]
    rows = st.lists(st.sets(st.sampled_from(attributes)) if attributes else st.just(set()), max_size=4)
    first = data.draw(rows)
    chain = [FormalContext([f"o{i}" for i in range(len(first))], attributes,
                           [(f"o{i}", a) for i, attrs in enumerate(first) for a in attrs])]
    for step in range(data.draw(st.integers(1, 6))):
        parent = chain[data.draw(st.integers(0, len(chain) - 1))]
        new = {f"x{step}-{i}": sum(1 << attributes.index(a) for a in attrs)
               for i, attrs in enumerate(data.draw(rows))}
        chain.append(parent._extended(new))
        if data.draw(st.booleans()):
            ctx = chain[data.draw(st.integers(0, len(chain) - 1))]
            assert ctx.to_csv() == _csv_cell_by_cell(ctx)
    for ctx in data.draw(st.permutations(chain)) + chain:
        assert ctx.to_csv() == _csv_cell_by_cell(ctx)


def test_csv_parse_errors():
    with pytest.raises(ContextError, match="header"):
        FormalContext.from_csv("nope,a\no1,1\n")
    with pytest.raises(ContextError, match="width"):
        FormalContext.from_csv("object,a,b\no1,1\n")
    with pytest.raises(ContextError, match="0 or 1"):
        FormalContext.from_csv("object,a\no1,2\n")


# -- episodes to context --------------------------------------------------------------


def _episode(eid, symptoms, *, cause="cause_noisy_neighbor", actions=(),
             entities=frozenset(), resolved=True):
    return Episode(
        episode_id=eid,
        start_tick=0,
        end_tick=10,
        affected_service="svc-x",
        symptom_attributes=frozenset(symptoms),
        entities=frozenset(entities),
        max_severity=2,
        root_cause_label=cause,
        actions=tuple(actions),
        resolved=resolved,
        ticks_to_resolve=10 if resolved else None,
        feature_vector=None,
    )


VOCAB = ("cpu_high", "disk_high", "latency_high", "dns_error")


def test_context_from_episodes_attributes_and_outcomes():
    eps = [
        _episode("ep-2", {"cpu_high"},
                 actions=(("throttle_tenant", "n1", True), ("restart_pod", "p1", False))),
        _episode("ep-1", {"cpu_high", "disk_high"}, cause=None),
    ]
    ctx = context_from_episodes(eps, VOCAB)
    assert ctx.objects == ("ep-1", "ep-2")  # sorted by id
    assert ctx.intent_of(["ep-2"]) == frozenset(
        {"cpu_high", "cause_noisy_neighbor", "resolved_by_throttle_tenant"}
    )
    assert ctx.intent_of(["ep-1"]) == frozenset({"cpu_high", "disk_high"})
    with pytest.raises(ContextError, match="outside the vocabulary"):
        context_from_episodes([_episode("ep-3", {"made_up"})], VOCAB)


# -- rule mining ----------------------------------------------------------------------


def test_mine_rules_hand_worked_example():
    rows = {
        "e1": {"cpu_high", "disk_high", "cause_noisy_neighbor", "resolved_by_throttle_tenant"},
        "e2": {"cpu_high", "disk_high", "cause_noisy_neighbor", "resolved_by_throttle_tenant"},
        "e3": {"cpu_high", "disk_high", "cause_noisy_neighbor", "resolved_by_throttle_tenant"},
        "e4": {"cpu_high"},
        "e5": {"disk_high", "cause_noisy_neighbor", "resolved_by_throttle_tenant"},
    }
    attrs = sorted(set().union(*rows.values()))
    ctx = FormalContext(sorted(rows), attrs,
                        [(o, a) for o, row in rows.items() for a in row])
    got = mine_rules(ctx, min_support=0.4, min_confidence=0.8)
    assert [(r.rule_id, r.support, r.confidence) for r in got] == [
        ("rule:cpu_high+disk_high=>cause_noisy_neighbor+resolved_by_throttle_tenant",
         3 / 5, 1.0),
        ("rule:disk_high=>cause_noisy_neighbor+resolved_by_throttle_tenant",
         4 / 5, 1.0),
    ]
    assert got[0].provenance == ("e1", "e2", "e3")
    assert got[1].provenance == ("e1", "e2", "e3", "e5")
    # support threshold prunes the narrower rule
    assert [r.rule_id for r in mine_rules(ctx, min_support=0.7, min_confidence=0.8)] == [
        "rule:disk_high=>cause_noisy_neighbor+resolved_by_throttle_tenant"
    ]


def test_mine_rules_thresholds_are_inclusive():
    rows = {f"e{i}": {"cpu_high", "cause_noisy_neighbor"} for i in range(1, 5)}
    rows["e5"] = {"cpu_high"}
    attrs = sorted(set().union(*rows.values()))
    ctx = FormalContext(sorted(rows), attrs,
                        [(o, a) for o, row in rows.items() for a in row])
    kept = mine_rules(ctx, min_support=0.8, min_confidence=0.8)
    assert [(r.support, r.confidence) for r in kept] == [(0.8, 0.8)]
    assert mine_rules(ctx, min_support=0.8, min_confidence=0.81) == []
    assert mine_rules(ctx, min_support=0.81, min_confidence=0.8) == []
    # 7 of 25 is support 0.28, though 0.28 * 25 is 7.000000000000001: the
    # support cut is found by the float test itself, not by rounding up.
    rows = {f"e{i:02d}": {"cpu_high", "cause_noisy_neighbor"} if i < 7 else {"dns_error"}
            for i in range(25)}
    attrs = sorted(set().union(*rows.values()))
    ctx = FormalContext(sorted(rows), attrs,
                        [(o, a) for o, row in rows.items() for a in row])
    kept = mine_rules(ctx, min_support=0.28, min_confidence=0.8)
    assert [(r.rule_id, r.support) for r in kept] == [
        ("rule:cpu_high=>cause_noisy_neighbor", 0.28)]


def test_mine_rules_matches_brute_force_on_random_contexts():
    rng = random.Random(505)
    symptoms = ["cpu_high", "disk_high", "latency_high", "dns_error"]
    outcomes = ["cause_noisy_neighbor", "cause_dns_error_burst", "resolved_by_throttle_tenant"]
    for _ in range(30):
        n_obj = rng.randint(2, 10)
        objects = [f"e{i}" for i in range(n_obj)]
        attributes = symptoms + outcomes
        incidence = [
            (o, a) for o in objects for a in attributes if rng.random() < 0.4
        ]
        ctx = FormalContext(objects, attributes, incidence)
        min_s, min_c = rng.choice([0.1, 0.2, 0.3]), rng.choice([0.6, 0.8, 1.0])
        got = {r.rule_id: (r.support, r.confidence)
               for r in mine_rules(ctx, min_s, min_c)}
        assert got == brute_rules(objects, attributes, incidence, min_s, min_c)


def reference_mine_rules(context, min_support, min_confidence):
    """Rules read off frozenset concepts, one `extent_of` per concept."""
    n = len(context.objects)
    if n == 0:
        return []
    rules = {}
    for concept in context.concepts():
        antecedent = frozenset(a for a in concept.intent if not is_outcome_label(a))
        consequent = concept.intent - antecedent
        if not antecedent or not consequent:
            continue
        full_count = len(concept.extent)
        ante_count = len(context.extent_of(antecedent))
        if full_count == 0 or ante_count == 0:
            continue
        support = full_count / n
        confidence = full_count / ante_count
        if support < min_support or confidence < min_confidence:
            continue
        rule = Rule(antecedent=antecedent, consequent=consequent, support=support,
                    confidence=confidence, provenance=tuple(sorted(concept.extent)))
        rules[rule.rule_id] = rule
    return [rules[k] for k in sorted(rules)]


def textbook_next_closure(objects, attributes, rows):
    """Ganter's NextClosure on named sets: the intents in lectic order and
    the number of closures it computes."""
    calls = 0

    def closure(attrs):
        nonlocal calls
        calls += 1
        extent = [o for o in objects if attrs <= rows[o]]
        return frozenset(attributes).intersection(*(rows[o] for o in extent))

    intents = [closure(frozenset())]
    while True:
        current = intents[-1]
        for i in range(len(attributes) - 1, -1, -1):
            if attributes[i] in current:
                continue
            below = frozenset(attributes[:i])
            candidate = closure((current & below) | {attributes[i]})
            if candidate & below == current & below:
                intents.append(candidate)
                break
        else:
            return intents, calls


LABELLED_POOL = [
    "cpu_high", "disk_high", "latency_high", "dns_error", "loss_high", "mem_high",
    "cause_dns_error_burst", "cause_noisy_neighbor",
    "resolved_by_flush_dns_cache", "resolved_by_throttle_tenant",
]


@st.composite
def labelled_contexts(draw):
    attributes = draw(st.lists(st.sampled_from(LABELLED_POOL), max_size=10, unique=True))
    n_obj = draw(st.integers(0, 40))
    masks = draw(st.lists(st.integers(0, 2 ** len(attributes) - 1),
                          min_size=n_obj, max_size=n_obj))
    objects = [f"o{i}" for i in range(n_obj)]  # "o10" sorts before "o2"
    rows = {o: frozenset(a for j, a in enumerate(attributes) if m >> j & 1)
            for o, m in zip(objects, masks)}
    return objects, attributes, rows


@settings(max_examples=80, deadline=None)
@given(labelled_contexts(), st.sampled_from([0.0, 0.05, 0.2, 0.5]),
       st.sampled_from([0.0, 0.5, 0.8, 1.0]))
def test_mask_native_mining_matches_frozenset_references(context, min_s, min_c):
    objects, attributes, rows = context
    incidence = [(o, a) for o in objects for a in attributes if a in rows[o]]
    ctx = FormalContext(objects, attributes, incidence)
    intents, calls = textbook_next_closure(objects, attributes, rows)
    assert [c.intent for c in ctx.concepts()] == intents
    assert ctx.closure_calls == calls
    mined = mine_rules(FormalContext(objects, attributes, incidence), min_s, min_c)
    assert mined == reference_mine_rules(ctx, min_s, min_c)


@st.composite
def small_contexts(draw):
    """Up to 12 objects over up to 7 attributes; the attributes in `common`
    are every object's, so the top intent is often not empty."""
    attributes = [f"a{j}" for j in range(draw(st.integers(0, 7)))]
    objects = [f"o{i}" for i in range(draw(st.integers(0, 12)))]
    common = draw(st.sets(st.sampled_from(attributes))) if attributes else set()
    incidence = [(o, a) for o in objects for a in attributes if a in common or draw(st.booleans())]
    return objects, attributes, incidence


@settings(max_examples=150, deadline=None)
@given(small_contexts())
@example(([], [], []))
@example(([], ["a0", "a1"], []))
@example((["o0", "o1"], ["a0", "a1"], [("o0", "a0"), ("o1", "a0"), ("o0", "a1")]))
def test_frequent_concepts_are_the_brute_force_concepts_that_clear_the_cut(context):
    """`_frequent(cut)` lists each concept whose extent holds at least `cut`
    objects exactly once, at every cut from 0 to n + 1."""
    objects, attributes, incidence = context
    ctx = FormalContext(objects, attributes, incidence)
    concepts = brute_concepts(objects, attributes, incidence)
    for cut in range(len(objects) + 2):
        found = [Concept(extent=ctx._objs_from_mask(extent), intent=ctx._attrs_from_mask(intent))
                 for extent, intent in ctx._frequent(cut)]
        assert len(found) == len(set(found))
        assert set(found) == {c for c in concepts if len(c.extent) >= cut}


# -- incremental passes ------------------------------------------------------------------

BASE_SYMPTOMS = ("cpu_high", "disk_high", "latency_high", "dns_error")
RESERVE_SYMPTOMS = ("loss_high", "mem_high")  # held back for new-attribute steps
WIDE_VOCAB = BASE_SYMPTOMS + RESERVE_SYMPTOMS
NARROW_VOCAB = WIDE_VOCAB[:-1]  # an episode with mem_high falls outside it
CAUSES = (None, "cause_dns_error_burst", "cause_noisy_neighbor")
ACTIONS = ("flush_dns_cache", "throttle_tenant")


@st.composite
def drawn_episode(draw, eid, symptoms=BASE_SYMPTOMS, extra=frozenset()):
    """An episode over `labelled_contexts`-style rows: symptoms, at most one
    cause label, and actions whose success makes a resolved_by_* label."""
    chosen = draw(st.sets(st.sampled_from(symptoms))) | extra
    actions = tuple((a, "t", draw(st.booleans()))
                    for a in draw(st.lists(st.sampled_from(ACTIONS), max_size=2, unique=True)))
    return _episode(eid, chosen, cause=draw(st.sampled_from(CAUSES)), actions=actions)


def episode_row(ep) -> frozenset[str]:
    labels = {"resolved_by_" + a for a, _target, ok in ep.actions if ok}
    if ep.root_cause_label:
        labels.add(ep.root_cause_label)
    return ep.symptom_attributes | labels


def expected_concepts(episodes, vocab, min_s, min_c):
    """A fresh context of the same rows, with its concepts, rules and csv,
    or None when some symptom is outside `vocab`. Concepts and the closure
    count are checked against the textbook NextClosure on the way."""
    if any(ep.symptom_attributes - set(vocab) for ep in episodes):
        return None
    rows = {ep.episode_id: episode_row(ep) for ep in episodes}
    objects = sorted(rows)
    attributes = sorted(set().union(*rows.values())) if rows else []
    fresh = FormalContext(objects, attributes,
                          [(o, a) for o in objects for a in sorted(rows[o])])
    concepts = fresh.concepts()
    intents, calls = textbook_next_closure(objects, attributes, rows)
    assert [c.intent for c in concepts] == intents
    return concepts, calls, mine_rules(fresh, min_s, min_c), fresh.to_csv()


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_incremental_passes_equal_fresh_contexts(data):
    """Each `context_from_episodes` call, whether it extends the last
    context or rebuilds, gives the concepts, closure count, rules and csv
    of a context built afresh from the same rows, at thresholds drawn for
    that call, and mining it again gives the same rules. A context that
    handed its lattice on still lists its own concepts."""
    history: list = []
    vocab = WIDE_VOCAB
    serial = iter(range(10_000))
    previous = None

    def new_episode(**kwargs):
        return data.draw(drawn_episode(f"ep-{next(serial):04d}", **kwargs))

    def call(episodes):
        nonlocal previous
        min_s = data.draw(st.sampled_from([0.0, 0.1, 0.2]))
        min_c = data.draw(st.sampled_from([0.0, 0.5, 0.8]))
        expected = expected_concepts(episodes, vocab, min_s, min_c)
        if expected is None:
            with pytest.raises(ContextError, match="outside the vocabulary"):
                context_from_episodes(episodes, vocab)
            return
        ctx = context_from_episodes(episodes, vocab)
        concepts, calls, rules, csv = expected
        assert ctx.concepts() == concepts
        assert ctx.closure_calls == calls
        assert mine_rules(ctx, min_s, min_c) == rules
        assert mine_rules(ctx, min_s, min_c) == rules
        # Mining counts the lattice as listing it does, unless there are no rows.
        assert ctx.closure_calls == (3 if episodes else 1) * calls
        assert ctx.to_csv() == csv
        if previous is not None:
            assert previous[0].concepts() == previous[1]
        previous = ctx, concepts

    call(history)
    steps = data.draw(st.lists(st.sampled_from(
        ["append", "append", "append", "drop", "new_attribute", "vocab", "unrelated"]),
        max_size=14))
    for step in steps:
        if step == "append":
            history += [new_episode() for _ in range(data.draw(st.integers(0, 6)))]
        elif step == "drop" and len(history) > 2:
            del history[data.draw(st.integers(1, len(history) - 2))]
        elif step == "new_attribute":
            seen = set().union(*(ep.symptom_attributes for ep in history))
            unseen = [s for s in RESERVE_SYMPTOMS if s not in seen] or list(RESERVE_SYMPTOMS)
            history.append(new_episode(extra=frozenset({data.draw(st.sampled_from(unseen))})))
        elif step == "vocab":
            vocab = NARROW_VOCAB if vocab == WIDE_VOCAB else WIDE_VOCAB
        elif step == "unrelated":
            # The same ids on other objects: identity, not id, decides.
            call([data.draw(drawn_episode(ep.episode_id, symptoms=WIDE_VOCAB))
                  for ep in history])
        call(history)


def copy_of(context: FormalContext) -> FormalContext:
    """A fresh context of the same rows, which mines every intent."""
    return FormalContext.from_csv(context.to_csv())


def _rule_ids(rules):
    return [(r.rule_id, r.support, r.confidence, r.provenance) for r in rules]


def test_a_rule_falls_below_support_with_no_new_object():
    # {cpu_high, disk_high, cause_noisy_neighbor} holds 2 of 4 objects, then
    # 2 of 6: the new rows never meet it, but n grows past its support.
    # {dns_error, cause_dns_error_burst} gains both and stays frequent.
    noisy = [_episode(f"ep-{i}", {"cpu_high", "disk_high"}) for i in (1, 2)]
    dns = [_episode(f"ep-{i}", {"dns_error"}, cause="cause_dns_error_burst")
           for i in range(3, 7)]
    first = context_from_episodes(noisy + dns[:2], VOCAB)
    assert [r.rule_id for r in mine_rules(first, 0.5, 0.8)] == [
        "rule:cpu_high+disk_high=>cause_noisy_neighbor",
        "rule:dns_error=>cause_dns_error_burst",
    ]
    second = context_from_episodes(noisy + dns, VOCAB)
    assert second._lattice is not None  # extended, not rebuilt
    mined = mine_rules(second, 0.5, 0.8)
    assert [r.rule_id for r in mined] == ["rule:dns_error=>cause_dns_error_burst"]
    assert _rule_ids(mined) == _rule_ids(mine_rules(copy_of(second), 0.5, 0.8))
    # At a lower support the same lattice yields the noisy-neighbour rule again.
    assert _rule_ids(mine_rules(second, 0.3, 0.8)) == _rule_ids(
        mine_rules(copy_of(second), 0.3, 0.8))
    assert len(mine_rules(second, 0.3, 0.8)) == 2


def test_a_rule_loses_confidence_when_only_its_antecedent_grows():
    # The new rows hold cpu_high and disk_high with no cause, so the
    # antecedent's extent grows from 2 to 4 objects while the rule's own
    # intent, still frequent at 2 of 6, gains none: confidence 1.0 -> 0.5.
    noisy = [_episode(f"ep-{i}", {"cpu_high", "disk_high"}) for i in (1, 2)]
    dns = [_episode(f"ep-{i}", {"dns_error"}, cause="cause_dns_error_burst") for i in (3, 4)]
    bare = [_episode(f"ep-{i}", {"cpu_high", "disk_high"}, cause=None) for i in (5, 6)]
    rule = "rule:cpu_high+disk_high=>cause_noisy_neighbor"
    first = context_from_episodes(noisy + dns, VOCAB)
    assert rule in [r.rule_id for r in mine_rules(first, 0.2, 0.8)]
    second = context_from_episodes(noisy + dns + bare, VOCAB)
    assert second._lattice is not None
    mined = mine_rules(second, 0.2, 0.8)
    assert rule not in [r.rule_id for r in mined]
    assert _rule_ids(mined) == _rule_ids(mine_rules(copy_of(second), 0.2, 0.8))


# -- insertion: closed rows and scanned rows ---------------------------------------


@st.composite
def recurring_chunks(draw):
    """Attributes from LABELLED_POOL and rows in chunks: most rows come
    from a few recurring patterns, some are wide (every attribute but at
    most two), the rest random. The first chunk is built fresh, each later
    one extends the context before it."""
    attributes = draw(st.lists(st.sampled_from(LABELLED_POOL), min_size=1, max_size=9, unique=True))
    full = (1 << len(attributes)) - 1
    pool = draw(st.lists(st.integers(0, full), min_size=1, max_size=4))
    wide = st.sets(st.integers(0, len(attributes) - 1), max_size=2).map(
        lambda drop: full & ~sum(1 << i for i in drop))
    row = st.one_of(st.sampled_from(pool), st.sampled_from(pool), st.sampled_from(pool),
                    wide, st.integers(0, full))
    chunks = draw(st.lists(st.lists(row, max_size=12), min_size=1, max_size=4))
    return attributes, chunks


@settings(max_examples=100, deadline=None)
@given(recurring_chunks(), st.lists(st.booleans(), min_size=4, max_size=4))
def test_every_insert_leaves_the_textbook_lattice_of_the_rows_so_far(payload, mine):
    """After every insert, in fresh builds and in chains of `_extended`,
    with the lattice mined or not: the intents in lectic order, which is
    ascending integer order, their set, and the closure count are
    NextClosure's over the rows inserted so far, which are the context's
    first rows in object order."""
    attributes, chunks = payload
    insert = FormalContext._insert
    # id of a lattice -> (the lattice, kept alive so that no other takes
    # its id, and its rows so far)
    inserted: dict[int, tuple] = {}

    def checked(ctx, row):
        lattice = ctx._lattice
        insert(ctx, row)
        rows_so_far = inserted.setdefault(id(lattice), (lattice, []))[1]
        rows_so_far.append(row)
        assert ctx._obj_intents[:len(rows_so_far)] == rows_so_far
        objects = ctx.objects[:len(rows_so_far)]
        rows = {o: ctx._attrs_from_mask(r) for o, r in zip(objects, rows_so_far)}
        intents, calls = textbook_next_closure(objects, list(attributes), rows)
        assert [ctx._attrs_from_mask(i) for i in lattice.intents] == intents
        assert lattice.closure_calls == calls
        assert all(map(operator.lt, lattice.intents, lattice.intents[1:]))
        assert lattice.known == set(lattice.intents)

    serial = iter(range(10_000))
    ctx = None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FormalContext, "_insert", checked)
        for chunk, mined in zip(chunks, mine):
            named = {f"o{next(serial):03d}": row for row in chunk}
            if ctx is None:
                # Attribute j of m sits at bit m - 1 - j, as in `_extended`'s rows.
                ctx = FormalContext(named, attributes, [
                    (o, a) for o, row in named.items() for j, a in enumerate(reversed(attributes))
                    if row >> j & 1])
            else:
                ctx = ctx._extended(named)
            if mined or ctx._lattice is None:
                assert mine_rules(ctx, 0.2, 0.5) == mine_rules(copy_of(ctx), 0.2, 0.5)
        assert ctx.concepts() == copy_of(ctx).concepts()


class _Unscanned(list):
    """Intents that fail the test when anything iterates over them."""

    def __iter__(self):
        raise AssertionError("the insert scanned every intent")


def test_a_closed_narrow_row_never_scans_the_intents():
    """A row the lattice already holds leaves the intents, their set and
    the count as they were, and reads no intent."""
    rng = random.Random(0)
    attributes = [f"a{j}" for j in range(8)]
    rows = {f"o{i:02d}": rng.getrandbits(8) & rng.getrandbits(8) for i in range(24)}
    ctx = FormalContext(rows, attributes, [  # attribute j of 8 at bit 7 - j
        (o, a) for o, row in rows.items() for j, a in enumerate(reversed(attributes)) if row >> j & 1])
    mine_rules(ctx)  # builds the lattice
    lattice = ctx._lattice
    intents, calls = list(lattice.intents), lattice.closure_calls
    lattice.intents = _Unscanned(lattice.intents)
    # An object's intent, and an intent that no object has.
    for closed in (rows["o05"], next(i for i in intents if i not in rows.values())):
        ctx = ctx._extended({f"o{len(ctx.objects)}": closed})
        lattice = ctx._lattice
        assert list(list.__iter__(lattice.intents)) == intents
        assert lattice.known == set(intents) and lattice.closure_calls == calls
    # A row the lattice does not hold meets every intent.
    fresh = next(m for m in range(256) if m not in lattice.known)
    with pytest.raises(AssertionError, match="scanned every intent"):
        ctx._extended({"o99": fresh})


def test_mine_rules_empty_context():
    assert mine_rules(FormalContext([], [], [])) == []


def test_rule_identity_and_serialization():
    rule = Rule(
        antecedent=frozenset({"disk_high", "cpu_high"}),
        consequent=frozenset({"resolved_by_throttle_tenant", "cause_noisy_neighbor"}),
        support=0.5,
        confidence=1.0,
    )
    assert rule.rule_id == (
        "rule:cpu_high+disk_high=>cause_noisy_neighbor+resolved_by_throttle_tenant"
    )
    assert rule.cause_labels == frozenset({"cause_noisy_neighbor"})
    d = rule.to_dict()
    assert d["antecedent"] == ["cpu_high", "disk_high"]
    assert d["status"] == "candidate"
    assert aset_id(rule.antecedent) == "aset:cpu_high+disk_high"


# -- consistency, injection, retirement ------------------------------------------------


def seeded_kg() -> KnowledgeGraph:
    kg = KnowledgeGraph(ontology=default_ontology())
    kg.register_entity("noisy_neighbor", "FaultKind")
    kg.register_entity("dns_error_burst", "FaultKind")
    kg.register_entity("throttle_tenant", "Action")
    kg.register_entity("n3", "Node")
    return kg


def good_rule(confidence=1.0, provenance=("ep-1",)) -> Rule:
    return Rule(
        antecedent=frozenset({"cpu_high", "disk_high"}),
        consequent=frozenset({"cause_noisy_neighbor", "resolved_by_throttle_tenant"}),
        support=0.5,
        confidence=confidence,
        provenance=tuple(provenance),
    )


def test_check_consistency_branches():
    kg = seeded_kg()
    eps = {"ep-1": _episode("ep-1", {"cpu_high", "disk_high"}, entities={"n1"})}
    assert check_consistency(good_rule(), kg, eps).ok

    bad_symptom = good_rule()
    bad_symptom.antecedent = frozenset({"cpu_high", "made_up"})
    res = check_consistency(bad_symptom, kg, eps)
    assert not res.ok and "not a known symptom" in res.reason

    bad_fault = good_rule()
    bad_fault.consequent = frozenset({"cause_gremlins"})
    assert "unknown fault kind" in check_consistency(bad_fault, kg, eps).reason

    bad_action = good_rule()
    bad_action.consequent = frozenset({"cause_noisy_neighbor", "resolved_by_prayer"})
    assert "unknown action" in check_consistency(bad_action, kg, eps).reason

    bad_label = good_rule()
    bad_label.consequent = frozenset({"latency_high"})
    assert "not an outcome label" in check_consistency(bad_label, kg, eps).reason

    ghost = good_rule(provenance=("ep-missing",))
    assert "unknown" in check_consistency(ghost, kg, eps).reason


def test_check_consistency_decommissioned_provenance():
    kg = seeded_kg()
    kg.assert_triple("n3", "decommissioned", "tick-40")
    eps = {
        "ep-dead": _episode("ep-dead", {"cpu_high"}, entities={"n3", "p1"}),
        "ep-live": _episode("ep-live", {"cpu_high"}, entities={"n5"}),
    }
    dead = good_rule(provenance=("ep-dead",))
    res = check_consistency(dead, kg, eps)
    assert not res.ok and "decommissioned" in res.reason
    assert check_consistency(good_rule(provenance=("ep-live",)), kg, eps).ok


def test_check_consistency_contradiction_needs_strictly_higher_confidence():
    kg = seeded_kg()
    eps = {"ep-1": _episode("ep-1", {"cpu_high"}, entities=set())}
    incumbent = good_rule(confidence=0.9)
    incumbent.consequent = frozenset({"cause_dns_error_burst"})
    incumbent.checked = True
    inject_rules([incumbent], kg, tick=10, episode_count=3)

    challenger = good_rule(confidence=0.85)
    challenger.consequent = frozenset({"cause_noisy_neighbor"})
    res = check_consistency(challenger, kg, eps)
    assert not res.ok and "contradicts" in res.reason

    equal = good_rule(confidence=0.9)
    equal.consequent = frozenset({"cause_noisy_neighbor"})
    assert check_consistency(equal, kg, eps).ok

    same_cause = good_rule(confidence=0.2)
    same_cause.consequent = frozenset({"cause_dns_error_burst"})
    assert check_consistency(same_cause, kg, eps).ok


def test_inject_rules_requires_check_and_writes_triples():
    kg = seeded_kg()
    rule = good_rule()
    with pytest.raises(ValueError, match="consistency check"):
        inject_rules([rule], kg, tick=5, episode_count=2)
    rule.checked = True
    stored = inject_rules([rule], kg, tick=5, episode_count=2)[0]
    assert stored.status == "validated"
    assert stored.asserted_tick == 5 and stored.last_confirmed_count == 2
    assert kg.rules[rule.rule_id] is stored
    assert kg.class_of(rule.rule_id) == "Rule"
    indicates = kg.query(aset_id(rule.antecedent), "indicates", None)
    assert [t.object for t in indicates] == ["noisy_neighbor"]
    remedied = kg.query("noisy_neighbor", "remedied_by", None)
    assert [t.object for t in remedied] == ["throttle_tenant"]
    assert {t.provenance for t in indicates + remedied} == {"ill"}
    assert kg.validate_all() == []


def test_inject_rules_resurrects_retired_rule_in_place():
    kg = seeded_kg()
    first = good_rule(confidence=0.9)
    first.checked = True
    stored = inject_rules([first], kg, tick=5, episode_count=2)[0]
    stored.status = "retired"

    again = good_rule(confidence=0.95, provenance=("ep-7", "ep-8"))
    again.checked = True
    back = inject_rules([again], kg, tick=40, episode_count=9)[0]
    assert back is stored  # updated in place, not replaced
    assert back.status == "validated"
    assert back.confidence == 0.95
    assert back.provenance == ("ep-7", "ep-8")
    assert back.asserted_tick == 5  # original birth tick survives
    assert back.last_confirmed_tick == 40 and back.last_confirmed_count == 9
    assert len(kg.rules) == 1


@pytest.mark.parametrize("status", ["validated", "retired"])
def test_a_re_mined_rule_asserts_nothing_and_updates_in_place(monkeypatch, status):
    kg = seeded_kg()
    first = good_rule(confidence=0.9)
    first.checked = True
    stored = inject_rules([first], kg, tick=5, episode_count=2)[0]
    stored.status = status
    triples, entities = kg.export_tsv(), dict(kg._entities)

    def untouched(*args, **kwargs):
        raise AssertionError("a re-mined rule wrote to the graph")

    monkeypatch.setattr(kg, "register_entity", untouched)
    monkeypatch.setattr(kg, "assert_triple", untouched)
    again = good_rule(confidence=0.95, provenance=("ep-7", "ep-8"))
    again.support = 0.75
    again.checked = True
    assert inject_rules([again], kg, tick=40, episode_count=9) == [stored]
    assert kg.export_tsv() == triples and kg._entities == entities
    assert (stored.support, stored.confidence, stored.provenance) == (0.75, 0.95, ("ep-7", "ep-8"))
    assert stored.status == "validated" and stored.checked
    assert (stored.asserted_tick, stored.last_confirmed_tick, stored.last_confirmed_count) == (5, 40, 9)


def _asserting_inject_rules(rules, kg, tick, episode_count):
    """`inject_rules` as it was: every injected rule, re-mined or new,
    registers its entities and asserts its triples."""
    injected = inject_rules(rules, kg, tick, episode_count)
    for rule in injected:
        kg.register_entity(rule.rule_id, "Rule")
        kg.register_entity(aset_id(rule.antecedent), "AttributeSet")
        for cause in sorted(rule.cause_labels):
            kind = cause[len("cause_"):]
            kg.assert_triple(aset_id(rule.antecedent), "indicates", kind, provenance="ill", tick=tick)
            for label in sorted(rule.consequent):
                if label.startswith("resolved_by_"):
                    kg.assert_triple(kind, "remedied_by", label[len("resolved_by_"):],
                                     provenance="ill", tick=tick)
    return injected


def test_re_mined_rules_write_the_graph_and_rules_of_re_asserting_them(
    forgetting_config_path, tmp_path, monkeypatch
):
    # decommission_forgetting's second learning pass mines again a rule
    # retired since the first.
    re_mined = []
    inject = lattice_module.inject_rules

    def counted(rules, kg, tick, episode_count):
        re_mined.extend(kg.rules[r.rule_id].status for r in rules if r.rule_id in kg.rules)
        return inject(rules, kg, tick, episode_count)

    monkeypatch.setattr(lattice_module, "inject_rules", counted)
    run(load_config(forgetting_config_path), tmp_path / "now")
    monkeypatch.setattr(lattice_module, "inject_rules", _asserting_inject_rules)
    run(load_config(forgetting_config_path), tmp_path / "before")
    assert re_mined == ["retired"]
    for name in ("kg.tsv", "rules.jsonl"):
        assert (tmp_path / "now" / name).read_bytes() == (tmp_path / "before" / name).read_bytes()


def test_retire_rules_exclusive_decommission_provenance():
    kg = seeded_kg()
    eps = {
        "ep-dead1": _episode("ep-dead1", {"cpu_high"}, entities={"n3"}),
        "ep-dead2": _episode("ep-dead2", {"cpu_high"}, entities={"n3", "p9"}),
        "ep-live": _episode("ep-live", {"cpu_high"}, entities={"n5"}),
    }
    doomed = good_rule(provenance=("ep-dead1", "ep-dead2"))
    doomed.checked = True
    mixed = good_rule(provenance=("ep-dead1", "ep-live"))
    mixed.consequent = frozenset({"cause_noisy_neighbor"})
    mixed.checked = True
    inject_rules([doomed, mixed], kg, tick=1, episode_count=2)

    retired = retire_rules(
        kg, RetireCriteria(decommissioned_entities=frozenset({"n3"})), eps, episode_count=2
    )
    assert [r.rule_id for r in retired] == [doomed.rule_id]
    assert kg.rules[doomed.rule_id].status == "retired"
    assert kg.rules[mixed.rule_id].status == "validated"
    # second sweep is a no-op: already retired
    assert retire_rules(
        kg, RetireCriteria(decommissioned_entities=frozenset({"n3"})), eps, episode_count=2
    ) == []
    # a provenance episode missing from the log counts as dead evidence
    orphan = good_rule(provenance=("ep-gone",))
    orphan.consequent = frozenset({"resolved_by_throttle_tenant"})
    orphan.checked = True
    inject_rules([orphan], kg, tick=2, episode_count=3)
    retired = retire_rules(
        kg, RetireCriteria(decommissioned_entities=frozenset({"n3"})), eps, episode_count=3
    )
    assert [r.rule_id for r in retired] == [orphan.rule_id]


def test_retire_rules_confidence_floor_and_age():
    kg = seeded_kg()
    weak = good_rule(confidence=0.55)
    weak.checked = True
    inject_rules([weak], kg, tick=1, episode_count=4)
    assert retire_rules(kg, RetireCriteria(confidence_floor=0.55), {}, 4) == []
    retired = retire_rules(kg, RetireCriteria(confidence_floor=0.6), {}, 4)
    assert [r.rule_id for r in retired] == [weak.rule_id]

    kg2 = seeded_kg()
    old = good_rule()
    old.checked = True
    inject_rules([old], kg2, tick=1, episode_count=5)
    assert retire_rules(kg2, RetireCriteria(max_age_episodes=10), {}, episode_count=15) == []
    retired = retire_rules(kg2, RetireCriteria(max_age_episodes=10), {}, episode_count=16)
    assert [r.rule_id for r in retired] == [old.rule_id]


def test_validated_rules_and_jsonl_views():
    kg = seeded_kg()
    rule = good_rule()
    rule.checked = True
    inject_rules([rule], kg, tick=3, episode_count=1)
    assert [r.rule_id for r in validated_rules(kg)] == [rule.rule_id]
    lines = rules_jsonl(kg)
    assert len(lines) == 1 and '"status":"validated"' in lines[0]
    kg.rules[rule.rule_id].status = "retired"
    assert validated_rules(kg) == []
    assert '"status":"retired"' in rules_jsonl(kg)[0]


def test_distill_end_to_end():
    kg = seeded_kg()
    episodes = [
        _episode(f"ep-{i}", {"cpu_high", "disk_high"},
                 actions=(("throttle_tenant", "n3", True),), entities={"n1"})
        for i in range(1, 5)
    ]
    episodes.append(_episode("ep-5", {"latency_high"}, cause="cause_gremlins",
                             entities={"n1"}))
    report = distill(
        episodes, kg, VOCAB, min_support=0.2, min_confidence=0.8,
        tick=50, episode_count=5,
    )
    assert report.closure_calls > 0
    accepted_ids = {r.rule_id for r in report.accepted}
    assert (
        "rule:cpu_high+disk_high=>cause_noisy_neighbor+resolved_by_throttle_tenant"
        in accepted_ids
    )
    assert all(kg.rules[r.rule_id].status == "validated" for r in report.accepted)
    # the gremlins rule was mined but failed the knowledge-graph check
    rejected_reasons = {rule.rule_id: reason for rule, reason in report.rejected}
    assert any("unknown fault kind" in reason for reason in rejected_reasons.values())
    assert report.retired == []
