"""Memory tiers: working buffer, episodic store, knowledge graph, runbooks."""
from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opsloop.cluster import build_topology
from opsloop.config import SYMPTOM_VOCAB
from opsloop.contextpack import IncidentDescriptor
from opsloop.memory import (
    Episode,
    EpisodicStore,
    ForgetCriteria,
    KnowledgeGraph,
    Runbook,
    RunbookStore,
    ShortTermBuffer,
    bootstrap_from_topology,
    cosine,
    default_ontology,
    embed_features,
)
from opsloop.memory.knowledge import (
    INFRA_CHAIN, INFRA_CLASSES, LITERAL, Ontology, OntologyError, Triple,
)
from opsloop.orchestrator import decompose


# -- short-term buffer -----------------------------------------------------------


def test_buffer_evicts_lowest_priority_first():
    buf = ShortTermBuffer(capacity=3)
    buf.push("a", priority=2)
    buf.push("b", priority=1)
    buf.push("c", priority=3)
    buf.push("d", priority=2)  # evicts b (lowest priority)
    assert [it.payload for it in buf.snapshot()] == ["a", "c", "d"]
    buf.push("e", priority=2)  # tie on priority 2: oldest (a) goes
    assert [it.payload for it in buf.snapshot()] == ["c", "d", "e"]


def test_buffer_snapshot_is_insertion_ordered_and_incident_scoped():
    buf = ShortTermBuffer(capacity=10)
    buf.push("x1", priority=1, incident="inc-1")
    buf.push("y1", priority=9, incident="inc-2")
    buf.push("x2", priority=5, incident="inc-1")
    assert [it.payload for it in buf.snapshot()] == ["x1", "y1", "x2"]
    assert [it.payload for it in buf.snapshot("inc-1")] == ["x1", "x2"]
    assert buf.evict_incident("inc-1") == 2
    assert [it.payload for it in buf.snapshot()] == ["y1"]
    assert len(buf) == 1


def test_buffer_rejects_silly_capacity():
    with pytest.raises(ValueError):
        ShortTermBuffer(capacity=0)


# -- episodic embedding ------------------------------------------------------------


def _episode(eid, symptoms, start, end, severity, *, entities=frozenset(), actions=(),
             resolved=True, cause="cause_noisy_neighbor") -> Episode:
    return Episode(
        episode_id=eid,
        start_tick=start,
        end_tick=end,
        affected_service="svc-x",
        symptom_attributes=frozenset(symptoms),
        entities=frozenset(entities),
        max_severity=severity,
        root_cause_label=cause,
        actions=tuple(actions),
        resolved=resolved,
        ticks_to_resolve=end - start if resolved else None,
        feature_vector=None,
    )


def test_embedding_layout_and_normalizers():
    vec = embed_features({"cpu_high"}, duration=32, max_severity=2)
    vocab = list(SYMPTOM_VOCAB)
    assert len(vec) == len(vocab) + 2 + 4
    assert vec[vocab.index("cpu_high")] == 1.0
    assert sum(vec[: len(vocab)]) == 1.0
    assert vec[len(vocab)] == 0.5  # 32 / 64
    assert vec[len(vocab) + 1] == 0.5  # 2 / 4
    # cpu_high is a capacity attribute: category slot order is
    # performance, capacity, configuration, security
    assert list(vec[len(vocab) + 2:]) == [0.0, 1.0, 0.0, 0.0]


def test_embedding_caps_duration_and_severity():
    vec = embed_features({"cpu_high"}, duration=1000, max_severity=9)
    assert vec[len(SYMPTOM_VOCAB)] == 1.0
    assert vec[len(SYMPTOM_VOCAB) + 1] == 1.0


def test_embedding_rejects_unknown_symptom():
    with pytest.raises(ValueError, match="outside vocabulary"):
        embed_features({"not_a_symptom"}, duration=1, max_severity=1)


def test_cosine_hand_computed_value():
    u = embed_features({"cpu_high"}, duration=32, max_severity=2)
    v = embed_features({"cpu_high", "disk_high"}, duration=32, max_severity=2)
    # u: cpu slot + 0.5 + 0.5 + capacity slot            -> |u|^2 = 2.5
    # v: cpu + disk + 0.5 + 0.5 + capacity + performance -> |v|^2 = 4.5
    # dot = 1 + 0.25 + 0.25 + 1 = 2.5
    assert float(np.dot(u, v)) == 2.5
    assert cosine(u, v) == 2.5 / (math.sqrt(2.5) * math.sqrt(4.5))
    assert cosine(u, u) == 2.5 / (math.sqrt(2.5) * math.sqrt(2.5))
    assert cosine(u, u) == pytest.approx(1.0)
    assert cosine(u, np.zeros_like(u)) == 0.0


# -- episodic store ------------------------------------------------------------------


def test_store_insert_search_exact_order():
    store = EpisodicStore()
    near = _episode("ep-a", {"cpu_high", "disk_high"}, 0, 8, 3)
    far = _episode("ep-b", {"latency_high"}, 0, 8, 1)
    twin = _episode("ep-c", {"cpu_high", "disk_high"}, 10, 18, 3)  # same vector as ep-a
    for ep in (near, far, twin):
        store.insert(ep)
    query = embed_features({"cpu_high", "disk_high"}, duration=8, max_severity=3)
    ranked = store.search(query, k=3)
    # ties broken by more recent end_tick, then id: twin (end 18) precedes near (end 8)
    assert [ep.episode_id for ep, _ in ranked] == ["ep-c", "ep-a", "ep-b"]
    assert ranked[0][1] == ranked[1][1] == 1.0
    assert ranked[2][1] < 1.0


def test_store_search_matches_brute_force_with_ties():
    rng = random.Random(7)
    store = EpisodicStore()
    pool = []
    for i in range(60):
        if pool and rng.random() < 0.3:
            base = rng.choice(pool)  # force exact duplicates for tie-breaking
            symptoms, duration, severity = base
        else:
            symptoms = frozenset(rng.sample(SYMPTOM_VOCAB, rng.randint(1, 3)))
            duration, severity = rng.randint(0, 80), rng.randint(0, 4)
            pool.append((symptoms, duration, severity))
        store.insert(_episode(f"ep-{i:03d}", symptoms, 0, duration, severity))
    query = embed_features(
        frozenset(rng.sample(SYMPTOM_VOCAB, 2)), duration=rng.randint(0, 80),
        max_severity=rng.randint(0, 4),
    )
    expected = sorted(
        ((ep, cosine(query, ep.feature_vector)) for ep in store.live_episodes()),
        key=lambda pair: (-pair[1], -pair[0].end_tick, pair[0].episode_id),
    )
    for k in (1, 5, 17, 60, 100):
        got = store.search(query, k)
        assert [(e.episode_id, s) for e, s in got] == [
            (e.episode_id, s) for e, s in expected[:k]
        ]
    assert store.search(query, 0) == []


def test_store_rejects_duplicate_ids():
    store = EpisodicStore()
    store.insert(_episode("ep-a", {"cpu_high"}, 0, 1, 1))
    with pytest.raises(ValueError, match="duplicate"):
        store.insert(_episode("ep-a", {"cpu_high"}, 0, 1, 1))


def test_forget_criteria_are_disjunctive():
    store = EpisodicStore()
    store.insert(_episode("ep-old", {"cpu_high"}, 0, 10, 1))
    store.insert(_episode("ep-n3", {"cpu_high"}, 90, 95, 1, entities={"n3"}))
    store.insert(_episode("ep-new", {"cpu_high"}, 96, 99, 1))
    hit = store.forget(ForgetCriteria(ttl_ticks=50, entities=frozenset({"n3"})), now_tick=100)
    assert hit == 2
    assert {ep.episode_id for ep in store.live_episodes()} == {"ep-new"}
    assert store.is_tombstoned("ep-old") and store.is_tombstoned("ep-n3")
    assert store.live_count() == 1 and len(store) == 3
    # forgetting is idempotent on tombstoned rows
    assert store.forget(ForgetCriteria(entities=frozenset({"n3"}))) == 0
    assert store.forget(ForgetCriteria(incident="ep-new")) == 1


def test_export_import_round_trip_preserves_tombstones():
    store = EpisodicStore()
    store.insert(_episode("ep-a", {"cpu_high"}, 0, 5, 2, actions=(("throttle_tenant", "n1", True),)))
    store.insert(_episode("ep-b", {"latency_high"}, 6, 9, 1))
    store.forget(ForgetCriteria(incident="ep-b"))
    lines = store.export_jsonl()
    assert lines[0] == '{"format":"opsloop-episodic","version":1}'
    clone = EpisodicStore.import_jsonl(lines)
    assert clone.export_jsonl() == lines
    assert clone.is_tombstoned("ep-b") and not clone.is_tombstoned("ep-a")
    with pytest.raises(ValueError):
        EpisodicStore.import_jsonl(["{}"])


def _reference_search(store: EpisodicStore, query: np.ndarray, k: int) -> list[tuple[Episode, float]]:
    """`EpisodicStore.search` as it was before grouping: score every live
    episode, then sort them all."""
    if k < 1:
        return []
    scored = [(ep, cosine(query, ep.feature_vector)) for ep in store.live_episodes()]
    scored.sort(key=lambda pair: (-pair[1], -pair[0].end_tick, pair[0].episode_id))
    return scored[:k]


# (symptoms, duration, severity): few profiles, so vector groups are large;
# the last is the zero vector.
_PROFILES = [
    ({"cpu_high", "disk_high"}, 8, 3),
    ({"cpu_high", "disk_high"}, 16, 3),
    ({"dns_error"}, 12, 3),
    ({"latency_high"}, 8, 2),
    (set(), 0, 0),
]
_NODES = ["n1", "n2", "n3"]


@st.composite
def store_scripts(draw):
    """Inserts (ids may repeat, end ticks tie), forgets of each kind,
    export/import round trips and searches with k from 0 to n + 2."""
    ops = []
    for _ in range(draw(st.integers(0, 40))):
        op = draw(st.sampled_from(["insert"] * 4 + ["forget", "round_trip", "search", "search"]))
        if op == "insert":
            symptoms, duration, severity = draw(st.sampled_from(_PROFILES))
            end = draw(st.integers(20, 24))
            entities = draw(st.frozensets(st.sampled_from(_NODES), max_size=2))
            ops.append(("insert", _episode(f"ep-{draw(st.integers(0, 30)):02d}", symptoms,
                                           end - duration, end, severity, entities=entities)))
        elif op == "forget":
            criteria = draw(st.sampled_from([
                ForgetCriteria(ttl_ticks=draw(st.integers(0, 4))),
                ForgetCriteria(entities=draw(st.frozensets(st.sampled_from(_NODES), min_size=1))),
                ForgetCriteria(incident=f"ep-{draw(st.integers(0, 30)):02d}"),
            ]))
            ops.append(("forget", criteria, draw(st.integers(20, 30))))
        elif op == "search":
            symptoms, duration, severity = draw(st.sampled_from(_PROFILES))
            ops.append(("search", embed_features(symptoms, duration, severity)))
        else:
            ops.append(("round_trip",))
    return ops


@settings(max_examples=100, deadline=None)
@given(store_scripts(), st.data())
def test_grouped_search_equals_the_full_sort(ops, data):
    store = EpisodicStore()
    inserted: set[str] = set()
    live: dict[str, Episode] = {}
    for op in ops:
        if op[0] == "insert":
            ep = op[1]
            if ep.episode_id in inserted:
                with pytest.raises(ValueError, match="duplicate"):
                    store.insert(ep)
            else:
                store.insert(ep)
                inserted.add(ep.episode_id)
                live[ep.episode_id] = ep
        elif op[0] == "forget":
            criteria, now = op[1], op[2]
            hit = {
                eid for eid, ep in live.items()
                if (criteria.ttl_ticks is not None and now - ep.end_tick > criteria.ttl_ticks)
                or (criteria.entities is not None and ep.entities & criteria.entities)
                or eid == criteria.incident
            }
            assert store.forget(criteria, now_tick=now) == len(hit)
            for eid in hit:
                del live[eid]
        elif op[0] == "search":
            query, k = op[1], data.draw(st.integers(0, len(store) + 2))
            got = store.search(query, k)
            want = _reference_search(store, query, k)
            assert [(ep.episode_id, sim.hex()) for ep, sim in got] == [
                (ep.episode_id, sim.hex()) for ep, sim in want]
            assert all(a is b for (a, _), (b, _) in zip(got, want))
        else:
            store = EpisodicStore.import_jsonl(store.export_jsonl())
            live = {eid: store.get(eid) for eid in live}
        assert {ep.episode_id for ep in store.live_episodes()} == set(live)


# -- knowledge graph ---------------------------------------------------------------


def fresh_kg() -> KnowledgeGraph:
    kg = KnowledgeGraph(ontology=default_ontology())
    kg.register_entity("p1", "Pod")
    kg.register_entity("n1", "Node")
    kg.register_entity("r1", "Rack")
    kg.register_entity("sw1", "ToRSwitch")
    kg.register_entity("svc-a", "Service")
    return kg


def test_ontology_rejects_undeclared_domain():
    with pytest.raises(OntologyError):
        Ontology(classes=frozenset({"A"}), relations={"r": ("A", "B")})


def test_register_entity_class_conflict():
    kg = fresh_kg()
    kg.register_entity("p1", "Pod")  # same class: fine
    with pytest.raises(OntologyError, match="already registered"):
        kg.register_entity("p1", "Node")
    with pytest.raises(OntologyError, match="undeclared class"):
        kg.register_entity("x", "Mystery")


def test_infra_chain_follows_the_ontology_bottom_up():
    relations = default_ontology().relations
    assert len(INFRA_CLASSES) == len(INFRA_CHAIN) + 1
    for i, predicate in enumerate(INFRA_CHAIN):
        assert relations[predicate] == (INFRA_CLASSES[i], INFRA_CLASSES[i + 1])


def test_assert_triple_signature_checks():
    kg = fresh_kg()
    ok = kg.assert_triple("p1", "runs_on", "n1")
    assert ok.accepted and ok.added
    dup = kg.assert_triple("p1", "runs_on", "n1")
    assert dup.accepted and not dup.added and dup.reason == "duplicate"
    assert len(kg) == 1
    bad_rel = kg.assert_triple("p1", "parent_of", "n1")
    assert not bad_rel.accepted and "unknown relation" in bad_rel.reason
    bad_subj = kg.assert_triple("n1", "runs_on", "n1")
    assert not bad_subj.accepted and "needs 'Pod'" in bad_subj.reason
    bad_obj = kg.assert_triple("p1", "runs_on", "svc-a")
    assert not bad_obj.accepted and "needs 'Node'" in bad_obj.reason
    unknown = kg.assert_triple("ghost", "runs_on", "n1")
    assert not unknown.accepted
    literal = kg.assert_triple("n1", "decommissioned", "tick-12")
    assert literal.accepted
    assert kg.decommissioned_entities() == frozenset({"n1"})
    assert kg.validate_all() == []


def test_query_requires_a_bound_position_and_sorts():
    kg = fresh_kg()
    kg.register_entity("p2", "Pod")
    kg.assert_triple("p2", "runs_on", "n1")
    kg.assert_triple("p1", "runs_on", "n1")
    with pytest.raises(ValueError):
        kg.query(None, None, None)
    assert [t.subject for t in kg.query(None, "runs_on", None)] == ["p1", "p2"]
    assert [t.subject for t in kg.query(None, None, "n1")] == ["p1", "p2"]
    assert kg.query("p1", "runs_on", "n1")[0].object == "n1"
    assert kg.query("ghost", None, None) == []


def test_subgraph_radius_semantics_and_order():
    kg = fresh_kg()
    kg.assert_triple("p1", "runs_on", "n1")
    kg.assert_triple("n1", "member_of", "r1")
    kg.assert_triple("r1", "uplink", "sw1")
    # radius r keeps triples incident to entities within r-1 hops of the center
    assert [t.predicate for t in kg.subgraph("p1", 0)] == ["runs_on"]
    assert [t.predicate for t in kg.subgraph("p1", 1)] == ["runs_on"]
    assert [t.predicate for t in kg.subgraph("p1", 2)] == ["runs_on", "member_of"]
    assert [t.predicate for t in kg.subgraph("p1", 3)] == ["runs_on", "member_of", "uplink"]
    assert kg.subgraph("ghost", 3) == []
    with pytest.raises(ValueError):
        kg.subgraph("p1", -1)
    # nearest-first: from the rack, its own triples precede the pod's
    assert [t.predicate for t in kg.subgraph("r1", 2)] == ["member_of", "uplink", "runs_on"]


def test_a_literal_is_not_a_vertex():
    # Two nodes in different racks decommissioned at the same tick, and a
    # service whose id is that tick: the literal joins none of them.
    kg = fresh_kg()
    for entity, cls in [("n2", "Node"), ("r2", "Rack"), ("394", "Service")]:
        kg.register_entity(entity, cls)
    kg.assert_triple("n1", "member_of", "r1")
    kg.assert_triple("n2", "member_of", "r2")
    kg.assert_triple("p1", "serves", "394")
    kg.assert_triple("n1", "decommissioned", "394")
    kg.assert_triple("n2", "decommissioned", "394")
    kg.assert_triple("n2", "decommissioned", "395")
    for radius in range(6):
        assert kg.subgraph("395", radius) == []
    assert [t.key() for t in kg.subgraph("n1", 3)] == [
        ("n1", "decommissioned", "394"), ("n1", "member_of", "r1"),
    ]
    assert [t.key() for t in kg.subgraph("394", 3)] == [("p1", "serves", "394")]
    # A query by a literal object still finds the triples that name it.
    assert [t.key() for t in kg.query(None, None, "394")] == [
        ("n1", "decommissioned", "394"), ("n2", "decommissioned", "394"),
        ("p1", "serves", "394"),
    ]
    assert kg.decommissioned_entities() == frozenset({"n1", "n2"})


def test_export_tsv_shape():
    kg = fresh_kg()
    kg.assert_triple("p1", "runs_on", "n1", provenance="bootstrap")
    lines = kg.export_tsv()
    assert lines[0] == "# opsloop-kg v1"
    assert lines[1] == "p1\truns_on\tn1\tbootstrap"


def test_bootstrap_from_topology(small_topology):
    kg = KnowledgeGraph(ontology=default_ontology())
    bootstrap_from_topology(kg, small_topology)
    assert kg.class_of("node-3") == "Node"
    assert kg.class_of("pod-dns-1") == "Pod"
    assert kg.class_of("svc-dns") == "Service"
    assert kg.class_of("tor-2") == "ToRSwitch"
    assert kg.class_of("dns_error_burst") == "FaultKind"
    assert kg.class_of("flush_dns_cache") == "Action"
    assert kg.query("pod-dns-1", "runs_on", None)[0].object == "node-3"
    assert kg.query("svc-ledger", "depends_on", None)[0].object == "svc-dns"
    assert kg.query("rack-2", "uplink", None)[0].object == "tor-2"
    # remedies are learned, never bootstrapped
    assert kg.query(None, "remedied_by", None) == []
    assert kg.validate_all() == []


# -- indexed graph against plain references ------------------------------------------

_POOL = {
    "Rack": ("r1", "r2"),
    "ToRSwitch": ("sw1", "sw2"),
    "Node": ("n1", "n2", "n3"),
    "Pod": ("p1", "p2", "p3", "p4"),
    "Service": ("s1", "s2", "s3"),
    "FaultKind": ("f1",),
    "Action": ("a1",),
    "Policy": ("pol1",),
    "AttributeSet": ("as1",),
}
_ENTITIES = [e for pool in _POOL.values() for e in pool]
_LITERALS = ["7", "12"]
_RELATIONS = default_ontology().relations


@st.composite
def triple_scripts(draw):
    """Asserts in order: mostly ontology-valid, some with any class or an
    unknown relation (usually rejected), repeats of earlier asserts, and a
    depends_on self-loop."""
    script = []
    for _ in range(draw(st.integers(0, 40))):
        predicate = draw(st.sampled_from(sorted(_RELATIONS) + ["parent_of"]))
        domain, rng = _RELATIONS.get(predicate, ("Pod", "Node"))
        if draw(st.integers(0, 4)) == 0:
            subject = draw(st.sampled_from(_ENTITIES))
            obj = draw(st.sampled_from(_ENTITIES + _LITERALS))
        else:
            subject = draw(st.sampled_from(_POOL[domain]))
            obj = draw(st.sampled_from(_LITERALS if rng == LITERAL else _POOL[rng]))
        script.append((subject, predicate, obj))
    repeats = draw(st.lists(st.sampled_from(script), max_size=5)) if script else []
    script.insert(draw(st.integers(0, len(script))), ("s1", "depends_on", "s1"))
    return script + repeats


def _asserting(script):
    """Yield the graph and the triples it must hold (first assert wins)
    before `script` and after each of its asserts."""
    kg = KnowledgeGraph(ontology=default_ontology())
    classes = {e: cls for cls, pool in _POOL.items() for e in pool}
    for e, cls in classes.items():
        kg.register_entity(e, cls)
    kept: dict[tuple[str, str, str], Triple] = {}
    yield kg, kept
    for i, (s, p, o) in enumerate(script):
        sig = _RELATIONS.get(p)
        ok = (
            sig is not None and classes.get(s) == sig[0]
            and (sig[1] == LITERAL or classes.get(o) == sig[1])
        )
        result = kg.assert_triple(s, p, o, provenance=f"a{i}", tick=i)
        assert (result.accepted, result.added) == (ok, ok and (s, p, o) not in kept)
        if result.added:
            kept[(s, p, o)] = Triple(s, p, o, f"a{i}", i)
        yield kg, kept


def _asserted(script) -> tuple[KnowledgeGraph, dict[tuple[str, str, str], Triple]]:
    """The graph after `script`, and the triples it must hold."""
    for kg, kept in _asserting(script):
        pass
    return kg, kept


def _ends(t: Triple) -> tuple[str, str]:
    """The vertices a triple joins: a literal is not a vertex, so a literal
    triple touches its subject alone."""
    return t.subject, t.subject if _RELATIONS[t.predicate][1] == LITERAL else t.object


def _rebuild_subgraph(triples, entity: str, radius: int) -> list[Triple]:
    """`KnowledgeGraph.subgraph` as it was before the incidence index:
    adjacency and incidence rebuilt on every call."""
    adjacency: dict[str, set[str]] = {}
    incident: dict[str, list[Triple]] = {}
    for t in triples:
        subject, obj = _ends(t)
        adjacency.setdefault(subject, set()).add(obj)
        adjacency.setdefault(obj, set()).add(subject)
        incident.setdefault(subject, []).append(t)
        incident.setdefault(obj, []).append(t)
    if entity not in adjacency:
        return []
    limit = max(radius - 1, 0)
    dist = {entity: 0}
    frontier = [entity]
    for depth in range(1, limit + 1):
        nxt = []
        for v in frontier:
            for w in adjacency[v]:
                if w not in dist:
                    dist[w] = depth
                    nxt.append(w)
        frontier = nxt
    seen = {}
    for v in dist:
        for t in incident.get(v, ()):
            seen[t.key()] = t
    far = limit + 1
    return sorted(seen.values(), key=lambda t: (
        min(dist.get(v, far) for v in _ends(t)), t.key()))


@settings(max_examples=60, deadline=None)
@given(triple_scripts())
def test_indexed_query_equals_a_linear_scan(script):
    kg, kept = _asserted(script)
    assert len(kg) == len(kept) and kg.validate_all() == []
    names = _ENTITIES + _LITERALS + ["ghost"]
    predicates = sorted(_RELATIONS) + ["ghost"]
    patterns = [
        *((s, None, None) for s in names),
        *((None, p, None) for p in predicates),
        *((None, None, o) for o in names),
        *((s, p, None) for s, p in itertools.product(names, predicates)),
        *((s, None, o) for s, o in itertools.product(names, names)),
        *((None, p, o) for p, o in itertools.product(predicates, names)),
        *script,
        ("s1", "depends_on", "ghost"),
    ]
    for s, p, o in patterns:
        expected = sorted(
            (t for t in kept.values()
             if (s is None or t.subject == s)
             and (p is None or t.predicate == p)
             and (o is None or t.object == o)),
            key=Triple.key,
        )
        assert kg.query(s, p, o) == expected, (s, p, o)


@settings(max_examples=60, deadline=None)
@given(triple_scripts())
def test_indexed_subgraph_equals_the_rebuilding_reference(script):
    kg, kept = _asserted(script)
    for entity in _ENTITIES + _LITERALS + ["ghost"]:
        for radius in range(5):
            assert kg.subgraph(entity, radius) == _rebuild_subgraph(
                kept.values(), entity, radius), (entity, radius)


@settings(max_examples=60, deadline=None)
@given(triple_scripts(), st.data())
def test_reads_between_asserts_equal_the_references(script, data):
    """The first read builds the graph's rank view and a read after later
    asserts extends it: every read between asserts equals the references."""
    names = _ENTITIES + _LITERALS + ["ghost"]
    predicates = sorted(_RELATIONS) + ["ghost"]
    reads = st.tuples(st.sampled_from(names), st.integers(0, 5), st.sampled_from(predicates))
    for kg, kept in _asserting(script):
        for entity, radius, predicate in data.draw(st.lists(reads, max_size=2)):
            assert kg.subgraph(entity, radius) == _rebuild_subgraph(
                kept.values(), entity, radius), (entity, radius)
            assert kg.query(None, predicate, None) == sorted(
                (t for t in kept.values() if t.predicate == predicate), key=Triple.key)


def _reference_callers(edges, service: str) -> set[str]:
    """Every service with a call path into `service`, one set-wide sweep per hop."""
    found: set[str] = set()
    frontier = {service}
    while frontier:
        frontier = {caller for caller, callee in edges if callee in frontier} - found
        found |= frontier
    return found - {service}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_callers_and_decompose_order_equal_a_reference_bfs(data):
    services = [f"svc-{i}" for i in range(6)]
    pairs = [(a, b) for a in services for b in services if a != b]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    topo = build_topology({
        "racks": [{"id": "r1", "switch": "sw1", "nodes": [{
            "id": "n1", "generation": "gen-7",
            "pods": [{"id": f"p-{s}", "service": s} for s in services],
        }]}],
        "dependencies": [list(e) for e in edges],
    })
    callers = {s: _reference_callers(edges, s) for s in services}
    for s in services:
        assert topo.callers_of(s) == tuple(sorted(callers[s])), s

    kg = KnowledgeGraph(ontology=default_ontology())
    bootstrap_from_topology(kg, topo)
    kg.assert_triple("svc-0", "depends_on", "svc-0")  # self-loops do not count
    affected = data.draw(st.permutations(services).map(lambda p: p[:3]))
    subtasks = decompose(IncidentDescriptor(
        incident_id="inc-1", affected_service=affected[0], affected_entity="p-svc-0",
        symptom_attributes=frozenset({"latency_high"}), max_severity=2, start_tick=0,
        affected_services=tuple(affected),
    ), kg)
    expected = sorted(affected, key=lambda s: (-len(callers[s]), s))
    assert [t.affected_service for t in subtasks] == expected


# -- runbooks -----------------------------------------------------------------------


def test_smoothed_rate_is_laplace():
    rb = Runbook("rb-x", frozenset({"cpu_high"}), ("throttle_tenant",))
    assert rb.smoothed_rate == 0.5  # 1 / 2 before any attempt
    store = RunbookStore()
    store.add(rb)
    store.record_outcome("rb-x", success=True)
    assert store.get("rb-x").smoothed_rate == pytest.approx(2 / 3)
    store.record_outcome("rb-x", success=False)
    assert store.get("rb-x").smoothed_rate == pytest.approx(2 / 4)


def test_suggest_filters_and_ranks():
    store = RunbookStore()
    store.add(Runbook("rb-a", frozenset({"cpu_high"}), ("throttle_tenant",)))
    store.add(Runbook("rb-b", frozenset({"cpu_high", "disk_high"}), ("throttle_tenant",)))
    store.add(Runbook("rb-c", frozenset({"latency_high"}), ("scale_replicas",)))
    store.add(Runbook("rb-risky", frozenset({"cpu_high"}), ("drain_node",),
                      policy_tags=frozenset({"risky"})))
    symptoms = frozenset({"cpu_high", "disk_high"})
    assert [rb.runbook_id for rb in store.suggest(symptoms)] == ["rb-a", "rb-b", "rb-risky"]
    blocked = store.suggest(symptoms, blocked_tags=frozenset({"risky"}))
    assert [rb.runbook_id for rb in blocked] == ["rb-a", "rb-b"]
    # a win lifts rb-b above the untouched rb-a
    store.record_outcome("rb-b", success=True)
    assert [rb.runbook_id for rb in store.suggest(symptoms)][0] == "rb-b"
    # two failures sink rb-a below the fresh rb-risky
    store.record_outcome("rb-a", success=False)
    store.record_outcome("rb-a", success=False)
    assert [rb.runbook_id for rb in store.suggest(symptoms)] == ["rb-b", "rb-risky", "rb-a"]


def test_runbook_store_guards():
    store = RunbookStore()
    store.add(Runbook("rb-a", frozenset(), ("restart_pod",)))
    with pytest.raises(ValueError, match="duplicate"):
        store.add(Runbook("rb-a", frozenset(), ("restart_pod",)))
    with pytest.raises(ValueError, match="no steps"):
        store.add(Runbook("rb-empty", frozenset(), ()))
    assert [rb.runbook_id for rb in store.all_runbooks()] == ["rb-a"]
