"""Budgeted context assembly: section order, caps, hard budget stop, feedback."""
from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from opsloop.cluster import build_topology
from opsloop.config import EPISODIC_K, SECTION_ORDER, SUBGRAPH_RADIUS, SYMPTOM_VOCAB
from opsloop.contextpack import (
    BudgetPolicy,
    ContextPack,
    IncidentDescriptor,
    PackBudgetError,
    PackItem,
    TraceEntry,
    assemble,
    task_descriptor,
    update_weights,
)
from opsloop.lattice import Rule, inject_rules, validated_rules
from opsloop.memory import (
    Episode,
    EpisodicStore,
    ForgetCriteria,
    KnowledgeGraph,
    Memories,
    Runbook,
    RunbookStore,
    ShortTermBuffer,
    bootstrap_from_topology,
    default_ontology,
    embed_features,
)
from opsloop.memory.knowledge import LITERAL, bfs


def _episode(eid, symptoms, end, actions=(), start=0):
    return Episode(
        episode_id=eid,
        start_tick=start,
        end_tick=end,
        affected_service="svc-a",
        symptom_attributes=frozenset(symptoms),
        entities=frozenset({"n1"}),
        max_severity=2,
        root_cause_label="cause_noisy_neighbor",
        actions=tuple(actions),
        resolved=True,
        ticks_to_resolve=end - start,
        feature_vector=None,
    )


def loaded_memories(blocked: frozenset[str] = frozenset()) -> Memories:
    kg = KnowledgeGraph(ontology=default_ontology())
    for name, cls in [
        ("p1", "Pod"), ("p2", "Pod"), ("n1", "Node"), ("n2", "Node"),
        ("r1", "Rack"), ("sw1", "ToRSwitch"), ("svc-a", "Service"),
        ("svc-b", "Service"), ("pol-1", "Policy"),
        ("noisy_neighbor", "FaultKind"), ("throttle_tenant", "Action"),
    ]:
        kg.register_entity(name, cls)
    kg.assert_triple("p1", "runs_on", "n1")
    kg.assert_triple("p2", "runs_on", "n2")
    kg.assert_triple("p1", "serves", "svc-a")
    kg.assert_triple("p2", "serves", "svc-b")
    kg.assert_triple("n1", "member_of", "r1")
    kg.assert_triple("n2", "member_of", "r1")
    kg.assert_triple("r1", "uplink", "sw1")
    kg.assert_triple("svc-a", "depends_on", "svc-b")
    kg.assert_triple("svc-a", "constrained_by", "pol-1")

    rule = Rule(
        antecedent=frozenset({"cpu_high", "disk_high"}),
        consequent=frozenset({"cause_noisy_neighbor", "resolved_by_throttle_tenant"}),
        support=0.6, confidence=0.9, checked=True,
    )
    off_topic = Rule(
        antecedent=frozenset({"latency_high"}),
        consequent=frozenset({"cause_noisy_neighbor"}),
        support=0.6, confidence=0.99, checked=True,
    )
    inject_rules([rule, off_topic], kg, tick=0, episode_count=5)

    episodic = EpisodicStore()
    # ep-old/ep-new share an identical feature profile (same duration), so
    # the recency tie-break decides their order
    episodic.insert(_episode("ep-old", {"cpu_high", "disk_high"}, end=10,
                             actions=(("throttle_tenant", "n1", True),)))
    episodic.insert(_episode("ep-new", {"cpu_high", "disk_high"}, start=20, end=30,
                             actions=(("throttle_tenant", "n1", True),)))
    episodic.insert(_episode("ep-other", {"latency_high"}, end=20))

    buffer = ShortTermBuffer(capacity=16)
    buffer.push("alert cpu", priority=3, incident="inc-1")
    buffer.push("alert disk", priority=2, incident="inc-1")
    buffer.push("stale note", priority=9, incident="inc-0")

    runbooks = RunbookStore()
    runbooks.add(Runbook("rb-throttle", frozenset({"cpu_high", "disk_high"}),
                         ("throttle_tenant",)))
    runbooks.add(Runbook("rb-risky", frozenset({"cpu_high"}), ("drain_node",),
                         policy_tags=frozenset({"risky"})))
    runbooks.add(Runbook("rb-unrelated", frozenset({"dns_error"}), ("flush_dns_cache",)))
    return Memories(buffer=buffer, episodic=episodic, kg=kg, runbooks=runbooks,
                    blocked_policy_tags=blocked)


QUERY = IncidentDescriptor(
    incident_id="inc-1",
    affected_service="svc-a",
    affected_entity="p1",
    symptom_attributes=frozenset({"cpu_high", "disk_high"}),
    max_severity=2,
    start_tick=12,
)


def test_sections_come_out_in_fixed_order():
    pack = assemble(QUERY, loaded_memories(), BudgetPolicy())
    produced = list(pack.items)
    assert produced == [s for s in SECTION_ORDER if s in pack.items]
    assert produced[0] == "task"
    trace_sections = [t.section for t in pack.trace]
    assert trace_sections == sorted(trace_sections, key=SECTION_ORDER.index)


def test_pack_contents_from_each_tier():
    pack = assemble(QUERY, loaded_memories(), BudgetPolicy())
    assert task_descriptor(pack) is QUERY
    assert [it.key for it in pack.section("policies")] == [
        "policies:svc-a|constrained_by|pol-1"
    ]
    # only this incident's buffer items, highest priority first
    assert [it.payload.payload for it in pack.section("short_term")] == [
        "alert cpu", "alert disk"
    ]
    # episodic neighbours ranked by similarity then recency; cost counts actions
    epi = pack.section("episodic")
    assert [it.payload[0].episode_id for it in epi] == ["ep-new", "ep-old", "ep-other"]
    assert [it.cost for it in epi] == [2, 2, 1]
    # subgraph stays near the affected pod
    kg_keys = [it.key for it in pack.section("kg_subgraph")]
    assert "kg_subgraph:p1|runs_on|n1" in kg_keys
    assert "kg_subgraph:p1|serves|svc-a" in kg_keys
    # only rules whose antecedent overlaps the symptoms
    assert [it.payload.rule_id for it in pack.section("rules")] == [
        "rule:cpu_high+disk_high=>cause_noisy_neighbor+resolved_by_throttle_tenant"
    ]
    # runbooks filtered by trigger subset; nothing blocked yet
    assert [it.payload.runbook_id for it in pack.section("runbooks")] == [
        "rb-risky", "rb-throttle"
    ]
    assert pack.total_cost == sum(
        it.cost for sec in pack.items.values() for it in sec
    )
    assert pack.memory_touched > 0
    assert pack.included_count == len([t for t in pack.trace if t.included])


def test_blocked_policy_tags_filter_runbooks():
    pack = assemble(QUERY, loaded_memories(blocked=frozenset({"risky"})), BudgetPolicy())
    assert [it.payload.runbook_id for it in pack.section("runbooks")] == ["rb-throttle"]


def test_section_cap_skips_but_keeps_packing():
    policy = BudgetPolicy()
    policy.section_caps["kg_subgraph"] = 3
    pack = assemble(QUERY, loaded_memories(), policy)
    assert len(pack.section("kg_subgraph")) == 3
    capped = [t for t in pack.trace if t.reason == "section cap"]
    assert capped and all(t.section == "kg_subgraph" for t in capped)
    # later sections still run after a cap skip
    assert pack.section("rules") and pack.section("runbooks")
    # the three kept triples are the nearest ones
    kept = [t.key for t in pack.trace if t.section == "kg_subgraph" and t.included]
    assert kept == [it.key for it in pack.section("kg_subgraph")]
    assert "kg_subgraph:p1|runs_on|n1" in kept and "kg_subgraph:p1|serves|svc-a" in kept


def test_effective_cap_weighting():
    policy = BudgetPolicy()
    policy.section_caps["episodic"] = 4
    policy.weights["episodic"] = 0.5
    assert policy.effective_cap("episodic") == 2
    policy.weights["episodic"] = 2.0
    assert policy.effective_cap("episodic") == 8
    policy.section_caps["episodic"] = 1
    policy.weights["episodic"] = 0.5
    assert policy.effective_cap("episodic") == 1  # floor at one item
    assert policy.effective_cap("never-a-section") == 1


def test_budget_overflow_stops_everything():
    policy = BudgetPolicy(pack_budget=4)
    pack = assemble(QUERY, loaded_memories(), policy)
    assert pack.total_cost <= 4
    trace = pack.trace
    first_stop = next(i for i, t in enumerate(trace) if t.reason == "pack budget exhausted")
    # nothing after the first overflow is included, whatever its size
    assert all(not t.included for t in trace[first_stop:])
    assert {t.reason for t in trace[first_stop:]} == {"pack budget exhausted"}


def test_budget_prefix_property():
    memories = loaded_memories()
    baseline = assemble(QUERY, memories, BudgetPolicy(pack_budget=200))
    base_seq = [t.key for t in baseline.trace if t.included]
    for budget in range(1, 30):
        pack = assemble(QUERY, loaded_memories(), BudgetPolicy(pack_budget=budget))
        seq = [t.key for t in pack.trace if t.included]
        assert seq == base_seq[: len(seq)]
        assert pack.total_cost <= budget


def test_task_must_fit():
    with pytest.raises(PackBudgetError, match="task section"):
        assemble(QUERY, loaded_memories(), BudgetPolicy(pack_budget=0))
    with pytest.raises(ValueError):
        task_descriptor(ContextPack(budget=1, items={}, total_cost=0,
                                    trace=[], memory_touched=0))


def test_trace_covers_every_candidate_exactly_once():
    pack = assemble(QUERY, loaded_memories(), BudgetPolicy())
    keys = [t.key for t in pack.trace]
    assert len(keys) == len(set(keys))
    assert {t.reason for t in pack.trace} <= {
        "included", "section cap", "pack budget exhausted"
    }
    assert pack.keys() == {t.key for t in pack.trace if t.included}
    assert all(isinstance(t.included, bool) for t in pack.trace)


def test_update_weights_feedback_and_clamps():
    weights = {s: 1.0 for s in SECTION_ORDER}
    up = update_weights(weights, {"episodic", "rules"}, success=True)
    assert up["episodic"] == 1.1 and up["rules"] == 1.1 and up["task"] == 1.0
    assert weights["episodic"] == 1.0  # input untouched
    down = update_weights(up, {"episodic"}, success=False)
    assert down["episodic"] == 1.0
    hi = dict(weights, episodic=1.95)
    assert update_weights(hi, {"episodic"}, True)["episodic"] == 2.0
    lo = dict(weights, episodic=0.55)
    assert update_weights(lo, {"episodic"}, False)["episodic"] == 0.5
    assert update_weights(weights, {"not-a-section"}, True) == weights


# -- differential: one-pass assembly against gather-sort-pack ------------------


def _reference_subgraph(kg: KnowledgeGraph, entity: str, radius: int) -> list:
    """`KnowledgeGraph.subgraph` ranked by a key per triple: the smaller hop
    distance of its two endpoints, then the triple key. A literal is not a
    vertex: a literal triple touches its subject alone."""
    relations = kg.ontology.relations

    def ends(t):
        return t.subject, t.subject if relations[t.predicate][1] == LITERAL else t.object

    def touching(v):
        return [(t, ends(t)) for t in kg._incident.get(v, ()) if v in ends(t)]

    if not touching(entity):
        return []
    limit = max(radius - 1, 0)
    dist = bfs(entity, lambda v: (b if a == v else a for _, (a, b) in touching(v)), limit)
    seen = {}
    for v in dist:
        for t, _ in touching(v):
            seen[t.key()] = t
    far = limit + 1

    def rank(t):
        return (min(dist.get(v, far) for v in ends(t)), t.key())

    return sorted(seen.values(), key=rank)


def _reference_candidates(query, memories, *, episodic_k, subgraph_radius):
    """Every section's candidates gathered into one list before packing."""
    symptoms = query.symptom_attributes
    out = []
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

    query_vec = embed_features(symptoms, 0, query.max_severity)
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
    triples = _reference_subgraph(memories.kg, center, subgraph_radius)
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


def _reference_assemble(query, memories, policy, *, episodic_k=EPISODIC_K,
                        subgraph_radius=SUBGRAPH_RADIUS):
    """Gather every candidate, sort them by section, then pack the list."""
    candidates, touched = _reference_candidates(
        query, memories,
        episodic_k=episodic_k, subgraph_radius=subgraph_radius,
    )
    order = {s: i for i, s in enumerate(SECTION_ORDER)}
    candidates.sort(key=lambda c: order[c.section])

    items = {s: [] for s in SECTION_ORDER}
    caps = {s: policy.effective_cap(s) for s in SECTION_ORDER}
    trace = []
    section_cost = {s: 0 for s in SECTION_ORDER}
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


@st.composite
def fleets(draw):
    """A topology spec of 12 to 320 pods, its services calling each other."""
    n_pods = draw(st.integers(12, 320))
    per_node = draw(st.integers(1, 8))
    per_rack = draw(st.integers(1, 5))
    n_services = draw(st.integers(1, 12))  # no more than the pods: each service has one
    services = [f"svc-{i}" for i in range(n_services)]
    nodes = [
        {"id": f"node-{n}", "generation": "gen-7",
         "pods": [{"id": f"pod-{i}", "service": services[i % n_services]}
                  for i in range(start, min(start + per_node, n_pods))]}
        for n, start in enumerate(range(0, n_pods, per_node))
    ]
    racks = [
        {"id": f"rack-{r}", "switch": f"tor-{r}", "nodes": nodes[start:start + per_rack]}
        for r, start in enumerate(range(0, len(nodes), per_rack))
    ]
    pairs = [[a, b] for a in services for b in services if a != b]
    deps = draw(st.lists(st.sampled_from(pairs), unique_by=tuple, max_size=20)) if pairs else []
    return {"racks": racks, "dependencies": deps}


_SEVERITIES = st.integers(0, 3)
_SYMPTOMS = st.frozensets(st.sampled_from(SYMPTOM_VOCAB), min_size=1, max_size=4)


@st.composite
def scenes(draw):
    """Memories over a generated fleet, and an incident to assemble for."""
    spec = draw(fleets())
    topo = build_topology(spec)
    kg = KnowledgeGraph(ontology=default_ontology())
    bootstrap_from_topology(kg, topo)
    services = sorted(topo.services)
    nodes = sorted(topo.rack_of_node)
    for i in range(draw(st.integers(0, 3))):
        kg.register_entity(f"pol-{i}", "Policy")
        for svc in draw(st.lists(st.sampled_from(services), unique=True, max_size=4)):
            kg.assert_triple(svc, "constrained_by", f"pol-{i}")
    for node in draw(st.lists(st.sampled_from(nodes), unique=True, max_size=3)):
        kg.assert_triple(node, "decommissioned", "true")

    rules = [
        Rule(antecedent=antecedent, consequent=frozenset({f"cause_{i}"}),
             support=0.5, confidence=draw(st.sampled_from([0.8, 0.9, 1.0])), checked=True)
        for i, antecedent in enumerate(draw(st.lists(_SYMPTOMS, unique=True, max_size=6)))
    ]
    inject_rules(rules, kg, tick=0, episode_count=10)
    for rule in rules:
        if draw(st.booleans()):
            kg.rules[rule.rule_id].status = "retired"

    episodic = EpisodicStore()
    entities = [frozenset({node}) for node in nodes[:4]]
    for i in range(draw(st.integers(0, 30))):
        start = draw(st.integers(0, 50))
        episodic.insert(Episode(
            episode_id=f"ep-{i:03d}", start_tick=start,
            end_tick=start + draw(st.integers(1, 3)),
            affected_service=services[0],
            symptom_attributes=draw(_SYMPTOMS),
            entities=draw(st.sampled_from(entities)),
            max_severity=draw(st.integers(1, 3)),
            root_cause_label="cause_noisy_neighbor",
            actions=tuple(("throttle_tenant", nodes[0], True)
                          for _ in range(draw(st.integers(0, 3)))),
            resolved=True, ticks_to_resolve=2, feature_vector=None,
        ))
    if draw(st.booleans()):
        episodic.forget(ForgetCriteria(entities=entities[0]))

    buffer = ShortTermBuffer(capacity=draw(st.integers(1, 24)))
    for i in range(draw(st.integers(0, 30))):
        buffer.push(f"alert {i}", priority=draw(_SEVERITIES),
                    incident=draw(st.sampled_from(["inc-1", "inc-1", "inc-0"])))

    runbooks = RunbookStore()
    for i in range(draw(st.integers(0, 8))):
        runbooks.add(Runbook(f"rb-{i}", draw(_SYMPTOMS), ("throttle_tenant",),
                             policy_tags=draw(st.sampled_from([frozenset(), frozenset({"risky"})]))))
    memories = Memories(
        buffer=buffer, episodic=episodic, kg=kg, runbooks=runbooks,
        blocked_policy_tags=draw(st.sampled_from([frozenset(), frozenset({"risky"})])),
    )

    pods = sorted(topo.node_of_pod)
    query = IncidentDescriptor(
        incident_id="inc-1",
        affected_service=draw(st.sampled_from(services)),
        affected_entity=draw(st.sampled_from(
            ["", "ghost", pods[0], pods[-1], nodes[0], nodes[-1], "rack-0", "tor-0", services[-1]]
        )),
        symptom_attributes=draw(_SYMPTOMS),
        max_severity=draw(st.integers(1, 3)),
        start_tick=draw(st.integers(0, 100)),
    )
    return query, memories


@st.composite
def policies(draw):
    caps = {s: draw(st.integers(0, 30)) for s in SECTION_ORDER}
    weights = {s: draw(st.floats(0.5, 2.0)) for s in SECTION_ORDER}
    ceiling = sum(BudgetPolicy(section_caps=caps, weights=weights).effective_cap(s)
                  for s in SECTION_ORDER)
    budget = draw(st.integers(0, ceiling + 10))
    return BudgetPolicy(pack_budget=budget, section_caps=caps, weights=weights)


def _packed(pack: ContextPack) -> dict:
    """Per section: each packed key with its payload's identity; an
    episodic payload is a fresh (episode, similarity) pair."""
    return {
        section: [
            (it.key, it.priority, it.cost,
             (id(it.payload[0]), it.payload[1]) if section == "episodic" else id(it.payload))
            for it in items
        ]
        for section, items in pack.items.items()
    }


@settings(max_examples=80, deadline=None)
@given(scenes(), st.lists(policies(), min_size=1, max_size=3),
       st.integers(0, 4), st.integers(0, 8), st.data())
def test_one_pass_assembly_equals_the_gather_sort_pack_reference(
    scene, budget_policies, radius, episodic_k, data
):
    query, memories = scene
    kwargs = {"episodic_k": episodic_k, "subgraph_radius": radius}
    for policy in budget_policies:
        # Besides the drawn budget, budgets that run out anywhere in the
        # full pack, so the first overflow falls in every section.
        unbounded = dataclasses.replace(policy, pack_budget=10**6)
        full = _reference_assemble(query, memories, unbounded, **kwargs).total_cost
        budgets = data.draw(st.lists(st.integers(0, full + 1), min_size=1, max_size=4))
        for budget in [policy.pack_budget, *budgets]:
            budgeted = dataclasses.replace(policy, pack_budget=budget)
            try:
                expected = _reference_assemble(query, memories, budgeted, **kwargs)
            except PackBudgetError as exc:
                with pytest.raises(PackBudgetError) as raised:
                    assemble(query, memories, budgeted, **kwargs)
                assert str(raised.value) == str(exc)
                continue
            pack = assemble(query, memories, budgeted, **kwargs)
            assert pack.trace == expected.trace
            assert _packed(pack) == _packed(expected)
            assert pack.total_cost == expected.total_cost
            assert pack.memory_touched == expected.memory_touched
            assert pack.budget == expected.budget


@settings(max_examples=40, deadline=None)
@given(scenes(), st.data())
def test_a_chain_of_packs_on_growing_memories_equals_the_reference(scene, data):
    """Packs on one set of memories that grows between them: each trace
    equals the reference packer's, kg_subgraph tails end both ways, and
    equal kg_subgraph entries of any two packs are one object."""
    query, memories = scene
    kg = memories.kg
    nodes = sorted({t.subject for t in kg.query(None, "member_of", None)})
    services = sorted({t.object for t in kg.query(None, "serves", None)})
    # Two exact matches for the query, so they rank first: the more recent
    # costs 4, more than the episodic cap of 2 on the first pack, and the
    # next one still fits.
    for eid, tick, n_actions in (("ep-big", 1000, 3), ("ep-small", 999, 0)):
        memories.episodic.insert(Episode(
            episode_id=eid, start_tick=tick, end_tick=tick,
            affected_service=services[0], symptom_attributes=query.symptom_attributes,
            entities=frozenset({nodes[0]}), max_severity=query.max_severity,
            root_cause_label="cause_noisy_neighbor",
            actions=(("throttle_tenant", nodes[0], True),) * n_actions,
            resolved=True, ticks_to_resolve=0, feature_vector=None,
        ))
    first: dict[TraceEntry, TraceEntry] = {}
    for step in range(data.draw(st.integers(1, 4))):
        if step:
            for i in range(data.draw(st.integers(0, 3))):
                pod = f"pod-g{step}-{i}"
                kg.register_entity(pod, "Pod")
                kg.assert_triple(pod, "runs_on", data.draw(st.sampled_from(nodes)))
                kg.assert_triple(pod, "serves", data.draw(st.sampled_from(services)))
            if data.draw(st.booleans()):
                kg.assert_triple(data.draw(st.sampled_from(nodes)), "decommissioned",
                                 data.draw(st.sampled_from(["7", "true", nodes[0]])))
            memories.buffer.push(f"alert g{step}", priority=data.draw(_SEVERITIES),
                                 incident="inc-1")
            query = dataclasses.replace(query, affected_entity=data.draw(st.sampled_from(
                [query.affected_entity, nodes[0], nodes[-1], f"pod-g{step}-0"])))
        policy = data.draw(policies())
        if step == 0:
            policy.section_caps["episodic"], policy.weights["episodic"] = 2, 1.0
        kwargs = {"episodic_k": data.draw(st.integers(2, 8)),
                  "subgraph_radius": data.draw(st.integers(0, 4))}
        full = _reference_assemble(
            query, memories, dataclasses.replace(policy, pack_budget=10**6), **kwargs)
        before_kg = sum(e.cost for e in full.trace if e.included and e.section in
                        SECTION_ORDER[:SECTION_ORDER.index("kg_subgraph")])
        kg_included = sum(e.included for e in full.trace if e.section == "kg_subgraph")
        # Unbounded; running out inside kg_subgraph; anywhere.
        budgets = [10**6, before_kg + data.draw(st.integers(0, max(kg_included - 1, 0))),
                   data.draw(st.integers(1, full.total_cost + 1))]
        for n, budget in enumerate(budgets):
            budgeted = dataclasses.replace(policy, pack_budget=budget)
            pack = assemble(query, memories, budgeted, **kwargs)
            assert pack.trace == _reference_assemble(query, memories, budgeted, **kwargs).trace
            kg_trace = [e for e in pack.trace if e.section == "kg_subgraph"]
            for entry in kg_trace:
                assert first.setdefault(entry, entry) is entry
            if n == 0 and len(kg_trace) > kg_included:
                assert kg_trace[-1].reason == "section cap"
            if n == 1 and kg_included:
                assert kg_trace[-1].reason == "pack budget exhausted"
            if step == 0 and n == 0:
                assert [(e.key, e.reason) for e in pack.trace if e.section == "episodic"][:2] == [
                    ("episodic:ep-big", "section cap"), ("episodic:ep-small", "included")]
