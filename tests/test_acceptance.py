"""Acceptance gate: ten checks with pinned tolerances.

Each test covers one acceptance criterion end to end, using oracles that are
independent of the implementation (power-set sweeps, exhaustive rankings,
test-side signature tables) and the shipped example configs for the full-loop
criteria. Every test prints a one-line summary of what it measured.
"""
from __future__ import annotations

import json
import math
import random
import time
from pathlib import Path

import pytest

from opsloop.artifacts import read_run
from opsloop.config import SYMPTOM_VOCAB, is_outcome_label
from opsloop.contextpack import BudgetPolicy, IncidentDescriptor, assemble
from opsloop.lattice import FormalContext, Rule, inject_rules, lattice_leq, mine_rules
from opsloop.memory import (
    Episode,
    EpisodicStore,
    KnowledgeGraph,
    Memories,
    Runbook,
    RunbookStore,
    ShortTermBuffer,
    bootstrap_from_topology,
    default_ontology,
)
from opsloop.orchestrator import legal_transition_triples
from opsloop.runner import config_from_dict, load_config, run

from conftest import CONFIG_DIR, small_topology_spec, tiny_topology_spec

OUTCOME_POOL = (
    "cause_noisy_neighbor",
    "cause_dns_error_burst",
    "cause_tor_packet_loss",
    "resolved_by_throttle_tenant",
    "resolved_by_flush_dns_cache",
)


# -- shared full-loop runs ---------------------------------------------------------


@pytest.fixture(scope="module")
def dns_runs(tmp_path_factory):
    """The 20-episode recurring-fault run, executed twice with the same seed."""
    out_a = tmp_path_factory.mktemp("dns-a")
    out_b = tmp_path_factory.mktemp("dns-b")
    config = load_config(CONFIG_DIR / "recurring_dns.json")
    started = time.monotonic()
    report_a = run(config, out_a)
    duration = time.monotonic() - started
    report_b = run(load_config(CONFIG_DIR / "recurring_dns.json"), out_b)
    return report_a, report_b, duration, out_a, out_b


@pytest.fixture(scope="module")
def forgetting_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("forgetting")
    config = load_config(CONFIG_DIR / "decommission_forgetting.json")
    report = run(config, out)
    return report, out


# -- criterion 1: concept enumeration and rule counts are exact -----------------------


def _random_named_context(rng: random.Random):
    n_obj = rng.randint(1, 12)
    n_attr = rng.randint(1, 10)
    pool = list(SYMPTOM_VOCAB) + list(OUTCOME_POOL)
    attributes = rng.sample(pool, n_attr)
    objects = [f"e{i}" for i in range(n_obj)]
    rows = [0] * n_obj
    incidence = []
    for i, obj in enumerate(objects):
        for j, attr in enumerate(attributes):
            if rng.random() < 0.4:
                rows[i] |= 1 << j
                incidence.append((obj, attr))
    return objects, attributes, rows, incidence


def _sweep_concepts(rows, n_attr):
    """Power-set oracle: close every attribute subset, dedupe the results."""
    all_attrs = (1 << n_attr) - 1
    intents = set()
    for m in range(1 << n_attr):
        intent = all_attrs
        for r in rows:
            if r & m == m:
                intent &= r
        intents.add(intent)
    return {
        intent: frozenset(i for i, r in enumerate(rows) if r & intent == intent)
        for intent in intents
    }


def _sweep_rules(objects, attributes, rows, min_s, min_c):
    n = len(objects)
    out = {}
    for intent_mask, extent in _sweep_concepts(rows, len(attributes)).items():
        names = {attributes[j] for j in range(len(attributes)) if intent_mask >> j & 1}
        ante = frozenset(a for a in names if not is_outcome_label(a))
        cons = frozenset(names) - ante
        if not ante or not cons:
            continue
        ante_mask = 0
        for j, attr in enumerate(attributes):
            if attr in ante:
                ante_mask |= 1 << j
        full = len(extent)
        ante_count = sum(1 for r in rows if r & ante_mask == ante_mask)
        if full == 0 or ante_count == 0:
            continue
        support, confidence = full / n, full / ante_count
        if support < min_s or confidence < min_c:
            continue
        rid = "rule:" + "+".join(sorted(ante)) + "=>" + "+".join(sorted(cons))
        out[rid] = (support, confidence)
    return out


def test_criterion_01_concepts_and_rule_counts_match_powerset_oracle():
    rng = random.Random(11)
    started = time.monotonic()
    total_concepts = 0
    total_rules = 0
    for _ in range(200):
        objects, attributes, rows, incidence = _random_named_context(rng)
        ctx = FormalContext(objects, attributes, incidence)
        got = {
            (c.extent, c.intent) for c in ctx.concepts()
        }
        oracle = {
            (
                frozenset(objects[i] for i in extent),
                frozenset(attributes[j] for j in range(len(attributes))
                          if intent >> j & 1),
            )
            for intent, extent in _sweep_concepts(rows, len(attributes)).items()
        }
        assert got == oracle
        total_concepts += len(got)

        min_s = rng.choice([0.15, 0.2, 0.3])
        min_c = rng.choice([0.7, 0.8, 1.0])
        mined = {r.rule_id: (r.support, r.confidence)
                 for r in mine_rules(ctx, min_s, min_c)}
        assert mined == _sweep_rules(objects, attributes, rows, min_s, min_c)
        total_rules += len(mined)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(
        f"criterion 1: 200 contexts, {total_concepts} concepts and "
        f"{total_rules} rules exact vs power-set oracle in {elapsed:.2f}s"
    )


# -- criterion 2: closure laws and the Galois connection ------------------------------


def test_criterion_02_closure_laws_hold_on_1000_draws():
    rng = random.Random(22)
    violations = 0
    context = None
    for draw in range(1000):
        if draw % 10 == 0:
            objects, attributes, rows, incidence = _random_named_context(rng)
            context = FormalContext(objects, attributes, incidence)
        attrs = list(context.attributes)
        objs = list(context.objects)
        a_set = frozenset(a for a in attrs if rng.random() < 0.4)
        extra = frozenset(a for a in attrs if rng.random() < 0.3)
        b_set = a_set | extra
        o_set = frozenset(o for o in objs if rng.random() < 0.4)

        ca, cb = context.closure(a_set), context.closure(b_set)
        if not a_set <= ca:
            violations += 1  # extensivity
        if not ca <= cb:
            violations += 1  # monotonicity (a_set <= b_set by construction)
        if context.closure(ca) != ca:
            violations += 1  # idempotence
        galois_lhs = a_set <= context.intent_of(o_set)
        galois_rhs = o_set <= context.extent_of(a_set)
        if galois_lhs != galois_rhs:
            violations += 1
    assert violations == 0
    print("criterion 2: 1000 random draws, 0 violations of "
          "extensivity/monotonicity/idempotence/Galois")


# -- criterion 3: meets and joins are unique GLB/LUB ----------------------------------


def test_criterion_03_every_concept_pair_has_unique_meet_and_join():
    rng = random.Random(33)
    pairs_checked = 0
    for _ in range(30):
        n_obj, n_attr = rng.randint(1, 8), rng.randint(1, 7)
        objects = [f"o{i}" for i in range(n_obj)]
        attributes = [f"a{j}" for j in range(n_attr)]
        incidence = [(o, a) for o in objects for a in attributes
                     if rng.random() < 0.45]
        ctx = FormalContext(objects, attributes, incidence)
        concepts = ctx.concepts()
        universe = set(concepts)
        for a in concepts:
            for b in concepts:
                m, j = ctx.meet(a, b), ctx.join(a, b)
                assert m in universe and j in universe
                assert lattice_leq(m, a) and lattice_leq(m, b)
                assert lattice_leq(a, j) and lattice_leq(b, j)
                for c in concepts:
                    below = lattice_leq(c, a) and lattice_leq(c, b)
                    above = lattice_leq(a, c) and lattice_leq(b, c)
                    # every lower bound sits under the meet and every upper
                    # bound over the join, so each is the unique GLB/LUB
                    assert not below or lattice_leq(c, m)
                    assert not above or lattice_leq(j, c)
                    # extent- and intent-side order definitions agree
                    assert lattice_leq(a, c) == (a.extent <= c.extent)
                    assert lattice_leq(a, c) == (c.intent <= a.intent)
                pairs_checked += 1
    print(f"criterion 3: {pairs_checked} concept pairs across 30 contexts, "
          f"meet/join unique GLB/LUB, order characterizations agree")


# -- criterion 4: recurring faults get cheaper and stay accurate ----------------------


def test_criterion_04_reasoner_cost_halves_after_rules_are_learned(dns_runs):
    report_a, report_b, duration, _, _ = dns_runs
    config = load_config(CONFIG_DIR / "recurring_dns.json")
    assert config.params.learning_cadence == 5
    assert config.params.min_support == 0.2 and config.params.min_confidence == 0.8
    rows = report_a.rows
    assert len(rows) == 20
    first = [r["compute"].get("reasoner", 0.0) for r in rows[:5]]
    last = [r["compute"].get("reasoner", 0.0) for r in rows[15:]]
    ratio = (sum(last) / 5) / (sum(first) / 5)
    assert ratio <= 0.5
    accuracy = sum(1 for r in rows if r["correct"]) / len(rows)
    assert accuracy == 1.0
    assert all(r["resolved"] for r in rows)
    assert rows[-1]["path"] == "rule_shortcut"
    assert report_a.rows == report_b.rows  # same seed, same behaviour
    assert duration < 10.0
    print(
        f"criterion 4: reasoner units episodes 16-20 at {ratio:.3f} of episodes 1-5 "
        f"(<= 0.5), top-1 accuracy {accuracy:.0%}, run took {duration:.2f}s"
    )


# -- criterion 5: decommission retires rules and keeps them out of later packs --------


RETIRED_RULE = (
    "rule:cpu_high+disk_high=>cause_noisy_neighbor+resolved_by_throttle_tenant"
)


def test_criterion_05_decommissioned_provenance_rules_stop_influencing(forgetting_run):
    report, out = forgetting_run
    rows = report.rows
    assert len(rows) == 10 and all(r["resolved"] for r in rows)
    # the rule is live and used right after the first learning pass
    assert rows[5]["path"] == "rule_shortcut" and rows[5]["rules_active"] >= 1
    # episode 7 decommissions node-3; logging retires the rule immediately
    assert rows[6]["fault_kind"] == "node_decommission"
    assert rows[6]["rules_active"] == 0

    records = read_run(out / "episodes.jsonl")
    tail = [rec for rec in records
            if rec["row"]["episode_id"] in ("ep-0008", "ep-0009", "ep-0010")]
    assert len(tail) == 3
    for rec in tail:
        for trace in rec["pack_traces"]:
            assert all(entry["key"] != f"rules:{RETIRED_RULE}" for entry in trace)
        assert all(h["via_rule"] != RETIRED_RULE for h in rec["hypotheses"])
        assert rec["row"]["path"] == "propagation"
        assert rec["row"]["correct"] is True

    # the final learning pass may legitimately re-prove the pattern, but only
    # from evidence gathered after the decommission
    final_rules = {
        json.loads(line)["rule_id"]: json.loads(line)
        for line in (out / "rules.jsonl").read_text().splitlines()
    }
    reborn = final_rules[RETIRED_RULE]
    assert reborn["status"] == "validated"
    assert set(reborn["provenance"]) <= {"ep-0008", "ep-0009", "ep-0010"}
    print(
        "criterion 5: rule retired with the decommission at episode 7, absent from "
        "episodes 8-10 packs and diagnoses, re-proven only from fresh evidence"
    )


# -- criterion 6: episodic search equals exhaustive ranking ---------------------------


def _py_cosine(u, v):
    dot = sum(x * y for x, y in zip(u, v))
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(y * y for y in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return dot / (nu * nv)


def _make_episode(eid, symptoms, start, end, severity):
    return Episode(
        episode_id=eid,
        start_tick=start,
        end_tick=end,
        affected_service="svc-x",
        symptom_attributes=frozenset(symptoms),
        entities=frozenset(),
        max_severity=severity,
        root_cause_label=None,
        actions=(),
        resolved=True,
        ticks_to_resolve=end - start,
        feature_vector=None,
    )


def test_criterion_06_search_matches_exhaustive_ranking_on_100_stores():
    rng = random.Random(66)
    biggest = 0
    for trial in range(100):
        store = EpisodicStore()
        n = rng.randint(1, 1000)
        biggest = max(biggest, n)
        profiles = []
        for i in range(n):
            if profiles and rng.random() < 0.3:
                symptoms, duration, severity, end = rng.choice(profiles)
            else:
                symptoms = frozenset(rng.sample(SYMPTOM_VOCAB, rng.randint(1, 3)))
                duration = rng.randint(0, 80)
                severity = rng.randint(0, 4)
                end = rng.randint(duration, duration + 500)
                profiles.append((symptoms, duration, severity, end))
            store.insert(_make_episode(f"ep-{i:04d}", symptoms,
                                       end - duration, end, severity))
        from opsloop.memory.episodic import embed_features
        query = embed_features(
            frozenset(rng.sample(SYMPTOM_VOCAB, rng.randint(1, 3))),
            duration=rng.randint(0, 80),
            max_severity=rng.randint(0, 4),
        )
        expected = sorted(
            ((ep, _py_cosine(query, ep.feature_vector))
             for ep in store.live_episodes()),
            key=lambda pair: (-pair[1], -pair[0].end_tick, pair[0].episode_id),
        )
        k = rng.randint(1, 50)
        got = store.search(query, k)
        assert [(ep.episode_id, score) for ep, score in got] == [
            (ep.episode_id, score) for ep, score in expected[:k]
        ]
    print(f"criterion 6: 100 random stores (largest {biggest} episodes), "
          f"top-k equals exhaustive cosine ranking with exact tie-breaks")


# -- criterion 7: the graph accepts exactly the signature-valid triples ----------------


ORACLE_SIGNATURES = {
    "runs_on": ("Pod", "Node"),
    "member_of": ("Node", "Rack"),
    "uplink": ("Rack", "ToRSwitch"),
    "serves": ("Pod", "Service"),
    "depends_on": ("Service", "Service"),
    "indicates": ("AttributeSet", "FaultKind"),
    "remedied_by": ("FaultKind", "Action"),
    "constrained_by": ("Service", "Policy"),
    "decommissioned": ("Node", None),  # literal-valued
}


def test_criterion_07_insertions_accepted_iff_signature_valid():
    rng = random.Random(77)
    kg = KnowledgeGraph(ontology=default_ontology())
    classes = {
        "Pod": ["p1", "p2", "p3"],
        "Node": ["n1", "n2"],
        "Rack": ["r1", "r2"],
        "ToRSwitch": ["sw1", "sw2"],
        "Service": ["svc-a", "svc-b"],
        "Policy": ["pol-1"],
        "FaultKind": ["noisy_neighbor", "dns_error_burst"],
        "Action": ["throttle_tenant", "flush_dns_cache"],
        "AttributeSet": ["aset:cpu_high"],
        "Rule": ["rule:x"],
    }
    class_of = {}
    for cls, names in classes.items():
        for name in names:
            kg.register_entity(name, cls)
            class_of[name] = cls
    names = sorted(class_of) + ["ghost-1", "ghost-2", "tick-5", "tick-99"]
    predicates = sorted(ORACLE_SIGNATURES) + ["bogus_rel", "parent_of"]

    accepted_count = 0
    for i in range(1000):
        if rng.random() < 0.5:
            # aim at a plausible triple; the oracle still decides acceptance
            p = rng.choice(sorted(ORACLE_SIGNATURES))
            domain, rng_cls = ORACLE_SIGNATURES[p]
            s = rng.choice(classes[domain])
            o = rng.choice(names) if rng_cls is None else rng.choice(classes[rng_cls])
        else:
            s, p, o = rng.choice(names), rng.choice(predicates), rng.choice(names)
        signature = ORACLE_SIGNATURES.get(p)
        if signature is None:
            should_accept = False
        else:
            domain, rng_cls = signature
            should_accept = class_of.get(s) == domain and (
                rng_cls is None or class_of.get(o) == rng_cls
            )
        result = kg.assert_triple(s, p, o)
        assert result.accepted == should_accept, (s, p, o, result.reason)
        accepted_count += result.accepted
        if (i + 1) % 100 == 0:
            assert kg.validate_all() == []
    assert kg.validate_all() == []
    assert 0 < accepted_count < 1000  # the draw exercised both outcomes
    print(f"criterion 7: 1000 random insertions, {accepted_count} accepted, "
          f"acceptance matches the signature oracle, validate_all stays clean")


# -- criterion 8: assembly never exceeds budget; raising it only extends the pack -----


def _assembly_memories() -> Memories:
    from opsloop.cluster import build_topology

    topology = build_topology(small_topology_spec())
    kg = KnowledgeGraph(ontology=default_ontology())
    bootstrap_from_topology(kg, topology)
    kg.register_entity("pol-freeze", "Policy")
    kg.assert_triple("svc-checkout", "constrained_by", "pol-freeze")

    rng = random.Random(880)
    episodic = EpisodicStore()
    for i in range(40):
        symptoms = frozenset(rng.sample(SYMPTOM_VOCAB, rng.randint(1, 3)))
        end = rng.randint(10, 400)
        episodic.insert(_make_episode(f"ep-{i:03d}", symptoms,
                                      max(end - rng.randint(1, 30), 0), end,
                                      rng.randint(1, 3)))
    rules = [
        Rule(antecedent=frozenset({"cpu_high", "disk_high"}),
             consequent=frozenset({"cause_noisy_neighbor",
                                   "resolved_by_throttle_tenant"}),
             support=0.5, confidence=0.9, checked=True),
        Rule(antecedent=frozenset({"dns_error"}),
             consequent=frozenset({"cause_dns_error_burst",
                                   "resolved_by_flush_dns_cache"}),
             support=0.5, confidence=0.95, checked=True),
    ]
    inject_rules(rules, kg, tick=0, episode_count=10)
    runbooks = RunbookStore()
    runbooks.add(Runbook("rb-throttle", frozenset({"cpu_high"}), ("throttle_tenant",)))
    runbooks.add(Runbook("rb-flush", frozenset({"dns_error"}), ("flush_dns_cache",)))
    runbooks.add(Runbook("rb-scale", frozenset({"latency_high"}), ("scale_replicas",)))
    buffer = ShortTermBuffer(capacity=32)
    for i in range(10):
        buffer.push(f"note-{i}", priority=rng.randint(1, 3), incident="inc-q")
    return Memories(buffer=buffer, episodic=episodic, kg=kg, runbooks=runbooks)


def test_criterion_08_assembly_respects_budget_and_truncates_monotonically():
    rng = random.Random(88)
    memories = _assembly_memories()
    entities = ["pod-dns-1", "pod-checkout-2", "node-3", "tor-2", "svc-dns",
                "svc-checkout", "pod-ledger-1"]
    for _ in range(500):
        query = IncidentDescriptor(
            incident_id="inc-q",
            affected_service=rng.choice(["svc-dns", "svc-checkout", "svc-ledger"]),
            affected_entity=rng.choice(entities),
            symptom_attributes=frozenset(rng.sample(SYMPTOM_VOCAB, rng.randint(1, 4))),
            max_severity=rng.randint(1, 3),
            start_tick=rng.randint(1, 100),
        )
        budget = rng.randint(1, 120)
        caps = {s: rng.randint(1, 30) for s in
                ("task", "policies", "short_term", "episodic", "kg_subgraph",
                 "rules", "runbooks")}
        weights = {s: rng.choice([0.5, 0.8, 1.0, 1.3, 2.0]) for s in caps}
        episodic_k = rng.randint(1, 8)
        radius = rng.randint(1, 4)

        def build(b):
            return assemble(
                query, memories,
                BudgetPolicy(pack_budget=b, section_caps=dict(caps),
                             weights=dict(weights)),
                episodic_k=episodic_k, subgraph_radius=radius,
            )

        pack = build(budget)
        assert pack.total_cost <= budget
        raised = build(budget + rng.randint(1, 60))
        small_seq = [t.key for t in pack.trace if t.included]
        big_seq = [t.key for t in raised.trace if t.included]
        assert small_seq == big_seq[: len(small_seq)]
    print("criterion 8: 500 random assemblies never exceeded their budget; "
          "raising the budget only ever extended the included prefix")


# -- criterion 9: transitions stay table-legal, retries bounded, exhaustion terminal --


def _tiny_run_dict(**overrides):
    base = {
        "seed": 13,
        "episodes": 1,
        "topology": tiny_topology_spec(),
        "scenario": [
            {"kind": "noisy_neighbor", "target": "n1", "magnitude": 0.8,
             "duration": 60, "lead": 2}
        ],
        "seed_runbooks": [
            {"id": "rb-throttle", "trigger": ["cpu_high", "disk_high"],
             "steps": ["throttle_tenant"]}
        ],
        "params": {},
    }
    base.update(overrides)
    return base


def _audit_transitions_log(path: Path, legal) -> dict[str, int]:
    """Returns plan_ready counts per episode, validating every line."""
    attempts: dict[str, int] = {}
    for line in path.read_text().splitlines():
        episode_id, _tick, frm, event, to, _budget = line.split("\t")
        assert (frm, event, to) in legal, line
        if event == "plan_ready":
            attempts[episode_id] = attempts.get(episode_id, 0) + 1
    return attempts


def test_criterion_09_fsm_stays_legal_with_bounded_retries(
    dns_runs, forgetting_run, tmp_path
):
    legal = legal_transition_triples()
    _, _, _, out_a, _ = dns_runs
    _, out_forget = forgetting_run
    audited_lines = 0
    for out in (out_a, out_forget):
        attempts = _audit_transitions_log(out / "transitions.log", legal)
        assert attempts and all(n <= 3 for n in attempts.values())
        audited_lines += len((out / "transitions.log").read_text().splitlines())

    # retry exhaustion: a runbook that cannot fix the fault forces the
    # escalation bound to bind exactly
    retry_cfg = _tiny_run_dict()
    retry_cfg["scenario"][0]["duration"] = 200
    retry_cfg["seed_runbooks"] = [
        {"id": "rb-wrong", "trigger": ["cpu_high", "disk_high"],
         "steps": ["restart_pod"]}
    ]
    retry_report = run(config_from_dict(retry_cfg), tmp_path / "retry")
    retry_row = retry_report.rows[0]
    assert retry_row["attempts"] == 3 and not retry_row["resolved"]
    assert retry_row["escalation_reason"].startswith("retries exhausted")
    retry_events = [t.event for t in retry_report.episode_runs[0].transitions]
    assert retry_events.count("plan_ready") == 3
    assert retry_report.episode_runs[0].transitions[-1].phase_to == "Escalated"

    # budget exhaustion: the first transition after the ledger overruns must
    # be budget_exceeded into Escalated, and nothing follows it
    budget_cfg = _tiny_run_dict(params={"compute_limit": 2.0})
    budget_report = run(config_from_dict(budget_cfg), tmp_path / "budget")
    budget_run = budget_report.episode_runs[0]
    limit = 2.0
    over = [t for t in budget_run.transitions if t.budget_total > limit]
    assert over and all(t.event == "budget_exceeded" for t in over)
    assert budget_run.transitions[-1].event == "budget_exceeded"
    assert budget_run.transitions[-1].phase_to == "Escalated"
    assert budget_report.rows[0]["escalation_reason"] == "budget exhausted"
    for t in budget_run.transitions + retry_report.episode_runs[0].transitions:
        assert (t.phase_from, t.event, t.phase_to) in legal
    print(f"criterion 9: {audited_lines} logged transitions all table-legal; "
          f"retries capped at 3; budget exhaustion escalated on the next transition")


# -- criterion 10: same seed, byte-identical artifacts --------------------------------


def test_criterion_10_same_seed_runs_are_byte_identical(dns_runs):
    _, _, _, out_a, out_b = dns_runs
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b
    for name in ("report.jsonl", "episodes.jsonl", "kg.tsv"):
        assert name in names_a
    diffs = [
        name for name in names_a
        if (out_a / name).read_bytes() != (out_b / name).read_bytes()
    ]
    assert diffs == []
    print(f"criterion 10: {len(names_a)} artifacts byte-identical across two "
          f"same-seed runs (report, episode log, graph export included)")
