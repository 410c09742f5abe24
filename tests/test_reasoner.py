"""Diagnosis routes, suspect resolution, planning, and stop conditions."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from opsloop.cluster import build_topology
from opsloop.config import FAULT_SIGNATURE, REMEDY, FaultKind, cause_label
from opsloop.contextpack import ContextPack, IncidentDescriptor, PackItem
from opsloop.ingest import Alert
from opsloop.lattice import Rule
from opsloop.memory.knowledge import Triple
from opsloop.memory.runbooks import Runbook
from opsloop.reasoner import diagnose, make_plan

from conftest import small_topology_spec

DECAY = 0.7


def alert(entity, attribute, severity, tick=5):
    return Alert(tick=tick, entity=entity, attribute=attribute,
                 severity=severity, evidence=())


def pack_of(symptoms, *, affected_entity="p1", affected_service="svc-a",
            alerts=(), triples=(), rules=()) -> ContextPack:
    descriptor = IncidentDescriptor(
        incident_id="inc-1",
        affected_service=affected_service,
        affected_entity=affected_entity,
        symptom_attributes=frozenset(symptoms),
        max_severity=max((a.severity for a in alerts), default=1),
        start_tick=1,
    )
    items = {"task": [PackItem("task", "task:inc-1", descriptor, 3, 1)]}
    if alerts:
        items["short_term"] = [
            PackItem("short_term", f"short_term:{i}", a, a.severity, 1)
            for i, a in enumerate(alerts)
        ]
    if triples:
        items["kg_subgraph"] = [
            PackItem("kg_subgraph", f"kg_subgraph:{t.subject}|{t.predicate}|{t.object}",
                     t, 1, 1)
            for t in triples
        ]
    if rules:
        items["rules"] = [
            PackItem("rules", f"rules:{r.rule_id}", r, 2, 1) for r in rules
        ]
    total = sum(it.cost for sec in items.values() for it in sec)
    return ContextPack(budget=100, items=items, total_cost=total, trace=[],
                       memory_touched=total)


CHAIN = (
    Triple("p1", "runs_on", "n1"),
    Triple("n1", "member_of", "r1"),
    Triple("r1", "uplink", "sw1"),
)


def make_rule(antecedent, consequent, confidence=0.9):
    return Rule(antecedent=frozenset(antecedent), consequent=frozenset(consequent),
                support=0.5, confidence=confidence, status="validated", checked=True)


# -- rule shortcut route ---------------------------------------------------------


def test_rule_shortcut_beats_propagation():
    rule = make_rule({"cpu_high", "disk_high"},
                     {"cause_noisy_neighbor", "resolved_by_throttle_tenant"})
    pack = pack_of(
        {"cpu_high", "disk_high"},
        alerts=(alert("p1", "cpu_high", 2), alert("p1", "disk_high", 2)),
        triples=CHAIN,
        rules=(rule,),
    )
    diag = diagnose(pack)
    assert diag.path == "rule_shortcut"
    assert diag.compute_units == 1.0  # one matching rule, not graph size
    top = diag.hypotheses[0]
    assert top.fault_kind is FaultKind.NOISY_NEIGHBOR
    assert top.suspect_entity == "n1"  # resolved through runs_on
    assert top.score == rule.confidence * 2.0
    assert top.via_rule == rule.rule_id
    assert f"rules:{rule.rule_id}" in top.evidence


def test_rule_needs_full_antecedent_coverage():
    rule = make_rule({"cpu_high", "disk_high"}, {"cause_noisy_neighbor"})
    pack = pack_of(
        {"cpu_high"},  # disk_high missing: antecedent not covered
        alerts=(alert("p1", "cpu_high", 2),),
        triples=CHAIN,
        rules=(rule,),
    )
    assert diagnose(pack).path == "abstain"  # cpu alone matches no signature


def test_rule_shortcut_counts_each_matching_rule():
    r1 = make_rule({"cpu_high"}, {"cause_noisy_neighbor"}, confidence=0.8)
    r2 = make_rule({"disk_high"}, {"cause_noisy_neighbor"}, confidence=0.95)
    pack = pack_of(
        {"cpu_high", "disk_high"},
        alerts=(alert("p1", "cpu_high", 2), alert("p1", "disk_high", 1)),
        triples=CHAIN,
        rules=(r1, r2),
    )
    diag = diagnose(pack)
    assert diag.compute_units == 2.0
    # same (kind, suspect) from both rules: the higher-confidence one wins
    assert len(diag.hypotheses) == 1
    assert diag.hypotheses[0].score == 0.95 * 2.0
    assert diag.hypotheses[0].via_rule == r2.rule_id


# -- propagation route -------------------------------------------------------------


def test_propagation_scores_decay_with_distance():
    pack = pack_of(
        {"packet_loss_high"},
        alerts=(alert("p1", "packet_loss_high", 2),
                alert("p9", "packet_loss_high", 1)),  # p9 unknown to the subgraph
        triples=CHAIN,
    )
    diag = diagnose(pack)
    assert diag.path == "propagation"
    assert diag.compute_units == 4.0  # p1, n1, r1, sw1 visited
    by_suspect = {h.suspect_entity: h for h in diag.hypotheses}
    # p1 sits at distance 0 and resolves through the chain to the switch
    assert by_suspect["sw1"].score == 2 * DECAY**0
    assert by_suspect["sw1"].fault_kind is FaultKind.TOR_PACKET_LOSS
    assert set(by_suspect["sw1"].evidence) >= {
        "kg_subgraph:p1|runs_on|n1",
        "kg_subgraph:n1|member_of|r1",
        "kg_subgraph:r1|uplink|sw1",
    }
    # p9 is unreachable: scored one hop beyond the farthest entity (sw1 at 3)
    assert by_suspect["p9"].score == 1 * DECAY**4
    assert diag.hypotheses[0].suspect_entity == "sw1"


def test_noisy_neighbor_needs_both_capacity_symptoms():
    both = pack_of(
        {"cpu_high", "disk_high"},
        alerts=(alert("p1", "cpu_high", 2), alert("p1", "disk_high", 1)),
        triples=CHAIN,
    )
    diag = diagnose(both)
    assert diag.path == "propagation"
    assert diag.hypotheses[0].fault_kind is FaultKind.NOISY_NEIGHBOR
    assert diag.hypotheses[0].suspect_entity == "n1"
    assert diag.hypotheses[0].score == (2 + 1) * DECAY**0

    cpu_only = pack_of(
        {"cpu_high"}, alerts=(alert("p1", "cpu_high", 2),), triples=CHAIN,
    )
    assert diagnose(cpu_only).path == "abstain"


def test_noisy_neighbor_without_runs_on_blames_the_pod():
    pack = pack_of(
        {"cpu_high", "disk_high"},
        alerts=(alert("p1", "cpu_high", 2), alert("p1", "disk_high", 1)),
        triples=(),  # no graph at all
    )
    diag = diagnose(pack)
    assert diag.hypotheses[0].suspect_entity == "p1"


def test_dns_and_decommission_and_ingress_branches():
    dns = pack_of(
        {"dns_error"},
        affected_entity="svc-dns", affected_service="svc-dns",
        alerts=(alert("svc-dns", "dns_error", 3),),
    )
    top = diagnose(dns).hypotheses[0]
    assert top.fault_kind is FaultKind.DNS_ERROR_BURST
    assert top.suspect_entity == "svc-dns"

    dec = pack_of(
        {"node_decommissioned"},
        affected_entity="n1", affected_service="svc-a",
        alerts=(alert("n1", "node_decommissioned", 1),),
    )
    top = diagnose(dec).hypotheses[0]
    assert top.fault_kind is FaultKind.NODE_DECOMMISSION
    assert top.suspect_entity == "n1"

    ingress = pack_of(
        {"latency_high"},
        affected_entity="svc-a", affected_service="svc-a",
        alerts=(alert("svc-a", "latency_high", 2),),
    )
    top = diagnose(ingress).hypotheses[0]
    assert top.fault_kind is FaultKind.INGRESS_THROTTLE
    assert top.suspect_entity == "svc-a"

    # latency on a pod (not the affected service) implies nothing by itself
    pod_latency = pack_of(
        {"latency_high"},
        alerts=(alert("p1", "latency_high", 2),),
        triples=CHAIN,
    )
    assert diagnose(pod_latency).path == "abstain"


def test_abstain_paths():
    silent = pack_of({"cpu_high"})
    diag = diagnose(silent)
    assert diag.path == "abstain" and diag.hypotheses == () and diag.compute_units == 0.0
    # alerts that match no signature still cost the graph walk
    odd = pack_of({"mem_high"}, alerts=(alert("p1", "mem_high", 2),), triples=CHAIN)
    diag = diagnose(odd)
    assert diag.path == "abstain"
    assert diag.compute_units == 4.0


def test_rule_suspect_resolution_fallbacks():
    rule = make_rule({"packet_loss_high"}, {"cause_tor_packet_loss"})
    with_chain = pack_of(
        {"packet_loss_high"},
        alerts=(alert("p1", "packet_loss_high", 2),),
        triples=CHAIN, rules=(rule,),
    )
    assert diagnose(with_chain).hypotheses[0].suspect_entity == "sw1"

    no_chain = pack_of(
        {"packet_loss_high"},
        alerts=(alert("p1", "packet_loss_high", 2),), rules=(rule,),
    )
    assert diagnose(no_chain).hypotheses[0].suspect_entity == "p1"

    no_alerts = pack_of({"packet_loss_high"}, rules=(rule,))
    assert diagnose(no_alerts).hypotheses[0].suspect_entity == "svc-a"


def test_partial_switch_chain_blames_the_pod_on_both_routes():
    # The pack lost rack|uplink|switch, as a section cap can cut it.
    cut = CHAIN[:2]
    alerts = (alert("p1", "packet_loss_high", 2),)
    propagated = diagnose(pack_of({"packet_loss_high"}, alerts=alerts, triples=cut))
    assert propagated.path == "propagation"
    top = propagated.hypotheses[0]
    assert (top.fault_kind, top.suspect_entity) == (FaultKind.TOR_PACKET_LOSS, "p1")
    assert top.evidence == (
        "short_term:0", "kg_subgraph:p1|runs_on|n1", "kg_subgraph:n1|member_of|r1",
    )

    rule = make_rule({"packet_loss_high"}, {"cause_tor_packet_loss"})
    shortcut = diagnose(pack_of({"packet_loss_high"}, alerts=alerts, triples=cut, rules=(rule,)))
    assert shortcut.path == "rule_shortcut"
    assert shortcut.hypotheses[0].suspect_entity == "p1"


SMALL = build_topology(small_topology_spec())
SMALL_CHAIN = (
    [Triple(p, "runs_on", n) for p, n in sorted(SMALL.node_of_pod.items())]
    + [Triple(n, "member_of", r) for n, r in sorted(SMALL.rack_of_node.items())]
    + [Triple(r, "uplink", s) for r, s in sorted(SMALL.switch_of_rack.items())]
)
SIGNATURE_ATTRIBUTES = sorted(set().union(*FAULT_SIGNATURE.values())) + ["mem_high"]


@st.composite
def localisation_scenes(draw):
    """Alerts on pods, nodes and services of the small fleet, its chain
    triples with random holes, as a section cap can cut them, and an
    affected service."""
    alerts = draw(st.lists(
        st.builds(alert, st.sampled_from(SMALL.pods + SMALL.nodes + SMALL.services),
                  st.sampled_from(SIGNATURE_ATTRIBUTES), st.integers(1, 3)),
        max_size=12,
    ))
    holes = draw(st.sets(st.sampled_from(SMALL_CHAIN), max_size=len(SMALL_CHAIN)))
    triples = [t for t in SMALL_CHAIN if t not in holes]
    return alerts, triples, draw(st.sampled_from(SMALL.services))


@settings(max_examples=150, deadline=None)
@given(localisation_scenes())
def test_rule_route_blames_what_propagation_localises_first(scene):
    alerts, triples, service = scene
    symptoms = {a.attribute for a in alerts}
    for kind in FaultKind:
        rule = make_rule(FAULT_SIGNATURE[kind], {cause_label(kind)})
        shortcut = diagnose(pack_of(symptoms | FAULT_SIGNATURE[kind], affected_entity=service,
                                    affected_service=service, alerts=alerts, triples=triples,
                                    rules=(rule,)))
        assert shortcut.path == "rule_shortcut"
        (blamed,) = shortcut.hypotheses
        # Propagation over each alerting entity's alerts alone, in name
        # order: the first entity it localises this kind from names the
        # suspect, and with none the affected service is blamed.
        expected = service
        for entity in sorted({a.entity for a in alerts}):
            own = tuple(a for a in alerts if a.entity == entity)
            alone = diagnose(pack_of(symptoms, affected_entity=service, affected_service=service,
                                     alerts=own, triples=triples))
            offered = [h.suspect_entity for h in alone.hypotheses if h.fault_kind is kind]
            if offered:
                (expected,) = offered
                break
        assert (blamed.fault_kind, blamed.suspect_entity) == (kind, expected)


# -- planning ------------------------------------------------------------------------


def top_hypothesis(kind=FaultKind.NOISY_NEIGHBOR, suspect="n1"):
    from opsloop.reasoner import RootCauseHypothesis
    return (RootCauseHypothesis(fault_kind=kind, suspect_entity=suspect,
                                score=1.8, evidence=()),)


def test_plan_prefers_signature_matching_runbooks():
    rb_sig = Runbook("rb-throttle", frozenset({"cpu_high", "disk_high"}),
                     ("throttle_tenant",))
    rb_partial = Runbook("rb-cpu", frozenset({"cpu_high"}), ("restart_pod",))
    rb_other = Runbook("rb-dns", frozenset({"dns_error"}), ("flush_dns_cache",))
    plan = make_plan(top_hypothesis(), [rb_partial, rb_sig, rb_other],
                     [alert("p1", "cpu_high", 2)])
    # both rb-cpu and rb-throttle trigger within the noisy-neighbor signature
    assert [e.runbook_id for e in plan.entries] == ["rb-cpu", "rb-throttle"]
    assert plan.entries[0].actions == (("restart_pod", "n1"),)
    assert plan.entries[1].actions == (("throttle_tenant", "n1"),)
    assert not plan.escalate_only
    assert plan.entry_for_attempt(1).runbook_id == "rb-cpu"
    assert plan.entry_for_attempt(2).runbook_id == "rb-throttle"
    assert plan.entry_for_attempt(99).runbook_id == "rb-throttle"  # sticks to last


def test_plan_falls_back_to_remedy_step_lookup():
    remedy = REMEDY[FaultKind.NOISY_NEIGHBOR].value
    rb_steps = Runbook("rb-generic", frozenset({"latency_high"}),
                       ("scale_replicas", remedy))
    rb_unrelated = Runbook("rb-dns", frozenset({"dns_error"}), ("flush_dns_cache",))
    plan = make_plan(top_hypothesis(), [rb_unrelated, rb_steps],
                     [alert("p1", "cpu_high", 2)])
    assert [e.runbook_id for e in plan.entries] == ["rb-generic"]
    assert plan.entries[0].actions == (("scale_replicas", "n1"), (remedy, "n1"))


def test_plan_escalates_without_hypotheses_or_runbooks():
    no_hyp = make_plan((), [Runbook("rb", frozenset(), ("restart_pod",))],
                       [alert("p1", "cpu_high", 2)])
    assert no_hyp.escalate_only and no_hyp.entry_for_attempt(1) is None
    no_rb = make_plan(top_hypothesis(), [], [alert("p1", "cpu_high", 2)])
    assert no_rb.escalate_only
    d = no_rb.to_dict()
    assert d["entries"] == [] and d["stop_attribute"] == "cpu_high"


def test_stop_condition_prefers_events_then_severity():
    alerts = [
        alert("p1", "latency_high", 3, tick=4),
        alert("svc-dns", "dns_error", 1, tick=6),   # event outranks severity 3 metric
        alert("svc-dns2", "dns_error", 1, tick=7),
    ]
    plan = make_plan((), [], alerts)
    assert plan.stop.attribute == "dns_error"
    assert plan.stop.entities == frozenset({"svc-dns", "svc-dns2"})

    metric_only = make_plan((), [], [
        alert("a", "cpu_high", 1, tick=3),
        alert("b", "disk_high", 2, tick=9),
    ])
    assert metric_only.stop.attribute == "disk_high"
    assert metric_only.stop.entities == frozenset({"b"})

    empty = make_plan((), [], [])
    assert empty.stop.attribute == "" and empty.stop.entities == frozenset()


def test_fault_signatures_cover_every_kind():
    for kind in FaultKind:
        assert kind in FAULT_SIGNATURE and kind in REMEDY
        assert FAULT_SIGNATURE[kind]
