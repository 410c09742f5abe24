"""Output checks computed apart from the program.

Each check raises `CheckFailed` with a reason. The tables and counts here
are written from the documented behaviour, not taken from the program's
code: the relation signatures, the liveness of
episodes after a decommission, the attribute sets of the mining context,
rule support and confidence by direct counting, and the closed intents as
the closure of the intersections of the episodes' attribute sets.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from opsloop.orchestrator import legal_transition_triples


class CheckFailed(Exception):
    pass


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def dir_digest(path: Path) -> str:
    """sha256 over the names and bytes of every file in a run directory."""
    h = hashlib.sha256()
    for p in sorted(path.iterdir()):
        if p.is_file():
            h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def read_records(out: Path) -> list[dict]:
    lines = (out / "episodes.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines[1:]]


# -- state machine and ledger ---------------------------------------------------


def check_transitions(out: Path) -> None:
    legal = legal_transition_triples()
    for line in (out / "transitions.log").read_text().splitlines():
        _, _, phase_from, event, phase_to, _ = line.split("\t")
        require((phase_from, event, phase_to) in legal,
                f"illegal transition {phase_from} --{event}--> {phase_to}")


def check_ledgers(records: list[dict]) -> None:
    for rec in records:
        ledger, row = rec["ledger"], rec["row"]
        total = math.fsum(ledger["units"].values())
        require(math.isclose(ledger["total"], total, rel_tol=1e-12, abs_tol=1e-9),
                f"{row['episode_id']}: ledger total {ledger['total']} != sum of units {total}")
        require(row["compute_total"] == ledger["total"] and row["compute"] == ledger["units"],
                f"{row['episode_id']}: report row disagrees with its ledger")


# -- knowledge graph ---------------------------------------------------------------

SIGNATURES = {
    "runs_on": ("Pod", "Node"),
    "member_of": ("Node", "Rack"),
    "uplink": ("Rack", "ToRSwitch"),
    "serves": ("Pod", "Service"),
    "depends_on": ("Service", "Service"),
    "indicates": ("AttributeSet", "FaultKind"),
    "remedied_by": ("FaultKind", "Action"),
    "constrained_by": ("Service", "Policy"),
    "decommissioned": ("Node", "Tick"),
}
FAULT_KINDS = {"dns_error_burst", "tor_packet_loss", "ingress_throttle", "noisy_neighbor",
               "node_decommission"}
ACTIONS = {"restart_pod", "scale_replicas", "reroute_service", "throttle_tenant",
           "flush_dns_cache", "drain_node"}
SYMPTOM_ATTRS = {"cpu_high", "mem_high", "disk_high", "latency_high", "packet_loss_high",
                 "restarts_high", "dns_error", "config_change", "node_decommissioned",
                 "auth_failure"}


def _classifier(topology: dict, policies: list[dict]):
    cls: dict[str, str] = {}
    for rack in topology["racks"]:
        cls[rack["id"]] = "Rack"
        cls[rack["switch"]] = "ToRSwitch"
        for node in rack["nodes"]:
            cls[node["id"]] = "Node"
            for pod in node["pods"]:
                cls[pod["id"]] = "Pod"
                cls[pod["service"]] = "Service"
    cls.update({k: "FaultKind" for k in FAULT_KINDS})
    cls.update({a: "Action" for a in ACTIONS})
    cls.update({p["id"]: "Policy" for p in policies})

    def classify(entity: str) -> str | None:
        if entity in cls:
            return cls[entity]
        if entity.isdigit():
            return "Tick"
        if entity.startswith("aset:") and set(entity[5:].split("+")) <= SYMPTOM_ATTRS:
            return "AttributeSet"
        return None

    return classify


def expected_bootstrap(topology: dict, policies: list[dict]) -> set[tuple[str, str, str]]:
    facts = set()
    for rack in topology["racks"]:
        facts.add((rack["id"], "uplink", rack["switch"]))
        for node in rack["nodes"]:
            facts.add((node["id"], "member_of", rack["id"]))
            for pod in node["pods"]:
                facts.add((pod["id"], "runs_on", node["id"]))
                facts.add((pod["id"], "serves", pod["service"]))
    facts.update((a, "depends_on", b) for a, b in topology["dependencies"])
    facts.update((s, "constrained_by", p["id"]) for p in policies for s in p["applies_to"])
    return facts


def check_kg(out: Path, topology: dict, policies: list[dict], decommissioned: set[str]) -> None:
    classify = _classifier(topology, policies)
    lines = (out / "kg.tsv").read_text().splitlines()
    require(lines[0].startswith("# "), "kg.tsv has no header")
    facts = set()
    for line in lines[1:]:
        subject, predicate, obj, provenance = line.split("\t")
        require(predicate in SIGNATURES, f"kg.tsv: unknown relation {predicate!r}")
        domain, rng = SIGNATURES[predicate]
        require(classify(subject) == domain and classify(obj) == rng,
                f"kg.tsv: {subject} {predicate} {obj} breaks {domain} -> {rng}")
        facts.add((subject, predicate, obj))
    static = {f for f in facts if f[1] not in ("indicates", "remedied_by", "decommissioned")}
    require(static == expected_bootstrap(topology, policies),
            "kg.tsv: topology facts differ from the generated topology")
    dead = {s for s, p, _ in facts if p == "decommissioned"}
    require(dead == decommissioned, f"kg.tsv: decommissioned {sorted(dead)} != {sorted(decommissioned)}")


# -- mining ---------------------------------------------------------------------------


def is_outcome(attribute: str) -> bool:
    return attribute.startswith("cause_") or attribute.startswith("resolved_by_")


def episode_attributes(symptoms, cause: str | None, actions) -> frozenset[str]:
    """The mining row of one episode: its symptoms, its cause label and one
    resolved_by_ label per successful action."""
    attrs = set(symptoms)
    if cause:
        attrs.add(cause)
    attrs.update("resolved_by_" + action for action, _, ok in actions if ok)
    return frozenset(attrs)


def read_context(path: Path) -> dict[str, frozenset[str]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0][1:]
    return {
        row[0]: frozenset(a for a, cell in zip(header, row[1:]) if cell == "1") for row in rows[1:]
    }


def _support(rows: dict[str, frozenset[str]], itemset: frozenset[str]) -> list[str]:
    return sorted(obj for obj, attrs in rows.items() if itemset <= attrs)


def check_mined(rows: dict[str, frozenset[str]], mined, min_support: float,
                min_confidence: float, where: str) -> None:
    """Every mined rule: closed intent, and support/confidence as counted."""
    n = len(rows)
    for rule in mined:
        intent = rule.antecedent | rule.consequent
        extent = _support(rows, intent)
        require(bool(extent), f"{where}: {rule.rule_id} has an empty extent")
        shared = frozenset.intersection(*(rows[o] for o in extent))
        require(shared == intent, f"{where}: {rule.rule_id} is not a closed intent")
        require(all(not is_outcome(a) for a in rule.antecedent)
                and all(is_outcome(c) for c in rule.consequent),
                f"{where}: {rule.rule_id} splits its intent wrongly")
        ante = _support(rows, rule.antecedent)
        support, confidence = len(extent) / n, len(extent) / len(ante)
        require(rule.support == support and rule.confidence == confidence,
                f"{where}: {rule.rule_id} support/confidence {rule.support}/{rule.confidence}"
                f" != counted {support}/{confidence}")
        require(support >= min_support and confidence >= min_confidence,
                f"{where}: {rule.rule_id} is below the thresholds")
        require(tuple(extent) == tuple(rule.provenance), f"{where}: {rule.rule_id} provenance")


def rules_by_intersection(rows: dict[str, frozenset[str]], min_support: float,
                          min_confidence: float) -> dict[str, tuple[float, float]]:
    """All rules, from the closed intents got by closing the set of episode
    rows under intersection (bitmask arithmetic)."""
    n = len(rows)
    if n == 0:
        return {}
    names = sorted(set().union(*rows.values()))
    bit = {a: 1 << i for i, a in enumerate(names)}
    masks = [sum(bit[a] for a in attrs) for attrs in rows.values()]
    closed: set[int] = set()
    for m in set(masks):
        closed |= {c & m for c in closed}
        closed.add(m)
    outcome = sum(bit[a] for a in names if is_outcome(a))

    def label(mask: int) -> str:
        return "+".join(a for a in names if mask & bit[a])

    out = {}
    for intent in closed:
        ante, cons = intent & ~outcome, intent & outcome
        if not ante or not cons:
            continue
        full = sum(1 for m in masks if m & intent == intent)
        covered = sum(1 for m in masks if m & ante == ante)
        support, confidence = full / n, full / covered
        if support < min_support or confidence < min_confidence:
            continue
        out[f"rule:{label(ante)}=>{label(cons)}"] = (support, confidence)
    return out


def check_rule_set(rows, mined, min_support: float, min_confidence: float, where: str) -> None:
    want = rules_by_intersection(rows, min_support, min_confidence)
    got = {r.rule_id: (r.support, r.confidence) for r in mined}
    require(got == want, f"{where}: mined rules {sorted(got)} != closed-intersection rules {sorted(want)}")


def check_learning(out: Path, records: list[dict], runs, mined: list[list], scenario: list[dict],
                   min_support: float, min_confidence: float) -> None:
    """Each pass of a loop run: its context holds exactly the live episodes
    with the attribute sets their records imply, and its rules (`mined`,
    one list per pass) match direct counts. An episode dies when a later
    decommission names one of its entities. The last pass's rules are also
    recomputed from the closed intersections."""
    seen: dict[str, tuple[frozenset[str], frozenset[str]]] = {}
    dead: set[str] = set()
    passes = 0
    rows: dict[str, frozenset[str]] = {}
    for rec, run, fault in zip(records, runs, scenario):
        episode = rec["episode"]
        if episode is not None:
            attrs = episode_attributes(episode["symptom_attributes"], episode["root_cause_label"],
                                       episode["actions"])
            seen[episode["episode_id"]] = (attrs, frozenset(episode["entities"]))
            if fault["kind"] == "node_decommission":
                dead |= {e for e, (_, ents) in seen.items() if fault["target"] in ents}
        if run.learning is None:
            continue
        passes += 1
        where = f"pass {passes} ({run.episode_id})"
        rows = {e: attrs for e, (attrs, _) in seen.items() if e not in dead}
        require(read_context(out / f"context_{passes:03d}.csv") == rows,
                f"{where}: mining context differs from the live episodes")
        require(len(run.learning.mined) == len(mined[passes - 1]), f"{where}: mined rules not captured")
        check_mined(rows, mined[passes - 1], min_support, min_confidence, where)
    require(len(list(out.glob("context_*.csv"))) == passes == len(mined),
            "context files, captured passes and learning passes disagree")
    if passes:
        check_rule_set(rows, mined[-1], min_support, min_confidence, f"pass {passes}")
