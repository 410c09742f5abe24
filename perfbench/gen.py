"""Seeded input generators: fleet topologies, fault scripts, noisy histories.

Every generator is a pure function of its arguments and a
`random.Random(seed)`, so one seed always yields the same inputs. The
program only ever sees the outputs, and every run config goes through the
program's own `config_from_dict`.
"""
from __future__ import annotations

import random

from opsloop.config import REMEDY, SYMPTOM_VOCAB, FaultKind, cause_label
from opsloop.memory import Episode
from opsloop.runner import RunConfig, config_from_dict

# Fault shapes as in the shipped configs/mixed_faults.json: (magnitude, duration).
FAULT_SHAPE = {
    FaultKind.DNS_ERROR_BURST: (0.6, 12),
    FaultKind.TOR_PACKET_LOSS: (0.5, 12),
    FaultKind.INGRESS_THROTTLE: (0.5, 12),
    FaultKind.NOISY_NEIGHBOR: (0.7, 10),
    FaultKind.NODE_DECOMMISSION: (1.0, None),
}

# The loop parameters of configs/mixed_faults.json. A radius of 4 is what a
# ToR fault needs: the switch is three hops from the alerting pod.
PARAMS = {"learning_cadence": 5, "min_support": 0.2, "min_confidence": 0.8, "subgraph_radius": 4}

POLICY = "policy-change-freeze"

SEED_RUNBOOKS = [
    {"id": "rb-flush-dns", "trigger": ["dns_error"], "steps": ["flush_dns_cache"]},
    {"id": "rb-reroute", "trigger": ["packet_loss_high"], "steps": ["reroute_service"]},
    {"id": "rb-scale-out", "trigger": ["latency_high"], "steps": ["scale_replicas"]},
    {"id": "rb-restart-stack", "trigger": ["latency_high"], "steps": ["scale_replicas"],
     "policy_tags": ["risky"]},
    {"id": "rb-throttle-tenant", "trigger": ["cpu_high", "disk_high"], "steps": ["throttle_tenant"]},
    {"id": "rb-drain-node", "trigger": ["node_decommissioned"], "steps": ["drain_node"]},
]

# The twelve-pod fleet of the shipped configs: three racks, six nodes and a
# checkout -> payments -> ledger -> dns call chain.
_SHIPPED_PODS = [
    ["checkout", "payments"], ["checkout", "ledger"],
    ["payments", "dns"], ["ledger", "dns"],
    ["checkout", "payments"], ["ledger", "dns"],
]
_SHIPPED_CHAIN = ["svc-checkout", "svc-payments", "svc-ledger", "svc-dns"]


def shipped_topology() -> dict:
    racks = []
    count: dict[str, int] = {}
    for r in range(3):
        nodes = []
        for n in range(2):
            node = 2 * r + n
            pods = []
            for svc in _SHIPPED_PODS[node]:
                count[svc] = count.get(svc, 0) + 1
                pods.append({"id": f"pod-{svc}-{count[svc]}", "service": f"svc-{svc}"})
            nodes.append({"id": f"node-{node + 1}", "generation": f"gen-{7 + r}", "pods": pods})
        racks.append({"id": f"rack-{r + 1}", "switch": f"tor-{r + 1}", "nodes": nodes})
    deps = [[a, b] for a, b in zip(_SHIPPED_CHAIN, _SHIPPED_CHAIN[1:])]
    return {"racks": racks, "dependencies": deps}


def fleet_topology(rng: random.Random, racks: int, nodes_per_rack: int,
                   pods_per_node: int, services: int, chain: int) -> dict:
    """A racks x nodes x pods fleet. Every service gets the same number of
    pods, placed by a seeded shuffle, and services form call chains of
    `chain` services each, so no service has more than chain-1 transitive
    callers."""
    n_pods = racks * nodes_per_rack * pods_per_node
    if n_pods % services or services % chain:
        raise ValueError("pods must split evenly over services, services over chains")
    names = [f"svc-{i:02d}" for i in range(services)]
    placement = [names[i % services] for i in range(n_pods)]
    rng.shuffle(placement)
    rack_rows = []
    pod = 0
    for r in range(racks):
        nodes = []
        for n in range(nodes_per_rack):
            pods = []
            for _ in range(pods_per_node):
                pods.append({"id": f"pod-{pod:04d}", "service": placement[pod]})
                pod += 1
            nodes.append({
                "id": f"node-{r * nodes_per_rack + n + 1:03d}",
                "generation": f"gen-{7 + r % 3}",
                "pods": pods,
            })
        rack_rows.append({"id": f"rack-{r + 1:02d}", "switch": f"tor-{r + 1:02d}", "nodes": nodes})
    order = list(names)
    rng.shuffle(order)
    deps = []
    for start in range(0, services, chain):
        link = order[start:start + chain]
        deps += [[a, b] for a, b in zip(link, link[1:])]
    return {"racks": rack_rows, "dependencies": sorted(deps)}


def _chain_tails(topology: dict) -> list[str]:
    callees = {b for _, b in topology["dependencies"]}
    callers = {a for a, _ in topology["dependencies"]}
    return sorted(callees - callers)


def _layout(topology: dict) -> tuple[dict[str, list[str]], list[str]]:
    """rack switch -> its nodes, and all services."""
    nodes_of_switch = {}
    services = set()
    for rack in topology["racks"]:
        nodes_of_switch[rack["switch"]] = [n["id"] for n in rack["nodes"]]
        for node in rack["nodes"]:
            services.update(p["service"] for p in node["pods"])
    return nodes_of_switch, sorted(services)


def fault_script(rng: random.Random, topology: dict, cycle: list[FaultKind], episodes: int,
                 decommissions: int = 0) -> list[dict]:
    """`episodes` faults cycling through `cycle`, with targets drawn by the
    seed. Decommissions replace evenly spaced slots; each takes a distinct
    node, no rack loses its last node, and no later fault targets a removed
    node or a switch whose rack is empty."""
    nodes_of_switch, services = _layout(topology)
    dns_targets = _chain_tails(topology)
    slots = {((k + 1) * episodes) // (decommissions + 1) for k in range(decommissions)}
    live = {sw: list(nodes) for sw, nodes in nodes_of_switch.items()}
    rows = []
    for i in range(episodes):
        kind = FaultKind.NODE_DECOMMISSION if i in slots else cycle[i % len(cycle)]
        if kind is FaultKind.DNS_ERROR_BURST:
            target = rng.choice(dns_targets)
        elif kind is FaultKind.INGRESS_THROTTLE:
            target = rng.choice(services)
        elif kind is FaultKind.TOR_PACKET_LOSS:
            target = rng.choice(sorted(live))
        elif kind is FaultKind.NOISY_NEIGHBOR:
            target = rng.choice(sorted(n for nodes in live.values() for n in nodes))
        else:
            switch = rng.choice(sorted(sw for sw, nodes in live.items() if len(nodes) > 1))
            target = rng.choice(live[switch])
            live[switch].remove(target)
        magnitude, duration = FAULT_SHAPE[kind]
        row = {"kind": kind.value, "target": target, "magnitude": magnitude, "lead": 2}
        if duration is not None:
            row["duration"] = duration
        rows.append(row)
    return rows


def run_config(seed: int, topology: dict, scenario: list[dict], policies: list[dict]) -> RunConfig:
    """The full run config, validated by the program's own loader."""
    return config_from_dict({
        "seed": seed,
        "episodes": len(scenario),
        "topology": topology,
        "scenario": scenario,
        "seed_runbooks": SEED_RUNBOOKS,
        "policies": policies,
        "blocked_policy_tags": ["risky"],
        "params": PARAMS,
    })


# -- learn_noisy histories -----------------------------------------------------

# One block of the recurring history: the fault mix of every ten episodes.
HISTORY_BLOCK = (
    [FaultKind.DNS_ERROR_BURST] * 4 + [FaultKind.NOISY_NEIGHBOR] * 3
    + [FaultKind.INGRESS_THROTTLE] * 2 + [FaultKind.TOR_PACKET_LOSS]
)
NOISE_EXTRA = 4
CONTENT_SEED = 0
_BASE_SYMPTOMS = {
    FaultKind.DNS_ERROR_BURST: {"dns_error", "latency_high"},
    FaultKind.TOR_PACKET_LOSS: {"packet_loss_high", "latency_high"},
    FaultKind.INGRESS_THROTTLE: {"latency_high"},
    FaultKind.NOISY_NEIGHBOR: {"cpu_high", "disk_high"},
}


def noisy_history(rng: random.Random, episodes: int, noise: float, topology: dict) -> list[Episode]:
    """Closed, resolved episodes of recurring faults, in blocks of ten with
    the fault mix of HISTORY_BLOCK. In every block exactly round(10 * noise)
    episodes carry NOISE_EXTRA extra symptoms from the rest of the
    vocabulary. What each block holds is drawn from the fixed CONTENT_SEED
    stream, so every pass mines from nearly the same rows whatever the seed
    and the pass cost stays steady from seed to seed; `rng` orders the
    episodes within each block and draws targets, services and durations."""
    content = random.Random(CONTENT_SEED)
    noisy_per_block = round(len(HISTORY_BLOCK) * noise)
    blocks = []
    for start in range(0, episodes, len(HISTORY_BLOCK)):
        kinds = list(HISTORY_BLOCK)
        content.shuffle(kinds)
        noisy = set(content.sample(range(len(kinds)), noisy_per_block))
        block = []
        for j, kind in enumerate(kinds[:episodes - start]):
            symptoms = set(_BASE_SYMPTOMS[kind])
            if j in noisy:
                symptoms.update(content.sample(sorted(set(SYMPTOM_VOCAB) - symptoms), NOISE_EXTRA))
            block.append((kind, frozenset(symptoms)))
        blocks.append(block)
    for block in blocks:
        rng.shuffle(block)

    nodes_of_switch, services = _layout(topology)
    nodes = sorted(n for ns in nodes_of_switch.values() for n in ns)
    out: list[Episode] = []
    tick = 0
    for kind, symptoms in (item for block in blocks for item in block):
        target = rng.choice(nodes if kind is FaultKind.NOISY_NEIGHBOR else services)
        duration = rng.randint(4, 12)
        out.append(Episode(
            episode_id=f"ep-{len(out) + 1:04d}",
            start_tick=tick,
            end_tick=tick + duration,
            affected_service=rng.choice(services),
            symptom_attributes=symptoms,
            entities=frozenset({target}),
            max_severity=3,
            root_cause_label=cause_label(kind),
            actions=((REMEDY[kind].value, target, True),),
            resolved=True,
            ticks_to_resolve=duration,
        ))
        tick += duration + 8
    return out
