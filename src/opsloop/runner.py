"""Scripted end-to-end runs: config in, deterministic artifact files out.

A run config pins the topology, the fault script, seed runbooks, policies,
and loop parameters; `load_config` and `config_from_dict` check it in full.
`run` drives the agent loop over the scripted episodes and hands each
closed episode to an `artifacts.RunWriter`, which writes the run directory
after the last one. Before the first episode the feed fills its ring;
after each episode it passes the rest of the episode's uncleared fault
and W + 1 ticks more (W the detection window), so the next episode starts
on a ring of quiet ticks. `TelemetryFeed.pass_to` steps only the last W
ticks it passes. Identical configs produce byte-identical files.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .cluster import (
    ClusterSim,
    ClusterTopology,
    FaultScenario,
    SimError,
    TopologyError,
    build_topology,
    check_free_id,
    check_scenario,
)
from .artifacts import RunWriter
from .config import SECTION_ORDER, SYMPTOM_VOCAB, ActionKind, ConfigError, FaultKind
from .ingest import TelemetryFeed
from .memory import (
    EpisodicStore,
    KnowledgeGraph,
    Memories,
    Runbook,
    RunbookStore,
    ShortTermBuffer,
    bootstrap_from_topology,
    default_ontology,
)
from .orchestrator import AgentLoop, EpisodeRun, LoopParams

@dataclass(frozen=True)
class ScenarioTemplate:
    kind: FaultKind
    target: str
    magnitude: float = 0.5
    duration: int = 12
    lead: int = 2

    def at(self, start_tick: int) -> FaultScenario:
        """The fault this template injects, starting at `start_tick`."""
        return FaultScenario(
            kind=self.kind,
            target=self.target,
            start_tick=start_tick,
            duration=None if self.kind is FaultKind.NODE_DECOMMISSION else self.duration,
            magnitude=self.magnitude,
        )


@dataclass
class RunConfig:
    seed: int
    episodes: int
    topology: ClusterTopology  # built and checked by `config_from_dict`
    scenario: list[ScenarioTemplate] = field(default_factory=list)
    seed_runbooks: list[dict] = field(default_factory=list)
    policies: list[dict] = field(default_factory=list)
    blocked_policy_tags: frozenset[str] = frozenset()
    params: LoopParams = field(default_factory=LoopParams)


_PARAM_DEFAULTS = {f.name: f.default for f in dataclasses.fields(LoopParams)}
# What a param takes, by the type of its default; a bool is never an int
# or a number here. section_caps (default None) is an object.
_INT, _NUMBER, _STRING = ((int,), "an int"), ((int, float), "a number"), ((str,), "a string")
_PARAM_TYPES = {int: _INT, float: _NUMBER, type(None): ((dict, type(None)), "an object")}
# What each key of a scenario row takes; kind and target are required.
_ROW_TYPES = {"kind": _STRING, "target": _STRING, "magnitude": _NUMBER, "duration": _INT, "lead": _INT}
# The least value each int param can run with: a ring, a buffer and a pack
# need room for one item, and a subgraph radius counts hops from 0. A
# cadence below 1 learns after every episode, fewer than one verify tick
# escalates every episode, and so does a negative tool-call limit; a
# negative wait times every episode out idle.
_PARAM_MINIMUMS = {
    "detect_window": 1, "pack_budget": 1, "subgraph_radius": 0, "buffer_capacity": 1,
    "learning_cadence": 1, "verify_ticks": 1, "escalation_after": 1,
    "max_wait_ticks": 0, "episodic_k": 0, "tool_call_limit": 0, "retire_age_episodes": 0,
}
# The range each number param takes, as a test and its wording. NaN, which
# Python's json reads, fails every comparison, so both tests reject it.
_POSITIVE = (lambda v: 0.0 < v < math.inf, "a finite number > 0")
_FRACTION = (lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
_PARAM_RANGES = {
    "noise_pct": _POSITIVE, "compute_limit": _POSITIVE,
    "min_support": _FRACTION, "min_confidence": _FRACTION, "retire_confidence_floor": _FRACTION,
}
_ACTION_NAMES = frozenset(a.value for a in ActionKind)
_SYMPTOMS = frozenset(SYMPTOM_VOCAB)


def _check_keys(obj: dict, what: str, allowed: tuple[str, ...], required: tuple[str, ...] = ()) -> None:
    """Reject a config object that lacks a key of `required` or holds one
    outside `allowed`: a misspelt key would otherwise load as left out."""
    missing = [key for key in required if key not in obj]
    unknown = sorted(obj.keys() - set(allowed))
    if missing or unknown:
        fault = f"{what} missing {missing[0]!r}" if missing else f"unknown {what} keys: {unknown}"
        needs = f"needs {', '.join(required[:-1])} and {required[-1]}, and" if required else "takes"
        raise ConfigError(f"{fault}; {what} {needs} keys in {list(allowed)}; got {sorted(obj)}")


def _check_topology_keys(spec: dict) -> None:
    """Reject unknown keys in a topology spec whose shape `build_topology`
    has accepted."""
    _check_keys(spec, "topology", ("racks", "dependencies"))
    for r, rack in enumerate(spec["racks"]):
        _check_keys(rack, f"topology.racks[{r}]", ("id", "switch", "nodes"))
        for n, node in enumerate(rack.get("nodes", ())):
            _check_keys(node, f"topology.racks[{r}].nodes[{n}]", ("id", "generation", "pods"))
            for k, pod in enumerate(node.get("pods", ())):
                _check_keys(pod, f"topology.racks[{r}].nodes[{n}].pods[{k}]", ("id", "service"))


def _check_type(value, types: tuple[type, ...], kind: str, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{what} must be {kind}, got {value!r}")


def _check_names(value, what: str, allowed: frozenset[str] | None = None) -> None:
    """Reject `value` unless it is a list of strings, each in `allowed` if given."""
    if not isinstance(value, list) or not all(
        isinstance(v, str) and (allowed is None or v in allowed) for v in value
    ):
        kind = f"names in {sorted(allowed)}" if allowed is not None else "strings"
        raise ConfigError(f"{what} must be a list of {kind}, got {value!r}")


def _check_runbooks_and_policies(raw: dict, topology: ClusterTopology) -> None:
    """Seed runbooks and policies, in the shapes `_build_memories` reads."""
    runbooks = raw.get("seed_runbooks", [])
    policies = raw.get("policies", [])
    for key, value in (("seed_runbooks", runbooks), ("policies", policies)):
        if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
            raise ConfigError(f"{key} must be a list of objects")
    ids: set[str] = set()
    for i, rb in enumerate(runbooks):
        _check_keys(rb, f"seed_runbooks[{i}]", ("id", "trigger", "steps", "policy_tags"),
                    required=("id", "trigger", "steps"))
        if not isinstance(rb["id"], str) or rb["id"] in ids:
            raise ConfigError(f"seed_runbooks[{i}] id must be a new string, got {rb['id']!r}")
        ids.add(rb["id"])
        _check_names(rb["trigger"], f"seed_runbooks[{i}].trigger", _SYMPTOMS)
        _check_names(rb["steps"], f"seed_runbooks[{i}].steps", _ACTION_NAMES)
        if not rb["steps"]:
            raise ConfigError(f"seed_runbooks[{i}].steps must not be empty")
        _check_names(rb.get("policy_tags", []), f"seed_runbooks[{i}].policy_tags")
    services = frozenset(topology.services)
    classes = dict(topology.classes)
    for i, pol in enumerate(policies):
        _check_keys(pol, f"policies[{i}]", ("id", "applies_to"))
        pid = pol.get("id")
        if not isinstance(pid, str):
            raise ConfigError(f"policies[{i}] id must be a string, got {pid!r}")
        # A policy is a graph entity: its id must be free in the graph's one
        # namespace, which the policies before it have joined.
        try:
            check_free_id(classes, pid)
        except TopologyError as exc:
            raise ConfigError(f"policies[{i}] {exc}") from None
        classes[pid] = "Policy"
        _check_names(pol.get("applies_to", []), f"policy {pid!r} applies_to", services)
    _check_names(raw.get("blocked_policy_tags", []), "blocked_policy_tags")


def _episode_id(index: int) -> str:
    return f"ep-{index + 1:04d}"


def _check_can_fire(topology: ClusterTopology, scenario: list[ScenarioTemplate], episodes: int) -> None:
    """Unroll the scenario cycle over the episodes and reject a template
    whose target an earlier episode decommissioned (the node or one of its
    pods): its fault cannot fire, so its episode would wait for an alert
    that never comes."""
    removed: set[str] = set()
    for i in range(episodes):
        slot = i % len(scenario)
        tmpl = scenario[slot]
        if tmpl.target in removed:
            raise ConfigError(
                f"{_episode_id(i)}: scenario[{slot}] {tmpl.kind.value} targets "
                f"{tmpl.target!r}, decommissioned in an earlier episode; it cannot fire"
            )
        if tmpl.kind is FaultKind.NODE_DECOMMISSION:
            removed.add(tmpl.target)
            removed.update(topology.pods_on_node(tmpl.target))


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("run config must be a JSON object")
    _check_keys(raw, "config", ("seed", "episodes", "topology", "scenario", "seed_runbooks",
                                "policies", "blocked_policy_tags", "params"))
    try:
        seed = raw["seed"]
        episodes = raw.get("episodes", 0)
        topology_spec = raw["topology"]
    except KeyError as exc:
        raise ConfigError(f"missing required config key: {exc}") from None
    for key, value in (("seed", seed), ("episodes", episodes)):
        _check_type(value, *_INT, key)
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    if episodes < 0:
        raise ConfigError("episodes must be >= 0")
    try:
        topology = build_topology(topology_spec)
    except Exception as exc:
        raise ConfigError(f"bad topology: {exc}") from None
    _check_topology_keys(topology_spec)

    rows = raw.get("scenario", [])
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise ConfigError("scenario must be a list of objects")
    scenario: list[ScenarioTemplate] = []
    for i, row in enumerate(rows):
        _check_keys(row, f"scenario[{i}]", tuple(_ROW_TYPES), required=("kind", "target"))
        for key, value in row.items():
            _check_type(value, *_ROW_TYPES[key], f"scenario[{i}].{key}")
        try:  # the keys a row leaves out take the template's defaults
            tmpl = ScenarioTemplate(**{**row, "kind": FaultKind(row["kind"])})
        except ValueError as exc:
            raise ConfigError(f"scenario[{i}] invalid: {exc}") from None
        if tmpl.lead < 1:
            raise ConfigError(f"scenario[{i}] lead must be >= 1")
        try:
            check_scenario(topology, tmpl.at(tmpl.lead))
        except SimError as exc:
            raise ConfigError(f"scenario[{i}] {exc}") from None
        # An int magnitude in range is 1, written as 1.0.
        scenario.append(dataclasses.replace(tmpl, magnitude=float(tmpl.magnitude)))
    if episodes > 0 and not scenario:
        raise ConfigError("episodes > 0 needs a non-empty scenario")
    _check_can_fire(topology, scenario, episodes)

    params_raw = raw.get("params", {})
    if not isinstance(params_raw, dict):
        raise ConfigError("params must be an object")
    _check_keys(params_raw, "params", tuple(_PARAM_DEFAULTS))
    for name, value in params_raw.items():
        _check_type(value, *_PARAM_TYPES[type(_PARAM_DEFAULTS[name])], f"params.{name}")
    # The loop lays section caps over DEFAULT_SECTION_CAPS, so any subset may be named.
    caps = params_raw.get("section_caps") or {}
    unknown = sorted(set(caps) - set(SECTION_ORDER))
    if unknown:
        raise ConfigError(f"params.section_caps names unknown sections {unknown}")
    # A cap of 0 cannot switch a section off: `diagnose` needs the task, and
    # `effective_cap` floors a cap at one item for weights below 1.
    for section, cap in caps.items():
        if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
            raise ConfigError(f"params.section_caps.{section} must be an int >= 1, got {cap!r}")
    params = LoopParams(**params_raw)
    for name, least in _PARAM_MINIMUMS.items():
        if getattr(params, name) < least:
            raise ConfigError(f"params.{name} must be >= {least}")
    # At noise_pct 0, sigma is 0 and the detector fires on the rounding of
    # an EWMA of baseline samples; below 0, every alarm band is negative.
    for name, (within, kind) in _PARAM_RANGES.items():
        value = getattr(params, name)
        if not within(value):
            raise ConfigError(f"params.{name} must be {kind}, got {value!r}")

    _check_runbooks_and_policies(raw, topology)
    return RunConfig(
        seed=seed,
        episodes=episodes,
        topology=topology,
        scenario=scenario,
        seed_runbooks=list(raw.get("seed_runbooks", [])),
        policies=list(raw.get("policies", [])),
        blocked_policy_tags=frozenset(raw.get("blocked_policy_tags", [])),
        params=params,
    )


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return config_from_dict(raw)


@dataclass
class RunReport:
    rows: list[dict]
    aggregates: dict
    out_dir: Path
    episode_runs: list[EpisodeRun]


def _build_memories(config: RunConfig) -> Memories:
    kg = KnowledgeGraph(ontology=default_ontology())
    bootstrap_from_topology(kg, config.topology)
    runbooks = RunbookStore()
    for rb in config.seed_runbooks:
        runbooks.add(Runbook(
            runbook_id=rb["id"],
            trigger=frozenset(rb["trigger"]),
            steps=tuple(rb["steps"]),
            policy_tags=frozenset(rb.get("policy_tags", [])),
        ))
    for pol in config.policies:
        kg.register_entity(pol["id"], "Policy")
        for svc in pol.get("applies_to", []):
            kg.assert_triple(svc, "constrained_by", pol["id"], provenance="config")
    return Memories(
        buffer=ShortTermBuffer(config.params.buffer_capacity),
        episodic=EpisodicStore(),
        kg=kg,
        runbooks=runbooks,
        blocked_policy_tags=config.blocked_policy_tags,
    )


def run(config: RunConfig, out_dir: str | Path) -> RunReport:
    writer = RunWriter(Path(out_dir))
    sim = ClusterSim(config.topology, seed=config.seed, noise_pct=config.params.noise_pct)
    memories = _build_memories(config)
    feed = TelemetryFeed(sim, window_ticks=config.params.detect_window)
    loop = AgentLoop(feed, memories, config.params)

    feed.pass_to(config.params.detect_window + 1)

    runs: list[EpisodeRun] = []
    for i in range(config.episodes):
        scenario = None
        if config.scenario:
            tmpl = config.scenario[i % len(config.scenario)]
            scenario = tmpl.at(sim.tick + tmpl.lead)
            sim.inject(scenario)
        episode_run = loop.run_episode(_episode_id(i))
        runs.append(episode_run)
        writer.episode(episode_run, scenario, loop.active_rule_count())
        # Drain: pass the rest of an uncleared fault, then W + 1 ticks more.
        end = sim.tick
        if scenario is not None and scenario.duration is not None and not sim.fault_cleared(scenario):
            end = max(end, scenario.start_tick + scenario.duration)
        feed.pass_to(end + config.params.detect_window + 1)

    aggregates = writer.close(loop)
    return RunReport(rows=writer.rows, aggregates=aggregates, out_dir=writer.out_dir, episode_runs=runs)
