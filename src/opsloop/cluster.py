"""Deterministic tick-based cluster simulator with fault injection.

The simulated fleet is a small rack/node/pod/service topology whose ids
share one table, `ClusterTopology.classes`: `build_topology` claims each
rack, node and pod as it is met, then each distinct switch and service,
and refuses an id already claimed, a fault kind or action name, or one
under a learned-id prefix (`check_free_id`). Each tick every live node,
pod, and service emits the six standard metrics at its baseline plus
uniform +/-2% sampling noise; active faults add deterministic
offsets to the entities in their blast set and may emit discrete events.
The simulator keeps every fault it was given, but a tick and an action
walk only the faults that can still act: a fault leaves that list once it
has expired or been cleared, and a decommission once it is done.
`fault_cleared` looks a scenario up by value in a dict, so its cost does
not grow with the number of faults injected.

A tick is one `TickFrame`: a float64 array with a row per emitting entity
(in the static order of `ClusterTopology.emitting_entities`) and a column
per metric in `METRICS`, plus a mask of the rows still live. The whole
frame is computed with array operations; `TelemetrySample` objects are
built only when a caller iterates the frame (the wire format, demos and
tests do). All randomness comes from numpy Generators keyed on
(seed, stream, tick), so two simulators built from the same topology and
seed produce identical streams sample for sample.
"""
from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .config import BASELINES, CLOSED_IDS, HEADROOM, LEARNED_PREFIXES, METRICS, NOISE_PCT, REMEDY
from .config import ActionKind, FaultKind
from .memory.knowledge import bfs

SIM_STREAM = 0

# Per-column constants of a frame: the metric baselines, and the clamp
# ceilings (ratio metrics stop at 1, the others are unbounded above).
_BASE = np.array([BASELINES[m] for m in METRICS])
_CEILING = np.array([
    1.0 if m in ("cpu_util", "mem_util", "disk_io", "packet_loss_rate") else np.inf
    for m in METRICS
])


class SimError(Exception):
    """Base class for simulator errors."""


class TopologyError(SimError):
    pass


class UnknownEntityError(SimError):
    pass


class DecommissionedEntityError(SimError):
    pass


class ScenarioError(SimError):
    pass


@dataclass(frozen=True)
class TelemetrySample:
    tick: int
    entity: str
    metric: str
    value: float


@dataclass(frozen=True, eq=False)
class TickFrame:
    """One tick of telemetry for the whole fleet.

    `values[i, j]` is metric `METRICS[j]` of entity `entities[i]`, and
    `rows` maps an entity to its row. Rows never move; `live[i]` is False
    once entity i is removed, and the values of such a row mean nothing.
    Iterating yields the live samples, entity by entity and metric by
    metric, as `TelemetrySample`s; `len()` counts them.
    """

    tick: int
    entities: tuple[str, ...]
    rows: Mapping[str, int]
    values: np.ndarray  # float64, (len(entities), len(METRICS))
    live: np.ndarray  # bool, (len(entities),)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.live)) * len(METRICS)

    def __iter__(self) -> Iterator[TelemetrySample]:
        for i in np.flatnonzero(self.live).tolist():
            entity = self.entities[i]
            for metric, value in zip(METRICS, self.values[i].tolist()):
                yield TelemetrySample(self.tick, entity, metric, value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TickFrame):
            return NotImplemented
        return (
            self.tick == other.tick
            and self.entities == other.entities
            and np.array_equal(self.live, other.live)
            and np.array_equal(self.values[self.live], other.values[other.live])
        )

    def live_values(self, metric: str, entities: Iterable[str]) -> list[float]:
        """`metric` of each live entity among `entities`."""
        j = METRICS.index(metric)
        rows = (self.rows.get(e) for e in entities)
        return [float(self.values[i, j]) for i in rows if i is not None and self.live[i]]


@dataclass(frozen=True)
class RawEvent:
    tick: int
    entity: str
    kind: str
    attributes: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class ActionResult:
    action: str
    target: str
    tick: int
    success: bool
    detail: str


@dataclass(frozen=True)
class FaultScenario:
    """A scripted fault: what, where, when, how hard.

    duration=None means persistent (node_decommission is always persistent).
    magnitude in (0, 1] scales the per-metric headroom offsets.
    """

    kind: FaultKind
    target: str
    start_tick: int
    duration: int | None = None
    magnitude: float = 0.5


@dataclass
class ClusterTopology:
    """Static shape of the fleet plus service dependency edges."""

    racks: tuple[str, ...]
    switch_of_rack: dict[str, str]
    rack_of_node: dict[str, str]
    generation_of_node: dict[str, str]
    node_of_pod: dict[str, str]
    service_of_pod: dict[str, str]
    dependencies: tuple[tuple[str, str], ...]  # (caller, callee)
    classes: dict[str, str]  # every fleet id -> its ontology class

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self.rack_of_node))

    @property
    def pods(self) -> tuple[str, ...]:
        return tuple(sorted(self.node_of_pod))

    @property
    def services(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.service_of_pod.values())))

    @property
    def switches(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.switch_of_rack.values())))

    def pods_of_service(self, service: str) -> tuple[str, ...]:
        return tuple(sorted(p for p, s in self.service_of_pod.items() if s == service))

    def pods_on_node(self, node: str) -> tuple[str, ...]:
        return tuple(sorted(p for p, n in self.node_of_pod.items() if n == node))

    def pods_behind_switch(self, switch: str) -> tuple[str, ...]:
        racks = {r for r, s in self.switch_of_rack.items() if s == switch}
        nodes = {n for n, r in self.rack_of_node.items() if r in racks}
        return tuple(sorted(p for p, n in self.node_of_pod.items() if n in nodes))

    def callers_of(self, service: str) -> tuple[str, ...]:
        """Transitive callers: services whose traffic flows into `service`."""
        reverse: dict[str, set[str]] = {}
        for caller, callee in self.dependencies:
            reverse.setdefault(callee, set()).add(caller)
        return tuple(sorted(set(bfs(service, lambda v: reverse.get(v, ()))) - {service}))

    def entity_class(self, entity: str) -> str | None:
        return self.classes.get(entity)

    def emitting_entities(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.nodes) | set(self.pods) | set(self.services)))


def check_free_id(classes: Mapping[str, str], entity_id: str) -> None:
    """Raise `TopologyError` unless `entity_id` is free in the graph's one
    namespace: not in `classes`, not a closed id, not under a learned prefix."""
    if entity_id in classes or entity_id in CLOSED_IDS:
        cls = classes.get(entity_id) or CLOSED_IDS[entity_id]
        article = "an" if cls[0] in "AEIOU" else "a"
        raise TopologyError(f"duplicate id: {entity_id!r} is already {article} {cls}")
    if entity_id.startswith(LEARNED_PREFIXES):
        raise TopologyError(f"id {entity_id!r} starts with a learned-id prefix {LEARNED_PREFIXES}")


def build_topology(spec: dict) -> ClusterTopology:
    """Construct and validate a topology from its dict description.

    Expected shape::

        {"racks": [{"id", "switch", "nodes": [{"id", "generation",
                    "pods": [{"id", "service"}, ...]}, ...]}, ...],
         "dependencies": [["caller_svc", "callee_svc"], ...]}
    """
    if not isinstance(spec, dict) or "racks" not in spec:
        raise TopologyError("topology spec must be a dict with a 'racks' list")
    racks: list[str] = []
    switch_of_rack: dict[str, str] = {}
    rack_of_node: dict[str, str] = {}
    generation: dict[str, str] = {}
    node_of_pod: dict[str, str] = {}
    service_of_pod: dict[str, str] = {}
    classes: dict[str, str] = {}

    def claim(entity_id: str, cls: str) -> str:
        if not entity_id or not isinstance(entity_id, str):
            raise TopologyError(f"{cls} id must be a non-empty string, got {entity_id!r}")
        check_free_id(classes, entity_id)
        classes[entity_id] = cls
        return entity_id

    for rack in spec["racks"]:
        rack_id = claim(rack["id"], "Rack")
        racks.append(rack_id)
        switch_of_rack[rack_id] = rack["switch"]
        for node in rack.get("nodes", ()):
            node_id = claim(node["id"], "Node")
            rack_of_node[node_id] = rack_id
            generation[node_id] = str(node.get("generation", "gen-unknown"))
            for pod in node.get("pods", ()):
                pod_id = claim(pod["id"], "Pod")
                node_of_pod[pod_id] = node_id
                service_of_pod[pod_id] = pod["service"]
    for switch in dict.fromkeys(switch_of_rack.values()):
        claim(switch, "ToRSwitch")
    services = dict.fromkeys(service_of_pod.values())
    for service in services:
        claim(service, "Service")
    deps: list[tuple[str, str]] = []
    for edge in spec.get("dependencies", ()):
        caller, callee = edge
        if caller not in services or callee not in services:
            raise TopologyError(f"dependency references unknown service: {edge!r}")
        if caller == callee:
            raise TopologyError(f"self-dependency not allowed: {edge!r}")
        deps.append((caller, callee))
    if not rack_of_node or not node_of_pod:
        raise TopologyError("topology needs at least one node and one pod")
    return ClusterTopology(
        racks=tuple(racks),
        switch_of_rack=switch_of_rack,
        rack_of_node=rack_of_node,
        generation_of_node=generation,
        node_of_pod=node_of_pod,
        service_of_pod=service_of_pod,
        dependencies=tuple(deps),
        classes=classes,
    )


_FAULT_TARGET_CLASS = {
    FaultKind.DNS_ERROR_BURST: "Service",
    FaultKind.TOR_PACKET_LOSS: "ToRSwitch",
    FaultKind.INGRESS_THROTTLE: "Service",
    FaultKind.NOISY_NEIGHBOR: "Node",
    FaultKind.NODE_DECOMMISSION: "Node",
}


@dataclass
class _ActiveFault:
    scenario: FaultScenario
    kind: FaultKind
    # Flat (row-major) frame indices of the cells the fault offsets, each
    # cell once, and the offset of each; fixed at injection time.
    cells: np.ndarray
    deltas: np.ndarray
    event_emitters: tuple[str, ...] = ()
    cleared_at: int | None = None
    decommission_done: bool = False

    def contributes_at(self, tick: int) -> bool:
        scen = self.scenario
        if tick < scen.start_tick:
            return False
        if self.cleared_at is not None and tick >= self.cleared_at:
            return False
        if scen.duration is not None and tick >= scen.start_tick + scen.duration:
            return False
        return True

    def spent_after(self, tick: int) -> bool:
        """True when the fault can no longer act at any tick after `tick`:
        a decommission once done, any other fault once cleared or expired."""
        if self.kind is FaultKind.NODE_DECOMMISSION:
            return self.decommission_done
        scen = self.scenario
        return self.cleared_at is not None or (
            scen.duration is not None and tick + 1 >= scen.start_tick + scen.duration
        )


def check_scenario(topology: ClusterTopology, scenario: FaultScenario, now_tick: int = 0) -> FaultKind:
    """Raise `SimError` unless `scenario` can be injected at `now_tick`:
    a target of the class its kind hits, a start not in the past, a
    magnitude in (0, 1], and for a fault other than a decommission a
    positive duration. Returns the fault kind."""
    kind = FaultKind(scenario.kind)
    want = _FAULT_TARGET_CLASS[kind]
    have = topology.entity_class(scenario.target)
    if have is None:
        raise UnknownEntityError(f"fault targets unknown entity {scenario.target!r}")
    if have != want:
        raise ScenarioError(f"{kind.value} targets a {want}, got {have} {scenario.target!r}")
    if scenario.start_tick < now_tick:
        raise ScenarioError(f"fault start {scenario.start_tick} is in the past (tick {now_tick})")
    if not 0.0 < scenario.magnitude <= 1.0:
        raise ScenarioError("fault magnitude must be in (0, 1]")
    if kind is not FaultKind.NODE_DECOMMISSION and (scenario.duration is None or scenario.duration <= 0):
        raise ScenarioError(f"{kind.value} needs a positive duration")
    return kind


class ClusterSim:
    """Discrete-tick simulator. step() emits one tick of telemetry + events."""

    def __init__(self, topology: ClusterTopology, seed: int, noise_pct: float = NOISE_PCT):
        self.topology = topology
        self._seed = int(seed)
        self._noise_pct = float(noise_pct)
        self._tick = 0
        self._faults: list[_ActiveFault] = []
        # The faults that can still act, in injection order: all that `step`
        # and `apply_action` walk.
        self._acting: list[_ActiveFault] = []
        # The first fault injected for each scenario value, for `fault_cleared`.
        self._by_scenario: dict[FaultScenario, _ActiveFault] = {}
        self._removed: set[str] = set()
        # Noise is drawn over the full static entity list every tick so that
        # removing an entity never shifts another entity's stream.
        self._noise_order = topology.emitting_entities()
        self._row = {e: i for i, e in enumerate(self._noise_order)}
        self._live = np.ones(len(self._noise_order), dtype=bool)
        # Scratch for a tick's fault offsets, overwritten by the next tick.
        self._offsets = np.zeros((len(self._noise_order), len(METRICS)))
        self._all_entities = topology.classes

    @property
    def tick(self) -> int:
        return self._tick

    def live_entities(self) -> tuple[str, ...]:
        return tuple(e for e in self._noise_order if e not in self._removed)

    def is_removed(self, entity: str) -> bool:
        return entity in self._removed

    # -- fault scripting ----------------------------------------------------

    def inject(self, scenario: FaultScenario) -> None:
        kind = check_scenario(self.topology, scenario, self._tick)
        fault = _ActiveFault(scenario, kind, *self._blast(scenario))
        self._faults.append(fault)
        self._acting.append(fault)
        self._by_scenario.setdefault(scenario, fault)

    def _blast(self, scen: FaultScenario) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
        """Resolve the scenario's blast set into frame cells, the offset of
        each cell, and the entities that emit the fault's events."""
        kind = FaultKind(scen.kind)
        topo = self.topology
        emitters: tuple[str, ...] = ()
        if kind is FaultKind.DNS_ERROR_BURST:
            hit, metrics, emitters = topo.callers_of(scen.target), ("net_latency_ms",), (scen.target,)
        elif kind is FaultKind.TOR_PACKET_LOSS:
            hit, metrics = topo.pods_behind_switch(scen.target), ("packet_loss_rate", "net_latency_ms")
        elif kind is FaultKind.INGRESS_THROTTLE:
            hit, metrics = (scen.target,), ("net_latency_ms",)
        elif kind is FaultKind.NOISY_NEIGHBOR:
            hit, metrics = topo.pods_on_node(scen.target), ("cpu_util", "disk_io")
        else:
            hit, metrics = (), ()  # node_decommission: events only
        cells = [self._row[e] * len(METRICS) + METRICS.index(m) for e in hit for m in metrics]
        deltas = [scen.magnitude * HEADROOM[m] for _ in hit for m in metrics]
        return np.array(cells, dtype=np.intp), np.array(deltas, dtype=float), emitters

    # -- time ----------------------------------------------------------------

    def step(self) -> tuple[TickFrame, list[RawEvent]]:
        tick = self._tick
        events: list[RawEvent] = []

        for fault in self._acting:
            scen = fault.scenario
            if (
                fault.kind is FaultKind.NODE_DECOMMISSION
                and not fault.decommission_done
                and tick >= scen.start_tick
            ):
                fault.decommission_done = True
                if scen.target not in self._removed:
                    gen = self.topology.generation_of_node.get(scen.target, "gen-unknown")
                    events.append(
                        RawEvent(tick, scen.target, "node_decommissioned", (("generation", gen),))
                    )
                    gone = (scen.target, *self.topology.pods_on_node(scen.target))
                    self._removed.update(gone)
                    self._live[[self._row[e] for e in gone]] = False

        # Offsets add up in fault order, cell by cell.
        offsets = self._offsets
        offsets.fill(0.0)
        flat = offsets.reshape(-1)
        for fault in self._acting:
            if not fault.contributes_at(tick):
                continue
            flat[fault.cells] += fault.deltas
            for emitter in fault.event_emitters:
                if emitter not in self._removed:
                    events.append(RawEvent(tick, emitter, "dns_error", (("scope", emitter),)))

        # clip((_BASE + offsets) + (noise * noise_pct) * _BASE, 0, _CEILING),
        # in place on the noise: the sum commutes bit for bit, and the sum is
        # never -0.0 or NaN, the only inputs on which clip and max/min differ.
        rng = np.random.default_rng((self._seed, SIM_STREAM, tick))
        values = rng.uniform(-1.0, 1.0, size=offsets.shape)
        values *= self._noise_pct
        values *= _BASE
        offsets += _BASE
        values += offsets
        np.maximum(values, 0.0, out=values)
        np.minimum(values, _CEILING, out=values)
        self._acting = [f for f in self._acting if not f.spent_after(tick)]
        self._tick = tick + 1
        return TickFrame(tick, self._noise_order, self._row, values, self._live.copy()), events

    # -- actions ---------------------------------------------------------------

    def apply_action(self, kind: ActionKind | str, target: str) -> ActionResult:
        action = ActionKind(kind)
        if target not in self._all_entities:
            raise UnknownEntityError(f"action target does not exist: {target!r}")
        if target in self._removed:
            raise DecommissionedEntityError(
                f"action {action.value} targets decommissioned entity {target!r}"
            )
        cleared = []
        # A cleared or expired fault has left `_acting`, and a finished
        # decommission's node is in `_removed`, rejected above.
        for fault in self._acting:
            if not fault.contributes_at(self._tick):
                continue
            if REMEDY[fault.kind] is action and fault.scenario.target == target:
                fault.cleared_at = self._tick
                cleared.append(fault.kind.value)
        if cleared:
            return ActionResult(action.value, target, self._tick, True, "cleared " + ", ".join(cleared))
        return ActionResult(action.value, target, self._tick, False, "no matching active fault")

    def fault_cleared(self, scenario: FaultScenario) -> bool:
        fault = self._by_scenario.get(scenario)
        return fault is not None and fault.cleared_at is not None


# -- stream serialization -----------------------------------------------------


def stream_lines(samples: Iterable[TelemetrySample], events: list[RawEvent]) -> list[str]:
    """Serialize one tick of output as JSONL (telemetry rows, then events)."""
    lines = []
    for s in samples:
        lines.append(json.dumps(
            {"tick": s.tick, "entity": s.entity, "metric": s.metric, "value": s.value},
            sort_keys=True, separators=(",", ":"),
        ))
    for e in events:
        lines.append(json.dumps(
            {"tick": e.tick, "entity": e.entity, "event": e.kind, "attributes": dict(e.attributes)},
            sort_keys=True, separators=(",", ":"),
        ))
    return lines


def parse_stream_line(line: str) -> TelemetrySample | RawEvent:
    row = json.loads(line)
    if "metric" in row:
        return TelemetrySample(row["tick"], row["entity"], row["metric"], row["value"])
    if "event" in row:
        attrs = tuple(sorted((str(k), str(v)) for k, v in row.get("attributes", {}).items()))
        return RawEvent(row["tick"], row["entity"], row["event"], attrs)
    raise ValueError(f"not a stream row: {line!r}")
