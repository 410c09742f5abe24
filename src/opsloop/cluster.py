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
tests do). A tick's noise is the draw of the numpy Generator
`default_rng((seed, SIM_STREAM, tick))`, so two simulators built from the
same topology and seed produce identical streams sample for sample. The
`SeedSequence` states behind those Generators are computed for a block of
ticks at once (`_TickNoise`), and a quiet tick, one that no fault offsets,
makes a frame that draws its noise only when its values are first read:
its `envelope` bounds every sample's distance from the baseline, and
readers whose answer that bound settles never draw the tick at all.
"""
from __future__ import annotations

import functools
import json
from collections.abc import Callable, Iterable, Iterator, Mapping
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

# Ticks whose SeedSequence states are computed together.
_BLOCK = 256
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence constants (NEP 19) and PCG64's 128-bit multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _uint32_words(n: int) -> list[int]:
    """A non-negative int as SeedSequence splits it: 32-bit words, least
    significant first, and one word for 0."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _block_states(seed: int, first: int) -> list[list[int]]:
    """The eight 32-bit words of `SeedSequence((seed, SIM_STREAM, t))
    .generate_state(4)` for each tick t of `first, ..., first + _BLOCK - 1`,
    all below 2**32. Words that depend on no tick stay Python ints; the
    others are uint32 arrays over the block, whose products wrap as
    SeedSequence's uint32 arithmetic does (the `& _MASK32` masks the ints)."""
    entropy = [*_uint32_words(seed), *_uint32_words(SIM_STREAM),
               np.arange(first, first + _BLOCK, dtype=np.uint32)]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return np.stack(state, axis=1).tolist()


class _TickNoise:
    """`uniform(-1, 1)` noise of one frame shape for any tick t, equal to
    `np.random.default_rng((seed, SIM_STREAM, t)).uniform(-1.0, 1.0, shape)`.

    `default_rng` hashes its entropy into PCG64's state with a fresh
    `SeedSequence` (numpy NEP 19), which costs more than the draw. Here the
    `generate_state(4)` words of `_BLOCK` ticks are hashed at once
    (`_block_states`), and a draw performs PCG64's `set_seed` step (O'Neill
    2014) in Python ints and sets the state of one reused Generator. A block
    that is not wholly below tick 2**32 would split its ticks into different
    numbers of words, so its ticks fall back to `default_rng`.
    """

    def __init__(self, seed: int, shape: tuple[int, int]):
        self._seed = seed
        self._shape = shape
        self._bits = np.random.PCG64()
        self._gen = np.random.Generator(self._bits)
        # The last two blocks hashed, so a reader of the frames just before
        # a block edge does not hash a block twice.
        self._blocks: dict[int, list[list[int]]] = {}

    def uniform(self, tick: int) -> np.ndarray:
        block, k = divmod(tick, _BLOCK)
        states = self._blocks.get(block)
        if states is None:
            first = block * _BLOCK
            states = _block_states(self._seed, first) if first + _BLOCK <= 1 << 32 else []
            self._blocks[block] = states
            if len(self._blocks) > 2:
                del self._blocks[next(iter(self._blocks))]
        if not states:
            return np.random.default_rng((self._seed, SIM_STREAM, tick)).uniform(-1.0, 1.0, self._shape)
        # generate_state(4) read as little-endian uint64 words w0..w3: the
        # 128-bit seed is w0:w1 and the increment w2:w3.
        s0, s1, s2, s3, i0, i1, i2, i3 = states[k]
        inc = (i1 << 97 | i0 << 65 | i3 << 33 | i2 << 1 | 1) & _MASK128
        state = ((inc + (s1 << 96 | s0 << 64 | s3 << 32 | s2)) * _PCG_MULT + inc) & _MASK128
        self._bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._gen.uniform(-1.0, 1.0, self._shape)


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


class TickFrame:
    """One tick of telemetry for the whole fleet.

    `values[i, j]` is metric `METRICS[j]` of entity `entities[i]`, and
    `rows` maps an entity to its row. Rows never move; `live[i]` is False
    once entity i is removed, and the values of such a row mean nothing.
    Iterating yields the live samples, entity by entity and metric by
    metric, as `TelemetrySample`s; `len()` counts them.

    `values` may be given as a function that draws the array; it is called
    once, the first time `values` is read. Such a frame is quiet: no fault
    offsets it, and `envelope[j]` bounds |x - b| for every sample x of
    column j and its baseline b, as float64 computes the difference.
    `envelope` is None on a frame that is not quiet.
    """

    __slots__ = ("tick", "entities", "rows", "live", "envelope", "_values", "_draw")

    def __init__(
        self,
        tick: int,
        entities: tuple[str, ...],
        rows: Mapping[str, int],
        values: np.ndarray | Callable[[], np.ndarray],  # float64, (len(entities), len(METRICS))
        live: np.ndarray,  # bool, (len(entities),)
        envelope: tuple[float, ...] | None = None,  # per metric
    ):
        self.tick = tick
        self.entities = entities
        self.rows = rows
        self.live = live
        self.envelope = envelope
        self._values, self._draw = (None, values) if callable(values) else (values, None)

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = self._draw()
            self._draw = None
        return self._values

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
        if self._seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed!r}")
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
        self._noise = _TickNoise(self._seed, self._offsets.shape)
        # A quiet sample is x = clip(b + (u * p) * b, 0, ceiling) with |u| <= 1
        # and 0 <= b <= ceiling, so |x - b| <= p b in exact arithmetic
        # (clipping only moves x toward b). Its three roundings and the
        # reader's subtraction add at most (p + u (1 + p)) b (1 + 5u) - p b
        # for unit roundoff u = 2**-53, with an absolute term that also
        # covers underflow; the margins below exceed that after rounding
        # the bound itself.
        p = self._noise_pct
        self._envelope = tuple(((p + 2.0 ** -51 * (1.0 + p)) * _BASE * (1.0 + 2.0 ** -50)).tolist())
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
        events = [
            RawEvent(tick, node, "node_decommissioned",
                     (("generation", self.topology.generation_of_node.get(node, "gen-unknown")),))
            for node in self._decommission(tick)
        ]

        # Offsets add up in fault order, cell by cell.
        offsets = None
        for fault in self._acting:
            if not fault.contributes_at(tick):
                continue
            if fault.cells.size:
                if offsets is None:
                    offsets = self._offsets
                    offsets.fill(0.0)
                offsets.reshape(-1)[fault.cells] += fault.deltas
            for emitter in fault.event_emitters:
                if emitter not in self._removed:
                    events.append(RawEvent(tick, emitter, "dns_error", (("scope", emitter),)))

        if offsets is None:  # quiet: drawn when read, as the offsets 0 + _BASE would be
            values, envelope = functools.partial(self._draw, tick, _BASE), self._envelope
        else:
            offsets += _BASE
            values, envelope = self._draw(tick, offsets), None
        self._acting = [f for f in self._acting if not f.spent_after(tick)]
        self._tick = tick + 1
        return TickFrame(tick, self._noise_order, self._row, values, self._live.copy(), envelope), events

    def next_acting_tick(self) -> int | None:
        """The first tick from now on at which a fault still acting may
        offset a cell, emit an event or finish a decommission: its start,
        or now once started. None when no fault is acting. Until then every
        frame is quiet and no tick has an event."""
        starts = [f.scenario.start_tick for f in self._acting]
        return max(self._tick, min(starts)) if starts else None

    def skip_to(self, tick: int) -> None:
        """Move the clock on to `tick` without making the frames or events of
        the ticks passed over. What those ticks change in the fleet is done
        as `step` does it: decommissions that start among them finish, and
        faults spent by the last of them leave the acting list."""
        if tick <= self._tick:
            return
        self._decommission(tick - 1)
        self._acting = [f for f in self._acting if not f.spent_after(tick - 1)]
        self._tick = tick

    def _decommission(self, last_tick: int) -> list[str]:
        """Finish every pending decommission that starts by `last_tick`, in
        injection order; return the nodes that left the fleet."""
        nodes = []
        for fault in self._acting:
            scen = fault.scenario
            if (
                fault.kind is FaultKind.NODE_DECOMMISSION
                and not fault.decommission_done
                and last_tick >= scen.start_tick
            ):
                fault.decommission_done = True
                if scen.target not in self._removed:
                    nodes.append(scen.target)
                    gone = (scen.target, *self.topology.pods_on_node(scen.target))
                    self._removed.update(gone)
                    self._live[[self._row[e] for e in gone]] = False
        return nodes

    def _draw(self, tick: int, level: np.ndarray) -> np.ndarray:
        """The tick's samples around `level`, _BASE plus the tick's offsets:
        clip(level + (noise * noise_pct) * _BASE, 0, _CEILING), in place on
        the noise. The sum commutes bit for bit, and it is never -0.0 or NaN,
        the only inputs on which clip and max/min differ."""
        values = self._noise.uniform(tick)
        values *= self._noise_pct
        values *= _BASE
        values += level
        np.maximum(values, 0.0, out=values)
        np.minimum(values, _CEILING, out=values)
        return values

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
