"""In-memory knowledge graph: typed triples under a fixed ontology.

Assertions are validated against relation signatures (domain and range
classes) before being stored; rejected triples never enter the graph, so
the store is sound by construction and `validate_all` re-proves it on
demand. Triples are append-only, so one incidence index (entity -> the
triples that touch it), filled on assert, is never invalidated; queries
with a bound subject or object read it instead of scanning the graph.

Subgraph extraction and predicate-only queries read a rank view instead:
arrays over the triples in append order holding each one's subject and
object vertex ids, its predicate id and its rank in (subject, predicate,
object) order. The first read that needs the view builds it, and a read
after later asserts extends it, so asserting costs nothing more. The view
reads triples as undirected edges between entity vertices. A literal is
never a vertex: a triple whose relation's range is `LITERAL` touches its
subject alone, so two nodes decommissioned at the same tick are not
joined. `bfs` is the breadth-first search the rest of the package uses on
its own graphs.

`INFRA_CHAIN` is the one declared walk up the fleet's hardware, pod to
node to rack to switch; fault localisation and the alert-to-service
mapping both follow it.
"""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from ..config import CLOSED_IDS

KG_FORMAT = "opsloop-kg"
KG_VERSION = 1

LITERAL = "literal"

# The infrastructure chain, bottom up: relation i links INFRA_CLASSES[i]
# to INFRA_CLASSES[i + 1] in the default ontology.
INFRA_CHAIN = ("runs_on", "member_of", "uplink")
INFRA_CLASSES = ("Pod", "Node", "Rack", "ToRSwitch")


class OntologyError(Exception):
    pass


def bfs(
    start: str, neighbours: Callable[[str], Iterable[str]], limit: int | None = None
) -> dict[str, int]:
    """Hop distances from `start` to every vertex within `limit` hops
    (unbounded when None); `start` itself is at distance 0."""
    dist = {start: 0}
    frontier = [start]
    depth = 0
    while frontier and (limit is None or depth < limit):
        depth += 1
        nxt = []
        for v in frontier:
            for w in neighbours(v):
                if w not in dist:
                    dist[w] = depth
                    nxt.append(w)
        frontier = nxt
    return dist


@dataclass(frozen=True)
class Ontology:
    classes: frozenset[str]
    relations: dict[str, tuple[str, str]]  # name -> (domain class, range class)

    def __post_init__(self):
        for name, (domain, rng) in self.relations.items():
            if domain not in self.classes:
                raise OntologyError(f"relation {name!r} names undeclared domain {domain!r}")
            if rng != LITERAL and rng not in self.classes:
                raise OntologyError(f"relation {name!r} names undeclared range {rng!r}")


def default_ontology() -> Ontology:
    return Ontology(
        classes=frozenset(
            {
                "Rack",
                "ToRSwitch",
                "Node",
                "Pod",
                "Service",
                "FaultKind",
                "Action",
                "Rule",
                "Policy",
                "AttributeSet",
            }
        ),
        relations={
            "runs_on": ("Pod", "Node"),
            "member_of": ("Node", "Rack"),
            "uplink": ("Rack", "ToRSwitch"),
            "serves": ("Pod", "Service"),
            "depends_on": ("Service", "Service"),
            "indicates": ("AttributeSet", "FaultKind"),
            "remedied_by": ("FaultKind", "Action"),
            "constrained_by": ("Service", "Policy"),
            "decommissioned": ("Node", LITERAL),
        },
    )


@dataclass(frozen=True)
class Triple:
    subject: str
    predicate: str
    object: str
    provenance: str = "manual"
    tick: int = 0

    def key(self) -> tuple[str, str, str]:
        return (self.subject, self.predicate, self.object)


@dataclass(frozen=True)
class AssertResult:
    accepted: bool
    added: bool
    reason: str | None = None


_ADDED = AssertResult(accepted=True, added=True)


def _ids(table: dict[str, int], names: list[str]) -> np.ndarray:
    """Each name's id in `table`, which numbers the names it lacks in order
    of first appearance."""
    fresh = [n for n in dict.fromkeys(names) if n not in table]
    table.update(zip(fresh, range(len(table), len(table) + len(fresh))))
    return np.fromiter(map(table.__getitem__, names), dtype=np.int64, count=len(names))


class _RankView:
    """Arrays over a graph's triples in append order: the triple itself, its
    subject and object vertex ids, its predicate id and its rank among the
    triple keys. A literal triple's object vertex is its subject's."""

    def __init__(self):
        self.triples = np.empty(0, dtype=object)
        self.subject = np.empty(0, dtype=np.int64)
        self.object = np.empty(0, dtype=np.int64)
        self.predicate = np.empty(0, dtype=np.int64)
        self.rank = np.empty(0, dtype=np.int64)
        self.keys: list[tuple[str, str, str]] = []  # every triple key, sorted
        self.vertex: dict[str, int] = {}
        self.predicate_id: dict[str, int] = {}

    def extend(self, keys: list[tuple[str, str, str]], new: list[Triple],
               relations: dict[str, tuple[str, str]]) -> None:
        """Append triples, with their keys, that the view does not hold yet.
        Each new key goes into the sorted keys where `bisect` puts it, and
        every rank at or above that place shifts up by one."""
        literal = {p for p, (_, rng) in relations.items() if rng == LITERAL}
        ends = [s for s, _, _ in keys] + [s if p in literal else o for s, p, o in keys]
        ids = _ids(self.vertex, ends)
        self.subject = np.concatenate((self.subject, ids[:len(keys)]))
        self.object = np.concatenate((self.object, ids[len(keys):]))
        self.predicate = np.concatenate(
            (self.predicate, _ids(self.predicate_id, [p for _, p, _ in keys])))
        # A new key's place among the old keys; in sorted order, the j-th new
        # key also has j new keys below it.
        by_key = sorted(range(len(keys)), key=keys.__getitem__)
        places = np.array([bisect_left(self.keys, keys[j]) for j in by_key], dtype=np.int64)
        new_rank = np.empty(len(keys), dtype=np.int64)
        new_rank[by_key] = places + np.arange(len(keys))
        self.rank = np.concatenate(
            (self.rank + np.searchsorted(places, self.rank, side="right"), new_rank))
        self.keys.extend(keys[j] for j in by_key)
        self.keys.sort()  # two sorted runs: one merge
        self.triples = np.concatenate((self.triples, np.fromiter(new, dtype=object, count=len(new))))

    def ranked(self, hits: np.ndarray, depth: np.ndarray | int = 0) -> list[Triple]:
        """The triples at positions `hits`, ordered by (depth, key)."""
        order = np.argsort(depth * len(self.rank) + self.rank[hits])
        return self.triples[hits[order]].tolist()


@dataclass
class KnowledgeGraph:
    ontology: Ontology
    _entities: dict[str, str] = field(default_factory=dict)
    _triples: dict[tuple[str, str, str], Triple] = field(default_factory=dict)
    _incident: dict[str, list[Triple]] = field(default_factory=dict)
    rules: dict = field(default_factory=dict)  # rule_id -> lattice.Rule
    _view: _RankView = field(default_factory=_RankView, init=False, repr=False, compare=False)
    # What the context assembler derives from each triple, keyed by
    # id(triple). A triple is never removed, so its id names it for as long
    # as the graph, and this cache, live.
    assembly_cache: dict[int, tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    # -- entities -------------------------------------------------------------

    def register_entity(self, entity_id: str, cls: str) -> None:
        if cls not in self.ontology.classes:
            raise OntologyError(f"undeclared class {cls!r} for entity {entity_id!r}")
        existing = self._entities.get(entity_id)
        if existing is not None and existing != cls:
            raise OntologyError(
                f"entity {entity_id!r} already registered as {existing!r}, not {cls!r}"
            )
        self._entities[entity_id] = cls

    def class_of(self, entity_id: str) -> str | None:
        return self._entities.get(entity_id)

    # -- triples ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._triples)

    def _check_signature(self, subject: str, predicate: str, obj: str) -> str | None:
        sig = self.ontology.relations.get(predicate)
        if sig is None:
            return f"unknown relation {predicate!r}"
        domain, rng = sig
        subject_cls = self._entities.get(subject)
        if subject_cls != domain:
            return (
                f"subject {subject!r} has class {subject_cls!r}, "
                f"relation {predicate!r} needs {domain!r}"
            )
        if rng == LITERAL:
            return None
        obj_cls = self._entities.get(obj)
        if obj_cls != rng:
            return (
                f"object {obj!r} has class {obj_cls!r}, "
                f"relation {predicate!r} needs {rng!r}"
            )
        return None

    def assert_triple(
        self, subject: str, predicate: str, obj: str,
        provenance: str = "manual", tick: int = 0,
    ) -> AssertResult:
        reason = self._check_signature(subject, predicate, obj)
        if reason is not None:
            return AssertResult(accepted=False, added=False, reason=reason)
        key = (subject, predicate, obj)
        if key in self._triples:
            return AssertResult(accepted=True, added=False, reason="duplicate")
        t = self._triples[key] = Triple(subject, predicate, obj, provenance, tick)
        self._incident.setdefault(subject, []).append(t)
        if obj != subject:
            self._incident.setdefault(obj, []).append(t)
        return _ADDED

    def query(
        self, subject: str | None, predicate: str | None, obj: str | None
    ) -> list[Triple]:
        if subject is None and predicate is None and obj is None:
            raise ValueError("query needs at least one bound position")
        if subject is None and obj is None:
            view = self._rank_view()
            p = view.predicate_id.get(predicate)
            if p is None:
                return []
            return view.ranked(np.flatnonzero(view.predicate == p))
        out = [
            t
            for t in self._incident.get(subject if subject is not None else obj, ())
            if (subject is None or t.subject == subject)
            and (predicate is None or t.predicate == predicate)
            and (obj is None or t.object == obj)
        ]
        out.sort(key=lambda t: t.key())
        return out

    def _rank_view(self) -> _RankView:
        view = self._view
        if len(view.rank) < len(self._triples):
            m = len(view.rank)
            view.extend(list(islice(self._triples, m, None)),
                         list(islice(self._triples.values(), m, None)), self.ontology.relations)
        return view

    def subgraph(self, entity: str, radius: int) -> list[Triple]:
        """Triples incident to any entity within max(radius-1, 0) hops,
        ordered nearest-first.

        Hops count graph distance over triples read as undirected edges, so
        radius 0 returns exactly the triples touching `entity` and growing
        the radius admits the incident triples of each newly interior hop.
        A literal is not a vertex, so a literal `entity` has no subgraph. A
        triple ranks at the hop distance of its nearer endpoint, ties on the
        triple key, so a consumer that truncates the list keeps the
        neighborhood closest to the center.
        """
        if radius < 0:
            raise ValueError("radius must be >= 0")
        view = self._rank_view()
        center = view.vertex.get(entity)
        if center is None:
            return []
        subj, obj = view.subject, view.object
        # No vertex is more than len(vertex) - 1 hops away.
        far = min(max(radius - 1, 0), len(view.vertex)) + 1
        dist = np.full(len(view.vertex), far, dtype=np.int64)
        dist[center] = 0
        for depth in range(1, far):
            frontier = dist == depth - 1
            met = np.concatenate((obj[frontier[subj]], subj[frontier[obj]]))
            met = met[dist[met] == far]
            if not met.size:
                break
            dist[met] = depth
        near = np.minimum(dist[subj], dist[obj])
        hits = np.flatnonzero(near < far)
        return view.ranked(hits, near[hits])

    # -- decommissioning -------------------------------------------------------

    def decommissioned_entities(self) -> frozenset[str]:
        return frozenset(t.subject for t in self.query(None, "decommissioned", None))

    # -- audit -------------------------------------------------------------------

    def validate_all(self) -> list[str]:
        violations = []
        for t in self._triples.values():
            reason = self._check_signature(t.subject, t.predicate, t.object)
            if reason is not None:
                violations.append(f"{t.key()}: {reason}")
        return sorted(violations)

    def export_tsv(self) -> list[str]:
        lines = [f"# {KG_FORMAT} v{KG_VERSION}"]
        for key in sorted(self._triples):
            t = self._triples[key]
            lines.append(f"{t.subject}\t{t.predicate}\t{t.object}\t{t.provenance}")
        return lines


def bootstrap_from_topology(kg: KnowledgeGraph, topology, tick: int = 0) -> None:
    """Seed the graph with the static fleet layout and the closed ids: one
    loop registers every id of `topology.classes` and `config.CLOSED_IDS`
    under its class. Fault-to-remedy links are deliberately absent: those
    are learned."""
    for entity, cls in (*topology.classes.items(), *CLOSED_IDS.items()):
        kg.register_entity(entity, cls)
    for rack, switch in sorted(topology.switch_of_rack.items()):
        kg.assert_triple(rack, "uplink", switch, provenance="bootstrap", tick=tick)
    for node, rack in sorted(topology.rack_of_node.items()):
        kg.assert_triple(node, "member_of", rack, provenance="bootstrap", tick=tick)
    for pod, node in sorted(topology.node_of_pod.items()):
        kg.assert_triple(pod, "runs_on", node, provenance="bootstrap", tick=tick)
    for pod, service in sorted(topology.service_of_pod.items()):
        kg.assert_triple(pod, "serves", service, provenance="bootstrap", tick=tick)
    for caller, callee in sorted(topology.dependencies):
        kg.assert_triple(caller, "depends_on", callee, provenance="bootstrap", tick=tick)
