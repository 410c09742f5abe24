"""In-memory knowledge graph: typed triples under a fixed ontology.

Assertions are validated against relation signatures (domain and range
classes) before being stored; rejected triples never enter the graph, so
the store is sound by construction and `validate_all` re-proves it on
demand. Triples are append-only, so one incidence index (entity -> the
triples that touch it), filled on assert, is never invalidated; queries
with a bound subject or object and subgraph extraction read it instead of
scanning the graph. Subgraph extraction treats triples as undirected
edges. `bfs` is the one breadth-first search the package uses.

`INFRA_CHAIN` is the one declared walk up the fleet's hardware, pod to
node to rack to switch; fault localisation and the alert-to-service
mapping both follow it.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

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


@dataclass
class KnowledgeGraph:
    ontology: Ontology
    _entities: dict[str, str] = field(default_factory=dict)
    _triples: dict[tuple[str, str, str], Triple] = field(default_factory=dict)
    _incident: dict[str, list[Triple]] = field(default_factory=dict)
    rules: dict = field(default_factory=dict)  # rule_id -> lattice.Rule

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
            pool = self._triples.values()
        else:
            pool = self._incident.get(subject if subject is not None else obj, ())
        out = [
            t
            for t in pool
            if (subject is None or t.subject == subject)
            and (predicate is None or t.predicate == predicate)
            and (obj is None or t.object == obj)
        ]
        out.sort(key=lambda t: t.key())
        return out

    def subgraph(self, entity: str, radius: int) -> list[Triple]:
        """Triples incident to any entity within max(radius-1, 0) hops,
        ordered nearest-first.

        Hops count graph distance over triples read as undirected edges, so
        radius 0 returns exactly the triples touching `entity` and growing
        the radius admits the incident triples of each newly interior hop.
        A triple ranks at the hop distance of the vertex `bfs` first meets it
        from, which is its nearer endpoint (ties on the triple key), so a
        consumer that truncates the list keeps the neighborhood closest to
        the center.
        """
        if radius < 0:
            raise ValueError("radius must be >= 0")
        incident = self._incident
        if entity not in incident:
            return []
        dist = bfs(
            entity,
            lambda v: (t.object if t.subject == v else t.subject for t in incident[v]),
            max(radius - 1, 0),
        )
        # Each triple is one object in both of its endpoints' lists, and no
        # two share a key, so a rank tuple never compares the triples.
        met: set[int] = set()
        ranked = []
        for v, depth in dist.items():
            for t in incident[v]:
                if id(t) not in met:
                    met.add(id(t))
                    ranked.append((depth, t.subject, t.predicate, t.object, t))
        ranked.sort()
        return [r[-1] for r in ranked]

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
