"""Self-healing operations loop over a simulated cluster.

A deterministic discrete-tick cluster simulator with fault injection feeds
an agentic control loop: anomaly detection, budgeted context assembly over
tiered memories (short-term buffer, episodic vector store, knowledge graph,
runbooks), root-cause diagnosis, remediation, and a concept-lattice learning
pass that distills episodes into validated, forgettable rules.
"""
from .artifacts import compute_aggregates, replay
from .cluster import ClusterSim, ClusterTopology, FaultScenario, build_topology
from .config import ActionKind, FaultKind
from .contextpack import BudgetPolicy, ContextPack, IncidentDescriptor, assemble
from .ingest import Alert, TelemetryFeed, detect_anomalies, normalize
from .lattice import FormalContext, Rule, distill, mine_rules
from .memory import (
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
from .orchestrator import AgentLoop, Event, LoopParams, Phase, transition
from .reasoner import diagnose, make_plan
from .runner import RunConfig, load_config, run

__version__ = "0.1.0"

__all__ = [
    "ActionKind",
    "AgentLoop",
    "Alert",
    "BudgetPolicy",
    "ClusterSim",
    "ClusterTopology",
    "ContextPack",
    "Episode",
    "EpisodicStore",
    "Event",
    "FaultKind",
    "FaultScenario",
    "FormalContext",
    "IncidentDescriptor",
    "KnowledgeGraph",
    "LoopParams",
    "Memories",
    "Phase",
    "Rule",
    "RunConfig",
    "Runbook",
    "RunbookStore",
    "ShortTermBuffer",
    "TelemetryFeed",
    "assemble",
    "bootstrap_from_topology",
    "compute_aggregates",
    "default_ontology",
    "detect_anomalies",
    "diagnose",
    "distill",
    "load_config",
    "make_plan",
    "mine_rules",
    "normalize",
    "replay",
    "run",
    "transition",
    "__version__",
]
