"""Shared vocabulary and tunable constants.

Everything the simulator and the agent must agree on lives here: metric
baselines and fault headroom, the closed attribute vocabulary, the
attribute-to-category classification table, detector constants, learning
thresholds, context budgets, and the compute-unit tariffs. All knobs are
plain module constants so that a run is reproducible from configuration
alone.
"""
from __future__ import annotations

import math
from enum import Enum


class ConfigError(Exception):
    """Input the program cannot take: a run config, or a file read back."""


class FaultKind(str, Enum):
    """Injectable fault families."""

    DNS_ERROR_BURST = "dns_error_burst"
    TOR_PACKET_LOSS = "tor_packet_loss"
    INGRESS_THROTTLE = "ingress_throttle"
    NOISY_NEIGHBOR = "noisy_neighbor"
    NODE_DECOMMISSION = "node_decommission"


class ActionKind(str, Enum):
    """Remediation actions the agent may execute."""

    RESTART_POD = "restart_pod"
    SCALE_REPLICAS = "scale_replicas"
    REROUTE_SERVICE = "reroute_service"
    THROTTLE_TENANT = "throttle_tenant"
    FLUSH_DNS_CACHE = "flush_dns_cache"
    DRAIN_NODE = "drain_node"


# The graph's closed ids with their classes, and the id prefixes of learned
# rules and attribute sets: no fleet or policy id may take or start with one.
CLOSED_IDS = {**{kind.value: "FaultKind" for kind in FaultKind},
              **{action.value: "Action" for action in ActionKind}}
RULE_PREFIX = "rule:"
ASET_PREFIX = "aset:"
LEARNED_PREFIXES = (RULE_PREFIX, ASET_PREFIX)


class Category(str, Enum):
    """Coarse classification of a unified record."""

    PERFORMANCE = "performance"
    CAPACITY = "capacity"
    CONFIGURATION = "configuration"
    SECURITY = "security"


# ---------------------------------------------------------------------------
# Telemetry surface

METRICS = (
    "cpu_util",
    "mem_util",
    "disk_io",
    "net_latency_ms",
    "packet_loss_rate",
    "pod_restarts",
)

BASELINES = {
    "cpu_util": 0.30,
    "mem_util": 0.40,
    "disk_io": 0.20,
    "net_latency_ms": 20.0,
    "packet_loss_rate": 0.001,
    "pod_restarts": 0.0,
}

# Additive offset applied per unit of fault magnitude. Chosen so that
# magnitude 1.0 saturates the metric without leaving its physical range.
HEADROOM = {
    "cpu_util": 0.70,
    "mem_util": 0.60,
    "disk_io": 0.80,
    "net_latency_ms": 180.0,
    "packet_loss_rate": 0.999,
    "pod_restarts": 5.0,
}

NOISE_PCT = 0.02

EVENT_KINDS = ("dns_error", "config_change", "node_decommissioned", "auth_failure")

# Discrete events carry an intrinsic severity; severity 0 events never alert.
EVENT_SEVERITY = {
    "dns_error": 3,
    "auth_failure": 2,
    "node_decommissioned": 1,
    "config_change": 0,
}

CLASSIFICATION = {
    "net_latency_ms": Category.PERFORMANCE,
    "packet_loss_rate": Category.PERFORMANCE,
    "disk_io": Category.PERFORMANCE,
    "pod_restarts": Category.PERFORMANCE,
    "dns_error": Category.PERFORMANCE,
    "cpu_util": Category.CAPACITY,
    "mem_util": Category.CAPACITY,
    "config_change": Category.CONFIGURATION,
    "node_decommissioned": Category.CONFIGURATION,
    "auth_failure": Category.SECURITY,
}

# Metric anomaly -> symptom attribute name.
ANOMALY_ATTR = {
    "cpu_util": "cpu_high",
    "mem_util": "mem_high",
    "disk_io": "disk_high",
    "net_latency_ms": "latency_high",
    "packet_loss_rate": "packet_loss_high",
    "pod_restarts": "restarts_high",
}

# Symptom attribute -> (source kind, source name). Event attributes keep
# their event name; metric attributes map back to the metric.
ATTR_SOURCE = {attr: ("metric", metric) for metric, attr in ANOMALY_ATTR.items()}
ATTR_SOURCE.update({kind: ("event", kind) for kind in EVENT_KINDS})

SYMPTOM_VOCAB = tuple(sorted(ATTR_SOURCE))

CAUSE_PREFIX = "cause_"
RESOLVED_PREFIX = "resolved_by_"


def cause_label(kind: FaultKind | str) -> str:
    return CAUSE_PREFIX + str(getattr(kind, "value", kind))


def resolved_label(action: ActionKind | str) -> str:
    return RESOLVED_PREFIX + str(getattr(action, "value", action))


def is_outcome_label(attribute: str) -> bool:
    """True for cause_*/resolved_by_* labels, False for symptom attributes."""
    return attribute.startswith(CAUSE_PREFIX) or attribute.startswith(RESOLVED_PREFIX)


def category_of_attribute(attribute: str) -> Category:
    """Classify a symptom attribute via its underlying metric or event."""
    try:
        _, name = ATTR_SOURCE[attribute]
    except KeyError:
        raise ValueError(f"unknown symptom attribute: {attribute!r}") from None
    return CLASSIFICATION[name]


# ---------------------------------------------------------------------------
# Faults: remedy ground truth and symptom signatures

REMEDY = {
    FaultKind.DNS_ERROR_BURST: ActionKind.FLUSH_DNS_CACHE,
    FaultKind.TOR_PACKET_LOSS: ActionKind.REROUTE_SERVICE,
    FaultKind.INGRESS_THROTTLE: ActionKind.SCALE_REPLICAS,
    FaultKind.NOISY_NEIGHBOR: ActionKind.THROTTLE_TENANT,
    FaultKind.NODE_DECOMMISSION: ActionKind.DRAIN_NODE,
}

FAULT_SIGNATURE = {
    FaultKind.DNS_ERROR_BURST: frozenset({"dns_error"}),
    FaultKind.TOR_PACKET_LOSS: frozenset({"packet_loss_high"}),
    FaultKind.INGRESS_THROTTLE: frozenset({"latency_high"}),
    FaultKind.NOISY_NEIGHBOR: frozenset({"cpu_high", "disk_high"}),
    FaultKind.NODE_DECOMMISSION: frozenset({"node_decommissioned"}),
}

# ---------------------------------------------------------------------------
# Detector

EWMA_ALPHA = 0.3
DETECT_WINDOW = 5
DETECT_K = 3.0
SEVERITY_BUCKETS = (3.0, 5.0, 8.0)  # sigma multiples for severity 1 / 2 / 3
EVIDENCE_FLOOR_SIGMA = 2.0


def metric_sigma(metric: str, noise_pct: float = NOISE_PCT) -> float:
    """Standard deviation of the uniform +/-noise_pct sampling noise."""
    return noise_pct * BASELINES[metric] / math.sqrt(3.0)


def noise_band(metric: str, noise_pct: float = NOISE_PCT) -> float:
    """Half-width of the noise envelope around the baseline."""
    return noise_pct * BASELINES[metric]


# ---------------------------------------------------------------------------
# Episodic embedding. Normalizers are powers of two so every coordinate is
# a dyadic rational and cosine arithmetic is exact in float64.

EMBED_DURATION_CAP = 64.0
EMBED_SEVERITY_SCALE = 4.0
EMBED_CATEGORIES = (
    Category.PERFORMANCE,
    Category.CAPACITY,
    Category.CONFIGURATION,
    Category.SECURITY,
)


# ---------------------------------------------------------------------------
# Lattice learning

MIN_SUPPORT = 0.2
MIN_CONFIDENCE = 0.8
RETIRE_CONFIDENCE_FLOOR = 0.5
RETIRE_AGE_EPISODES = 50
LEARNING_CADENCE = 5

# ---------------------------------------------------------------------------
# Context assembly

PACK_BUDGET = 80
EPISODIC_K = 5
SUBGRAPH_RADIUS = 2
WEIGHT_STEP = 0.1
WEIGHT_MIN = 0.5
WEIGHT_MAX = 2.0

SECTION_ORDER = (
    "task",
    "policies",
    "short_term",
    "episodic",
    "kg_subgraph",
    "rules",
    "runbooks",
)

DEFAULT_SECTION_CAPS = {
    "task": 4,
    "policies": 6,
    "short_term": 12,
    "episodic": 16,
    "kg_subgraph": 24,
    "rules": 8,
    "runbooks": 8,
}

# ---------------------------------------------------------------------------
# Reasoner

PROPAGATION_DECAY = 0.7
RULE_SCORE_BOOST = 2.0
ESCALATION_AFTER = 3

# ---------------------------------------------------------------------------
# Budget ledger tariffs (compute units)

TARIFF_DETECTOR_WINDOW = 1.0
TARIFF_ACE_ASSEMBLY = 1.0
TARIFF_ACE_ITEM = 0.1
TARIFF_REASONER_UNIT = 1.0
TARIFF_ILL_CLOSURE = 1.0
TARIFF_MEMORY_ITEM = 0.01

COMPUTE_LIMIT = 500.0
TOOL_CALL_LIMIT = 200

BUFFER_CAPACITY = 64
VERIFY_TICKS = 3
VERIFY_EPS = 1e-9
