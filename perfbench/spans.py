"""Spans around the program's public entry points, recorded from outside.

`Tracer.installed()` replaces each target attribute with a wrapper for
the duration of a `with` block and puts the original back afterwards. The
program itself carries no tracing code. Each call becomes one span
(layer, parent span, start, end) kept in memory; counts are taken at the
same boundaries. A layer's self time is its spans' time minus the time of
their child spans, so the self times of all layers add up to the time of
the root spans.

Per-record functions such as `ingest.normalize` are deliberately not
wrapped: they run hundreds of thousands of times per run and a wrapper
there would dominate the traced time. Normalisation shows up as the self
time of `TelemetryFeed.step`.

Every span start and end is also a mark, a cut between two steps of the
run. A probing tracer times `probe()` at every mark, as a reading of the
host's speed next to the steps on either side; the probe's time is in no
step.
"""
from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

from opsloop import cluster, ingest, lattice, orchestrator, runner
from opsloop.memory import EpisodicStore, KnowledgeGraph

# layer names, which are also the per-layer time metrics (name + "_ms")
EPISODE = "orchestrator.self"
PASS = "lattice.distill"
RUN = "runner.self"

PROBE_LOOPS = 500
# The probe's time on the reference host of README.md at full speed, about
# its fastest: a step scaled by PROBE_NS over the probes next to it reads
# as its time on that host running at full speed.
PROBE_NS = 45_000


def probe() -> int:
    """A fixed piece of pure-Python work, the yardstick of the host's speed."""
    s, d = 0, {}
    for i in range(PROBE_LOOPS):
        s += i * i % 7
        d[i & 127] = s
    return s


def _count_step(counts, args, result):
    counts["cluster.samples"] += len(result[0])


def _count_feed(counts, args, result):
    counts["ingest.records"] += len(result)


def _count_detect(counts, args, result):
    counts["ingest.records_scored"] += len(args[0])
    counts["ingest.detect_hits"] += 1 if result else 0


def _count_assemble(counts, args, result):
    counts["contextpack.candidates"] += len(result.trace)
    counts["contextpack.included"] += result.included_count


def _count_search(counts, args, result):
    counts["memory.episodes_scored"] += args[0].live_count()


def _count_diagnose(counts, args, result):
    counts["reasoner.rule_shortcuts"] += result.path == "rule_shortcut"
    counts["reasoner.propagations"] += result.path == "propagation"
    counts["reasoner.units"] += result.compute_units


def _count_distill(counts, args, result):
    counts["lattice.closure_calls"] += result.closure_calls
    counts["lattice.rules_mined"] += len(result.mined)
    counts["lattice.rules_accepted"] += len(result.accepted)


def _count_run(counts, args, result):
    counts["runner.artifact_bytes"] += sum(
        p.stat().st_size for p in Path(result.out_dir).iterdir() if p.is_file()
    )


# (owner, attribute, layer, counter). The orchestrator imports its phase
# functions by name, so they are wrapped where it looks them up; distill
# and retire_rules are wrapped in both places they are called from.
LAYER_TARGETS = [
    (orchestrator.AgentLoop, "run_episode", EPISODE, None),
    (orchestrator, "distill", PASS, _count_distill),
    (lattice, "distill", PASS, _count_distill),
    (runner, "run", RUN, _count_run),
    (cluster.ClusterSim, "step", "cluster.step", _count_step),
    (ingest.TelemetryFeed, "step", "ingest.feed", _count_feed),
    (orchestrator, "detect_anomalies", "ingest.detect", _count_detect),
    (orchestrator, "assemble", "contextpack.assemble", _count_assemble),
    (EpisodicStore, "search", "memory.episodic_search", _count_search),
    (KnowledgeGraph, "subgraph", "memory.kg_subgraph", None),
    (KnowledgeGraph, "query", "memory.kg_query", None),
    (orchestrator, "diagnose", "reasoner.diagnose", _count_diagnose),
    (orchestrator, "make_plan", "reasoner.plan", None),
    (orchestrator, "retire_rules", "lattice.retire", None),
    (lattice, "retire_rules", "lattice.retire", None),
]
# The untraced run keeps only the spans its end-to-end metrics are cut at:
# episodes, learning passes and simulator ticks. Ticks split an episode
# into steps short enough that the probes on either side read the host's
# speed during the step (README.md).
CLOCK_TARGETS = [(owner, name, layer, None) for owner, name, layer, _ in LAYER_TARGETS
                 if layer in (EPISODE, PASS, "ingest.feed")]


class Tracer:
    def __init__(self, targets, probing: bool = False):
        self.targets, self.probing = targets, probing
        self.spans: list[tuple[str, int, int, int]] = []  # layer, parent, start, end
        # (end of the step before, start of the step after, probe time)
        self.marks: list[tuple[int, int, int]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def mark(self) -> tuple[int, int, int]:
        before = perf_counter_ns()
        if not self.probing:
            self.marks.append((before, before, 0))
            return self.marks[-1]
        # The first probe warms its code and data, so that the timed one
        # reads the host alone and not what the program left in the caches.
        probe()
        start = perf_counter_ns()
        probe()
        after = perf_counter_ns()
        self.marks.append((before, after, after - start))
        return self.marks[-1]

    def _wrap(self, fn, layer, counter):
        spans, stack, counts, mark = self.spans, self._stack, self.counts, self.mark

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append((layer, stack[-1] if stack else -1, 0, 0))
            stack.append(index)
            start = mark()[1]
            try:
                result = fn(*args, **kwargs)
            finally:
                end = mark()[0]
                stack.pop()
                spans[index] = (layer, spans[index][1], start, end)
            if counter is not None:
                counter(counts, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = [(owner, name, getattr(owner, name)) for owner, name, _, _ in self.targets]
        try:
            for (owner, name, layer, counter), (_, _, fn) in zip(self.targets, saved):
                setattr(owner, name, self._wrap(fn, layer, counter))
            yield self
        finally:
            for owner, name, fn in saved:
                setattr(owner, name, fn)

    def calls(self, layer: str) -> int:
        return sum(1 for name, *_ in self.spans if name == layer)

    def self_ms(self) -> dict[str, float]:
        child = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for i, (name, _, start, end) in enumerate(self.spans):
            out[name] += (end - start - child[i]) / 1e6
        return out

    def root_ms(self) -> float:
        return sum((end - start) / 1e6 for _, parent, start, end in self.spans if parent < 0)

    def write_ms(self) -> list[float]:
        """Per runner.run span: its own time after the last episode ended,
        which is where the run writes its artifacts."""
        children: defaultdict[int, list[int]] = defaultdict(list)
        for i, (_, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append(i)
        out = []
        for i, (name, _, _, end) in enumerate(self.spans):
            if name != RUN:
                continue
            kids = [self.spans[k] for k in children[i]]
            last = max((e for n, _, _, e in kids if n == EPISODE), default=self.spans[i][2])
            nested = sum(e - s for _, _, s, e in kids if s >= last)
            out.append((end - last - nested) / 1e6)
        return out
