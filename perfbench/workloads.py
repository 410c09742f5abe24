"""The three workloads: generated inputs, one round of work, scoring, checks.

A workload is built from the seed and the sizes. `setup()` makes its inputs
once per run, `prepare()` clears what a round writes, `round()` does one
timed round: the program's own set-up, then whole operations. `score()` counts
attempted and failed operations, `check()` verifies a round's outputs (in
full on the first round; every later round does the same work and must
repeat the first exactly) and `totals()` gives a round's deterministic
figures.
"""
from __future__ import annotations

import contextlib
import copy
import dataclasses
import random
import shutil
import sys
from pathlib import Path

import checks
import gen
import spans
from opsloop import lattice, orchestrator, runner
from opsloop.cluster import build_topology
from opsloop.config import TARIFF_ILL_CLOSURE, TARIFF_MEMORY_ITEM
from opsloop.config import FaultKind as F
from opsloop.memory import EpisodicStore, KnowledgeGraph, bootstrap_from_topology, default_ontology
from opsloop.orchestrator import BudgetLedger, LoopParams

LEARN_NOISE = 0.3
FLEET_CYCLE = [F.INGRESS_THROTTLE, F.NOISY_NEIGHBOR, F.DNS_ERROR_BURST, F.TOR_PACKET_LOSS]
HISTORY_CYCLE = [F.DNS_ERROR_BURST, F.NOISY_NEIGHBOR, F.INGRESS_THROTTLE, F.DNS_ERROR_BURST,
                 F.TOR_PACKET_LOSS]


def reset_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _frozen(mined: list) -> list:
    # A later pass updates a re-mined rule in place (inject_rules keeps the
    # mined object), so a pass's rules are copied when the pass returns.
    return [copy.copy(rule) for rule in mined]


@contextlib.contextmanager
def _capture_mined(into: list):
    """Record a copy of every pass's mined rules made by the agent loop."""
    distill = orchestrator.distill

    def capturing(*args, **kwargs):
        report = distill(*args, **kwargs)
        into.append(_frozen(report.mined))
        return report

    orchestrator.distill = capturing
    try:
        yield
    finally:
        orchestrator.distill = distill


class LoopWorkload:
    """fleet_wide and history_long. One round is one `runner.run` of the
    generated config; an operation is one episode."""

    op_layer = spans.EPISODE
    episodes_per_op = 1

    def __init__(self, name: str, seed: int, sizes: dict, out: Path):
        self.name, self.seed, self.sizes = name, seed, sizes
        self.out = out / name
        self.first_digest: str | None = None

    def setup(self) -> None:
        """Generate the inputs. The program's set-up is the part of
        `runner.run` before its first episode, timed within the round."""
        rng = random.Random(self.seed)
        if self.name == "fleet_wide":
            topology = gen.fleet_topology(rng, *self.sizes["fleet"])
            scenario = gen.fault_script(rng, topology, FLEET_CYCLE, self.sizes["fleet_episodes"])
        else:
            topology = gen.shipped_topology()
            scenario = gen.fault_script(rng, topology, HISTORY_CYCLE, self.sizes["history_episodes"],
                                        decommissions=self.sizes["decommissions"])
        services = sorted({pod["service"] for rack in topology["racks"]
                           for node in rack["nodes"] for pod in node["pods"]})
        self.topology, self.scenario = topology, scenario
        self.policies = [{"id": gen.POLICY, "applies_to": services[:2]}]
        self.config = gen.run_config(self.seed, topology, scenario, self.policies)

    def prepare(self) -> None:
        reset_dir(self.out)

    def round(self):
        mined: list[list] = []
        with _capture_mined(mined):
            report = runner.run(self.config, self.out)
        return report, mined

    def score(self, result) -> tuple[int, list[str]]:
        """Episodes attempted, and the kinds of those that failed: not
        resolved, or a top-1 diagnosis other than the injected fault."""
        report, _ = result
        failed = []
        for row, fault in zip(report.rows, self.scenario):
            checks.require((row["fault_kind"], row["fault_target"]) == (fault["kind"], fault["target"]),
                           f"{row['episode_id']}: injected fault differs from the script")
            if not (row["resolved"] and row["top1_kind"] == fault["kind"]
                    and row["top1_entity"] == fault["target"]):
                failed.append(fault["kind"])
        return len(report.rows), failed

    def check(self, result) -> str:
        report, mined = result
        digest = checks.dir_digest(self.out)
        if self.first_digest is not None:
            checks.require(digest == self.first_digest, "a repeated round wrote different bytes")
            return digest
        self.first_digest = digest
        records = checks.read_records(self.out)
        checks.require(len(records) == len(self.scenario), "episodes.jsonl misses episodes")
        checks.check_transitions(self.out)
        checks.check_ledgers(records)
        dead = {f["target"] for f in self.scenario if f["kind"] == F.NODE_DECOMMISSION.value}
        checks.check_kg(self.out, self.topology, self.policies, dead)
        params = self.config.params
        checks.check_learning(self.out, records, report.episode_runs, mined, self.scenario,
                              params.min_support, params.min_confidence)
        return digest

    def totals(self, result) -> tuple[int, float, list[int]]:
        """Episodes, their summed ledger totals, and each pass's closure calls."""
        report, _ = result
        closure = [run.learning.closure_calls for run in report.episode_runs
                   if run.learning is not None]
        return len(report.rows), sum(row["compute_total"] for row in report.rows), closure


@dataclasses.dataclass
class Pass:
    live: list
    report: lattice.DistillReport | None
    mined: list
    ledger: BudgetLedger | None


class LearnWorkload:
    """learn_noisy. One round holds the history in an episodic store, which
    embeds every episode as the loop's memory would, and replays it at the
    loop's cadence: a `distill` pass, with the arguments `AgentLoop._learn`
    uses, after every `learning_cadence` episodes. An operation is one pass;
    the store and the graph built before the first pass are the set-up."""

    op_layer = spans.PASS

    def __init__(self, name: str, seed: int, sizes: dict, out: Path):
        self.seed, self.sizes = seed, sizes
        self.first: list | None = None

    def setup(self) -> None:
        """Generate the history."""
        self.topology = gen.shipped_topology()
        self.history = history = gen.noisy_history(
            random.Random(self.seed), self.sizes["learn_episodes"], LEARN_NOISE, self.topology)
        self.params = LoopParams(**gen.PARAMS)
        self.episodes_per_op = self.params.learning_cadence
        self.rows = {
            ep.episode_id: checks.episode_attributes(ep.symptom_attributes, ep.root_cause_label,
                                                     ep.actions)
            for ep in history
        }

    def prepare(self) -> None:
        pass

    def round(self):
        p = self.params
        store = EpisodicStore()
        for episode in self.history:
            store.insert(episode)
        kg = KnowledgeGraph(ontology=default_ontology())
        bootstrap_from_topology(kg, build_topology(self.topology))
        history = store.live_episodes()
        passes = []
        for size in range(p.learning_cadence, len(history) + 1, p.learning_cadence):
            live = history[:size]
            try:
                report = lattice.distill(
                    live, kg, p.vocab,
                    min_support=p.min_support, min_confidence=p.min_confidence,
                    confidence_floor=p.retire_confidence_floor,
                    max_age_episodes=p.retire_age_episodes,
                    tick=live[-1].end_tick, episode_count=size,
                )
            except Exception as exc:  # noqa: BLE001 - a pass that raises counts as failed
                print(f"pass at {size} episodes raised {type(exc).__name__}: {exc}", file=sys.stderr)
                passes.append(Pass(live, None, [], None))
                continue
            ledger = BudgetLedger(p.compute_limit, p.tool_call_limit)
            ledger.charge("ill", TARIFF_ILL_CLOSURE * report.closure_calls)
            ledger.charge("memory", TARIFF_MEMORY_ITEM * len(live))
            passes.append(Pass(live, report, _frozen(report.mined), ledger))
        return passes

    def score(self, passes) -> tuple[int, list[str]]:
        return len(passes), [f"pass@{len(ps.live)}" for ps in passes if ps.report is None]

    def check(self, passes) -> str:
        p = self.params
        signature = [(len(ps.live), ps.report.closure_calls,
                      [(r.rule_id, r.support, r.confidence) for r in ps.mined])
                     for ps in passes if ps.report is not None]
        if self.first is not None:
            checks.require(signature == self.first, "a repeated round mined differently")
            return ""
        self.first = signature
        rows, where, last = {}, "", []
        for ps in passes:
            if ps.report is None:
                continue
            rows = {ep.episode_id: self.rows[ep.episode_id] for ep in ps.live}
            where, last = f"pass at {len(ps.live)}", ps.mined
            checks.check_mined(rows, ps.mined, p.min_support, p.min_confidence, where)
        if rows:
            checks.check_rule_set(rows, last, p.min_support, p.min_confidence, where)
        return ""

    def totals(self, passes) -> tuple[int, float, list[int]]:
        """History episodes replayed, the ledger totals `_learn` would
        charge for the passes, and each pass's closure calls."""
        done = [ps for ps in passes if ps.report is not None]
        return (self.episodes_per_op * len(passes), sum(ps.ledger.total for ps in done),
                [ps.report.closure_calls for ps in done])


def make(name: str, seed: int, sizes: dict, out: Path):
    cls = LearnWorkload if name == "learn_noisy" else LoopWorkload
    return cls(name, seed, sizes, out)
