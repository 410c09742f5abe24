#!/usr/bin/env python3
"""opsloop benchmark: three workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload fleet_wide --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py                      # all three, one process each
    python3 perfbench/run.py --smoke              # all three at toy size, in seconds

Run from the root of a checkout: the program is imported from its source
tree, `src/opsloop`, and without it the command exits with code 2. A run
generates its inputs from `--seed` and repeats identical rounds, each the
program's set-up followed by whole operations, until `--seconds` have
passed and at least `timed_rounds` rounds are done. The time metrics come
from the first `timed_rounds` rounds, with every step scaled to the host's
full speed by a probe timed next to it. The first round's outputs are checked
against independent computations, and every later round must repeat them
exactly; a failed check exits with code 1. The last line of standard
output is one JSON object: with
`--trace 0` the end-to-end metrics, with `--trace 1` the per-layer metrics
of a run with spans around every layer. See README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("fleet_wide", "history_long", "learn_noisy")
# Seconds per round, checks and probes included, on the reference host of
# README.md when it runs slow. They fix how many rounds a run times from
# --seconds alone, so that a faster or slower program takes its minima over
# as many repeats as the reference does.
ROUND_S = {"fleet_wide": 3.7, "history_long": 8.0, "learn_noisy": 2.8}
# A step's speed reading is the median probe of this many marks on either
# side of it: one probe alone is as noisy as the host, and a median of
# sixteen reads its speed over a few ticks.
PROBE_WINDOW = 8

SIZES = {
    # fleet: racks, nodes per rack, pods per node, services, services per call chain
    "full": {"fleet": (8, 5, 8, 16, 4), "fleet_episodes": 12,
             "history_episodes": 400, "decommissions": 3, "learn_episodes": 400},
    "smoke": {"fleet": (2, 2, 4, 4, 4), "fleet_episodes": 12,
              "history_episodes": 40, "decommissions": 1, "learn_episodes": 40},
}

LAYER_TIMES = ["cluster.step", "ingest.feed", "ingest.detect", "contextpack.assemble",
               "memory.episodic_search", "memory.kg_subgraph", "memory.kg_query",
               "reasoner.diagnose", "reasoner.plan", "lattice.distill", "lattice.retire",
               "orchestrator.self", "runner.self"]
LAYER_COUNTS = ["cluster.samples", "ingest.records", "ingest.records_scored",
                "contextpack.candidates", "contextpack.included", "memory.episodes_scored",
                "reasoner.rule_shortcuts", "reasoner.propagations", "reasoner.units",
                "lattice.closure_calls", "lattice.rules_mined", "lattice.rules_accepted"]
LAYER_CALLS = {"cluster.steps": "cluster.step", "ingest.detect_calls": "ingest.detect",
               "memory.kg_query_calls": "memory.kg_query", "lattice.passes": "lattice.distill"}


def load_program():
    src = ROOT / "src"
    if not (src / "opsloop" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src / 'opsloop'}; "
              "run from the root of an opsloop checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def timed_rounds(workload: str, seconds: float) -> int:
    return max(1, int(seconds / ROUND_S[workload]))


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _best(rounds: list["RoundTimes"]) -> list[float]:
    """Per step, its fastest repeat over the rounds, scaled by the probes
    of the round it came from. The choice rests on the step's own time, so
    it does not pick out a probe that happened to read slow."""
    if len({len(r.steps) for r in rounds}) != 1:
        raise RuntimeError("rounds timed different numbers of steps")
    best = []
    for times, scales in zip(zip(*(r.steps for r in rounds)), zip(*(r.scale for r in rounds))):
        k = min(range(len(times)), key=times.__getitem__)
        best.append(times[k] * scales[k])
    return best


class RoundTimes:
    """One round cut into steps at its marks (its start, its end and the
    start and end of every span in it), with the step ranges its operations
    and learning passes cover. Every round makes the same calls in the same
    order, so step k is the same work in every round. With probes, a step's
    scale is `probe_ns` over the median of the probes at the `PROBE_WINDOW`
    marks on either side of it: its time times its scale is its time at the
    host's full speed."""

    def __init__(self, marks: list, round_spans: list, op_layer: str, pass_layer: str,
                 probe_ns: int | None):
        self.steps = [b[0] - a[1] for a, b in zip(marks, marks[1:])]
        self.scale = [1.0] * len(self.steps)
        if probe_ns:
            probe = [m[2] for m in marks]
            # step k lies between marks k and k + 1
            near = [probe[max(0, k + 1 - PROBE_WINDOW):k + 1 + PROBE_WINDOW]
                    for k in range(len(self.steps))]
            self.scale = [probe_ns / _median(q) for q in near]
        starts = {after: i for i, (_, after, _) in enumerate(marks)}
        ends = {before: i for i, (before, _, _) in enumerate(marks)}
        self.ops = [(starts[s], ends[e]) for name, _, s, e in round_spans if name == op_layer]
        self.passes = [(starts[s], ends[e]) for name, _, s, e in round_spans if name == pass_layer]


def best_ms(rounds: list[RoundTimes], ranges: str) -> list[float]:
    """Each operation's (or pass's) time with every step at its best
    repeat, as `_best` gives it."""
    best = _best(rounds)
    cover = getattr(rounds[0], ranges)
    if any(getattr(r, ranges) != cover for r in rounds):
        raise RuntimeError("rounds made different calls")
    return [sum(best[a:b]) / 1e6 for a, b in cover]


def end_to_end(workload, rounds: list[RoundTimes], first):
    """Metrics over the timed rounds."""
    episodes, units, closure = workload.totals(first)
    per_op = workload.episodes_per_op
    episode_ms = [t / per_op for t in best_ms(rounds, "ops")]
    pass_ms = best_ms(rounds, "passes")
    best = _best(rounds)
    setup_s = sum(best[:rounds[0].ops[0][0]]) / 1e9  # from the round's start to its first op
    every_ms = [sum(t * c for t, c in zip(r.steps[a:b], r.scale[a:b])) / 1e6 / per_op
                for r in rounds for a, b in r.ops]
    wall_s = sum(sum(r.steps) for r in rounds) / 1e9
    p90 = statistics.quantiles(every_ms, n=10)[-1] if len(every_ms) > 1 else 0.0
    print(f"reference, the {len(rounds)} timed rounds: {episodes * len(rounds) / wall_s:.3f} "
          f"episodes/s by the wall clock, probes excepted; scaled episode ms p50 "
          f"{_median(every_ms):.3f}, p90 {p90:.3f}, over {len(every_ms)} samples")
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "episodes_per_s": (episodes / (sum(best) / 1e9), "1/s"),
        "episode_ms_p50": (_median(episode_ms), "ms"),
        "agent_units_per_episode": (units / episodes, "units"),
        "pass_ms_p50": (_median(pass_ms), "ms"),
        "closure_calls_per_pass": (statistics.mean(closure) if closure else 0.0, "count"),
    }


def per_layer(rounds: list[RoundTimes], ops: int, tracer, run_layer: str):
    """Per-layer metrics of a traced run, per operation (episode, or pass on
    learn_noisy), except the hit ratio and the per-run-directory figures."""
    self_ms = tracer.self_ms()
    root = tracer.root_ms()
    if abs(sum(self_ms.values()) - root) > 1e-6 * max(root, 1.0):
        raise RuntimeError("layer self times do not add up to the traced time")
    out = {f"{layer}_ms": (self_ms.get(layer, 0.0) / ops, "ms") for layer in LAYER_TIMES}
    out.update({name: (tracer.counts[name] / ops, "count") for name in LAYER_COUNTS})
    out.update({name: (tracer.calls(layer) / ops, "count") for name, layer in LAYER_CALLS.items()})
    detect_calls = tracer.calls("ingest.detect")
    out["ingest.detect_hit_ratio"] = (
        tracer.counts["ingest.detect_hits"] / detect_calls if detect_calls else 0.0, "ratio")
    runs = tracer.calls(run_layer)
    out["runner.write_ms"] = (_median(tracer.write_ms()), "ms")
    out["runner.artifact_bytes"] = (
        tracer.counts["runner.artifact_bytes"] / runs if runs else 0.0, "bytes")
    out["trace.op_ms"] = (root / ops, "ms")
    out["trace.op_ms_p50"] = (_median(best_ms(rounds, "ops")), "ms")
    return out


def run_one(args) -> int:
    load_program()
    import checks
    import spans
    import workloads

    workload = workloads.make(args.workload, args.seed, SIZES["smoke" if args.smoke else "full"], OUT)
    workload.setup()
    timed = timed_rounds(args.workload, args.seconds)
    if args.trace:
        tracer = spans.Tracer(spans.LAYER_TARGETS)
    else:
        tracer = spans.Tracer(spans.CLOCK_TARGETS, probing=True)
    rounds: list[RoundTimes] = []  # the timed rounds only, so memory does not grow with speed
    done = 0
    first = None
    attempted = failed = 0
    deadline = perf_counter() + args.seconds
    try:
        while True:
            workload.prepare()
            gc.collect()  # every round starts from the same heap, so collections fall alike
            span0, mark0 = len(tracer.spans), len(tracer.marks)
            with tracer.installed():
                tracer.mark()
                result = workload.round()
                tracer.mark()
            done += 1
            if done <= timed:
                rounds.append(RoundTimes(tracer.marks[mark0:], tracer.spans[span0:],
                                         workload.op_layer, spans.PASS,
                                         spans.PROBE_NS if tracer.probing else None))
            digest = workload.check(result)
            if digest:
                print(f"sha256 {args.workload} seed={args.seed} round={done} {digest}")
            n, kinds = workload.score(result)
            attempted += n
            failed += len(kinds)
            if kinds:
                print(f"round {done} failed: {', '.join(kinds)}")
            if first is None:
                first = result
            result = None  # hold no more than the first round's outputs and the current one's
            if not args.trace:
                tracer.spans.clear()
                tracer.marks.clear()
            if done >= timed and perf_counter() >= deadline:
                break
    except checks.CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1), "failed": failed,
                          "metrics": {}}))
        return 1
    metrics = (per_layer(rounds, attempted, tracer, spans.RUN) if args.trace
               else end_to_end(workload, rounds, first))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exited with code {proc.returncode}")
            status = status or proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        results[name] = result
        print(f"[{name}] attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"[{name}]   {metric:<28} {m['value']:>14.4f} {m['unit']}")
    print(json.dumps(results))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes and a single round: every workload in seconds")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
