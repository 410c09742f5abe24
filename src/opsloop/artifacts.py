"""A run's artifact files: the one writer and the one reader of them.

`RunWriter.episode` takes each episode as it closes and encodes its
report.jsonl row, its episodes.jsonl record and its transitions.log lines
as text. `RunWriter.close` adds the aggregates trailer and writes every
file of the run directory: those three, kg.tsv, episodic.jsonl,
rules.jsonl and one context_NNN.csv per learning pass. No file is opened
before the last episode closes. Every JSON line is one `json.dumps` with
sorted keys and no spaces, so identical runs write identical bytes.

`read_run` checks the header of an episodes.jsonl and returns its records,
each with its report row; `replay` prints one episode's transcript from
them.
"""
from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .cluster import FaultScenario
from .config import ConfigError, FaultKind
from .contextpack import TraceEntry
from .lattice import DistillReport, rules_jsonl
from .orchestrator import AgentLoop, EpisodeRun, Phase

EPISODES_FORMAT = "opsloop-episodes"
EPISODES_VERSION = 1
# The keys of an episodes.jsonl record and of its report row, as
# `RunWriter.episode` writes them.
_RECORD_KEYS = frozenset({
    "row", "scenario", "episode", "transitions", "hypotheses", "diagnosis_path", "plan",
    "action_results", "ledger", "deferred_subtasks", "pack_traces",
})
_ROW_KEYS = frozenset({
    "episode_id", "fault_kind", "fault_target", "top1_kind", "top1_entity", "correct",
    "resolved", "ticks_to_resolve", "start_tick", "end_tick", "attempts", "path",
    "escalation_reason", "compute", "compute_total", "tool_calls", "rules_active", "final_phase",
})


def compute_aggregates(rows: list[dict]) -> dict:
    """Run-level summary, derivable from the rows alone."""
    n = len(rows)
    if n == 0:
        return {
            "episodes": 0,
            "resolved": 0,
            "escalated": 0,
            "top1_accuracy": None,
            "compute_total": {},
            "segments": {},
        }
    resolved = sum(1 for r in rows if r["resolved"])
    with_fault = [r for r in rows if r["fault_kind"] is not None]
    accuracy = (
        sum(1 for r in with_fault if r["correct"]) / len(with_fault) if with_fault else None
    )
    totals: dict[str, float] = {}
    for r in rows:
        for component, units in r["compute"].items():
            totals[component] = totals.get(component, 0.0) + units

    def segment(rows_part: list[dict]) -> dict:
        ticks = [r["ticks_to_resolve"] for r in rows_part if r["ticks_to_resolve"] is not None]
        part_fault = [r for r in rows_part if r["fault_kind"] is not None]
        return {
            "episodes": [r["episode_id"] for r in rows_part],
            "mean_ticks_to_resolve": (sum(ticks) / len(ticks)) if ticks else None,
            "top1_accuracy": (
                sum(1 for r in part_fault if r["correct"]) / len(part_fault)
                if part_fault else None
            ),
            "reasoner_units": sum(r["compute"].get("reasoner", 0.0) for r in rows_part),
        }

    third = max(n // 3, 1)
    return {
        "episodes": n,
        "resolved": resolved,
        "escalated": sum(1 for r in rows if not r["resolved"] and r["path"] != "no_incident"),
        "top1_accuracy": accuracy,
        "compute_total": {k: totals[k] for k in sorted(totals)},
        "segments": {
            "first": segment(rows[:third]),
            "middle": segment(rows[third:n - third] if n > 2 * third else []),
            "last": segment(rows[n - third:] if n > third else []),
        },
    }


# `json.dumps` with sorted keys and no spaces. No record holds a cycle to check for.
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode


def _dump_spliced(obj: dict, encoded: dict[str, str]) -> str:
    """`_dump` of `obj` merged with the values whose JSON text `encoded`
    already holds, by key. The keys are disjoint; each run of `obj`'s keys
    between two encoded keys, in sorted order, takes one `_dump`. The
    encoded texts are copied once, into the result."""
    parts = []  # each item's text, then a comma
    pending: dict = {}
    for key in sorted(obj.keys() | encoded.keys()):
        if key in encoded:
            if pending:
                parts += (_dump(pending)[1:-1], ",")
                pending = {}
            parts += (encode_basestring_ascii(key), ":", encoded[key], ",")
        else:
            pending[key] = obj[key]
    if pending:
        parts += (_dump(pending)[1:-1], ",")
    return "".join(["{", *parts[:-1], "}"])


def _traces_json(traces: list[list[TraceEntry]], memo: dict[TraceEntry, str]) -> str:
    """`_dump` of an episode's pack traces as lists of entry dicts. Each
    distinct entry is encoded once into `memo`, which a run shares across
    its episodes."""
    packs = []
    for trace in traces:
        entries = []
        for entry in trace:
            text = memo.get(entry)
            if text is None:
                section, key, cost, included, reason = entry
                # `_dump(entry._asdict())`: the keys in sorted order.
                text = memo[entry] = (
                    f'{{"cost":{cost:d},"included":{"true" if included else "false"},'
                    f'"key":{encode_basestring_ascii(key)},'
                    f'"reason":{encode_basestring_ascii(reason)},'
                    f'"section":{encode_basestring_ascii(section)}}}'
                )
            entries.append(text)
        packs.append(",".join(entries))
    return "[[%s]]" % "],[".join(packs) if packs else "[]"


class RunWriter:
    """The artifact files of one run into `out_dir`, which it makes."""

    def __init__(self, out_dir: Path):
        out_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir = out_dir
        self.rows: list[dict] = []
        self._learning: list[DistillReport] = []  # each pass, in order
        self._report_lines: list[str] = []
        self._episode_lines = [_dump({"format": EPISODES_FORMAT, "version": EPISODES_VERSION})]
        self._transition_lines: list[str] = []
        self._trace_memo: dict[TraceEntry, str] = {}

    def episode(self, run: EpisodeRun, scenario: FaultScenario | None, rules_active: int) -> None:
        """Encode the closed episode `run`, which played `scenario`, with
        `rules_active` validated rules after it."""
        diagnosis, episode = run.diagnosis, run.episode
        hypotheses = diagnosis.hypotheses if diagnosis else ()
        top = hypotheses[0] if hypotheses else None
        kind = FaultKind(scenario.kind).value if scenario else None
        undiagnosed = "no_incident" if run.final_phase == Phase.IDLE.value else "abstain"
        path = diagnosis.path if diagnosis else undiagnosed
        ledger = run.ledger.snapshot()
        row = {
            "episode_id": run.episode_id,
            "fault_kind": kind,
            "fault_target": scenario.target if scenario else None,
            "top1_kind": top.fault_kind.value if top else None,
            "top1_entity": top.suspect_entity if top else None,
            "correct": bool(
                top is not None and scenario is not None
                and top.fault_kind.value == kind and top.suspect_entity == scenario.target
            ),
            "resolved": bool(episode.resolved) if episode else False,
            "ticks_to_resolve": episode.ticks_to_resolve if episode else None,
            "start_tick": episode.start_tick if episode else None,
            "end_tick": episode.end_tick if episode else None,
            "attempts": sum(1 for t in run.transitions if t.event == "plan_ready"),
            "path": path,
            "escalation_reason": run.escalation_reason,
            "compute": ledger["units"],
            "compute_total": ledger["total"],
            "tool_calls": ledger["tool_calls"],
            "rules_active": rules_active,
            "final_phase": run.final_phase,
        }
        # The record but for its `row` and `pack_traces`, spliced in as text.
        record = {
            "scenario": (
                {
                    "kind": kind,
                    "target": scenario.target,
                    "start_tick": scenario.start_tick,
                    "duration": scenario.duration,
                    "magnitude": scenario.magnitude,
                }
                if scenario else None
            ),
            "episode": episode.to_dict() if episode else None,
            "transitions": [list(t) for t in run.transitions],
            "hypotheses": [h.to_dict() for h in hypotheses],
            "diagnosis_path": diagnosis.path if diagnosis else None,
            "plan": run.plan.to_dict() if run.plan else None,
            "action_results": [
                {
                    "runbook_id": rb_id,
                    "action": res.action,
                    "target": res.target,
                    "tick": res.tick,
                    "success": res.success,
                    "detail": res.detail,
                }
                for rb_id, res in run.action_results
            ],
            "ledger": ledger,
            "deferred_subtasks": [d.to_dict() for d in run.deferred_subtasks],
        }
        row_line = _dump(row)
        self.rows.append(row)
        self._report_lines.append(row_line)
        traces = _traces_json(run.pack_traces, self._trace_memo)
        self._episode_lines.append(_dump_spliced(record, {"pack_traces": traces, "row": row_line}))
        self._transition_lines += [
            f"{run.episode_id}\t{t.tick}\t{t.phase_from}\t{t.event}\t{t.phase_to}\t{t.budget_total:.4f}"
            for t in run.transitions
        ]
        if run.learning is not None:
            self._learning.append(run.learning)

    def close(self, loop: AgentLoop) -> dict:
        """Write every file of the run that `loop` played, and return the
        aggregates of its report trailer."""
        memories, out = loop.memories, self.out_dir
        aggregates = compute_aggregates(self.rows)
        aggregates["rules_validated"] = loop.active_rule_count()
        aggregates["rules_retired"] = sum(1 for r in memories.kg.rules.values() if r.status == "retired")
        aggregates["rules_mined_total"] = sum(len(rep.mined) for rep in self._learning)

        for name, lines in (
            ("report.jsonl", self._report_lines + [_dump({"aggregates": aggregates})]),
            ("episodes.jsonl", self._episode_lines),
            ("transitions.log", self._transition_lines),
            ("kg.tsv", memories.kg.export_tsv()),
            ("episodic.jsonl", memories.episodic.export_jsonl()),
            ("rules.jsonl", rules_jsonl(memories.kg)),
        ):
            with open(out / name, "w") as f:  # each line ends in a newline
                f.write("\n".join(lines))
                f.write("\n")
        # A rerun into the same directory leaves no context of an earlier run.
        for path in out.glob("context_*.csv"):
            if re.fullmatch(r"context_\d{3,}\.csv", path.name):
                path.unlink()
        for i, report in enumerate(self._learning):
            (out / f"context_{i + 1:03d}.csv").write_text(report.context.to_csv())
        return aggregates


def read_run(path: str | Path) -> list[dict]:
    """The episode records of the episodes.jsonl at `path`, in episode
    order; each holds its report row under `row`."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"episodes file not found: {p}")
    lines = p.read_bytes().splitlines()
    if not lines:
        raise ConfigError(f"episodes file is empty: {p}")
    records = []
    for n, line in enumerate(lines, 1):
        try:
            obj = json.loads(line)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"{p}:{n}: not JSON: {exc}") from None
        if n == 1:
            if not isinstance(obj, dict) or obj.get("format") != EPISODES_FORMAT:
                raise ConfigError(f"{p}:1: not an episodes file")
            if obj.get("version") != EPISODES_VERSION:
                raise ConfigError(f"{p}:1: episodes version {obj.get('version')!r}, not {EPISODES_VERSION}")
        elif (
            isinstance(obj, dict) and obj.keys() == _RECORD_KEYS
            and isinstance(obj["row"], dict) and obj["row"].keys() == _ROW_KEYS
        ):
            records.append(obj)
        else:
            raise ConfigError(f"{p}:{n}: not an episode record")
    return records


def replay(episodes_path: str | Path, episode_id: str) -> str:
    """Reconstruct a human-readable transcript for one recorded episode."""
    record = next(
        (rec for rec in read_run(episodes_path) if rec["row"]["episode_id"] == episode_id), None
    )
    if record is None:
        raise KeyError(f"episode {episode_id!r} not found in {Path(episodes_path)}")

    row = record["row"]
    out = [f"episode {episode_id}"]
    scen = record.get("scenario")
    if scen:
        dur = scen["duration"] if scen["duration"] is not None else "persistent"
        out.append(
            f"fault: {scen['kind']} @ {scen['target']} "
            f"(magnitude {scen['magnitude']}, start {scen['start_tick']}, duration {dur})"
        )
    out.append("transitions:")
    for tick, frm, event, to, total in record["transitions"]:
        out.append(f"  tick {tick:>5}  {frm:<10} --{event}--> {to}  (budget {total:.2f})")
    out.append(f"diagnosis ({record['diagnosis_path']}):")
    for i, h in enumerate(record["hypotheses"], 1):
        via = f" via {h['via_rule']}" if h["via_rule"] else ""
        out.append(
            f"  {i}. {h['fault_kind']} @ {h['suspect_entity']} "
            f"score={h['score']:.3f}{via}"
        )
        out.append(f"     evidence: {', '.join(h['evidence'])}")
    plan = record.get("plan")
    if plan:
        for entry in plan["entries"]:
            steps = "; ".join(f"{a} @ {t}" for a, t in entry["actions"])
            out.append(f"plan [{entry['runbook_id']}]: {steps}")
        out.append(
            f"stop condition: {plan['stop_attribute']} clear on "
            f"{', '.join(plan['stop_entities'])}"
        )
    if record["action_results"]:
        out.append("actions:")
        for res in record["action_results"]:
            status = "success" if res["success"] else "failed"
            out.append(
                f"  [{res['runbook_id']}] {res['action']} @ {res['target']} "
                f"tick {res['tick']} -> {status} ({res['detail']})"
            )
    if row["path"] == "no_incident":
        out.append("outcome: no incident; no alert came within the wait")
    elif row["resolved"]:
        out.append(
            f"outcome: resolved in {row['ticks_to_resolve']} ticks; "
            f"compute {row['compute_total']:.2f} units, {row['tool_calls']} tool calls"
        )
    else:
        out.append(
            f"outcome: escalated ({row['escalation_reason']}); "
            f"compute {row['compute_total']:.2f} units, {row['tool_calls']} tool calls"
        )
    return "\n".join(out) + "\n"
