"""Conditional forgetting: when a node is decommissioned, episodes tied to it
are tombstoned and any rule whose entire evidence lived on that node is
retired — it stops appearing in context packs and stops steering diagnoses.
If the same pattern recurs on other hardware, it must be re-proven from
fresh evidence.

Run from the repository root:  python3 demos/06_conditional_forgetting.py
"""
import json
import tempfile
from pathlib import Path

from opsloop.artifacts import read_run
from opsloop.runner import load_config, run

CONFIG = (Path(__file__).resolve().parent.parent / "configs"
          / "decommission_forgetting.json")
RULE = "rule:cpu_high+disk_high=>cause_noisy_neighbor+resolved_by_throttle_tenant"


def banner(text: str) -> None:
    print(f"\n=== {text} " + "=" * max(0, 70 - len(text)))


def main() -> None:
    config = load_config(CONFIG)
    scripted = [f"{s.kind}@{s.target}" for s in config.scenario]
    print("scripted faults, one per episode:")
    for i, s in enumerate(scripted, start=1):
        print(f"  ep-{i:04d}: {s}")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        report = run(config, out)

        banner("the rule's lifetime, episode by episode")
        print(f"{'episode':<9} {'fault':<22} {'path':<14} {'rules live':>10}")
        for row in report.rows:
            print(f"{row['episode_id']:<9} {row['fault_kind']:<22} "
                  f"{row['path']:<14} {row['rules_active']:>10}")

        records = read_run(out / "episodes.jsonl")
        banner("what happened at each turn")
        print("ep-0001..5: noisy neighbor on node-3, diagnosed by graph walk;")
        print("            the learning pass after ep-0005 distills the rule")
        used = records[5]["hypotheses"][0].get("via_rule")
        print(f"ep-0006:    diagnosis cites {used}")
        print("ep-0007:    node-3 is decommissioned; its episodes are")
        print("            tombstoned, and the rule's evidence is now all")
        print("            dead, so the rule is retired in the same episode")
        for rec in records[7:]:
            eid = rec["row"]["episode_id"]
            in_pack = any(entry["key"] == f"rules:{RULE}"
                          for trace in rec["pack_traces"] for entry in trace)
            via = {h["via_rule"] for h in rec["hypotheses"] if h["via_rule"]}
            print(f"{eid}:    rule in pack: {in_pack}; via_rule: "
                  f"{sorted(via) or 'none'}; path {rec['row']['path']}; "
                  f"correct {rec['row']['correct']}")

        banner("re-proven, not resurrected from dead evidence")
        final = {json.loads(l)["rule_id"]: json.loads(l)
                 for l in (out / "rules.jsonl").read_text().splitlines()}
        reborn = final[RULE]
        print(f"after the final learning pass the rule is back "
              f"({reborn['status']}), but its evidence is "
              f"{sorted(reborn['provenance'])}")
        print("— only episodes from the new node, none from node-3")


if __name__ == "__main__":
    main()
