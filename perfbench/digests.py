#!/usr/bin/env python3
"""sha256 of whole run directories, to show that a change kept every byte.

    python3 perfbench/digests.py            # print the digests
    python3 perfbench/digests.py --check    # compare with reference_digests.json
    python3 perfbench/digests.py --write    # make reference_digests.json anew

Runs the three shipped configs (`configs/*.json`) and one round of each
episode workload at seed 1, each into its own directory under
`.perfbench_out/digests/`, and prints one digest per run directory. The
digests do not depend on PYTHONHASHSEED. A change that means to move the
artifacts writes the reference anew and says why.
"""
from __future__ import annotations

import argparse
import json
import sys

from run import OUT, ROOT, SIZES, load_program

REFERENCE = ROOT / "perfbench" / "reference_digests.json"
WORKLOAD_SEED = 1


def digests() -> dict[str, str]:
    load_program()
    import checks
    import workloads
    from opsloop.runner import load_config, run

    out: dict[str, str] = {}
    for path in sorted((ROOT / "configs").glob("*.json")):
        target = workloads.reset_dir(OUT / "digests" / path.stem)
        run(load_config(path), target)
        out[f"configs/{path.name}"] = checks.dir_digest(target)
    for name in ("fleet_wide", "history_long"):
        workload = workloads.make(name, WORKLOAD_SEED, SIZES["full"], OUT / "digests")
        workload.setup()
        workload.prepare()
        workload.round()
        out[f"{name} seed={WORKLOAD_SEED}"] = checks.dir_digest(workload.out)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--write", action="store_true")
    args = parser.parse_args()
    found = digests()
    for name, digest in found.items():
        print(f"sha256 {digest} {name}")
    if args.write:
        REFERENCE.write_text(json.dumps(found, indent=2, sort_keys=True) + "\n")
        return 0
    if args.check:
        reference = json.loads(REFERENCE.read_text())
        changed = sorted(k for k in reference.keys() | found.keys()
                         if reference.get(k) != found.get(k))
        for name in changed:
            print(f"differs from the reference: {name}", file=sys.stderr)
        return 1 if changed else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
