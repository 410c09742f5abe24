"""The benchmark at toy size: every workload runs and passes the checks
it makes apart from the program (FSM legality, ledger sums, rule support
and confidence by direct count, the rule set against the closure of the
rows)."""
from __future__ import annotations

import json
import subprocess
import sys

from conftest import CONFIG_DIR

ROOT = CONFIG_DIR.parent


def test_perfbench_smoke_run_is_correct():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"fleet_wide", "history_long", "learn_noisy"}
    for workload, result in last.items():
        assert result["correct"] is True, workload
