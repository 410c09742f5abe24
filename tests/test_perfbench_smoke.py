"""The benchmark at toy size: every workload runs and passes the checks
it makes apart from the program (FSM legality, ledger sums, rule support
and confidence by direct count, the rule set against the closure of the
rows), and the traced run times every layer."""
from __future__ import annotations

import importlib.util
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


def _layer_times() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_TIMES


def test_traced_smoke_run_times_every_layer():
    # Each layer is a span around a wrapped entry point; code that stops
    # calling through one leaves its layer at zero instead of failing.
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert all(last[workload]["correct"] is True for workload in
               ("fleet_wide", "history_long", "learn_noisy")), last
    for workload in ("fleet_wide", "history_long"):
        metrics = last[workload]["metrics"]
        for layer in _layer_times():
            assert metrics[f"{layer}_ms"]["value"] > 0, (workload, layer)
