"""Byte contract: every shipped config, and one seed-1 round of each
generated-fleet workload of perfbench, writes exactly the run directory
recorded in perfbench/reference_digests.json."""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from opsloop.runner import load_config, run

from conftest import CONFIG_DIR

PERFBENCH = CONFIG_DIR.parent / "perfbench"
REFERENCE = PERFBENCH / "reference_digests.json"


def dir_digest(path: Path) -> str:
    """sha256 over the names and bytes of every file in a run directory,
    hashed as perfbench/checks.py hashes it."""
    h = hashlib.sha256()
    for p in sorted(path.iterdir()):
        if p.is_file():
            h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_shipped_config_run_matches_reference_digest(name, tmp_path):
    reference = json.loads(REFERENCE.read_text())
    run(load_config(CONFIG_DIR / name), tmp_path)
    assert dir_digest(tmp_path) == reference[f"configs/{name}"]


@pytest.mark.parametrize("name", ["fleet_wide", "history_long"])
def test_generated_fleet_round_matches_reference_digest(name, tmp_path, monkeypatch):
    # The 320-pod fleet's ToR blast sets leave the most series to score;
    # the 400-episode history runs every learning pass and decommission.
    # One round as `perfbench/digests.py` runs it, written under tmp_path.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import digests
    import workloads

    workload = workloads.make(name, digests.WORKLOAD_SEED, digests.SIZES["full"], tmp_path)
    workload.setup()
    workload.prepare()
    workload.round()
    reference = json.loads(REFERENCE.read_text())
    assert dir_digest(workload.out) == reference[f"{name} seed={digests.WORKLOAD_SEED}"]
