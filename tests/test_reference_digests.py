"""Byte contract: every shipped config writes exactly the run directory
recorded in perfbench/reference_digests.json."""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from opsloop.runner import load_config, run

from conftest import CONFIG_DIR

REFERENCE = CONFIG_DIR.parent / "perfbench" / "reference_digests.json"


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
