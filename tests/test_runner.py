"""Run configuration, scripted runs, artifacts, replay, and the CLI contract."""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from opsloop import orchestrator
from opsloop.artifacts import _dump, _dump_spliced, _traces_json, compute_aggregates, read_run, replay
from opsloop.cli import export_kg, main
from opsloop.cluster import ClusterSim
from opsloop.config import DETECT_WINDOW, SYMPTOM_VOCAB, ActionKind, ConfigError, FaultKind
from opsloop.contextpack import TraceEntry
from opsloop.ingest import TelemetryFeed
from opsloop.orchestrator import AgentLoop, legal_transition_triples
from opsloop.runner import ScenarioTemplate, config_from_dict, load_config, run

from conftest import CONFIG_DIR, tiny_topology_spec


def tiny_run_dict(episodes=3, **overrides) -> dict:
    base = {
        "seed": 13,
        "episodes": episodes,
        "topology": tiny_topology_spec(),
        "scenario": [
            {"kind": "noisy_neighbor", "target": "n1", "magnitude": 0.8,
             "duration": 30, "lead": 2}
        ],
        "seed_runbooks": [
            {"id": "rb-throttle", "trigger": ["cpu_high", "disk_high"],
             "steps": ["throttle_tenant"]}
        ],
        "params": {"learning_cadence": 2, "subgraph_radius": 3},
    }
    base.update(overrides)
    return base


# -- config validation ---------------------------------------------------------


def test_config_accepts_the_full_shape():
    cfg = config_from_dict(tiny_run_dict())
    assert cfg.seed == 13 and cfg.episodes == 3
    assert cfg.scenario[0].kind is FaultKind.NOISY_NEIGHBOR
    assert cfg.scenario[0].target == "n1" and cfg.scenario[0].lead == 2
    assert cfg.params.learning_cadence == 2
    assert cfg.blocked_policy_tags == frozenset()


@pytest.mark.parametrize(
    "mutation, message",
    [
        (lambda d: d.pop("seed"), "missing required config key"),
        (lambda d: d.pop("topology"), "missing required config key"),
        (lambda d: d.update(episodes=-1), "episodes must be >= 0"),
        (lambda d: d.update(topology={"racks": "garbage"}), "bad topology"),
        (lambda d: d["scenario"][0].update(kind="gremlins"), r"scenario\[0\] invalid"),
        (lambda d: d["scenario"][0].update(target="ghost"), "targets unknown entity"),
        (lambda d: d["scenario"][0].update(lead=0), "lead must be >= 1"),
        (lambda d: d.update(scenario=[]), "needs a non-empty scenario"),
        (lambda d: d["params"].update(warp_factor=9), "unknown params keys"),
        (lambda d: d["seed_runbooks"][0].pop("steps"), r"seed_runbooks\[0\] missing 'steps'"),
    ],
)
def test_config_rejects_bad_shapes(mutation, message):
    raw = tiny_run_dict()
    mutation(raw)
    with pytest.raises(ConfigError, match=message):
        config_from_dict(raw)


def test_config_rejects_non_object():
    with pytest.raises(ConfigError, match="JSON object"):
        config_from_dict(["not", "a", "dict"])


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)


def test_load_config_reads_real_configs(dns_config_path):
    cfg = load_config(dns_config_path)
    assert cfg.episodes == 20
    assert cfg.params.learning_cadence == 5


def test_config_rejects_a_cycle_that_decommissions_a_node_twice(mixed_config_path):
    # mixed_faults ends its cycle of five with the decommission of node-6;
    # a tenth episode would decommission it again, raise no alert, and
    # stop the run before it wrote anything.
    raw = json.loads(mixed_config_path.read_text())
    raw["episodes"] = 10
    with pytest.raises(ConfigError, match=r"ep-0010: scenario\[4\] node_decommission targets 'node-6'"):
        config_from_dict(raw)


def test_config_rejects_a_fault_on_a_decommissioned_node():
    decommission = {"kind": "node_decommission", "target": "n1", "lead": 2}
    noisy = tiny_run_dict()["scenario"][0]
    with pytest.raises(ConfigError, match="ep-0002: scenario\\[1\\] noisy_neighbor targets 'n1'"):
        config_from_dict(tiny_run_dict(episodes=2, scenario=[decommission, noisy]))
    # the other order can fire: the fault comes before the node goes
    assert config_from_dict(tiny_run_dict(episodes=2, scenario=[noisy, decommission])).episodes == 2


@pytest.mark.parametrize(
    "change, message",
    [
        ({"magnitude": 0}, r"scenario\[0\] fault magnitude must be in \(0, 1\]"),
        ({"magnitude": 1.5}, r"scenario\[0\] fault magnitude must be in \(0, 1\]"),
        ({"duration": 0}, r"scenario\[0\] dns_error_burst needs a positive duration"),
        ({"target": "node-1"}, r"scenario\[0\] dns_error_burst targets a Service, got Node 'node-1'"),
        ({"kind": "node_decommission", "target": "node-1", "magnitude": 10 ** 400},
         r"scenario\[0\] fault magnitude must be in \(0, 1\]"),
    ],
    ids=["magnitude_0", "magnitude_1.5", "duration_0", "dns_burst_on_a_node",
         "decommission_magnitude_huge"],
)
def test_config_rejects_what_inject_would_reject(dns_config_path, change, message):
    # Each of these once loaded, then raised inside run() and left an
    # empty run directory.
    raw = json.loads(dns_config_path.read_text())
    raw["scenario"][0].update(change)
    with pytest.raises(ConfigError, match=message):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "param, bad, least",
    [
        ("buffer_capacity", -1, 1),
        ("buffer_capacity", 0, 1),
        ("pack_budget", 0, 1),
        ("subgraph_radius", -1, 0),
        ("detect_window", 0, 1),
    ],
)
def test_out_of_range_loop_params_are_config_errors(
    dns_config_path, tmp_path, capsys, param, bad, least
):
    # Each bad value once loaded, then raised inside run() and left an
    # empty run directory.
    raw = json.loads(dns_config_path.read_text())
    raw["episodes"] = 6
    raw["params"][param] = bad
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, raw)), "--out", str(out_dir)]) == 1
    assert f"params.{param} must be >= {least}" in capsys.readouterr().err
    assert not out_dir.exists()
    raw["params"][param] = least
    assert getattr(config_from_dict(raw).params, param) == least


_NAN = float("nan")


@pytest.mark.parametrize(
    "param, bad, message",
    [
        # Learned after every episode.
        ("learning_cadence", 0, "must be >= 1"),
        ("learning_cadence", -1, "must be >= 1"),
        # Escalated every episode.
        ("verify_ticks", 0, "must be >= 1"),
        ("tool_call_limit", -1, "must be >= 0"),
        ("compute_limit", 0, "must be a finite number > 0, got 0"),
        # Timed every episode out idle.
        ("max_wait_ticks", -1, "must be >= 0"),
        # Loaded with no sign.
        ("escalation_after", 0, "must be >= 1"),
        ("episodic_k", -2, "must be >= 0"),
        ("retire_age_episodes", -1, "must be >= 0"),
        ("min_support", _NAN, r"must be a number in \[0, 1\], got nan"),
        ("min_support", 2, r"must be a number in \[0, 1\], got 2"),
        ("min_confidence", _NAN, r"must be a number in \[0, 1\], got nan"),
        ("min_confidence", -0.5, r"must be a number in \[0, 1\], got -0.5"),
        ("retire_confidence_floor", _NAN, r"must be a number in \[0, 1\], got nan"),
        ("retire_confidence_floor", 1.5, r"must be a number in \[0, 1\], got 1.5"),
        ("compute_limit", _NAN, "must be a finite number > 0, got nan"),
        ("compute_limit", float("inf"), "must be a finite number > 0, got inf"),
    ],
)
def test_loop_params_that_misbehave_are_config_errors(
    dns_config_path, tmp_path, capsys, param, bad, message
):
    # Each once loaded and ran to exit 0: cadence and wait values that
    # change what every episode does, and the rest with no sign at all.
    raw = json.loads(dns_config_path.read_text())
    raw["episodes"] = 2
    raw["params"][param] = bad
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, raw)), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("opsloop: config error: ")
    assert re.search(rf"params\.{param} {message}", err), err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "param, bad, kind",
    [
        ("pack_budget", "80", "an int"),
        ("pack_budget", True, "an int"),
        ("detect_window", 5.0, "an int"),
        ("max_wait_ticks", None, "an int"),
        ("min_support", "0.2", "a number"),
        ("compute_limit", False, "a number"),
        ("section_caps", [24], "an object"),
    ],
)
def test_loop_params_of_the_wrong_type_are_config_errors(
    dns_config_path, tmp_path, capsys, param, bad, kind
):
    # A string pack_budget once crashed the load with a TypeError (exit 2);
    # other wrong types loaded and then crashed the run.
    raw = json.loads(dns_config_path.read_text())
    raw["episodes"] = 2
    raw["params"][param] = bad
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, raw)), "--out", str(out_dir)]) == 1
    assert f"params.{param} must be {kind}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_params_must_be_an_object():
    with pytest.raises(ConfigError, match="params must be an object"):
        config_from_dict(tiny_run_dict(params=[["pack_budget", 80]]))


def test_a_float_param_takes_an_int(dns_config_path):
    raw = json.loads(dns_config_path.read_text())
    raw["params"].update(compute_limit=500)
    assert config_from_dict(raw).params.compute_limit == 500


@pytest.mark.parametrize(
    "caps, message",
    [
        ({"kg": 40}, r"params.section_caps names unknown sections \['kg'\]"),
        ({"kg_subgraph": "24"}, "params.section_caps.kg_subgraph must be an int >= 1, got '24'"),
        ({"rules": -1}, "params.section_caps.rules must be an int >= 1, got -1"),
        ({"rules": 2.5}, "params.section_caps.rules must be an int >= 1, got 2.5"),
        ({"rules": True}, "params.section_caps.rules must be an int >= 1, got True"),
        ({"episodic": 0}, "params.section_caps.episodic must be an int >= 1, got 0"),
    ],
)
def test_bad_section_caps_are_config_errors(dns_config_path, caps, message):
    raw = json.loads(dns_config_path.read_text())
    raw["params"]["section_caps"] = caps
    with pytest.raises(ConfigError, match=message):
        config_from_dict(raw)


def test_partial_section_caps_keep_the_default_caps_of_the_other_sections(
    dns_config_path, tmp_path
):
    # Once a partial override replaced the defaults, so every section it
    # did not name got a cap of one unit: ep-0001 packed one short-term
    # alert and one runbook, abstained and escalated.
    raw = json.loads(dns_config_path.read_text())
    raw["episodes"] = 2
    plain = run(config_from_dict(raw), tmp_path / "plain")
    raw["params"]["section_caps"] = {"kg_subgraph": 40, "task": 1}
    capped = run(config_from_dict(raw), tmp_path / "capped")
    included = [t.section for t in capped.episode_runs[0].pack_traces[0] if t.included]
    assert included.count("short_term") == 4 and included.count("runbooks") == 2
    assert capped.rows[0]["resolved"] and capped.rows[0]["correct"]
    # the subgraph fits under both caps and the task under a cap of 1, so
    # the run is the default run
    assert capped.rows == plain.rows
    assert [r.pack_traces for r in capped.episode_runs] == [r.pack_traces for r in plain.episode_runs]


def test_policy_must_bind_to_known_service():
    # Once this loaded and then raised inside run(), after the run
    # directory was made.
    raw = tiny_run_dict(policies=[{"id": "pol-x", "applies_to": ["svc-ghost"]}])
    with pytest.raises(ConfigError, match="pol-x"):
        config_from_dict(raw)


def _set(path, value):
    """A mutation that sets raw[path[0]][path[1]]... to `value`."""
    def mutate(raw):
        *head, last = path
        for key in head:
            raw = raw[key]
        raw[last] = value
    return mutate


@pytest.mark.parametrize(
    "mutation, message",
    [
        (_set(["seed"], "abc"), "seed must be an int, got 'abc'"),
        (_set(["seed"], 7.0), "seed must be an int, got 7.0"),
        (_set(["seed"], True), "seed must be an int, got True"),
        (_set(["seed"], -1), "seed must be >= 0"),
        (_set(["episodes"], 2.7), "episodes must be an int, got 2.7"),
        (_set(["episodes"], "6"), "episodes must be an int, got '6'"),
        (_set(["seed_runbooks", 0, "trigger"], "dns_error"),
         r"seed_runbooks\[0\].trigger must be a list of names in \['auth_failure'.*, got 'dns_error'"),
        # Loaded, and recurring_dns then resolved 0 of 20 episodes: no
        # alert carries the symptom the runbook waits for.
        (_set(["seed_runbooks", 0, "trigger"], ["dns_eror"]),
         r"seed_runbooks\[0\].trigger must be a list of names in .*, got \['dns_eror'\]"),
        (_set(["seed_runbooks", 0, "steps"], "flush_dns_cache"),
         r"seed_runbooks\[0\].steps must be a list of names in \['drain_node'"),
        (_set(["seed_runbooks", 0, "steps"], ["reboot_everything"]),
         r"seed_runbooks\[0\].steps must be a list of names in .*, got \['reboot_everything'\]"),
        (_set(["seed_runbooks", 0, "steps"], []), r"seed_runbooks\[0\].steps must not be empty"),
        (_set(["seed_runbooks", 1, "id"], "rb-flush-dns"),
         r"seed_runbooks\[1\] id must be a new string, got 'rb-flush-dns'"),
        (_set(["seed_runbooks", 1, "policy_tags"], "risky"),
         r"seed_runbooks\[1\].policy_tags must be a list of strings, got 'risky'"),
        (lambda raw: raw["policies"][0].pop("id"), r"policies\[0\] id must be a string, got None"),
        (_set(["policies", 0, "applies_to"], ["svc-ghost"]),
         r"policy 'policy-change-freeze' applies_to must be a list of names in .*, got \['svc-ghost'\]"),
        (_set(["blocked_policy_tags"], "risky"), "blocked_policy_tags must be a list of strings"),
        # Loaded, and the second policy was merged into the first in kg.tsv.
        (lambda raw: raw["policies"].append({"id": raw["policies"][0]["id"], "applies_to": ["svc-dns"]}),
         r"policies\[1\] duplicate id: 'policy-change-freeze' is already a Policy"),
        (_set(["policies", 0, "id"], "rack-2"),
         r"policies\[0\] duplicate id: 'rack-2' is already a Rack"),
        (_set(["policies", 0, "id"], "tor-2"),
         r"policies\[0\] duplicate id: 'tor-2' is already a ToRSwitch"),
        (_set(["policies", 0, "id"], "node-3"),
         r"policies\[0\] duplicate id: 'node-3' is already a Node"),
        (_set(["policies", 0, "id"], "pod-dns-1"),
         r"policies\[0\] duplicate id: 'pod-dns-1' is already a Pod"),
        (_set(["policies", 0, "id"], "svc-payments"),
         r"policies\[0\] duplicate id: 'svc-payments' is already a Service"),
        (_set(["policies", 0, "id"], "dns_error_burst"),
         r"policies\[0\] duplicate id: 'dns_error_burst' is already a FaultKind"),
        (_set(["policies", 0, "id"], "flush_dns_cache"),
         r"policies\[0\] duplicate id: 'flush_dns_cache' is already an Action"),
        (_set(["policies", 0, "id"], "rule:dns_error"),
         r"policies\[0\] id 'rule:dns_error' starts with a learned-id prefix"),
        # With 7 episodes this once ran five, then crashed at the first
        # learning pass, when the attribute set of that id was registered.
        (lambda raw: (raw.update(episodes=7),
                      raw["policies"][0].update(id="aset:dns_error+latency_high")),
         r"policies\[0\] id 'aset:dns_error\+latency_high' starts with a learned-id prefix"),
        # With sigma = 0 the detector fired on a quiet window (the EWMA of
        # 0.4 rounds to 0.39999999999999997) and every episode abstained; a
        # negative level made every episode escalate.
        (_set(["params", "noise_pct"], 0), "params.noise_pct must be a finite number > 0, got 0"),
        (_set(["params", "noise_pct"], -0.02),
         "params.noise_pct must be a finite number > 0, got -0.02"),
        (_set(["params", "noise_pct"], float("nan")),
         "params.noise_pct must be a finite number > 0, got nan"),
        (_set(["params", "noise_pct"], float("inf")),
         "params.noise_pct must be a finite number > 0, got inf"),
    ],
    ids=["seed_str", "seed_float", "seed_bool", "seed_negative", "episodes_float", "episodes_str",
         "trigger_str", "trigger_unknown_symptom", "steps_str", "steps_unknown_action", "steps_empty",
         "runbook_id_twice", "policy_tags_str", "policy_without_id", "policy_on_unknown_service",
         "blocked_tags_str", "policy_id_twice", "policy_id_rack", "policy_id_switch",
         "policy_id_node", "policy_id_pod", "policy_id_service", "policy_id_fault_kind",
         "policy_id_action", "policy_id_rule", "policy_id_aset", "noise_pct_zero", "noise_pct_negative",
         "noise_pct_nan", "noise_pct_inf"],
)
def test_bad_top_level_values_runbooks_and_policies_are_config_errors(
    dns_config_path, tmp_path, capsys, mutation, message
):
    # Each once loaded and then crashed the run or left an empty run
    # directory, crashed the load (exit 2; a negative seed at the first
    # tick), or loaded wrong: a string
    # trigger became the set of its letters and a float episode count was
    # truncated. A policy id that names a graph entity raised OntologyError
    # when the policy entered the graph.
    raw = json.loads(dns_config_path.read_text())
    raw["episodes"] = 2
    mutation(raw)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, raw)), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("opsloop: config error: ")
    assert re.search(message, err), err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "mutation, message",
    [
        (_set(["scenario", 0, "duration"], 12.7), r"scenario\[0\]\.duration must be an int, got 12\.7"),
        (_set(["scenario", 0, "duration"], "12"), r"scenario\[0\]\.duration must be an int, got '12'"),
        (_set(["scenario", 0, "duration"], None), r"scenario\[0\]\.duration must be an int, got None"),
        (_set(["scenario", 0, "magnitude"], "0.5"),
         r"scenario\[0\]\.magnitude must be a number, got '0\.5'"),
        (_set(["scenario", 0, "magnitude"], True), r"scenario\[0\]\.magnitude must be a number, got True"),
        (_set(["scenario", 0, "lead"], True), r"scenario\[0\]\.lead must be an int, got True"),
        (_set(["scenario", 0, "target"], ["svc-dns"]),
         r"scenario\[0\]\.target must be a string, got \['svc-dns'\]"),
        (_set(["scenario", 0, "kind"], 3), r"scenario\[0\]\.kind must be a string, got 3"),
        (_set(["scenario"], "dns"), "scenario must be a list of objects"),
        (_set(["scenario", 0], "dns"), "scenario must be a list of objects"),
        (lambda raw: raw["scenario"][0].update(start_tick=5),
         r"scenario\[0\] needs kind and target, and keys in \['kind', 'target', 'magnitude', "
         r"'duration', 'lead'\]; got \['duration', 'kind', 'lead', 'magnitude', 'start_tick', 'target'\]"),
        (lambda raw: raw["scenario"][0].pop("target"),
         r"scenario\[0\] needs kind and target, .*; got \['duration', 'kind', 'lead', 'magnitude'\]"),
    ],
    ids=["duration_float", "duration_str", "duration_null", "magnitude_str", "magnitude_bool",
         "lead_bool", "target_list", "kind_int", "scenario_str", "row_str", "unknown_key",
         "no_target"],
)
def test_scenario_rows_are_checked_not_cast(dns_config_path, tmp_path, capsys, mutation, message):
    # A float, string or bool duration, magnitude or lead once loaded cast
    # (12.7 as 12, true as 1); a string scenario or row, a list target and
    # a null duration crashed the load with a TypeError (exit 2).
    raw = json.loads(dns_config_path.read_text())
    raw["episodes"] = 2
    mutation(raw)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, raw)), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("opsloop: config error: ")
    assert re.search(message, err), err
    assert not out_dir.exists()


def _rename_key(path, old, new):
    """A mutation that renames key `old` of raw[path[0]][path[1]]... to `new`."""
    def mutate(raw):
        for key in path:
            raw = raw[key]
        raw[new] = raw.pop(old)
    return mutate


@pytest.mark.parametrize(
    "mutation, message",
    [
        (_rename_key([], "episodes", "episode"), r"unknown config keys: \['episode'\]"),
        (_rename_key(["seed_runbooks", 1], "policy_tags", "policy_tag"),
         r"unknown seed_runbooks\[1\] keys: \['policy_tag'\]"),
        (_rename_key(["policies", 0], "applies_to", "applies"), r"unknown policies\[0\] keys: \['applies'\]"),
        (_rename_key(["topology"], "dependencies", "dependency"), r"unknown topology keys: \['dependency'\]"),
        (_set(["topology", "racks", 1, "generation"], "gen-8"),
         r"unknown topology.racks\[1\] keys: \['generation'\]"),
        (_rename_key(["topology", "racks", 0, "nodes", 1], "generation", "gen"),
         r"unknown topology.racks\[0\].nodes\[1\] keys: \['gen'\]"),
        (_set(["topology", "racks", 2, "nodes", 0, "pods", 1, "replicas"], 2),
         r"unknown topology.racks\[2\].nodes\[0\].pods\[1\] keys: \['replicas'\]"),
    ],
    ids=["config", "runbook", "policy", "topology", "rack", "node", "pod"],
)
def test_unknown_keys_are_config_errors(dns_config_path, tmp_path, capsys, mutation, message):
    # Each once loaded as if the key were left out: a misspelt "episodes"
    # ran 0 episodes, and the others dropped a policy's services, a
    # runbook's tags, the call graph or a node's generation.
    raw = json.loads(dns_config_path.read_text())
    raw["episodes"] = 2
    mutation(raw)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, raw)), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("opsloop: config error: ")
    assert re.search(message, err), err
    assert not out_dir.exists()


def test_scenario_rows_take_the_template_defaults(dns_config_path):
    raw = json.loads(dns_config_path.read_text())
    raw["scenario"] = [
        {"kind": "dns_error_burst", "target": "svc-dns"},
        {"kind": "dns_error_burst", "target": "svc-dns", "magnitude": 1},
    ]
    bare, whole = config_from_dict(raw).scenario
    assert bare == ScenarioTemplate(FaultKind.DNS_ERROR_BURST, "svc-dns")
    # an int magnitude is kept as a float, so the artifacts say 1.0
    assert whole.magnitude == 1.0 and type(whole.magnitude) is float


# -- aggregates (pure function) --------------------------------------------------


def _row(eid, *, resolved=True, correct=True, ticks=4, reasoner=3.0, kind="noisy_neighbor",
         path="propagation"):
    return {
        "episode_id": eid,
        "fault_kind": kind,
        "correct": correct,
        "resolved": resolved,
        "path": path,
        "ticks_to_resolve": ticks if resolved else None,
        "compute": {"reasoner": reasoner, "detector": 1.0},
    }


def test_compute_aggregates_empty():
    agg = compute_aggregates([])
    assert agg["episodes"] == 0 and agg["top1_accuracy"] is None


def test_compute_aggregates_segments_and_totals():
    rows = [
        _row("ep-1", reasoner=10.0),
        _row("ep-2", reasoner=10.0, correct=False),
        _row("ep-3", reasoner=2.0),
        _row("ep-4", resolved=False, reasoner=2.0),
        _row("ep-5", reasoner=1.0),
        _row("ep-6", reasoner=1.0),
        _row("ep-7", reasoner=1.0),
    ]
    agg = compute_aggregates(rows)
    assert agg["episodes"] == 7 and agg["resolved"] == 6 and agg["escalated"] == 1
    assert agg["top1_accuracy"] == 6 / 7
    assert agg["compute_total"] == {"detector": 7.0, "reasoner": 27.0}
    seg = agg["segments"]
    # n=7 -> third=2: first two, middle three, last two
    assert seg["first"]["episodes"] == ["ep-1", "ep-2"]
    assert seg["middle"]["episodes"] == ["ep-3", "ep-4", "ep-5"]
    assert seg["last"]["episodes"] == ["ep-6", "ep-7"]
    assert seg["first"]["reasoner_units"] == 20.0
    assert seg["last"]["reasoner_units"] == 2.0
    assert seg["first"]["top1_accuracy"] == 0.5
    assert seg["middle"]["mean_ticks_to_resolve"] == 4.0
    assert seg["last"]["mean_ticks_to_resolve"] == 4.0


def test_compute_aggregates_degenerate_sizes():
    one = compute_aggregates([_row("ep-1")])
    assert one["segments"]["first"]["episodes"] == ["ep-1"]
    assert one["segments"]["middle"]["episodes"] == []
    assert one["segments"]["last"]["episodes"] == []
    none_kind = compute_aggregates([_row("ep-1", kind=None)])
    assert none_kind["top1_accuracy"] is None


# -- scripted runs ------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny-run")
    report = run(config_from_dict(tiny_run_dict()), out)
    return report, out


def test_run_writes_all_artifacts(tiny_report):
    report, out = tiny_report
    for name in ("report.jsonl", "episodes.jsonl", "transitions.log", "kg.tsv",
                 "episodic.jsonl", "rules.jsonl", "context_001.csv"):
        assert (out / name).is_file(), name
    assert len(report.rows) == 3
    assert all(r["resolved"] and r["correct"] for r in report.rows)
    # cadence 2 over 3 episodes -> exactly one learning pass
    assert not (out / "context_002.csv").exists()


def test_report_jsonl_rows_and_aggregates_agree(tiny_report):
    report, out = tiny_report
    lines = (out / "report.jsonl").read_text().splitlines()
    assert len(lines) == 4  # three rows + aggregates trailer
    rows = [json.loads(ln) for ln in lines[:-1]]
    trailer = json.loads(lines[-1])["aggregates"]
    recomputed = compute_aggregates(rows)
    for key, value in recomputed.items():
        assert trailer[key] == value
    for key in ("rules_validated", "rules_retired", "rules_mined_total"):
        assert key in trailer
    assert trailer["rules_validated"] >= 1
    expected_row_keys = {
        "episode_id", "fault_kind", "fault_target", "top1_kind", "top1_entity",
        "correct", "resolved", "ticks_to_resolve", "start_tick", "end_tick",
        "attempts", "path", "escalation_reason", "compute", "compute_total",
        "tool_calls", "rules_active", "final_phase",
    }
    assert all(set(r) == expected_row_keys for r in rows)
    # after the cadence-2 learning pass, episode 3 rides the learned rule
    assert rows[2]["path"] == "rule_shortcut"
    assert rows[2]["rules_active"] >= 1


def test_transitions_log_is_auditable(tiny_report):
    _, out = tiny_report
    legal = legal_transition_triples()
    lines = (out / "transitions.log").read_text().splitlines()
    assert lines
    for line in lines:
        episode_id, tick, frm, event, to, budget = line.split("\t")
        assert episode_id.startswith("ep-")
        assert int(tick) >= 0 and float(budget) >= 0.0
        assert (frm, event, to) in legal


def test_episodes_jsonl_header_and_replay(tiny_report):
    _, out = tiny_report
    path = out / "episodes.jsonl"
    assert path.read_text().splitlines()[0] == '{"format":"opsloop-episodes","version":1}'
    transcript = replay(path, "ep-0002")
    assert "episode ep-0002" in transcript
    assert "fault: noisy_neighbor @ n1" in transcript
    assert "--alert_raised-->" in transcript
    assert "diagnosis" in transcript and "plan [rb-throttle]" in transcript
    assert "outcome: resolved" in transcript
    with pytest.raises(KeyError, match="ep-9999"):
        replay(path, "ep-9999")


def test_replay_rejects_non_episode_files(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        replay(tmp_path / "nope.jsonl", "ep-0001")
    junk = tmp_path / "junk.jsonl"
    junk.write_text('{"format":"something-else"}\n')
    with pytest.raises(ConfigError, match="not an episodes file"):
        replay(junk, "ep-0001")
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ConfigError, match="empty"):
        replay(empty, "ep-0001")
    # Each of these once exited 2, or 1 with "not found: 'transitions'"
    # for a version-2 file or a record of a row alone; the error names the
    # file and the line.
    header = '{"format":"opsloop-episodes","version":1}\n'
    record = '{"row":{"episode_id":"ep-0001"}}\n'
    for name, text, message in [
        ("v2.jsonl", '{"format":"opsloop-episodes","version":2}\n' + record,
         "v2.jsonl:1: episodes version 2"),
        ("torn.jsonl", header + record[:9] + "\n", "torn.jsonl:2: not JSON"),
        ("list.jsonl", '["opsloop-episodes", 1]\n' + record, "list.jsonl:1: not an episodes file"),
        ("rowless.jsonl", header + "[]\n", "rowless.jsonl:2: not an episode record"),
        ("bare.jsonl", header + record, "bare.jsonl:2: not an episode record"),
        # every record key, but a row of the episode id alone
        ("thin.jsonl", header + json.dumps({
            "row": {"episode_id": "ep-0001"}, "scenario": None, "episode": None,
            "transitions": [], "hypotheses": [], "diagnosis_path": None, "plan": None,
            "action_results": [], "ledger": None, "deferred_subtasks": [], "pack_traces": [],
        }) + "\n", "thin.jsonl:2: not an episode record"),
    ]:
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(message)):
            replay(path, "ep-0001")
        assert main(["replay", "--episodes", str(path), "--episode", "ep-0001"]) == 1


@pytest.fixture(scope="module", params=["recurring_dns", "mixed_faults", "decommission_forgetting"])
def shipped_episodes(request, tmp_path_factory) -> Path:
    """The episodes.jsonl of a run of one shipped config."""
    out = tmp_path_factory.mktemp(request.param)
    run(load_config(CONFIG_DIR / f"{request.param}.json"), out)
    return out / "episodes.jsonl"


def test_every_hypothesis_cites_only_packed_keys(shipped_episodes):
    # What the reasoner's docstring promises: a diagnosis can be audited
    # against exactly what it was shown.
    cited = 0
    for rec in read_run(shipped_episodes):
        packed = {e["key"] for trace in rec["pack_traces"] for e in trace if e["included"]}
        for h in rec["hypotheses"]:
            assert set(h["evidence"]) <= packed, (rec["row"]["episode_id"], h)
            cited += 1
    assert cited


def _reference_transcript(record: dict, episode_id: str) -> str:
    """What `replay` printed for a record before it read through
    `read_run`: its formatting, kept as it was."""
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


def test_replay_prints_the_reference_transcript_of_every_episode(shipped_episodes):
    records = read_run(shipped_episodes)
    assert records
    for rec in records:
        episode_id = rec["row"]["episode_id"]
        assert replay(shipped_episodes, episode_id) == _reference_transcript(rec, episode_id)


def test_two_runs_same_seed_are_byte_identical(tmp_path):
    cfg = tiny_run_dict()
    a, b = tmp_path / "a", tmp_path / "b"
    run(config_from_dict(cfg), a)
    run(config_from_dict(cfg), b)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_a_rerun_into_one_directory_leaves_only_its_own_files(dns_config_path, tmp_path):
    # The 20-episode run writes context_001.csv to context_004.csv, the
    # 6-episode run only context_001.csv; the other three once stayed.
    raw = json.loads(dns_config_path.read_text())
    run(config_from_dict(raw), tmp_path / "rerun")
    raw["episodes"] = 6
    run(config_from_dict(raw), tmp_path / "rerun")
    run(config_from_dict(raw), tmp_path / "fresh")

    def files(d):
        return {p.name: p.read_bytes() for p in d.iterdir()}

    assert files(tmp_path / "rerun") == files(tmp_path / "fresh")


@pytest.mark.parametrize(
    "config, params",
    [
        ("recurring_dns", {"max_wait_ticks": 1}),
        ("mixed_faults", {"noise_pct": 5.0}),
        ("decommission_forgetting", {"noise_pct": 5.0}),
    ],
)
def test_an_idle_timeout_is_a_no_incident_row_and_the_run_goes_on(tmp_path, capsys, config, params):
    # Each once raised LoopError at the first episode that saw no alert:
    # exit 2 and an empty run directory.
    raw = json.loads((CONFIG_DIR / f"{config}.json").read_text())
    raw["params"].update(params)
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 0
    rows = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()[:-1]]
    assert len(rows) == raw["episodes"]
    idle = [r for r in rows if r["path"] == "no_incident"]
    assert idle
    assert all(r["final_phase"] == "Idle" and not r["resolved"] and r["attempts"] == 0 for r in idle)
    timeouts = [line.split("\t") for line in (out / "transitions.log").read_text().splitlines()
                if "\tidle_timeout\t" in line]
    assert [t[0] for t in timeouts] == [r["episode_id"] for r in idle]
    assert all(t[2:5] == ["Idle", "idle_timeout", "Idle"] for t in timeouts)
    assert "outcome: no incident" in replay(out / "episodes.jsonl", idle[0]["episode_id"])
    # An episode that saw no incident was never escalated; with
    # max_wait_ticks 1, recurring_dns once reported 20 of 20 escalated.
    aggregates = json.loads((out / "report.jsonl").read_text().splitlines()[-1])["aggregates"]
    assert aggregates["escalated"] == len(rows) - aggregates["resolved"] - len(idle)
    if config == "recurring_dns":
        assert aggregates["escalated"] == 0 and len(idle) == len(rows)


def test_a_fault_far_ahead_is_skipped_to_not_stepped_to(dns_config_path, tmp_path):
    # Each episode times out 80 ticks in, and the drain passes its fault's
    # 10**9 ticks: stepped one by one, that took hours. The last episodes
    # run past tick 2**32.
    raw = json.loads(dns_config_path.read_text())
    raw["scenario"][0]["lead"] = 10**9
    start = time.perf_counter()
    report = run(config_from_dict(raw), tmp_path / "out")
    assert time.perf_counter() - start < 1.0
    assert [r["path"] for r in report.rows] == ["no_incident"] * 20
    assert report.aggregates["escalated"] == 0


def _assert_same_files(a: Path, b: Path) -> None:
    """The run directories `a` and `b` hold the same files, byte for byte."""
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def _stepping_pass_to(feed, tick):
    """`TelemetryFeed.pass_to` that steps every tick it passes."""
    while feed.sim.tick < tick:
        feed.step()


def test_a_skipping_drain_writes_what_a_stepping_drain_writes(mixed_config_path, tmp_path, monkeypatch):
    # At the default radius no ToR fault is localised, so its 200 ticks are
    # drained after it escalates; the decommission's long lead times its
    # episode out, and it falls due inside the second ToR drain.
    raw = json.loads(mixed_config_path.read_text())
    del raw["params"]["subgraph_radius"]
    raw["episodes"] = 9
    raw["scenario"][1]["duration"] = 200
    raw["scenario"][4]["lead"] = 150
    drains = []  # the skips made between episodes; priming and the idle wait skip too
    skip_to, run_episode = ClusterSim.skip_to, AgentLoop.run_episode
    draining = False

    def recorded(sim, tick):
        if draining:
            drains.append((sim.tick, tick))
        skip_to(sim, tick)

    def recorded_episode(loop, episode_id):
        nonlocal draining
        draining = False
        episode = run_episode(loop, episode_id)
        draining = True
        return episode

    monkeypatch.setattr(ClusterSim, "skip_to", recorded)
    monkeypatch.setattr(AgentLoop, "run_episode", recorded_episode)
    report = run(config_from_dict(raw), tmp_path / "skip")
    monkeypatch.setattr(TelemetryFeed, "pass_to", _stepping_pass_to)
    run(config_from_dict(raw), tmp_path / "step")
    assert [r["resolved"] for r in report.rows] == [True, False, True, True, False, True, False, True, True]
    gone = read_run(tmp_path / "skip" / "episodes.jsonl")[4]["scenario"]
    assert gone["kind"] == "node_decommission"
    # Every drain skips the first of its flush ticks, which no window
    # reads; the two after an escalated ToR episode skip its fault too.
    spans = [(start, end) for start, end in drains if end - start > 1]
    assert len(drains) == 9 and all(end - start == 1 for start, end in set(drains) - set(spans))
    assert len(spans) == 2 and spans[1][0] <= gone["start_tick"] < spans[1][1]
    _assert_same_files(tmp_path / "skip", tmp_path / "step")


@pytest.mark.parametrize("wait, path", [(10**9, "no_incident"), (2 * 10**9, "propagation")])
def test_a_fault_far_ahead_is_waited_for_in_a_jump(dns_config_path, tmp_path, wait, path):
    # Stepped tick by tick, each of these waits took about two hours.
    raw = json.loads(dns_config_path.read_text())
    raw["episodes"] = 1
    raw["scenario"][0]["lead"] = 10**9
    raw["params"]["max_wait_ticks"] = wait
    start = time.perf_counter()
    report = run(config_from_dict(raw), tmp_path / "out")
    assert time.perf_counter() - start < 1.0
    (row,) = report.rows
    assert row["path"] == path and row["resolved"] == (path != "no_incident")
    if row["resolved"]:
        assert row["start_tick"] >= 10**9 and row["correct"]


def _waits(raw, leads, wait):
    """`raw` with its templates cycled over `leads` and a wait of `wait`."""
    templates = raw["scenario"]
    raw["scenario"] = [dict(templates[i % len(templates)], lead=lead) for i, lead in enumerate(leads)]
    raw["params"]["max_wait_ticks"] = wait
    raw["episodes"] = len(leads)
    return raw


@pytest.mark.parametrize("config, leads", [
    ("recurring_dns", [40, 150, 7, 95, 101, 1, 99, 250]),
    ("decommission_forgetting", [60, 120, 3, 98, 30, 99, 103, 140, 55, 104]),
    ("mixed_faults", [30, 120, 60, 90, 103, 150]),
])
def test_a_jumping_wait_writes_what_a_stepping_wait_writes(tmp_path, monkeypatch, config, leads):
    # Leads about the wait of 100 ticks: faults due well inside it, just
    # inside and just past its end, and long past it, so some episodes
    # time out idle. A decommission 103 ticks ahead falls due while the
    # drain flushes the ring, and the next episode must still see its
    # event. Every window that holds more than quiet frames is the same
    # run for run, down to its ticks.
    raw = _waits(json.loads((CONFIG_DIR / f"{config}.json").read_text()), leads, 100)
    detect = orchestrator.detect_anomalies
    windows: dict[str, list] = {"jump": [], "step": []}
    side = "jump"

    def watched(window, **kwargs):
        batches = window.batches
        if any(b.frame.envelope is None or b.events for b in batches):
            windows[side].append([b.frame.tick for b in batches])
        return detect(window, **kwargs)

    passed = []  # per call, the ticks passed beyond the one a step passes
    quiet_until = TelemetryFeed.quiet_until

    def recorded(feed, limit, noise):
        tick = quiet_until(feed, limit, noise)
        passed.append(tick - feed.sim.tick - 1)
        return tick

    monkeypatch.setattr(orchestrator, "detect_anomalies", watched)
    monkeypatch.setattr(TelemetryFeed, "quiet_until", recorded)
    report = run(config_from_dict(raw), tmp_path / "jump")
    side = "step"
    monkeypatch.setattr(TelemetryFeed, "quiet_until", lambda feed, limit, noise: feed.sim.tick + 1)
    run(config_from_dict(raw), tmp_path / "step")
    assert sum(passed) > 50 * len(leads)  # most of the lead is jumped
    assert {r["path"] for r in report.rows} > {"no_incident"}
    assert windows["jump"] == windows["step"]
    _assert_same_files(tmp_path / "jump", tmp_path / "step")


_TINY_TARGETS = {
    FaultKind.DNS_ERROR_BURST: ("svc-front", "svc-back"),
    FaultKind.TOR_PACKET_LOSS: ("sw1",),
    FaultKind.INGRESS_THROTTLE: ("svc-front", "svc-back"),
    FaultKind.NOISY_NEIGHBOR: ("n1", "n2"),
    FaultKind.NODE_DECOMMISSION: ("n1", "n2"),
}


def _tiny_faults(leads):
    return st.builds(
        lambda kind, pick, lead, duration, magnitude: {
            "kind": kind.value, "target": _TINY_TARGETS[kind][pick % len(_TINY_TARGETS[kind])],
            "lead": lead, "duration": duration, "magnitude": magnitude,
        },
        st.sampled_from(list(FaultKind)), st.integers(0, 1), leads,
        st.integers(1, 120), st.floats(0.05, 1.0),
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data(), max_wait_ticks=st.integers(0, 150))
def test_passing_ticks_writes_what_stepping_them_writes(data, max_wait_ticks):
    # One episode per fault, dropping a fault on a node an earlier one
    # decommissioned. A lead past the wait times its episode out idle and
    # lands its fault in the next episode's wait or in a drain; leads just
    # past the wait land it in the drain's last window of ticks, which the
    # next wait starts from. The reference steps every tick and scores
    # every window of the idle wait; every window that holds more than
    # quiet frames is the same in both runs, down to its ticks.
    near = st.integers(max(1, max_wait_ticks - 2), max_wait_ticks + 2 * DETECT_WINDOW)
    faults = data.draw(st.lists(_tiny_faults(st.integers(1, 300) | near), min_size=1, max_size=5))
    removed, scenario = set(), []
    for row in faults:
        if row["target"] not in removed:
            scenario.append(row)
            if row["kind"] == FaultKind.NODE_DECOMMISSION.value:
                removed.add(row["target"])
    raw = tiny_run_dict(episodes=len(scenario), scenario=scenario)
    raw["seed_runbooks"] += [
        {"id": "rb-flush-dns", "trigger": ["dns_error"], "steps": ["flush_dns_cache"]},
        {"id": "rb-reroute", "trigger": ["packet_loss_high"], "steps": ["reroute_service"]},
        {"id": "rb-scale-out", "trigger": ["latency_high"], "steps": ["scale_replicas"]},
        {"id": "rb-drain-node", "trigger": ["node_decommissioned"], "steps": ["drain_node"]},
    ]
    raw["params"]["max_wait_ticks"] = max_wait_ticks
    detect = orchestrator.detect_anomalies
    windows: dict[str, list] = {"pass": [], "step": []}
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        for side in ("pass", "step"):
            def watched(window, side=side, **kwargs):
                batches = window.batches
                if any(b.frame.envelope is None or b.events for b in batches):
                    windows[side].append([b.frame.tick for b in batches])
                return detect(window, **kwargs)

            mp.setattr(orchestrator, "detect_anomalies", watched)
            if side == "step":
                mp.setattr(TelemetryFeed, "pass_to", _stepping_pass_to)
                mp.setattr(TelemetryFeed, "quiet_until", lambda feed, limit, noise: feed.sim.tick + 1)
            run(config_from_dict(raw), Path(tmp) / side)
        assert windows["pass"] == windows["step"]
        _assert_same_files(Path(tmp) / "pass", Path(tmp) / "step")


def test_frames_nobody_reads_are_never_drawn(dns_config_path, tmp_path, monkeypatch):
    # A quiet tick draws its noise only when a reader needs the values: a
    # detection window that fires, or a verification the envelope cannot
    # settle. Each tick is drawn once at most.
    drawn, steps = [], []
    draw, step = ClusterSim._draw, ClusterSim.step
    monkeypatch.setattr(ClusterSim, "_draw", lambda sim, tick, level: drawn.append(tick) or draw(sim, tick, level))
    monkeypatch.setattr(ClusterSim, "step", lambda sim: steps.append(sim.tick) or step(sim))
    report = run(load_config(dns_config_path), tmp_path / "out")
    assert all(r["resolved"] for r in report.rows)
    assert len(set(drawn)) == len(drawn) and set(drawn) <= set(steps)
    assert len(steps) - len(drawn) > len(steps) // 3


# The ids of the fuzzed config, and names to give them: each other's, the
# closed ids, learned-id prefixes, and (half the time) fresh names.
_FUZZ_IDS = ["r1", "sw1", "n1", "n2", "p-front-1", "p-back-1", "p-back-2",
             "svc-front", "svc-back", "pol-a"]
_FUZZ_NAMES = st.one_of(
    st.sampled_from(_FUZZ_IDS + [k.value for k in FaultKind] + [a.value for a in ActionKind]
                    + ["rule:x", "rule:", "aset:cpu_high+disk_high"]),
    st.sampled_from(["fresh-1", "fresh-2", "fresh-3"]),
)
# JSON values of every type for a scenario field, and (half the time)
# values some field takes.
_FUZZ_VALUES = st.one_of(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 40), st.floats(), _FUZZ_NAMES,
              st.lists(_FUZZ_NAMES, max_size=2),
              st.dictionaries(_FUZZ_NAMES, st.integers(), max_size=1)),
    st.sampled_from([1, 2, 12, 30, 0.005, 0.8] + [k.value for k in FaultKind]),
)


def _renamed(obj, names: dict):
    """`obj` with every string value in `names` replaced, all at once."""
    if isinstance(obj, str):
        return names.get(obj, obj)
    if isinstance(obj, list):
        return [_renamed(v, names) for v in obj]
    if isinstance(obj, dict):
        return {k: _renamed(v, names) for k, v in obj.items()}
    return obj


@settings(max_examples=200, deadline=None)
@given(
    names=st.dictionaries(st.sampled_from(_FUZZ_IDS), _FUZZ_NAMES, max_size=2),
    row=st.dictionaries(
        st.sampled_from(["kind", "target", "magnitude", "duration", "lead", "start"]),
        _FUZZ_VALUES, max_size=2,
    ),
    max_wait_ticks=st.integers(0, 12),
    noise_pct=st.sampled_from([0.02, 0.5, 5.0]),
)
def test_a_config_either_fails_to_load_or_its_run_completes(names, row, max_wait_ticks, noise_pct):
    raw = tiny_run_dict(episodes=3, policies=[{"id": "pol-a", "applies_to": ["svc-front"]}])
    raw["scenario"][0].update(row)
    raw["params"].update(max_wait_ticks=max_wait_ticks, noise_pct=noise_pct)
    raw = _renamed(raw, names)
    try:
        config = config_from_dict(raw)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        report = run(config, out)
        assert len(report.rows) == 3
        for name in ("report.jsonl", "episodes.jsonl", "transitions.log", "kg.tsv",
                     "episodic.jsonl", "rules.jsonl"):
            assert (out / name).is_file(), name
        legal = legal_transition_triples()
        for line in (out / "transitions.log").read_text().splitlines():
            assert tuple(line.split("\t")[2:5]) in legal, line


def test_export_kg_matches_run_artifact(tiny_report, tmp_path):
    report, out = tiny_report
    target = tmp_path / "kg-export.tsv"
    export_kg(config_from_dict(tiny_run_dict()), target)
    assert target.read_text() == (out / "kg.tsv").read_text()
    assert target.read_text().startswith("# opsloop-kg v1\n")


# -- artifact encoding ----------------------------------------------------------------

# Quotes, backslashes, control characters, non-ASCII and astral characters
# (and lone surrogates) are each escaped differently by json.dumps.
_TEXT = st.text(st.one_of(
    st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\U0001f600'),
    st.characters(blacklist_categories=()),
), max_size=8)
_TRACE_ENTRIES = st.builds(TraceEntry, section=_TEXT, key=_TEXT, cost=st.integers(),
                           included=st.booleans(), reason=_TEXT)
# Keys on either side of the spliced keys "pack_traces" and "row", and on them.
_RECORD_KEYS = st.one_of(
    st.sampled_from(["a", "pack", "pack_trace", "pack_traces", "pack_tracesa", "plan",
                     "row", "ro", "rowa", "rox", "s", "~"]),
    _TEXT,
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=4,
)


@settings(max_examples=100, deadline=None)
@given(
    pool=st.lists(_TRACE_ENTRIES, min_size=1, max_size=6),
    picks=st.lists(st.lists(st.integers(0, 5), max_size=6), max_size=4),
    obj=st.dictionaries(_RECORD_KEYS, _JSON, max_size=6),
    spliced=st.dictionaries(_RECORD_KEYS, _JSON, max_size=3),
    row=_JSON,
)
def test_spliced_record_equals_one_dump(pool, picks, obj, spliced, row):
    # Traces drawn from a small pool repeat entries, so the memo is hit.
    traces = [[pool[i % len(pool)] for i in pick] for pick in picks]
    as_dicts = [[t._asdict() for t in trace] for trace in traces]
    memo: dict = {}
    assert _traces_json(traces, memo) == _dump(as_dicts)
    assert _traces_json(traces, memo) == _dump(as_dicts)  # from the memo alone
    spliced = {**spliced, "pack_traces": as_dicts, "row": row}
    obj = {k: v for k, v in obj.items() if k not in spliced}
    encoded = {k: _dump(v) for k, v in spliced.items()}
    encoded["pack_traces"] = _traces_json(traces, memo)
    assert _dump_spliced(obj, encoded) == _dump({**obj, **spliced})


def test_run_lines_are_one_dump_of_their_records(dns_config_path, tmp_path):
    # A service id with a quote, a backslash and a non-ASCII letter reaches
    # the pack-trace keys and the fields dumped around them.
    name = 'svc-pay"\u00e9\\ments'
    raw = json.loads(dns_config_path.read_text().replace("svc-payments", json.dumps(name)[1:-1]))
    raw["episodes"] = 6
    report = run(config_from_dict(raw), tmp_path)
    assert all(r["resolved"] for r in report.rows)
    report_lines = (tmp_path / "report.jsonl").read_text().splitlines()
    for line in report_lines:
        assert line == _dump(json.loads(line))
    records = read_run(tmp_path / "episodes.jsonl")
    assert (tmp_path / "episodes.jsonl").read_text().splitlines() == [
        _dump({"format": "opsloop-episodes", "version": 1}), *map(_dump, records)
    ]
    assert [rec["row"] for rec in records] == [json.loads(line) for line in report_lines[:-1]]
    assert [rec["pack_traces"] for rec in records] == [
        [[t._asdict() for t in trace] for trace in r.pack_traces] for r in report.episode_runs
    ]
    assert any(name in t.key for r in report.episode_runs for trace in r.pack_traces for t in trace)


# -- CLI ------------------------------------------------------------------------------


def write_config(tmp_path, payload) -> Path:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return path


def test_cli_run_replay_export(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_run_dict(episodes=2))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    assert "run complete: 2 episodes, 2 resolved" in capsys.readouterr().out
    assert (out_dir / "report.jsonl").is_file()

    assert main(["replay", "--episodes", str(out_dir / "episodes.jsonl"),
                 "--episode", "ep-0001"]) == 0
    assert "episode ep-0001" in capsys.readouterr().out

    kg_path = tmp_path / "kg.tsv"
    assert main(["export-kg", "--config", str(cfg_path), "--out", str(kg_path)]) == 0
    assert kg_path.read_text().startswith("# opsloop-kg v1\n")


def test_cli_exit_code_one_for_config_and_usage_errors(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()
    zero_cap = tiny_run_dict(episodes=2)
    zero_cap["params"]["section_caps"] = {"episodic": 0}
    assert main(["run", "--config", str(write_config(tmp_path, zero_cap)),
                 "--out", str(tmp_path / "o")]) == 1
    assert "params.section_caps.episodic must be an int >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # Each of these once loaded and then crashed: at start, at the first
    # learning pass, or with misaligned vectors; the reversed vocabulary ran
    # but packed other episodic memories than the default run.
    dns = json.loads((CONFIG_DIR / "recurring_dns.json").read_text())
    mixed = json.loads((CONFIG_DIR / "mixed_faults.json").read_text())

    def renamed(raw, old, new, **top):
        return {**_renamed(raw, {old: new}), **top}

    unknown_vocab = "unknown params keys: ['vocab']"
    for payload, message in [
        (renamed(dns, "svc-ledger", "tor-1"), "duplicate id: 'tor-1' is already a ToRSwitch"),
        (renamed(dns, "svc-ledger", "noisy_neighbor"),
         "duplicate id: 'noisy_neighbor' is already a FaultKind"),
        (renamed(dns, "pod-ledger-1", "drain_node"), "duplicate id: 'drain_node' is already an Action"),
        (renamed(dns, "node-1", "tor_packet_loss"),
         "duplicate id: 'tor_packet_loss' is already a FaultKind"),
        (renamed(dns, "rack-1", "restart_pod"), "duplicate id: 'restart_pod' is already an Action"),
        (renamed(dns, "tor-1", "reroute_service"),
         "duplicate id: 'reroute_service' is already an Action"),
        (renamed(dns, "svc-ledger", "aset:dns_error+latency_high", episodes=7),
         "id 'aset:dns_error+latency_high' starts with a learned-id prefix"),
        (renamed(dns, "pod-ledger-1", "rule:x", episodes=7),
         "id 'rule:x' starts with a learned-id prefix"),
        ({**dns, "params": {**dns["params"],
                            "vocab": [a for a in SYMPTOM_VOCAB if a != "auth_failure"]}},
         unknown_vocab),
        ({**mixed, "params": {**mixed["params"], "vocab": SYMPTOM_VOCAB[::-1]}}, unknown_vocab),
    ]:
        assert main(["run", "--config", str(write_config(tmp_path, payload)),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("opsloop: config error: ") and message in err, err
        assert not (tmp_path / "o").exists()
    cfg_path = write_config(tmp_path, tiny_run_dict(episodes=2))
    out_dir = tmp_path / "out2"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["replay", "--episodes", str(out_dir / "episodes.jsonl"),
                 "--episode", "ep-7777"]) == 1
    assert "not found" in capsys.readouterr().err


def test_cli_exit_code_two_for_runtime_failures(tmp_path, capsys, monkeypatch):
    # a failure inside a run of a valid config is a runtime error, not a
    # config error
    def fail(config, out_dir):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr("opsloop.cli.run", fail)
    cfg_path = write_config(tmp_path, tiny_run_dict(episodes=1))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "runtime failure: RuntimeError: simulated fault" in capsys.readouterr().err


def test_cli_reports_a_key_error_inside_a_run_as_a_runtime_failure(tmp_path, capsys, monkeypatch):
    # Only `replay` reads a missing episode as "not found" (exit 1); a
    # KeyError raised inside a run is a runtime failure like any other.
    def fail(config, out_dir):
        raise KeyError("svc-x")

    monkeypatch.setattr("opsloop.cli.run", fail)
    cfg_path = write_config(tmp_path, tiny_run_dict(episodes=1))
    for command in ("run", "export-kg"):
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert "runtime failure: KeyError: 'svc-x'" in capsys.readouterr().err


def test_python_m_opsloop_is_the_cli(tmp_path, capsys):
    # `python3 -m opsloop` from a checkout, with only src/ on the path.
    cfg_path = write_config(tmp_path, tiny_run_dict(episodes=2))
    episodes = str(tmp_path / "out" / "episodes.jsonl")
    env = {**os.environ, "PYTHONPATH": str(CONFIG_DIR.parent / "src")}
    for argv in (
        ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")],
        ["replay", "--episodes", episodes, "--episode", "ep-0002"],
        ["replay", "--episodes", episodes, "--episode", "ep-7777"],
        ["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")],
        [],
    ):
        done = subprocess.run([sys.executable, "-m", "opsloop", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        code = main(argv)
        assert (done.returncode, done.stdout, done.stderr) == (code, *capsys.readouterr()), argv
