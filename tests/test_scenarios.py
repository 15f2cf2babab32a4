"""Scenario loading/validation, the check runners, report emission
(JSON + CSV), exit codes, and the CLI wrapper."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tauber.cli
from tauber import (
    ScenarioValidationError,
    load_scenario,
    run_scenario,
)
from tauber.scenarios import emit

DATA = Path(__file__).resolve().parents[1] / "src" / "tauber" / "data"


def tiny_scenario(**overrides):
    doc = {
        "name": "tiny",
        "measures": {
            "expo": {"atoms": [],
                     "segments": [{"lo": 0.0, "hi": None,
                                   "terms": [{"c": 1.0, "a": 1.0}]}]},
            "pair": {"atoms": [{"x": 1.0, "w": 1.0}, {"x": 2.0, "w": -0.5}],
                     "segments": []},
        },
        "sequences": {
            "shrink": {
                "template": {
                    "atoms": [{"x": {"expr": "1 + 1/n"}, "w": 1.0}],
                    "segments": [],
                },
                "limit": {"atoms": [{"x": 1.0, "w": 1.0}], "segments": []},
                "exceptional": [1.0],
            },
        },
        "checks": [
            {"check": "membership", "measure": "expo", "expect": "pass"},
            {"check": "transform_table", "measure": "expo",
             "lambdas": [0.0, 1.0, 3.0],
             "expected": [{"lam": 0.0, "value": 1.0},
                          {"lam": 1.0, "value": 0.5},
                          {"lam": 3.0, "value": 0.25}],
             "tol": 1e-9, "expect": "pass"},
            {"check": "norm", "measure": "pair", "expected": 1.5,
             "tol": 1e-12, "expect": "pass"},
            {"check": "tilt_identity", "measure": "pair", "eps": 0.5,
             "lambdas": [1.0], "tol": 1e-10, "expect": "pass"},
            {"check": "laplace_convergence", "sequence": "shrink",
             "lambdas": [1.0, 2.0], "tol": 0.01, "expect": "pass"},
        ],
        "config": {"n_max": 256},
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# loading + validation
# ---------------------------------------------------------------------------

def test_load_from_dict_and_path(tmp_path):
    doc = tiny_scenario()
    s1 = load_scenario(doc)
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(doc))
    s3 = load_scenario(p)            # Path and str paths both accepted
    s4 = load_scenario(str(p))
    assert s1.name == s3.name == s4.name == "tiny"
    assert s1.measure("expo").isclose(s3.measure("expo"))


def test_bundled_scenarios_load():
    for f in sorted(DATA.glob("*.json")):
        scn = load_scenario(f)
        assert scn.checks, f.name


def test_validation_reports_dotted_paths():
    doc = tiny_scenario()
    doc["measures"]["expo"]["segments"][0]["terms"][0]["c"] = "oops"
    with pytest.raises(ScenarioValidationError) as e:
        load_scenario(doc)
    assert "measures.expo.segments[0].terms[0].c" in e.value.field


def test_validation_unknown_check_kind():
    doc = tiny_scenario()
    doc["checks"].append({"check": "mystery", "measure": "expo"})
    with pytest.raises(ScenarioValidationError) as e:
        load_scenario(doc)
    assert "mystery" in str(e.value)


def test_validation_unknown_measure_reference():
    doc = tiny_scenario()
    doc["checks"][0]["measure"] = "ghost"
    with pytest.raises(ScenarioValidationError):
        load_scenario(doc).measure("ghost")


def test_expr_grammar_accepts_arithmetic():
    doc = tiny_scenario()
    doc["sequences"]["shrink"]["template"]["atoms"][0]["x"] = {
        "expr": "(1 + 1/n) ** 2 - n/(n + 0)"}
    scn = load_scenario(doc)
    m = scn.sequence("shrink").measure(4)
    assert m.atoms[0].location == pytest.approx((1 + 0.25) ** 2 - 1.0)


@pytest.mark.parametrize("bad", [
    "__import__('os').system('true')",
    "n.x",
    "lambda n: n",
    "m + 1",
    "n if n else 0",
    "[n]",
    "n()",
])
def test_expr_grammar_rejects_everything_else(bad):
    doc = tiny_scenario()
    doc["sequences"]["shrink"]["template"]["atoms"][0]["x"] = {"expr": bad}
    with pytest.raises(ScenarioValidationError):
        load_scenario(doc)


def test_expr_refused_outside_templates():
    doc = tiny_scenario()
    doc["measures"]["pair"]["atoms"][0]["x"] = {"expr": "n"}
    with pytest.raises(ScenarioValidationError) as e:
        load_scenario(doc)
    assert "only allowed inside sequence templates" in str(e.value)


def test_sequence_limit_forms():
    doc = tiny_scenario()
    # named limit
    doc["sequences"]["shrink"]["limit"] = "pair"
    scn = load_scenario(doc)
    assert scn.sequence("shrink").limit.isclose(scn.measure("pair"))
    # null limit -> zero measure
    doc["sequences"]["shrink"]["limit"] = None
    scn = load_scenario(doc)
    assert scn.sequence("shrink").limit.is_zero


# ---------------------------------------------------------------------------
# running + exit codes
# ---------------------------------------------------------------------------

def test_run_tiny_scenario_all_match():
    rep = run_scenario(load_scenario(tiny_scenario()))
    assert [o.matched for o in rep.outcomes] == [True] * 5
    assert rep.exit_code == 0
    # declaration order preserved
    assert [o.kind for o in rep.outcomes] == [
        "membership", "transform_table", "norm", "tilt_identity",
        "laplace_convergence"]


def test_expected_failure_matches_to_exit_zero():
    doc = tiny_scenario()
    doc["checks"] = [{"check": "norm", "measure": "pair", "expected": 99.0,
                      "tol": 1e-12, "expect": "fail"}]
    rep = run_scenario(load_scenario(doc))
    assert rep.outcomes[0].status == "fail"
    assert rep.outcomes[0].matched
    assert rep.exit_code == 0


def test_unexpected_failure_exit_one():
    doc = tiny_scenario()
    doc["checks"] = [{"check": "norm", "measure": "pair", "expected": 99.0,
                      "tol": 1e-12, "expect": "pass"}]
    rep = run_scenario(load_scenario(doc))
    assert rep.exit_code == 1


def test_runner_error_exit_two():
    doc = tiny_scenario()
    # psi(tau) = 1 - 2 e^{-tau} crosses zero inside the default tau grid,
    # so the index estimator raises and the outcome is an error
    doc["measures"]["flip"] = {
        "atoms": [{"x": 0.0, "w": 1.0}, {"x": 1.0, "w": -2.0}], "segments": []}
    doc["checks"] = [{"check": "rv_index_transform", "measure": "flip",
                      "declared": 1.0, "expect": "pass"}]
    rep = run_scenario(load_scenario(doc))
    assert rep.outcomes[0].status == "error"
    assert "SignChangeNearZero" in rep.outcomes[0].error
    assert rep.exit_code == 2


def test_norm_expected_inf():
    doc = tiny_scenario()
    doc["measures"]["flat"] = {
        "atoms": [], "segments": [{"lo": 0.0, "hi": None, "terms": [{"c": 1.0}]}]}
    doc["checks"] = [{"check": "norm", "measure": "flat", "expected": "inf",
                      "expect": "pass"}]
    rep = run_scenario(load_scenario(doc))
    assert rep.exit_code == 0


def test_config_overrides_from_caller():
    doc = tiny_scenario()
    rep = run_scenario(load_scenario(doc), n_max=64)
    assert rep.config["n_max"] == 64
    assert rep.exit_code == 0


# ---------------------------------------------------------------------------
# emission: JSON bytes, CSV shape, inf/nan handling
# ---------------------------------------------------------------------------

def test_json_is_sorted_and_stable():
    rep = run_scenario(load_scenario(tiny_scenario()))
    text1 = rep.to_json()
    text2 = run_scenario(load_scenario(tiny_scenario())).to_json()
    assert text1 == text2
    parsed = json.loads(text1)
    assert list(parsed.keys()) == sorted(parsed.keys())
    assert parsed["exit_code"] == 0


def test_json_serialises_infinity_as_string():
    doc = tiny_scenario()
    doc["measures"]["flat"] = {
        "atoms": [], "segments": [{"lo": 0.0, "hi": None, "terms": [{"c": 1.0}]}]}
    doc["checks"] = [{"check": "norm", "measure": "flat", "expected": "inf",
                      "expect": "pass"}]
    text = run_scenario(load_scenario(doc)).to_json()
    assert '"inf"' in text
    assert "Infinity" not in text  # bare JSON Infinity tokens are not valid


def test_csv_shape():
    rep = run_scenario(load_scenario(tiny_scenario()))
    lines = rep.to_csv().splitlines()
    assert lines[0] == "check,parameter,value,verdict"
    assert all(len(line.split(",")) >= 4 for line in lines[1:])
    # every check contributes at least a status row and an expect row
    ids = {o.check_id for o in rep.outcomes}
    for cid in ids:
        assert any(line.startswith(cid + ",status") for line in lines[1:])
        assert any(line.startswith(cid + ",expect") for line in lines[1:])


def test_emit_writes_files(tmp_path):
    rep = run_scenario(load_scenario(tiny_scenario()))
    paths = emit(rep, tmp_path, "both")
    names = sorted(p.name for p in paths)
    assert names == ["tiny.csv", "tiny.json"]
    assert json.loads((tmp_path / "tiny.json").read_text())["scenario"] == "tiny"


# ---------------------------------------------------------------------------
# CLI wrapper
# ---------------------------------------------------------------------------

def test_cli_run_writes_report_and_exits_zero(tmp_path, capsys):
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(tiny_scenario()))
    code = tauber.cli.main(["run", str(p), "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    out = capsys.readouterr().out
    assert "tiny" in out and "5/5 checks matched" in out
    assert (tmp_path / "tiny.json").exists()


def test_cli_quiet_mode(tmp_path, capsys):
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(tiny_scenario()))
    code = tauber.cli.main(["run", str(p), "--out", str(tmp_path), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_cli_propagates_mismatch_exit_code(tmp_path):
    doc = tiny_scenario()
    doc["checks"] = [{"check": "norm", "measure": "pair", "expected": 99.0,
                      "tol": 1e-12, "expect": "pass"}]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code = tauber.cli.main(["run", str(p), "--out", str(tmp_path), "--quiet"])
    assert code == 1


def test_cli_missing_file_is_error(tmp_path, capsys):
    code = tauber.cli.main(["run", str(tmp_path / "nope.json"),
                            "--out", str(tmp_path), "--quiet"])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as e:
        tauber.cli.main(["--version"])
    assert e.value.code == 0
    assert "tauber" in capsys.readouterr().out


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tauber.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
