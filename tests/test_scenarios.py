"""Scenario loading/validation, the check runners, report emission
(JSON + CSV), exit codes, and the CLI wrapper."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tauber.cli
import tauber.measures
import tauber.scenarios
from tauber import (
    CHECK_NAMES,
    ScenarioValidationError,
    SignedMeasure,
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
            {"check": "continuity_point", "measure": "pair", "point": 0.5,
             "expect": "pass"},
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


def test_huge_power_in_template_fails_at_load_without_stalling():
    # in integer arithmetic this builds two million-digit ints at load and
    # again at every index; in floats it overflows at once
    doc = json.loads((DATA / "signed_dipole.json").read_text())
    doc["sequences"]["dipole"]["template"]["atoms"][1]["w"] = {
        "expr": "10**10**6 / 10**10**6"}
    start = time.perf_counter()
    with pytest.raises(ScenarioValidationError) as e:
        load_scenario(doc)
    assert time.perf_counter() - start < 0.25
    assert e.value.field == "sequences.dipole.template.atoms[1].w"
    assert "'10**10**6 / 10**10**6' at n = 2" in str(e.value)
    assert isinstance(e.value.__cause__, OverflowError)


@pytest.mark.parametrize("leaf, expr, field, cause", [
    ("w", "1/(n-2)", "sequences.dipole.template.atoms[1].w", ZeroDivisionError),
    ("x", "-n", "sequences.dipole.template.atoms[1]", ValueError),
], ids=["leaf-fails-at-the-sample-index", "constructor-refuses-the-value"])
def test_template_errors_name_the_leaf_or_its_entry(leaf, expr, field, cause):
    doc = json.loads((DATA / "signed_dipole.json").read_text())
    doc["sequences"]["dipole"]["template"]["atoms"][1][leaf] = {"expr": expr}
    with pytest.raises(ScenarioValidationError) as e:
        load_scenario(doc)
    assert e.value.field == field
    assert type(e.value.__cause__) is cause
    if cause is ZeroDivisionError:
        assert f"{expr!r} at n = 2" in str(e.value)


@pytest.mark.parametrize("measure, field", [
    ({"atoms": [{"x": "0.5", "w": 1.0}]}, "atoms[0].x"),
    ({"atoms": [{"x": 0.5, "w": True}]}, "atoms[0].w"),
    ({"atoms": [{"x": 0.5, "w": 1.0, "y": 2.0}]}, "atoms[0].y"),
    ({"segments": [{"lo": 0.0, "hi": 1.0, "terms": [{"c": 1.0, "a": 1.0}]}]}, None),
    ({"segments": [{"lo": 0.0, "terms": [{"c": 1.0, "k": 0.0, "a": 1.0}]}]}, None),
], ids=["string-number", "boolean", "unknown-field", "term-without-k", "segment-without-hi"])
def test_from_dict_and_load_scenario_parse_alike(measure, field):
    doc = tiny_scenario()
    doc["measures"]["probe"] = measure
    if field is None:
        assert SignedMeasure.from_dict(measure) == load_scenario(doc).measure("probe")
        return
    with pytest.raises(ScenarioValidationError) as direct:
        SignedMeasure.from_dict(measure)
    with pytest.raises(ScenarioValidationError) as loaded:
        load_scenario(doc)
    assert direct.value.field == f"measure.{field}"
    assert loaded.value.field == f"measures.probe.{field}"
    assert isinstance(direct.value, ValueError)


@pytest.mark.parametrize("value", [True, "0.5"], ids=["boolean", "string"])
def test_wire_leaf_and_check_parameter_refuse_a_non_number_alike(value):
    assert tauber.scenarios._number is tauber.measures._number
    with pytest.raises(ScenarioValidationError) as leaf:
        SignedMeasure.from_dict({"atoms": [{"x": 0.5, "w": value}]})
    doc = tiny_scenario()
    doc["checks"][1]["tol"] = value
    with pytest.raises(ScenarioValidationError) as param:
        load_scenario(doc)
    assert leaf.value.field == "measure.atoms[0].w"
    assert param.value.field.endswith(".tol")
    message = f"expected a number, got {value!r}"
    assert str(leaf.value) == f"{leaf.value.field}: {message}"
    assert str(param.value) == f"{param.value.field}: {message}"


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
        "continuity_point", "transform_table", "norm", "tilt_identity",
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


@pytest.mark.parametrize("n_max", [10.5, 0, math.inf])
def test_run_scenario_refuses_an_n_max_override_index_grid_refuses(n_max):
    # 10.5 used to run, and be reported, as 10
    with pytest.raises(ValueError, match="n_max must be a finite integer"):
        run_scenario(load_scenario(tiny_scenario()), n_max=n_max)


def test_the_report_config_is_the_coerced_config():
    scn = load_scenario(tiny_scenario(config={"n_max": 1e4, "grid_ratio": 2}))
    config = run_scenario(scn).to_dict()["config"]
    assert config == {"n_max": 10000, "grid_ratio": 2.0}
    assert isinstance(config["n_max"], int) and isinstance(config["grid_ratio"], float)
    overridden = run_scenario(scn, n_max=64.0).to_dict()["config"]["n_max"]
    assert overridden == 64 and isinstance(overridden, int)


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


# ---------------------------------------------------------------------------
# --tol override
# ---------------------------------------------------------------------------

TOL_KINDS = {"transform_table", "norm", "tilt_identity", "laplace_convergence", "vague",
             "distribution_convergence", "asymptotic_ratio", "slow_variation"}


def test_tol_override_replaces_tol_of_exactly_eight_kinds():
    doc = tiny_scenario()
    doc["checks"] = [
        {"check": "transform_table", "measure": "expo", "lambdas": [1.0],
         "expected": [{"lam": 1.0, "value": 0.5}], "tol": 1e-9},
        {"check": "norm", "measure": "pair", "expected": 1.5005, "tol": 1e-12},
        {"check": "tilt_identity", "measure": "pair", "lambdas": [1.0]},
        {"check": "laplace_convergence", "sequence": "shrink", "lambdas": [1.0]},
        {"check": "vague", "sequence": "shrink"},
        {"check": "distribution_convergence", "sequence": "shrink", "points": [0.5, 2.0]},
        {"check": "asymptotic_ratio", "measure": "expo", "rho": 0.0},
        {"check": "slow_variation", "measure": "expo", "rho": 0.0},
        {"check": "bounded_laplace", "sequence": "shrink", "lambdas": [1.0],
         "slope_tol": 0.01, "cap": 3.0},
        {"check": "window_increment_condition", "measure": "expo", "point": 1.0,
         "ceiling": 0.07},
        {"check": "continuity_forward", "sequence": "shrink", "point": 2.0,
         "lambdas": [1.0], "psi_tol": 1e-3, "F_tol": 0.04},
    ]
    scn = load_scenario(doc)
    plain = {o.kind: o for o in run_scenario(scn).outcomes}
    overridden = {o.kind: o for o in run_scenario(scn, tol=0.123).outcomes}
    assert all(o.error is None for o in overridden.values())
    for kind in TOL_KINDS - {"norm"}:
        assert overridden[kind].report.tolerances["tol"] == 0.123, kind
        assert plain[kind].report.tolerances["tol"] != 0.123, kind
    # norm reports no tolerances: |1.5 - 1.5005| fails 1e-12 and passes 0.123
    assert (plain["norm"].status, overridden["norm"].status) == ("fail", "pass")
    for kind in set(overridden) - TOL_KINDS:
        assert overridden[kind].report.to_dict() == plain[kind].report.to_dict(), kind
    assert overridden["bounded_laplace"].report.tolerances == {
        "slope_tol": 0.01, "cap": 3.0, "band": 0.1}
    assert overridden["window_increment_condition"].report.tolerances["ceiling"] == 0.07
    forward = overridden["continuity_forward"].report
    assert forward.child("laplace_convergence").tolerances["tol"] == 1e-3
    assert forward.child("distribution_convergence").tolerances["tol"] == 0.04


# ---------------------------------------------------------------------------
# load-time validation through the check table
# ---------------------------------------------------------------------------

def test_unknown_check_parameter_is_rejected_at_load():
    doc = json.loads((DATA / "signed_dipole.json").read_text())
    doc["checks"][1]["centres"] = [7.0]  # the vague check; its key is "centers"
    with pytest.raises(ScenarioValidationError) as e:
        load_scenario(doc)
    assert e.value.field == "checks[1].centres"
    assert "centers" in str(e.value)  # the known parameters are listed


@pytest.mark.parametrize("mutate, field", [
    (lambda d: d["checks"][4].pop("lambdas"), "checks[4].lambdas"),
    (lambda d: d["checks"][4].update(lambdas="abc"), "checks[4].lambdas"),
    (lambda d: d["checks"][4].update(lambdas=[1.0, "x"]), "checks[4].lambdas"),
    (lambda d: d["checks"][3].update(eps=[]), "checks[3].eps"),
    (lambda d: d["checks"][4].update(tol=[1e-3]), "checks[4].tol"),
    (lambda d: d.update(config={"n_max": "lots"}), "config.n_max"),
    (lambda d: d.update(config={"n_max": 64, "nmax": 128}), "config.nmax"),
    (lambda d: [d["checks"][i].update(id="a") for i in (2, 3)], "checks[3].id"),
    (lambda d: d["checks"][1]["expected"].append({"lam": 5.0, "value": 0.1}),
     "checks[1].expected"),
    (lambda d: d["checks"][1].update(expected=[{"lam": 1.0}]), "checks[1].expected"),
    (lambda d: d["checks"][1].update(include_abs="yes"), "checks[1].include_abs"),
    (lambda d: d["checks"][0].update(measure="ghost"), "checks[0].measure"),
    (lambda d: d["checks"][4].update(sequence="ghost"), "checks[4].sequence"),
    (lambda d: d["checks"][4].pop("sequence"), "checks[4].sequence"),
    (lambda d: d["checks"].append({"check": "karamata_pipeline", "measure": "expo",
                                   "direction": "sideways"}), "checks[5].direction"),
    # every grid is positive by the one `grid` rule, found at load, not at run time
    (lambda d: d["checks"].append({"check": "asymptotic_ratio", "measure": "expo",
                                   "rho": 0.0, "t_grid": [0.0, 10.0, 100.0]}),
     "checks[5].t_grid"),
    (lambda d: d["checks"].append({"check": "window_increment_condition", "measure": "expo",
                                   "tau_grid": [1.0, -0.5]}), "checks[5].tau_grid"),
    (lambda d: d["checks"].append({"check": "right_equicontinuity", "sequence": "shrink",
                                   "point": 1.0, "h_grid": [0.5, 0.0]}), "checks[5].h_grid"),
    (lambda d: d["checks"].append({"check": "karamata_pipeline", "measure": "expo",
                                   "eval_points": [0.0, 1.0]}), "checks[5].eval_points"),
    (lambda d: d["checks"].append({"check": "karamata_pipeline", "measure": "expo",
                                   "ratio_points": [-2.0, 2.0]}), "checks[5].ratio_points"),
    (lambda d: d.update(config={"n_max": 0}), "config.n_max"),
    (lambda d: d.update(config={"grid_ratio": 1.0}), "config.grid_ratio"),
    (lambda d: d["checks"][4].update(n_max=0), "checks[4].n_max"),
    (lambda d: d.update(config={"n_max": 10.5}), "config.n_max"),
    (lambda d: d["checks"][4].update(n_max=10.5), "checks[4].n_max"),
    (lambda d: d["checks"][4].update(grid_ratio=0.5), "checks[4].grid_ratio"),
], ids=["missing-lambdas", "lambdas-string", "lambdas-entry", "eps-empty", "tol-list",
        "n_max-string", "unknown-config-key", "duplicate-id", "expected-outside-lambdas",
        "expected-entry", "bool-string", "unknown-measure", "unknown-sequence",
        "missing-sequence", "unknown-direction", "t_grid-zero", "tau_grid-negative",
        "h_grid-zero", "karamata-eval_points-zero", "karamata-ratio_points-negative",
        "config-n_max-zero", "config-grid_ratio-one", "check-n_max-zero",
        "config-n_max-fraction", "check-n_max-fraction", "check-grid_ratio-below-one"])
def test_parameter_errors_surface_at_load(mutate, field):
    doc = tiny_scenario()
    mutate(doc)
    with pytest.raises(ScenarioValidationError) as e:
        load_scenario(doc)
    assert e.value.field == field


def test_an_integral_float_n_max_loads_as_an_integer():
    scn = load_scenario(tiny_scenario(config={"n_max": 1e8}))
    (n_max,) = [c.params["n_max"] for c in scn._checks if "n_max" in c.params]
    assert n_max == 100_000_000 and isinstance(n_max, int)


def test_templates_are_parsed_once_at_load(monkeypatch):
    import ast

    doc = json.loads((DATA / "mollified_delta.json").read_text())
    doc["config"] = {**doc["config"], "n_max": 100_000_000, "grid_ratio": 1.25}
    calls = []
    parse = ast.parse
    monkeypatch.setattr(ast, "parse", lambda *a, **k: calls.append(a) or parse(*a, **k))
    scn = load_scenario(doc)
    assert len(calls) == 2  # the template's two {"expr"} leaves
    report = run_scenario(scn)
    assert len(calls) == 2
    assert report.exit_code == 0


def test_oscillatory_index_two_makes_at_most_6000_kernel_calls(monkeypatch):
    # 14,610 without the memos: two thirds of the closed-form integrals
    # repeated one already computed on the same segment
    import tauber.measures

    calls = []
    kernel = tauber.measures.power_exp_integral
    monkeypatch.setattr(tauber.measures, "power_exp_integral",
                        lambda *a: calls.append(a) or kernel(*a))
    report = run_scenario(load_scenario(DATA / "oscillatory_index_two.json"))
    assert report.exit_code == 0
    assert 0 < len(calls) <= 6000


def test_check_table_calls_library_functions_through_module_globals(monkeypatch):
    # a tracer rebinds the library names in tauber.scenarios; every kind must
    # reach its function through that binding, not through a captured object
    from tauber import convergence, scenarios, tauberian, transforms

    library = {getattr(m, name) for m in (convergence, tauberian, transforms)
               for name in m.__all__}
    called = set()
    for name, value in list(vars(scenarios).items()):
        if callable(value) and value in library:
            def spy(*a, _name=name, _fn=value, **k):
                called.add(_name)
                return _fn(*a, **k)
            monkeypatch.setattr(scenarios, name, spy)
    path = Path(__file__).parent / "scenarios" / "every_check_kind.json"
    report = run_scenario(load_scenario(path))
    assert report.exit_code == 0
    assert called >= {
        "laplace_convergence_test", "vague_test", "bounded_laplace_test",
        "right_equicontinuity_test", "distribution_convergence_test",
        "continuity_point_test", "part_domination_test", "continuity_forward",
        "continuity_backward", "rv_index_from_transform", "rv_index_from_distribution",
        "rv_report", "sign_ratio_condition", "window_increment_condition",
        "asymptotic_ratio", "slow_variation_diagnostic", "karamata_pipeline",
        "laplace_transform", "abs_transform",
        "tilt_identity_residual", "classify",
    }


def test_window_increment_points_sweep_sorts_and_keeps_the_worst_witness():
    doc = tiny_scenario()
    doc["measures"]["flip"] = {
        "atoms": [{"x": 1.0, "w": 1.0}, {"x": 3.0, "w": -0.5}], "segments": []}
    doc["checks"] = [{"check": "window_increment_condition", "measure": "flip",
                      "points": [4.0, 1.0, 2.0], "ceiling": 0.05,
                      "tau_grid": [1.0, 0.5], "h_grid": [1.0, 0.5],
                      "expect": "fail"}]
    report = run_scenario(load_scenario(doc)).outcomes[0].report
    assert report.status == "fail"
    assert [row["point"] for row in report.table] == [1.0, 2.0, 4.0]
    worst = max(report.table, key=lambda row: row["max_small_window_stat"])
    assert report.statistics["point"] == worst["point"]
    assert report.statistics["max_small_window_stat"] == worst["max_small_window_stat"]
    assert report.witnesses and report.witnesses[0]["value"] == worst["max_small_window_stat"]


def test_readme_lists_every_check_kind_and_parameter():
    # a kind's parameters are its function's signature, so a parameter added
    # to a library check function is a scenario parameter at once: each
    # README row must name exactly that kind's parameters, no more, no fewer
    import re

    from tauber.scenarios import _REQUIRED, _kind

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {cells[1].strip().strip("`"): cells[2:-1]
            for cells in (line.split("|") for line in readme.splitlines()
                          if line.startswith("| `"))}
    assert sorted(rows) == list(CHECK_NAMES)
    for kind in CHECK_NAMES:
        target, required, optional, tol = (cell.strip() for cell in rows[kind])
        target_kind, params = _kind(kind)
        required = set(re.findall(r"`(\w+)`", required))
        # the backticked names before each " = "
        optional = {name for part in optional.split("; ")
                    for name in re.findall(r"`(\w+)`", part.split(" = ")[0])}
        assert target == target_kind, kind
        assert required == {n for n, (_, d) in params.items() if d is _REQUIRED}, kind
        assert not required & optional, kind
        assert required | optional == set(params), kind
        assert tol == ("`tol`" if "tol" in params else "—"), kind