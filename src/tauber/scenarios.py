"""Scenario files: declarative descriptions of measures, sequences and
checks, executed into machine-readable reports.

A scenario is a JSON object:

    {
      "name": "...",
      "measures":  {"name": <measure object>, ...},
      "sequences": {"name": {"template": <measure object, may use exprs>,
                             "limit": "measure-name" | <measure object> | null,
                             "exceptional": [floats]}, ...},
      "checks":    [{"check": "<registry name>", ...params,
                     "expect": "pass" | "fail" | "inconclusive"}, ...],
      "config":    {"n_max": int, "grid_ratio": float, "band": float}
    }

Measure objects use the wire format of SignedMeasure.to_dict().  Inside a
sequence template any numeric leaf may instead be {"expr": "..."} with an
arithmetic expression in the index n (constants, + - * / **, unary sign);
the expression grammar is whitelisted on the AST, nothing else evaluates.

Check results keep their wall-clock timings out of the serialised report
(console only), so repeated runs of the same scenario produce identical
bytes.  Exit codes reflect expectation matching: 0 when every check ends
in its expected status, 1 when some check mismatches its expectation, 2
when a check errors out or lands on an unexpected inconclusive.
"""

from __future__ import annotations

import ast
import csv
import io
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from . import tauberian
from .convergence import (
    MeasureSequence,
    VerdictReport,
    bounded_laplace_test,
    continuity_backward,
    continuity_forward,
    continuity_point_test,
    distribution_convergence_test,
    laplace_convergence_test,
    part_domination_test,
    right_equicontinuity_test,
    vague_test,
)
from .errors import ScenarioParseError, ScenarioValidationError
from .measures import SignedMeasure
from .tauberian import (
    KaramataConfig,
    asymptotic_ratio,
    karamata_pipeline,
    rv_index_from_distribution,
    rv_index_from_transform,
    rv_report,
    sign_ratio_condition,
    slow_variation_diagnostic,
    window_increment_condition,
)
from .transforms import (
    abs_transform_value,
    check_membership,
    laplace_transform,
    tilt_identity_residual,
)

__all__ = [
    "Scenario",
    "load_scenario",
    "run_scenario",
    "RunReport",
    "CheckOutcome",
    "emit",
    "CHECK_NAMES",
]

_EXPECTED_STATUSES = ("pass", "fail", "inconclusive")


# -- expression templates -------------------------------------------------

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.UAdd, ast.USub)


def _compile_expr(src: str, where: str) -> Callable[[int], float]:
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ScenarioValidationError(where, f"bad expression {src!r}: {exc.msg}") from exc
    for node in ast.walk(tree):
        if isinstance(node, (ast.operator, ast.unaryop, ast.expr_context)):
            continue  # op/context leaves; the parent BinOp/UnaryOp is vetted
        if isinstance(node, (ast.Expression, ast.Constant, ast.Name, ast.BinOp, ast.UnaryOp)):
            if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
                raise ScenarioValidationError(where, f"non-numeric constant in {src!r}")
            if isinstance(node, ast.Name) and node.id != "n":
                raise ScenarioValidationError(
                    where, f"only the name 'n' is allowed in expressions, got {node.id!r}"
                )
            if isinstance(node, ast.BinOp) and not isinstance(node.op, _ALLOWED_BINOPS):
                raise ScenarioValidationError(where, f"operator not allowed in {src!r}")
            if isinstance(node, ast.UnaryOp) and not isinstance(node.op, _ALLOWED_UNARY):
                raise ScenarioValidationError(where, f"operator not allowed in {src!r}")
            continue
        raise ScenarioValidationError(where, f"disallowed syntax in expression {src!r}")
    code = compile(tree, f"<{where}>", "eval")

    def evaluate(n: int) -> float:
        return float(eval(code, {"__builtins__": {}}, {"n": n}))

    return evaluate


def _resolve_number(value: Any, n: int | None, where: str) -> float:
    if isinstance(value, dict):
        if set(value.keys()) != {"expr"} or not isinstance(value["expr"], str):
            raise ScenarioValidationError(where, "expected a number or {\"expr\": \"...\"}")
        if n is None:
            raise ScenarioValidationError(
                where, "index expressions are only allowed inside sequence templates"
            )
        return _compile_expr(value["expr"], where)(n)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioValidationError(where, f"expected a number, got {value!r}")
    return float(value)


def _build_measure(obj: Any, n: int | None, where: str) -> SignedMeasure:
    if not isinstance(obj, dict):
        raise ScenarioValidationError(where, "measure must be a JSON object")
    for key in obj:
        if key not in ("atoms", "segments"):
            raise ScenarioValidationError(f"{where}.{key}", "unknown measure field")
    resolved: dict = {"atoms": [], "segments": []}
    for i, entry in enumerate(obj.get("atoms", []) or []):
        p = f"{where}.atoms[{i}]"
        if not isinstance(entry, dict) or set(entry) - {"x", "w"}:
            raise ScenarioValidationError(p, "atom needs exactly fields x, w")
        resolved["atoms"].append({
            "x": _resolve_number(entry.get("x"), n, f"{p}.x"),
            "w": _resolve_number(entry.get("w"), n, f"{p}.w"),
        })
    for i, entry in enumerate(obj.get("segments", []) or []):
        p = f"{where}.segments[{i}]"
        if not isinstance(entry, dict) or set(entry) - {"lo", "hi", "terms"}:
            raise ScenarioValidationError(p, "segment needs fields lo, hi, terms")
        hi = entry.get("hi")
        seg = {
            "lo": _resolve_number(entry.get("lo"), n, f"{p}.lo"),
            "hi": None if hi is None else _resolve_number(hi, n, f"{p}.hi"),
            "terms": [],
        }
        terms = entry.get("terms")
        if not isinstance(terms, list):
            raise ScenarioValidationError(f"{p}.terms", "terms must be a list")
        for j, t in enumerate(terms):
            q = f"{p}.terms[{j}]"
            if not isinstance(t, dict) or set(t) - {"c", "k", "a", "osc"}:
                raise ScenarioValidationError(q, "term fields are c, k, a, osc")
            osc = t.get("osc")
            if osc is not None:
                if not isinstance(osc, dict) or len(osc) != 1 or next(iter(osc)) not in ("cos", "sin"):
                    raise ScenarioValidationError(
                        f"{q}.osc", 'osc must be null, {"cos": b} or {"sin": b}'
                    )
                osc = {next(iter(osc)): _resolve_number(next(iter(osc.values())), n, f"{q}.osc")}
            seg["terms"].append({
                "c": _resolve_number(t.get("c"), n, f"{q}.c"),
                "k": _resolve_number(t.get("k", 0.0), n, f"{q}.k"),
                "a": _resolve_number(t.get("a", 0.0), n, f"{q}.a"),
                "osc": osc,
            })
        resolved["segments"].append(seg)
    try:
        return SignedMeasure.from_dict(resolved)
    except (ValueError, ArithmeticError) as exc:
        raise ScenarioValidationError(where, str(exc)) from exc


# -- scenario object ------------------------------------------------------


@dataclass
class Scenario:
    name: str
    measures: dict[str, dict]
    sequences: dict[str, dict]
    checks: list[dict]
    config: dict
    _measure_cache: dict[str, SignedMeasure] = field(default_factory=dict, repr=False)
    _sequence_cache: dict[str, MeasureSequence] = field(default_factory=dict, repr=False)

    def measure(self, name: str) -> SignedMeasure:
        if name not in self.measures:
            raise ScenarioValidationError("measures", f"no measure named {name!r}")
        if name not in self._measure_cache:
            self._measure_cache[name] = _build_measure(
                self.measures[name], None, f"measures.{name}"
            )
        return self._measure_cache[name]

    def sequence(self, name: str) -> MeasureSequence:
        if name not in self.sequences:
            raise ScenarioValidationError("sequences", f"no sequence named {name!r}")
        if name not in self._sequence_cache:
            spec = self.sequences[name]
            where = f"sequences.{name}"
            template = spec["template"]
            limit_spec = spec.get("limit")
            if limit_spec is None:
                limit = SignedMeasure.zero()
            elif isinstance(limit_spec, str):
                limit = self.measure(limit_spec)
            else:
                limit = _build_measure(limit_spec, None, f"{where}.limit")
            exceptional = tuple(
                _resolve_number(v, None, f"{where}.exceptional[{i}]")
                for i, v in enumerate(spec.get("exceptional", []) or [])
            )
            # validate the template eagerly at a sample index
            _build_measure(template, 2, f"{where}.template")
            self._sequence_cache[name] = MeasureSequence(
                rule=lambda nn, _t=template, _w=where: _build_measure(_t, nn, f"{_w}.template"),
                limit=limit,
                exceptional=exceptional,
                name=name,
            )
        return self._sequence_cache[name]


def load_scenario(source: str | Path | dict) -> Scenario:
    """Parse and validate a scenario from a file path or an in-memory dict."""
    if isinstance(source, dict):
        raw = source
    else:
        path = Path(source)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioValidationError("", "scenario must be a JSON object")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioValidationError("name", "scenario needs a nonempty string name")
    measures = raw.get("measures", {})
    sequences = raw.get("sequences", {})
    checks = raw.get("checks", [])
    config = raw.get("config", {})
    if not isinstance(measures, dict):
        raise ScenarioValidationError("measures", "must be an object")
    if not isinstance(sequences, dict):
        raise ScenarioValidationError("sequences", "must be an object")
    if not isinstance(checks, list) or not checks:
        raise ScenarioValidationError("checks", "must be a nonempty list")
    if not isinstance(config, dict):
        raise ScenarioValidationError("config", "must be an object")
    for key, seq in sequences.items():
        if not isinstance(seq, dict) or "template" not in seq:
            raise ScenarioValidationError(f"sequences.{key}", "needs a template")
        for extra in set(seq) - {"template", "limit", "exceptional"}:
            raise ScenarioValidationError(f"sequences.{key}.{extra}", "unknown field")
    scn = Scenario(name, measures, sequences, checks, config)
    for i, chk in enumerate(checks):
        where = f"checks[{i}]"
        if not isinstance(chk, dict):
            raise ScenarioValidationError(where, "check must be an object")
        kind = chk.get("check")
        if kind not in _RUNNERS:
            raise ScenarioValidationError(
                f"{where}.check",
                f"unknown check {kind!r}; known: {', '.join(sorted(_RUNNERS))}",
            )
        expect = chk.get("expect", "pass")
        if expect not in _EXPECTED_STATUSES:
            raise ScenarioValidationError(
                f"{where}.expect", f"must be one of {_EXPECTED_STATUSES}"
            )
    # touch every named measure and sequence once so structural errors
    # (including template expressions) surface at load, not mid-run
    for key in measures:
        scn.measure(key)
    for key in sequences:
        scn.sequence(key)
    return scn


# -- check runners --------------------------------------------------------


def _common_kwargs(scn: Scenario, params: dict) -> dict:
    cfg = scn.config
    out = {}
    out["n_max"] = int(params.get("n_max", cfg.get("n_max", 10_000)))
    out["ratio"] = float(params.get("grid_ratio", cfg.get("grid_ratio", 2.0)))
    out["band"] = float(params.get("band", cfg.get("band", 0.1)))
    return out


def _need(params: dict, key: str, where: str) -> Any:
    if key not in params:
        raise ScenarioValidationError(f"{where}.{key}", "required parameter missing")
    return params[key]


def _target_measure(scn: Scenario, params: dict, where: str) -> SignedMeasure:
    if "measure" in params:
        return scn.measure(params["measure"])
    if "sequence" in params:
        seq = scn.sequence(params["sequence"])
        if seq.limit is None:
            raise ScenarioValidationError(f"{where}.sequence", "sequence has no limit")
        return seq.limit
    raise ScenarioValidationError(where, "needs a 'measure' or 'sequence' parameter")


def _run_transform_table(scn: Scenario, params: dict, where: str) -> VerdictReport:
    m = _target_measure(scn, params, where)
    lambdas = [float(v) for v in _need(params, "lambdas", where)]
    tol = float(params.get("tol", 1e-9))
    include_abs = bool(params.get("include_abs", False))
    expected = {float(e["lam"]): float(e["value"]) for e in params.get("expected", [])}
    table = []
    devs = []
    for lam in lambdas:
        row = {"lam": lam, "psi": laplace_transform(m, lam)}
        if include_abs:
            row["psi_abs"] = abs_transform_value(m, lam)
        if lam in expected:
            row["expected"] = expected[lam]
            row["abs_error"] = abs(row["psi"] - expected[lam])
            devs.append(row["abs_error"])
        table.append(row)
    if expected and set(expected) - set(lambdas):
        raise ScenarioValidationError(
            f"{where}.expected", "expected values for arguments missing from lambdas"
        )
    stat = max(devs) if devs else 0.0
    from .convergence import classify

    return VerdictReport(
        check="transform_table",
        status=classify(stat, tol) if devs else "pass",
        statistics={"max_abs_error": stat} if devs else {},
        tolerances={"tol": tol} if devs else {},
        table=tuple(table),
    )


def _run_membership(scn: Scenario, params: dict, where: str) -> VerdictReport:
    m = _target_measure(scn, params, where)
    verdict = check_membership(m)
    return VerdictReport(
        check="membership",
        status="pass" if verdict.status == "member" else (
            "fail" if verdict.status == "not_member" else "inconclusive"
        ),
        notes=(f"{verdict.status}: {verdict.detail}",),
    )


def _run_norm(scn: Scenario, params: dict, where: str) -> VerdictReport:
    m = _target_measure(scn, params, where)
    value = m.norm()
    stats = {"norm": value}
    from .convergence import classify

    if "expected" in params:
        expected = params["expected"]
        if expected == "inf":
            status = "pass" if math.isinf(value) else "fail"
            stats["expected"] = math.inf
        else:
            tol = float(params.get("tol", 1e-9))
            err = abs(value - float(expected))
            stats["expected"] = float(expected)
            stats["abs_error"] = err
            status = classify(err, tol)
    else:
        status = "pass"
    return VerdictReport(check="norm", status=status, statistics=stats)


def _run_tilt_identity(scn: Scenario, params: dict, where: str) -> VerdictReport:
    m = _target_measure(scn, params, where)
    eps_spec = params.get("eps", [0.5, 1.0])
    if isinstance(eps_spec, (int, float)):
        eps_spec = [eps_spec]
    eps_grid = [float(v) for v in eps_spec]
    lambdas = [float(v) for v in params.get("lambdas", [0.25, 1.0, 4.0])]
    tol = float(params.get("tol", 1e-10))
    worst = 0.0
    table = []
    for eps in eps_grid:
        for lam in lambdas:
            r = tilt_identity_residual(m, eps, lam)
            worst = max(worst, r)
            table.append({"eps": eps, "lam": lam, "residual": r})
    from .convergence import classify

    return VerdictReport(
        check="tilt_identity",
        status=classify(worst, tol),
        statistics={"max_residual": worst},
        tolerances={"tol": tol},
        table=tuple(table),
    )


def _run_laplace_convergence(scn: Scenario, params: dict, where: str) -> VerdictReport:
    seq = scn.sequence(_need(params, "sequence", where))
    return laplace_convergence_test(
        seq,
        [float(v) for v in _need(params, "lambdas", where)],
        tol=float(params.get("tol", 1e-6)),
        **_common_kwargs(scn, params),
    )


def _run_vague(scn: Scenario, params: dict, where: str) -> VerdictReport:
    seq = scn.sequence(_need(params, "sequence", where))
    centers = params.get("centers")
    return vague_test(
        seq,
        centers=[float(c) for c in centers] if centers is not None else None,
        width=float(params["width"]) if "width" in params else None,
        tol=float(params.get("tol", 1e-6)),
        **_common_kwargs(scn, params),
    )


def _run_bounded(scn: Scenario, params: dict, where: str) -> VerdictReport:
    seq = scn.sequence(_need(params, "sequence", where))
    return bounded_laplace_test(
        seq,
        [float(v) for v in _need(params, "lambdas", where)],
        cap=float(params["cap"]) if "cap" in params else None,
        slope_tol=float(params.get("slope_tol", 1e-3)),
        **_common_kwargs(scn, params),
    )


def _run_equicontinuity(scn: Scenario, params: dict, where: str) -> VerdictReport:
    seq = scn.sequence(_need(params, "sequence", where))
    kwargs = _common_kwargs(scn, params)
    if "h_grid" in params:
        kwargs["h_grid"] = [float(h) for h in params["h_grid"]]
    return right_equicontinuity_test(
        seq,
        float(_need(params, "point", where)),
        epsilon=float(params.get("epsilon", 0.05)),
        **kwargs,
    )


def _run_distribution(scn: Scenario, params: dict, where: str) -> VerdictReport:
    seq = scn.sequence(_need(params, "sequence", where))
    exclude: tuple[float, ...] = ()
    if params.get("use_exceptional", False):
        exclude = seq.exceptional
    return distribution_convergence_test(
        seq,
        [float(p) for p in _need(params, "points", where)],
        tol=float(params.get("tol", 0.02)),
        exclude=exclude,
        **_common_kwargs(scn, params),
    )


def _run_continuity_point(scn: Scenario, params: dict, where: str) -> VerdictReport:
    m = _target_measure(scn, params, where)
    return continuity_point_test(m, float(_need(params, "point", where)),
                                 atol=float(params.get("atol", 0.0)))


def _run_part_domination(scn: Scenario, params: dict, where: str) -> VerdictReport:
    seq = scn.sequence(_need(params, "sequence", where))
    return part_domination_test(
        seq,
        [float(v) for v in _need(params, "lambdas", where)],
        delta=float(params.get("delta", 0.1)),
        **_common_kwargs(scn, params),
    )


def _run_forward(scn: Scenario, params: dict, where: str) -> VerdictReport:
    seq = scn.sequence(_need(params, "sequence", where))
    kwargs = _common_kwargs(scn, params)
    if "h_grid" in params:
        kwargs["h_grid"] = [float(h) for h in params["h_grid"]]
    return continuity_forward(
        seq,
        float(_need(params, "point", where)),
        [float(v) for v in _need(params, "lambdas", where)],
        psi_tol=float(params.get("psi_tol", 1e-6)),
        F_tol=float(params.get("F_tol", 0.02)),
        epsilon=float(params.get("epsilon", 0.05)),
        skip_equicontinuity=bool(params.get("skip_equicontinuity", False)),
        **kwargs,
    )


def _run_backward(scn: Scenario, params: dict, where: str) -> VerdictReport:
    seq = scn.sequence(_need(params, "sequence", where))
    return continuity_backward(
        seq,
        [float(p) for p in _need(params, "points", where)],
        [float(v) for v in _need(params, "lambdas", where)],
        psi_tol=float(params.get("psi_tol", 1e-6)),
        F_tol=float(params.get("F_tol", 0.02)),
        **_common_kwargs(scn, params),
    )


def _grid_params(params: dict) -> dict:
    out = {}
    if "tau_grid" in params:
        out["tau_grid"] = [float(v) for v in params["tau_grid"]]
    if "t_grid" in params:
        out["t_grid"] = [float(v) for v in params["t_grid"]]
    if "ratio_points" in params:
        out["ratio_points"] = [float(v) for v in params["ratio_points"]]
    return out


def _run_rv_transform(scn: Scenario, params: dict, where: str) -> VerdictReport:
    m = _target_measure(scn, params, where)
    g = _grid_params(params)
    g.pop("t_grid", None)
    est = rv_index_from_transform(m, **g)
    declared = float(params["declared"]) if "declared" in params else None
    return rv_report(est, declared=declared, rho_tol=float(params.get("rho_tol", 0.05)),
                     check="rv_index_transform")


def _run_rv_distribution(scn: Scenario, params: dict, where: str) -> VerdictReport:
    m = _target_measure(scn, params, where)
    g = _grid_params(params)
    g.pop("tau_grid", None)
    est = rv_index_from_distribution(
        m, window_decades=float(params.get("window_decades", 1.0)), **g
    )
    declared = float(params["declared"]) if "declared" in params else None
    return rv_report(est, declared=declared, rho_tol=float(params.get("rho_tol", 0.05)),
                     check="rv_index_distribution")


def _run_sign_ratio(scn: Scenario, params: dict, where: str) -> VerdictReport:
    m = _target_measure(scn, params, where)
    kwargs = {}
    if "tau_grid" in params:
        kwargs["tau_grid"] = [float(v) for v in params["tau_grid"]]
    return sign_ratio_condition(m, floor=float(params.get("floor", 0.01)), **kwargs)


def _run_window_increment(scn: Scenario, params: dict, where: str) -> VerdictReport:
    m = _target_measure(scn, params, where)
    points = params.get("points")
    if points is None:
        points = [params.get("point", 1.0)]
    reports = []
    for x in points:
        kwargs = {}
        if "tau_grid" in params:
            kwargs["tau_grid"] = [float(v) for v in params["tau_grid"]]
        if "h_grid" in params:
            kwargs["h_grid"] = [float(v) for v in params["h_grid"]]
        reports.append(window_increment_condition(
            m, float(x), ceiling=float(params.get("ceiling", 0.05)), **kwargs
        ))
    if len(reports) == 1:
        return reports[0]
    from .convergence import _worst

    worst = max(reports, key=lambda r: r.statistics["max_small_window_stat"])
    return VerdictReport(
        check="window_increment_condition",
        status=_worst(r.status for r in reports),
        statistics=dict(worst.statistics),
        tolerances=dict(worst.tolerances),
        table=tuple(
            {"point": float(x), "max_small_window_stat": r.statistics["max_small_window_stat"]}
            for x, r in zip(points, reports)
        ),
    )


def _run_asymptotic_ratio(scn: Scenario, params: dict, where: str) -> VerdictReport:
    m = _target_measure(scn, params, where)
    kwargs = {}
    if "t_grid" in params:
        kwargs["t_grid"] = [float(v) for v in params["t_grid"]]
    return asymptotic_ratio(
        m, float(_need(params, "rho", where)),
        window_decades=float(params.get("window_decades", 1.0)),
        tol=float(params.get("tol", 0.02)),
        **kwargs,
    )


def _run_slow_variation(scn: Scenario, params: dict, where: str) -> VerdictReport:
    m = _target_measure(scn, params, where)
    g = _grid_params(params)
    g.pop("tau_grid", None)
    return slow_variation_diagnostic(
        m, float(_need(params, "rho", where)),
        tol=float(params.get("tol", 0.01)),
        window_decades=float(params.get("window_decades", 1.0)),
        **g,
    )


def _run_pipeline(scn: Scenario, params: dict, where: str) -> VerdictReport:
    m = _target_measure(scn, params, where)
    direction = params.get("direction", "psi_to_F")
    cfg_fields = {
        f: params[f]
        for f in (
            "rho", "rho_tol", "floor", "ceiling", "psi_tol", "F_tol", "ratio_tol",
            "sv_tol", "epsilon", "n_max", "grid_ratio", "band",
            "integrated_tail_start", "window_decades",
        )
        if f in params
    }
    for key in ("tau_grid", "t_grid", "ratio_points", "eval_points", "lambdas", "h_grid"):
        if key in params:
            cfg_fields[key] = tuple(float(v) for v in params[key])
    scn_common = _common_kwargs(scn, params)
    cfg_fields.setdefault("n_max", scn_common["n_max"])
    cfg_fields.setdefault("grid_ratio", scn_common["ratio"])
    cfg_fields.setdefault("band", scn_common["band"])
    return karamata_pipeline(m, direction, KaramataConfig(**cfg_fields))


_RUNNERS: dict[str, Callable[[Scenario, dict, str], VerdictReport]] = {
    "transform_table": _run_transform_table,
    "membership": _run_membership,
    "norm": _run_norm,
    "tilt_identity": _run_tilt_identity,
    "laplace_convergence": _run_laplace_convergence,
    "vague": _run_vague,
    "bounded_laplace": _run_bounded,
    "right_equicontinuity": _run_equicontinuity,
    "distribution_convergence": _run_distribution,
    "continuity_point": _run_continuity_point,
    "part_domination": _run_part_domination,
    "continuity_forward": _run_forward,
    "continuity_backward": _run_backward,
    "rv_index_transform": _run_rv_transform,
    "rv_index_distribution": _run_rv_distribution,
    "sign_ratio_condition": _run_sign_ratio,
    "window_increment_condition": _run_window_increment,
    "asymptotic_ratio": _run_asymptotic_ratio,
    "slow_variation": _run_slow_variation,
    "karamata_pipeline": _run_pipeline,
}

CHECK_NAMES = tuple(sorted(_RUNNERS))

_META_KEYS = {"check", "expect", "id"}


# -- execution ------------------------------------------------------------


@dataclass
class CheckOutcome:
    check_id: str
    kind: str
    expect: str
    report: VerdictReport | None
    error: str | None
    elapsed: float  # console-only; never serialised

    @property
    def status(self) -> str:
        return "error" if self.error is not None else self.report.status

    @property
    def matched(self) -> bool:
        return self.error is None and self.report.status == self.expect


@dataclass
class RunReport:
    scenario: str
    outcomes: list[CheckOutcome]
    config: dict

    @property
    def exit_code(self) -> int:
        code = 0
        for o in self.outcomes:
            if o.error is not None or (o.status == "inconclusive" and o.expect != "inconclusive"):
                return 2
            if not o.matched:
                code = 1
        return code

    def to_dict(self) -> dict:
        return _json_safe({
            "scenario": self.scenario,
            "config": dict(sorted(self.config.items())),
            "exit_code": self.exit_code,
            "checks": [
                {
                    "id": o.check_id,
                    "check": o.kind,
                    "expect": o.expect,
                    "status": o.status,
                    "matched": o.matched,
                    **({"error": o.error} if o.error is not None else
                       {"report": o.report.to_dict()}),
                }
                for o in self.outcomes
            ],
        })

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def csv_rows(self) -> list[tuple[str, str, str, str]]:
        rows: list[tuple[str, str, str, str]] = []
        for o in self.outcomes:
            rows.append((o.check_id, "status", o.status, o.status))
            rows.append((o.check_id, "expect", o.expect, "pass" if o.matched else "fail"))
            if o.error is not None:
                rows.append((o.check_id, "error", o.error, "error"))
                continue
            rows.extend(_report_rows(o.check_id, o.report))
        return rows

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "parameter", "value", "verdict"])
        writer.writerows(self.csv_rows())
        return buf.getvalue()


def _fmt_value(v: Any) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _report_rows(prefix: str, rep: VerdictReport) -> list[tuple[str, str, str, str]]:
    rows = []
    for k in sorted(rep.statistics):
        rows.append((prefix, k, _fmt_value(rep.statistics[k]), rep.status))
    for j, entry in enumerate(rep.table):
        for k in sorted(entry):
            rows.append((prefix, f"table[{j}].{k}", _fmt_value(entry[k]), rep.status))
    for child in rep.children:
        rows.extend(_report_rows(f"{prefix}/{child.check}", child))
    return rows


def _json_safe(obj: Any) -> Any:
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _execute_one(scn: Scenario, index: int, chk: dict) -> CheckOutcome:
    kind = chk["check"]
    check_id = str(chk.get("id") or f"{index:02d}_{kind}")
    expect = chk.get("expect", "pass")
    params = {k: v for k, v in chk.items() if k not in _META_KEYS}
    started = time.perf_counter()
    try:
        report = _RUNNERS[kind](scn, params, f"checks[{index}]")
        return CheckOutcome(check_id, kind, expect, report, None,
                            time.perf_counter() - started)
    except Exception as exc:  # noqa: BLE001 -- checks must not kill the run
        return CheckOutcome(
            check_id, kind, expect, None,
            f"{type(exc).__name__}: {exc}",
            time.perf_counter() - started,
        )


def run_scenario(
    scn: Scenario,
    n_max: int | None = None,
    tol: float | None = None,
) -> RunReport:
    """Execute every check in declaration order; errors are captured per
    check, never raised.

    n_max/tol override the scenario config and per-check `tol` parameters
    (for checks that define one).
    """
    config = dict(scn.config)
    if n_max is not None:
        config["n_max"] = int(n_max)
    checks = []
    for chk in scn.checks:
        chk = dict(chk)
        if n_max is not None:
            chk["n_max"] = int(n_max)
        if tol is not None and "tol" in _runner_tols(chk["check"]):
            chk["tol"] = float(tol)
        checks.append(chk)
    scn_run = Scenario(scn.name, scn.measures, scn.sequences, checks, config)
    outcomes = [_execute_one(scn_run, i, c) for i, c in enumerate(checks)]
    return RunReport(scn.name, outcomes, config)


def _runner_tols(kind: str) -> set[str]:
    # checks whose primary tolerance is spelled "tol"
    return {"tol"} if kind in {
        "transform_table", "norm", "tilt_identity", "laplace_convergence",
        "vague", "distribution_convergence", "asymptotic_ratio", "slow_variation",
    } else set()


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_") or "scenario"


def emit(report: RunReport, out_dir: str | Path, fmt: str = "json") -> list[Path]:
    """Write the report under out_dir; returns the written paths.

    Formats: "json", "csv" or "both".  Output bytes are a function of the
    scenario and its results only (no timestamps), so rerunning an
    unchanged scenario reproduces the files exactly.
    """
    if fmt not in ("json", "csv", "both"):
        raise ValueError(f"unknown format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = _slug(report.scenario)
    written = []
    if fmt in ("json", "both"):
        p = out / f"{stem}.json"
        p.write_text(report.to_json())
        written.append(p)
    if fmt in ("csv", "both"):
        p = out / f"{stem}.csv"
        p.write_text(report.to_csv())
        written.append(p)
    return written
