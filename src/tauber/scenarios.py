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

Measure objects use the wire format of SignedMeasure.to_dict(), parsed by
SignedMeasure.from_dict alone.  Inside a sequence template any numeric
leaf may instead be {"expr": "..."}: arithmetic in the index n (floats,
+ - * / **, unary sign), whitelisted on the AST; nothing else evaluates.

`_CHECKS` maps each check kind to the function that runs it, and the
kind's parameters, defaults and target are that function's signature
(read by `_kind`).  `load_scenario` does all validation: it builds every
measure, compiles each template expression once (the leaf `_leaf`), and
coerces every check parameter by its kind's signature, so a bad field or
parameter is a ScenarioValidationError naming its dotted path, never a
run-time error.

Check results keep their wall-clock timings out of the serialised report
(console only), so repeated runs of the same scenario produce identical
bytes.  Exit codes reflect expectation matching: 0 when every check ends
in its expected status, 1 when some check mismatches its expectation, 2
when a check errors out or lands on an unexpected inconclusive.
"""

from __future__ import annotations

import ast
import copy
import csv
import inspect
import io
import json
import math
import re
import time
from dataclasses import dataclass, field
from functools import cache, partial
from pathlib import Path
from types import CodeType
from typing import Any, Callable

from .convergence import (
    DEFAULT_BAND,
    DEFAULT_H_GRID,
    DEFAULT_N_MAX,
    DEFAULT_RATIO,
    MeasureSequence,
    VerdictReport,
    _sweep,
    bounded_laplace_test,
    classify,
    continuity_backward,
    continuity_forward,
    continuity_point_test,
    distribution_convergence_test,
    grid,
    index_grid,
    laplace_convergence_test,
    part_domination_test,
    right_equicontinuity_test,
    vague_test,
)
from .errors import ScenarioParseError, ScenarioValidationError
from .measures import SignedMeasure, _json_number, _number
from .tauberian import (
    DEFAULT_RATIO_POINTS,
    DEFAULT_T_GRID,
    DEFAULT_TAU_GRID,
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
    abs_transform,
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

# the whole grammar: numbers, the name n, + - * / ** and unary signs
_ALLOWED_NODES = (
    ast.Expression, ast.Constant, ast.Name, ast.Load, ast.BinOp, ast.UnaryOp,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub,
)


def _compile_expr(src: str, where: str) -> CodeType:
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ScenarioValidationError(where, f"bad expression {src!r}: {exc.msg}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ScenarioValidationError(
                where, f"{type(node).__name__} not allowed in expression {src!r}"
            )
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ScenarioValidationError(where, f"non-numeric constant in {src!r}")
            # float arithmetic only: a huge ** overflows at once instead of
            # building an arbitrarily large int
            node.value = float(node.value)
        if isinstance(node, ast.Name) and node.id != "n":
            raise ScenarioValidationError(
                where, f"only the name 'n' is allowed in expressions, got {node.id!r}"
            )
    return compile(tree, f"<{where}>", "eval")


def _leaf(codes: dict[str, CodeType] | None, n: int | None, value: Any, path: str) -> float:
    """A numeric leaf of a measure object: a JSON number, or inside a
    sequence template (`codes` given) an {"expr": ...} evaluated at index
    n.  Each expression compiles once, into `codes` under its dotted path,
    the first time the template is parsed."""
    if not isinstance(value, dict):
        return _json_number(value, path)
    if set(value) != {"expr"} or not isinstance(value["expr"], str):
        raise ScenarioValidationError(path, 'expected a number or {"expr": "..."}')
    if codes is None:
        raise ScenarioValidationError(
            path, "index expressions are only allowed inside sequence templates"
        )
    if path not in codes:
        codes[path] = _compile_expr(value["expr"], path)
    try:
        return float(eval(codes[path], {"__builtins__": {}}, {"n": float(n)}))
    except (ArithmeticError, TypeError) as exc:
        raise ScenarioValidationError(path, f"{value['expr']!r} at n = {n}: {exc}") from exc


_fixed_leaf = partial(_leaf, None, None)  # a measure outside any template


# -- parameter coercion ---------------------------------------------------

_REQUIRED = inspect.Parameter.empty  # default of a parameter a check cannot run without


def _int(v: Any) -> int:
    value = _number(v)
    if not value.is_integer():
        raise ValueError(f"expected an integer, got {v!r}")
    return int(value)


def _bool(v: Any) -> bool:
    if not isinstance(v, bool):
        raise ValueError(f"expected true or false, got {v!r}")
    return v


def _floats(v: Any) -> tuple[float, ...]:
    if not isinstance(v, (list, tuple)) or not v:
        raise ValueError(f"expected a nonempty list of numbers, got {v!r}")
    return tuple(_number(x) for x in v)


def _checked(coerce: Callable[[Any], Any], check: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """`coerce`, then `check` the value, which raises ValueError to refuse it."""
    def coerce_and_check(v: Any) -> Any:
        value = coerce(v)
        check(value)
        return value
    return coerce_and_check


# a grid parameter, positive by the one `grid` rule and kept in its order
_grid = _checked(_floats, lambda v: grid(v, "grid"))


def _float_or_floats(v: Any) -> tuple[float, ...]:
    return _floats(v if isinstance(v, (list, tuple)) else [v])


def _norm_expected(v: Any) -> float:
    return math.inf if v == "inf" else _number(v)


def _expected_values(v: Any) -> tuple[tuple[float, float], ...]:
    if not isinstance(v, (list, tuple)):
        raise ValueError(f"expected a list, got {v!r}")
    pairs = []
    for e in v:
        if not isinstance(e, dict) or set(e) != {"lam", "value"}:
            raise ValueError(f'entries must be {{"lam": number, "value": number}}, got {e!r}')
        pairs.append((_number(e["lam"]), _number(e["value"])))
    return tuple(pairs)


def _direction(v: Any) -> str:
    if v not in ("psi_to_F", "F_to_psi"):
        raise ValueError(f"expected psi_to_F or F_to_psi, got {v!r}")
    return v


# a check parameter's coercion by its name (`kind.name` where two kinds
# differ); a `*_grid` parameter is a grid, and any other a JSON number
_COERCIONS = {
    **dict.fromkeys(("lambdas", "points", "centers", "ratio_points"), _floats),
    **dict.fromkeys(("karamata_pipeline.lambdas", "karamata_pipeline.ratio_points",
                     "karamata_pipeline.eval_points"), _grid),
    **dict.fromkeys(("include_abs", "skip_equicontinuity", "use_exceptional"), _bool),
    "eps": _float_or_floats,
    "direction": _direction,
    "transform_table.expected": _expected_values,
    "norm.expected": _norm_expected,
}


def _coerce(spec: dict[str, tuple[Callable, Any]], given: dict, where: str) -> dict:
    """Coerce `given` by `spec` (name -> (coercion, default)), filling in
    defaults; an unknown, missing or uncoercible key names its path."""
    for name in given:
        if name not in spec:
            raise ScenarioValidationError(
                f"{where}.{name}", f"unknown parameter; known: {', '.join(sorted(spec))}"
            )
    out = {}
    for name, (coerce, default) in spec.items():
        if name not in given:
            if default is _REQUIRED:
                raise ScenarioValidationError(f"{where}.{name}", "required parameter missing")
            out[name] = default
            continue
        try:
            out[name] = coerce(given[name])
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ScenarioValidationError(f"{where}.{name}", str(exc)) from None
    return out


# -- check kinds ----------------------------------------------------------

# scenario `config` keys, which a grid check may also set for itself
_GRID_PARAMS = {  # index_grid refuses inf, an n_max below 1 and a ratio not above 1
    "n_max": (_checked(_int, index_grid), DEFAULT_N_MAX),
    "grid_ratio": (_checked(_number, lambda r: index_grid(2, r)), DEFAULT_RATIO),
    "band": (_number, DEFAULT_BAND),
}


def _transform_table(measure, lambdas, tol=1e-9, include_abs=False, expected=()) -> VerdictReport:
    expected = dict(expected)
    table = []
    devs = []
    for lam in lambdas:
        row = {"lam": lam, "psi": laplace_transform(measure, lam)}
        if include_abs:
            row["psi_abs"] = abs_transform(measure, lam).value
        if lam in expected:
            row["expected"] = expected[lam]
            row["abs_error"] = abs(row["psi"] - expected[lam])
            devs.append(row["abs_error"])
        table.append(row)
    stat = max(devs) if devs else 0.0
    return VerdictReport(
        check="transform_table",
        status=classify(stat, tol) if devs else "pass",
        statistics={"max_abs_error": stat} if devs else {},
        tolerances={"tol": tol} if devs else {},
        table=tuple(table),
    )


def _norm(measure, expected=None, tol=1e-9) -> VerdictReport:
    value = measure.norm()
    stats = {"norm": value}
    status = "pass"
    if expected is not None:
        stats["expected"] = expected
        if math.isinf(expected):
            status = "pass" if math.isinf(value) else "fail"
        else:
            stats["abs_error"] = abs(value - expected)
            status = classify(stats["abs_error"], tol)
    return VerdictReport(check="norm", status=status, statistics=stats)


def _tilt_identity(measure, eps=(0.5, 1.0), lambdas=(0.25, 1.0, 4.0), tol=1e-10) -> VerdictReport:
    worst = 0.0
    table = []
    for e in eps:
        for lam in lambdas:
            r = tilt_identity_residual(measure, e, lam)
            worst = max(worst, r)
            table.append({"eps": e, "lam": lam, "residual": r})
    return VerdictReport(
        check="tilt_identity",
        status=classify(worst, tol),
        statistics={"max_residual": worst},
        tolerances={"tol": tol},
        table=tuple(table),
    )


def _rv_index_transform(
    measure, declared=None, rho_tol=0.05, tau_grid=DEFAULT_TAU_GRID,
    ratio_points=DEFAULT_RATIO_POINTS,
) -> VerdictReport:
    est = rv_index_from_transform(measure, ratio_points=ratio_points, tau_grid=tau_grid)
    return rv_report(est, declared=declared, rho_tol=rho_tol)


def _rv_index_distribution(
    measure, declared=None, rho_tol=0.05, t_grid=DEFAULT_T_GRID,
    ratio_points=DEFAULT_RATIO_POINTS, window_decades=1.0,
) -> VerdictReport:
    est = rv_index_from_distribution(
        measure, ratio_points=ratio_points, t_grid=t_grid, window_decades=window_decades)
    return rv_report(est, declared=declared, rho_tol=rho_tol)


def _window_increment(
    measure, point=1.0, points=None, ceiling=0.05, tau_grid=DEFAULT_TAU_GRID,
    h_grid=DEFAULT_H_GRID,
) -> VerdictReport:
    """One point gives its own report; several are swept, keeping the worst."""
    run = partial(window_increment_condition, measure, h_grid=h_grid, tau_grid=tau_grid,
                  ceiling=ceiling)
    points = (point,) if points is None else points
    if len(points) == 1:
        return run(points[0])
    return _sweep("window_increment_condition", points, run, "max_small_window_stat")


# each check kind and the function that runs it; a kind's parameters are
# that function's, read by `_kind`
_CHECKS: dict[str, Callable[..., VerdictReport]] = {
    "transform_table": _transform_table,
    "norm": _norm,
    "tilt_identity": _tilt_identity,
    "laplace_convergence": laplace_convergence_test,
    "vague": vague_test,
    "bounded_laplace": bounded_laplace_test,
    "right_equicontinuity": right_equicontinuity_test,
    "distribution_convergence": distribution_convergence_test,
    "continuity_point": continuity_point_test,
    "part_domination": part_domination_test,
    "continuity_forward": continuity_forward,
    "continuity_backward": continuity_backward,
    "rv_index_transform": _rv_index_transform,
    "rv_index_distribution": _rv_index_distribution,
    "sign_ratio_condition": sign_ratio_condition,
    "window_increment_condition": _window_increment,
    "asymptotic_ratio": asymptotic_ratio,
    "slow_variation": slow_variation_diagnostic,
    "karamata_pipeline": karamata_pipeline,
}

CHECK_NAMES = tuple(sorted(_CHECKS))


@cache
def _kind(kind: str) -> tuple[str, dict[str, tuple[Callable, Any]]]:
    """The target and the parameters (name -> (coercion, default or
    _REQUIRED)) of a check kind, read off the signature of `_CHECKS[kind]`.

    A first parameter `seq` takes a sequence; any other takes a measure,
    or a sequence's limit.  Every later parameter, keyword-only ones
    included, is a scenario parameter coerced by `_COERCIONS`.  A function
    with `n_max` walks an index grid: its `n_max`, `ratio` and `band` are
    the keys of `_GRID_PARAMS` instead, listed last.
    """
    first, *rest = inspect.signature(_CHECKS[kind]).parameters.values()
    params = {}
    for p in rest:
        if p.name not in ("n_max", "ratio", "band"):
            coerce = _grid if p.name.endswith("_grid") else _COERCIONS.get(
                f"{kind}.{p.name}", _COERCIONS.get(p.name, _number))
            params[p.name] = (coerce, p.default)
    if any(p.name == "n_max" for p in rest):
        params.update(_GRID_PARAMS)
    return "sequence" if first.name == "seq" else "measure", params


_META_KEYS = {"check", "expect", "id"}
_TARGET_KEYS = {"measure": {"measure", "sequence"}, "sequence": {"sequence"}}


# -- scenario object ------------------------------------------------------


@dataclass(frozen=True)
class _Check:
    """A check as `load_scenario` validated it: its target resolved and its
    parameters coerced, defaults filled in."""

    check_id: str
    kind: str
    expect: str
    target: SignedMeasure | MeasureSequence
    params: dict


@dataclass
class Scenario:
    name: str
    measures: dict[str, dict]
    sequences: dict[str, dict]
    checks: list[dict]
    config: dict
    _measures: dict[str, SignedMeasure] = field(default_factory=dict, repr=False)
    _sequences: dict[str, MeasureSequence] = field(default_factory=dict, repr=False)
    _checks: list[_Check] = field(default_factory=list, repr=False)

    def measure(self, name: str) -> SignedMeasure:
        return _lookup(self._measures, name, "measures", "measure")

    def sequence(self, name: str) -> MeasureSequence:
        return _lookup(self._sequences, name, "sequences", "sequence")


def _lookup(table: dict, name: Any, where: str, what: str) -> Any:
    if not isinstance(name, str) or name not in table:
        raise ScenarioValidationError(where, f"no {what} named {name!r}")
    return table[name]


def _sequence(scn: Scenario, key: str, spec: Any) -> MeasureSequence:
    where = f"sequences.{key}"
    if not isinstance(spec, dict) or "template" not in spec:
        raise ScenarioValidationError(where, "needs a template")
    for extra in set(spec) - {"template", "limit", "exceptional"}:
        raise ScenarioValidationError(f"{where}.{extra}", "unknown field")
    limit_spec = spec.get("limit")
    if limit_spec is None:
        limit = SignedMeasure.zero()
    elif isinstance(limit_spec, str):
        limit = _lookup(scn._measures, limit_spec, f"{where}.limit", "measure")
    else:
        limit = SignedMeasure.from_dict(limit_spec, _fixed_leaf, f"{where}.limit")
    exceptional = tuple(
        _fixed_leaf(v, f"{where}.exceptional[{i}]")
        for i, v in enumerate(spec.get("exceptional", []) or [])
    )
    # the rule parses a copy of what load validated; parsing it here, at the
    # sample index n = 2, compiles every expression and fails a bad one now
    template, codes, at = copy.deepcopy(spec["template"]), {}, f"{where}.template"
    SignedMeasure.from_dict(template, partial(_leaf, codes, 2), at)
    return MeasureSequence(
        rule=lambda n: SignedMeasure.from_dict(template, partial(_leaf, codes, n), at),
        limit=limit,
        exceptional=exceptional,
        name=key,
    )


def _prepare(scn: Scenario, index: int, chk: Any, defaults: dict) -> _Check:
    where = f"checks[{index}]"
    if not isinstance(chk, dict):
        raise ScenarioValidationError(where, "check must be an object")
    kind = chk.get("check")
    if not isinstance(kind, str) or kind not in _CHECKS:
        raise ScenarioValidationError(
            f"{where}.check", f"unknown check {kind!r}; known: {', '.join(CHECK_NAMES)}"
        )
    expect = chk.get("expect", "pass")
    if expect not in _EXPECTED_STATUSES:
        raise ScenarioValidationError(f"{where}.expect", f"must be one of {_EXPECTED_STATUSES}")
    target_kind, spec = _kind(kind)
    if target_kind == "measure" and "measure" in chk:
        target = _lookup(scn._measures, chk["measure"], f"{where}.measure", "measure")
    elif "sequence" in chk:
        target = _lookup(scn._sequences, chk["sequence"], f"{where}.sequence", "sequence")
        if target_kind == "measure":
            target = target.limit
    elif target_kind == "measure":
        raise ScenarioValidationError(where, "needs a 'measure' or 'sequence' parameter")
    else:
        raise ScenarioValidationError(f"{where}.sequence", "required parameter missing")
    # a grid check's n_max, grid_ratio and band default to the scenario's config
    spec = {k: (coerce, defaults.get(k, default)) for k, (coerce, default) in spec.items()}
    skip = _META_KEYS | _TARGET_KEYS[target_kind]
    params = _coerce(spec, {k: v for k, v in chk.items() if k not in skip}, where)
    if kind == "transform_table" and set(dict(params["expected"])) - set(params["lambdas"]):
        raise ScenarioValidationError(
            f"{where}.expected", "expected values for arguments missing from lambdas"
        )
    if "grid_ratio" in params:
        params["ratio"] = params.pop("grid_ratio")
    return _Check(str(chk.get("id") or f"{index:02d}_{kind}"), kind, expect, target, params)


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
    for key, value in (("measures", measures), ("sequences", sequences), ("config", config)):
        if not isinstance(value, dict):
            raise ScenarioValidationError(key, "must be an object")
    if not isinstance(checks, list) or not checks:
        raise ScenarioValidationError("checks", "must be a nonempty list")
    defaults = _coerce(_GRID_PARAMS, config, "config")
    # the config as the checks run it: "n_max": 1e4 is the integer 10000
    scn = Scenario(name, measures, sequences, checks, {k: defaults[k] for k in config})
    for key, obj in measures.items():
        scn._measures[key] = SignedMeasure.from_dict(obj, _fixed_leaf, f"measures.{key}")
    for key, spec in sequences.items():
        scn._sequences[key] = _sequence(scn, key, spec)
    ids = set()
    for i, chk in enumerate(checks):
        prepared = _prepare(scn, i, chk, defaults)
        if prepared.check_id in ids:
            raise ScenarioValidationError(
                f"checks[{i}].id", f"duplicate check id {prepared.check_id!r}"
            )
        ids.add(prepared.check_id)
        scn._checks.append(prepared)
    return scn


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


def _report_rows(prefix: str, rep: VerdictReport) -> list[tuple[str, str, str, str]]:
    rows = []
    for k in sorted(rep.statistics):
        rows.append((prefix, k, str(rep.statistics[k]), rep.status))
    for j, entry in enumerate(rep.table):
        for k in sorted(entry):
            rows.append((prefix, f"table[{j}].{k}", str(entry[k]), rep.status))
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


def _execute_one(chk: _Check, n_max: int | None, tol: float | None) -> CheckOutcome:
    params = dict(chk.params)
    if n_max is not None and "n_max" in params:
        params["n_max"] = n_max
    if tol is not None and "tol" in params:
        params["tol"] = float(tol)
    started = time.perf_counter()
    try:
        # by name, where a tracer may have rebound the library function
        report = globals()[_CHECKS[chk.kind].__name__](chk.target, **params)
        return CheckOutcome(chk.check_id, chk.kind, chk.expect, report, None,
                            time.perf_counter() - started)
    except Exception as exc:  # noqa: BLE001 -- checks must not kill the run
        return CheckOutcome(
            chk.check_id, chk.kind, chk.expect, None,
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

    n_max overrides the index ceiling of every check that walks an index
    grid; tol overrides the `tol` parameter of every check that has one.
    An n_max that `index_grid` refuses (below 1, infinite or not an
    integer) raises its ValueError before any check runs.
    """
    config = dict(scn.config)
    if n_max is not None:
        index_grid(n_max)
        config["n_max"] = n_max = int(n_max)
    outcomes = [_execute_one(chk, n_max, tol) for chk in scn._checks]
    return RunReport(scn.name, outcomes, config)


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
