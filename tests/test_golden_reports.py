"""Scenario reports, JSON and CSV, byte for byte.

`tests/golden/` holds the reports `tauber run <scenario> --format both`
writes for each bundled scenario at its own config.  Three subdirectories
widen the contract:

- `sweep/`: the bundled scenarios at `n_max=100000000, grid_ratio=1.25`
  and the stress scenarios in `benchmarks/scenarios/` at their own
  config, the inputs of the benchmark's `scenario_sweep` workload;
- `kinds/`: `tests/scenarios/every_check_kind.json`, which runs every
  check kind with most of its parameters set;
- `overrides/`: the same scenario run with `n_max=32, tol=0.5`, the
  `--n-max`/`--tol` overrides.

A change that is meant to keep every verdict and number must keep these
bytes; a change that is meant to alter a report rewrites the golden files
with it, all of them at once:

    PYTHONPATH=src python -m tests.test_golden_reports

A rewrite that moves numbers keeps every status, and a test here shows
that each moved number is now closer to an exact reference.
"""

from __future__ import annotations

import json
import math
import pathlib
from fractions import Fraction

import pytest

from tauber import (
    TransformValue,
    convergence,
    decomposition,
    emit,
    load_scenario,
    measures,
    run_scenario,
    tauberian,
)
from tauber.scenarios import _slug
from tests.conftest import mpmath_abs_transform

ROOT = pathlib.Path(__file__).parents[1]
GOLDEN = ROOT / "tests" / "golden"
SCENARIOS = sorted((ROOT / "src" / "tauber" / "data").glob("*.json"))
STRESS = sorted((ROOT / "benchmarks" / "scenarios").glob("*.json"))
EVERY_KIND = ROOT / "tests" / "scenarios" / "every_check_kind.json"
SWEEP_CONFIG = {"n_max": 100_000_000, "grid_ratio": 1.25}

# The numbers of `sweep/quadrature-tier-bounded-laplace.json` while the
# total-variation transform of its incommensurable densities came from
# QUADPACK, by JSON path.  The truncated sign-run tier moved each of them.
QUADPACK_NUMBERS = {
    "checks[0].report.statistics.max_tail_value": 0.9939811603838323,
    "checks[0].report.table[0].extrapolated": 0.9836597198794562,
    "checks[0].report.table[0].growth_rate": -0.007445345515246978,
    "checks[0].report.table[0].tail_max": 0.9939811603838323,
    "checks[0].report.table[1].extrapolated": 0.581318937952194,
    "checks[0].report.table[1].growth_rate": -0.0031656862596570663,
    "checks[0].report.table[1].tail_max": 0.5857075109630313,
    "checks[1].report.statistics.max_tail_value": 0.9939811603838323,
    "checks[1].report.table[0].extrapolated": 0.9836597198794562,
    "checks[1].report.table[0].growth_rate": -0.007445345515246978,
    "checks[1].report.table[0].tail_max": 0.9939811603838323,
    "checks[1].report.witnesses[0].growth_rate": -0.007445345515246978,
    "checks[1].report.witnesses[0].value": 1.3342390194133904,
}

# The numbers the integer-power kernel moved when its cancelling
# differences gave way to the positive series of gamma(j+1, z*delta) and,
# at z = 0, to (hi - lo) times a Horner sum; by golden file and JSON path.
KERNEL_NUMBERS = {
    "mollified-point-mass.json": {
        "checks[0].report.statistics.max_extrapolated_abs_deviation": 3.1802287040784416e-13,
        "checks[0].report.table[0].extrapolated": -3.1802287040784416e-13,
    },
    "sweep/mollified-point-mass.json": {
        "checks[0].report.statistics.max_extrapolated_abs_deviation": 2.2637406474379665e-09,
        "checks[0].report.statistics.max_tail_abs_deviation": 7.84623686023167e-07,
        "checks[0].report.table[0].extrapolated": -2.2637406474379665e-09,
        "checks[0].report.table[0].tail_max_abs": 7.84623686023167e-07,
    },
    "kinds/every-check-kind.json": {
        "checks[21].report.children[5].statistics.max_best_window_stat": 0.024819603367335324,
        "checks[21].report.children[5].table[0].best_window_stat": 0.011187088974192485,
        "checks[21].report.children[5].table[1].best_window_stat": 0.024819603367335324,
    },
    "overrides/every-check-kind.json": {
        "checks[21].report.children[5].statistics.max_best_window_stat": 0.024819603367335324,
        "checks[21].report.children[5].table[0].best_window_stat": 0.004002304284627167,
        "checks[21].report.children[5].table[1].best_window_stat": 0.024819603367335324,
    },
}


def first_difference(want: bytes, got: bytes) -> str:
    """The first line on which the two reports differ, for the failure message."""
    want_lines, got_lines = want.splitlines(), got.splitlines()
    for i, (w, g) in enumerate(zip(want_lines, got_lines), start=1):
        if w != g:
            return f"line {i}:\n  golden: {w.decode()}\n  now:    {g.decode()}"
    return (f"line {min(len(want_lines), len(got_lines)) + 1}: golden has "
            f"{len(want_lines)} lines, now {len(got_lines)}")


def assert_matches_golden(report, golden_dir: pathlib.Path, tmp_path) -> None:
    written = emit(report, tmp_path, "both")
    assert len(written) == 2
    for out in written:
        want = (golden_dir / out.name).read_bytes()
        got = out.read_bytes()
        assert got == want, (
            f"{out.name} differs from {golden_dir.relative_to(ROOT)}, "
            f"{first_difference(want, got)}"
        )


def leaves(doc, path: str = "") -> dict:
    """The leaves of a JSON document by path, as in `QUADPACK_NUMBERS`."""
    if isinstance(doc, dict):
        return {k: v for key, value in doc.items()
                for k, v in leaves(value, f"{path}.{key}" if path else key).items()}
    if isinstance(doc, list):
        return {k: v for i, value in enumerate(doc)
                for k, v in leaves(value, f"{path}[{i}]").items()}
    return {path: doc}


def sweep_source(path: pathlib.Path):
    """A bundled scenario with the sweep config merged in; a stress scenario as is."""
    if path.parent.name != "data":
        return path
    doc = json.loads(path.read_text())
    doc["config"] = {**doc.get("config", {}), **SWEEP_CONFIG}
    return doc


def golden_runs() -> dict[str, tuple]:
    """The run behind each golden JSON file, by its path under `GOLDEN`:
    (golden directory, scenario source, `run_scenario` overrides)."""
    runs = [(GOLDEN, path, {}) for path in SCENARIOS]
    runs += [(GOLDEN / "sweep", sweep_source(path), {}) for path in SCENARIOS + STRESS]
    runs += [(GOLDEN / "kinds", EVERY_KIND, {}),
             (GOLDEN / "overrides", EVERY_KIND, {"n_max": 32, "tol": 0.5})]
    return {(out / f"{_slug(load_scenario(source).name)}.json").relative_to(GOLDEN).as_posix():
            (out, source, overrides) for out, source, overrides in runs}


def write_reports() -> None:
    """Rewrite every golden file from the current code."""
    for out, source, overrides in golden_runs().values():
        emit(run_scenario(load_scenario(source), **overrides), out, "both")


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_bundled_reports_match_golden(path, tmp_path):
    report = run_scenario(load_scenario(path))
    assert report.exit_code == 0
    assert_matches_golden(report, GOLDEN, tmp_path)


@pytest.mark.parametrize("path", SCENARIOS + STRESS,
                         ids=[p.stem for p in SCENARIOS + STRESS])
def test_sweep_reports_match_golden(path, tmp_path):
    report = run_scenario(load_scenario(sweep_source(path)))
    assert report.exit_code == 0
    assert_matches_golden(report, GOLDEN / "sweep", tmp_path)


def test_every_check_kind_matches_golden(tmp_path):
    report = run_scenario(load_scenario(EVERY_KIND))
    assert report.exit_code == 0
    assert_matches_golden(report, GOLDEN / "kinds", tmp_path)


def test_overridden_run_matches_golden(tmp_path):
    report = run_scenario(load_scenario(EVERY_KIND), n_max=32, tol=0.5)
    assert_matches_golden(report, GOLDEN / "overrides", tmp_path)


def test_rewritten_sweep_numbers_moved_toward_mpmath(monkeypatch):
    # the report bounded_laplace derives from mpmath total-variation
    # transforms is the reference: same statuses, and each number the
    # rewrite moved is now closer to it
    stress = ROOT / "benchmarks" / "scenarios" / "quadrature_stress.json"
    golden = leaves(json.loads(
        (GOLDEN / "sweep" / "quadrature-tier-bounded-laplace.json").read_text()))
    monkeypatch.setattr(convergence, "abs_transform", lambda measure, lam: TransformValue(
        float(mpmath_abs_transform(measure, lam)), 0.0))
    exact = leaves(json.loads(run_scenario(load_scenario(stress)).to_json()))
    assert golden.keys() == exact.keys()
    for key, value in golden.items():
        if key in QUADPACK_NUMBERS:
            old = QUADPACK_NUMBERS[key]
            assert value != old and abs(value - exact[key]) < abs(old - exact[key]), key
        else:
            assert value == exact[key], key


MOLLIFIED = ROOT / "src" / "tauber" / "data" / "mollified_delta.json"


@pytest.mark.parametrize("name,source,overrides", [pytest.param(*case, id=case[0]) for case in [
    ("mollified-point-mass.json", MOLLIFIED, {}),
    ("sweep/mollified-point-mass.json", sweep_source(MOLLIFIED), {}),
    ("kinds/every-check-kind.json", EVERY_KIND, {}),
    ("overrides/every-check-kind.json", EVERY_KIND, {"n_max": 32, "tol": 0.5}),
]])
def test_rewritten_kernel_numbers_moved_toward_exact_kernel(name, source, overrides, monkeypatch):
    # the report from a 250-digit exact kernel is the reference: the same
    # statuses and every other non-float leaf, and each number the rewrite
    # moved is now closer to it
    from tests.test_kernel_oracle import exact, exact_integer

    kernel = measures.power_exp_integral

    def exact_kernel(p, sigma, freq, lo, hi):
        kernel(p, sigma, freq, lo, hi)  # the float kernel's typed errors
        if float(p).is_integer() and p >= 0:
            return exact_integer(int(p), sigma, freq, lo, hi)
        return complex(exact(p, sigma, lo, hi))

    golden = leaves(json.loads((GOLDEN / name).read_text()))
    monkeypatch.setattr(measures, "power_exp_integral", exact_kernel)
    reference = leaves(json.loads(run_scenario(load_scenario(source), **overrides).to_json()))
    assert golden.keys() == reference.keys()
    for key, value in golden.items():
        if not isinstance(value, float):
            assert value == reference[key], key
    for key, old in KERNEL_NUMBERS[name].items():
        new = golden[key]
        assert new != old and abs(new - reference[key]) < abs(old - reference[key]), key


# The numbers the fits moved when numpy's polyfit and mean gave way to the
# fsum forms of `convergence._slope` and `convergence._mean`, with their
# numpy values, by golden file and JSON path.
NUMPY_FIT_NUMBERS = json.loads((ROOT / "tests" / "numpy_fit_numbers.json").read_text())
float_mean, float_slope = convergence._mean, convergence._slope


def exact_mean(values):
    """The mean of the floats, exact in rationals and rounded once."""
    if not all(map(math.isfinite, values)):
        return float_mean(values)
    return float(sum(map(Fraction, values)) / len(values))


def exact_slope(xs, ys):
    """The least-squares slope of the floats, exact in rationals and
    rounded once."""
    if not all(map(math.isfinite, [*xs, *ys])):
        return float_slope(xs, ys)
    xs, ys = list(map(Fraction, xs)), list(map(Fraction, ys))
    x_bar, y_bar = sum(xs) / len(xs), sum(ys) / len(ys)
    spread = sum((x - x_bar) ** 2 for x in xs)
    if not spread:
        return math.nan
    return float(sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys)) / spread)


@pytest.mark.parametrize("name", sorted(NUMPY_FIT_NUMBERS))
def test_rewritten_fit_numbers_moved_toward_exact_fits(name, monkeypatch):
    # the report whose fits are exact, from the same float inputs, is the
    # reference: the same statuses and every other non-float leaf, and
    # each number the rewrite moved is now at least as close to it
    _, source, overrides = golden_runs()[name]
    for module in (convergence, tauberian):
        monkeypatch.setattr(module, "_mean", exact_mean)
        monkeypatch.setattr(module, "_slope", exact_slope)
    golden = leaves(json.loads((GOLDEN / name).read_text()))
    reference = leaves(json.loads(run_scenario(load_scenario(source), **overrides).to_json()))
    assert golden.keys() == reference.keys()
    for key, value in golden.items():
        if not isinstance(value, float):
            assert value == reference[key], key
    for key, old in NUMPY_FIT_NUMBERS[name].items():
        new, exact = Fraction(golden[key]), Fraction(reference[key])
        assert new != old and abs(new - exact) <= abs(Fraction(old) - exact), key


# The numbers the root finders moved when they stopped bisecting at a
# width of 1e-12 max(1, |a|) and began to place each root on adjacent
# floats, with their earlier values, by golden file and JSON path.
BISECTED_ROOT_NUMBERS = json.loads((ROOT / "tests" / "bisected_root_numbers.json").read_text())


def mpmath_root(expr, a: float, b: float) -> float:
    """The crossing of expr in the bracket (a, b), found in mpmath at 40
    digits and rounded to the nearest float."""
    import mpmath as mp

    def value(x):
        return mp.fsum(t.coefficient * x ** t.power * mp.exp(-t.decay * x)
                       * {"cos": mp.cos, "sin": mp.sin, "": lambda _: 1}[t.kind](t.freq * x)
                       for t in expr.terms)

    with mp.workdps(40):
        return float(mp.findroot(value, (mp.mpf(a), mp.mpf(b)), solver="anderson"))


@pytest.mark.parametrize("name", sorted(BISECTED_ROOT_NUMBERS))
def test_rewritten_root_numbers_moved_toward_exact_roots(name, monkeypatch):
    # the report whose sign runs are cut at `mpmath_root` is the reference:
    # the same statuses and every other non-float leaf, and each number the
    # rewrite moved is within 1e-12 relative of its old value or closer to it
    import numpy as np

    _, source, overrides = golden_runs()[name]
    monkeypatch.setattr(decomposition, "_root", mpmath_root)
    monkeypatch.setattr(decomposition, "_roots", lambda expr, a, b, fa: np.array(
        [mpmath_root(expr, u, v) for u, v in zip(a.tolist(), b.tolist())]))
    golden = leaves(json.loads((GOLDEN / name).read_text()))
    reference = leaves(json.loads(run_scenario(load_scenario(source), **overrides).to_json()))
    assert golden.keys() == reference.keys()
    for key, value in golden.items():
        if not isinstance(value, float):
            assert value == reference[key], key
    for key, old in BISECTED_ROOT_NUMBERS[name].items():
        new, exact = golden[key], reference[key]
        assert new != old, key
        assert abs(new - old) <= 1e-12 * abs(old) or abs(new - exact) < abs(old - exact), key


if __name__ == "__main__":
    write_reports()
