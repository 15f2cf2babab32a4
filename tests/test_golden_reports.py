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
bytes; a change that is meant to alter a report rewrites the golden file
with it, for the bundled ones:

    PYTHONPATH=src python -m tauber.cli run src/tauber/data/<name>.json \\
        --format both --out tests/golden --quiet

and for the others (all of them at once):

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from __future__ import annotations

import json
import pathlib

import pytest

from tauber import emit, load_scenario, run_scenario

ROOT = pathlib.Path(__file__).parents[1]
GOLDEN = ROOT / "tests" / "golden"
SCENARIOS = sorted((ROOT / "src" / "tauber" / "data").glob("*.json"))
STRESS = sorted((ROOT / "benchmarks" / "scenarios").glob("*.json"))
EVERY_KIND = ROOT / "tests" / "scenarios" / "every_check_kind.json"
SWEEP_CONFIG = {"n_max": 100_000_000, "grid_ratio": 1.25}


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


def sweep_source(path: pathlib.Path):
    """A bundled scenario with the sweep config merged in; a stress scenario as is."""
    if path.parent.name != "data":
        return path
    doc = json.loads(path.read_text())
    doc["config"] = {**doc.get("config", {}), **SWEEP_CONFIG}
    return doc


def write_reports() -> None:
    """Rewrite every golden file outside the bundled set from the current code."""
    for path in SCENARIOS + STRESS:
        emit(run_scenario(load_scenario(sweep_source(path))), GOLDEN / "sweep", "both")
    emit(run_scenario(load_scenario(EVERY_KIND)), GOLDEN / "kinds", "both")
    emit(run_scenario(load_scenario(EVERY_KIND), n_max=32, tol=0.5),
         GOLDEN / "overrides", "both")


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


if __name__ == "__main__":
    write_reports()
