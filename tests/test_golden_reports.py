"""The bundled scenario reports, JSON and CSV, byte for byte.

`tests/golden/` holds the reports `tauber run <scenario> --format both`
writes for each bundled scenario at its own config.  A change that is
meant to keep every verdict and number must keep these bytes; a change
that is meant to alter a report rewrites the golden file with it:

    PYTHONPATH=src python -m tauber.cli run src/tauber/data/<name>.json \\
        --format both --out tests/golden --quiet
"""

from __future__ import annotations

import pathlib

import pytest

from tauber import emit, load_scenario, run_scenario

ROOT = pathlib.Path(__file__).parents[1]
GOLDEN = ROOT / "tests" / "golden"
SCENARIOS = sorted((ROOT / "src" / "tauber" / "data").glob("*.json"))


def first_difference(want: bytes, got: bytes) -> str:
    """The first line on which the two reports differ, for the failure message."""
    want_lines, got_lines = want.splitlines(), got.splitlines()
    for i, (w, g) in enumerate(zip(want_lines, got_lines), start=1):
        if w != g:
            return f"line {i}:\n  golden: {w.decode()}\n  now:    {g.decode()}"
    return (f"line {min(len(want_lines), len(got_lines)) + 1}: golden has "
            f"{len(want_lines)} lines, now {len(got_lines)}")


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_bundled_reports_match_golden(path, tmp_path):
    report = run_scenario(load_scenario(path))
    assert report.exit_code == 0
    written = emit(report, tmp_path, "both")
    assert len(written) == 2
    for out in written:
        want = (GOLDEN / out.name).read_bytes()
        got = out.read_bytes()
        assert got == want, f"{out.name} differs from tests/golden, {first_difference(want, got)}"
