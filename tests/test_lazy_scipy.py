"""scipy is imported only on the two numeric paths that need it.

`import tauber` and a CLI run of each bundled scenario must leave scipy
unloaded (it dominates cold start-up time).  `quadrature_transform` and
integrals with non-integer powers load it on first use and keep the
values they had when scipy was imported eagerly; the frozen values below
were computed that way.  The total-variation transform never loads
scipy.integrate.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = SRC / "tauber" / "data"

RUN_BUNDLED = """
import json, sys
import tauber.cli
codes = [tauber.cli.main(["run", s, "--out", out, "--format", "both", "--quiet"])
         for s in scenarios]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

RUN_SCIPY_PATHS = """
import json, sys
from tauber import (SignedMeasure, Term, abs_transform, laplace_transform,
                    quadrature_transform)
def loaded():
    return sorted(m for m in ("scipy.integrate", "scipy.special") if m in sys.modules)
mixed = SignedMeasure.from_density(
    (Term(1.0, 0.0, 0.5, "cos", 1.0), Term(0.5, 1.0, 1.0, "sin", 2.0)))
tv = abs_transform(mixed, 1.0)
loaded_by_abs = loaded()
frac = SignedMeasure.from_density(
    (Term(1.0, 0.5, 1.0), Term(-0.25, 1.7, 0.3)), lo=0.5, hi=12.0)
tail = SignedMeasure.from_density((Term(2.0, 0.5, 1.0),), lo=0.0)
print(json.dumps({
    "abs": [tv.value, tv.error_bound],
    "loaded_by_abs": loaded_by_abs,
    "frac": laplace_transform(frac, 0.5),
    "tail": laplace_transform(tail, 0.5),
    "loaded_by_laplace": loaded(),
    "quad": quadrature_transform(mixed, 1.0).value,
    "loaded": loaded(),
}))
"""


def run_python(code: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_bundled_cli_runs_do_not_import_scipy(tmp_path):
    scenarios = [str(p) for p in sorted(DATA.glob("*.json"))]
    assert len(scenarios) == 3
    prelude = f"scenarios = {scenarios!r}\nout = {str(tmp_path)!r}\n"
    got = run_python(prelude + RUN_BUNDLED)
    assert got == {"codes": [0, 0, 0], "scipy": []}


def test_scipy_paths_load_scipy_and_keep_their_values():
    got = run_python(RUN_SCIPY_PATHS)
    assert got["loaded_by_abs"] == []
    assert got["loaded_by_laplace"] == ["scipy.special"]
    assert got["loaded"] == ["scipy.integrate", "scipy.special"]
    value, bound = got["abs"]
    assert value == pytest.approx(0.6051604257881369, rel=1e-14)
    assert bound == pytest.approx(1.2609901655708666e-11, rel=1e-12)
    # within the value and error estimate of the QUADPACK tier it replaced
    assert abs(value - 0.6051604257738464) <= 4.47076549934617e-10
    # the signed transform of mixed at 1: 1.5/3.25 + 1/16
    assert got["quad"] == pytest.approx(1.5 / 3.25 + 1 / 16, rel=1e-9)
    assert got["frac"] == pytest.approx(-0.36387597087161416, rel=1e-14)
    # 2 * Gamma(3/2) / (3/2)^(3/2)
    assert got["tail"] == pytest.approx(0.9648016727443569, rel=1e-14)
