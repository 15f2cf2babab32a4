"""The package runs without scipy.

Each test runs in a child process where `sys.modules["scipy"] = None`,
so any `import scipy` there raises ImportError.  `import tauber`, a CLI
run of each bundled scenario, the non-integer-power kernel (both sides
of the transition point, and a growing weight) and the total-variation
transform must all work there and keep their values.  The frozen values
below were computed when the non-integer kernel still used
scipy.special; they moved by at most 3.3e-15 relative.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = SRC / "tauber" / "data"

NO_SCIPY = """
import sys
sys.modules["scipy"] = None
try:
    import scipy
except ImportError:
    pass
else:
    raise SystemExit("scipy was importable")
"""

RUN_BUNDLED = """
import json
import tauber.cli
codes = [tauber.cli.main(["run", s, "--out", out, "--format", "both", "--quiet"])
         for s in scenarios]
print(json.dumps({"codes": codes}))
"""

RUN_TRANSFORMS = """
import json
from tauber import SignedMeasure, Term, abs_transform, laplace_transform
mixed = SignedMeasure.from_density(
    (Term(1.0, 0.0, 0.5, "cos", 1.0), Term(0.5, 1.0, 1.0, "sin", 2.0)))
tv = abs_transform(mixed, 1.0)
frac = SignedMeasure.from_density(
    (Term(1.0, 0.5, 1.0), Term(-0.25, 1.7, 0.3)), lo=0.5, hi=12.0)
tail = SignedMeasure.from_density((Term(2.0, 0.5, 1.0),), lo=0.0)
root = SignedMeasure.from_density((Term(1.0, 0.5, 0.0),), lo=0.5, hi=4.0)
print(json.dumps({
    "abs": [tv.value, tv.error_bound],
    "frac": laplace_transform(frac, 0.5),
    "tail": laplace_transform(tail, 0.5),
    "growing": laplace_transform(root, -1.0),
}))
"""


def run_without_scipy(code: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY + code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_bundled_cli_runs_do_not_import_scipy(tmp_path):
    scenarios = [str(p) for p in sorted(DATA.glob("*.json"))]
    assert len(scenarios) == 3
    prelude = f"scenarios = {scenarios!r}\nout = {str(tmp_path)!r}\n"
    assert run_without_scipy(prelude + RUN_BUNDLED) == {"codes": [0, 0, 0]}


def test_transforms_keep_their_values_without_scipy():
    got = run_without_scipy(RUN_TRANSFORMS)
    value, bound = got["abs"]
    assert value == pytest.approx(0.6051604257881369, rel=1e-14)
    assert bound == pytest.approx(1.2609901655708666e-11, rel=1e-12)
    # within the value and error estimate of the QUADPACK tier it replaced
    assert abs(value - 0.6051604257738464) <= 4.47076549934617e-10
    # both terms, and the tail, cross their transition points s*x = p+1
    assert got["frac"] == pytest.approx(-0.36387597087161416, rel=1e-14)
    # 2 * Gamma(3/2) / (3/2)^(3/2)
    assert got["tail"] == pytest.approx(0.9648016727443569, rel=1e-14)
    # integral of sqrt(x) e^x over [1/2, 4], from mpmath at 40 digits
    assert got["growing"] == pytest.approx(92.42281297595022959, rel=1e-14)
