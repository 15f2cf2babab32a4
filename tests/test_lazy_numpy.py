"""A CLI run of the bundled scenarios does not import numpy.

numpy is half the start-up time of `tauber run`, and the bundled
scenarios need it for nothing: their fits are `math.fsum` closed forms
and their sampling passes are small enough for the scalar sampler
(`decomposition._scalar_brackets`).  Each test runs in a child process.
With `sys.modules["numpy"] = None` any `import numpy` there raises
ImportError, so `import tauber`, `import tauber.cli` and the CLI runs
must work without it and write the golden reports byte for byte.  With
numpy importable, the same runs must leave it unimported.
"""

import pytest

from tests.test_golden_reports import GOLDEN
from tests.test_lazy_scipy import DATA, RUN_BUNDLED, run_child

NO_NUMPY = """
import sys
sys.modules["numpy"] = None
try:
    import numpy
except ImportError:
    pass
else:
    raise SystemExit("numpy was importable")
import tauber
"""

NUMPY_LOADED = """
import sys
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


@pytest.fixture
def prelude(tmp_path):
    scenarios = [str(p) for p in sorted(DATA.glob("*.json"))]
    assert len(scenarios) == 3
    return f"scenarios = {scenarios!r}\nout = {str(tmp_path)!r}\n"


def test_bundled_cli_runs_write_the_goldens_without_numpy(prelude, tmp_path):
    assert run_child(NO_NUMPY + prelude + RUN_BUNDLED) == {"codes": [0, 0, 0]}
    written = sorted(tmp_path.iterdir())
    assert len(written) == 6
    for report in written:
        assert report.read_bytes() == (GOLDEN / report.name).read_bytes(), report.name


def test_bundled_cli_runs_leave_numpy_unimported(prelude):
    got = run_child(prelude + RUN_BUNDLED + NUMPY_LOADED)
    assert got == {"codes": [0, 0, 0], "numpy": False}
