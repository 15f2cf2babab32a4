"""The README's Python examples run as written, in order and in one
namespace, and give the values their comments state."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)


def test_readme_examples_give_the_values_their_comments_state():
    measure_block, continuity_block, karamata_block = python_blocks()
    ns: dict = {}
    exec(measure_block, ns)
    assert ns["laplace_transform"](ns["m"], 1.0) == 0.5  # "exact: 0.5"
    assert ns["m"].norm() == math.inf  # "inf here"
    exec(continuity_block, ns)
    assert ns["rep"].status == "pass"
    assert ns["rep"].child("right_equicontinuity").status == "fail"
    exec(karamata_block, ns)
    stated = re.search(r"\.index +# ([\d.]+) ", karamata_block).group(1)
    assert round(ns["rv_index_from_transform"](ns["m"]).index, 12) == float(stated)
    assert ns["rep"].check == "karamata_psi_to_F"
