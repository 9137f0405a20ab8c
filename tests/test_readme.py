"""The README's library example runs and prints the values its comments state."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
NUMBER = re.compile(r"[-+]?\d+\.?\d*(?:e[-+]?\d+)?")


def test_library_example_prints_its_comments():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(blocks[0], {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 3
    printed = [[float(x) for x in NUMBER.findall(line)] for line in lines]
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    # each comment rounds its value to 5 decimals
    assert printed[0] == pytest.approx([1.00226], abs=5e-6)
    assert printed[1] == pytest.approx([0.0, inv_sqrt2, inv_sqrt2], abs=1e-12)
    assert printed[2] == pytest.approx([0.09925, 0.04962], abs=5e-6)
