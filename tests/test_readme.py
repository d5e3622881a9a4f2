"""README's library example runs as written and prints the values its comments give."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


def test_library_example_prints_its_commented_values():
    (block,) = python_blocks(README.read_text(encoding="utf-8"))
    commented = [float(x) for x in re.findall(r"print\(.*\)\s+# ~([0-9.]+)", block)]
    assert len(commented) == 2  # the outage and the availability
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    for line, expected in zip(printed, commented):
        assert float(line) == pytest.approx(expected, abs=5e-4)
