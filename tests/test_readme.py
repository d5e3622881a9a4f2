"""README's library example runs as written and prints the values its comments give,
and its config table lists the keys `config.DEFAULTS` takes."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from loraeh.config import DEFAULTS

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


def test_config_table_is_the_defaults():
    text = README.read_text(encoding="utf-8").split("\n## Config file\n", 1)[1]
    (block,) = re.findall(r"^```ini\n(.*?)^```", text.split("\n## ", 1)[0], flags=re.S | re.M)
    rows = [re.fullmatch(r"\[(\w+)\]\s+(.*)", line).groups() for line in block.splitlines()]
    assert [(section, keys.split()) for section, keys in rows] == [(s, list(keys)) for s, keys in DEFAULTS.items()]
