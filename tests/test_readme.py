"""README's library example runs as written and prints the values its comments give,
its CLI synopsis names the options the parser takes, and its config table lists the
keys `config.DEFAULTS` takes."""

import argparse
import contextlib
import io
import re
from pathlib import Path

import pytest

from loraeh.cli import build_parser
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


def test_cli_synopsis_is_the_parser():
    text = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    first, second = re.match(r"\s*```\n(.*?)```", text, flags=re.S).group(1).splitlines()
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: {flag for action in parser._actions for flag in action.option_strings if flag.startswith("--")}
        for name, parser in sub.choices.items()
    }
    # the first line: the options of every subcommand; the second: the subcommands that take --scheme
    assert set(re.findall(r"--[\w-]+", first)) == set.intersection(*flags.values()) - {"--help"}
    commands = re.fullmatch(r"loraeh ([\w|-]+) \[--scheme ud\|wd\] \.\.\.", second).group(1)
    assert commands.split("|") == [name for name, options in flags.items() if "--scheme" in options]
