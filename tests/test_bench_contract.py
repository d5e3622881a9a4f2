"""The names and entry points the benchmark in perfbench/ relies on.

The benchmark wraps loraeh functions by name (perfbench/tracing.py) and
times a set-up snippet in a fresh interpreter (perfbench/run.py). A rename
that breaks either would otherwise only show when the benchmark runs. These
tests import perfbench/ and read it; they write nothing there.
"""

import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from loraeh.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

JOBS = [
    ["capacitor-trace", "--cycles", "5"],
    ["steady-state", "--bins", "100"],
    ["act-plan", "--act", "cdc", "--bins", "200"],
    ["coverage", "--bins", "100", "--points-per-ring", "2"],
    ["simulate", "--devices", "5", "--duration", "1e3"],
]


@pytest.fixture(scope="module")
def bench():
    """perfbench's run and tracing modules, imported without writing bytecode there."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import run
        import tracing
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return run, tracing


def _bindings():
    """Every loraeh module attribute and class member, by identity."""
    modules = [m for n, m in sys.modules.items() if n == "loraeh" or n.startswith("loraeh.")]
    out = {}
    for module in modules:
        for name, value in vars(module).items():
            out[(module.__name__, name)] = value
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for member, attr in vars(value).items():
                    out[(module.__name__, f"{name}.{member}")] = attr
    return out


def test_traced_jobs_report_every_layer(bench, tmp_path, capsys):
    run, tracing = bench
    tracer = tracing.Tracer(0)
    traced = {spec[1] for spec in (*tracing.SPANS, *tracing.COUNTS)}
    for module in traced:  # loraeh.cli imports markov and act only when a subcommand runs
        importlib.import_module(module)
    before = _bindings()
    assert traced <= {module for module, _ in before}  # every binding the tracer may patch is compared below
    with tracing.installed(tracer):
        for job_no, argv in enumerate(JOBS):
            with tracer.root("cli", job_no):
                assert main([*argv, "--out", str(tmp_path / argv[0])]) == 0, capsys.readouterr().err
    metrics = run.layer_metrics(tracer)
    assert set(metrics) <= set(run.PER_LAYER)
    assert {name: value for name, value in metrics.items() if not value > 0} == {}
    assert metrics["markov.solves"] >= metrics["markov.solves_unique"] > 0
    assert metrics["montecarlo.device_cycles"] > 0
    after = _bindings()
    assert {key for key in before if after.get(key) is not before[key]} == set()


def test_setup_snippet_prints_its_seconds(bench):
    run, _ = bench
    proc = subprocess.run(
        [sys.executable, "-c", run.SETUP_CODE, str(run.SRC), ""],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert float(proc.stdout) > 0


def test_a_traced_solve_times_the_chain(bench, tmp_path, capsys):
    # every steady-state solve goes through the two functions the tracer times by
    # name, so a traced chain shows build and solve time at any grid size
    run, tracing = bench
    tracer = tracing.Tracer(0)
    with tracing.installed(tracer), tracer.root("cli", 0):
        assert main(["steady-state", "--bins", "400", "--out", str(tmp_path / "s")]) == 0, capsys.readouterr().err
    metrics = run.layer_metrics(tracer)
    assert metrics["markov.build_s"] > 0 and metrics["markov.solve_s"] > 0
