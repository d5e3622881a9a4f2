import importlib
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import loraeh
from loraeh.capacitor import build_model
from loraeh.config import load_config
from loraeh.markov import steady_state

# Property tests draw the same examples on every run (derandomized) and have
# no per-example deadline, so a slow shared box cannot make them flaky; no
# example database is written.
settings.register_profile("loraeh", derandomize=True, database=None, deadline=None, max_examples=60)
settings.load_profile("loraeh")

# Hypothesis also draws literal constants from every non-test module loaded,
# so a property test's examples would depend on which other tests ran first.
# Loading every module any test loads, up front, makes them the same for any
# selection. perfbench's are imported without writing bytecode there.
for module in pkgutil.iter_modules(loraeh.__path__):
    importlib.import_module(f"loraeh.{module.name}")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    for name in ("run", "tracing", "workloads"):
        importlib.import_module(name)
finally:
    sys.dont_write_bytecode = dont_write
    sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="session")
def fig2():
    """Default configuration: the reference electrical/radio parameter set."""
    return load_config()


@pytest.fixture(scope="session")
def model(fig2):
    return build_model(fig2.phy, "thevenin")


@pytest.fixture(scope="session")
def ud(fig2):
    return fig2.schemes["ud"]


@pytest.fixture(scope="session")
def wd(fig2):
    return fig2.schemes["wd"]


@pytest.fixture(scope="session")
def steady_cache(fig2, model):
    """Memoized steady-state solves shared across test modules."""
    cache = {}

    def get(label, airtime, n_bins=2000):
        key = (label, airtime, n_bins)
        if key not in cache:
            cache[key] = steady_state(fig2.schemes[label], airtime, model, n_bins=n_bins)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def ring_availability(fig2, steady_cache):
    """Per-ring energy availability for the default uniform scheme."""
    from loraeh.phy import AIRTIMES_S

    return np.array([1.0 - steady_cache("ud", airtime).outage(fig2.phy.v_operating) for airtime in AIRTIMES_S])
