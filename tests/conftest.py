import numpy as np
import pytest
from hypothesis import settings

from loraeh.capacitor import build_model
from loraeh.config import load_config
from loraeh.markov import steady_state

# Property tests draw the same examples on every run (derandomized) and have
# no per-example deadline, so a slow shared box cannot make them flaky; no
# example database is written.
settings.register_profile("loraeh", derandomize=True, database=None, deadline=None, max_examples=60)
settings.load_profile("loraeh")


@pytest.fixture(scope="session")
def fig2():
    """Default configuration: the reference electrical/radio parameter set."""
    return load_config()


@pytest.fixture(scope="session")
def model(fig2):
    return build_model(fig2.phy, "thevenin")


@pytest.fixture(scope="session")
def ud(fig2):
    return fig2.schemes["uniform"]


@pytest.fixture(scope="session")
def wd(fig2):
    return fig2.schemes["weibull"]


@pytest.fixture(scope="session")
def steady_cache(fig2, model, ud, wd):
    """Memoized steady-state solves shared across test modules."""
    cache = {}
    schemes = {"ud": ud, "wd": wd}

    def get(label, airtime, n_bins=2000, m=None):
        key = (label, airtime, n_bins, id(m) if m is not None else None)
        if key not in cache:
            cache[key] = steady_state(schemes[label], airtime, m or model, n_bins=n_bins)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def ring_availability(fig2, steady_cache):
    """Per-ring energy availability for the default uniform scheme."""
    from loraeh.phy import SF_TABLE

    return np.array([1.0 - steady_cache("ud", e.airtime_s).outage(fig2.phy.v_operating) for e in SF_TABLE])
