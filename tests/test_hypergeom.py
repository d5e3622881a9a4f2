import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import integrate

from loraeh.hypergeom import hyp2f1_special


def euler_integral(eta, z):
    """Independent oracle: smooth substitution of the Euler representation."""
    b = 2.0 / eta
    val, _ = integrate.quad(lambda u: 1.0 / (1.0 - z * u ** (1.0 / b)), 0.0, 1.0, epsabs=1e-15, epsrel=1e-13, limit=400)
    return val


def test_unit_at_zero():
    for eta in (2.0, 2.5, 3.0, 4.0):
        assert hyp2f1_special(eta, 0.0) == 1.0


def test_eta2_log_identity():
    assert hyp2f1_special(2.0, -1.0) == pytest.approx(math.log(2.0), rel=1e-12)
    for z in (-0.3, -0.95, -7.7, -250.0, -1e6):
        exact = -math.log1p(-z) / z
        assert hyp2f1_special(2.0, z) == pytest.approx(exact, rel=1e-12)


def test_euler_oracle_grid():
    zs = -np.logspace(-3, 4, 20)
    for eta in (2.0, 2.5, 2.75, 3.0, 3.5, 4.0):
        for z in zs:
            mine = hyp2f1_special(eta, float(z))
            oracle = euler_integral(eta, float(z))
            assert abs(mine - oracle) / oracle < 1e-10


def test_branch_overlap_series_vs_pfaff():
    # direct series converges on (-1, 0); compare both routes around the switch
    from loraeh.hypergeom import _series_direct, _series_pfaff

    for eta in (2.0, 2.5, 3.0, 3.5, 4.0):
        b = 2.0 / eta
        for z in np.linspace(-0.99, -0.9, 19):
            direct = _series_direct(b, float(z))
            pfaff = _series_pfaff(b, float(z))
            assert abs(direct - pfaff) / abs(pfaff) < 1e-10


def test_branch_continuity_at_inversion_edge():
    from loraeh.hypergeom import _inversion, _series_pfaff

    for eta in (2.5, 2.75, 3.0, 3.5, 4.0):
        b = 2.0 / eta
        for z in (-29.5, -30.5):
            assert abs(_inversion(b, z) - _series_pfaff(b, z)) / _series_pfaff(b, z) < 1e-12


def test_extreme_arguments_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    for eta in (2.0, 2.5, 2.75, 3.0, 4.0):
        b = mp.mpf(2) / mp.mpf(str(eta))
        for z in (-1e5, -1e9, -1e12):
            truth = float(mp.hyp2f1(1, b, 1 + b, z))
            assert hyp2f1_special(eta, z) == pytest.approx(truth, rel=1e-12)


@given(
    # eta = 2 + 10^-k is where the inversion branch's two leading terms cancel
    eta=st.one_of(st.floats(2.0, 6.0), st.integers(1, 15).map(lambda k: 2.0 + 10.0**-k)),
    z=st.one_of(st.just(0.0), st.floats(-8.0, 12.0).map(lambda e: -(10.0**e))),
)
@example(eta=2.0 + 1e-9, z=-100.0)
def test_against_mpmath(eta, z):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    b = mp.mpf(2) / mp.mpf(eta)
    truth = float(mp.hyp2f1(1, b, 1 + b, z))
    assert abs(hyp2f1_special(eta, z) - truth) <= 1e-12 * truth


def test_bounded_and_monotone():
    for eta in (2.0, 2.6, 3.3, 4.0):
        zs = -np.logspace(-4, 8, 60)
        vals = np.array([hyp2f1_special(eta, float(z)) for z in zs])
        assert np.all(vals > 0) and np.all(vals <= 1)
        assert np.all(np.diff(vals) < 0)  # decreasing in |z|


def test_domain_errors():
    with pytest.raises(ValueError):
        hyp2f1_special(1.5, -1.0)
    with pytest.raises(ValueError):
        hyp2f1_special(3.0, 0.5)
    assert hyp2f1_special(3.0, -math.inf) == 0.0
