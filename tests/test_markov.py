import dataclasses
import math
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import integrate

from loraeh import markov
from loraeh.capacitor import build_model, cycle_voltages, estimate_mean_voltage
from loraeh.errors import NumericalError
from loraeh.markov import (
    DENSE_BINS,
    DecayFactorDistribution,
    TransitionMatrix,
    build_transition_matrix,
    stationary_distribution,
    stationary_pdf,
    steady_state,
)
from loraeh.phy import AIRTIMES_S, ChargingScheme


def decay_support(scheme, tau):
    """Support of X = exp(-nu/tau): the scheme's support mapped through the decreasing exp(-nu/tau)."""
    lo, hi = (scheme.a, scheme.b) if scheme.kind == "uniform" else (0.0, math.inf)
    return math.exp(-hi / tau), math.exp(-lo / tau)


def decay_pdf(scheme, tau, x):
    """Density of X = exp(-nu/tau) at x in (0, 1]: tau/x * f_nu(-tau*ln x)."""
    return tau / x * scheme.pdf(-tau * math.log(x))


class TestDecayFactorDistribution:
    def test_pdf_normalizes(self, ud, wd, model):
        # the density of X by change of variables integrates to 1 over its support
        for scheme in (ud, wd, ChargingScheme.weibull(2.0, 30.0)):
            lo, hi = decay_support(scheme, model.tau_off)
            density = partial(decay_pdf, scheme, model.tau_off)
            total, _ = integrate.quad(density, max(lo, 1e-12), hi, epsabs=1e-11, epsrel=1e-11, limit=400)
            assert abs(total - 1.0) < 1e-8

    def test_closed_form_means(self):
        exp50 = DecayFactorDistribution(scheme=ChargingScheme.weibull(1, 50), tau_charge=6000.0)
        assert exp50.mean() == pytest.approx(6000 / 6050, rel=1e-12)
        uni = DecayFactorDistribution(scheme=ChargingScheme.uniform(0, 100), tau_charge=6000.0)
        assert uni.mean() == pytest.approx(60 * (1 - math.exp(-1 / 60.0)), rel=1e-12)

    def test_degenerate_short_charging(self):
        d = DecayFactorDistribution(scheme=ChargingScheme.uniform(0, 1e-9), tau_charge=6000.0)
        assert d.mean() == pytest.approx(1.0, abs=1e-12)

    def test_quadrature_matches_sampling(self, model):
        scheme = ChargingScheme.weibull(2.0, 40.0)
        d = DecayFactorDistribution(scheme=scheme, tau_charge=model.tau_off)
        rng = np.random.default_rng(0)
        draws = np.exp(-scheme.sample(rng, 2_000_000) / model.tau_off)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(d.mean() - draws.mean()) < 3 * se


class TestTransitionMatrix:
    def test_single_state(self, ud, model):
        tm = build_transition_matrix(ud, 0.204, model, n_bins=1)
        assert tm.matrix.toarray().tolist() == [[1.0]]

    def test_rows_stochastic(self, ud, model):
        tm = build_transition_matrix(ud, 0.204, model, n_bins=500)
        assert np.abs(tm.matrix.sum(axis=1) - 1.0).max() < 1e-12

    def test_out_of_support_zeroed(self, ud, model):
        tm = build_transition_matrix(ud, 0.204, model, n_bins=400)
        lo, hi = decay_support(ud, model.tau_off)
        i = 200
        centers = 0.5 * (tm.bin_edges[:-1] + tm.bin_edges[1:])
        r, v_full = model.retention(0.204), model.v_after_full(0.204)
        x = (tm.bin_edges - v_full) / (r * (centers[i] - model.v_limit_off))  # decreasing
        row = tm.matrix.toarray()[i]
        outside = (x[1:] > hi) | (x[:-1] < lo)  # whole edge interval above or below the support
        inside = (x[1:] > lo) & (x[:-1] < hi)  # whole edge interval inside it
        assert outside.any() and inside.any()
        assert np.all(row[outside] == 0.0)
        assert np.all(row[inside] > 0.0)


class TestStationary:
    def test_identity_matrix_convention(self):
        # every bin of the identity is its own closed class: no law is unique
        tm = TransitionMatrix(matrix=np.eye(3), bin_edges=np.linspace(0, 1, 4))
        with pytest.raises(NumericalError, match="3 closed classes"):
            stationary_distribution(tm)

    def test_two_state_symmetric(self):
        tm = TransitionMatrix(matrix=np.array([[0.5, 0.5], [0.5, 0.5]]), bin_edges=np.linspace(0, 1, 3))
        sd = stationary_distribution(tm)
        assert np.allclose(sd.probabilities, [0.5, 0.5], atol=1e-12)

    def test_one_and_two_bin_closed_forms(self):
        # too small for ARPACK; [[1 - a, a], [b, 1 - b]] has the law (b, a) / (a + b)
        one = stationary_distribution(TransitionMatrix(matrix=np.eye(1), bin_edges=np.linspace(0, 1, 2)))
        assert one.probabilities.tolist() == [1.0]
        a, b = 0.3, 0.1
        two = TransitionMatrix(matrix=np.array([[1 - a, a], [b, 1 - b]]), bin_edges=np.linspace(0, 1, 3))
        assert np.abs(stationary_distribution(two).probabilities - [0.25, 0.75]).max() <= 1e-15
        absorbing = TransitionMatrix(matrix=np.array([[1.0, 0.0], [0.5, 0.5]]), bin_edges=np.linspace(0, 1, 3))
        assert stationary_distribution(absorbing).probabilities.tolist() == [1.0, 0.0]

    def test_periodic_chain(self):
        # the eigenvalues of a 3-cycle are the cube roots of 1, all of modulus 1: only
        # the largest real part singles out the eigenvalue 1
        cycle = TransitionMatrix(matrix=np.roll(np.eye(3), 1, axis=1), bin_edges=np.linspace(0, 1, 4))
        assert np.abs(stationary_distribution(cycle).probabilities - 1 / 3).max() <= 1e-15

    def test_transient_bins_get_exactly_zero(self):
        # bins 0 and 1 drain into the closed class {2, 3, 4}
        mat = np.array(
            [
                [0.5, 0.5, 0.0, 0.0, 0.0],
                [0.0, 0.2, 0.8, 0.0, 0.0],
                [0.0, 0.0, 0.1, 0.6, 0.3],
                [0.0, 0.0, 0.4, 0.2, 0.4],
                [0.0, 0.0, 0.5, 0.5, 0.0],
            ]
        )
        u = stationary_distribution(TransitionMatrix(matrix=mat, bin_edges=np.linspace(0, 1, 6))).probabilities
        assert u[:2].tolist() == [0.0, 0.0]
        assert np.all(u[2:] > 0.0) and np.abs(u @ mat - u).max() <= 1e-15

    def test_residual_contract(self, ud, model, steady_cache):
        sd = steady_cache("ud", 0.204)
        tm = build_transition_matrix(ud, 0.204, model, n_bins=2000)
        assert np.abs(sd.probabilities @ tm.matrix - sd.probabilities).max() < 1e-10

    def test_nonconvergence_raises(self, fig2):
        # one closed class whose bins are linked only by tail probabilities: in
        # floating point its next eigenvalues are 1 too, and no solve can separate
        # them; this grid takes the dense LU, whose system is singular to working precision
        tm = TestChainProperties.chain(fig2, ChargingScheme.weibull(1.31, 9.03), 0.18, 0.365, 37)
        assert tm.n_bins <= DENSE_BINS
        start = time.perf_counter()
        with pytest.raises(NumericalError, match="singular to working precision"):
            stationary_distribution(tm, max_iter=3000)
        assert time.perf_counter() - start < 0.1

    def test_arnoldi_nonconvergence_raises(self, fig2, monkeypatch):
        # the same kind of chain on a grid above DENSE_BINS: ARPACK runs out of
        # products, and gives up within the max_iter products it is allowed
        tm = TestChainProperties.chain(fig2, ChargingScheme.weibull(1.31, 9.03), 1.0, 0.365, 400)
        assert tm.n_bins > DENSE_BINS
        products = 0
        eigs = markov.sparse_linalg.eigs

        def counting_eigs(a, **kwargs):
            def matvec(x):
                nonlocal products
                products += 1
                return a @ x

            return eigs(markov.sparse_linalg.LinearOperator(a.shape, matvec=matvec, dtype=a.dtype), **kwargs)

        monkeypatch.setattr(markov.sparse_linalg, "eigs", counting_eigs)
        with pytest.raises(NumericalError, match="Arnoldi solve .* failed: .*No convergence"):
            stationary_distribution(tm, max_iter=3000)
        assert 0 < products <= 3000


class TestOutage:
    def test_boundaries(self, steady_cache, model):
        sd = steady_cache("ud", 0.204)
        assert sd.outage(model.v_limit_on) == 0.0
        assert sd.outage(model.v_limit_off) == 1.0

    def test_reference_outages(self, steady_cache):
        assert steady_cache("ud", 0.204).outage(1.8) == pytest.approx(0.08, abs=0.05)
        assert steady_cache("wd", 0.204).outage(1.8) == pytest.approx(0.22, abs=0.05)

    def test_nan_threshold_raises(self, steady_cache):
        sd = steady_cache("ud", 0.204)
        for tail in (sd.outage, sd.availability):
            with pytest.raises(ValueError, match="v_op"):
                tail(math.nan)

    def test_straddle_interpolation(self, steady_cache):
        sd = steady_cache("ud", 0.204)
        k = 977
        inside = sd.bin_edges[k] + 0.25 * sd.delta
        expected = sd.probabilities[:k].sum() + 0.25 * sd.probabilities[k]
        assert sd.outage(inside) == pytest.approx(expected, rel=1e-12)

    def test_availability_complements_outage(self, steady_cache, model):
        sd = steady_cache("ud", 0.204)
        rng = np.random.default_rng(3)
        for v_op in (model.v_limit_on, model.v_limit_off, *rng.uniform(model.v_limit_on, model.v_limit_off, 50)):
            assert abs(sd.availability(v_op) + sd.outage(v_op) - 1.0) <= 1e-15

    def test_availability_keeps_full_precision(self, fig2, ud):
        # at 40 mF the SF12 outage is 1 - 1.3e-7: 1 - outage keeps only 9 digits
        m = build_model(dataclasses.replace(fig2.phy, capacitance=0.04), "thevenin")
        sd = steady_state(ud, AIRTIMES_S[-1], m)
        edges, u, v_op = sd.bin_edges, sd.probabilities, fig2.phy.v_operating
        k = int(np.searchsorted(edges, v_op, side="right")) - 1
        tail = math.fsum(u[k + 1 :]) + u[k] * (1.0 - (v_op - edges[k]) / (edges[k + 1] - edges[k]))
        assert 0.0 < tail < 1e-6
        assert abs(sd.availability(v_op) - tail) <= 1e-12 * tail

    def test_grid_convergence(self, steady_cache, fig2):
        for label in ("ud", "wd"):
            coarse = steady_cache(label, 0.204, n_bins=1000).outage(fig2.phy.v_operating)
            fine = steady_cache(label, 0.204, n_bins=2000).outage(fig2.phy.v_operating)
            assert abs(coarse - fine) < 0.005


class TestPdf:
    def test_density_normalization(self, steady_cache):
        sd = steady_cache("ud", 0.204)
        centers, dens = stationary_pdf(sd)
        assert abs(np.sum(dens) * sd.delta - 1.0) < 1e-12

    def test_unimodal_peak_on_the_right(self, steady_cache):
        for label in ("ud", "wd"):
            sd = steady_cache(label, 0.204)
            coarse = sd.probabilities.reshape(100, -1).sum(axis=1)
            support = coarse > coarse.max() * 1e-5
            filled = coarse[support]
            peak = int(np.argmax(filled))
            tol = 1e-6 * filled.max()
            assert np.all(np.diff(filled[: peak + 1]) >= -tol)
            assert np.all(np.diff(filled[peak:]) <= tol)
            centers = sd.centers.reshape(100, -1).mean(axis=1)[support]
            assert centers[peak] > sd.mean()  # peak right of the mean

    def test_mode_matches_simulation(self, steady_cache, model, ud):
        sd = steady_cache("ud", 0.204)
        rng = np.random.default_rng(12)
        v = cycle_voltages(rng.uniform(1.8, model.v_limit_off, 200), ud, 0.204, 5000, model, rng)[1000:]
        grid = np.linspace(model.v_limit_on, model.v_limit_off, 101)
        hist, _ = np.histogram(v.ravel(), bins=grid)
        coarse = sd.probabilities.reshape(100, -1).sum(axis=1)
        assert abs(np.argmax(hist) - np.argmax(coarse)) <= 2


class TestOracleEquivalence:
    def test_markov_vs_simulated_cycles(self, fig2):
        # five random parameter sets, 1e6 cycles each
        rng = np.random.default_rng(99)
        for trial in range(5):
            cap = rng.uniform(0.005, 0.03)
            airtime = rng.uniform(0.1, 0.45)
            cfg = dataclasses.replace(fig2.phy, capacitance=cap)
            m = build_model(cfg, "thevenin")
            scheme = ChargingScheme.uniform(0, 100) if trial % 2 == 0 else ChargingScheme.weibull(1, 50)
            sd = steady_state(scheme, airtime, m, n_bins=1500)
            v0 = rng.uniform(m.v_limit_on, m.v_limit_off, 100)
            v = cycle_voltages(v0, scheme, airtime, 10_000, m, rng)[2000:]
            mc = np.mean(v <= fig2.phy.v_operating)
            assert abs(sd.outage(fig2.phy.v_operating) - mc) < 0.01

    def test_perpetuity_moments(self, steady_cache, ud, wd, model):
        # D = v_limit_off - V obeys D' = K + retention*X*D, a perpetuity (Vervaat
        # 1979) whose stationary mean and second moment are closed form
        for label, scheme in (("ud", ud), ("wd", wd)):
            for airtime in AIRTIMES_S:
                sd = steady_cache(label, airtime)
                k = model.v_limit_off - model.v_after_full(airtime)
                r = model.retention(airtime)
                ex = DecayFactorDistribution(scheme=scheme, tau_charge=model.tau_off).mean()
                ex2 = DecayFactorDistribution(scheme=scheme, tau_charge=model.tau_off / 2.0).mean()  # E[X^2]
                d1 = k / (1.0 - r * ex)
                d2 = (k * k + 2.0 * k * r * ex * d1) / (1.0 - r * r * ex2)
                assert abs(sd.mean() - (model.v_limit_off - d1)) <= 1e-7
                assert abs(sd.std() - math.sqrt(d2 - d1 * d1)) <= 1e-5


class TestMeanConsistency:
    def test_stationary_mean_vs_estimator(self, steady_cache, ud, wd, model):
        for label, scheme in (("ud", ud), ("wd", wd)):
            sd = steady_cache(label, 0.204)
            mean_decay = DecayFactorDistribution(scheme=scheme, tau_charge=model.tau_off).mean()
            est = estimate_mean_voltage(model, 0.204, mean_decay)
            assert abs(sd.mean() - est) / est < 0.03


SCHEMES = st.one_of(
    st.builds(
        lambda a, width: ChargingScheme.uniform(a, a + width),
        st.floats(0.0, 200.0),
        st.floats(-6.0, 4.0).map(lambda e: 10.0**e),
    ),
    st.builds(ChargingScheme.weibull, st.floats(0.3, 5.0), st.floats(0.0, 2.7).map(lambda e: 10.0**e)),
)


class TestChainProperties:
    @given(
        scheme=SCHEMES,
        capacitance=st.floats(-3.0, 0.0).map(lambda e: 10.0**e),
        airtime=st.floats(0.01, 1.0),
        n_bins=st.integers(1, 400),
    )
    def test_every_row_is_a_probability_law(self, fig2, scheme, capacitance, airtime, n_bins):
        tm = self.chain(fig2, scheme, capacitance, airtime, n_bins)
        assert np.abs(tm.matrix.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.all(np.diff(tm.matrix.indptr) > 0) and np.all(tm.matrix.data > 0.0)

    @given(
        scheme=SCHEMES,
        capacitance=st.floats(1e-3, 0.04),
        airtime=st.floats(0.01, 1.0),
        n_bins=st.integers(1, 400),
    )
    # the outage reaches 1 several bins below the grid top: no partial sum may round back below it
    @example(scheme=ChargingScheme.weibull(2.0, 10.0), capacitance=0.01, airtime=0.25, n_bins=159)
    def test_stationary_law_and_outage(self, fig2, scheme, capacitance, airtime, n_bins):
        tm = self.chain(fig2, scheme, capacitance, airtime, n_bins)
        try:
            sd = stationary_distribution(tm, max_iter=3000)
        except NumericalError:
            # on a grid too coarse for one cycle's change of voltage the chain
            # can have several closed classes, or one whose bins are linked
            # only by tail probabilities, with a spectral gap of 1e-6 or
            # below: the solve must then raise, not return
            return
        assert np.all(sd.probabilities >= 0.0) and abs(sd.probabilities.sum() - 1.0) <= 1e-12
        volts = np.linspace(tm.bin_edges[0] - 0.1, tm.bin_edges[-1] + 0.1, 101)
        outages = np.array([sd.outage(v) for v in volts])
        assert np.all(np.diff(outages) >= 0.0)
        assert np.abs(outages + [sd.availability(v) for v in volts] - 1.0).max() <= 1e-15

    @given(
        scheme=SCHEMES,
        capacitance=st.floats(1e-3, 0.04),
        airtimes=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2, unique=True).map(sorted),
        n_bins=st.integers(1, 400),
    )
    def test_outage_nondecreasing_in_airtime(self, fig2, scheme, capacitance, airtimes, n_bins):
        # a longer airtime lowers the retention, and each row's law is
        # stochastically increasing in the retention
        outages = []
        for airtime in airtimes:
            try:
                sd = stationary_distribution(self.chain(fig2, scheme, capacitance, airtime, n_bins), max_iter=3000)
            except NumericalError:
                return  # as in test_stationary_law_and_outage
            outages.append(sd.outage(fig2.phy.v_operating))
        assert outages[0] <= outages[1] + 1e-15

    @staticmethod
    def chain(fig2, scheme, capacitance, airtime, n_bins):
        m = build_model(dataclasses.replace(fig2.phy, capacitance=capacitance), "thevenin")
        return build_transition_matrix(scheme, airtime, m, n_bins)
