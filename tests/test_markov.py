import dataclasses
import math
import time
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    band_chain,
    charging_law,
    closed_classes,
    cycle_voltages,
    gth_40_digits,
    outside_band,
    reference_stationary,
    reference_transition_matrix,
    rows,
)
from scipy import integrate
from scipy.sparse import linalg as sparse_linalg

from loraeh import markov
from loraeh.capacitor import build_model, estimate_mean_voltage
from loraeh.errors import NumericalError
from loraeh.markov import (
    DENSE_BINS,
    DecayFactorDistribution,
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


def decay_pdf(law, tau, x):
    """Density of X = exp(-nu/tau) at x in (0, 1]: tau/x * f_nu(-tau*ln x), f_nu the pdf of nu's law."""
    return tau / x * law.pdf(-tau * math.log(x))


class TestDecayFactorDistribution:
    def test_pdf_normalizes(self, ud, wd, model):
        # the density of X by change of variables integrates to 1 over its support
        for scheme in (ud, wd, ChargingScheme.weibull(2.0, 30.0)):
            lo, hi = decay_support(scheme, model.tau_off)
            density = partial(decay_pdf, charging_law(scheme), model.tau_off)
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


# the near-reducible chains of TestStationary: one closed class whose 8 to 37 bins are
# linked only by tail probabilities, so that its law spans hundreds of decades
NEAR_REDUCIBLE = [
    pytest.param(ChargingScheme.weibull(1.31, 9.03), 0.18, 0.365, 37, id="weibull-1.31-0.18-0.365-37"),
    pytest.param(ChargingScheme.weibull(2.0, 50.0), 1.0, 0.372, 200, id="weibull-2-1.0-0.372-200"),
    pytest.param(ChargingScheme.weibull(2.0, 50.0), 0.18, 0.113, 100, id="weibull-2-0.18-0.113-100"),
]


class TestTransitionMatrix:
    def test_single_state(self, ud, model):
        tm = build_transition_matrix(ud, 0.204, model, n_bins=1)
        assert rows(tm).tolist() == [[1.0]]

    def test_rows_stochastic(self, ud, model):
        tm = build_transition_matrix(ud, 0.204, model, n_bins=500)
        assert np.abs(rows(tm).sum(axis=1) - 1.0).max() < 1e-12

    def test_out_of_support_zeroed(self, ud, model):
        tm = build_transition_matrix(ud, 0.204, model, n_bins=400)
        lo, hi = decay_support(ud, model.tau_off)
        i = 200
        centers = 0.5 * (tm.bin_edges[:-1] + tm.bin_edges[1:])
        r, v_full = model.retention(0.204), model.v_after_full(0.204)
        x = (tm.bin_edges - v_full) / (r * (centers[i] - model.v_limit_off))  # decreasing
        row = tm.transpose(np.eye(tm.n_bins)[i])
        outside = (x[1:] > hi) | (x[:-1] < lo)  # whole edge interval above or below the support
        inside = (x[1:] > lo) & (x[:-1] < hi)  # whole edge interval inside it
        assert outside.any() and inside.any()
        assert np.all(row[outside] == 0.0)
        assert np.all(row[inside] > 0.0)


class TestStationary:
    def test_identity_matrix_convention(self):
        # every bin of the identity is its own closed class: no law is unique
        with pytest.raises(NumericalError, match="3 closed classes"):
            stationary_distribution(band_chain(np.eye(3)))

    def test_two_state_symmetric(self):
        sd = stationary_distribution(band_chain([[0.5, 0.5], [0.5, 0.5]]))
        assert np.allclose(sd.probabilities, [0.5, 0.5], atol=1e-12)

    def test_one_and_two_bin_closed_forms(self):
        # [[1 - a, a], [b, 1 - b]] has the law (b, a) / (a + b)
        assert stationary_distribution(band_chain(np.eye(1))).probabilities.tolist() == [1.0]
        a, b = 0.3, 0.1
        two = band_chain([[1 - a, a], [b, 1 - b]])
        assert np.abs(stationary_distribution(two).probabilities - [0.25, 0.75]).max() <= 1e-15
        absorbing = band_chain([[1.0, 0.0], [0.5, 0.5]])
        assert stationary_distribution(absorbing).probabilities.tolist() == [1.0, 0.0]

    def test_transient_bins_get_exactly_zero(self):
        # bins 0 and 1 drain into the closed class {2, 3, 4}
        mat = np.array(
            [
                [0.5, 0.5, 0.0, 0.0, 0.0],
                [0.0, 0.2, 0.8, 0.0, 0.0],
                [0.0, 0.0, 0.1, 0.6, 0.3],
                [0.0, 0.0, 0.4, 0.2, 0.4],
                [0.0, 0.0, 0.5, 0.3, 0.2],
            ]
        )
        u = stationary_distribution(band_chain(mat)).probabilities
        assert u[:2].tolist() == [0.0, 0.0]
        assert np.all(u[2:] > 0.0) and np.abs(u @ mat - u).max() <= 1e-15

    def test_invariant_krylov_space_ends_the_arnoldi_solve(self):
        # every row is (1/4, 3/4) on the top two bins, the closed class: the start, one
        # step from the uniform law on them, is the law, and Gram-Schmidt leaves nothing
        # of its product
        n = DENSE_BINS + 100
        mat = np.zeros((n, n))
        mat[:, -2:] = [0.25, 0.75]
        u = stationary_distribution(band_chain(mat)).probabilities
        assert not u[:-2].any() and np.abs(u[-2:] - [0.25, 0.75]).max() <= 1e-15

    def test_residual_contract(self, ud, model, steady_cache):
        sd = steady_cache("ud", 0.204)
        dense = reference_transition_matrix(ud, 0.204, model, 2000)
        assert np.abs(sd.probabilities @ dense - sd.probabilities).max() < 1e-10

    @pytest.mark.parametrize("scheme, capacitance, airtime, n_bins", NEAR_REDUCIBLE)
    def test_near_reducible_law_holds_every_entry(self, fig2, scheme, capacitance, airtime, n_bins):
        # the law's smallest entries reach 8.7e-295; GTH elimination never subtracts, so
        # each entry comes to working relative accuracy, and those below the normal
        # double range are 0
        tm = TestChainProperties.chain(fig2, scheme, capacitance, airtime, n_bins)
        assert tm.n_bins <= DENSE_BINS
        u = stationary_distribution(tm).probabilities
        p = rows(tm)
        _, closed = closed_classes(p)
        assert np.all(u[~closed] == 0.0)
        exact = gth_40_digits(p[np.ix_(closed, closed)])
        assert min(exact) < np.finfo(float).tiny < max(exact)
        for got, want in zip(u[closed].tolist(), exact):
            assert abs(got - want) <= 1e-14 * want if want >= np.finfo(float).tiny else got == 0.0

    @pytest.mark.parametrize("label", ["ud", "wd"])
    def test_coarse_default_laws_hold_every_entry(self, model, ud, wd, steady_cache, label):
        # every SF at DENSE_BINS bins: with P >= 0, uP takes no subtraction, so each
        # positive entry's residual is held relative to the entry itself
        scheme = {"ud": ud, "wd": wd}[label]
        for airtime in AIRTIMES_S:
            u = steady_cache(label, airtime, n_bins=DENSE_BINS).probabilities
            dense = reference_transition_matrix(scheme, airtime, model, DENSE_BINS)
            held = u > 0.0
            assert np.all(np.abs(u @ dense - u)[held] <= 1e-13 * u[held])

    @pytest.mark.parametrize(
        "label, airtime, exact",
        [
            pytest.param("ud", AIRTIMES_S[0], 4.8118370535215052315e-26, id="ud-SF7"),
            pytest.param("ud", AIRTIMES_S[1], 1.4737155690806164833e-11, id="ud-SF8"),
            pytest.param("wd", AIRTIMES_S[0], 8.0896634322481456914e-20, id="wd-SF7"),
            pytest.param("wd", AIRTIMES_S[1], 2.1806635982998445551e-8, id="wd-SF8"),
        ],
    )
    def test_coarse_default_tails(self, fig2, steady_cache, label, airtime, exact):
        # the SF7 and SF8 outages at DENSE_BINS bins, far below the law's largest
        # entries, against gth_40_digits on the closed class of the same cells (1-2 s each)
        outage = steady_cache(label, airtime, n_bins=DENSE_BINS).outage(fig2.phy.v_operating)
        assert outage > 0.0 and abs(outage - exact) <= 1e-12 * exact

    def test_arnoldi_nonconvergence_raises(self, fig2, monkeypatch):
        # the same kind of chain on a grid above DENSE_BINS, which the Arnoldi
        # solve takes about 700 products to solve: given 100, it runs out of
        # products, and gives up within one basis of MAX_ITER
        tm = TestChainProperties.chain(fig2, ChargingScheme.weibull(1.31, 9.03), 1.0, 0.365, 400)
        assert tm.n_bins > DENSE_BINS
        products = 0

        def counting(x):
            nonlocal products
            products += 1
            return tm.transpose(x)

        monkeypatch.setattr(markov, "MAX_ITER", 100)
        with pytest.raises(NumericalError, match=r"did not converge in \d+ products") as info:
            stationary_distribution(dataclasses.replace(tm, transpose=counting))
        assert f"in {products} products" in str(info.value)
        assert 100 <= products <= 100 + 20

    def test_arnoldi_solves_the_slow_chain(self, fig2):
        # started on the closed class, the solve takes that chain's law to GTH
        # elimination of the reference cells
        scheme = ChargingScheme.weibull(1.31, 9.03)
        tm = TestChainProperties.chain(fig2, scheme, 1.0, 0.365, 400)
        m = build_model(dataclasses.replace(fig2.phy, capacitance=1.0), "thevenin")
        dense = reference_transition_matrix(scheme, 0.365, m, 400)
        exact = markov._gth(dense, tm.first, tm.after, markov._recurrent_bins(tm.first, tm.after))
        assert 0.5 * np.abs(stationary_distribution(tm).probabilities - exact).sum() <= 1e-11


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
        # each row matches the reference, and the reference is 0 off the row's band
        m = build_model(dataclasses.replace(fig2.phy, capacitance=capacitance), "thevenin")
        tm = build_transition_matrix(scheme, airtime, m, n_bins)
        dense = reference_transition_matrix(scheme, airtime, m, n_bins)
        got = rows(tm)
        assert np.abs(got.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(got - dense).max() <= 1e-13
        assert not dense[outside_band(tm)].any() and np.all(tm.after > np.maximum(tm.first - 1, 0))

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
            with mock.patch.object(markov, "MAX_ITER", 3000):
                sd = stationary_distribution(tm)
        except NumericalError as exc:
            # on a grid too coarse for one cycle's change of voltage the chain
            # can have several closed classes. Above DENSE_BINS its one closed
            # class can also have bins linked only by tail probabilities, with
            # a spectral gap of 1e-6 or below, and the Arnoldi solve must then
            # raise, not return; GTH elimination solves every such chain
            assert n_bins > DENSE_BINS or str(exc).startswith("the chain has")
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
                with mock.patch.object(markov, "MAX_ITER", 3000):
                    sd = stationary_distribution(self.chain(fig2, scheme, capacitance, airtime, n_bins))
            except NumericalError as exc:  # as in test_stationary_law_and_outage
                assert n_bins > DENSE_BINS or str(exc).startswith("the chain has")
                return
            outages.append(sd.outage(fig2.phy.v_operating))
        assert outages[0] <= outages[1] + 1e-15

    @staticmethod
    def chain(fig2, scheme, capacitance, airtime, n_bins):
        m = build_model(dataclasses.replace(fig2.phy, capacitance=capacitance), "thevenin")
        return build_transition_matrix(scheme, airtime, m, n_bins)


# SCHEMES, and the exponential law, which has a product of its own
MATRIX_FREE_SCHEMES = st.one_of(
    SCHEMES, st.builds(lambda w: ChargingScheme.weibull(1.0, w), st.floats(0.0, 2.7).map(lambda e: 10.0**e))
)

# (scheme, capacitance) of the chains solved at 2000 and 16 000 bins: the default uniform
# and exponential schemes, and two Weibull shapes that take the kernel sum
MATRIX_FREE_CASES = [
    pytest.param("ud", 0.01, id="ud"),
    pytest.param("wd", 0.01, id="wd"),
    pytest.param(ChargingScheme.weibull(0.5, 50.0), 0.04, id="weibull-0.5-40mF"),
    pytest.param(ChargingScheme.weibull(2.0, 50.0), 0.01, id="weibull-2"),
]


class TestMatrixFree:
    """The product, the closed class and the memory of the chain solved without its matrix."""

    @settings(max_examples=40)
    @given(
        scheme=MATRIX_FREE_SCHEMES,
        capacitance=st.floats(-3.0, 0.0).map(lambda e: 10.0**e),
        airtime=st.floats(0.01, 1.0),
        n_bins=st.integers(DENSE_BINS + 1, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    # the kernel sum's far field must keep its distance from t = 0 here ...
    @example(scheme=ChargingScheme.weibull(0.39, 287.3), capacitance=0.041, airtime=0.18, n_bins=1730, seed=0)
    # ... and its hazard rule here
    @example(scheme=ChargingScheme.weibull(30.0, 9.5), capacitance=0.0053, airtime=0.49, n_bins=1767, seed=0)
    def test_product_matches_the_matrix(self, fig2, scheme, capacitance, airtime, n_bins, seed):
        m = build_model(dataclasses.replace(fig2.phy, capacitance=capacitance), "thevenin")
        dense = reference_transition_matrix(scheme, airtime, m, n_bins)
        tm = build_transition_matrix(scheme, airtime, m, n_bins)
        x = np.random.default_rng(seed).standard_normal(n_bins)
        assert np.abs(tm.transpose(x) - dense.T @ x).max() <= 1e-13 * np.abs(x).sum()

    @settings(max_examples=40)
    @given(
        scheme=MATRIX_FREE_SCHEMES,
        capacitance=st.floats(1e-3, 0.04),
        airtime=st.floats(0.01, 1.0),
        n_bins=st.integers(DENSE_BINS + 1, 3000),
    )
    # 1775 transient bins: a start on every bin left 1e-11 of negative mass on them and
    # missed eigs by 1.25e-11
    @example(scheme=ChargingScheme.uniform(0.0, 1.0), capacitance=0.0390625, airtime=0.01, n_bins=3000)
    def test_law_matches_arpack(self, fig2, scheme, capacitance, airtime, n_bins):
        # ARPACK's eigs from the uniform law, up to TestChainProperties' 40 mF: on slower
        # chains eigs itself can miss the law by more (see the test below)
        m = build_model(dataclasses.replace(fig2.phy, capacitance=capacitance), "thevenin")
        tm = build_transition_matrix(scheme, airtime, m, n_bins)
        try:
            with mock.patch.object(markov, "MAX_ITER", 3000):
                u = stationary_distribution(tm).probabilities
        except NumericalError:  # several closed classes, or a gap too small to solve (TestChainProperties)
            return
        op = sparse_linalg.LinearOperator((n_bins, n_bins), matvec=tm.transpose, dtype=float)
        vals, vecs = sparse_linalg.eigs(op, k=1, which="LR", v0=np.full(n_bins, 1.0 / n_bins), ncv=20)
        exact = vecs[:, np.argmax(vals.real)].real
        exact = np.maximum(exact / exact.sum(), 0.0)
        assert 0.5 * np.abs(u - exact / exact.sum()).sum() <= 1e-11

    def test_law_holds_where_arpack_misses_it(self, fig2):
        # a 1 F Weibull k = 0.3 chain mixes so slowly that eigs lands 2.2e-11 TV off the
        # dense law, with the same residual 1e-14; the refined Ritz vector is 2.8e-13 off
        scheme = ChargingScheme.weibull(0.3046875, 1.0)
        m = build_model(dataclasses.replace(fig2.phy, capacitance=1.0), "thevenin")
        u = steady_state(scheme, 0.25, m, n_bins=DENSE_BINS + 1).probabilities
        exact = reference_stationary(reference_transition_matrix(scheme, 0.25, m, DENSE_BINS + 1))
        assert 0.5 * np.abs(u - exact).sum() <= 1e-12

    @given(
        scheme=SCHEMES,
        capacitance=st.floats(-3.0, math.log10(0.3)).map(lambda e: 10.0**e),
        airtime=st.floats(0.01, 1.0),
        n_bins=st.integers(1, 1200),
    )
    # 29 closed classes on a grid above DENSE_BINS, 22 on one below it
    @example(scheme=ChargingScheme.uniform(0.0, 100.0), capacitance=0.3, airtime=AIRTIMES_S[0], n_bins=400)
    @example(scheme=ChargingScheme.uniform(0.0, 100.0), capacitance=0.3, airtime=AIRTIMES_S[0], n_bins=200)
    @example(scheme=ChargingScheme.uniform(0.0, 100.0), capacitance=0.3, airtime=AIRTIMES_S[0], n_bins=1)
    def test_closed_classes_read_from_the_band_ends(self, fig2, scheme, capacitance, airtime, n_bins):
        m = build_model(dataclasses.replace(fig2.phy, capacitance=capacitance), "thevenin")
        count, recurrent = closed_classes(reference_transition_matrix(scheme, airtime, m, n_bins))
        tm = build_transition_matrix(scheme, airtime, m, n_bins)
        if count > 1:
            with pytest.raises(NumericalError, match=f"the chain has {count} closed classes"):
                markov._recurrent_bins(tm.first, tm.after)
        else:
            assert np.array_equal(markov._recurrent_bins(tm.first, tm.after), recurrent)

    def test_several_closed_classes_raise(self, fig2):
        # the count comes from the band ends, on a grid above DENSE_BINS and on one
        # below it; the reference is built only to check it
        m = build_model(dataclasses.replace(fig2.phy, capacitance=0.3), "thevenin")
        uniform, weibull = ChargingScheme.uniform(0.0, 100.0), ChargingScheme.weibull(2.0, 50.0)
        cases = {(uniform, 400): 29, (weibull, 400): 3, (uniform, 200): 22, (weibull, 200): 2}
        counts = {(s, n): closed_classes(reference_transition_matrix(s, AIRTIMES_S[0], m, n))[0] for s, n in cases}
        assert counts == cases
        for (scheme, n_bins), count in cases.items():
            with pytest.raises(NumericalError, match=f"the chain has {count} closed classes"):
                steady_state(scheme, AIRTIMES_S[0], m, n_bins=n_bins)

    @pytest.mark.parametrize("scheme, capacitance", MATRIX_FREE_CASES)
    def test_transient_bins_get_exactly_zero(self, fig2, ud, wd, scheme, capacitance):
        scheme = {"ud": ud, "wd": wd}.get(scheme, scheme)
        m = build_model(dataclasses.replace(fig2.phy, capacitance=capacitance), "thevenin")
        _, recurrent = closed_classes(reference_transition_matrix(scheme, 0.204, m, 2000))
        u = steady_state(scheme, 0.204, m, n_bins=2000).probabilities
        assert (~recurrent).any() and np.all(u[~recurrent] == 0.0)

    @pytest.mark.parametrize("scheme, capacitance", MATRIX_FREE_CASES)
    def test_fine_grid_solves_without_the_matrix(self, fig2, ud, wd, scheme, capacitance):
        # at 16 000 bins a sparse matrix of the uniform chain alone would take about
        # 770 MB, that of the Weibull k = 0.5 chain at 40 mF about 6 GB
        scheme = {"ud": ud, "wd": wd}.get(scheme, scheme)
        m = build_model(dataclasses.replace(fig2.phy, capacitance=capacitance), "thevenin")
        coarse = steady_state(scheme, 0.204, m, n_bins=2000)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            sd = steady_state(scheme, 0.204, m, n_bins=16000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 10.0  # 0.4 s or less on a 2-vCPU Xeon
        assert peak < 64 * 2**20
        v_op = fig2.phy.v_operating
        assert abs(sd.outage(v_op) - coarse.outage(v_op)) < 1e-5
