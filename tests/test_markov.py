import math

import numpy as np
import pytest
from scipy import integrate

from loraeh.capacitor import CycleConstants, build_model, cycle_voltages
from loraeh.errors import NumericalError
from loraeh.markov import (
    DecayFactorDistribution,
    StationaryDistribution,
    TransitionMatrix,
    build_transition_matrix,
    mean_voltage_estimate,
    stationary_distribution,
    stationary_pdf,
    steady_state,
)
from loraeh.phy import ChargingScheme


class TestDecayFactorDistribution:
    def test_uniform_support(self, ud):
        d = DecayFactorDistribution(scheme=ud, tau_charge=6000.0)
        lo, hi = d.support()
        assert lo == pytest.approx(math.exp(-100 / 6000), rel=1e-12)
        assert hi == pytest.approx(1.0)

    def test_weibull_support(self, wd):
        assert DecayFactorDistribution(scheme=wd, tau_charge=6000.0).support() == (0.0, 1.0)

    def test_pdf_normalizes(self, ud, wd, model):
        for scheme in (ud, wd, ChargingScheme.weibull(2.0, 30.0)):
            d = DecayFactorDistribution(scheme=scheme, tau_charge=model.tau_off)
            lo, hi = d.support()
            total, _ = integrate.quad(d.pdf, max(lo, 1e-12), hi, epsabs=1e-11, epsrel=1e-11, limit=400)
            assert abs(total - 1.0) < 1e-8

    def test_cdf_consistent_with_pdf(self, ud, model):
        d = DecayFactorDistribution(scheme=ud, tau_charge=model.tau_off)
        lo, _ = d.support()
        for x in (0.5, 0.7, 0.9):
            mass, _ = integrate.quad(d.pdf, lo, x, epsabs=1e-12, epsrel=1e-12)
            assert d.cdf(x) == pytest.approx(mass, abs=1e-9)

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
        d = DecayFactorDistribution(scheme=ud, tau_charge=model.tau_off)
        cc = CycleConstants.from_model(model, 0.204)
        tm = build_transition_matrix(d, cc, model, n_bins=1)
        assert tm.matrix.toarray().tolist() == [[1.0]]

    def test_rows_stochastic(self, ud, model):
        d = DecayFactorDistribution(scheme=ud, tau_charge=model.tau_off)
        cc = CycleConstants.from_model(model, 0.204)
        tm = build_transition_matrix(d, cc, model, n_bins=500)
        assert np.abs(tm.matrix.sum(axis=1) - 1.0).max() < 1e-12

    def test_out_of_support_zeroed(self, ud, model):
        d = DecayFactorDistribution(scheme=ud, tau_charge=model.tau_off)
        cc = CycleConstants.from_model(model, 0.204)
        tm = build_transition_matrix(d, cc, model, n_bins=400)
        centers = 0.5 * (tm.bin_edges[:-1] + tm.bin_edges[1:])
        lo, hi = d.support()
        i = 200
        x = (centers - cc.v_after_full) / (cc.retention * (centers[i] - cc.ceiling))
        outside = (x <= lo) | (x > hi)
        assert not tm.self_loops[i]
        assert np.all(tm.matrix.toarray()[i, outside] == 0.0)

    def test_density_and_mass_variants_agree(self, ud, model, fig2):
        d = DecayFactorDistribution(scheme=ud, tau_charge=model.tau_off)
        cc = CycleConstants.from_model(model, 0.204)
        outs = []
        for variant in ("density", "mass"):
            tm = build_transition_matrix(d, cc, model, n_bins=2000, variant=variant)
            sd = stationary_distribution(tm)
            outs.append(sd.outage(fig2.phy.v_operating))
        assert abs(outs[0] - outs[1]) < 0.005


class TestStationary:
    def test_identity_matrix_convention(self):
        tm = TransitionMatrix(matrix=np.eye(3), bin_edges=np.linspace(0, 1, 4), self_loops=np.zeros(3, bool))
        sd = stationary_distribution(tm, method="power")
        assert np.allclose(sd.probabilities, [1 / 3] * 3)

    def test_two_state_symmetric(self):
        tm = TransitionMatrix(
            matrix=np.array([[0.5, 0.5], [0.5, 0.5]]), bin_edges=np.linspace(0, 1, 3), self_loops=np.zeros(2, bool)
        )
        for method in ("power", "eig"):
            sd = stationary_distribution(tm, method=method)
            assert np.allclose(sd.probabilities, [0.5, 0.5], atol=1e-12)

    def test_power_matches_eig(self, ud, model):
        d = DecayFactorDistribution(scheme=ud, tau_charge=model.tau_off)
        cc = CycleConstants.from_model(model, 0.204)
        tm = build_transition_matrix(d, cc, model, n_bins=400)
        a = stationary_distribution(tm, method="power")
        b = stationary_distribution(tm, method="eig")
        assert 0.5 * np.abs(a.probabilities - b.probabilities).sum() < 1e-9

    def test_start_vector_independence(self, ud, model):
        d = DecayFactorDistribution(scheme=ud, tau_charge=model.tau_off)
        cc = CycleConstants.from_model(model, 0.204)
        tm = build_transition_matrix(d, cc, model, n_bins=600)
        rng = np.random.default_rng(4)
        base = stationary_distribution(tm, method="power")
        for _ in range(3):
            other = stationary_distribution(tm, method="power", start=rng.uniform(0.1, 1.0, 600))
            tv = 0.5 * np.abs(base.probabilities - other.probabilities).sum()
            assert tv < 1e-9

    def test_residual_contract(self, ud, model, steady_cache):
        sd = steady_cache("ud", 0.204)
        d = DecayFactorDistribution(scheme=ud, tau_charge=model.tau_off)
        cc = CycleConstants.from_model(model, 0.204)
        tm = build_transition_matrix(d, cc, model, n_bins=2000)
        assert np.abs(sd.probabilities @ tm.matrix - sd.probabilities).max() < 1e-10

    def test_nonconvergence_raises(self):
        rng = np.random.default_rng(1)
        mat = rng.uniform(size=(8, 8))
        mat /= mat.sum(axis=1, keepdims=True)
        tm = TransitionMatrix(matrix=mat, bin_edges=np.linspace(0, 1, 9), self_loops=np.zeros(8, bool))
        with pytest.raises(NumericalError):
            stationary_distribution(tm, method="power", max_iter=1, tol=1e-16)


class TestOutage:
    def test_boundaries(self, steady_cache, model):
        sd = steady_cache("ud", 0.204)
        assert sd.outage(model.v_limit_on) == 0.0
        assert sd.outage(model.v_limit_off) == 1.0

    def test_reference_outages(self, steady_cache):
        assert steady_cache("ud", 0.204).outage(1.8) == pytest.approx(0.08, abs=0.05)
        assert steady_cache("wd", 0.204).outage(1.8) == pytest.approx(0.22, abs=0.05)

    def test_straddle_interpolation(self, steady_cache):
        sd = steady_cache("ud", 0.204)
        k = 977
        inside = sd.bin_edges[k] + 0.25 * sd.delta
        expected = sd.probabilities[:k].sum() + 0.25 * sd.probabilities[k]
        assert sd.outage(inside) == pytest.approx(expected, rel=1e-12)

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
        import dataclasses

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


class TestMeanConsistency:
    def test_stationary_mean_vs_estimator(self, steady_cache, ud, wd, model):
        for label, scheme in (("ud", ud), ("wd", wd)):
            sd = steady_cache(label, 0.204)
            cc = CycleConstants.from_model(model, 0.204)
            est = mean_voltage_estimate(scheme, cc, model)
            assert abs(sd.mean() - est) / est < 0.03
