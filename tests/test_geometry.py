import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, stats

from loraeh import phy
from loraeh.errors import ConfigError
from loraeh.geometry import (
    MIN_DISTANCE_M,
    connection_prob,
    coverage_profile,
    path_gain,
    sample_network,
    sir_success,
    snr_success,
)
from loraeh.phy import AIRTIMES_S, SF_TABLE, collision_fraction


def quad_sir(d, p, cfg):
    """Independent oracle: adaptive quadrature of the annulus interference integral."""
    ring = int(np.searchsorted(cfg.ring_radii, d, side="left")) - 1
    ring = max(ring, 0)
    a_const = cfg.sir_threshold * d**cfg.eta
    f = lambda r: (a_const / (r**cfg.eta + a_const)) * r
    val, _ = integrate.quad(f, cfg.ring_radii[ring], cfg.ring_radii[ring + 1], epsabs=1e-13, epsrel=1e-12, limit=500)
    return math.exp(-2 * math.pi * p * cfg.density * val)


class TestPathGain:
    def test_inverse_square_scaling(self, fig2):
        cfg = dataclasses.replace(fig2.phy, eta=2.0)
        assert path_gain(2000.0, cfg) == pytest.approx(path_gain(1000.0, cfg) / 4.0, rel=1e-12)

    def test_high_precision_value(self, fig2):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        expected = float((mp.mpf("0.345") / (4 * mp.pi * 1000)) ** mp.mpf("2.75"))
        assert path_gain(1000.0, fig2.phy) == pytest.approx(expected, rel=1e-12)

    def test_monotone_decreasing(self, fig2):
        ds = np.linspace(10, 6000, 100)
        gains = [path_gain(d, fig2.phy) for d in ds]
        assert np.all(np.diff(gains) < 0)

    def test_singularity(self, fig2):
        with pytest.raises(ValueError):
            path_gain(0.0, fig2.phy)


class TestSnrSuccess:
    def test_near_gateway(self, fig2):
        assert snr_success(2.0, fig2.phy) > 0.999999

    def test_noiseless(self, fig2):
        cfg = dataclasses.replace(fig2.phy, noise=0.0)
        for d in (10.0, 2500.0, 5999.0):
            assert snr_success(d, cfg) == 1.0

    def test_monte_carlo_oracle(self, fig2):
        d = 3500.0
        analytic = snr_success(d, fig2.phy)
        thr = fig2.phy.noise * SF_TABLE[3].snr_threshold / (fig2.phy.p_tx * path_gain(d, fig2.phy))
        rng = np.random.default_rng(21)
        hits = rng.exponential(1.0, 10_000_000) >= thr
        se = math.sqrt(analytic * (1 - analytic) / hits.size)
        assert abs(analytic - hits.mean()) < 3 * se

    def test_sawtooth_jumps_up_at_ring_boundary(self, fig2):
        # crossing into the next ring lowers the demodulation floor
        for edge in fig2.phy.ring_radii[1:-1]:
            assert snr_success(edge + 1.0, fig2.phy) > snr_success(edge, fig2.phy)
        ds = np.linspace(3001, 3999, 50)
        vals = [snr_success(d, fig2.phy) for d in ds]
        assert np.all(np.diff(vals) < 0)  # decreasing within a ring


class TestSirSuccess:
    def test_no_interferers(self, fig2):
        assert sir_success(3500.0, 0.0, fig2.phy) == 1.0

    def test_empty_network(self, fig2):
        cfg = dataclasses.replace(fig2.phy, density=0.0)
        assert sir_success(3500.0, 0.01, cfg) == 1.0

    def test_against_quadrature(self, fig2):
        rng = np.random.default_rng(17)
        for _ in range(25):
            cfg = dataclasses.replace(fig2.phy, eta=float(rng.choice([2.5, 3.0, 3.5, 4.0])))
            ring = int(rng.integers(0, 6))
            lo, hi = cfg.ring_radii[ring], cfg.ring_radii[ring + 1]
            d = float(rng.uniform(max(lo, MIN_DISTANCE_M), hi))
            p = float(rng.uniform(0, 0.02))
            assert sir_success(d, p, cfg) == pytest.approx(quad_sir(d, p, cfg), rel=1e-8)

    def test_inner_ring_small_distance(self, fig2):
        # lower edge term vanishes analytically at l0 = 0
        for d in (1.0, 25.0, 999.0):
            assert sir_success(d, 0.005, fig2.phy) == pytest.approx(quad_sir(d, 0.005, fig2.phy), rel=1e-8)

    def test_strictly_decreasing_in_load(self, fig2):
        ps = np.linspace(0, 0.05, 11)
        vals = [sir_success(3500.0, p, fig2.phy) for p in ps]
        assert np.all(np.diff(vals) < 0)
        dens = np.linspace(1e-7, 2e-5, 9)
        vals = [sir_success(3500.0, 0.01, dataclasses.replace(fig2.phy, density=x)) for x in dens]
        assert np.all(np.diff(vals) < 0)
        thrs = np.linspace(1.0, 3.0, 9)
        vals = [sir_success(3500.0, 0.01, dataclasses.replace(fig2.phy, sir_threshold=x)) for x in thrs]
        assert np.all(np.diff(vals) < 0)

    def test_continuous_within_ring(self, fig2):
        ds = np.linspace(2001, 2999, 200)
        vals = np.array([sir_success(d, 0.01, fig2.phy) for d in ds])
        assert np.abs(np.diff(vals)).max() < 0.005


class TestConnectionProb:
    def test_clean_channel(self, fig2):
        cfg = dataclasses.replace(fig2.phy, noise=0.0)
        lo, hi = connection_prob(3500.0, 0.0, cfg, n_samples=1000)
        assert lo == 1.0 and hi == 1.0

    def test_bound_ordering(self, fig2):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            for d in rng.uniform(100, 5900, 15):
                lo, hi = connection_prob(float(d), 0.01, fig2.phy, n_samples=20000, seed=seed)
                assert lo <= hi + 1e-9

    def test_lower_is_product(self, fig2):
        lo, _ = connection_prob(1500.0, 0.007, fig2.phy, n_samples=100)
        assert lo == pytest.approx(snr_success(1500.0, fig2.phy) * sir_success(1500.0, 0.007, fig2.phy), rel=1e-12)


class TestCoverageProfile:
    def test_dead_network(self, fig2, ud):
        prof = coverage_profile(fig2.phy, ud, np.zeros(6), points_per_ring=5)
        assert np.all(prof.overall == 0.0)
        snr = np.array([snr_success(d, fig2.phy) for d in prof.distances])
        assert np.allclose(prof.conn_lower, snr)  # dead co-SF devices do not interfere

    def test_lone_device(self, fig2, ud):
        cfg = dataclasses.replace(fig2.phy, density=0.0)
        prof = coverage_profile(cfg, ud, np.ones(6), points_per_ring=5)
        snr = np.array([snr_success(d, cfg) for d in prof.distances])
        assert np.allclose(prof.overall, snr)

    def test_composition(self, fig2, ud, ring_availability):
        prof = coverage_profile(fig2.phy, ud, ring_availability, points_per_ring=4)
        assert np.allclose(prof.overall, prof.energy_avail * prof.conn_lower)
        assert np.allclose(prof.conn_lower, prof.snr_success * prof.sir_success)
        for r in range(6):
            expected = collision_fraction(ring_availability[r], ud, AIRTIMES_S[r])
            assert prof.collision_p[r] == pytest.approx(expected, rel=1e-12)

    def test_points_per_ring_checked_before_any_quadrature(self, fig2, ud, monkeypatch):
        calls = []
        duty_cycle = phy.duty_cycle
        monkeypatch.setattr(phy, "duty_cycle", lambda *args: calls.append(args) or duty_cycle(*args))
        with pytest.raises(ConfigError, match="points per ring"):
            coverage_profile(fig2.phy, ud, np.ones(6), points_per_ring=0)
        assert calls == []

    def test_tradeoff_unimodal(self, fig2, ud):
        # with p linear in availability, Q(E) = E * snr * exp(-A*E): argmax at min(1, 1/A)
        cfg = dataclasses.replace(fig2.phy, density=120e-6)  # dense enough for interior argmax
        d = 3500.0
        p_full = collision_fraction(1.0, ud, AIRTIMES_S[3], variant="simple")
        a_const = -math.log(sir_success(d, p_full, cfg))
        grid = np.linspace(1e-4, 1.0, 400)
        q = np.array([e * snr_success(d, cfg) * sir_success(d, e * p_full, cfg) for e in grid])
        peak = grid[np.argmax(q)]
        assert a_const > 1.0
        assert peak == pytest.approx(min(1.0, 1.0 / a_const), abs=2.0 * (grid[1] - grid[0]))
        rising = grid < peak - 0.01
        falling = grid > peak + 0.01
        assert np.all(np.diff(q[rising]) > 0) and np.all(np.diff(q[falling]) < 0)


class TestSampleNetwork:
    def test_poisson_mean_quick(self, fig2):
        counts = [sample_network(fig2.phy, seed=s).n_devices for s in range(400)]
        expected = fig2.phy.density * math.pi * fig2.phy.radius**2
        se = math.sqrt(expected / len(counts))
        assert abs(np.mean(counts) - expected) < 4 * se

    def test_ring_uniformity_chi2(self, fig2):
        net = sample_network(fig2.phy, seed=5, n_devices=60000)
        counts = np.bincount(net.ring, minlength=6)
        radii = np.asarray(fig2.phy.ring_radii)
        areas = np.diff(radii**2)
        expected = counts.sum() * areas / areas.sum()
        _, pvalue = stats.chisquare(counts, expected)
        assert pvalue > 0.01

    def test_determinism_and_pinning(self, fig2):
        a = sample_network(fig2.phy, seed=7)
        b = sample_network(fig2.phy, seed=7)
        assert np.array_equal(a.distances, b.distances)
        assert sample_network(fig2.phy, seed=7, n_devices=123).n_devices == 123

    def test_empty_limit(self, fig2):
        cfg = dataclasses.replace(fig2.phy, density=1e-300)
        assert sample_network(cfg, seed=0).n_devices == 0

    def test_assignments_consistent(self, fig2):
        net = sample_network(fig2.phy, seed=3, n_devices=500)
        assert net.distances.min() >= MIN_DISTANCE_M
        edges = np.asarray(fig2.phy.ring_radii)
        for dev in range(0, 500, 37):
            r = net.ring[dev]
            assert edges[r] <= net.distances[dev] <= edges[r + 1] or (r == 0 and net.distances[dev] <= edges[1])
