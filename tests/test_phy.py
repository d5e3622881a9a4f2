import bisect
import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from loraeh.errors import ConfigError, NumericalError
from loraeh.markov import DecayFactorDistribution
from loraeh.phy import (
    AIRTIMES_S,
    ChargingScheme,
    SF_TABLE,
    collision_fraction,
    duty_cycle,
    ring_index,
)


class TestSfTable:
    def test_monotone_columns(self):
        airtimes = [e.airtime_s for e in SF_TABLE]
        bitrates = [e.bitrate_kbps for e in SF_TABLE]
        thresholds = [e.snr_threshold for e in SF_TABLE]
        assert airtimes == sorted(airtimes) and len(set(airtimes)) == 6
        assert bitrates == sorted(bitrates, reverse=True)
        assert thresholds == sorted(thresholds, reverse=True)

    def test_airtime_consistent_with_bitrate(self):
        # airtime = 25-byte payload / bitrate, within table rounding
        for e in SF_TABLE:
            implied = 25 * 8 / (e.bitrate_kbps * 1e3)
            assert abs(e.airtime_s - implied) / implied < 0.02

    def test_linear_thresholds(self):
        # demodulation floors sit below unity and improve with SF
        assert SF_TABLE[3].snr_threshold == pytest.approx(10**-1.5, rel=1e-12)
        assert SF_TABLE[0].snr_threshold == pytest.approx(10**-0.6, rel=1e-12)
        assert all(e.snr_threshold < 1 for e in SF_TABLE)


class TestRingIndex:
    def test_ring4(self, fig2):
        entry = SF_TABLE[ring_index(3500.0, fig2.phy)]
        assert entry.sf == 10
        assert entry.airtime_s == 0.204

    def test_origin_maps_to_sf7(self, fig2):
        assert SF_TABLE[ring_index(0.0, fig2.phy)].sf == 7

    def test_interval_lookup(self, fig2):
        assert SF_TABLE[ring_index(2500.0, fig2.phy)].sf == 9
        assert SF_TABLE[ring_index(2000.0, fig2.phy)].sf == 8  # boundary belongs to inner ring
        assert SF_TABLE[ring_index(6000.0, fig2.phy)].sf == 12

    def test_out_of_range(self, fig2):
        with pytest.raises(ValueError):
            ring_index(6000.1, fig2.phy)

    def test_array_matches_scalar(self, fig2):
        cfg = fig2.phy
        rng = np.random.default_rng(17)
        points = np.concatenate(
            [
                np.asarray(cfg.ring_radii, dtype=float),
                np.nextafter(np.asarray(cfg.ring_radii[1:]), 0.0),
                np.nextafter(np.asarray(cfg.ring_radii[:-1]), np.inf),
                [0.0, cfg.radius, 1.0],
                rng.uniform(0.0, cfg.radius, 2000),
            ]
        )
        got = ring_index(points, cfg)
        assert isinstance(got, np.ndarray) and got.shape == points.shape
        assert got.tolist() == [ring_index(float(d), cfg) for d in points]
        # d in (l_{n-1}, l_n] is ring n - 1, and d = 0 is ring 0
        assert got.tolist() == [max(bisect.bisect_left(cfg.ring_radii, d) - 1, 0) for d in points]

    def test_scalar_stays_int(self, fig2):
        assert type(ring_index(3500.0, fig2.phy)) is int

    def test_array_out_of_range(self, fig2):
        for bad in ([-1.0, 10.0], [10.0, fig2.phy.radius * 1.001], [10.0, np.nan]):
            with pytest.raises(ValueError):
                ring_index(np.array(bad), fig2.phy)
        for bad in (-1.0, fig2.phy.radius * 1.001, math.nan):
            with pytest.raises(ValueError):
                ring_index(bad, fig2.phy)


class TestChargingScheme:
    def test_uniform_pdf(self):
        s = ChargingScheme.uniform(0, 100)
        assert s.pdf(50.0) == pytest.approx(0.01, rel=1e-12)
        assert s.pdf(-1.0) == 0.0
        assert s.pdf(101.0) == 0.0

    def test_weibull_pdf(self):
        assert ChargingScheme.weibull(1, 50).pdf(0.0) == pytest.approx(0.02, rel=1e-12)
        expected = (2 / 50) * math.exp(-1)
        assert ChargingScheme.weibull(2, 50).pdf(50.0) == pytest.approx(expected, rel=1e-12)

    def test_pdf_normalization_random_params(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            if rng.random() < 0.5:
                a = rng.uniform(0, 50)
                s = ChargingScheme.uniform(a, a + rng.uniform(1, 200))
                lo, hi = s.a, s.b
            else:
                s = ChargingScheme.weibull(rng.uniform(0.5, 4), rng.uniform(1, 200))
                lo, hi = 0.0, math.inf
            total, err = integrate.quad(s.pdf, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=300)
            assert abs(total - 1.0) < 1e-9

    def test_survival_consistent_with_pdf(self):
        # 1 - S(x) is the pdf's mass on [lo, x], also where the k = 0.5 density is infinite at 0
        schemes = [ChargingScheme.uniform(20.0, 100.0)] + [ChargingScheme.weibull(k, 50.0) for k in (0.5, 1.0, 2.0)]
        for s in schemes:
            lo, hi = (s.a, s.b) if s.kind == "uniform" else (0.0, math.inf)
            for x in (25.0, 50.0, 99.0, 200.0):
                mass, _ = integrate.quad(s.pdf, lo, min(x, hi), epsabs=1e-12, epsrel=1e-12, limit=200)
                assert abs(1.0 - s.survival(x) - mass) <= 1e-9

    def test_means(self):
        assert ChargingScheme.uniform(0, 100).mean() == pytest.approx(50.0)
        assert ChargingScheme.weibull(1, 50).mean() == pytest.approx(50.0)
        # Gamma(1.5) cross-checked by direct quadrature of x * pdf
        s = ChargingScheme.weibull(2, 1)
        oracle, _ = integrate.quad(lambda x: x * s.pdf(x), 0, np.inf)
        assert s.mean() == pytest.approx(math.gamma(1.5), rel=1e-12)
        assert s.mean() == pytest.approx(oracle, rel=1e-9)

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            ChargingScheme.uniform(5, 5)
        with pytest.raises(ConfigError):
            ChargingScheme.weibull(0, 10)


class TestDutyCycle:
    def test_zero_airtime(self):
        assert duty_cycle(ChargingScheme.uniform(0, 100), 0.0) == 0.0

    def test_expected_ratio_against_monte_carlo(self):
        s = ChargingScheme.uniform(0, 100)
        dc = duty_cycle(s, 0.204)
        rng = np.random.default_rng(7)
        draws = 0.204 / (s.sample(rng, 10_000_000) + 0.204)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(dc - draws.mean()) < 3 * se

    def test_monotonicity(self):
        s = ChargingScheme.uniform(0, 100)
        vals = [duty_cycle(s, tau) for tau in (0.05, 0.1, 0.2, 0.4)]
        assert vals == sorted(vals)
        slower = ChargingScheme.uniform(0, 200)
        assert duty_cycle(slower, 0.2) < duty_cycle(s, 0.2)

    @pytest.mark.parametrize(
        "scheme",
        [
            ChargingScheme.uniform(0.0, 100.0),
            ChargingScheme.uniform(20.0, 300.0),
            ChargingScheme.weibull(1.0, 50.0),
            ChargingScheme.weibull(1.0, 0.5),
        ],
        ids=["ud", "uniform-20-300", "wd", "exponential-0.5"],
    )
    def test_closed_forms_match_mpmath(self, scheme, monkeypatch):
        # uniform and exponential schemes (the defaults first) run no quadrature
        monkeypatch.setattr(ChargingScheme, "quad", lambda *args: pytest.fail("quadrature run"))
        for tau in AIRTIMES_S:
            if scheme.kind == "uniform":
                with mpmath.workdps(30):
                    exact = float(mpmath.quad(lambda x: tau / (x + tau), [scheme.a, scheme.b]) / (scheme.b - scheme.a))
            else:
                exact = weibull_expectation(1.0, scheme.w, lambda x: tau / (x + tau), tau)
            assert duty_cycle(scheme, tau) == pytest.approx(exact, rel=1e-13, abs=0.0)

    @given(
        scheme=st.one_of(
            st.builds(
                lambda a, width: ChargingScheme.uniform(a, a + width),
                st.floats(0.0, 500.0),
                st.floats(0.1, 1000.0),
            ),
            st.builds(ChargingScheme.weibull, st.floats(0.5, 5.0), st.floats(0.1, 1000.0)),
        ),
        airtime=st.floats(0.01, 1.0),
    )
    def test_expectation_bounds_the_mean_figure(self, scheme, airtime):
        # tau / (nu + tau) is convex in nu, so by Jensen E[tau / (nu + tau)] >= tau / (E[nu] + tau)
        figure = airtime / (scheme.mean() + airtime)
        assert collision_fraction(1.0, scheme, airtime, variant="simple") == figure
        try:
            duty = duty_cycle(scheme, airtime)
        except NumericalError:  # the quadrature may fail to converge; nothing else may go wrong
            return
        assert figure * (1.0 - 1e-7) <= duty <= 1.0


def weibull_expectation(k, w, g, knee):
    """E[g(nu)] for nu ~ Weibull(k, w) by mpmath, as the integral of exp(-u) g(w u^(1/k)) over u > 0.

    g turns over near nu = knee, at u = (knee / w)^k; the quadrature is split there.
    """
    with mpmath.workdps(30):
        points = sorted({0, (knee / w) ** k, 1}) + [mpmath.inf]
        return float(mpmath.quad(lambda u: mpmath.exp(-u) * g(w * u ** (mpmath.mpf(1) / k)), points))


class TestWeibullQuadrature:
    # k = 0.2 and (0.31, 137) converge only with the support split at w
    @pytest.mark.parametrize("k, w", [(0.2, 50.0), (0.31, 137.0), (0.5, 50.0), (1.7, 50.0), (4.0, 50.0)])
    def test_duty_cycle_matches_mpmath(self, k, w):
        for tau in (AIRTIMES_S[0], AIRTIMES_S[-1]):
            exact = weibull_expectation(k, w, lambda x: tau / (x + tau), tau)
            assert duty_cycle(ChargingScheme.weibull(k, w), tau) == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("k, w, tau", [(0.2, 50.0, 107.0), (0.2, 50.0, 4327.0), (0.308, 137.4, 4327.0), (3.0, 50.0, 107.0)])
    def test_decay_mean_matches_mpmath(self, k, w, tau):
        exact = weibull_expectation(k, w, lambda x: mpmath.exp(-x / tau), tau)
        assert DecayFactorDistribution(ChargingScheme.weibull(k, w), tau).mean() == pytest.approx(exact, rel=1e-8)


class TestCollisionFraction:
    def test_dead_device(self, ud):
        assert collision_fraction(0.0, ud, 0.204) == 0.0

    def test_always_available(self, ud):
        assert collision_fraction(1.0, ud, 0.204) == pytest.approx(duty_cycle(ud, 0.204))

    def test_product_form(self, ud):
        expected = 0.92 * duty_cycle(ud, 0.204)
        assert collision_fraction(0.92, ud, 0.204) == pytest.approx(expected, rel=1e-12)

    def test_bounded_by_duty(self, ud):
        rng = np.random.default_rng(3)
        cap = duty_cycle(ud, 0.204)
        for e in rng.uniform(0, 1, 25):
            assert 0.0 <= collision_fraction(e, ud, 0.204) <= cap

    def test_variants(self, ud):
        simple = collision_fraction(1.0, ud, 0.204, variant="simple")
        assert simple == pytest.approx(0.204 / 50.204, rel=1e-12)
        overlap = collision_fraction(0.9, ud, 0.204, variant="overlap")
        assert overlap == pytest.approx(2 * 0.9 * 0.204 / (50 + 0.9 * 0.204), rel=1e-12)
        with pytest.raises(ValueError):
            collision_fraction(0.5, ud, 0.204, variant="bogus")
        with pytest.raises(ValueError):
            collision_fraction(1.5, ud, 0.204)
        for variant in ("expected", "simple", "overlap"):
            assert collision_fraction(0.5, ud, 0.0, variant=variant) == 0.0
            with pytest.raises(ValueError):
                collision_fraction(0.5, ud, -0.204, variant=variant)


class TestPhyConfig:
    def test_derived_series_resistance(self, fig2):
        assert fig2.phy.r_harvest == fig2.phy.v_harvest**2 / fig2.phy.p_harvest

    def test_invariant_violations(self, fig2):
        with pytest.raises(ConfigError):
            dataclasses.replace(fig2.phy, r_load_on=fig2.phy.r_load_off)
        with pytest.raises(ConfigError):
            dataclasses.replace(fig2.phy, v_operating=5.0)
        with pytest.raises(ConfigError):
            dataclasses.replace(fig2.phy, eta=1.5)
        with pytest.raises(ConfigError):
            dataclasses.replace(fig2.phy, ring_radii=(0.0, 1.0, 2.0))
        bad = list(fig2.phy.ring_radii)
        bad[2], bad[3] = bad[3], bad[2]
        with pytest.raises(ConfigError):
            dataclasses.replace(fig2.phy, ring_radii=tuple(bad))
        with pytest.raises(ConfigError):
            dataclasses.replace(fig2.phy, radius=5000.0)
