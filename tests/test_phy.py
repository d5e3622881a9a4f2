import bisect
import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import charging_law, weibull_expectation
from scipy import integrate

from loraeh import phy
from loraeh.errors import ConfigError
from loraeh.markov import DecayFactorDistribution
from loraeh.phy import (
    AIRTIMES_S,
    SFS,
    SNR_THRESHOLDS,
    SNR_THRESHOLDS_DB,
    ChargingScheme,
    collision_fraction,
    duty_cycle,
    ring_index,
)


class TestSfTable:
    # published SF7..SF12 bitrates at BW = 125 kHz [kbps], the airtimes' source
    BITRATES_KBPS = (5.47, 3.13, 1.76, 0.98, 0.54, 0.29)

    def test_monotone_columns(self):
        assert SFS.tolist() == [7, 8, 9, 10, 11, 12]
        airtimes, thresholds = AIRTIMES_S.tolist(), SNR_THRESHOLDS.tolist()
        assert airtimes == sorted(airtimes) and len(set(airtimes)) == 6
        assert list(self.BITRATES_KBPS) == sorted(self.BITRATES_KBPS, reverse=True)
        assert thresholds == sorted(thresholds, reverse=True)
        assert SNR_THRESHOLDS_DB.tolist() == sorted(SNR_THRESHOLDS_DB.tolist(), reverse=True)

    def test_airtime_consistent_with_bitrate(self):
        # airtime = 25-byte payload / bitrate, within table rounding
        for airtime, bitrate in zip(AIRTIMES_S, self.BITRATES_KBPS, strict=True):
            implied = 25 * 8 / (bitrate * 1e3)
            assert abs(airtime - implied) / implied < 0.02

    def test_linear_thresholds(self):
        # demodulation floors sit below unity and improve with SF
        assert SNR_THRESHOLDS[3] == pytest.approx(10**-1.5, rel=1e-12)
        assert SNR_THRESHOLDS[0] == pytest.approx(10**-0.6, rel=1e-12)
        assert (SNR_THRESHOLDS < 1).all()
        # each floor is the scalar conversion of its dB value, bit for bit
        assert [10.0 ** (db / 10.0) for db in SNR_THRESHOLDS_DB.tolist()] == SNR_THRESHOLDS.tolist()


class TestRingIndex:
    def test_ring4(self, fig2):
        r = ring_index(3500.0, fig2.phy)
        assert SFS[r] == 10
        assert AIRTIMES_S[r] == 0.204

    def test_origin_maps_to_sf7(self, fig2):
        assert SFS[ring_index(0.0, fig2.phy)] == 7

    def test_interval_lookup(self, fig2):
        assert SFS[ring_index(2500.0, fig2.phy)] == 9
        assert SFS[ring_index(2000.0, fig2.phy)] == 8  # boundary belongs to inner ring
        assert SFS[ring_index(6000.0, fig2.phy)] == 12

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
    def test_survival_consistent_with_pdf(self):
        # 1 - S(x) is the pdf's mass on [lo, x], also where the k = 0.5 density is infinite at 0
        schemes = [ChargingScheme.uniform(20.0, 100.0)] + [ChargingScheme.weibull(k, 50.0) for k in (0.5, 1.0, 2.0)]
        for s in schemes:
            lo, hi = (s.a, s.b) if s.kind == "uniform" else (0.0, math.inf)
            pdf = charging_law(s).pdf
            for x in (25.0, 50.0, 99.0, 200.0):
                mass, _ = integrate.quad(pdf, lo, min(x, hi), epsabs=1e-12, epsrel=1e-12, limit=200)
                assert abs(1.0 - s.survival(x) - mass) <= 1e-9

    def test_means(self):
        assert ChargingScheme.uniform(0, 100).mean() == pytest.approx(50.0)
        assert ChargingScheme.weibull(1, 50).mean() == pytest.approx(50.0)
        # Gamma(1.5) cross-checked by direct quadrature of x * pdf
        s = ChargingScheme.weibull(2, 1)
        pdf = charging_law(s).pdf
        oracle, _ = integrate.quad(lambda x: x * pdf(x), 0, np.inf)
        assert s.mean() == pytest.approx(math.gamma(1.5), rel=1e-12)
        assert s.mean() == pytest.approx(oracle, rel=1e-9)

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            ChargingScheme.uniform(5, 5)
        with pytest.raises(ConfigError):
            ChargingScheme.weibull(0, 10)

    def test_weibull_mean_overflow(self):
        # Gamma(1 + 1/k) overflows for k below about 0.0058, and w * Gamma may overflow on its own
        with pytest.raises(ConfigError, match="overflows a float"):
            ChargingScheme.weibull(1e-300, 50.0)
        with pytest.raises(ConfigError, match="overflows a float"):
            ChargingScheme.weibull(0.0059, 1e300)
        assert math.isfinite(ChargingScheme.weibull(0.0059, 50.0).mean())


class TestDutyCycle:
    @given(x=st.floats(-8.0, 7.0).map(lambda e: 10.0**e))
    @example(x=1.0)
    @example(x=math.nextafter(1.0, 2.0))
    @example(x=1.139)  # just above 1 the continued fraction takes the most steps; its error there stays under 5e-15
    def test_exp1_matches_mpmath(self, x):
        # x e^x E1(x), also where e^x alone overflows
        with mpmath.workdps(30):
            exact = float(x * mpmath.exp(x) * mpmath.e1(x))
        assert abs(phy._exponential_duty(x) - exact) <= 1e-14 * exact

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
            ChargingScheme.weibull(1.0, 1e-4),  # tau / w up to 6820, where e^x overflows
        ],
        ids=["ud", "uniform-20-300", "wd", "exponential-0.5", "exponential-1e-4"],
    )
    def test_closed_forms_match_mpmath(self, scheme, monkeypatch):
        # uniform and exponential schemes (the defaults first) run no quadrature
        monkeypatch.setattr(ChargingScheme, "expectation", lambda *args: pytest.fail("quadrature run"))
        for tau in AIRTIMES_S:
            if scheme.kind == "uniform":
                with mpmath.workdps(30):
                    exact = float(mpmath.quad(lambda x: tau / (x + tau), [scheme.a, scheme.b]) / (scheme.b - scheme.a))
            else:
                exact = weibull_expectation(1.0, scheme.w, lambda x: tau / (x + tau), tau)
            assert duty_cycle(scheme, tau) == pytest.approx(exact, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("b", [1e307, 1e308])
    def test_uniform_width_past_the_float_range(self, b):
        # (b - a) / (a + tau) overflows here, so ln(1 + (b - a) / (a + tau)) is taken as ln(b - a) - ln(a + tau)
        for tau in AIRTIMES_S.tolist():
            with mpmath.workdps(30):
                exact = float(tau / mpmath.mpf(b) * mpmath.log1p(mpmath.mpf(b) / tau))
            assert duty_cycle(ChargingScheme.uniform(0.0, b), tau) == pytest.approx(exact, rel=1e-12, abs=0.0)

    @given(
        scheme=st.one_of(
            st.builds(
                lambda a, width: ChargingScheme.uniform(a, a + width),
                st.floats(0.0, 500.0),
                st.floats(0.1, 1000.0),
            ),
            st.builds(ChargingScheme.weibull, st.floats(0.05, 6.0), st.floats(-3.0, 4.0).map(lambda e: 10.0**e)),
        ),
        airtime=st.floats(0.01, 1.0),
    )
    @example(scheme=ChargingScheme.weibull(4.0, 1e-3), airtime=0.682)  # the density quadrature read 37% low here
    def test_expectation_bounds_the_mean_figure(self, scheme, airtime):
        # tau / (nu + tau) is convex in nu, so by Jensen E[tau / (nu + tau)] >= tau / (E[nu] + tau)
        figure = airtime / (scheme.mean() + airtime)
        assert figure * (1.0 - 1e-7) <= duty_cycle(scheme, airtime) <= 1.0


class TestWeibullQuadrature:
    # ChargingScheme.expectation integrates over s = ln u, where nu = w u^(1/k) and u is a unit
    # exponential. A quadrature of the density raised at (0.05, 50) and (0.1, 0.05) and read 37% low
    # at (4, 1e-3). k = 0.006 is the smallest accepted shape, where e^(s/k) needs its cap. (2, 1e4) and
    # (5, 1) are large shapes; integrated over u rather than s, (2, 1e4) misses its tolerance
    @pytest.mark.parametrize(
        "k, w",
        [(0.2, 50.0), (0.31, 137.0), (0.5, 50.0), (1.7, 50.0), (4.0, 50.0)]
        + [(4.0, 1e-3), (0.05, 50.0), (0.1, 0.05), (0.006, 50.0), (2.0, 1e4), (5.0, 1.0)],
    )
    def test_duty_cycle_matches_mpmath(self, k, w):
        for tau in (AIRTIMES_S[0], AIRTIMES_S[-1]):
            exact = weibull_expectation(k, w, lambda x: tau / (x + tau), tau)
            assert duty_cycle(ChargingScheme.weibull(k, w), tau) == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize(
        "k, w, tau",
        [(0.2, 50.0, 107.0), (0.2, 50.0, 4327.0), (0.308, 137.4, 4327.0), (3.0, 50.0, 107.0), (6.0, 1e-3, 4327.0)],
    )
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

    def test_range_checks(self, ud):
        with pytest.raises(ValueError):
            collision_fraction(1.5, ud, 0.204)
        assert collision_fraction(0.5, ud, 0.0) == 0.0
        with pytest.raises(ValueError):
            collision_fraction(0.5, ud, -0.204)


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
        with pytest.raises(ConfigError, match="l0 = 0"):
            dataclasses.replace(fig2.phy, ring_radii=(1.0, *fig2.phy.ring_radii[1:]))
        bad = list(fig2.phy.ring_radii)
        bad[2], bad[3] = bad[3], bad[2]
        with pytest.raises(ConfigError):
            dataclasses.replace(fig2.phy, ring_radii=tuple(bad))
        with pytest.raises(ConfigError):
            dataclasses.replace(fig2.phy, radius=5000.0)

    def test_radius_power_overflow(self, fig2):
        # coverage raises d^eta for every d up to the radius, the simulator squares it
        radius = 1e203
        rings = tuple(n * radius / 6 for n in range(7))
        with pytest.raises(ConfigError, match="radius\\^eta is too large"):
            dataclasses.replace(fig2.phy, radius=radius, ring_radii=rings)
        rings = tuple(n * 1e103 / 6 for n in range(7))
        assert dataclasses.replace(fig2.phy, radius=1e103, ring_radii=rings).radius == 1e103
