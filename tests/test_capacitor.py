import math

import numpy as np
import pytest

from loraeh.capacitor import (
    build_model,
    cycle_voltages,
    estimate_mean_voltage,
    simulate_trajectory,
    step_charge,
    step_discharge,
)
from loraeh.errors import NumericalError
from loraeh.markov import DecayFactorDistribution
from loraeh.phy import ChargingScheme


class TestBuildModel:
    def test_literal_constants(self, fig2):
        m = build_model(fig2.phy, "literal")
        assert m.v_limit_off == pytest.approx(600e3 * 3.3 / 10890, rel=1e-12)
        assert m.tau_off == pytest.approx(6000.0, rel=1e-12)
        assert m.v_limit_on == pytest.approx(117 * 3.3 / 10890, rel=1e-12)
        assert m.tau_on == pytest.approx(1.17, rel=1e-12)
        # the printed constants put the charge asymptote far above the source
        assert m.v_limit_off > fig2.phy.v_harvest

    def test_thevenin_constants(self, fig2, model):
        assert model.v_limit_off == pytest.approx(3.3 * 600e3 / 610890, rel=1e-9)
        assert model.v_limit_off == pytest.approx(3.2412, abs=5e-5)
        assert model.tau_off == pytest.approx(107.0, abs=0.05)
        assert model.v_limit_off < fig2.phy.v_harvest

    def test_matched_load_divider(self, fig2):
        import dataclasses

        cfg = dataclasses.replace(fig2.phy, r_load_off=fig2.phy.r_harvest)
        m = build_model(cfg, "thevenin")
        assert m.v_limit_off == pytest.approx(fig2.phy.v_harvest / 2, rel=1e-12)


class TestSteps:
    def test_charge_identity_and_fixed_point(self, model):
        assert step_charge(1.23, 0.0, model) == pytest.approx(1.23, rel=1e-15)
        assert step_charge(model.v_limit_off, 777.0, model) == pytest.approx(model.v_limit_off, rel=1e-15)

    def test_charge_reference_value(self, model):
        expected = model.v_limit_off + (1.8 - model.v_limit_off) * math.exp(-50.0 / model.tau_off)
        assert step_charge(1.8, 50.0, model) == pytest.approx(expected, rel=1e-15)

    def test_charge_against_rk4(self, model):
        # independent route: integrate dv/dt = (v_rest - v)/tau with RK4
        v, t, h = 1.8, 0.0, 50.0 / 4000
        f = lambda v: (model.v_limit_off - v) / model.tau_off
        for _ in range(4000):
            k1 = f(v)
            k2 = f(v + 0.5 * h * k1)
            k3 = f(v + 0.5 * h * k2)
            k4 = f(v + h * k3)
            v += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        assert step_charge(1.8, 50.0, model) == pytest.approx(v, rel=1e-10)

    def test_discharge_identity_and_fixed_point(self, model):
        assert step_discharge(2.0, 0.0, model) == pytest.approx(2.0, rel=1e-15)
        assert step_discharge(model.v_limit_on, 5.0, model) == pytest.approx(model.v_limit_on, rel=1e-15)

    def test_monotonicity(self, model):
        nus = np.linspace(0, 300, 40)
        charges = step_charge(1.0, nus, model)
        assert np.all(np.diff(charges) > 0)
        taus = np.linspace(0, 3, 40)
        discharges = step_discharge(2.5, taus, model)
        assert np.all(np.diff(discharges) < 0)

    def test_chained_cycle_is_affine(self, model):
        # disc(charge(v, nu)) == v_after_full + retention * decay * (v - v_limit_off)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            v = rng.uniform(model.v_limit_on, model.v_limit_off)
            nu = rng.uniform(0, 300)
            direct = step_discharge(step_charge(v, nu, model), 0.204, model)
            affine = cycle_map(model, 0.204, v, math.exp(-nu / model.tau_off))
            assert abs(direct - affine) < 1e-12

    def test_contraction_is_exact(self, model):
        rng = np.random.default_rng(5)
        for _ in range(200):
            v1, v2 = rng.uniform(model.v_limit_on, model.v_limit_off, 2)
            nu = rng.uniform(1e-3, 200)
            decay = math.exp(-nu / model.tau_off)
            gap = abs(cycle_map(model, 0.204, v1, decay) - cycle_map(model, 0.204, v2, decay))
            assert abs(gap - model.retention(0.204) * decay * abs(v1 - v2)) < 1e-12
            assert gap < abs(v1 - v2)


def cycle_map(m, airtime, v, decay):
    """End-of-cycle voltage from start voltage v and charge-phase decay factor."""
    return m.v_after_full(airtime) + m.retention(airtime) * decay * (v - m.v_limit_off)


class TestCycleMap:
    def test_definitions(self, model):
        retention = model.retention(0.204)
        assert retention == pytest.approx(math.exp(-0.204 / model.tau_on), rel=1e-15)
        expected = model.v_limit_on + (model.v_limit_off - model.v_limit_on) * retention
        assert model.v_after_full(0.204) == pytest.approx(expected, rel=1e-15)
        assert 0 < retention < 1
        assert model.retention(0.0) == 1.0
        assert model.v_after_full(0.0) == model.v_limit_off

    def test_an_array_of_airtimes_is_taken_elementwise(self, model):
        airtimes = np.array([0.0366, 0.204, 0.682])
        assert model.retention(airtimes).tolist() == [model.retention(a) for a in airtimes]
        assert model.v_after_full(airtimes).tolist() == [model.v_after_full(a) for a in airtimes]


class TestTrajectory:
    def test_empty_run(self, model, ud):
        traj = simulate_trajectory(1.8, ud, 0.204, 0, model)
        assert traj.times.tolist() == [0.0]
        assert traj.voltages.tolist() == [1.8]

    def test_bounds(self, model, ud):
        rng = np.random.default_rng(1)
        v = cycle_voltages(rng.uniform(model.v_limit_on, model.v_limit_off, 100), ud, 0.204, 1000, model, rng)
        assert v.min() >= model.v_limit_on - 1e-12
        assert v.max() <= model.v_limit_off + 1e-12

    def test_phase_structure(self, model, ud):
        traj = simulate_trajectory(1.8, ud, 0.204, 20, model, seed=3)
        assert np.all(np.diff(traj.times) > 0)
        charge = traj.phases == "charge"
        inside = charge[1:] & charge[:-1] & (traj.cycle_index[1:] == traj.cycle_index[:-1])
        assert np.all(np.diff(traj.voltages)[inside] >= -1e-12)

    def test_determinism(self, model, ud):
        a = simulate_trajectory(1.8, ud, 0.204, 50, model, seed=9)
        b = simulate_trajectory(1.8, ud, 0.204, 50, model, seed=9)
        assert np.array_equal(a.voltages, b.voltages)

    def test_degenerate_scheme_converges_to_fixed_point(self, model):
        scheme = ChargingScheme.uniform(50.0, 50.0 + 1e-9)
        r, v_full = model.retention(0.204), model.v_after_full(0.204)
        decay = math.exp(-50.0 / model.tau_off)
        v_star = (v_full - r * model.v_limit_off * decay) / (1.0 - r * decay)
        rng = np.random.default_rng(2)
        v = cycle_voltages(1.8, scheme, 0.204, 200, model, rng)
        assert v[-1, 0] == pytest.approx(v_star, abs=1e-9)
        gaps = np.abs(v[:, 0] - v_star)
        assert np.all(gaps[1:20] < gaps[:19])  # geometric approach

    def test_empirical_mean_matches_estimator(self, model, ud):
        mean_decay = DecayFactorDistribution(scheme=ud, tau_charge=model.tau_off).mean()
        est = estimate_mean_voltage(model, 0.204, mean_decay)
        rng = np.random.default_rng(8)
        v = cycle_voltages(np.full(100, 1.8), ud, 0.204, 200, model, rng)
        empirical = v[100:].mean()  # discard transient
        assert abs(empirical - est) / est < 0.02


class TestMeanVoltageEstimator:
    def test_zero_airtime_limit(self, model, ud):
        mean_decay = DecayFactorDistribution(scheme=ud, tau_charge=model.tau_off).mean()
        assert estimate_mean_voltage(model, 1e-9, mean_decay) == pytest.approx(model.v_limit_off, rel=1e-6)

    def test_zero_charging_limit(self, model):
        assert estimate_mean_voltage(model, 0.204, 1.0 - 1e-9) == pytest.approx(model.v_limit_on, abs=1e-4)

    def test_singularity(self, model):
        with pytest.raises(NumericalError):
            estimate_mean_voltage(model, 0.0, 1.0)  # retention exactly 1
