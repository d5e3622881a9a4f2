import dataclasses
import re
import time

import numpy as np
import pytest

import loraeh.act
import loraeh.markov
from loraeh.act import plan_cdc, plan_cve
from loraeh.capacitor import build_model
from loraeh.cli import main
from loraeh.errors import InfeasibleError, NumericalError
from loraeh.markov import DecayFactorDistribution, steady_state
from loraeh.phy import SF_TABLE


@pytest.fixture(scope="module")
def cfg40(fig2):
    """Larger storage capacitor used for the adaptive-scheme comparisons."""
    return dataclasses.replace(fig2.phy, capacitance=0.04)


class TestCdc:
    def test_mean_charging_matches_multiplier(self, fig2):
        plan = plan_cdc(150.0, "uniform", fig2.phy, build_model(fig2.phy), n_bins=400)
        for r, entry in enumerate(SF_TABLE):
            assert plan.mean_nu[r] == pytest.approx(150.0 * entry.airtime_s, rel=1e-9)
        assert plan.schemes[3].b == pytest.approx(2 * 150.0 * 0.204, rel=1e-12)  # 61.2 s
        assert plan.mean_nu[3] == pytest.approx(30.6, rel=1e-12)

    def test_weibull_convention(self, fig2):
        plan = plan_cdc(150.0, "weibull", fig2.phy, build_model(fig2.phy), n_bins=400)
        for r, entry in enumerate(SF_TABLE):
            s = plan.schemes[r]
            assert s.k == 1.0
            assert s.w == pytest.approx(150.0 * entry.airtime_s, rel=1e-12)

    def test_duty_uniform_across_sf(self, fig2):
        plan = plan_cdc(99.0, "uniform", fig2.phy, build_model(fig2.phy), n_bins=400)
        assert np.all(np.abs(plan.duty_simple - 0.01) < 1e-12)  # exactly 1% at theta=99
        assert plan.etsi_ok.all()
        spread = plan.duty_simple.max() - plan.duty_simple.min()
        assert spread < 1e-12

    def test_low_theta_flagged(self, fig2):
        plan = plan_cdc(50.0, "uniform", fig2.phy, build_model(fig2.phy), n_bins=300)
        assert not plan.etsi_ok.any()  # duty 1/51 ~ 2%

    def test_mean_voltage_decreasing_in_sf(self, cfg40):
        for kind in ("uniform", "weibull"):
            plan = plan_cdc(150.0, kind, cfg40, build_model(cfg40), n_bins=1000)
            assert np.all(np.diff(np.array([sd.mean() for sd in plan.stationary])) < 0)

    def test_invalid_theta(self, fig2):
        with pytest.raises(InfeasibleError):
            plan_cdc(0.0, "uniform", fig2.phy, build_model(fig2.phy))

    @pytest.mark.parametrize("theta", [20.0, 1e-3])
    def test_mean_charging_time_floor(self, tmp_path, capsys, steady_state_calls, theta):
        # SF7's 36.6 ms airtime: theta 20 asks for a mean charging time of 0.73 s, below the
        # floor that the CVE plan enforces too; the plan fails before any chain is solved
        msg = r"SF7: mean charging time \d\.\d{3} s below the 1\.0 s floor"
        out = tmp_path / "f"
        assert main(["act-plan", "--act", "cdc", "--theta", str(theta), "--bins", "300", "--out", str(out)]) == 3
        assert re.search(msg, capsys.readouterr().err)
        assert not steady_state_calls
        assert not out.exists()


class TestCve:
    def test_closed_form_inversion_oracle(self, fig2, cfg40):
        # each SF's scheme must give the mean decay E[X] = t that puts the affine
        # fixed point at the target voltage; exponential: w = tau * (1 - t) / t
        for cfg in (fig2.phy, cfg40):
            m = build_model(cfg, "thevenin")
            for kind in ("uniform", "weibull"):
                plan = plan_cve(1.0, kind, cfg, m, n_bins=300)
                for r, entry in enumerate(SF_TABLE):
                    v, airtime = cfg.v_operating, entry.airtime_s
                    t = (v - m.v_after_full(airtime)) / (m.retention(airtime) * (v - m.v_limit_off))
                    scheme = plan.schemes[r]
                    if kind == "weibull":
                        w_closed = m.tau_off * (1.0 - t) / t
                        assert scheme.w == pytest.approx(w_closed, abs=1e-8 * (1 + w_closed))
                    assert abs(DecayFactorDistribution(scheme=scheme, tau_charge=m.tau_off).mean() - t) <= 1e-13

    def test_sf12_outage_converges_in_the_grid(self, fig2, model):
        # the decay law of the default SF12 plan spans only a few bins
        v_op, airtime = fig2.phy.v_operating, SF_TABLE[-1].airtime_s
        for kind in ("uniform", "weibull"):
            plan = plan_cve(1.0, kind, fig2.phy, build_model(fig2.phy), n_bins=1000)
            fine = steady_state(plan.schemes[-1], airtime, model, n_bins=4000).outage(v_op)
            assert abs(plan.predicted_outage[-1] - fine) <= 1e-3
            assert abs(steady_state(plan.schemes[-1], airtime, model, n_bins=2000).outage(v_op) - fine) <= 1e-3

    def test_coarse_grid_solves(self, cfg40):
        # 100 bins are too coarse for these chains (see the README): the SF7 chain
        # has one closed class and solves, but its mean misses the exact
        # stationary mean by about 10 bins, so the plan must raise, and fast
        msg = r"SF7: the 100-bin chain's mean voltage 2\.1378 V misses the exact stationary mean 1\.8000 V"
        start = time.perf_counter()
        with pytest.raises(NumericalError, match=msg):
            plan_cve(1.0, "weibull", cfg40, build_model(cfg40), n_bins=100)
        assert time.perf_counter() - start < 1.0

    def test_equalized_means(self, cfg40):
        plan = plan_cve(1.0, "uniform", cfg40, build_model(cfg40), n_bins=1500)
        assert np.all(np.abs(plan.predicted_mean_v - 1.8) < 1e-6)  # solver target
        means = np.array([sd.mean() for sd in plan.stationary])
        assert np.abs(means[:, None] - means[None, :]).max() / 1.8 < 0.01

    def test_charging_time_increases_with_sf(self, cfg40):
        for kind in ("uniform", "weibull"):
            plan = plan_cve(1.0, kind, cfg40, build_model(cfg40), n_bins=300)
            assert np.all(np.diff(plan.mean_nu) > 0)

    def test_target_out_of_range(self, fig2):
        with pytest.raises(InfeasibleError):
            plan_cve(1.95, "uniform", fig2.phy, build_model(fig2.phy))

    def test_infeasible_names_sf(self, fig2):
        # target mean above the post-discharge reachable set trips the first ring
        with pytest.raises(InfeasibleError) as exc:
            plan_cve(1.794, "uniform", fig2.phy, build_model(fig2.phy))
        assert "SF7" in str(exc.value)

    @pytest.mark.parametrize("kind", ["uniform", "weibull"])
    def test_mean_charging_time_floor(self, fig2, kind):
        # vartheta 0.3 asks SF7 for a mean charging time of about 0.645 s; the
        # floor tests that mean for both families (a uniform b is twice it)
        msg = r"SF7: mean charging time 0\.64\d s below the 1\.0 s floor"
        with pytest.raises(InfeasibleError, match=msg):
            plan_cve(0.3, kind, fig2.phy, build_model(fig2.phy), n_bins=300)

    def test_outage_roundtrip(self, cfg40):
        plan = plan_cve(1.0, "uniform", cfg40, build_model(cfg40), n_bins=300)
        assert np.all((plan.predicted_outage >= 0) & (plan.predicted_outage <= 1))
        assert np.all(np.isfinite([sd.std() for sd in plan.stationary]))


class TestSchemeSpread:
    def test_weibull_more_spread_than_uniform(self, cfg40):
        ud_plan = plan_cdc(150.0, "uniform", cfg40, build_model(cfg40), n_bins=1000)
        wd_plan = plan_cdc(150.0, "weibull", cfg40, build_model(cfg40), n_bins=1000)
        ud_std = np.array([sd.std() for sd in ud_plan.stationary])
        wd_std = np.array([sd.std() for sd in wd_plan.stationary])
        assert np.all(wd_std > ud_std)


@pytest.fixture
def steady_state_calls(monkeypatch):
    """Airtime of every steady-state solve, through act or through markov."""
    calls = []
    solve = loraeh.markov.steady_state

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(loraeh.act, "steady_state", counted)
    monkeypatch.setattr(loraeh.markov, "steady_state", counted)
    return calls


class TestSolves:
    @pytest.mark.parametrize("plan, target", [(plan_cdc, 150.0), (plan_cve, 1.0)], ids=["cdc", "cve"])
    def test_one_steady_state_per_sf(self, fig2, steady_state_calls, plan, target):
        result = plan(target, "uniform", fig2.phy, build_model(fig2.phy), n_bins=300)
        assert steady_state_calls == [entry.airtime_s for entry in SF_TABLE]
        assert len(result.stationary) == len(SF_TABLE)
        for r, sd in enumerate(result.stationary):
            assert sd.outage(fig2.phy.v_operating) == result.predicted_outage[r]

    def test_cli_writes_pdfs_from_the_plan(self, tmp_path, steady_state_calls):
        assert main(["act-plan", "--act", "cdc", "--bins", "300", "--out", str(tmp_path)]) == 0
        assert steady_state_calls == [entry.airtime_s for entry in SF_TABLE]
