"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timing details.
"""

import dataclasses
import filecmp
import math
import os
import time
from contextlib import contextmanager

import numpy as np
from scipy import integrate

from loraeh.capacitor import build_model, cycle_voltages
from loraeh.cli import main as cli_main
from loraeh.geometry import MIN_DISTANCE_M, sample_network, sir_success, snr_success
from loraeh.hypergeom import hyp2f1_special
from loraeh.markov import steady_state
from loraeh.montecarlo import run_simulation
from loraeh.phy import AIRTIMES_S, SF_TABLE, collision_fraction


@contextmanager
def criterion(number, name):
    status = "FAIL"
    t0 = time.perf_counter()
    try:
        yield
        status = "PASS"
    finally:
        print(f"\nACCEPTANCE {number} [{name}]: {status} ({time.perf_counter() - t0:.1f} s)")


REPORTED_OUTAGE_UD = np.array([0.0, 0.0, 0.0, 0.08, 0.81, 1.00])
REPORTED_OUTAGE_WD = np.array([0.0, 0.0, 0.002, 0.22, 0.80, 1.00])


def test_criterion_1_energy_outage_headline(fig2, model):
    """Reference-parameter energy outage: UD ~8%, WD ~22%, UD < WD, under 10 s."""
    with criterion(1, "energy outage headline"):
        t0 = time.perf_counter()
        ud = steady_state(fig2.schemes["uniform"], 0.204, model, n_bins=2000)
        wd = steady_state(fig2.schemes["weibull"], 0.204, model, n_bins=2000)
        out_ud = ud.outage(fig2.phy.v_operating)
        out_wd = wd.outage(fig2.phy.v_operating)
        elapsed = time.perf_counter() - t0
        print(f"  UD outage {out_ud * 100:.2f}% (target 8±5), WD outage {out_wd * 100:.2f}% (target 22±5)")
        assert abs(out_ud - 0.08) <= 0.05
        assert abs(out_wd - 0.22) <= 0.05
        assert out_ud < out_wd
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_2_per_sf_outage_arrays(fig2, model):
    """Per-SF outage arrays within 6 points of the reported values, nondecreasing."""
    with criterion(2, "per-SF outage arrays"):
        t0 = time.perf_counter()
        results = {}
        for label in ("uniform", "weibull"):
            scheme = fig2.schemes[label]
            results[label] = np.array(
                [
                    steady_state(scheme, e.airtime_s, model, n_bins=2000).outage(fig2.phy.v_operating)
                    for e in SF_TABLE
                ]
            )
        elapsed = time.perf_counter() - t0
        for label, reference in (("uniform", REPORTED_OUTAGE_UD), ("weibull", REPORTED_OUTAGE_WD)):
            got = results[label]
            print(f"  {label}: {np.round(got * 100, 2).tolist()} % vs reported {(reference * 100).tolist()} %")
            assert np.all(np.abs(got - reference) <= 0.06)
            assert np.all(np.diff(got) >= -1e-12)  # nondecreasing in SF
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_3_sir_closed_form_vs_quadrature(fig2):
    """Interference closed form agrees with adaptive quadrature to 1e-8 relative."""
    with criterion(3, "SIR closed form vs quadrature"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2026)
        worst = 0.0
        for i in range(200):
            eta = (2.5, 3.0, 3.5, 4.0)[i % 4]
            cfg = dataclasses.replace(fig2.phy, eta=eta)
            ring = int(rng.integers(0, 6))
            lo, hi = cfg.ring_radii[ring], cfg.ring_radii[ring + 1]
            d = float(rng.uniform(max(lo, MIN_DISTANCE_M), hi))
            p = float(rng.uniform(0.0, 0.03))
            lam = float(rng.uniform(0.2, 20.0)) * 1e-6
            cfg = dataclasses.replace(cfg, density=lam)
            closed = sir_success(d, p, cfg)
            a_const = cfg.sir_threshold * d**cfg.eta
            val, _ = integrate.quad(
                lambda r: (a_const / (r**cfg.eta + a_const)) * r, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=500
            )
            oracle = math.exp(-2 * math.pi * p * lam * val)
            worst = max(worst, abs(closed - oracle) / oracle)
        elapsed = time.perf_counter() - t0
        print(f"  worst relative deviation over 200 points: {worst:.2e}")
        assert worst < 1e-8
        assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_criterion_4_hypergeometric_correctness():
    """Specialized 2F1 vs the Euler-integral oracle (1e-9) and the eta=2 identity (1e-12)."""
    with criterion(4, "hypergeometric correctness"):
        worst = 0.0
        zs = -np.logspace(-3, 4, 50)
        for eta in (2.0, 2.25, 2.5, 2.75, 3.0, 3.25, 3.5, 4.0):
            b = 2.0 / eta
            for z in zs:
                mine = hyp2f1_special(eta, float(z))
                oracle, _ = integrate.quad(
                    lambda u: 1.0 / (1.0 - float(z) * u ** (1.0 / b)), 0.0, 1.0, epsabs=1e-15, epsrel=1e-13, limit=400
                )
                worst = max(worst, abs(mine - oracle) / oracle)
        print(f"  worst relative deviation on the 400-point grid: {worst:.2e}")
        assert worst < 1e-9
        worst_log = 0.0
        for z in -np.logspace(-6, 8, 60):
            exact = -math.log1p(-z) / z
            worst_log = max(worst_log, abs(hyp2f1_special(2.0, float(z)) - exact) / exact)
        print(f"  worst eta=2 logarithm-identity deviation: {worst_log:.2e}")
        assert worst_log < 1e-12


def test_criterion_5_markov_vs_monte_carlo(fig2, model, steady_cache):
    """Stationary law vs a 1e6-cycle simulated histogram: TV < 0.02, outage within 1 point."""
    with criterion(5, "markov vs monte carlo"):
        rng = np.random.default_rng(77)
        for label in ("ud", "wd"):
            scheme = fig2.schemes["uniform" if label == "ud" else "weibull"]
            sd = steady_cache(label, 0.204)
            v0 = rng.uniform(model.v_limit_on, model.v_limit_off, 100)
            volts = cycle_voltages(v0, scheme, 0.204, 12_000, model, rng)[2000:]  # 1e6 post-transient samples
            hist, _ = np.histogram(volts.ravel(), bins=sd.bin_edges[::10])
            emp = hist / hist.sum()
            markov_coarse = sd.probabilities.reshape(200, 10).sum(axis=1)
            tv = 0.5 * np.abs(emp - markov_coarse).sum()
            mc_outage = float((volts <= fig2.phy.v_operating).mean())
            gap = abs(sd.outage(fig2.phy.v_operating) - mc_outage)
            print(f"  {label}: TV distance {tv:.4f} (< 0.02), outage gap {gap * 100:.2f} points (< 1)")
            assert tv < 0.02
            assert gap < 0.01


def test_criterion_6_adaptive_charging_schemes(fig2):
    """Voltage equalization aligns per-SF means within 1%; constant duty favors low SFs."""
    from loraeh.act import plan_cdc, plan_cve

    with criterion(6, "adaptive charging-time schemes"):
        cfg40 = dataclasses.replace(fig2.phy, capacitance=0.04)
        m40 = build_model(cfg40)
        for kind in ("uniform", "weibull"):
            cve = plan_cve(1.0, kind, cfg40, m40, n_bins=2000)
            means = np.array([sd.mean() for sd in cve.stationary])
            spread = np.abs(means[:, None] - means[None, :]).max() / (1.0 * fig2.phy.v_operating)
            print(f"  CVE {kind}: stationary means {np.round(means, 4).tolist()} (max pairwise {spread * 100:.2f}%)")
            assert spread < 0.01
        cdc_u = plan_cdc(150.0, "uniform", cfg40, m40, n_bins=2000)
        cdc_w = plan_cdc(150.0, "weibull", cfg40, m40, n_bins=2000)
        means_u = np.array([sd.mean() for sd in cdc_u.stationary])
        means_w = np.array([sd.mean() for sd in cdc_w.stationary])
        print(f"  CDC uniform means: {np.round(means_u, 4).tolist()}")
        assert np.all(np.diff(means_u) < 0)
        assert np.all(np.diff(means_w) < 0)
        std_u = np.array([sd.std() for sd in cdc_u.stationary])
        std_w = np.array([sd.std() for sd in cdc_w.stationary])
        assert np.all(std_w > std_u)
        print("  WD spread exceeds UD spread for every SF")


def test_criterion_7_network_simulator_sanity(fig2, ud, steady_cache):
    """Device counts, collision fractions, and end-to-end success vs the analytics."""
    with criterion(7, "network simulator statistical sanity"):
        t_start = time.perf_counter()
        cfg = fig2.phy

        # (a) Poisson count calibration over 1e4 seeds
        counts = np.array([sample_network(cfg, seed=s).n_devices for s in range(10_000)])
        expected_n = cfg.density * math.pi * cfg.radius**2
        rel = abs(counts.mean() - expected_n) / expected_n
        print(f"  mean device count {counts.mean():.2f} vs {expected_n:.2f} (rel {rel * 100:.3f}%, < 1%)")
        assert rel < 0.01

        # 500-device PPP realization, 1e6 simulated seconds
        lam500 = 500.0 / (math.pi * cfg.radius**2)
        cfg500 = dataclasses.replace(cfg, density=lam500)
        net = sample_network(cfg500, seed=2026, n_devices=500)
        report = run_simulation(net, cfg500, build_model(cfg500), ud, duration=1.0e6, seed=2026, overlap="full")

        # (b) collision fraction: product structure within 3 sigma of the duty quadrature
        p_hat = report.energy_avail * report.duty_mean
        for r in range(6):
            if report.attempts[r] < 100:
                continue
            tau = AIRTIMES_S[r]
            p_model = collision_fraction(report.energy_avail[r], ud, tau, variant="expected")
            second_moment, _ = integrate.quad(lambda x: ud.pdf(x) * (tau / (x + tau)) ** 2, 0, ud.b)
            duty_sd = math.sqrt(max(second_moment - (p_model / max(report.energy_avail[r], 1e-12)) ** 2, 0.0))
            sigma = report.energy_avail[r] * duty_sd / math.sqrt(report.cycles[r])
            gap = abs(p_hat[r] - p_model)
            print(f"  ring {r + 1}: p_hat {p_hat[r]:.5f} vs model {p_model:.5f} (|gap| {gap:.2e} <= 3σ {3 * sigma:.2e})")
            assert gap <= 3 * sigma

        # (c) end-to-end success probability against the analytical chain
        avail_markov = np.array([1.0 - steady_cache("ud", e.airtime_s).outage(cfg.v_operating) for e in SF_TABLE])
        mids = 0.5 * (np.asarray(cfg.ring_radii[:-1]) + np.asarray(cfg.ring_radii[1:]))
        print("  ring |   Q_hat   | bound(lo) |  ceil(hi) | Q_mid(overlap) ")
        for r in range(6):
            if report.cycles[r] == 0 or report.n_devices[r] == 0:
                continue
            dists = net.distances[net.ring == r]
            p_exact = collision_fraction(avail_markov[r], ud, AIRTIMES_S[r], variant="expected")
            lower = avail_markov[r] * np.mean(
                [snr_success(d, cfg500) * sir_success(d, p_exact, cfg500) for d in dists]
            )
            ceiling = report.energy_avail[r] * np.mean([snr_success(d, cfg500) for d in dists])
            p_overlap = collision_fraction(avail_markov[r], ud, AIRTIMES_S[r], variant="overlap")
            q_mid = avail_markov[r] * snr_success(mids[r], cfg500) * sir_success(mids[r], p_overlap, cfg500)
            q_hat = report.overall_rate[r]
            slack = max(3 * report.ci_half_width[r], 0.005)
            print(
                f"   {r + 1}   |  {q_hat:.4f}  |  {lower:.4f}  |  {ceiling:.4f}  |  {q_mid:.4f}"
            )
            # the analytical product chain is a lower bound: interference is
            # overstated (per-cycle duty expectation) and the joint success is
            # bounded below by the marginal product
            assert q_hat >= lower - slack
            assert q_hat <= ceiling + slack
            # overlap-consistent analytical value at the ring midpoint
            assert abs(q_hat - q_mid) <= 0.06
        elapsed = time.perf_counter() - t_start
        print(f"  total runtime {elapsed:.1f} s (< 300)")
        assert elapsed < 300.0


def test_criterion_8_cli_determinism(tmp_path):
    """Every subcommand produces byte-identical CSVs for identical (config, seed)."""
    with criterion(8, "CLI determinism"):
        jobs = [
            ["capacitor-trace", "--cycles", "25"],
            ["steady-state", "--bins", "300"],
            ["outage-sweep", "--bins", "300"],
            ["coverage", "--bins", "300", "--points-per-ring", "4"],
            ["act-plan", "--act", "cdc", "--theta", "150", "--bins", "300"],
            ["simulate", "--duration", "2e4", "--devices", "30"],
        ]
        for job in jobs:
            out1 = tmp_path / f"{job[0]}-a"
            out2 = tmp_path / f"{job[0]}-b"
            assert cli_main(job + ["--seed", "7", "--out", str(out1)]) == 0
            assert cli_main(job + ["--seed", "7", "--out", str(out2)]) == 0
            csvs = [f for f in os.listdir(out1) if f.endswith(".csv")]
            assert csvs
            for name in csvs:
                assert filecmp.cmp(out1 / name, out2 / name, shallow=False), f"{job[0]}/{name}"
        print("  all six subcommands byte-identical across reruns")
