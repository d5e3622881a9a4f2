import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import loraeh
from loraeh import markov
from loraeh.capacitor import build_model, cycle_voltages
from loraeh.cli import build_parser, main
from loraeh.errors import NumericalError
from loraeh.phy import ChargingScheme


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def column(path, name, as_float=True):
    header, rows = read_csv(path)
    i = header.index(name)
    vals = [r[i] for r in rows]
    return np.array([float(v) for v in vals]) if as_float else vals


def run(args):
    return main([str(a) for a in args])


class TestRoundTrips:
    def test_capacitor_trace(self, tmp_path, fig2):
        out = tmp_path / "trace"
        assert run(["capacitor-trace", "--cycles", 30, "--out", out, "--seed", 5]) == 0
        m = build_model(fig2.phy, "thevenin")
        for label in ("ud", "wd"):
            v = column(out / f"trace_{label}.csv", "voltage_V")
            assert v.min() >= m.v_limit_on - 1e-9 and v.max() <= m.v_limit_off + 1e-9
            phases = set(column(out / f"trace_{label}.csv", "phase", as_float=False))
            assert phases == {"charge", "tx"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "capacitor-trace"
        assert manifest["seed"] == 5

    def test_trace_zero_cycles(self, tmp_path):
        out = tmp_path / "empty"
        assert run(["capacitor-trace", "--cycles", 0, "--out", out]) == 0
        header, rows = read_csv(out / "trace_ud.csv")
        assert header == ["time_s", "voltage_V", "phase", "cycle_index"]
        assert len(rows) == 1  # initial sample only

    def test_steady_state_cdf_contract(self, tmp_path):
        out = tmp_path / "steady"
        assert run(["steady-state", "--bins", 400, "--out", out]) == 0
        for label in ("ud", "wd"):
            cdf = column(out / f"steady_{label}.csv", "cdf")
            assert np.all(np.diff(cdf) >= -1e-12)
            assert cdf[-1] == pytest.approx(1.0, abs=1e-9)
        header, rows = read_csv(out / "outage_summary.csv")
        outage = {r[0]: float(r[4]) for r in rows}
        assert outage["ud"] == pytest.approx(0.08, abs=0.05)
        assert outage["wd"] == pytest.approx(0.22, abs=0.05)
        assert outage["ud"] < outage["wd"]

    def test_outage_sweep_airtimes(self, tmp_path):
        out = tmp_path / "sweep"
        assert run(["outage-sweep", "--bins", 400, "--out", out]) == 0
        taus = column(out / "outage_sweep.csv", "airtime_s")
        assert taus.tolist() == [0.0366, 0.064, 0.113, 0.204, 0.372, 0.682]

    def test_coverage_zero_density(self, tmp_path):
        cfgfile = tmp_path / "nolambda.ini"
        cfgfile.write_text("[deployment]\ndensity_per_km2 = 0\n")
        out = tmp_path / "cov"
        assert run(["coverage", "--config", cfgfile, "--bins", 300, "--points-per-ring", 4, "--out", out]) == 0
        snr = column(out / "coverage.csv", "snr_success")
        conn = column(out / "coverage.csv", "conn_lower")
        assert np.allclose(snr, conn)  # no interferers: connection equals the noise term

    def test_simulate_report(self, tmp_path):
        out = tmp_path / "sim"
        assert run(["simulate", "--duration", 2e4, "--devices", 40, "--out", out, "--per-device"]) == 0
        header, rows = read_csv(out / "sim_report.csv")
        assert header[0] == "ring" and len(rows) == 6
        att = column(out / "sim_report.csv", "attempts")
        succ = column(out / "sim_report.csv", "successes")
        snrf = column(out / "sim_report.csv", "snr_fails")
        sirf = column(out / "sim_report.csv", "sir_fails")
        assert np.array_equal(att, succ + snrf + sirf)
        assert os.path.exists(out / "sim_devices.csv")


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["capacitor-trace", "--cycles", 20],
            ["steady-state", "--bins", 300],
            ["outage-sweep", "--bins", 300],
            ["coverage", "--bins", 300, "--points-per-ring", 4],
            ["act-plan", "--act", "cve", "--vartheta", 1.0, "--bins", 300],
            ["simulate", "--duration", 2e4, "--devices", 30],
        ],
        ids=lambda a: a[0],
    )
    def test_byte_identical_reruns(self, tmp_path, args):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--seed", 3, "--out", out1]) == 0
        assert run(args + ["--seed", 3, "--out", out2]) == 0
        for name in os.listdir(out1):
            if name.endswith(".csv"):
                assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name

    def test_parser_reuse_keeps_no_state(self, tmp_path):
        # main builds its parser once; a second subcommand must not see the first one's options
        first = ["outage-sweep", "--bins", 200, "--mode", "literal", "--scheme", "wd"]
        second = ["steady-state", "--bins", 200]
        assert run(first + ["--out", tmp_path / "a1"]) == 0
        assert run(second + ["--out", tmp_path / "a2"]) == 0
        for args, out in ((first, "b1"), (second, "b2")):
            build_parser.cache_clear()
            assert run(args + ["--out", tmp_path / out]) == 0
        assert build_parser() is build_parser()
        for a, b in (("a1", "b1"), ("a2", "b2")):
            names = sorted(p.name for p in (tmp_path / a).glob("*.csv"))
            assert names and names == sorted(p.name for p in (tmp_path / b).glob("*.csv"))
            for name in names:
                assert filecmp.cmp(tmp_path / a / name, tmp_path / b / name, shallow=False), name

    def test_seed_only_affects_stochastic_outputs(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for seed, out in ((1, out1), (2, out2)):
            assert run(["coverage", "--bins", 250, "--points-per-ring", 4, "--seed", seed, "--out", out]) == 0
        assert filecmp.cmp(out1 / "coverage.csv", out2 / "coverage.csv", shallow=False)


class TestExitCodes:
    def test_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[radio]\ntx_power_dbm = oops\n")
        assert run(["steady-state", "--config", bad, "--out", tmp_path / "x"]) == 1
        assert "tx_power_dbm" in capsys.readouterr().err

    def test_infeasible_exit(self, tmp_path, capsys):
        code = run(["act-plan", "--act", "cve", "--vartheta", 1.794, "--bins", 200, "--out", tmp_path / "y"])
        assert code == 3
        assert "SF7" in capsys.readouterr().err

    def test_unknown_key_is_config_error(self, tmp_path):
        bad = tmp_path / "unknown.ini"
        bad.write_text("[deployment]\nradius_miles = 3\n")
        assert run(["coverage", "--config", bad, "--out", tmp_path / "z"]) == 1


    def test_coverage_fine_grid(self, tmp_path):
        # the SF12 outage sums to 1 + 2e-16 on this grid; it must stay a probability
        assert run(["coverage", "--bins", 600, "--points-per-ring", 4, "--out", tmp_path / "c"]) == 0
        avail = column(tmp_path / "c" / "coverage.csv", "energy_avail")
        assert np.all((avail >= 0.0) & (avail <= 1.0))

    @pytest.mark.parametrize(
        "args",
        [
            ["--duration", "nan"],
            ["--duration", -5],
            ["--duration", 0],
            ["--devices", -1],
            ["--warmup", -1],
            ["--warmup", "nan"],
            ["--warmup", "inf"],
        ],
        ids=lambda a: " ".join(map(str, a)),
    )
    def test_simulate_bad_input(self, tmp_path, capsys, args):
        base = {"--devices": 5, "--duration": 1e3}
        base.update(zip(args[::2], args[1::2]))
        argv = ["simulate", "--out", tmp_path / "s"] + [x for kv in base.items() for x in kv]
        assert run(argv) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["steady-state", "--bins", 0],
            ["outage-sweep", "--bins", -5],
            ["coverage", "--bins", 0],
            ["act-plan", "--act", "cdc", "--bins", 0],
        ],
        ids=lambda a: " ".join(map(str, a)),
    )
    def test_bad_bins(self, tmp_path, capsys, args):
        assert run(args + ["--out", tmp_path / "b"]) == 1
        assert "--bins" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["coverage", "--bins", 100, "--points-per-ring", 0],
            ["coverage", "--bins", 100, "--points-per-ring", -1],
            ["capacitor-trace", "--cycles", -1],
            ["capacitor-trace", "--cycles", 5, "--samples-per-phase", 0],
            ["capacitor-trace", "--cycles", 5, "--samples-per-phase", -2],
        ],
        ids=lambda a: " ".join(map(str, a)),
    )
    def test_bad_grid_sizes(self, tmp_path, capsys, monkeypatch, args):
        solves = []
        solve = markov.steady_state
        monkeypatch.setattr(markov, "steady_state", lambda *a, **kw: solves.append(a) or solve(*a, **kw))
        assert run(args + ["--out", tmp_path / "g"]) == 1
        assert "config error" in capsys.readouterr().err
        assert not list((tmp_path / "g").glob("*.csv"))
        assert not solves  # rejected before any chain is solved

    def test_failed_run_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # the Weibull solve fails after the uniform one succeeded: no CSV and no manifest
        solve = markov.steady_state
        calls = []

        def second_fails(*a, **kw):
            calls.append(a)
            if len(calls) == 2:
                raise NumericalError("power iteration did not reach residual")
            return solve(*a, **kw)

        monkeypatch.setattr(markov, "steady_state", second_fails)
        out = tmp_path / "f"
        assert run(["steady-state", "--bins", 100, "--out", out]) == 2
        assert "numerical error" in capsys.readouterr().err
        assert not list(out.glob("*.csv")) and not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "ini, command",
        [
            ("[deployment]\ndensity_per_km2 = -1\n", ["simulate", "--devices", 5, "--duration", 1e3]),
            ("[deployment]\ndensity_per_km2 = -1\n", ["coverage", "--bins", 100, "--points-per-ring", 2]),
            ("[deployment]\ndensity_per_km2 = nan\n", ["coverage", "--bins", 100, "--points-per-ring", 2]),
            ("[radio]\nbandwidth_hz = 0\n", ["steady-state", "--bins", 100]),
            ("[radio]\nbandwidth_hz = 0\nnoise_dbm = -120\n", ["steady-state", "--bins", 100]),
            ("[radio]\nbandwidth_hz = inf\nnoise_dbm = -120\n", ["steady-state", "--bins", 100]),
            ("[radio]\nnoise_dbm = oops\n", ["steady-state", "--bins", 100]),
        ],
        ids=["density-simulate", "density-coverage", "density-nan", "bandwidth-0", "bandwidth-0-noise", "bandwidth-inf", "noise"],
    )
    def test_bad_radio_config(self, tmp_path, capsys, ini, command):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(ini)
        assert run(command + ["--config", cfg, "--out", tmp_path / "r"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_simulate_infinite_duration(self, tmp_path):
        src = str(Path(loraeh.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = ["simulate", "--duration", "inf", "--devices", "5", "--out", str(tmp_path / "inf")]
        proc = subprocess.run(
            [sys.executable, "-m", "loraeh.cli", *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 1
        assert "config error" in proc.stderr and "Traceback" not in proc.stderr


class TestSchemeComparison:
    def test_weibull_dips_below_threshold_more_often(self, fig2, model, ud, wd):
        rng_u = np.random.default_rng(123)
        rng_w = np.random.default_rng(123)
        vu = cycle_voltages(np.full(10, 1.8), ud, 0.204, 1000, model, rng_u)
        vw = cycle_voltages(np.full(10, 1.8), wd, 0.204, 1000, model, rng_w)
        assert (vw < 1.8).mean() > (vu < 1.8).mean()
