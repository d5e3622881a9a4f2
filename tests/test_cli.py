import argparse
import contextlib
import dataclasses
import filecmp
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loraeh
from loraeh import markov
from loraeh.capacitor import build_model, cycle_voltages
from loraeh.cli import build_parser, main
from loraeh.config import DEFAULTS
from loraeh.errors import NumericalError


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


STEADY = ["steady-state", "--bins", 100]
COVERAGE = ["coverage", "--bins", 100, "--points-per-ring", 2]
SIMULATE = ["simulate", "--devices", 20, "--duration", 2e3]
SIMULATE_SMALL = ["simulate", "--devices", 5, "--duration", 1e3]


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

    def test_manifest_version_is_the_package_version(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+; the package supports 3.10
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            declared = tomllib.load(fh)["project"]["version"]
        assert run(["capacitor-trace", "--cycles", 2, "--out", tmp_path / "v"]) == 0
        manifest = json.loads((tmp_path / "v" / "manifest.json").read_text())
        assert manifest["version"] == loraeh.__version__ == declared

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

    def test_coverage_energy_avail_full_precision(self, tmp_path, fig2, ud):
        # at 40 mF the SF12 outage is 1 - 1e-7, so 1 - outage would keep only 9 digits
        cfgfile = tmp_path / "40mF.ini"
        cfgfile.write_text("[capacitor]\ncapacitance_f = 0.04\n")
        out = tmp_path / "cov"
        assert run(["coverage", "--config", cfgfile, "--bins", 300, "--points-per-ring", 1, "--out", out]) == 0
        m = build_model(dataclasses.replace(fig2.phy, capacitance=0.04), "thevenin")
        avail = markov.steady_state(ud, 0.682, m, n_bins=300).availability(fig2.phy.v_operating)
        assert column(out / "coverage.csv", "energy_avail", as_float=False)[-1] == format(avail, ".10g")

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


    def test_simulate_empty_network(self, tmp_path):
        # no devices take the simulator's common path: six all-zero rings and no device rows
        out = tmp_path / "empty"
        assert run(["simulate", "--devices", 0, "--per-device", "--out", out]) == 0
        header, rows = read_csv(out / "sim_report.csv")
        assert [r[0] for r in rows] == ["1", "2", "3", "4", "5", "6"]
        assert all(cell == "0" for r in rows for cell in r[1:])
        header, rows = read_csv(out / "sim_devices.csv")
        assert header[0] == "device" and rows == []


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
        assert not (tmp_path / "x").exists()

    def test_infeasible_exit(self, tmp_path, capsys):
        code = run(["act-plan", "--act", "cve", "--vartheta", 1.794, "--bins", 200, "--out", tmp_path / "y"])
        assert code == 3
        assert "SF7" in capsys.readouterr().err
        assert not (tmp_path / "y").exists()

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
            ["--warmup", 1e3],
            ["--warmup", 5e3],
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
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["steady-state", "--ring", 9],
            ["steady-state", "--bins", "abc"],
            ["simulate", "--overlap", "none"],
        ],
        ids=lambda a: " ".join(map(str, a)),
    )
    def test_usage_error_is_config_error(self, tmp_path, capsys, args):
        # argparse's own rejections exit 1 like every other bad input, with its message kept
        assert run(args + ["--out", tmp_path / "u"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: loraeh") and "error: argument" in err and "Traceback" not in err
        assert not (tmp_path / "u").exists()

    @pytest.mark.parametrize(
        "act, flag, value",
        [("cdc", "theta", "nan"), ("cdc", "theta", "inf"), ("cve", "vartheta", "nan"), ("cve", "vartheta", "inf")],
    )
    def test_non_finite_multiplier(self, tmp_path, capsys, act, flag, value):
        out = tmp_path / "m"
        assert run(["act-plan", "--act", act, f"--{flag}", value, "--bins", 100, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"multiplier {flag} must be finite, got {value}" in err
        assert not out.exists()

    @pytest.mark.parametrize("k, code", [(0.2, 0), (0.05, 2)])
    def test_small_weibull_shape(self, tmp_path, capsys, recwarn, k, code):
        # k = 0.2 converges once the quadrature splits at w; k = 0.05 still does not, and says so in one line
        cfg = tmp_path / "k.ini"
        cfg.write_text(f"[scheme]\nkind = weibull\nk = {k}\nw_s = 50\n")
        assert run([*COVERAGE, "--scheme", "wd", "--config", cfg, "--out", tmp_path / "c"]) == code
        err = capsys.readouterr().err
        assert not recwarn.list  # nothing reaches the warnings channel, so nothing else is printed
        if code:
            assert err.startswith("numerical error: weibull charging-time quadrature") and err.count("\n") == 1
        else:
            assert err == ""

    def test_trace_clock_overflow(self, tmp_path, capsys):
        cfg = tmp_path / "huge.ini"
        cfg.write_text("[scheme]\nb_s = 1e308\n")
        out = tmp_path / "t"
        assert run(["capacitor-trace", "--config", cfg, "--out", out]) == 2
        assert "numerical error: the trajectory's clock overflows a float" in capsys.readouterr().err
        assert not out.exists()

    def test_cdc_above_the_etsi_cap_warns(self, tmp_path, capsys):
        # theta 50 gives every SF a duty cycle of 1/51, about 2%
        out = tmp_path / "w"
        assert run(["act-plan", "--act", "cdc", "--theta", 50, "--bins", 300, "--out", out]) == 0
        assert "warning: duty cycle above the 1% ETSI cap for SF [7, 8, 9, 10, 11, 12]" in capsys.readouterr().err
        assert (out / "act_plan.csv").is_file()

    def test_help_exits_0(self, tmp_path, capsys):
        assert run(["steady-state", "--help", "--out", tmp_path / "h"]) == 0
        assert "--bins" in capsys.readouterr().out
        assert not (tmp_path / "h").exists()

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

    @pytest.mark.parametrize("size", [2**59 - 1, 10**18, 10**20], ids=["2**59-1", "10**18", "10**20"])
    @pytest.mark.parametrize(
        "args",
        [
            ["capacitor-trace", "--cycles"],
            ["capacitor-trace", "--samples-per-phase"],
            ["simulate", "--devices"],
            ["coverage", "--bins", 100, "--points-per-ring"],
            ["steady-state", "--bins"],
        ],
        ids=lambda a: a[-1],
    )
    def test_size_too_large_to_allocate(self, tmp_path, capsys, args, size):
        # each size is rejected up front or asks for exbibytes, beyond any address space,
        # so the allocation fails before any memory is touched
        out = tmp_path / "big"
        assert run(args + [size, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [["capacitor-trace"], STEADY, ["outage-sweep", "--bins", 100], COVERAGE, ["act-plan", "--act", "cdc"], SIMULATE],
        ids=lambda a: a[0],
    )
    def test_negative_seed(self, tmp_path, capsys, args):
        out = tmp_path / "n"
        assert run(args + ["--seed", -1, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "config error: --seed" in err and "Traceback" not in err
        assert not out.exists(), "nothing is written"

    @pytest.mark.parametrize("under", [False, True], ids=["existing-file", "path-under-a-file"])
    def test_out_cannot_be_a_directory(self, tmp_path, capsys, under):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out = blocker / "sub" if under else blocker
        assert run(["capacitor-trace", "--cycles", 2, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "config error: --out" in err and "Traceback" not in err
        assert blocker.read_text() == "not a directory\n"

    def test_failed_run_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # the Weibull solve fails after the uniform one succeeded: no CSV and no manifest
        solve = markov.steady_state
        calls = []

        def second_fails(*a, **kw):
            calls.append(a)
            if len(calls) == 2:
                raise NumericalError("the stationary law misses its residual")
            return solve(*a, **kw)

        monkeypatch.setattr(markov, "steady_state", second_fails)
        out = tmp_path / "f"
        assert run(["steady-state", "--bins", 100, "--out", out]) == 2
        assert "numerical error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "ini, command",
        [
            pytest.param("[deployment]\ndensity_per_km2 = -1\n", SIMULATE_SMALL, id="density-simulate"),
            pytest.param("[deployment]\ndensity_per_km2 = -1\n", COVERAGE, id="density-coverage"),
            pytest.param("[deployment]\ndensity_per_km2 = nan\n", COVERAGE, id="density-nan"),
            pytest.param("[radio]\nbandwidth_hz = 0\n", STEADY, id="bandwidth-0"),
            pytest.param("[radio]\nbandwidth_hz = 0\nnoise_dbm = -120\n", STEADY, id="bandwidth-0-noise"),
            pytest.param("[radio]\nbandwidth_hz = inf\nnoise_dbm = -120\n", STEADY, id="bandwidth-inf"),
            pytest.param("[radio]\nnoise_dbm = oops\n", STEADY, id="noise"),
            # non-finite or non-positive physics and scheme values
            pytest.param("[deployment]\nwavelength_cm = -34.5\n", COVERAGE, id="wavelength-negative"),
            pytest.param("[deployment]\nwavelength_cm = nan\n", COVERAGE, id="wavelength-nan"),
            pytest.param("[radio]\ntx_power_dbm = nan\n", COVERAGE, id="tx-power-nan"),
            pytest.param("[radio]\nnoise_figure_db = nan\n", COVERAGE, id="noise-figure-nan"),
            pytest.param("[deployment]\npath_loss_exponent = nan\n", COVERAGE, id="eta-nan"),
            pytest.param("[radio]\nsir_threshold_db = nan\n", COVERAGE, id="sir-nan"),
            pytest.param("[deployment]\nradius_km = 0\n", COVERAGE, id="radius-0"),
            pytest.param("[deployment]\nring_radii_km = 0,1,nan,3,4,5,6\n", COVERAGE, id="ring-radius-nan"),
            pytest.param("[deployment]\npath_loss_exponent = nan\n", SIMULATE, id="eta-nan-simulate"),
            pytest.param("[radio]\nsir_threshold_db = nan\n", SIMULATE, id="sir-nan-simulate"),
            pytest.param("[radio]\ntx_power_dbm = nan\n", SIMULATE, id="tx-power-nan-simulate"),
            pytest.param("[radio]\nnoise_dbm = nan\n", SIMULATE, id="noise-nan-simulate"),
            pytest.param("[deployment]\nwavelength_cm = 0\n", SIMULATE, id="wavelength-0-simulate"),
            pytest.param("[deployment]\nradius_km = 0\n", SIMULATE, id="radius-0-simulate"),
            pytest.param("[scheme]\nb_s = inf\n", SIMULATE, id="scheme-b-inf"),
            # an explicit warm-up, so the scheme check and not the warm-up check rejects it
            pytest.param("[scheme]\nkind = weibull\nk = nan\n", SIMULATE + ["--warmup", 100], id="scheme-k-nan"),
            # the family kind does not name is checked too
            pytest.param("[scheme]\nk = nan\n", SIMULATE_SMALL, id="other-scheme-k-nan-simulate"),
            pytest.param("[scheme]\nk = nan\n", ["act-plan", "--act", "cdc", "--bins", 100], id="other-scheme-k-nan-cdc"),
            # powers too large or too small for the physics
            pytest.param("[radio]\ntx_power_dbm = 1e308\n", COVERAGE, id="tx-power-overflow"),
            pytest.param("[radio]\ntx_power_dbm = -inf\n", COVERAGE, id="tx-power-zero"),
            pytest.param("[radio]\nsir_threshold_db = -inf\n", COVERAGE, id="sir-zero"),
            pytest.param("[radio]\nnoise_figure_db = 1e308\n", STEADY, id="noise-figure-overflow"),
            pytest.param("[harvester]\nvoltage_v = 1e308\n", STEADY, id="harvester-resistance-overflow"),
            pytest.param("[capacitor]\nr_off_ohm = 1e308\n", STEADY, id="tau-off-overflow"),
            pytest.param("[deployment]\nwavelength_cm = 1e308\n", SIMULATE_SMALL, id="path-gain-overflow"),
            # malformed files, and harvester and capacitor values
            pytest.param("voltage_v = 3.3\n", STEADY, id="no-section-header"),
            pytest.param("[harvester]\nvoltage_v\n", STEADY, id="key-without-value"),
            pytest.param("[harvester]\npower_w = 0\n", STEADY, id="harvest-power-0"),
            pytest.param("[capacitor]\nv_initial_v = inf\n", ["capacitor-trace", "--cycles", 5], id="v-initial-inf"),
            pytest.param("[capacitor]\nmode = norton\n", STEADY, id="mode-unknown"),
        ],
    )
    def test_bad_radio_config(self, tmp_path, capsys, ini, command):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(ini)
        out = tmp_path / "r"
        assert run(command + ["--config", cfg, "--out", out]) == 1
        assert "config error" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_grid_too_coarse_for_one_cycle(self, tmp_path, capsys):
        # at 40 mF one cycle moves the voltage by less than a 12 mV bin: the
        # uniform SF7 chain splits into 12 closed classes and has no unique law
        cfg = tmp_path / "40mF.ini"
        cfg.write_text("[capacitor]\ncapacitance_f = 0.04\n")
        out = tmp_path / "coarse"
        assert run(["act-plan", "--act", "cve", "--bins", 100, "--config", cfg, "--out", out]) == 2
        assert "12 closed classes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bins, code", [(100, 2), (200, 2), (300, 0)])
    def test_grid_too_coarse_for_the_exact_mean(self, tmp_path, capsys, bins, code):
        # each Weibull chain has one closed class, but at 100 and 200 bins the
        # SF7 chain's mean lies more than one bin from the exact stationary mean
        cfg = tmp_path / "40mF.ini"
        cfg.write_text("[capacitor]\ncapacitance_f = 0.04\n")
        out = tmp_path / "coarse"
        args = ["act-plan", "--act", "cve", "--scheme", "wd", "--bins", bins, "--config", cfg, "--out", out]
        assert run(args) == code
        if code:
            assert f"numerical error: SF7: the {bins}-bin chain's mean voltage" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert (out / "act_plan.csv").is_file() and (out / "manifest.json").is_file()

    def test_simulate_infinite_duration(self, tmp_path):
        src = str(Path(loraeh.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = ["simulate", "--duration", "inf", "--devices", "5", "--out", str(tmp_path / "inf")]
        proc = subprocess.run(
            [sys.executable, "-m", "loraeh.cli", *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 1
        assert "config error" in proc.stderr and "Traceback" not in proc.stderr


BAD_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e308", "oops", "")
TEXT_VALUES = {
    ("radio", "noise_dbm"): ("", "-120", "200"),
    ("deployment", "ring_radii_km"): ("", "0,1,2,3,4,5,6", "0,1,2", "0,2,1,3,4,5,6"),
    ("capacitor", "mode"): ("thevenin", "literal", "norton"),
    ("scheme", "kind"): ("uniform", "weibull", "ud", "wd", "gamma"),
}


def ini_value(section, key):
    """A value for one INI key: a bad token, or the default scaled by 10^-3 .. 10^3."""
    if (section, key) in TEXT_VALUES:
        return st.sampled_from(TEXT_VALUES[section, key] + BAD_VALUES)
    default = float(DEFAULTS[section][key])
    return st.one_of(st.sampled_from(BAD_VALUES), st.floats(-3.0, 3.0).map(lambda e: f"{default * 10.0**e:.6g}"))


@st.composite
def ini_files(draw):
    keys = draw(st.lists(st.sampled_from([(s, k) for s in DEFAULTS for k in DEFAULTS[s]]), max_size=4, unique=True))
    lines = {}
    for section, key in keys:
        lines.setdefault(section, []).append(f"{key} = {draw(ini_value(section, key))}")
    return "".join(f"[{section}]\n" + "\n".join(body) + "\n" for section, body in lines.items())


class TestFuzz:
    @settings(max_examples=30)
    @given(
        ini=ini_files(),
        command=st.sampled_from(
            [
                ["steady-state"],
                ["outage-sweep"],
                ["coverage", "--points-per-ring", 2],
                ["act-plan", "--act", "cdc"],
                ["act-plan", "--act", "cve"],
                SIMULATE_SMALL,
                ["capacitor-trace", "--cycles", 20],
            ]
        ),
        bins=st.integers(20, 200),
    )
    def test_random_config_ends_in_a_documented_exit(self, ini, command, bins):
        # an exception out of main would be a traceback on the command line
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "fuzz.ini"
            cfg.write_text(ini)
            bins_arg = ["--bins", bins] if command[0] not in ("simulate", "capacitor-trace") else []
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run(command + bins_arg + ["--config", cfg, "--out", Path(tmp) / "out"])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()


class TestFlags:
    def test_every_flag_is_set_by_some_test(self):
        # a flag that no test names is a knob that no run is known to reach
        text = "".join(path.read_text() for path in Path(__file__).parent.glob("*.py"))
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        unset = [
            (command, flag)
            for command, parser in sub.choices.items()
            for action in parser._actions
            for flag in action.option_strings
            if flag.startswith("--") and f'"{flag}"' not in text and f"'{flag}'" not in text
        ]
        assert not unset


class TestOneModel:
    @pytest.mark.parametrize(
        "args",
        [["act-plan", "--act", "cdc", "--bins", 100], ["act-plan", "--act", "cve", "--bins", 100], SIMULATE_SMALL],
        ids=["cdc", "cve", "simulate"],
    )
    def test_main_builds_the_model_once(self, tmp_path, monkeypatch, args):
        calls = []
        build = loraeh.capacitor.build_model

        def counted(*a, **kw):
            calls.append(a)
            return build(*a, **kw)

        # every module binding of build_model, so a library-side rebuild counts too
        for name, module in list(sys.modules.items()):
            if name.startswith("loraeh") and getattr(module, "build_model", None) is build:
                monkeypatch.setattr(module, "build_model", counted)
        assert run(args + ["--out", tmp_path]) == 0
        assert len(calls) == 1


class TestSchemeComparison:
    def test_weibull_dips_below_threshold_more_often(self, fig2, model, ud, wd):
        rng_u = np.random.default_rng(123)
        rng_w = np.random.default_rng(123)
        vu = cycle_voltages(np.full(10, 1.8), ud, 0.204, 1000, model, rng_u)
        vw = cycle_voltages(np.full(10, 1.8), wd, 0.204, 1000, model, rng_w)
        assert (vw < 1.8).mean() > (vu < 1.8).mean()
