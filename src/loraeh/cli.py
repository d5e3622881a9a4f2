"""Command-line front end: analysis subcommands emitting CSV data files.

Every run writes its CSVs plus a manifest.json capturing the resolved
configuration and seed. Given the same config and seed the CSV bytes are
identical across runs; only the manifest timestamp differs.

Exit codes: 0 ok, 1 config error, 2 numerical error, 3 infeasible target.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from importlib.metadata import PackageNotFoundError, version

import numpy as np

from . import act as act_mod
from . import markov
from .capacitor import CycleConstants, build_model, simulate_trajectory
from .config import RunConfig, load_config
from .errors import ConfigError, InfeasibleError, NumericalError, StatisticsError
from .geometry import coverage_profile, sample_network
from .montecarlo import run_simulation
from .phy import N_RINGS, SF_TABLE

ENV_CONFIG = "LORAEH_CONFIG"


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float | np.floating):
        return format(float(x), ".10g")
    return str(x)


def _write_csv(path: str, header: list[str], rows) -> str:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


def _tool_version() -> str:
    try:
        return version("loraeh")
    except PackageNotFoundError:
        return "unknown"


def _write_manifest(out_dir: str, subcommand: str, args: argparse.Namespace, run: RunConfig, outputs: list[str]):
    manifest = {
        "tool": "loraeh",
        "version": _tool_version(),
        "subcommand": subcommand,
        "seed": args.seed,
        "config": run.raw,
        "mode": run.mode,
        "outputs": [os.path.basename(p) for p in outputs],
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load(args: argparse.Namespace) -> RunConfig:
    if getattr(args, "bins", 1) < 1:
        raise ConfigError(f"--bins must be at least 1, got {args.bins}")
    path = args.config or os.environ.get(ENV_CONFIG) or None
    overrides = {}
    if args.mode:
        overrides["capacitor.mode"] = args.mode
    if args.scheme:
        overrides["scheme.kind"] = {"ud": "uniform", "wd": "weibull"}[args.scheme]
    return load_config(path, overrides)


def _scheme_pair(run: RunConfig):
    """(label, scheme) pairs for the uniform/weibull outputs."""
    return [("ud", run.scheme_by_kind("uniform")), ("wd", run.scheme_by_kind("weibull"))]


def cmd_capacitor_trace(args) -> int:
    run = _load(args)
    model = build_model(run.phy, run.mode)
    ring = args.ring - 1
    airtime = SF_TABLE[ring].airtime_s
    outputs = []
    for label, scheme in _scheme_pair(run):
        traj = simulate_trajectory(
            run.v_initial, scheme, airtime, args.cycles, model, seed=args.seed, samples_per_phase=args.samples_per_phase
        )
        rows = zip(traj.times, traj.voltages, traj.phases, traj.cycle_index)
        outputs.append(
            _write_csv(
                os.path.join(args.out, f"trace_{label}.csv"),
                ["time_s", "voltage_V", "phase", "cycle_index"],
                rows,
            )
        )
    _write_manifest(args.out, "capacitor-trace", args, run, outputs)
    return 0


def cmd_steady_state(args) -> int:
    run = _load(args)
    if args.bins < 100:
        print(f"warning: {args.bins} bins is a coarse voltage grid; expect visible discretization", file=sys.stderr)
    model = build_model(run.phy, run.mode)
    ring = args.ring - 1
    airtime = SF_TABLE[ring].airtime_s
    outputs = []
    summary_rows = []
    conv_rows = []
    for label, scheme in _scheme_pair(run):
        sd = markov.steady_state(scheme, airtime, model, n_bins=args.bins)
        centers, dens = markov.stationary_pdf(sd)
        cdf = np.cumsum(sd.probabilities)
        outputs.append(
            _write_csv(
                os.path.join(args.out, f"steady_{label}.csv"),
                ["voltage_V", "pdf", "cdf"],
                zip(centers, dens, cdf),
            )
        )
        outage = sd.outage(run.phy.v_operating)
        summary_rows.append([label, args.bins, sd.mean(), sd.std(), outage])
        sd2 = markov.steady_state(scheme, airtime, model, n_bins=2 * args.bins)
        conv_rows.append([label, args.bins, outage])
        conv_rows.append([label, 2 * args.bins, sd2.outage(run.phy.v_operating)])
        print(f"{label}: energy outage at {run.phy.v_operating} V = {outage * 100:.2f}%")
    outputs.append(
        _write_csv(
            os.path.join(args.out, "outage_summary.csv"),
            ["scheme", "bins", "mean_V", "std_V", "outage"],
            summary_rows,
        )
    )
    outputs.append(
        _write_csv(os.path.join(args.out, "convergence.csv"), ["scheme", "bins", "outage"], conv_rows)
    )
    _write_manifest(args.out, "steady-state", args, run, outputs)
    return 0


def cmd_outage_sweep(args) -> int:
    run = _load(args)
    model = build_model(run.phy, run.mode)
    rows = []
    for entry in SF_TABLE:
        row = [entry.sf, entry.airtime_s]
        for _, scheme in _scheme_pair(run):
            sd = markov.steady_state(scheme, entry.airtime_s, model, n_bins=args.bins)
            row.append(sd.outage(run.phy.v_operating))
        rows.append(row)
    out = _write_csv(
        os.path.join(args.out, "outage_sweep.csv"), ["sf", "airtime_s", "outage_ud", "outage_wd"], rows
    )
    _write_manifest(args.out, "outage-sweep", args, run, [out])
    return 0


def cmd_coverage(args) -> int:
    run = _load(args)
    model = build_model(run.phy, run.mode)
    avail = np.empty(N_RINGS)
    for r, entry in enumerate(SF_TABLE):
        sd = markov.steady_state(run.scheme, entry.airtime_s, model, n_bins=args.bins)
        avail[r] = 1.0 - sd.outage(run.phy.v_operating)
    profile = coverage_profile(
        run.phy,
        run.scheme,
        avail,
        points_per_ring=args.points_per_ring,
        collision_variant=args.collision_variant,
    )
    rows = zip(
        profile.distances / 1e3,
        [SF_TABLE[r].sf for r in profile.ring],
        profile.snr_success,
        profile.sir_success,
        profile.conn_lower,
        profile.energy_avail,
        profile.overall,
    )
    out = _write_csv(
        os.path.join(args.out, "coverage.csv"),
        ["distance_km", "sf", "snr_success", "sir_success", "conn_lower", "energy_avail", "overall_Q"],
        rows,
    )
    _write_manifest(args.out, "coverage", args, run, [out])
    return 0


def cmd_act_plan(args) -> int:
    run = _load(args)
    dist_kind = {"ud": "uniform", "wd": "weibull"}[args.scheme or ("ud" if run.scheme.kind == "uniform" else "wd")]
    if args.act == "cdc":
        plan = act_mod.plan_cdc(args.theta, dist_kind, run.phy, mode=run.mode, n_bins=args.bins)
    else:
        plan = act_mod.plan_cve(args.vartheta, dist_kind, run.phy, mode=run.mode, n_bins=args.bins)
    rows = []
    for r, entry in enumerate(SF_TABLE):
        s = plan.schemes[r]
        p1, p2 = (s.a, s.b) if s.kind == "uniform" else (s.k, s.w)
        rows.append(
            [entry.sf, s.kind, p1, p2, plan.mean_nu[r], plan.duty_simple[r], plan.predicted_mean_v[r], plan.predicted_outage[r]]
        )
    outputs = [
        _write_csv(
            os.path.join(args.out, "act_plan.csv"),
            ["sf", "dist_kind", "param_a_or_k", "param_b_or_w", "mean_nu_s", "duty_cycle", "predicted_mean_V", "predicted_outage"],
            rows,
        )
    ]
    pdf_rows = []
    for entry, sd in zip(SF_TABLE, plan.stationary):
        centers, dens = markov.stationary_pdf(sd)
        keep = dens > 0
        pdf_rows.extend([entry.sf, c, d] for c, d in zip(centers[keep], dens[keep]))
    outputs.append(_write_csv(os.path.join(args.out, "act_pdfs.csv"), ["sf", "voltage_V", "pdf"], pdf_rows))
    _write_manifest(args.out, "act-plan", args, run, outputs)
    if not plan.etsi_ok.all():
        bad = [SF_TABLE[r].sf for r in range(N_RINGS) if not plan.etsi_ok[r]]
        print(f"warning: duty cycle above the 1% ETSI cap for SF {bad}", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    run = _load(args)
    net = sample_network(run.phy, seed=args.seed, n_devices=args.devices)
    report = run_simulation(
        net,
        run.phy,
        run.scheme,
        duration=args.duration,
        seed=args.seed,
        mode=run.mode,
        overlap=args.overlap,
        warmup=args.warmup,
    )
    rows = []
    for r in range(N_RINGS):
        rows.append(
            [
                r + 1,
                report.attempts[r],
                report.energy_skips[r],
                report.energy_aborts[r],
                report.snr_fails[r],
                report.sir_fails[r],
                report.successes[r],
                report.energy_avail[r],
                report.conn_rate[r],
                report.overall_rate[r],
                report.ci_half_width[r],
            ]
        )
    outputs = [
        _write_csv(
            os.path.join(args.out, "sim_report.csv"),
            [
                "ring",
                "attempts",
                "energy_skips",
                "energy_aborts",
                "snr_fails",
                "sir_fails",
                "successes",
                "E_hat",
                "C_hat",
                "Q_hat",
                "ci_half_width",
            ],
            rows,
        )
    ]
    if args.per_device:
        dv = report.devices
        rows = zip(
            range(dv.ring.size),
            dv.ring + 1,
            dv.distance / 1e3,
            dv.cycles,
            dv.energy_skips,
            dv.energy_aborts,
            dv.attempts,
            dv.snr_fails,
            dv.sir_fails,
            dv.successes,
        )
        outputs.append(
            _write_csv(
                os.path.join(args.out, "sim_devices.csv"),
                ["device", "ring", "distance_km", "cycles", "energy_skips", "energy_aborts", "attempts", "snr_fails", "sir_fails", "successes"],
                rows,
            )
        )
    _write_manifest(args.out, "simulate", args, run, outputs)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by later `main` calls."""
    parser = argparse.ArgumentParser(prog="loraeh", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help=f"config file (INI); falls back to ${ENV_CONFIG}")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--mode", choices=["thevenin", "literal"], help="capacitor model override")
    common.add_argument("--scheme", choices=["ud", "wd"], help="charging scheme override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacitor-trace", parents=[common], help="voltage trajectory CSVs for both schemes")
    p.add_argument("--cycles", type=int, default=100)
    p.add_argument("--ring", type=int, default=4, choices=range(1, 7), help="SF ring for the airtime")
    p.add_argument("--samples-per-phase", type=int, default=20)
    p.set_defaults(func=cmd_capacitor_trace)

    p = sub.add_parser("steady-state", parents=[common], help="stationary voltage pdf/cdf and outage")
    p.add_argument("--bins", type=int, default=markov.DEFAULT_BINS)
    p.add_argument("--ring", type=int, default=4, choices=range(1, 7))
    p.set_defaults(func=cmd_steady_state)

    p = sub.add_parser("outage-sweep", parents=[common], help="energy outage per spreading factor")
    p.add_argument("--bins", type=int, default=markov.DEFAULT_BINS)
    p.set_defaults(func=cmd_outage_sweep)

    p = sub.add_parser("coverage", parents=[common], help="distance-resolved uplink success columns")
    p.add_argument("--bins", type=int, default=markov.DEFAULT_BINS)
    p.add_argument("--points-per-ring", type=int, default=40)
    p.add_argument(
        "--collision-variant",
        choices=["expected", "simple", "overlap"],
        default="expected",
        help="duty figure entering the co-SF transmitting fraction",
    )
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("act-plan", parents=[common], help="adaptive charging-time plan per SF")
    p.add_argument("--act", choices=["cdc", "cve"], required=True)
    p.add_argument("--theta", type=float, default=150.0, help="duty multiplier for cdc")
    p.add_argument("--vartheta", type=float, default=1.0, help="mean-voltage multiplier for cve")
    p.add_argument("--bins", type=int, default=markov.DEFAULT_BINS)
    p.set_defaults(func=cmd_act_plan)

    p = sub.add_parser("simulate", parents=[common], help="event-driven network simulation report")
    p.add_argument("--duration", type=float, default=1e5, help="simulated seconds")
    p.add_argument("--devices", type=int, default=None, help="pin the device count (default: Poisson)")
    p.add_argument("--overlap", choices=["full", "fractional"], default="full")
    p.add_argument("--warmup", type=float, default=None)
    p.add_argument("--per-device", action="store_true")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        os.makedirs(args.out, exist_ok=True)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, StatisticsError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
