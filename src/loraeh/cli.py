"""Command-line front end: analysis subcommands emitting CSV data files.

Every run writes its CSVs plus a manifest.json capturing the resolved
configuration and seed. Given the same config and seed the CSV bytes are
identical across runs; only the manifest timestamp differs.

Exit codes: 0 ok, 1 config error (a flag argparse rejects and a size too
large to allocate included), 2 numerical error, 3 infeasible target.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .capacitor import DEFAULT_BINS, CapacitorModel, build_model, simulate_trajectory
from .config import RunConfig, load_config
from .errors import ConfigError, InfeasibleError, NumericalError
from .geometry import coverage_profile, sample_network
from .montecarlo import COUNTERS, run_simulation
from .phy import AIRTIMES_S, N_RINGS, SF_TABLE

ENV_CONFIG = "LORAEH_CONFIG"
_BLOCK_ROWS = 4096  # rows formatted per write: bounds the text held at once
_SFS = np.array([e.sf for e in SF_TABLE])
# numpy's byte sizes are int64: 2**60 8-byte values (or a length rounded up to it) is a
# ValueError, while every size below 2**59 can at most fail to allocate (MemoryError)
_MAX_SIZE = 2**59


def _column_text(values: np.ndarray) -> list[str]:
    """Cells of one column, formatted once by its dtype: floats %.10g, booleans
    1/0, integers in decimal and strings verbatim."""
    kind = values.dtype.kind
    if kind == "f":
        return list(map("%.10g".__mod__, values.tolist()))  # the same text as format(x, ".10g"), faster
    if kind == "b":
        return ["1" if x else "0" for x in values.tolist()]
    return list(map(str, values.tolist()))


def _write_csv(path: str, columns: dict) -> None:
    """Write {header: column} as CSV; columns are equal-length arrays or sequences."""
    arrays = [np.asarray(c) for c in columns.values()]
    n_rows = len(arrays[0]) if arrays else 0
    if any(len(a) != n_rows for a in arrays):
        raise ValueError(f"columns of {path} differ in length: {[len(a) for a in arrays]}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for lo in range(0, n_rows, _BLOCK_ROWS):
            writer.writerows(zip(*(_column_text(a[lo : lo + _BLOCK_ROWS]) for a in arrays)))


def _write_manifest(args: argparse.Namespace, run: RunConfig, outputs: list[str]):
    manifest = {
        "tool": "loraeh",
        "version": __version__,
        "subcommand": args.command,
        "seed": args.seed,
        "config": run.raw,
        "mode": run.mode,
        "outputs": outputs,
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load(args: argparse.Namespace) -> RunConfig:
    for name in ("bins", "points_per_ring", "cycles", "samples_per_phase", "devices"):
        value = getattr(args, name, None)
        if value is not None and value >= _MAX_SIZE:
            raise ConfigError(f"--{name.replace('_', '-')} must be below 2**59, got {value}")
    if getattr(args, "bins", 1) < 1:
        raise ConfigError(f"--bins must be at least 1, got {args.bins}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    if getattr(args, "points_per_ring", 1) < 1:
        raise ConfigError(f"--points-per-ring must be at least 1, got {args.points_per_ring}")
    path = args.config or os.environ.get(ENV_CONFIG) or None
    overrides = {}
    if args.mode:
        overrides["capacitor.mode"] = args.mode
    if args.scheme:
        overrides["scheme.kind"] = args.scheme  # load_config reads ud/wd as uniform/weibull
    return load_config(path, overrides)


def _scheme_pair(run: RunConfig):
    """(label, scheme) pairs for the uniform/weibull outputs."""
    return [("ud", run.schemes["uniform"]), ("wd", run.schemes["weibull"])]


# Each cmd_* computes its subcommand's outputs as {csv name: {header: column}},
# in the order the manifest lists them; main writes them.
# The chain's subcommands import markov and act in their bodies, so a run
# that solves no chain loads no scipy.


def cmd_capacitor_trace(args, run: RunConfig, model: CapacitorModel) -> dict:
    airtime = SF_TABLE[args.ring - 1].airtime_s
    tables = {}
    for label, scheme in _scheme_pair(run):
        traj = simulate_trajectory(
            run.v_initial, scheme, airtime, args.cycles, model, seed=args.seed, samples_per_phase=args.samples_per_phase
        )
        tables[f"trace_{label}.csv"] = {
            "time_s": traj.times,
            "voltage_V": traj.voltages,
            "phase": traj.phases,
            "cycle_index": traj.cycle_index,
        }
    return tables


def cmd_steady_state(args, run: RunConfig, model: CapacitorModel) -> dict:
    from . import markov

    if args.bins < 100:
        print(f"warning: {args.bins} bins is a coarse voltage grid; expect visible discretization", file=sys.stderr)
    airtime = SF_TABLE[args.ring - 1].airtime_s
    tables = {}
    summary = {"scheme": [], "bins": [], "mean_V": [], "std_V": [], "outage": []}
    conv = {"scheme": [], "bins": [], "outage": []}
    for label, scheme in _scheme_pair(run):
        sd = markov.steady_state(scheme, airtime, model, n_bins=args.bins)
        centers, dens = markov.stationary_pdf(sd)
        tables[f"steady_{label}.csv"] = {"voltage_V": centers, "pdf": dens, "cdf": np.cumsum(sd.probabilities)}
        outage = sd.outage(run.phy.v_operating)
        for column, value in zip(summary.values(), (label, args.bins, sd.mean(), sd.std(), outage)):
            column.append(value)
        sd2 = markov.steady_state(scheme, airtime, model, n_bins=2 * args.bins)
        conv["scheme"] += [label, label]
        conv["bins"] += [args.bins, 2 * args.bins]
        conv["outage"] += [outage, sd2.outage(run.phy.v_operating)]
        print(f"{label}: energy outage at {run.phy.v_operating} V = {outage * 100:.2f}%")
    tables["outage_summary.csv"] = summary
    tables["convergence.csv"] = conv
    return tables


def cmd_outage_sweep(args, run: RunConfig, model: CapacitorModel) -> dict:
    from . import markov

    columns = {"sf": _SFS, "airtime_s": AIRTIMES_S}
    for label, scheme in _scheme_pair(run):
        columns[f"outage_{label}"] = [
            markov.steady_state(scheme, e.airtime_s, model, n_bins=args.bins).outage(run.phy.v_operating)
            for e in SF_TABLE
        ]
    return {"outage_sweep.csv": columns}


def cmd_coverage(args, run: RunConfig, model: CapacitorModel) -> dict:
    from . import markov

    avail = np.empty(N_RINGS)
    for r, entry in enumerate(SF_TABLE):
        sd = markov.steady_state(run.scheme, entry.airtime_s, model, n_bins=args.bins)
        avail[r] = sd.availability(run.phy.v_operating)
    profile = coverage_profile(run.phy, run.scheme, avail, points_per_ring=args.points_per_ring)
    columns = {
        "distance_km": profile.distances / 1e3,
        "sf": _SFS[profile.ring],
        "snr_success": profile.snr_success,
        "sir_success": profile.sir_success,
        "conn_lower": profile.conn_lower,
        "energy_avail": profile.energy_avail,
        "overall_Q": profile.overall,
    }
    return {"coverage.csv": columns}


def cmd_act_plan(args, run: RunConfig, model: CapacitorModel) -> dict:
    from . import act, markov

    if args.act == "cdc":
        plan = act.plan_cdc(args.theta, run.scheme.kind, run.phy, model, n_bins=args.bins)
    else:
        plan = act.plan_cve(args.vartheta, run.scheme.kind, run.phy, model, n_bins=args.bins)
    if not plan.etsi_ok.all():
        bad = [SF_TABLE[r].sf for r in range(N_RINGS) if not plan.etsi_ok[r]]
        print(f"warning: duty cycle above the 1% ETSI cap for SF {bad}", file=sys.stderr)
    params = [(s.a, s.b) if s.kind == "uniform" else (s.k, s.w) for s in plan.schemes]
    pdfs = [markov.stationary_pdf(sd) for sd in plan.stationary]
    keep = [dens > 0 for _, dens in pdfs]
    return {
        "act_plan.csv": {
            "sf": _SFS,
            "dist_kind": [s.kind for s in plan.schemes],
            "param_a_or_k": [p for p, _ in params],
            "param_b_or_w": [p for _, p in params],
            "mean_nu_s": plan.mean_nu,
            "duty_cycle": plan.duty_simple,
            "predicted_mean_V": plan.predicted_mean_v,
            "predicted_outage": plan.predicted_outage,
        },
        "act_pdfs.csv": {
            "sf": np.repeat(_SFS, [k.sum() for k in keep]),
            "voltage_V": np.concatenate([c[k] for (c, _), k in zip(pdfs, keep)]),
            "pdf": np.concatenate([d[k] for (_, d), k in zip(pdfs, keep)]),
        },
    }


def cmd_simulate(args, run: RunConfig, model: CapacitorModel) -> dict:
    net = sample_network(run.phy, seed=args.seed, n_devices=args.devices)
    report = run_simulation(
        net,
        run.phy,
        model,
        run.scheme,
        duration=args.duration,
        seed=args.seed,
        overlap=args.overlap,
        warmup=args.warmup,
    )
    tables = {
        "sim_report.csv": {
            "ring": np.arange(1, N_RINGS + 1),
            "attempts": report.attempts,
            "energy_skips": report.energy_skips,
            "energy_aborts": report.energy_aborts,
            "snr_fails": report.snr_fails,
            "sir_fails": report.sir_fails,
            "successes": report.successes,
            "E_hat": report.energy_avail,
            "C_hat": report.conn_rate,
            "Q_hat": report.overall_rate,
            "ci_half_width": report.ci_half_width,
        }
    }
    if args.per_device:
        dv = report.devices
        tables["sim_devices.csv"] = {
            "device": np.arange(dv.ring.size),
            "ring": dv.ring + 1,
            "distance_km": dv.distance / 1e3,
            **{name: getattr(dv, name) for name in COUNTERS},
        }
    return tables


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by later `main` calls."""
    parser = argparse.ArgumentParser(prog="loraeh", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help=f"config file (INI); falls back to ${ENV_CONFIG}")
    common.add_argument("--seed", type=int, default=0, help="random seed, a non-negative integer")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--mode", choices=["thevenin", "literal"], help="capacitor model override")
    common.add_argument("--scheme", choices=["ud", "wd"], help="charging scheme override")
    bins = argparse.ArgumentParser(add_help=False)
    bins.add_argument("--bins", type=int, default=DEFAULT_BINS)
    ring = argparse.ArgumentParser(add_help=False)
    ring.add_argument("--ring", type=int, default=4, choices=range(1, 7), help="SF ring for the airtime")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacitor-trace", parents=[common, ring], help="voltage trajectory CSVs for both schemes")
    p.add_argument("--cycles", type=int, default=100)
    p.add_argument("--samples-per-phase", type=int, default=20)
    p.set_defaults(func=cmd_capacitor_trace)

    p = sub.add_parser("steady-state", parents=[common, bins, ring], help="stationary voltage pdf/cdf and outage")
    p.set_defaults(func=cmd_steady_state)

    p = sub.add_parser("outage-sweep", parents=[common, bins], help="energy outage per spreading factor")
    p.set_defaults(func=cmd_outage_sweep)

    p = sub.add_parser("coverage", parents=[common, bins], help="distance-resolved uplink success columns")
    p.add_argument("--points-per-ring", type=int, default=40)
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("act-plan", parents=[common, bins], help="adaptive charging-time plan per SF")
    p.add_argument("--act", choices=["cdc", "cve"], required=True)
    p.add_argument("--theta", type=float, default=150.0, help="duty multiplier for cdc")
    p.add_argument("--vartheta", type=float, default=1.0, help="mean-voltage multiplier for cve")
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed --help (0) or why it rejected a flag (2)
        return 1 if exc.code else 0
    try:
        run = _load(args)
        tables = args.func(args, run, build_model(run.phy, run.mode))
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out cannot be made a directory: {exc}") from exc
        for name, columns in tables.items():
            _write_csv(os.path.join(args.out, name), columns)
        _write_manifest(args, run, list(tables))
        return 0
    except (ConfigError, MemoryError) as exc:  # MemoryError: a size too large to allocate
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
