"""The benchmark's workloads: the jobs of one pass and the checks on their outputs.

A job is either a CLI subcommand called in-process through ``loraeh.cli.main``
or a direct call of a public library function. The seed picks one of
``VARIANTS`` input sets, so that every input the benchmark can run has
reference outputs recorded in ``reference.json`` (see ``make_reference.py``).
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
SLOW_MIXING_INI = HERE / "slow_mixing.ini"

VARIANTS = 8
WORKLOADS = ("reference-analytic", "slow-mixing", "network-sim")
CONFIG_ARGS = {
    "reference-analytic": (),
    "slow-mixing": ("--config", str(SLOW_MIXING_INI)),
    "network-sim": (),
}


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one pass."""

    bins: int  # Markov grid of every analytic job; steady-state also solves at twice this
    trace_cycles: int
    large_duration: float  # simulated seconds of the large simulate job
    small_jobs: int  # small simulate jobs per pass
    small_devices: int
    small_duration: float
    realization_seeds: int  # sample_network calls per realizations job


# 1000 bins keeps a pass to a few seconds, so that a run holds several passes;
# the large simulate job stays dominated by its per-cycle loop (about 6000
# cycles per device).
FULL = Sizes(
    bins=1000,
    trace_cycles=1000,
    large_duration=3e5,
    small_jobs=40,
    small_devices=30,
    small_duration=2e4,
    realization_seeds=1000,
)
TINY = Sizes(
    bins=1000,
    trace_cycles=20,
    large_duration=2e4,
    small_jobs=2,
    small_devices=30,
    small_duration=2e4,
    realization_seeds=20,
)


@dataclass(frozen=True)
class Job:
    """One closed-loop request: a CLI argument list, or a block of network seeds."""

    metric: str  # end-to-end timing the job reports under, e.g. "coverage_s"
    argv: tuple[str, ...] = ()  # CLI arguments without --config and --out
    seeds: range | None = None  # realizations only

    @property
    def key(self) -> str:
        """Name of the job's entry in reference.json."""
        if self.seeds is not None:
            return f"realizations {self.seeds.start}-{self.seeds.stop}"
        return " ".join(self.argv)


def jobs(workload: str, seed: int, sizes: Sizes = FULL) -> list[Job]:
    """The jobs of one pass of `workload`, in the order they run."""
    v = seed % VARIANTS
    if workload in ("reference-analytic", "slow-mixing"):
        bins = ("--bins", str(sizes.bins))
        return [
            Job("capacitor_trace_s", ("capacitor-trace", "--cycles", str(sizes.trace_cycles), "--seed", str(v))),
            Job("steady_state_s", ("steady-state", *bins)),
            Job("outage_sweep_s", ("outage-sweep", *bins)),
            Job("coverage_s", ("coverage", *bins)),
            Job("act_plan_cdc_s", ("act-plan", "--act", "cdc", *bins)),
            Job("act_plan_cve_s", ("act-plan", "--act", "cve", *bins)),
        ]
    if workload == "network-sim":
        small = [
            Job(
                "simulate_small_s",
                (
                    "simulate",
                    "--devices",
                    str(sizes.small_devices),
                    "--duration",
                    f"{sizes.small_duration:g}",
                    "--seed",
                    str(v * sizes.small_jobs + i),
                ),
            )
            for i in range(sizes.small_jobs)
        ]
        n = sizes.realization_seeds
        return [
            Job("simulate_large_s", ("simulate", "--duration", f"{sizes.large_duration:g}", "--seed", str(v))),
            *small,
            Job("realizations_s", seeds=range(v * n, (v + 1) * n)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def execute(job: Job, workload: str, out_dir: Path):
    """Run one job; returns the sampled networks of a realizations job, else None.

    Library functions are looked up on their modules at call time, so that
    the tracing wrappers installed there see the calls.
    """
    import loraeh.cli
    import loraeh.config
    import loraeh.geometry

    if job.seeds is not None:
        phy = loraeh.config.load_config().phy
        return [loraeh.geometry.sample_network(phy, seed=s) for s in job.seeds]
    try:
        rc = loraeh.cli.main([*job.argv, *CONFIG_ARGS[workload], "--out", str(out_dir)])
    except SystemExit as exc:  # argparse rejects an argument
        raise RuntimeError(f"{job.key}: exited with {exc.code}") from exc
    if rc != 0:
        raise RuntimeError(f"{job.key}: exit code {rc}")
    return None


def csv_files(out_dir: Path) -> dict[str, Path]:
    return {p.name: p for p in sorted(out_dir.glob("*.csv"))}


def digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in csv_files(out_dir).items()}


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _cols(rows, names, cast=float):
    return {name: [cast(r[name]) for r in rows] for name in names}


SIM_COUNTERS = ("attempts", "energy_skips", "energy_aborts", "snr_fails", "sir_fails", "successes")


def values(job: Job, out_dir: Path, networks=None) -> dict:
    """The checked values of a finished job: outage columns, Q per ring, plan
    means, simulator counters, or network totals."""
    if job.seeds is not None:
        import numpy as np

        counts = sum(np.bincount(net.ring, minlength=6) for net in networks)
        return {
            "n_devices": sum(int(net.n_devices) for net in networks),
            "ring_counts": [int(c) for c in counts],
            "distance_sum_m": math.fsum(float(net.distances.sum()) for net in networks),
        }
    cmd = job.argv[0]
    if cmd == "capacitor-trace":
        out = {}
        for label in ("ud", "wd"):
            rows = _rows(out_dir / f"trace_{label}.csv")
            volts = [float(r["voltage_V"]) for r in rows]
            out.update(
                {
                    f"{label}.rows": len(rows),
                    f"{label}.t_end": float(rows[-1]["time_s"]),
                    f"{label}.v_sum": math.fsum(volts),
                    f"{label}.v_min": min(volts),
                    f"{label}.v_max": max(volts),
                }
            )
        return out
    if cmd == "steady-state":
        out = {}
        for r in _rows(out_dir / "outage_summary.csv"):
            out.update({f"{r['scheme']}.{k}": float(r[k]) for k in ("mean_V", "std_V", "outage")})
        for r in _rows(out_dir / "convergence.csv"):
            out.setdefault(f"{r['scheme']}.conv_outage", []).append(float(r["outage"]))
        return out
    if cmd == "outage-sweep":
        return _cols(_rows(out_dir / "outage_sweep.csv"), ("airtime_s", "outage_ud", "outage_wd"))
    if cmd == "coverage":
        names = ("distance_km", "snr_success", "sir_success", "energy_avail", "overall_Q")
        return _cols(_rows(out_dir / "coverage.csv"), names)
    if cmd == "act-plan":
        names = ("mean_nu_s", "duty_cycle", "predicted_mean_V", "predicted_outage")
        return _cols(_rows(out_dir / "act_plan.csv"), names)
    if cmd == "simulate":
        rows = _rows(out_dir / "sim_report.csv")
        return {**_cols(rows, SIM_COUNTERS, int), **_cols(rows, ("Q_hat",))}
    raise ValueError(f"no value extraction for {cmd!r}")


EXACT = ("abs", 0.0)
# The reference chain (the density discretisation) carries its own grid error:
# at 1000 bins under Weibull k = 0.5 it differs from the mass discretisation
# by up to 0.015 in outage and 0.016 V in mean voltage. Tolerances sit above
# that, so a more accurate chain passes.
CHAIN_PROBABILITY = ("abs", 0.02)
CHAIN_VOLTAGE = ("abs", 0.02)
# coverage uses the uniform-scheme chain, whose two discretisations agree to 2e-4
COVERAGE_PROBABILITY = ("abs", 0.002)
# The reference CVE plan outage does not converge in the grid (SF12 at the
# default config reads 0.446, 0.207 and 0.495 at 1000, 2000 and 4000 bins; the
# mass discretisation gives 0.070 at each), so only its range is checked.
PROBABILITY = ("range", 1.0)
TOLERANCE = {
    "rows": EXACT,
    "t_end": ("rel", 1e-7),
    "v_sum": ("rel", 1e-7),
    "v_min": ("rel", 1e-7),
    "v_max": ("rel", 1e-7),
    "mean_V": CHAIN_VOLTAGE,
    "std_V": CHAIN_VOLTAGE,
    "outage": CHAIN_PROBABILITY,
    "conv_outage": CHAIN_PROBABILITY,
    "airtime_s": ("rel", 1e-9),
    "outage_ud": CHAIN_PROBABILITY,
    "outage_wd": CHAIN_PROBABILITY,
    "distance_km": ("rel", 1e-9),
    "snr_success": ("abs", 1e-9),
    "sir_success": COVERAGE_PROBABILITY,
    "energy_avail": COVERAGE_PROBABILITY,
    "overall_Q": COVERAGE_PROBABILITY,
    "mean_nu_s": ("rel", 1e-6),
    "duty_cycle": ("rel", 1e-6),
    "predicted_mean_V": ("abs", 1e-6),
    "predicted_outage": PROBABILITY,
    **{name: EXACT for name in SIM_COUNTERS},
    "Q_hat": ("abs", 1e-9),
    "n_devices": EXACT,
    "ring_counts": EXACT,
    "distance_sum_m": ("rel", 1e-9),
}


def _close(got: float, want: float, rule) -> bool:
    kind, tol = rule
    if not math.isfinite(got):
        return False
    if kind == "range":
        return 0.0 <= got <= tol
    scale = abs(want) if kind == "rel" else 1.0
    return abs(got - want) <= tol * scale


def drift(got: dict, want: dict) -> list[str]:
    """Fields of `got` outside their tolerance around `want`, described."""
    problems = []
    for field, ref in want.items():
        rule = TOLERANCE[field.rsplit(".", 1)[-1]]
        if field not in got:
            problems.append(f"{field}: missing")
            continue
        a, b = got[field], ref
        if isinstance(b, list):
            if not isinstance(a, list) or len(a) != len(b):
                problems.append(f"{field}: length {len(a) if isinstance(a, list) else 'scalar'} != {len(b)}")
                continue
            bad = [i for i, (x, y) in enumerate(zip(a, b)) if not _close(x, y, rule)]
            if bad:
                i = bad[0]
                problems.append(f"{field}[{i}]: {a[i]!r} vs reference {b[i]!r} ({len(bad)} entries off)")
        elif not _close(a, b, rule):
            problems.append(f"{field}: {a!r} vs reference {b!r}")
    return problems
