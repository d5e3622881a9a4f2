"""loraeh benchmark: one workload as a closed loop with one client.

Usage, from the repository root:

    python3 perfbench/run.py --workload reference-analytic --seed 1 --seconds 30 --trace 0

The loop runs passes over the workload's jobs back to back and starts no
pass that would end past --seconds (it always runs a few). With --trace 0
the last stdout line carries the end-to-end metrics; with --trace 1 it
carries the per-layer metrics of a traced run, whose spans come from
wrappers installed around loraeh's public functions (see tracing.py); its
layer times are raw seconds, while pass and set-up times are calibrated (see
KERNEL).
Every job's outputs are checked against reference.json. Spans and a result
file with the environment are written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = "1"  # every layer runs on one thread, so BLAS gets one too
MIN_PASSES = 3  # untraced passes; a --trace 1 run needs one fewer of each kind
STOP_STARTING_AFTER_S = 120.0  # keeps a run under three minutes on a slow box
SETUP_SAMPLES = 9
# Timings are calibrated against a fixed kernel timed in the same process just
# before and after each job: t * NOMINAL_S / kernel seconds. On a shared host
# the speed of the box drifts by tens of percent over minutes, and a kernel
# doing the same kind of work drifts with it. Interpreter-bound and
# memory-bound code drift by different amounts, so each workload uses the
# kernel shaped like its dominant work, and set-up (imports) the interpreter
# one. The raw times are kept in the result file.
KERNEL = {"reference-analytic": "dense", "slow-mixing": "dense", "network-sim": "interpreter"}
# about each kernel's median on the 2-vCPU Xeon box the benchmark was defined on
NOMINAL_S = {"interpreter": 0.004, "dense": 0.006}
CALIBRATE_EVERY_S = 0.5

END_TO_END = {
    "pass_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
PER_LAYER = {
    "config.load_s": "s",
    "capacitor.trajectory_s": "s",
    "markov.build_s": "s",
    "markov.cells": "count",
    "markov.matrix_mb": "MiB",
    "markov.solve_s": "s",
    "markov.solves": "count",
    "markov.solves_unique": "count",
    "markov.decay_mean_calls": "count",
    "phy.duty_cycle_calls": "count",
    "phy.collision_fraction_s": "s",
    "hypergeom.calls": "count",
    "hypergeom.s": "s",
    "geometry.coverage_profile_s": "s",
    "phy.ring_index_calls": "count",
    "geometry.sample_network_s": "s",
    "geometry.path_gain_calls": "count",
    "montecarlo.run_s": "s",
    "montecarlo.device_cycles": "count",
    "montecarlo.cycles_per_s": "1/s",
    "act.plan_s": "s",
    "cli.self_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.csv_identical": "bool",
    "trace.overhead_s": "s",
}

# measured in a fresh interpreter: what every CLI invocation pays before work
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import loraeh.cli
from loraeh.capacitor import build_model
from loraeh.config import load_config
run = load_config(sys.argv[2] or None)
build_model(run.phy, run.mode)
print(time.perf_counter() - t0)
"""


def bootstrap() -> None:
    """Pin BLAS threads and the default config before numpy or loraeh load."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("LORAEH_CONFIG", None)
    sys.path.insert(0, str(SRC))


def _blas_threads() -> dict[str, int]:
    import ctypes

    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(lib)] = fn()
                break
    return found


def _loadavg() -> list[float]:
    with open("/proc/loadavg", encoding="utf-8") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_start": _loadavg(),
    }


def measure_setup(workload: str, samples: int = SETUP_SAMPLES) -> list[tuple[float, float]]:
    """(raw, calibrated) seconds of import, load_config and build_model, each
    time in a fresh process; calibrated like a job, by the kernel timed just
    before and after the process."""
    config_args = workloads.CONFIG_ARGS[workload]
    config = config_args[1] if config_args else ""
    times = []
    before = calibrate("interpreter")
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), config],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        after = calibrate("interpreter")
        setup = float(proc.stdout)
        times.append((setup, setup * NOMINAL_S["interpreter"] * 2.0 / (before + after)))
        before = after
    return times


# Both kernels allocate nothing large, so that they time the box and not the
# allocator's state.
def _interpreter_kernel() -> None:
    # small numpy calls from a Python loop, as in the simulator's cycle loop
    # and sample_network, plus plain Python arithmetic
    import numpy as np

    x = np.linspace(0.01, 1.0, 500)
    acc = 0.0
    rng = np.random.default_rng(1)
    v = np.zeros(16)
    for _ in range(400):
        u = rng.uniform(size=16)
        v = np.where(u > 0.5, v + u, v * 0.5)
        acc += float(np.searchsorted(x, u[0]))
    for i in range(20000):
        acc += i * 0.5


@functools.cache
def _dense_operands():
    import numpy as np

    x = np.linspace(0.01, 1.0, 1000)
    m = np.random.default_rng(0).uniform(size=(1000, 1000))
    m /= m.sum(axis=1)[:, None]
    return x, m, np.empty_like(m), np.empty(1000), np.empty(1000)


def _dense_kernel() -> None:
    # the Markov chain's work: elementwise passes over, and vector products
    # with, a 1000 x 1000 matrix (8 MB, beyond the caches)
    import numpy as np

    x, m, a, u, v = _dense_operands()
    np.multiply.outer(x, x, out=a)
    np.log1p(a, out=a)
    np.exp(a, out=a)
    u.fill(1e-3)
    for _ in range(5):
        np.dot(u, m, out=v)
        np.divide(v, v.sum(), out=u)


def calibrate(kind: str) -> float:
    """Best of three timings of the named fixed kernel (warm it up once first)."""
    kernel = {"interpreter": _interpreter_kernel, "dense": _dense_kernel}[kind]
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def _p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[-1] if len(xs) > 1 else xs[0]


class Run:
    """Closed-loop passes over one workload, with output checks."""

    def __init__(self, workload, seed, sizes, work_dir: Path):
        self.workload = workload
        self.kernel = KERNEL[workload]
        self.jobs = workloads.jobs(workload, seed, sizes)
        reference = json.loads(workloads.REFERENCE_FILE.read_text(encoding="utf-8"))
        self.reference = reference.get(workload, {})
        self.work_dir = work_dir
        self.job_times = {}  # metric -> untraced job seconds, calibrated
        self.raw_job_times = {}  # metric -> untraced job seconds, as measured
        self.pass_times = {False: [], True: []}  # traced? -> pass seconds, calibrated
        self.raw_pass_times = {False: [], True: []}
        self.calibrations = []  # per pass: kernel seconds, in order
        self.tracers = []
        self.csv_bytes = []  # per pass
        self.attempted = 0
        self.failures = []
        self.identical = True

    def run_pass(self, tracer=None) -> None:
        csv_bytes = 0
        done = []  # (metric, seconds, calibrations taken before the job)
        cals = [calibrate(self.kernel)]
        last_cal = time.perf_counter()
        with tracing.installed(tracer) if tracer else nullcontext():
            for job_no, job in enumerate(self.jobs):
                if time.perf_counter() - last_cal >= CALIBRATE_EVERY_S:
                    cals.append(calibrate(self.kernel))
                    last_cal = time.perf_counter()
                out_dir = self.work_dir / job.metric
                out_dir.mkdir(parents=True, exist_ok=True)
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    # the CLI's own stdout would bury the result line
                    with redirect_stdout(io.StringIO()):
                        if tracer:
                            with tracer.root("cli" if job.argv else "bench.library", job_no):
                                networks = workloads.execute(job, self.workload, out_dir)
                        else:
                            networks = workloads.execute(job, self.workload, out_dir)
                except Exception as exc:  # a job that raises counts as failed; the loop goes on
                    self.failures.append(f"{job.key}: {type(exc).__name__}: {exc}")
                    continue
                done.append((job.metric, time.perf_counter() - t0, len(cals)))
                csv_bytes += sum(p.stat().st_size for p in workloads.csv_files(out_dir).values()) if job.argv else 0
                problem = self.check(job, out_dir, networks)
                if problem:
                    self.failures.append(f"{job.key}: {problem}")
        cals.append(calibrate(self.kernel))
        self.calibrations.append(cals)
        # a job is scaled by the mean of the kernel timings just before and after it
        nominal = NOMINAL_S[self.kernel]
        scaled = [(m, t * nominal * 2.0 / (cals[n - 1] + cals[n])) for m, t, n in done]
        self.pass_times[tracer is not None].append(sum(t for _, t in scaled))
        self.raw_pass_times[tracer is not None].append(sum(t for _, t, _ in done))
        if not tracer:
            for (metric, t), (_, raw, _) in zip(scaled, done):
                self.job_times.setdefault(metric, []).append(t)
                self.raw_job_times.setdefault(metric, []).append(raw)
        self.csv_bytes.append(csv_bytes)
        if tracer:
            self.tracers.append(tracer)

    def check(self, job, out_dir, networks) -> str | None:
        ref = self.reference.get(job.key)
        if ref is None:
            return "no reference output recorded"
        if job.argv:
            if workloads.digests(out_dir) == ref["sha256"]:
                return None
            self.identical = False
        try:
            problems = workloads.drift(workloads.values(job, out_dir, networks), ref["values"])
        except (OSError, KeyError, ValueError, IndexError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
        return "; ".join(problems[:3]) or None

    def loop(self, seconds: float, trace: bool, min_passes: int) -> float:
        minimum = max(1, min_passes - 1) if trace else min_passes
        start = time.perf_counter()
        while True:
            traced = trace and len(self.pass_times[False]) > len(self.pass_times[True])
            self.run_pass(tracing.Tracer(len(self.tracers)) if traced else None)
            elapsed = time.perf_counter() - start
            plain, traced_n = len(self.pass_times[False]), len(self.pass_times[True])
            if plain < minimum or (trace and traced_n < minimum):
                if elapsed < STOP_STARTING_AFTER_S:
                    continue
                return elapsed
            next_traced = trace and plain > traced_n
            estimate = max(self.raw_pass_times[next_traced] or self.raw_pass_times[False])
            if elapsed + estimate > seconds or elapsed >= STOP_STARTING_AFTER_S:
                return elapsed


def layer_metrics(tracer) -> dict[str, float]:
    self_s = tracer.self_times()
    calls = tracer.calls()
    run_s = self_s["montecarlo.run"]
    return {
        "config.load_s": self_s["config.load"],
        "capacitor.trajectory_s": self_s["capacitor.trajectory"],
        "markov.build_s": self_s["markov.build"],
        "markov.cells": tracer.cells,
        "markov.matrix_mb": tracer.matrix_mib,
        "markov.solve_s": self_s["markov.solve"],
        "markov.solves": len(tracer.solve_keys),
        "markov.solves_unique": len(set(tracer.solve_keys)),
        "markov.decay_mean_calls": calls["markov.decay_mean"],
        "phy.duty_cycle_calls": calls["phy.duty_cycle"],
        "phy.collision_fraction_s": self_s["phy.collision_fraction"],
        "hypergeom.calls": calls["hypergeom"],
        "hypergeom.s": self_s["hypergeom"],
        "geometry.coverage_profile_s": self_s["geometry.coverage_profile"],
        "phy.ring_index_calls": calls["phy.ring_index"],
        "geometry.sample_network_s": self_s["geometry.sample_network"],
        "geometry.path_gain_calls": calls["geometry.path_gain"],
        "montecarlo.run_s": run_s,
        "montecarlo.device_cycles": tracer.device_cycles,
        "montecarlo.cycles_per_s": tracer.device_cycles / run_s if run_s > 0 else 0.0,
        "act.plan_s": self_s["act.plan"],
        "cli.self_s": self_s["cli"],
    }


def run_workload(workload, seed, seconds, trace, sizes=None, min_passes=MIN_PASSES, out_root=OUT) -> dict:
    """Run one workload and return the result object (the last stdout line)."""
    sizes = sizes or workloads.FULL
    env = environment()
    for kernel in {"interpreter", KERNEL[workload]}:
        calibrate(kernel)  # first calls fault in memory and fill caches
    setup = [] if trace else measure_setup(workload)
    work_dir = out_root / f"work-{os.getpid()}"
    run = Run(workload, seed, sizes, work_dir)
    try:
        measured = run.loop(seconds, bool(trace), min_passes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    env["loadavg_end"] = _loadavg()

    plain = run.pass_times[False]
    all_jobs = [t for ts in run.job_times.values() for t in ts]
    jobs = {
        m: {
            "median_s": statistics.median(ts),
            "p90_s": _p90(ts),
            "n": len(ts),
            "raw_median_s": statistics.median(run.raw_job_times[m]),
        }
        for m, ts in run.job_times.items()
    }
    if trace:
        per_pass = [layer_metrics(tr) for tr in run.tracers]
        # counts repeat exactly from pass to pass; median_low keeps them whole
        values = {
            name: (statistics.median if PER_LAYER[name] == "s" else statistics.median_low)([p[name] for p in per_pass])
            for name in per_pass[0]
        }
        values["cli.csv_bytes"] = statistics.median_low(run.csv_bytes)
        values["cli.csv_identical"] = int(run.identical)
        values["trace.overhead_s"] = statistics.median(run.pass_times[True]) - statistics.median(plain)
        units = PER_LAYER
    else:
        values = {
            "pass_s": statistics.median(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(t for _, t in setup),
        }
        units = END_TO_END
    failed = len(run.failures)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(bool(trace)),
        "sizes": vars(sizes),
        "measured_s": measured,
        "passes": {"untraced": plain, "traced": run.pass_times[True]},
        "jobs": jobs,
        "job_samples_s": run.job_times,
        "raw_job_samples_s": run.raw_job_times,
        "raw_passes": {"untraced": run.raw_pass_times[False], "traced": run.raw_pass_times[True]},
        "calibration_s": run.calibrations,
        "job_p90_s": _p90(all_jobs) if all_jobs else None,
        "fail_ratio": failed / run.attempted,
        "failures": run.failures,
        "setup_samples_s": setup,
        "csv_identical": int(run.identical),
        "waiting_s": 0.0,  # one thread, one client: no layer waits for another
        "environment": env,
        "result": result,
    }
    out_root.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(bool(trace))}"
    (out_root / f"result-{stem}.json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    if trace:
        with open(out_root / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
            for tracer in run.tracers:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    return {**result, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "loraeh" / "__init__.py").is_file():
        print(f"error: no loraeh sources under {SRC}", file=sys.stderr)
        return 2
    bootstrap()
    out = run_workload(args.workload, args.seed, args.seconds, args.trace)
    details = out.pop("details")
    env = details["environment"]
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(details['passes']['untraced'])} untraced + {len(details['passes']['traced'])} traced passes "
        f"in {details['measured_s']:.2f} s"
    )
    print(
        f"env: python {env['python']} numpy {env['numpy']} scipy {env['scipy']} blas {env['blas']} "
        f"threads {env['blas_threads']} nproc {env['nproc']} cpu {env['cpu']!r} "
        f"loadavg {env['loadavg_start']} -> {env['loadavg_end']}"
    )
    for metric, s in details["jobs"].items():
        print(f"job {metric}: median {s['median_s']:.4f} s, p90 {s['p90_s']:.4f} s, n {s['n']}")
    if details["job_p90_s"] is not None:
        print(f"job_p90_s {details['job_p90_s']:.4f} s over all {len(details['jobs'])} job kinds")
    print(f"fail_ratio {details['fail_ratio']:.4f} ({out['failed']} of {out['attempted']} jobs)")
    for failure in details["failures"][:10]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
