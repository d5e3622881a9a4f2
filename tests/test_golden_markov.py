"""Golden outputs of the analytic path: transition matrix, stationary law, CSVs.

`reference_transition_matrix` and `reference_power_iteration` are a dense
builder and solver: the same per-cell mass formula is evaluated on every cell
of the grid, and the power iteration multiplies by the dense matrix. The
band-sparse builder must keep exactly the nonzero cells, and the sparse solver
land on the same stationary vector up to summation-order rounding. The CSV
digests were recorded from the mass chain at the default configuration; like
those of `test_golden.py` they depend on numpy's vectorized log, exp and power
kernels. `python tests/test_golden_markov.py` prints the digests of the current
code in the layout of GOLDEN, and `--compare DIR` how far every CSV column
moved from an older run (see the end of this file).
"""

import csv
import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from loraeh.capacitor import CycleConstants, build_model
from loraeh.cli import main
from loraeh.markov import DecayFactorDistribution, build_transition_matrix, stationary_distribution
from loraeh.phy import ChargingScheme

BINS = 1000
COARSE_BINS = 300  # a coarse grid goes through the same builder and power iteration
AIRTIMES = (0.0366, 0.204, 0.682)  # SF7, SF10, SF12
SCHEMES = {
    "uniform": ChargingScheme.uniform(0.0, 100.0),
    "weibull-0.5": ChargingScheme.weibull(0.5, 50.0),
    "weibull-2": ChargingScheme.weibull(2.0, 50.0),
}
# (scheme, capacitance, airtime, bins); the coarse-grid ids end in "-300"
DENSE_CASES = [
    pytest.param(scheme, c, airtime, n, id=f"{scheme}-{c}-{airtime}" + ("" if n == BINS else f"-{n}"))
    for n in (BINS, COARSE_BINS)
    for scheme in SCHEMES
    for c in (0.01, 0.04)
    for airtime in AIRTIMES
]

# CLI arguments -> {csv name: sha256}, default configuration
GOLDEN = {
    "steady-state": {
        "convergence.csv": "d852623e6dbc63ceff7829e01ec400ffea743d06493b27cd39511c589854a20a",
        "outage_summary.csv": "cf8633236eb9bb1af9ab72ef2fb9bc9c3352373bd453b39371fbd949465b79b8",
        "steady_ud.csv": "be43a3848b10ceb222a83476b97f6f41ee11744e03b47eebce9a5a07183cd3c4",
        "steady_wd.csv": "37b2473195f7d91431bcf1f3fd1421fc278a8b23fc843034c67376e8b4fd625f",
    },
    "outage-sweep": {
        "outage_sweep.csv": "85baad57e0759b56089f74c5aab47022530476487ae3f3a76f2115074bc6f680",
    },
    "coverage": {
        "coverage.csv": "e6f2709be698799847ea979a0768dae491e5482b0a3f27b89e78706123a64135",
    },
    "act-plan --act cdc": {
        "act_pdfs.csv": "d16011064c2bbd8267b73089ec49a0150c3fcb846feaa99263864828e7ae6796",
        "act_plan.csv": "d76892c8bed46bc9a93626f4b0079ca5998d26c47df2c68f4df72cc3f34babca",
    },
    "act-plan --act cve": {
        "act_pdfs.csv": "75e583e8b2f1629cea16d807d0aeece628bac9a52a878e0f13d65e6cbb695f7f",
        "act_plan.csv": "a1ddae8f5d53ba5fbee57ca39500967775786ad34e323aff683d42e372e80461",
    },
}


def reference_transition_matrix(dist, cc, m, n_bins):
    """Dense Ulam matrix: every cell is the decay law's mass between the cell's two mapped edges."""
    edges = np.linspace(m.v_limit_on, m.v_limit_off, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    log_d = np.log(cc.retention * (cc.ceiling - centers))
    with np.errstate(divide="ignore"):
        log_n = np.log(np.maximum(cc.v_after_full - edges, 0.0))
    surv = dist.scheme.survival(dist.tau_charge * (log_d[:, None] - log_n[None, :]))
    raw = surv[:, :-1] - surv[:, 1:]
    return raw / raw.sum(axis=1, keepdims=True)


def reference_power_iteration(mat, tol=1e-10, max_iter=100000):
    """Left fixed point by dense power iteration from the uniform law."""
    u = np.full(mat.shape[0], 1.0 / mat.shape[0])
    for _ in range(max_iter):
        nxt = u @ mat
        nxt /= nxt.sum()
        res = np.abs(nxt - u).max()
        u = nxt
        if res < tol * 1e-2:
            break
    assert np.abs(u @ mat - u).max() <= tol
    u = np.maximum(u, 0.0)
    return u / u.sum()


@pytest.mark.parametrize("scheme, capacitance, airtime, n_bins", DENSE_CASES)
def test_matches_dense_reference(fig2, scheme, capacitance, airtime, n_bins):
    m = build_model(dataclasses.replace(fig2.phy, capacitance=capacitance), "thevenin")
    dist = DecayFactorDistribution(scheme=SCHEMES[scheme], tau_charge=m.tau_off)
    cc = CycleConstants.from_model(m, airtime)
    dense = reference_transition_matrix(dist, cc, m, n_bins)
    tm = build_transition_matrix(dist, cc, m, n_bins=n_bins)
    got = tm.matrix.toarray()
    assert np.array_equal(got != 0.0, dense != 0.0)
    assert np.abs(got - dense).max() <= 1e-15
    sd = stationary_distribution(tm)
    ref = reference_power_iteration(dense)
    assert 0.5 * np.abs(sd.probabilities - ref).sum() <= 1e-14


def test_every_row_holds_mass(model):
    # the density chain left row 299 of this grid without a target bin; the
    # image of every bin lies inside the grid, so every mass row sums to 1
    dist = DecayFactorDistribution(scheme=ChargingScheme.uniform(20.0, 100.0), tau_charge=model.tau_off)
    cc = CycleConstants.from_model(model, 0.204)
    tm = build_transition_matrix(dist, cc, model, n_bins=300)
    dense = reference_transition_matrix(dist, cc, model, 300)
    got = tm.matrix.toarray()
    assert np.all(np.diff(tm.matrix.indptr) > 0)
    assert np.abs(got.sum(axis=1) - 1.0).max() <= 1e-15
    assert np.array_equal(got != 0.0, dense != 0.0)
    assert np.abs(got - dense).max() <= 1e-15


def cli_digests(args, out):
    assert main([*args.split(), "--bins", str(BINS), "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize("args", GOLDEN)
def test_cli_digests(tmp_path, args):
    assert cli_digests(args, tmp_path) == GOLDEN[args]


def job_dir(root, args):
    """The directory of one GOLDEN job's CSVs under root: "act-plan --act cve" -> root/act-plan-act-cve."""
    return Path(root) / "-".join(a.lstrip("-") for a in args.split())


def read_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def compare(old_root, extra):
    """Per CSV of every GOLDEN job, the largest absolute change of each numeric column against old_root."""
    with tempfile.TemporaryDirectory() as tmp:
        for args in GOLDEN:
            new_dir = job_dir(tmp, args)
            assert main([*args.split(), "--bins", str(BINS), *extra, "--out", str(new_dir)]) == 0
            for path in sorted(new_dir.glob("*.csv")):
                new, old = read_columns(path), read_columns(job_dir(old_root, args) / path.name)
                n_new, n_old = len(next(iter(new.values()))), len(next(iter(old.values())))
                if n_new != n_old:
                    print(f"{args}: {path.name}: rows {n_old} -> {n_new}")
                    continue
                for name, cells in new.items():
                    try:
                        change = np.abs(np.array(cells, dtype=float) - np.array(old[name], dtype=float))
                    except ValueError:  # a text column
                        continue
                    print(f"{args}: {path.name}: {name}: largest change {change.max():.3g}")


if __name__ == "__main__":
    # python tests/test_golden_markov.py                 digests of the current code, in the layout of GOLDEN
    # python tests/test_golden_markov.py --compare DIR [CLI ARGS...]
    #     largest change of every numeric CSV column against DIR/<job_dir>/*.csv, e.g.
    #     written at an older commit by `python -m loraeh.cli coverage --bins 1000 --out DIR/coverage`;
    #     trailing CLI arguments (say --config FILE, or --bins 2000) are added to every job
    if sys.argv[1:2] == ["--compare"]:
        compare(sys.argv[2], sys.argv[3:])
    else:
        with tempfile.TemporaryDirectory() as tmp:
            for i, args in enumerate(GOLDEN):
                print(f"    {args!r}: {cli_digests(args, Path(tmp) / str(i))},")
