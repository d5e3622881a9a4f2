"""Golden outputs of the analytic path: transition matrix, stationary law, CSVs.

`reference_transition_matrix` and `reference_stationary` are a dense builder
and solver: the same per-cell mass formula is evaluated on every cell of the
grid, and the stationary law is the exact solution of u (I - P) = 0, sum(u) =
1 by dense LU. The band-sparse builder must keep exactly the nonzero cells,
and the solver (dense LU up to 300 bins, Arnoldi above) land on the same
stationary vector up to rounding. The
CSV digests were recorded from the mass chain at the default configuration;
like those of `test_golden.py` they depend on numpy's vectorized log, exp and
power kernels, and through ARPACK on the BLAS kernels. `python
tests/test_golden_markov.py` prints the digests of the current code in the
layout of GOLDEN, and `--compare DIR` how far every CSV column moved from an
older run (see the end of this file).
"""

import csv
import dataclasses
import hashlib
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from loraeh.capacitor import build_model
from loraeh.cli import main
from loraeh.markov import build_transition_matrix, stationary_distribution
from loraeh.phy import ChargingScheme

BINS = 1000
COARSE_BINS = 300  # a coarse grid goes through the same builder and solver
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
        "convergence.csv": "e950e4d1bf26e9c1836584fa5b58befcb3722124f1cfd3e8f1ac4597f958015b",
        "outage_summary.csv": "ea83e30e6ff762d93e73e5458a42f1362a8519ee088eed487acd5a6873436e0b",
        "steady_ud.csv": "6732e8d5b4ba03f1fef9c627237d900005dab26daaa6c8f2686ec24e621049e2",
        "steady_wd.csv": "d3df31e80d02db1686bcc188f06b8162888151b59760be37e089c69b3d052617",
    },
    "outage-sweep": {
        "outage_sweep.csv": "a4ad795b7d4f086a091c91a7216417c7f5989b445518097b07805d97eecc6c8e",
    },
    "coverage": {
        "coverage.csv": "c1b789054cb36acde1d5fced10a42f4715bf0526f13f3e9c35e040de4e9cc5b8",
    },
    "act-plan --act cdc": {
        "act_pdfs.csv": "61fa2228a29fc4926d8396df1394f00f495da803e60d340c56283fd589a8cbf5",
        "act_plan.csv": "f38943d674536de52c2552bf8c4dca04f84dcfd9e3ecee42c52ccd7872cf54ac",
    },
    "act-plan --act cve": {
        "act_pdfs.csv": "f7fb551f57063514b93bee8442748b2781ace97dcb38510c865ffe1a95b680cc",
        "act_plan.csv": "6b925392b3973770a9460dffdbab80022f8992679f78e2085670fd929318eecf",
    },
}


def reference_transition_matrix(scheme, airtime, m, n_bins):
    """Dense Ulam matrix: every cell is the decay law's mass between the cell's two mapped edges."""
    edges = np.linspace(m.v_limit_on, m.v_limit_off, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    log_d = np.log(m.retention(airtime) * (m.v_limit_off - centers))
    with np.errstate(divide="ignore"):
        log_n = np.log(np.maximum(m.v_after_full(airtime) - edges, 0.0))
    surv = scheme.survival(m.tau_off * (log_d[:, None] - log_n[None, :]))
    raw = surv[:, :-1] - surv[:, 1:]
    return raw / raw.sum(axis=1, keepdims=True)


def reference_stationary(mat):
    """The exact stationary law: (I - P^T) u = 0 with its last row replaced by sum(u) = 1, by dense LU."""
    n = mat.shape[0]
    a = np.eye(n) - mat.T
    a[-1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


@pytest.mark.parametrize("scheme, capacitance, airtime, n_bins", DENSE_CASES)
def test_matches_dense_reference(fig2, scheme, capacitance, airtime, n_bins):
    m = build_model(dataclasses.replace(fig2.phy, capacitance=capacitance), "thevenin")
    dense = reference_transition_matrix(SCHEMES[scheme], airtime, m, n_bins)
    tm = build_transition_matrix(SCHEMES[scheme], airtime, m, n_bins=n_bins)
    got = tm.matrix.toarray()
    assert np.array_equal(got != 0.0, dense != 0.0)
    assert np.abs(got - dense).max() <= 1e-15
    sd = stationary_distribution(tm)
    assert 0.5 * np.abs(sd.probabilities - reference_stationary(dense)).sum() <= 1e-13


def test_near_reducible_chain_matches_dense_reference(fig2):
    # one closed class whose 60 bins are linked only by tail probabilities (the
    # second eigenvalue is 1 - 7e-6)
    m = build_model(dataclasses.replace(fig2.phy, capacitance=0.18), "thevenin")
    tm = build_transition_matrix(ChargingScheme.weibull(1.31, 9.03), 0.365, m, n_bins=60)
    start = time.perf_counter()
    sd = stationary_distribution(tm)
    assert time.perf_counter() - start < 0.1  # a dense LU; ARPACK took over a second here
    assert 0.5 * np.abs(sd.probabilities - reference_stationary(tm.matrix.toarray())).sum() <= 1e-13


def test_every_row_holds_mass(model):
    # the density chain left row 299 of this grid without a target bin; the
    # image of every bin lies inside the grid, so every mass row sums to 1
    scheme = ChargingScheme.uniform(20.0, 100.0)
    tm = build_transition_matrix(scheme, 0.204, model, n_bins=300)
    dense = reference_transition_matrix(scheme, 0.204, model, 300)
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
