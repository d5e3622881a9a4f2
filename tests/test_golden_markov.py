"""Golden outputs of the analytic path: transition matrix, stationary law, CSVs.

`reference_transition_matrix` and `reference_stationary` are a dense builder
and solver: the same per-cell mass formula is evaluated on every cell of the
grid, and the stationary law is the exact solution of u (I - P) = 0, sum(u) =
1 by dense LU. `closed_classes` counts the closed classes of a matrix from
its graph. They are the only oracle of the chain: its bands must hold every
nonzero cell, its product with P^T must match the dense one, and its solve
(dense LU up to 300 bins, Arnoldi above) must land on the same stationary
vector up to rounding for the uniform, exponential and other Weibull chains,
at every grid size. The CSV digests were
recorded at the default configuration; like those of `test_golden.py` they
depend on numpy's vectorized log, exp and power kernels, and through ARPACK
on the BLAS kernels. `python
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
from scipy import sparse
from scipy.sparse import csgraph

from loraeh.capacitor import build_model
from loraeh.cli import main
from loraeh.errors import NumericalError
from loraeh.markov import build_transition_matrix, stationary_distribution, steady_state
from loraeh.phy import ChargingScheme

BINS = 1000
COARSE_BINS = (300, 60, 37, 2, 1)  # grids solved by dense LU
AIRTIMES = (0.0366, 0.204, 0.682)  # SF7, SF10, SF12
SCHEMES = {
    "uniform": ChargingScheme.uniform(0.0, 100.0),
    "weibull-0.5": ChargingScheme.weibull(0.5, 50.0),
    "weibull-2": ChargingScheme.weibull(2.0, 50.0),
}
# (scheme, capacitance, airtime, bins); the coarse-grid ids end in their bins, as "-300"
DENSE_CASES = [
    pytest.param(scheme, c, airtime, n, id=f"{scheme}-{c}-{airtime}" + ("" if n == BINS else f"-{n}"))
    for n in (BINS, *COARSE_BINS)
    for scheme in SCHEMES
    for c in (0.01, 0.04)
    for airtime in AIRTIMES
]

# CLI arguments -> {csv name: sha256}, default configuration
GOLDEN = {
    "steady-state": {
        "convergence.csv": "e950e4d1bf26e9c1836584fa5b58befcb3722124f1cfd3e8f1ac4597f958015b",
        "outage_summary.csv": "ea83e30e6ff762d93e73e5458a42f1362a8519ee088eed487acd5a6873436e0b",
        "steady_ud.csv": "d71cda9ee3aa02ff5da845fa318e6a08560e73dff6d39ff1cc5b53aacfa1f79f",
        "steady_wd.csv": "1560e456da78e17eab704e075d96b1309f96c5c1d6bb4488f201b6703e88bf15",
    },
    "outage-sweep": {
        "outage_sweep.csv": "1fc2a41a73bb01b40484c6ce4e23c1c1cbb89d640cc899e5561c08eb9c8e93f8",
    },
    "coverage": {
        "coverage.csv": "c1b789054cb36acde1d5fced10a42f4715bf0526f13f3e9c35e040de4e9cc5b8",
    },
    "act-plan --act cdc": {
        "act_pdfs.csv": "52010ea890df3839013dfdf97412d7477e17f1d583b6bb0ff62843daf184f294",
        "act_plan.csv": "f38943d674536de52c2552bf8c4dca04f84dcfd9e3ecee42c52ccd7872cf54ac",
    },
    "act-plan --act cve": {
        "act_pdfs.csv": "baff690b2f39a55c2cefaafb13cf951f08babeafa09c30f822452b5432c270d0",
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


def closed_classes(mat):
    """(count, mask of the one closed class or None) of a matrix, from its graph: a
    strongly connected class is closed when no stored transition leaves it."""
    mat = sparse.csr_array(mat)
    n_classes, labels = csgraph.connected_components(mat, directed=True, connection="strong")
    src = np.repeat(labels, np.diff(mat.indptr))
    leaves = np.zeros(n_classes, dtype=bool)
    leaves[src[src != labels[mat.indices]]] = True
    closed = np.flatnonzero(~leaves)
    return closed.size, (labels == closed[0] if closed.size == 1 else None)


def rows(tm):
    """P as a dense array: row i is P^T applied to the i-th unit vector."""
    return (tm.transpose @ np.eye(tm.n_bins)).T


def outside_band(tm):
    """Mask of the cells of P outside each row's band [first - 1, after)."""
    cols = np.arange(tm.n_bins)
    return (cols < np.maximum(tm.first - 1, 0)[:, None]) | (cols >= tm.after[:, None])


@pytest.mark.parametrize("scheme, capacitance, airtime, n_bins", DENSE_CASES)
def test_matches_dense_reference(fig2, scheme, capacitance, airtime, n_bins):
    m = build_model(dataclasses.replace(fig2.phy, capacitance=capacitance), "thevenin")
    dense = reference_transition_matrix(SCHEMES[scheme], airtime, m, n_bins)
    tm = build_transition_matrix(SCHEMES[scheme], airtime, m, n_bins=n_bins)
    assert np.array_equal(dense != 0.0, ~outside_band(tm))
    x = np.random.default_rng(n_bins).standard_normal(n_bins)
    assert np.abs(tm.transpose @ x - dense.T @ x).max() <= 1e-15 * np.abs(x).sum()
    try:
        sd = stationary_distribution(tm)
    except NumericalError:
        # only where the reference has several closed classes or a system singular to working precision
        a = np.eye(n_bins) - dense.T
        a[-1] = 1.0
        assert closed_classes(dense)[0] > 1 or 1.0 / np.linalg.cond(a, 1) < np.finfo(float).eps
        return
    assert 0.5 * np.abs(sd.probabilities - reference_stationary(dense)).sum() <= 1e-13


@pytest.mark.parametrize("airtime", AIRTIMES)
@pytest.mark.parametrize("capacitance", (0.01, 0.04))
@pytest.mark.parametrize("scheme", ["uniform", "exponential", "weibull-0.5", "weibull-2"])
def test_matrix_free_law_matches_dense_reference(fig2, scheme, capacitance, airtime):
    scheme = {**SCHEMES, "exponential": ChargingScheme.weibull(1.0, 50.0)}[scheme]
    m = build_model(dataclasses.replace(fig2.phy, capacitance=capacitance), "thevenin")
    sd = steady_state(scheme, airtime, m, n_bins=BINS)
    exact = reference_stationary(reference_transition_matrix(scheme, airtime, m, BINS))
    assert 0.5 * np.abs(sd.probabilities - exact).sum() <= 1e-13


def test_near_reducible_chain_matches_dense_reference(fig2):
    # one closed class whose 60 bins are linked only by tail probabilities (the
    # second eigenvalue is 1 - 7e-6)
    scheme = ChargingScheme.weibull(1.31, 9.03)
    m = build_model(dataclasses.replace(fig2.phy, capacitance=0.18), "thevenin")
    tm = build_transition_matrix(scheme, 0.365, m, n_bins=60)
    start = time.perf_counter()
    sd = stationary_distribution(tm)
    assert time.perf_counter() - start < 0.1  # a dense LU; ARPACK took over a second here
    exact = reference_stationary(reference_transition_matrix(scheme, 0.365, m, 60))
    assert 0.5 * np.abs(sd.probabilities - exact).sum() <= 1e-13


def test_every_row_holds_mass(model):
    # the density chain left row 299 of this grid without a target bin; the
    # image of every bin lies inside the grid, so every mass row sums to 1
    scheme = ChargingScheme.uniform(20.0, 100.0)
    tm = build_transition_matrix(scheme, 0.204, model, n_bins=300)
    dense = reference_transition_matrix(scheme, 0.204, model, 300)
    got = rows(tm)
    assert np.all(tm.after > np.maximum(tm.first - 1, 0))
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
