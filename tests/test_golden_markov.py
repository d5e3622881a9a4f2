"""Golden outputs of the analytic path: transition matrix, stationary law, CSVs.

Against the dense matrix, the dense solve and the closed-class count of
`oracles.py`, the chain's bands must hold every nonzero cell, its product
with P^T must match the dense one, and its solve (GTH elimination up to 300
bins, Arnoldi above) must land on the same stationary vector up to rounding
for the uniform, exponential and other Weibull chains, at every grid size,
or raise where the chain has several closed classes. The CSV digests were
recorded at the default configuration; like those of `test_golden.py` they
depend on numpy's vectorized log, exp and power kernels, and through the
Arnoldi solve's Gram-Schmidt and its small eigenproblems on numpy's BLAS and
LAPACK. `python
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
from oracles import closed_classes, outside_band, reference_stationary, reference_transition_matrix, rows

from loraeh.capacitor import build_model
from loraeh.cli import main
from loraeh.errors import NumericalError
from loraeh.markov import build_transition_matrix, stationary_distribution, steady_state
from loraeh.phy import ChargingScheme

BINS = 1000
COARSE_BINS = (300, 60, 37, 2, 1)  # grids solved by GTH elimination
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
        "steady_ud.csv": "c7d86308f6ff7f0eee8f111ee42b22c604c294b72f7239a0755a25ba3a8e944e",
        "steady_wd.csv": "73a9dc921a672eeae791e753d9bd40adcd2915d0d97ae0571303a17c9ed263ee",
    },
    "outage-sweep": {
        "outage_sweep.csv": "05d89a57de658873827b39add3700c00b25d0211c1a3b018ce96f37afc96952f",
    },
    "coverage": {
        "coverage.csv": "c1b789054cb36acde1d5fced10a42f4715bf0526f13f3e9c35e040de4e9cc5b8",
    },
    "act-plan --act cdc": {
        "act_pdfs.csv": "951c8ed838cbf4d3770632060403b0200d24c055b762e4f47d5b111e7b820478",
        "act_plan.csv": "f38943d674536de52c2552bf8c4dca04f84dcfd9e3ecee42c52ccd7872cf54ac",
    },
    "act-plan --act cve": {
        "act_pdfs.csv": "f4f29e147485a35341f6effaf47f17d21a66e6a8b7a114cb740a10425a50598c",
        "act_plan.csv": "6b925392b3973770a9460dffdbab80022f8992679f78e2085670fd929318eecf",
    },
}


@pytest.mark.parametrize("scheme, capacitance, airtime, n_bins", DENSE_CASES)
def test_matches_dense_reference(fig2, scheme, capacitance, airtime, n_bins):
    m = build_model(dataclasses.replace(fig2.phy, capacitance=capacitance), "thevenin")
    dense = reference_transition_matrix(SCHEMES[scheme], airtime, m, n_bins)
    tm = build_transition_matrix(SCHEMES[scheme], airtime, m, n_bins=n_bins)
    assert np.array_equal(dense != 0.0, ~outside_band(tm))
    x = np.random.default_rng(n_bins).standard_normal(n_bins)
    assert np.abs(tm.transpose(x) - dense.T @ x).max() <= 1e-15 * np.abs(x).sum()
    count = closed_classes(dense)[0]
    if count > 1:
        with pytest.raises(NumericalError, match=f"the chain has {count} closed classes"):
            stationary_distribution(tm)
        return
    sd = stationary_distribution(tm)
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
    assert time.perf_counter() - start < 0.1  # GTH elimination; ARPACK took over a second here
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
