"""Golden outputs of the analytic path: transition matrix, stationary law, CSVs.

`reference_transition_matrix` and `reference_power_iteration` are the dense
builder and solver that the band-sparse ones replaced: every cell of the
density matrix was evaluated, and the power iteration multiplied by the dense
matrix. The sparse path must keep every cell and self-loop row, and land on
the same stationary vector up to summation-order rounding. The CSV digests
were recorded from the dense path at the default configuration; like those of
`test_golden.py` they depend on numpy's vectorized log, exp and power kernels.
`python tests/test_golden_markov.py` prints the digests of the current code in
the layout of GOLDEN.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from loraeh.capacitor import CycleConstants, build_model
from loraeh.cli import main
from loraeh.markov import DecayFactorDistribution, build_transition_matrix, stationary_distribution
from loraeh.phy import ChargingScheme

BINS = 1000
AIRTIMES = (0.0366, 0.204, 0.682)  # SF7, SF10, SF12
SCHEMES = {
    "uniform": ChargingScheme.uniform(0.0, 100.0),
    "weibull-0.5": ChargingScheme.weibull(0.5, 50.0),
    "weibull-2": ChargingScheme.weibull(2.0, 50.0),
}

# CLI arguments -> {csv name: sha256}, default configuration
GOLDEN = {
    "steady-state": {
        "convergence.csv": "83f26ec25deafa5031aa94382520542ed7a0c0b0cc4a06829d77f95e20837ccf",
        "outage_summary.csv": "58c76978cacfb1c7fcde13bb5b91d18dd17154223c6c13e72c6fb1733ffc69bc",
        "steady_ud.csv": "75e9ecdd1ce8279739780015d2047754098a02b630f41df284ce2927598aeb24",
        "steady_wd.csv": "ad0d34485eb2416e7943d5606f792264f5a8f3ac9ba4fe2b37413b090fc74adb",
    },
    "outage-sweep": {
        "outage_sweep.csv": "1831ac3c7fd01a88c8f4abc808a114b79d11787830c29d6a3b7c12c1215af275",
    },
    "coverage": {
        "coverage.csv": "a7fc04b2fb37e62bfa5ea0c3eea7366640f20e65791e40f158d774caa485e081",
    },
    "act-plan --act cdc": {
        "act_pdfs.csv": "088c8f1d70dc590f03dca232def15a7c2b84401fe2fa30d2239de4289d2f1126",
        "act_plan.csv": "f6b36eb773521eed924853bfb01295278f5e69933529664607b3991cba8f0ac9",
    },
    "act-plan --act cve": {
        "act_pdfs.csv": "2490f623fa6a096425f8f9173f5be4dda60470b188d7c3c080aece9f561f973e",
        "act_plan.csv": "a808cd0007ea162f7bd7e94795d6fd7165360c6fa428df504639f105358341c1",
    },
}


def reference_transition_matrix(dist, cc, m, n_bins):
    """Dense density-variant matrix and self-loop mask: the density at every cell."""
    edges = np.linspace(m.v_limit_on, m.v_limit_off, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    lo, hi = dist.support()
    denom = cc.retention * (centers - cc.ceiling)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (centers[None, :] - cc.v_after_full) / denom[:, None]
        raw = np.where((x > lo) & (x <= hi) & (x > 0.0), dist.pdf(np.clip(x, 1e-300, None)), 0.0)
    rowsum = raw.sum(axis=1)
    self_loops = rowsum <= 0.0
    mat = np.where(self_loops[:, None], 0.0, raw / np.where(rowsum[:, None] > 0, rowsum[:, None], 1.0))
    idx = np.flatnonzero(self_loops)
    mat[idx, idx] = 1.0
    return mat, self_loops


def reference_power_iteration(mat, self_loops, tol=1e-10, max_iter=100000):
    """Left fixed point by dense power iteration from the uniform law on live states."""
    u = np.where(self_loops, 0.0, 1.0)
    u /= u.sum()
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


@pytest.mark.parametrize("airtime", AIRTIMES)
@pytest.mark.parametrize("capacitance", (0.01, 0.04))
@pytest.mark.parametrize("scheme", SCHEMES, ids=str)
def test_matches_dense_reference(fig2, scheme, capacitance, airtime):
    m = build_model(dataclasses.replace(fig2.phy, capacitance=capacitance), "thevenin")
    dist = DecayFactorDistribution(scheme=SCHEMES[scheme], tau_charge=m.tau_off)
    cc = CycleConstants.from_model(m, airtime)
    dense, self_loops = reference_transition_matrix(dist, cc, m, BINS)
    tm = build_transition_matrix(dist, cc, m, n_bins=BINS)
    got = tm.matrix.toarray()
    assert np.array_equal(got != 0.0, dense != 0.0)
    assert np.array_equal(tm.self_loops, self_loops)
    assert np.abs(got - dense).max() <= 1e-15
    sd = stationary_distribution(tm, method="power")
    ref = reference_power_iteration(dense, self_loops)
    assert 0.5 * np.abs(sd.probabilities - ref).sum() <= 1e-14


def test_self_loop_rows_match_dense_reference(fig2, model):
    # charging for at least 20 s leaves two of the top bins (not adjacent) without a target bin
    dist = DecayFactorDistribution(scheme=ChargingScheme.uniform(20.0, 60.0), tau_charge=model.tau_off)
    cc = CycleConstants.from_model(model, 0.204)
    dense, self_loops = reference_transition_matrix(dist, cc, model, 300)
    tm = build_transition_matrix(dist, cc, model, n_bins=300)
    assert self_loops.any() and not self_loops.all()
    assert np.array_equal(tm.self_loops, self_loops)
    assert np.array_equal(tm.matrix.toarray() != 0.0, dense != 0.0)
    assert np.abs(tm.matrix.toarray() - dense).max() <= 1e-15


def cli_digests(args, out):
    assert main([*args.split(), "--bins", str(BINS), "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize("args", GOLDEN)
def test_cli_digests(tmp_path, args):
    assert cli_digests(args, tmp_path) == GOLDEN[args]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for i, args in enumerate(GOLDEN):
            print(f"    {args!r}: {cli_digests(args, Path(tmp) / str(i))},")
