"""Discretized Markov chain over end-of-cycle capacitor voltages.

The end-of-cycle voltage obeys v' = v_after_full + retention*X*(v - ceiling)
with X = exp(-nu/tau_off) a random decay factor, so the stationary law on a
voltage grid follows from a row-normalized transition matrix built from the
density of X.

Each row of that matrix is nonzero on one contiguous band of target bins, so
it is stored as a scipy CSR array and the stationary law is found by power
iteration on its prebuilt transpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, sparse

from .capacitor import CapacitorModel, CycleConstants
from .errors import NumericalError
from .phy import ChargingScheme

DEFAULT_BINS = 2000


@dataclass(frozen=True)
class DecayFactorDistribution:
    """Law of the charge-phase decay factor X = exp(-nu/tau_charge) in (0, 1]."""

    scheme: ChargingScheme
    tau_charge: float  # charge time constant [s]

    def support(self) -> tuple[float, float]:
        lo, hi = self.scheme.support()
        upper = math.exp(-lo / self.tau_charge)
        lower = 0.0 if math.isinf(hi) else math.exp(-hi / self.tau_charge)
        return (lower, upper)

    def pdf(self, x):
        """Density tau/x * f_nu(-tau*ln x) on the support, vectorized."""
        x = np.asarray(x, dtype=float)
        lo, hi = self.support()
        inside = (x > max(lo, 0.0)) & (x <= hi) & (x > 0.0)
        safe = np.where(inside, x, 0.5)
        nu = -self.tau_charge * np.log(safe)
        out = np.where(inside, self.tau_charge / safe * self.scheme.pdf(nu), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        """P[X <= x] = P[nu >= -tau*ln x]."""
        x = np.asarray(x, dtype=float)
        clipped = np.clip(x, 1e-300, 1.0)
        out = self.scheme.survival(-self.tau_charge * np.log(clipped))
        out = np.where(x <= 0.0, 0.0, np.where(x >= 1.0, 1.0, out))
        return out if out.ndim else float(out)

    def mean(self) -> float:
        """E[X]; closed form for uniform and exponential schemes, quadrature otherwise."""
        s, tau = self.scheme, self.tau_charge
        if s.kind == "uniform":
            if s.b == s.a:
                return math.exp(-s.a / tau)
            return -tau / (s.b - s.a) * math.exp(-s.a / tau) * math.expm1(-(s.b - s.a) / tau)
        if s.kind == "weibull" and s.k == 1.0:
            return tau / (s.w + tau)
        lo, hi = s.support()
        val, err = integrate.quad(
            lambda t: s.pdf(t) * math.exp(-t / tau), lo, hi, epsabs=0.0, epsrel=1e-11, limit=500
        )
        if not math.isfinite(val) or err > max(1e-9 * abs(val), 1e-300):
            raise NumericalError(f"decay-factor quadrature did not converge (err={err:.2e})")
        return val


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic voltage-bin transition matrix."""

    matrix: sparse.csr_array  # (M, M)
    bin_edges: np.ndarray  # (M+1,)
    self_loops: np.ndarray  # bool mask of rows with no feasible transition

    @property
    def n_bins(self) -> int:
        return self.matrix.shape[0]


def _count_above(num: np.ndarray, denom: np.ndarray, t: float) -> np.ndarray:
    """Per row i, the number of leading columns j with num[j] / denom[i] > t.

    num is nondecreasing and denom[i] < 0, so num[j] / denom[i] is
    nonincreasing in j (rounding is monotone too) and the cells above t form
    a prefix; its length is found by bisection on that exact expression.
    """
    n = num.size
    k = np.zeros(denom.size, dtype=np.intp)
    step = 1 << (n.bit_length() - 1)
    while step:
        cand = k + step
        k = np.where((cand <= n) & (num[np.minimum(cand, n) - 1] / denom > t), cand, k)
        step >>= 1
    return k


def _support_cells(num: np.ndarray, denom: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (row, column) of the cells with lo < num[j] / denom[i] <= hi and a positive ratio.

    A row whose denom is not negative has no such cell: its ratios are +-inf
    or nan.
    """
    start = _count_above(num, denom, hi)
    stop = np.where(denom < 0.0, _count_above(num, denom, max(lo, 0.0)), start)
    counts = np.maximum(stop - start, 0)
    ends = np.cumsum(counts)
    rows = np.repeat(np.arange(denom.size), counts)
    cols = np.arange(ends[-1]) - np.repeat(ends - counts - start, counts)
    return rows, cols


def build_transition_matrix(
    dist: DecayFactorDistribution,
    cc: CycleConstants,
    m: CapacitorModel,
    n_bins: int = DEFAULT_BINS,
    variant: str = "density",
) -> TransitionMatrix:
    """Transition matrix over n_bins equal voltage bins spanning the two rest levels.

    variant "density" evaluates the decay-factor density at bin-center pairs
    and row-normalizes; "mass" integrates exact probability mass per target
    bin via the decay-factor cdf. Both converge to the same chain as the grid
    refines. The density variant evaluates only each row's support band,
    where the decay factor mapping the row's center to a target center lies
    in the support of X.
    """
    if n_bins < 1:
        raise ValueError("need at least one bin")
    edges = np.linspace(m.v_limit_on, m.v_limit_off, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    lo, hi = dist.support()
    denom = cc.retention * (centers - cc.ceiling)  # < 0 on the grid interior
    with np.errstate(divide="ignore", invalid="ignore"):
        if variant == "density":
            num = centers - cc.v_after_full
            rows, cols = _support_cells(num, denom, lo, hi)
            raw = dist.pdf(np.clip(num[cols] / denom[rows], 1e-300, None))
        elif variant == "mass":
            # target voltage decreases with the decay factor, so the mapped
            # edge decays are decreasing in bin index
            x_edges = np.clip((edges[None, :] - cc.v_after_full) / denom[:, None], 0.0, 1.0)
            cdfs = dist.cdf(x_edges)
            dense = np.maximum(cdfs[:, :-1] - cdfs[:, 1:], 0.0)
            rows, cols = np.nonzero(dense)
            raw = dense[rows, cols]
        else:
            raise ValueError(f"unknown transition variant {variant!r}")
    rowsum = np.bincount(rows, weights=raw, minlength=n_bins)
    self_loops = rowsum <= 0.0
    if self_loops.all():
        raise NumericalError("no feasible transitions anywhere on the voltage grid")
    keep = raw > 0.0  # self-loop rows hold no positive cell
    if not keep.all():
        rows, cols, raw = rows[keep], cols[keep], raw[keep]
    kept = np.bincount(rows, minlength=n_bins)
    indptr = np.concatenate(([0], np.cumsum(kept + self_loops)))
    # each self-loop row's diagonal 1 goes where its empty row starts
    loops = np.flatnonzero(self_loops)
    at = np.cumsum(kept)[loops]
    idx = np.int32 if indptr[-1] <= np.iinfo(np.int32).max else np.int64  # 32-bit: faster products
    mat = sparse.csr_array(
        (np.insert(raw / rowsum[rows], at, 1.0), np.insert(cols, at, loops).astype(idx), indptr.astype(idx)),
        shape=(n_bins, n_bins),
    )
    return TransitionMatrix(matrix=mat, bin_edges=edges, self_loops=self_loops)


@dataclass(frozen=True)
class StationaryDistribution:
    """Stationary probability vector over voltage bins."""

    bin_edges: np.ndarray
    probabilities: np.ndarray

    @property
    def n_bins(self) -> int:
        return self.probabilities.size

    @property
    def delta(self) -> float:
        return float(self.bin_edges[1] - self.bin_edges[0])

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def mean(self) -> float:
        return float(np.dot(self.probabilities, self.centers))

    def std(self) -> float:
        mu = self.mean()
        return float(np.sqrt(np.dot(self.probabilities, (self.centers - mu) ** 2)))

    def outage(self, v_op: float) -> float:
        """P[end-of-cycle voltage <= v_op], straddling bin linearly interpolated."""
        edges, u = self.bin_edges, self.probabilities
        if v_op <= edges[0]:
            return 0.0
        if v_op >= edges[-1]:
            return 1.0
        k = int(np.searchsorted(edges, v_op, side="right")) - 1
        total = float(u[:k].sum())
        frac = (v_op - edges[k]) / (edges[k + 1] - edges[k])
        # rounding in the sum can leave the result just outside [0, 1]
        return min(max(total + float(u[k]) * frac, 0.0), 1.0)


def stationary_distribution(tm: TransitionMatrix, tol: float = 1e-10, max_iter: int = 100000) -> StationaryDistribution:
    """Left fixed point u = u S of the row-stochastic matrix, L1-normalized.

    Power iteration as products with the CSR transpose built once, started
    from the uniform law on the live states so that unreachable self-loop
    padding states carry no stationary mass. tm.matrix may also be a dense
    array.
    """
    if tm.self_loops.all():
        raise NumericalError("no live state to start power iteration from")
    mat_t = sparse.csr_array(tm.matrix).T.tocsr()
    u = np.where(tm.self_loops, 0.0, 1.0)
    u /= u.sum()
    for _ in range(max_iter):
        nxt = mat_t @ u
        s = nxt.sum()
        if s <= 0:
            raise NumericalError("power iteration collapsed to zero mass")
        nxt /= s
        res = np.abs(nxt - u).max()
        u = nxt
        if res < tol * 1e-2:
            break
    if np.abs(mat_t @ u - u).max() > tol:
        raise NumericalError(f"power iteration did not reach residual {tol}")
    u = np.maximum(u, 0.0)
    u /= u.sum()
    return StationaryDistribution(bin_edges=tm.bin_edges, probabilities=u)


def stationary_pdf(sd: StationaryDistribution) -> tuple[np.ndarray, np.ndarray]:
    """(bin centers, density) pairs; density = probability / bin width."""
    return sd.centers, sd.probabilities / sd.delta


def steady_state(
    scheme: ChargingScheme, airtime: float, m: CapacitorModel, n_bins: int = DEFAULT_BINS
) -> StationaryDistribution:
    """Full pipeline: decay law -> transition matrix -> stationary distribution."""
    dist = DecayFactorDistribution(scheme=scheme, tau_charge=m.tau_off)
    cc = CycleConstants.from_model(m, airtime)
    return stationary_distribution(build_transition_matrix(dist, cc, m, n_bins=n_bins))
