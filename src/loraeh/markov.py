"""Discretized Markov chain over end-of-cycle capacitor voltages.

The end-of-cycle voltage obeys v' = v_after_full + retention*X*(v - v_limit_off)
with X = exp(-nu/tau_off) a random decay factor, and retention and
v_after_full the constants that the capacitor model gives for the airtime.
On a grid of equal voltage bins, the chain moves from bin i to bin j with the
exact probability that this map sends the centre of bin i into bin j (Ulam's
discretization), which converges to the true stationary law as the grid
refines.

Each row of that matrix is nonzero on one contiguous band of target bins, so
it is stored as a scipy CSR array. The stationary law is the eigenvector of
its transpose for the eigenvalue 1, found by a dense LU solve on grids of up
to DENSE_BINS bins and by one implicitly restarted Arnoldi solve (ARPACK) on
finer ones. It is unique only when the chain has one closed class; a grid
too coarse for one cycle's change of voltage can split the chain into
several, and the solver then raises NumericalError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse
from scipy.sparse import csgraph
from scipy.sparse import linalg as sparse_linalg

from .capacitor import DEFAULT_BINS, CapacitorModel
from .errors import NumericalError
from .phy import ChargingScheme

DENSE_BINS = 300  # largest grid solved by dense LU; ARPACK is the faster one above it


@dataclass(frozen=True)
class DecayFactorDistribution:
    """Law of the charge-phase decay factor X = exp(-nu/tau_charge) in (0, 1]."""

    scheme: ChargingScheme
    tau_charge: float  # charge time constant [s]

    def mean(self) -> float:
        """E[X]; closed form for uniform and exponential schemes, quadrature otherwise."""
        s, tau = self.scheme, self.tau_charge
        if s.kind == "uniform":
            return -tau / (s.b - s.a) * math.exp(-s.a / tau) * math.expm1(-(s.b - s.a) / tau)
        if s.kind == "weibull" and s.k == 1.0:
            return tau / (s.w + tau)
        return s.quad(lambda t: s.pdf(t) * math.exp(-t / tau), 1e-9)


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic voltage-bin transition matrix."""

    matrix: sparse.csr_array  # (M, M)
    bin_edges: np.ndarray  # (M+1,)

    @property
    def n_bins(self) -> int:
        return self.matrix.shape[0]


def _leading_run(holds, n_rows: int, n: int) -> np.ndarray:
    """Per row, the length of the leading run of columns j < n on which holds is true.

    holds(j) takes one column index per row and returns one bool per row; it
    must be true then false along every row. The run is found by bisection.
    """
    k = np.zeros(n_rows, dtype=np.intp)
    step = 1 << (n.bit_length() - 1)
    while step:
        cand = k + step
        k = np.where((cand <= n) & holds(np.minimum(cand, n) - 1), cand, k)
        step >>= 1
    return k


def build_transition_matrix(
    scheme: ChargingScheme, airtime: float, m: CapacitorModel, n_bins: int = DEFAULT_BINS
) -> TransitionMatrix:
    """Transition matrix over n_bins equal voltage bins spanning the two rest levels.

    Cell (i, j) is the probability that one cycle of the given airtime maps
    the centre c_i of bin i into bin j. The map is decreasing in X, so the
    edge e of bin j maps to the charging time nu_e = -tau_off*ln((e -
    v_after_full) / (retention*(c_i - v_limit_off))), increasing in e, and the
    cell is S(nu_j) - S(nu_j+1) with S the survival of the scheme's nu.
    Edges at or above v_after_full give nu = +inf. A row is evaluated only on
    its band, from its last edge with S = 1 to its first edge with S = 0. The
    image of a row, [v_on + retention*(c_i - v_on), v_after_full], lies inside
    the grid, so every row holds probability 1.
    """
    if n_bins < 1:
        raise ValueError("need at least one bin")
    edges = np.linspace(m.v_limit_on, m.v_limit_off, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    # nu_e = tau_off*(log_d[i] - log_n[e]): one log per row and one per edge
    log_d = np.log(m.retention(airtime) * (m.v_limit_off - centers))  # v_limit_off is above every centre
    with np.errstate(divide="ignore"):
        log_n = np.log(np.maximum(m.v_after_full(airtime) - edges, 0.0))

    def surv(log_row, e):  # the band ends and the cells use this one expression
        return scheme.survival(m.tau_off * (log_row - log_n[e]))

    first = _leading_run(lambda e: surv(log_d, e) >= 1.0, n_bins, n_bins + 1)
    after = _leading_run(lambda e: surv(log_d, e) > 0.0, n_bins, n_bins + 1)
    start = np.maximum(first - 1, 0)
    n_edges = np.minimum(after, n_bins) - start + 1  # a row's k cells have k + 1 edges
    ends = np.cumsum(n_edges)
    rows = np.repeat(np.arange(n_bins), n_edges)
    cols = np.arange(ends[-1]) - np.repeat(ends - n_edges - start, n_edges)
    s = surv(log_d[rows], cols)
    cell = np.ones(ends[-1], dtype=bool)
    cell[ends - 1] = False  # a row's last edge starts no cell
    raw = (s[:-1] - s[1:])[cell[:-1]]
    rows, cols = rows[cell], cols[cell]
    keep = raw > 0.0
    if not keep.all():
        rows, cols, raw = rows[keep], cols[keep], raw[keep]
    rowsum = np.bincount(rows, weights=raw, minlength=n_bins)
    if not (rowsum > 0.0).all():
        raise NumericalError(f"voltage bin {int(np.argmin(rowsum > 0.0))} has no transition mass")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_bins))))
    idx = np.int32 if indptr[-1] <= np.iinfo(np.int32).max else np.int64  # 32-bit: faster products
    mat = sparse.csr_array((raw / rowsum[rows], cols.astype(idx), indptr.astype(idx)), shape=(n_bins, n_bins))
    return TransitionMatrix(matrix=mat, bin_edges=edges)


@dataclass(frozen=True)
class StationaryDistribution:
    """Stationary probability vector over voltage bins."""

    bin_edges: np.ndarray
    probabilities: np.ndarray

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

    def _tails(self, v_op: float) -> tuple[float, float]:
        """(P[V <= v_op], P[V > v_op]), the straddling bin split linearly.

        Each tail is one correctly rounded sum (math.fsum) of its own bins and
        its part of the straddling bin, so the outage is nondecreasing in v_op
        and a tail near 0 keeps full precision.
        """
        edges, u = self.bin_edges, self.probabilities
        if math.isnan(v_op):
            raise ValueError("the threshold v_op is NaN")
        if v_op <= edges[0]:
            return 0.0, 1.0
        if v_op >= edges[-1]:
            return 1.0, 0.0
        k = int(np.searchsorted(edges, v_op, side="right")) - 1
        frac = (v_op - edges[k]) / (edges[k + 1] - edges[k])
        below = math.fsum(np.append(u[:k], u[k] * frac))
        above = math.fsum(np.append(u[k + 1 :], u[k] * (1.0 - frac)))
        # the normalization can leave a tail just above 1
        return min(below, 1.0), min(above, 1.0)

    def outage(self, v_op: float) -> float:
        """P[end-of-cycle voltage <= v_op]."""
        return self._tails(v_op)[0]

    def availability(self, v_op: float) -> float:
        """P[end-of-cycle voltage > v_op], to full precision where the outage is near 1."""
        return self._tails(v_op)[1]


RESIDUAL_TOL = 1e-10  # largest entry of |u P - u| a stationary law may leave


def stationary_distribution(tm: TransitionMatrix, max_iter: int = 100000) -> StationaryDistribution:
    """Left fixed point u = u P of the row-stochastic matrix P, L1-normalized.

    The law is unique only when P has one closed class (a set of bins that
    no transition leaves); more than one raises NumericalError. Grids of up
    to DENSE_BINS bins solve u (I - P) = 0, sum(u) = 1 exactly by dense LU.
    Finer ones take the eigenvector of P^T for the eigenvalue 1, found by
    implicitly restarted Arnoldi (ARPACK) from the uniform law with about
    max_iter products with P at most. Asking for the eigenvalue of largest
    real part ("LR") picks 1 alone, also on a periodic chain. Bins outside
    the closed class are transient and get exactly 0. tm.matrix may also be
    a dense array.
    """
    mat = sparse.csr_array(tm.matrix)
    n = tm.n_bins
    # a strongly connected class is closed when no stored transition leaves it
    n_classes, labels = csgraph.connected_components(mat, directed=True, connection="strong")
    src = np.repeat(labels, np.diff(mat.indptr))
    leaves = np.zeros(n_classes, dtype=bool)
    leaves[src[src != labels[mat.indices]]] = True
    closed = np.flatnonzero(~leaves)
    if closed.size > 1:
        raise NumericalError(
            f"the chain has {closed.size} closed classes, so its stationary law is not unique: "
            f"the grid of {n} bins is too coarse for one cycle's change of voltage"
        )
    if n <= DENSE_BINS:
        # (I - P^T) u = 0 with its last row replaced by sum(u) = 1; LAPACK is called
        # directly, so an ill-conditioned system raises here and scipy emits no LinAlgWarning
        a = np.eye(n) - mat.toarray().T
        a[-1] = 1.0
        lu, piv, info = linalg.lapack.dgetrf(a)
        rcond = linalg.lapack.dgecon(lu, np.abs(a).sum(axis=0).max(), norm="1")[0] if info == 0 else 0.0
        if not rcond >= np.finfo(float).eps:
            raise NumericalError(
                f"the {n}-bin chain's stationary law is singular to working precision (reciprocal condition "
                f"number {rcond:.2g}): it is too close to having several closed classes"
            )
        e_n = np.zeros(n)
        e_n[-1] = 1.0
        u = linalg.lapack.dgetrs(lu, piv, e_n)[0]
    else:
        ncv = min(n, 20)
        try:
            vals, vecs = sparse_linalg.eigs(
                mat.T, k=1, which="LR", v0=np.full(n, 1.0 / n), ncv=ncv, maxiter=max(1, max_iter // ncv)
            )
        except sparse_linalg.ArpackError as exc:
            raise NumericalError(f"Arnoldi solve for the stationary law failed: {exc}") from exc
        u = vecs[:, np.argmax(vals.real)].real
    u = np.maximum(u / u.sum(), 0.0)
    u[labels != closed[0]] = 0.0
    u /= u.sum()
    if not np.abs(mat.T @ u - u).max() <= RESIDUAL_TOL:  # a NaN fails too
        raise NumericalError(f"the stationary law misses its residual {RESIDUAL_TOL}")
    return StationaryDistribution(bin_edges=tm.bin_edges, probabilities=u)


def stationary_pdf(sd: StationaryDistribution) -> tuple[np.ndarray, np.ndarray]:
    """(bin centers, density) pairs; density = probability / bin width."""
    return sd.centers, sd.probabilities / sd.delta


def steady_state(
    scheme: ChargingScheme, airtime: float, m: CapacitorModel, n_bins: int = DEFAULT_BINS
) -> StationaryDistribution:
    """Full pipeline: transition matrix -> stationary distribution."""
    return stationary_distribution(build_transition_matrix(scheme, airtime, m, n_bins))
