"""Discretized Markov chain over end-of-cycle capacitor voltages.

The end-of-cycle voltage obeys v' = v_after_full + retention*X*(v - v_limit_off)
with X = exp(-nu/tau_off) a random decay factor, and retention and
v_after_full the constants that the capacitor model gives for the airtime.
On a grid of equal voltage bins, the chain moves from bin i to bin j with the
exact probability that this map sends the centre of bin i into bin j (Ulam's
discretization), which converges to the true stationary law as the grid
refines.

Each row of that matrix is nonzero on one contiguous band of target bins,
whose ends are nondecreasing down the rows. A TransitionMatrix holds the
band ends and P^T as a function x -> P^T x. Up to DENSE_BINS bins that
function is the product with the dense matrix of the cells. Above it no
chain forms the matrix: a product with P^T takes a few vector operations of
length n_bins for the uniform scheme, at most log2(n_bins) more for the
exponential one (Weibull k = 1), and for any other Weibull shape a kernel
sum that interpolates the survival function on Chebyshev points away from
nu = 0 and keeps the cells near it. The stationary law is the left eigenvector of P for the eigenvalue
1. It is unique only when the chain has one closed class, which is read from
the band ends; a grid too coarse for one cycle's change of voltage can split
the chain into several, and the solve then raises NumericalError. Up to
DENSE_BINS bins GTH elimination on the closed class finds the law, every
entry to working relative accuracy; above it Arnoldi with thick restarts,
in numpy. Two paths load scipy, when they run: the kernel sum, for its block
sparse matrices, and `DecayFactorDistribution.mean` for Weibull k != 1, whose
`ChargingScheme.expectation` integrates with `scipy.integrate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .capacitor import DEFAULT_BINS, CapacitorModel
from .errors import NumericalError
from .phy import ChargingScheme

DENSE_BINS = 300  # largest grid kept as a dense matrix and solved by GTH elimination


@dataclass(frozen=True)
class DecayFactorDistribution:
    """Law of the charge-phase decay factor X = exp(-nu/tau_charge) in (0, 1]."""

    scheme: ChargingScheme
    tau_charge: float  # charge time constant [s]

    def mean(self) -> float:
        """E[X]; closed form for uniform and exponential schemes, `ChargingScheme.expectation` otherwise."""
        s, tau = self.scheme, self.tau_charge
        if s.kind == "uniform":
            return -tau / (s.b - s.a) * math.exp(-s.a / tau) * math.expm1(-(s.b - s.a) / tau)
        if s.kind == "weibull" and s.k == 1.0:
            return tau / (s.w + tau)
        return s.expectation(lambda t: math.exp(-t / tau), 1e-9)


@dataclass(frozen=True)
class TransitionMatrix:
    """A row-stochastic voltage-bin chain P: row i is nonzero on the bins [first[i] - 1, after[i]) only."""

    bin_edges: np.ndarray  # (M+1,)
    first: np.ndarray  # (M,) nondecreasing
    after: np.ndarray  # (M,) nondecreasing
    transpose: Callable[[np.ndarray], np.ndarray]  # x -> P^T x, x of shape (M,)

    @property
    def n_bins(self) -> int:
        return self.bin_edges.size - 1


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


def _bands(scheme: ChargingScheme, airtime: float, m: CapacitorModel, n_bins: int):
    """The grid of a chain and each row's band: (edges, log_d, log_n, surv, first, after).

    n_bins equal voltage bins span the two rest levels. Cell (i, j) is the
    probability that one cycle of the given airtime maps the centre c_i of
    bin i into bin j. The map is decreasing in X, so the edge e of bin j maps
    to the charging time nu_e = -tau_off*ln((e - v_after_full) /
    (retention*(c_i - v_limit_off))), increasing in e, and the cell is
    S(nu_j) - S(nu_j+1) with S the survival of the scheme's nu. Edges at or
    above v_after_full give nu = +inf. nu_e = tau_off*(log_d[i] - log_n[e]),
    and surv(log_d[rows], e) is S(nu_e) in the given rows. In row i, edges e
    < first[i] have S = 1 and edges e >= after[i] have S = 0, so its cells
    are nonzero on the band [first[i] - 1, after[i]) only; first and after
    are nondecreasing in i. The image of a row, [v_on + retention*(c_i -
    v_on), v_after_full], lies inside the grid, so every row holds
    probability 1.
    """
    if n_bins < 1:
        raise ValueError("need at least one bin")
    if m.retention(airtime) == 0.0:  # the logs below would be -inf and nan
        raise NumericalError(f"one transmission of {airtime:g} s drains the capacitor to v_limit_on: no chain exists")
    edges = np.linspace(m.v_limit_on, m.v_limit_off, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    # nu_e = tau_off*(log_d[i] - log_n[e]): one log per row and one per edge
    log_d = np.log(m.retention(airtime) * (m.v_limit_off - centers))  # v_limit_off is above every centre
    with np.errstate(divide="ignore"):
        log_n = np.log(np.maximum(m.v_after_full(airtime) - edges, 0.0))

    def surv(log_row, e):  # the band ends and the product use this one expression
        return scheme.survival(m.tau_off * (log_row - log_n[e]))

    first = _leading_run(lambda e: surv(log_d, e) >= 1.0, n_bins, n_bins + 1)
    after = _leading_run(lambda e: surv(log_d, e) > 0.0, n_bins, n_bins + 1)
    if not (after > 0).all():
        raise NumericalError(f"voltage bin {int(np.argmin(after > 0))} has no transition mass")
    return edges, log_d, log_n, surv, first, after


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
MAX_ITER = 100000  # about the most products with P one Arnoldi solve may take
NEGLIGIBLE = 2.0**-60  # the product with P^T drops carried mass below this share of |x|_1
CHEB_NODES = 20  # Chebyshev points per side of a far-field block of _kernel_sum
LEAF = 16  # side of _kernel_sum's blocks kept cell by cell
MAX_HAZARD = 4.0  # largest |hazard| on the ellipse around a far-field block of _kernel_sum


def _arnoldi(pt, recurrent: np.ndarray) -> np.ndarray:
    """The eigenvector of P^T for its eigenvalue of largest real part, by Arnoldi with thick restarts.

    It starts from the law one cycle after the uniform law on the closed
    class (the mask recurrent). No transition leaves the class, so the basis
    stays on it and no transient bin's slow escape enters the solve; and the
    step, a product with a law, gives the start a law's small tails, which
    the basis then need not cancel to rounding. A basis of up to 20 vectors
    is built by classical Gram-Schmidt, with a second pass where the first
    drops |w| below 0.717 of its value (Daniel, Gragg, Kaufman & Stewart
    1976); if the second drops it again, w lies in the span, which P^T then
    maps into itself. Each full basis is restarted on the 8 Ritz vectors of
    largest real part, conjugate pairs kept whole as their real and
    imaginary parts: with Q their orthonormal basis, the basis becomes Q^T V
    and its Rayleigh quotient Q^T H Q, and the next vector carries over
    (Stewart, "A Krylov-Schur algorithm for large eigenproblems", 2001).
    The solve stops on ARPACK's rule for tol = 0, the Ritz estimate |h y| <=
    eps |theta| for the Ritz value of largest real part, and returns the
    refined Ritz vector for the eigenvalue 1 (Jia 1997): the basis times the
    last right singular vector of H - [I; 0]. On a stochastic matrix that
    eigenvalue is 1 alone, also on a periodic chain, and the start, a law,
    has a component along its eigenvector. NumericalError if the solve has
    not stopped once MAX_ITER products, the start's included, are spent.
    """
    n = recurrent.size
    m = min(n, 20)
    v = np.empty((m + 1, n))
    h = np.zeros((m + 1, m))  # the Krylov relation: P^T v[i] is the sum of h[r, i] v[r] over r = 0..m
    start = pt(recurrent / np.count_nonzero(recurrent))
    v[0] = start / math.sqrt(start @ start)
    k, products = 0, 1
    while True:
        for j in range(k, m):
            w = pt(v[j])
            products += 1
            basis = v[: j + 1]
            c = basis @ w
            norm2, w = w @ w, w - c @ basis
            w2 = w @ w
            if w2 <= 0.514 * norm2:  # 0.717^2
                d = basis @ w
                w -= d @ basis
                c += d
                norm2, w2 = w2, w @ w
            h[: j + 1, j] = c
            if w2 <= 0.514 * norm2:  # w is in the span: P^T maps the basis's span into itself
                m = j + 1
                break
            h[j + 1, j] = math.sqrt(w2)
            v[j + 1] = w / h[j + 1, j]
        theta, y = np.linalg.eig(h[:m, :m])
        order = np.argsort(-theta.real, kind="stable")  # conjugate pairs stay adjacent
        estimate = abs(h[m, :m] @ y[:, order[0]])
        if estimate <= np.finfo(float).eps * abs(theta[order[0]]):
            return np.linalg.svd(h[: m + 1, :m] - np.eye(m + 1, m))[2][-1] @ v[:m]
        if products >= MAX_ITER:
            raise NumericalError(
                f"the Arnoldi solve for the stationary law did not converge in {products} products: "
                f"its Ritz estimate is {estimate:.1e}"
            )
        keep = order[:8]
        keep = keep[theta[keep].imag >= 0.0]  # one of each pair, whole if its partner is past the 8
        q = np.linalg.qr(np.hstack([y[:, keep].real, y[:, keep[theta[keep].imag > 0.0]].imag]))[0]
        k = q.shape[1]
        v[:k], v[k] = q.T @ v[:m], v[m]
        h[:k, :k], h[k, :k] = q.T @ h[:m] @ q, h[m] @ q
        h[k + 1 :], h[:, k:] = 0.0, 0.0


def _law(u: np.ndarray, recurrent: np.ndarray, pt, bin_edges: np.ndarray) -> StationaryDistribution:
    """u normalized, exactly 0 off the closed class, and held to RESIDUAL_TOL against P^T."""
    u = np.maximum(u / u.sum(), 0.0)
    u[~recurrent] = 0.0
    u /= u.sum()
    if not np.abs(pt(u) - u).max() <= RESIDUAL_TOL:  # a NaN fails too
        raise NumericalError(f"the stationary law misses its residual {RESIDUAL_TOL}")
    return StationaryDistribution(bin_edges=bin_edges, probabilities=u)


def _gth(p: np.ndarray, first: np.ndarray, after: np.ndarray, recurrent: np.ndarray) -> np.ndarray:
    """The stationary law of the closed class of the dense P, 0 elsewhere, by GTH elimination.

    The bins of the class are eliminated from the top down, each folded into
    the bins that reach it, and the law is read back from the lowest bin up
    (Grassmann, Taksar & Heyman 1985). No step subtracts, so every entry
    comes to working relative accuracy (O'Cinneide 1993). Folding bin i keeps
    the band shape, so its rank-1 update touches only the rows whose band
    ends above i and the columns of its own band. The law is rescaled by
    powers of 2 as it is read back, and entries below the normal double range
    come out as 0.
    """
    lo = int(np.argmax(recurrent))
    k = np.count_nonzero(recurrent)
    a = p[lo : lo + k, lo : lo + k].copy()
    # row i of the class reaches the columns from left_i on; column i is reached from the rows from reach_i on
    left = np.maximum(first[lo : lo + k] - 1, 0) - lo
    reach = np.searchsorted(after[lo : lo + k] - lo, np.arange(k), side="right")
    for i in range(k - 1, 0, -1):
        rows, cols = slice(reach[i], i), slice(left[i], i)
        a[rows, i] /= a[i, cols].sum()
        a[rows, cols] += a[rows, i, None] * a[i, cols]
    u = np.zeros(p.shape[0])
    law = u[lo : lo + k]
    law[0] = 1.0
    for i in range(1, k):
        law[i] = law[reach[i] : i] @ a[reach[i] : i, i]
        if law[i] > 1.0:
            law[: i + 1] = np.ldexp(law[: i + 1], -math.frexp(law[i])[1])
    u /= u.sum()
    u[u < np.finfo(float).tiny] = 0.0  # a subnormal entry carries fewer digits
    return u


def stationary_distribution(tm: TransitionMatrix) -> StationaryDistribution:
    """Left fixed point u = u P of the chain, L1-normalized.

    The law is unique only when P has one closed class (a set of bins that
    no transition leaves), read from the band ends (_recurrent_bins); more
    than one raises NumericalError. Grids of up to DENSE_BINS bins read P
    as P^T applied to the identity and solve it by GTH elimination (_gth).
    Finer ones take the eigenvector of P^T for the eigenvalue 1 from a start
    on the closed class (_arnoldi), which raises NumericalError once it has
    spent MAX_ITER products. Bins outside the closed class are transient and
    get exactly 0.
    """
    n, pt = tm.n_bins, tm.transpose
    recurrent = _recurrent_bins(tm.first, tm.after)
    if n <= DENSE_BINS:
        u = _gth(pt(np.eye(n)).T, tm.first, tm.after, recurrent)
    else:
        u = _arnoldi(pt, recurrent)
    return _law(u, recurrent, pt, tm.bin_edges)


def build_transition_matrix(
    scheme: ChargingScheme, airtime: float, m: CapacitorModel, n_bins: int = DEFAULT_BINS
) -> TransitionMatrix:
    """The chain over n_bins equal voltage bins spanning the two rest levels, P^T as a function.

    Cell (i, j) is the probability that one cycle of the given airtime maps
    the centre of bin i into bin j, S_ij - S_i,j+1 with S_ie the survival at
    edge e in row i (see _bands), over the row's sum. Up to DENSE_BINS bins
    P^T holds those cells, evaluated on the whole grid. Above it no cell is
    stored: with w = x / rowsum, (P^T x)_j is the sum of w_i (S_ij -
    S_i,j+1) over the rows whose band holds column j. A row's first cell, in column first - 1, is 1 - S at
    edge first. Past it both edges of a cell lie on the row's ramp 0 < S < 1,
    where
    - uniform: S is linear in nu, so every such cell of column j is the same
      tau_off*(log_n[j] - log_n[j+1]) / (b - a), and the rows that hold one
      form one run [lo_j, hi_j), read from the prefix sums of w. A row's last
      cell, in column after - 1, is S at edge after - 1.
    - exponential: S_i,j+1 = g_j S_ij with g_j = exp(-tau_off*(log_n[j] -
      log_n[j+1]) / w), so v_j, the sum of w_i S_ij over the rows with
      first_i <= j, obeys v_j = g_(j-1) v_(j-1) + (the w_i S_ij of the rows
      with first_i = j), and column j gets v_j (1 - g_j). The recurrence runs
      by doubling (Hillis & Steele 1986): each step multiplies by products of
      the g, all at most 1, and the steps stop once what is still carried is
      below NEGLIGIBLE. No exponent is larger than one cell's.
    - any other: column j gets v_j - v_(j+1), with v_e the same sum over the
      rows with first_i <= e, taken by _kernel_sum, and the 1 of each row's
      first cell.
    A row's sum telescopes to S at edge first - 1, which is 1 unless first is 0.
    """
    edges, log_d, log_n, surv, first, after = _bands(scheme, airtime, m, n_bins)
    n = n_bins
    if n <= DENSE_BINS:
        s = surv(log_d[:, None], np.arange(n + 1))
        cells = s[:, :-1] - s[:, 1:]  # 0 off each band: S is 1 on both edges, or 0
        pt = (cells / cells.sum(axis=1, keepdims=True)).T.__matmul__
        return TransitionMatrix(bin_edges=edges, first=first, after=after, transpose=pt)
    head_col = np.maximum(first - 1, 0)
    s_first = surv(log_d, first)  # first <= n_bins: S is 0 at the top edge
    head = np.where(first > 0, 1.0 - s_first, 0.0)
    rowsum = surv(log_d, head_col)
    with np.errstate(invalid="ignore"):
        step = m.tau_off * (log_n[:-1] - log_n[1:])  # growth of nu across bin j
    step[np.isnan(step)] = np.inf  # both edges at or above v_after_full: -inf - -inf
    if scheme.kind == "uniform":
        cols = np.arange(n)
        hi = np.searchsorted(first, cols, side="right")  # rows with first <= j ...
        lo = np.minimum(np.searchsorted(after, cols + 1, side="right"), hi)  # ... and after >= j + 2
        slope = np.where(hi > lo, step / (scheme.b - scheme.a), 0.0)
        tail_col = np.maximum(after - 1, 0)
        tail = np.where(after - 1 >= first, surv(log_d, tail_col), 0.0)

        def matvec(x):
            w = x / rowsum
            prefix = np.concatenate(([0.0], np.cumsum(w)))
            ends = np.bincount(head_col, w * head, n) + np.bincount(tail_col, w * tail, n)
            return slope * (prefix[hi] - prefix[lo]) + ends

    elif scheme.k == 1.0:
        carry = np.exp(-step / scheme.w)
        gap = -np.expm1(-step / scheme.w)  # 1 - carry to full precision
        levels = []  # (span, product of the carries over the span ending at each j >= span)
        factor = np.concatenate(([0.0], carry[:-1]))
        span = 1
        while span < n and factor[span:].max() > NEGLIGIBLE:
            levels.append((span, factor[span:].copy()))
            factor[span:] = factor[span:] * factor[:-span]
            span *= 2

        def matvec(x):
            w = x / rowsum
            v = np.bincount(first, w * s_first, n + 1)[:n]
            for span, f in levels:
                v[span:] += f * v[:-span]
            return gap * v + np.bincount(head_col, w * head, n)

    else:
        ramp = _kernel_sum(scheme, airtime, m, log_d, log_n, surv, first)
        lead = (first > 0).astype(float)

        def matvec(x):
            w = x / rowsum
            v = ramp(w)
            return v[:-1] - v[1:] + np.bincount(head_col, w * lead, n)

    return TransitionMatrix(bin_edges=edges, first=first, after=after, transpose=matvec)


def _chebyshev(h: int) -> tuple[np.ndarray, np.ndarray]:
    """The CHEB_NODES Chebyshev points on [0, h - 1], and their Lagrange basis at 0..h - 1 as (h, CHEB_NODES).

    The basis is in barycentric form (Berrut & Trefethen 2004). The points
    are irrational, so none is an integer.
    """
    theta = (2 * np.arange(CHEB_NODES) + 1) * np.pi / (2 * CHEB_NODES)
    nodes = 0.5 * (h - 1) * (1.0 - np.cos(theta))
    c = (-1.0) ** np.arange(CHEB_NODES) * np.sin(theta) / (np.arange(h)[:, None] - nodes)
    return nodes, c / c.sum(axis=1, keepdims=True)


def _kernel_sum(scheme: ChargingScheme, airtime: float, m: CapacitorModel, log_d, log_n, surv, first):
    """The map w -> v, v_e being the sum of w_i S_ie over the rows i with first_i <= e, e = 0..n_bins.

    Weibull chains with k != 1 take it. In continuous row and edge indices xi
    and eta, S is a function of s = n - 1/2 - xi and t = top - eta, top being
    the edge index of v_after_full: S(tau_off*ln(retention*s / t)). It is
    smooth but on the line retention*s = t, where nu = 0, and at s = 0 and t
    = 0; the cells with first_i <= e lie right of that line. The (row, edge)
    grid, padded to a power of two, is split as a quadtree (Hackbusch 1999),
    one level at a time:
    - a block is dropped if S = 1 in all its cells (e < first_i), as v leaves
      those out, or if S is at most NEGLIGIBLE in all;
    - a block wholly at e >= first_i and at least its own side from t = 0
      and from the line (and so from s = 0) is replaced by S at CHEB_NODES
      Chebyshev points per side (the far field of Fong & Darve 2009) if the
      hazard H = (nu/w)^k, lo <= H <= hi on the block, has hi <= e*lo or
      hi^2 <= MAX_HAZARD*lo;
    - any other block is split in four, down to side LEAF, kept cell by cell.
    The distance puts each singularity outside the ellipse on which the
    interpolation error falls like 5.8^-CHEB_NODES. On that ellipse ln H
    reaches about one range of it beyond the block's, so the first hazard
    rule keeps the phase of H below pi/2 (|S| < 1 there) and the second
    keeps |H| <= MAX_HAZARD. All blocks of a level share one Lagrange
    matrix, and each level is one block sparse matrix over the boxes: a
    product takes three array products per level.
    """
    n = first.size
    size = max(1 << n.bit_length(), LEAF)  # above the n + 1 edges
    top = (m.v_after_full(airtime) - m.v_limit_on) / (m.v_limit_off - m.v_limit_on) * n
    ret = m.retention(airtime)
    rows, cols = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp)  # block indices at side h
    h, far = size, []
    while True:
        r0, c0 = rows * h, cols * h
        keep = (r0 < n) & (c0 <= n)
        rows, cols, r0, c0 = rows[keep], cols[keep], r0[keep], c0[keep]
        r1, c1 = np.minimum(r0 + h, n) - 1, np.minimum(c0 + h - 1, n)  # last row and edge on the grid
        keep = (c1 >= first[r0]) & (surv(log_d[r1], c0) > NEGLIGIBLE)  # S is largest at (r1, c0)
        rows, cols, r0, c0, r1, c1 = (a[keep] for a in (rows, cols, r0, c0, r1, c1))
        if h == LEAF:
            break
        with np.errstate(over="ignore", invalid="ignore"):  # H is NaN left of the line, may overflow right of it
            lo, hi = ((m.tau_off * (log_d[r] - log_n[c]) / scheme.w) ** scheme.k for r, c in ((r1, c0), (r0, c1)))
            smooth = (
                (top - (c0 + h - 1) >= h)
                & (c0 - (top - ret * (n - 0.5 - (r0 + h - 1))) >= h)
                & (c0 >= first[r1])
                & ((hi <= math.e * lo) | (hi * hi <= MAX_HAZARD * lo))
            )
        if smooth.any():
            far.append((h, rows[smooth], cols[smooth]))
        rows = (2 * rows[~smooth, None] + [0, 0, 1, 1]).ravel()
        cols = (2 * cols[~smooth, None] + [0, 1, 0, 1]).ravel()
        h //= 2

    from scipy import sparse  # loaded on first use: only Weibull chains with k != 1 above DENSE_BINS need it

    def by_edge_box(h, rows, cols, blocks):
        # the (edge box, row box) blocks as one matrix over the padded grid
        order = np.lexsort((rows, cols))
        indptr = np.searchsorted(cols[order], np.arange(size // h + 1))
        side = blocks.shape[1]
        return sparse.bsr_array((blocks[order], rows[order], indptr), shape=(size // h * side,) * 2)

    # [block, edge, row]; a row past the grid repeats the last one (its w is 0),
    # and an edge past it the top edge, where S = 0
    r = np.minimum(r0[:, None, None] + np.arange(LEAF), n - 1)
    c = np.minimum(c0[:, None, None] + np.arange(LEAF)[:, None], n)
    near = by_edge_box(LEAF, rows, cols, np.where(c >= first[r], surv(log_d[r], c), 0.0))
    levels = []
    for h, rows, cols in far:
        nodes, lagrange = _chebyshev(h)
        log_s = np.log(ret * (n - 0.5 - (h * rows[:, None] + nodes)))
        log_t = np.log(top - (h * cols[:, None] + nodes))
        blocks = scheme.survival(m.tau_off * (log_s[:, None, :] - log_t[:, :, None]))
        levels.append((lagrange, by_edge_box(h, rows, cols, blocks)))

    def ramp(w):
        padded = np.zeros(size)
        padded[:n] = w
        v = near @ padded
        for lagrange, blocks in levels:
            h = lagrange.shape[0]
            v += ((blocks @ (padded.reshape(-1, h) @ lagrange).ravel()).reshape(-1, CHEB_NODES) @ lagrange.T).ravel()
        return v[: n + 1]

    return ramp


def _recurrent_bins(first: np.ndarray, after: np.ndarray) -> np.ndarray:
    """The one closed class of a chain with bands [first - 1, after), as a mask; NumericalError if several.

    Row i reaches the bins lo_i = first_i - 1 to hi_i = after_i - 1, both
    nondecreasing in i. So a run of bins [p, q] is closed exactly when lo_p
    >= p and hi_q <= q, the closed classes are the minimal closed runs, and
    when there is one it is [largest such p, smallest such q].
    """
    n = first.size
    bins = np.arange(n)
    lefts = np.flatnonzero(np.maximum(first - 1, 0) >= bins)  # holds 0
    rights = np.flatnonzero(after - 1 <= bins)  # holds n - 1
    # [p, q] is minimal when p is the last left end <= q and q the first right end >= p
    p = lefts[np.searchsorted(lefts, rights, side="right") - 1]
    n_closed = np.count_nonzero(rights[np.searchsorted(rights, p)] == rights)
    if n_closed > 1:
        raise NumericalError(
            f"the chain has {n_closed} closed classes, so its stationary law is not unique: "
            f"the grid of {n} bins is too coarse for one cycle's change of voltage"
        )
    return (bins >= lefts[-1]) & (bins <= rights[0])


def stationary_pdf(sd: StationaryDistribution) -> tuple[np.ndarray, np.ndarray]:
    """(bin centers, density) pairs; density = probability / bin width."""
    return sd.centers, sd.probabilities / sd.delta


def steady_state(
    scheme: ChargingScheme, airtime: float, m: CapacitorModel, n_bins: int = DEFAULT_BINS
) -> StationaryDistribution:
    """Stationary distribution of the chain of one scheme and airtime on n_bins bins."""
    return stationary_distribution(build_transition_matrix(scheme, airtime, m, n_bins))
