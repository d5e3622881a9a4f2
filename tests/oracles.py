"""References the tests check the library against: a slower, more direct or more precise
route to the same numbers, or a reading of a library object in the form such a route
returns. Test files import them from here by bare name, and import no other test file."""

import csv
import math

import mpmath
import numpy as np
from scipy import integrate, sparse, stats
from scipy.sparse import csgraph

from loraeh.capacitor import CapacitorModel, build_model, step_charge, step_discharge
from loraeh.geometry import MIN_DISTANCE_M, path_gain, sir_success, snr_success
from loraeh.markov import TransitionMatrix
from loraeh.phy import AIRTIMES_S, N_RINGS, SNR_THRESHOLDS, ChargingScheme, ring_index


def cycle_map(m, airtime, v, decay):
    """Checks `step_charge` then `step_discharge`: the end-of-cycle voltage from start voltage v and decay factor."""
    return m.v_after_full(airtime) + m.retention(airtime) * decay * (v - m.v_limit_off)


def cycle_voltages(
    v0,
    scheme: ChargingScheme,
    airtime: float,
    n_cycles: int,
    m: CapacitorModel,
    rng: np.random.Generator,
) -> np.ndarray:
    """Checks `stationary_distribution` and `estimate_mean_voltage` by sampling: end-of-cycle voltages
    for one or many parallel chains (rows: chains), one `cycle_map` step a cycle."""
    v = np.atleast_1d(np.asarray(v0, dtype=float)).copy()
    out = np.empty((n_cycles, v.size))
    for j in range(n_cycles):
        decay = np.exp(-scheme.sample(rng, v.size) / m.tau_off)
        v = cycle_map(m, airtime, v, decay)
        out[j] = v
    return out


def reference_trajectory(v0, scheme, airtime, n_cycles, m, seed=0, samples_per_phase=20):
    """Checks `simulate_trajectory` bit for bit by the per-sample loop it replaced: one `step_charge`/
    `step_discharge` call and one scheme draw per cycle, and a `linspace` per phase."""
    rng = np.random.default_rng(seed)
    times = [0.0]
    volts = [float(v0)]
    phases = ["charge"]
    cyc = [0]
    t = 0.0
    v = float(v0)
    for j in range(n_cycles):
        nu = float(scheme.sample(rng))
        for frac in np.linspace(1.0 / samples_per_phase, 1.0, samples_per_phase):
            times.append(t + frac * nu)
            volts.append(float(step_charge(v, frac * nu, m)))
            phases.append("charge")
            cyc.append(j)
        v = float(step_charge(v, nu, m))
        t += nu
        for frac in np.linspace(1.0 / samples_per_phase, 1.0, samples_per_phase):
            times.append(t + frac * airtime)
            volts.append(float(step_discharge(v, frac * airtime, m)))
            phases.append("tx")
            cyc.append(j)
        v = float(step_discharge(v, airtime, m))
        t += airtime
    return np.asarray(times), np.asarray(volts), np.asarray(phases), np.asarray(cyc)


def reference_transition_matrix(scheme, airtime, m, n_bins):
    """Checks `build_transition_matrix` by a dense Ulam matrix: the same per-cell mass formula on
    every cell, the decay law's mass between the cell's two mapped edges."""
    edges = np.linspace(m.v_limit_on, m.v_limit_off, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    log_d = np.log(m.retention(airtime) * (m.v_limit_off - centers))
    with np.errstate(divide="ignore"):
        log_n = np.log(np.maximum(m.v_after_full(airtime) - edges, 0.0))
    surv = scheme.survival(m.tau_off * (log_d[:, None] - log_n[None, :]))
    raw = surv[:, :-1] - surv[:, 1:]
    return raw / raw.sum(axis=1, keepdims=True)


def reference_stationary(mat):
    """Checks `stationary_distribution` by dense LU: on the one closed class, (I - P^T) u = 0 with
    its last row replaced by sum(u) = 1; 0 on the transient bins."""
    count, closed = closed_classes(mat)
    assert count == 1
    k = np.count_nonzero(closed)
    a = np.eye(k) - mat[np.ix_(closed, closed)].T
    a[-1] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    u = np.zeros(mat.shape[0])
    u[closed] = np.linalg.solve(a, b)
    return u


def closed_classes(mat):
    """Checks `stationary_distribution`'s closed classes from the matrix's graph: (count, mask of the one
    closed class or None); a strongly connected class is closed when no stored transition leaves it."""
    mat = sparse.csr_array(mat)
    n_classes, labels = csgraph.connected_components(mat, directed=True, connection="strong")
    src = np.repeat(labels, np.diff(mat.indptr))
    leaves = np.zeros(n_classes, dtype=bool)
    leaves[src[src != labels[mat.indices]]] = True
    closed = np.flatnonzero(~leaves)
    return closed.size, (labels == closed[0] if closed.size == 1 else None)


def rows(tm):
    """Checks `TransitionMatrix.transpose` as the dense P: row i is P^T applied to the i-th unit vector."""
    return np.array([tm.transpose(e) for e in np.eye(tm.n_bins)])


def outside_band(tm):
    """Checks `build_transition_matrix`'s bands: the mask of the cells of P outside each row's band [first-1, after)."""
    cols = np.arange(tm.n_bins)
    return (cols < np.maximum(tm.first - 1, 0)[:, None]) | (cols >= tm.after[:, None])


def band_chain(mat):
    """Checks `stationary_distribution` on a small dense matrix whose rows are each nonzero on one band."""
    nonzero = np.asarray(mat) != 0.0
    n = nonzero.shape[0]
    first = nonzero.argmax(axis=1) + 1
    after = n - nonzero[:, ::-1].argmax(axis=1)
    pt = np.asarray(mat, dtype=float).T.__matmul__
    return TransitionMatrix(bin_edges=np.linspace(0, 1, n + 1), first=first, after=after, transpose=pt)


def gth_40_digits(mat):
    """Checks `stationary_distribution`'s tails by GTH elimination (Grassmann, Taksar & Heyman 1985) at 40
    digits: the law of an irreducible stochastic matrix, as mpmath numbers, skipping the zero cells."""
    k = mat.shape[0]
    with mpmath.workdps(40):
        a = [[mpmath.mpf(x) for x in row] for row in mat.tolist()]
        for i in range(k - 1, 0, -1):
            cols = [c for c in range(i) if a[i][c]]
            total = mpmath.fsum(a[i][c] for c in cols)
            for r in range(i):
                if a[r][i]:
                    a[r][i] /= total
                    for c in cols:
                        a[r][c] += a[r][i] * a[i][c]
        law = [mpmath.mpf(1)]
        for i in range(1, k):
            law.append(mpmath.fsum(law[r] * a[r][i] for r in range(i) if a[r][i]))
        total = mpmath.fsum(law)
        return [x / total for x in law]


def charging_law(scheme: ChargingScheme):
    """Checks `ChargingScheme.survival`, `mean` and the charging-time expectations by scipy.stats: the frozen law of nu,
    whose density the tests integrate."""
    if scheme.kind == "uniform":
        return stats.uniform(loc=scheme.a, scale=scheme.b - scheme.a)
    return stats.weibull_min(scheme.k, scale=scheme.w)


def weibull_expectation(k, w, g, knee):
    """Checks `duty_cycle` and `DecayFactorDistribution.mean` by mpmath: E[g(nu)] for nu ~ Weibull(k, w),
    as the integral of exp(-u) g(w u^(1/k)) over u > 0.

    g turns over near nu = knee, at u = (knee / w)^k; the quadrature is split there, but
    at u = 64 at most: past that e^-u holds no mass the rule would resolve.
    """
    with mpmath.workdps(30):
        points = sorted({0, min((knee / w) ** k, 64), 1}) + [mpmath.inf]
        return float(mpmath.quad(lambda u: mpmath.exp(-u) * g(w * u ** (mpmath.mpf(1) / k)), points))


def euler_integral(eta, z):
    """Checks `hyp2f1_special` by quadrature: a smooth substitution of the Euler representation."""
    b = 2.0 / eta
    val, _ = integrate.quad(lambda u: 1.0 / (1.0 - z * u ** (1.0 / b)), 0.0, 1.0, epsabs=1e-15, epsrel=1e-13, limit=400)
    return val


def quad_sir(d, p, cfg):
    """Checks `sir_success` by adaptive quadrature of the annulus interference integral."""
    ring = int(np.searchsorted(cfg.ring_radii, d, side="left")) - 1
    ring = max(ring, 0)
    a_const = cfg.sir_threshold * d**cfg.eta
    f = lambda r: (a_const / (r**cfg.eta + a_const)) * r
    val, _ = integrate.quad(f, cfg.ring_radii[ring], cfg.ring_radii[ring + 1], epsabs=1e-13, epsrel=1e-12, limit=500)
    return math.exp(-2 * math.pi * p * cfg.density * val)


def connection_prob(d, p, cfg, n_samples=100000, seed=0):
    """Checks that `snr_success` * `sir_success` bounds the joint success from below, by Monte Carlo.

    Returns (lower, upper) bounds on the joint SNR-and-SIR success probability. The lower bound
    multiplies the two marginal successes (independence bound). The upper value Monte Carlo-
    estimates the exact joint probability P[|h|^2 >= max(noise term, interference term)] by
    sampling same-ring interferer sets, since no closed form exists for the max coupling.
    """
    lower = snr_success(d, cfg) * sir_success(d, p, cfg)
    ring = ring_index(d, cfg)
    d_eff = max(d, MIN_DISTANCE_M)
    gain = path_gain(d_eff, cfg)
    noise_term = cfg.noise * SNR_THRESHOLDS[ring] / (cfg.p_tx * gain)
    lo, hi = cfg.ring_radii[ring], cfg.ring_radii[ring + 1]
    area = np.pi * (hi**2 - lo**2)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(p * cfg.density * area, size=n_samples)
    total = int(counts.sum())
    radii = np.sqrt(rng.uniform(lo**2, hi**2, size=total))
    fades = rng.exponential(1.0, size=total)
    power = cfg.p_tx * fades * (cfg.wavelength / (4.0 * np.pi * np.maximum(radii, MIN_DISTANCE_M))) ** cfg.eta
    sample_ids = np.repeat(np.arange(n_samples), counts)
    interference = np.bincount(sample_ids, weights=power, minlength=n_samples)
    sir_term = cfg.sir_threshold * interference / (cfg.p_tx * gain)
    upper = float(np.mean(np.exp(-np.maximum(noise_term, sir_term))))
    # the exact joint probability dominates the product bound; project the
    # sampled estimate onto that feasible region
    return lower, max(upper, lower)


def reference_simulation(net, cfg, scheme, duration, seed, warmup):
    """Checks `run_simulation` bit for bit by the per-cycle simulator, one numpy step per cycle for
    every counter and record: per-device counters and duty sums, traces, the device and start time
    of each packet, in (cycle, device index) order, and per ring the running sum of its received
    powers in start order."""
    n, chunk = net.n_devices, 2048
    m = build_model(cfg, "thevenin")
    airtimes = AIRTIMES_S[net.ring]
    gains = np.array([path_gain(d, cfg) for d in net.distances])
    retention = np.exp(-airtimes / m.tau_on)
    streams = np.random.SeedSequence(seed).spawn(2 * n)
    nu_gens = [np.random.Generator(np.random.PCG64(streams[2 * i])) for i in range(n)]
    h_gens = [np.random.Generator(np.random.PCG64(streams[2 * i + 1])) for i in range(n)]
    v = np.array([g.uniform(min(cfg.v_operating, m.v_limit_off), m.v_limit_off) for g in nu_gens])
    t = np.zeros(n)
    out = {k: np.zeros(n, dtype=np.int64) for k in ("cycles", "energy_skips", "energy_aborts", "attempts")}
    out["duty_sum"] = np.zeros(n)
    records, traces = [], [[] for _ in range(n)]
    while (t < duration).any():
        nu_chunk = np.stack([g.uniform(0.0, 1.0, chunk) for g in nu_gens])
        if scheme.kind == "uniform":
            nu_chunk = scheme.a + (scheme.b - scheme.a) * nu_chunk
        else:
            nu_chunk = scheme.w * (-np.log1p(-nu_chunk)) ** (1.0 / scheme.k)
        for j in range(chunk):
            active = t < duration
            if not active.any():
                break
            nu = nu_chunk[:, j]
            # charge, then discharge, rounded as the simulator rounds them: not cycle_map's affine form
            w = m.v_limit_off + (v - m.v_limit_off) * np.exp(-nu / m.tau_off)
            attempt = (w >= cfg.v_operating) & active
            v_next = np.where(attempt, m.v_limit_on + (w - m.v_limit_on) * retention, w)
            done = attempt & (v_next >= cfg.v_operating)
            start = t + nu
            counted = active & (start > warmup)
            out["cycles"] += counted
            out["energy_skips"] += counted & ~attempt
            out["energy_aborts"] += counted & attempt & ~done
            out["attempts"] += counted & done
            out["duty_sum"] += np.where(counted, airtimes / (nu + airtimes), 0.0)
            records += [(d, start[d], counted[d]) for d in np.flatnonzero(done)]
            for d in np.flatnonzero(active):
                traces[d].append(v_next[d])
            v = np.where(active, v_next, v)
            t = np.where(active, t + nu + np.where(attempt, airtimes, 0.0), t)

    dev = np.array([r[0] for r in records], dtype=np.int64)
    start = np.array([r[1] for r in records])
    counted = np.array([r[2] for r in records], dtype=bool)
    h2 = np.empty(dev.size)
    order = np.lexsort((start, dev))
    counts = np.bincount(dev, minlength=n)
    h2[order] = np.concatenate([np.empty(0)] + [g.exponential(1.0, k) for g, k in zip(h_gens, counts)])
    success = np.zeros(dev.size, dtype=bool)
    snr_fail = np.zeros(dev.size, dtype=bool)
    running_sums = {}
    for ring in range(N_RINGS):
        idx = np.flatnonzero(net.ring[dev] == ring)
        sub = idx[np.argsort(start[idx], kind="stable")]
        s = start[sub]
        pw = cfg.p_tx * h2[sub] * gains[dev[sub]]
        tau = AIRTIMES_S[ring]
        lo = np.searchsorted(s, s - tau, side="right")
        hi = np.searchsorted(s, s + tau, side="left")
        cp = running_sums[ring] = np.concatenate([[0.0], np.cumsum(pw)])
        interference = cp[hi] - cp[lo] - pw
        ok_snr = h2[sub] >= cfg.noise * SNR_THRESHOLDS[ring] / (cfg.p_tx * gains[dev[sub]])
        success[sub] = ok_snr & (pw >= cfg.sir_threshold * interference)
        snr_fail[sub] = ~ok_snr
    out["successes"] = np.bincount(dev[counted & success], minlength=n)
    out["snr_fails"] = np.bincount(dev[counted & snr_fail], minlength=n)
    return out, [np.array(tr) for tr in traces], dev, start, running_sums


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float | np.floating):
        return format(float(x), ".10g")
    return str(x)


def reference_write_csv(path, header, rows):
    """Checks the CLI's `_write_csv` byte for byte by the writer it replaced, which formatted each cell alone."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
