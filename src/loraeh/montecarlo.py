"""Event-driven network simulation over continuous time.

Every device alternates random charging intervals with fixed-airtime
transmissions. A transmission only starts if the capacitor is at or above the
operating threshold; if the voltage falls below the threshold before the
packet ends, the cycle counts as an energy outage and the packet is neither
decoded nor does it interfere. Completed packets are checked at the gateway
against the SNR floor and against summed co-ring interference.

Determinism: every device owns two counter-based RNG streams (charging times
and fading) keyed by (seed, device index), so results are bit-identical for a
fixed seed regardless of batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .capacitor import build_model
from .errors import ConfigError, StatisticsError
from .geometry import NetworkRealization, path_gain
from .phy import AIRTIMES_S, ChargingScheme, N_RINGS, PhyConfig, SNR_THRESHOLDS

_CHUNK = 2048  # charging-time draws per device stream and refill
_BLOCK = 256  # cycles stepped per (block x device) array; divides _CHUNK


@dataclass(frozen=True)
class DeviceStats:
    """Per-device counters; attempts = successes + snr_fails + sir_fails."""

    ring: np.ndarray
    distance: np.ndarray
    cycles: np.ndarray
    energy_skips: np.ndarray
    energy_aborts: np.ndarray
    attempts: np.ndarray
    snr_fails: np.ndarray
    sir_fails: np.ndarray
    successes: np.ndarray
    duty_sum: np.ndarray  # sum of airtime/(nu+airtime) over counted cycles


@dataclass(frozen=True)
class SimReport:
    """Per-ring empirical success decomposition with binomial confidence intervals."""

    duration: float
    warmup: float
    seed: int
    overlap: str
    mode: str
    n_devices: np.ndarray  # per ring
    cycles: np.ndarray
    energy_skips: np.ndarray
    energy_aborts: np.ndarray
    attempts: np.ndarray
    snr_fails: np.ndarray
    sir_fails: np.ndarray
    successes: np.ndarray
    energy_avail: np.ndarray  # attempts / cycles
    conn_rate: np.ndarray  # successes / attempts
    overall_rate: np.ndarray  # successes / cycles
    ci_half_width: np.ndarray  # 95% binomial half-width on overall_rate
    duty_mean: np.ndarray  # mean of airtime/(nu+airtime) over cycles
    devices: DeviceStats
    traces: list | None = field(default=None, repr=False)


def _ratio(num, den):
    den = np.asarray(den, dtype=float)
    return np.where(den > 0, np.asarray(num, dtype=float) / np.where(den > 0, den, 1.0), 0.0)


def _draw_charging_times(gens, scheme: ChargingScheme, u: np.ndarray) -> None:
    """Fill u with one chunk of charging times; row i comes from device i's stream."""
    for row, g in zip(u, gens):
        g.random(out=row)
    if scheme.kind == "uniform":
        u *= scheme.b - scheme.a
        u += scheme.a
    else:
        np.negative(u, out=u)
        np.log1p(u, out=u)
        np.negative(u, out=u)
        u **= 1.0 / scheme.k  # `**`, not np.power: numpy's `**` may special-case 0.5 and 2
        u *= scheme.w


def _energy_phase(nu_gens, v0, scheme, m, cfg, airtimes, duration, warmup, collect_traces):
    """Charge/transmit cycles of every device until its clock passes `duration`.

    Returns the per-device counters (cycles, skips, aborts, completed, duty
    sum), the completed-packet records (device, start, counted) in
    cycle-major then ascending-device order, and the voltage traces.
    """
    n = v0.size
    retention = np.exp(-airtimes / m.tau_on)
    cycles = np.zeros(n, dtype=np.int64)
    skips = np.zeros(n, dtype=np.int64)
    aborts = np.zeros(n, dtype=np.int64)
    completed = np.zeros(n, dtype=np.int64)
    duty_sum = np.zeros(n)
    rec_dev, rec_start, rec_counted = [], [], []
    traces = [[] for _ in range(n)] if collect_traces else None

    # Draws come a chunk at a time (device-major), cycles are stepped a block
    # at a time on step-major (block x device) arrays: row 0 of v_hist/t_hist
    # holds the state at the block start, row j + 1 the state after cycle j.
    u = np.empty((n, _CHUNK))
    nu = np.empty((_BLOCK, n))
    decay = np.empty((_BLOCK, n))
    v_hist = np.empty((_BLOCK + 1, n))
    t_hist = np.empty((_BLOCK + 1, n))
    charged = np.empty((_BLOCK, n), dtype=bool)  # post-charge voltage reaches the threshold
    v_hist[0] = v0
    t_hist[0] = 0.0
    discharged = np.empty(n)
    air = np.empty(n)
    sub, mul, add = np.subtract, np.multiply, np.add  # the loop below is call-bound
    col = _CHUNK  # next unused column of u
    while t_hist[0].min() < duration:
        if col == _CHUNK:
            _draw_charging_times(nu_gens, scheme, u)
            col = 0
        # transposed in blocks of devices: several times faster than one .T copy
        for i in range(0, n, 64):
            nu[:, i : i + 64] = u[i : i + 64, col : col + _BLOCK].T
        col += _BLOCK
        np.divide(nu, -m.tau_off, out=decay)
        np.exp(decay, out=decay)

        # The loop carries only the recurrence: charge, threshold test,
        # discharge, clock. Devices are independent, so one past `duration`
        # keeps stepping and its cycles are masked out below; its clock only
        # grows, so it never becomes active again.
        rows = zip(v_hist, v_hist[1:], t_hist, t_hist[1:], decay, nu, charged)
        for j, (v, w, t, t_next, dec, nu_j, ok) in enumerate(rows):
            sub(v, m.v_limit_off, w)
            mul(w, dec, w)
            add(w, m.v_limit_off, w)
            np.greater_equal(w, cfg.v_operating, ok)
            sub(w, m.v_limit_on, discharged)
            mul(discharged, retention, discharged)
            add(discharged, m.v_limit_on, discharged)
            np.putmask(w, ok, discharged)
            mul(airtimes, ok, air)  # 0.0 where the device skipped
            add(t, nu_j, t_next)
            add(t_next, air, t_next)
            if j % 8 == 7 and t_next.min() >= duration:
                break
        steps = j + 1

        active = t_hist[:steps] < duration
        start = t_hist[:steps] + nu[:steps]
        attempt = charged[:steps] & active
        done = attempt & (v_hist[1 : steps + 1] >= cfg.v_operating)
        counted = active & (start > warmup)
        cycles += counted.sum(axis=0)
        skips += (counted & ~attempt).sum(axis=0)
        aborts += (counted & attempt & ~done).sum(axis=0)
        completed += (counted & done).sum(axis=0)
        # added in cycle order per device, as a running sum would
        duty = np.add(nu[:steps], airtimes)
        np.divide(airtimes, duty, out=duty)
        np.putmask(duty, ~counted, 0.0)
        duty[0] += duty_sum
        np.add.accumulate(duty, axis=0, out=duty)
        duty_sum = duty[-1].copy()
        # every completed packet interferes, counted or not
        flat = np.flatnonzero(done)
        rec_dev.append((flat % n).astype(np.int32))
        rec_start.append(start.ravel()[flat])
        rec_counted.append(counted.ravel()[flat])
        if collect_traces:
            for d in range(n):
                traces[d].append(v_hist[1 : steps + 1, d][active[:, d]])
        v_hist[0] = v_hist[steps]
        t_hist[0] = t_hist[steps]

    records = (np.concatenate(rec_dev), np.concatenate(rec_start), np.concatenate(rec_counted))
    if collect_traces:
        traces = [np.concatenate(tr) for tr in traces]
    return (cycles, skips, aborts, completed, duty_sum), records, traces


def run_simulation(
    net: NetworkRealization,
    cfg: PhyConfig,
    scheme: ChargingScheme,
    duration: float,
    seed: int = 0,
    mode: str = "thevenin",
    overlap: str = "full",
    warmup: float | None = None,
    collect_traces: bool = False,
) -> SimReport:
    """Simulate the sampled network for `duration` seconds of model time.

    overlap "full" charges an interferer's whole received power to any packet
    it overlaps; "fractional" scales it by the overlapped fraction of the
    victim packet. Statistics start after the warm-up (default 100 mean
    charging times, capped at half the duration).
    """
    if not (math.isfinite(duration) and duration > 0):
        raise ConfigError(f"simulated duration must be finite and positive, got {duration}")
    if overlap not in ("full", "fractional"):
        raise ValueError(f"unknown overlap mode {overlap!r}")
    if warmup is None:
        warmup = min(100.0 * scheme.mean(), 0.5 * duration)
    if not (math.isfinite(warmup) and warmup >= 0):
        raise ConfigError(f"warm-up must be finite and non-negative, got {warmup}")
    n = net.n_devices
    m = build_model(cfg, mode)
    rings = net.ring.astype(int)
    # path_gain stays scalar on purpose: numpy's array power differs from the
    # scalar one in the last bit for about 5% of distances
    gains = np.array([path_gain(d, cfg) for d in net.distances]) if n else np.empty(0)

    streams = np.random.SeedSequence(seed).spawn(2 * n) if n else []
    nu_gens = [np.random.Generator(np.random.PCG64(streams[2 * i])) for i in range(n)]
    h_gens = [np.random.Generator(np.random.PCG64(streams[2 * i + 1])) for i in range(n)]

    v_init_lo = min(cfg.v_operating, m.v_limit_off)
    v = np.array([g.uniform(v_init_lo, m.v_limit_off) for g in nu_gens]) if n else np.empty(0)
    if n:
        counters, (dev, start, counted), traces = _energy_phase(
            nu_gens, v, scheme, m, cfg, net.airtimes, duration, warmup, collect_traces
        )
    else:
        counters = (np.zeros(0, dtype=np.int64),) * 4 + (np.zeros(0),)
        dev, start, counted = np.empty(0, dtype=np.int32), np.empty(0), np.empty(0, dtype=bool)
        traces = []
    cycles, skips, aborts, completed_counted, duty_sum = counters

    # fading draws in per-device packet order; a device's records already come
    # in increasing start time, so a stable sort by device gives that order
    h2 = np.empty(dev.size)
    h2[np.argsort(dev, kind="stable")] = np.concatenate(
        [np.empty(0)] + [g.exponential(1.0, k) for g, k in zip(h_gens, np.bincount(dev, minlength=n))]
    )

    succ_dev = np.zeros(n, dtype=np.int64)
    snrf_dev = np.zeros(n, dtype=np.int64)
    rec_ring = rings.astype(np.int8)[dev]
    for ring in range(N_RINGS):
        idx = np.flatnonzero(rec_ring == ring)
        if not idx.size:
            continue
        sub = idx[np.argsort(start[idx], kind="stable")]
        s = start[sub]
        dev_sub = dev[sub]
        h_sub = h2[sub]
        g_sub = gains[dev_sub]
        pw = cfg.p_tx * h_sub * g_sub
        tau = AIRTIMES_S[ring]
        lo = np.searchsorted(s, s - tau, side="right")
        hi = np.searchsorted(s, s + tau, side="left")
        cp = np.concatenate([[0.0], np.cumsum(pw)])
        if overlap == "full":
            interference = cp[hi] - cp[lo] - pw
        else:
            csp = np.concatenate([[0.0], np.cumsum(pw * s)])
            sum_l = cp[:-1] - cp[lo]
            sum_ls = csp[:-1] - csp[lo]
            sum_r = cp[hi] - cp[1:]
            sum_rs = csp[hi] - csp[1:]
            interference = (sum_l - (s * sum_l - sum_ls) / tau) + (sum_r - (sum_rs - s * sum_r) / tau)
        ok_snr = h_sub >= cfg.noise * SNR_THRESHOLDS[ring] / (cfg.p_tx * g_sub)
        ok_sir = pw >= cfg.sir_threshold * interference
        evaluated = counted[sub]
        succ_dev += np.bincount(dev_sub[evaluated & ok_snr & ok_sir], minlength=n)
        snrf_dev += np.bincount(dev_sub[evaluated & ~ok_snr], minlength=n)

    attempts_dev = completed_counted
    sirf_dev = attempts_dev - succ_dev - snrf_dev

    def per_ring(arr):
        return np.array([arr[rings == r].sum() if n else 0 for r in range(N_RINGS)])

    r_ndev = np.array([(rings == r).sum() if n else 0 for r in range(N_RINGS)])
    r_cycles = per_ring(cycles)
    r_skips = per_ring(skips)
    r_aborts = per_ring(aborts)
    r_attempts = per_ring(attempts_dev)
    r_succ = per_ring(succ_dev)
    r_snrf = per_ring(snrf_dev)
    r_sirf = per_ring(sirf_dev)
    r_duty = per_ring(duty_sum)
    q_hat = _ratio(r_succ, r_cycles)
    ci = 1.96 * np.sqrt(_ratio(q_hat * (1.0 - q_hat), r_cycles))

    return SimReport(
        duration=duration,
        warmup=warmup,
        seed=seed,
        overlap=overlap,
        mode=mode,
        n_devices=r_ndev,
        cycles=r_cycles,
        energy_skips=r_skips,
        energy_aborts=r_aborts,
        attempts=r_attempts,
        snr_fails=r_snrf,
        sir_fails=r_sirf,
        successes=r_succ,
        energy_avail=_ratio(r_attempts, r_cycles),
        conn_rate=_ratio(r_succ, r_attempts),
        overall_rate=q_hat,
        ci_half_width=ci,
        duty_mean=_ratio(r_duty, r_cycles),
        devices=DeviceStats(
            ring=rings.copy(),
            distance=net.distances.copy(),
            cycles=cycles,
            energy_skips=skips,
            energy_aborts=aborts,
            attempts=attempts_dev,
            snr_fails=snrf_dev,
            sir_fails=sirf_dev,
            successes=succ_dev,
            duty_sum=duty_sum,
        ),
        traces=traces if collect_traces else None,
    )


def empirical_collision_fraction(report: SimReport, min_attempts: int = 100) -> np.ndarray:
    """Per-ring estimate of the co-SF transmitting fraction.

    Estimated as measured availability times the sample mean of
    airtime/(nu+airtime) over cycles, mirroring the analytical product form.
    Rings with zero attempts are dead (0.0); rings with too few attempts for
    a stable estimate raise.
    """
    out = np.zeros(N_RINGS)
    for r in range(N_RINGS):
        if report.attempts[r] == 0:
            out[r] = 0.0
            continue
        if report.attempts[r] < min_attempts:
            raise StatisticsError(
                f"ring {r + 1}: only {report.attempts[r]} attempts (< {min_attempts})", ring=r
            )
        out[r] = report.energy_avail[r] * report.duty_mean[r]
    return out
