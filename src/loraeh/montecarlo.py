"""Event-driven network simulation over continuous time.

Every device alternates random charging intervals with fixed-airtime
transmissions. A transmission only starts if the capacitor is at or above the
operating threshold; if the voltage falls below the threshold before the
packet ends, the cycle counts as an energy outage and the packet is neither
decoded nor does it interfere. Completed packets are checked at the gateway
against the SNR floor and against summed co-ring interference.

Determinism: every device owns two PCG64 streams (charging times and fading),
spawned from one SeedSequence of the seed in device order, so results are
bit-identical for a fixed seed regardless of batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .capacitor import CapacitorModel
from .errors import ConfigError
from .geometry import NetworkRealization, path_gain
from .phy import AIRTIMES_S, ChargingScheme, N_RINGS, PhyConfig, SNR_THRESHOLDS

_BLOCK = 256  # cycles drawn and stepped per (block x device) array
_WALK = 8  # shifted-slice steps of the packet-window walk before it binary-searches
# the per-device and per-ring counters, in the order of DeviceStats and sim_devices.csv
COUNTERS = ("cycles", "energy_skips", "energy_aborts", "attempts", "snr_fails", "sir_fails", "successes")


@dataclass(frozen=True)
class DeviceStats:
    """Per-device COUNTERS; attempts (completed packets) = successes + snr_fails + sir_fails."""

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

    warmup: float
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
    """Fill u with one block of charging times; row i comes from device i's stream."""
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

    Returns the per-device counters up to `attempts` (completed packets) and
    `duty_sum`, keyed by their DeviceStats names; the completed-packet records
    (device, start, counted, rank) in cycle-major then ascending-device order,
    where rank numbers each device's packets from 0 in start order; each
    device's number of records, counted or not; and the voltage traces.
    """
    n = v0.size
    retention = m.retention(airtimes)
    counts = {name: np.zeros(n, dtype=np.int64) for name in COUNTERS[:4]}
    duty_sum = np.zeros(n)
    # each list starts with an empty block, so a network of no devices joins to empty records
    rec_dev, rec_rank = [np.empty(0, dtype=np.int32)], [np.empty(0, dtype=np.int32)]
    rec_start, rec_counted = [np.empty(0)], [np.empty(0, dtype=bool)]
    sent = np.zeros(n, dtype=np.int32)  # completed packets so far, counted or not
    traces = [[] for _ in range(n)] if collect_traces else None

    # Each block is drawn device-major into u, then stepped on step-major
    # (block x device) arrays: row 0 of v_hist/t_hist holds the state at the
    # block start, row j + 1 the state after cycle j.
    u = np.empty((n, _BLOCK))
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
    while n and t_hist[0].min() < duration:
        _draw_charging_times(nu_gens, scheme, u)
        # transposed in blocks of devices: several times faster than one .T copy
        for i in range(0, n, 64):
            nu[:, i : i + 64] = u[i : i + 64].T
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
        tx = charged[:steps] & active  # a packet starts, to complete or abort
        done = tx & (v_hist[1 : steps + 1] >= cfg.v_operating)
        counted = active & (start > warmup)
        for name, mask in zip(COUNTERS[:4], (counted, counted & ~tx, counted & tx & ~done, counted & done)):
            counts[name] += mask.sum(axis=0)
        # added in cycle order per device, as a running sum would
        duty = np.add(nu[:steps], airtimes)
        np.divide(airtimes, duty, out=duty)
        np.putmask(duty, ~counted, 0.0)
        duty[0] += duty_sum
        np.add.accumulate(duty, axis=0, out=duty)
        duty_sum = duty[-1].copy()
        # every completed packet interferes, counted or not
        flat = np.flatnonzero(done)
        block_dev = (flat % n).astype(np.int32)
        rec_dev.append(block_dev)
        rec_start.append(start.ravel()[flat])
        rec_counted.append(counted.ravel()[flat])
        within = np.cumsum(done, axis=0, dtype=np.int16)  # at most _BLOCK
        rec_rank.append(sent[block_dev] + within.ravel()[flat] - 1)
        sent += within[-1]
        if collect_traces:
            for d in range(n):
                traces[d].append(v_hist[1 : steps + 1, d][active[:, d]])
        v_hist[0] = v_hist[steps]
        t_hist[0] = t_hist[steps]

    records = []
    for parts in (rec_dev, rec_start, rec_counted, rec_rank):
        records.append(np.concatenate(parts))
        parts.clear()  # one list's blocks at a time live next to the joined records
    if collect_traces:
        traces = [np.concatenate(tr) for tr in traces]
    return {**counts, "duty_sum": duty_sum}, records, sent, traces


def _stable_order(x):
    """(np.argsort(x, kind="stable"), x in that order), from the default sort.

    The default sort (SIMD quicksort where the CPU has it) is several times
    faster than the stable one, but may put equal keys out of index order.
    Equal keys end up adjacent, so each run of them is put back in ascending
    index order: with run numbers g, the keys g * n + index are unique and
    sort the runs in place.
    """
    order = np.argsort(x)
    xs = x[order]
    tie = xs[1:] == xs[:-1]
    if tie.any():
        in_run = np.zeros(x.size, dtype=bool)
        in_run[1:] = tie
        in_run[:-1] |= tie
        pos = np.flatnonzero(in_run)
        base = np.concatenate(([0], np.cumsum(~tie)))[pos] * x.size
        order[pos] = np.sort(base + order[pos]) - base
    return order, xs


def _window_edge(s, a, side):
    """np.searchsorted(s, a, side) for sorted s and a, found near each row's index.

    Both arrays are non-decreasing and the answer for a[i] usually lies a few
    records from i, so each row walks from its own index, one shifted-slice
    comparison per step, for up to _WALK steps; the rows still moving after
    that are binary-searched.
    """
    n = s.size
    if not n:
        return np.arange(0)
    past = np.greater if side == "right" else np.greater_equal  # s[j] lies past a[i]
    before = np.less_equal if side == "right" else np.less  # not past
    shift = np.zeros(n, dtype=np.int8)  # |shift| <= _WALK; int8 keeps the passes short
    go_down, go_up = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    down = up = True
    for k in range(1, min(_WALK, n) + 1):
        if down:  # rows i >= k whose edge is at or below i - k
            moved = past(s[: n - k], a[k:], out=go_down[k:])
            shift[k:] -= moved
            down = moved.any()
        if up:  # rows i < n - k + 1 whose edge is above i + k - 1
            moved = before(s[k - 1 :], a[: n - k + 1], out=go_up[: n - k + 1])
            shift[: n - k + 1] += moved
            up = moved.any()
    edge = np.arange(n)
    edge += shift
    del shift

    if down:
        rows = np.flatnonzero(go_down[k:]) + k
        edge[rows] = np.searchsorted(s, a[rows], side)
    if up:
        rows = np.flatnonzero(go_up[: n - k + 1])
        edge[rows] = np.searchsorted(s, a[rows], side)
    return edge


def run_simulation(
    net: NetworkRealization,
    cfg: PhyConfig,
    m: CapacitorModel,
    scheme: ChargingScheme,
    duration: float,
    seed: int = 0,
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
    if warmup >= duration:
        raise ConfigError(f"warm-up {warmup} must be shorter than the duration {duration}")
    n = net.n_devices
    rings = net.ring.astype(int)
    # path_gain stays scalar on purpose: numpy's array power differs from the
    # scalar one in the last bit for about 5% of distances
    gains = np.array([path_gain(d, cfg) for d in net.distances])

    streams = np.random.SeedSequence(seed).spawn(2 * n)
    nu_gens = [np.random.Generator(np.random.PCG64(streams[2 * i])) for i in range(n)]
    h_gens = [np.random.Generator(np.random.PCG64(streams[2 * i + 1])) for i in range(n)]

    v_init_lo = min(cfg.v_operating, m.v_limit_off)
    v = np.array([g.uniform(v_init_lo, m.v_limit_off) for g in nu_gens])
    with np.errstate(over="ignore"):  # a clock past the float range is inf, past `duration`
        counters, (dev, start, counted, rank), sent, traces = _energy_phase(
            nu_gens, v, scheme, m, cfg, AIRTIMES_S[rings], duration, warmup, collect_traces
        )

    # Fading draws in per-device packet order: device d's draws start at its
    # offset in `draws`, and its packet of rank r takes the r-th of them. The
    # received power and the SNR test are per record, in record order.
    draws = np.concatenate([np.empty(0)] + [g.exponential(1.0, k) for g, k in zip(h_gens, sent)])
    rank += (np.cumsum(sent) - sent).astype(np.int32)[dev]
    h2 = draws[rank]
    del draws, rank
    with np.errstate(divide="ignore"):  # a path gain that underflows to 0 fails every SNR test
        ok_snr = h2 >= (cfg.noise * SNR_THRESHOLDS[rings] / (cfg.p_tx * gains))[dev]
    pw = np.multiply(h2, cfg.p_tx, out=h2)  # h2 is not needed again
    pw *= gains[dev]

    # SIR test ring by ring, in start order; each packet's window is (s - tau, s + tau)
    ok_sir = np.zeros(dev.size, dtype=bool)
    rec_ring = rings.astype(np.int8)[dev]
    for ring in range(N_RINGS):
        idx = np.flatnonzero(rec_ring == ring)
        if not idx.size:
            continue
        order, s = _stable_order(start[idx])
        sub = idx[order]
        del idx, order
        p = pw[sub]
        tau = AIRTIMES_S[ring]
        lo = _window_edge(s, s - tau, "right")
        hi = _window_edge(s, s + tau, "left")
        cp = np.concatenate([[0.0], np.cumsum(p)])
        if overlap == "full":
            interference = cp[hi] - cp[lo] - p
        else:
            csp = np.concatenate([[0.0], np.cumsum(p * s)])
            sum_l = cp[:-1] - cp[lo]
            sum_ls = csp[:-1] - csp[lo]
            sum_r = cp[hi] - cp[1:]
            sum_rs = csp[hi] - csp[1:]
            interference = (sum_l - (s * sum_l - sum_ls) / tau) + (sum_r - (sum_rs - s * sum_r) / tau)
        ok_sir[sub] = p >= cfg.sir_threshold * interference

    successes = np.bincount(dev[counted & ok_snr & ok_sir], minlength=n)
    snr_fails = np.bincount(dev[counted & ~ok_snr], minlength=n)
    devices = DeviceStats(
        ring=rings.copy(),
        distance=net.distances.copy(),
        **counters,
        snr_fails=snr_fails,
        sir_fails=counters["attempts"] - successes - snr_fails,
        successes=successes,
    )
    # one index-order sum per ring and field: a float sum in any other order moves duty_mean's last bits
    in_ring = [rings == r for r in range(N_RINGS)]
    sums = {name: np.array([getattr(devices, name)[k].sum() for k in in_ring]) for name in (*COUNTERS, "duty_sum")}
    cycles = sums["cycles"]
    q_hat = _ratio(sums["successes"], cycles)
    return SimReport(
        warmup=warmup,
        n_devices=np.array([k.sum() for k in in_ring]),
        **{name: sums[name] for name in COUNTERS},
        energy_avail=_ratio(sums["attempts"], cycles),
        conn_rate=_ratio(sums["successes"], sums["attempts"]),
        overall_rate=q_hat,
        ci_half_width=1.96 * np.sqrt(_ratio(q_hat * (1.0 - q_hat), cycles)),
        duty_mean=_ratio(sums["duty_sum"], cycles),
        devices=devices,
        traces=traces,
    )
