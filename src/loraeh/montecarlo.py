"""Event-driven network simulation over continuous time.

Every device alternates random charging intervals with fixed-airtime
transmissions. A transmission only starts if the capacitor is at or above the
operating threshold; if the voltage falls below the threshold before the
packet ends, the cycle counts as an energy outage and the packet is neither
decoded nor does it interfere. Completed packets are checked at the gateway
against the SNR floor and against summed co-ring interference.

After every block of cycles, each ring tests that block's packets (see
_RingPass): a packet is tested once no later packet can fall in its window,
and only the packets whose windows are still open are carried to the next
block. So a run holds one block's packet records and the carried ones,
however long it simulates, and its outputs are the bits of one pass over the
whole run.

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
# largest expected number of device-cycles a run may ask for. It bounds the run's
# time; the memory does not grow with the cycles. Twice criterion 7's 500 devices
# over 1e6 s (10**7 cycles: 1.4 s and 56 MiB peak RSS on a 2-vCPU Xeon)
MAX_DEVICE_CYCLES = 2 * 10**7
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


def _energy_phase(nu_gens, h_gens, v0, scheme, m, cfg, airtimes, passes, duration, warmup, collect_traces):
    """Charge/transmit cycles of every device until its clock passes `duration`.

    Devices come grouped by ring: `passes` pairs each ring's column slice with
    its _RingPass, which receives the ring's completed packets block by block
    and tests them as they become final. Returns the per-device counters up to
    `attempts` (completed packets) and `duty_sum`, keyed by their DeviceStats
    names, and the voltage traces.
    """
    n = v0.size
    retention = m.retention(airtimes)
    counts = {name: np.zeros(n, dtype=np.int64) for name in ("cycles", "energy_skips", "attempts")}
    duty_sum = np.zeros(n)
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
    running = n > 0
    while running:
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
        for total, mask in zip(counts.values(), (counted, counted & ~charged[:steps], counted & done)):
            total += mask.sum(axis=0)
        # added in cycle order per device, as a running sum would; with one
        # device, duty.sum(axis=0) would add pairwise and move the last bits
        duty = np.add(nu[:steps], airtimes)
        np.divide(airtimes, duty, out=duty)
        np.putmask(duty, ~counted, 0.0)
        duty[0] += duty_sum
        duty_sum = np.add.accumulate(duty, axis=0, out=duty)[-1].copy()
        # Every completed packet interferes, counted or not. Each device draws
        # this block's fading gains from its own stream in packet order, into
        # the spent charging times: u[d, j] is the gain of device d's packet
        # of cycle j.
        sent = done.sum(axis=0).tolist()
        draws = [g.exponential(1.0, k) for g, k in zip(h_gens, sent) if k]
        if draws:
            u[:, :steps][done.T] = np.concatenate(draws)
        if collect_traces:
            for d in range(n):
                traces[d].append(v_hist[1 : steps + 1, d][active[:, d]])
        v_hist[0] = v_hist[steps]
        t_hist[0] = t_hist[steps]
        running = t_hist[0].min() < duration
        for c, ring in passes:
            flat = np.flatnonzero(done[:, c])  # the ring's packets, cycle-major
            cyc, dev = np.divmod(flat, c.stop - c.start)
            # a flat index into the ring's rows of u gathers about twice as fast as u[c][dev, cyc]
            new = dev.astype(np.int32), start[:, c].ravel()[flat], u[c].ravel()[dev * _BLOCK + cyc]
            # a later packet starts at or after its device's clock
            ring.flush(new, t_hist[0, c].min() if running else np.inf)

    # a counted cycle is a skip, an abort or a completed packet
    counts["energy_aborts"] = counts["cycles"] - counts["energy_skips"] - counts["attempts"]
    if collect_traces:
        traces = [np.concatenate(tr) for tr in traces]
    return {**counts, "duty_sum": duty_sum}, traces


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


def _running_sum(total, x):
    """[total, total + x[0], (total + x[0]) + x[1], ...]: x's running sum,
    continued from `total` one addition at a time, as np.cumsum adds."""
    out = np.empty(x.size + 1)
    out[0] = total
    out[1:] = x
    return np.cumsum(out, out=out)


class _RingPass:
    """The SNR and SIR tests of one ring's packets, run as the packets arrive.

    A packet is tested in the order of its ring's records sorted by start,
    ties in record order (block, cycle, device), with its interference a
    difference of running sums over that order, so the bits are those of one
    pass over the whole run. A record is final once no later packet can fall
    in its window: every later packet starts at or after the ring's earliest
    device clock t_min, so `start + tau <= t_min` suffices.

    The simulator flushes each ring after every block, with that block's
    records. A flush sorts its pool: the carried records (already sorted)
    first, then the new ones in arrival order. It tests the final prefix, and
    carries the running sums up to its first kept record, the final records
    that later windows still reach back to, and the records not yet final.
    """

    def __init__(self, snr_floor, gains, tau, cfg, overlap, warmup, tallies):
        self.snr_floor, self.gains, self.tau = snr_floor, gains, tau
        self.cfg, self.overlap, self.warmup = cfg, overlap, warmup
        self.snr_fails, self.successes = tallies  # the ring's columns, added into
        self.carried = (np.empty(0, dtype=np.int32), np.empty(0), np.empty(0))
        self.tested = 0  # leading carried records, tested before
        self.sums = (0.0, 0.0)  # running sums of p and p * start before the first carried record

    def flush(self, new, t_min):
        """Take one block's (device, start, fading gain) records and test every
        record no packet starting at or after t_min can reach."""
        dev, start, h2 = (np.concatenate(f) for f in zip(self.carried, new))
        order, s = _stable_order(start)
        dev, h2 = dev[order], h2[order]
        tau, cfg = self.tau, self.cfg
        end = s + tau
        final = np.searchsorted(end, t_min, "right")  # window ends at or before t_min
        if final == self.tested:  # nothing new to test: carry the sorted pool
            self.carried = dev, s, h2
            return
        # the window of a final record holds only records that start by t_min,
        # and those keep their place in the order whatever arrives later
        m = np.searchsorted(s, t_min, "right")
        rows = slice(self.tested, final)
        p = np.multiply(h2[:m], cfg.p_tx)
        p *= self.gains[dev[:m]]
        lo = _window_edge(s[:m], s[:m] - tau, "right")[rows]
        hi = _window_edge(s[:m], end[:m], "left")[rows]
        cp = _running_sum(self.sums[0], p)
        sr = s[rows]
        if self.overlap == "full":
            interference = cp[hi] - cp[lo] - p[rows]
            csp = None
        else:
            csp = _running_sum(self.sums[1], p * s[:m])
            sum_l = cp[rows] - cp[lo]
            sum_ls = csp[rows] - csp[lo]
            sum_r = cp[hi] - cp[self.tested + 1 : final + 1]
            sum_rs = csp[hi] - csp[self.tested + 1 : final + 1]
            interference = (sum_l - (sr * sum_l - sum_ls) / tau) + (sum_r - (sum_rs - sr * sum_r) / tau)
        d = dev[rows]
        counted = sr > self.warmup
        ok = h2[rows] >= self.snr_floor[d]
        self.snr_fails += np.bincount(d[counted & ~ok], minlength=self.gains.size)
        ok &= p[rows] >= cfg.sir_threshold * interference
        self.successes += np.bincount(d[counted & ok], minlength=self.gains.size)
        # `after` is the earliest start still to test: no window from there on
        # reaches a record that starts at or before after - tau
        after = min(s[final], t_min) if final < s.size else t_min
        keep = np.searchsorted(s[:final], after - tau, "right")
        self.sums = cp[keep], (0.0 if csp is None else csp[keep])
        self.carried = tuple(x[keep:].copy() for x in (dev, s, h2))  # copies: the pool goes
        self.tested = final - keep


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
    # a cycle lasts at least its charging time (a skipped one no longer), so a
    # device runs about duration / E[nu] cycles at most
    mean = scheme.mean()
    cycles = n * duration / mean if mean > 0 else math.inf
    if cycles > MAX_DEVICE_CYCLES:
        raise ConfigError(
            f"{n} devices over {duration:g} s ask for about {cycles:.3g} cycles (devices x duration / "
            f"mean charging time), above the bound of {MAX_DEVICE_CYCLES:.0e}"
        )
    rings = net.ring.astype(int)
    # Devices are stepped grouped by ring, in index order within a ring: a
    # packet meets interference only from its own ring, so each ring's
    # records are collected and tested apart. Column k holds device perm[k].
    perm = np.argsort(rings, kind="stable")
    edges = np.searchsorted(rings[perm], np.arange(N_RINGS + 1))
    ring_cols = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
    # path_gain stays scalar on purpose: numpy's array power differs from the
    # scalar one in the last bit for about 5% of distances
    gains = np.array([path_gain(d, cfg) for d in net.distances[perm]])

    streams = np.random.SeedSequence(seed).spawn(2 * n)
    nu_gens = [np.random.Generator(np.random.PCG64(streams[2 * i])) for i in perm]
    h_gens = [np.random.Generator(np.random.PCG64(streams[2 * i + 1])) for i in perm]

    v_init_lo = min(cfg.v_operating, m.v_limit_off)
    v = np.array([g.uniform(v_init_lo, m.v_limit_off) for g in nu_gens])
    with np.errstate(divide="ignore"):  # a path gain that underflows to 0 fails every SNR test
        snr_floor = cfg.noise * SNR_THRESHOLDS[rings[perm]] / (cfg.p_tx * gains)
    tallies = np.zeros((2, n), dtype=np.int64)  # snr_fails and successes
    passes = [
        (c, _RingPass(snr_floor[c], gains[c], AIRTIMES_S[ring], cfg, overlap, warmup, tallies[:, c]))
        for ring, c in enumerate(ring_cols)
        if c.stop > c.start
    ]
    with np.errstate(over="ignore"):  # a clock past the float range is inf, past `duration`
        counters, traces = _energy_phase(
            nu_gens, h_gens, v, scheme, m, cfg, AIRTIMES_S[rings[perm]], passes, duration, warmup, collect_traces
        )
    counters["snr_fails"], counters["successes"] = tallies

    counters["sir_fails"] = counters["attempts"] - counters["successes"] - counters["snr_fails"]
    # per ring, a sum over its columns, in device index order: another order moves duty_mean's last bits
    sums = {name: np.array([arr[c].sum() for c in ring_cols]) for name, arr in counters.items()}
    # back to network order: device d sits in column unperm[d]
    unperm = np.argsort(perm)
    counters = {name: arr[unperm] for name, arr in counters.items()}
    if collect_traces:
        traces = [traces[k] for k in unperm]
    devices = DeviceStats(ring=rings.copy(), distance=net.distances.copy(), **counters)
    cycles = sums["cycles"]
    q_hat = _ratio(sums["successes"], cycles)
    return SimReport(
        warmup=warmup,
        n_devices=np.diff(edges),
        **{name: sums[name] for name in COUNTERS},
        energy_avail=_ratio(sums["attempts"], cycles),
        conn_rate=_ratio(sums["successes"], sums["attempts"]),
        overall_rate=q_hat,
        ci_half_width=1.96 * np.sqrt(_ratio(q_hat * (1.0 - q_hat), cycles)),
        duty_mean=_ratio(sums["duty_sum"], cycles),
        devices=devices,
        traces=traces,
    )
