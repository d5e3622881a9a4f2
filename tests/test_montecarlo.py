import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from loraeh import montecarlo
from loraeh.capacitor import build_model
from loraeh.errors import ConfigError
from loraeh.geometry import NetworkRealization, sample_network
from loraeh.montecarlo import (
    _WALK,
    COUNTERS,
    DeviceStats,
    SimReport,
    _stable_order,
    _window_edge,
    run_simulation,
)
from loraeh.phy import AIRTIMES_S, N_RINGS, ChargingScheme


def fixed_network(distances):
    distances = np.asarray(distances, dtype=float)
    rings = np.minimum((distances // 1000).astype(int), 5)
    return NetworkRealization(distances=distances, ring=rings)


def report_fields(rep):
    return (
        rep.n_devices,
        rep.cycles,
        rep.energy_skips,
        rep.energy_aborts,
        rep.attempts,
        rep.snr_fails,
        rep.sir_fails,
        rep.successes,
        rep.overall_rate,
    )


class TestSingleDevice:
    def test_noiseless_lone_device(self, fig2, ud, steady_cache):
        cfg = dataclasses.replace(fig2.phy, noise=0.0)
        net = fixed_network([3500.0])
        rep = run_simulation(net, cfg, build_model(cfg), ud, duration=2.5e5, seed=4)
        assert rep.conn_rate[3] == 1.0  # no noise, no interferers
        markov_avail = 1.0 - steady_cache("ud", 0.204).outage(fig2.phy.v_operating)
        n = rep.cycles[3]
        se = math.sqrt(markov_avail * (1 - markov_avail) / n)
        # gating (skip without discharge) biases availability slightly upward
        assert abs(rep.energy_avail[3] - markov_avail) < 3 * se + 0.01

    def test_huge_charging_time_never_skips(self, fig2):
        scheme = ChargingScheme.uniform(1e4, 2e4)
        net = fixed_network([3500.0, 3600.0])
        rep = run_simulation(net, fig2.phy, build_model(fig2.phy), scheme, duration=3e6, seed=1)
        assert rep.energy_skips.sum() == 0
        assert rep.energy_aborts.sum() == 0
        assert rep.attempts[3] >= 10
        assert (rep.energy_avail * rep.duty_mean)[3] < 2e-5


class TestAccounting:
    def test_counters_name_the_count_fields_in_order(self):
        # COUNTERS is the one list of counter names: DeviceStats and SimReport hold them in its order
        for cls in (DeviceStats, SimReport):
            names = [f.name for f in dataclasses.fields(cls)]
            assert [n for n in names if n in COUNTERS] == list(COUNTERS)
        assert [f.name for f in dataclasses.fields(DeviceStats)][2:-1] == list(COUNTERS)

    def test_counter_identity(self, fig2, ud):
        net = sample_network(fig2.phy, seed=2, n_devices=150)
        rep = run_simulation(net, fig2.phy, build_model(fig2.phy), ud, duration=5e4, seed=2)
        assert np.array_equal(rep.attempts, rep.successes + rep.snr_fails + rep.sir_fails)
        dv = rep.devices
        assert np.array_equal(dv.attempts, dv.successes + dv.snr_fails + dv.sir_fails)
        per_ring_cycles = np.array([dv.cycles[dv.ring == r].sum() for r in range(6)])
        assert np.array_equal(per_ring_cycles, rep.cycles)
        # a cycle is a skip, an abort, or an evaluated attempt, on every ring and every device
        assert np.array_equal(rep.cycles, rep.energy_skips + rep.energy_aborts + rep.attempts)
        assert np.array_equal(dv.cycles, dv.energy_skips + dv.energy_aborts + dv.attempts)
        assert dv.energy_skips.sum() > 0 and dv.energy_aborts.sum() > 0

    def test_overall_identity(self, fig2, ud):
        net = sample_network(fig2.phy, seed=3, n_devices=100)
        rep = run_simulation(net, fig2.phy, build_model(fig2.phy), ud, duration=5e4, seed=3)
        mask = rep.cycles > 0
        assert np.allclose(rep.overall_rate[mask], (rep.energy_avail * rep.conn_rate)[mask], atol=1e-12)

    def test_empty_network(self, fig2, ud):
        net = fixed_network([])
        rep = run_simulation(net, fig2.phy, build_model(fig2.phy), ud, duration=1e4, seed=0)
        assert rep.cycles.sum() == 0 and rep.successes.sum() == 0

    @pytest.mark.parametrize("warmup", [1e3, 5e3])
    def test_warmup_not_below_duration_is_config_error(self, fig2, ud, warmup):
        # no cycle could be counted: the report would read as total outage
        with pytest.raises(ConfigError, match="warm-up"):
            net = fixed_network([3500.0])
            run_simulation(net, fig2.phy, build_model(fig2.phy), ud, duration=1e3, seed=0, warmup=warmup)

    @given(
        n_devices=st.integers(0, 40),
        seed=st.integers(0, 2**16),
        scheme=st.one_of(
            st.builds(lambda a, width: ChargingScheme.uniform(a, a + width), st.floats(1.0, 60.0), st.floats(1e-9, 120.0)),
            st.builds(ChargingScheme.weibull, st.floats(0.4, 3.0), st.floats(1.0, 80.0)),
        ),
        overlap=st.sampled_from(["full", "fractional"]),
        warmup_share=st.floats(0.0, 0.5),
    )
    def test_conservation(self, fig2, n_devices, seed, scheme, overlap, warmup_share):
        duration = 4e3
        net = sample_network(fig2.phy, seed=seed, n_devices=n_devices)
        m = build_model(fig2.phy)
        rep = run_simulation(net, fig2.phy, m, scheme, duration, seed=seed, overlap=overlap, warmup=warmup_share * duration)
        dv = rep.devices
        for c in (dv, rep):
            assert np.array_equal(c.cycles, c.energy_skips + c.energy_aborts + c.attempts)
            # sir_fails is attempts - successes - snr_fails by construction, so
            # this identity is checked through sir_fails >= 0 below
            assert np.array_equal(c.attempts, c.successes + c.snr_fails + c.sir_fails)
            for name in COUNTERS:
                assert np.all(getattr(c, name) >= 0), name
        for name in COUNTERS:
            per_ring = np.bincount(dv.ring, weights=getattr(dv, name), minlength=N_RINGS)
            assert np.array_equal(per_ring, getattr(rep, name)), name


class TestDeterminism:
    def test_bit_identical_reports(self, fig2, ud):
        net = sample_network(fig2.phy, seed=11, n_devices=120)
        a = run_simulation(net, fig2.phy, build_model(fig2.phy), ud, duration=4e4, seed=11)
        b = run_simulation(net, fig2.phy, build_model(fig2.phy), ud, duration=4e4, seed=11)
        for x, y in zip(report_fields(a), report_fields(b)):
            assert np.array_equal(x, y)

    def test_seed_changes_results(self, fig2, ud):
        net = sample_network(fig2.phy, seed=11, n_devices=120)
        a = run_simulation(net, fig2.phy, build_model(fig2.phy), ud, duration=4e4, seed=11)
        b = run_simulation(net, fig2.phy, build_model(fig2.phy), ud, duration=4e4, seed=12)
        assert not np.array_equal(a.successes, b.successes)


class TestBlockSize:
    @pytest.mark.parametrize("overlap", ["full", "fractional"])
    @pytest.mark.parametrize(
        "scheme, duration, n_devices",
        [
            (ChargingScheme.uniform(0.0, 100.0), 3e4, 40),
            (ChargingScheme.weibull(0.5, 50.0), 3e4, 40),
            (ChargingScheme.uniform(0.5, 1.5), 3e3, 40),  # about 3000 cycles a device: many blocks of 256
            # a (block x 1) column is where numpy's sum would add pairwise, not in cycle order
            (ChargingScheme.uniform(0.0, 20.0), 2e4, 1),
        ],
        ids=["ud", "wd-half", "fast", "one-device"],
    )
    def test_output_does_not_depend_on_the_block_size(self, fig2, monkeypatch, scheme, duration, n_devices, overlap):
        # each device's stream is consumed in cycle order, so no block size moves a bit
        net = sample_network(fig2.phy, seed=21, n_devices=n_devices)
        m = build_model(fig2.phy)

        def outputs(block):
            monkeypatch.setattr(montecarlo, "_BLOCK", block)
            rep = run_simulation(net, fig2.phy, m, scheme, duration=duration, seed=21, overlap=overlap, collect_traces=True)
            stats = {f.name: getattr(rep.devices, f.name).tobytes() for f in dataclasses.fields(DeviceStats)}
            return stats, [tr.tobytes() for tr in rep.traces]

        shipped = outputs(256)
        for block in (1, 7, 1000):
            stats, traces = outputs(block)
            assert stats == shipped[0], block
            assert traces == shipped[1], block


class TestMemory:
    def test_peak_per_packet_record(self, fig2, ud):
        """Records are kept ring by ring, and each ring's pass frees its arrays
        before the next ring's are built. 150 devices over 3e5 s (the benchmark's
        large job at about a quarter of its devices, some 2600 packets a device)
        peak near 27 bytes a packet; a pass that joins every ring's records
        first takes about 52, above the bound."""
        net = sample_network(fig2.phy, seed=0, n_devices=150)
        m = build_model(fig2.phy)
        tracemalloc.start()
        try:
            rep = run_simulation(net, fig2.phy, m, ud, duration=3e5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        packets = rep.devices.attempts.sum()
        assert packets > 2000 * net.n_devices
        assert peak < 40 * packets

    def test_peak_does_not_grow_with_duration(self, fig2, ud):
        """Each ring tests its records as they become final, so ten times the
        duration leaves the traced peak where it was (4.3 and 4.7 MiB for
        150 devices over 1e5 and 1e6 s). Records kept until the energy loop
        ended made the longer run's peak about 7 times the shorter's."""
        net = sample_network(fig2.phy, seed=0, n_devices=150)
        m = build_model(fig2.phy)
        peaks = []
        for duration in (1e5, 1e6):
            tracemalloc.start()
            try:
                run_simulation(net, fig2.phy, m, ud, duration=duration, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]


class TestEnergyBookkeeping:
    def test_standalone_replay_matches(self, fig2, ud):
        # replay device 1's voltage sequence from its own stream through the
        # closed-form steps; the simulator must agree cycle by cycle
        net = fixed_network([3500.0, 4500.0, 2500.0])
        duration, seed = 3e4, 6
        m = build_model(fig2.phy, "thevenin")
        rep = run_simulation(net, fig2.phy, m, ud, duration=duration, seed=seed, collect_traces=True)
        dev = 1
        streams = np.random.SeedSequence(seed).spawn(6)
        gen = np.random.Generator(np.random.PCG64(streams[2 * dev]))
        v = gen.uniform(fig2.phy.v_operating, m.v_limit_off)
        airtime = AIRTIMES_S[net.ring[dev]]
        trace = rep.traces[dev]
        t = 0.0
        replayed = []
        while t < duration:
            u = gen.uniform(0.0, 1.0, 2048)
            nu_block = ud.a + (ud.b - ud.a) * u
            for nu in nu_block:
                if t >= duration:
                    break
                w = m.v_limit_off + (v - m.v_limit_off) * np.exp(-nu / m.tau_off)
                if w >= fig2.phy.v_operating:
                    v = m.v_limit_on + (w - m.v_limit_on) * np.exp(-airtime / m.tau_on)
                    t += nu + airtime
                else:
                    v = w
                    t += nu
                replayed.append(v)
        assert len(replayed) == trace.size
        assert np.max(np.abs(np.asarray(replayed) - trace)) < 1e-12

    def test_skip_does_not_discharge(self, fig2):
        # threshold above the charge ceiling: the device can never transmit
        cfg = dataclasses.replace(fig2.phy, v_operating=3.25)
        scheme = ChargingScheme.uniform(0.0, 5.0)
        net = fixed_network([5500.0])
        rep = run_simulation(net, cfg, build_model(cfg), scheme, duration=2e3, seed=3, warmup=0.0, collect_traces=True)
        assert rep.attempts.sum() == 0
        assert rep.energy_skips[5] == rep.cycles[5]
        assert np.all(np.diff(rep.traces[0]) >= 0)  # only charging; a discharge would drop strictly

    def test_voltage_stays_in_range(self, fig2, ud):
        net = fixed_network([3500.0])
        m = build_model(fig2.phy, "thevenin")
        rep = run_simulation(net, fig2.phy, build_model(fig2.phy), ud, duration=5e4, seed=9, collect_traces=True)
        tr = rep.traces[0]
        assert tr.min() >= m.v_limit_on - 1e-12 and tr.max() <= m.v_limit_off + 1e-12


class TestInterference:
    def test_fractional_weighting_never_exceeds_full(self, fig2, ud):
        net = sample_network(fig2.phy, seed=14, n_devices=300)
        full = run_simulation(net, fig2.phy, build_model(fig2.phy), ud, duration=5e4, seed=14, overlap="full")
        frac = run_simulation(net, fig2.phy, build_model(fig2.phy), ud, duration=5e4, seed=14, overlap="fractional")
        assert np.array_equal(full.attempts, frac.attempts)  # energy side identical
        assert np.all(frac.successes >= full.successes)

    def test_denser_network_more_interference(self, fig2, ud):
        rates = []
        for n in (100, 250, 500):
            net = sample_network(fig2.phy, seed=15, n_devices=n)
            rep = run_simulation(net, fig2.phy, build_model(fig2.phy), ud, duration=4e4, seed=15)
            rates.append(rep.conn_rate[2])  # ring 3: fully energy-available
        assert rates[0] > rates[1] > rates[2]

    def test_ci_shrinks_with_duration(self, fig2, ud):
        net = sample_network(fig2.phy, seed=16, n_devices=60)
        short = run_simulation(net, fig2.phy, build_model(fig2.phy), ud, duration=5e4, seed=16)
        long = run_simulation(net, fig2.phy, build_model(fig2.phy), ud, duration=2e5, seed=16)
        for r in range(4):
            if short.cycles[r] and long.cycles[r]:
                ratio = long.ci_half_width[r] / max(short.ci_half_width[r], 1e-12)
                assert ratio < 0.75  # roughly duration^(-1/2)


class TestCollisionEstimate:
    def test_dead_ring_zero(self, fig2, ud):
        net = fixed_network([5500.0])  # SF12 is always in outage at these parameters
        rep = run_simulation(net, fig2.phy, build_model(fig2.phy), ud, duration=5e4, seed=2)
        assert (rep.energy_avail * rep.duty_mean)[5] == 0.0


@st.composite
def sorted_starts(draw):
    """Sorted packet start times: distinct, from a few values, or a few ulps apart."""
    n = draw(st.integers(0, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["distinct", "ties", "ulps"]))
    if kind == "distinct":
        s = rng.uniform(0.0, 100.0, n)
    elif kind == "ties":
        s = rng.integers(0, draw(st.integers(1, 40)), n).astype(float)
    else:  # tau = 1e-12 is below half an ulp of 1e6, so s +- tau == s
        s = 1e6 + np.spacing(1e6) * rng.integers(0, 5, n)
    return np.sort(s)


TAUS = st.one_of(st.sampled_from([0.0, 1e-12, 1e3]), st.floats(0.0, 150.0))


def assert_window_edges(s, tau):
    for a in (s - tau, s + tau):
        for side in ("left", "right"):
            assert np.array_equal(_window_edge(s, a, side), np.searchsorted(s, a, side)), side


class TestWindowEdge:
    """The packet-window walk finds what np.searchsorted finds."""

    @given(s=sorted_starts(), tau=TAUS)
    @example(s=np.sort(np.random.default_rng(1).uniform(0.0, 100.0, 600)), tau=40.0)  # windows of ~240 records
    @example(s=np.full(300, 7.0), tau=0.0)  # one run of ties
    def test_matches_searchsorted(self, s, tau):
        assert_window_edges(s, tau)

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("tau", [0.0, 1e-12, 0.5, 1e3])
    def test_tiny_rings(self, n, tau):
        assert_window_edges(np.arange(n, dtype=float), tau)
        assert_window_edges(np.full(n, 3.0), tau)

    def test_windows_wider_than_the_slice_walk(self):
        s = np.sort(np.random.default_rng(2).uniform(0.0, 1e3, 20_000))
        lo = np.searchsorted(s, s - 30.0, "right")
        assert np.median(np.arange(s.size) - lo) > 20 * _WALK  # hundreds of records per window
        assert_window_edges(s, 30.0)


class TestStableOrder:
    @given(n=st.integers(0, 3000), values=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_matches_stable_argsort(self, n, values, seed):
        x = np.random.default_rng(seed).integers(0, values, n) * 0.25 - 0.5
        order, xs = _stable_order(x)
        want = np.argsort(x, kind="stable")
        assert np.array_equal(order, want)
        assert np.array_equal(xs, x[want])


class TestRingPass:
    @pytest.mark.parametrize("overlap", ["full", "fractional"])
    def test_ties_split_by_a_flush_keep_record_order(self, fig2, monkeypatch, overlap):
        """A run of equal starts split between carried and new records is tested
        carried first, so flushing the first block at t_min and the second at
        inf takes the same tallies and running-sum inputs, bit for bit, as one
        flush of both blocks at inf."""
        seen = []
        running_sum = montecarlo._running_sum
        monkeypatch.setattr(
            montecarlo, "_running_sum", lambda total, x: seen.append((total, x.copy())) or running_sum(total, x)
        )
        # (device, start) in arrival order; tau = 1, and the second block starts at or after t_min = 2.5
        blocks = [
            ([0, 1, 2, 3, 0, 1, 2], [0.2, 1.2, 2.0, 3.0, 3.0, 5.0, 3.0]),
            ([3, 0, 1, 2], [3.0, 3.0, 4.0, 5.0]),
        ]
        h2 = np.random.default_rng(3).exponential(size=11)
        records = [
            (np.array(dev, dtype=np.int32), np.array(start), h2[:7] if i == 0 else h2[7:])
            for i, (dev, start) in enumerate(blocks)
        ]
        gains = np.array([1.0, 0.5, 0.25, 0.125])

        def ring_pass(t_min):
            ring = montecarlo._RingPass(np.full(4, 0.2), gains, 1.0, fig2.phy, overlap, 0.0, np.zeros((2, 4), int))
            if t_min < math.inf:
                ring.flush(records[0], t_min)
                assert ring.tested > 0 and 3.0 in ring.carried[1]  # ties of the second block's records
                ring.flush(records[1], math.inf)
            else:
                ring.flush(tuple(map(np.concatenate, zip(*records))), math.inf)
            return ring

        one = ring_pass(math.inf)
        whole = list(seen)
        seen.clear()
        split = ring_pass(2.5)
        assert np.array_equal(split.snr_fails, one.snr_fails) and np.array_equal(split.successes, one.successes)
        sent = np.bincount(np.concatenate([dev for dev, _ in blocks]))
        assert one.snr_fails.any() and one.successes.any() and (one.snr_fails + one.successes < sent).any()
        per_flush = len(whole)  # running sums per flush: p, and p * start if fractional
        assert len(seen) == 2 * per_flush
        for k, (total, x) in enumerate(seen):
            _, want = whole[k % per_flush]
            at = 0 if k < per_flush else want.size - x.size  # the first flush starts at 0, the last ends at the end
            assert total == running_sum(0.0, want)[at] and np.array_equal(x, want[at : at + x.size])
