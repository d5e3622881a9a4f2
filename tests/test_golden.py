"""Golden outputs of the network path: sample_network, run_simulation, simulate.

The digests were recorded from the per-cycle simulator that
`reference_simulation` (`oracles.py`) reproduces. Any restructuring of the
network path must reproduce them bit for bit. They depend on numpy's
vectorized exp, log1p and power kernels, so on another platform the
comparison with `reference_simulation` is the check that still holds.
`python tests/test_golden.py` prints the digests of the current code in the
layout of GOLDEN.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from oracles import reference_simulation

from loraeh import montecarlo
from loraeh.capacitor import build_model
from loraeh.cli import main
from loraeh.config import load_config
from loraeh.geometry import NetworkRealization, sample_network
from loraeh.montecarlo import _WALK, run_simulation
from loraeh.phy import AIRTIMES_S, ChargingScheme, ring_index

WEIBULL_HALF = "[scheme]\nk = 0.5\n"
# mean charging time 1 s: in 1e4 s one device crosses many of the simulator's
# 256-cycle blocks and several of reference_simulation's 2048-cycle chunks
FAST_CHARGE = "[scheme]\nb_s = 2\n"

# name -> (config text or None, CLI arguments)
SIM_CASES = {
    "ud-full-pinned": (None, ["--devices", 60, "--duration", 3e4, "--seed", 5]),
    "wd-full-pinned": (WEIBULL_HALF, ["--scheme", "wd", "--devices", 60, "--duration", 3e4, "--seed", 6]),
    "ud-full-poisson": (None, ["--duration", 6e3, "--seed", 7]),
    "ud-full-chunks": (FAST_CHARGE, ["--devices", 25, "--duration", 1e4, "--seed", 9]),
}

GOLDEN = {
    "ud-full-pinned": (
        "88fbe140c963feb4bf6d1035a43702eb53b4b1ebccf75c968445fd60e4a9ec6f",
        "8680ca0cf1b38f80bb00b6e05c1940987d1bf823bc83d7e54b5dd4b80584a016",
    ),
    "wd-full-pinned": (
        "2b142c0e8a3a877627fa6a2b079ba70ea39b9411a9e81431e374d4f9f8f4aecf",
        "fe43adc9761ba6ca0ff38717485d470ed58c89e054f31f42af8f184bc2545a39",
    ),
    "ud-full-poisson": (
        "c0fca0b97fb5a0b490ada81147acb3aa383da6c0f956213a8cf8c90e9da2a9be",
        "afacf6cd59b187bffbd06a09c15f7c35d31fe1fb53cfe6538760e50d7a2b2715",
    ),
    "ud-full-chunks": (
        "92e6c7806c8c0d43cd0a65a249ba06f4dba1e1f69f497dec4556c73d95e58ac4",
        "8e16bd0383d505475c2ffdcae2424b104760fa5d10e794227a400e7bc2291531",
    ),
}
GOLDEN_REPORTS = "6f2d658157694072b55b8dc34640f63783075ef77047907598f165e1c1874d0f"
GOLDEN_NETWORKS = "b0196f5f6a87cf376c926cd8b30e8b7c7174528e72b16dce0beafa46e713c109"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def simulate_digests(name, workdir):
    """(sim_report.csv, sim_devices.csv) digests of one SIM_CASES entry."""
    cfg_text, args = SIM_CASES[name]
    argv = ["simulate", "--per-device", "--out", workdir / name, *args]
    if cfg_text is not None:
        cfg = workdir / f"{name}.ini"
        cfg.write_text(cfg_text)
        argv += ["--config", cfg]
    assert main([str(a) for a in argv]) == 0
    return tuple(_sha((workdir / name / f).read_bytes()) for f in ("sim_report.csv", "sim_devices.csv"))


REPORT_FIELDS = (
    "n_devices", "cycles", "energy_skips", "energy_aborts", "attempts", "snr_fails", "sir_fails",
    "successes", "energy_avail", "conn_rate", "overall_rate", "ci_half_width", "duty_mean",
)  # fmt: skip
DEVICE_FIELDS = (
    "ring", "distance", "cycles", "energy_skips", "energy_aborts", "attempts", "snr_fails",
    "sir_fails", "successes", "duty_sum",
)  # fmt: skip


def report_digest():
    """Digest of every report and per-device array, and of every voltage trace.

    The traced run crosses block and chunk boundaries; the Weibull run uses
    the default warm-up.
    """
    run = load_config()
    fast = ChargingScheme.uniform(0.0, 2.0)
    m = build_model(run.phy)
    net = sample_network(run.phy, seed=4, n_devices=12)
    traced = run_simulation(net, run.phy, m, fast, duration=6e3, seed=4, warmup=0.0, collect_traces=True)
    net = sample_network(run.phy, seed=10, n_devices=80)
    weibull = run_simulation(net, run.phy, m, ChargingScheme.weibull(0.5, 50.0), duration=2e4, seed=10)
    h = hashlib.sha256()
    for rep in (traced, weibull):
        arrays = [getattr(rep, f) for f in REPORT_FIELDS] + [getattr(rep.devices, f) for f in DEVICE_FIELDS]
        for arr in arrays:
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    for tr in traced.traces:
        h.update(np.int64(tr.size).tobytes())
        h.update(np.ascontiguousarray(tr, dtype=np.float64).tobytes())
    return h.hexdigest()


def networks_digest():
    """Digest of distances and rings over 50 Poisson realizations."""
    phy = load_config().phy
    h = hashlib.sha256()
    for seed in range(50):
        net = sample_network(phy, seed=seed)
        for arr in (net.distances, net.ring.astype(np.int64)):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "scheme, n_devices, duration, warmup",
    [
        (ChargingScheme.uniform(0.0, 100.0), 40, 3e4, None),
        (ChargingScheme.uniform(0.0, 2.0), 15, 5e3, 0.0),
        (ChargingScheme.weibull(0.5, 50.0), 40, 3e4, None),
        (ChargingScheme.weibull(2.0, 1.0), 15, 5e3, 200.0),
    ],
    ids=["ud", "ud-chunks", "wd-half", "wd-two-chunks"],
)
def test_matches_per_cycle_reference(fig2, scheme, n_devices, duration, warmup):
    net = sample_network(fig2.phy, seed=n_devices, n_devices=n_devices)
    assert_matches_reference(net, fig2.phy, scheme, duration, warmup)


def assert_matches_reference(net, cfg, scheme, duration, warmup):
    m = build_model(cfg)
    rep = run_simulation(net, cfg, m, scheme, duration, seed=3, warmup=warmup, collect_traces=True)
    want, traces, dev, start, running_sums = reference_simulation(net, cfg, scheme, duration, 3, rep.warmup)
    for name, arr in want.items():
        assert np.array_equal(getattr(rep.devices, name), arr), name
    assert all(np.array_equal(a, b) for a, b in zip(rep.traces, traces))
    return rep, dev, start, running_sums


def assert_tied_starts_match(cfg, ring_cycle):
    """60 devices, device i in ring ring_cycle[i % len(ring_cycle)], whose packets
    tie in start time, match the per-cycle reference."""
    radii = cfg.ring_radii
    ring = np.resize(ring_cycle, 60)
    d = np.random.default_rng(2).uniform(np.take(radii, ring) + 1.0, np.take(radii, ring + 1))
    rings = ring_index(d, cfg)
    assert np.array_equal(rings, ring)
    net = NetworkRealization(d, rings)
    # about 1.4e5 distinct doubles in the support, so start times collide
    scheme = ChargingScheme.uniform(50.0, 50.0 + 1e-9)
    rep, dev, start, running_sums = assert_matches_reference(net, cfg, scheme, 2e3, 0.0)
    assert np.unique(start).size < start.size
    return rep, running_sums


def test_matches_reference_with_tied_starts(fig2):
    """A ring whose packets tie in start time still matches the per-cycle reference."""
    assert_tied_starts_match(fig2.phy, [0])


def test_matches_reference_with_tied_starts_across_interleaved_rings(fig2):
    """Devices alternate between rings 1, 3 and 4 in index order, with ring 2
    empty between them, so the simulator's grouping of devices by ring is far
    from the index order."""
    rep, _ = assert_tied_starts_match(fig2.phy, [1, 3, 4])
    assert rep.n_devices[2] == 0 and (rep.attempts[[1, 3, 4]] > 0).all()


def test_matches_reference_with_tied_starts_across_flushes(fig2, monkeypatch):
    """At 7-cycle blocks the ring is flushed after every block, and each flush
    carries the last cycle's records, runs of tied starts among them, into the
    next one, whose sort must keep their order; the output is still the reference's."""
    monkeypatch.setattr(montecarlo, "_BLOCK", 7)
    assert_tied_starts_match(fig2.phy, [0])


def test_record_order_within_a_ring(fig2, monkeypatch):
    """Each ring's records enter the interference prefix sum by start, ties
    in (cycle, device index) order, as the per-cycle reference adds them:
    every running sum the simulator takes, flush by flush, is a run of its
    ring's reference sum, bit for bit, and together they cover it."""
    seen = []
    running_sum = montecarlo._running_sum
    monkeypatch.setattr(montecarlo, "_running_sum", lambda total, x: seen.append(running_sum(total, x)) or seen[-1])
    monkeypatch.setattr(montecarlo, "_BLOCK", 7)
    _, running_sums = assert_tied_starts_match(fig2.phy, [1, 3, 4])
    want = {ring: running_sums[ring] for ring in (1, 3, 4)}
    covered = {ring: np.zeros(cp.size, dtype=bool) for ring, cp in want.items()}
    flushes = dict.fromkeys(want, 0)
    for got in seen:
        runs = [
            (ring, i)
            for ring, cp in want.items()
            for i in np.flatnonzero(cp == got[0])
            if np.array_equal(cp[i : i + got.size], got)
        ]
        assert len(runs) == 1
        ring, i = runs[0]
        covered[ring][i : i + got.size] = True
        flushes[ring] += 1
    assert all(c.all() for c in covered.values())
    assert sum(flushes.values()) > len(flushes)  # a ring is tested in several flushes


def test_matches_reference_with_heavy_overlap(fig2):
    """300 devices in one ring, each packet overlapping dozens of others."""
    ring, n = 3, 300
    radii = fig2.phy.ring_radii
    d = np.random.default_rng(2).uniform(radii[ring] + 1.0, radii[ring + 1], n)
    # a radio drawing a tenth of the default current sends every few seconds;
    # a low capture threshold keeps both SIR outcomes common
    cfg = dataclasses.replace(fig2.phy, r_load_on=10 * fig2.phy.r_load_on, sir_threshold=0.03)
    rings = ring_index(d, cfg)
    net = NetworkRealization(d, rings)
    rep, _, start, _ = assert_matches_reference(net, cfg, ChargingScheme.uniform(0.0, 4.0), 300.0, 0.0)
    assert rep.successes[ring] > 1000 and rep.sir_fails[ring] > 1000
    s = np.sort(start)
    window = np.arange(s.size) - np.searchsorted(s, s - AIRTIMES_S[ring], "right")
    assert np.median(window) > 2 * _WALK  # most windows end past the slice walk


@pytest.mark.parametrize("name", sorted(SIM_CASES))
def test_simulate_csv_bytes(tmp_path, name):
    assert simulate_digests(name, tmp_path) == GOLDEN[name]


def test_report_and_trace_arrays():
    assert report_digest() == GOLDEN_REPORTS


def test_sampled_networks():
    assert networks_digest() == GOLDEN_NETWORKS


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for case in SIM_CASES:
            report, devices = simulate_digests(case, Path(tmp))
            print(f'    "{case}": (\n        "{report}",\n        "{devices}",\n    ),')
    print(f'GOLDEN_REPORTS = "{report_digest()}"')
    print(f'GOLDEN_NETWORKS = "{networks_digest()}"')
