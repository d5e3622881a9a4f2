"""Golden outputs of the network path: sample_network, run_simulation, simulate.

The digests were recorded from the per-cycle simulator that
`reference_simulation` reproduces (one numpy step per cycle for every counter
and record). Any restructuring of the network path must reproduce them bit for
bit. They depend on numpy's vectorized exp, log1p and power kernels, so on
another platform the comparison with `reference_simulation` is the check that
still holds. `python tests/test_golden.py` prints the digests of the current
code in the layout of GOLDEN.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from loraeh.capacitor import build_model
from loraeh.cli import main
from loraeh.config import load_config
from loraeh.geometry import NetworkRealization, path_gain, sample_network
from loraeh.montecarlo import _WALK, run_simulation
from loraeh.phy import AIRTIMES_S, N_RINGS, SNR_THRESHOLDS, ChargingScheme, ring_index

WEIBULL_HALF = "[scheme]\nk = 0.5\n"
# mean charging time 1 s: in 1e4 s one device crosses many of the simulator's
# 256-cycle blocks and several of reference_simulation's 2048-cycle chunks
FAST_CHARGE = "[scheme]\nb_s = 2\n"

# name -> (config text or None, CLI arguments)
SIM_CASES = {
    "ud-full-pinned": (None, ["--devices", 60, "--duration", 3e4, "--seed", 5]),
    "ud-fractional-pinned": (None, ["--devices", 60, "--duration", 3e4, "--seed", 5, "--overlap", "fractional"]),
    "wd-full-pinned": (WEIBULL_HALF, ["--scheme", "wd", "--devices", 60, "--duration", 3e4, "--seed", 6]),
    "wd-fractional-pinned": (
        WEIBULL_HALF,
        ["--scheme", "wd", "--devices", 60, "--duration", 3e4, "--seed", 6, "--overlap", "fractional"],
    ),
    "ud-full-poisson": (None, ["--duration", 6e3, "--seed", 7]),
    "wd-fractional-poisson": (WEIBULL_HALF, ["--scheme", "wd", "--duration", 6e3, "--seed", 8, "--overlap", "fractional"]),
    "ud-full-chunks": (FAST_CHARGE, ["--devices", 25, "--duration", 1e4, "--seed", 9]),
}

GOLDEN = {
    "ud-full-pinned": (
        "88fbe140c963feb4bf6d1035a43702eb53b4b1ebccf75c968445fd60e4a9ec6f",
        "8680ca0cf1b38f80bb00b6e05c1940987d1bf823bc83d7e54b5dd4b80584a016",
    ),
    "ud-fractional-pinned": (
        "07dd63538cbb0542d54e6e281c042b5527f7b2ab59c49c254ddd6022e4761117",
        "67b6f127c5aed164b8568bf1cfd7f10b0ea3fc1c2707246a841a1e8e97a2df85",
    ),
    "wd-full-pinned": (
        "2b142c0e8a3a877627fa6a2b079ba70ea39b9411a9e81431e374d4f9f8f4aecf",
        "fe43adc9761ba6ca0ff38717485d470ed58c89e054f31f42af8f184bc2545a39",
    ),
    "wd-fractional-pinned": (
        "7320d3d1a9549331d87afc349f37f9282684aba3280973bf8b9f3648b1012ba8",
        "c86b6b50e646364d6dc9de7ed1ffeaa1a0de18bc8bee7a9af44a21f01036ad7e",
    ),
    "ud-full-poisson": (
        "c0fca0b97fb5a0b490ada81147acb3aa383da6c0f956213a8cf8c90e9da2a9be",
        "afacf6cd59b187bffbd06a09c15f7c35d31fe1fb53cfe6538760e50d7a2b2715",
    ),
    "wd-fractional-poisson": (
        "3b4abe2892da4370329ad05f50d6cc950e611497bc1e7eff82d0060c400ec4b4",
        "cbda3edc30eade06555dda54399e9fdcbc2dea89676287804850149746e8f404",
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


def reference_simulation(net, cfg, scheme, duration, seed, overlap, warmup):
    """Per-device counters and duty sums, traces and packet start times of the
    per-cycle simulator."""
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
    for ring in range(N_RINGS):
        idx = np.flatnonzero(net.ring[dev] == ring)
        sub = idx[np.argsort(start[idx], kind="stable")]
        s = start[sub]
        pw = cfg.p_tx * h2[sub] * gains[dev[sub]]
        tau = AIRTIMES_S[ring]
        lo = np.searchsorted(s, s - tau, side="right")
        hi = np.searchsorted(s, s + tau, side="left")
        cp = np.concatenate([[0.0], np.cumsum(pw)])
        if overlap == "full":
            interference = cp[hi] - cp[lo] - pw
        else:
            csp = np.concatenate([[0.0], np.cumsum(pw * s)])
            sum_l, sum_ls = cp[:-1] - cp[lo], csp[:-1] - csp[lo]
            sum_r, sum_rs = cp[hi] - cp[1:], csp[hi] - csp[1:]
            interference = (sum_l - (s * sum_l - sum_ls) / tau) + (sum_r - (sum_rs - s * sum_r) / tau)
        ok_snr = h2[sub] >= cfg.noise * SNR_THRESHOLDS[ring] / (cfg.p_tx * gains[dev[sub]])
        success[sub] = ok_snr & (pw >= cfg.sir_threshold * interference)
        snr_fail[sub] = ~ok_snr
    out["successes"] = np.bincount(dev[counted & success], minlength=n)
    out["snr_fails"] = np.bincount(dev[counted & snr_fail], minlength=n)
    return out, [np.array(tr) for tr in traces], start


@pytest.mark.parametrize(
    "scheme, overlap, n_devices, duration, warmup",
    [
        (ChargingScheme.uniform(0.0, 100.0), "full", 40, 3e4, None),
        (ChargingScheme.uniform(0.0, 2.0), "fractional", 15, 5e3, 0.0),
        (ChargingScheme.weibull(0.5, 50.0), "fractional", 40, 3e4, None),
        (ChargingScheme.weibull(2.0, 1.0), "full", 15, 5e3, 200.0),
    ],
    ids=["ud", "ud-chunks", "wd-half", "wd-two-chunks"],
)
def test_matches_per_cycle_reference(fig2, scheme, overlap, n_devices, duration, warmup):
    net = sample_network(fig2.phy, seed=n_devices, n_devices=n_devices)
    assert_matches_reference(net, fig2.phy, scheme, duration, overlap, warmup)


def assert_matches_reference(net, cfg, scheme, duration, overlap, warmup):
    m = build_model(cfg)
    rep = run_simulation(net, cfg, m, scheme, duration, seed=3, overlap=overlap, warmup=warmup, collect_traces=True)
    want, traces, start = reference_simulation(net, cfg, scheme, duration, 3, overlap, rep.warmup)
    for name, arr in want.items():
        assert np.array_equal(getattr(rep.devices, name), arr), name
    assert all(np.array_equal(a, b) for a, b in zip(rep.traces, traces))
    return rep, start


@pytest.mark.parametrize("overlap", ["full", "fractional"])
def test_matches_reference_with_tied_starts(fig2, overlap):
    """A ring whose packets tie in start time still matches the per-cycle reference."""
    radii = fig2.phy.ring_radii
    d = np.random.default_rng(2).uniform(radii[0] + 1.0, radii[1], 60)
    rings = ring_index(d, fig2.phy)
    net = NetworkRealization(d, rings)
    # about 1.4e5 distinct doubles in the support, so start times collide
    scheme = ChargingScheme.uniform(50.0, 50.0 + 1e-9)
    _, start = assert_matches_reference(net, fig2.phy, scheme, 2e3, overlap, 0.0)
    assert np.unique(start).size < start.size


@pytest.mark.parametrize("overlap", ["full", "fractional"])
def test_matches_reference_with_heavy_overlap(fig2, overlap):
    """300 devices in one ring, each packet overlapping dozens of others."""
    ring, n = 3, 300
    radii = fig2.phy.ring_radii
    d = np.random.default_rng(2).uniform(radii[ring] + 1.0, radii[ring + 1], n)
    # a radio drawing a tenth of the default current sends every few seconds;
    # a low capture threshold keeps both SIR outcomes common
    cfg = dataclasses.replace(fig2.phy, r_load_on=10 * fig2.phy.r_load_on, sir_threshold=0.03)
    rings = ring_index(d, cfg)
    net = NetworkRealization(d, rings)
    rep, start = assert_matches_reference(net, cfg, ChargingScheme.uniform(0.0, 4.0), 300.0, overlap, 0.0)
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
