"""Uplink coverage analysis: path loss, fading success probabilities, PPP sampling.

Interference is co-SF only: devices in the same distance ring, thinned by the
transmitting fraction p. The interference-success closed form integrates the
ring annulus with the specialized Gauss hypergeometric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .hypergeom import hyp2f1_special
from .phy import AIRTIMES_S, N_RINGS, SNR_THRESHOLDS, ChargingScheme, PhyConfig, collision_fraction, ring_index

MIN_DISTANCE_M = 1.0  # clamp to avoid the path-gain singularity at the gateway


def path_gain(d: float, cfg: PhyConfig) -> float:
    """Free-space-style attenuation (wavelength / 4 pi d)^eta, d in meters."""
    if d <= 0:
        raise ValueError("path gain is singular at the gateway; clamp the distance first")
    return (cfg.wavelength / (4.0 * np.pi * d)) ** cfg.eta


def snr_success(d: float, cfg: PhyConfig) -> float:
    """P[SNR >= ring threshold] under unit-mean Rayleigh power fading."""
    threshold = SNR_THRESHOLDS[ring_index(d, cfg)]
    d_eff = max(d, MIN_DISTANCE_M)
    return float(np.exp(-cfg.noise * threshold / (cfg.p_tx * path_gain(d_eff, cfg))))


def _ring_integral(d: float, ring: int, cfg: PhyConfig) -> float:
    """Integral of r * A/(r^eta + A) over the ring annulus, A = threshold * d^eta."""
    a_const = cfg.sir_threshold * d**cfg.eta

    def term(x: float) -> float:
        if x == 0.0:
            return 0.0
        return 0.5 * x * x * hyp2f1_special(cfg.eta, -(x**cfg.eta) / a_const)

    lo, hi = cfg.ring_radii[ring], cfg.ring_radii[ring + 1]
    return term(hi) - term(lo)


def sir_success(d: float, p: float, cfg: PhyConfig) -> float:
    """P[SIR >= capture threshold] against same-ring interferers of intensity p * density."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("transmitting fraction p must lie in [0, 1]")
    if p == 0.0 or cfg.density == 0.0:
        return 1.0
    ring = ring_index(d, cfg)
    d_eff = max(d, MIN_DISTANCE_M)
    return float(np.exp(-2.0 * np.pi * p * cfg.density * _ring_integral(d_eff, ring, cfg)))


def connection_prob(
    d: float,
    p: float,
    cfg: PhyConfig,
    n_samples: int = 100000,
    seed: int = 0,
) -> tuple[float, float]:
    """(lower, upper) bounds on the joint SNR-and-SIR success probability.

    The lower bound multiplies the two marginal successes (independence
    bound). The upper value Monte Carlo-estimates the exact joint probability
    P[|h|^2 >= max(noise term, interference term)] by sampling same-ring
    interferer sets, since no closed form exists for the max coupling.
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


@dataclass(frozen=True)
class CoverageProfile:
    """Distance-resolved uplink success decomposition."""

    distances: np.ndarray  # [m]
    ring: np.ndarray  # 0..5
    snr_success: np.ndarray
    sir_success: np.ndarray
    conn_lower: np.ndarray
    energy_avail: np.ndarray
    overall: np.ndarray  # energy_avail * conn_lower
    collision_p: np.ndarray  # per ring, length 6


def coverage_profile(
    cfg: PhyConfig,
    scheme: ChargingScheme,
    energy_avail: np.ndarray,
    points_per_ring: int = 40,
) -> CoverageProfile:
    """Evaluate the success chain on points_per_ring equally spaced distances per ring.

    energy_avail holds the six per-ring probabilities of being energy-capable
    (from the steady-state chain); the co-SF transmitting fraction is
    energy_avail times the expected duty figure E[tau/(nu+tau)]
    (collision_fraction's "expected" variant).
    """
    energy_avail = np.asarray(energy_avail, dtype=float)
    if energy_avail.shape != (N_RINGS,):
        raise ValueError(f"need {N_RINGS} per-ring energy availabilities")
    if points_per_ring < 1:
        raise ConfigError(f"points per ring must be at least 1, got {points_per_ring}")
    p_ring = np.array([collision_fraction(energy_avail[r], scheme, AIRTIMES_S[r]) for r in range(N_RINGS)])
    pieces = []
    for r in range(N_RINGS):
        lo, hi = cfg.ring_radii[r], cfg.ring_radii[r + 1]
        if hi <= lo:
            continue
        step = (hi - lo) / points_per_ring
        pieces.append(lo + step * (np.arange(points_per_ring) + 1))
    distances = np.concatenate(pieces)
    rings = ring_index(distances, cfg)
    snr = np.array([snr_success(d, cfg) for d in distances])
    sir = np.array([sir_success(d, p_ring[r], cfg) for d, r in zip(distances, rings)])
    lower = snr * sir
    avail = energy_avail[rings]
    return CoverageProfile(
        distances=distances,
        ring=rings,
        snr_success=snr,
        sir_success=sir,
        conn_lower=lower,
        energy_avail=avail,
        overall=avail * lower,
        collision_p=p_ring,
    )


@dataclass(frozen=True)
class NetworkRealization:
    """Sampled device distances and their SF rings; the model is isotropic, so no angle is kept."""

    distances: np.ndarray  # [m]
    ring: np.ndarray  # 0..5

    @property
    def n_devices(self) -> int:
        return self.distances.size


def sample_network(cfg: PhyConfig, seed: int = 0, n_devices: int | None = None) -> NetworkRealization:
    """Draw device distances from the uniform PPP on the deployment disk.

    The count is Poisson with mean density * disk area unless n_devices pins
    it. The model is isotropic, so only the count and the radii are drawn.
    Distances are clamped away from the gateway singularity.
    """
    if n_devices is not None and n_devices < 0:
        raise ConfigError(f"device count must be non-negative, got {n_devices}")
    rng = np.random.default_rng(seed)
    if n_devices is None:
        mean = cfg.density * np.pi * cfg.radius**2
        if not mean < 2**59:  # the CLI's size bound, below numpy's Poisson limit
            raise ConfigError(f"mean device count density * disk area must be below 2**59, got {mean:.3g}")
        n_devices = int(rng.poisson(mean))
    radii = np.maximum(cfg.radius * np.sqrt(rng.uniform(size=n_devices)), MIN_DISTANCE_M)
    return NetworkRealization(distances=radii, ring=ring_index(radii, cfg))
