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
from .phy import (
    AIRTIMES_S,
    MIN_DISTANCE_M,
    N_RINGS,
    SNR_THRESHOLDS,
    ChargingScheme,
    PhyConfig,
    collision_fraction,
    ring_index,
)

MAX_COVERAGE_POINTS = 10**5  # distances the CLI lets coverage_profile evaluate, at about 0.1 ms each


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
    (collision_fraction).
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
    # numpy's byte sizes are int64, so 2**60 radii are a ValueError while any count below
    # 2**59 can at most fail to allocate (MemoryError); 2**59 is below its Poisson limit too
    if n_devices is not None and not 0 <= n_devices < 2**59:
        raise ConfigError(f"device count must be non-negative and below 2**59, got {n_devices}")
    rng = np.random.default_rng(seed)
    if n_devices is None:
        mean = cfg.density * np.pi * cfg.radius**2
        if not mean < 2**59:
            raise ConfigError(f"mean device count density * disk area must be below 2**59, got {mean:.3g}")
        n_devices = int(rng.poisson(mean))
    radii = np.maximum(cfg.radius * np.sqrt(rng.uniform(size=n_devices)), MIN_DISTANCE_M)
    return NetworkRealization(distances=radii, ring=ring_index(radii, cfg))
