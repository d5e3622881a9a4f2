"""Radio/electrical constants, SF table, charging-time distributions and duty cycles.

All quantities are SI internally: meters, seconds, watts, ohms, farads.
dB/dBm values are converted once when a config is built.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, NumericalError


@dataclass(frozen=True)
class SfEntry:
    """One spreading factor of the 25-byte-payload link table."""

    sf: int
    bitrate_kbps: float
    airtime_s: float
    snr_threshold_db: float  # demodulation floor, dB (negative: below noise)

    @property
    def snr_threshold(self) -> float:
        """Linear SNR demodulation threshold."""
        return 10.0 ** (self.snr_threshold_db / 10.0)


# 25-byte message at BW = 125 kHz; airtime = payload bits / bitrate.
SF_TABLE: tuple[SfEntry, ...] = (
    SfEntry(7, 5.47, 0.0366, -6.0),
    SfEntry(8, 3.13, 0.064, -9.0),
    SfEntry(9, 1.76, 0.113, -12.0),
    SfEntry(10, 0.98, 0.204, -15.0),
    SfEntry(11, 0.54, 0.372, -17.5),
    SfEntry(12, 0.29, 0.682, -20.0),
)

N_RINGS = len(SF_TABLE)

AIRTIMES_S = np.array([e.airtime_s for e in SF_TABLE])
SNR_THRESHOLDS = np.array([e.snr_threshold for e in SF_TABLE])


@dataclass(frozen=True)
class ChargingScheme:
    """Random inter-transmission (= capacitor charging) time distribution.

    kind "uniform": support [a, b] seconds.
    kind "weibull": shape k, scale w seconds (k=1 is exponential).
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    k: float = 1.0
    w: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.k, self.w))):
            raise ConfigError(f"scheme parameters must be finite, got a={self.a}, b={self.b}, k={self.k}, w={self.w}")
        if self.kind == "uniform":
            if not (0.0 <= self.a < self.b):
                raise ConfigError(f"uniform scheme requires 0 <= a < b, got a={self.a}, b={self.b}")
        elif self.kind == "weibull":
            if self.k <= 0.0 or self.w <= 0.0:
                raise ConfigError(f"weibull scheme requires k, w > 0, got k={self.k}, w={self.w}")
        else:
            raise ConfigError(f"unknown scheme kind {self.kind!r}")

    @classmethod
    def uniform(cls, a: float, b: float) -> "ChargingScheme":
        return cls("uniform", a=a, b=b)

    @classmethod
    def weibull(cls, k: float, w: float) -> "ChargingScheme":
        return cls("weibull", k=k, w=w)

    def pdf(self, x):
        """Density at x (scalar or array); zero outside the support."""
        x = np.asarray(x, dtype=float)
        if self.kind == "uniform":
            out = np.where((x >= self.a) & (x <= self.b), 1.0 / (self.b - self.a), 0.0)
        else:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                r = np.where(x > 0, x, 1.0) / self.w
                val = (self.k / self.w) * r ** (self.k - 1.0) * np.exp(-(r**self.k))
            if self.k == 1.0:
                at_zero = 1.0 / self.w
            else:
                at_zero = 0.0 if self.k > 1.0 else np.inf
            out = np.where(x > 0, val, np.where(x == 0, at_zero, 0.0))
        return out if out.ndim else float(out)

    def survival(self, x):
        """P[nu > x]."""
        x = np.asarray(x, dtype=float)
        if self.kind == "uniform":
            out = np.clip((self.b - x) / (self.b - self.a), 0.0, 1.0)
            out = np.where(x < self.a, 1.0, out)
        else:
            with np.errstate(over="ignore"):  # (x / w)^k = inf gives survival 0
                out = np.where(x > 0, np.exp(-((np.maximum(x, 0.0) / self.w) ** self.k)), 1.0)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        """E[nu] in seconds."""
        if self.kind == "uniform":
            return 0.5 * (self.a + self.b)
        return self.w * math.gamma(1.0 + 1.0 / self.k)

    def quad(self, f, rel_tol: float) -> float:
        """Integral of f over (0, inf) for a Weibull law (uniform expectations have closed forms);
        NumericalError unless its error estimate is within rel_tol."""
        from scipy import integrate  # loaded on first use: only the analytic subcommands integrate

        pts = (0.0, self.w, math.inf)  # split at the scale: small k has a spike at 0 and a long tail
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)  # err is judged below
            parts = [integrate.quad(f, *ab, epsabs=0.0, epsrel=rel_tol / 100, limit=500) for ab in zip(pts, pts[1:])]
        val, err = map(sum, zip(*parts))
        if not math.isfinite(val) or err > max(rel_tol * abs(val), 1e-300):
            raise NumericalError(f"{self.kind} charging-time quadrature did not converge (err={err:.2e})")
        return val

    def sample(self, rng: np.random.Generator, size=None):
        if self.kind == "uniform":
            return rng.uniform(self.a, self.b, size)
        return self.w * rng.weibull(self.k, size)


@dataclass(frozen=True)
class PhyConfig:
    """Electrical, radio and deployment constants (SI units)."""

    v_harvest: float  # harvester open-circuit voltage [V]
    p_harvest: float  # harvest rate [W]
    capacitance: float  # [F]
    r_load_off: float  # load resistance, radio off [ohm]
    r_load_on: float  # load resistance, radio on [ohm]
    v_operating: float  # radio operating threshold [V]
    p_tx: float  # transmit power [W]
    eta: float  # path-loss exponent, >= 2
    wavelength: float  # carrier wavelength [m]
    noise: float  # receiver noise power [W]
    sir_threshold: float  # co-SF capture threshold, linear
    radius: float  # deployment disk radius [m]
    density: float  # device intensity [1/m^2]
    ring_radii: tuple[float, ...]  # l0..l6 [m], nondecreasing, l6 = radius

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not all(map(math.isfinite, np.atleast_1d(value))):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.radius <= 0 or self.wavelength <= 0:
            raise ConfigError(f"radius and wavelength must be positive, got {self.radius} m and {self.wavelength} m")
        if self.p_harvest <= 0 or self.v_harvest <= 0:
            raise ConfigError("harvester voltage and power must be positive")
        if not math.isfinite(self.v_harvest * self.v_harvest / self.p_harvest):
            raise ConfigError("harvester resistance V_H^2 / P_H is too large for a float")
        if not self.r_load_on < self.r_load_off:
            raise ConfigError("r_load_on must be smaller than r_load_off (discharge faster than charge)")
        if not self.v_operating < self.v_harvest:
            raise ConfigError("operating threshold must lie below the harvester voltage")
        if self.eta < 2.0:
            raise ConfigError("path-loss exponent must be >= 2")
        if self.sir_threshold <= 0 or self.p_tx <= 0:
            raise ConfigError(f"SIR threshold and tx power must be positive, got {self.sir_threshold} and {self.p_tx} W")
        with np.errstate(over="ignore"):  # path gain (wavelength / 4 pi d)^eta, largest at d = 1 m
            rx_1m = self.p_tx * np.float64(self.wavelength / (4.0 * math.pi)) ** self.eta
        if not math.isfinite(rx_1m):
            raise ConfigError("received power at 1 m is too large for a float: check wavelength, eta and tx power")
        if self.density < 0:
            raise ConfigError(f"device density must be non-negative, got {self.density} per m^2")
        if len(self.ring_radii) != N_RINGS + 1:
            raise ConfigError(f"ring_radii needs {N_RINGS + 1} values, got {len(self.ring_radii)}")
        r = np.asarray(self.ring_radii)
        if r[0] < 0 or np.any(np.diff(r) < 0):
            raise ConfigError("ring radii must be nondecreasing with l0 >= 0")
        if not math.isclose(r[-1], self.radius, rel_tol=1e-12):
            raise ConfigError("outermost ring radius must equal the deployment radius")

    @property
    def r_harvest(self) -> float:
        """Harvester series resistance V_H^2 / P_H [ohm]."""
        return self.v_harvest**2 / self.p_harvest


def ring_index(d, cfg: PhyConfig):
    """Ring 0..5 containing distance d [m]; d in (l_{n-1}, l_n], d=0 maps to ring 0.

    A scalar d gives an int, an array d an int array of the same shape.
    """
    radii = cfg.ring_radii
    d = np.asarray(d, dtype=float)
    inside = (d >= 0) & (d <= radii[-1])  # False for NaN
    if not inside.all():
        raise ValueError(f"distance {d[~inside][0]} m outside deployment range (0, {radii[-1]} m]")
    idx = np.maximum(np.searchsorted(radii, d, side="left") - 1, 0)
    return int(idx) if idx.ndim == 0 else idx


DUTY_REL_TOL = 1e-8  # relative error bound of the duty-cycle quadrature


def duty_cycle(scheme: ChargingScheme, airtime: float) -> float:
    """E[tau / (nu + tau)], the expected fraction of a cycle spent transmitting.

    Closed form for a uniform scheme, tau/(b - a) * ln(1 + (b - a)/(a + tau)),
    and for an exponential one, x e^x E1(x) with x = tau/w; quadrature against
    the pdf for other Weibull shapes and where e^x overflows. The ETSI-style
    figure tau / (E[nu] + tau) needs only the mean.
    """
    if not airtime > 0:
        if airtime == 0:
            return 0.0
        raise ValueError(f"airtime must be positive, got {airtime}")
    if scheme.kind == "uniform":
        return airtime / (scheme.b - scheme.a) * math.log1p((scheme.b - scheme.a) / (scheme.a + airtime))
    x = airtime / scheme.w
    if scheme.k == 1.0 and x < 700.0:
        from scipy.special import exp1  # loaded on first use, so that importing phy loads no scipy

        return x * math.exp(x) * float(exp1(x))
    return scheme.quad(lambda t: scheme.pdf(t) * airtime / (t + airtime), DUTY_REL_TOL)


def collision_fraction(
    energy_avail: float,
    scheme: ChargingScheme,
    airtime: float,
    variant: str = "expected",
) -> float:
    """Fraction of co-SF devices modeled as concurrently transmitting.

    variant "expected": energy_avail * E[tau/(nu+tau)] (duty_cycle).
    variant "simple":   energy_avail * tau/(E[nu]+tau) (long-run transmit-time
                        fraction of an always-available device).
    variant "overlap":  2*energy_avail*tau / (E[nu] + energy_avail*tau), the
                        intensity consistent with any-overlap collision counting
                        in the event simulator (window 2*tau per transmission).
    """
    if not 0.0 <= energy_avail <= 1.0:
        raise ValueError("energy_avail must lie in [0, 1]")
    if not airtime >= 0:
        raise ValueError("airtime must be non-negative")
    if variant == "expected":
        return energy_avail * duty_cycle(scheme, airtime)
    if variant == "simple":
        return energy_avail * (airtime / (scheme.mean() + airtime))
    if variant == "overlap":
        return 2.0 * energy_avail * airtime / (scheme.mean() + energy_avail * airtime)
    raise ValueError(f"unknown collision variant {variant!r}")
