"""Radio/electrical constants, the per-SF link arrays, charging-time distributions and duty cycles.

All quantities are SI internally: meters, seconds, watts, ohms, farads.
dB/dBm values are converted once when a config is built. Every per-SF
quantity is an array indexed by ring 0..5, the rings of SF7..SF12.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, NumericalError


# The 25-byte-payload link table, one entry per ring (SF7..SF12), at BW = 125 kHz.
# Airtime = payload bits / bitrate, with bitrates 5.47, 3.13, 1.76, 0.98, 0.54
# and 0.29 kbps; the SNR floors are the published demodulation limits in dB
# (negative: below the noise). Both hold at this bandwidth only, so it is no
# setting: the noise floor is the thermal floor over it plus the noise figure.
BANDWIDTH_HZ = 125e3
SFS = np.array([7, 8, 9, 10, 11, 12])
AIRTIMES_S = np.array([0.0366, 0.064, 0.113, 0.204, 0.372, 0.682])
SNR_THRESHOLDS_DB = np.array([-6.0, -9.0, -12.0, -15.0, -17.5, -20.0])
# linear floors by Python's scalar power: numpy's array power may differ in the
# last bit, and these floats decide individual packets' SNR tests
SNR_THRESHOLDS = np.array([10.0 ** (db / 10.0) for db in SNR_THRESHOLDS_DB.tolist()])
N_RINGS = len(SFS)
MIN_DISTANCE_M = 1.0  # clamp to avoid the path-gain singularity at the gateway


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
            try:
                mean = self.mean()
            except OverflowError:  # Gamma(1 + 1/k) itself beyond the float range
                mean = math.inf
            if not math.isfinite(mean):
                raise ConfigError(f"weibull mean w * Gamma(1 + 1/k) overflows a float, got k={self.k}")
        else:
            raise ConfigError(f"unknown scheme kind {self.kind!r}")

    @classmethod
    def uniform(cls, a: float, b: float) -> "ChargingScheme":
        return cls("uniform", a=a, b=b)

    @classmethod
    def weibull(cls, k: float, w: float) -> "ChargingScheme":
        return cls("weibull", k=k, w=w)

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

    def expectation(self, g, rel_tol: float) -> float:
        """E[g(nu)] for a Weibull law (uniform expectations have closed forms);
        NumericalError unless its error estimate is within rel_tol.

        nu = w u^(1/k) with u a unit exponential, so in s = ln u the expectation is
        the integral of exp(s - e^s) g(w e^(s/k)): smooth for every shape, and no
        density. It is split at s = 0 and ends at u = 746, past which e^-u
        underflows; s/k is capped where e^(s/k) would overflow.
        """
        from scipy import integrate  # loaded on first use: only the analytic subcommands integrate

        def f(s):
            return math.exp(s - math.exp(s)) * g(self.w * math.exp(min(s / self.k, 709.0)))

        pts = (-math.inf, 0.0, math.log(746.0))
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
    ring_radii: tuple[float, ...]  # l0..l6 [m], nondecreasing, l0 = 0 (the gateway), l6 = radius

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not all(map(math.isfinite, np.atleast_1d(value))):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.radius < MIN_DISTANCE_M or self.wavelength <= 0:  # no device lies nearer than MIN_DISTANCE_M
            got = f"got {self.radius} m and {self.wavelength} m"
            raise ConfigError(f"radius must be at least {MIN_DISTANCE_M} m and wavelength positive, {got}")
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
            far = np.float64(self.radius) ** self.eta  # the largest d^eta; eta >= 2 bounds radius^2 too
        if not math.isfinite(rx_1m):
            raise ConfigError("received power at 1 m is too large for a float: check wavelength, eta and tx power")
        if not math.isfinite(far):
            raise ConfigError(f"radius^eta is too large for a float: radius {self.radius} m, eta {self.eta}")
        if self.density < 0:
            raise ConfigError(f"device density must be non-negative, got {self.density} per m^2")
        if len(self.ring_radii) != N_RINGS + 1:
            raise ConfigError(f"ring_radii needs {N_RINGS + 1} values, got {len(self.ring_radii)}")
        r = np.asarray(self.ring_radii)
        if r[0] != 0 or np.any(np.diff(r) < 0):
            raise ConfigError("ring radii must be nondecreasing from l0 = 0, the gateway")
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


def _exponential_duty(x: float) -> float:
    """x e^x E1(x) for x > 0, the duty figure E[tau / (nu + tau)] of an exponential
    law of scale w at x = tau / w, to about 1e-14 relative.

    For x <= 1, E1 by the series -gamma - ln x - sum over k >= 1 of (-x)^k / (k k!)
    (Abramowitz & Stegun 5.1.11). For x > 1, e^x E1(x) by the continued fraction
    1/(x+ 1/(1+ 1/(x+ 2/(1+ 2/(x+ ...))))) (A&S 5.1.22 without its factor e^-x),
    partial numerators 1, 1, 1, 2, 2, 3, 3, ..., evaluated by Lentz's method until
    a factor is within eps of 1; its even contraction takes half the steps but
    builds up twice the rounding error near x = 1. No factor e^x is formed there,
    so nothing overflows at any x.
    """
    if x <= 1.0:
        total, term, k = 0.0, 1.0, 0
        while abs(term) > 1e-17:  # E1 >= E1(1) = 0.22 here
            k += 1
            term *= -x / k
            total += term / k
        return x * math.exp(x) * (-np.euler_gamma - math.log(x) - total)
    c, d = math.inf, 1.0 / x  # after the first partial fraction 1/x
    value, j = 1.0, 1  # x times the fraction so far
    while True:
        j += 1
        a, b = j // 2, (x if j % 2 else 1.0)
        d = 1.0 / (b + a * d)
        c = b + a / c
        value *= c * d
        if abs(c * d - 1.0) <= np.finfo(float).eps:
            return value


def duty_cycle(scheme: ChargingScheme, airtime: float) -> float:
    """E[tau / (nu + tau)], the expected fraction of a cycle spent transmitting.

    Closed form for a uniform scheme, tau/(b - a) * ln(1 + (b - a)/(a + tau)),
    and for an exponential one, x e^x E1(x) with x = tau/w; other Weibull shapes
    take `ChargingScheme.expectation`. The ETSI-style figure tau / (E[nu] + tau)
    needs only the mean.
    """
    if not airtime > 0:
        if airtime == 0:
            return 0.0
        raise ValueError(f"airtime must be positive, got {airtime}")
    if scheme.kind == "uniform":
        width, start = float(scheme.b - scheme.a), float(scheme.a + airtime)
        ratio = width / start  # inf past the float range, where ln(1 + ratio) = ln(width) - ln(start)
        return airtime / width * (math.log1p(ratio) if ratio < math.inf else math.log(width) - math.log(start))
    if scheme.k == 1.0:
        return _exponential_duty(airtime / scheme.w)
    return scheme.expectation(lambda t: airtime / (t + airtime), DUTY_REL_TOL)


def collision_fraction(energy_avail: float, scheme: ChargingScheme, airtime: float) -> float:
    """Fraction of co-SF devices modeled as concurrently transmitting: the
    energy availability times the expected duty figure E[tau/(nu+tau)]
    (duty_cycle), the intensity of the paper's co-SF outage."""
    if not 0.0 <= energy_avail <= 1.0:
        raise ValueError("energy_avail must lie in [0, 1]")
    if not airtime >= 0:
        raise ValueError("airtime must be non-negative")
    return energy_avail * duty_cycle(scheme, airtime)
