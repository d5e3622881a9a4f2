"""Gauss hypergeometric 2F1(1, 2/eta; 1 + 2/eta; z) for z <= 0.

Only the parameter pattern needed by the co-channel interference closed form
is supported. Three branches cover the whole negative real axis:

  z in (-0.9, 0]      direct power series (terms b/(b+m) * z^m),
  z in (-30, -0.9]    Pfaff transform to argument z/(z-1) in [0.47, 1),
  z <= -30            inversion connection formula in 1/z.

The branch near -0.9 keeps series lengths short; the inversion branch is
required because ring-edge arguments can reach |z| ~ 1e12 where any series
in z/(z-1) is hopeless.
"""

from __future__ import annotations

import math

from .errors import NumericalError

_SERIES_EDGE = -0.9
_INVERSION_EDGE = -30.0
_MAX_TERMS = 200000
_SERIES_TOL = 1e-16  # a series stops at the first term this small relative to its sum


def _series_direct(b: float, z: float) -> float:
    # 2F1(1, b; 1+b; z) = sum_m b/(b+m) z^m, |z| < 1
    term = 1.0
    total = 1.0
    for m in range(1, _MAX_TERMS):
        term *= (b + m - 1.0) / (b + m) * z
        total += term
        if abs(term) <= _SERIES_TOL * abs(total):
            return total
    raise NumericalError(f"direct 2F1 series did not converge (b={b}, z={z})")


def _series_pfaff(b: float, z: float) -> float:
    # (1-z)^-b * 2F1(b, b; 1+b; z/(z-1))
    w = z / (z - 1.0)
    term = 1.0
    total = 1.0
    for m in range(1, _MAX_TERMS):
        term *= (b + m - 1.0) ** 2 / ((b + m) * m) * w
        total += term
        if abs(term) <= _SERIES_TOL * abs(total):
            return (1.0 - z) ** (-b) * total
    raise NumericalError(f"Pfaff 2F1 series did not converge (b={b}, z={z})")


def _inversion(b: float, z: float) -> float:
    # connection formula in 1/z; the companion series terminates because the
    # second numerator parameter vanishes for this (a, c) pattern. Its lead
    # term and the m = 0 term of its tail are each about b/(e*(-z)) with
    # e = 1 - b and cancel as eta -> 2, so they are summed in one expm1:
    # b/(e*(-z)) * expm1(e*ln(-z) + ln(pi*e/sin(pi*e)))
    e = 1.0 - b
    log_z = math.log(-z)
    if e == 0.0:
        head = log_z / -z
    else:
        x = math.pi * e
        # ln(x/sin x), by its series where the quotient is too close to 1; sin(pi*e) = sin(pi*b)
        log_ratio = x * x / 6.0 + x**4 / 180.0 if x < 1e-2 else math.log(x / math.sin(math.pi * min(b, e)))
        head = b * math.expm1(e * log_z + log_ratio) / (e * -z)
    # the rest of the tail, m >= 1: (b/z) * sum z^-m / (e + m)
    tail = b / (z * z * (1.0 + e)) * _series_direct(1.0 + e, 1.0 / z)
    return head + tail


def hyp2f1_special(eta: float, z: float) -> float:
    """2F1(1, 2/eta; 1+2/eta; z) for eta >= 2 and z <= 0; result in (0, 1]."""
    if eta < 2.0:
        raise ValueError(f"path-loss exponent must be >= 2, got {eta}")
    if z > 0.0:
        raise ValueError(f"argument must be <= 0, got {z}")
    if not math.isfinite(z):
        if z == -math.inf:
            return 0.0
        raise ValueError("argument must be finite or -inf")
    b = 2.0 / eta
    if z == 0.0:
        return 1.0
    if z > _SERIES_EDGE:
        return _series_direct(b, z)
    if z > _INVERSION_EDGE:
        return _series_pfaff(b, z)
    return _inversion(b, z)
