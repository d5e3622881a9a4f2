"""Adaptive charging-time plans: constant duty cycle and mean-voltage equalization.

Both schemes pick one free distribution parameter per spreading factor
(uniform upper bound with a = 0, or exponential scale with shape 1),
following the convention of the reference configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import lambertw

from .capacitor import DEFAULT_BINS, CapacitorModel, estimate_mean_voltage
from .errors import ConfigError, InfeasibleError, NumericalError
from .markov import DecayFactorDistribution, StationaryDistribution, steady_state
from .phy import AIRTIMES_S, ChargingScheme, N_RINGS, PhyConfig, SF_TABLE

MEAN_NU_FLOOR_S = 1.0  # sub-second mean recharge is outside the model's regime
ETSI_DUTY_CAP = 0.01


@dataclass(frozen=True)
class ActPlan:
    """Per-SF charging schemes solved for a common target."""

    schemes: tuple[ChargingScheme, ...]
    mean_nu: np.ndarray  # E[nu] per SF [s]
    predicted_mean_v: np.ndarray  # affine fixed-point mean [V]
    predicted_outage: np.ndarray  # steady-state outage at the operating threshold
    stationary: tuple[StationaryDistribution, ...]  # steady-state voltage law per SF
    duty_simple: np.ndarray  # airtime/(E[nu]+airtime) per SF
    etsi_ok: np.ndarray  # duty_simple <= 1%


def _scheme_for(dist_kind: str, mean_nu: float, sf: int) -> ChargingScheme:
    """SF's scheme of mean mean_nu; InfeasibleError below MEAN_NU_FLOOR_S, before any chain is solved."""
    if mean_nu < MEAN_NU_FLOOR_S:
        raise InfeasibleError(f"SF{sf}: mean charging time {mean_nu:.3f} s below the {MEAN_NU_FLOOR_S} s floor")
    if dist_kind == "uniform":
        return ChargingScheme.uniform(0.0, 2.0 * mean_nu)
    if dist_kind == "weibull":
        return ChargingScheme.weibull(1.0, mean_nu)
    raise ValueError(f"unknown distribution kind {dist_kind!r}")


def _plan(schemes: list[ChargingScheme], m: CapacitorModel, cfg: PhyConfig, n_bins: int) -> ActPlan:
    """Evaluate the per-SF schemes: one steady-state solve per SF, whose mean must
    lie within one bin of the exact stationary mean (the mean map's fixed point)."""
    mean_v = np.empty(N_RINGS)
    sds = []
    for r, scheme in enumerate(schemes):
        airtime = SF_TABLE[r].airtime_s
        decay = DecayFactorDistribution(scheme=scheme, tau_charge=m.tau_off).mean()
        mean_v[r] = estimate_mean_voltage(m, airtime, decay)
        sd = steady_state(scheme, airtime, m, n_bins=n_bins)
        if abs(sd.mean() - mean_v[r]) > sd.delta:
            raise NumericalError(
                f"SF{SF_TABLE[r].sf}: the {n_bins}-bin chain's mean voltage {sd.mean():.4f} V misses the exact "
                f"stationary mean {mean_v[r]:.4f} V by more than one bin: the grid is too coarse"
            )
        sds.append(sd)
    mean_nu = np.array([s.mean() for s in schemes])
    duty = AIRTIMES_S / (mean_nu + AIRTIMES_S)
    return ActPlan(
        schemes=tuple(schemes),
        mean_nu=mean_nu,
        predicted_mean_v=mean_v,
        predicted_outage=np.array([sd.outage(cfg.v_operating) for sd in sds]),
        stationary=tuple(sds),
        duty_simple=duty,
        etsi_ok=duty <= ETSI_DUTY_CAP + 1e-15,
    )


def plan_cdc(
    theta: float,
    dist_kind: str,
    cfg: PhyConfig,
    m: CapacitorModel,
    n_bins: int = DEFAULT_BINS,
) -> ActPlan:
    """Constant duty cycle: E[nu] = theta * airtime per SF (duty 1/(1+theta)), at least MEAN_NU_FLOOR_S."""
    if not math.isfinite(theta):
        raise ConfigError(f"duty multiplier theta must be finite, got {theta}")
    if theta <= 0:
        raise InfeasibleError(f"duty multiplier must be positive, got {theta}")
    schemes = [_scheme_for(dist_kind, theta * entry.airtime_s, entry.sf) for entry in SF_TABLE]
    return _plan(schemes, m, cfg, n_bins)


def _mean_nu_for_decay(dist_kind: str, target: float, tau_charge: float) -> float:
    """The mean charging time E[nu] whose E[exp(-nu/tau)] is target, in closed form.

    Exponential of scale w: E[nu] = w = tau * (1 - target) / target.
    Uniform on [0, b]: (1 - e^-y) / y = target with y = b / tau, solved by the
    principal Lambert W branch (the other real branch gives the root y = 0),
    and E[nu] = b / 2.
    """
    if dist_kind == "uniform":
        w = float(lambertw(-math.exp(-1.0 / target) / target).real)
        return tau_charge * (1.0 / target + w) / 2.0
    return tau_charge * (1.0 - target) / target


def plan_cve(
    vartheta: float,
    dist_kind: str,
    cfg: PhyConfig,
    m: CapacitorModel,
    n_bins: int = DEFAULT_BINS,
) -> ActPlan:
    """Voltage equalization: solve E[nu] (at least MEAN_NU_FLOOR_S) per SF so the stationary mean is vartheta * V_op."""
    if not math.isfinite(vartheta):
        raise ConfigError(f"mean-voltage multiplier vartheta must be finite, got {vartheta}")
    v_target = vartheta * cfg.v_operating
    if not m.v_limit_on < v_target < m.v_limit_off:
        raise InfeasibleError(
            f"target mean voltage {v_target:.4f} V outside ({m.v_limit_on:.4f}, {m.v_limit_off:.4f}) V"
        )
    schemes = []
    for entry in SF_TABLE:
        airtime = entry.airtime_s
        target = (v_target - m.v_after_full(airtime)) / (m.retention(airtime) * (v_target - m.v_limit_off))
        if not 0.0 < target < 1.0:
            raise InfeasibleError(f"SF{entry.sf}: required mean decay factor {target:.6f} outside (0, 1)")
        schemes.append(_scheme_for(dist_kind, _mean_nu_for_decay(dist_kind, target, m.tau_off), entry.sf))
    return _plan(schemes, m, cfg, n_bins)
