"""Two-phase RC voltage dynamics: charge toward a rest level, discharge during transmit.

Each cycle charges the capacitor for a random time nu toward the radio-off
rest voltage, then discharges it for one packet airtime toward the radio-on
rest voltage, both as first-order exponentials. End-of-phase voltages are
always evaluated in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .phy import ChargingScheme, PhyConfig


@dataclass(frozen=True)
class CapacitorModel:
    """Per-state asymptote/time-constant pairs of the storage capacitor."""

    v_limit_off: float  # charge asymptote, radio off [V]
    tau_off: float  # charge time constant [s]
    v_limit_on: float  # discharge asymptote, radio on [V]
    tau_on: float  # discharge time constant [s]

    def __post_init__(self):
        if not all(map(math.isfinite, (self.v_limit_off, self.tau_off, self.v_limit_on, self.tau_on))):
            raise ConfigError(f"capacitor model constants must be finite, got {self}")
        if not self.v_limit_on < self.v_limit_off:
            raise ConfigError("discharge asymptote must lie below the charge asymptote")
        if not 0 < self.tau_on < self.tau_off:
            raise ConfigError("time constants must satisfy 0 < tau_on < tau_off")


def build_model(cfg: PhyConfig, mode: str = "thevenin") -> CapacitorModel:
    """Reduce the harvester/capacitor/load circuit to per-state RC constants.

    "literal" uses v = R_L*V_H/R_H and tau = R_L*C per load state. With a
    large off-load this puts the charge asymptote far above the source
    voltage (unbounded storage), so the physically consistent "thevenin"
    reduction (divider asymptote, parallel-resistance time constant) is the
    default.
    """
    rh = cfg.r_harvest
    if mode == "literal":
        pairs = [(rl * cfg.v_harvest / rh, rl * cfg.capacitance) for rl in (cfg.r_load_off, cfg.r_load_on)]
    elif mode == "thevenin":
        pairs = [
            (cfg.v_harvest * rl / (rh + rl), (rh * rl / (rh + rl)) * cfg.capacitance)
            for rl in (cfg.r_load_off, cfg.r_load_on)
        ]
    else:
        raise ConfigError(f"unknown capacitor model mode {mode!r}")
    (v_off, t_off), (v_on, t_on) = pairs
    return CapacitorModel(v_limit_off=v_off, tau_off=t_off, v_limit_on=v_on, tau_on=t_on)


def step_charge(v0, nu, m: CapacitorModel):
    """Voltage after charging for nu seconds from v0."""
    return m.v_limit_off + (v0 - m.v_limit_off) * np.exp(-np.asarray(nu, dtype=float) / m.tau_off)


def step_discharge(v0, airtime, m: CapacitorModel):
    """Voltage after transmitting for airtime seconds from v0."""
    return m.v_limit_on + (v0 - m.v_limit_on) * np.exp(-np.asarray(airtime, dtype=float) / m.tau_on)


@dataclass(frozen=True)
class CycleConstants:
    """Affine one-cycle voltage map v' = v_after_full + retention*decay*(v - ceiling).

    decay = exp(-nu/tau_off) is the random charge-phase factor; retention is
    the deterministic discharge survival exp(-airtime/tau_on); ceiling is the
    charge asymptote, and v_after_full is where a fully charged capacitor
    lands after one transmission.
    """

    v_after_full: float  # [V]
    retention: float  # in (0, 1)
    ceiling: float  # [V]

    @classmethod
    def from_model(cls, m: CapacitorModel, airtime: float) -> "CycleConstants":
        retention = float(np.exp(-airtime / m.tau_on))
        ceiling = m.v_limit_off
        return cls(
            v_after_full=m.v_limit_on + (ceiling - m.v_limit_on) * retention,
            retention=retention,
            ceiling=ceiling,
        )

    def apply(self, v, decay):
        """End-of-cycle voltage given start voltage v and charge-phase decay factor."""
        return self.v_after_full + self.retention * np.asarray(decay, dtype=float) * (v - self.ceiling)


@dataclass(frozen=True)
class VoltageTrajectory:
    """Sampled capacitor voltage over charge/transmit cycles."""

    times: np.ndarray  # [s]
    voltages: np.ndarray  # [V]
    phases: np.ndarray  # "charge" | "tx" per sample
    cycle_index: np.ndarray


def simulate_trajectory(
    v0: float,
    scheme: ChargingScheme,
    airtime: float,
    n_cycles: int,
    m: CapacitorModel,
    seed: int = 0,
    samples_per_phase: int = 20,
) -> VoltageTrajectory:
    """Sample a voltage trajectory over n_cycles random charge/transmit cycles.

    Intra-phase points are cosmetic subdivisions of the closed-form curve;
    end-of-phase voltages are exact. Deterministic for a fixed seed.

    After the initial sample each cycle contributes samples_per_phase charge
    samples then samples_per_phase tx samples. Only the phase start voltages
    are a recurrence; every sample is the closed form from its phase start,
    evaluated on (cycle x sample) arrays.
    """
    if n_cycles < 0:
        raise ConfigError(f"cycle count must be non-negative, got {n_cycles}")
    if samples_per_phase < 1:
        raise ConfigError(f"samples per phase must be at least 1, got {samples_per_phase}")
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):  # a clock past the float range is rejected below
        nu = np.asarray(scheme.sample(rng, n_cycles), dtype=float)
        # phase start times: one running sum over nu_0, airtime, nu_1, airtime, ...
        ends = np.cumsum(np.column_stack([nu, np.full(n_cycles, float(airtime))]).ravel())
    if not np.isfinite(ends).all():
        raise NumericalError("the trajectory's clock overflows a float: the charging times are too long")
    fracs = np.linspace(1.0 / samples_per_phase, 1.0, samples_per_phase)
    starts = np.concatenate(([0.0], ends))[:-1].reshape(n_cycles, 2)
    # phase start voltages: the scalar recurrence of step_charge then step_discharge
    v_start = np.empty((n_cycles, 2))
    decay = np.exp(-nu / m.tau_off).tolist()
    retention = float(np.exp(-float(airtime) / m.tau_on))
    v = float(v0)
    for j in range(n_cycles):
        v_start[j, 0] = v
        v = v_start[j, 1] = m.v_limit_off + (v - m.v_limit_off) * decay[j]
        v = m.v_limit_on + (v - m.v_limit_on) * retention
    times = np.empty((n_cycles, 2, samples_per_phase))
    volts = np.empty_like(times)
    times[:, 0] = starts[:, :1] + fracs * nu[:, None]
    times[:, 1] = starts[:, 1:] + fracs * airtime
    volts[:, 0] = step_charge(v_start[:, :1], fracs * nu[:, None], m)
    volts[:, 1] = step_discharge(v_start[:, 1:], fracs * airtime, m)
    labels = np.repeat(np.array(["charge", "tx"]), samples_per_phase)
    return VoltageTrajectory(
        times=np.concatenate(([0.0], times.ravel())),
        voltages=np.concatenate(([float(v0)], volts.ravel())),
        phases=np.concatenate((np.array(["charge"]), np.tile(labels, n_cycles))),
        cycle_index=np.concatenate(([0], np.repeat(np.arange(n_cycles), 2 * samples_per_phase))),
    )


def cycle_voltages(
    v0,
    scheme: ChargingScheme,
    airtime: float,
    n_cycles: int,
    m: CapacitorModel,
    rng: np.random.Generator,
) -> np.ndarray:
    """End-of-cycle voltages for one or many parallel chains (rows: chains)."""
    v = np.atleast_1d(np.asarray(v0, dtype=float)).copy()
    out = np.empty((n_cycles, v.size))
    cc = CycleConstants.from_model(m, airtime)
    for j in range(n_cycles):
        decay = np.exp(-scheme.sample(rng, v.size) / m.tau_off)
        v = cc.apply(v, decay)
        out[j] = v
    return out


def estimate_mean_voltage(cc: CycleConstants, mean_decay: float) -> float:
    """Fixed point of the mean one-cycle map: the stationary mean voltage.

    mean_decay is E[exp(-nu/tau_off)] for the charging-time distribution.
    """
    denom = cc.retention * mean_decay - 1.0
    if abs(denom) < 1e-12:
        raise NumericalError("mean-voltage estimator degenerate: retention * E[decay] == 1")
    return (cc.retention * cc.ceiling * mean_decay - cc.v_after_full) / denom
