"""Battery-less LoRa network modeling: capacitor dynamics, steady-state energy
outage, stochastic-geometry uplink coverage, adaptive charging plans, and an
event-driven validation simulator."""

from .capacitor import CapacitorModel, CycleConstants, build_model, step_charge, step_discharge
from .config import RunConfig, load_config
from .geometry import coverage_profile, sample_network, sir_success, snr_success
from .hypergeom import hyp2f1_special
from .markov import DecayFactorDistribution, StationaryDistribution, steady_state
from .montecarlo import SimReport, run_simulation
from .phy import ChargingScheme, PhyConfig, SF_TABLE, collision_fraction, duty_cycle

__version__ = "0.1.0"

__all__ = [
    "CapacitorModel",
    "ChargingScheme",
    "CycleConstants",
    "DecayFactorDistribution",
    "PhyConfig",
    "RunConfig",
    "SF_TABLE",
    "SimReport",
    "StationaryDistribution",
    "__version__",
    "build_model",
    "collision_fraction",
    "coverage_profile",
    "duty_cycle",
    "hyp2f1_special",
    "load_config",
    "run_simulation",
    "sample_network",
    "sir_success",
    "snr_success",
    "steady_state",
    "step_charge",
    "step_discharge",
]
