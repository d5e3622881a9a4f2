"""Battery-less LoRa network modeling: capacitor dynamics, steady-state energy
outage, stochastic-geometry uplink coverage, adaptive charging plans, and an
event-driven validation simulator.

The public API lives in the modules that define it, and the package root
imports none of them: `config`, `phy`, `capacitor`, `markov` (the voltage
chain), `act` (adaptive plans), `geometry` (coverage and network sampling),
`hypergeom`, `montecarlo` (the simulator) and `errors`. No module imports
scipy at load time; only the quadrature of `phy.ChargingScheme.expectation` and
the kernel sum of Weibull k != 1 chains in `markov` load it, when they run.
"""

__version__ = "0.1.0"
