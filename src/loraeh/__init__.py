"""Battery-less LoRa network modeling: capacitor dynamics, steady-state energy
outage, stochastic-geometry uplink coverage, adaptive charging plans, and an
event-driven validation simulator.

The public API lives in the modules that define it, and the package root
imports none of them: `config`, `phy`, `capacitor`, `markov` (the voltage
chain), `act` (adaptive plans), `geometry` (coverage and network sampling),
`hypergeom`, `montecarlo` (the simulator) and `errors`. Only `markov`, `act`
and the quadrature of `phy.ChargingScheme.quad` load scipy.
"""

__version__ = "0.1.0"
