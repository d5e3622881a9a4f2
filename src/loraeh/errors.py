"""Exception types mapped to CLI exit codes (config=1, numerical=2, infeasible=3)."""


class ConfigError(Exception):
    """Malformed or inconsistent configuration input."""


class NumericalError(Exception):
    """A numerical routine failed to converge or hit a singularity."""


class InfeasibleError(Exception):
    """A solver target cannot be met; the message names the offending spreading factor where there is one."""
