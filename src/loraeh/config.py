"""INI config ingestion: km/dBm on disk, SI units in memory.

Sections and keys (all optional, defaults below):

  [harvester]  voltage_v, power_w
  [capacitor]  capacitance_f, r_off_ohm, r_on_ohm, v_operating_v, v_initial_v, mode
  [radio]      tx_power_dbm, bandwidth_hz, sir_threshold_db,
               noise_dbm (blank = thermal floor + noise figure), noise_figure_db
  [deployment] radius_km, density_per_km2, path_loss_exponent, wavelength_cm,
               ring_radii_km (comma list of 7 from 0, blank = equal-width rings)
  [scheme]     kind (uniform|weibull), a_s, b_s, k, w_s
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .errors import ConfigError
from .phy import ChargingScheme, N_RINGS, PhyConfig

DEFAULTS = {
    "harvester": {"voltage_v": "3.3", "power_w": "1e-3"},
    "capacitor": {
        "capacitance_f": "0.01",
        "r_off_ohm": "600e3",
        "r_on_ohm": "117",
        "v_operating_v": "1.8",
        "v_initial_v": "1.8",
        "mode": "thevenin",
    },
    "radio": {
        "tx_power_dbm": "13",
        "bandwidth_hz": "125e3",
        "sir_threshold_db": "1",
        "noise_dbm": "",
        "noise_figure_db": "6",
    },
    "deployment": {
        "radius_km": "6",
        "density_per_km2": "5",
        "path_loss_exponent": "2.75",
        "wavelength_cm": "34.5",
        "ring_radii_km": "",
    },
    "scheme": {"kind": "uniform", "a_s": "0", "b_s": "100", "k": "1", "w_s": "50"},
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration: physics, charging scheme, capacitor model mode."""

    phy: PhyConfig
    scheme: ChargingScheme  # the family [scheme] kind names
    schemes: dict  # {"uniform": ..., "weibull": ...}, both built from [scheme] and checked
    mode: str  # "thevenin" | "literal"
    v_initial: float  # trajectory start voltage [V]
    raw: dict  # resolved key/value snapshot (manifest)


def _from_db(db: float) -> float:
    """10^(db/10); a ratio too large for a float reads inf, which PhyConfig rejects."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def _dbm_to_w(dbm: float) -> float:
    return _from_db(dbm) * 1e-3


def _getfloat(parser, section, key):
    raw = parser.get(section, key)
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as a number") from exc


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an INI file (defaults when path is None).

    overrides, {section: {key: value}} as DEFAULTS, is read after the file and checked alike; its values win.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(DEFAULTS)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:  # its message spans lines: file, line number, text
            raise ConfigError(f"malformed config file {path}: {' '.join(str(exc).split())}") from exc
    parser.read_dict(overrides or {})
    for section in parser.sections():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    radius_m = _getfloat(parser, "deployment", "radius_km") * 1e3
    rings_raw = parser.get("deployment", "ring_radii_km").strip()
    if rings_raw:
        try:
            radii = tuple(float(tok) * 1e3 for tok in rings_raw.split(","))
        except ValueError as exc:
            raise ConfigError(f"[deployment] ring_radii_km: cannot parse {rings_raw!r}") from exc
    else:
        radii = tuple(n * radius_m / N_RINGS for n in range(N_RINGS + 1))

    bandwidth = _getfloat(parser, "radio", "bandwidth_hz")
    if not (math.isfinite(bandwidth) and bandwidth > 0):  # checked also where noise_dbm sets the floor
        raise ConfigError(f"bandwidth must be finite and positive, got {bandwidth}")
    if parser.get("radio", "noise_dbm").strip():
        noise_w = _dbm_to_w(_getfloat(parser, "radio", "noise_dbm"))
    else:
        # -174 dBm/Hz thermal floor plus the receiver noise figure
        noise_w = _dbm_to_w(-174.0 + 10.0 * math.log10(bandwidth) + _getfloat(parser, "radio", "noise_figure_db"))

    phy = PhyConfig(
        v_harvest=_getfloat(parser, "harvester", "voltage_v"),
        p_harvest=_getfloat(parser, "harvester", "power_w"),
        capacitance=_getfloat(parser, "capacitor", "capacitance_f"),
        r_load_off=_getfloat(parser, "capacitor", "r_off_ohm"),
        r_load_on=_getfloat(parser, "capacitor", "r_on_ohm"),
        v_operating=_getfloat(parser, "capacitor", "v_operating_v"),
        p_tx=_dbm_to_w(_getfloat(parser, "radio", "tx_power_dbm")),
        eta=_getfloat(parser, "deployment", "path_loss_exponent"),
        wavelength=_getfloat(parser, "deployment", "wavelength_cm") * 1e-2,
        noise=noise_w,
        sir_threshold=_from_db(_getfloat(parser, "radio", "sir_threshold_db")),
        radius=radius_m,
        density=_getfloat(parser, "deployment", "density_per_km2") * 1e-6,
        ring_radii=radii,
    )

    kind = parser.get("scheme", "kind").strip().lower()
    kind = {"ud": "uniform", "wd": "weibull"}.get(kind, kind)
    if kind not in ("uniform", "weibull"):
        raise ConfigError(f"[scheme] kind must be uniform or weibull, got {kind!r}")
    # both families are built, so a bad key of the one kind does not name is still rejected
    schemes = {
        "uniform": ChargingScheme.uniform(_getfloat(parser, "scheme", "a_s"), _getfloat(parser, "scheme", "b_s")),
        "weibull": ChargingScheme.weibull(_getfloat(parser, "scheme", "k"), _getfloat(parser, "scheme", "w_s")),
    }

    mode = parser.get("capacitor", "mode").strip().lower()
    if mode not in ("thevenin", "literal"):
        raise ConfigError(f"[capacitor] mode must be thevenin or literal, got {mode!r}")
    v_init = _getfloat(parser, "capacitor", "v_initial_v")
    if not math.isfinite(v_init):
        raise ConfigError("[capacitor] v_initial_v must be finite")

    raw = {section: dict(parser[section]) for section in parser.sections()}
    raw["scheme"]["kind"] = kind
    return RunConfig(phy=phy, scheme=schemes[kind], schemes=schemes, mode=mode, v_initial=v_init, raw=raw)
