import math

import pytest

from loraeh.config import load_config
from loraeh.errors import ConfigError


def test_default_units(fig2):
    phy = fig2.phy
    assert phy.p_tx == pytest.approx(10**1.3 * 1e-3, rel=1e-12)  # 13 dBm
    assert phy.sir_threshold == pytest.approx(10**0.1, rel=1e-12)  # 1 dB
    assert phy.wavelength == pytest.approx(0.345)
    assert phy.radius == 6000.0
    assert phy.density == pytest.approx(5e-6)
    assert phy.ring_radii == tuple(1000.0 * n for n in range(7))
    # thermal floor + 6 dB figure over 125 kHz
    expected_noise = 10 ** ((-174 + 10 * math.log10(125e3) + 6) / 10) * 1e-3
    assert phy.noise == pytest.approx(expected_noise, rel=1e-12)


def test_file_values(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[capacitor]\ncapacitance_f = 0.04\nmode = literal\n[scheme]\nk = 0.5\n")
    run = load_config(str(path))
    assert run.phy.capacitance == 0.04
    assert run.mode == "literal"  # the file is the capacitor reduction's one home
    assert run.schemes["wd"].k == 0.5


def test_ring_radii_override(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[deployment]\nradius_km = 4\nring_radii_km = 0,0.5,1,2,2.5,3,4\n")
    run = load_config(str(path))
    assert run.phy.ring_radii == (0.0, 500.0, 1000.0, 2000.0, 2500.0, 3000.0, 4000.0)


def test_default_noise_is_the_thermal_floor_plus_6_db(fig2):
    # -174 dBm/Hz over 125 kHz plus the 6 dB figure, to the bit
    assert fig2.phy.noise == 1.9811164905763875e-15


@pytest.mark.parametrize("figure_db, change_db", [(3, -3.0), (9, 3.0)])
def test_noise_figure_moves_the_floor_db_for_db(tmp_path, fig2, figure_db, change_db):
    path = tmp_path / "run.ini"
    path.write_text(f"[radio]\nnoise_figure_db = {figure_db}\n")
    noise = load_config(str(path)).phy.noise
    assert 10.0 * math.log10(noise / fig2.phy.noise) == pytest.approx(change_db, abs=1e-12)


def test_diagnostics(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[radio]\ntx_power_dbm = abc\n")
    with pytest.raises(ConfigError, match=r"\[radio\] tx_power_dbm"):
        load_config(str(bad))
    unknown = tmp_path / "unknown.ini"
    unknown.write_text("[rodio]\ntx_power_dbm = 13\n")
    with pytest.raises(ConfigError, match="rodio"):
        load_config(str(unknown))
    unknown_key = tmp_path / "key.ini"
    unknown_key.write_text("[radio]\ntx_powr_dbm = 13\n")
    with pytest.raises(ConfigError, match="tx_powr_dbm"):
        load_config(str(unknown_key))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.ini"))


def test_scheme_pair(fig2):
    other = fig2.schemes["wd"]
    assert other.kind == "weibull"
    assert other.w == 50.0
    assert fig2.schemes["ud"].b == 100.0


def test_overhead_power_key_is_refused(tmp_path):
    # no model reads the radio's overhead power, so a file that sets it is refused like any unknown key
    path = tmp_path / "run.ini"
    path.write_text("[radio]\noverhead_power_dbm = 10\n")
    with pytest.raises(ConfigError, match=r"unknown key 'overhead_power_dbm' in section \[radio\]"):
        load_config(str(path))
