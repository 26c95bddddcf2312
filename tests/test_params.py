import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lora_sic.params import (
    NetworkConfig,
    SfParams,
    db_to_linear,
    default_sf_table,
    noise_power_dbm,
)

TABLE = default_sf_table()

# Message generation period behind the tabulated duty cycles: 15 minutes.
PERIOD_MS = 15 * 60 * 1000.0


def test_table_covers_sf7_to_sf12():
    assert [row.sf for row in TABLE] == [7, 8, 9, 10, 11, 12]


@pytest.mark.parametrize(
    "sf, toa_ms, snr_db, duty",
    [(7, 41.22, -6.0, 45.8e-6), (12, 991.23, -20.0, 1101.4e-6)],
)
def test_tabulated_anchor_rows(sf, toa_ms, snr_db, duty):
    row = TABLE[sf - 7]
    assert row.toa_ms == toa_ms
    assert row.snr_threshold_db == snr_db
    assert row.duty_cycle == duty


def test_sf9_row():
    row = TABLE[2]
    assert row.toa_ms == 144.38
    assert row.sensitivity_dbm == -129.0


def test_column_monotonicity():
    for a, b in zip(TABLE, TABLE[1:]):
        assert b.toa_ms > a.toa_ms
        assert b.snr_threshold_db < a.snr_threshold_db
        assert b.duty_cycle > a.duty_cycle


@pytest.mark.parametrize("row", TABLE, ids=lambda r: f"sf{r.sf}")
def test_duty_cycle_roundtrip_within_table_rounding(row):
    assert abs(row.toa_ms / PERIOD_MS - row.duty_cycle) < 0.05e-6


@pytest.mark.parametrize(
    "toa_ms, expected",
    [(41.22, 45.8e-6), (991.23, 1101.4e-6)],
)
def test_duty_cycle_from_toa_examples(toa_ms, expected):
    # The published SF7 and SF12 time-on-air over the period, independent of the table.
    assert toa_ms / 900_000.0 == pytest.approx(expected, abs=0.1e-6)


def test_noise_power_default_scenario_is_exact():
    assert noise_power_dbm(6.0, 125e3) == pytest.approx(-117.03089986991944, abs=1e-10)


def test_noise_power_unit_bandwidth():
    assert noise_power_dbm(0.0, 1.0) == pytest.approx(-174.0, abs=1e-12)


def test_noise_power_doubled_bandwidth():
    assert noise_power_dbm(6.0, 250e3) == pytest.approx(-114.02059991327962, abs=1e-10)


def test_noise_power_rejects_nonpositive_bandwidth():
    with pytest.raises(ValueError):
        noise_power_dbm(6.0, 0.0)


def test_db_conversion_anchors():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(1.0) == pytest.approx(1.2589, abs=1e-4)
    assert db_to_linear(-20.0) == pytest.approx(0.01, rel=1e-12)


@given(st.floats(min_value=-200.0, max_value=200.0))
def test_db_round_trip(x_db):
    back = 10.0 * math.log10(db_to_linear(x_db))
    assert back == pytest.approx(x_db, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sf": 6},
        {"sf": 13},
        {"toa_ms": 0.0},
        {"duty_cycle": 0.0},
        {"duty_cycle": 1.0},
    ],
)
def test_sf_params_validation(kwargs):
    base = dict(sf=7, toa_ms=41.22, bitrate_kbps=5.47, sensitivity_dbm=-123.0,
                snr_threshold_db=-6.0, duty_cycle=45.8e-6)
    base.update(kwargs)
    with pytest.raises(ValueError):
        SfParams(**base)


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        ({"path_loss_exp": 1.5}, "path_loss_exp"),
        ({"path_loss_exp": 2.0}, "path_loss_exp"),
        ({"carrier_hz": 0.0}, "carrier_hz"),
        ({"bandwidth_hz": -1.0}, "bandwidth_hz"),
    ],
)
def test_radio_config_validation_names_the_field(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        NetworkConfig(**kwargs)


def test_radio_config_derived_quantities():
    cfg = NetworkConfig()
    assert cfg.gamma == pytest.approx(10 ** 0.1, rel=1e-12)
    assert cfg.wavelength_m == pytest.approx(0.34539, abs=1e-5)
    assert cfg.tx_power_mw == pytest.approx(10 ** 1.4, rel=1e-12)
    assert cfg.noise_power_mw == pytest.approx(10 ** (-117.03089986991944 / 10), rel=1e-10)
