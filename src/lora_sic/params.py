"""The scenario record, LoRa per-SF radio constants and dB conversions."""

from __future__ import annotations

import math
from collections import namedtuple

SPEED_OF_LIGHT_M_S = 2.998e8

THERMAL_NOISE_DBM_PER_HZ = -174.0

#: Default master seed for every randomized entry point (never wall-clock).
DEFAULT_SEED = 42


def _record(typename: str, required: str = "", **defaults: object) -> type:
    """A namedtuple base: the space-separated ``required`` fields, then
    ``defaults``.  The constructor, ``_make``, ``_replace``, ``copy`` and
    ``pickle`` all build through ``cls(*fields)``, so each runs ``_check``
    (which sets :class:`NetworkConfig`'s derived attributes); assignment raises.
    """

    class Record(namedtuple(typename, [*required.split(), *defaults], defaults=defaults.values())):
        def __init__(self, *args, **kwargs):
            self._check()  # namedtuple's __new__ has already set the fields

        @classmethod
        def _make(cls, iterable):
            return cls(*iterable)

        def __reduce__(self):
            return type(self), tuple(self)

        def __setattr__(self, name, value=None):
            raise AttributeError(f"{typename} is immutable: cannot change {name!r}")

        __delattr__ = __setattr__

        def _check(self) -> None:
            pass

    return Record


class SfParams(
    _record("SfParams", "sf toa_ms bitrate_kbps sensitivity_dbm snr_threshold_db duty_cycle")
):
    """Uplink characteristics of one spreading factor.

    Values correspond to a 9-byte payload at 125 kHz with CRC and explicit
    header.  ``duty_cycle`` is the dimensionless ratio of time-on-air to the
    message generation period.
    """

    def _check(self) -> None:
        if not 7 <= self.sf <= 12:
            raise ValueError(f"sf must be in 7..12, got {self.sf}")
        if self.toa_ms <= 0:
            raise ValueError(f"toa_ms must be positive, got {self.toa_ms}")
        if not 0.0 < self.duty_cycle < 1.0:
            raise ValueError(
                f"duty_cycle must lie in (0, 1), got {self.duty_cycle}"
            )


class NetworkConfig(
    _record(
        "NetworkConfig",
        nbar=0.0,
        duty_cycle=0.01,
        radius_m=3000.0,
        carrier_hz=868e6,
        bandwidth_hz=125e3,
        tx_power_dbm=14.0,
        noise_figure_db=6.0,
        path_loss_exp=2.8,
        gamma_db=1.0,
    )
):
    """The whole scenario, one flat record keyed by the config names.

    A disc of radius ``radius_m`` cut into six equal rings, SF7 innermost to
    SF12 outermost (ring i uses row i of :func:`default_sf_table`), holding
    ``nbar`` nodes on average that all transmit at ``duty_cycle``.

    Derived once per config: ``boundaries``, the seven ring radii from 0 to
    the cell edge (ring i covers the half-open annulus
    ``(boundaries[i-1], boundaries[i]]``), the ``wavelength_m``, and the
    linear ``tx_power_mw``, ``noise_power_mw`` and capture threshold
    ``gamma``.  All probability math downstream is carried out in linear
    units.
    """

    def _check(self) -> None:
        for name, value in zip(self._fields, self):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.nbar < 0:
            raise ValueError(f"nbar must be nonnegative, got {self.nbar}")
        if self.radius_m <= 0:
            raise ValueError(f"radius_m must be positive, got {self.radius_m}")
        if self.carrier_hz <= 0:
            raise ValueError(f"carrier_hz must be positive, got {self.carrier_hz}")
        if self.bandwidth_hz <= 0:
            raise ValueError(f"bandwidth_hz must be positive, got {self.bandwidth_hz}")
        if self.path_loss_exp <= 2:
            # Interference integrals over wide outer rings diverge for
            # exponents at or below 2.
            raise ValueError(
                f"path_loss_exp must exceed 2, got {self.path_loss_exp}"
            )
        if not 0 <= self.duty_cycle < 1:
            raise ValueError(f"duty cycles must lie in [0, 1), got {self.duty_cycle}")
        width = self.radius_m / 6
        self.__dict__.update({
            # 6 * width can miss radius_m by an ulp; the edge is radius_m itself.
            "boundaries": (*(i * width for i in range(6)), self.radius_m),
            "wavelength_m": SPEED_OF_LIGHT_M_S / self.carrier_hz,
            "tx_power_mw": _linear_in_range(self.tx_power_dbm, "tx_power_dbm"),
            "noise_power_mw": _linear_in_range(
                noise_power_dbm(self.noise_figure_db, self.bandwidth_hz),
                "the noise power in dBm from noise_figure_db and bandwidth_hz",
            ),
            "gamma": _linear_in_range(self.gamma_db, "gamma_db"),
        })


def _linear_in_range(value_db: float, what: str) -> float:
    """``value_db`` on the linear scale, refused when that is 0 or infinite."""
    try:
        value = db_to_linear(value_db)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ValueError(
            f"{what} = {value_db} is {'infinite' if value else '0'} on the linear scale"
        )
    return value


_SF_TABLE = (
    SfParams(7, 41.22, 5.47, -123.0, -6.0, 45.8e-6),
    SfParams(8, 72.19, 3.12, -126.0, -9.0, 80.2e-6),
    SfParams(9, 144.38, 1.76, -129.0, -12.0, 160.4e-6),
    SfParams(10, 247.81, 0.98, -132.0, -15.0, 275.3e-6),
    SfParams(11, 495.62, 0.54, -134.5, -17.5, 550.7e-6),
    SfParams(12, 991.23, 0.29, -137.0, -20.0, 1101.4e-6),
)


def default_sf_table() -> tuple[SfParams, ...]:
    """Return the six SF7..SF12 rows of uplink characteristics.

    Duty cycles are the tabulated values (multiples of 1e-6) for a 15-minute
    message period: the ToA column over 900 000 ms, up to their printed
    rounding.
    """
    return _SF_TABLE


def noise_power_dbm(noise_figure_db: float, bandwidth_hz: float) -> float:
    """Receiver noise power in dBm: thermal floor plus noise figure over ``bandwidth_hz``.

    Computed exactly; the default scenario gives -117.03 dBm, not the
    conventionally rounded -117 dBm.
    """
    if bandwidth_hz <= 0:
        raise ValueError(f"bandwidth_hz must be positive, got {bandwidth_hz}")
    return THERMAL_NOISE_DBM_PER_HZ + noise_figure_db + 10.0 * math.log10(bandwidth_hz)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)
