"""The frozen records are tuples whose every route to an instance is checked.

``namedtuple``'s own ``_make`` (and so ``_replace``), ``copy`` and ``pickle``
build through ``tuple.__new__`` and would skip validation and the derived
attributes; these tests pin down that the records route them through the
constructor instead.
"""

import copy
import pickle

import pytest

from lora_sic.experiments import SweepSpec
from lora_sic.params import NetworkConfig

DERIVED = ("boundaries", "wavelength_m", "tx_power_mw", "noise_power_mw", "gamma")

# A valid record, one bad field value and the message the record refuses it with.
CASES = [
    (NetworkConfig(gamma_db=6.0, nbar=300.0), {"nbar": -1.0}, "nbar must be nonnegative, got -1.0"),
    (SweepSpec("gamma_db", 0.0, 6.0, 0.5, alpha=0.5), {"step": 0.0}, "step must be positive, got 0.0"),
]
IDS = ["NetworkConfig", "SweepSpec"]

# Every way to build a record from another one's values.
ROUTES = {
    "_replace": lambda record: record._replace(),
    "_make": lambda record: type(record)._make(record),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
}


def _unchecked(record, **changes):
    """``record`` with ``changes``, built the way ``namedtuple`` would: no checks."""
    values = (changes.get(name, value) for name, value in zip(record._fields, record))
    return tuple.__new__(type(record), values)


@pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES.keys())
@pytest.mark.parametrize("record, bad, message", CASES, ids=IDS)
def test_every_route_validates(record, bad, message, route):
    with pytest.raises(ValueError) as info:
        route(_unchecked(record, **bad))
    assert str(info.value) == message


@pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES.keys())
@pytest.mark.parametrize("record, bad, message", CASES, ids=IDS)
def test_every_route_rebuilds_an_equal_record(record, bad, message, route):
    rebuilt = route(_unchecked(record))
    assert type(rebuilt) is type(record)
    assert rebuilt == record
    assert hash(rebuilt) == hash(record)
    assert vars(rebuilt) == vars(record)  # the derived attributes, recomputed


@pytest.mark.parametrize("record, bad, message", CASES, ids=IDS)
def test_replace_refuses_a_bad_value_with_the_constructor_message(record, bad, message):
    with pytest.raises(ValueError) as info:
        record._replace(**bad)
    assert str(info.value) == message


def test_replace_recomputes_the_derived_values():
    assert sorted(vars(NetworkConfig())) == sorted(DERIVED)
    replaced = NetworkConfig()._replace(gamma_db=6.0, radius_m=1200.0)
    assert vars(replaced) == vars(NetworkConfig(gamma_db=6.0, radius_m=1200.0))
    assert replaced.gamma == pytest.approx(10**0.6, rel=1e-12)
    assert replaced.boundaries[-1] == 1200.0


def test_records_compare_as_plain_tuples():
    cfg = NetworkConfig()
    assert cfg == tuple(NetworkConfig._field_defaults.values())
    assert hash(cfg) == hash(tuple(cfg))
    assert NetworkConfig._fields == tuple(NetworkConfig._field_defaults)


@pytest.mark.parametrize(
    "record, name",
    [(CASES[0][0], name) for name in (*NetworkConfig._fields, *DERIVED)]
    + [(CASES[1][0], name) for name in SweepSpec._fields],
    ids=lambda value: value if isinstance(value, str) else type(value).__name__,
)
def test_fields_and_derived_attributes_are_read_only(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, 1.0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == before
