"""The frozen records are tuples whose every route to an instance is checked.

``namedtuple``'s own ``_make`` (and so ``_replace``), ``copy`` and ``pickle``
build through ``tuple.__new__`` and would skip validation and the derived
attributes; these tests pin down that the records route them through the
constructor instead.  The records without a check (``SweepRow``,
``McEstimate``, ``_OperatingPoint``) take the same routes.
"""

import copy
import pickle

import pytest

from lora_sic.analytic import _operating_point, coverage
from lora_sic.experiments import SweepRow, SweepSpec
from lora_sic.mcsim import estimate
from lora_sic.params import NetworkConfig

DERIVED = ("boundaries", "wavelength_m", "tx_power_mw", "noise_power_mw", "gamma")

# A valid record, one bad field value and the message the record refuses it with.
CASES = [
    (NetworkConfig(gamma_db=6.0, nbar=300.0), {"nbar": -1.0}, "nbar must be nonnegative, got -1.0"),
    (SweepSpec("gamma_db", 0.0, 6.0, 0.5, alpha=0.5), {"step": 0.0}, "step must be positive, got 0.0"),
]
IDS = ["NetworkConfig", "SweepSpec"]

# Records with no check of their own, beside the two checked ones above.
_REPORT = estimate(3000.0, NetworkConfig(), 1.0, 1000, seed=3)
RECORDS = {
    **{name: case[0] for name, case in zip(IDS, CASES)},
    "SweepRow": SweepRow(3000.0, coverage(3000.0, NetworkConfig(), 1.0), None),
    "SweepRow-mc": SweepRow(1.0, coverage(3000.0, NetworkConfig(), 1.0), _REPORT),
    "McEstimate": _REPORT.success_c1,
    "_OperatingPoint": _operating_point(3000.0, NetworkConfig()),
}

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
@pytest.mark.parametrize("record", RECORDS.values(), ids=RECORDS.keys())
def test_every_route_rebuilds_an_equal_record(record, route):
    rebuilt = route(_unchecked(record))
    assert type(rebuilt) is type(record)
    assert rebuilt == record
    assert hash(rebuilt) == hash(record)
    assert vars(rebuilt) == vars(record)  # the derived attributes, recomputed


@pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES.keys())
@pytest.mark.parametrize("record", RECORDS.values(), ids=RECORDS.keys())
def test_every_route_builds_through_the_constructor(record, route, monkeypatch):
    built = []
    monkeypatch.setattr(type(record), "_check", lambda self: built.append(tuple(self)))
    route(record)
    assert built == [tuple(record)]


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
    [(RECORDS["NetworkConfig"], name) for name in DERIVED]
    + [(record, name) for record in RECORDS.values() for name in record._fields],
    ids=[f"NetworkConfig-{name}" for name in DERIVED]
    + [f"{key}-{name}" for key, record in RECORDS.items() for name in record._fields],
)
def test_fields_and_derived_attributes_are_read_only(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, 1.0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == before


@pytest.mark.parametrize("record", RECORDS.values(), ids=RECORDS.keys())
def test_records_take_no_new_attribute(record):
    with pytest.raises(AttributeError):
        record.extra = 1.0
    assert not hasattr(record, "extra")
