"""The record contract: every value type of the package is a frozen named tuple.

One table row per record class: the keyword arguments of a valid record,
the defaults it must fill in, and, for a record that validates its fields,
one invalid replacement with the error its constructor raises.  Then the
numpy-integer contract: wherever an integer is asked, whatever
``operator.index`` accepts is taken (no bool) and stored as a built-in int.
"""

import copy
import math

import numpy as np
import pytest

from coarsebell.ecs import EcsParams
from coarsebell.generic import GenericParams
from coarsebell.kernels import DiscreteGaussianWeights
from coarsebell.leggett_garg import SpinParams
from coarsebell.optimize import ChshSettings, Correlator, LgTimes, OptimizationResult, maximize_chsh
from coarsebell.photon import PhotonParams, photon_correlator
from coarsebell.sweep import (
    JobError,
    SeriesSpec,
    SweepResult,
    SweepRow,
    SweepSpec,
    _System,
)

WEIGHTS = (0.25, 0.5, 0.25)
SPEC = dict(system="generic-ref", variable="V", vmin=0.0, vmax=1.0, steps=3)

# class, keyword arguments, defaults, hashable, invalid replacement (field, value, error, match)
RECORDS = [
    (DiscreteGaussianWeights, dict(values=WEIGHTS), {}, True, None),
    (GenericParams, dict(n=2), dict(delta=0.0, Delta=0.0), True,
     ("n", 0, ValueError, "n must be an integer >= 1")),
    (PhotonParams, dict(n=2), dict(eta=1.0, Delta=0.0), True,
     ("eta", 1.5, ValueError, r"eta must lie in \[0, 1\]")),
    (EcsParams, dict(alpha=1.0), dict(eta=1.0, Delta=0.0), True,
     ("alpha", 0.0, ValueError, "alpha must be > 0")),
    (SpinParams, dict(j=1.5), dict(omega=1.0, Delta=0.0), True,
     ("j", 0.3, ValueError, "j must be a positive integer or half-integer")),
    (Correlator, dict(fn=abs), dict(period=math.pi, kind="chsh"), True, None),
    (ChshSettings, dict(theta_a=0.0, theta_a_prime=0.5, theta_b=1.0, theta_b_prime=1.5), {}, True,
     ("theta_b", math.nan, ValueError, "theta_b must be finite")),
    (LgTimes, dict(gaps=(0.1, 0.2, 0.3)), {}, True,
     ("gaps", (0.1, -0.2, 0.3), ValueError, "need three non-negative gaps")),
    (OptimizationResult,
     dict(value=2.0, argmax=(0.0, 1.0), evaluations=7, converged=True, starts_used=1), {}, True,
     None),
    (SeriesSpec, dict(label="a"), dict(params={}), False, None),
    (SweepSpec, SPEC, dict(series=()), True,
     ("steps", 0, JobError, "sweep.steps must be >= 1")),
    (SweepRow, dict(series="a", sweep_value=0.5, value=2.5, converged=False), {}, True, None),
    (SweepResult, dict(spec=SweepSpec(**SPEC), rows=()), {}, True, None),
    (_System, dict(kind="chsh", variable="V", variable_default=0.0, params={"n": 1},
                   model=PhotonParams, swept="Delta", correlator=photon_correlator), {}, False,
     None),
]
IDS = [row[0].__name__ for row in RECORDS]
VALIDATING = [row for row in RECORDS if row[4] is not None]


@pytest.mark.parametrize("cls, kwargs, defaults, hashable, invalid", RECORDS, ids=IDS)
def test_keyword_construction_fills_in_the_defaults(cls, kwargs, defaults, hashable, invalid):
    record = cls(**kwargs)
    fields = {**kwargs, **defaults}
    assert {name: getattr(record, name) for name in fields} == fields
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"


def test_a_default_dict_is_new_for_every_record():
    assert SeriesSpec("a").params is not SeriesSpec("a").params


@pytest.mark.parametrize("cls, kwargs, defaults, hashable, invalid", RECORDS, ids=IDS)
def test_no_attribute_can_be_set(cls, kwargs, defaults, hashable, invalid):
    record = cls(**kwargs)
    for name in (*kwargs, *defaults, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)


@pytest.mark.parametrize("cls, kwargs, defaults, hashable, invalid", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records(cls, kwargs, defaults, hashable, invalid):
    # copied fields, so that no comparison short-cuts by identity
    a, b = cls(**kwargs), cls(**copy.deepcopy(kwargs))
    assert a == b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls, kwargs, defaults, hashable, invalid", RECORDS, ids=IDS)
def test_a_record_is_the_tuple_of_its_fields(cls, kwargs, defaults, hashable, invalid):
    record = cls(**kwargs)
    values = tuple({**kwargs, **defaults}.values())
    assert record._fields == (*kwargs, *defaults) and not hasattr(record, "__dict__")
    assert record == values and [record[i] for i in range(len(record))] == list(values)
    if hashable:
        assert hash(record) == hash(values)


@pytest.mark.parametrize("cls, kwargs, defaults, hashable, invalid", VALIDATING,
                         ids=[row[0].__name__ for row in VALIDATING])
def test_replace_validates_as_the_constructor_does(cls, kwargs, defaults, hashable, invalid):
    field, value, error, match = invalid
    record = cls(**kwargs)
    with pytest.raises(error, match=match):
        cls(**{**kwargs, field: value})
    with pytest.raises(error, match=match):
        record._replace(**{field: value})
    with pytest.raises(error, match=match):
        cls._make(value if name == field else old for name, old in zip(cls._fields, record))


def test_replace_normalises_as_the_constructor_does():
    assert repr(SpinParams(j=0.5)._replace(j=2)) == repr(SpinParams(j=2)) == (
        "SpinParams(j=2.0, omega=1.0, Delta=0.0)"
    )
    settings = ChshSettings(0.0, 0.0, 0.0, 0.0)._replace(theta_b=4.0)
    assert settings.theta_b == 4.0 % math.pi == ChshSettings(0.0, 0.0, 4.0, 0.0).theta_b


# ---------------------------------------------------------------------------
# numpy integers


def cosine(a, b):
    return math.cos(2.0 * (a - b))


INTEGER_ENTRY_POINTS = {
    "SweepSpec.steps": lambda k: SweepSpec(**{**SPEC, "steps": k}),
    "maximize_chsh.starts": lambda k: maximize_chsh(cosine, starts=k),
    "GenericParams.n": lambda k: GenericParams(n=k),
    "PhotonParams.n": lambda k: PhotonParams(n=k),
}


@pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
@pytest.mark.parametrize("call", INTEGER_ENTRY_POINTS.values(), ids=INTEGER_ENTRY_POINTS)
def test_numpy_integers_are_integers(call, integer):
    # a built-in int is stored, so the result is the same, repr and cache keys too
    expected = call(2)
    result = call(integer(2))
    assert result == expected and repr(result) == repr(expected)


@pytest.mark.parametrize("call", INTEGER_ENTRY_POINTS.values(), ids=INTEGER_ENTRY_POINTS)
def test_bools_are_not_integers(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call(True)
