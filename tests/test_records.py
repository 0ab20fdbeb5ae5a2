"""The record types: immutable, equal and hashed by value, validated on construction."""

import math

import pytest

import trunc_centroid
from trunc_centroid.errors import DomainError, IntervalError, ParameterError
from trunc_centroid.model import (
    CentroidResult,
    ExcludedInterval,
    GaussianParams,
    Method,
    ShiftComparison,
)

RANGE = (-1.0, 1.0, 0.5)
RESULT = CentroidResult(1.5, Method.CLOSED_FORM, 0.25)
ROW = ("bounds", 1.0, math.nan, math.nan, 2.0, 1.0, 1.0)


def _record(name):
    """The record type called name; the package loads the sampler's and
    the sweeps' types, with numpy, on first access."""
    if name not in vars(trunc_centroid):
        pytest.importorskip("numpy")
    return getattr(trunc_centroid, name)


# A factory per record type: each call builds a new, equal record.
FACTORIES = {
    "GaussianParams": lambda: GaussianParams(1, 2),
    "ExcludedInterval": lambda: ExcludedInterval(-1, 4),
    "CentroidResult": lambda: CentroidResult(
        1.5, Method.QUADRATURE, 0.25, ("low_support_mass",), 1e-13
    ),
    "ShiftComparison": lambda: ShiftComparison(RESULT, RESULT, 0.0, 0.0),
    "SweepSpec": lambda: _record("SweepSpec")(RANGE, RANGE, RANGE, "random", 10, 3),
    "CheckRecord": lambda: _record("CheckRecord")(*ROW),
    "VerificationReport": lambda: _record("VerificationReport")(
        "bounds", 1, (), (), 1.0, _record("CheckRecord")(*ROW)
    ),
    "SampleBatch": lambda: _record("SampleBatch")(
        pytest.importorskip("numpy").array([1.0, 2.0]), 7, 1.0, 0.5
    ),
    "MonteCarloEstimate": lambda: _record("MonteCarloEstimate")(1.5, 0.5, 2),
}
VALUE_RECORDS = [name for name in FACTORIES if name != "SampleBatch"]

REPRS = {
    "GaussianParams": "GaussianParams(mu=1.0, sigma=2.0)",
    "ExcludedInterval": "ExcludedInterval(lower=-1.0, upper=4.0)",
    "CentroidResult": (
        "CentroidResult(value=1.5, method=<Method.QUADRATURE: 'quadrature'>, "
        "support_mass=0.25, warnings=('low_support_mass',), abs_error_bound=1e-13)"
    ),
    "ShiftComparison": (
        "ShiftComparison(base={0}, shifted={0}, shift=0.0, delta=0.0)".format(
            "CentroidResult(value=1.5, method=<Method.CLOSED_FORM: 'closed_form'>, "
            "support_mass=0.25, warnings=(), abs_error_bound=None)"
        )
    ),
    "SweepSpec": (
        "SweepSpec(l_range=(-1.0, 1.0, 0.5), u_range=(-1.0, 1.0, 0.5), "
        "h_range=(-1.0, 1.0, 0.5), mode='random', n_random=10, seed=3)"
    ),
    "CheckRecord": (
        "CheckRecord(check='bounds', x1=1.0, x2=nan, h=nan, lhs=2.0, rhs=1.0, margin=1.0)"
    ),
    "VerificationReport": (
        "VerificationReport(name='bounds', checks_run=1, violations=(), untestable=(), "
        "min_margin=1.0, min_margin_record=CheckRecord(check='bounds', x1=1.0, "
        "x2=nan, h=nan, lhs=2.0, rhs=1.0, margin=1.0))"
    ),
    "SampleBatch": (
        "SampleBatch(values=array([1., 2.]), seed=7, acceptance_rate=1.0, support_mass=0.5)"
    ),
    "MonteCarloEstimate": "MonteCarloEstimate(mean=1.5, std_error=0.5, n=2)",
}

# Valid keyword arguments for the three validated types, then invalid
# ones with the error their constructor raises.
VALID = {
    "GaussianParams": {"mu": 1, "sigma": 2},
    "ExcludedInterval": {"lower": -1, "upper": 4},
    "SweepSpec": {"l_range": RANGE, "u_range": RANGE, "h_range": RANGE},
}
INVALID = [
    ("GaussianParams", {"sigma": -1.0}, ParameterError),
    ("GaussianParams", {"mu": math.nan}, DomainError),
    ("ExcludedInterval", {"upper": -1.0}, IntervalError),
    ("ExcludedInterval", {"lower": -math.inf}, IntervalError),
    ("SweepSpec", {"mode": "x"}, ParameterError),
    ("SweepSpec", {"h_range": (1.0, -1.0, 0.5)}, ParameterError),
    ("SweepSpec", {"mode": "random", "n_random": 0}, ParameterError),
    # Ints beyond the float range.
    ("GaussianParams", {"sigma": 10**400}, ParameterError),
    ("GaussianParams", {"mu": 10**400}, DomainError),
    ("ExcludedInterval", {"upper": 10**400}, IntervalError),
    # Ints past Python's 4300-digit int-to-str limit, which the messages quote.
    ("GaussianParams", {"sigma": 10**5000}, ParameterError),
    ("GaussianParams", {"sigma": -(10**5000)}, ParameterError),
    ("ExcludedInterval", {"lower": 0, "upper": 10**5000}, IntervalError),
    ("ExcludedInterval", {"lower": 10**5000, "upper": 0}, IntervalError),
    ("SweepSpec", {"l_range": (0, 10**5000, 1)}, ParameterError),
    # A value whose repr fails on such an int is quoted by its type name.
    ("SweepSpec", {"seed": {1: 10**5000}}, ParameterError),
]


@pytest.mark.parametrize("name", FACTORIES)
def test_fields_cannot_be_assigned(name):
    record = FACTORIES[name]()
    field = REPRS[name][len(name) + 1 :].split("=", 1)[0]  # the first field
    with pytest.raises(AttributeError):
        setattr(record, field, 0.0)
    with pytest.raises(AttributeError):
        record.no_such_field = 0.0


@pytest.mark.parametrize("name", VALUE_RECORDS)
def test_value_records_compare_and_hash_by_value(name):
    first, second = FACTORIES[name](), FACTORIES[name]()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)


@pytest.mark.parametrize("name", FACTORIES)
def test_repr(name):
    assert repr(FACTORIES[name]()) == REPRS[name]


def test_validated_types_convert_to_float():
    params = GaussianParams(mu=1, sigma=2)
    assert (type(params.mu), type(params.sigma)) == (float, float)
    hole = ExcludedInterval(lower=-1, upper=4)
    assert (type(hole.lower), type(hole.upper)) == (float, float)


@pytest.mark.parametrize("name, bad, error", INVALID)
def test_replace_checks_like_the_constructor(name, bad, error):
    cls, kwargs = _record(name), VALID[name]
    with pytest.raises(error):
        cls(**{**kwargs, **bad})
    with pytest.raises(error):
        cls(**kwargs)._replace(**bad)


def test_replace_keeps_valid_records():
    assert GaussianParams(0, 1)._replace(sigma=3) == GaussianParams(0.0, 3.0)
    assert type(GaussianParams(0, 1)._replace(sigma=3).sigma) is float
    spec = _record("SweepSpec")(RANGE, RANGE, RANGE)
    assert spec._replace(mode="random", n_random=5).n_random == 5
    assert (spec.mode, spec.n_random, spec.seed) == ("grid", 0, 0)


def test_sample_batches_compare_by_identity():
    first, second = FACTORIES["SampleBatch"](), FACTORIES["SampleBatch"]()
    assert first == first and not first != first
    assert first != second and not first == second
    assert len({first, second}) == 2
