import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from tailkit.errors import DomainError, EmptySample, KindMismatch
from tailkit.powerlaw import PowerLawModel, pl_sample
from tailkit.sample import Sample, empirical_ccdf, make_sample

from oracles import ccdf_naive, make_sample_float


def test_make_sample_sorts():
    s = make_sample([3, 1, 2])
    assert list(s.values) == [1.0, 2.0, 3.0]
    assert s.n_rejected == 0


def test_make_sample_filters_nonpositive():
    s = make_sample([1, -5, 0, 2])
    assert list(s.values) == [1.0, 2.0]
    assert s.n_rejected == 2


def test_make_sample_filters_nonfinite():
    s = make_sample([np.nan, np.inf, 4.0, 2.0])
    assert list(s.values) == [2.0, 4.0]
    assert s.n_rejected == 2


def test_make_sample_empty_after_filter():
    with pytest.raises(EmptySample):
        make_sample([-1, 0])
    with pytest.raises(EmptySample):
        make_sample([])


def test_sample_is_immutable():
    s = make_sample([2.0, 1.0])
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def test_sample_does_not_freeze_caller_array():
    arr = np.array([1.0, 2.0, 3.0])
    Sample(values=arr)
    arr[0] = 9.0  # caller's array must stay writeable


def _same_as_float_route(values, kind="continuous"):
    """make_sample(values) gives the Sample, or raises the error, of the
    former route that converted the input to float64 before filtering it."""
    try:
        want = make_sample_float(values, kind)
    except (EmptySample, KindMismatch) as e:
        with pytest.raises(type(e), match=re.escape(str(e))):
            make_sample(values, kind)
        return
    got = make_sample(values, kind)
    assert got.values.dtype == np.float64 and got.values.ndim == 1
    assert np.array_equal(got.values, want.values)
    assert (got.kind, got.n_rejected) == (want.kind, want.n_rejected)


SIGNED = [5, 0, -3, 2, 7, 2, 1]
PARITY_INPUTS = [
    np.array(SIGNED, dtype=np.int64),
    np.array(SIGNED, dtype=np.int32),
    np.array(SIGNED, dtype=np.int8),
    np.array([5, 0, 2, 7, 2**64 - 1], dtype=np.uint64),
    np.array([True, False, True, True]),
    np.array([2.5, np.nan, np.inf, -np.inf, 0.0, -0.0, -1.5, 1e-45, 3e38, 2.0],
             dtype=np.float32),
    np.array([2.5, np.nan, np.inf, 0.0, -1.5, 6e-8, 65504.0], dtype=np.float16),
    np.array([[3, 1, 0], [-2, 7, 4]], dtype=np.int64),
    np.array([[3.5, np.nan], [0.0, 1.25], [9.0, 2.0]]).T,  # 2-D, not C-ordered
    np.arange(10, dtype=np.int64)[::-3],  # strided
    [3, 1.5, 0, -2, float("nan"), float("inf"), 2**70],
    ["1.5", "2", "0", "-1", "nan", "inf", "3e2"],
    np.array([1, 2.5, None, -4], dtype=object),
    np.array([1, 2.5, 0, 4, np.longdouble("1e-400")], dtype=np.longdouble),  # 0 as float64
    np.float32(2.5),
    np.int64(-1),
    [],
]


@pytest.mark.parametrize("values", PARITY_INPUTS,
                         ids=lambda v: str(getattr(v, "dtype", type(v).__name__)))
@pytest.mark.parametrize("kind", ["continuous", "discrete"])
def test_make_sample_equals_the_float_route(values, kind):
    _same_as_float_route(values, kind)


@given(hnp.arrays(st.sampled_from([np.int8, np.int64, np.uint16, np.bool_, np.float16,
                                   np.float32, np.float64]),
                  hnp.array_shapes(min_dims=1, max_dims=2, max_side=30)),
       st.sampled_from(["continuous", "discrete"]))
def test_make_sample_equals_the_float_route_on_any_numeric_array(values, kind):
    _same_as_float_route(values, kind)


@pytest.mark.parametrize("values", [np.array([3, 1, 2], dtype=np.int64),
                                    np.array([1.0, 2.0, 3.0]),
                                    np.array([[1, 2], [-1, 3]], dtype=np.int32)])
def test_make_sample_detaches_from_the_caller(values):
    values = values.copy()
    s = make_sample(values)
    before = s.values.copy()
    values[...] = 99
    assert np.array_equal(s.values, before)
    assert values.flags.writeable and not s.values.flags.writeable
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def test_discrete_sample_must_hold_integers():
    with pytest.raises(KindMismatch, match="1 non-integer"):
        make_sample([1.5, 2.0, 3.0], kind="discrete")
    with pytest.raises(KindMismatch):
        Sample(values=np.array([1.5, 2.0, 3.0]), kind="discrete")
    assert make_sample([3.0, 1.0, 2.0], kind="discrete").kind == "discrete"


def test_invalid_sample_raises_a_typed_error():
    for values, kind, message in (([1.0, np.inf], "continuous", "finite"),
                                  ([0.0, 1.0], "continuous", "> 0"),
                                  ([1.0], "ordinal", "unknown sample kind")):
        with pytest.raises(DomainError, match=message):
            Sample(values=np.array(values), kind=kind)
    # draws of a power law with alpha near 1 overflow to inf
    with np.errstate(over="ignore"), pytest.raises(DomainError, match="finite"):
        pl_sample(PowerLawModel(alpha=1.01, xmin=1.0), 100_000, seed=1)


def test_empirical_ccdf_counts():
    s = make_sample([1, 1, 2, 4])
    xs, fr = empirical_ccdf(s)
    assert list(xs) == [1.0, 2.0, 4.0]
    assert list(fr) == [1.0, 0.5, 0.25]


def test_empirical_ccdf_singleton():
    xs, fr = empirical_ccdf(make_sample([5]))
    assert list(xs) == [5.0] and list(fr) == [1.0]


@given(st.lists(st.floats(min_value=0.01, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=200))
def test_empirical_ccdf_matches_recount(vals):
    s = make_sample(vals)
    xs, fr = empirical_ccdf(s)
    expected = ccdf_naive(list(s.values))
    assert len(xs) == len(expected)
    for (x, f), (xe, fe) in zip(zip(xs, fr), expected):
        assert x == xe
        assert f == pytest.approx(fe, abs=1e-12)
    # shape properties: starts at 1, non-increasing
    assert fr[0] == 1.0
    assert np.all(np.diff(fr) <= 0)
