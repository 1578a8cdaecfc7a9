import numpy as np
import pytest
from hypothesis import given, strategies as st

from tailkit.errors import DomainError, EmptySample, KindMismatch
from tailkit.powerlaw import PowerLawModel, pl_sample
from tailkit.sample import Sample, empirical_ccdf, make_sample

from oracles import ccdf_naive


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
