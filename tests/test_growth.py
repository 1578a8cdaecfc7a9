import math
import re
import tracemalloc
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tailkit import growth
from tailkit.errors import DomainError, SampleTooSmall
from tailkit.fit import gof_pvalue, select_xmin
from tailkit.growth import (
    BA,
    COPY,
    DegreeSequence,
    ccdf_slope,
    degrees_csv,
    measure_exponent,
    simulate_ba,
    simulate_copy,
    theoretical_alpha,
)
from tailkit.rng import make_rng
from tailkit.sample import DISCRETE, make_sample

from oracles import assert_same_text, degrees_csv_loop, simulate_ba_loop, simulate_copy_loop


# -- theory ---------------------------------------------------------------------

def test_theoretical_alpha_values():
    assert theoretical_alpha(0.0) == 2.0
    assert theoretical_alpha(0.5) == 3.0
    assert theoretical_alpha(0.2) == pytest.approx(2.25)


def test_theoretical_alpha_monotone_increasing():
    gs = np.linspace(0, 0.99, 50)
    vals = [theoretical_alpha(g) for g in gs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_theoretical_alpha_exponential_regime():
    assert math.isinf(theoretical_alpha(1.0))


def test_theoretical_alpha_domain():
    with pytest.raises(DomainError):
        theoretical_alpha(-0.1)
    with pytest.raises(DomainError):
        theoretical_alpha(1.5)


# -- parameter validation ----------------------------------------------------------

def test_simulator_parameter_validation():
    with pytest.raises(DomainError, match="gamma must lie in"):
        simulate_copy(2000, gamma=1.5)
    with pytest.raises(DomainError, match="n_nodes >= 1000"):
        simulate_copy(10, gamma=0.2)
    with pytest.raises(DomainError, match="m must be >= 1"):
        simulate_ba(100, m=0)
    with pytest.raises(DomainError, match="n_nodes > m"):
        simulate_ba(2, m=2)
    # each simulator takes only its own model's parameter
    with pytest.raises(TypeError):
        simulate_copy(2000, m=7)
    with pytest.raises(TypeError):
        simulate_ba(2000, gamma=0.2)


# -- copy model ---------------------------------------------------------------------

def test_copy_conservation_exact():
    d = simulate_copy(5000, gamma=0.3, seed=4)
    # one arrival unit per creator plus one event per step
    assert d.steps == 5000 - 1
    assert d.counts.sum() == 5000 + d.steps
    assert d.counts.min() >= 1


def test_copy_deterministic():
    a, b = simulate_copy(3000, gamma=0.4, seed=9), simulate_copy(3000, gamma=0.4, seed=9)
    assert np.array_equal(a.counts, b.counts)


def test_copy_gamma_one_is_uniform():
    # pure exploration: thin, exponential-type tail; with the fitted tail
    # required to hold a substantive share of the data, the power-law null
    # should be rejected for nearly all seeds
    fit_substantive = partial(select_xmin, min_tail=2000)
    rejected = 0
    for seed in range(10):
        d = simulate_copy(100_000, gamma=1.0, seed=100 + seed)
        s = make_sample(d.counts, kind=DISCRETE)
        fit = fit_substantive(s)
        g = gof_pvalue(s, fit, n_boot=100, seed=seed)
        rejected += g.p_value < 0.1
    assert rejected >= 8


def test_copy_exponent_tracks_gamma():
    fit = measure_exponent(simulate_copy(200_000, gamma=0.2, seed=29))
    assert fit.alpha == pytest.approx(2.25, abs=0.15)


# -- ba model -----------------------------------------------------------------------

def test_ba_handshake_identity():
    d = simulate_ba(10_000, m=2, seed=1)
    assert d.counts.sum() == 2 * d.steps
    assert d.steps == 3 + 2 * (10_000 - 3)


def test_ba_min_degree_is_m():
    d = simulate_ba(5000, m=3, seed=7)
    assert d.counts.min() >= 3


def test_ba_deterministic():
    assert np.array_equal(simulate_ba(2000, m=2, seed=11).counts,
                          simulate_ba(2000, m=2, seed=11).counts)


def test_ba_ccdf_slope_near_minus_two():
    d = simulate_ba(200_000, m=2, seed=1)
    assert ccdf_slope(d, 10, 500) == pytest.approx(-2.0, abs=0.1)


@pytest.mark.parametrize("lo, hi", [(10.0, 500.0), (1.0, 2.0)])
def test_ccdf_slope_refuses_a_window_of_fewer_than_3_points(lo, hi):
    d = DegreeSequence(counts=np.array([1, 2, 3, 5, 8]), steps=0)
    with pytest.raises(DomainError, match="holds fewer than 3 points"):
        ccdf_slope(d, lo, hi)


def test_ba_small_run_fit_contract():
    # m=1 trees at small n either fit with a full-size tail or
    # refuse cleanly; both are acceptable outcomes
    d = simulate_ba(1000, m=1, seed=13)
    try:
        fit = measure_exponent(d)
        assert fit.n_tail >= 50
    except SampleTooSmall:
        pass


# -- equivalence with the one-step-per-event loops ----------------------------------

@pytest.mark.parametrize("gamma", [0.0, 0.05, 0.2, 0.9, 1.0])
@pytest.mark.parametrize("floor", [0.05, 0.0])  # 0.0: deep copy chains at gamma 0
@pytest.mark.parametrize("n", [1000, 1001, 200_000])
def test_copy_equals_loop_oracle(gamma, floor, n):
    for seed in (0, 17) if n < 10_000 else (3,):
        with patch.object(growth, "EXPLORATION_FLOOR", floor):
            assert np.array_equal(simulate_copy(n, gamma, seed).counts,
                                  simulate_copy_loop(n, gamma, seed).counts)


@pytest.mark.parametrize("block, sizes", [(7, (1000, 1001, 1002)),
                                          (64, (1023, 1024, 1025)),
                                          (growth._BLOCK, (65_535, 65_536, 65_537))])
def test_copy_equals_loop_oracle_across_block_boundaries(block, sizes):
    # the uniforms are drawn a block at a time; the last block may be partial
    with patch.object(growth, "_BLOCK", block):
        for n in sizes:
            assert np.array_equal(simulate_copy(n, 0.2, n).counts,
                                  simulate_copy_loop(n, 0.2, n).counts)


def _traced_peak(fn, *args, **kwargs):
    """Peak bytes tracemalloc sees allocated during fn(*args, **kwargs)."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_copy_model_peak_memory():
    # 7.6 MiB of counts: the model keeps a bool mask and int32 pointers
    assert _traced_peak(simulate_copy, 10**6, 0.2, 7) <= 32 * 2**20


def test_sample_of_copy_counts_peak_memory():
    # the Sample's one float64 copy of the int64 counts (7.6 MiB), which also
    # detaches it from them, plus byte-sized masks; the counts are filtered
    # as int64, and an unsorted copy is sorted in place
    counts = simulate_copy(10**6, 0.2, 7).counts
    assert _traced_peak(make_sample, counts, kind=DISCRETE) <= 12 * 2**20


def test_exponent_of_copy_counts_peak_memory():
    # the same float64 copy of the counts, then the threshold scan over it
    d = simulate_copy(10**6, 0.2, 7)
    assert _traced_peak(measure_exponent, d) <= 12 * 2**20


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_ba_equals_loop_oracle(m):
    # n = m + 2 and small n make the rejecting node the last of its block,
    # so its redraws run past the buffered uniforms
    for n in sorted({m + 1, m + 2, 10, 2000}):
        for seed in range(4):
            assert np.array_equal(simulate_ba(n, m, seed).counts,
                                  simulate_ba_loop(n, m, seed).counts)


@settings(deadline=None, max_examples=60)
@given(model=st.sampled_from([COPY, BA]),
       n=st.integers(min_value=1000, max_value=6000),
       gamma=st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9, 1.0]),
       floor=st.sampled_from([0.0, 0.05]),
       m=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=2**32))
def test_simulators_equal_loop_oracles(model, n, gamma, floor, m, seed):
    if model == COPY:
        with patch.object(growth, "EXPLORATION_FLOOR", floor):
            fast, loop = simulate_copy(n, gamma, seed), simulate_copy_loop(n, gamma, seed)
    else:
        fast, loop = simulate_ba(n, m, seed), simulate_ba_loop(n, m, seed)
    assert np.array_equal(fast.counts, loop.counts)
    assert fast.steps == loop.steps


def test_philox_scalar_draws_equal_block_draws():
    # simulate_ba reads the stream in blocks of any size where the loop
    # drew one value at a time
    scalar = make_rng(42)
    expected = [scalar.random() for _ in range(1000)]
    block = make_rng(42)
    got = np.concatenate([block.random(k) for k in (1, 3, 4, 7, 256, 1, 728)])
    assert got.tolist() == expected


# -- measurement ----------------------------------------------------------------------

def test_measure_exponent_deterministic():
    f1 = measure_exponent(simulate_copy(50_000, gamma=0.3, seed=5))
    f2 = measure_exponent(simulate_copy(50_000, gamma=0.3, seed=5))
    assert f1 == f2


def test_measure_exponent_records_the_min_tail_of_its_scan():
    d = simulate_copy(20_000, gamma=0.3, seed=5)
    assert measure_exponent(d).min_tail == 50


# -- exports ------------------------------------------------------------------------

def test_degrees_csv_roundtrip():
    d = simulate_ba(1500, m=2, seed=3)
    text = degrees_csv(d)
    lines = text.strip().splitlines()
    assert lines[0] == "count"
    assert len(lines) == 1501
    assert np.array_equal(np.array([int(v) for v in lines[1:]]), d.counts)


def test_degrees_csv_matches_row_loop_format():
    d = simulate_copy(3000, gamma=0.3, seed=8)
    expected = "count\n" + "".join(f"{int(c)}\n" for c in d.counts)
    assert degrees_csv(d) == expected


# every count where the digit count changes, and the int64 extremes
DIGIT_BOUNDARIES = [0, 1, *(v for k in range(1, 19) for v in (10**k - 1, 10**k)), 2**63 - 1]
BLOCK_SIZES = [0, 1, 65_535, 65_536, 65_537]


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_degrees_csv_matches_loop_at_digit_boundaries(size):
    d = DegreeSequence(counts=np.resize(np.array(DIGIT_BOUNDARIES, dtype=np.int64), size),
                       steps=0)
    assert_same_text(degrees_csv(d), degrees_csv_loop(d))


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.sampled_from(DIGIT_BOUNDARIES) | st.integers(0, 2**63 - 1),
                       min_size=1, max_size=40),
       size=st.sampled_from(BLOCK_SIZES), seed=st.integers(0, 2**32 - 1))
def test_degrees_csv_equals_the_loop_oracle(values, size, seed):
    counts = make_rng(seed).permutation(np.resize(np.array(values, dtype=np.int64), size))
    d = DegreeSequence(counts=counts, steps=0)
    assert_same_text(degrees_csv(d), degrees_csv_loop(d))


def test_degree_sequence_rejects_negative_counts():
    with pytest.raises(DomainError, match="counts must be >= 0: 2 negative, least -5"):
        DegreeSequence(counts=[3, -1, 0, -5], steps=0)
    assert degrees_csv(DegreeSequence(counts=[0], steps=0)) == "count\n0\n"


def test_degree_sequence_refuses_counts_int64_cannot_hold():
    for counts, n_bad, first in (([1.5, 2.7], 2, "1.5"), ([1.0, np.nan], 1, "nan"),
                                 ([np.inf, 2.0], 1, "inf"), ([-0.5], 1, "-0.5"),
                                 ([1e19], 1, "1e+19"), (["3", "4.25"], 1, "4.25")):
        with pytest.raises(DomainError, match=f"whole numbers in int64 range: {n_bad} are "
                                              f"not, first {re.escape(first)}$"):
            DegreeSequence(counts=np.array(counts), steps=3)
    with pytest.raises(DomainError, match="whole numbers in int64 range: 1 are not, "
                                          "first 9223372036854775808$"):
        DegreeSequence(counts=np.array([2**63, 1], dtype=np.uint64), steps=0)
    d = DegreeSequence(counts=np.array([[0.0, 3.0], [2.0**62, 1.0]]), steps=3)
    assert d.counts.dtype == np.int64 and d.counts.tolist() == [[0, 3], [2**62, 1]]
    with pytest.raises(DomainError, match="counts must be >= 0: 1 negative, least -2"):
        DegreeSequence(counts=np.array([-2.0, 1.0]), steps=0)


def test_degree_sequence_immutable():
    d = simulate_ba(1000, m=1, seed=3)
    with pytest.raises(ValueError):
        d.counts[0] = 7
