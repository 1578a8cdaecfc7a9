import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tailkit import estimators
from tailkit.cli import _read_column
from tailkit.errors import DegenerateTail, DomainError, InsufficientGrid, SampleTooSmall
from tailkit.estimators import (
    adjusted_hill,
    comparison_csv,
    double_bootstrap_k,
    estimator_comparison,
    hill,
    moments,
)
from tailkit.fit import mle_alpha
from tailkit.powerlaw import PowerLawModel, pl_sample
from tailkit.rng import make_rng
from tailkit.sample import make_sample

from oracles import amse_curve_loop, hill_naive, moments_naive
from samples import spliced


# -- hill ---------------------------------------------------------------------

def test_hill_log_spaced_ladder():
    e = math.e
    s = make_sample([1.0, e, e**2, e**3])
    est = hill(s, k=3)
    assert est.gamma == pytest.approx(2.0, abs=1e-12)  # (3+2+1)/3
    assert est.alpha == pytest.approx(1.5, abs=1e-12)


def test_hill_recovers_pareto_index():
    s = pl_sample(PowerLawModel(alpha=2.5, xmin=1.0), 100_000, seed=7)
    est = hill(s, k=10_000)
    assert est.gamma == pytest.approx(2.0 / 3.0, abs=0.02)
    assert est.stderr == pytest.approx(est.gamma / 100.0, rel=1e-9)


def test_hill_k_bounds():
    s = make_sample([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(DomainError):
        hill(s, k=4)  # k = n
    with pytest.raises(DomainError):
        hill(s, k=1)


def test_hill_degenerate_top():
    s = make_sample([1.0, 5.0, 5.0, 5.0, 5.0])
    with pytest.raises(DegenerateTail):
        hill(s, k=3)


def test_hill_scale_invariant():
    rng = make_rng(3)
    s = make_sample(rng.lognormal(0, 1, 500))
    a = hill(s, 100)
    # power-of-two scaling is exact in binary floats
    b = hill(make_sample(s.values * 8192.0), 100)
    assert a.gamma == b.gamma
    # arbitrary positive scaling is exact up to rounding of the products
    c = hill(make_sample(s.values * 811.7), 100)
    assert c.gamma == pytest.approx(a.gamma, rel=1e-12)


def test_hill_matches_naive_oracle():
    rng = make_rng(8)
    x = rng.pareto(2.0, 400) + 1.0
    s = make_sample(x)
    for k in (2, 17, 100, 399):
        assert hill(s, k).gamma == pytest.approx(hill_naive(list(x), k), rel=1e-12)


def test_hill_equals_continuous_mle_over_top_k():
    # threshold at the (k+1)-th largest value, tail = top k values
    rng = make_rng(21)
    x = np.sort(rng.pareto(1.5, 1000) + 1.0)
    k = 200
    thresh = x[-(k + 1)]
    est = hill(make_sample(x), k)
    alpha_mle, _, _ = mle_alpha(make_sample(x[-k:]), xmin=thresh)
    assert est.alpha == pytest.approx(alpha_mle, abs=1e-9)


# -- moments --------------------------------------------------------------------

def test_moments_zipf_ladder_converges():
    # deterministic ladder with j-th largest value j^-gamma, gamma = 0.5
    gamma = 0.5
    n = 30_000
    vals = (np.arange(1, n + 1, dtype=float)) ** -gamma
    s = make_sample(vals)
    k = 10_000
    m1, m2, g_naive = moments_naive(list(vals), k)
    est = moments(s, k)
    assert est.gamma == pytest.approx(g_naive, rel=1e-10)
    assert est.gamma == pytest.approx(gamma, abs=0.01)


def test_moments_equals_hill_m1_when_m2_is_2m1sq():
    # on the exponential ladder log-spacings are linear: construct the
    # algebraic identity case directly
    m1 = 0.7
    # choose two-point logs with mean m1 and second moment exactly 2*m1^2
    # logs = m1 +/- d with d^2 = m1^2  ->  logs in {0, 2*m1}
    logs = np.array([0.0, 2 * m1])
    vals = np.exp(np.concatenate([[0.0], logs]))  # threshold at 1.0
    est = moments(make_sample(vals), k=2)
    assert est.gamma == pytest.approx(m1, rel=1e-9)


def test_moments_recovers_pareto_index():
    s = pl_sample(PowerLawModel(alpha=3.0, xmin=1.0), 100_000, seed=9)
    est = moments(s, k=10_000)
    assert est.gamma == pytest.approx(0.5, abs=0.05)
    assert est.alpha == pytest.approx(3.0, abs=0.2)


def test_moments_short_tail_reports_nonpositive_gamma():
    rng = make_rng(14)
    s = make_sample(rng.uniform(0.0, 1.0, 20_000) + 1e-9)
    est = moments(s, k=2_000)
    assert est.gamma <= 0
    assert est.alpha is None


def test_moments_refuses_log_spacings_of_zero_variance():
    # the top 4 values are equal and above the threshold: every spacing is log 2
    with pytest.raises(DegenerateTail, match="zero variance of log-spacings"):
        moments(make_sample([1.0] * 6 + [2.0] * 4), k=4)


# -- adjusted hill -----------------------------------------------------------------

def test_adjusted_hill_matches_hill_on_pure_pareto():
    s = pl_sample(PowerLawModel(alpha=2.5, xmin=1.0), 100_000, seed=7)
    k = 10_000
    plain = hill(s, k)
    adj = adjusted_hill(s, k)
    assert adj.gamma == pytest.approx(plain.gamma, abs=0.03)


def test_adjusted_hill_reduces_shift_bias():
    # shifted Pareto x + 0.5 has second-order bias; the corrected estimate
    # should beat plain Hill most of the time
    wins = 0
    trials = 20
    for seed in range(trials):
        rng = make_rng(600 + seed)
        x = (1.0 - rng.random(100_000)) ** -0.5 + 0.5  # gamma = 0.5, shifted
        s = make_sample(x)
        k = 5_000
        plain = hill(s, k)
        adj = adjusted_hill(s, k)
        wins += abs(adj.gamma - 0.5) < abs(plain.gamma - 0.5)
    assert wins >= 0.8 * trials


def test_adjusted_hill_insufficient_grid():
    s = make_sample(np.arange(1.0, 40.0))
    with pytest.raises(InsufficientGrid):
        adjusted_hill(s, k=5)


@pytest.mark.parametrize("k", [-3, 1])
def test_adjusted_hill_rejects_k_below_two(k):
    s = make_sample(np.arange(1.0, 400.0))
    with pytest.raises(DomainError, match=f"need 2 <= k < n, got k={k}"):
        adjusted_hill(s, k)


# -- double bootstrap ----------------------------------------------------------------

def test_double_bootstrap_recovery():
    s = pl_sample(PowerLawModel(alpha=2.5, xmin=1.0), 10_000, seed=3)
    k = double_bootstrap_k(s, seed=3)
    assert 2 <= k < len(s)
    est = hill(s, k)
    assert est.gamma == pytest.approx(2.0 / 3.0, abs=0.05)


def test_double_bootstrap_deterministic():
    s = pl_sample(PowerLawModel(alpha=2.0, xmin=1.0), 2_000, seed=8)
    assert double_bootstrap_k(s, seed=5) == double_bootstrap_k(s, seed=5)


def _double_bootstrap_with(s, seed, curve):
    """double_bootstrap_k(s, seed) with `curve(logx, nb, hi, rng, replicates)`
    as its AMSE curve: k* and the two curves it read."""
    curves = []

    def record(*args):
        curves.append(curve(*args))
        return curves[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_amse_curve", record)
        k = double_bootstrap_k(s, seed)
    return k, curves


def _assert_amse_curves_equal_loop(s, seed):
    """Each curve `_amse_curve` returns is, bit for bit, the prefix of the
    loop oracle's curve up to 0.9 * nb of the same length, and k* is the
    oracle's; returns both phases' curves, ours then the oracle's."""
    k, curves = _double_bootstrap_with(s, seed, estimators._amse_curve)
    k_loop, loop = _double_bootstrap_with(
        s, seed, lambda logx, nb, hi, rng, r: amse_curve_loop(s.values, nb, rng, r)[:hi])
    assert len(curves) == len(loop) == 2
    assert [c.tobytes() for c in curves] == [o[:c.size].tobytes() for c, o in zip(curves, loop)]
    assert k == k_loop == double_bootstrap_k(s, seed)
    return curves, loop


def _frechet_30k():
    return make_sample((-np.log(make_rng(2).random(30_000))) ** (-1 / 1.5))


@pytest.mark.parametrize("case", ["frechet_30k", "spliced_30k", "pareto_file", "n_500"])
def test_amse_curve_equals_loop_oracle(case, pareto_file):
    if case == "frechet_30k":
        s = _frechet_30k()
    elif case == "spliced_30k":
        s = make_sample(spliced(30_000, 25))
    elif case == "pareto_file":
        s = make_sample(_read_column(pareto_file))
    else:
        s = pl_sample(PowerLawModel(alpha=2.0, xmin=1.0), 500, seed=11)
    _assert_amse_curves_equal_loop(s, seed=3)


def test_amse_curve_is_cut_short_on_a_smooth_tail():
    curves, loop = _assert_amse_curves_equal_loop(_frechet_30k(), seed=3)
    assert all(c.size < o.size for c, o in zip(curves, loop))


def test_amse_curve_recomputed_in_full_when_the_cut_cannot_be_shown_safe(monkeypatch):
    # with no slack every phase is cut to k <= 2 at replicate 20, and the
    # kept minimum then ends above a partial sum cut off
    monkeypatch.setattr(estimators, "_DBS_PRUNE_SLACK", 0.0)
    curves, loop = _assert_amse_curves_equal_loop(_frechet_30k(), seed=3)
    assert [c.size for c in curves] == [o.size for o in loop]


@pytest.mark.parametrize("slack", [estimators._DBS_PRUNE_SLACK, 0.0])
def test_amse_curve_leaves_the_generator_where_the_loop_does(slack, monkeypatch):
    monkeypatch.setattr(estimators, "_DBS_PRUNE_SLACK", slack)
    x = _frechet_30k().values
    nb = int(x.size**0.95)
    ours, theirs = make_rng(4), make_rng(4)
    estimators._amse_curve(np.log(x), nb, int(0.9 * nb), ours, 200)
    amse_curve_loop(x, nb, theirs, 200)
    np.testing.assert_equal(ours.bit_generator.state, theirs.bit_generator.state)


@settings(deadline=None, max_examples=20)
@given(n=st.integers(500, 5000), seed=st.integers(0, 2**32 - 1),
       decimals=st.sampled_from([None, 2, 0]))
def test_amse_curve_equals_loop_oracle_property(n, seed, decimals):
    # rounding the draws ties them: heavily at 0 decimals, lightly at 2
    x = make_rng(seed).pareto(1.5, n) + 1.0
    if decimals is not None:
        x = np.round(x, decimals)
    _assert_amse_curves_equal_loop(make_sample(x), seed)


def test_double_bootstrap_small_sample():
    s = pl_sample(PowerLawModel(alpha=2.0, xmin=1.0), 100, seed=1)
    with pytest.raises(SampleTooSmall):
        double_bootstrap_k(s, seed=1)


# -- comparison -------------------------------------------------------------------

def test_estimator_comparison_consistent_on_pareto():
    s = pl_sample(PowerLawModel(alpha=2.5, xmin=1.0), 100_000, seed=7)
    ests = estimator_comparison(s, seed=7)
    assert [e.method for e in ests] == ["cns", "hill", "adjusted_hill", "moments"]
    alphas = [e.alpha for e in ests]
    assert all(a is not None for a in alphas)
    assert 2.4 <= min(alphas) and max(alphas) <= 2.6


def test_estimator_comparison_small_sample():
    s = pl_sample(PowerLawModel(alpha=2.0, xmin=1.0), 100, seed=2)
    with pytest.raises(SampleTooSmall):
        estimator_comparison(s, seed=2)


def test_comparison_csv_shape():
    s = pl_sample(PowerLawModel(alpha=2.5, xmin=1.0), 5_000, seed=4)
    text = comparison_csv(estimator_comparison(s, seed=4))
    lines = text.strip().splitlines()
    assert lines[0] == "method,alpha,gamma,threshold,stderr,k_exceeds_tail"
    assert len(lines) == 5
    assert lines[1].startswith("cns,")
    assert [line.split(",")[-1] for line in lines[1:]] == ["", "false", "false", "false"]


def test_comparison_csv_flags_k_beyond_the_cns_tail():
    cns = estimators.TailIndexEstimate("cns", 0.5, 3.0, 100, 2.0)
    rows = [cns] + [estimators.TailIndexEstimate(m, 0.5, 3.0, k, 1.0)
                    for m, k in (("hill", 100), ("moments", 101))]
    flags = [line.split(",")[-1] for line in comparison_csv(rows).splitlines()[1:]]
    assert flags == ["", "false", "true"]
    assert estimators.k_exceeds_tail(rows) == [None, False, True]
    assert estimators.k_exceeds_tail(rows[1:]) == [None, None]  # no cns row
