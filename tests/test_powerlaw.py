import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tailkit.errors import DomainError
from tailkit.powerlaw import (
    PowerLawModel,
    hurwitz_zeta,
    ks_distance,
    pl_ccdf,
    pl_ppf,
    pl_sample,
)
from tailkit.rng import make_rng

from oracles import discrete_ppf_grid, discrete_ppf_naive, ks_naive, zeta_naive


# -- model validation ---------------------------------------------------------

def test_model_rejects_bad_params():
    with pytest.raises(DomainError):
        PowerLawModel(alpha=1.0, xmin=1.0)
    with pytest.raises(DomainError):
        PowerLawModel(alpha=2.0, xmin=0.0)
    with pytest.raises(DomainError):
        PowerLawModel(alpha=2.0, xmin=2.5, kind="discrete")
    for alpha in (math.inf, math.nan):
        with pytest.raises(DomainError, match="alpha must be > 1"):
            PowerLawModel(alpha=alpha, xmin=1.0)
    for kind in ("continuous", "discrete"):
        with pytest.raises(DomainError, match="xmin must be > 0"):
            PowerLawModel(alpha=2.0, xmin=math.inf, kind=kind)


# -- ccdf/cdf ------------------------------------------------------------------

def test_ccdf_threshold_point():
    m = PowerLawModel(alpha=2.5, xmin=1.0)
    assert pl_ccdf(m, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_ccdf_closed_form_values():
    assert pl_ccdf(PowerLawModel(alpha=2.0, xmin=1.0), 10.0) == pytest.approx(0.1)
    assert pl_ccdf(PowerLawModel(alpha=3.0, xmin=2.0), 4.0) == pytest.approx(0.25)


def test_ccdf_rejects_below_xmin():
    with pytest.raises(DomainError):
        pl_ccdf(PowerLawModel(alpha=2.0, xmin=1.0), 0.5)


@given(st.floats(min_value=1.2, max_value=6), st.floats(min_value=0.1, max_value=100))
def test_ccdf_strictly_decreasing(alpha, xmin):
    m = PowerLawModel(alpha=alpha, xmin=xmin)
    xs = xmin * np.linspace(1.0, 50.0, 40)
    vals = pl_ccdf(m, xs)
    assert np.all(np.diff(vals) < 0)
    assert np.all((vals > 0) & (vals <= 1.0))


def test_discrete_ccdf_normalized_at_xmin():
    m = PowerLawModel(alpha=2.5, xmin=3.0, kind="discrete")
    assert pl_ccdf(m, 3.0) == pytest.approx(1.0, abs=1e-12)
    # mass function sums to the CCDF step
    assert pl_ccdf(m, 3) - pl_ccdf(m, 4) == pytest.approx(
        3.0**-2.5 / hurwitz_zeta(2.5, 3.0), rel=1e-12)


def test_pdf_continuous_closed_form_and_normalization():
    from tailkit.powerlaw import pl_pdf
    m = PowerLawModel(alpha=2.5, xmin=2.0)
    assert pl_pdf(m, 2.0) == pytest.approx(1.5 / 2.0)
    xs = np.linspace(2.0, 2000.0, 400_000)
    integral = np.trapezoid(pl_pdf(m, xs), xs)
    assert integral == pytest.approx(1.0, abs=1e-3)


def test_pdf_discrete_mass_sums_to_one():
    from tailkit.powerlaw import pl_pdf
    m = PowerLawModel(alpha=3.0, xmin=2.0, kind="discrete")
    ks = np.arange(2.0, 5000.0)
    assert pl_pdf(m, ks).sum() == pytest.approx(1.0, abs=1e-6)
    assert pl_pdf(m, 2.0) == pytest.approx(pl_ccdf(m, 2) - pl_ccdf(m, 3), rel=1e-10)


# -- Hurwitz zeta -------------------------------------------------------------

@pytest.mark.parametrize("s", [1.01, 1.5, 2.0, 2.5, 3.7, 6.0, 9.5])
@pytest.mark.parametrize("q", [1.0, 2.0, 5.0, 17.0, 400.0])
def test_hurwitz_zeta_against_scipy(s, q):
    from scipy.special import zeta as scipy_zeta
    ours = hurwitz_zeta(s, q)
    ref = scipy_zeta(s, q)
    assert ours == pytest.approx(ref, rel=1e-10)


def test_hurwitz_zeta_against_naive_sum():
    for s, q in [(2.5, 1.0), (3.0, 7.0), (1.8, 2.0)]:
        assert hurwitz_zeta(s, q) == pytest.approx(zeta_naive(s, q), rel=1e-8)


def test_hurwitz_zeta_against_mpmath():
    mp = pytest.importorskip("mpmath")
    for s in (1.05, 1.5, 2.5, 4.0, 8.0):
        for q in (1.0, 3.0, 11.0, 250.0):
            ref = float(mp.zeta(s, q))
            assert hurwitz_zeta(s, q) == pytest.approx(ref, rel=1e-10)


def test_hurwitz_zeta_vectorized():
    qs = np.array([1.0, 2.0, 3.0])
    out = hurwitz_zeta(2.0, qs)
    assert out.shape == (3,)
    for o, q in zip(out, qs):
        assert o == pytest.approx(hurwitz_zeta(2.0, float(q)), rel=1e-14)


# -- sampling -----------------------------------------------------------------

def test_ppf_inverse_cdf_point():
    assert pl_ppf(PowerLawModel(alpha=2.0, xmin=1.0), 0.9) == pytest.approx(10.0)


def test_sample_median_matches_closed_form():
    m = PowerLawModel(alpha=2.5, xmin=1.0)
    s = pl_sample(m, 100_000, seed=7)
    want = 2.0 ** (1.0 / 1.5)  # xmin * 2^(1/(alpha-1))
    assert np.median(s.values) == pytest.approx(want, rel=0.02)


def test_sample_deterministic():
    m = PowerLawModel(alpha=2.2, xmin=3.0)
    a = pl_sample(m, 500, seed=42)
    b = pl_sample(m, 500, seed=42)
    assert np.array_equal(a.values, b.values)
    c = pl_sample(m, 500, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_sample_overflow_is_named_without_a_warning():
    m = PowerLawModel(alpha=1.01, xmin=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^82 of 100000 draws are not finite: they "
                                              r"overflow float64 for the power law with "
                                              r"alpha=1\.01, xmin=1\.0$"):
            pl_sample(m, 100_000, seed=1)


def test_sample_respects_xmin_and_kind():
    md = PowerLawModel(alpha=2.5, xmin=5.0, kind="discrete")
    s = pl_sample(md, 2000, seed=9)
    assert s.min >= 5.0
    assert np.all(s.values == np.round(s.values))


def test_discrete_ppf_matches_linear_scan():
    m = PowerLawModel(alpha=2.5, xmin=2.0, kind="discrete")
    for u in [0.0, 0.3, 0.618, 0.95, 0.999]:
        assert pl_ppf(m, u) == discrete_ppf_naive(2.5, 2, u)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(min_value=1.3, max_value=4.0),
       xmin=st.integers(min_value=1, max_value=50),
       u=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                  min_size=1, max_size=40))
def test_discrete_ppf_matches_the_grid_search(alpha, xmin, u):
    # bit for bit below 1e13; far above it the zeta CCDF is not strictly
    # decreasing in float64, so the two searches may stop a step apart
    m = PowerLawModel(alpha=alpha, xmin=float(xmin), kind="discrete")
    u = np.array(u)
    want = discrete_ppf_grid(m, u)
    got = pl_ppf(m, u)
    low = want < 1e13
    assert got[low].tobytes() == want[low].tobytes()


def test_discrete_ppf_past_the_old_grid_matches_the_reference():
    # the reference takes its per-draw bisection for every one of these draws
    m = PowerLawModel(alpha=1.3, xmin=2.0, kind="discrete")
    u = np.linspace(0.98, 0.9998, 12)
    want = discrete_ppf_grid(m, u)
    assert want.min() > 1 << 18 and want.max() < 1e13
    assert pl_ppf(m, u).tobytes() == want.tobytes()


def test_discrete_ppf_past_the_float_range_is_inf():
    assert pl_ppf(PowerLawModel(alpha=1.011, xmin=1.0, kind="discrete"), 0.9999) == math.inf


def test_discrete_sample_overflow_is_a_domain_error():
    m = PowerLawModel(alpha=1.011, xmin=1.0, kind="discrete")
    with pytest.raises(DomainError, match=r"^3 of 10000 draws are not finite"):
        pl_sample(m, 10_000, seed=1)


def test_sample_ccdf_close_to_model_dkw():
    # DKW-style envelope at the 99.9% level, tripled for slack
    n = 100_000
    m = PowerLawModel(alpha=2.5, xmin=1.0)
    s = pl_sample(m, n, seed=11)
    from tailkit.sample import empirical_ccdf
    xs, fr = empirical_ccdf(s)
    gap = np.abs(fr - pl_ccdf(m, xs)).max()
    assert gap <= 3 * math.sqrt(math.log(2 / 0.001) / (2 * n))


# -- KS distance ---------------------------------------------------------------

def test_ks_quantile_grid_construction():
    # points at u = (i-0.5)/4 of the model: every gap is exactly 1/8
    m = PowerLawModel(alpha=2.0, xmin=1.0)
    pts = pl_ppf(m, np.array([0.125, 0.375, 0.625, 0.875]))
    assert ks_distance(pts, m) == pytest.approx(0.125, abs=1e-12)


def test_ks_all_mass_at_xmin():
    m = PowerLawModel(alpha=2.0, xmin=1.0)
    assert ks_distance([1.0, 1.0, 1.0, 1.0], m) == pytest.approx(1.0)


def test_ks_steep_model_far_tail():
    # alpha=50 puts essentially all model mass at xmin; data far above
    # xmin therefore violates it maximally
    m = PowerLawModel(alpha=50.0, xmin=1.0)
    d = ks_distance([2.0, 3.0, 400.0], m)
    assert d > 0.95


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10_000_000))
def test_ks_matches_double_loop_oracle(case_seed):
    rng = make_rng(case_seed)
    n = int(rng.integers(2, 40))
    alpha = float(rng.uniform(1.3, 4.0))
    xmin = float(rng.uniform(0.5, 5.0))
    m = PowerLawModel(alpha=alpha, xmin=xmin)
    x = xmin * (1.0 - rng.random(n)) ** (-1.0 / (alpha - 1.0))
    if rng.random() < 0.3:
        x = np.round(x, 1) + xmin  # force ties, keep >= xmin
    assert ks_distance(x, m) == pytest.approx(
        ks_naive(list(x), alpha, xmin), abs=1e-12)


def test_ks_discrete_matches_double_loop_oracle():
    rng = make_rng(123)
    m = PowerLawModel(alpha=2.2, xmin=2.0, kind="discrete")
    for _ in range(25):
        n = int(rng.integers(3, 30))
        x = np.asarray(pl_ppf(m, rng.random(n)))
        ours = ks_distance(x, m)
        ref = ks_naive(list(x), 2.2, 2.0, kind="discrete")
        assert ours == pytest.approx(ref, abs=1e-9)
