import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tailkit import fit as fit_module
from tailkit.errors import (
    DegenerateTail,
    DomainError,
    KindMismatch,
    SampleTooSmall,
)
from tailkit.fit import (
    _LB_MARGIN,
    _LB_POINTS,
    _LB_REFINE,
    _Candidates,
    _candidate_indices,
    _distinct_stats,
    _mle_discrete,
    fit_at,
    fit_report,
    mle_alpha_continuous,
    mle_alpha_discrete,
    power_law_proportion,
    select_xmin,
)
from tailkit.growth import simulate_ba, simulate_copy
from tailkit.powerlaw import PowerLawModel, hurwitz_zeta, pl_sample
from tailkit.rng import make_rng
from tailkit.sample import CONTINUOUS, DISCRETE, make_sample

from oracles import bounds_gathered, select_xmin_exhaustive, select_xmin_naive
from samples import spliced


# -- continuous MLE ------------------------------------------------------------

def test_mle_continuous_log_ladder():
    # every value xmin*e gives sum(log) = n, so alpha = 2 exactly
    e = math.e
    alpha, stderr, _ = mle_alpha_continuous([2 * e] * 40, xmin=2.0)
    assert alpha == pytest.approx(2.0, abs=1e-12)
    assert stderr == pytest.approx(1.0 / math.sqrt(40))


def test_mle_continuous_two_point_closed_form():
    alpha, _, _ = mle_alpha_continuous([math.e, math.e**2], xmin=1.0)
    assert alpha == pytest.approx(1.0 + 2.0 / 3.0, abs=1e-12)


def test_mle_continuous_recovers_generator():
    s = pl_sample(PowerLawModel(alpha=2.5, xmin=1.0), 100_000, seed=7)
    alpha, stderr, _ = mle_alpha_continuous(s, xmin=1.0)
    assert stderr == pytest.approx(1.5 / math.sqrt(100_000), rel=0.05)
    assert abs(alpha - 2.5) < 0.015


def test_mle_continuous_degenerate():
    with pytest.raises(DegenerateTail):
        mle_alpha_continuous([3.0, 3.0, 3.0], xmin=3.0)


@pytest.mark.parametrize("xmin", [0.0, -1.0, math.nan])
def test_mle_continuous_rejects_xmin_outside_its_domain(xmin):
    # log(xmin) is undefined there; a math domain error must not escape
    with pytest.raises(DomainError, match="xmin must be > 0"):
        mle_alpha_continuous([1.0, 2.0, 3.0], xmin=xmin)


def test_mle_continuous_loglik_is_log_density_sum():
    x = np.array([1.5, 2.0, 7.0, 3.3])
    alpha, _, ll = mle_alpha_continuous(x, xmin=1.0)
    dens = (alpha - 1.0) * x ** -alpha  # xmin = 1
    assert ll == pytest.approx(np.log(dens).sum(), rel=1e-12)


# -- discrete MLE ----------------------------------------------------------------

def test_mle_discrete_recovers_generator():
    m = PowerLawModel(alpha=2.5, xmin=5.0, kind="discrete")
    s = pl_sample(m, 100_000, seed=31)
    alpha, _, _ = mle_alpha_discrete(s, xmin=5.0)
    assert abs(alpha - 2.5) < 0.03


def test_mle_discrete_degenerate():
    with pytest.raises(DegenerateTail):
        mle_alpha_discrete([2, 2, 2], xmin=2)


def test_mle_discrete_rejects_non_integers():
    with pytest.raises(KindMismatch):
        mle_alpha_discrete([2.5, 3.0, 4.0], xmin=2)
    for xmin in (2.5, 0.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="discrete xmin must be an integer >= 1"):
            mle_alpha_discrete([2.0, 3.0, 4.0], xmin=xmin)


def test_mle_discrete_at_search_edge_raises():
    # the MLE of a Zipf(9) sample lies above the search range [1.01, 6]
    x = np.random.default_rng(0).zipf(9, 5000)
    with pytest.raises(DegenerateTail, match="edge of its search range"):
        mle_alpha_discrete(x, xmin=1)
    with pytest.raises(DegenerateTail):
        select_xmin(make_sample(x, kind="discrete"))


@given(x=st.lists(st.floats(1.0, 1000.0), min_size=1, max_size=300),
       ties=st.integers(0, 6))
def test_distinct_stats_equal_np_unique(x, ties):
    # rounding to `ties` decimals makes ties anywhere from common to rare
    x = np.sort(np.round(np.array(x), ties) + 1.0)
    dv, dcount, dcum, _, _ = _distinct_stats(x)
    uv, ucount = np.unique(x, return_counts=True)
    assert dv.tobytes() == uv.tobytes()
    assert dcount.dtype == ucount.dtype and dcount.tobytes() == ucount.tobytes()
    assert dcum.tobytes() == ucount.cumsum().tobytes()


@settings(deadline=None, max_examples=25)
@given(n=st.integers(200, 20_000), seed=st.integers(0, 2**32 - 1),
       min_tail=st.sampled_from([2, 10, 50]))
def test_mle_discrete_batch_equals_one_element_calls(n, seed, min_tail):
    # candidate tails of a discrete sample, fitted together and one at a time
    x = _scan_input("discrete", n, seed).values
    dv, _, dcum, _, wsuffix = _distinct_stats(x)
    with patch.object(fit_module, "_CANDIDATE_CAP", 40):
        cand = _candidate_indices(dv, dcum, n, min_tail)
    if cand.size == 0:
        return
    m = n - np.concatenate(([0], dcum[:-1]))[cand]
    batch = _mle_discrete(wsuffix[cand], m, dv[cand])
    single = np.concatenate([_mle_discrete(wsuffix[k:k + 1], mk, dv[k:k + 1])
                             for k, mk in zip(cand, m)])
    assert batch.tobytes() == single.tobytes()
    z0 = np.concatenate([hurwitz_zeta(single[i:i + 1], dv[k:k + 1])
                         for i, k in enumerate(cand)])
    assert hurwitz_zeta(batch, dv[cand]).tobytes() == z0.tobytes()


def test_discrete_candidates_share_one_search(monkeypatch):
    # 383 candidates: one batched golden-section search, not one per candidate
    d = simulate_copy(1_000_000, gamma=0.2, seed=4)
    calls = []

    def counting(s, q):
        calls.append(1)
        return hurwitz_zeta(s, q)

    monkeypatch.setattr("tailkit.fit.hurwitz_zeta", counting)
    c = _Candidates(make_sample(d.counts, kind="discrete"), 50)
    assert c.k0.size > 300
    assert len(calls) < 100


# -- threshold selection ----------------------------------------------------------

def test_select_xmin_follows_the_sample_kind():
    # default options: a discrete sample gets the discrete (zeta) fit
    s = pl_sample(PowerLawModel(alpha=2.5, xmin=1.0, kind="discrete"), 50_000, seed=7)
    fit = select_xmin(s)
    assert fit.kind == "discrete"
    assert (fit.alpha, fit.xmin, fit.n_tail) == (2.5108486734928377, 4.0, 3737)


def test_select_xmin_pure_pareto():
    s = pl_sample(PowerLawModel(alpha=2.5, xmin=1.0), 100_000, seed=7)
    fit = select_xmin(s)
    assert fit.xmin <= 1.2
    assert abs(fit.alpha - 2.5) < 0.05
    assert fit.n_tail == int((s.values >= fit.xmin).sum())
    assert 0 <= fit.ks <= 1
    assert fit.stderr == pytest.approx((fit.alpha - 1) / math.sqrt(fit.n_tail))


def test_select_xmin_spliced_body_tail():
    # uniform body on [1,5] plus a Pareto tail starting at 5: the scan must
    # land near the splice, not in the body and not far up the tail
    rng = make_rng(12)
    body = rng.uniform(1, 5, 5000)
    tail = 5.0 * (1.0 - rng.random(5000)) ** (-1.0)  # ccdf exponent 1
    s = make_sample(np.concatenate([body, tail]))
    fit = select_xmin(s)
    assert 3.5 <= fit.xmin <= 6.5


def test_select_xmin_too_small():
    with pytest.raises(SampleTooSmall):
        select_xmin(make_sample(np.arange(1, 11)))


def test_select_xmin_equals_bruteforce_oracle():
    gens = [
        lambda r, n: r.pareto(1.7, n) + 1.0,
        lambda r, n: r.lognormal(0.5, 1.0, n),
        lambda r, n: r.uniform(0.5, 20.0, n),
        lambda r, n: np.round(r.pareto(1.3, n) + 1.0, 1),  # ties
    ]
    for case in range(50):
        rng = make_rng(9000 + case)
        n = int(rng.integers(55, 500))
        x = gens[case % len(gens)](rng, n)
        s = make_sample(x)
        fit = select_xmin(s)
        xm, alpha, m, _ = select_xmin_naive(list(s.values))
        assert fit.xmin == xm, f"case {case}"
        assert fit.alpha == pytest.approx(alpha, abs=1e-9)
        assert fit.n_tail == m


def test_select_xmin_rescaling_invariance():
    s = pl_sample(PowerLawModel(alpha=2.2, xmin=1.0), 20_000, seed=17)
    fit1 = select_xmin(s)
    c = 137.5
    fit2 = select_xmin(make_sample(s.values * c))
    assert fit2.xmin == pytest.approx(c * fit1.xmin, rel=1e-9)
    assert fit2.alpha == pytest.approx(fit1.alpha, abs=1e-9)


def test_fit_at_skips_scan():
    s = pl_sample(PowerLawModel(alpha=2.0, xmin=1.0), 5000, seed=3)
    fit = fit_at(s, 2.0)
    assert fit.xmin == 2.0
    assert fit.n_tail == int((s.values >= 2.0).sum())


def test_select_xmin_exhaustive_when_under_cap():
    # cap larger than the number of distinct values must not change anything
    s = pl_sample(PowerLawModel(alpha=2.0, xmin=1.0), 300, seed=23)
    f1 = select_xmin(s)
    with patch.object(fit_module, "_CANDIDATE_CAP", 100_000):
        f2 = select_xmin(s)
    assert f1 == f2


# -- pruned scan against the exhaustive scan ---------------------------------------

def _scan_input(gen, n, seed):
    rng = make_rng(seed)
    if gen == "pareto":
        return make_sample(rng.pareto(rng.uniform(0.5, 3.0), n) + 1.0)
    if gen == "lognormal":
        return make_sample(rng.lognormal(0.0, 1.5, n))
    if gen == "tied":
        return make_sample(np.round(rng.pareto(1.3, n) + 1.0, 1))
    return make_sample(np.floor(rng.pareto(rng.uniform(0.8, 2.5), n) + 1.0), kind="discrete")


def _uncapped(n):
    """A candidate cap above any candidate count of an n-value sample."""
    return n + 1


def _same_outcome(s, min_tail):
    try:
        expected = select_xmin_exhaustive(s, min_tail)
    except (SampleTooSmall, DegenerateTail) as exc:
        with pytest.raises(type(exc)):
            select_xmin(s, min_tail)
        return
    assert select_xmin(s, min_tail) == expected


@settings(deadline=None, max_examples=150)
@given(gen=st.sampled_from(["pareto", "lognormal", "tied", "discrete"]),
       n=st.integers(2, 2500),
       seed=st.integers(0, 2**32 - 1),
       min_tail=st.sampled_from([2, 3, 50, "n", "n-1"]),
       cap=st.sampled_from(["all", 1, 2, 37, 512]),
       allowance=st.sampled_from(["default", 0.0, 0.05, 1.0]))
def test_pruned_scan_equals_exhaustive_scan(gen, n, seed, min_tail, cap, allowance):
    # the cap and allowance are module constants; patching them in tailkit.fit
    # reaches the oracle too
    s = _scan_input(gen, n, seed)
    min_tail = {"n": n, "n-1": max(2, n - 1)}.get(min_tail, min_tail)
    cap = _uncapped(n) if cap == "all" else cap
    allowances = {} if allowance == "default" else {CONTINUOUS: allowance, DISCRETE: allowance}
    with (patch.object(fit_module, "_CANDIDATE_CAP", cap),
          patch.dict(fit_module._KS_ALLOWANCE, allowances)):
        _same_outcome(s, min_tail)


@pytest.mark.parametrize("case", ["spliced_30k", "frechet_300k", "copy_degrees", "ba_degrees"])
def test_pruned_scan_equals_exhaustive_scan_fixed_cases(case):
    if case == "spliced_30k":
        s = make_sample(spliced(30_000, 1))
    elif case == "frechet_300k":
        s = make_sample((-np.log(make_rng(2).random(300_000))) ** (-1 / 1.5))
    elif case == "copy_degrees":
        d = simulate_copy(100_000, gamma=0.2, seed=4)
        s = make_sample(d.counts, kind="discrete")
    else:
        d = simulate_ba(30_000, m=2, seed=4)
        s = make_sample(d.counts, kind="discrete")
    assert select_xmin(s) == select_xmin_exhaustive(s)


@settings(deadline=None, max_examples=60)
@given(gen=st.sampled_from(["pareto", "lognormal", "tied", "discrete"]),
       n=st.integers(60, 3000),
       seed=st.integers(0, 2**32 - 1),
       cap=st.sampled_from(["all", 64]),
       chunk=st.sampled_from([fit_module._LB_CHUNK_MIN, 64]))
def test_bounds_never_exceed_exact_ks_at_any_reachable_stride(gen, n, seed, cap, chunk):
    # every stride the scan can reach: ceil(L/16), then / 4 down to 1; at each,
    # the padded candidate rows give the bits of one flat gather per point
    s = _scan_input(gen, n, seed)
    try:
        with patch.object(fit_module, "_CANDIDATE_CAP", _uncapped(n) if cap == "all" else cap):
            c = _Candidates(s, 2)
    except (SampleTooSmall, DegenerateTail):
        return
    idx = np.arange(c.k0.size)
    exact = np.array([c.exact_ks(i) for i in idx])
    stride = -(-(c.dv.size - c.k0) // _LB_POINTS)
    with patch.object(fit_module, "_LB_CHUNK_MIN", chunk):
        while True:
            lb = c.bounds(idx, stride)
            assert lb.tobytes() == bounds_gathered(c, idx, stride).tobytes()
            assert np.all(lb <= exact + _LB_MARGIN)
            if np.all(stride == 1):
                break
            stride = np.maximum(stride // _LB_REFINE, 1)


@pytest.mark.parametrize("gen", ["pareto", "lognormal", "tied", "discrete"])
def test_lower_bounds_never_exceed_exact_ks(gen):
    # fixed samples, every candidate: the scan's coarse bound and the stride-1 bound
    for seed in range(5):
        s = _scan_input(gen, 3000, 700 + seed)
        with patch.object(fit_module, "_CANDIDATE_CAP", _uncapped(3000)):
            c = _Candidates(s, 50)
        idx = np.arange(c.k0.size)
        exact = np.array([c.exact_ks(i) for i in idx])
        coarse = -(-(c.dv.size - c.k0) // _LB_POINTS)
        assert np.all(c.bounds(idx, coarse) <= exact + _LB_MARGIN)
        assert np.all(c.bounds(idx, np.ones_like(coarse)) <= exact + _LB_MARGIN)


@pytest.mark.parametrize("gen", ["lognormal", "pareto"])
@pytest.mark.parametrize("n", [200, 500, 1000])
def test_small_scans_make_few_exact_passes(gen, n, monkeypatch):
    # a tail shorter than the coarse grid still gets a multi-point bound
    exact_ks = _Candidates.exact_ks
    for seed in range(10):
        rng = make_rng(seed)
        x = rng.lognormal(0.0, 1.5, n) if gen == "lognormal" else rng.pareto(1.5, n) + 1.0
        s = make_sample(x)
        calls = []

        def counting(self, i):
            calls.append(i)
            return exact_ks(self, i)

        with monkeypatch.context() as mp:
            mp.setattr(_Candidates, "exact_ks", counting)
            fit = select_xmin(s)
        assert len(calls) <= 80, f"seed {seed}"
        assert fit == select_xmin_exhaustive(s)


def test_fit_recovery_within_3_stderr():
    # 3-sigma coverage across exponents and seeds
    ok = total = 0
    for alpha in (1.8, 2.0, 2.5, 3.0):
        for seed in range(10):
            s = pl_sample(PowerLawModel(alpha=alpha, xmin=1.0), 30_000,
                          seed=1000 * seed + int(alpha * 10))
            fit = select_xmin(s)
            total += 1
            ok += abs(fit.alpha - alpha) <= 3 * fit.stderr
    assert ok / total >= 0.95


# -- proportion and report ---------------------------------------------------------

def test_power_law_proportion_exact():
    s = make_sample(np.arange(1.0, 1001.0))
    fit = select_xmin(s)
    p = power_law_proportion(s, fit)
    assert p == fit.n_tail / 1000
    assert p * len(s) == fit.n_tail  # integer identity


def test_power_law_proportion_half():
    vals = np.concatenate([np.linspace(1, 2, 500), np.linspace(10, 20, 500)])
    s = make_sample(vals)
    fit = fit_at(s, 10.0)
    assert power_law_proportion(s, fit) == 0.5


def test_fit_report_fields():
    s = pl_sample(PowerLawModel(alpha=2.5, xmin=1.0), 1000, seed=1)
    fit = select_xmin(s)
    rep = fit_report(fit, n=len(s), seed=1)
    assert set(rep) == {"alpha", "xmin", "n_tail", "ks", "stderr", "n", "kind", "seed"}
    assert rep["n"] == 1000 and rep["kind"] == "continuous"


def test_fit_argument_validation():
    s = pl_sample(PowerLawModel(alpha=2.0, xmin=1.0), 100, seed=3)
    with pytest.raises(DomainError, match="min_tail must be >= 2, got 1"):
        select_xmin(s, min_tail=1)
    with pytest.raises(SampleTooSmall, match="need >= 101 observations, got 100"):
        select_xmin(s, min_tail=101)
    for xmin in (0.0, -2.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="xmin must be finite and > 0"):
            fit_at(s, xmin)
