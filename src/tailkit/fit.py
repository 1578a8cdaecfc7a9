"""Maximum-likelihood tail fitting with KS-based threshold selection.

The fitting recipe: for every candidate threshold (a distinct sample value
with enough observations above it) estimate alpha by maximum likelihood,
score the fit by the KS distance between the empirical tail and the fitted
model, and keep the candidate the KS rule picks (the minimum, or the
threshold `_KS_ALLOWANCE` prefers among near-minimal ones). A
semiparametric bootstrap turns the observed KS distance into a
goodness-of-fit p-value.

The scan sorts once and keeps prefix sums of log-values, so the continuous
alphas of all candidates are one vectorized closed form (the discrete kind
runs one golden-section MLE on all candidates in lockstep). A candidate's
KS distance is the maximum of the pointwise gap `powerlaw.ks_gap` over its
distinct tail, and that full pass is made only for candidates that can
still matter:

1. Coarse bounds: the gap maximized over every s-th distinct point of a
   tail (starting at its threshold) cannot exceed the maximum over all of
   them. Each candidate starts at s = ceil(L/16) for its L distinct tail
   points, so about 16 points each; the bounds of many candidates are
   computed at once, in chunks of at most max(N/8, 2^14) points for N
   distinct values. A refinement divides a candidate's stride by 4 and
   keeps the larger of its old and new bound; at stride 1 it makes the
   exact pass instead.
2. Exact minimum: take the exact distance of the open candidate with the
   smallest bound, lower `ks_min` to the smallest exact distance so far,
   and refine every other open candidate whose bound is still at most
   `ks_min`. A candidate stays open while it has no exact distance and its
   bound is at most `ks_min`. When none is open, every distance not yet
   computed exceeds `ks_min`, so it is the global minimum.
3. Selection: the rule walks the candidates in its order. A candidate whose
   bound lies inside its band `ks_min + allowance/sqrt(n_tail)` is refined
   until the bound leaves the band or the distance is exact; only an exact
   distance inside the band wins.

A bound comes from the same formulas as the exact pass, but the gathered
evaluation may differ from the contiguous one in the last bit, so both
comparisons carry a 1e-12 margin. No candidate the exhaustive scan would
keep is pruned, and the chosen fit and its KS value are the exhaustive
scan's, bit for bit.
"""

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DegenerateTail, DomainError, KindMismatch, SampleTooSmall
from .powerlaw import PowerLawModel, hurwitz_zeta, ks_distance, ks_gap, pl_ppf
from .rng import make_rng
from .sample import CONTINUOUS, DISCRETE, Sample, distinct_runs

__all__ = [
    "TailFit",
    "GofResult",
    "mle_alpha",
    "select_xmin",
    "fit_at",
    "gof_pvalue",
    "power_law_proportion",
    "fit_report",
]


@dataclass(frozen=True)
class TailFit:
    """Fitted tail: density exponent, threshold, and fit diagnostics. `min_tail`
    is the scan's (`select_xmin`), or None for a fixed threshold (`fit_at`)."""

    alpha: float
    xmin: float
    n_tail: int
    ks: float
    stderr: float
    loglik: float
    kind: str = CONTINUOUS
    min_tail: int | None = None

    def model(self) -> PowerLawModel:
        return PowerLawModel(alpha=self.alpha, xmin=self.xmin, kind=self.kind)


@dataclass(frozen=True)
class GofResult:
    """Bootstrap goodness-of-fit: p_value = #(replicate KS >= observed)/n_boot.

    n_failed replicates could not be refit (too few or only degenerate
    threshold candidates); each counts as a KS at least the observed one.
    """

    p_value: float
    n_boot: int
    observed_ks: float
    seed: int
    n_failed: int

    @property
    def failed_note(self) -> str:
        """The line `fit` and `pipeline` print on stderr when n_failed > 0."""
        return (f"{self.n_failed} of {self.n_boot} bootstrap replicates failed; "
                "each counts as a KS at least the observed one")


# -- maximum likelihood ------------------------------------------------------

_ALPHA_LO, _ALPHA_HI, _ALPHA_TOL = 1.01, 6.0, 1e-6
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _mle_discrete(sum_logx, n, xmin) -> np.ndarray:
    """Per element, the alpha in [1.01, 6] minimizing alpha*sum_logx +
    n*log zeta(alpha, xmin): one golden-section search run on all elements
    in lockstep, with one hurwitz_zeta call per step over the elements whose
    bracket is still open. The arithmetic is elementwise, so an element's
    result does not depend on the batch it is in."""
    sum_logx, n, xmin = np.atleast_1d(sum_logx, n, xmin)

    def negll(a, i):
        return a * sum_logx[i] + n[i] * np.log(hurwitz_zeta(a, xmin[i]))

    lo, hi = np.full(sum_logx.shape, _ALPHA_LO), np.full(sum_logx.shape, _ALPHA_HI)
    c, d = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
    i = np.arange(lo.size)  # every bracket starts wider than the tolerance
    fc, fd = np.split(negll(np.concatenate((c, d)), np.concatenate((i, i))), 2)
    while i.size:
        left = fc[i] < fd[i]
        il, ir = i[left], i[~left]
        hi[il], d[il], fd[il] = d[il], c[il], fc[il]
        lo[ir], c[ir], fc[ir] = c[ir], d[ir], fd[ir]
        c[il] = hi[il] - _INVPHI * (hi[il] - lo[il])
        d[ir] = lo[ir] + _INVPHI * (hi[ir] - lo[ir])
        f = negll(np.where(left, c[i], d[i]), i)
        fc[il], fd[ir] = f[left], f[~left]
        i = i[hi[i] - lo[i] > _ALPHA_TOL]
    return 0.5 * (lo + hi)


def mle_alpha(tail: Sample, xmin: float):
    """(alpha, stderr, loglik) of the MLE of `tail.kind` above xmin, with
    stderr = (alpha-1)/sqrt(n).

    Continuous (xmin > 0): the closed form alpha = 1 + n / sum(log(x/xmin)).
    Discrete (integer xmin >= 1): golden-section search of alpha in [1.01, 6]
    on the Hurwitz-zeta likelihood. Raises SampleTooSmall below 2 values,
    DomainError for xmin outside its domain or above a value, and
    DegenerateTail for a tail with no spread or a discrete optimum at an end
    of the search range.
    """
    x = tail.values
    n = x.size
    if n < 2:
        raise SampleTooSmall("tail needs at least 2 observations")
    if tail.kind == CONTINUOUS and not xmin > 0:
        raise DomainError(f"xmin must be > 0, got {xmin}")
    if tail.kind == DISCRETE and not (xmin >= 1 and float(xmin).is_integer()):
        raise DomainError(f"discrete xmin must be an integer >= 1, got {xmin}")
    if x[0] < xmin:
        raise DomainError("tail values must be >= xmin")
    if tail.kind == CONTINUOUS:
        sum_logs = float(np.log(x / xmin).sum())
        if sum_logs <= 0.0:
            raise DegenerateTail("sum(log(x/xmin)) is zero; all mass at xmin")
        alpha = 1.0 + n / sum_logs
        loglik = n * math.log(alpha - 1.0) - n * math.log(xmin) - alpha * sum_logs
    else:
        if x[-1] == xmin:
            raise DegenerateTail("discrete tail has no spread above xmin")
        sum_logx = float(np.log(x).sum())
        alpha = float(_mle_discrete(sum_logx, n, xmin)[0])
        if not _ALPHA_LO + _ALPHA_TOL < alpha < _ALPHA_HI - _ALPHA_TOL:
            raise DegenerateTail(f"discrete MLE alpha = {alpha:.8g} is at the edge "
                                 f"of its search range [{_ALPHA_LO}, {_ALPHA_HI}]")
        loglik = -(alpha * sum_logx + n * math.log(hurwitz_zeta(alpha, xmin)))
    return alpha, (alpha - 1.0) / math.sqrt(n), loglik


# -- threshold selection ------------------------------------------------------

def _distinct_stats(x: np.ndarray):
    """Distinct values with counts, cumulative counts and log-value prefix data
    of `x`, sorted ascending (as `Sample.values` is)."""
    dv, dcum = distinct_runs(x)
    dcount = np.diff(dcum, prepend=0)
    dt = np.log(dv)
    wlog = dcount * dt
    wsuffix = wlog[::-1].cumsum()[::-1]  # sum of log x over x >= dv[k]
    return dv, dcount, dcum, dt, wsuffix


# At most _CANDIDATE_CAP thresholds are scanned; past that an evenly spaced
# subset, always holding the smallest, stands in for them.
_CANDIDATE_CAP = 512
# The rule keeps, among candidates whose KS distance lies within
# _KS_ALLOWANCE[kind]/sqrt(n_tail) of the minimum, the smallest threshold
# for a continuous sample: the largest tail statistically indistinguishable
# from the best score. An integer-count sample keeps the largest: small
# counts carry mechanical finite-size curvature, so the deepest
# indistinguishable tail is the one the model is meant for.
_KS_ALLOWANCE = {CONTINUOUS: 0.2, DISCRETE: 0.35}


def _candidate_indices(dv, dcum, n, min_tail, kind):
    n_tail = n - np.concatenate(([0], dcum[:-1]))
    cand = np.flatnonzero(n_tail >= min_tail)
    cand = cand[dv[cand] < dv[-1]]  # a tail of identical values is degenerate
    if kind == DISCRETE:  # above ~1e65 zeta(alpha, xmin) underflows to 0: no likelihood
        cand = cand[hurwitz_zeta(_ALPHA_HI, dv[cand]) > 0.0]
    if cand.size > _CANDIDATE_CAP:
        sel = np.round(np.linspace(0, cand.size - 1, _CANDIDATE_CAP)).astype(int)
        cand = cand[distinct_runs(sel)[0]]
    return cand


_LB_POINTS = 16         # a coarse bound gathers about 16 points of each distinct tail
_LB_REFINE = 4          # a refinement divides a candidate's stride by 4
_LB_CHUNK_MIN = 1 << 14  # smallest chunk of gathered points, bounding loop overhead
_LB_MARGIN = 1e-12      # absorbs last-bit differences between bound and exact pass


class _Candidates:
    """Usable threshold candidates of one sample, with their MLE fits.

    Per candidate i: k0[i], the index of its threshold among the distinct
    values; below[i], the observations under it; m[i], its tail size;
    alpha[i]; and, for the discrete kind, z0[i] = zeta(alpha[i], xmin).
    Candidates are in ascending threshold order.
    """

    def __init__(self, s: Sample, min_tail: int):
        n = len(s)
        self.kind = s.kind
        self.dv, self.dcount, self.dcum, self.dt, wsuffix = _distinct_stats(s.values)
        cand = _candidate_indices(self.dv, self.dcum, n, min_tail, self.kind)
        if cand.size == 0:
            raise SampleTooSmall("no usable threshold candidates (tail too homogeneous)")
        below = np.concatenate(([0], self.dcum[:-1]))[cand]
        m = n - below
        sum_logs = wsuffix[cand] - m * self.dt[cand]
        keep = sum_logs > 0.0
        if not keep.any():
            raise DegenerateTail("every candidate tail was degenerate")
        self.k0, self.below, self.m = cand[keep], below[keep], m[keep]
        if self.kind == CONTINUOUS:
            self.alpha = 1.0 + self.m / sum_logs[keep]
            self.z0 = None
        else:
            self.alpha = _mle_discrete(wsuffix[self.k0], self.m, self.dv[self.k0])
            self.z0 = hurwitz_zeta(self.alpha, self.dv[self.k0])

    def gaps(self, pts, i):
        """KS gaps of candidate(s) i at distinct indices pts.

        Either i is one candidate and pts a slice of its tail, or i and pts
        are arrays that broadcast together, pairing each point with its
        candidate: `bounds` passes a (rows, 1) column of candidates and a
        (rows, width) array of their points.
        """
        k0, below, m, alpha = self.k0[i], self.below[i], self.m[i], self.alpha[i]
        cle = self.dcum[pts] - below
        e_hi = cle / m
        e_lo = (cle - self.dcount[pts]) / m
        if self.kind == CONTINUOUS:
            F = 1.0 - np.exp((1.0 - alpha) * (self.dt[pts] - self.dt[k0]))
            return ks_gap(F, e_hi, e_lo)
        z0 = self.z0[i]
        F_hi = 1.0 - hurwitz_zeta(alpha, self.dv[pts] + 1.0) / z0
        # lower step edge of an integer support sits at F(v-1) = 1 - P(X >= v)
        F_lo = 1.0 - hurwitz_zeta(alpha, self.dv[pts]) / z0
        return ks_gap(F_hi, e_hi, e_lo, F_lo)

    def exact_ks(self, i: int) -> float:
        """KS distance of candidate i: the gap maximized over its whole tail."""
        return float(self.gaps(slice(self.k0[i], None), i).max())

    def bounds(self, idx: np.ndarray, stride: np.ndarray) -> np.ndarray:
        """Per candidate idx[j], the gap maximum over its tail points k0,
        k0 + stride[j], k0 + 2 stride[j], ...: a lower bound on its KS distance.

        Candidates are taken in ascending order of point count, in chunks of
        rows padded to the chunk's longest row by repeating each row's last
        point (which leaves its maximum unchanged). A chunk holds at most
        max(N/8, 2^14) points for N distinct values, or one candidate's.
        """
        n_dist = self.dv.size
        npts = (n_dist - self.k0[idx] + stride - 1) // stride
        order = np.argsort(npts, kind="stable")
        sizes = npts[order]
        budget = max(n_dist // 8, _LB_CHUNK_MIN)
        lb = np.empty(idx.size)
        lo = 0
        while lo < idx.size:
            # rows lo..hi-1 fill hi - lo rows of sizes[hi - 1] points each
            fill = np.arange(1, idx.size - lo + 1) * sizes[lo:]
            hi = lo + max(1, int(np.searchsorted(fill, budget, side="right")))
            rows = order[lo:hi, None]
            step = np.minimum(np.arange(sizes[hi - 1]), npts[rows] - 1)
            lb[rows[:, 0]] = self.gaps(self.k0[idx[rows]] + stride[rows] * step,
                                       idx[rows]).max(axis=1)
            lo = hi
        return lb


def check_min_tail(min_tail: int, n: int | None = None) -> None:
    """Raise DomainError unless min_tail >= 2, and SampleTooSmall when a
    sample of n observations holds fewer than min_tail."""
    if min_tail < 2:
        raise DomainError(f"min_tail must be >= 2, got {min_tail}")
    if n is not None and n < min_tail:
        raise SampleTooSmall(f"need >= {min_tail} observations, got {n}")


def select_xmin(s: Sample, min_tail: int = 50) -> TailFit:
    """Pick the threshold whose MLE fit minimizes the KS distance.

    The fit uses the model of `s.kind`: the continuous power law, or the
    discrete (Hurwitz-zeta) one for integer counts. Candidates are distinct
    sample values keeping at least `min_tail` (>= 2) observations, at most
    512 of them (`_CANDIDATE_CAP`). Among candidates within
    `allowance/sqrt(n_tail)` of the minimal distance, the continuous rule
    keeps the smallest threshold (allowance 0.2) and the discrete rule the
    largest (0.35; see `_KS_ALLOWANCE`); exact ties break the same way.
    `fit_at` fits above a fixed threshold instead.

    The scan runs in three phases (see the module docstring): a coarse lower
    bound on every candidate's KS distance from about 16 points of its
    distinct tail; exact distances taken in ascending bound order while the
    bounds of the other open candidates are refined (stride / 4, exact at
    stride 1) until no bound can beat the best (`ks_min`); and the rule's
    walk, which refines a candidate only while its bound lies inside its band
    `ks_min + allowance/sqrt(n_tail)` and lets only an exact distance win.
    Since a bound never exceeds its candidate's distance (up to a 1e-12
    margin), the result equals that of computing every candidate's distance,
    bit for bit.
    """
    x = s.values
    n = x.size
    check_min_tail(min_tail, n)
    c = _Candidates(s, min_tail)
    stride = -(-(c.dv.size - c.k0) // _LB_POINTS)
    lb = c.bounds(np.arange(c.k0.size), stride)
    ks = np.full(c.k0.size, math.nan)  # exact distances computed so far

    def refine(idx):
        # stride / 4 for candidates idx; one that reaches 1 gets its exact pass
        stride[idx] = np.maximum(stride[idx] // _LB_REFINE, 1)
        for i in idx[stride[idx] == 1]:
            ks[i] = c.exact_ks(i)
        idx = idx[stride[idx] > 1]
        # the finer grid need not hold the coarser one's points; both bounds hold
        lb[idx] = np.maximum(lb[idx], c.bounds(idx, stride[idx]))

    contenders = np.arange(c.k0.size)
    while contenders.size:
        j = contenders[np.argmin(lb[contenders])]
        ks[j] = c.exact_ks(j)
        refine(contenders[(contenders != j) & (lb[contenders] <= np.nanmin(ks) + _LB_MARGIN)])
        ks_min = float(np.nanmin(ks))  # a refinement to stride 1 may lower it
        contenders = contenders[np.isnan(ks[contenders]) & (lb[contenders] <= ks_min + _LB_MARGIN)]

    band = ks_min + _KS_ALLOWANCE[s.kind] / np.sqrt(c.m)
    # bounds only rise, so a candidate left out here never enters its band
    walk = np.flatnonzero((lb <= band + _LB_MARGIN) | (ks <= band))
    for i in walk if s.kind == CONTINUOUS else walk[::-1]:
        while np.isnan(ks[i]) and lb[i] <= band[i] + _LB_MARGIN:
            refine(np.array([i]))
        if ks[i] <= band[i]:  # False while ks[i] is unknown (nan)
            break
    m = int(c.m[i])
    xmin = float(c.dv[c.k0[i]])
    alpha, stderr, loglik = mle_alpha(Sample(values=x[n - m:], kind=s.kind), xmin)
    return TailFit(alpha=alpha, xmin=xmin, n_tail=m, ks=float(ks[i]),
                   stderr=stderr, loglik=loglik, kind=s.kind, min_tail=min_tail)


def fit_at(s: Sample, xmin: float) -> TailFit:
    """Fit the model of `s.kind` above a fixed threshold xmin (finite, > 0)."""
    if not 0 < xmin < math.inf:
        raise DomainError(f"xmin must be finite and > 0, got {xmin}")
    xmin = float(xmin)
    tail = s.values[np.searchsorted(s.values, xmin):]
    if tail.size < 2:
        raise SampleTooSmall(f"fewer than 2 observations >= {xmin}")
    tail = Sample(values=tail, kind=s.kind)
    alpha, stderr, loglik = mle_alpha(tail, xmin)
    ks = ks_distance(tail, PowerLawModel(alpha=alpha, xmin=xmin, kind=s.kind))
    return TailFit(alpha=alpha, xmin=xmin, n_tail=len(tail), ks=ks,
                   stderr=stderr, loglik=loglik, kind=s.kind)


# -- goodness of fit ----------------------------------------------------------

def _one_replicate(s: Sample, fit: TailFit, refit, seed: int, idx: int):
    rng = make_rng(seed, idx)
    n = len(s)
    body = s.values[s.values < fit.xmin]
    k = int(rng.binomial(n, fit.n_tail / n)) if body.size else n
    with np.errstate(over="ignore"):  # a draw past the float range is inf
        tail_draws = pl_ppf(fit.model(), rng.random(k)) if k else np.empty(0)
    if not np.all(np.isfinite(tail_draws)):
        return None  # pathological replicate counts against the null
    body_draws = rng.choice(body, size=n - k, replace=True) if n - k else np.empty(0)
    rep = Sample(values=np.concatenate([tail_draws, body_draws]), kind=s.kind)
    try:
        return refit(rep).ks
    except (SampleTooSmall, DegenerateTail):
        return None


def check_n_boot(n_boot: int) -> None:
    """Raise DomainError unless `n_boot` is a valid bootstrap replicate count."""
    if n_boot < 100:
        raise DomainError(f"n_boot must be >= 100, got {n_boot}")


def gof_pvalue(s: Sample, fit: TailFit, n_boot: int, seed: int, workers: int = 1) -> GofResult:
    """Semiparametric bootstrap p-value for the fitted tail.

    Each replicate draws |s| observations: with probability n_tail/n from the
    fitted power law above xmin, otherwise uniformly from the empirical body
    below xmin. Each replicate is refit the way `fit` was made: a scanned fit
    is rescanned with its `min_tail`, and a fixed fit is refit above its xmin.
    The p-value is the exact fraction with KS distance >= the observed one;
    a replicate whose draws overflow or whose refit raises counts as >= and
    is reported in `n_failed`. Replicate streams derive from (seed, index),
    so results do not depend on `workers`; min(workers, n_boot, CPU count)
    processes run them. Raises KindMismatch, before any replicate is drawn,
    when the fit's kind is not the sample's.
    """
    check_n_boot(n_boot)
    if fit.kind != s.kind:
        raise KindMismatch(f"a {fit.kind} fit cannot be tested on a {s.kind} sample")
    refit = (partial(fit_at, xmin=fit.xmin) if fit.min_tail is None
             else partial(select_xmin, min_tail=fit.min_tail))
    replicate = partial(_one_replicate, s, fit, refit, seed)
    workers = min(workers, n_boot, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # costly import, rarely needed

        with ProcessPoolExecutor(max_workers=workers) as pool:
            ks_reps = list(pool.map(replicate, range(n_boot),
                                    chunksize=max(1, n_boot // (8 * workers))))
    else:
        ks_reps = [replicate(i) for i in range(n_boot)]
    n_failed = ks_reps.count(None)
    n_ge = n_failed + sum(1 for d in ks_reps if d is not None and d >= fit.ks)
    return GofResult(p_value=n_ge / n_boot, n_boot=n_boot, observed_ks=fit.ks,
                     seed=seed, n_failed=n_failed)


def power_law_proportion(s: Sample, fit: TailFit) -> float:
    """Fraction of the sample at or above the fitted threshold (n_tail / n)."""
    return fit.n_tail / len(s)


# -- reporting ----------------------------------------------------------------

def fit_report(fit: TailFit, n: int, gof: GofResult | None = None,
               seed: int | None = None) -> dict:
    """JSON-ready fit summary with stable field names."""
    out = {
        "alpha": fit.alpha,
        "xmin": fit.xmin,
        "n_tail": fit.n_tail,
        "ks": fit.ks,
        "stderr": fit.stderr,
        "n": n,
        "kind": fit.kind,
    }
    if gof is not None:
        out["p_value"] = gof.p_value
        out["n_failed"] = gof.n_failed
    if seed is not None:
        out["seed"] = seed
    return out
