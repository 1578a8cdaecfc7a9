"""Order-statistics tail-index estimators and the cross-method comparison.

These complement the likelihood/KS fit as a robustness battery: Hill, a
bias-corrected (adjusted) Hill, and the moments estimator, each reading the
extreme-value index gamma = 1/(alpha - 1) off the top-k log-spacings, with a
double-bootstrap rule to pick k automatically.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTail, DomainError, InsufficientGrid, SampleTooSmall
from .fit import select_xmin
from .report import csv_table
from .rng import make_rng
from .sample import Sample, distinct_runs

__all__ = [
    "TailIndexEstimate",
    "hill",
    "moments",
    "adjusted_hill",
    "double_bootstrap_k",
    "estimator_comparison",
    "k_exceeds_tail",
    "comparison_csv",
]

HILL = "hill"
ADJUSTED_HILL = "adjusted_hill"
MOMENTS = "moments"
CNS = "cns"


@dataclass(frozen=True)
class TailIndexEstimate:
    """One estimator's view of the tail.

    `gamma` is the extreme-value index; `alpha = 1 + 1/gamma` is reported
    only where gamma > 0 (a power-law regime). `k_used` is the number of
    order statistics (or the tail size for the likelihood/KS method), and
    `threshold` the corresponding data threshold.
    """

    method: str
    gamma: float
    alpha: float | None
    k_used: int
    threshold: float
    stderr: float | None = None


def _top_log_spacings(s: Sample, k: int):
    x = s.values
    n = x.size
    if not 2 <= k < n:
        raise DomainError(f"need 2 <= k < n, got k={k}, n={n}")
    thresh = x[n - k - 1]  # (k+1)-th largest
    if x[-1] == thresh:
        raise DegenerateTail("top k+1 order statistics are all equal")
    return np.log(x[n - k:] / thresh), float(thresh)


def hill(s: Sample, k: int) -> TailIndexEstimate:
    """Hill estimator: mean log-spacing of the top k order statistics."""
    logs, thresh = _top_log_spacings(s, k)
    gamma = float(logs.mean())
    return TailIndexEstimate(
        method=HILL, gamma=gamma, alpha=1.0 + 1.0 / gamma, k_used=k,
        threshold=thresh, stderr=gamma / math.sqrt(k))


def moments(s: Sample, k: int) -> TailIndexEstimate:
    """Moments (de Haan) estimator, valid beyond the pure power-law regime.

    gamma = M1 + 1 - 0.5 / (1 - M1^2/M2) with Mr the r-th moment of the top-k
    log-spacings. alpha is reported only when gamma > 0.
    """
    logs, thresh = _top_log_spacings(s, k)
    m1 = float(logs.mean())
    m2 = float((logs**2).mean())
    if m2 == m1 * m1:
        raise DegenerateTail("zero variance of log-spacings")
    gamma = m1 + 1.0 - 0.5 / (1.0 - m1 * m1 / m2)
    alpha = 1.0 + 1.0 / gamma if gamma > 0 else None
    return TailIndexEstimate(method=MOMENTS, gamma=gamma, alpha=alpha,
                             k_used=k, threshold=thresh)


_ADJ_GRID_POINTS = 20
_ADJ_MIN_POINTS = 5


def adjusted_hill(s: Sample, k: int) -> TailIndexEstimate:
    """Hill with a second-order bias correction.

    Hill estimates over a grid of k' <= k are regressed on k'/n, the bias
    regressor (k'/n)^(-rho) for second-order parameter rho = -1, and
    extrapolated to k' -> 0; the regression intercept is the corrected gamma.
    """
    n = len(s)
    if k < 2:  # the grid below runs up from 2, so it is non-decreasing
        raise DomainError(f"need 2 <= k < n, got k={k}, n={n}")
    grid = distinct_runs(np.linspace(max(2, k // 5), k, _ADJ_GRID_POINTS).astype(int))[0]
    grid = grid[grid < n]
    if grid.size < _ADJ_MIN_POINTS:
        raise InsufficientGrid(f"only {grid.size} grid points below k={k}")
    gammas = np.array([hill(s, int(kk)).gamma for kk in grid])
    u = grid / n
    slope, intercept = np.polyfit(u, gammas, 1)
    resid = gammas - (slope * u + intercept)
    stderr = float(np.sqrt((resid**2).mean() / grid.size))
    gamma = float(intercept)
    alpha = 1.0 + 1.0 / gamma if gamma > 0 else None
    return TailIndexEstimate(method=ADJUSTED_HILL, gamma=gamma, alpha=alpha,
                             k_used=k, threshold=hill(s, k).threshold,
                             stderr=stderr)


# -- double bootstrap ---------------------------------------------------------

_DBS_REPLICATES = 200
_DBS_K_FRACTION = 0.9  # ignore k above this fraction of the resample size


def _amse_curve(logx: np.ndarray, nb: int, hi: int, rng, replicates: int) -> np.ndarray:
    """Mean over bootstrap resamples of (M2 - 2*M1^2)^2 for k = 1..hi.

    `logx` is log(x) of the ascending sample. A resample of size nb is a
    sorted index draw; its top hi + 1 logs, gathered in descending order,
    are all that the curve up to k = hi reads. The arithmetic runs in place
    in four buffers, in the same operation order as the per-replicate
    formula, so every entry has the same bits as a fresh evaluation.
    """
    n = logx.size
    # the bounded draw gives the same integers as int64, and int32 sorts faster
    dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    k = np.arange(1, hi + 1, dtype=float)
    acc = np.zeros(hi)
    c1, c2, m1, t = (np.empty(hi) for _ in range(4))
    for _ in range(replicates):
        idx = rng.integers(0, n, nb, dtype=dtype)  # the draw of rng.choice(x, nb)
        idx.sort()
        logs = logx[idx[::-1][:hi + 1]]  # descending
        head, tail = logs[:-1], logs[1:]
        np.cumsum(head, out=c1)
        np.square(head, out=c2)
        np.cumsum(c2, out=c2)
        np.divide(c1, k, out=m1)
        m1 -= tail                       # M1 = c1/k - log x_(k+1)
        np.multiply(2.0, tail, out=t)
        t /= k
        t *= c1
        c2 /= k
        c2 -= t
        np.square(tail, out=t)
        c2 += t                          # M2 = c2/k - 2 log x_(k+1) c1/k + log^2 x_(k+1)
        np.square(m1, out=m1)
        m1 *= 2.0
        c2 -= m1
        np.square(c2, out=c2)
        acc += c2
    return acc / replicates


def double_bootstrap_k(s: Sample, seed: int) -> int:
    """Data-driven order-statistics count k* for the Hill-type estimators.

    Two bootstrap sample sizes n1 = floor(n^0.95) and n2 = floor(n1^2/n);
    for each, k minimizing the bootstrap mean of (M2 - 2*M1^2)^2 over
    2 <= k <= 0.9 * nb; the final k* = (k1^2/k2) * correction, clamped to
    [2, n-1]. Deterministic for a fixed seed.

    The log of the sample is taken once per call, and each resample gathers
    from it; as log is monotone, gathering at sorted indices gives the logs
    of the sorted resample. The log is taken on a reversed (negative-stride)
    view, as it was when each resample took its own log: numpy evaluates a
    strided log and a contiguous one with different kernels, which differ
    in the last bit on a few values in a thousand, and the strided one
    keeps the AMSE curve, and so k*, bit for bit what they were.
    """
    x = s.values
    n = x.size
    if n < 500:
        raise SampleTooSmall(f"double bootstrap needs n >= 500, got {n}")
    rng = make_rng(seed)
    logx = np.log(x[::-1])[::-1]
    n1 = int(n**0.95)
    n2 = int(n1 * n1 / n)
    ks = []
    for nb in (n1, n2):
        hi = max(2, int(_DBS_K_FRACTION * nb))
        amse = _amse_curve(logx, nb, hi, rng, _DBS_REPLICATES)
        k_star = int(np.nanargmin(amse[1:])) + 2  # k index offset: amse[0] is k=1
        ks.append(k_star)
    k1, k2 = ks
    # finite-sample correction from the two minimizers (ratio form)
    rho = (1.0 - 2.0 * (math.log(k1) - math.log(n1)) / math.log(k1)) ** (
        math.log(k1) / math.log(n1) - 1.0)
    k_star = int(round(k1 * k1 / k2 * rho))
    return min(max(k_star, 2), n - 1)


def estimator_comparison(s: Sample, seed: int) -> list[TailIndexEstimate]:
    """All four tail estimates on one sample: likelihood/KS fit plus the
    three order-statistics estimators at the double-bootstrap k*."""
    if len(s) < 500:
        raise SampleTooSmall(f"comparison needs n >= 500, got {len(s)}")
    fit = select_xmin(s)
    cns = TailIndexEstimate(
        method=CNS, gamma=1.0 / (fit.alpha - 1.0), alpha=fit.alpha,
        k_used=fit.n_tail, threshold=fit.xmin, stderr=fit.stderr)
    k_star = double_bootstrap_k(s, seed)
    return [cns, hill(s, k_star), adjusted_hill(s, k_star), moments(s, k_star)]


def k_exceeds_tail(estimates: list[TailIndexEstimate]) -> list[bool | None]:
    """Per estimate, whether its k exceeds the cns row's tail size n_tail,
    that is, whether it takes in values below the fitted xmin; None on the
    cns row and where there is no cns row. On an exactly-Pareto tail the
    double-bootstrap AMSE curve is flat, and k* can run past the knee into
    the body; the flag says so rather than capping k.
    """
    n_tail = next((e.k_used for e in estimates if e.method == CNS), None)
    return [None if e.method == CNS or n_tail is None else e.k_used > n_tail
            for e in estimates]


def comparison_csv(estimates: list[TailIndexEstimate]) -> str:
    """Comparison table: method, alpha, gamma, threshold (k or xmin), stderr,
    and k_exceeds_tail (see `k_exceeds_tail`; empty where that is None)."""
    return csv_table(
        ("method", "alpha", "gamma", "threshold", "stderr", "k_exceeds_tail"),
        ((e.method, "" if e.alpha is None else e.alpha, e.gamma,
          e.threshold if e.method == CNS else e.k_used, "" if e.stderr is None else e.stderr,
          "" if exceeds is None else str(exceeds).lower())
         for e, exceeds in zip(estimates, k_exceeds_tail(estimates))))
