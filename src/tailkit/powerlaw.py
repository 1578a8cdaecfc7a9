"""Power-law distribution primitives.

Conventions: `alpha` is always the DENSITY exponent (p(x) ~ x^-alpha). The
complementary-CDF exponent is exactly one less; `convert_exponent` moves
between the two. Continuous tails use the closed Pareto form, discrete tails
use Hurwitz-zeta normalization.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptySample
from .rng import make_rng
from .sample import CONTINUOUS, DISCRETE, Sample, distinct_runs

__all__ = [
    "Convention",
    "PowerLawModel",
    "convert_exponent",
    "hurwitz_zeta",
    "pl_ccdf",
    "pl_cdf",
    "pl_pdf",
    "pl_ppf",
    "pl_sample",
    "ks_distance",
    "ks_gap",
]


class Convention(enum.Enum):
    """Which exponent a number refers to: density p(x) or CCDF P(X >= x)."""

    DENSITY = "density"
    CCDF = "ccdf"


def convert_exponent(alpha: float, src: Convention, dst: Convention) -> float:
    """Convert an exponent between conventions (density = ccdf + 1, exact)."""
    if src == dst:
        return alpha
    if src == Convention.DENSITY and dst == Convention.CCDF:
        return alpha - 1.0
    return alpha + 1.0


@dataclass(frozen=True)
class PowerLawModel:
    """Power law with density exponent `alpha` above threshold `xmin`:
    1 < alpha < inf and 0 < xmin < inf (an integer when discrete)."""

    alpha: float
    xmin: float
    kind: str = CONTINUOUS

    def __post_init__(self):
        if not 1.0 < self.alpha < np.inf:
            raise DomainError(f"alpha must be > 1 and finite, got {self.alpha}")
        if not 0.0 < self.xmin < np.inf:
            raise DomainError(f"xmin must be > 0 and finite, got {self.xmin}")
        if self.kind not in (CONTINUOUS, DISCRETE):
            raise DomainError(f"unknown kind: {self.kind!r}")
        if self.kind == DISCRETE and not float(self.xmin).is_integer():  # so xmin >= 1
            raise DomainError(f"discrete xmin must be an integer >= 1, got {self.xmin}")


# -- Hurwitz zeta ----------------------------------------------------------

_EM_N = 20  # direct-summation terms before the Euler-Maclaurin tail

def hurwitz_zeta(s, q):
    """Hurwitz zeta sum_{k>=0} (q+k)^-s for s > 1, q > 0.

    Direct summation of the first 20 terms plus an Euler-Maclaurin tail
    correction; relative error below 1e-10 on the ranges used here
    (s in (1, ~10], q >= 1). Broadcasts over `s` and `q`.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s <= 1.0):
        raise DomainError(f"hurwitz_zeta needs s > 1, got {s.min()}")
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0):
        raise DomainError("hurwitz_zeta needs q > 0")
    k = np.arange(_EM_N, dtype=float)
    head = ((q[..., None] + k) ** -s[..., None]).sum(axis=-1)
    a = q + _EM_N  # tail starts here
    tail = a ** (1.0 - s) / (s - 1.0) + 0.5 * a**-s
    # Bernoulli corrections B2/2! = 1/12, B4/4! = -1/720, B6/6! = 1/30240
    tail += s / 12.0 * a ** (-s - 1.0)
    tail -= s * (s + 1) * (s + 2) / 720.0 * a ** (-s - 3.0)
    tail += s * (s + 1) * (s + 2) * (s + 3) * (s + 4) / 30240.0 * a ** (-s - 5.0)
    out = head + tail
    return float(out) if out.ndim == 0 else out


# -- distribution functions -------------------------------------------------

def _check_x(model: PowerLawModel, x):
    x = np.asarray(x, dtype=float)
    if np.any(x < model.xmin):
        raise DomainError(f"x below xmin={model.xmin}")
    return x


def pl_ccdf(model: PowerLawModel, x):
    """P(X >= x). Equals 1 at x = xmin; strictly decreasing beyond it."""
    x = _check_x(model, x)
    if model.kind == CONTINUOUS:
        out = (x / model.xmin) ** (1.0 - model.alpha)
    else:
        out = hurwitz_zeta(model.alpha, np.ceil(x)) / hurwitz_zeta(model.alpha, model.xmin)
    return float(out) if np.ndim(out) == 0 else out

def pl_cdf(model: PowerLawModel, x):
    """P(X <= x); for the discrete kind this is 1 - P(X >= floor(x)+1)."""
    x = _check_x(model, x)
    return 1.0 - pl_ccdf(model, x if model.kind == CONTINUOUS else np.floor(x) + 1.0)

def pl_pdf(model: PowerLawModel, x):
    """Density (continuous) or probability mass (discrete) at x."""
    x = _check_x(model, x)
    a, xm = model.alpha, model.xmin
    if model.kind == CONTINUOUS:
        out = (a - 1.0) / xm * (x / xm) ** -a
    else:
        out = x**-a / hurwitz_zeta(a, xm)
    return float(out) if np.ndim(out) == 0 else out


def pl_ppf(model: PowerLawModel, u):
    """Quantile function: smallest x with CDF(x) >= u, u in [0, 1).

    Continuous closed form: xmin * (1-u)^(-1/(alpha-1)). Discrete values
    invert the zeta CCDF by one doubling-then-halving search over all draws
    at once. A quantile past the float range is inf.
    """
    u = np.asarray(u, dtype=float)
    if np.any((u < 0) | (u >= 1)):
        raise DomainError("u must lie in [0, 1)")
    if model.kind == CONTINUOUS:
        out = model.xmin * (1.0 - u) ** (-1.0 / (model.alpha - 1.0))
    else:
        out = _discrete_ppf(model, u)
    return float(out) if u.ndim == 0 else out


def _discrete_ppf(model: PowerLawModel, u):
    """The largest integer y >= xmin with P(X >= y) > 1-u, for each u. Each y
    starts at xmin with step 1 and moves to y+step whenever P(X >= y+step) >
    1-u; the step doubles until that first fails, then halves until below 1.
    Every y+step is whole, so P(X >= y+step) is `pl_ccdf`'s ratio without
    its ceil, against a denominator computed once."""
    target = 1.0 - u.ravel()
    z0 = hurwitz_zeta(model.alpha, model.xmin)
    y = np.full(target.size, model.xmin, dtype=float)
    step = np.ones(target.size)
    doubling = np.ones(target.size, dtype=bool)
    i = np.arange(target.size)  # draws still searching
    with np.errstate(over="ignore"):
        while i.size:
            nxt = y[i] + step[i]
            over = np.isinf(nxt)  # past the float range: the draw is inf
            up = over | (hurwitz_zeta(model.alpha, nxt) / z0 > target[i])
            y[i[up]] = nxt[up]
            doubling[i] &= up
            step[i] *= np.where(doubling[i], 2.0, 0.5)
            i = i[(step[i] >= 1.0) & ~over]
    return y.reshape(u.shape)


def pl_sample(model: PowerLawModel, n: int, seed: int) -> Sample:
    """Draw n values by inverse-CDF sampling; deterministic for a fixed seed.

    Raises DomainError when any draw of either kind overflows float64, as
    for alpha close to 1 (the quantile grows like (1-u)^(-1/(alpha-1))).
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    rng = make_rng(seed)
    u = rng.random(n)
    with np.errstate(over="ignore"):
        x = pl_ppf(model, u)
    n_over = n - np.count_nonzero(np.isfinite(x))
    if n_over:
        raise DomainError(f"{n_over} of {n} draws are not finite: they overflow float64 "
                          f"for the power law with alpha={model.alpha}, xmin={model.xmin}")
    return Sample(values=np.sort(x), kind=model.kind)


# -- Kolmogorov-Smirnov distance -------------------------------------------

def ks_gap(F_hi, e_hi, e_lo, F_lo=None):
    """Pointwise KS gap at distinct tail points; its maximum is the KS distance.

    e_hi and e_lo are the empirical CDF at each point and just below it,
    F_hi the model CDF at the point and F_lo the model CDF just below it
    (F(v-1) on integer support). Leaving F_lo out means it equals F_hi, the
    continuous case: since e_lo < e_hi the gap is then max(F - e_lo, e_hi - F),
    which equals max(|F - e_hi|, |F - e_lo|) bit for bit.
    """
    if F_lo is None:
        return np.maximum(F_hi - e_lo, e_hi - F_hi)
    return np.maximum(np.abs(F_hi - e_hi), np.abs(F_lo - e_lo))


def ks_distance(tail, model: PowerLawModel) -> float:
    """Sup |empirical CDF - model CDF| over the tail's support.

    Evaluated at both step edges of every distinct data point: the upper
    edge against the model CDF at the point, the lower edge against the
    model CDF just below it (for integer support that is F(x-1); for the
    continuous kind the two coincide). This realizes the exact supremum of
    the step-function gap over the whole half-line.
    """
    x = tail.values if isinstance(tail, Sample) else np.sort(np.asarray(tail, dtype=float))
    if x.size == 0:
        raise EmptySample("KS distance needs a nonempty tail")
    if x[0] < model.xmin:
        raise DomainError("tail values must be >= model.xmin")
    xs, cum_hi = distinct_runs(x)
    n = x.size
    F_hi = pl_cdf(model, xs)
    # P(X <= v-1) on integer support
    F_lo = None if model.kind == CONTINUOUS else 1.0 - pl_ccdf(model, xs)
    gap = ks_gap(F_hi, cum_hi / n, np.concatenate(([0], cum_hi[:-1])) / n, F_lo)
    return float(gap.max())
