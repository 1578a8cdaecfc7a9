"""Observation containers, distinct values of sorted data and the empirical CCDF.

A Sample is an immutable, ascending-sorted array of strictly positive
observations (monthly earnings in USD, attention counts, node degrees). Its
kind is the one place the choice of continuous or discrete model is made.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptySample, KindMismatch

__all__ = ["CONTINUOUS", "DISCRETE", "Sample", "make_sample", "empirical_ccdf"]

CONTINUOUS = "continuous"
DISCRETE = "discrete"

_BLOCK = 1 << 16  # values per block of the discrete integer check


@dataclass(frozen=True)
class Sample:
    """Sorted positive observations plus the kind of support they live on.

    Tail fits follow `kind`; a discrete sample must hold integers, else
    construction raises KindMismatch. An unknown kind, a non-finite value or
    one <= 0 raises DomainError. `n_rejected` records how many raw
    inputs were dropped during construction (non-finite, zero or negative
    values).

    Construction makes exactly one n-sized float64 copy of `values`, whatever
    their dtype, and sorts that copy in place when it is not ascending; the
    copy is read-only and detached from the caller's array.
    """

    values: np.ndarray
    kind: str = CONTINUOUS
    n_rejected: int = 0

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, DISCRETE):
            raise DomainError(f"unknown sample kind: {self.kind!r}")
        # the one n-sized float64 copy for any input dtype; it detaches the
        # values from the caller, and an unsorted one is sorted in place
        v = np.array(self.values, dtype=float, order="C").ravel()
        if v.size == 0:
            raise EmptySample("sample needs at least one observation")
        if not np.all(np.isfinite(v)):
            raise DomainError("sample values must be finite")
        if not np.all(v[1:] >= v[:-1]):
            v.sort()
        if v[0] <= 0:
            raise DomainError("sample values must be > 0")
        if self.kind == DISCRETE:  # a block at a time: no n-sized float temporary
            bad = np.concatenate([b[b != np.floor(b)] for b in
                                  (v[i:i + _BLOCK] for i in range(0, v.size, _BLOCK))])
            if bad.size:
                raise KindMismatch(f"discrete sample holds {bad.size} non-integer "
                                   f"values (smallest {bad[0]:.10g})")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.values.size


def make_sample(values, kind: str = CONTINUOUS) -> Sample:
    """Build a Sample from raw values.

    Non-finite and non-positive entries are filtered out (their count is
    reported on the result as `n_rejected`); the rest are sorted ascending.
    Input of a dtype that converts to float64 exactly in sign and finiteness
    (bool, integers, float16 to float64) is filtered in that dtype, so the
    Sample's float64 copy is the only one made; other input (numeric
    strings, objects, long doubles) is converted to float64 first.

    Raises EmptySample if nothing survives the filter, and KindMismatch if a
    discrete sample keeps a non-integer value.
    """
    v = np.asarray(values)
    if not np.can_cast(v.dtype, float):
        v = np.asarray(v, dtype=float)
    keep = np.isfinite(v) & (v > 0)
    rejected = int(v.size - keep.sum())
    if rejected:
        v = v[keep]
    if v.size == 0:
        raise EmptySample(f"no positive finite values (rejected {rejected})")
    return Sample(values=v, kind=kind, n_rejected=rejected)


def distinct_runs(x: np.ndarray):
    """(dv, dcum) of ascending `x`: its distinct values, the ends of its runs
    of equal values, and dcum[k], the number of observations <= dv[k]. Unlike
    `np.unique`, this does not sort again."""
    last = np.append(x[1:] != x[:-1], True)  # x[i] ends a run
    return x[last], np.flatnonzero(last) + 1


def empirical_ccdf(s: Sample):
    """Empirical complementary CDF, one point per distinct value.

    Returns (xs, fracs) where fracs[i] = (# observations >= xs[i]) / n.
    The first fraction is always 1 and fractions are non-increasing.
    """
    xs, dcum = distinct_runs(s.values)
    return xs, (len(s) - np.concatenate(([0], dcum[:-1]))) / len(s)
