"""Independent brute-force reference implementations used by the tests.

Everything here is written for clarity over speed and deliberately avoids
the library's vectorized code paths: plain loops, direct formulas, no
prefix sums. The production code must agree with these. The exceptions
are the library's former code paths, which the faster ones must match bit
for bit: `select_xmin_exhaustive`, the threshold scan that makes a full KS
pass over every candidate (the pruned scan in `tailkit.fit` must return the
same `TailFit`; it fits each discrete candidate with the library's
`_mle_discrete` on a one-element batch, as a candidate's result does not
depend on its batch), and `simulate_copy_loop` / `simulate_ba_loop`, the
simulators that take one step per event (the pointer-jumping ones in
`tailkit.growth` must return the same `counts` from the same seed),
`amse_curve_loop`, the double bootstrap's AMSE curve as it was computed when
each resample drew values with `rng.choice`, sorted them and took their log
(`tailkit.estimators._amse_curve` takes the log once per sample on a reversed
view, so on the same strided path, and gathers it at sorted integer indices
from the same draw; truncated at its hi, its curve must have the same bits),
and `read_column_loop`, the CLI's reader that converted one line at a time
(`tailkit.cli._read_column` must return the same array or raise the same
`SchemaError`).
"""

import math

import numpy as np

from tailkit.errors import DegenerateTail, DomainError, SampleTooSmall, SchemaError
from tailkit.fit import (
    FitOptions,
    TailFit,
    _candidate_indices,
    _distinct_stats,
    _fit_at,
    _mle_discrete,
    mle_alpha_continuous,
    mle_alpha_discrete,
)
from tailkit.growth import BA, COPY, DegreeSequence, GrowthConfig
from tailkit.powerlaw import hurwitz_zeta
from tailkit.rng import make_rng
from tailkit.sample import CONTINUOUS


def ks_naive(tail, alpha, xmin, kind="continuous"):
    """Double-loop KS distance: both empirical step edges at every point.

    The upper edge compares against the model CDF at the point, the lower
    edge against the model CDF just below it (identical for the continuous
    kind; F(v-1) on integer support).
    """
    xs = sorted(set(float(v) for v in tail))
    n = len(tail)
    worst = 0.0
    if kind == "discrete":
        z0 = zeta_naive(alpha, xmin)
    for v in xs:
        n_le = sum(1 for t in tail if t <= v)
        n_lt = sum(1 for t in tail if t < v)
        if kind == "continuous":
            F_hi = 1.0 - (v / xmin) ** (1.0 - alpha)
            F_lo = F_hi
        else:
            F_hi = 1.0 - zeta_naive(alpha, math.floor(v) + 1.0) / z0
            F_lo = 1.0 - zeta_naive(alpha, math.ceil(v)) / z0
        worst = max(worst, abs(F_hi - n_le / n), abs(F_lo - n_lt / n))
    return worst


def zeta_naive(s, q, terms=3000):
    """Hurwitz zeta: direct summation plus a midpoint-rule integral tail.

    Good to roughly 1e-9 relative error for s >= 1.3; tests comparing
    against it use tolerances no tighter than that.
    """
    total = sum((q + k) ** -s for k in range(terms))
    return total + (q + terms - 0.5) ** (1.0 - s) / (s - 1.0)


def mle_naive(tail, xmin):
    """Continuous MLE straight from the formula."""
    n = len(tail)
    s = sum(math.log(t / xmin) for t in tail)
    return 1.0 + n / s


def select_xmin_naive(values, min_tail=50, ks_allowance=0.2):
    """Exhaustive threshold scan, recomputing everything from scratch.

    Returns (xmin, alpha, n_tail, ks). Mirrors the selection rule: global
    KS minimum, then the smallest threshold within allowance/sqrt(n_tail).
    """
    values = sorted(float(v) for v in values)
    results = []
    for c in sorted(set(values)):
        tail = [v for v in values if v >= c]
        m = len(tail)
        if m < min_tail:
            continue
        if all(v == tail[0] for v in tail):
            continue
        if max(tail) == c:
            continue
        alpha = mle_naive(tail, c)
        d = ks_naive(tail, alpha, c)
        results.append((c, alpha, m, d))
    if not results:
        raise ValueError("no candidates")
    dmin = min(r[3] for r in results)
    for c, alpha, m, d in results:
        if d <= dmin + ks_allowance / math.sqrt(m):
            return c, alpha, m, d
    raise AssertionError("unreachable")


def select_xmin_exhaustive(s, opts=None):
    """Threshold scan with a full KS pass over every candidate's distinct tail."""
    opts = opts or FitOptions()
    x = s.values
    n = x.size
    if n < opts.min_tail:
        raise SampleTooSmall(f"need >= {opts.min_tail} observations, got {n}")

    if opts.xmin_override is not None:
        return _fit_at(x, float(opts.xmin_override), opts.kind)

    dv, dcount, dcum, dt, wsuffix = _distinct_stats(x)
    cand = _candidate_indices(dv, dcum, n, opts.min_tail, opts.candidate_cap)
    if cand.size == 0:
        raise SampleTooSmall("no usable threshold candidates (tail too homogeneous)")

    scanned = []  # (k0, m, ks) in ascending threshold order
    for k0 in cand:
        below = dcum[k0 - 1] if k0 > 0 else 0
        m = int(n - below)
        sum_logs = float(wsuffix[k0]) - m * float(dt[k0])
        if sum_logs <= 0.0:
            continue
        if opts.kind == CONTINUOUS:
            alpha = 1.0 + m / sum_logs
            F = 1.0 - np.exp((1.0 - alpha) * (dt[k0:] - dt[k0]))
        else:
            # one-element batches: the MLE and zeta(alpha, xmin) of a
            # candidate do not depend on the batch it is fitted in
            alpha = _mle_discrete(wsuffix[k0:k0 + 1], m, dv[k0:k0 + 1])
            z0 = float(hurwitz_zeta(alpha, dv[k0:k0 + 1])[0])
            alpha = float(alpha[0])
            F = 1.0 - hurwitz_zeta(alpha, dv[k0:] + 1.0) / z0
        cle = dcum[k0:] - below
        e_hi = cle / m
        e_lo = (cle - dcount[k0:]) / m
        if opts.kind == CONTINUOUS:
            F_lo = F
        else:
            # lower step edge of an integer support sits at F(v-1) = 1 - P(X >= v)
            F_lo = 1.0 - hurwitz_zeta(alpha, dv[k0:]) / z0
        ks = max(float(np.abs(F - e_hi).max()), float(np.abs(F_lo - e_lo).max()))
        scanned.append((int(k0), m, ks))

    if not scanned:
        raise DegenerateTail("every candidate tail was degenerate")
    allowance = opts.resolved_allowance()
    ks_min = min(ks for _, _, ks in scanned)
    ordered = scanned if opts.kind == CONTINUOUS else reversed(scanned)
    k0, m, ks = next(t for t in ordered
                     if t[2] <= ks_min + allowance / math.sqrt(t[1]))
    xmin = float(dv[k0])
    if opts.kind == CONTINUOUS:
        alpha, stderr, loglik = mle_alpha_continuous(x[n - m:], xmin)
    else:
        alpha, stderr, loglik = mle_alpha_discrete(x[n - m:], xmin, exact=True)
    return TailFit(alpha=alpha, xmin=xmin, n_tail=m, ks=ks,
                   stderr=stderr, loglik=loglik, kind=opts.kind)


def ccdf_naive(values):
    """Two-pass counting CCDF: one point per distinct value."""
    out = []
    n = len(values)
    for v in sorted(set(values)):
        out.append((v, sum(1 for t in values if t >= v) / n))
    return out


def summary_naive(values):
    """Direct order-statistics summary: mean, sd (n-1), linear quantiles."""
    x = sorted(float(v) for v in values)
    n = len(x)
    mean = sum(x) / n
    sd = math.sqrt(sum((v - mean) ** 2 for v in x) / (n - 1)) if n > 1 else 0.0

    def q(p):
        h = (n - 1) * p
        lo = math.floor(h)
        hi = min(lo + 1, n - 1)
        return x[lo] + (h - lo) * (x[hi] - x[lo])

    return {"mean": mean, "sd": sd, "min": x[0], "q25": q(0.25),
            "median": q(0.5), "q75": q(0.75), "max": x[-1]}


def spearman_naive(a, b):
    """Rank with average ties, then plain Pearson on the ranks."""

    def ranks(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        r = [0.0] * len(v)
        i = 0
        while i < len(v):
            j = i
            while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
                j += 1
            avg = (i + j) / 2.0 + 1.0
            for k in range(i, j + 1):
                r[order[k]] = avg
            i = j + 1
        return r

    ra, rb = ranks(list(a)), ranks(list(b))
    n = len(ra)
    ma, mb = sum(ra) / n, sum(rb) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    va = sum((x - ma) ** 2 for x in ra)
    vb = sum((y - mb) ** 2 for y in rb)
    return cov / math.sqrt(va * vb)


def hill_naive(values, k):
    """Hill estimator from sorted order statistics, by the book."""
    x = sorted(values)
    n = len(x)
    thresh = x[n - k - 1]
    return sum(math.log(x[n - i] / thresh) for i in range(1, k + 1)) / k


def moments_naive(values, k):
    """First/second log-spacing moments and the moments-estimator gamma."""
    x = sorted(values)
    n = len(x)
    thresh = x[n - k - 1]
    logs = [math.log(x[n - i] / thresh) for i in range(1, k + 1)]
    m1 = sum(logs) / k
    m2 = sum(v * v for v in logs) / k
    gamma = m1 + 1.0 - 0.5 / (1.0 - m1 * m1 / m2)
    return m1, m2, gamma


def discrete_ppf_naive(alpha, xmin, u):
    """Smallest integer x >= xmin with CDF(x) >= u, by linear scan."""
    z0 = zeta_naive(alpha, xmin)
    x = int(xmin)
    while True:
        cdf = 1.0 - zeta_naive(alpha, x + 1) / z0
        if cdf >= u:
            return x
        x += 1


def simulate_copy_loop(cfg: GrowthConfig) -> DegreeSequence:
    """Run the copy model; deterministic for a fixed config seed.

    Sequential growth: at step t creator t arrives holding one unit of
    attention, then one attention event is allocated, uniformly over the
    t+1 existing creators with probability gamma (floored, see module
    docstring), otherwise to the owner of a uniformly drawn past event.
    counts therefore sums to n_nodes (arrival units) + steps exactly.
    """
    if cfg.model != COPY:
        raise DomainError("config is not a copy-model config")
    n = cfg.n_nodes
    g = cfg.gamma if cfg.gamma >= cfg.exploration_floor else cfg.exploration_floor
    if cfg.gamma == 1.0:
        g = 1.0
    rng = make_rng(cfg.seed)
    u_branch = rng.random(n)
    u_pick = rng.random(n)
    counts = np.ones(n, dtype=np.int64)  # each creator's arrival unit
    urn = np.empty(n, dtype=np.int64)
    ulen = 0
    for t in range(1, n):
        if ulen == 0 or u_branch[t] < g:
            target = int(u_pick[t] * (t + 1))
        else:
            target = int(urn[int(u_pick[t] * ulen)])
        counts[target] += 1
        urn[ulen] = target
        ulen += 1
    return DegreeSequence(counts=counts, config=cfg, steps=n - 1)


def simulate_ba_loop(cfg: GrowthConfig) -> DegreeSequence:
    """Grow a preferential-attachment graph from a complete seed graph.

    Each of the n - (m+1) arriving nodes attaches m edges to distinct
    existing nodes drawn from the edge-endpoint urn (one entry per endpoint,
    so a draw lands on a node with probability proportional to its degree);
    duplicate targets are redrawn. Degree sum equals twice the edge count.
    """
    if cfg.model != BA:
        raise DomainError("config is not a ba-model config")
    n, m = cfg.n_nodes, cfg.m
    rng = make_rng(cfg.seed)
    deg = np.zeros(n, dtype=np.int64)
    n_edges = m * (m + 1) // 2 + m * (n - m - 1)
    urn = np.empty(2 * n_edges, dtype=np.int64)
    ulen = 0
    for i in range(m + 1):          # seed clique
        for j in range(i + 1, m + 1):
            urn[ulen] = i
            urn[ulen + 1] = j
            ulen += 2
            deg[i] += 1
            deg[j] += 1
    for v in range(m + 1, n):
        targets = []
        while len(targets) < m:
            t = int(urn[int(rng.random() * ulen)])
            if t not in targets:    # reject duplicate endpoints
                targets.append(t)
        for t in targets:
            urn[ulen] = t
            urn[ulen + 1] = v
            ulen += 2
            deg[t] += 1
            deg[v] += 1
    return DegreeSequence(counts=deg, config=cfg, steps=n_edges)


def amse_curve_loop(x: np.ndarray, nb: int, rng, replicates: int) -> np.ndarray:
    """Mean over bootstrap resamples of (M2 - 2*M1^2)^2 for every k < nb."""
    acc = np.zeros(nb - 1)
    for _ in range(replicates):
        sub = np.sort(rng.choice(x, size=nb, replace=True))[::-1]  # descending
        logs = np.log(sub)
        k = np.arange(1, nb)
        c1 = np.cumsum(logs[:-1])
        c2 = np.cumsum(logs[:-1] ** 2)
        m1 = c1 / k - logs[1:]
        m2 = c2 / k - 2.0 * logs[1:] / k * c1 + logs[1:] ** 2
        acc += (m2 - 2.0 * m1**2) ** 2
    return acc / replicates


def read_column_loop(path) -> np.ndarray:
    """One number per line; a single leading header line is tolerated."""
    values = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            text = line.strip().split(",")[0]
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                if i == 0:
                    continue  # header
                raise SchemaError(f"{path}: line {i + 1} is not a number: {text!r}")
    if not values:
        raise SchemaError(f"{path}: no numeric values found")
    return np.asarray(values)
