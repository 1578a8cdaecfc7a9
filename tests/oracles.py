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
`discrete_ppf_grid`, the discrete quantile function as it was, a CCDF grid
of up to 2^18 points with a per-draw bisection past it (`tailkit.powerlaw`'s
doubling-then-halving search must return the same bits wherever the zeta
CCDF is strictly decreasing in float64, checked below 10^13),
`amse_curve_loop`, the double bootstrap's AMSE curve as it was computed when
each resample drew values with `rng.choice`, sorted them and took their log
(`tailkit.estimators._amse_curve` takes the log once per sample on a reversed
view, so on the same strided path, and gathers it at sorted integer indices
from the same draw; truncated at its hi, its curve must have the same bits),
`bounds_gathered`, the scan's coarse KS bounds as they were computed
from one flat gather per point (`tailkit.fit._Candidates.bounds` evaluates
candidates x points as padded rows and must return the same bits),
`degrees_csv_loop`, `series_csv_loop` and `render_svg_loop`, the text
emitters that wrote one Python string per count, CSV row or SVG circle
(`tailkit.growth.degrees_csv`, `tailkit.report.series_csv` and
`tailkit.report.render_svg` encode from numpy arrays and must return the
same text; it takes its ticks from `tailkit.report`), `ticks_log_loop` and
`ticks_linear_loop`, the axis ticks as a loop that stepped until a float
passed the axis' top (`tailkit.report`'s tick helpers take integer index
ranges and must return the same labels, and values within 1e-14, on the
axes the pipeline draws; the loop's accumulated step can end a hair off a
multiple, which drops the last tick of an axis narrower than about 1e-4 of
its top or labels a zero `-0`, so it is a reference only there),
`make_sample_float`, the route that converted any input to a float64 array
before filtering it (`tailkit.sample.make_sample` filters numeric input in
its own dtype and must give the same `values`, `kind` and `n_rejected`, or
raise the same error), `read_column_loop`, the CLI's reader that converted
one line at a time (`tailkit.cli._read_column` must return the same array
or raise the same `SchemaError`), and the earnings pipeline's row path
(`parse_csv_rows` to `nsfw_rows`), which held one frozen `EarningsRecord`
per row: the columnar `tailkit.pipeline` stages must accept the same rows
with the same diagnostics, fit the same `coef` bit for bit, and group the
same samples.
"""

import bisect
import csv
import io
import math

import numpy as np

from tailkit import fit, growth
from tailkit.errors import DegenerateTail, EmptySample, RenderError, SampleTooSmall, SchemaError
from tailkit.fit import (
    TailFit,
    _candidate_indices,
    _distinct_stats,
    _mle_discrete,
    mle_alpha_continuous,
    mle_alpha_discrete,
)
from tailkit.growth import DegreeSequence
from tailkit.pipeline import (
    CATEGORY,
    CSV_COLUMNS,
    HOME_PLATFORM,
    KNOWN_PLATFORMS,
    OPTIONAL_COLUMNS,
    PLATFORM,
    EarningsRecord,
    EarningsTable,
    ImputationModel,
    ParseResult,
)
from tailkit.powerlaw import PowerLawModel, hurwitz_zeta
from tailkit.report import (
    _SVG_PALETTE,
    LOGLOG,
    _escape,
    _fmt,
    _ticks_linear,
    _ticks_log,
    csv_table,
)
from tailkit.rng import make_rng
from tailkit.sample import CONTINUOUS, Sample, make_sample


def ks_naive(tail, alpha, xmin, kind="continuous"):
    """Double-loop KS distance: both empirical step edges at every point.

    The upper edge compares against the model CDF at the point, the lower
    edge against the model CDF just below it (identical for the continuous
    kind; F(v-1) on integer support). The counts at or below and below each
    point are binary searches on a sorted copy of the tail.
    """
    ordered = sorted(tail)
    xs = sorted(set(float(v) for v in tail))
    n = len(tail)
    worst = 0.0
    if kind == "discrete":
        z0 = zeta_naive(alpha, xmin)
    for v in xs:
        n_le = bisect.bisect_right(ordered, v)
        n_lt = bisect.bisect_left(ordered, v)
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


def select_xmin_exhaustive(s, min_tail=50):
    """Threshold scan with a full KS pass over every candidate's distinct tail.

    The candidate cap and the KS allowance are read from `tailkit.fit` at
    call time, so a test that patches them there patches them here too.
    """
    x = s.values
    n = x.size
    if n < min_tail:
        raise SampleTooSmall(f"need >= {min_tail} observations, got {n}")

    dv, dcount, dcum, dt, wsuffix = _distinct_stats(x)
    cand = _candidate_indices(dv, dcum, n, min_tail, s.kind)
    if cand.size == 0:
        raise SampleTooSmall("no usable threshold candidates (tail too homogeneous)")

    scanned = []  # (k0, m, ks) in ascending threshold order
    for k0 in cand:
        below = dcum[k0 - 1] if k0 > 0 else 0
        m = int(n - below)
        sum_logs = float(wsuffix[k0]) - m * float(dt[k0])
        if sum_logs <= 0.0:
            continue
        if s.kind == CONTINUOUS:
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
        if s.kind == CONTINUOUS:
            F_lo = F
        else:
            # lower step edge of an integer support sits at F(v-1) = 1 - P(X >= v)
            F_lo = 1.0 - hurwitz_zeta(alpha, dv[k0:]) / z0
        ks = max(float(np.abs(F - e_hi).max()), float(np.abs(F_lo - e_lo).max()))
        scanned.append((int(k0), m, ks))

    if not scanned:
        raise DegenerateTail("every candidate tail was degenerate")
    allowance = fit._KS_ALLOWANCE[s.kind]
    ks_min = min(ks for _, _, ks in scanned)
    ordered = scanned if s.kind == CONTINUOUS else reversed(scanned)
    k0, m, ks = next(t for t in ordered
                     if t[2] <= ks_min + allowance / math.sqrt(t[1]))
    xmin = float(dv[k0])
    if s.kind == CONTINUOUS:
        alpha, stderr, loglik = mle_alpha_continuous(x[n - m:], xmin)
    else:
        alpha, stderr, loglik = mle_alpha_discrete(x[n - m:], xmin)
    return TailFit(alpha=alpha, xmin=xmin, n_tail=m, ks=ks,
                   stderr=stderr, loglik=loglik, kind=s.kind, min_tail=min_tail)


def bounds_gathered(c, idx, stride):
    """`_Candidates.bounds` as it was: every candidate's points gathered
    into one flat array per chunk of at most max(N/8, 2^14) points (or one
    candidate's), with each point's candidate data gathered beside it, and
    the gaps maximized per candidate by `np.maximum.reduceat`."""
    n_dist = c.dv.size
    k0 = c.k0[idx]
    npts = (n_dist - k0 + stride - 1) // stride
    ends = npts.cumsum()
    budget = max(n_dist // 8, fit._LB_CHUNK_MIN)
    lb = np.empty(idx.size)
    lo = 0
    while lo < idx.size:
        base = ends[lo] - npts[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, base + budget, side="right")))
        counts = npts[lo:hi]
        starts = ends[lo:hi] - counts - base
        rows = np.repeat(np.arange(lo, hi), counts)
        step = np.arange(rows.size) - np.repeat(starts, counts)
        pts = k0[rows] + stride[rows] * step
        lb[lo:hi] = np.maximum.reduceat(c.gaps(pts, idx[rows]), starts)
        lo = hi
    return lb


def make_sample_float(values, kind=CONTINUOUS) -> Sample:
    """make_sample through one float64 conversion of the whole input."""
    v = np.asarray(values, dtype=float).ravel()
    keep = np.isfinite(v) & (v > 0)
    rejected = int(v.size - keep.sum())
    if rejected:
        v = v[keep]
    if v.size == 0:
        raise EmptySample(f"no positive finite values (rejected {rejected})")
    return Sample(values=v, kind=kind, n_rejected=rejected)


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


def discrete_ppf_grid(model: PowerLawModel, u):
    """Vectorized discrete quantiles: smallest integer x with P(X >= x+1) <= 1-u."""
    a, xm = model.alpha, int(model.xmin)
    z0 = hurwitz_zeta(a, xm)
    target = 1.0 - u  # want smallest x with S(x+1) <= target, S(y) = zeta(a,y)/z0
    # grid of S over xm..xm+K, grown until it covers all but extreme draws;
    # the handful of draws beyond the cap fall back to scalar bisection
    K = 1024
    tmin = target.min()
    while True:
        ys = np.arange(xm, xm + K + 2, dtype=float)
        S = hurwitz_zeta(a, ys) / z0
        if S[-1] <= tmin or K >= (1 << 18):
            break
        K *= 4
    # S is decreasing in y; searchsorted on the reversed (ascending) array
    rev = S[::-1]
    pos = np.searchsorted(rev, target, side="right")
    idx = S.size - pos  # first index with S[idx] <= target
    out = np.empty(u.shape, dtype=float)
    inside = idx < S.size
    out[inside] = ys[idx[inside]] - 1.0
    if not inside.all():  # extreme draws beyond the grid: scalar bisection
        for i in np.flatnonzero(~inside):
            lo, hi = xm + K, 2 * (xm + K)
            while hurwitz_zeta(a, hi) / z0 > target[i]:
                lo, hi = hi, 2 * hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if hurwitz_zeta(a, mid) / z0 > target[i]:
                    lo = mid
                else:
                    hi = mid
            out[i] = hi - 1.0
    return np.maximum(out, xm)


def simulate_copy_loop(n_nodes, gamma=0.0, seed=0) -> DegreeSequence:
    """Run the copy model; deterministic for a fixed seed.

    Sequential growth: at step t creator t arrives holding one unit of
    attention, then one attention event is allocated, uniformly over the
    t+1 existing creators with probability gamma (floored at
    `tailkit.growth.EXPLORATION_FLOOR`, read at call time), otherwise to the
    owner of a uniformly drawn past event. counts therefore sums to n_nodes
    (arrival units) + steps exactly.
    """
    n = n_nodes
    floor = growth.EXPLORATION_FLOOR
    g = gamma if gamma >= floor else floor
    if gamma == 1.0:
        g = 1.0
    rng = make_rng(seed)
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
    return DegreeSequence(counts=counts, steps=n - 1)


def simulate_ba_loop(n_nodes, m=1, seed=0) -> DegreeSequence:
    """Grow a preferential-attachment graph from a complete seed graph.

    Each of the n - (m+1) arriving nodes attaches m edges to distinct
    existing nodes drawn from the edge-endpoint urn (one entry per endpoint,
    so a draw lands on a node with probability proportional to its degree);
    duplicate targets are redrawn. Degree sum equals twice the edge count.
    """
    n = n_nodes
    rng = make_rng(seed)
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
    return DegreeSequence(counts=deg, steps=n_edges)


def assert_same_text(got: str, want: str):
    """Fail naming the first line where an emitter's text leaves its
    oracle's; pytest's own diff of two megabyte strings takes minutes."""
    if got != want:
        g, w = got.splitlines(keepends=True), want.splitlines(keepends=True)
        i = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        raise AssertionError(f"texts differ at line {i + 1} of {len(g)} / {len(w)}: "
                             f"{g[i:i + 1]!r} != {w[i:i + 1]!r}")


def degrees_csv_loop(d: DegreeSequence) -> str:
    """`count` header, then `str` of each count on its own line, joined a
    65 536-count block at a time."""
    c = d.counts
    return "".join(["count\n", *("\n".join(map(str, c[i:i + 65536].tolist())) + "\n"
                                 for i in range(0, c.size, 65536))])


def _point_tuples(series):
    """A series' points as a tuple of (x, y) Python floats."""
    return tuple(map(tuple, series.points.tolist()))


def series_csv_loop(series) -> str:
    """x, y (and label) CSV through `csv_table`, one row tuple per point."""
    points = _point_tuples(series)
    if series.labels:
        return csv_table(("x", "y", "label"),
                         (p + (lab,) for p, lab in zip(points, series.labels)))
    return csv_table(("x", "y"), points)


def ticks_log_loop(lo, hi):
    """Decade ticks in [lo, hi] (relative tolerance 1e-12), found by stepping
    the exponent up from below lo; [lo] when no decade lies in the range."""
    out = []
    k = math.floor(math.log10(lo))
    while 10.0**k <= hi * (1 + 1e-12):
        if 10.0**k >= lo * (1 - 1e-12):
            out.append(10.0**k)
        k += 1
    return out or [lo]


def ticks_linear_loop(lo, hi):
    """Ticks at multiples of a 1-2-5 step in [lo, hi], accumulated one float
    step at a time from the first multiple at or above lo."""
    if hi == lo:
        return [lo]
    step = 10.0 ** math.floor(math.log10(hi - lo))
    if (hi - lo) / step < 2:
        step /= 5
    elif (hi - lo) / step < 5:
        step /= 2
    t = math.ceil(lo / step) * step
    out = []
    while t <= hi + step * 1e-9:
        out.append(round(t, 12))
        t += step
    return out


def render_svg_loop(series_list, title: str = "") -> str:
    """640x480 SVG written one f-string per element, each pixel coordinate
    computed by `px`/`py` on one point at a time."""
    if not series_list:
        raise RenderError("no series to render")
    loglog = any(s.scale == LOGLOG for s in series_list)
    for s in series_list:
        if loglog and s.scale != LOGLOG:
            raise RenderError(f"series {s.name!r}: cannot mix scales in one figure")
        if not _point_tuples(s):
            raise RenderError(f"series {s.name!r} is empty")

    xs = [x for s in series_list for x, _ in _point_tuples(s)]
    ys = [y for s in series_list for _, y in _point_tuples(s)]
    has_bars = any(s.style == "bar" for s in series_list)
    if loglog:
        tx = lambda v: math.log10(v)
        x_lo, x_hi = tx(min(xs)), tx(max(xs))
        y_lo, y_hi = tx(min(ys)), tx(max(ys))
        xticks = _ticks_log(min(xs), max(xs))
        yticks = _ticks_log(min(ys), max(ys))
    else:
        tx = lambda v: v
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = (0.0 if has_bars else min(ys)), max(ys)
        xticks = _ticks_linear(x_lo, x_hi)
        yticks = _ticks_linear(y_lo, y_hi)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    width, height = 640, 480
    m_left, m_right, m_top, m_bot = 64, 16, 32, 48
    pw, ph = width - m_left - m_right, height - m_top - m_bot

    def px(v):
        return m_left + (tx(v) - x_lo) / (x_hi - x_lo) * pw

    def py(v):
        return m_top + ph - (tx(v) - y_lo) / (y_hi - y_lo) * ph

    out = io.StringIO()
    out.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    out.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
              f'height="{height}" viewBox="0 0 {width} {height}">\n')
    out.write(f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>\n')
    if title:
        out.write(f'<text x="{width/2:.1f}" y="20" text-anchor="middle" '
                  f'font-family="sans-serif" font-size="14">{_escape(title)}</text>\n')
    out.write(f'<line x1="{m_left}" y1="{m_top + ph}" x2="{m_left + pw}" '
              f'y2="{m_top + ph}" stroke="black"/>\n')
    out.write(f'<line x1="{m_left}" y1="{m_top}" x2="{m_left}" '
              f'y2="{m_top + ph}" stroke="black"/>\n')
    for t in xticks:
        x = px(t)
        out.write(f'<line x1="{x:.2f}" y1="{m_top + ph}" x2="{x:.2f}" '
                  f'y2="{m_top + ph + 5}" stroke="black"/>\n')
        out.write(f'<text x="{x:.2f}" y="{m_top + ph + 18}" text-anchor="middle" '
                  f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>\n')
    for t in yticks:
        y = py(t)
        out.write(f'<line x1="{m_left - 5}" y1="{y:.2f}" x2="{m_left}" '
                  f'y2="{y:.2f}" stroke="black"/>\n')
        out.write(f'<text x="{m_left - 8}" y="{y + 4:.2f}" text-anchor="end" '
                  f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>\n')
    for si, s in enumerate(series_list):
        color = _SVG_PALETTE[si % len(_SVG_PALETTE)]
        points = _point_tuples(s)
        if s.style == "line":
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in points)
            out.write(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                      f'stroke-width="1.5"/>\n')
        elif s.style == "bar":
            bw = pw / max(len(points), 1) * 0.7
            for (x, y), lab in zip(points, s.labels or [""] * len(points)):
                cx = px(x)
                out.write(f'<rect x="{cx - bw/2:.2f}" y="{py(y):.2f}" '
                          f'width="{bw:.2f}" height="{m_top + ph - py(y):.2f}" '
                          f'fill="{color}" fill-opacity="0.8"/>\n')
                if lab:
                    out.write(f'<text x="{cx:.2f}" y="{m_top + ph + 32}" '
                              f'text-anchor="middle" font-family="sans-serif" '
                              f'font-size="10">{_escape(str(lab))}</text>\n')
        else:
            for x, y in points:
                out.write(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2" '
                          f'fill="{color}"/>\n')
        out.write(f'<text x="{m_left + pw - 8}" y="{m_top + 14 + 14 * si}" '
                  f'text-anchor="end" font-family="sans-serif" font-size="11" '
                  f'fill="{color}">{_escape(s.name)}</text>\n')
    out.write("</svg>\n")
    return out.getvalue()


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


# -- the earnings pipeline, one record at a time ------------------------------------

def table_from_records(records) -> EarningsTable:
    """The table of an iterable of `EarningsRecord`s, in their order."""
    rows = list(records)
    sets = {}
    platform_code = [sets.setdefault(r.platforms, len(sets)) for r in rows]
    categories = tuple(sorted({r.category for r in rows}))
    category_code = [categories.index(r.category) for r in rows]

    def column(name, dtype):
        return np.array([getattr(r, name) for r in rows], dtype=dtype)

    return EarningsTable(
        creator_id=column("creator_id", object), year=column("year", np.int64),
        members=column("members", np.int64), paid_members=column("paid_members", np.int64),
        earnings=np.array([math.nan if r.earnings is None else r.earnings
                           for r in rows], dtype=float),
        nsfw=column("nsfw", bool), imputed=column("imputed", bool),
        platform_code=np.array(platform_code, dtype=np.intp),
        category_code=np.array(category_code, dtype=np.intp),
        platform_sets=tuple(sets), categories=categories)


def parse_csv_rows(path) -> ParseResult:
    """Earnings rows read by `csv.DictReader` into a list of records.

    Beyond the former code it rejects a row that lacks a required field
    (that raised TypeError) or holds a number outside int64, and numbers a
    diagnostic by the physical line its row ends on, not by its record
    count.
    """
    records, diagnostics = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"missing required columns: {', '.join(missing)}")
        for row in reader:
            try:
                records.append(parse_row(row))
            except ValueError as exc:
                diagnostics.append(f"line {reader.line_num}: {exc}")
    return ParseResult(records=records, diagnostics=diagnostics)


def _fits_int64(value: int) -> bool:
    return -2**63 <= value < 2**63


def parse_row(row) -> EarningsRecord:
    absent = [c for c in CSV_COLUMNS if row[c] is None]
    if set(absent) - set(OPTIONAL_COLUMNS):
        raise ValueError(f"missing field(s): {', '.join(absent)}")
    year = int(row["year"])
    if not _fits_int64(year):
        raise ValueError(f"year {year} does not fit in 64 bits")
    raw = (row["platforms"] or "").strip()
    platforms = frozenset(p.strip().lower() for p in raw.split(";") if p.strip())
    unknown = platforms - set(KNOWN_PLATFORMS)
    if unknown:
        raise ValueError(f"unknown platform(s): {', '.join(sorted(unknown))}")
    members = int(row["members"])
    if not _fits_int64(members):
        raise ValueError(f"members {members} does not fit in 64 bits")
    paid = int(row["paid_members"])
    if not _fits_int64(paid):
        raise ValueError(f"paid_members {paid} does not fit in 64 bits")
    if members < 0 or paid < 0:
        raise ValueError("member counts must be nonnegative")
    if paid > members:
        raise ValueError(f"paid_members {paid} exceeds members {members}")
    raw_earn = (row["earnings"] or "").strip()
    earnings = None
    if raw_earn:
        earnings = float(raw_earn)
        if not np.isfinite(earnings) or earnings < 0:
            raise ValueError(f"earnings must be a finite nonnegative number, got {raw_earn}")
    return EarningsRecord(
        creator_id=row["creator_id"].strip(),
        year=year,
        platforms=platforms,
        category=row["category"].strip().lower(),
        nsfw=parse_bool(row["nsfw"]),
        members=members,
        paid_members=paid,
        earnings=earnings,
        imputed=False,
    )


def parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no", ""):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def design_row(rec: EarningsRecord, categories, years) -> np.ndarray:
    """Regression row: intercept, paid_members, members, category one-hots,
    nsfw, year one-hots; the first level of a block and unseen levels carry
    no column."""
    n_cat = max(len(categories) - 1, 0)
    n_year = max(len(years) - 1, 0)
    x = np.zeros(4 + n_cat + n_year)
    x[0] = 1.0
    x[1] = rec.paid_members
    x[2] = rec.members
    if n_cat and rec.category in categories:
        idx = categories.index(rec.category)
        if idx > 0:
            x[2 + idx] = 1.0
    x[3 + n_cat] = 1.0 if rec.nsfw else 0.0
    if n_year and rec.year in years:
        idx = years.index(rec.year)
        if idx > 0:
            x[3 + n_cat + idx] = 1.0
    return x


def fit_imputation_rows(records) -> ImputationModel:
    observed = [r for r in records if r.earnings is not None]
    if len(observed) < 50:
        raise SampleTooSmall(f"imputation needs >= 50 observed rows, got {len(observed)}")
    observed.sort(key=lambda r: (r.creator_id, r.year, r.category, r.earnings))
    categories = tuple(sorted({r.category for r in observed}))
    years = tuple(sorted({r.year for r in observed}))
    X = np.array([design_row(r, categories, years) for r in observed])
    y = np.array([r.earnings for r in observed])
    coef = np.linalg.solve(X.T @ X + 1e-8 * np.eye(X.shape[1]), X.T @ y)
    resid = y - X @ coef
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / tss if tss > 0 else 1.0
    return ImputationModel(coef=coef, categories=categories, years=years,
                           r_squared=r2, n_train=len(observed))


def impute_rows(records, model: ImputationModel):
    out, n_unseen = [], 0
    for r in records:
        if r.earnings is not None:
            out.append(r)
            continue
        if not (len(model.categories) <= 1 or r.category in model.categories):
            n_unseen += 1
        pred = float(design_row(r, model.categories, model.years) @ model.coef)
        out.append(r._replace(earnings=max(pred, 0.0), imputed=True))
    return out, n_unseen


def filter_floor_rows(records, floor=10.0, inclusive=False):
    kept = [r for r in records if (r.earnings >= floor if inclusive else r.earnings > floor)]
    return kept, len(records) - len(kept)


def group_rows(records, key) -> dict:
    """`key(platform, record)` -> records of each single-platform group."""
    groups = {}
    for r in records:
        if len(r.platforms) > 1:
            continue
        p = next(iter(r.platforms)) if r.platforms else HOME_PLATFORM
        groups.setdefault(key(p, r), []).append(r)
    return dict(sorted(groups.items()))


_ROW_KEYS = {PLATFORM: lambda p, r: p, CATEGORY: lambda p, r: r.category}


def group_samples_rows(records, by) -> dict:
    """Earnings samples of each group, keyed as `tailkit.pipeline.group_samples`."""
    key = _ROW_KEYS.get(by, lambda p, r: (p, r.year))
    return {k: make_sample([r.earnings for r in recs], kind=CONTINUOUS)
            for k, recs in group_rows(records, key).items()}


def segment_rows(records) -> dict:
    return group_samples_rows(records, PLATFORM)


def nsfw_rows(records):
    rows = []
    for (p, year), recs in group_rows(records, lambda p, r: (p, r.year)).items():
        earn = np.sort(np.array([r.earnings for r in recs], dtype=float))
        share = sum(1 for r in recs if r.nsfw) / len(recs)
        rows.append((p, year, len(recs), float(earn.mean()), float(np.median(earn)), share))
    return rows
