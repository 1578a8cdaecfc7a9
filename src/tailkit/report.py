"""Figure- and table-ready outputs.

Every builder here is a pure function of fits and summary statistics
computed elsewhere; nothing re-estimates anything. Figures are emitted as
CSV point series and as self-contained SVG text that is byte-identical for
identical inputs, so golden-file comparisons work.
"""

import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import RenderError
from .fit import TailFit
from .sample import Sample, empirical_ccdf

__all__ = [
    "PlotSeries",
    "bar_series",
    "ccdf_figure",
    "alpha_panel",
    "median_vs_alpha",
    "spearman",
    "proportion_figure",
    "category_panel",
    "render_svg",
    "csv_table",
    "json_text",
    "series_csv",
    "save_figures",
    "sha256",
    "write_artifact",
]

LOGLOG = "loglog"
LINEAR = "linear"


@dataclass(frozen=True, eq=False)
class PlotSeries:
    """One drawable series: named points plus style hints.

    `points` is a read-only float64 array of shape (n, 2), one (x, y) row
    per point, built from any sequence of pairs. Every coordinate must be
    finite, and log-scaled series must hold strictly positive coordinates;
    construction raises RenderError otherwise. style is one of 'points',
    'line', 'bar'. labels, when present, annotate points (bar charts use
    them as tick labels).
    """

    name: str
    points: np.ndarray
    scale: str = LOGLOG
    style: str = "points"
    labels: tuple = ()

    def __post_init__(self):
        p = np.array(self.points, dtype=np.float64)  # own copy, then freeze
        if p.size == 0:
            p = p.reshape(0, 2)
        if p.ndim != 2 or p.shape[1] != 2:
            raise RenderError(f"series {self.name!r}: points must be (x, y) pairs")
        p.flags.writeable = False
        object.__setattr__(self, "points", p)
        self._reject(~np.isfinite(p), "point", "not finite")
        if self.scale == LOGLOG:
            self._reject(p <= 0, "log-log point", "not positive")

    def _reject(self, bad, what, why):
        """Raise RenderError naming the first point with a `bad` coordinate."""
        rows = np.flatnonzero(bad.any(axis=1))
        if rows.size:
            x, y = self.points[rows[0]].tolist()
            raise RenderError(f"series {self.name!r}: {what} ({x}, {y}) {why}")


# -- figure builders -----------------------------------------------------------

def bar_series(name: str, items) -> PlotSeries:
    """Linear bar series of (label, value) items, one bar per item at
    x = 1, 2, ... in the given order."""
    return PlotSeries(name=name, scale=LINEAR, style="bar",
                      points=tuple((i + 1.0, v) for i, (_, v) in enumerate(items)),
                      labels=tuple(k for k, _ in items))


def ccdf_figure(sample: Sample, fit: TailFit):
    """Empirical CCDF, fitted tail line and threshold marker.

    The fitted line is anchored at the empirical CCDF value at the
    threshold and falls with log-log slope -(alpha - 1), overlaying the
    tail it was fitted to.
    """
    xs, fr = empirical_ccdf(sample)
    emp = PlotSeries(name="empirical", points=np.column_stack((xs, fr)), scale=LOGLOG)
    anchor_y = float(fr[np.searchsorted(xs, fit.xmin, side="left")])
    slope = -(fit.alpha - 1.0)
    x_hi = float(xs[-1])
    y_hi = anchor_y * (x_hi / fit.xmin) ** slope
    line = PlotSeries(name="fit", style="line", scale=LOGLOG,
                      points=((fit.xmin, anchor_y), (x_hi, y_hi)))
    y_lo = float(fr[-1])
    marker = PlotSeries(name="xmin", style="line", scale=LOGLOG,
                        points=((fit.xmin, y_lo), (fit.xmin, 1.0)))
    return [emp, line, marker]


def alpha_panel(fits: dict):
    """Exponent summary from per-(platform, year) fits.

    Returns (pooled, by_year): pooled rows (platform, mean alpha over its
    years) sorted ascending by alpha; by_year rows (platform, year, alpha)
    sorted by platform then year.
    """
    per_platform = {}
    for (platform, year), fit in fits.items():
        per_platform.setdefault(platform, []).append((year, fit.alpha))
    pooled = sorted(
        ((p, sum(a for _, a in rows) / len(rows))
         for p, rows in per_platform.items()),
        key=lambda t: t[1])
    by_year = [(p, y, a) for p in sorted(per_platform)
               for y, a in sorted(per_platform[p])]
    return pooled, by_year


def spearman(a, b) -> float:
    """Spearman rank correlation with average ranks on ties.

    The Pearson correlation of the average ranks, computed as
    `scipy.stats.spearmanr` does; nan when an input is constant, holds a
    nan or has fewer than two values.
    """
    x = np.column_stack((a, b))
    if len(x) < 2 or np.isnan(x).any() or (x[0] == x).all(axis=0).any():
        return math.nan
    ranks = np.empty(x.shape)
    for j in range(2):
        _, inv, cnt = np.unique(x[:, j], return_inverse=True, return_counts=True)
        end = np.cumsum(cnt)
        ranks[:, j] = (end - 0.5 * (cnt - 1))[inv]
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def median_vs_alpha(stats_list, fits: dict):
    """Scatter rows (platform, median, alpha) plus the rank correlation.

    Platforms must appear in both inputs; with fewer than 3 common
    platforms, or when their medians or their alphas are all equal, the
    correlation is undefined and omitted (None).
    """
    medians = {s.platform: s.median for s in stats_list}
    rows = [(p, medians[p], fits[p].alpha) for p in sorted(medians) if p in fits]
    if len(rows) >= 3:
        rho = spearman([r[1] for r in rows], [r[2] for r in rows])
        if not math.isnan(rho):
            return rows, rho
    return rows, None


def proportion_figure(proportions: dict) -> PlotSeries:
    """Bar series of power-law tail shares, sorted descending."""
    return bar_series("power_law_proportion",
                      sorted(proportions.items(), key=lambda kv: (-kv[1], kv[0])))


def category_panel(fits: dict, obs_counts: dict):
    """Per-category exponents plus simple and observation-weighted means."""
    rows = [(c, fits[c].alpha, int(obs_counts[c])) for c in sorted(fits)]
    alphas = [a for _, a, _ in rows]
    weights = [n for _, _, n in rows]
    simple = sum(alphas) / len(alphas)
    weighted = sum(a * w for a, w in zip(alphas, weights)) / sum(weights)
    return rows, simple, weighted


# -- emission --------------------------------------------------------------------

def csv_table(columns, rows) -> str:
    """CSV text: a header of `columns`, then one line per row, with floats
    written as `.10g` and every other value as `str`, quoted as RFC 4180
    does (inner quotes doubled) when it holds a comma, a quote or a line break."""
    def cell(v):
        if isinstance(v, float):
            return f"{v:.10g}"
        v = str(v)
        return '"' + v.replace('"', '""') + '"' if any(c in v for c in ',"\r\n') else v
    return "".join(",".join(map(cell, row)) + "\n" for row in [columns, *rows])


def json_text(obj, indent=2) -> str:
    """JSON text with sorted keys and a final newline. JSON has no NaN or
    Infinity, so a non-finite float raises ValueError: an undefined value is
    written as None (null) by the code that produces it."""
    return json.dumps(obj, indent=indent, sort_keys=True, allow_nan=False) + "\n"


def series_csv(series: PlotSeries) -> str:
    """The points of `series` as CSV (x, y, and label when it has labels),
    floats written as `.10g`, the same text `csv_table` writes.

    Without labels the whole body is one `%` format over the flattened
    points, so no per-row Python tuple or string is built.
    """
    if series.labels:
        return csv_table(("x", "y", "label"),
                         ((x, y, lab) for (x, y), lab
                          in zip(series.points.tolist(), series.labels)))
    return "x,y\n" + ("%.10g,%.10g\n" * len(series.points)) % tuple(
        series.points.ravel().tolist())


_SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks_log(lo, hi):
    # 4.4e-13 is just over log10(1 + 1e-12): keeps a decade up to 1e-12 (relative) past an end
    return [10.0**k for k in range(math.ceil(math.log10(lo) - 4.4e-13),
                                   math.floor(math.log10(hi) + 4.4e-13) + 1)] or [lo]


def _ticks_linear(lo, hi):
    if hi - lo == math.inf:
        raise RenderError(f"linear axis from {lo:g} to {hi:g} spans more than the largest float64")
    # One tick for an axis under 4 subnormal steps wide (the step below would
    # underflow to 0.0) or under 1e-12 of its largest magnitude (ticks would
    # be float noise apart). The other ticks are distinct multiples of the
    # step, left unrounded so that each stays on the axis.
    if hi - lo < max(4 * 5e-324, 1e-12 * max(-lo, hi)):
        return [lo]
    step = 10.0 ** math.floor(math.log10(hi - lo))
    if (hi - lo) / step < 2:
        step /= 5
    elif (hi - lo) / step < 5:
        step /= 2
    return [i * step for i in range(math.ceil(lo / step), math.floor(hi / step + 1e-9) + 1)]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render_svg(series_list, title: str = "") -> str:
    """Self-contained 640x480 SVG for a set of series sharing one axis system.

    Log-scaled axes (with decade ticks) whenever any series is log-log;
    byte-deterministic for identical inputs. Raises RenderError on empty
    input or on log-log and linear series mixed. One array transform,
    `place`, puts every element on the page: ticks, polyline vertices, bars
    and their labels, and circles. On log axes it takes `math.log10` per
    value (`np.log10` differs from it in the last bit on some inputs), then
    scales each axis with the operations a single point would take, so
    every coordinate is the byte a per-point loop would write.
    """
    if not series_list:
        raise RenderError("no series to render")
    loglog = any(s.scale == LOGLOG for s in series_list)
    for s in series_list:
        if loglog and s.scale != LOGLOG:
            raise RenderError(f"series {s.name!r}: cannot mix scales in one figure")
        if len(s.points) == 0:
            raise RenderError(f"series {s.name!r} is empty")

    # per axis (x, y): data range, ticks, then the range in plotted units
    lo = np.min([s.points.min(axis=0) for s in series_list], axis=0).tolist()
    hi = np.max([s.points.max(axis=0) for s in series_list], axis=0).tolist()
    if loglog:
        ticks = [_ticks_log(a, b) for a, b in zip(lo, hi)]
        lo, hi = list(map(math.log10, lo)), list(map(math.log10, hi))
    else:
        if any(s.style == "bar" for s in series_list):
            lo[1] = 0.0
        ticks = [_ticks_linear(a, b) for a, b in zip(lo, hi)]
    hi = [b if b != a else a + 1.0 for a, b in zip(lo, hi)]

    width, height = 640, 480
    m_left, m_right, m_top, m_bot = 64, 16, 32, 48
    pw, ph = width - m_left - m_right, height - m_top - m_bot
    frame = ((m_left, pw), (m_top + ph, -ph))  # pixel origin and signed span per axis

    def place(values, axis):
        """Pixel coordinates of `values` along `axis` (0 for x, 1 for y)."""
        v = np.asarray(values, dtype=np.float64)
        if loglog:
            v = np.fromiter(map(math.log10, v.tolist()), float, v.size)
        origin, span = frame[axis]
        return origin + (v - lo[axis]) / (hi[axis] - lo[axis]) * span

    out = io.StringIO()
    out.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    out.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
              f'height="{height}" viewBox="0 0 {width} {height}">\n')
    out.write(f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>\n')
    if title:
        out.write(f'<text x="{width/2:.1f}" y="20" text-anchor="middle" '
                  f'font-family="sans-serif" font-size="14">{_escape(title)}</text>\n')
    # axes
    out.write(f'<line x1="{m_left}" y1="{m_top + ph}" x2="{m_left + pw}" '
              f'y2="{m_top + ph}" stroke="black"/>\n')
    out.write(f'<line x1="{m_left}" y1="{m_top}" x2="{m_left}" '
              f'y2="{m_top + ph}" stroke="black"/>\n')
    for t, x in zip(ticks[0], place(ticks[0], 0).tolist()):
        out.write(f'<line x1="{x:.2f}" y1="{m_top + ph}" x2="{x:.2f}" '
                  f'y2="{m_top + ph + 5}" stroke="black"/>\n')
        out.write(f'<text x="{x:.2f}" y="{m_top + ph + 18}" text-anchor="middle" '
                  f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>\n')
    for t, y in zip(ticks[1], place(ticks[1], 1).tolist()):
        out.write(f'<line x1="{m_left - 5}" y1="{y:.2f}" x2="{m_left}" '
                  f'y2="{y:.2f}" stroke="black"/>\n')
        out.write(f'<text x="{m_left - 8}" y="{y + 4:.2f}" text-anchor="end" '
                  f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>\n')
    # series
    for si, s in enumerate(series_list):
        color = _SVG_PALETTE[si % len(_SVG_PALETTE)]
        cx, cy = place(s.points[:, 0], 0), place(s.points[:, 1], 1)
        if s.style == "bar":
            bw = pw / len(cx) * 0.7
            for x, y, lab in zip(cx.tolist(), cy.tolist(), s.labels or [""] * len(cx)):
                out.write(f'<rect x="{x - bw/2:.2f}" y="{y:.2f}" '
                          f'width="{bw:.2f}" height="{m_top + ph - y:.2f}" '
                          f'fill="{color}" fill-opacity="0.8"/>\n')
                if lab:
                    out.write(f'<text x="{x:.2f}" y="{m_top + ph + 32}" '
                              f'text-anchor="middle" font-family="sans-serif" '
                              f'font-size="10">{_escape(str(lab))}</text>\n')
        else:
            cxy = tuple(np.column_stack((cx, cy)).ravel().tolist())
            if s.style == "line":
                pts = " ".join(["%.2f,%.2f"] * len(cx)) % cxy
                out.write(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                          f'stroke-width="1.5"/>\n')
            else:
                out.write((f'<circle cx="%.2f" cy="%.2f" r="2" fill="{color}"/>\n'
                           * len(cx)) % cxy)
        out.write(f'<text x="{m_left + pw - 8}" y="{m_top + 14 + 14 * si}" '
                  f'text-anchor="end" font-family="sans-serif" font-size="11" '
                  f'fill="{color}">{_escape(s.name)}</text>\n')
    out.write("</svg>\n")
    return out.getvalue()


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def save_figures(figures: dict, outdir) -> dict:
    """Write each figure (name -> series list) as SVG plus per-series CSVs.

    Returns a manifest dict listing every artifact with the SHA-256 of its
    bytes, keyed by relative path.
    """
    outdir = Path(outdir)
    manifest = {}
    for name, series_list in sorted(figures.items()):
        svg = render_svg(series_list, title=name)
        manifest[f"{name}.svg"] = write_artifact(outdir / f"{name}.svg", svg)
        for s in series_list:
            rel = f"{name}_{s.name}.csv"
            manifest[rel] = write_artifact(outdir / rel, series_csv(s))
    return manifest


def write_artifact(path: Path, text: str) -> str:
    """Write `text` to `path` as UTF-8, creating missing directories, and
    return the SHA-256 of the bytes written."""
    data = text.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return sha256(data)


def sha256(data: bytes) -> str:
    """Hex SHA-256 digest of `data`, as listed in the pipeline manifest."""
    return hashlib.sha256(data).hexdigest()
