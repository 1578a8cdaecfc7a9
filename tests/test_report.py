import math
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tailkit.errors import RenderError
from tailkit.fit import TailFit, select_xmin
from tailkit.pipeline import PlatformStats
from tailkit.powerlaw import PowerLawModel, pl_sample
from tailkit.report import (
    LINEAR,
    PlotSeries,
    _fmt,
    _ticks_linear,
    _ticks_log,
    alpha_panel,
    bar_series,
    category_panel,
    ccdf_figure,
    median_vs_alpha,
    proportion_figure,
    render_svg,
    save_figures,
    series_csv,
    spearman,
)
from tailkit.rng import make_rng

from oracles import (
    assert_same_text,
    render_svg_loop,
    series_csv_loop,
    spearman_naive,
    ticks_linear_loop,
    ticks_log_loop,
)

# published per-platform values used as rendering fixtures
PAPER_ALPHAS = {"youtube": 1.8, "instagram": 1.84, "twitch": 1.93,
                "facebook": 1.94, "patreon": 2.24, "twitter": 2.35}
PAPER_MEDIANS = {"facebook": 47.0, "instagram": 59.0, "patreon": 57.0,
                 "twitch": 46.0, "twitter": 72.0, "youtube": 47.0}


def tf(alpha, xmin=1.0, n_tail=100):
    return TailFit(alpha=alpha, xmin=xmin, n_tail=n_tail, ks=0.01,
                   stderr=(alpha - 1) / math.sqrt(n_tail), loglik=0.0)


# -- ccdf figure ---------------------------------------------------------------

@pytest.fixture(scope="module")
def pareto_ccdf_figure():
    s = pl_sample(PowerLawModel(alpha=2.0, xmin=1.0), 50_000, seed=19)
    fit = select_xmin(s)
    return s, fit, ccdf_figure(s, fit)


def test_ccdf_line_slope_matches_convention(pareto_ccdf_figure):
    _, fit, figs = pareto_ccdf_figure
    line = next(f for f in figs if f.name == "fit")
    (x0, y0), (x1, y1) = line.points
    slope = (math.log(y1) - math.log(y0)) / (math.log(x1) - math.log(x0))
    assert slope == pytest.approx(-(fit.alpha - 1.0), abs=1e-9)
    assert slope == pytest.approx(-1.0, abs=0.02)


def test_ccdf_marker_at_xmin(pareto_ccdf_figure):
    _, fit, figs = pareto_ccdf_figure
    marker = next(f for f in figs if f.name == "xmin")
    assert all(x == fit.xmin for x, _ in marker.points)


def test_ccdf_empirical_monotone(pareto_ccdf_figure):
    _, _, figs = pareto_ccdf_figure
    emp = next(f for f in figs if f.name == "empirical")
    ys = [y for _, y in emp.points]
    assert all(b <= a for a, b in zip(ys, ys[1:]))
    assert ys[0] == 1.0


def test_ccdf_line_anchored_on_empirical(pareto_ccdf_figure):
    s, fit, figs = pareto_ccdf_figure
    emp = next(f for f in figs if f.name == "empirical")
    line = next(f for f in figs if f.name == "fit")
    anchor = line.points[0]
    assert anchor[0] == fit.xmin
    emp_at_xmin = next(y for x, y in emp.points if x >= fit.xmin)
    assert anchor[1] == pytest.approx(emp_at_xmin)


# -- alpha panel ----------------------------------------------------------------

def test_alpha_panel_pooled_mean():
    fits = {("pat", 2018): tf(2.1), ("pat", 2024): tf(1.9)}
    pooled, by_year = alpha_panel(fits)
    assert pooled == [("pat", pytest.approx(2.0))]
    assert by_year == [("pat", 2018, pytest.approx(2.1)),
                       ("pat", 2024, pytest.approx(1.9))]


def test_alpha_panel_sorts_ascending_like_published_order():
    fits = {(p, 2024): tf(a) for p, a in PAPER_ALPHAS.items()}
    pooled, _ = alpha_panel(fits)
    assert [p for p, _ in pooled] == ["youtube", "instagram", "twitch",
                                      "facebook", "patreon", "twitter"]


def test_alpha_panel_missing_year_omitted():
    fits = {("a", 2018): tf(2.0), ("b", 2018): tf(2.2), ("b", 2024): tf(2.4)}
    _, by_year = alpha_panel(fits)
    assert ("a", 2024) not in {(p, y) for p, y, _ in by_year}
    assert len(by_year) == 3


# -- median vs alpha ---------------------------------------------------------------

def test_median_vs_alpha_published_fixture():
    stats = [PlatformStats(platform=p, obs=1, mean=m, median=m, sd=0, min=m,
                           q25=m, q75=m, max=m) for p, m in PAPER_MEDIANS.items()]
    fits = {p: tf(a) for p, a in PAPER_ALPHAS.items()}
    rows, rho = median_vs_alpha(stats, fits)
    assert len(rows) == 6
    assert rho == pytest.approx(0.47, abs=0.01)
    assert rho > 0


def test_median_vs_alpha_too_few_platforms():
    stats = [PlatformStats(platform=p, obs=1, mean=1, median=1, sd=0, min=1,
                           q25=1, q75=1, max=1) for p in ("a", "b")]
    rows, rho = median_vs_alpha(stats, {"a": tf(2.0), "b": tf(2.2)})
    assert len(rows) == 2 and rho is None


def test_spearman_matches_bruteforce_with_ties():
    rng = make_rng(55)
    for _ in range(100):
        n = int(rng.integers(3, 30))
        a = np.round(rng.random(n) * 5, 1)  # coarse grid forces ties
        b = np.round(rng.random(n) * 5, 1)
        if len(set(a)) < 2 or len(set(b)) < 2:
            continue
        assert spearman(a, b) == pytest.approx(spearman_naive(a, b), abs=1e-12)


def test_spearman_equals_scipy_bit_for_bit():
    import warnings

    from scipy import stats

    rng = make_rng(56)
    for i in range(2000):
        n = int(rng.integers(0, 30))
        if i % 3 == 0:
            a, b = rng.random(n), rng.random(n)
        elif i % 3 == 1:
            a, b = np.round(rng.random(n) * 3, 1), rng.integers(0, 4, n)
        else:
            a, b = rng.normal(size=n), rng.integers(0, 2, n).astype(float)
        if n and i % 7 == 0:
            a[int(rng.integers(n))] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = float(stats.spearmanr(a, b).statistic)
        got = spearman(a, b)
        assert got == ref or (math.isnan(got) and math.isnan(ref)), (a, b)


def test_spearman_undefined_inputs_are_nan():
    assert math.isnan(spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
    assert math.isnan(spearman([1.0, 2.0, 3.0], [5, 5, 5]))
    assert math.isnan(spearman([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]))
    assert math.isnan(spearman([1.0], [2.0]))
    assert math.isnan(spearman([], []))


# -- proportions and categories ------------------------------------------------------

def test_proportion_figure_sorted_descending():
    series = proportion_figure({"twitch": 0.55, "youtube": 0.47, "twitter": 0.05})
    assert series.labels == ("twitch", "youtube", "twitter")
    ys = [y for _, y in series.points]
    assert ys == sorted(ys, reverse=True)
    assert all(0 <= y <= 1 for y in ys)


def test_proportion_figure_single_bar():
    series = proportion_figure({"patreon": 0.3})
    assert len(series.points) == 1 and series.labels == ("patreon",)


def test_category_panel_weighted_mean():
    rows, simple, weighted = category_panel({"a": tf(2.0), "b": tf(3.0)},
                                            {"a": 100, "b": 300})
    assert simple == pytest.approx(2.5)
    assert weighted == pytest.approx(2.75)
    assert rows == [("a", pytest.approx(2.0), 100), ("b", pytest.approx(3.0), 300)]


def test_category_panel_single_category():
    _, simple, weighted = category_panel({"solo": tf(2.2)}, {"solo": 10})
    assert simple == weighted == pytest.approx(2.2)


# -- svg -----------------------------------------------------------------------------

def test_svg_two_point_loglog_has_decade_ticks():
    s = PlotSeries(name="demo", style="line", points=((1.0, 1.0), (10.0, 0.1)))
    svg = render_svg([s])
    assert ">1<" in svg and ">10<" in svg and ">0.1<" in svg


def test_svg_byte_deterministic():
    s = PlotSeries(name="demo", points=((1.0, 1.0), (10.0, 0.1)))
    assert render_svg([s]) == render_svg([s])


def test_svg_is_wellformed_xml():
    figs = [
        PlotSeries(name="pts", points=((1, 1), (2, 0.5), (100, 0.01))),
        PlotSeries(name="ln", style="line", points=((1, 1), (100, 0.01))),
    ]
    root = ET.fromstring(render_svg(figs, title="check & <escape>"))
    assert root.tag.endswith("svg")


def test_svg_empty_errors():
    with pytest.raises(RenderError):
        render_svg([])


def test_loglog_rejects_nonpositive_points():
    with pytest.raises(RenderError, match="demo"):
        PlotSeries(name="demo", points=((0.0, 1.0),))
    with pytest.raises(RenderError, match="demo"):
        PlotSeries(name="demo", points=((1.0, -2.0),))


@pytest.mark.parametrize("scale", ["loglog", "linear"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_plot_series_rejects_non_finite_points(scale, bad):
    with pytest.raises(RenderError, match=r"series 'demo': point \(2\.0, .+\) not finite"):
        PlotSeries(name="demo", scale=scale, points=((1.0, 1.0), (2.0, bad), (bad, 3.0)))


def test_loglog_error_names_the_first_nonpositive_point():
    with pytest.raises(RenderError, match=r"^series 'demo': log-log point \(3\.0, 0\.0\) "
                                          r"not positive$"):
        PlotSeries(name="demo", points=np.array([[1, 1], [3, 0], [-1, 2]]))


def test_plot_series_points_are_a_frozen_copy():
    src = np.array([[1.0, 0.5], [2.0, 0.25]])
    s = PlotSeries(name="demo", points=src)
    assert s.points.shape == (2, 2) and s.points.dtype == np.float64
    src[0, 0] = 9.0
    assert s.points[0, 0] == 1.0
    with pytest.raises(ValueError):
        s.points[0, 0] = 7.0
    assert PlotSeries(name="none", points=(), scale=LINEAR).points.shape == (0, 2)
    with pytest.raises(RenderError, match="pairs"):
        PlotSeries(name="demo", points=((1.0, 2.0, 3.0),))


# -- axis ticks -----------------------------------------------------------------------

def test_ticks_equal_the_former_loops_on_pipeline_axes():
    # the axes `tailkit pipeline` draws: exponents 1.01-6 (bars from 0, year
    # series), cent medians 1-1000 and their midpoints, bar positions 1..n,
    # years 2018-2024, and CCDFs from cent earnings to 1e6 against shares
    # from 1/n to 1. The loop's accumulated step drifts up to about 1e-12
    # off the multiples, which no label or pixel shows.
    rng = make_rng(23)
    for _ in range(3000):
        alphas = np.sort(rng.uniform(1.01, 6.0, rng.integers(1, 7))).tolist()
        m0, m1 = np.sort(np.round(rng.uniform(1.0, 1000.0, 2), 2)).tolist()
        y0, y1 = np.sort(rng.integers(2018, 2025, 2)).tolist()
        linear = [(alphas[0], alphas[-1]), (0.0, alphas[-1]), (m0, m1), ((m0 + m1) / 2, m1),
                  (1.0, float(rng.integers(1, 12))), (float(y0), float(y1))]
        log = [(m0, m1), (m0, round(10 ** rng.uniform(3, 6), 2)),
               (1.0 / rng.integers(50, 100_000), 1.0)]
        for lo, hi in linear:
            ticks, former = _ticks_linear(lo, hi), ticks_linear_loop(lo, hi)
            assert list(map(_fmt, ticks)) == list(map(_fmt, former)), (lo, hi)
            assert ticks == pytest.approx(former, rel=1e-14), (lo, hi)
        for lo, hi in log:
            assert _ticks_log(lo, hi) == ticks_log_loop(lo, hi), (lo, hi)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
DECADE = st.integers(-307, 308).map(lambda k: 10.0**k)
POSITIVE = st.floats(min_value=sys.float_info.min, max_value=sys.float_info.max) | DECADE


SUBNORMAL = st.integers(-2**52, 2**52).map(lambda k: k * 5e-324)


@settings(max_examples=500, deadline=None)
@given(FINITE | SUBNORMAL, FINITE | SUBNORMAL)
@example(5e-324, 1e-323).via("an axis one subnormal step wide")
@example(0.0, 1.5e-323).via("the step divided by 5 underflows")
@example(-1e308, 1e308).via("the span overflows")
@example(1e-20, 2e-20).via("ticks rounded to 12 places collapsed to 0, off the axis")
def test_linear_ticks_are_few_increasing_and_on_the_axis(a, b):
    lo, hi = min(a, b), max(a, b)
    if hi - lo == math.inf:
        with pytest.raises(RenderError, match="spans more than the largest float64"):
            _ticks_linear(lo, hi)
        return
    ticks = _ticks_linear(lo, hi)
    assert 1 <= len(ticks) <= 11
    assert all(s < t for s, t in zip(ticks, ticks[1:]))
    # the 1e-9 step allowance at the top, float products
    tol = 1e-9 * (hi - lo) + 4 * sys.float_info.epsilon * max(-lo, hi)
    assert lo - tol <= ticks[0] and ticks[-1] <= hi + tol


@settings(max_examples=500, deadline=None)
@given(POSITIVE, POSITIVE)
def test_log_ticks_are_the_decades_on_the_axis(a, b):
    lo, hi = min(a, b), max(a, b)
    ticks = _ticks_log(lo, hi)
    decades = [10.0**k for k in range(-307, 309)]
    inside = [d for d in decades if lo <= d <= hi]
    near = [d for d in decades if lo * (1 - 2e-12) <= d <= hi * (1 + 2e-12)]
    if ticks != [lo] or inside:
        first = decades.index(ticks[0])
        assert ticks == decades[first:first + len(ticks)]
        assert set(inside) <= set(ticks) <= set(near)


def test_svg_log_axis_reaches_the_largest_decade():
    s = PlotSeries(name="wide", style="line", points=((1.0, 1.0), (1.5e308, 0.5)))
    svg = render_svg([s])
    assert ">1e+308<" in svg and svg.endswith("</svg>\n")


def test_svg_linear_axis_of_extreme_width():
    # one subnormal step wide: the tick step would underflow to 0
    s = PlotSeries(name="narrow", points=((5e-324, 1.0), (1e-323, 2.0)), scale=LINEAR)
    svg = render_svg([s])
    ET.fromstring(svg)
    assert ">4.94066e-324<" in svg and "nan" not in svg
    # wider than float64 holds: refused, not an OverflowError
    s = PlotSeries(name="wide", points=((-1e308, 1.0), (1e308, 2.0)), scale=LINEAR)
    with pytest.raises(RenderError, match="from -1e\\+308 to 1e\\+308 spans more"):
        render_svg([s])


def test_svg_bar_chart_linear_scale():
    series = proportion_figure({"a": 0.5, "b": 0.2})
    svg = render_svg([series])
    assert "<rect" in svg and ">a<" in svg


def test_series_csv_format():
    s = PlotSeries(name="demo", points=((1.5, 0.25),), scale="linear")
    assert series_csv(s) == "x,y\n1.5,0.25\n"


def test_save_figures_manifest(tmp_path):
    s = pl_sample(PowerLawModel(alpha=2.0, xmin=1.0), 2000, seed=3)
    fit = select_xmin(s)
    manifest = save_figures({"ccdf_demo": ccdf_figure(s, fit)}, tmp_path)
    assert "ccdf_demo.svg" in manifest
    assert (tmp_path / "ccdf_demo.svg").exists()
    assert (tmp_path / "ccdf_demo_empirical.csv").exists()
    # manifest hashes match file contents
    import hashlib
    for name, digest in manifest.items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


# -- array emission against the per-point oracles ------------------------------------

def _log10_mismatches():
    """Positive floats whose `np.log10` differs from `math.log10`."""
    v = make_rng(5).random(20_000) * 10.0 ** make_rng(6).integers(-3, 7, 20_000)
    v = v[v > 0]
    return v[np.log10(v) != np.array([math.log10(x) for x in v.tolist()])][:64].tolist()


LOG10_MISMATCHES = _log10_mismatches()


def _ratio(lo, hi):
    # k/8 lands pixels on exact .xx5 ties; k/1000 and k/997 give decimal and
    # full-mantissa values, all at least about 1e-6 apart
    return st.builds(lambda k, d: k / d, st.integers(lo, hi), st.sampled_from([8, 1000, 997]))


LOG_COORD = _ratio(1, 10**7) | st.sampled_from(LOG10_MISMATCHES)
LINEAR_COORD = _ratio(-10**6, 10**6)


@st.composite
def figures(draw):
    """1-3 series on one scale, each 'points' or 'line', plus bars when linear."""
    scale = draw(st.sampled_from(["loglog", "linear"]))
    coord = LOG_COORD if scale == "loglog" else LINEAR_COORD
    out = []
    for i in range(draw(st.integers(1, 3))):
        pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=30))
        style = draw(st.sampled_from(["points", "line"]))
        labels = ()
        if scale == "linear" and style == "points" and draw(st.booleans()):
            labels = tuple(draw(st.lists(st.sampled_from(["a", "b&c", "<d>"]),
                                         min_size=len(pts), max_size=len(pts))))
        out.append(PlotSeries(name=f"s{i}", points=pts, scale=scale, style=style,
                              labels=labels))
    if scale == "linear" and draw(st.booleans()):
        heights = draw(st.lists(_ratio(0, 10**6), min_size=1, max_size=8))
        out.append(bar_series("bars", [(f"b{j}", h) for j, h in enumerate(heights)]))
    return out


def test_log10_mismatches_exist():
    assert len(LOG10_MISMATCHES) == 64


@settings(max_examples=150, deadline=None)
@given(figure=figures(), title=st.sampled_from(["", "ccdf & <fit>"]))
def test_svg_and_series_csv_equal_the_per_point_oracles(figure, title):
    assert render_svg(figure, title=title) == render_svg_loop(figure, title=title)
    for s in figure:
        assert series_csv(s) == series_csv_loop(s)


@pytest.mark.parametrize("style, element", [
    ("points", '<circle cx="300.38" cy="432.00"'),
    ("line", '<polyline points="64.00,432.00 300.38,432.00 624.00,432.00"'),
], ids=["points", "line"])
def test_svg_points_take_math_log10(style, element):
    # np.log10(x) is one ulp below math.log10(x), which would move the middle
    # point's x from the exact tie 300.375 (written "300.38") to 300.3749...
    x, x_max = 14.274577243083408, 543.6198222429541
    assert np.log10(x) < math.log10(x)
    s = PlotSeries(name="tie", points=((1.0, 1.0), (x, 1.0), (x_max, 1.0)), style=style)
    svg = render_svg([s])
    assert element in svg
    assert svg == render_svg_loop([s])


def test_ccdf_figure_emission_equals_the_per_point_oracles(pareto_ccdf_figure):
    _, _, figs = pareto_ccdf_figure
    assert_same_text(render_svg(figs, title="ccdf"), render_svg_loop(figs, title="ccdf"))
    for s in figs:
        assert_same_text(series_csv(s), series_csv_loop(s))
