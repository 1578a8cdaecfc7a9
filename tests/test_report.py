import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from tailkit.errors import RenderError
from tailkit.fit import TailFit, select_xmin
from tailkit.pipeline import PlatformStats
from tailkit.powerlaw import PowerLawModel, pl_sample
from tailkit.report import (
    PlotSeries,
    alpha_panel,
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

from oracles import spearman_naive

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
