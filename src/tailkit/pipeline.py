"""Creator-earnings data pipeline.

CSV rows of creator-month records go through: parsing with validation,
linear imputation of missing earnings, an earnings floor, segmentation into
single-platform buckets, and per-bucket summary statistics. Every stage is
a pure function of its inputs; shuffling the input rows changes nothing.

`run_pipeline` adds the tail fits per platform, per platform and year and
per category, and writes every artifact of `tailkit pipeline`. A group too
small to fit, or whose threshold scan fails, is skipped with its reason on
stderr and under the manifest's `skipped` key.

CSV schema (header required, UTF-8):
    creator_id,year,platforms,category,nsfw,members,paid_members,earnings
`platforms` is a semicolon-separated subset of the known platform names;
an empty field means the creator monetizes on the membership platform
alone. `earnings` may be empty (missing, to be imputed).
"""

import csv
import itertools
import json
import operator
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DegenerateTail, SampleTooSmall, SchemaError, SingularDesign
from .fit import (FitOptions, check_n_boot, fit_report, gof_pvalue,
                  power_law_proportion, select_xmin)
from .report import (
    LINEAR,
    PlotSeries,
    alpha_panel,
    bar_series,
    category_panel,
    ccdf_figure,
    csv_table,
    median_vs_alpha,
    proportion_figure,
    save_figures,
    sha256,
    write_artifact,
)
from .sample import CONTINUOUS, Sample, make_sample

KNOWN_PLATFORMS = ("facebook", "instagram", "twitch", "twitter", "youtube")
HOME_PLATFORM = "patreon"  # bucket for creators with no other affiliation

CSV_COLUMNS = ("creator_id", "year", "platforms", "category", "nsfw",
               "members", "paid_members", "earnings")
STATS_COLUMNS = ("platform", "obs", "mean", "median", "sd", "min", "q25", "q75", "max")
NSFW_COLUMNS = ("platform", "year", "obs", "mean", "median", "nsfw_share")


@dataclass(frozen=True)
class EarningsRecord:
    """One creator-month row."""

    creator_id: str
    year: int
    platforms: frozenset
    category: str
    nsfw: bool
    members: int
    paid_members: int
    earnings: float | None = None
    imputed: bool = False


@dataclass(frozen=True)
class PlatformStats:
    """Order-statistics summary of one earnings bucket (USD/month)."""

    platform: str
    obs: int
    mean: float
    median: float
    sd: float
    min: float
    q25: float
    q75: float
    max: float
    sd_degenerate: bool = False  # single observation: sd reported as 0


@dataclass(frozen=True)
class ParseResult:
    records: list
    diagnostics: list = field(default_factory=list)

    @property
    def n_rejected(self) -> int:
        return len(self.diagnostics)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no", ""):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def parse_csv(path) -> ParseResult:
    """Read earnings records, rejecting malformed rows with line-numbered
    diagnostics. Missing required columns raise SchemaError."""
    records, diagnostics = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"missing required columns: {', '.join(missing)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                records.append(_parse_row(row))
            except ValueError as exc:
                diagnostics.append(f"line {lineno}: {exc}")
    return ParseResult(records=records, diagnostics=diagnostics)


def _parse_row(row) -> EarningsRecord:
    year = int(row["year"])
    raw = (row["platforms"] or "").strip()
    platforms = frozenset(p.strip().lower() for p in raw.split(";") if p.strip())
    unknown = platforms - set(KNOWN_PLATFORMS)
    if unknown:
        raise ValueError(f"unknown platform(s): {', '.join(sorted(unknown))}")
    members = int(row["members"])
    paid = int(row["paid_members"])
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
        nsfw=_parse_bool(row["nsfw"]),
        members=members,
        paid_members=paid,
        earnings=earnings,
        imputed=False,
    )


# -- imputation -----------------------------------------------------------------

def _design_row(rec: EarningsRecord, categories, years) -> np.ndarray:
    """Regression row: intercept, paid_members, members, category one-hots,
    nsfw, year one-hots. The first level of each block is the reference and
    carries no column; unseen levels collapse to the reference."""
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


@dataclass(frozen=True)
class ImputationModel:
    """Linear model of earnings, trained on observed rows only.

    Fit by normal equations with a small ridge jitter for rank safety; see
    `_design_row` for the encoding.
    """

    coef: np.ndarray
    categories: tuple
    years: tuple
    r_squared: float
    n_train: int

    def predict(self, rec: EarningsRecord) -> float:
        return float(_design_row(rec, self.categories, self.years) @ self.coef)

    def knows_category(self, rec: EarningsRecord) -> bool:
        return len(self.categories) <= 1 or rec.category in self.categories


_RIDGE_JITTER = 1e-8
_MIN_TRAIN = 50


def fit_imputation(records) -> ImputationModel:
    """Least-squares earnings model on rows with observed earnings.

    Rows are accumulated in a canonical order so the fit is a pure function
    of the record multiset, not of the input ordering.
    """
    observed = [r for r in records if r.earnings is not None]
    if len(observed) < _MIN_TRAIN:
        raise SampleTooSmall(
            f"imputation needs >= {_MIN_TRAIN} observed rows, got {len(observed)}")
    observed.sort(key=lambda r: (r.creator_id, r.year, r.category, r.earnings))
    categories = tuple(sorted({r.category for r in observed}))
    years = tuple(sorted({r.year for r in observed}))
    X = np.array([_design_row(r, categories, years) for r in observed])
    y = np.array([r.earnings for r in observed])
    gram = X.T @ X + _RIDGE_JITTER * np.eye(X.shape[1])
    try:
        coef = np.linalg.solve(gram, X.T @ y)
    except np.linalg.LinAlgError as exc:
        raise SingularDesign(str(exc)) from None
    if not np.all(np.isfinite(coef)):
        raise SingularDesign("non-finite coefficients")
    resid = y - X @ coef
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / tss if tss > 0 else 1.0
    return ImputationModel(coef=coef, categories=categories, years=years,
                           r_squared=r2, n_train=len(observed))


def impute_earnings(records, model: ImputationModel):
    """Fill missing earnings with model predictions (clamped at 0).

    Observed rows pass through untouched. Rows whose category the model has
    never seen are imputed with the reference-level encoding; their count
    is returned alongside the records.
    """
    out = []
    n_unseen = 0
    for r in records:
        if r.earnings is not None:
            out.append(r)
            continue
        if not model.knows_category(r):
            n_unseen += 1
        pred = max(model.predict(r), 0.0)
        out.append(replace(r, earnings=pred, imputed=True))
    return out, n_unseen


# -- filtering and segmentation ----------------------------------------------------

def filter_floor(records, floor: float = 10.0, inclusive: bool = False):
    """Keep records earning above the floor (or at least it, if inclusive).

    Returns (kept, n_dropped). All records must have earnings by now.
    """
    if inclusive:
        kept = [r for r in records if r.earnings >= floor]
    else:
        kept = [r for r in records if r.earnings > floor]
    return kept, len(records) - len(kept)


def platform_of(rec: EarningsRecord) -> str | None:
    """Single-platform bucket name, or None for multi-platform records."""
    if len(rec.platforms) > 1:
        return None
    if len(rec.platforms) == 1:
        return next(iter(rec.platforms))
    return HOME_PLATFORM


def group_single_platform(records, key, value) -> dict:
    """`value(record)` of each single-platform record, grouped by
    `key(platform, record)` in input order; multi-platform records are
    dropped. One pass, so each record is read once."""
    groups = {}
    for r in records:
        p = platform_of(r)
        if p is None:
            continue
        groups.setdefault(key(p, r), []).append(value(r))
    return groups


def group_samples(records, key) -> dict:
    """Earnings samples of `group_single_platform` groups, in key order."""
    groups = group_single_platform(records, key, operator.attrgetter("earnings"))
    return {k: make_sample(v, kind=CONTINUOUS) for k, v in sorted(groups.items())}


def segment_single_platform(records) -> dict:
    """Earnings samples keyed by platform, multi-platform creators dropped."""
    return group_samples(records, lambda p, r: p)


# -- summaries ----------------------------------------------------------------------

def summary_stats(sample: Sample, platform: str = "") -> PlatformStats:
    """Mean, sample SD (n-1), and linear-interpolation quantiles."""
    v = sample.values
    n = v.size
    degenerate = n < 2
    sd = 0.0 if degenerate else float(v.std(ddof=1))
    q25, med, q75 = (float(q) for q in np.quantile(v, [0.25, 0.5, 0.75]))
    return PlatformStats(
        platform=platform, obs=n, mean=float(v.mean()), median=med, sd=sd,
        min=float(v[0]), q25=q25, q75=q75, max=float(v[-1]),
        sd_degenerate=degenerate)


def nsfw_breakdown(records):
    """Per (platform, year): observation count, mean and median earnings,
    and the share of records flagged nsfw. Multi-platform records are
    excluded; empty buckets do not appear."""
    groups = group_single_platform(records, lambda p, r: (p, r.year), lambda r: r)
    rows = []
    for (p, year), recs in sorted(groups.items()):
        earn = np.sort(np.array([r.earnings for r in recs], dtype=float))
        share = sum(1 for r in recs if r.nsfw) / len(recs)
        rows.append((p, year, len(recs), float(earn.mean()),
                     float(np.median(earn)), share))
    return rows


# -- table emission -------------------------------------------------------------------

def stats_table_csv(stats_list) -> str:
    return csv_table(STATS_COLUMNS,
                     (tuple(getattr(s, c) for c in STATS_COLUMNS) for s in stats_list))


def nsfw_table_csv(rows) -> str:
    return csv_table(NSFW_COLUMNS, rows)


# -- tail fits and the whole run --------------------------------------------------------

def fit_groups(samples: dict, opts: FitOptions):
    """Threshold-scan fit of each sample. Returns (fits, skipped): fits keyed
    like `samples`, and the reason for each other group keyed by its label
    (`platform/year` for tuple keys). A group is skipped, with a line on
    stderr, when it holds fewer than `opts.min_tail` values or its scan
    raises SampleTooSmall or DegenerateTail."""
    fits, skipped = {}, {}
    for key, s in samples.items():
        try:
            if len(s) < opts.min_tail:
                raise SampleTooSmall(f"only {len(s)} observations")
            fits[key] = select_xmin(s, opts)
        except (SampleTooSmall, DegenerateTail) as exc:
            label = "/".join(map(str, key)) if isinstance(key, tuple) else key
            skipped[label] = str(exc)
            print(f"skipping fit for {label}: {exc}", file=sys.stderr)
    return fits, skipped


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def run_pipeline(input, outdir, *, floor, floor_inclusive, min_tail, bootstrap,
                 seed, workers) -> dict:
    """Earnings CSV at `input` to the tables, fit reports, figures and
    `manifest.json` of `tailkit pipeline`, written into `outdir` byte for
    byte reproducibly; `workers` sets the bootstrap's process count, which
    does not change its results. Returns the manifest."""
    t0 = time.perf_counter()
    if bootstrap > 0:
        check_n_boot(bootstrap)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = {}

    def write(rel, text):
        outputs[rel] = write_artifact(outdir / rel, text)

    parsed = parse_csv(input)
    if parsed.diagnostics:
        write("rejected_rows.log", "\n".join(parsed.diagnostics) + "\n")
        print(f"rejected {len(parsed.diagnostics)} malformed rows", file=sys.stderr)
    records = parsed.records
    if not records:
        raise SchemaError("no usable records in input")

    records, n_unseen = impute_earnings(records, fit_imputation(records))
    if n_unseen:
        print(f"{n_unseen} records imputed with reference-level category",
              file=sys.stderr)
    records, n_dropped = filter_floor(records, floor=floor, inclusive=floor_inclusive)
    print(f"floor filter dropped {n_dropped} records", file=sys.stderr)

    buckets = segment_single_platform(records)
    if not buckets:
        print("warning: no single-platform records; nothing to fit", file=sys.stderr)

    stats_list = [summary_stats(s, platform=p) for p, s in buckets.items()]
    nsfw_rows = nsfw_breakdown(records)
    write("table1_platform_stats.csv", stats_table_csv(stats_list))
    write("table1_platform_stats.json", _json([vars(s) for s in stats_list]))
    write("table2_nsfw_breakdown.csv", nsfw_table_csv(nsfw_rows))
    write("table2_nsfw_breakdown.json",
          _json([dict(zip(NSFW_COLUMNS, row)) for row in nsfw_rows]))

    opts = FitOptions(kind=CONTINUOUS, min_tail=min_tail)
    skipped = {}
    figures = {}
    figure_inputs = {}  # figure name -> sha256 of the fit report it draws
    fits, skipped["platform"] = fit_groups(buckets, opts)
    for p, fit in fits.items():
        s = buckets[p]
        gof = None
        if bootstrap > 0:
            gof = gof_pvalue(s, fit, n_boot=bootstrap, seed=seed, opts=opts,
                             workers=workers)
        write(f"fits/{p}.json", _json(fit_report(fit, n=len(s), gof=gof, seed=seed)))
        figures[f"ccdf_{p}"] = ccdf_figure(s, fit)
        figure_inputs[f"ccdf_{p}"] = outputs[f"fits/{p}.json"]

    fits_by_year, skipped["platform_year"] = fit_groups(
        group_samples(records, lambda p, r: (p, r.year)), opts)
    if fits_by_year:
        pooled_rows, year_rows = alpha_panel(fits_by_year)
        write("alpha_by_platform.csv", csv_table(("platform", "alpha_mean"), pooled_rows))
        write("alpha_by_year.csv", csv_table(("platform", "year", "alpha"), year_rows))
        figures["alpha_by_platform"] = [bar_series("alpha_mean", pooled_rows)]
        figures["alpha_time_series"] = [
            PlotSeries(name=p, scale=LINEAR, style="line",
                       points=tuple((float(y), a) for _, y, a in rows))
            for p, rows in itertools.groupby(year_rows, key=lambda row: row[0])]

    rho = None
    if fits:
        rows, rho = median_vs_alpha(stats_list, fits)
        write("median_vs_alpha.csv", csv_table(("platform", "median", "alpha"), rows))
        figures["median_vs_alpha"] = [
            PlotSeries(name="platforms", scale=LINEAR, style="points",
                       points=tuple((m, a) for _, m, a in rows),
                       labels=tuple(p for p, _, _ in rows))]
        ranked = proportion_figure(
            {p: power_law_proportion(buckets[p], fit) for p, fit in fits.items()})
        write("power_law_proportion.csv", csv_table(
            ("platform", "proportion"), zip(ranked.labels, (y for _, y in ranked.points))))
        figures["power_law_proportion"] = [ranked]

    cat_samples = group_samples(records, lambda p, r: r.category)
    cat_fits, skipped["category"] = fit_groups(cat_samples, opts)
    if cat_fits:
        rows, simple, weighted = category_panel(
            cat_fits, {c: len(cat_samples[c]) for c in cat_fits})
        write("alpha_by_category.csv", csv_table(
            ("category", "alpha", "obs"),
            [*rows, ("simple_average", simple, ""), ("weighted_average", weighted, "")]))
        figures["alpha_by_category"] = [bar_series("alpha", [(c, a) for c, a, _ in rows])]

    for name, digest in save_figures(figures, outdir / "figures").items():
        outputs[f"figures/{name}"] = digest

    manifest = {
        "command": "pipeline",
        "version": __version__,
        "options": {"floor": floor, "floor_inclusive": floor_inclusive,
                    "min_tail": min_tail, "bootstrap": bootstrap},
        "seed": seed,
        "input": {"path": str(input), "sha256": sha256(Path(input).read_bytes())},
        "outputs": dict(sorted(outputs.items())),
        "figure_inputs": dict(sorted(figure_inputs.items())),
        "skipped": skipped,
        "stats": {"median_vs_alpha_spearman": rho},
        "wall_clock_s": round(time.perf_counter() - t0, 3),
    }
    (outdir / "manifest.json").write_text(_json(manifest), encoding="utf-8")
    return manifest
