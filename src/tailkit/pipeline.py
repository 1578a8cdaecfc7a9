"""Creator-earnings data pipeline.

CSV rows of creator-month records are read into one columnar
`EarningsTable` and go through: parsing with validation, linear imputation
of missing earnings, an earnings floor, segmentation into single-platform
buckets, and per-bucket summary statistics. Each stage works on whole
columns and is a pure function of its inputs; shuffling the input rows
changes nothing.

`run_pipeline` adds the tail fits per platform, per platform and year and
per category, and writes every artifact of `tailkit pipeline`. A group too
small to fit, or whose threshold scan fails, is skipped with its reason on
stderr and under the manifest's `skipped` key.

CSV schema (header required, UTF-8):
    creator_id,year,platforms,category,nsfw,members,paid_members,earnings
`platforms` is a semicolon-separated subset of the known platform names;
an empty field means the creator monetizes on the membership platform
alone. `earnings` may be empty (missing, to be imputed). A row that ends
before `platforms` or `earnings` reads them as empty; a row that ends
before any other column is rejected. Each rejected row is reported with
the physical line its record ends on.
"""

import csv
import dataclasses
import itertools
import math
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import DegenerateTail, DomainError, SampleTooSmall, SchemaError, SingularDesign
from .fit import (check_min_tail, check_n_boot, fit_report, gof_pvalue,
                  power_law_proportion, select_xmin)
from .report import (
    LINEAR,
    PlotSeries,
    alpha_panel,
    bar_series,
    category_panel,
    ccdf_figure,
    csv_table,
    json_text,
    median_vs_alpha,
    proportion_figure,
    save_figures,
    sha256,
    write_artifact,
)
from .rng import check_seed
from .sample import CONTINUOUS, Sample, make_sample

KNOWN_PLATFORMS = ("facebook", "instagram", "twitch", "twitter", "youtube")
HOME_PLATFORM = "patreon"  # bucket for creators with no other affiliation

CSV_COLUMNS = ("creator_id", "year", "platforms", "category", "nsfw",
               "members", "paid_members", "earnings")
OPTIONAL_COLUMNS = ("platforms", "earnings")  # a short row may lack these
STATS_COLUMNS = ("platform", "obs", "mean", "median", "sd", "min", "q25", "q75", "max")
NSFW_COLUMNS = ("platform", "year", "obs", "mean", "median", "nsfw_share")

# groupings of the single-platform rows, named as in the manifest's `skipped`
PLATFORM, PLATFORM_YEAR, CATEGORY = "platform", "platform_year", "category"


class EarningsRecord(NamedTuple):
    """One creator-month row, as indexing or iterating an `EarningsTable`
    yields it."""

    creator_id: str
    year: int
    platforms: frozenset
    category: str
    nsfw: bool
    members: int
    paid_members: int
    earnings: float | None = None
    imputed: bool = False


@dataclass(frozen=True, eq=False)
class EarningsTable:
    """Creator-month rows as numpy columns.

    `earnings` is float64 with NaN where missing. `platform_code` indexes
    `platform_sets` (frozensets of platform names) and `category_code`
    indexes `categories`, which is sorted, so code order is name order.
    Indexing or iterating yields `EarningsRecord`s; tables are equal when
    their records are.
    """

    creator_id: np.ndarray  # object array of str
    year: np.ndarray  # int64, as are the member counts
    members: np.ndarray
    paid_members: np.ndarray
    earnings: np.ndarray
    nsfw: np.ndarray  # bool, as is `imputed`
    imputed: np.ndarray
    platform_code: np.ndarray
    category_code: np.ndarray
    platform_sets: tuple
    categories: tuple

    def __len__(self):
        return self.year.size

    def take(self, rows) -> "EarningsTable":
        """The table of `rows`: an index array or a boolean mask."""
        return dataclasses.replace(self, **{
            f.name: getattr(self, f.name)[rows] for f in dataclasses.fields(self)
            if isinstance(getattr(self, f.name), np.ndarray)})

    def __iter__(self):
        return map(
            EarningsRecord, self.creator_id.tolist(), self.year.tolist(),
            map(self.platform_sets.__getitem__, self.platform_code.tolist()),
            map(self.categories.__getitem__, self.category_code.tolist()),
            self.nsfw.tolist(), self.members.tolist(), self.paid_members.tolist(),
            (None if math.isnan(e) else e for e in self.earnings.tolist()),
            self.imputed.tolist())

    def __getitem__(self, i) -> EarningsRecord:
        return next(iter(self.take([range(len(self))[i]])))

    def __eq__(self, other):
        if not isinstance(other, EarningsTable):
            return NotImplemented
        return list(self) == list(other)

    @cached_property
    def _single_platform(self):
        """(names, bucket, order): the sorted single-platform bucket names,
        each row's index into them (-1 for a multi-platform row), and the
        single-platform rows sorted stably by (bucket, year)."""
        buckets = [platform_of(s) for s in self.platform_sets]
        names = sorted({b for b in buckets if b is not None})
        rank = np.array([-1 if b is None else names.index(b) for b in buckets],
                        dtype=np.intp)
        bucket = rank[self.platform_code]
        single = np.flatnonzero(bucket >= 0)
        order = single[np.lexsort((self.year[single], bucket[single]))]
        return names, bucket, order


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
    records: EarningsTable
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


def _parse_platforms(text: str) -> frozenset:
    platforms = frozenset(p.strip().lower() for p in text.split(";") if p.strip())
    unknown = platforms - set(KNOWN_PLATFORMS)
    if unknown:
        raise ValueError(f"unknown platform(s): {', '.join(sorted(unknown))}")
    return platforms


def _convert(texts, parse):
    """(values, errors): `parse` of each text, with 0 in place of each
    ValueError, whose message `errors` keeps by position."""
    try:
        return list(map(parse, texts)), {}
    except ValueError:
        values, errors = [], {}
        for i, text in enumerate(texts):
            try:
                values.append(parse(text))
            except ValueError as exc:
                values.append(0)
                errors[i] = str(exc)
        return values, errors


def _int64(texts, name):
    """(column, errors): each text read by `int` into an int64 column, with
    0 in place of a text that does not parse or fit, and its message."""
    values, errors = _convert(texts, int)
    try:
        return np.array(values, dtype=np.int64), errors
    except OverflowError:
        for i, v in enumerate(values):
            if not -2**63 <= v < 2**63:
                values[i] = 0
                errors[i] = f"{name} {v} does not fit in 64 bits"
        return np.array(values, dtype=np.int64), errors


class _Decoder:
    """Parses each distinct text of a column once, across all blocks:
    `values[code]` is the parse of a text, None where it raised ValueError
    with the message `errors[code]`."""

    def __init__(self, parse):
        self.parse, self.index, self.values, self.errors = parse, {}, [], {}

    def __call__(self, texts):
        """(codes, errors): each text's code, and by position the message
        of each text that does not parse."""
        for text in dict.fromkeys(texts):
            if text not in self.index:
                self.index[text] = code = len(self.values)
                try:
                    self.values.append(self.parse(text))
                except ValueError as exc:
                    self.values.append(None)
                    self.errors[code] = str(exc)
        codes = np.fromiter(map(self.index.__getitem__, texts), dtype=np.intp,
                            count=len(texts))
        bad = np.flatnonzero(np.isin(codes, list(self.errors))).tolist()
        return codes, {i: self.errors[codes[i]] for i in bad}


def _where(mask, message) -> dict:
    return {i: message(i) for i in np.flatnonzero(mask).tolist()}


_BLOCK = 1 << 11  # rows parsed at a time, so one block's field strings are alive


def parse_csv(path) -> ParseResult:
    """Read earnings records into an `EarningsTable`, rejecting malformed
    rows with diagnostics numbered by the physical line each row ends on.
    Missing required columns raise SchemaError; so does, from the reading
    of the header and rows, a csv.Error (such as a field longer than
    `csv.field_size_limit()`), naming its line, and text that is not UTF-8,
    naming the file (decoding runs ahead of the lines).

    Blank lines are skipped. Rows are parsed a block at a time; each
    distinct `platforms`, `category` and `nsfw` text is parsed once.
    """
    decode = {"platforms": _Decoder(_parse_platforms), "nsfw": _Decoder(_parse_bool),
              "category": _Decoder(lambda t: t.strip().lower())}
    parts, diagnostics, rows, lines = [], [], [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:  # a leading BOM is not data
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            missing = [c for c in CSV_COLUMNS if c not in header]
            if missing:
                raise SchemaError(f"missing required columns: {', '.join(missing)}")
            position = {name: i for i, name in enumerate(header)}  # the last of repeats
            for row in filter(None, reader):  # blank lines read as []
                rows.append(row)
                lines.append(reader.line_num)
                if len(rows) == _BLOCK:
                    parts.append(_parse_block(rows, lines, position, decode, diagnostics))
                    rows, lines = [], []
        except csv.Error as exc:
            raise SchemaError(f"line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise SchemaError(f"{path}: not valid UTF-8") from None
    parts.append(_parse_block(rows, lines, position, decode, diagnostics))
    col = {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
    texts = decode["category"].values  # normalized, by code; sorted below
    categories = tuple(sorted(set(texts)))
    col["category_code"] = np.array([categories.index(c) for c in texts],
                                    dtype=np.intp)[col["category_code"]]
    table = EarningsTable(
        **col, imputed=np.zeros(col["year"].size, dtype=bool), categories=categories,
        platform_sets=tuple(frozenset() if s is None else s
                            for s in decode["platforms"].values))
    return ParseResult(records=table, diagnostics=diagnostics)


def _parse_block(rows, lines, position, decode, diagnostics) -> dict:
    """The accepted `rows` as columns, `lines` the physical lines they end
    on; appends a diagnostic per rejected row to `diagnostics`. Each rule
    maps the rows it rejects to a message; a row failing several rules gets
    the message of the first, in the order of `rules` below."""
    n = len(rows)
    columns = list(itertools.zip_longest(*rows, fillvalue=""))
    col = {c: columns[position[c]] if position[c] < len(columns) else ("",) * n
           for c in CSV_COLUMNS}
    width = np.fromiter(map(len, rows), dtype=np.intp, count=n)
    year, year_errors = _int64(col["year"], "year")
    platform_code, platform_errors = decode["platforms"](col["platforms"])
    members, members_errors = _int64(col["members"], "members")
    paid, paid_errors = _int64(col["paid_members"], "paid_members")
    earn_text = [t.strip() for t in col["earnings"]]
    earnings, earn_errors = _convert(earn_text, lambda t: float(t) if t else math.nan)
    earnings = np.array(earnings, dtype=float)
    nsfw_code, nsfw_errors = decode["nsfw"](col["nsfw"])
    rules = (
        _where(width <= max(position[c] for c in CSV_COLUMNS if c not in OPTIONAL_COLUMNS),
               lambda i: "missing field(s): " + ", ".join(
                   c for c in CSV_COLUMNS if position[c] >= width[i])),
        year_errors, platform_errors, members_errors, paid_errors,
        _where((members < 0) | (paid < 0), lambda i: "member counts must be nonnegative"),
        _where(paid > members, lambda i: f"paid_members {paid[i]} exceeds members {members[i]}"),
        earn_errors,
        _where(~(np.isfinite(earnings) & (earnings >= 0))
               & np.array(earn_text, dtype=bool),  # a nonempty text
               lambda i: f"earnings must be a finite nonnegative number, got {earn_text[i]}"),
        nsfw_errors,
    )
    reasons = {}
    for rule in rules:
        for i, message in rule.items():
            reasons.setdefault(i, message)
    diagnostics.extend(f"line {lines[i]}: {reasons[i]}" for i in sorted(reasons))
    keep = np.ones(n, dtype=bool)
    keep[list(reasons)] = False
    nsfw = np.array([v is True for v in decode["nsfw"].values], dtype=bool)
    return {"creator_id": np.array([t.strip() for t in col["creator_id"]], dtype=object)[keep],
            "year": year[keep], "members": members[keep], "paid_members": paid[keep],
            "earnings": earnings[keep], "nsfw": nsfw[nsfw_code][keep],
            "platform_code": platform_code[keep],
            "category_code": decode["category"](col["category"])[0][keep]}


# -- imputation -----------------------------------------------------------------

def _design(table: EarningsTable, rows, categories, years) -> np.ndarray:
    """Regression rows of `table[rows]`: intercept, paid_members, members,
    category one-hots, nsfw, year one-hots. The first level of each block
    is the reference and carries no column; unseen levels collapse to the
    reference."""
    n_cat = max(len(categories) - 1, 0)
    n_year = max(len(years) - 1, 0)
    X = np.zeros((len(rows), 4 + n_cat + n_year))
    X[:, 0] = 1.0
    X[:, 1] = table.paid_members[rows]
    X[:, 2] = table.members[rows]
    X[:, 3 + n_cat] = table.nsfw[rows]
    cat_level = np.array([categories.index(c) if c in categories else -1
                          for c in table.categories], dtype=np.intp)[table.category_code[rows]]
    year = table.year[rows]
    pos = np.minimum(np.searchsorted(years, year), len(years) - 1)
    year_level = np.where(np.take(years, pos) == year, pos, -1)
    for offset, level in ((2, cat_level), (3 + n_cat, year_level)):
        hit = np.flatnonzero(level > 0)
        X[hit, offset + level[hit]] = 1.0
    return X


@dataclass(frozen=True)
class ImputationModel:
    """Linear model of earnings, trained on observed rows only.

    Fit by normal equations with a small ridge jitter for rank safety; see
    `_design` for the encoding.
    """

    coef: np.ndarray
    categories: tuple
    years: tuple
    r_squared: float
    n_train: int


_RIDGE_JITTER = 1e-8
_MIN_TRAIN = 50


def fit_imputation(table: EarningsTable) -> ImputationModel:
    """Least-squares earnings model on rows with observed earnings.

    Rows enter in a canonical order, a stable sort on (creator_id, year,
    category, earnings), so the fit is a pure function of the row
    multiset, not of the input ordering.
    """
    observed = np.flatnonzero(~np.isnan(table.earnings))
    if observed.size < _MIN_TRAIN:
        raise SampleTooSmall(
            f"imputation needs >= {_MIN_TRAIN} observed rows, got {observed.size}")
    rank = np.unique(table.creator_id[observed], return_inverse=True)[1]
    rows = observed[np.lexsort((table.earnings[observed], table.category_code[observed],
                                table.year[observed], rank))]
    categories = tuple(table.categories[c]
                       for c in np.unique(table.category_code[rows]).tolist())
    years = tuple(np.unique(table.year[rows]).tolist())
    X = _design(table, rows, categories, years)
    y = table.earnings[rows]
    gram = X.T @ X + _RIDGE_JITTER * np.eye(X.shape[1])
    with np.errstate(over="ignore"):  # an overflow gives the error below
        Xty = X.T @ y
    try:
        coef = np.linalg.solve(gram, Xty)
    except np.linalg.LinAlgError as exc:
        raise SingularDesign(str(exc)) from None
    if not np.all(np.isfinite(coef)):
        raise SingularDesign("non-finite coefficients")
    resid = y - X @ coef
    with np.errstate(over="ignore"):
        tss, rss = _sums_of_squares(y, resid)
    if not (math.isfinite(tss) and math.isfinite(rss)):  # r2 is scale-free
        scale = max(float(np.abs(y).max()), float(np.abs(resid).max()))
        tss, rss = _sums_of_squares(y / scale, resid / scale)
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    return ImputationModel(coef=coef, categories=categories, years=years,
                           r_squared=r2, n_train=int(observed.size))


def _sums_of_squares(y, resid):
    """(total, residual) sums of squares of a least-squares fit."""
    return float(((y - y.mean()) ** 2).sum()), float((resid**2).sum())


def impute_earnings(table: EarningsTable, model: ImputationModel):
    """Fill missing earnings with model predictions (clamped at 0) and flag
    those rows `imputed`.

    Observed rows pass through untouched. Rows whose category the model has
    never seen are imputed with the reference-level encoding; their count
    is returned alongside the table.
    """
    missing = np.flatnonzero(np.isnan(table.earnings))
    X = _design(table, missing, model.categories, model.years)
    earnings, imputed = table.earnings.copy(), table.imputed.copy()
    # one dot product per row: a matrix product rounds some rows differently
    earnings[missing] = [max(float(x @ model.coef), 0.0) for x in X]
    imputed[missing] = True
    known = np.array([len(model.categories) <= 1 or c in model.categories
                      for c in table.categories], dtype=bool)
    n_unseen = int(missing.size - known[table.category_code[missing]].sum())
    return dataclasses.replace(table, earnings=earnings, imputed=imputed), n_unseen


# -- filtering and segmentation ----------------------------------------------------

def filter_floor(table: EarningsTable, floor: float = 10.0, inclusive: bool = False):
    """Keep rows earning above the floor (or at least it, if inclusive).

    Returns (kept, n_dropped). All rows must have earnings by now.
    """
    keep = table.earnings >= floor if inclusive else table.earnings > floor
    return table.take(keep), len(table) - int(keep.sum())


def platform_of(platforms: frozenset) -> str | None:
    """Single-platform bucket name of a platform set, or None for several."""
    if len(platforms) > 1:
        return None
    if len(platforms) == 1:
        return next(iter(platforms))
    return HOME_PLATFORM


def _groups(table: EarningsTable, by: str):
    """(key, row indices) of each group of single-platform rows, in key
    order: by PLATFORM (key: bucket name), PLATFORM_YEAR ((bucket, year))
    or CATEGORY (category)."""
    names, bucket, order = table._single_platform
    keys = {PLATFORM: (bucket,), PLATFORM_YEAR: (bucket, table.year),
            CATEGORY: (table.category_code,)}[by]
    if by == CATEGORY:
        order = order[np.argsort(table.category_code[order], kind="stable")]
    if not order.size:
        return []
    edge = np.zeros(order.size, dtype=bool)
    edge[0] = True
    for k in keys:
        k = k[order]
        edge[1:] |= k[1:] != k[:-1]
    groups = np.split(order, np.flatnonzero(edge)[1:])
    first = order[edge]
    if by == PLATFORM:
        labels = [names[b] for b in bucket[first].tolist()]
    elif by == PLATFORM_YEAR:
        labels = [(names[b], y) for b, y in zip(bucket[first].tolist(),
                                                table.year[first].tolist())]
    else:
        labels = [table.categories[c] for c in table.category_code[first].tolist()]
    return list(zip(labels, groups))


def group_samples(table: EarningsTable, by: str) -> dict:
    """Earnings samples of the `_groups` of single-platform rows, in key order."""
    return {key: make_sample(table.earnings[rows], kind=CONTINUOUS)
            for key, rows in _groups(table, by)}


def segment_single_platform(table: EarningsTable) -> dict:
    """Earnings samples keyed by platform, multi-platform creators dropped."""
    return group_samples(table, PLATFORM)


# -- summaries ----------------------------------------------------------------------

def _overflow_safe(stat, v) -> float:
    """`stat(v)` of a statistic with stat(c*v) = c*stat(v) for c > 0. Where
    it overflows, it is c times `stat` of v/c, c being the largest |v|."""
    with np.errstate(over="ignore"):
        out = float(stat(v))
    if math.isfinite(out):
        return out
    scale = float(np.abs(v).max())
    return scale * float(stat(v / scale))


def summary_stats(sample: Sample, platform: str = "") -> PlatformStats:
    """Mean, sample SD (n-1), and linear-interpolation quantiles. Mean and
    SD are finite for every sample: where the direct computation overflows
    (the SD does once deviations pass about 1.3e154), they are computed on
    the values divided by the largest and scaled back; otherwise they are
    the direct results, bit for bit."""
    v = sample.values
    n = v.size
    degenerate = n < 2
    sd = 0.0 if degenerate else _overflow_safe(lambda x: x.std(ddof=1), v)
    q25, med, q75 = (float(q) for q in np.quantile(v, [0.25, 0.5, 0.75]))
    return PlatformStats(
        platform=platform, obs=n, mean=_overflow_safe(np.mean, v), median=med, sd=sd,
        min=float(v[0]), q25=q25, q75=q75, max=float(v[-1]),
        sd_degenerate=degenerate)


def nsfw_breakdown(table: EarningsTable):
    """Per (platform, year): observation count, mean and median earnings,
    and the share of rows flagged nsfw. Multi-platform rows are excluded;
    empty buckets do not appear."""
    rows = []
    for (p, year), idx in _groups(table, PLATFORM_YEAR):
        earn = np.sort(table.earnings[idx])
        rows.append((p, year, idx.size, float(earn.mean()), float(np.median(earn)),
                     int(table.nsfw[idx].sum()) / idx.size))
    return rows


# -- table emission -------------------------------------------------------------------

def stats_table_csv(stats_list) -> str:
    return csv_table(STATS_COLUMNS,
                     (tuple(getattr(s, c) for c in STATS_COLUMNS) for s in stats_list))


def nsfw_table_csv(rows) -> str:
    return csv_table(NSFW_COLUMNS, rows)


# -- tail fits and the whole run --------------------------------------------------------

def fit_groups(samples: dict, min_tail: int):
    """Threshold-scan fit of each sample. Returns (fits, skipped): fits keyed
    like `samples`, and the reason for each other group keyed by its label
    (`platform/year` for tuple keys). A group is skipped, with a line on
    stderr, when it holds fewer than `min_tail` values or its scan
    raises SampleTooSmall or DegenerateTail."""
    fits, skipped = {}, {}
    for key, s in samples.items():
        try:
            if len(s) < min_tail:
                raise SampleTooSmall(f"only {len(s)} observations")
            fits[key] = select_xmin(s, min_tail)
        except (SampleTooSmall, DegenerateTail) as exc:
            label = "/".join(map(str, key)) if isinstance(key, tuple) else key
            skipped[label] = str(exc)
            print(f"skipping fit for {label}: {exc}", file=sys.stderr)
    return fits, skipped


def run_pipeline(input, outdir, *, floor, floor_inclusive, min_tail, bootstrap,
                 seed, workers) -> dict:
    """Earnings CSV at `input` to the tables, fit reports, figures and
    `manifest.json` of `tailkit pipeline`, written into `outdir` byte for
    byte reproducibly; `workers` sets the bootstrap's process count, which
    does not change its results. Returns the manifest."""
    t0 = time.perf_counter()
    if bootstrap:
        check_n_boot(bootstrap)
    if not math.isfinite(floor):
        raise DomainError(f"floor must be a finite number, got {floor}")
    check_min_tail(min_tail)
    check_seed(seed)
    parsed = parse_csv(input)  # before the output directory is made
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = {}

    def write(rel, text):
        outputs[rel] = write_artifact(outdir / rel, text)

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
    write("table1_platform_stats.json", json_text([vars(s) for s in stats_list]))
    write("table2_nsfw_breakdown.csv", nsfw_table_csv(nsfw_rows))
    write("table2_nsfw_breakdown.json",
          json_text([dict(zip(NSFW_COLUMNS, row)) for row in nsfw_rows]))

    skipped = {}
    figures = {}
    figure_inputs = {}  # figure name -> sha256 of the fit report it draws
    fits, skipped[PLATFORM] = fit_groups(buckets, min_tail)
    for p, fit in fits.items():
        s = buckets[p]
        gof = None
        if bootstrap:
            gof = gof_pvalue(s, fit, n_boot=bootstrap, seed=seed, workers=workers)
        write(f"fits/{p}.json", json_text(fit_report(fit, n=len(s), gof=gof, seed=seed)))
        figures[f"ccdf_{p}"] = ccdf_figure(s, fit)
        figure_inputs[f"ccdf_{p}"] = outputs[f"fits/{p}.json"]

    fits_by_year, skipped[PLATFORM_YEAR] = fit_groups(
        group_samples(records, PLATFORM_YEAR), min_tail)
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
            ("platform", "proportion"), zip(ranked.labels, ranked.points[:, 1].tolist())))
        figures["power_law_proportion"] = [ranked]

    cat_samples = group_samples(records, CATEGORY)
    cat_fits, skipped[CATEGORY] = fit_groups(cat_samples, min_tail)
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
    (outdir / "manifest.json").write_text(json_text(manifest), encoding="utf-8")
    return manifest
