"""End-to-end creator-earnings analysis on the bundled synthetic fixture.

Parse -> impute missing earnings -> floor filter -> single-platform
segmentation -> summary tables, per-platform tail fits, and figure series,
one stage at a time. The rows travel as one columnar `EarningsTable`:
numpy columns such as `table.earnings` and `table.imputed`, while
iterating it reads the rows back as `EarningsRecord`s.
`tailkit.pipeline.run_pipeline` runs the same stages plus the per-year and
per-category fits and writes every table, figure and the manifest;
`tailkit pipeline <csv> --out <dir>` is its command line.

Run:  python demos/05_earnings_pipeline.py
"""

from pathlib import Path

from tailkit import make_sample, power_law_proportion, select_xmin
from tailkit.pipeline import (
    fit_imputation,
    filter_floor,
    impute_earnings,
    nsfw_breakdown,
    parse_csv,
    segment_single_platform,
    stats_table_csv,
    summary_stats,
)
from tailkit.report import ccdf_figure, median_vs_alpha, render_svg

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "earnings_fixture.csv"

parsed = parse_csv(FIXTURE)
print(f"parsed {len(parsed.records)} records "
      f"({parsed.n_rejected} rejected rows); the first: {next(iter(parsed.records))}")

model = fit_imputation(parsed.records)
records, _ = impute_earnings(parsed.records, model)
n_missing = int(records.imputed.sum())
print(f"imputed {n_missing} missing earnings "
      f"(model R^2 = {model.r_squared:.2f} on {model.n_train} rows)")

records, dropped = filter_floor(records, floor=10.0)
print(f"floor filter (> $10/month) dropped {dropped} records")

buckets = segment_single_platform(records)
stats = [summary_stats(s, platform=p) for p, s in buckets.items()]
print("\nper-platform summary:")
print(stats_table_csv(stats))

fits = {}
for platform, sample in buckets.items():
    fit = select_xmin(sample)
    fits[platform] = fit
    share = power_law_proportion(sample, fit)
    print(f"{platform:10s} alpha = {fit.alpha:.2f} above ${fit.xmin:7.2f}; "
          f"power-law share {share:.2f}")

rows, rho = median_vs_alpha(stats, fits)
print(f"\nmedian earnings vs tail exponent, Spearman rho = {rho:.2f}")

print("\nNSFW share by platform-year (first rows):")
for row in nsfw_breakdown(records)[:6]:
    print("  ", row)

# one self-contained SVG per platform is a render_svg call away
platform = max(buckets, key=lambda p: len(buckets[p]))
svg = render_svg(ccdf_figure(buckets[platform], fits[platform]),
                 title=f"{platform} earnings CCDF")
out = Path("ccdf_demo.svg")
out.write_text(svg, encoding="utf-8")
print(f"\nwrote {out} ({len(svg)} bytes) for the {platform} bucket")
