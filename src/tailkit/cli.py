"""Command-line interface.

Four subcommands cover the reproduction workflow: `fit` a single column of
values, `simulate` a growth model, `pipeline` a full earnings CSV into
tables and figures, and `compare` tail estimators on one sample.

Conventions: stdout carries data (JSON or CSV) only, diagnostics go to
stderr. Exit codes: 0 ok, 1 I/O failure, 2 schema or configuration error,
3 sample too small, 4 degenerate data. Every stochastic run records its
seed; defaults are fixed constants, so bare invocations reproduce exactly.
The TAILKIT_WORKERS environment variable overrides the process count used
for bootstrap replicates.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    DegenerateTail,
    DomainError,
    EmptySample,
    KindMismatch,
    RenderError,
    SampleTooSmall,
    SchemaError,
    SingularDesign,
    TailkitError,
)
from .estimators import comparison_csv, estimator_comparison
from .fit import FitOptions, fit_report, gof_pvalue, power_law_proportion, select_xmin
from .growth import (
    BA,
    COPY,
    GrowthConfig,
    degrees_csv,
    measure_exponent,
    simulate_ba,
    simulate_copy,
    theoretical_alpha,
)
from .pipeline import (
    fit_imputation,
    filter_floor,
    impute_earnings,
    nsfw_breakdown,
    nsfw_table_csv,
    parse_csv,
    platform_of,
    segment_single_platform,
    stats_table_csv,
    summary_stats,
)
from .report import (
    PlotSeries,
    alpha_panel,
    category_panel,
    ccdf_figure,
    median_vs_alpha,
    proportion_figure,
    save_figures,
)
from .sample import CONTINUOUS, DISCRETE, make_sample

DEFAULT_SEED = 20240301
_EXIT_IO = 1
_EXIT_SCHEMA = 2
_EXIT_TOO_SMALL = 3
_EXIT_DEGENERATE = 4


def _workers() -> int:
    env = os.environ.get("TAILKIT_WORKERS")
    if env:
        return max(int(env), 1)
    return 1


def _read_column(path) -> np.ndarray:
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


def _sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- subcommands ------------------------------------------------------------------

def cmd_fit(args) -> int:
    values = _read_column(args.input)
    sample = make_sample(values, kind=args.kind)
    opts = FitOptions(kind=args.kind, min_tail=args.min_tail,
                      xmin_override=args.xmin)
    fit = select_xmin(sample, opts)
    gof = None
    if args.bootstrap > 0:
        gof = gof_pvalue(sample, fit, n_boot=args.bootstrap, seed=args.seed,
                         opts=opts, workers=_workers())
    report = fit_report(fit, n=len(sample), gof=gof, seed=args.seed)
    report["proportion"] = power_law_proportion(sample, fit)
    report["n_rejected"] = sample.n_rejected
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_simulate(args) -> int:
    if args.model == COPY:
        cfg = GrowthConfig(model=COPY, n_nodes=args.nodes, gamma=args.gamma,
                           seed=args.seed)
        run = simulate_copy(cfg)
    else:
        cfg = GrowthConfig(model=BA, n_nodes=args.nodes, m=args.m, seed=args.seed)
        run = simulate_ba(cfg)
    Path(args.out).write_text(degrees_csv(run), encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    summary = {
        "model": args.model,
        "nodes": args.nodes,
        "seed": args.seed,
        "steps": run.steps,
        "count_sum": int(run.counts.sum()),
        "out": args.out,
    }
    if args.model == COPY:
        summary["gamma"] = args.gamma
        summary["alpha_predicted"] = theoretical_alpha(args.gamma)
    else:
        summary["m"] = args.m
    if args.fit:
        fit = measure_exponent(run)
        summary["fit"] = fit_report(fit, n=int(run.counts.size))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_compare(args) -> int:
    values = _read_column(args.input)
    sample = make_sample(values, kind=args.kind)
    if sample.n_rejected:
        print(f"rejected {sample.n_rejected} non-finite or non-positive values",
              file=sys.stderr)
    estimates = estimator_comparison(sample, seed=args.seed)
    sys.stdout.write(comparison_csv(estimates))
    return 0


def cmd_pipeline(args) -> int:
    t0 = time.perf_counter()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    parsed = parse_csv(args.input)
    if parsed.diagnostics:
        (outdir / "rejected_rows.log").write_text(
            "\n".join(parsed.diagnostics) + "\n", encoding="utf-8")
        print(f"rejected {len(parsed.diagnostics)} malformed rows", file=sys.stderr)
    records = parsed.records
    if not records:
        raise SchemaError("no usable records in input")

    model = fit_imputation(records)
    records, n_unseen = impute_earnings(records, model)
    if n_unseen:
        print(f"{n_unseen} records imputed with reference-level category",
              file=sys.stderr)
    records, n_dropped = filter_floor(records, floor=args.floor,
                                      inclusive=args.floor_inclusive)
    print(f"floor filter dropped {n_dropped} records", file=sys.stderr)

    buckets = segment_single_platform(records)
    if not buckets:
        print("warning: no single-platform records; nothing to fit", file=sys.stderr)

    outputs = {}

    def _write(rel, text):
        path = outdir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        outputs[rel] = hashlib.sha256(text.encode("utf-8")).hexdigest()

    # summary tables, as CSV and JSON
    stats_list = [summary_stats(s, platform=p) for p, s in buckets.items()]
    nsfw_rows = nsfw_breakdown(records)
    _write("table1_platform_stats.csv", stats_table_csv(stats_list))
    _write("table1_platform_stats.json", json.dumps(
        [vars(s) for s in stats_list], indent=2, sort_keys=True) + "\n")
    _write("table2_nsfw_breakdown.csv", nsfw_table_csv(nsfw_rows))
    _write("table2_nsfw_breakdown.json", json.dumps(
        [{"platform": p, "year": y, "obs": o, "mean": mn, "median": md,
          "nsfw_share": sh} for p, y, o, mn, md, sh in nsfw_rows],
        indent=2, sort_keys=True) + "\n")

    opts = FitOptions(kind=CONTINUOUS, min_tail=args.min_tail)
    figures = {}
    figure_inputs = {}  # figure name -> sha256 of the fit report it draws
    fits_pooled = {}
    proportions = {}
    for p, s in buckets.items():
        if len(s) < args.min_tail:
            print(f"skipping fit for {p}: only {len(s)} observations", file=sys.stderr)
            continue
        fit = select_xmin(s, opts)
        fits_pooled[p] = fit
        proportions[p] = power_law_proportion(s, fit)
        gof = None
        if args.bootstrap > 0:
            gof = gof_pvalue(s, fit, n_boot=args.bootstrap, seed=args.seed,
                             opts=opts, workers=_workers())
        _write(f"fits/{p}.json",
               json.dumps(fit_report(fit, n=len(s), gof=gof, seed=args.seed),
                          indent=2, sort_keys=True) + "\n")
        figures[f"ccdf_{p}"] = ccdf_figure(s, fit)
        figure_inputs[f"ccdf_{p}"] = outputs[f"fits/{p}.json"]

    # per-(platform, year) fits for the exponent panels
    year_groups = {}
    for r in records:
        p = platform_of(r)
        if p is None:
            continue
        year_groups.setdefault((p, r.year), []).append(r.earnings)
    fits_by_year = {}
    for key in sorted(year_groups):
        vals = year_groups[key]
        if len(vals) < args.min_tail:
            continue
        try:
            fits_by_year[key] = select_xmin(make_sample(vals), opts)
        except (SampleTooSmall, DegenerateTail):
            continue
    if fits_by_year:
        pooled_rows, year_rows = alpha_panel(fits_by_year)
        _write("alpha_by_platform.csv",
               "platform,alpha_mean\n" +
               "".join(f"{p},{a:.10g}\n" for p, a in pooled_rows))
        _write("alpha_by_year.csv",
               "platform,year,alpha\n" +
               "".join(f"{p},{y},{a:.10g}\n" for p, y, a in year_rows))
        figures["alpha_by_platform"] = [
            PlotSeries(name="alpha_mean", scale="linear", style="bar",
                       points=tuple((i + 1.0, a) for i, (_, a) in enumerate(pooled_rows)),
                       labels=tuple(p for p, _ in pooled_rows))]
        by_platform = {}
        for p, y, a in year_rows:
            by_platform.setdefault(p, []).append((float(y), a))
        figures["alpha_time_series"] = [
            PlotSeries(name=p, scale="linear", style="line", points=tuple(pts))
            for p, pts in sorted(by_platform.items())]

    rho = None
    if fits_pooled:
        rows, rho = median_vs_alpha(stats_list, fits_pooled)
        _write("median_vs_alpha.csv",
               "platform,median,alpha\n" +
               "".join(f"{p},{m:.10g},{a:.10g}\n" for p, m, a in rows))
        figures["median_vs_alpha"] = [
            PlotSeries(name="platforms", scale="linear", style="points",
                       points=tuple((m, a) for _, m, a in rows),
                       labels=tuple(p for p, _, _ in rows))]
        _write("power_law_proportion.csv",
               "platform,proportion\n" +
               "".join(f"{p},{v:.10g}\n" for p, v in
                       sorted(proportions.items(), key=lambda kv: (-kv[1], kv[0]))))
        figures["power_law_proportion"] = [proportion_figure(proportions)]

    # per-category fits pooled over platforms
    cat_groups = {}
    for r in records:
        if platform_of(r) is None:
            continue
        cat_groups.setdefault(r.category, []).append(r.earnings)
    cat_fits, cat_obs = {}, {}
    for c in sorted(cat_groups):
        vals = cat_groups[c]
        if len(vals) < args.min_tail:
            continue
        try:
            cat_fits[c] = select_xmin(make_sample(vals), opts)
            cat_obs[c] = len(vals)
        except (SampleTooSmall, DegenerateTail):
            continue
    if cat_fits:
        rows, simple, weighted = category_panel(cat_fits, cat_obs)
        _write("alpha_by_category.csv",
               "category,alpha,obs\n" +
               "".join(f"{c},{a:.10g},{n}\n" for c, a, n in rows) +
               f"simple_average,{simple:.10g},\n"
               f"weighted_average,{weighted:.10g},\n")
        figures["alpha_by_category"] = [
            PlotSeries(name="alpha", scale="linear", style="bar",
                       points=tuple((i + 1.0, a) for i, (_, a, _) in enumerate(rows)),
                       labels=tuple(c for c, _, _ in rows))]

    fig_manifest = save_figures(figures, outdir / "figures")
    for name, digest in fig_manifest.items():
        outputs[f"figures/{name}"] = digest

    manifest = {
        "command": "pipeline",
        "version": __version__,
        "options": {
            "floor": args.floor,
            "floor_inclusive": args.floor_inclusive,
            "min_tail": args.min_tail,
            "bootstrap": args.bootstrap,
        },
        "seed": args.seed,
        "input": {"path": str(args.input), "sha256": _sha256_file(args.input)},
        "outputs": dict(sorted(outputs.items())),
        "figure_inputs": dict(sorted(figure_inputs.items())),
        "stats": {"median_vs_alpha_spearman": rho},
        "wall_clock_s": round(time.perf_counter() - t0, 3),
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"outputs": len(outputs), "out_dir": str(outdir)},
                     sort_keys=True))
    return 0


# -- argument parsing ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tailkit",
        description="Power-law tail fitting, estimator comparisons, growth-model "
                    "simulation, and the creator-earnings reproduction pipeline.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a power-law tail to a column of values")
    p_fit.add_argument("input")
    p_fit.add_argument("--kind", choices=[CONTINUOUS, DISCRETE], default=CONTINUOUS)
    p_fit.add_argument("--xmin", type=float, default=None,
                       help="fixed threshold; skips the scan")
    p_fit.add_argument("--min-tail", type=int, default=50, dest="min_tail")
    p_fit.add_argument("--bootstrap", type=int, default=0, metavar="N",
                       help="bootstrap replicates for a goodness-of-fit p-value")
    p_fit.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="run a growth model")
    p_sim.add_argument("--model", choices=[COPY, BA], required=True)
    p_sim.add_argument("--nodes", type=int, required=True)
    p_sim.add_argument("--gamma", type=float, default=0.0)
    p_sim.add_argument("--m", type=int, default=1)
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.add_argument("--out", default="degrees.csv")
    p_sim.add_argument("--fit", action="store_true",
                       help="also fit the resulting counts")
    p_sim.set_defaults(func=cmd_simulate)

    p_pipe = sub.add_parser("pipeline", help="earnings CSV to tables and figures")
    p_pipe.add_argument("input")
    p_pipe.add_argument("--out", default="out")
    p_pipe.add_argument("--floor", type=float, default=10.0)
    p_pipe.add_argument("--floor-inclusive", action="store_true",
                        dest="floor_inclusive")
    p_pipe.add_argument("--min-tail", type=int, default=50, dest="min_tail")
    p_pipe.add_argument("--bootstrap", type=int, default=0, metavar="N")
    p_pipe.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_pipe.set_defaults(func=cmd_pipeline)

    p_cmp = sub.add_parser("compare", help="tail-index estimator comparison")
    p_cmp.add_argument("input")
    p_cmp.add_argument("--kind", choices=[CONTINUOUS, DISCRETE], default=CONTINUOUS)
    p_cmp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_cmp.set_defaults(func=cmd_compare)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, DomainError, SingularDesign, KindMismatch,
            RenderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_SCHEMA
    except (SampleTooSmall, EmptySample) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_TOO_SMALL
    except DegenerateTail as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DEGENERATE
    except TailkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_SCHEMA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
