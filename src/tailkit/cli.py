"""Command-line interface.

Four subcommands cover the reproduction workflow: `fit` a single column of
values, `simulate` a growth model, `pipeline` a full earnings CSV into
tables and figures, and `compare` tail estimators on one sample. Each
command parses its arguments, calls the library and maps its typed errors
to exit codes; the earnings flow itself is `tailkit.pipeline.run_pipeline`.

Conventions: stdout carries data (JSON or CSV) only, diagnostics go to
stderr. Exit codes: 0 ok, 1 I/O failure, 2 schema or configuration error,
3 sample too small, 4 degenerate data. Every stochastic run records its
seed; defaults are fixed constants, so bare invocations reproduce exactly.
The TAILKIT_WORKERS environment variable overrides the process count used
for bootstrap replicates.
"""

import argparse
import itertools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    DegenerateTail,
    DomainError,
    EmptySample,
    SampleTooSmall,
    SchemaError,
    TailkitError,
)
from .estimators import comparison_csv, estimator_comparison, k_exceeds_tail
from .fit import (check_min_tail, check_n_boot, fit_at, fit_report, gof_pvalue,
                  power_law_proportion, select_xmin)
from .growth import (
    BA,
    COPY,
    degrees_csv,
    measure_exponent,
    simulate_ba,
    simulate_copy,
    theoretical_alpha,
)
from .pipeline import run_pipeline
from .report import json_text
from .rng import check_seed
from .sample import CONTINUOUS, DISCRETE, make_sample

DEFAULT_SEED = 20240301
# exit code per error class; an error takes the entry of its nearest class
# in method resolution order, so every other TailkitError exits 2
_EXIT_CODES = {OSError: 1, TailkitError: 2, SampleTooSmall: 3, EmptySample: 3,
               DegenerateTail: 4}


def _workers() -> int:
    env = os.environ.get("TAILKIT_WORKERS") or "1"
    try:
        workers = int(env)
    except ValueError:
        raise DomainError(f"TAILKIT_WORKERS must be an integer, got {env!r}") from None
    if workers < 1:
        raise DomainError(f"TAILKIT_WORKERS must be >= 1, got {workers}")
    return workers


_READ_BLOCK = 1 << 16  # lines converted per np.array call


def _read_column(path) -> np.ndarray:
    """One number per line; a single leading header line is tolerated.

    The first comma-separated field of each line is converted a block of
    lines at a time by `np.array`, which parses each string as `float`
    does; only a block that fails is searched for its first bad line. A
    block's strings are freed before the next is read, so the whole text
    is never held at once. A UTF-8 byte-order mark at the start is skipped.
    """
    blocks = []
    with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is not data
        for start in itertools.count(0, _READ_BLOCK):
            try:
                fields = [line.strip().split(",")[0]
                          for line in itertools.islice(fh, _READ_BLOCK)]
            except UnicodeDecodeError:  # decoding runs ahead of the lines: no line is named
                raise SchemaError(f"{path}: not valid UTF-8") from None
            if not fields:
                break
            if start == 0 and not _is_number(fields[0]):
                fields[0] = ""  # header
            try:
                blocks.append(np.array([text for text in fields if text], dtype=float))
            except ValueError:
                i, text = next((i, text) for i, text in enumerate(fields)
                               if text and not _is_number(text))
                raise SchemaError(f"{path}: line {start + i + 1} is not a number: {text!r}")
    values = np.concatenate(blocks) if blocks else np.empty(0)
    if not values.size:
        raise SchemaError(f"{path}: no numeric values found")
    return values


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# -- subcommands ------------------------------------------------------------------

def cmd_fit(args) -> int:
    if args.bootstrap:
        check_n_boot(args.bootstrap)
        workers = _workers()
    values = _read_column(args.input)
    sample = make_sample(values, kind=args.kind)
    if args.xmin is None:
        fit = select_xmin(sample, args.min_tail)
    else:
        check_min_tail(args.min_tail, len(sample))  # --min-tail binds without a scan too
        fit = fit_at(sample, args.xmin)
    gof = None
    if args.bootstrap:
        gof = gof_pvalue(sample, fit, n_boot=args.bootstrap, seed=args.seed, workers=workers)
    report = fit_report(fit, n=len(sample), gof=gof, seed=args.seed)
    report["proportion"] = power_law_proportion(sample, fit)
    report["n_rejected"] = sample.n_rejected
    sys.stdout.write(json_text(report))
    return 0


def cmd_simulate(args) -> int:
    if args.model == COPY:
        if args.m is not None:
            raise DomainError("--m applies only to --model ba")
        gamma = 0.0 if args.gamma is None else args.gamma
        run = simulate_copy(args.nodes, gamma, args.seed)
    else:
        if args.gamma is not None:
            raise DomainError("--gamma applies only to --model copy")
        m = 1 if args.m is None else args.m
        run = simulate_ba(args.nodes, m, args.seed)
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
        summary["gamma"] = gamma
        alpha = theoretical_alpha(gamma)  # inf at gamma 1: no power law forms
        summary["alpha_predicted"] = alpha if math.isfinite(alpha) else None
    else:
        summary["m"] = m
    if args.fit:
        fit = measure_exponent(run)
        summary["fit"] = fit_report(fit, n=int(run.counts.size))
    sys.stdout.write(json_text(summary))
    return 0


def cmd_compare(args) -> int:
    values = _read_column(args.input)
    sample = make_sample(values, kind=args.kind)
    if sample.n_rejected:
        print(f"rejected {sample.n_rejected} non-finite or non-positive values",
              file=sys.stderr)
    if np.array_equal(sample.values, np.floor(sample.values)):
        print("integer-valued sample: hill, adjusted_hill and moments assume continuous "
              "data, and ties bias them", file=sys.stderr)
    estimates = estimator_comparison(sample, seed=args.seed)
    if k_exceeds_tail(estimates)[1]:
        cns, k = estimates[0], estimates[1].k_used
        print(f"double-bootstrap k = {k} exceeds the {cns.k_used} values at or above "
              f"the fitted xmin {cns.threshold:.10g}: the hill-type rows take in the body",
              file=sys.stderr)
    sys.stdout.write(comparison_csv(estimates))
    return 0


def cmd_pipeline(args) -> int:
    manifest = run_pipeline(args.input, args.out, floor=args.floor,
                            floor_inclusive=args.floor_inclusive,
                            min_tail=args.min_tail, bootstrap=args.bootstrap,
                            seed=args.seed, workers=_workers())
    sys.stdout.write(json_text({"outputs": len(manifest["outputs"]),
                                "out_dir": str(Path(args.out))}, indent=None))
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
    p_sim.add_argument("--gamma", type=float, default=None,
                       help="copy model: exploration probability (default 0.0)")
    p_sim.add_argument("--m", type=int, default=None,
                       help="ba model: edges per new node (default 1)")
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
        check_seed(args.seed)  # every command takes --seed
        return args.func(args)
    except (TailkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
