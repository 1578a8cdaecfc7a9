"""Spans and counts around tailkit's public functions, recorded from outside.

`Tracer` replaces each probed function with a wrapper at every `tailkit.*`
module attribute bound to that function object. Matching by identity
matters: `cli`, `growth` and `estimators` call the names they imported, so
patching only the defining module would miss those calls. Timed probes
record a span (name, start, end, parent, run id) and count calls, failed
calls and probe-specific work; counted probes, the hot tiny functions, only
count calls. Spans stay in memory until `dump`, which appends one line per
process to a shared file, and `uninstall` puts every original back.

`layer_metrics` turns spans and counts into per-layer metrics. A layer's
`.s` is its self time: span duration minus the durations of its child
spans, summed over its spans.
"""

import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _saved_bytes(args, kwargs, manifest):
    outdir = Path(_arg(args, kwargs, 1, "outdir"))
    return sum((outdir / rel).stat().st_size for rel in manifest)


# layer.function -> {counter suffix: f(args, kwargs, result) -> int}
TIMED = {
    "cli.main": {},
    "fit.select_xmin": {"values": lambda a, k, r: len(_arg(a, k, 0, "s"))},
    "fit.gof_pvalue": {"replicates": lambda a, k, r: r.n_boot},
    "powerlaw.pl_ppf": {"draws": lambda a, k, r: int(getattr(r, "size", 1))},
    "sample.make_sample": {},
    "estimators.double_bootstrap_k": {},
    "estimators.adjusted_hill": {},
    "growth.simulate_copy": {"nodes": lambda a, k, r: int(r.counts.size)},
    "growth.simulate_ba": {"edges": lambda a, k, r: int(r.steps)},
    "growth.measure_exponent": {},
    "growth.degrees_csv": {"bytes": lambda a, k, r: len(r.encode("utf-8"))},
    "pipeline.parse_csv": {
        "rows": lambda a, k, r: len(r.records) + r.n_rejected,
        "rejected": lambda a, k, r: r.n_rejected,
    },
    "pipeline.fit_imputation": {},
    "pipeline.impute_earnings": {"imputed": lambda a, k, r: sum(rec.imputed for rec in r[0])},
    "pipeline.filter_floor": {"dropped": lambda a, k, r: r[1]},
    "pipeline.segment_single_platform": {},
    "pipeline.nsfw_breakdown": {},
    "pipeline.summary_stats": {},
    "report.ccdf_figure": {},
    "report.median_vs_alpha": {},
    "report.save_figures": {"bytes": _saved_bytes},
}

# called too often to time without distorting their callers
COUNTED = ("pipeline.platform_of", "estimators.hill", "powerlaw.hurwitz_zeta",
           "report.render_svg")


class Tracer:
    """Install with `with Tracer(run_id):`; originals return on exit."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # dicts: id, parent, name, start_ns, end_ns, run
        self.counts = Counter()
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self):
        for name, extra in TIMED.items():
            self._patch(name, lambda fn, name=name, extra=extra: self._timed(name, fn, extra))
        for name in COUNTED:
            self._patch(name, lambda fn, name=name: self._counted(name, fn))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _patch(self, name, make_wrapper):
        layer, func = name.split(".")
        original = getattr(importlib.import_module(f"tailkit.{layer}"), func)
        wrapper = make_wrapper(original)
        for modname, module in list(sys.modules.items()):
            if modname != "tailkit" and not modname.startswith("tailkit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def _timed(self, name, fn, extra):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                    "name": name, "run": self.run_id}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[f"{name}.failed"] += 1
                raise
            finally:
                span["end_ns"] = time.perf_counter_ns()
                self._stack.pop()
                self.counts[f"{name}.calls"] += 1
            for key, measure in extra.items():
                self.counts[f"{name}.{key}"] += measure(args, kwargs, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def dump(self, path):
        """Append this process's spans and counts to `path` as one JSON line."""
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": self.spans, "counts": dict(self.counts)}) + "\n")


def load(path) -> tuple:
    """All spans and the summed counts of the processes that dumped to `path`."""
    spans, counts = [], Counter()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        spans.extend(record["spans"])
        counts.update(record["counts"])
    return spans, counts


def self_times(spans) -> dict:
    """(run, span id) -> duration minus its children's durations (ns).

    Spans come from one thread's call stack, so a span's children are
    disjoint and lie inside it.
    """
    own = {(sp["run"], sp["id"]): sp["end_ns"] - sp["start_ns"] for sp in spans}
    for sp in spans:
        if sp["parent"] is not None:
            own[sp["run"], sp["parent"]] -= sp["end_ns"] - sp["start_ns"]
    return own


def layer_metrics(spans, counts) -> dict:
    """Every metric the probes can give, keyed by name: `<layer.function>.s`
    self seconds and the counts; a probe that never ran gives 0."""
    out = {f"{name}.{key}": 0 for name, extra in TIMED.items()
           for key in ("calls", "failed", *extra)}
    out.update({f"{name}.calls": 0 for name in COUNTED})
    out.update({f"{name}.s": 0.0 for name in TIMED})
    own = self_times(spans)
    for sp in spans:
        out[f"{sp['name']}.s"] += own[sp["run"], sp["id"]] / 1e9
    out.update(counts)
    return out
