"""tailkit benchmark: one seeded workload through the tailkit CLI.

    python3 perfbench/run.py --workload fit_compare --seed 1 --seconds 55 --trace 0

Each repetition starts the CLI as a fresh process (perfbench/launch.py,
the console-script entry point) with TAILKIT_WORKERS=1 and BLAS/OpenMP
threads pinned to 1. One untimed `tailkit --version` first byte-compiles
tailkit and warms the file cache. Repetitions continue while the next one
fits in --seconds (at least MIN_REPS). Every repetition's outputs are
checked; a failed check or a nonzero exit counts as a failed attempt and
the set goes on.

--trace 0 reports the end-to-end metrics: median wall time of a
repetition, median set-up time (interpreter start until `import
tailkit.cli` returns), median peak RSS of the repetition's processes.
--trace 1 adds one traced repetition (spans recorded by spans.py) and
reports the per-layer metrics from it, plus trace.overhead_s.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import layer_metrics, load
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCHER = HERE / "launch.py"
SPEC = ROOT / "BENCHMARK.json"
MIN_REPS = 3
DEADLINE_S = 170.0  # processes still running this long after the start are killed

PINNED_ENV = {
    "TAILKIT_WORKERS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

class Launcher:
    """Starts tailkit processes in `work` and measures each one."""

    def __init__(self, work: Path, deadline: float):
        self.work, self.deadline = work, deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **PINNED_ENV)
        self.env.pop("PERFBENCH_TRACE", None)

    def run(self, argv, extra_env=None) -> dict:
        """Run one CLI process; wall, set-up and peak RSS come with its output."""
        mark, out, err = (self.work / f"proc.{k}" for k in ("mark", "out", "err"))
        mark.unlink(missing_ok=True)
        env = dict(self.env, PERFBENCH_MARK=str(mark), **(extra_env or {}))
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.monotonic_ns()
            proc = subprocess.Popen([sys.executable, str(LAUNCHER), *argv], cwd=ROOT,
                                    env=env, stdout=fo, stderr=fe)
            killer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                end = time.monotonic_ns()
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        setup = (int(mark.read_text()) - start) / 1e9 if mark.exists() else None
        return {"code": proc.returncode, "wall_s": (end - start) / 1e9, "setup_s": setup,
                "rss_mib": usage.ru_maxrss / 1024.0,
                "stdout": out.read_text(encoding="utf-8", errors="replace"),
                "stderr": err.read_text(encoding="utf-8", errors="replace")}


def run_rep(workload, launcher, extra_env=None) -> dict:
    """One repetition: every command of the workload, then its output checks."""
    workload.reset()
    procs = [launcher.run(argv, extra_env) for argv in workload.commands()]
    problems = [f"`tailkit {' '.join(argv)}` exited {p['code']}: {p['stderr'].strip()[-300:]}"
                for argv, p in zip(workload.commands(), procs) if p["code"] != 0]
    fingerprint = None
    if not problems:
        try:
            fingerprint, problems = workload.inspect([p["stdout"] for p in procs])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"output check raised {exc!r}"]
    return {"wall_s": sum(p["wall_s"] for p in procs),
            "setup": [p["setup_s"] for p in procs if p["setup_s"] is not None],
            "rss_mib": max(p["rss_mib"] for p in procs),
            "fingerprint": fingerprint, "problems": problems}


def warm_up(launcher):
    """One `tailkit --version`: byte-compiles tailkit and fills the file cache."""
    proc = launcher.run(["--version"])
    if proc["code"] != 0:
        raise RuntimeError(f"`tailkit --version` failed ({proc['code']}): {proc['stderr'].strip()}")


def environment() -> str:
    versions = ", ".join(f"{pkg} {importlib.metadata.version(pkg)}" for pkg in ("numpy", "scipy"))
    pinned = " ".join(f"{k}={v}" for k, v in PINNED_ENV.items())
    return (f"environment: Python {platform.python_version()}, {versions}, "
            f"nproc {os.cpu_count()}, {pinned}")


def measure(workload, launcher, seconds: float, trace: bool) -> dict:
    warm_up(launcher)
    reps, setups = [], []
    start = time.monotonic()
    while True:
        rep = run_rep(workload, launcher)
        reps.append(rep)
        setups.extend(rep["setup"])
        per_rep = (time.monotonic() - start) / len(reps)
        if len(reps) >= MIN_REPS and time.monotonic() - start + per_rep > seconds:
            break
    traced = None
    if trace:
        trace_file = launcher.work / "spans.jsonl"
        traced = run_rep(workload, launcher, {"PERFBENCH_TRACE": str(trace_file)})
        traced["trace"] = load(trace_file) if trace_file.exists() else ([], {})
    reference = reps[0]["fingerprint"]
    for rep in reps + ([traced] if traced else []):
        if not rep["problems"] and rep["fingerprint"] != reference:
            rep["problems"].append("outputs differ from the first repetition of this seed")
    return {"reps": reps, "setups": setups, "traced": traced}


def metric_units(kind: str) -> dict:
    """name -> unit of BENCHMARK.json's `end_to_end` or `per_layer` metrics."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def layer_values(traced, wall_median, names) -> dict:
    """The per-layer metrics `names` from a traced repetition; a layer the
    workload does not reach gives 0."""
    found = layer_metrics(*traced["trace"])
    found["cli.self_s"] = found["cli.main.s"]
    found["trace.overhead_s"] = traced["wall_s"] - wall_median
    return {name: found[name] for name in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "tailkit" / "cli.py").is_file():
        print(f"error: no tailkit sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    end_to_end, per_layer = metric_units("end_to_end"), metric_units("per_layer")

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload]()
        workload.prepare(work, args.seed)
        try:
            result = measure(workload, Launcher(work, deadline), args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    reps = result["reps"] + ([result["traced"]] if result["traced"] else [])
    failed = sum(1 for rep in reps if rep["problems"])
    for i, rep in enumerate(reps):
        for problem in rep["problems"]:
            print(f"check failed in repetition {i}: {problem}")
    walls = [rep["wall_s"] for rep in result["reps"]]
    values = {"wall_s": walls, "setup_s": result["setups"],
              "peak_rss_mb": [rep["rss_mib"] for rep in result["reps"]]}
    print(f"workload {args.workload}, seed {args.seed}: {len(walls)} repetitions, "
          f"{len(result['setups'])} set-up samples")
    print(environment())
    for name, unit in end_to_end.items():
        q1, med, q3 = statistics.quantiles(values[name], n=4)
        print(f"{name} = {med:.6g} {unit} (median of {len(values[name])}; "
              f"quartiles {q1:.6g} .. {q3:.6g})")
    print(f"error_rate = {failed / len(reps):.6g} ({failed} of {len(reps)} repetitions failed)")
    print("wall_s of each repetition: " + ", ".join(f"{wall:.6g}" for wall in walls))

    if result["traced"]:
        units = per_layer
        metrics = layer_values(result["traced"], statistics.median(walls), units)
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
    else:
        units = end_to_end
        metrics = {name: statistics.median(values[name]) for name in units}
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
