"""Self-tests of the benchmark: span arithmetic, wrapper removal, traced
runs matching untraced ones, exact counts, and the output checks on a seed
the benchmark was not tuned on.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import (WORKLOADS, FitGof, Pipeline, Simulate, spliced_sample,  # noqa: E402
                       write_column)


def _span(sid, parent, name, start, end):
    return {"id": sid, "parent": parent, "name": name, "start_ns": start, "end_ns": end,
            "run": "synthetic"}


def test_self_time_subtracts_children():
    tree = [
        _span(0, None, "cli.main", 0, 100),
        _span(1, 0, "fit.select_xmin", 10, 40),
        _span(2, 1, "sample.make_sample", 15, 20),
        _span(3, 0, "fit.select_xmin", 50, 60),
        _span(4, 0, "report.save_figures", 70, 95),
    ]
    own = spans.self_times(tree)
    assert own == {("synthetic", 0): 100 - 30 - 10 - 25, ("synthetic", 1): 30 - 5,
                   ("synthetic", 2): 5, ("synthetic", 3): 10, ("synthetic", 4): 25}
    metrics = spans.layer_metrics(tree, {"fit.select_xmin.calls": 2})
    assert metrics["fit.select_xmin.s"] == pytest.approx(35e-9)
    assert metrics["cli.main.s"] == pytest.approx(35e-9)
    assert metrics["fit.select_xmin.calls"] == 2
    assert metrics["growth.simulate_ba.s"] == 0.0
    assert metrics["growth.simulate_ba.edges"] == 0


def _tailkit_bindings():
    return {(name, attr): value for name, module in sys.modules.items()
            if name == "tailkit" or name.startswith("tailkit.")
            for attr, value in vars(module).items() if callable(value)}


def test_wrappers_are_removed_after_a_traced_run(tmp_path, capsys):
    from tailkit import cli, estimators, fit, growth

    data = tmp_path / "x.csv"
    write_column(data, spliced_sample(2000, seed=5))
    before = _tailkit_bindings()
    original = fit.select_xmin
    with spans.Tracer("test") as tracer:
        # every module binding of a probed function is wrapped, not just the defining one
        assert fit.select_xmin is not original
        assert growth.select_xmin is fit.select_xmin
        assert estimators.select_xmin is fit.select_xmin
        assert cli.main(["fit", str(data), "--bootstrap", "100", "--seed", "5"]) == 0
    capsys.readouterr()
    assert _tailkit_bindings() == before
    assert tracer.counts["fit.select_xmin.calls"] == 101
    assert tracer.counts["fit.gof_pvalue.replicates"] == 100
    assert {sp["name"] for sp in tracer.spans} >= {"cli.main", "fit.select_xmin",
                                                   "fit.gof_pvalue", "powerlaw.pl_ppf"}


class SmallFit(FitGof):
    n = 3000


class SmallPipeline(Pipeline):
    rows = 6000


class SmallSimulate(Simulate):
    copy_nodes, ba_nodes = 50_000, 20_000


@pytest.fixture(params=[SmallFit, SmallPipeline, SmallSimulate],
                ids=["fit", "pipeline", "simulate"])
def small_case(request, tmp_path):
    workload = request.param()
    workload.prepare(tmp_path, seed=9)
    return workload, run.Launcher(tmp_path, deadline=time.monotonic() + 120), tmp_path


def _traced(workload, launcher, work):
    trace_file = work / "spans.jsonl"
    trace_file.unlink(missing_ok=True)
    rep = run.run_rep(workload, launcher, {"PERFBENCH_TRACE": str(trace_file)})
    rep["trace"] = spans.load(trace_file)
    return rep


def test_traced_outputs_equal_untraced(small_case):
    workload, launcher, work = small_case
    plain = run.run_rep(workload, launcher)
    traced = _traced(workload, launcher, work)
    assert plain["problems"] == [] and traced["problems"] == []
    assert traced["fingerprint"] == plain["fingerprint"]


def test_count_metrics_repeat_exactly(small_case):
    workload, launcher, work = small_case
    units = run.metric_units("per_layer")
    first, second = (run.layer_values(_traced(workload, launcher, work), 1.0, units)
                     for _ in range(2))
    counts = [name for name, unit in units.items() if unit != "s"]
    assert any(first[name] for name in counts)
    if isinstance(workload, Simulate):  # spans of both processes are merged
        assert first["growth.simulate_copy.nodes"] == workload.copy_nodes
        assert first["growth.simulate_ba.edges"] > 0
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_second_seed_passes_all_output_checks(name):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", name,
                           "--seed", "2", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert set(result["metrics"]) == set(run.metric_units("end_to_end"))


@pytest.mark.xfail(strict=True, reason=(
    "double_bootstrap_k picks k past the knee of an exactly-Pareto tail: on seed 25 of "
    "the spliced sample k = 186 962 against a tail of 150 127 and hill alpha is 1.95, "
    "with nothing in the output to say so; compare_large reads frechet_sample instead"))
def test_compare_on_the_spliced_sample():
    from tailkit.estimators import estimator_comparison
    from tailkit.sample import make_sample

    _, hill, _, _ = estimator_comparison(make_sample(spliced_sample(300_000, seed=25)), seed=25)
    assert abs(hill.alpha - 2.5) <= 0.1 + 3 * 1.5 / hill.k_used**0.5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "simulate_pipeline",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
