import hashlib
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tailkit import cli, errors, pipeline
from tailkit.cli import _read_column, main
from tailkit.errors import SchemaError
from tailkit.fit import GofResult
from tailkit.fixtures import write_fixture
from tailkit.pipeline import run_pipeline
from tailkit.powerlaw import PowerLawModel, pl_sample
from tailkit.rng import make_rng

from oracles import read_column_loop
from samples import spliced


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """`json.loads` refusing NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


# -- fit -------------------------------------------------------------------------

def test_fit_recovers_generator(pareto_file, capsys):
    code, out, _ = run_cli(capsys, "fit", str(pareto_file), "--kind",
                           "continuous", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert abs(report["alpha"] - 2.5) < 0.1
    assert set(report) >= {"alpha", "xmin", "n_tail", "ks", "stderr", "n",
                           "kind", "seed", "proportion"}


def test_fit_tiny_sample_exit_code(tmp_path, capsys):
    tiny = tmp_path / "tiny.csv"
    tiny.write_text("\n".join(str(v) for v in range(1, 11)), encoding="utf-8")
    code, out, err = run_cli(capsys, "fit", str(tiny))
    assert code == 3
    assert out == ""
    assert "error" in err


def test_fit_xmin_override(pareto_file, capsys):
    code, out, _ = run_cli(capsys, "fit", str(pareto_file), "--xmin", "2.0")
    assert code == 0
    report = json.loads(out)
    assert report["xmin"] == 2.0


@pytest.mark.parametrize("xmin", ["0", "-1", "nan", "inf"])
def test_fit_xmin_outside_its_domain_exit_code(pareto_file, xmin, capsys):
    code, out, err = run_cli(capsys, "fit", str(pareto_file), f"--xmin={xmin}")
    assert code == 2
    assert out == ""
    assert "error: xmin must be finite and > 0" in err


def test_fit_xmin_above_all_but_one_value_exit_code(tmp_path, capsys):
    path = tmp_path / "ladder.csv"
    path.write_text("\n".join(str(v) for v in range(1, 101)), encoding="utf-8")
    code, out, err = run_cli(capsys, "fit", str(path), "--xmin", "100")
    assert (code, out) == (3, "")
    assert "error: fewer than 2 observations >= 100.0" in err


def test_fit_xmin_still_checks_min_tail(pareto_file, capsys):
    code, out, err = run_cli(capsys, "fit", str(pareto_file), "--min-tail", "1",
                             "--xmin", "3")
    assert (code, out) == (2, "")
    assert "error: min_tail must be >= 2, got 1" in err
    code, out, err = run_cli(capsys, "fit", str(pareto_file), "--min-tail", "20001",
                             "--xmin", "3")
    assert (code, out) == (3, "")
    assert "error: need >= 20001 observations, got 20000" in err


def test_fit_xmin_bootstrap_is_worker_invariant(pareto_file, monkeypatch, capsys):
    # the replicates refit above the same fixed xmin in worker processes too
    reports = []
    for workers in ("1", "2"):
        monkeypatch.setenv("TAILKIT_WORKERS", workers)
        code, out, err = run_cli(capsys, "fit", str(pareto_file), "--xmin", "3",
                                 "--bootstrap", "100")
        assert code == 0, err
        reports.append(json.loads(out))
    assert reports[0] == reports[1]
    assert reports[0]["xmin"] == 3.0 and reports[0]["n_failed"] == 0


FAILED_REPLICATES = ("100 of 100 bootstrap replicates failed; "
                     "each counts as a KS at least the observed one\n")


def test_fit_bootstrap_survives_overflowing_draws(tmp_path, capsys):
    # alpha = 1.0138 above xmin ~ 1.7e236: the replicates' draws overflow
    path = tmp_path / "huge.csv"
    path.write_text("\n".join(map(repr, (10 ** np.random.default_rng(0).uniform(
        0, 300, 3000)).tolist())), encoding="utf-8")
    code, out, err = run_cli(capsys, "fit", str(path), "--bootstrap", "100")
    assert (code, err) == (0, FAILED_REPLICATES)
    report = json.loads(out)
    assert (report["n_failed"], report["p_value"]) == (100, 1.0)


def test_fit_says_on_stderr_how_many_replicates_failed(tmp_path, capsys):
    # every rescaled replicate fit above xmin 1e-300 raises
    path = tmp_path / "small.csv"
    values = np.random.default_rng(1).pareto(1.5, 520) + 1
    path.write_text("\n".join(map(repr, values.tolist())), encoding="utf-8")
    code, out, err = run_cli(capsys, "fit", str(path), "--xmin", "1e-300",
                             "--bootstrap", "100")
    assert (code, err) == (0, FAILED_REPLICATES)
    report = strict_json(out)
    assert (report["n_failed"], report["p_value"], report["n_tail"]) == (100, 1.0, 520)


def test_fit_missing_file_is_io_error(capsys):
    code, _, err = run_cli(capsys, "fit", "/nonexistent/nope.csv")
    assert code == 1 and "error" in err


def test_fit_garbage_file_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("header\n1.0\nwat\n2.0\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "fit", str(bad))
    assert code == 2 and "line 3" in err


def test_fit_discrete_at_search_edge_exit_code(tmp_path, capsys):
    # a Zipf(9) sample's MLE lies beyond the discrete search range [1.01, 6]
    path = tmp_path / "zipf9.csv"
    path.write_text("\n".join(map(str, np.random.default_rng(0).zipf(9, 5000))),
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "fit", str(path), "--kind", "discrete")
    assert code == 4
    assert out == ""
    assert "edge of its search range" in err


def test_fit_discrete_counts_past_the_zeta_range_exit_code(tmp_path, capsys):
    # thresholds above ~1e65, where zeta(alpha, xmin) underflows to 0, are no candidates
    path = tmp_path / "huge_counts.csv"
    path.write_text("\n".join(map(repr, np.floor(10 ** np.random.default_rng(0).uniform(
        0, 300, 3000)).tolist())), encoding="utf-8")
    code, out, err = run_cli(capsys, "fit", str(path), "--kind", "discrete")
    assert (code, out) == (4, "")
    assert err.startswith("error: discrete MLE alpha") and err.count("\n") == 1
    assert "edge of its search range" in err


# -- simulate ----------------------------------------------------------------------

def test_simulate_copy_with_fit(tmp_path, capsys):
    out_csv = tmp_path / "deg.csv"
    code, out, _ = run_cli(capsys, "simulate", "--model", "copy", "--nodes",
                           "50000", "--gamma", "0.0", "--seed", "1",
                           "--out", str(out_csv), "--fit")
    assert code == 0
    summary = json.loads(out)
    assert summary["alpha_predicted"] == 2.0
    assert abs(summary["fit"]["alpha"] - 2.0) < 0.3
    assert summary["count_sum"] == 50_000 + summary["steps"]


def test_simulate_copy_at_gamma_one_predicts_null(tmp_path, capsys):
    # no power law forms at gamma 1: the prediction is undefined, not Infinity
    code, out, err = run_cli(capsys, "simulate", "--model", "copy", "--gamma", "1",
                             "--nodes", "2000", "--out", str(tmp_path / "d.csv"))
    assert code == 0, err
    assert strict_json(out)["alpha_predicted"] is None


def test_simulate_ba_handshake(tmp_path, capsys):
    out_csv = tmp_path / "deg.csv"
    n, m = 20_000, 2
    code, out, _ = run_cli(capsys, "simulate", "--model", "ba", "--nodes",
                           str(n), "--m", str(m), "--seed", "1",
                           "--out", str(out_csv))
    assert code == 0
    summary = json.loads(out)
    assert summary["count_sum"] == 2 * m * (n - 3) + 6
    degrees = np.loadtxt(out_csv, skiprows=1, dtype=int)
    assert degrees.sum() == summary["count_sum"]


def test_simulate_bad_gamma_exit_code(tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", "--model", "copy", "--nodes",
                           "5000", "--gamma", "1.5", "--out",
                           str(tmp_path / "x.csv"))
    assert code == 2 and "gamma" in err


@pytest.mark.parametrize("argv", [["--model", "ba", "--gamma", "0.2"],
                                  ["--model", "copy", "--m", "2"]])
def test_simulate_rejects_a_flag_of_the_other_model(argv, tmp_path, capsys):
    out_csv = tmp_path / "deg.csv"
    code, out, err = run_cli(capsys, "simulate", *argv, "--nodes", "5000",
                             "--out", str(out_csv))
    assert code == 2 and out == ""
    assert f"error: {argv[2]} applies only to --model" in err
    assert not out_csv.exists()


@pytest.mark.parametrize("command", ["fit", "compare"])
def test_discrete_kind_refuses_non_integer_values(command, tmp_path, capsys):
    # integer Pareto counts plus a non-integer body
    rng = make_rng(3)
    values = np.concatenate((np.floor(rng.pareto(1.5, 2000) + 1.0),
                             rng.uniform(1.0, 3.0, 500)))
    path = tmp_path / "mixed.csv"
    path.write_text("\n".join(map(repr, values.tolist())), encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path), "--kind", "discrete")
    assert code == 2 and out == ""
    assert "error: discrete sample holds 500 non-integer values" in err


def test_fit_reports_rejected_values(pareto_file, tmp_path, capsys):
    dirty = tmp_path / "dirty.csv"
    dirty.write_text(pareto_file.read_text(encoding="utf-8") + "\n0\n-1.5\nnan\ninf\n",
                     encoding="utf-8")
    _, clean_out, _ = run_cli(capsys, "fit", str(pareto_file), "--seed", "7")
    code, dirty_out, _ = run_cli(capsys, "fit", str(dirty), "--seed", "7")
    assert code == 0
    clean, report = json.loads(clean_out), json.loads(dirty_out)
    assert clean["n_rejected"] == 0 and report["n_rejected"] == 4
    assert {**report, "n_rejected": 0} == clean


# -- reading a column -----------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "value\n1.5\n2\n",                # header
    "1.5\n2\n3",                      # no header, no final newline
    "\n\nvalue\n1\n\n  \n2\n\n",       # blank lines, header after them
    "value\r\n1.5\r\n2e3\r\n",          # CRLF
    "value\r1.5\r2\r",                 # CR only
    "v,w\n1.5,x\n 2 , 3\n,4\n",          # extra columns, an empty first field
    "x\n1\nnan\n-3\ninf\n1_000\n",      # what float() accepts
    "value\n1\n2\nabc\n4\n",            # bad line 4
    "1\n\nvalue\n",                    # a non-number that is not the first line
    "  x , 1\n\n",                     # header only
    "",
])
@pytest.mark.parametrize("block", [None, 2])
def test_read_column_matches_line_loop(text, block, tmp_path, monkeypatch):
    # block = 2 puts a header, blank and bad lines on block boundaries
    if block is not None:
        monkeypatch.setattr(cli, "_READ_BLOCK", block)
    path = tmp_path / "col.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = read_column_loop(path)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as got:
            _read_column(path)
        assert str(got.value) == str(exc)
    else:
        assert _read_column(path).tobytes() == expected.tobytes()


def test_read_column_skips_a_leading_bom(tmp_path):
    path = tmp_path / "col.csv"
    path.write_bytes(b"\xef\xbb\xbf1.5\n2\n3\n")
    assert _read_column(path).tolist() == [1.5, 2.0, 3.0]
    path.write_bytes(b"\xef\xbb\xbfvalue\n1.5\n")
    assert _read_column(path).tolist() == [1.5]


def test_read_column_names_a_bad_line_past_the_first_block(tmp_path):
    path = tmp_path / "col.csv"
    path.write_text("value\n" + "1.0\n" * 70_000 + "oops\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="line 70002 is not a number: 'oops'"):
        _read_column(path)


# -- compare -----------------------------------------------------------------------

def test_compare_methods_agree_on_pareto(pareto_file, capsys):
    code, out, _ = run_cli(capsys, "compare", str(pareto_file), "--seed", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "method,alpha,gamma,threshold,stderr,k_exceeds_tail"
    alphas = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(alphas) == 4
    assert max(alphas) - min(alphas) <= 0.2


def test_compare_small_sample_exit_code(tmp_path, capsys):
    small = tmp_path / "small.csv"
    small.write_text("\n".join(str(1.0 + i) for i in range(100)), encoding="utf-8")
    code, _, _ = run_cli(capsys, "compare", str(small))
    assert code == 3


def test_compare_without_a_heavy_tail_exits_3(tmp_path, capsys):
    # uniform values: the double bootstrap picks k = 2, which leaves
    # adjusted Hill one grid point
    path = tmp_path / "uniform.csv"
    values = np.random.default_rng(0).uniform(1, 2, 2000)
    path.write_text("\n".join(map(repr, values.tolist())), encoding="utf-8")
    code, out, err = run_cli(capsys, "compare", str(path))
    assert (code, out) == (3, "")
    assert err == "error: only 1 grid points below k=2\n"


def test_compare_deterministic(pareto_file, capsys):
    _, out1, _ = run_cli(capsys, "compare", str(pareto_file), "--seed", "5")
    _, out2, _ = run_cli(capsys, "compare", str(pareto_file), "--seed", "5")
    assert out1 == out2


def test_compare_flags_k_beyond_the_fitted_tail(pareto_file, tmp_path, capsys):
    # exactly Pareto above 5: the AMSE curve is flat over the tail, and on
    # this seed k* = 2666 runs past the fitted tail of 2501 values
    path = tmp_path / "spliced.csv"
    path.write_text("\n".join(map(repr, spliced(5000, 74).tolist())), encoding="utf-8")
    code, out, err = run_cli(capsys, "compare", str(path), "--seed", "74")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[-1] for row in rows] == ["", "true", "true", "true"]
    assert "double-bootstrap k = 2666 exceeds the 2501 values" in err
    _, out, err = run_cli(capsys, "compare", str(pareto_file), "--seed", "7")
    assert [line.split(",")[-1] for line in out.splitlines()[1:]] == ["", "false", "false", "false"]
    assert "exceeds" not in err


def test_compare_reports_rejected_values_on_stderr(pareto_file, tmp_path, capsys):
    dirty = tmp_path / "dirty.csv"
    dirty.write_text(pareto_file.read_text(encoding="utf-8") + "\n0\n-2\nnan\n",
                     encoding="utf-8")
    _, clean_out, clean_err = run_cli(capsys, "compare", str(pareto_file), "--seed", "5")
    code, dirty_out, dirty_err = run_cli(capsys, "compare", str(dirty), "--seed", "5")
    assert code == 0
    assert dirty_out == clean_out
    assert "rejected" not in clean_err
    assert "rejected 3 " in dirty_err


def test_compare_warns_that_ties_bias_the_hill_type_rows(pareto_file, tmp_path, capsys):
    path = tmp_path / "floored.csv"
    floored = np.floor(pl_sample(PowerLawModel(alpha=2.5, xmin=1.0), 5000, seed=1).values)
    path.write_text("\n".join(f"{v:.0f}" for v in floored), encoding="utf-8")
    warning = "hill, adjusted_hill and moments assume continuous data, and ties bias them"
    for argv in ([], ["--kind", "discrete"]):
        code, out, err = run_cli(capsys, "compare", str(path), "--seed", "3", *argv)
        assert code == 0, err
        assert err.count(warning) == 1
        assert out.splitlines()[0] == "method,alpha,gamma,threshold,stderr,k_exceeds_tail"
    code, out, err = run_cli(capsys, "compare", str(pareto_file), "--seed", "3",
                             "--kind", "continuous")
    assert warning not in err


def test_compare_warns_with_the_count_of_repeated_values(tmp_path, capsys):
    # Pareto values rounded to cents: not all whole numbers, but many ties
    values = np.round(pl_sample(PowerLawModel(alpha=2.5, xmin=1.0), 20_000, seed=2).values, 2)
    assert not np.array_equal(values, np.floor(values))
    path = tmp_path / "cents.csv"
    path.write_text("\n".join(f"{v:.2f}" for v in values), encoding="utf-8")
    code, out, err = run_cli(capsys, "compare", str(path), "--seed", "3")
    assert code == 0, err
    repeats = values.size - np.unique(values).size
    assert repeats > 0
    assert err.count(f"{repeats} of the 20000 values repeat a value already counted: "
                     "hill, adjusted_hill and moments assume continuous data, "
                     "and ties bias them") == 1
    assert out.splitlines()[0] == "method,alpha,gamma,threshold,stderr,k_exceeds_tail"


def test_compare_does_not_warn_on_distinct_whole_numbers(tmp_path, capsys):
    # every float64 at or above 2^53 is a whole number; scaling by it is exact
    values = 2.0**53 * pl_sample(PowerLawModel(alpha=2.5, xmin=1.0), 5000, seed=4).values
    assert np.array_equal(values, np.floor(values))
    assert np.unique(values).size == values.size
    path = tmp_path / "whole.csv"
    path.write_text("\n".join(repr(float(v)) for v in values), encoding="utf-8")
    code, out, err = run_cli(capsys, "compare", str(path), "--seed", "3")
    assert code == 0, err
    assert "ties bias" not in err
    assert len(out.splitlines()) == 5


# -- pipeline ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def fixture_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "earnings.csv"
    write_fixture(path, n_rows=3000, seed=11)
    return path


def test_pipeline_end_to_end(fixture_csv, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, "pipeline", str(fixture_csv),
                              "--out", str(out), "--seed", "3")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["outputs"]) >= 10
    assert manifest["seed"] == 3
    for name in ("table1_platform_stats.csv", "table1_platform_stats.json",
                 "table2_nsfw_breakdown.csv", "table2_nsfw_breakdown.json"):
        assert (out / name).exists()
    assert any(name.startswith("figures/ccdf_") and name.endswith(".svg")
               for name in manifest["outputs"])
    # every ccdf figure traces back to the hash of the fit it drew
    for fig, digest in manifest["figure_inputs"].items():
        platform = fig.removeprefix("ccdf_")
        assert manifest["outputs"][f"fits/{platform}.json"] == digest


def test_pipeline_rerun_byte_identical(fixture_csv, tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "pipeline", str(fixture_csv), "--out", str(out1), "--seed", "3")
    run_cli(capsys, "pipeline", str(fixture_csv), "--out", str(out2), "--seed", "3")
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]  # same hashes for every artifact


def test_run_pipeline_returns_the_written_manifest(fixture_csv, tmp_path, capsys):
    run_cli(capsys, "pipeline", str(fixture_csv), "--out", str(tmp_path / "cli"),
            "--seed", "3")
    written = json.loads((tmp_path / "cli" / "manifest.json").read_text())
    manifest = run_pipeline(fixture_csv, tmp_path / "lib", floor=10.0,
                            floor_inclusive=False, min_tail=50, bootstrap=0,
                            seed=3, workers=1)
    assert manifest["outputs"] == written["outputs"]
    assert manifest["figure_inputs"] == written["figure_inputs"]
    assert json.loads((tmp_path / "lib" / "manifest.json").read_text()) == manifest


def test_run_pipeline_bootstrap_is_worker_invariant(fixture_csv, tmp_path):
    runs = {name: run_pipeline(fixture_csv, tmp_path / name, floor=10.0,
                               floor_inclusive=False, min_tail=50, bootstrap=bootstrap,
                               seed=3, workers=workers)
            for name, bootstrap, workers in (("w1", 100, 1), ("w2", 100, 2), ("plain", 0, 1))}
    one, two, plain = runs["w1"], runs["w2"], runs["plain"]
    for rel in one["outputs"]:
        assert (tmp_path / "w1" / rel).read_bytes() == (tmp_path / "w2" / rel).read_bytes()
    written = [json.loads((tmp_path / name / "manifest.json").read_text())
               for name in ("w1", "w2")]
    for manifest in (one, two, *written):
        del manifest["wall_clock_s"]
    assert one == two == written[0] == written[1]
    fits = [rel for rel in one["outputs"] if rel.startswith("fits/")]
    assert fits
    for rel in fits:
        report = json.loads((tmp_path / "w1" / rel).read_text())
        assert 0.0 <= report["p_value"] <= 1.0 and report["n_failed"] >= 0
    figures = {rel: digest for rel, digest in one["outputs"].items()
               if rel.endswith((".csv", ".svg"))}
    assert figures == {rel: digest for rel, digest in plain["outputs"].items()
                       if rel.endswith((".csv", ".svg"))}


def test_pipeline_writes_null_for_an_undefined_rank_correlation(tmp_path, capsys):
    # three platforms with the same earnings: equal medians and alphas have no ranks
    path = tmp_path / "same.csv"
    header = "creator_id,year,platforms,category,nsfw,members,paid_members,earnings"
    earnings = pl_sample(PowerLawModel(alpha=2.2, xmin=20.0), 300, seed=5).values
    rows = [f"{name}{i},2021,{field},art,false,{100 + i},{i % 50},{e:.6f}"
            for name, field in (("t", "twitch"), ("y", "youtube"), ("p", ""))
            for i, e in enumerate(earnings)]
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "pipeline", str(path), "--out", str(out))
    assert code == 0, err
    manifest = strict_json((out / "manifest.json").read_text())
    assert {f"fits/{p}.json" for p in ("patreon", "twitch", "youtube")} <= set(manifest["outputs"])
    assert manifest["stats"]["median_vs_alpha_spearman"] is None


def run_pipeline_warning_free(capsys, fixture_csv, tmp_path, earnings):
    """`tailkit pipeline` on `fixture_csv` plus one row earning `earnings`,
    every warning raised as an error: (exit code, stdout, stderr, outdir)."""
    path = tmp_path / "huge.csv"
    path.write_text(fixture_csv.read_text(encoding="utf-8")
                    + f"z1,2021,,music,false,10,5,{earnings}\n", encoding="utf-8")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return (*run_cli(capsys, "pipeline", str(path), "--out", str(out)), out)


@pytest.mark.parametrize("earnings", ["1e160", "1e300"])
def test_pipeline_keeps_statistics_finite_for_huge_earnings(earnings, fixture_csv, tmp_path,
                                                            capsys):
    # the imputation carries the value into every platform; its sd overflowed to inf
    code, _, err, out = run_pipeline_warning_free(capsys, fixture_csv, tmp_path, earnings)
    assert code == 0, err
    written = sorted(out.rglob("*.json"))
    assert len(written) > 5
    for path in written:
        strict_json(path.read_text(encoding="utf-8"))


def test_pipeline_earnings_past_the_normal_equations_exit_2_without_warning(
        fixture_csv, tmp_path, capsys):
    code, stdout, err, _ = run_pipeline_warning_free(capsys, fixture_csv, tmp_path, "1.7e308")
    assert (code, stdout) == (2, "")
    assert "error: non-finite coefficients" in err


def test_pipeline_with_unidentifiable_imputation_exits_2(tmp_path, capsys):
    # 60 observed rows in 60 categories: 63 coefficients
    path = tmp_path / "wide.csv"
    header = "creator_id,year,platforms,category,nsfw,members,paid_members,earnings"
    rows = [f"c{i},2021,,cat{i},false,{100 + i},{i},{50.0 + i}" for i in range(60)]
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "pipeline", str(path), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == "error: imputation model has 63 coefficients for 60 observed rows\n"
    assert not out.exists()


@pytest.mark.parametrize("year, category", [(2030, "music"), (2018, "art")])
def test_pipeline_says_how_many_rows_it_imputed_with_a_reference_level(year, category,
                                                                       tmp_path, capsys):
    # the model sees the years 2018 and 2024 and the categories comics and music
    path = tmp_path / "levels.csv"
    header = "creator_id,year,platforms,category,nsfw,members,paid_members,earnings"
    rows = [f"c{i},{(2018, 2024)[i % 2]},youtube,{('music', 'comics')[i // 2 % 2]},false,"
            f"{100 + i},{i},{50.0 + 3 * i}" for i in range(80)]
    rows += [f"m{i},{year},youtube,{category},false,100,10," for i in range(4)]
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "pipeline", str(path), "--out", str(tmp_path / "out"))
    assert code == 0, err
    assert "4 records imputed with a reference-level category or year\n" in err


def test_pipeline_on_a_header_only_csv_exits_2_without_an_output_directory(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("creator_id,year,platforms,category,nsfw,members,paid_members,earnings\n",
                    encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "pipeline", str(path), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.endswith("error: no usable records in input\n")
    assert not out.exists()


@pytest.mark.parametrize("rows, error", [
    ([], "no usable records in input"),
    # the rows of the unidentifiable imputation above
    ([f"c{i},2021,,cat{i},false,{100 + i},{i},{50.0 + i}" for i in range(60)],
     "imputation model has 63 coefficients for 60 observed rows"),
], ids=["no_usable_rows", "imputation_refused"])
def test_pipeline_refused_after_a_rejected_row_leaves_no_output_directory(rows, error, tmp_path,
                                                                          capsys):
    path = tmp_path / "rejected.csv"
    header = "creator_id,year,platforms,category,nsfw,members,paid_members,earnings"
    path.write_text("\n".join([header, "c1,notayear,,music,false,3,1,20", *rows]) + "\n",
                    encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "pipeline", str(path), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == f"rejected 1 malformed rows\nerror: {error}\n"
    assert not out.exists()


def test_pipeline_says_per_platform_how_many_replicates_failed(fixture_csv, tmp_path,
                                                               monkeypatch, capsys):
    def all_failed(s, fit, n_boot, seed, workers):
        return GofResult(p_value=1.0, n_boot=n_boot, observed_ks=fit.ks, seed=seed,
                         n_failed=n_boot)
    monkeypatch.setattr(pipeline, "gof_pvalue", all_failed)
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "pipeline", str(fixture_csv), "--out", str(out),
                           "--bootstrap", "100")
    assert code == 0
    fitted = sorted(p.stem for p in (out / "fits").glob("*.json"))
    assert len(fitted) == 6
    assert [line for line in err.splitlines(keepends=True)
            if "replicates failed" in line] == [f"{p}: {FAILED_REPLICATES}" for p in fitted]


def test_pipeline_rejects_small_bootstrap_before_writing(fixture_csv, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("x", encoding="utf-8")
    code, _, err = run_cli(capsys, "pipeline", str(fixture_csv), "--out", str(out),
                           "--bootstrap", "20")
    assert code == 2
    assert "n_boot must be >= 100, got 20" in err
    assert [p.name for p in out.iterdir()] == ["keep.txt"]


@pytest.mark.parametrize("command, n_boot", [("fit", "-5"), ("fit", "20"), ("pipeline", "-5")])
def test_bootstrap_below_100_rejected_before_any_work(command, n_boot, pareto_file,
                                                      fixture_csv, tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.setattr(cli, "select_xmin", None)  # fit: rejected before the scan
    out = tmp_path / "out"
    argv = ([str(pareto_file)] if command == "fit"
            else [str(fixture_csv), "--out", str(out)])
    code, stdout, err = run_cli(capsys, command, *argv, f"--bootstrap={n_boot}")
    assert code == 2
    assert f"n_boot must be >= 100, got {n_boot}" in err
    assert stdout == ""
    assert not out.exists()


def test_pipeline_rejects_small_min_tail_before_writing(fixture_csv, tmp_path, capsys):
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "pipeline", str(fixture_csv), "--out", str(out),
                           "--min-tail", "1")
    assert code == 2
    assert "min_tail must be >= 2, got 1" in err
    assert not out.exists()


@pytest.mark.parametrize("floor", ["nan", "inf", "-inf"])
def test_pipeline_rejects_a_floor_that_is_not_finite(floor, tmp_path, capsys):
    bundled = Path(__file__).resolve().parent.parent / "data" / "earnings_fixture.csv"
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "pipeline", str(bundled), "--out", str(out),
                           f"--floor={floor}")
    assert code == 2
    assert f"floor must be a finite number, got {float(floor)}" in err
    assert not out.exists()


@pytest.fixture(scope="module")
def zero_earnings_csv(tmp_path_factory):
    """The bundled fixture with its first 40 observed twitch earnings set to 0."""
    bundled = Path(__file__).resolve().parent.parent / "data" / "earnings_fixture.csv"
    lines = bundled.read_text(encoding="utf-8").splitlines()
    twitch = [i for i, line in enumerate(lines)
              if line.split(",")[2] == "twitch" and line.split(",")[-1]]
    for i in twitch[:40]:
        lines[i] = lines[i].rsplit(",", 1)[0] + ",0"
    path = tmp_path_factory.mktemp("data") / "zeros.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("argv, shown", [
    (["--floor", "0", "--floor-inclusive"], "0.0 inclusive"),
    (["--floor=-1"], "-1.0"),
], ids=["zero-inclusive", "negative"])
def test_pipeline_refuses_a_floor_that_keeps_zero_earnings(argv, shown, zero_earnings_csv,
                                                           tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "pipeline", str(zero_earnings_csv), "--out", str(out),
                                *argv)
    assert (code, stdout) == (2, "")
    assert err == (f"error: floor {shown} would keep earnings <= 0, "
                   "which table 1 and the tail fits cannot use\n")
    assert not out.exists()


def test_pipeline_floor_zero_counts_zero_earnings_nowhere(zero_earnings_csv, tmp_path, capsys):
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "pipeline", str(zero_earnings_csv), "--out", str(out),
                           "--floor", "0")
    assert code == 0
    dropped = int(re.search(r"floor filter dropped (\d+) records", err).group(1))
    assert dropped >= 40
    [table1] = [row for row in (out / "table1_platform_stats.csv").read_text().splitlines()
                if row.startswith("twitch,")]
    table2 = [row.split(",") for row in (out / "table2_nsfw_breakdown.csv").read_text()
              .splitlines() if row.startswith("twitch,")]
    assert int(table1.split(",")[1]) == sum(int(row[2]) for row in table2)


def test_workers_variable_must_be_an_integer(pareto_file, monkeypatch, capsys):
    monkeypatch.setenv("TAILKIT_WORKERS", "abc")
    monkeypatch.setattr(cli, "_read_column", None)  # the variable is read first:
    monkeypatch.setattr(cli, "select_xmin", None)   # no input is read, no scan runs
    code, out, err = run_cli(capsys, "fit", str(pareto_file), "--bootstrap", "100")
    assert code == 2
    assert out == ""
    assert "error: TAILKIT_WORKERS must be an integer, got 'abc'" in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_variable_must_be_positive(workers, pareto_file, monkeypatch, capsys):
    monkeypatch.setenv("TAILKIT_WORKERS", workers)
    monkeypatch.setattr(cli, "_read_column", None)
    monkeypatch.setattr(cli, "select_xmin", None)
    code, out, err = run_cli(capsys, "fit", str(pareto_file), "--bootstrap", "100")
    assert code == 2
    assert out == ""
    assert f"error: TAILKIT_WORKERS must be >= 1, got {workers}" in err


def test_pipeline_reads_the_workers_variable_only_for_a_bootstrap(fixture_csv, tmp_path,
                                                                  monkeypatch, capsys):
    monkeypatch.setenv("TAILKIT_WORKERS", "abc")
    code, _, err = run_cli(capsys, "pipeline", str(fixture_csv), "--out", str(tmp_path / "a"))
    assert code == 0, err
    monkeypatch.setattr(pipeline, "parse_csv", None)  # the variable is read before any input
    code, out, err = run_cli(capsys, "pipeline", str(fixture_csv), "--out", str(tmp_path / "b"),
                             "--bootstrap", "100")
    assert (code, out) == (2, "")
    assert "error: TAILKIT_WORKERS must be an integer, got 'abc'" in err
    assert not (tmp_path / "b").exists()


def test_make_rng_rejects_a_negative_seed_or_stream_index():
    with pytest.raises(errors.DomainError, match="must be >= 0, got -1"):
        make_rng(-1)
    with pytest.raises(errors.DomainError, match="must be >= 0, got -2"):
        make_rng(3, 0, -2)


@pytest.mark.parametrize("command", ["fit", "simulate", "compare", "pipeline"])
def test_a_negative_seed_exits_2_before_any_command_runs(command, pareto_file, fixture_csv,
                                                         tmp_path, capsys):
    out = tmp_path / "out"
    argv = {"fit": [str(pareto_file)], "compare": [str(pareto_file)],
            "simulate": ["--model", "copy", "--nodes", "2000", "--out", str(out)],
            "pipeline": [str(fixture_csv), "--out", str(out), "--bootstrap", "100"]}
    code, stdout, err = run_cli(capsys, command, *argv[command], "--seed", "-1")
    assert (code, stdout) == (2, "")
    assert "error: seeds and stream indices must be >= 0, got -1" in err
    assert not out.exists()


def test_run_pipeline_checks_the_seed_before_writing(fixture_csv, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(errors.DomainError, match="got -5"):
        run_pipeline(fixture_csv, out, floor=10.0, floor_inclusive=False, min_tail=50,
                     bootstrap=100, seed=-5, workers=1)
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "compare", "pipeline"])
def test_input_that_is_not_utf8_is_a_schema_error(command, pareto_file, fixture_csv,
                                                  tmp_path, capsys):
    # the bad byte sits past the first chunk of text the reader decodes
    source = fixture_csv if command == "pipeline" else pareto_file
    lines = source.read_bytes().splitlines(keepends=True)
    lines[-2] = (b"c9,2021,,m\xe9sic,false,3,1,20.0\n" if command == "pipeline"
                 else b"\xff\n")
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"".join(lines))
    out = tmp_path / "out"
    argv = ["--out", str(out)] if command == "pipeline" else []
    code, stdout, err = run_cli(capsys, command, str(bad), *argv)
    assert (code, stdout) == (2, "")
    assert f"error: {bad}: not valid UTF-8" in err
    assert not out.exists()


# the documented exit code of every error class: 1 I/O, 2 schema or
# configuration, 3 sample too small, 4 degenerate data
DOCUMENTED_EXIT_CODES = {
    "OSError": 1, "TailkitError": 2, "DomainError": 2, "SchemaError": 2,
    "KindMismatch": 2, "SingularDesign": 2, "RenderError": 2,
    "InsufficientGrid": 3, "SampleTooSmall": 3, "EmptySample": 3, "DegenerateTail": 4,
}


def test_every_error_class_maps_to_its_documented_exit_code(monkeypatch, capsys):
    classes = [cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.TailkitError)]
    assert {cls.__name__ for cls in classes} == set(DOCUMENTED_EXIT_CODES) - {"OSError"}
    for cls in [*classes, FileNotFoundError, OSError]:
        def fail(args, cls=cls):
            raise cls(f"raised {cls.__name__}")
        monkeypatch.setattr(cli, "cmd_compare", fail)
        code, out, err = run_cli(capsys, "compare", "x.csv")
        name = "OSError" if issubclass(cls, OSError) else cls.__name__
        assert (code, out, err) == (DOCUMENTED_EXIT_CODES[name], "",
                                    f"error: raised {cls.__name__}\n"), cls


def test_pipeline_manifest_lists_rejected_rows_log(fixture_csv, tmp_path, capsys):
    dirty = tmp_path / "dirty.csv"
    dirty.write_text(fixture_csv.read_text(encoding="utf-8")
                     + "bad1,20x1,,art,false,1,1,5.0\nbad2,2021,,art,maybe,1,1,5.0\n",
                     encoding="utf-8")
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "pipeline", str(dirty), "--out", str(out))
    assert code == 0
    assert "rejected 2 malformed rows" in err
    manifest = json.loads((out / "manifest.json").read_text())
    log = (out / "rejected_rows.log").read_bytes()
    assert len(log.splitlines()) == 2
    assert manifest["outputs"]["rejected_rows.log"] == hashlib.sha256(log).hexdigest()


def test_pipeline_skips_degenerate_platform(tmp_path, capsys):
    path = tmp_path / "tied.csv"
    header = "creator_id,year,platforms,category,nsfw,members,paid_members,earnings"
    earnings = pl_sample(PowerLawModel(alpha=2.2, xmin=20.0), 400, seed=5).values
    rows = [f"p{i},2021,,art,false,{100 + i},{i % 50},{e:.6f}"
            for i, e in enumerate(earnings)]
    rows += [f"t{i},2021,twitch,games,false,{100 + i},{i % 50},25.0" for i in range(80)]
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "pipeline", str(path), "--out", str(out))
    assert code == 0, err
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["skipped"]["platform"]) == {"twitch"}
    assert set(manifest["skipped"]["platform_year"]) == {"twitch/2021"}
    assert "fits/patreon.json" in manifest["outputs"]
    assert "fits/twitch.json" not in manifest["outputs"]
    assert f"skipping fit for twitch: {manifest['skipped']['platform']['twitch']}" in err


def test_pipeline_all_multiplatform_warns_not_fails(tmp_path, capsys):
    path = tmp_path / "multi.csv"
    header = "creator_id,year,platforms,category,nsfw,members,paid_members,earnings"
    rows = [f"c{i},2021,twitter;youtube,music,false,100,{10 + i},{50.0 + i}"
            for i in range(120)]
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "pipeline", str(path),
                           "--out", str(tmp_path / "out"))
    assert code == 0
    assert "no single-platform records" in err


def test_pipeline_floor_inclusive_flag(tmp_path, capsys):
    path = tmp_path / "f.csv"
    header = "creator_id,year,platforms,category,nsfw,members,paid_members,earnings"
    rows = [f"c{i},2021,,music,false,100,{i % 50},{10.00 if i < 60 else 60.0}"
            for i in range(120)]
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    out_strict = tmp_path / "strict"
    out_incl = tmp_path / "incl"
    run_cli(capsys, "pipeline", str(path), "--out", str(out_strict))
    run_cli(capsys, "pipeline", str(path), "--out", str(out_incl),
            "--floor-inclusive")
    strict = (out_strict / "table1_platform_stats.csv").read_text()
    incl = (out_incl / "table1_platform_stats.csv").read_text()
    assert int(strict.splitlines()[1].split(",")[1]) == 60
    assert int(incl.splitlines()[1].split(",")[1]) == 120


def test_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "tailkit.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


def _run_python(*args, cwd=None, **run):
    """Run the interpreter with `args` in a fresh process that imports
    tailkit from this tree; `run` goes to `subprocess.run`."""
    import tailkit

    src = str(Path(tailkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, text=True, env=env, cwd=cwd, **run)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_pipeline_ticks_an_axis_a_few_ulps_wide(tmp_path, monkeypatch):
    # two platforms whose table-1 medians are 11.01 and 11.010000000000002
    # (numpy's mean of 10.97 and 11.05): median_vs_alpha's x axis spans 2 ulps.
    # Ticks drawn by adding a float step until it passes the top never end on
    # such an axis, so the run gets 1 GiB of address space and a timeout.
    def tail(lo, n):
        return [round(lo * (1 - (j + 0.5) / n) ** (-1 / 1.5), 2) for j in range(n)]
    twitch = [round(10.1 + 0.01 * i, 2) for i in range(50)] + [11.01] + tail(11.5, 50)
    youtube = [round(10.2 + 0.01 * i, 2) for i in range(49)] + [10.97, 11.05] + tail(11.6, 49)
    rows = [f"c{i},2021,{p},music,false,100,10,{v}" for i, (p, v) in enumerate(
        [("twitch", v) for v in twitch] + [("youtube", v) for v in youtube])]
    path, out = tmp_path / "ulps.csv", tmp_path / "out"
    path.write_text("creator_id,year,platforms,category,nsfw,members,paid_members,earnings\n"
                    + "\n".join(rows) + "\n", encoding="utf-8")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # keep numpy's import inside the limit
    proc = _run_python("-m", "tailkit.cli", "pipeline", path, "--out", out,
                       timeout=120, preexec_fn=_limit_address_space)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["outputs"] == 30
    svg = (out / "figures" / "median_vs_alpha.svg").read_text(encoding="utf-8")
    x_labels = re.findall(r'text-anchor="middle" font-family="sans-serif" '
                          r'font-size="11">([^<]*)<', svg)
    assert x_labels == ["11.01"]


def test_cli_import_leaves_scipy_stats_unloaded():
    proc = _run_python("-c", "import sys, tailkit.cli; print('scipy.stats' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_the_process_pool_unloaded():
    proc = _run_python("-c", "import sys, tailkit.cli; "
                       "print('concurrent.futures.process' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_pipeline_runs_without_importing_scipy(fixture_csv, tmp_path):
    proc = _run_python(
        "-c", "import sys; from tailkit.cli import main; "
        "code = main(['pipeline', sys.argv[1], '--out', sys.argv[2]]); "
        "print(code, 'scipy' in sys.modules)",
        fixture_csv, tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]
    assert (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("argv", [["fit", "{pareto}", "--bootstrap", "100"],
                                  ["compare", "{pareto}"],
                                  ["simulate", "--model", "copy", "--nodes", "20000",
                                   "--gamma", "0.2", "--fit", "--out", "{out}"]],
                         ids=["fit", "compare", "simulate"])
def test_commands_leave_numpy_ma_unloaded(argv, pareto_file, tmp_path):
    # numpy's plain np.unique imports numpy.ma; these commands do not need it
    argv = [a.format(pareto=pareto_file, out=tmp_path / "d.csv") for a in argv]
    proc = _run_python("-c", "import sys; from tailkit.cli import main; "
                       "code = main(sys.argv[1:]); print(code, 'numpy.ma' in sys.modules)",
                       *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


def test_pipeline_names_the_line_of_an_over_long_field(fixture_csv, tmp_path):
    # a field longer than csv.field_size_limit() is a schema error, not a crash
    lines = fixture_csv.read_text(encoding="utf-8").splitlines(keepends=True)
    path = tmp_path / "long.csv"
    path.write_text("".join([*lines[:4], f"c9,2020,a,{'x' * 140_000},false,1,1,1.0\n",
                             *lines[4:]]), encoding="utf-8")
    out = tmp_path / "out"
    proc = _run_python("-m", "tailkit.cli", "pipeline", path, "--out", out)
    assert proc.returncode == 2
    assert "line 5: field larger than field limit (131072)" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_pipeline_names_the_line_of_an_over_long_field_past_two_blocks(
        fixture_csv, tmp_path, blocks_of_7, capsys):
    lines = fixture_csv.read_text(encoding="utf-8").splitlines(keepends=True)
    path = tmp_path / "long.csv"
    path.write_text("".join([*lines[:19], f"c9,2020,a,{'x' * 140_000},false,1,1,1.0\n",
                             *lines[19:]]), encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "pipeline", str(path), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert "error: line 20: field larger than field limit (131072)" in err
    assert "Traceback" not in err
    assert blocks_of_7 == [7, 7]
    assert not out.exists()


def test_pipeline_names_a_file_not_utf8_past_three_blocks(fixture_csv, tmp_path, blocks_of_7,
                                                          capsys):
    lines = fixture_csv.read_bytes().splitlines(keepends=True)
    lines[-2] = b"c9,2021,,m\xe9sic,false,3,1,20.0\n"
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"".join(lines))
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "pipeline", str(bad), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert f"error: {bad}: not valid UTF-8" in err
    assert len(blocks_of_7) > 3 and set(blocks_of_7) == {7}
    assert not out.exists()


@pytest.mark.parametrize("demo", ["01_power_law_basics", "02_tail_fitting",
                                  "03_estimator_comparison", "04_growth_models"])
def test_demo_runs(demo, tmp_path):
    proc = _run_python(Path(__file__).resolve().parents[1] / "demos" / f"{demo}.py",
                       cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if demo == "04_growth_models":  # the sweep: a header, then one row per gamma
        lines = proc.stdout.splitlines()
        head = lines.index("gamma,alpha_pred,alpha_mean,alpha_sd,n_runs")
        rows = [line.split(",") for line in lines[head + 1:head + 4]]
        assert [(r[0], r[1], r[4]) for r in rows] == [("0", "2", "5"), ("0.2", "2.25", "5"),
                                                      ("0.5", "3", "5")]
        assert all(float(r[2]) > 0 and float(r[3]) > 0 for r in rows)
        assert lines[head + 4] == ""


def test_earnings_demo_runs(tmp_path):
    demo = Path(__file__).resolve().parents[1] / "demos" / "05_earnings_pipeline.py"
    proc = _run_python(demo, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Spearman rho" in proc.stdout
    assert (tmp_path / "ccdf_demo.svg").exists()


README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("example", re.findall(r"```python\n(.*?)```",
                                               README.read_text(encoding="utf-8"), re.S),
                         ids=["run_pipeline", "quick_start"])
def test_readme_python_example_runs(example, tmp_path):
    (tmp_path / "data").mkdir()
    shutil.copy(README.parent / "data" / "earnings_fixture.csv", tmp_path / "data")
    proc = _run_python("-c", example, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
