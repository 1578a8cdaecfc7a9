import concurrent.futures
import os

import numpy as np
import pytest

import tailkit.fit
from tailkit.errors import DegenerateTail, DomainError, KindMismatch
from tailkit.fit import fit_at, fit_report, gof_pvalue, select_xmin
from tailkit.powerlaw import PowerLawModel, pl_sample
from tailkit.rng import make_rng
from tailkit.sample import make_sample


@pytest.fixture(scope="module")
def pareto_fit():
    s = pl_sample(PowerLawModel(alpha=2.3, xmin=1.0), 5000, seed=3)
    return s, select_xmin(s)


def test_gof_true_model_plausible(pareto_fit):
    s, fit = pareto_fit
    g = gof_pvalue(s, fit, n_boot=200, seed=3)
    assert g.p_value >= 0.1
    assert g.n_boot == 200
    assert g.n_failed == 0
    assert g.observed_ks == fit.ks


def test_gof_pvalue_is_exact_fraction(pareto_fit):
    s, fit = pareto_fit
    g = gof_pvalue(s, fit, n_boot=100, seed=11)
    assert (g.p_value * g.n_boot) == round(g.p_value * g.n_boot)


def test_gof_misspecified_rejected():
    rng = make_rng(5)
    s = make_sample(rng.exponential(3.0, 5000) + 1.0)
    fit = select_xmin(s)
    g = gof_pvalue(s, fit, n_boot=200, seed=5)
    assert g.p_value < 0.1


def test_gof_rejects_tiny_n_boot(pareto_fit):
    s, fit = pareto_fit
    with pytest.raises(DomainError):
        gof_pvalue(s, fit, n_boot=0, seed=1)
    with pytest.raises(DomainError):
        gof_pvalue(s, fit, n_boot=99, seed=1)


def test_gof_deterministic_and_worker_invariant(pareto_fit):
    s, fit = pareto_fit
    a = gof_pvalue(s, fit, n_boot=100, seed=21)
    b = gof_pvalue(s, fit, n_boot=100, seed=21)
    c = gof_pvalue(s, fit, n_boot=100, seed=21, workers=2)
    assert a.p_value == b.p_value == c.p_value
    d = gof_pvalue(s, fit, n_boot=100, seed=22)
    assert d.seed != a.seed


@pytest.mark.parametrize("workers, cpus, pool_size", [
    (5000, 64, 64), (5000, 500, 100), (3, 64, 3), (5000, None, None), (1, 64, None)])
def test_gof_pool_never_exceeds_replicates_or_cpus(workers, cpus, pool_size, pareto_fit,
                                                    monkeypatch):
    # a fake pool records its size and maps in this process: no process starts
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    s, fit = pareto_fit
    serial = gof_pvalue(s, fit, n_boot=100, seed=21)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert gof_pvalue(s, fit, n_boot=100, seed=21, workers=workers) == serial
    assert sizes == ([] if pool_size is None else [pool_size])


def test_gof_rejects_a_fit_of_another_kind(pareto_fit, monkeypatch):
    s, fit = pareto_fit
    counts = make_sample(np.floor(s.values), kind="discrete")
    monkeypatch.setattr(tailkit.fit, "_one_replicate", None)  # no replicate is drawn
    with pytest.raises(KindMismatch):
        gof_pvalue(counts, fit, n_boot=100, seed=1)


def test_gof_all_tail_sample():
    # xmin at the sample minimum: body is empty, every draw is a tail draw
    s = pl_sample(PowerLawModel(alpha=2.0, xmin=1.0), 2000, seed=9)
    fit = fit_at(s, s.min)
    g = gof_pvalue(s, fit, n_boot=100, seed=2)
    assert 0.0 <= g.p_value <= 1.0


def test_gof_reports_failed_replicates(pareto_fit):
    s, fit = pareto_fit
    base = gof_pvalue(s, fit, n_boot=100, seed=4)
    calls = []

    def first_three_fail(sample):
        calls.append(1)
        if len(calls) <= 3:
            raise DegenerateTail("forced")
        return select_xmin(sample)

    g = gof_pvalue(s, fit, n_boot=100, seed=4, refit=first_three_fail)
    assert g.n_failed == 3
    # a failed replicate counts as a KS at least the observed one
    assert g.p_value >= 0.03
    assert g.p_value >= base.p_value - 0.03
    rep = fit_report(fit, n=len(s), gof=g)
    assert rep["n_failed"] == 3 and rep["p_value"] == g.p_value

