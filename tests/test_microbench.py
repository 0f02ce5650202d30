"""Micro-benchmarks of the training, parsing, evaluation and emit layers,
and of the project workers' dispatch (pytest-benchmark).

Each runs a handful of rounds so that the suite stays quick; skip them
with ``--benchmark-skip``.  They time one tree.  To compare a change with
its parent, do not set a saved run of one interpreter against another's
(``--benchmark-autosave`` / ``--benchmark-compare``): a host's CPU speed
can drift between the two by more than the difference.  On a 2-vCPU VM,
separate runs put one case at +23% where the same case, interleaved,
read -10.6%.  Instead, load both trees' functions in one process and
alternate between them round by round, each round timing the parent's
call and the change's on the same inputs.
"""

import json
import math
import time

import numpy as np
import pytest

from defectseq.baselines import (
    FEEDFORWARD_NN,
    KNN,
    Features,
    _train_logistic,
    predict_baseline_many,
    train_baseline,
)
from defectseq.dataset import (
    PROMISE_CODE_METRICS,
    ProjectHistory,
    VersionSnapshot,
    parse_metrics_csv,
)
from defectseq.effort import (
    CE_CUTOFFS,
    ce_curve,
    ce_report_values,
    curve_to_csv,
    rank_by_density,
    scored_files,
)
from defectseq import experiment, rnn
from defectseq.experiment import ExperimentConfig, ProjectSpec, VersionEntry, _write_json
from defectseq.history import extract_hvsm_set
from defectseq.rnn import (
    Hyperparams,
    RnnParams,
    batch_gradient,
    group_by_length,
    init_params,
    train,
)
from defectseq.stats import chi2_ppf, scott_knott

from helpers import hvsm_set, sized_report, standin_sized_report

SCHEMA = tuple(f"m{i}" for i in range(20))


def test_ce_report_values_2000_files(benchmark):
    rng = np.random.default_rng(0)
    n = 2000
    keys = [f"src/f{i}.java" for i in range(n)]
    scores = np.round(rng.uniform(size=n), 2)  # coarse: tied densities
    locs = rng.integers(0, 400, size=n)
    bugs = rng.integers(0, 3, size=n) * (rng.uniform(size=n) < 0.3)

    def fresh():
        # new columns each round, so the ranking is not served from cache
        return (scored_files(keys, scores, locs, bugs)[0],), {}

    values = benchmark.pedantic(ce_report_values, setup=fresh, rounds=20)
    assert set(values) == {format(pi, "g") for pi in CE_CUTOFFS}


def test_curve_to_csv_1700_rows(benchmark):
    # one CE curve of a wide-eval sized test release
    rng = np.random.default_rng(5)
    n = 1700
    files, _ = scored_files(
        [f"src/f{i}.java" for i in range(n)],
        rng.uniform(size=n),
        rng.integers(1, 400, size=n),
        rng.integers(0, 3, size=n),
    )
    curve = ce_curve(rank_by_density(files))
    text = benchmark.pedantic(curve_to_csv, args=(curve,), rounds=20)
    assert text.count("\n") == n + 2


def test_report_json_standin_sized(benchmark, tmp_path):
    # report.json of the nine stand-in projects: 9 x 5 techniques x 500 files
    report = standin_sized_report()
    path = tmp_path / "report.json"

    def encode():
        with path.open("w", encoding="utf-8") as fh:
            _write_json(fh, report)

    benchmark.pedantic(encode, rounds=5)
    assert path.read_text(encoding="utf-8") == json.dumps(report, sort_keys=True, indent=2)


def test_emit_report_wide_eval_sized(benchmark, tmp_path):
    # every output file of a wide-eval sized report: two projects of 1700
    # and 1350 test files, five techniques of six runs each
    report = sized_report([1700, 1350], runs=6)
    written = benchmark.pedantic(experiment.emit_report, args=(report, tmp_path), rounds=5)
    assert len(written) == 4 + 2 * 5
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == (
        json.dumps(report, sort_keys=True, indent=2) + "\n"
    )


def test_aggregate_wide_eval_sized(benchmark):
    # the parent's statistics after the pool on a wide-eval sized report:
    # two projects, five techniques of six runs, 48 signed-rank tests
    report = sized_report([1700, 1350], runs=6)
    cfg = ExperimentConfig(projects=())
    benchmark.pedantic(experiment._aggregate, args=(report, cfg), rounds=20)
    assert set(report["aggregates"]["win_tie_loss"]) == {"lr", "nb", "knn", "nn"}


def test_init_params_twice_per_seed(benchmark):
    # a wide-eval project's initial weights: the rnn, then the nn, each draw
    # seeds 0..5 at hidden 16 and 20 inputs, from an empty memo each round
    seeds = [Hyperparams(hidden_size=16, seed=seed) for seed in range(6)]

    def draw():
        return [init_params(h, 20) for _ in range(2) for h in seeds]

    params = benchmark.pedantic(draw, setup=rnn._draw.cache_clear, rounds=20)
    assert len(params) == 12 and np.array_equal(params[0].theta, params[6].theta)


def test_knn_predict_1700_by_560(benchmark):
    rng = np.random.default_rng(1)
    train = Features(
        values=rng.normal(size=(560, 20)),
        schema=SCHEMA,
        labels=rng.integers(0, 2, size=560).astype(float),
    )
    model = train_baseline(KNN, train, Hyperparams())
    queries = Features(values=rng.normal(size=(1700, 20)), schema=SCHEMA)
    probs = benchmark.pedantic(predict_baseline_many, args=(model, queries), rounds=3)
    assert probs.shape == (1700,)


def test_nn_predict_1700_rows_after_idle(benchmark):
    # the nn's prediction of a wide-eval sized test release; its input
    # projection once crossed OpenBLAS's threading bound, and waking the
    # second thread after an idle spell stalled the call for milliseconds
    rng = np.random.default_rng(8)
    train = Features(
        values=rng.normal(size=(560, 20)),
        schema=SCHEMA,
        labels=rng.integers(0, 2, size=560).astype(float),
    )
    model = train_baseline(FEEDFORWARD_NN, train, Hyperparams(iterations=5))
    queries = Features(values=rng.normal(size=(1700, 20)), schema=SCHEMA)

    def idle():
        time.sleep(0.002)

    probs = benchmark.pedantic(
        predict_baseline_many, args=(model, queries), setup=idle, rounds=20
    )
    assert probs.shape == (1700,)


def standin_sized_set():
    # about one stand-in training set: 870 samples of lengths 1..3, 20 metrics
    rng = np.random.default_rng(2)
    samples = [
        (rng.normal(size=(int(rng.integers(1, 4)), 20)), int(rng.integers(0, 2))) for _ in range(870)
    ]
    return hvsm_set(samples)


def test_batch_gradient_standin_sized(benchmark):
    batch = group_by_length(standin_sized_set())
    params = init_params(Hyperparams(hidden_size=16, seed=0), input_dim=20)
    grad, loss = benchmark.pedantic(batch_gradient, args=(params, batch, 1e-4), rounds=20)
    assert grad.shape == params.theta.shape and np.isfinite(loss)


def test_train_standin_sized_20_iterations(benchmark):
    # 21 gradients and 20 steps: the per-step cost (the step's vector and
    # the parameter views) beside the per-gradient cases
    train_set = standin_sized_set()
    h = Hyperparams(hidden_size=16, iterations=20, seed=0)
    result = benchmark.pedantic(train, args=(train_set, h), rounds=5)
    assert len(result.loss_history) == 21 and np.isfinite(result.loss_history[-1])


def test_batch_gradient_long_history_sized(benchmark):
    # about one long-history training set: lengths 1..11, ten groups of 29
    # and 174 samples of the longest, 24 metrics; the sweep's 11 steps
    rng = np.random.default_rng(6)
    counts = [29] * 10 + [174]
    samples = [
        (rng.normal(size=(T, 24)), int(rng.integers(0, 2)))
        for T, n in enumerate(counts, start=1)
        for _ in range(n)
    ]
    batch = group_by_length(hvsm_set(samples))
    params = init_params(Hyperparams(hidden_size=16, seed=0), input_dim=24)
    grad, loss = benchmark.pedantic(batch_gradient, args=(params, batch, 1e-4), rounds=20)
    assert batch.depth == 11 and grad.shape == params.theta.shape and np.isfinite(loss)


def test_batch_gradient_one_step_sized(benchmark):
    # the nn baseline's gradient: 872 one-step samples, 20 metrics
    rng = np.random.default_rng(7)
    samples = [(rng.normal(size=(1, 20)), int(rng.integers(0, 2))) for _ in range(872)]
    batch = group_by_length(hvsm_set(samples))
    params = init_params(Hyperparams(hidden_size=16, seed=0), input_dim=20)
    grad, loss = benchmark.pedantic(batch_gradient, args=(params, batch, 1e-4), rounds=20)
    assert np.array_equal(RnnParams(grad, 16, 20).W, 1e-4 * params.W) and np.isfinite(loss)


def one_step_set():
    # the nn baseline's training set: 872 one-step samples, 20 metrics
    rng = np.random.default_rng(7)
    return hvsm_set([(rng.normal(size=(1, 20)), int(rng.integers(0, 2))) for _ in range(872)])


def test_train_one_step_20_iterations(benchmark):
    # the nn baseline's training: 21 one-step gradients and 20 steps
    h = Hyperparams(hidden_size=16, iterations=20, seed=0)
    result = benchmark.pedantic(train, args=(one_step_set(), h), rounds=5)
    assert len(result.loss_history) == 21 and np.isfinite(result.loss_history[-1])


def test_train_logistic_standin_sized(benchmark):
    # lr on a stand-in training release: 872 rows, 20 metrics, 300 iterations
    rng = np.random.default_rng(9)
    Z = rng.normal(size=(872, 20))
    y = (Z[:, 0] + rng.normal(size=872) > 0).astype(float)
    params = benchmark.pedantic(_train_logistic, args=(Z, y, Hyperparams(iterations=300)), rounds=5)
    assert params["weights"].shape == (20,) and np.isfinite(params["bias"])


def wide_eval_sized_history():
    # wide-eval's larger project: releases of 500, 560 and 1700 files, of
    # which 20 and 30 files die, 20 metrics
    rng = np.random.default_rng(10)
    keys, versions = [], []
    for vid, size, deaths in (("1", 500, 0), ("2", 560, 20), ("3", 1700, 30)):
        keys = keys[deaths:]
        keys += [f"src/r{vid}/F{i:04d}.java" for i in range(size - len(keys))]
        versions.append(VersionSnapshot(
            vid, SCHEMA, tuple(keys), rng.uniform(0, 100, size=(size, 20)),
            rng.integers(0, 3, size=size), np.zeros(size, dtype=np.int64),
        ))
    return ProjectHistory("wide", tuple(versions))


def test_extract_and_one_step_wide_eval_sized(benchmark):
    # a run's set building outside training: the test anchor's 1700 samples,
    # and the nn's one-step set of the anchor's rows
    history = wide_eval_sized_history()
    anchor = history.versions[-1]

    def build():
        features = Features(anchor.values, anchor.schema, (anchor.bugs > 0).astype(float))
        return extract_hvsm_set(history, "3"), features.one_step

    test_set, one_step = benchmark.pedantic(build, rounds=10)
    assert test_set.m == one_step.m == 1700
    assert [X.shape[0] for _, X in test_set.by_length] == [1, 2, 3]


def test_parse_metrics_csv_1000_rows(benchmark):
    rng = np.random.default_rng(3)
    metrics = PROMISE_CODE_METRICS
    lines = ["name," + ",".join(metrics) + ",bug"]
    for i in range(1000):
        values = ",".join(repr(v) for v in np.round(rng.uniform(0, 500, size=len(metrics)), 3).tolist())
        lines.append(f"org.example.C{i:04d},{values},{int(rng.integers(0, 3))}")
    data = ("\n".join(lines) + "\n").encode("utf-8")
    snapshot = benchmark.pedantic(parse_metrics_csv, args=(data, metrics, "1.0"), rounds=5)
    assert len(snapshot.files) == 1000


def test_parse_metrics_csv_1000_rows_quoted_keys(benchmark):
    # quoted keys keep numpy's reader off: the per-cell path
    rng = np.random.default_rng(3)
    metrics = PROMISE_CODE_METRICS
    lines = ["name," + ",".join(metrics) + ",bug"]
    for i in range(1000):
        values = ",".join(repr(v) for v in np.round(rng.uniform(0, 500, size=len(metrics)), 3).tolist())
        lines.append(f'"org.example.C{i:04d}",{values},{int(rng.integers(0, 3))}')
    data = ("\n".join(lines) + "\n").encode("utf-8")
    snapshot = benchmark.pedantic(parse_metrics_csv, args=(data, metrics, "1.0"), rounds=5)
    assert snapshot.keys[0] == "org.example.C0000" and len(snapshot.files) == 1000


def test_scott_knott_5_techniques_by_9_projects(benchmark):
    rng = np.random.default_rng(4)
    centres = {"rnn": 0.45, "lr": 0.30, "nn": 0.29, "nb": 0.20, "knn": 0.19}
    values = {t: list(rng.normal(loc=c, scale=0.03, size=9)) for t, c in centres.items()}
    grouping = benchmark.pedantic(scott_knott, args=(values,), rounds=20)
    assert len(grouping.ranks) >= 2  # at least one split, so the partition recursed


def test_chi2_ppf_two_technique_critical_value(benchmark):
    # the Scott-Knott critical value for a pair of techniques; scipy.stats.chi2.ppf
    # takes about 100 us per call on a 2-core VM, and Scott-Knott calls this once
    # per candidate partition
    nu = 2 / (math.pi - 2)
    critical = benchmark.pedantic(chi2_ppf, args=(0.95, nu), rounds=200)
    assert critical == pytest.approx(5.501357838893093, rel=1e-12)
    if not benchmark.disabled:  # --benchmark-disable makes one untimed call
        assert benchmark.stats.stats.mean < 100e-6


def finished_at_once(job):
    return True, {}


@pytest.mark.parametrize("n_jobs", [3, 9])
def test_map_projects_trivial_jobs(benchmark, monkeypatch, n_jobs):
    # the cost of forking two workers, handing out the jobs and reaping the
    # workers: every job returns at once
    monkeypatch.setattr(experiment, "_project_outcome", finished_at_once)
    monkeypatch.setattr(experiment, "_worker_count", lambda n: min(n, 2))
    versions = (VersionEntry("1", "a.csv"), VersionEntry("2", "b.csv"))
    jobs = [(ProjectSpec(f"p{i}", versions), None) for i in range(n_jobs)]
    outcomes = benchmark.pedantic(experiment._map_projects, args=(jobs,), rounds=20)
    assert outcomes == [(True, {})] * n_jobs
