"""Micro-benchmarks of the training, parsing and evaluation layers
(pytest-benchmark).

Each runs a handful of rounds so that the suite stays quick; compare runs
with ``--benchmark-autosave`` / ``--benchmark-compare`` (kept in
``.benchmarks/``), or skip them with ``--benchmark-skip``.
"""

import numpy as np

from defectseq.baselines import KNN, predict_baseline_many, train_baseline
from defectseq.dataset import PROMISE_CODE_METRICS, make_metric_vector, parse_metrics_csv
from defectseq.effort import CE_CUTOFFS, ce_report_values, scored_files
from defectseq.rnn import Hyperparams, batch_gradient, group_by_length, init_params

from helpers import hvsm_set

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


def test_knn_predict_1700_by_560(benchmark):
    rng = np.random.default_rng(1)
    train = [
        (make_metric_vector(row, SCHEMA), int(label))
        for row, label in zip(rng.normal(size=(560, 20)), rng.integers(0, 2, size=560))
    ]
    model = train_baseline(KNN, train, Hyperparams())
    queries = [make_metric_vector(row, SCHEMA) for row in rng.normal(size=(1700, 20))]
    probs = benchmark.pedantic(predict_baseline_many, args=(model, queries), rounds=3)
    assert probs.shape == (1700,)


def test_batch_gradient_standin_sized(benchmark):
    # about one stand-in training set: 870 samples of lengths 1..3, 20 metrics
    rng = np.random.default_rng(2)
    samples = [
        (rng.normal(size=(int(rng.integers(1, 4)), 20)), int(rng.integers(0, 2))) for _ in range(870)
    ]
    batch = group_by_length(hvsm_set(samples))
    params = init_params(Hyperparams(hidden_size=16, seed=0), input_dim=20)
    grad, loss = benchmark.pedantic(batch_gradient, args=(params, batch, 1e-4), rounds=20)
    assert grad.dU.shape == (16, 20) and np.isfinite(loss)


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
