"""Micro-benchmarks of the evaluation layer (pytest-benchmark).

Each runs a handful of rounds so that the suite stays quick; compare runs
with ``--benchmark-autosave`` / ``--benchmark-compare`` (kept in
``.benchmarks/``), or skip them with ``--benchmark-skip``.
"""

import numpy as np

from defectseq.baselines import KNN, predict_baseline_many, train_baseline
from defectseq.dataset import make_metric_vector
from defectseq.effort import CE_CUTOFFS, ce_report_values, scored_files
from defectseq.rnn import Hyperparams

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
