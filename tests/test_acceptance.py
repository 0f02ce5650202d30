"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  The PROMISE-data criterion skips unless the nine projects' CSVs are
available locally (see tools/fetch_promise.py).
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from defectseq.baselines import LOGISTIC_REGRESSION, predict_baseline_many, train_baseline
from defectseq.dataset import PROMISE_CODE_METRICS
from defectseq.effort import CE_CUTOFFS, auc, ce_report_values
from defectseq.experiment import (
    ExperimentConfig,
    ProjectSpec,
    VersionEntry,
    emit_report,
    run_experiment,
)
from defectseq.history import (
    anchor_step,
    apply_normalizer,
    extract_hvsm_set,
    fit_normalizer,
    lifecycle_counts,
)
from defectseq.rnn import Hyperparams, gradient_check, predict_set, train

from helpers import hvsm_set, lifecycle_states, toy_history, trend_samples, write_trend_project
from test_effort import Row, instance_is_defined, oracle_ce, random_instance, ranked, THREE_FILES
from test_stats import oracle_cliffs, oracle_wilcoxon_p

from defectseq.stats import cliffs_delta, scott_knott, wilcoxon_signed_rank


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL  {label}")
        raise
    elapsed = time.time() - start
    print(f"[criterion {number}] PASS  {label} ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_1_gradient_correctness():
    with criterion(1, "training gradients match central finite differences", 10.0):
        worst = 0.0
        for hidden in (1, 3, 8):
            for input_dim in (1, 4, 24):
                for T in (1, 2, 5):
                    for y in (0, 1):
                        h = Hyperparams(hidden_size=hidden, seed=hidden * 100 + input_dim)
                        assert h.lam > 0  # the L2 term is part of the check
                        err = gradient_check(h, input_dim=input_dim, T=T, y=y)
                        assert err < 1e-5, (hidden, input_dim, T, y, err)
                        worst = max(worst, err)
        assert worst < 1e-5


def test_criterion_2_ce_oracle_equivalence():
    with criterion(2, "cost-effectiveness matches the brute-force area oracle", 5.0):
        rng = np.random.default_rng(20240)
        checked = 0
        while checked < 200:
            files = random_instance(rng, max_files=8)
            if not instance_is_defined(files):
                continue
            for pi in CE_CUTOFFS:
                ce = ce_report_values(*ranked(files), (pi,))[format(pi, "g")]
                assert ce == pytest.approx(oracle_ce(files, pi), abs=1e-12)
            checked += 1

        # an ordering already sorted by true density scores CE = 1 exactly
        files = [Row(f"f{i}", score=(4 - i) / 4, loc=10 + i, bugs=3 - i) for i in range(4)]
        for pi in CE_CUTOFFS:
            assert ce_report_values(*ranked(files), (pi,))[format(pi, "g")] == 1.0

        ce = ce_report_values(*ranked(THREE_FILES), (1.0,))["1"]
        assert ce == pytest.approx(0.7778, abs=1e-4)


def test_criterion_3_statistics_oracles():
    with criterion(3, "rank statistics match enumeration oracles", 10.0):
        rng = np.random.default_rng(77)
        for _ in range(500):
            n = int(rng.integers(1, 13))
            a = np.round(rng.normal(size=n), 1)
            b = np.round(rng.normal(size=n), 1)
            assert wilcoxon_signed_rank(a, b).p_value == oracle_wilcoxon_p(a, b)

        for _ in range(200):
            a = rng.integers(-5, 6, size=int(rng.integers(1, 12))).tolist()
            b = rng.integers(-5, 6, size=int(rng.integers(1, 12))).tolist()
            assert cliffs_delta(a, b) == pytest.approx(oracle_cliffs(a, b), abs=1e-15)

        separated = scott_knott({"high": [0.90, 0.91, 0.92], "low": [0.10, 0.11, 0.12]})
        assert separated.ranks == (("high",), ("low",))
        merged = scott_knott({"a": [0.5, 0.6, 0.7], "b": [0.5, 0.6, 0.7]})
        assert merged.ranks == (("a", "b"),)


def test_criterion_4_sequence_extraction_fidelity():
    with criterion(4, "lifecycle states and sequence lengths on the toy project", 1.0):
        history = toy_history()
        anchor = "v4"
        s = extract_hvsm_set(history, anchor, window=4)
        assert lifecycle_states(history, s) == {
            "fA": "developing",
            "fB": "developing",
            "fC": "developing",
            "fD": "newborn",
            "fE": "dead",
            "fF": "dead",
            "fG": "dead",
        }
        assert lifecycle_counts(history, anchor) == {"developing": 3, "newborn": 1, "dead": 3}

        lengths = {item.key: item.length for item in s.items}
        assert lengths == {"fA": 4, "fB": 3, "fC": 2, "fD": 1}
        assert {item.key for item in s.items} == {"fA", "fB", "fC", "fD"}


def test_criterion_5_sequence_information_learnability():
    with criterion(5, "trend labels: sequence model >0.85 AUC, single-version LR <0.60", 120.0):
        samples, final_rows = trend_samples(600, seed=2024, n_noise=3, T=3)
        train_samples, test_samples = samples[:300], samples[300:]
        train_set = hvsm_set(train_samples)
        test_set = hvsm_set(test_samples)
        test_labels = [label for _, label in test_samples]

        normalizer = fit_normalizer(train_set)
        train_norm = apply_normalizer(normalizer, train_set)
        test_norm = apply_normalizer(normalizer, test_set)
        aucs = []
        for r in range(10):
            h = Hyperparams(seed=100 + r)
            result = train(train_norm, h)
            probs = predict_set(result.params, test_norm)
            aucs.append(auc(probs, test_labels))
        rnn_auc = float(np.mean(aucs))

        # the single-version baseline reads each sequence's last step
        train_rows, test_rows = anchor_step(train_set), anchor_step(test_set)
        row_normalizer = fit_normalizer(train_rows)
        lr = train_baseline(
            LOGISTIC_REGRESSION, apply_normalizer(row_normalizer, train_rows), Hyperparams(seed=0)
        )
        lr_scores = predict_baseline_many(lr, apply_normalizer(row_normalizer, test_rows))
        lr_auc = auc(lr_scores, test_labels)

        print(f"    sequence-model mean AUC {rnn_auc:.3f}, single-version LR AUC {lr_auc:.3f}")
        assert rnn_auc > 0.85
        assert lr_auc < 0.60


PROMISE_PROJECTS = {
    "ant": ["1.3", "1.4", "1.5", "1.6", "1.7"],
    "camel": ["1.0", "1.2", "1.4", "1.6"],
    "jedit": ["3.2", "4.0", "4.1", "4.2", "4.3"],
    "log4j": ["1.0", "1.1", "1.2"],
    "lucene": ["2.0", "2.2", "2.4"],
    "poi": ["1.5", "2.0", "2.5", "3.0"],
    "velocity": ["1.4", "1.5", "1.6"],
    "xalan": ["2.4", "2.5", "2.6"],
    "xerces": ["init", "1.2", "1.3", "1.4"],
}

# developing-file percentages of the published train/test snapshots
EXPECTED_DF_PCT = {
    ("ant", "1.6"): 83.5, ("ant", "1.7"): 47.7,
    ("camel", "1.4"): 66.2, ("camel", "1.6"): 88.8,
    ("jedit", "4.2"): 79.3, ("jedit", "4.3"): 45.7,
    ("log4j", "1.1"): 89.9, ("log4j", "1.2"): 57.1,
    ("lucene", "2.2"): 77.7, ("lucene", "2.4"): 69.1,
    ("poi", "2.5"): 81.6, ("poi", "3.0"): 86.4,
    ("velocity", "1.5"): 72.4, ("velocity", "1.6"): 91.7,
    ("xalan", "2.5"): 85.8, ("xalan", "2.6"): 86.6,
    ("xerces", "1.3"): 95.6, ("xerces", "1.4"): 55.8,
}


def promise_dir() -> Path:
    return Path(os.environ.get("DEFECTSEQ_PROMISE_DIR", Path(__file__).parent.parent / "data" / "promise"))


def run_promise_checks(root: Path, hyperparams: Hyperparams, repeats: int, code_metrics) -> dict:
    """The soft-reproduction checks over <project>-<version>.csv tables:
    every published developing-file percentage within 0.5 points, and the
    sequence model ahead of the best baseline on mean CE_1."""
    projects = tuple(
        ProjectSpec(
            name=name,
            versions=tuple(
                VersionEntry(vid, str(root / f"{name}-{vid}.csv")) for vid in vids
            ),
            train_version=vids[-2],
            test_version=vids[-1],
        )
        for name, vids in PROMISE_PROJECTS.items()
    )
    cfg = ExperimentConfig(
        projects=projects,
        hyperparams=hyperparams,
        repeats=repeats,
        seed=1,
        code_metrics=code_metrics,
    )
    report = run_experiment(cfg)
    assert not report["errors"], report["errors"]

    for (name, vid), expected in EXPECTED_DF_PCT.items():
        payload = report["projects"][name]
        observed = (
            payload["train"]["developing_pct"]
            if vid == payload["train_version"]
            else payload["test"]["developing_pct"]
        )
        assert observed == pytest.approx(expected, abs=0.5), (name, vid, observed)

    means = report["aggregates"]["mean_by_technique"]["ce_1"]
    best_baseline = max(v for t, v in means.items() if t != "rnn")
    print(f"    mean CE_1: rnn {means['rnn']:.3f}, best baseline {best_baseline:.3f}")
    assert means["rnn"] > best_baseline
    return report


def test_criterion_6_promise_soft_reproduction():
    root = promise_dir()
    missing = [
        f"{name}-{vid}.csv"
        for name, vids in PROMISE_PROJECTS.items()
        for vid in vids
        if not (root / f"{name}-{vid}.csv").exists()
    ]
    if missing:
        pytest.skip(
            f"PROMISE CSVs not found under {root} (missing {missing[:3]}...); "
            "fetch them with tools/fetch_promise.py"
        )
    with criterion(6, "PROMISE soft checks: %DF reproduced, sequence model leads on CE_1", 1800.0):
        run_promise_checks(root, Hyperparams(), repeats=10, code_metrics=PROMISE_CODE_METRICS)


def test_criterion_7_run_determinism(tmp_path):
    with criterion(7, "two identical runs produce byte-identical report.json", 120.0):
        version_ids, paths, schema = write_trend_project(tmp_path, n_files=60)
        spec = ProjectSpec(
            name="trend",
            versions=tuple(VersionEntry(vid, str(paths[vid])) for vid in version_ids),
            train_version="u3",
            test_version="u4",
        )
        cfg = ExperimentConfig(
            projects=(spec,),
            hyperparams=Hyperparams(hidden_size=6, eta=0.5, iterations=60, seed=0),
            repeats=2,
            seed=11,
            window=3,
            code_metrics=schema,
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        emit_report(run_experiment(cfg), out_a)
        emit_report(run_experiment(cfg), out_b)
        bytes_a = (out_a / "report.json").read_bytes()
        bytes_b = (out_b / "report.json").read_bytes()
        assert bytes_a == bytes_b


def test_acceptance_suite_summary():
    # keep a stable marker line at the end of -s output
    print("acceptance criteria evaluated; see per-criterion lines above")
