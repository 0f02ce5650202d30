import contextlib
import io
import json
import math
import multiprocessing
import os
import select
import signal
import stat
import tempfile
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defectseq import baselines as bl
from defectseq import experiment
from defectseq.experiment import (
    ConfigError,
    ExperimentConfig,
    ProjectSpec,
    VersionEntry,
    compare_techniques,
    emit_report,
    load_config,
    run_experiment,
)
from defectseq.history import Hvsm
from defectseq.rnn import Hyperparams

from helpers import standin_sized_report, write_trend_project

FAST_HP = Hyperparams(hidden_size=6, eta=0.5, lam=1e-4, iterations=80, seed=0)


def trend_config(tmp_path, repeats=2, clean_test=False, **overrides):
    version_ids, paths, schema = write_trend_project(tmp_path, clean_test=clean_test)
    spec = ProjectSpec(
        name="trend",
        versions=tuple(VersionEntry(vid, str(paths[vid])) for vid in version_ids),
        train_version="u3",
        test_version="u4",
    )
    defaults = dict(
        projects=(spec,),
        hyperparams=FAST_HP,
        repeats=repeats,
        seed=7,
        window=3,
        code_metrics=schema,
        output_dir=str(tmp_path / "out"),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# one malformed value per config key read as a scalar, a list or a mapping
BAD_VALUES = [
    ("repeats: abc", "repeats must be an integer, got 'abc'"),
    ("seed: 1.5", "seed must be an integer, got 1.5"),
    ("seed: -1", "seed cannot be negative, got -1"),
    ("knn_k: true", "knn_k must be an integer, got True"),
    ("len: three", "len must be an integer, got 'three'"),
    ("sk_pool_runs: 'yes'", "sk_pool_runs must be true or false, got 'yes'"),
    ("hyperparams: {hidden_size: big}", "hyperparams.hidden_size must be an integer, got 'big'"),
    ("hyperparams: {eta: fast}", "hyperparams.eta must be a finite number, got 'fast'"),
    ("hyperparams: {lam: .nan}", "hyperparams.lam must be a finite number, got nan"),
    ("hyperparams: {iterations: 2.5}", "hyperparams.iterations must be an integer, got 2.5"),
    ("hyperparams: {seed: []}", "hyperparams: unknown hyperparameter 'seed'"),
    ("hyperparams: {init_scale: .inf}", "hyperparams.init_scale must be a finite number, got inf"),
    ("hyperparams: {halving_limit: null}", "hyperparams.halving_limit must be an integer, got None"),
    ("code_metrics: wmc", "code_metrics must be a list, got 'wmc'"),
    ("code_metrics: []", "code_metrics must name at least one metric when metrics is code"),
    ("code_metrics: [wmc, loc, wmc]", "code_metrics: 'wmc' is listed twice"),
    ("code_metrics: [wmc, bug]", "code_metrics: 'bug' is a reserved column name"),
    ("code_metrics: [name, wmc]", "code_metrics: 'name' is a reserved column name"),
    ("metrics: code+process\ncode_metrics: [wmc, cadd]", "code_metrics: 'cadd' is a reserved column name"),
    ("knn_k: 0", "knn_k must be at least 1, got 0"),
    ("baselines: lr", "baselines must be a list, got 'lr'"),
    ("hyperparams: [1]", "hyperparams must be a mapping"),
    ("technique_hyperparams: [nn]", "technique_hyperparams must be a mapping"),
    ("technique_hyperparams: {nn: fast}", "technique_hyperparams.nn must be a mapping"),
    ("technique_hyperparams: {nn: {eta: fast}}", "technique_hyperparams.nn.eta must be a finite number, got 'fast'"),
    ("technique_hyperparams: {nn: {iterations: 2.5}}", "technique_hyperparams.nn.iterations must be an integer, got 2.5"),
    ("technique_hyperparams: {nn: {eta: .nan}}", "technique_hyperparams.nn.eta must be a finite number, got nan"),
    ("technique_hyperparams: {nn: {depth: 4}}", "technique_hyperparams.nn: unknown hyperparameter 'depth'"),
    ("hyperparams: {iterations: 0}", "hyperparams: iterations must be positive"),
    ("technique_hyperparams: {nn: {iterations: 0}}", "technique_hyperparams.nn: iterations must be positive"),
    ("technique_hyperparams: {nn: {eta: -1}}", "technique_hyperparams.nn: eta must be non-negative"),
]


class TestConfig:
    def test_train_must_precede_test(self, tmp_path):
        with pytest.raises(ConfigError):
            ProjectSpec(
                name="bad",
                versions=(VersionEntry("a", "x.csv"), VersionEntry("b", "y.csv")),
                train_version="b",
                test_version="a",
            )

    def test_needs_two_versions(self):
        with pytest.raises(ConfigError):
            ProjectSpec(
                name="bad",
                versions=(VersionEntry("a", "x.csv"),),
                train_version="a",
                test_version="a",
            )

    def test_yaml_round_trip(self, tmp_path):
        version_ids, paths, schema = write_trend_project(tmp_path)
        config_text = "\n".join(
            [
                "seed: 7",
                "repeats: 2",
                "len: 3",
                "metrics: code",
                f"code_metrics: [{', '.join(schema)}]",
                "baselines: [lr, knn]",
                "hyperparams:",
                "  hidden_size: 6",
                "  eta: 0.5",
                "  iterations: 80",
                "projects:",
                "  - name: trend",
                "    train_version: u3",
                "    test_version: u4",
                "    versions:",
            ]
            + [f"      - id: {vid}\n        metrics: {paths[vid].name}" for vid in version_ids]
        )
        path = tmp_path / "config.yaml"
        path.write_text(config_text, encoding="utf-8")
        cfg = load_config(path)
        assert cfg.repeats == 2
        assert cfg.window == 3
        assert cfg.baseline_kinds == ("lr", "knn")
        assert cfg.projects[0].train_version == "u3"
        # relative csv paths resolve against the config file
        assert cfg.projects[0].versions[0].metrics_path == str(paths["u1"])

    def test_per_technique_hyperparam_overrides(self, tmp_path):
        cfg = trend_config(
            tmp_path,
            technique_hyperparams={"nn": {"eta": 0.01}, "rnn": {"hidden_size": 3}},
        )
        assert cfg.hyperparams_for("nn").eta == 0.01
        assert cfg.hyperparams_for("nn").hidden_size == FAST_HP.hidden_size
        assert cfg.hyperparams_for("rnn").hidden_size == 3
        assert cfg.hyperparams_for("lr") == FAST_HP

    def test_override_for_unknown_technique_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown technique"):
            trend_config(tmp_path, technique_hyperparams={"forest": {"eta": 0.1}})

    def test_override_with_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="override"):
            trend_config(tmp_path, technique_hyperparams={"nn": {"depth": 4}})

    def test_technique_overrides_from_yaml(self, tmp_path):
        version_ids, paths, schema = write_trend_project(tmp_path)
        path = tmp_path / "config.yaml"
        path.write_text(
            "technique_hyperparams:\n"
            "  nn: {iterations: 7}\n"
            "projects:\n"
            "  - name: trend\n"
            "    versions:\n"
            + "".join(
                f"      - id: {vid}\n        metrics: {paths[vid].name}\n"
                for vid in version_ids
            ),
            encoding="utf-8",
        )
        cfg = load_config(path)
        assert cfg.hyperparams_for("nn").iterations == 7

    @pytest.mark.parametrize(
        "block",
        ["hyperparams:\n  halving_limit: -3\n", "technique_hyperparams:\n  lr: {halving_limit: -1}\n"],
        ids=["shared", "override"],
    )
    def test_negative_halving_limit_rejected_from_yaml(self, tmp_path, block):
        version_ids, paths, schema = write_trend_project(tmp_path)
        path = tmp_path / "config.yaml"
        path.write_text(
            block
            + "projects:\n"
            "  - name: trend\n"
            "    versions:\n"
            + "".join(f"      - id: {vid}\n        metrics: {paths[vid].name}\n" for vid in version_ids),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="halving_limit must be non-negative"):
            load_config(path)

    @pytest.mark.parametrize(
        "projects, message",
        [
            ("  - versions: []\n", "projects[0]: missing key 'name'"),
            ("  - name: a\n    versions:\n      - {metrics: x.csv}\n",
             "projects[0].versions[0]: missing key 'id'"),
            ("  - name: a\n    versions:\n      - {id: v1, metrics: x.csv}\n      - {id: v2}\n",
             "projects[0].versions[1]: missing key 'metrics'"),
            ("  - just-a-name\n", "projects[0] must be a mapping"),
        ],
        ids=["name", "id", "metrics", "not-a-mapping"],
    )
    def test_missing_key_names_project_and_key(self, tmp_path, projects, message):
        path = tmp_path / "config.yaml"
        path.write_text("projects:\n" + projects, encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "name, message",
        [
            ("''", "''"),
            ("'  '", "'  '"),
            (".", "'.'"),
            ("..", "'..'"),
            ("a/b", "'a/b'"),
            ("../../escape", "'../../escape'"),
            ('"a\\0b"', "'a\\x00b'"),
        ],
        ids=["empty", "blank", "dot", "dot-dot", "slash", "escape", "nul"],
    )
    def test_unsafe_project_name_rejected(self, tmp_path, name, message):
        # a project name is part of the path ce_curves/<name>_<technique>.csv
        path = tmp_path / "config.yaml"
        path.write_text(
            f"projects:\n  - name: {name}\n"
            "    versions: [{id: a, metrics: a.csv}, {id: b, metrics: b.csv}]\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"projects[0]: project name {message} is not a safe file name"

    @pytest.mark.parametrize("window", [0, -2])
    def test_non_positive_len_rejected_up_front(self, tmp_path, window):
        version_ids, paths, schema = write_trend_project(tmp_path)
        path = tmp_path / "config.yaml"
        path.write_text(
            f"len: {window}\n"
            "projects:\n"
            "  - name: trend\n"
            "    versions:\n"
            + "".join(f"      - id: {vid}\n        metrics: {paths[vid].name}\n" for vid in version_ids),
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match=f"len must be at least 1, got {window}"):
            load_config(path)

    @pytest.mark.parametrize(
        "line, message",
        BAD_VALUES,
        # a range error keeps its whole message, apart from its key's type error
        ids=[m if " at least " in m else m.split(" must be")[0] for _, m in BAD_VALUES],
    )
    def test_malformed_value_names_key(self, tmp_path, line, message):
        path = tmp_path / "config.yaml"
        path.write_text(line + "\nprojects: []\n", encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == message

    def test_integral_values_still_read(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(
            "repeats: '3'\nlen: 2.0\nhyperparams: {eta: 1, iterations: 40}\nprojects: []\n",
            encoding="utf-8",
        )
        cfg = load_config(path)
        assert (cfg.repeats, cfg.window) == (3, 2)
        assert (cfg.hyperparams.eta, cfg.hyperparams.iterations) == (1.0, 40)
        assert type(cfg.hyperparams.eta) is float

    def test_last_two_versions_default(self, tmp_path):
        version_ids, paths, schema = write_trend_project(tmp_path)
        path = tmp_path / "config.yaml"
        path.write_text(
            "projects:\n"
            "  - name: trend\n"
            "    versions:\n"
            + "".join(f"      - id: {vid}\n        metrics: {paths[vid].name}\n" for vid in version_ids),
            encoding="utf-8",
        )
        cfg = load_config(path)
        assert cfg.projects[0].train_version == "u3"
        assert cfg.projects[0].test_version == "u4"


def average_rank(table):
    """``compare_techniques``'s average ranks for one value per (project,
    technique), given as {project: {technique: value}}."""
    techniques = next(iter(table.values()))
    values = {t: {p: [row[t]] for p, row in table.items()} for t in techniques}
    return compare_techniques(values, list(table))[1]


class TestAverageRank:
    def test_single_technique(self):
        table = {f"p{i}": {"only": 0.5} for i in range(4)}
        assert average_rank(table) == {"only": 1.0}

    def test_always_best(self):
        table = {f"p{i}": {"a": 0.9, "b": 0.5} for i in range(9)}
        ranks = average_rank(table)
        assert ranks["a"] == 1.0 and ranks["b"] == 2.0

    def test_five_four_split(self):
        table = {}
        for i in range(5):
            table[f"p{i}"] = {"a": 0.9, "b": 0.5}
        for i in range(5, 9):
            table[f"p{i}"] = {"a": 0.5, "b": 0.9}
        ranks = average_rank(table)
        assert ranks["a"] == pytest.approx(13 / 9, abs=1e-12)
        assert ranks["b"] == pytest.approx(14 / 9, abs=1e-12)

    def test_ties_share_average_rank(self):
        table = {"p0": {"a": 0.5, "b": 0.5, "c": 0.1}}
        ranks = average_rank(table)
        assert ranks["a"] == ranks["b"] == 1.5
        assert ranks["c"] == 3.0


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    cfg = trend_config(tmp_path_factory.mktemp("trend"))
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("emit")
    cfg = trend_config(tmp_path, repeats=2)
    report = run_experiment(cfg)
    out = tmp_path / "out"
    written = emit_report(report, out)
    return report, out, written


class TestRunExperiment:
    def test_project_completes(self, report):
        assert report["errors"] == {}
        assert "trend" in report["projects"]

    def test_all_techniques_present(self, report):
        techniques = report["projects"]["trend"]["techniques"]
        assert set(techniques) == {"rnn", "lr", "nb", "knn", "nn"}

    def test_runs_match_repeat_count(self, report):
        for entry in report["projects"]["trend"]["techniques"].values():
            assert len(entry["runs"]) == 2

    def test_means_are_arithmetic_means(self, report):
        for entry in report["projects"]["trend"]["techniques"].values():
            for metric, value in entry["mean"].items():
                assert value == pytest.approx(
                    np.mean([run[metric] for run in entry["runs"]]), abs=1e-12
                )

    def test_deterministic_baseline_runs_replicated(self, report):
        runs = report["projects"]["trend"]["techniques"]["knn"]["runs"]
        assert runs[0] == runs[1]

    def test_sequence_model_beats_single_version_lr_on_trend(self, report):
        techniques = report["projects"]["trend"]["techniques"]
        assert techniques["rnn"]["mean"]["ce_1"] > techniques["lr"]["mean"]["ce_1"]

    def test_aggregates_structure(self, report):
        agg = report["aggregates"]
        assert agg["projects_evaluated"] == ["trend"]
        assert set(agg["win_tie_loss"]) == {"lr", "nb", "knn", "nn"}
        for metric_groups in agg["scott_knott"].values():
            seen = sorted(t for rank in metric_groups for t in rank)
            assert seen == sorted(agg["techniques"])
        for baseline in agg["win_tie_loss"].values():
            for metric in baseline.values():
                assert metric["win"] + metric["tie"] + metric["loss"] == 1

    def test_json_round_trip(self, report):
        assert json.loads(json.dumps(report)) == report

    def test_two_runs_identical(self, tmp_path):
        cfg = trend_config(tmp_path, repeats=1, baseline_kinds=("knn",))
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_all_clean_test_set_recorded_and_continues(self, tmp_path):
        clean_cfg = trend_config(tmp_path, clean_test=True)
        report = run_experiment(clean_cfg)
        assert "trend" in report["errors"]
        assert "CE undefined" in report["errors"]["trend"]
        assert report["projects"] == {}

    def test_missing_file_recorded(self, tmp_path):
        spec = ProjectSpec(
            name="ghost",
            versions=(
                VersionEntry("a", str(tmp_path / "nope-a.csv")),
                VersionEntry("b", str(tmp_path / "nope-b.csv")),
            ),
            train_version="a",
            test_version="b",
        )
        cfg = ExperimentConfig(projects=(spec,), hyperparams=FAST_HP, repeats=1)
        report = run_experiment(cfg)
        assert "ghost" in report["errors"]


class TestDivergence:
    def test_diverging_logistic_regression_recorded_per_technique(self, tmp_path):
        cfg = trend_config(tmp_path, repeats=1, technique_hyperparams={"lr": {"eta": 1e300}})
        with np.errstate(over="ignore"):
            report = run_experiment(cfg)
        techniques = report["projects"]["trend"]["techniques"]
        assert techniques["lr"] == {"error": "non-finite loss at iteration 0"}
        for kind in ("rnn", "nb", "knn", "nn"):
            assert len(techniques[kind]["runs"]) == 1
        assert report["errors"] == {}
        assert "lr" not in report["aggregates"]["techniques"]

    def test_diverging_sequence_model_recorded_per_project(self, tmp_path, monkeypatch):
        # the rnn is one technique among the baselines: diverging on one
        # project's data, it is that project's technique error, and the
        # project still completes.  The diverging project is told apart by
        # its own data (its file count), so the choice holds whichever
        # process trains it
        n_files = {"first": 60, "second": 80}
        specs = []
        for name in ("first", "second"):
            (tmp_path / name).mkdir()
            version_ids, paths, schema = write_trend_project(tmp_path / name, n_files[name])
            specs.append(
                ProjectSpec(
                    name=name,
                    versions=tuple(VersionEntry(vid, str(paths[vid])) for vid in version_ids),
                    train_version="u3",
                    test_version="u4",
                )
            )
        cfg = trend_config(tmp_path, repeats=1, projects=tuple(specs), baseline_kinds=("knn",))
        untouched = run_experiment(cfg)
        original = experiment.train

        def diverge_first_project(train_set, h):
            if train_set.m == n_files["first"]:
                # retries off and an absurd step: the weight penalty overflows
                h = replace(h, eta=1e200, halving_limit=0)
            return original(train_set, h)

        monkeypatch.setattr(experiment, "train", diverge_first_project)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the error is the one diagnostic
            report = run_experiment(cfg)
        assert report["errors"] == {}
        first = report["projects"]["first"]["techniques"]
        assert first["rnn"] == {"error": "non-finite loss at iteration 0"}
        assert first["knn"] == untouched["projects"]["first"]["techniques"]["knn"]
        assert report["projects"]["second"] == untouched["projects"]["second"]
        assert report["aggregates"]["projects_evaluated"] == ["first", "second"]
        assert report["aggregates"]["techniques"] == ["knn"]
        assert report["aggregates"]["win_tie_loss"] == {}


class TestBuiltOncePerProject:
    """Repeats reuse a project's arrays instead of rebuilding them."""

    @pytest.mark.parametrize("repeats", [1, 3])
    def test_sets_stacked_and_features_built_once(self, tmp_path, monkeypatch, repeats):
        names = ("extract_hvsm_set", "anchor_step", "fit_normalizer", "apply_normalizer")
        calls = {name: [] for name in names}

        def counting(name):
            real = getattr(experiment, name)

            def call(*args):
                s = real(*args)
                # the set built, or for a fit the set it was fit on
                calls[name].append(s.m if name != "fit_normalizer" else args[0].m)
                return s

            return call

        for name in calls:
            monkeypatch.setattr(experiment, name, counting(name))
        cfg = trend_config(tmp_path, repeats=repeats)
        assert cfg.baseline_kinds == bl.BASELINE_KINDS
        report = run_experiment(cfg)  # one project runs inline
        assert report["errors"] == {}
        project = report["projects"]["trend"]
        assert all(len(t["runs"]) == repeats for t in project["techniques"].values())
        n_train, n_test = project["train"]["files"], project["test"]["files"]
        # the training and test sets are gathered by length once, and their
        # anchor steps taken once, for every technique and repeat
        assert calls["extract_hvsm_set"] == [n_train, n_test]
        assert calls["anchor_step"] == [n_train, n_test]
        # one z-scoring fit for the sequences and one for the anchor rows,
        # each applied once to its training and its test set
        assert calls["fit_normalizer"] == [n_train, n_train]
        assert sorted(calls["apply_normalizer"]) == sorted([n_train, n_train, n_test, n_test])

    def test_no_per_sample_record_is_built(self, tmp_path):
        # a run reads its sets' arrays; their Hvsm records are a view that
        # only demos, tests and tracing read
        with mock.patch.object(Hvsm, "__init__", autospec=True, side_effect=Hvsm.__init__) as init:
            report = run_experiment(trend_config(tmp_path, repeats=1))  # one project runs inline
        assert report["errors"] == {} and set(report["projects"]["trend"]["techniques"]) == {
            "rnn", *bl.BASELINE_KINDS
        }
        assert init.call_count == 0


def projects_config(tmp_path, names, missing=(), **overrides):
    """A trend-project config with one project per name; the projects in
    ``missing`` point at CSVs that do not exist."""
    specs = []
    for i, name in enumerate(names):
        (tmp_path / name).mkdir()
        version_ids, paths, schema = write_trend_project(tmp_path / name, seed=5 + i)
        if name in missing:
            paths = {vid: tmp_path / name / f"absent-{vid}.csv" for vid in version_ids}
        specs.append(
            ProjectSpec(
                name=name,
                versions=tuple(VersionEntry(vid, str(paths[vid])) for vid in version_ids),
                train_version="u3",
                test_version="u4",
            )
        )
    return trend_config(tmp_path, projects=tuple(specs), **overrides)


def b_pid_path(cfg):
    return Path(cfg.output_dir).parent / "b.pid"


def kill_a_while_b_runs(job):
    """A ``_project_outcome`` for projects a and b: b's worker writes its
    pid and sleeps, a's waits for that pid and then kills itself."""
    spec, cfg = job
    pid_path = b_pid_path(cfg)
    if spec.name == "b":
        partial = pid_path.with_suffix(".partial")
        partial.write_text(str(os.getpid()))
        os.replace(partial, pid_path)
        time.sleep(60)
    while not pid_path.exists():
        time.sleep(0.01)
    os.kill(os.getpid(), signal.SIGKILL)


def finish_after_the_caller_dies(job):
    """A ``_project_outcome`` that marks its project as started and returns
    once the process that forked this worker has died."""
    spec, cfg = job
    caller = os.getppid()
    (Path(cfg.output_dir).parent / f"{spec.name}.started").write_text(str(os.getpid()))
    while os.getppid() == caller:
        time.sleep(0.01)
    return True, {}


class TestProjectPool:
    """Projects run in forked workers; the report must not depend on it.
    The worker count is forced, so the pool runs even on a one-CPU box."""

    @staticmethod
    def run_with_workers(cfg, monkeypatch, workers):
        monkeypatch.setattr(experiment, "_worker_count", lambda n: min(n, workers))
        return run_experiment(cfg)

    def test_report_identical_inline_and_pooled(self, tmp_path, monkeypatch):
        cfg = projects_config(tmp_path, ("a", "b", "c"), repeats=1)
        inline = self.run_with_workers(cfg, monkeypatch, 1)
        pooled = self.run_with_workers(cfg, monkeypatch, 2)
        assert list(inline["projects"]) == ["a", "b", "c"]
        assert json.dumps(pooled) == json.dumps(inline)

    def test_missing_csvs_recorded_alike(self, tmp_path, monkeypatch):
        cfg = projects_config(
            tmp_path, ("a", "ghost", "c"), missing=("ghost",), repeats=1, baseline_kinds=("knn",)
        )
        inline = self.run_with_workers(cfg, monkeypatch, 1)
        pooled = self.run_with_workers(cfg, monkeypatch, 2)
        assert list(inline["errors"]) == ["ghost"]
        assert "absent-u1.csv" in inline["errors"]["ghost"]
        assert pooled["errors"] == inline["errors"]
        assert list(pooled["projects"]) == ["a", "c"]
        assert json.dumps(pooled) == json.dumps(inline)

    def test_unexpected_exception_in_worker_reaches_caller(self, tmp_path, monkeypatch):
        cfg = projects_config(tmp_path, ("a", "b"), repeats=1, baseline_kinds=("knn",))
        parent = os.getpid()
        original = experiment.train

        def fail_in_worker(train_set, h):
            if os.getpid() != parent:
                raise RuntimeError("worker fault")
            return original(train_set, h)

        monkeypatch.setattr(experiment, "train", fail_in_worker)
        with pytest.raises(RuntimeError, match="worker fault"):
            self.run_with_workers(cfg, monkeypatch, 2)
        assert multiprocessing.active_children() == []

    def test_no_worker_left_after_return(self, tmp_path, monkeypatch):
        cfg = projects_config(tmp_path, ("a", "b"), repeats=1, baseline_kinds=("knn",))
        report = self.run_with_workers(cfg, monkeypatch, 2)
        assert list(report["projects"]) == ["a", "b"]
        assert multiprocessing.active_children() == []

    def test_uneven_job_counts_give_the_same_report(self, tmp_path, monkeypatch):
        # five projects on one, two and three workers: neither two nor
        # three divides five, so the workers finish different job counts
        cfg = projects_config(tmp_path, "abcde", repeats=1, baseline_kinds=("knn",))
        inline, *pooled = (
            json.dumps(self.run_with_workers(cfg, monkeypatch, workers)) for workers in (1, 2, 3)
        )
        assert list(json.loads(inline)["projects"]) == list("abcde")
        assert pooled == [inline, inline]

    def test_pooled_run_starts_no_thread(self, tmp_path, monkeypatch):
        cfg = projects_config(tmp_path, ("a", "b"), repeats=1, baseline_kinds=("knn",))
        started = []
        start = threading.Thread.start

        def spy(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        report = self.run_with_workers(cfg, monkeypatch, 2)
        assert list(report["projects"]) == ["a", "b"]
        assert started == []

    def test_workers_ignore_sigint(self, monkeypatch):
        # a Ctrl-C reaches the whole process group; only the caller acts on it
        def sigint_ignored(job):
            return signal.getsignal(signal.SIGINT) == signal.SIG_IGN

        monkeypatch.setattr(experiment, "_project_outcome", sigint_ignored)
        monkeypatch.setattr(experiment, "_worker_count", lambda n: min(n, 2))
        assert experiment._map_projects([None, None]) == [True, True]
        assert signal.getsignal(signal.SIGINT) == signal.default_int_handler

    def test_ctrl_c_while_forking_leaves_no_worker(self, monkeypatch):
        # a SIGINT right after each fork, before the caller has recorded
        # the worker: the KeyboardInterrupt must still stop every worker
        start = multiprocessing.context.ForkProcess.start

        def start_then_interrupt(proc):
            start(proc)
            os.kill(os.getpid(), signal.SIGINT)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start_then_interrupt)
        monkeypatch.setattr(experiment, "_project_outcome", lambda job: job)
        monkeypatch.setattr(experiment, "_worker_count", lambda n: min(n, 2))
        with pytest.raises(KeyboardInterrupt):
            experiment._map_projects([None, None])
        left = multiprocessing.active_children()
        for proc in left:  # so that a failure leaves no stray worker
            proc.kill()
            proc.join()
        assert left == []

    def test_killed_worker_fails_fast(self, tmp_path, monkeypatch):
        """Project a's worker, the first forked, is killed while b's is
        still busy: the run ends in one line naming a, and b's worker is
        stopped and reaped.  The run goes in a child process that is waited
        for with a timeout, so a hang fails the test instead of stalling the
        suite."""
        cfg = projects_config(tmp_path, ("a", "b"), repeats=1, baseline_kinds=("knn",))
        monkeypatch.setattr(experiment, "_worker_count", lambda n: min(n, 2))
        monkeypatch.setattr(experiment, "_project_outcome", kill_a_while_b_runs)
        pid_path = b_pid_path(cfg)

        def run(conn):
            try:
                run_experiment(cfg)
                message = None
            except RuntimeError as exc:
                message = str(exc)
            try:  # before active_children(), which would reap it
                os.waitpid(int(pid_path.read_text()), os.WNOHANG)
                reaped = False
            except ChildProcessError:
                reaped = True
            conn.send((message, reaped, [p.pid for p in multiprocessing.active_children()]))

        ctx = multiprocessing.get_context("fork")
        conn, guard_conn = ctx.Pipe(duplex=False)
        guard = ctx.Process(target=run, args=(guard_conn,))
        guard.start()
        guard_conn.close()
        ended = False
        try:
            ended = conn.poll(30)
            result = conn.recv() if ended else None
        finally:
            guard.kill()
            guard.join()
            conn.close()
            if not ended and pid_path.exists():  # b's worker may still be asleep
                with contextlib.suppress(ProcessLookupError):
                    os.kill(int(pid_path.read_text()), signal.SIGKILL)
        assert ended, "the run did not end within 30 s of a worker's death"
        message, reaped, left = result
        assert message == (
            "project 'a': its worker process ended without a result (exit code -9)"
        )
        assert reaped
        assert left == []

    def test_workers_exit_when_the_caller_is_killed(self, tmp_path, monkeypatch):
        """A caller killed while both workers run leaves no worker behind:
        each finishes its project, finds the pipe broken and exits.  The
        workers hold the write end of a pipe, which reads as EOF once the
        caller and every worker have exited."""
        cfg = projects_config(tmp_path, ("a", "b"), repeats=1, baseline_kinds=("knn",))
        monkeypatch.setattr(experiment, "_worker_count", lambda n: min(n, 2))
        monkeypatch.setattr(experiment, "_project_outcome", finish_after_the_caller_dies)
        alive_r, alive_w = os.pipe()
        caller = multiprocessing.get_context("fork").Process(target=run_experiment, args=(cfg,))
        caller.start()
        os.close(alive_w)
        try:
            deadline = time.monotonic() + 30
            while len(list(tmp_path.glob("*.started"))) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            caller.kill()
            caller.join()
            ended, _, _ = select.select([alive_r], [], [], 30)
            if not ended:  # stop the stray workers, which still hold the pipe
                for marker in tmp_path.glob("*.started"):
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(int(marker.read_text()), signal.SIGKILL)
            assert ended, "a worker outlived its killed caller by 30 s"
            assert os.read(alive_r, 1) == b""
        finally:
            os.close(alive_r)


class TestEmitReport:
    def test_expected_files(self, emitted):
        _, out, written = emitted
        names = {p.name for p in written}
        assert {"report.json", "summary.csv", "sk_groups.txt", "win_tie_loss.csv"} <= names
        assert (out / "ce_curves" / "trend_rnn.csv").exists()
        assert (out / "ce_curves" / "trend_lr.csv").exists()

    def test_report_json_round_trips(self, emitted):
        report, out, _ = emitted
        assert json.loads((out / "report.json").read_text()) == report

    def test_summary_means_match_report(self, emitted):
        report, out, _ = emitted
        lines = (out / "summary.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            cells = dict(zip(header, line.split(",")))
            entry = report["projects"][cells["project"]]["techniques"][cells["technique"]]
            for metric in header[2:]:
                assert float(cells[metric]) == round(entry["mean"][metric], 3)

    def test_curve_csv_parses(self, emitted):
        _, out, _ = emitted
        lines = (out / "ce_curves" / "trend_rnn.csv").read_text().strip().splitlines()
        assert lines[0] == "loc_fraction,bug_fraction"
        first = [float(x) for x in lines[1].split(",")]
        last = [float(x) for x in lines[-1].split(",")]
        assert first == [0.0, 0.0]
        assert last == [1.0, 1.0]

    def test_report_json_is_sorted_indented_dumps(self, emitted):
        report, out, _ = emitted
        expected = json.dumps(report, sort_keys=True, indent=2) + "\n"
        assert (out / "report.json").read_bytes() == expected.encode("utf-8")

    def test_failed_encode_leaves_previous_report(self, emitted, tmp_path):
        report, out, _ = emitted
        target = tmp_path / "again"
        emit_report(report, target)
        before = {p.name: p.read_bytes() for p in target.iterdir() if p.is_file()}
        broken = {**report, "projects": {"zz": {"techniques": {"rnn": {"runs": [object()]}}}}}
        with pytest.raises(TypeError):
            emit_report(broken, target)
        assert {p.name: p.read_bytes() for p in target.iterdir() if p.is_file()} == before

    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_scores_not_of_the_test_files_are_refused(self, emitted, tmp_path, change):
        # a curve is drawn over every test file, never over a subset
        report, _, _ = emitted
        scores = dict(report["projects"]["trend"]["techniques"]["lr"]["scores_mean"])
        if change == "missing":
            del scores[next(iter(scores))]
        else:
            scores["not-a-test-file"] = 0.5
        project = report["projects"]["trend"]
        techniques = {**project["techniques"]}
        techniques["lr"] = {**techniques["lr"], "scores_mean": scores}
        broken = {**report, "projects": {"trend": {**project, "techniques": techniques}}}
        with pytest.raises(ValueError) as raised:
            emit_report(broken, tmp_path)
        assert str(raised.value) == (
            "project 'trend', technique 'lr': scores_mean does not score exactly the test files"
        )

    @pytest.mark.parametrize("failure", ["os-error", "scores-mean"])
    def test_failed_emit_leaves_the_earlier_set(self, emitted, tmp_path, monkeypatch, failure):
        # both failures come after report.json and summary.csv are written
        report, _, _ = emitted
        target = tmp_path / "out"
        emit_report(report, target)
        before = {p: p.read_bytes() for p in target.rglob("*") if p.is_file()}
        project = report["projects"]["trend"]
        lr = project["techniques"]["lr"]
        if failure == "os-error":
            def full_disk(curve):
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(experiment, "curve_to_csv", full_disk)
            scores = lr["scores_mean"]
        else:
            scores = dict(lr["scores_mean"])
            scores.popitem()
        techniques = {**project["techniques"], "lr": {**lr, "scores_mean": scores}}
        changed = {
            **report,
            "errors": {"gone": "this emit must not show"},
            "projects": {"trend": {**project, "techniques": techniques}},
        }
        with pytest.raises(OSError if failure == "os-error" else ValueError):
            emit_report(changed, target)
        assert {p: p.read_bytes() for p in target.rglob("*") if p.is_file()} == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert not list(target.glob(".emit.*"))

    def test_failed_move_keeps_the_unmoved_files(self, emitted, tmp_path, monkeypatch):
        # the second move fails: report.json, moved last, is still the
        # earlier one, and the hidden directory keeps this emit's own
        report, _, _ = emitted
        target = tmp_path / "out"
        emit_report(report, target)
        earlier = (target / "report.json").read_bytes()
        changed = {**report, "errors": {"gone": "this emit must not show"}}
        moves = []
        real_replace = os.replace

        def replace(src, dst):
            moves.append(dst)
            if len(moves) == 2:
                raise OSError(28, "No space left on device")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError):
            emit_report(changed, target)
        assert (target / "report.json").read_bytes() == earlier
        [stage] = target.glob(".emit.*")
        expected = json.dumps(changed, sort_keys=True, indent=2) + "\n"
        assert (stage / "report.json").read_text(encoding="utf-8") == expected

    def test_only_the_output_directory_need_be_writable(self, emitted, tmp_path, monkeypatch):
        # the output directory's parent is read-only; root ignores mode
        # bits, so the stand-in mkdtemp refuses a directory whose mode
        # forbids writing, as the kernel does for any other user
        report, _, _ = emitted
        parent = tmp_path / "ro"
        target = parent / "out"
        target.mkdir(parents=True)
        real_mkdtemp = tempfile.mkdtemp

        def mkdtemp(*args, dir=None, **kwargs):
            if dir is not None and not os.stat(dir).st_mode & stat.S_IWUSR:
                raise PermissionError(13, "Permission denied", os.fspath(dir))
            return real_mkdtemp(*args, dir=dir, **kwargs)

        monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
        parent.chmod(0o555)
        try:
            written = emit_report(report, target)
        finally:
            parent.chmod(0o755)
        assert {p for p in target.rglob("*") if p.is_file()} == set(written)
        assert not list(target.glob(".emit.*"))
        assert [p.name for p in parent.iterdir()] == ["out"]

    def test_emit_removes_only_stale_curves(self, emitted, tmp_path):
        # a curve file of a known technique that this emit did not write
        # goes; a file whose name emit_report never writes stays
        report, _, written = emitted
        target = tmp_path / "out"
        (target / "ce_curves").mkdir(parents=True)
        own = {"notes.txt": "x", "ce_curves/trend_rnn_plot.csv": "y", "ce_curves/style.css": "z"}
        for name, text in own.items():
            (target / name).write_text(text)
        (target / "ce_curves" / "gone_rnn.csv").write_text("stale")
        (target / "ce_curves" / "a_b_lr.csv").write_text("stale")
        again = emit_report(report, target)
        assert [p.relative_to(target) for p in again] == [p.relative_to(written[0].parent) for p in written]
        on_disk = {p.relative_to(target).as_posix() for p in target.rglob("*") if p.is_file()}
        assert on_disk == {p.relative_to(target).as_posix() for p in again} | set(own)
        assert all((target / name).read_text() == text for name, text in own.items())

    def test_encode_memory_bounded(self, tmp_path):
        # 9 projects x 5 techniques x 500 test files, as on the stand-in data
        report = standin_sized_report()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            emit_report(report, tmp_path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        size = (tmp_path / "report.json").stat().st_size
        assert size > 1_000_000
        assert peak < size / 2

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = trend_config(tmp_path, repeats=2)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        emit_report(run_experiment(cfg), out_a)
        emit_report(run_experiment(cfg), out_b)
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    def test_empty_report_still_writes_headers(self, tmp_path):
        report = {"config": {}, "projects": {}, "errors": {}, "aggregates": {}}
        out = tmp_path / "empty"
        emit_report(report, out)
        assert (out / "summary.csv").read_text().startswith("project,technique")
        assert (out / "win_tie_loss.csv").read_text().startswith("baseline,metric")


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e-07, 1e16, math.nan, math.inf, -math.inf]),
    st.text(max_size=6),
)
JSON_KEYS = st.text(max_size=6) | st.sampled_from(['"', "\\", 'a"b\\c', "é", "\u2603", "\x00\n"])


def json_trees(depth):
    if depth == 0:
        return JSON_SCALARS
    inner = json_trees(depth - 1)
    return st.one_of(
        JSON_SCALARS,
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(JSON_KEYS, inner, max_size=4),
    )


@settings(max_examples=300, deadline=None)
@given(obj=json_trees(4))
def test_json_writer_matches_sorted_indented_dumps(obj):
    buf = io.StringIO()
    experiment._write_json(buf, obj)
    assert buf.getvalue() == json.dumps(obj, sort_keys=True, indent=2)


@st.composite
def json_tables(draw):
    """A table: a list, or a dict by name, of dicts sharing one key set
    (each with its own key order), whose values are mostly scalars."""
    keys = draw(st.lists(JSON_KEYS, min_size=1, max_size=4, unique=True))
    values = st.one_of(JSON_SCALARS, JSON_SCALARS, JSON_SCALARS, json_trees(1))
    rows = draw(st.lists(
        st.permutations(keys).flatmap(lambda order: st.fixed_dictionaries({k: values for k in order})),
        min_size=0,
        max_size=9,
    ))
    if draw(st.booleans()):
        return rows
    names = draw(st.lists(JSON_KEYS, min_size=len(rows), max_size=len(rows), unique=True))
    return dict(zip(names, rows))


@settings(max_examples=300, deadline=None)
@given(table=json_tables(), sibling=json_trees(1), batch=st.sampled_from([1, 2, 3, 256]))
def test_json_writer_lays_out_tables_as_dumps(table, sibling, batch):
    # tables of any batch size, beside other data and inside a list
    obj = {"table": table, "sibling": sibling, "nested": [table, {"t": table}]}
    buf = io.StringIO()
    with mock.patch.object(experiment, "_TABLE_BATCH", batch):
        experiment._write_json(buf, obj)
    assert buf.getvalue() == json.dumps(obj, sort_keys=True, indent=2)
