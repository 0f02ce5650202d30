import json
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from defectseq import experiment
from defectseq.experiment import (
    ConfigError,
    ExperimentConfig,
    ProjectSpec,
    VersionEntry,
    average_rank,
    emit_report,
    load_config,
    run_experiment,
)
from defectseq.rnn import Hyperparams

from helpers import write_trend_project

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
    ("knn_k: true", "knn_k must be an integer, got True"),
    ("len: three", "len must be an integer, got 'three'"),
    ("sk_pool_runs: 'yes'", "sk_pool_runs must be true or false, got 'yes'"),
    ("hyperparams: {hidden_size: big}", "hyperparams.hidden_size must be an integer, got 'big'"),
    ("hyperparams: {eta: fast}", "hyperparams.eta must be a finite number, got 'fast'"),
    ("hyperparams: {lam: .nan}", "hyperparams.lam must be a finite number, got nan"),
    ("hyperparams: {iterations: 2.5}", "hyperparams.iterations must be an integer, got 2.5"),
    ("hyperparams: {seed: []}", "hyperparams.seed must be an integer, got []"),
    ("hyperparams: {init_scale: .inf}", "hyperparams.init_scale must be a finite number, got inf"),
    ("hyperparams: {halving_limit: null}", "hyperparams.halving_limit must be an integer, got None"),
    ("code_metrics: wmc", "code_metrics must be a list, got 'wmc'"),
    ("baselines: lr", "baselines must be a list, got 'lr'"),
    ("hyperparams: [1]", "hyperparams must be a mapping"),
    ("technique_hyperparams: [nn]", "technique_hyperparams must be a mapping"),
    ("technique_hyperparams: {nn: fast}", "technique_hyperparams.nn must be a mapping"),
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
            ("  - versions: []\n", "project 0: missing key 'name'"),
            ("  - name: a\n    versions:\n      - {metrics: x.csv}\n",
             "project 0, version 0: missing key 'id'"),
            ("  - name: a\n    versions:\n      - {id: v1, metrics: x.csv}\n      - {id: v2}\n",
             "project 0, version 1: missing key 'metrics'"),
            ("  - just-a-name\n", "project 0 must be a mapping"),
        ],
        ids=["name", "id", "metrics", "not-a-mapping"],
    )
    def test_missing_key_names_project_and_key(self, tmp_path, projects, message):
        path = tmp_path / "config.yaml"
        path.write_text("projects:\n" + projects, encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == message

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
        "line, message", BAD_VALUES, ids=[m.split(" must")[0] for _, m in BAD_VALUES]
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
        # the diverging project is told apart by its own data (its file
        # count), so the choice holds whichever process trains it
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
        original = experiment.train

        def diverge_first_project(train_set, h):
            if train_set.m == n_files["first"]:
                # retries off and an absurd step: the weight penalty overflows
                h = replace(h, eta=1e200, halving_limit=0)
            return original(train_set, h)

        monkeypatch.setattr(experiment, "train", diverge_first_project)
        with np.errstate(over="ignore"):
            report = run_experiment(cfg)
        assert report["errors"] == {"first": "non-finite loss at iteration 0"}
        assert list(report["projects"]) == ["second"]
        assert report["aggregates"]["projects_evaluated"] == ["second"]


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
