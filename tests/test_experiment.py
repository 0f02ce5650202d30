import json
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
        specs = []
        for name in ("first", "second"):
            (tmp_path / name).mkdir()
            version_ids, paths, schema = write_trend_project(tmp_path / name)
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
        calls = []

        def diverge_first_project(train_set, h):
            calls.append(h)
            if len(calls) == 1:
                # retries off and an absurd step: the weight penalty overflows
                h = replace(h, eta=1e200, halving_limit=0)
            return original(train_set, h)

        monkeypatch.setattr(experiment, "train", diverge_first_project)
        with np.errstate(over="ignore"):
            report = run_experiment(cfg)
        assert report["errors"] == {"first": "non-finite loss at iteration 0"}
        assert list(report["projects"]) == ["second"]
        assert report["aggregates"]["projects_evaluated"] == ["second"]


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
