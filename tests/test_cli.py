import contextlib
import io
import json
import multiprocessing
import os
import re
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from defectseq import experiment
from defectseq.cli import main
from defectseq.experiment import METRIC_KEYS

from helpers import write_trend_project


def write_config(tmp_path, repeats=1, baselines="lr, knn"):
    version_ids, paths, schema = write_trend_project(tmp_path, n_files=40)
    config = "\n".join(
        [
            "seed: 3",
            f"repeats: {repeats}",
            "len: 3",
            f"code_metrics: [{', '.join(schema)}]",
            f"baselines: [{baselines}]",
            f"output: {tmp_path / 'out'}",
            "hyperparams: {hidden_size: 4, eta: 0.5, iterations: 40}",
            "projects:",
            "  - name: trend",
            "    train_version: u3",
            "    test_version: u4",
            "    versions:",
        ]
        + [f"      - {{id: {vid}, metrics: {paths[vid].name}}}" for vid in version_ids]
    )
    path = tmp_path / "config.yaml"
    path.write_text(config, encoding="utf-8")
    return path


class TestRun:
    def test_run_writes_outputs(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", str(config)]) == 0
        out = tmp_path / "out"
        assert (out / "report.json").exists()
        assert (out / "summary.csv").exists()
        printed = capsys.readouterr().out
        assert "report.json" in printed

    def test_run_output_override(self, tmp_path):
        config = write_config(tmp_path)
        override = tmp_path / "elsewhere"
        assert main(["run", str(config), "--output", str(override)]) == 0
        assert (override / "report.json").exists()

    def test_failed_technique_warns(self, tmp_path, capsys):
        config = write_config(tmp_path)
        config.write_text(config.read_text() + "\nknn_k: 1000\n", encoding="utf-8")
        assert main(["run", str(config)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        message = report["projects"]["trend"]["techniques"]["knn"]["error"]
        assert message.startswith("k=1000 exceeds training size")
        assert capsys.readouterr().err == f"warning: trend/knn: {message}\n"

    def test_overflowing_metric_ends_project_with_one_line(self, tmp_path, capsys):
        # a 1e308 cell in the train anchor's table overflows z-scoring: the
        # project fails naming the column, with no numpy warning on the way
        config = write_config(tmp_path)
        table = tmp_path / "trend-u3.csv"
        lines = table.read_text(encoding="utf-8").splitlines()
        name, loc, trend, n0, *rest = lines[1].split(",")
        lines[1] = ",".join([name, loc, trend, "1e308", *rest])
        table.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "warning: trend: metric 'n0' overflows z-scoring: its mean or spread is not finite\n"
            "error: no project completed\n"
        )
        assert "Traceback" not in err and "RuntimeWarning" not in err

    @pytest.mark.parametrize("technique", ["rnn", "nn", "lr"])
    def test_diverging_trainer_fails_its_technique_with_one_line(self, tmp_path, capsys, technique):
        # an absurd step overflows the loss at once: every trainer fails the
        # same way, as its own technique's error, with no numpy warning
        config = write_config(tmp_path, baselines="lr, knn, nn")
        assert main(["run", str(config), "--output", str(tmp_path / "plain")]) == 0
        capsys.readouterr()
        override = f"technique_hyperparams: {{{technique}: {{eta: 1e300}}}}"
        config.write_text(config.read_text() + f"\n{override}\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(config)]) == 0
        message = "non-finite loss at iteration 0"
        assert capsys.readouterr().err == f"warning: trend/{technique}: {message}\n"
        report, plain = (
            json.loads((tmp_path / out / "report.json").read_text(encoding="utf-8"))
            for out in ("out", "plain")
        )
        techniques = report["projects"]["trend"]["techniques"]
        expected = plain["projects"]["trend"]["techniques"]
        assert techniques.pop(technique) == {"error": message}
        del expected[technique]
        assert techniques == expected
        if technique == "rnn":
            assert report["aggregates"]["win_tie_loss"] == {}

    def test_config_without_project_name_is_one_line(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("projects:\n  - versions: []\n", encoding="utf-8")
        assert main(["run", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == "error: projects[0]: missing key 'name'\n"

    def test_zero_len_is_one_line(self, tmp_path, capsys):
        config = write_config(tmp_path)
        config.write_text(config.read_text().replace("len: 3", "len: 0"), encoding="utf-8")
        assert main(["run", str(config)]) == 1
        assert capsys.readouterr().err == "error: len must be at least 1, got 0\n"

    @pytest.mark.parametrize(
        "block, message",
        [
            ("{nn: {eta: fast}}", "technique_hyperparams.nn.eta must be a finite number, got 'fast'"),
            ("{nn: {iterations: 2.5}}", "technique_hyperparams.nn.iterations must be an integer, got 2.5"),
            ("{nn: {eta: .nan}}", "technique_hyperparams.nn.eta must be a finite number, got nan"),
            ("{nn: {depth: 4}}", "technique_hyperparams.nn: unknown hyperparameter 'depth'"),
        ],
        ids=["eta-text", "iterations-fraction", "eta-nan", "unknown-key"],
    )
    def test_bad_technique_override_is_one_line(self, tmp_path, capsys, block, message):
        config = write_config(tmp_path)
        config.write_text(config.read_text() + f"\ntechnique_hyperparams: {block}\n", encoding="utf-8")
        assert main(["run", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: t + "\noutput: [x]", "output must be a string, got ['x']"),
            (lambda t: t + "\nmetrics: [x]", "metrics must be a string, got ['x']"),
            (lambda t: t.replace("name: trend", "name: [a]"),
             "projects[0].name must be a string, got ['a']"),
            (lambda t: t.replace("id: u1", "id: {v: 1}"),
             "projects[0].versions[0].id must be a string, got {'v': 1}"),
            (lambda t: t.replace("id: u1", "id: 1.10"),
             "projects[0].versions[0].id must be a string, got 1.1"),
            (lambda t: t.replace("train_version: u3", "train_version: 3"),
             "projects[0].train_version must be a string, got 3"),
            (lambda t: t.replace("repeats: 1", "repeets: 3"), "unknown key 'repeets'"),
            (lambda t: t + "\nhyperparams: {seed: 5}",
             "hyperparams: unknown hyperparameter 'seed'"),
            (lambda t: t + "\ntechnique_hyperparams: {rnn: {seed: 9}}",
             "technique_hyperparams.rnn: unknown hyperparameter 'seed'"),
            (lambda t: t + "\ntechnique_hyperparams: {forest: {eta: 1}}",
             "technique_hyperparams: unknown technique 'forest'"),
            (lambda t: t.replace("projects:\n", "projects:\n" + t.split("projects:\n")[1] + "\n"),
             "projects: 'trend' is listed twice"),
            (lambda t: t.replace("baselines: [lr, knn]", "baselines: [lr, lr]"),
             "baselines: 'lr' is listed twice"),
            (lambda t: t + "\nbaselines: [lr, forest]", "baselines: unknown baseline 'forest'"),
            (lambda t: t + "\nmetrics: code+churn",
             "metrics must be code or code+process, got 'code+churn'"),
        ],
        ids=["output-list", "metrics-list", "name-list", "id-mapping", "id-float", "train-int",
             "unknown-key", "shared-seed", "override-seed", "unknown-technique",
             "duplicate-project", "duplicate-baseline", "unknown-baseline", "unknown-metric-set"],
    )
    def test_malformed_value_ends_run_with_one_line(
        self, tmp_path, capsys, monkeypatch, edit, message
    ):
        config = write_config(tmp_path)
        config.write_text(edit(config.read_text()) + "\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists() and not (tmp_path / "['x']").exists()

    @pytest.mark.parametrize(
        "row, message",
        [("u2,f0000", "row 2: expected 4 cells, got 2"), ("u2, ,3,1", "row 2: empty file key")],
        ids=["short-row", "blank-key"],
    )
    def test_bad_change_table_row_is_one_line(self, tmp_path, capsys, row, message):
        config = write_config(tmp_path)
        (tmp_path / "change.csv").write_text(f"version,name,add,del\n{row}\n", encoding="utf-8")
        text = config.read_text().replace(
            "metrics: trend-u2.csv}", "metrics: trend-u2.csv, process: change.csv}"
        )
        config.write_text(text + "\nmetrics: code+process\n", encoding="utf-8")
        assert main(["run", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"warning: trend: version 'u2' changes: {message}\nerror: no project completed\n"
        )

    @pytest.mark.parametrize(
        "column, cell, message",
        [(1, b"abc", "row 3, column 'loc': non-numeric cell 'abc'"),
         (0, b"f\xff", "row 3: not UTF-8 text")],
        ids=["non-numeric", "not-utf-8"],
    )
    def test_bad_metrics_table_is_named_by_version(self, tmp_path, capsys, column, cell, message):
        config = write_config(tmp_path)
        table = tmp_path / "trend-u2.csv"
        lines = table.read_bytes().split(b"\n")
        cells = lines[2].split(b",")
        cells[column] = cell
        lines[2] = b",".join(cells)
        table.write_bytes(b"\n".join(lines))
        assert main(["run", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"warning: trend: version 'u2' metrics: {message}\nerror: no project completed\n"
        )

    def test_loc_total_beyond_int64_is_a_project_error(self, tmp_path, capsys):
        # each cell is a valid count; only the test release's total overflows
        config = write_config(tmp_path)
        table = tmp_path / "trend-u4.csv"
        lines = table.read_text(encoding="utf-8").split("\n")
        for at in (1, 2):
            cells = lines[at].split(",")
            cells[1] = "9e18"
            lines[at] = ",".join(cells)
        table.write_text("\n".join(lines), encoding="utf-8")
        total = 2 * 9 * 10**18 + sum(int(line.split(",")[1]) for line in lines[3:] if line)
        assert main(["run", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"warning: trend: total LOC {total} exceeds the int64 range\nerror: no project completed\n"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("projects: 5\n", "projects must be a list, got 5"),
            (
                "projects:\n  - {name: a, versions: 5}\n",
                "projects[0].versions must be a list, got 5",
            ),
            (
                "projects:\n  - name: a\n    versions:\n      - {id: v1, metrics: [x]}\n",
                "projects[0].versions[0].metrics must be a path, got ['x']",
            ),
            (
                "projects: [{name: a\n",
                "invalid YAML at line 2, column 1: expected ',' or '}', but got '<stream end>'",
            ),
        ],
        ids=["projects-int", "versions-int", "metrics-list", "yaml-syntax"],
    )
    def test_malformed_config_is_one_line(self, tmp_path, capsys, text, message):
        config = tmp_path / "config.yaml"
        config.write_text(text, encoding="utf-8")
        assert main(["run", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert "Traceback" not in err

    def test_missing_config_fails(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.yaml")]) == 1
        assert "error" in capsys.readouterr().err


ORIGINAL_PROJECT_OUTCOME = experiment._project_outcome


def b_worker_exits(job):
    """A ``_project_outcome`` under which project b's worker exits at once
    with code 9, sending nothing; any other project runs as usual."""
    if job[0].name == "b":
        os._exit(9)
    return ORIGINAL_PROJECT_OUTCOME(job)


def test_dead_worker_ends_the_run_in_one_line(tmp_path, monkeypatch):
    """Project b's worker dies without a result: ``defectseq run`` exits 1
    with one error line naming b, no traceback, and no worker left.  The run
    goes in a forked child that is waited for with a timeout, so a hang
    fails the test instead of stalling the suite."""
    config = write_config(tmp_path)
    text = config.read_text(encoding="utf-8")
    block = text[text.index("  - name: trend") :]
    config.write_text(
        text.replace("name: trend", "name: a") + "\n" + block.replace("name: trend", "name: b"),
        encoding="utf-8",
    )
    monkeypatch.setattr(experiment, "_worker_count", lambda n: min(n, 2))
    monkeypatch.setattr(experiment, "_project_outcome", b_worker_exits)

    def run(conn):
        try:
            result = run_cli(["run", str(config)])
        except BaseException as exc:  # the failure this test looks for
            result = ("raised", repr(exc), "")
        conn.send((result, [p.pid for p in multiprocessing.active_children()]))

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
    assert ended, "the run did not end within 30 s of a worker's death"
    (code, out, err), left = result
    assert code == 1, err
    assert err == (
        "error: project 'b': its worker process ended without a result (exit code 9)\n"
    )
    assert out == "" and not (tmp_path / "out").exists()
    assert left == []


class TestGradcheck:
    def test_passes_at_default_tolerance(self, capsys):
        assert main(["gradcheck"]) == 0
        assert "max relative error" in capsys.readouterr().out

    def test_fails_at_impossible_tolerance(self, capsys):
        assert main(["gradcheck", "--tolerance", "1e-300"]) == 1


class TestEval:
    def test_scores_csv(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "name,score,loc,bugs,label\n"
            "f1,0.9,10,1,1\n"
            "f2,0.5,10,0,0\n"
            "f3,0.9,80,1,1\n"
            "f4,0.1,40,0,0\n",
            encoding="utf-8",
        )
        assert main(["eval", str(scores)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"ce_0.1", "ce_1", "acc", "auc"}
        assert 0.0 <= payload["auc"] <= 1.0

    def test_missing_column_fails(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("name,score\nf1,0.9\n", encoding="utf-8")
        assert main(["eval", str(scores)]) == 1
        assert "missing column" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("f2,0.5,10.7,0,0", "row 3, column 'loc': expected non-negative integer, got 10.7"),
            ("f2,0.5,x,0,0", "row 3, column 'loc': non-numeric cell 'x'"),
            ("f2,0.5,10,1.5,1", "row 3, column 'bugs': expected non-negative integer, got 1.5"),
            ("f2,0.5,10,0,0.2", "row 3, column 'label': expected non-negative integer, got 0.2"),
            ("f2,0.5,10,0,2", "row 3, column 'label': expected 0 or 1, got 2"),
            ("f2,nan,10,0,0", "row 3, column 'score': non-finite cell 'nan'"),
            ("b,0.2,20", "row 3: expected 5 cells, got 3"),
            ("f2,0.5,10,0,0,9", "row 3: expected 5 cells, got 6"),
            (" ,0.5,10,0,0", "row 3, column 'name': blank cell ' '"),
            (",0.5,10,0,0", "row 3, column 'name': blank cell ''"),
            ("f1,0.5,10,0,0", "row 3, column 'name': duplicate name 'f1'"),
        ],
        ids=["fractional-loc", "non-numeric-loc", "fractional-bugs", "fractional-label",
             "label-2", "nan-score", "short-row", "long-row", "blank-name", "empty-name",
             "duplicate-name"],
    )
    def test_bad_cell_names_row_and_column(self, tmp_path, capsys, row, message):
        scores = tmp_path / "scores.csv"
        scores.write_text(f"name,score,loc,bugs,label\nf1,0.9,10,1,1\n{row}\n", encoding="utf-8")
        assert main(["eval", str(scores)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["a,0.1,9e18,0,0", "b,0.2,9e18,0,0", "c,0.9,10,1,1"],
             "total LOC 18000000000000000010 exceeds the int64 range"),
            (["a,0.1,10,9e18,1", "b,0.2,10,9e18,1", "c,0.9,10,0,0"],
             "total bug count 18000000000000000000 exceeds the int64 range"),
        ],
        ids=["loc", "bugs"],
    )
    def test_total_beyond_int64_is_one_line(self, tmp_path, capsys, rows, message):
        # each cell is below 2^63; only the sum overflows, and is refused
        # rather than scored from wrapped sums
        scores = tmp_path / "scores.csv"
        scores.write_text("name,score,loc,bugs,label\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert main(["eval", str(scores)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_blank_rows_keep_row_numbers(self, tmp_path, capsys):
        # rows are numbered as lines of the file, blank ones included
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "name,score,loc,bugs,label\nf1,0.9,10,1,1\n\n , , ,,\nf2,0.5,x,0,0\n", encoding="utf-8"
        )
        assert main(["eval", str(scores)]) == 1
        assert capsys.readouterr().err == "error: row 5, column 'loc': non-numeric cell 'x'\n"

    def test_carriage_return_line_ends(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_bytes(b"name,score,loc,bugs,label\rf1,0.9,10,1,1\rf2,0.5,10,0,0\r")
        assert main(["eval", str(scores)]) == 0
        assert json.loads(capsys.readouterr().out)["auc"] == 1.0

    def test_header_only_fails(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("name,score,loc,bugs,label\n", encoding="utf-8")
        assert main(["eval", str(scores)]) == 1
        assert capsys.readouterr().err == "error: empty scores file\n"

    def test_non_utf8_byte_names_row(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_bytes(b"name,score,loc,bugs,label\nf1,0.9,10,1,1\nf\xff2,0.5,10,0,0\n")
        assert main(["eval", str(scores)]) == 1
        assert capsys.readouterr().err == "error: row 3: not UTF-8 text\n"

    def test_all_clean_fails_with_diagnostic(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "name,score,loc,bugs,label\nf1,0.9,10,0,0\nf2,0.5,10,0,1\n", encoding="utf-8"
        )
        assert main(["eval", str(scores)]) == 1


class TestStats:
    def test_values_csv(self, tmp_path, capsys):
        # ten runs per project: the smallest exact two-sided p is then
        # 2/2^10, comfortably under the 0.05 gate
        rows = ["technique,project,value"]
        for project in ("p1", "p2", "p3"):
            for i in range(10):
                rows.append(f"seq,{project},{0.8 + i * 0.01}")
                rows.append(f"base,{project},{0.2 + i * 0.01}")
        values = tmp_path / "values.csv"
        values.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["stats", str(values)]) == 0
        out = capsys.readouterr().out
        assert "scott-knott ranks" in out
        assert "rank 1: seq" in out
        assert "vs base: 3/0/0" in out

    def test_reference_override(self, tmp_path, capsys):
        values = tmp_path / "values.csv"
        values.write_text(
            "technique,project,value\n"
            "a,p1,0.9\na,p1,0.91\nb,p1,0.1\nb,p1,0.11\n",
            encoding="utf-8",
        )
        assert main(["stats", str(values), "--reference", "b"]) == 0
        assert "win/tie/loss for b" in capsys.readouterr().out

    def test_missing_column_is_one_line(self, tmp_path, capsys):
        values = tmp_path / "values.csv"
        values.write_text("technique,value\na,0.9\n", encoding="utf-8")
        assert main(["stats", str(values)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: missing column 'project'\n"
        assert captured.out == ""

    def test_unknown_reference_fails(self, tmp_path, capsys):
        values = tmp_path / "values.csv"
        values.write_text("technique,project,value\na,p1,0.9\n", encoding="utf-8")
        assert main(["stats", str(values), "--reference", "zz"]) == 1

    def test_unknown_reference_prints_no_ranks(self, tmp_path, capsys):
        # the reference is checked before the Scott-Knott ranks are printed
        values = tmp_path / "values.csv"
        values.write_text(
            "technique,project,value\na,p1,0.9\nb,p1,0.1\na,p2,0.8\nb,p2,0.2\n", encoding="utf-8"
        )
        assert main(["stats", str(values), "--reference", "zz"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown reference technique 'zz'\n"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("lr,b", "row 3: expected 3 cells, got 2"),
            ("lr", "row 3: expected 3 cells, got 1"),
            ("lr,b,0.5,9", "row 3: expected 3 cells, got 4"),
            ("lr,b,abc", "row 3, column 'value': non-numeric cell 'abc'"),
            ("lr,b,nan", "row 3, column 'value': non-finite cell 'nan'"),
            (" ,b,0.5", "row 3, column 'technique': blank cell ' '"),
            ("lr,,0.5", "row 3, column 'project': blank cell ''"),
        ],
        ids=["no-value", "no-project", "long-row", "non-numeric-value", "nan-value",
             "blank-technique", "blank-project"],
    )
    def test_bad_row_names_row_and_column(self, tmp_path, capsys, row, message):
        values = tmp_path / "values.csv"
        values.write_text(f"technique,project,value\na,b,0.9\n{row}\n", encoding="utf-8")
        assert main(["stats", str(values)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_unpairable_run_counts_print_nothing(self, tmp_path, capsys):
        # three runs of a against two of b in p2 cannot be paired: nothing is
        # printed before the one line that names the project and both sides
        rows = ["a,p1,0.9", "b,p1,0.1", "a,p2,0.8", "a,p2,0.7", "a,p2,0.6", "b,p2,0.2", "b,p2,0.3"]
        values = tmp_path / "values.csv"
        values.write_text("technique,project,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert main(["stats", str(values)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: project 'p2', 'a' vs 'b': run counts must match"
            " (or one side must be a single value)\n"
        )

    def test_overflowing_values_are_one_line(self, tmp_path, capsys):
        values = tmp_path / "values.csv"
        values.write_text("technique,project,value\na,p1,1e308\nb,p1,-1e308\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["stats", str(values)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: values too large to compare: ")
        assert captured.err.count("\n") == 1

    def test_matches_a_run_report(self, tmp_path, capsys):
        # differential: each metric's runs from a report, fed back through
        # stats, print that report's Scott-Knott groups and W/T/L counts
        config = write_config(tmp_path, repeats=6)
        (tmp_path / "drift").mkdir()
        version_ids, paths, _ = write_trend_project(tmp_path / "drift", n_files=40, seed=11)
        drift = "\n  - name: drift\n    versions:" + "".join(
            f"\n      - {{id: {v}, metrics: drift/{paths[v].name}}}" for v in version_ids
        )
        config.write_text(config.read_text() + drift + "\n", encoding="utf-8")
        assert main(["run", str(config)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        aggregates = report["aggregates"]
        assert aggregates["projects_evaluated"] == ["drift", "trend"]
        outcomes = set()
        for metric in METRIC_KEYS:
            rows = ["technique,project,value"]
            for t in aggregates["techniques"]:
                for p in aggregates["projects_evaluated"]:
                    runs = report["projects"][p]["techniques"][t]["runs"]
                    rows += [f"{t},{p},{run[metric]!r}" for run in runs]
            values = tmp_path / f"{metric}.csv"
            values.write_text("\n".join(rows) + "\n", encoding="utf-8")
            capsys.readouterr()
            assert main(["stats", str(values), "--reference", "rnn"]) == 0
            printed = re.sub(r" \(mean [^)]*\)", "", capsys.readouterr().out)
            groups = aggregates["scott_knott"][metric]
            wtl = {t: aggregates["win_tie_loss"][t][metric] for t in aggregates["techniques"][1:]}
            expected = ["scott-knott ranks:"]
            expected += [f"  rank {r}: " + ", ".join(names) for r, names in enumerate(groups, 1)]
            expected += ["win/tie/loss for rnn:"]
            expected += [f"  vs {t}: {c['win']}/{c['tie']}/{c['loss']}" for t, c in wtl.items()]
            assert printed == "\n".join(expected) + "\n"
            outcomes |= {o for c in wtl.values() for o in c["per_project"].values()}
        assert len(outcomes) > 1  # the counts do not all read the same


# ---------------------------------------------------------------------------
# the eval and stats tables, each a valid table with one cell or row mutated
# ---------------------------------------------------------------------------

BAD_CELLS = st.sampled_from([
    "abc", "inf", "-inf", "nan", "-1", "-0.5", "2.5", "1e400", "1e308", "-1e308", "9e18", "", " ",
    "0x10",
])


def valid_eval_rows(draw):
    """name,score,loc,bugs,label rows with a clean and a defective file,
    and the number of key columns."""
    n = draw(st.integers(2, 7))
    rows = []
    for i in range(n):
        bugs = 1 if i == 0 else 0 if i == 1 else draw(st.integers(0, 3))
        score = draw(st.floats(0, 1).map(lambda x: round(x, 3)))
        loc = draw(st.integers(1, 200))
        rows.append([f"f{i}", repr(score), str(loc), str(bugs), str(int(bugs > 0))])
    return ["name", "score", "loc", "bugs", "label"], rows, 1


def valid_stats_rows(draw):
    """technique,project,value rows, in which every technique has the same
    number of runs in every project, and the number of key columns."""
    techniques = ["a", "b", "c"][: draw(st.integers(1, 3))]
    projects = ["p1", "p2", "p3"][: draw(st.integers(1, 3))]
    runs = draw(st.integers(1, 6))
    rows = [
        [t, p, repr(draw(st.floats(0, 1).map(lambda x: round(x, 3))))]
        for p in projects for t in techniques for _ in range(runs)
    ]
    return ["technique", "project", "value"], rows, 2


@st.composite
def mutated_tables(draw, valid_rows):
    """The bytes of a valid table with one of: a bad number, a blank or
    duplicate key, a missing or extra cell, a blank, duplicate or missing
    row, or a byte that is not UTF-8."""
    header, rows, keys = valid_rows(draw)
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(header) - 1))
    key = draw(st.integers(0, keys - 1))
    mutation = draw(st.sampled_from(
        ["cell", "cell", "blank-key", "duplicate-key", "missing-cell", "extra-cell",
         "blank-row", "duplicate-row", "missing-row", "not-utf-8", "none"]
    ))
    if mutation == "cell":
        rows[i][draw(st.integers(keys, len(header) - 1))] = draw(BAD_CELLS)
    elif mutation == "blank-key":
        rows[i][key] = draw(st.sampled_from(["", " "]))
    elif mutation == "duplicate-key":
        rows[i][key] = rows[draw(st.integers(0, len(rows) - 1))][key]
    elif mutation == "missing-cell":
        del rows[i][j]
    elif mutation == "extra-cell":
        rows[i].insert(j, "9")
    elif mutation == "blank-row":
        rows.insert(i, [""] * draw(st.integers(1, len(header))))
    elif mutation == "duplicate-row":
        rows.insert(i, list(rows[i]))
    elif mutation == "missing-row":
        del rows[i]
    data = "\n".join(",".join(row) for row in [header, *rows]).encode("utf-8") + b"\n"
    if mutation == "not-utf-8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    return data


def run_cli(argv):
    """``main(argv)``'s exit code, stdout and stderr, any warning raised as
    an error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "verb, valid_rows", [("eval", valid_eval_rows), ("stats", valid_stats_rows)]
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzzed_table_exits_cleanly(tmp_path_factory, verb, valid_rows, data):
    # a mutated table is either read and scored, or refused with exactly
    # one error line and nothing on stdout: never a traceback or a warning
    path = tmp_path_factory.getbasetemp() / f"fuzz-{verb}.csv"
    path.write_bytes(data.draw(mutated_tables(valid_rows)))
    code, out, err = run_cli([verb, str(path)])
    if code == 0:
        assert err == "" and out
    else:
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
