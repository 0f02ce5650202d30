"""The benchmark's traced mode still reads the package's layers.

``perfbench/spans.py`` wraps module-level functions of ``experiment``,
``baselines`` and ``rnn`` and counts from what they take and return
(``len(snap.files)``, ``s.m``, ``item.length``, the set handed to
``train``, the ranking ``rank_by_density`` returns).  This runs one small
project and writes its outputs under that tracer, imported read-only from
the benchmark's directory, as the benchmark's worker does, and checks that
every layer it times shows up, the emit path's included, and that its
counts equal the project's sizes.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from defectseq import baselines, experiment, rnn
from defectseq.experiment import ExperimentConfig, ProjectSpec, VersionEntry, run_experiment
from defectseq.rnn import Hyperparams

from helpers import write_trend_project

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
N_FILES = 12


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def traced(tmp_path, monkeypatch):
    """Spans of one traced code+process run of a four-version project and
    of writing its outputs, and the number of change-table rows it read."""
    version_ids, paths, schema = write_trend_project(tmp_path, n_files=N_FILES)
    # the first version has no change table; each later one lists every
    # other file
    entries = [VersionEntry(version_ids[0], str(paths[version_ids[0]]))]
    for vid in version_ids[1:]:
        process = tmp_path / f"change-{vid}.csv"
        rows = [f"{vid},f{i:04d},{i},{i % 3}" for i in range(0, N_FILES, 2)]
        process.write_text("version,name,add,del\n" + "\n".join(rows) + "\n", encoding="utf-8")
        entries.append(VersionEntry(vid, str(paths[vid]), str(process)))
    cfg = ExperimentConfig(
        projects=(ProjectSpec("trend", tuple(entries), "u3", "u4"),),
        hyperparams=Hyperparams(hidden_size=3, iterations=3, seed=0),
        repeats=1,
        seed=1,
        metric_set="code+process",
        code_metrics=schema,
        baseline_kinds=("lr", "nn"),
    )
    monkeypatch.setattr(experiment, "_worker_count", lambda n: 1)
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    # the worker times the writing of the outputs under its own root span
    emit_report = tracer.span("experiment.emit", experiment.emit_report)
    with tracer.installed(experiment, baselines, rnn):
        report = run_experiment(cfg)
        emit_report(report, tmp_path / "out")
    assert report["errors"] == {}
    return spans, tracer.spans, 3 * len(range(0, N_FILES, 2))


def test_every_layer_is_traced(traced):
    _, recorded, _ = traced
    names = {s.name for s in recorded}
    for name in (
        "dataset.parse_metrics",
        "dataset.parse_process",
        "dataset.attach",
        "history.extract",
        "history.fit_normalizer",
        "history.apply_normalizer",
        "rnn.train.seq",
        "rnn.train.nn",
    ):
        assert name in names


def test_emit_path_is_traced(traced):
    spans, recorded, _ = traced
    by_id = {s.id: s for s in recorded}
    (root,) = [s.id for s in recorded if s.name == "experiment.emit"]

    def under_emit(s):
        while s.parent is not None:
            if s.parent == root:
                return True
            s = by_id[s.parent]
        return False

    names = {s.name for s in recorded if under_emit(s)}
    for name in ("effort.scored_files", "effort.rank_by_density", "effort.ce_curve",
                 "effort.curve_to_csv"):
        assert name in names
    assert spans.run_metrics(recorded)["effort.curve_s"] > 0


def test_counts_equal_project_sizes(traced):
    spans, recorded, process_rows = traced
    metrics = spans.run_metrics(recorded)
    # four metrics tables of N_FILES rows each, plus the change tables' rows
    assert metrics["dataset.rows"] == 4 * N_FILES + process_rows
    # every file is in every version: training samples span u1..u3, test u1..u4
    assert metrics["history.samples"] == 2 * N_FILES
    assert metrics["history.steps"] == 3 * N_FILES + 4 * N_FILES
    assert metrics["rnn.grad_evals"] > 0
    steps = {s.name: s.counts["steps"] for s in recorded if s.name.startswith("rnn.train.")}
    # the nn trains on one step per training file
    assert steps == {"rnn.train.seq": 3 * N_FILES, "rnn.train.nn": N_FILES}


def test_pooled_traced_run_writes_its_spans(tmp_path, monkeypatch):
    # the benchmark traces runs of two forked project workers: the wrapped
    # layers and their counts run in the workers, and the spans the parent
    # keeps, with their metrics, must encode as JSON
    projects = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        version_ids, paths, schema = write_trend_project(tmp_path / name, n_files=N_FILES)
        entries = tuple(VersionEntry(vid, str(paths[vid])) for vid in version_ids)
        projects.append(ProjectSpec(name, entries, "u3", "u4"))
    cfg = ExperimentConfig(
        projects=tuple(projects),
        hyperparams=Hyperparams(hidden_size=3, iterations=3, seed=0),
        repeats=1,
        seed=1,
        code_metrics=schema,
        baseline_kinds=("lr", "nn"),
    )
    monkeypatch.setattr(experiment, "_worker_count", lambda n: min(n, 2))
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    with tracer.installed(experiment, baselines, rnn):
        report = run_experiment(cfg)
    assert report["errors"] == {}
    json.dumps([s.__dict__ for s in tracer.spans])
    json.dumps(spans.run_metrics(tracer.spans))
