"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

They check the input generators, the self-time arithmetic, the report
check and its effect on the failure count, a smoke-sized run of every
workload through the worker and the tracer, and that the benchmark refuses
to run without the package.
"""

from __future__ import annotations

import copy
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _digest(root: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(root.iterdir())
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_gives_the_same_bytes_for_the_same_seed(tmp_path, name):
    first = _digest(workloads.generate(name, tmp_path / "a", 3).parent)
    again = _digest(workloads.generate(name, tmp_path / "b", 3).parent)
    other = _digest(workloads.generate(name, tmp_path / "c", 4).parent)
    assert first == again
    assert first.keys() == other.keys() and first != other


def test_benchmark_json_names_the_generated_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_standin_plans_reproduce_the_published_percentages():
    workloads.check_standin_plans()
    with pytest.raises(ValueError):
        workloads.plan_groups(10, 20, 5, 5)


def _span(id, name, start, end, parent=None, **counts):
    return spans.Span(id=id, name=name, start=start, parent=parent, run=0, end=end, counts=counts)


def test_self_time_is_duration_minus_covered_child_time():
    tree = [
        _span(0, "experiment.run", 0.0, 10.0),
        _span(1, "rnn.train.seq", 1.0, 4.0, 0, grad_evals=4, accepted=3, steps=10),
        _span(2, "baselines.train.nn", 5.0, 9.0, 0),
        _span(3, "rnn.train.nn", 6.0, 8.0, 2, grad_evals=6, accepted=5, steps=2),
        _span(4, "effort.auc", 4.0, 4.5, 0),
        _span(5, "experiment.emit", 10.0, 12.0, bytes_written=7),
        _span(6, "effort.scored_files", 10.5, 11.0, 5),
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({0: 2.5, 1: 3.0, 2: 2.0, 3: 2.0, 4: 0.5, 5: 1.5, 6: 0.5})

    m = spans.run_metrics(tree)
    assert m["trace.total_s"] == pytest.approx(12.0)  # the root spans' durations
    assert m["experiment.driver_s"] == pytest.approx(2.5)
    assert m["baselines.train.nn_s"] == pytest.approx(2.0)  # nested rnn.train excluded
    assert m["rnn.train.nn_s"] == pytest.approx(2.0)
    assert m["effort.evaluate_s"] == pytest.approx(0.5)  # under run_experiment
    assert m["effort.curve_s"] == pytest.approx(0.5)  # under emit_report
    assert m["rnn.grad_evals"] == 10
    assert m["rnn.accepted_step_ratio"] == pytest.approx(8 / 10)
    assert m["rnn.step_samples_per_s"] == pytest.approx((10 * 4 + 2 * 6) / 5.0)
    assert m["experiment.bytes_written"] == 7


def test_overlapping_children_count_once():
    tree = [
        _span(0, "experiment.run", 0.0, 10.0),
        _span(1, "effort.auc", 1.0, 5.0, 0),
        _span(2, "effort.auc", 3.0, 7.0, 0),
        _span(3, "effort.auc", 9.0, 12.0, 0),  # clipped at the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_take_medians_and_paired_overhead():
    tree = [
        spans.Span(0, "experiment.run", 0.0, None, 1, end=2.0),
        spans.Span(1, "experiment.run", 5.0, None, 3, end=8.0),
        spans.Span(2, "experiment.run", 9.0, None, 5, end=10.0),
    ]
    out, gaps = spans.layer_metrics(tree, {1: 2.5, 3: 3.0, 5: 1.0}, {0: 1.5, 2: 1.0, 4: 2.0})
    assert out["experiment.driver_s"] == pytest.approx(2.0)
    assert out["trace.run_s"] == pytest.approx(2.5)
    # each traced run minus the untraced run before it: 1.0, 2.0, -1.0
    assert out["trace_overhead_s"] == pytest.approx(1.0)
    assert gaps == pytest.approx({1: 0.5, 3: 0.0, 5: 0.0})


def _smoke_inputs(name: str, root: Path) -> Path:
    """The workload's shape at a two-iteration, one-repeat budget."""
    manifest = workloads.generate(name, root, 0)
    raw = yaml.safe_load(manifest.read_text(encoding="utf-8"))
    raw["hyperparams"]["iterations"] = 2
    raw["repeats"] = 1
    manifest.write_text(yaml.safe_dump(raw, sort_keys=False), encoding="utf-8")
    return manifest


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def smoke(request, tmp_path_factory):
    work = tmp_path_factory.mktemp(request.param)
    manifest = _smoke_inputs(request.param, work / "inputs")
    run.worker("run", str(manifest), str(work), "0", "1", str(work / "result.json"), timeout=300)
    return work, json.loads((work / "result.json").read_text(encoding="utf-8"))


def test_smoke_run_passes_the_check_and_traces_every_layer(smoke):
    work, result = smoke
    ok, problems, shas = run.tally(result["runs"], work / "reports", None)
    # MIN_RUNS untraced/traced pairs; traced and untraced reports are the same bytes
    assert problems == [] and len(ok) == 2 * worker.MIN_RUNS and len(shas) == 1
    for metric in BENCHMARK["per_layer"]:
        assert metric["name"] in result["layers"]
    for traced in (r for r in result["runs"] if r["traced"]):
        assert 0 <= traced["trace_gap_s"] <= run.TRACE_GAP_SHARE * traced["run_s"]
    assert result["env"]["nproc"] >= 1 and result["env"]["blas"]


def test_a_perturbed_report_counts_toward_fail_ratio(smoke, tmp_path):
    work, result = smoke
    (sha,) = {r["sha256"] for r in result["runs"]}
    data = (work / "reports" / f"{sha}.json").read_bytes()
    reference = check.reference_entry(data)
    report = json.loads(data)
    project = sorted(report["projects"])[0]
    rnn = report["projects"][project]["techniques"]["rnn"]

    perturbed = []
    bumped = copy.deepcopy(report)
    bumped["projects"][project]["techniques"]["rnn"]["runs"][0]["auc"] += 1e-6
    perturbed.append(bumped)
    score = copy.deepcopy(report)
    key = sorted(rnn["scores_mean"])[0]
    score["projects"][project]["techniques"]["rnn"]["scores_mean"][key] += 1e-6
    perturbed.append(score)
    regrouped = copy.deepcopy(report)
    groups = report["aggregates"]["scott_knott"]["auc"]
    regrouped["aggregates"]["scott_knott"]["auc"] = (
        [sum(groups, [])] if len(groups) > 1 else [[t] for t in groups[0]]
    )
    perturbed.append(regrouped)
    recounted = copy.deepcopy(report)
    recounted["aggregates"]["win_tie_loss"]["lr"]["auc"]["win"] += 1
    perturbed.append(recounted)

    reports = tmp_path / "reports"
    reports.mkdir()
    (reports / f"{sha}.json").write_bytes(data)
    runs = [{"sha256": sha, "traced": False}]
    for i, bad in enumerate(perturbed):
        (reports / f"bad{i}.json").write_text(json.dumps(bad, sort_keys=True, indent=2) + "\n")
        runs.append({"sha256": f"bad{i}", "traced": False})
    runs.append({"traced": False, "error": "raised"})

    ok, problems, _ = run.tally(runs, reports, reference)
    assert ok == runs[:1]
    assert (len(runs) - len(ok)) / len(runs) == pytest.approx(5 / 6)
    assert any("scott_knott" in p for p in problems)
    assert any("win_tie_loss" in p for p in problems)

    # a difference far below the tolerance is not a failure
    close = copy.deepcopy(report)
    close["projects"][project]["techniques"]["rnn"]["runs"][0]["auc"] += 1e-13
    assert check.compare(reference["fingerprint"], check.fingerprint(close)) == []


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "wide-eval", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
