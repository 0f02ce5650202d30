"""What a written report means, checked on any numpy and BLAS build.

``tests/test_golden.py`` pins the bytes of three runs, and only on the
build they were taken on.  This test drives ``defectseq run`` through
``cli.main`` on small generated experiments: two or three trend projects,
code or code+process metrics, a random ``len``, one or two repeats, and
sometimes a technique set to diverge.  It checks the written files against
the report they came from:

- ``perfbench/check.py``'s ``invariants``, loaded read-only by path as the
  benchmark's own runs use it, find exactly the error entries the run
  provoked and no other problem;
- ``summary.csv`` holds the report's means at three decimals;
- each CE curve is ``ce_curve`` of its technique's ``scores_mean``, and it
  ends at (1, 1);
- ``sk_groups.txt`` and ``win_tie_loss.csv`` hold the aggregates;
- stderr holds one warning per error entry;
- the output directory holds only the files the run printed.  Every
  example writes into one directory, over the previous example's files and
  a stale curve planted before the run.
"""

import csv
import importlib.util
import json
from pathlib import Path

from hypothesis import given, settings, strategies as st

from defectseq.effort import ce_curve, rank_by_density, scored_files
from defectseq.experiment import METRIC_KEYS

from helpers import write_trend_project
from test_cli import run_cli
from test_golden import write_change_table

CHECK_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "check.py"
NAMES = ("alpha", "beta", "gamma")
N_FILES = 30
DIVERGED = "non-finite loss at iteration 0"


def load_check():
    spec = importlib.util.spec_from_file_location("perfbench_check", CHECK_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = load_check()


def project_lines(root, name, process):
    """A config's entry for project ``name`` under ``root``, its tables
    written on first use; with ``process``, every version but the first
    has a change table."""
    project = root / name
    if not project.exists():
        project.mkdir()
        seed = NAMES.index(name)
        version_ids, _, _ = write_trend_project(project, n_files=N_FILES, seed=30 + seed)
        for v, vid in enumerate(version_ids[1:], start=1):
            write_change_table(project / f"changes-{vid}.csv", vid, N_FILES, 10 * seed + v)
    lines = [f"  - name: {name}", "    versions:"]
    for v, table in enumerate(sorted(project.glob("trend-*.csv"))):
        vid = table.stem.removeprefix("trend-")
        entry = f"      - {{id: {vid}, metrics: {name}/{table.name}"
        if process and v:
            entry += f", process: {name}/changes-{vid}.csv"
        lines.append(entry + "}")
    return lines


experiments = st.fixed_dictionaries(
    {
        "names": st.sampled_from([NAMES[:2], NAMES[1:], NAMES]),
        "process": st.booleans(),
        "window": st.sampled_from(["null", "1", "2", "3"]),
        "repeats": st.integers(1, 2),
        "seed": st.integers(0, 1000),
        "diverging": st.sampled_from([None, "rnn", "lr", "nn"]),
    }
)


def read_csv(path):
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


@settings(max_examples=12, deadline=None)
@given(experiment=experiments)
def test_written_files_mean_what_the_report_says(tmp_path_factory, experiment):
    root = tmp_path_factory.getbasetemp() / "report-meaning"
    root.mkdir(exist_ok=True)
    out = root / "out"
    lines = [
        f"seed: {experiment['seed']}",
        f"repeats: {experiment['repeats']}",
        f"len: {experiment['window']}",
        "code_metrics: [loc, trend, n0, n1]",
        "baselines: [lr, nb, knn, nn]",
        "hyperparams: {hidden_size: 3, eta: 0.5, iterations: 6}",
        f"output: {out}",
    ]
    if experiment["process"]:
        lines.append("metrics: code+process")
    if experiment["diverging"]:
        lines.append(f"technique_hyperparams: {{{experiment['diverging']}: {{eta: 1e300}}}}")
    lines.append("projects:")
    for name in experiment["names"]:
        lines += project_lines(root, name, experiment["process"])
    config = root / "config.yaml"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    stale = out / "ce_curves" / "retired_rnn.csv"
    stale.parent.mkdir(parents=True, exist_ok=True)
    stale.write_text("loc_fraction,bug_fraction\n0.0,0.0\n", encoding="utf-8")

    code, stdout, stderr = run_cli(["run", str(config)])
    assert code == 0, stderr
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    projects = report["projects"]

    # the provoked errors, and nothing else wrong
    failed = {
        (project, technique): entry["error"]
        for project, payload in projects.items()
        for technique, entry in payload["techniques"].items()
        if "error" in entry
    }
    provoked = experiment["diverging"]
    assert report["errors"] == {}
    assert failed == {(name, provoked): DIVERGED for name in experiment["names"] if provoked}
    problems = sorted(f"{p}/{t}: {m}" for (p, t), m in failed.items())
    assert sorted(check.invariants(report)) == problems
    assert sorted(stderr.splitlines()) == [f"warning: {problem}" for problem in problems]

    # summary.csv: every mean at three decimals
    assert read_csv(out / "summary.csv") == [["project", "technique", *METRIC_KEYS]] + [
        [project, technique, *(format(entry["mean"][m], ".3f") for m in METRIC_KEYS)]
        for project in sorted(projects)
        for technique, entry in sorted(projects[project]["techniques"].items())
        if "mean" in entry
    ]

    # each curve: the CE curve of the technique's mean scores
    curves = []
    for project, payload in projects.items():
        test_files = payload["test_files"]
        files, _ = scored_files(
            list(test_files), [f["loc"] for f in test_files.values()],
            [f["bugs"] for f in test_files.values()],
        )
        for technique, entry in payload["techniques"].items():
            if "scores_mean" not in entry:
                continue
            name = f"ce_curves/{project}_{technique}.csv"
            curves.append(name)
            scores = [entry["scores_mean"][key] for key in files.keys]
            header, *rows = read_csv(out / name)
            assert header == ["loc_fraction", "bug_fraction"]
            written = [[float(x), float(y)] for x, y in rows]
            assert written == ce_curve(files, rank_by_density(files, scores)).tolist()
            assert written[-1] == [1.0, 1.0]

    # the ranking tables: the aggregates as they are
    aggregates = report["aggregates"]
    sk = []
    for metric in METRIC_KEYS:
        sk.append(f"{metric}:")
        ranks = aggregates.get("scott_knott", {}).get(metric, [])
        sk += [f"  rank {i}: {', '.join(names)}" for i, names in enumerate(ranks, start=1)]
    assert (out / "sk_groups.txt").read_text(encoding="utf-8").splitlines() == sk
    wtl = aggregates.get("win_tie_loss", {})
    assert read_csv(out / "win_tie_loss.csv") == [["baseline", "metric", "win", "tie", "loss"]] + [
        [baseline, metric, *(str(wtl[baseline][metric][k]) for k in ("win", "tie", "loss"))]
        for baseline in sorted(wtl)
        for metric in METRIC_KEYS
        if metric in wtl[baseline]
    ]
    if provoked == "rnn":
        assert wtl == {}

    # only the files this run printed, which are the ones emit_report returned
    printed = {Path(line) for line in stdout.splitlines()}
    expected = ["report.json", "summary.csv", "sk_groups.txt", "win_tie_loss.csv", *curves]
    assert printed == {out / name for name in expected}
    assert {p for p in out.rglob("*") if p.is_file()} == printed
