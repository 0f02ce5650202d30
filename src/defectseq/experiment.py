"""Experiment driver: manifests in, evaluation report out.

For every project the driver anchors the training set at its second-to-last
configured version and the test set at the last one (both overridable),
trains the recurrent classifier on metric sequences and each baseline on
the anchor version's plain vectors, repeats seeded runs for the techniques
with randomness, and aggregates cost-effectiveness, recall-at-effort and
ROC area into ranking tables (means, average ranks, Scott-Knott groups,
Win/Tie/Loss counts).

Projects share nothing, so each runs in its own forked worker process,
at most one per usable CPU; a single project or a single CPU runs inline.
The outcomes are merged in config order, so the report does not depend on
the worker count.  A project that fails on its own data is recorded under
``errors``; any other exception reaches the caller, and no worker outlives
``run_experiment``.

The report is a plain JSON-ready dict so that a written ``report.json``
re-reads to exactly the in-memory structure.
"""

from __future__ import annotations

import csv
import json
import math
import multiprocessing as mp
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import yaml
from scipy.stats import rankdata

from . import baselines as bl
from .dataset import (
    PROMISE_CODE_METRICS,
    ProjectHistory,
    attach_process_metrics,
    binarize_label,
    parse_metrics_csv,
    parse_process_csv,
)
from .effort import (
    CE_CUTOFFS,
    auc,
    ce_curve,
    ce_report_values,
    acc_at_effort,
    curve_to_csv,
    rank_by_density,
    scored_files,
)
from .history import (
    apply_normalizer,
    average_length,
    developing_fraction,
    extract_hvsm_set,
    fit_normalizer,
)
from .rnn import Hyperparams, TrainingError, predict_set, train
from .stats import scott_knott, win_tie_loss

RNN_TECHNIQUE = "rnn"
METRIC_KEYS = tuple(f"ce_{format(pi, 'g')}" for pi in CE_CUTOFFS) + ("acc", "auc")


class ConfigError(ValueError):
    """Unusable experiment configuration."""


@dataclass(frozen=True)
class VersionEntry:
    version_id: str
    metrics_path: str
    process_path: str | None = None


@dataclass(frozen=True)
class ProjectSpec:
    name: str
    versions: tuple[VersionEntry, ...]
    train_version: str
    test_version: str

    def __post_init__(self):
        ids = [v.version_id for v in self.versions]
        if len(self.versions) < 2:
            raise ConfigError(f"project {self.name!r} needs at least 2 versions")
        if self.train_version not in ids or self.test_version not in ids:
            raise ConfigError(
                f"project {self.name!r}: train/test versions must appear in the manifest"
            )
        if ids.index(self.train_version) >= ids.index(self.test_version):
            raise ConfigError(
                f"project {self.name!r}: train version must precede the test version"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    projects: tuple[ProjectSpec, ...]
    hyperparams: Hyperparams = Hyperparams()
    technique_hyperparams: Mapping[str, Mapping] = field(default_factory=dict)
    repeats: int = 10
    seed: int = 1
    window: int | None = None  # sequence length cap; None = full history
    metric_set: str = "code"  # "code" or "code+process"
    code_metrics: tuple[str, ...] = PROMISE_CODE_METRICS
    baseline_kinds: tuple[str, ...] = bl.BASELINE_KINDS
    knn_k: int = bl.DEFAULT_KNN_K
    sk_pool_runs: bool = False
    output_dir: str = "out"

    def __post_init__(self):
        if self.repeats < 1:
            raise ConfigError("repeats must be at least 1")
        if self.window is not None and self.window < 1:
            raise ConfigError(f"len must be at least 1, got {self.window}")
        if self.metric_set not in ("code", "code+process"):
            raise ConfigError(f"unknown metric set {self.metric_set!r}")
        for kind in self.baseline_kinds:
            if kind not in bl.BASELINE_KINDS:
                raise ConfigError(f"unknown baseline {kind!r}")
        for technique, overrides in self.technique_hyperparams.items():
            if technique != RNN_TECHNIQUE and technique not in bl.BASELINE_KINDS:
                raise ConfigError(f"hyperparameter override for unknown technique {technique!r}")
            self._with_overrides(overrides)  # validates the keys/values

    def _with_overrides(self, overrides: Mapping) -> Hyperparams:
        try:
            return replace(self.hyperparams, **dict(overrides))
        except TypeError as exc:
            raise ConfigError(f"bad hyperparameter override: {exc}") from None

    def hyperparams_for(self, technique: str) -> Hyperparams:
        """Technique-level hyperparameters: the shared block plus overrides."""
        return self._with_overrides(self.technique_hyperparams.get(technique, {}))


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a YAML (or JSON) experiment description."""
    raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    base = Path(path).parent

    def resolve(p: str) -> str:
        q = Path(p)
        return str(q if q.is_absolute() else base / q)

    def require(entry, where: str, *keys: str) -> None:
        if not isinstance(entry, dict):
            raise ConfigError(f"{where} must be a mapping")
        for key in keys:
            if key not in entry:
                raise ConfigError(f"{where}: missing key {key!r}")

    projects = []
    for i, entry in enumerate(raw.get("projects", [])):
        require(entry, f"project {i}", "name")
        versions = []
        for j, v in enumerate(entry.get("versions", [])):
            require(v, f"project {i}, version {j}", "id", "metrics")
            versions.append(
                VersionEntry(
                    version_id=str(v["id"]),
                    metrics_path=resolve(v["metrics"]),
                    process_path=resolve(v["process"]) if v.get("process") else None,
                )
            )
        ids = [v.version_id for v in versions]
        projects.append(
            ProjectSpec(
                name=str(entry["name"]),
                versions=tuple(versions),
                train_version=str(entry.get("train_version", ids[-2] if len(ids) >= 2 else "")),
                test_version=str(entry.get("test_version", ids[-1] if ids else "")),
            )
        )
    seed = _config_value(raw, "seed", int, 1)
    hp_raw = raw.get("hyperparams") or {}
    require(hp_raw, "hyperparams")

    def hp(key: str, kind: type, default):
        return _config_value(hp_raw, key, kind, default, f"hyperparams.{key}")

    hyperparams = Hyperparams(
        hidden_size=hp("hidden_size", int, 16),
        eta=hp("eta", float, 0.1),
        lam=hp("lam", float, 1e-4),
        iterations=hp("iterations", int, 500),
        seed=hp("seed", int, seed),
        init_scale=hp("init_scale", float, 0.2),
        halving_limit=hp("halving_limit", int, 20),
    )
    for key in ("code_metrics", "baselines"):
        if key in raw and not isinstance(raw[key], list):
            raise ConfigError(f"{key} must be a list, got {raw[key]!r}")
    overrides = raw.get("technique_hyperparams") or {}
    require(overrides, "technique_hyperparams")
    for technique, block in overrides.items():
        require(block, f"technique_hyperparams.{technique}")
    return ExperimentConfig(
        projects=tuple(projects),
        hyperparams=hyperparams,
        technique_hyperparams={str(t): dict(o) for t, o in overrides.items()},
        repeats=_config_value(raw, "repeats", int, 10),
        seed=seed,
        window=None if raw.get("len") is None else _config_value(raw, "len", int, None),
        metric_set=str(raw.get("metrics", "code")),
        code_metrics=tuple(raw.get("code_metrics", PROMISE_CODE_METRICS)),
        baseline_kinds=tuple(raw.get("baselines", bl.BASELINE_KINDS)),
        knn_k=_config_value(raw, "knn_k", int, bl.DEFAULT_KNN_K),
        sk_pool_runs=_config_value(raw, "sk_pool_runs", bool, False),
        output_dir=str(raw.get("output", "out")),
    )


_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false"}


def _config_value(raw: Mapping, key: str, kind: type, default, name: str | None = None):
    """``raw[key]`` (``default`` when absent) read as ``kind``: int, float
    or bool.  Only a bool reads as bool, an int refuses a fractional value
    and a float refuses nan and inf; anything else raises a one-line
    ``ConfigError`` naming the key (``name``, if given) and the value."""
    value = raw.get(key, default)
    try:
        if isinstance(value, bool) != (kind is bool):
            raise TypeError
        out = kind(value)
        if kind is int and isinstance(value, float) and out != value:
            raise ValueError
        if kind is float and not math.isfinite(out):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name or key} must be {_KIND_NAMES[kind]}, got {value!r}") from None
    return out


def load_project_history(spec: ProjectSpec, cfg: ExperimentConfig) -> ProjectHistory:
    """Parse every version table (and change tables when configured)."""
    snapshots = []
    for entry in spec.versions:
        data = Path(entry.metrics_path).read_bytes()
        snapshots.append(parse_metrics_csv(data, cfg.code_metrics, entry.version_id))
    history = ProjectHistory(name=spec.name, versions=tuple(snapshots))
    if cfg.metric_set == "code+process":
        add_del: dict[tuple[str, str], tuple[int, int]] = {}
        for entry in spec.versions:
            if entry.process_path is None:
                continue
            for key, value in parse_process_csv(Path(entry.process_path).read_bytes()).items():
                if key in add_del and add_del[key] != value:
                    raise ConfigError(f"conflicting process entries for {key}")
                add_del[key] = value
        history = attach_process_metrics(history, add_del)
    return history


def _evaluate_scores(
    keys: Sequence[str],
    probs: Sequence[float],
    locs: Sequence[int],
    bug_counts: Sequence[int],
) -> tuple[dict, int]:
    files, n_adjusted = scored_files(keys, probs, locs, bug_counts)
    labels = [binarize_label(b) for b in bug_counts]
    run = {f"ce_{k}": float(v) for k, v in ce_report_values(files).items()}
    run["acc"] = float(acc_at_effort(files))
    run["auc"] = float(auc(list(zip(map(float, probs), labels))))
    return run, n_adjusted


def _mean_runs(runs: list[dict]) -> dict:
    return {
        key: float(np.mean([run[key] for run in runs])) for key in METRIC_KEYS
    }


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute the configured comparison; per-project failures are recorded
    under ``errors`` and do not abort the remaining projects.

    Projects run in parallel, one per worker process (see ``_map_projects``);
    their outcomes are merged in config order, so the report does not
    depend on the worker count."""
    report: dict = {
        "config": _config_dict(cfg),
        "projects": {},
        "errors": {},
        "aggregates": {},
    }
    outcomes = _map_projects([(spec, cfg) for spec in cfg.projects])
    for spec, (ok, value) in zip(cfg.projects, outcomes):
        report["projects" if ok else "errors"][spec.name] = value
    _aggregate(report, cfg)
    return report


def _project_outcome(job: tuple[ProjectSpec, ExperimentConfig]) -> tuple[bool, dict | str]:
    """``(True, project)`` for a finished project, ``(False, message)`` for
    one that failed on its own data; any other exception propagates."""
    spec, cfg = job
    try:
        return True, _run_project(spec, cfg)
    except (ValueError, OSError, TrainingError) as exc:
        return False, str(exc)


def _worker_count(n_projects: int) -> int:
    """One worker per project, at most one per CPU this process may use."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(n_projects, cpus)


def _map_projects(jobs: list) -> list:
    """``_project_outcome`` of every job, in order.

    With two or more workers the jobs go to a pool of forked processes,
    which is closed and reaped before this returns or raises; otherwise
    (one project, one usable CPU, or no ``fork``) they run in this process.
    """
    # fork, not spawn: a spawned worker would pay the numpy/scipy import
    # (about 1 s on a 2-core VM) before its first project, and would not
    # see the functions a caller has swapped into this module
    workers = _worker_count(len(jobs))
    if workers < 2 or "fork" not in mp.get_all_start_methods():
        return list(map(_project_outcome, jobs))
    pool = mp.get_context("fork").Pool(workers)
    try:
        outcomes = pool.map(_project_outcome, jobs, chunksize=1)
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
    return outcomes


def _run_project(spec: ProjectSpec, cfg: ExperimentConfig) -> dict:
    history = load_project_history(spec, cfg)
    train_set = extract_hvsm_set(history, spec.train_version, cfg.window)
    test_set = extract_hvsm_set(history, spec.test_version, cfg.window)
    if not train_set.items:
        raise ValueError("empty training set")
    if not test_set.items:
        raise ValueError("empty test set")

    test_snapshot = history.snapshot(spec.test_version)
    keys = [item.key for item in test_set.items]
    locs = [item.sequence[-1].loc for item in test_set.items]
    bug_counts = [int(test_snapshot.labels.get(key, 0)) for key in keys]
    n_defective = sum(1 for b in bug_counts if b > 0)
    if n_defective == 0:
        raise ValueError("all-clean test set: CE undefined")
    if n_defective == len(bug_counts):
        raise ValueError("all-defective test set: AUC undefined")

    train_labels = [item.label for item in train_set.items]
    if any(label is None for label in train_labels):
        raise ValueError("training set has unlabeled files")

    normalizer = fit_normalizer(train_set)
    train_norm = apply_normalizer(normalizer, train_set)

    project: dict = {
        "train_version": spec.train_version,
        "test_version": spec.test_version,
        "train": {
            "files": train_set.m,
            "developing_pct": round(100 * developing_fraction(history, spec.train_version), 4),
            "avg_length": round(average_length(train_set), 4),
        },
        "test": {
            "files": test_set.m,
            "developing_pct": round(100 * developing_fraction(history, spec.test_version), 4),
            "avg_length": round(average_length(test_set), 4),
            "defective": n_defective,
        },
        "test_files": {
            key: {"loc": int(loc), "bugs": int(bugs)}
            for key, loc, bugs in zip(keys, locs, bug_counts)
        },
        "techniques": {},
    }

    zero_loc_flagged = 0

    # sequence model: one seeded run per repeat
    runs = []
    score_sum = np.zeros(len(keys))
    rnn_hyperparams = cfg.hyperparams_for(RNN_TECHNIQUE)
    for r in range(cfg.repeats):
        h_r = replace(rnn_hyperparams, seed=cfg.seed + r)
        result = train(train_norm, h_r)
        probs = predict_set(result.params, test_set, normalizer)
        run, n_adj = _evaluate_scores(keys, probs, locs, bug_counts)
        zero_loc_flagged = max(zero_loc_flagged, n_adj)
        runs.append(run)
        score_sum += probs
    project["techniques"][RNN_TECHNIQUE] = {
        "runs": runs,
        "mean": _mean_runs(runs),
        "scores_mean": {k: float(s) for k, s in zip(keys, score_sum / cfg.repeats)},
    }

    # single-version baselines on the anchor versions
    train_snapshot = history.snapshot(spec.train_version)
    feats = [
        (train_snapshot.files[key], binarize_label(train_snapshot.labels.get(key, 0)))
        for key in sorted(train_snapshot.files)
    ]
    test_vectors = [test_snapshot.files[key] for key in keys]
    for kind in cfg.baseline_kinds:
        try:
            entry = _run_baseline(kind, feats, test_vectors, keys, locs, bug_counts, cfg)
        except (ValueError, TrainingError) as exc:
            project["techniques"][kind] = {"error": str(exc)}
            continue
        project["techniques"][kind] = entry
        zero_loc_flagged = max(zero_loc_flagged, entry.pop("_zero_loc", 0))

    project["zero_loc_files_adjusted"] = zero_loc_flagged
    return project


def _run_baseline(kind, feats, test_vectors, keys, locs, bug_counts, cfg) -> dict:
    seeds = range(cfg.repeats) if kind == bl.FEEDFORWARD_NN else (0,)
    runs = []
    score_sum = np.zeros(len(keys))
    n_adj = 0
    base_hyperparams = cfg.hyperparams_for(kind)
    for r in seeds:
        h_r = replace(base_hyperparams, seed=cfg.seed + r)
        model = bl.train_baseline(kind, feats, h_r, k=cfg.knn_k)
        probs = bl.predict_baseline_many(model, test_vectors)
        run, n_adj = _evaluate_scores(keys, probs, locs, bug_counts)
        runs.append(run)
        score_sum += probs
    mean_scores = score_sum / len(runs)
    if len(runs) == 1:
        # deterministic technique: one run stands for every repeat
        runs = runs * cfg.repeats
    return {
        "runs": runs,
        "mean": _mean_runs(runs),
        "scores_mean": {k: float(s) for k, s in zip(keys, mean_scores)},
        "_zero_loc": n_adj,
    }


def average_rank(table: Mapping[str, Mapping[str, float]]) -> dict[str, float]:
    """Mean rank per technique over projects; rank 1 is the highest value,
    ties share their average rank."""
    techniques = sorted({t for row in table.values() for t in row})
    sums = {t: 0.0 for t in techniques}
    for project in sorted(table):
        row = table[project]
        if set(row) != set(techniques):
            raise ValueError(f"project {project!r} is missing techniques")
        ranks = rankdata(-np.asarray([row[t] for t in techniques]), method="average")
        for t, r in zip(techniques, ranks):
            sums[t] += float(r)
    n = len(table)
    return {t: sums[t] / n for t in techniques}


def _aggregate(report: dict, cfg: ExperimentConfig) -> None:
    ok_projects = sorted(report["projects"])
    techniques = [RNN_TECHNIQUE, *cfg.baseline_kinds]
    usable = [
        t
        for t in techniques
        if all("runs" in report["projects"][p]["techniques"].get(t, {}) for p in ok_projects)
    ]
    aggregates: dict = {"projects_evaluated": ok_projects, "techniques": usable}
    if not ok_projects or not usable:
        report["aggregates"] = aggregates
        return

    mean_table = {
        metric: {
            p: {t: report["projects"][p]["techniques"][t]["mean"][metric] for t in usable}
            for p in ok_projects
        }
        for metric in METRIC_KEYS
    }
    aggregates["mean_by_technique"] = {
        metric: {
            t: float(np.mean([mean_table[metric][p][t] for p in ok_projects])) for t in usable
        }
        for metric in METRIC_KEYS
    }
    aggregates["average_rank"] = {
        metric: average_rank(mean_table[metric]) for metric in METRIC_KEYS
    }

    sk = {}
    for metric in METRIC_KEYS:
        if cfg.sk_pool_runs:
            values = {
                t: [
                    run[metric]
                    for p in ok_projects
                    for run in report["projects"][p]["techniques"][t]["runs"]
                ]
                for t in usable
            }
        else:
            values = {t: [mean_table[metric][p][t] for p in ok_projects] for t in usable}
        grouping = scott_knott(values)
        sk[metric] = [list(rank) for rank in grouping.ranks]
    aggregates["scott_knott"] = sk

    wtl: dict = {}
    for t in usable:
        if t == RNN_TECHNIQUE:
            continue
        wtl[t] = {}
        for metric in METRIC_KEYS:
            counts = {"win": 0, "tie": 0, "loss": 0}
            per_project = {}
            for p in ok_projects:
                subject = [
                    run[metric]
                    for run in report["projects"][p]["techniques"][RNN_TECHNIQUE]["runs"]
                ]
                other = [
                    run[metric] for run in report["projects"][p]["techniques"][t]["runs"]
                ]
                outcome = win_tie_loss(subject, other)
                counts[outcome.value] += 1
                per_project[p] = outcome.value
            wtl[t][metric] = {**counts, "per_project": per_project}
    aggregates["win_tie_loss"] = wtl
    report["aggregates"] = aggregates


def _config_dict(cfg: ExperimentConfig) -> dict:
    h = cfg.hyperparams
    return {
        "repeats": cfg.repeats,
        "seed": cfg.seed,
        "len": cfg.window,
        "metrics": cfg.metric_set,
        "code_metrics": list(cfg.code_metrics),
        "baselines": list(cfg.baseline_kinds),
        "knn_k": cfg.knn_k,
        "sk_pool_runs": cfg.sk_pool_runs,
        "hyperparams": {
            "hidden_size": h.hidden_size,
            "eta": h.eta,
            "lam": h.lam,
            "iterations": h.iterations,
            "init_scale": h.init_scale,
            "halving_limit": h.halving_limit,
        },
        "technique_hyperparams": {
            t: dict(o) for t, o in sorted(cfg.technique_hyperparams.items())
        },
        "projects": [
            {
                "name": p.name,
                "train_version": p.train_version,
                "test_version": p.test_version,
                "versions": [v.version_id for v in p.versions],
            }
            for p in cfg.projects
        ],
    }


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def emit_report(report: dict, out_dir: str | Path) -> list[Path]:
    """Write report.json, summary.csv, per-technique CE curves, Scott-Knott
    groups and the Win/Tie/Loss table.  Returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    report_path = out / "report.json"
    report_path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    written.append(report_path)

    summary_path = out / "summary.csv"
    with summary_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["project", "technique", *METRIC_KEYS])
        for project in sorted(report["projects"]):
            techniques = report["projects"][project]["techniques"]
            for technique in sorted(techniques):
                entry = techniques[technique]
                if "mean" not in entry:
                    continue
                writer.writerow(
                    [project, technique]
                    + [format(entry["mean"][m], ".3f") for m in METRIC_KEYS]
                )
    written.append(summary_path)

    curves_dir = out / "ce_curves"
    curves_dir.mkdir(exist_ok=True)
    for project in sorted(report["projects"]):
        payload = report["projects"][project]
        techniques = payload["techniques"]
        for technique in sorted(techniques):
            entry = techniques[technique]
            if "scores_mean" not in entry:
                continue
            files, _ = scored_files(
                keys=list(entry["scores_mean"]),
                scores=list(entry["scores_mean"].values()),
                locs=[payload["test_files"][k]["loc"] for k in entry["scores_mean"]],
                bugs=[payload["test_files"][k]["bugs"] for k in entry["scores_mean"]],
            )
            curve = ce_curve(rank_by_density(files))
            path = curves_dir / f"{project}_{technique}.csv"
            path.write_text(curve_to_csv(curve), encoding="utf-8")
            written.append(path)

    sk_path = out / "sk_groups.txt"
    lines = []
    for metric in METRIC_KEYS:
        groups = report.get("aggregates", {}).get("scott_knott", {}).get(metric, [])
        lines.append(f"{metric}:")
        for rank, names in enumerate(groups, start=1):
            lines.append(f"  rank {rank}: " + ", ".join(names))
    sk_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(sk_path)

    wtl_path = out / "win_tie_loss.csv"
    with wtl_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["baseline", "metric", "win", "tie", "loss"])
        wtl = report.get("aggregates", {}).get("win_tie_loss", {})
        for baseline in sorted(wtl):
            for metric in METRIC_KEYS:
                if metric not in wtl[baseline]:
                    continue
                row = wtl[baseline][metric]
                writer.writerow([baseline, metric, row["win"], row["tie"], row["loss"]])
    written.append(wtl_path)
    return written
