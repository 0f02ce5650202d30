"""Experiment driver: manifests in, evaluation report out.

For every project the driver anchors the training set at its second-to-last
configured version and the test set at the last one (both overridable),
trains the recurrent classifier on the sets' metric sequences and each
baseline on their anchor steps (each file's last step, its row at the
anchor version), repeats seeded runs for the
techniques with randomness, and aggregates cost-effectiveness,
recall-at-effort and ROC area into ranking tables (means, average ranks,
Scott-Knott groups, Win/Tie/Loss counts).  Every technique fits and
predicts through one loop; one that fails (its loss turns non-finite, say)
is its project's technique error, left out of the aggregates.

Each run is scored by one function, :func:`evaluate_scores`, which takes
the test files' columns and the run's scores and ranks the scores once,
and each metric's ranking tables come from one comparison,
:func:`compare_techniques`; the ``eval`` and ``stats`` commands call the
same two, so every reported number has one implementation.

Within a project, everything that a repeat's seed does not change is built
once: the two stacked sequence sets and their anchor steps, each z-scored
once by a fit on its training side, and the test files' evaluation columns
(line and bug counts read off the test version's arrays) with their
optimal ordering.  These live only as long as the project's run;
``emit_report`` builds each project's columns once from the report and
ranks each technique's mean scores over them for its CE curve.

Projects share nothing, so they run in forked worker processes, at most
one per usable CPU, each taking the next project when it has finished one;
a single project or a single CPU runs inline.  The outcomes are received on
the caller's thread and merged in config order, so the report does not
depend on the worker count.  A project that fails on its own data is
recorded under ``errors``; any other exception reaches the caller, and no
worker outlives ``run_experiment``.  A worker runs on the modules this
process had imported when it forked, and imports only ``numpy.random``,
for its first initial weights; this process, which trains nothing in a
pooled run, never loads it.

The report is a plain JSON-ready dict so that a written ``report.json``
re-reads to exactly the in-memory structure.  ``emit_report`` formats
each value once: a table of rows sharing one key set goes through one
C-encoder call per batch of rows, and a curve's bug fractions are each
formatted once.
"""

from __future__ import annotations

import csv
import json
import math
import multiprocessing as mp
import os
import signal
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
import yaml

from . import baselines as bl
from .dataset import (
    BUG_COLUMN,
    NAME_COLUMN,
    PROCESS_METRICS,
    PROMISE_CODE_METRICS,
    ParseError,
    ProjectHistory,
    attach_process_metrics,
    parse_metrics_csv,
    parse_process_csv,
)
from .effort import (
    CE_CUTOFFS,
    ScoredColumns,
    auc,
    ce_curve,
    ce_report_values,
    acc_at_effort,
    curve_to_csv,
    rank_by_density,
    scored_files,
)
from .history import (
    anchor_step,
    apply_normalizer,
    average_length,
    developing_fraction,
    extract_hvsm_set,
    fit_normalizer,
)
from .rnn import Hyperparams, TrainingError, predict_set, train
from .stats import SkGrouping, rankdata, scott_knott, win_tie_loss

RNN_TECHNIQUE = "rnn"
TECHNIQUES = (RNN_TECHNIQUE, *bl.BASELINE_KINDS)
METRIC_KEYS = tuple(f"ce_{format(pi, 'g')}" for pi in CE_CUTOFFS) + ("acc", "auc")


class ConfigError(ValueError):
    """Unusable experiment configuration."""


class WorkerDied(RuntimeError):
    """A project's worker process ended without sending its outcome."""


@dataclass(frozen=True)
class VersionEntry:
    version_id: str
    metrics_path: str
    process_path: str | None = None


@dataclass(frozen=True)
class ProjectSpec:
    name: str
    versions: tuple[VersionEntry, ...]  # in release order
    train_version: str | None = None  # None: the second-to-last version
    test_version: str | None = None  # None: the last version

    def __post_init__(self):
        ids = [v.version_id for v in self.versions]
        if len(self.versions) < 2:
            raise ConfigError(f"project {self.name!r} needs at least 2 versions")
        for version_id in ids:
            if ids.count(version_id) > 1:
                raise ConfigError(f"project {self.name!r}: version {version_id!r} is listed twice")
        if self.train_version is None:
            object.__setattr__(self, "train_version", ids[-2])
        if self.test_version is None:
            object.__setattr__(self, "test_version", ids[-1])
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
        if self.seed < 0:  # init_params refuses a negative seed, but only once a run trains
            raise ConfigError(f"seed cannot be negative, got {self.seed}")
        if self.window is not None and self.window < 1:
            raise ConfigError(f"len must be at least 1, got {self.window}")
        if self.metric_set not in ("code", "code+process"):
            raise ConfigError(f"metrics must be code or code+process, got {self.metric_set!r}")
        if self.metric_set == "code" and not self.code_metrics:
            raise ConfigError("code_metrics must name at least one metric when metrics is code")
        if self.knn_k < 1:
            raise ConfigError(f"knn_k must be at least 1, got {self.knn_k}")
        # the tables' own columns, and under code+process the appended ones
        taken = (NAME_COLUMN, BUG_COLUMN) + (PROCESS_METRICS if self.metric_set != "code" else ())
        for metric in self.code_metrics:
            if metric in taken:
                raise ConfigError(f"code_metrics: {metric!r} is a reserved column name")
        for kind in self.baseline_kinds:
            if kind not in bl.BASELINE_KINDS:
                raise ConfigError(f"baselines: unknown baseline {kind!r}")
        for key, items in (("projects", [p.name for p in self.projects]),
                           ("baselines", self.baseline_kinds), ("code_metrics", self.code_metrics)):
            for item in items:
                if list(items).count(item) > 1:
                    raise ConfigError(f"{key}: {item!r} is listed twice")
        for technique in self.technique_hyperparams:
            if technique not in TECHNIQUES:
                raise ConfigError(f"technique_hyperparams: unknown technique {technique!r}")
            try:
                self.hyperparams_for(technique)  # validates the keys/values
            except ValueError as exc:
                raise ConfigError(f"technique_hyperparams.{technique}: {exc}") from None

    def hyperparams_for(self, technique: str) -> Hyperparams:
        """Technique-level hyperparameters: the shared block plus overrides."""
        try:
            return replace(self.hyperparams, **self.technique_hyperparams.get(technique, {}))
        except TypeError as exc:
            raise ConfigError(f"bad hyperparameter override: {exc}") from None


@dataclass(frozen=True)
class _Block:
    """A mapping read into ``cls`` through ``keys``, manifest key -> (field,
    kind); a kind is int, float, bool, str, Path (a str resolved against the
    config file's directory), a list [kind] or a block.  The report echoes a
    block as its keys, or as its ``echo`` field if set."""

    cls: type
    keys: dict
    noun: str = "key"
    echo: str | None = None


_VERSION = _Block(
    VersionEntry,
    {
        "id": ("version_id", str),
        "metrics": ("metrics_path", Path),
        "process": ("process_path", Path),
    },
    echo="version_id",
)
_PROJECT = _Block(
    ProjectSpec,
    {
        "name": ("name", str),
        "versions": ("versions", [_VERSION]),
        "train_version": ("train_version", str),
        "test_version": ("test_version", str),
    },
)
_HYPERPARAMS = _Block(
    Hyperparams,
    # every field but the seed, which each run sets from the top-level seed
    {f.name: (f.name, type(f.default)) for f in fields(Hyperparams) if f.name != "seed"},
    noun="hyperparameter",
)
# per-technique overrides of the shared block, each read into a dict
_OVERRIDES = _Block(
    dict, {t: (t, replace(_HYPERPARAMS, cls=dict)) for t in TECHNIQUES}, noun="technique"
)
_SETTINGS = _Block(
    ExperimentConfig,
    {
        "projects": ("projects", [_PROJECT]),
        "hyperparams": ("hyperparams", _HYPERPARAMS),
        "technique_hyperparams": ("technique_hyperparams", _OVERRIDES),
        "repeats": ("repeats", int),
        "seed": ("seed", int),
        "len": ("window", int),
        "metrics": ("metric_set", str),
        "code_metrics": ("code_metrics", [str]),
        "baselines": ("baseline_kinds", [str]),
        "knn_k": ("knn_k", int),
        "sk_pool_runs": ("sk_pool_runs", bool),
        "output": ("output_dir", str),
    },
)
_KIND_NAMES = {
    int: "an integer", float: "a finite number", bool: "true or false", str: "a string",
    Path: "a path",
}


class _ManifestLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that refuses a key written twice in one mapping,
    where ``safe_load`` keeps the last value.  A key that a ``<<`` merge
    brings in may still be overridden."""

    def construct_mapping(self, node, deep=False):
        if isinstance(node, yaml.MappingNode):
            written = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
            self.flatten_mapping(node)
            seen = set()
            for key_node in written:
                key = self.construct_object(key_node, deep=deep)
                try:
                    if key in seen:
                        raise yaml.constructor.ConstructorError(
                            None, None, f"duplicate key {key!r}", key_node.start_mark
                        )
                    seen.add(key)
                except TypeError:
                    pass  # unhashable: the base class raises its own error
        return super().construct_mapping(node, deep=deep)


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a YAML (or JSON) experiment description through ``_SETTINGS``."""
    try:
        raw = yaml.load(Path(path).read_text(encoding="utf-8"), Loader=_ManifestLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        at = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ConfigError(f"invalid YAML{at}: {problem}") from None
    return _read(_SETTINGS, raw, "", Path(path).parent)


def _read(kind, value, where: str, base: Path):
    """``value``, at key path ``where``, read as ``kind``, or a one-line
    ``ConfigError`` that starts with ``where``.  Only a bool reads as bool,
    an int refuses a fractional value, a float nan and inf, a str or Path
    any non-string.  A block refuses a key it does not know and requires a
    field without a default; null reads as an empty block, and leaves a
    field whose default is None at None."""
    if isinstance(kind, _Block):
        raw = {} if value is None else value
        prefix = f"{where}: " if where else ""
        if not isinstance(raw, dict):
            raise ConfigError(f"{where or 'config'} must be a mapping")
        for key in raw:
            if key not in kind.keys:
                raise ConfigError(f"{prefix}unknown {kind.noun} {key!r}")
        fields_ = {} if kind.cls is dict else {f.name: f for f in fields(kind.cls)}
        values = {}
        for key, (name, sub) in kind.keys.items():
            f = fields_.get(name)
            if key not in raw:
                if f and f.default is MISSING and f.default_factory is MISSING:
                    raise ConfigError(f"{prefix}missing key {key!r}")
            elif raw[key] is not None or f is None or f.default is not None:
                values[name] = _read(sub, raw[key], f"{where}.{key}" if where else key, base)
        try:
            return kind.cls(**values)
        except ValueError as exc:  # a range or consistency check of the block
            raise ConfigError(f"{prefix}{exc}") from None
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return tuple(_read(kind[0], item, f"{where}[{i}]", base) for i, item in enumerate(value))
    try:
        if isinstance(value, bool) != (kind is bool):
            raise TypeError
        if kind is str or kind is Path:
            if not isinstance(value, str):
                raise TypeError
            return value if kind is str else os.fspath(base / value)
        out = kind(value)
        if kind is int and isinstance(value, float) and out != value:
            raise ValueError
        if kind is float and not math.isfinite(out):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where} must be {_KIND_NAMES[kind]}, got {value!r}") from None
    return out


def _echo(kind, value):
    """``value``, read as ``kind``, in the report's JSON form: a block as
    the mapping of its keys (or as its ``echo`` field), a tuple as a list."""
    if isinstance(kind, list):
        return [_echo(kind[0], item) for item in value]
    if not isinstance(kind, _Block):
        return value
    if kind.echo:
        return getattr(value, kind.echo)
    held = value if kind.cls is dict else vars(value)  # a dict holds only the keys given
    return {key: _echo(sub, held[name]) for key, (name, sub) in kind.keys.items() if name in held}


@contextmanager
def _naming_table(version_id: str, kind: str):
    """Prefix a ParseError raised in the block with the table it is about."""
    try:
        yield
    except ParseError as exc:
        raise ParseError(f"version {version_id!r} {kind}: {exc}") from None


def load_project_history(spec: ProjectSpec, cfg: ExperimentConfig) -> ProjectHistory:
    """Parse every version table, and under ``code+process`` each version's
    change table against that version's files.  A malformed table is named
    by version and kind: ``version '2.0' metrics: row 5, ...`` or ``version
    '2.0' changes: row 3, ...``."""
    snapshots = []
    for entry in spec.versions:
        data = Path(entry.metrics_path).read_bytes()
        with _naming_table(entry.version_id, "metrics"):
            snapshots.append(parse_metrics_csv(data, cfg.code_metrics, entry.version_id))
    history = ProjectHistory(name=spec.name, versions=tuple(snapshots))
    if cfg.metric_set == "code+process":
        changes = {}
        for entry, snap in zip(spec.versions, history.versions):
            if entry.process_path is not None:
                data = Path(entry.process_path).read_bytes()
                with _naming_table(entry.version_id, "changes"):
                    changes[entry.version_id] = parse_process_csv(data, snap)
        history = attach_process_metrics(history, changes)
    return history


def evaluate_scores(files: ScoredColumns, scores: Sequence[float], labels: Sequence[int]) -> dict:
    """CE at every cutoff, ACC and AUC of ``scores``, one per test file of
    ``files``, whose 0/1 defect labels are ``labels``: a run's metrics, or
    ``eval``'s.  The scores are ranked once, for CE and ACC alike."""
    order = rank_by_density(files, scores)
    run = {f"ce_{k}": float(v) for k, v in ce_report_values(files, order).items()}
    run["acc"] = float(acc_at_effort(files, order))
    run["auc"] = float(auc(scores, labels))
    return run


def _technique_entry(
    probs_by_run: Iterable[np.ndarray], frame: ScoredColumns, labels: Sequence[int], repeats: int
) -> dict:
    """A technique's report entry from each run's test-file probabilities,
    scoring ``frame``: its runs' metrics, their means and the mean score per
    file.  A single run is a deterministic technique's, and stands for all
    ``repeats``.  A run with a non-finite score is rejected."""
    runs = []
    score_sum = np.zeros(len(frame))
    for probs in probs_by_run:
        bad = len(probs) - np.count_nonzero(np.isfinite(probs))
        if bad:
            raise ValueError(f"{bad} of {len(probs)} test files got a non-finite score")
        runs.append(evaluate_scores(frame, probs, labels))
        score_sum += probs
    mean_scores = score_sum / len(runs)
    if len(runs) == 1:
        runs = runs * repeats
    return {
        "runs": runs,
        "mean": {key: float(np.mean([run[key] for run in runs])) for key in METRIC_KEYS},
        "scores_mean": dict(zip(frame.keys, mean_scores.tolist())),
    }


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute the configured comparison; per-project failures are recorded
    under ``errors`` and do not abort the remaining projects.

    Projects run in parallel in forked worker processes (see
    ``_map_projects``); their outcomes are merged in config order, so the
    report does not depend on the worker count."""
    config = _echo(_SETTINGS, cfg)
    del config["output"]  # where the files go is not part of the run
    report: dict = {
        "config": config,
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
    except (ValueError, OSError) as exc:
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

    With two or more workers the jobs go to forked worker processes, each
    connected to this process by its own pipe: a worker is sent the index
    of a job (the jobs reach it through the fork), runs it, and sends back
    its outcome, and is then sent the next index, or None to stop.  The
    outcomes are received here, on the caller's thread.  An exception that
    ``_project_outcome`` lets through is re-raised here, and a worker that
    dies without a result ends the map in a ``WorkerDied`` that names its
    project.  Every worker has exited and been reaped before this returns
    or raises; if the caller dies, each worker exits once its current job
    is done.  With one project, one usable CPU, or no ``fork``, the jobs
    run in this process.
    """
    # fork, not spawn: a spawned worker would start a fresh interpreter and
    # import the package (about 0.35 s on a 2-core VM, most of it numpy)
    # before its first project, and would not see the functions a caller
    # has swapped into this module
    workers = _worker_count(len(jobs))
    if workers < 2 or "fork" not in mp.get_all_start_methods():
        return list(map(_project_outcome, jobs))
    from multiprocessing.connection import wait  # only a pooled run needs it

    ctx = mp.get_context("fork")
    outcomes = [None] * len(jobs)
    pending = iter(range(len(jobs)))
    procs = {}  # this process's end of each worker's pipe -> the worker
    running = {}  # pipe end -> index of the job its worker runs

    def hand_out(conn):
        index = next(pending, None)
        if index is not None:
            running[conn] = index
        try:
            conn.send(index)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the worker is gone; its pipe reads as EOF below

    try:
        for _ in range(workers):
            conn, worker_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_serve_jobs, args=(jobs, worker_conn, [conn, *procs]), daemon=True
            )
            proc.start()
            # closed before the next fork, so that no other worker holds
            # this worker's end and its death reads as EOF on ``conn``
            worker_conn.close()
            procs[conn] = proc
            hand_out(conn)
        while running:
            for conn in wait(list(running)):
                index = running.pop(conn)
                try:
                    outcome = conn.recv()
                except (EOFError, OSError):  # OSError: it died mid-message
                    procs[conn].join()
                    raise WorkerDied(
                        f"project {jobs[index][0].name!r}: its worker process ended without"
                        f" a result (exit code {procs[conn].exitcode})"
                    ) from None
                if isinstance(outcome, BaseException):
                    raise outcome
                outcomes[index] = outcome
                hand_out(conn)
    except BaseException:
        for proc in procs.values():
            proc.terminate()
        raise
    finally:
        for conn, proc in procs.items():
            proc.join()
            conn.close()
    return outcomes


def _serve_jobs(jobs: list, conn, callers_ends: list) -> None:
    """A worker of ``_map_projects``: run the job at each index received on
    ``conn`` until None, and send back its outcome, or the exception that
    ``_project_outcome`` let through, which unpickles with this worker's
    traceback as its cause, as a ``multiprocessing.Pool`` would send it.

    A worker ignores SIGINT: a Ctrl-C reaches the whole process group, and
    the caller alone acts on it, by terminating every worker.

    ``callers_ends`` are the caller's ends of this worker's pipe and of the
    pipes of the workers forked before it, inherited through the fork.  They
    are closed first, so that if the caller dies the pipe breaks and this
    worker exits once its current job is done."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in callers_ends:
        end.close()
    try:
        for index in iter(conn.recv, None):
            try:
                outcome = _project_outcome(jobs[index])
            except Exception as exc:
                from multiprocessing.pool import ExceptionWithTraceback

                outcome = ExceptionWithTraceback(exc, exc.__traceback__)
            conn.send(outcome)
    except (EOFError, BrokenPipeError, ConnectionResetError):
        pass  # the caller is gone


def _run_project(spec: ProjectSpec, cfg: ExperimentConfig) -> dict:
    history = load_project_history(spec, cfg)
    train_set = extract_hvsm_set(history, spec.train_version, cfg.window)
    test_set = extract_hvsm_set(history, spec.test_version, cfg.window)
    if not train_set.m:
        raise ValueError("empty training set")
    if not test_set.m:
        raise ValueError("empty test set")

    test_snapshot = history.snapshot(spec.test_version)
    keys, labels = test_set.keys, test_set.labels  # the labels score every run's AUC
    file_rows = [test_snapshot.files[key] for key in keys]
    locs = test_snapshot.loc[file_rows].tolist()
    bug_counts = test_snapshot.bugs[file_rows].tolist()
    n_defective = int(labels.sum())
    if n_defective == 0:
        raise ValueError("all-clean test set: CE undefined")
    if n_defective == test_set.m:
        raise ValueError("all-defective test set: AUC undefined")

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

    # the test files' columns, built once and scored by every run
    frame, project["zero_loc_files_adjusted"] = scored_files(keys, locs, bug_counts)

    # every technique is a (fit, predict) pair, fit returning the model of
    # each run's hyperparameters.  The rnn reads each sample's sequence and a
    # baseline its anchor step; each set is z-scored once, by a fit on its
    # training side, for every kind and run.  The rnn trains every run
    # before any predicts, and its z-scored test set and the anchor steps
    # are built on first use, so none of them is held while the rnn trains,
    # when a worker's memory peaks.
    normalizer = fit_normalizer(train_set)

    def fit_rnn(runs):
        train_seqs = apply_normalizer(normalizer, train_set)
        return [train(train_seqs, h).params for h in runs]

    @cache
    def test_seqs():
        return apply_normalizer(normalizer, test_set)

    @cache
    def anchor_rows():
        """The training and test anchor steps, z-scored by a fit on the first."""
        train_anchor = anchor_step(train_set)
        z = fit_normalizer(train_anchor)
        return apply_normalizer(z, train_anchor), apply_normalizer(z, anchor_step(test_set))

    pairs = {RNN_TECHNIQUE: (fit_rnn, lambda params: predict_set(params, test_seqs()))}
    for kind in cfg.baseline_kinds:
        pairs[kind] = (
            lambda runs, kind=kind: [
                bl.train_baseline(kind, anchor_rows()[0], h, k=cfg.knn_k) for h in runs
            ],
            lambda model: bl.predict_baseline_many(model, anchor_rows()[1]),
        )
    for technique, (fit, predict) in pairs.items():
        # a technique with randomness runs once per repeat, any other once
        seeds = range(cfg.repeats) if technique in (RNN_TECHNIQUE, bl.FEEDFORWARD_NN) else (0,)
        h = cfg.hyperparams_for(technique)
        try:
            models = fit([replace(h, seed=cfg.seed + r) for r in seeds])
            entry = _technique_entry(map(predict, models), frame, labels, cfg.repeats)
        except (ValueError, TrainingError) as exc:
            entry = {"error": str(exc)}
        project["techniques"][technique] = entry
    return project


def compare_techniques(
    values: Mapping[str, Mapping[str, Sequence[float]]],
    projects: Sequence[str],
    reference: str | None = None,
    pool_runs: bool = False,
) -> tuple[dict[str, float], dict[str, float], SkGrouping, dict[str, dict]]:
    """One metric's comparison of techniques, from each one's values by
    project: the mean of its project means, its average rank over projects
    (rank 1 is the highest mean), the Scott-Knott grouping of the project
    means (of every value, with ``pool_runs``), and ``reference``'s
    Win/Tie/Loss counts and outcome per project against each other one."""
    means = {}
    for technique, by_project in values.items():
        missing = [p for p in projects if p not in by_project]
        if missing:
            raise ValueError(f"{technique!r} lacks values for {missing}")
        means[technique] = [float(np.mean(by_project[p])) for p in projects]
    rank_sums = sum(rankdata(-column) for column in np.array(list(means.values())).T)
    grouping = scott_knott(
        {t: [v for p in projects for v in by[p]] for t, by in values.items()} if pool_runs else means
    )
    wtl = {}
    for technique in [t for t in values if reference not in (None, t)]:
        entry = wtl[technique] = {"win": 0, "tie": 0, "loss": 0, "per_project": {}}
        for p in projects:
            try:
                outcome = win_tie_loss(values[reference][p], values[technique][p]).value
            except ValueError as exc:
                raise ValueError(f"project {p!r}, {reference!r} vs {technique!r}: {exc}") from None
            entry["per_project"][p] = outcome
            entry[outcome] += 1
    mean = {t: float(np.mean(m)) for t, m in means.items()}
    rank = {t: float(r) / len(projects) for t, r in zip(means, rank_sums)}
    return mean, rank, grouping, wtl


def _aggregate(report: dict, cfg: ExperimentConfig) -> None:
    ok_projects = sorted(report["projects"])
    techniques = [RNN_TECHNIQUE, *cfg.baseline_kinds]
    usable = [
        t
        for t in techniques
        if all("runs" in report["projects"][p]["techniques"].get(t, {}) for p in ok_projects)
    ]
    aggregates: dict = {"projects_evaluated": ok_projects, "techniques": usable}
    report["aggregates"] = aggregates
    if not ok_projects or not usable:
        return
    # the rnn against each baseline; none without a usable rnn
    reference = RNN_TECHNIQUE if usable[0] == RNN_TECHNIQUE else None
    tables = ("mean_by_technique", "average_rank", "scott_knott", "win_tie_loss")
    aggregates.update({name: {} for name in tables})
    for metric in METRIC_KEYS:
        values = {
            t: {p: [run[metric] for run in report["projects"][p]["techniques"][t]["runs"]]
                for p in ok_projects}
            for t in usable
        }
        mean, rank, grouping, wtl = compare_techniques(
            values, ok_projects, reference, cfg.sk_pool_runs
        )
        aggregates["mean_by_technique"][metric] = mean
        aggregates["average_rank"][metric] = rank
        aggregates["scott_knott"][metric] = [list(names) for names in grouping.ranks]
        for t, entry in wtl.items():
            aggregates["win_tie_loss"].setdefault(t, {})[metric] = entry


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

# rows of a table formatted by one C-encoder call (see _write_json)
_TABLE_BATCH = 256


def _holds_container(values) -> bool:
    return any(issubclass(t, (dict, list, tuple)) for t in set(map(type, values)))


def _table_keys(children: list) -> list[str] | None:
    """The sorted keys of ``children`` if they are a table: two or more
    non-empty, str-keyed dicts of scalars sharing one key set; else None."""
    first = children[0]
    if len(children) < 2 or not isinstance(first, dict) or not first:
        return None
    keys = first.keys()
    if not all(isinstance(k, str) for k in keys):
        return None
    if any(not isinstance(child, dict) or child.keys() != keys for child in children):
        return None
    if _holds_container(chain.from_iterable(map(dict.values, children))):
        return None
    return sorted(keys)


def _write_json(fh, obj) -> None:
    """Write ``json.dumps(obj, sort_keys=True, indent=2)`` to ``fh``, the
    same bytes, chunk by chunk.

    With an indent, ``json.dumps`` runs the pure-Python encoder and holds
    the whole document.  Here the nesting is walked in Python, and each
    container whose values are all scalars goes to the C encoder in one
    call, its item separator carrying the newline and indent of its depth.
    Keys of a dict that holds a container must be str.

    A table (see ``_table_keys``: a project's ``test_files``, a technique's
    ``runs``) is written ``_TABLE_BATCH`` rows at a time.  The values of a
    batch go to the C encoder in one call, as one list whose item
    separator is a NUL.  JSON escapes a NUL inside any string, so that
    text splits exactly into one token per value, and each row is laid out
    from its tokens.
    """
    encoders = {}
    encode_flat = json.JSONEncoder(separators=("\x00", ": ")).encode

    def encode(o, depth):
        if depth not in encoders:
            encoders[depth] = json.JSONEncoder(
                sort_keys=True, separators=(",\n" + "  " * depth, ": ")
            ).encode
        return encoders[depth](o)

    def table_text(rows, leads, keys, depth):
        # ``rows`` at ``depth``, each after its lead
        inner, close = "\n" + "  " * (depth + 1), "\n" + "  " * depth + "}"
        first, *rest = [f"{inner}{encode_basestring_ascii(key)}: " for key in keys]
        width = 2 * len(keys)
        parts = [None] * (width * len(rows))
        parts[0::width] = [f"{close}{lead}{{{first}" for lead in leads]
        parts[0] = f"{leads[0]}{{{first}"
        for j, label in enumerate(rest, start=1):
            parts[2 * j :: width] = [f",{label}"] * len(rows)
        parts[1::2] = encode_flat([row[key] for row in rows for key in keys])[1:-1].split("\x00")
        return "".join(parts) + close

    def write(o, depth):
        if isinstance(o, dict):
            values = o.values()
        elif isinstance(o, (list, tuple)):
            values = o
        else:
            fh.write(encode(o, depth))
            return
        inner, close = "\n" + "  " * (depth + 1), "\n" + "  " * depth
        if not _holds_container(values):
            text = encode(o, depth + 1)
            if o:  # the C encoder puts no newline inside the brackets
                text = f"{text[0]}{inner}{text[1:-1]}{close}{text[-1]}"
            fh.write(text)
            return
        if isinstance(o, dict):
            brackets, names = "{}", sorted(o)
            children = [o[k] for k in names]
        else:
            brackets, names, children = "[]", None, list(o)
        keys = _table_keys(children)
        step = _TABLE_BATCH if keys else len(children)
        fh.write(brackets[0])
        for start in range(0, len(children), step):
            batch = children[start : start + step]
            if names is None:
                leads = [f",{inner}"] * len(batch)
            else:
                labels = names[start : start + step]
                leads = [f",{inner}{encode_basestring_ascii(k)}: " for k in labels]
            if not start:
                leads[0] = leads[0][1:]
            if keys:
                fh.write(table_text(batch, leads, keys, depth + 1))
                continue
            for lead, child in zip(leads, batch):
                fh.write(lead)
                write(child, depth + 1)
        fh.write(close + brackets[1])

    write(obj, 0)


def emit_report(report: dict, out_dir: str | Path) -> list[Path]:
    """Write report.json, summary.csv, per-technique CE curves, Scott-Knott
    groups and the Win/Tie/Loss table.  Returns the written paths.

    report.json is ``json.dumps(report, sort_keys=True, indent=2)`` plus a
    newline, streamed into a file beside it that replaces it only once
    complete, so a failed encode leaves no partial report.json.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    report_path = out / "report.json"
    partial = out / "report.json.partial"
    try:
        with partial.open("w", encoding="utf-8") as fh:
            _write_json(fh, report)
            fh.write("\n")
        os.replace(partial, report_path)
    finally:
        partial.unlink(missing_ok=True)
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
        test_files = payload["test_files"]
        files, _ = scored_files(
            keys=list(test_files),
            locs=[f["loc"] for f in test_files.values()],
            bugs=[f["bugs"] for f in test_files.values()],
        )
        for technique in sorted(techniques):
            scores = techniques[technique].get("scores_mean")
            if scores is None:
                continue
            if scores.keys() != test_files.keys():
                raise ValueError(
                    f"project {project!r}, technique {technique!r}:"
                    " scores_mean does not score exactly the test files"
                )
            order = rank_by_density(files, [scores[k] for k in files.keys])
            path = curves_dir / f"{project}_{technique}.csv"
            path.write_text(curve_to_csv(ce_curve(files, order)), encoding="utf-8")
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
