"""Command-line entry points.

Verbs:
  run <config>       full experiment from a YAML manifest
  gradcheck          finite-difference check of the sequence model gradients
  eval <scores.csv>  CE/ACC/AUC for externally produced scores
                     (columns: name,score,loc,bugs,label)
  stats <values.csv> Scott-Knott groups and Win/Tie/Loss from raw values
                     (columns: technique,project,value)

``eval`` and ``stats`` declare their columns and read them through
``dataset.read_rows``, as the metrics and change tables are read; each
verb adds only its own row checks.  Any refusal is one ``error:`` line and
exit status 1; a Ctrl-C is ``error: interrupted`` and exit status 130.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import experiment
from .dataset import ParseError, parse_count, parse_name, parse_number, read_rows
from .effort import scored_files
from .experiment import emit_report, load_config, run_experiment
from .rnn import Hyperparams, gradient_check


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out_dir = args.output or cfg.output_dir
    report = run_experiment(cfg)
    written = emit_report(report, out_dir)
    for path in written:
        print(path)
    for project, message in sorted(report["errors"].items()):
        print(f"warning: {project}: {message}", file=sys.stderr)
    for project, payload in sorted(report["projects"].items()):
        for technique, entry in payload["techniques"].items():
            if "error" in entry:
                print(f"warning: {project}/{technique}: {entry['error']}", file=sys.stderr)
    if not report["projects"]:
        print("error: no project completed", file=sys.stderr)
        return 1
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    if not 0 < args.tolerance < np.inf:
        raise ValueError(f"--tolerance must be a positive finite number, got {args.tolerance:g}")
    worst = np.max([  # a NaN error propagates, and fails
        gradient_check(Hyperparams(hidden_size=hidden, seed=args.seed), input_dim, T, y)
        for hidden in (1, 3, 8) for input_dim in (1, 4, 24) for T in (1, 2, 5) for y in (0, 1)
    ])
    print(f"max relative error: {worst:.3e}")
    if not worst < args.tolerance:
        print(f"error: exceeds tolerance {args.tolerance:g}", file=sys.stderr)
        return 1
    return 0


_SCORES_COLUMNS = (
    ("name", parse_name), ("score", parse_number), ("loc", parse_count), ("bugs", parse_count),
    ("label", parse_count),
)
_VALUES_COLUMNS = (("technique", parse_name), ("project", parse_name), ("value", parse_number))


def _cmd_eval(args: argparse.Namespace) -> int:
    table: dict[str, tuple] = {}
    for i, (name, score, loc, bugs, label) in read_rows(args.scores.read_bytes(), _SCORES_COLUMNS):
        if name in table:
            raise ParseError(f"row {i}, column 'name': duplicate name {name!r}")
        if label > 1:
            raise ParseError(f"row {i}, column 'label': expected 0 or 1, got {label}")
        table[name] = (score, loc, bugs, label)
    if not table:
        raise ValueError("empty scores file")
    scores, locs, bugs, labels = zip(*table.values())
    files, n_adjusted = scored_files(list(table), locs, bugs)
    result = experiment.evaluate_scores(files, scores, labels)
    result["zero_loc_files_adjusted"] = n_adjusted
    print(json.dumps(result, sort_keys=True, indent=2))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    by_tech: dict[str, dict[str, list[float]]] = {}
    projects: list[str] = []
    for _, (tech, project, value) in read_rows(args.values.read_bytes(), _VALUES_COLUMNS):
        if project not in projects:
            projects.append(project)
        by_tech.setdefault(tech, {}).setdefault(project, []).append(value)
    if not by_tech:
        raise ValueError("empty values file")

    reference = args.reference or next(iter(by_tech))
    if reference not in by_tech:
        raise ValueError(f"unknown reference technique {reference!r}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            _, _, grouping, wtl = experiment.compare_techniques(by_tech, projects, reference)
    except FloatingPointError as exc:
        raise ValueError(f"values too large to compare: {exc}") from None
    print("scott-knott ranks:")
    for rank, names in enumerate(grouping.ranks, start=1):
        labels = ", ".join(f"{n} (mean {grouping.means[n]:.3f})" for n in names)
        print(f"  rank {rank}: {labels}")
    print(f"win/tie/loss for {reference}:")
    for tech, counts in wtl.items():
        print(f"  vs {tech}: {counts['win']}/{counts['tie']}/{counts['loss']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defectseq",
        description="Defect prediction from metric sequences across versions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--output", help="override the config's output directory")
    p_run.set_defaults(func=_cmd_run)

    p_grad = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--tolerance", type=float, default=1e-5)
    p_grad.set_defaults(func=_cmd_gradcheck)

    p_eval = sub.add_parser("eval", help="score an external ranking")
    p_eval.add_argument("scores", type=Path)
    p_eval.set_defaults(func=_cmd_eval)

    p_stats = sub.add_parser("stats", help="rank techniques from raw values")
    p_stats.add_argument("values", type=Path)
    p_stats.add_argument("--reference", help="technique for win/tie/loss (default: first listed)")
    p_stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, experiment.WorkerDied) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
