"""Command-line entry points.

Verbs:
  run <config>       full experiment from a YAML manifest
  gradcheck          finite-difference check of the sequence model gradients
  eval <scores.csv>  CE/ACC/AUC for externally produced scores
                     (columns: name,score,loc,bugs,label)
  stats <values.csv> Scott-Knott groups and Win/Tie/Loss from raw values
                     (columns: technique,project,value)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import experiment
from .dataset import ParseError, _parse_count, _parse_number, _read_table
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
    worst = 0.0
    for hidden in (1, 3, 8):
        for input_dim in (1, 4, 24):
            for T in (1, 2, 5):
                for y in (0, 1):
                    h = Hyperparams(hidden_size=hidden, seed=args.seed)
                    err = gradient_check(h, input_dim=input_dim, T=T, y=y)
                    worst = max(worst, err)
    print(f"max relative error: {worst:.3e}")
    if worst >= args.tolerance:
        print(f"error: exceeds tolerance {args.tolerance:g}", file=sys.stderr)
        return 1
    return 0


def _read_rows(path: Path, columns: tuple[str, ...], what: str) -> list[tuple[int, dict[str, str]]]:
    """The non-blank rows of a CSV file that has ``columns``, as (row
    number, {column: cell}), read as the metrics tables are: a missing
    column, or a row with fewer or more cells than the header (row 1), is
    rejected by name or row number."""
    positions, rows = _read_table(path.read_bytes(), columns)
    table = [(i, {column: row[at] for column, at in positions.items()}) for i, row in rows]
    if not table:
        raise ValueError(f"empty {what} file")
    return table


def _key_cell(row: dict[str, str], i: int, column: str) -> str:
    """A key cell as written; a blank one is rejected by row and column."""
    cell = row[column]
    if not cell.strip():
        raise ParseError(f"row {i}, column {column!r}: blank cell {cell!r}")
    return cell


def _cmd_eval(args: argparse.Namespace) -> int:
    rows = _read_rows(args.scores, ("name", "score", "loc", "bugs", "label"), "scores")
    names: set[str] = set()
    for i, r in rows:
        name = _key_cell(r, i, "name")
        if name in names:
            raise ParseError(f"row {i}, column 'name': duplicate name {name!r}")
        names.add(name)
    scores = [_parse_number(r["score"], i, "score") for i, r in rows]
    locs, bugs, labels = (
        [_parse_count(r[column], i, column) for i, r in rows] for column in ("loc", "bugs", "label")
    )
    for (i, _), label in zip(rows, labels):
        if label > 1:
            raise ParseError(f"row {i}, column 'label': expected 0 or 1, got {label}")
    files, n_adjusted = scored_files([r["name"] for _, r in rows], scores, locs, bugs)
    result = experiment.evaluate_scores(files, labels)
    result["zero_loc_files_adjusted"] = n_adjusted
    print(json.dumps(result, sort_keys=True, indent=2))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    rows = _read_rows(args.values, ("technique", "project", "value"), "values")
    by_tech: dict[str, dict[str, list[float]]] = {}
    projects: list[str] = []
    for i, r in rows:
        tech, project = _key_cell(r, i, "technique"), _key_cell(r, i, "project")
        if project not in projects:
            projects.append(project)
        by_tech.setdefault(tech, {}).setdefault(project, []).append(
            _parse_number(r["value"], i, "value")
        )

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


if __name__ == "__main__":
    sys.exit(main())
