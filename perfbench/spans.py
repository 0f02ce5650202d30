"""Span recorder for the traced run, and the per-layer metrics derived from it.

The tracer wraps the package's public functions from outside, at the name
each caller looks up: ``experiment`` imports ``train``, ``predict_set``,
``parse_metrics_csv`` and the rest by name, ``experiment`` reaches the
baselines through the ``bl`` module, and ``baselines`` calls its own
imported ``train`` for the feedforward net.  Each wrapped call records one
span (name, start, end, parent span, run id, counts).  Spans stay in memory
until the benchmark ends.  ``batch_gradient`` is only counted, because it
runs hundreds of times per training call and sits inside ``train``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median
from typing import Callable

BASELINE_KINDS = ("lr", "nb", "knn", "nn")


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    run: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans for the runs made while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []

    def span(self, name: str | Callable, fn: Callable, counts: Callable | None = None) -> Callable:
        """Wrap ``fn`` so each call records a span named ``name`` (or
        ``name(args)``); ``counts(args, result)`` gives the span's counts."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            s = Span(len(spans), label, 0.0, stack[-1] if stack else None, self.run)
            spans.append(s)
            stack.append(s.id)
            s.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                s.end = time.perf_counter()
                stack.pop()
            if counts is not None:
                s.counts.update(counts(args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_grad(self, fn: Callable) -> Callable:
        """Count ``batch_gradient`` calls on the span that made them."""

        def wrapper(*args, **kwargs):
            counts = self.spans[self._stack[-1]].counts
            counts["grad_evals"] = counts.get("grad_evals", 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self, ex, bl, rnn):
        """Wrap the layer boundaries of modules ``experiment``, ``baselines``
        and ``rnn`` for the duration of the block, then restore them."""
        rows = lambda args, snap: {"rows": len(snap.files)}  # noqa: E731
        trained = lambda args, result: {  # noqa: E731
            "accepted": len(result.loss_history) - 1,
            "steps": sum(item.length for item in args[0].items),
        }
        plan = [
            (ex, "parse_metrics_csv", self.span("dataset.parse_metrics", ex.parse_metrics_csv, rows)),
            (ex, "parse_process_csv", self.span(
                "dataset.parse_process", ex.parse_process_csv, lambda a, r: {"rows": len(r)})),
            (ex, "attach_process_metrics", self.span("dataset.attach", ex.attach_process_metrics)),
            (ex, "extract_hvsm_set", self.span(
                "history.extract", ex.extract_hvsm_set,
                lambda a, s: {"samples": s.m, "steps": sum(i.length for i in s.items)})),
            (ex, "fit_normalizer", self.span("history.fit_normalizer", ex.fit_normalizer)),
            (ex, "apply_normalizer", self.span("history.apply_normalizer", ex.apply_normalizer)),
            (ex, "train", self.span("rnn.train.seq", ex.train, trained)),
            (ex, "predict_set", self.span("rnn.predict", ex.predict_set)),
            (bl, "train", self.span("rnn.train.nn", bl.train, trained)),
            (rnn, "batch_gradient", self._count_grad(rnn.batch_gradient)),
            (bl, "train_baseline", self.span(
                lambda args: f"baselines.train.{args[0]}", bl.train_baseline)),
            (bl, "predict_baseline_many", self.span(
                lambda args: f"baselines.predict.{args[0].kind}", bl.predict_baseline_many,
                lambda a, r: {"predictions": len(r)})),
            (ex, "scored_files", self.span("effort.scored_files", ex.scored_files)),
            (ex, "ce_report_values", self.span(
                "effort.ce_report_values", ex.ce_report_values,
                lambda a, r: {"evaluations": 1, "files_ranked": len(a[0])})),
            (ex, "acc_at_effort", self.span("effort.acc_at_effort", ex.acc_at_effort)),
            (ex, "auc", self.span("effort.auc", ex.auc)),
            (ex, "rank_by_density", self.span(
                "effort.rank_by_density", ex.rank_by_density, lambda a, r: {"files_ranked": len(r)})),
            (ex, "ce_curve", self.span("effort.ce_curve", ex.ce_curve)),
            (ex, "curve_to_csv", self.span("effort.curve_to_csv", ex.curve_to_csv)),
            (ex, "scott_knott", self.span("stats.scott_knott", ex.scott_knott, lambda a, r: {"tests": 1})),
            (ex, "win_tie_loss", self.span("stats.win_tie_loss", ex.win_tie_loss, lambda a, r: {"tests": 1})),
        ]
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in plan]
        try:
            for module, attr, wrapped in plan:
                setattr(module, attr, wrapped)
            yield self
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its child
    spans cover; overlapping children count once, clipped to the parent."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        edge = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
            edge = max(edge, hi)
        out[s.id] = (s.end - s.start) - covered
    return out


def _layer(span: Span, by_id: dict[int, Span]) -> str:
    """Per-layer metric key that a span's self time counts toward."""
    name = span.name
    if name.startswith("effort."):
        node = span
        while node.parent is not None:
            node = by_id[node.parent]
        return "effort.curve_s" if node.name == "experiment.emit" else "effort.evaluate_s"
    if name in ("dataset.parse_metrics", "dataset.parse_process"):
        return "dataset.parse_s"
    if name in ("history.fit_normalizer", "history.apply_normalizer"):
        return "history.normalize_s"
    if name in ("stats.scott_knott", "stats.win_tie_loss"):
        return "stats.s"
    return {
        "dataset.attach": "dataset.attach_s",
        "history.extract": "history.extract_s",
        "rnn.predict": "rnn.predict_s",
        "experiment.run": "experiment.driver_s",
        "experiment.emit": "experiment.emit_s",
    }.get(name, name + "_s")


TIME_METRICS = (
    "dataset.parse_s", "dataset.attach_s", "history.extract_s", "history.normalize_s",
    "rnn.train.seq_s", "rnn.train.nn_s", "rnn.predict_s",
    *(f"baselines.train.{k}_s" for k in BASELINE_KINDS),
    *(f"baselines.predict.{k}_s" for k in BASELINE_KINDS),
    "effort.evaluate_s", "effort.curve_s", "stats.s", "experiment.driver_s", "experiment.emit_s",
)
COUNT_METRICS = {
    "dataset.rows": "rows",
    "history.samples": "samples",
    "baselines.predictions": "predictions",
    "effort.evaluations": "evaluations",
    "effort.files_ranked": "files_ranked",
    "stats.tests": "tests",
    "experiment.bytes_written": "bytes_written",
}


def run_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced run's spans.

    Times are self times summed per layer; ``trace.total_s`` is the sum of
    every span's self time, which equals the time inside the root spans.
    """
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    out = dict.fromkeys(TIME_METRICS, 0.0)
    for s in spans:
        key = _layer(s, by_id)
        if key not in out:
            raise ValueError(f"span {s.name!r} maps to unknown layer metric {key!r}")
        out[key] += selfs[s.id]
    out["trace.total_s"] = sum(selfs.values())
    for metric, count in COUNT_METRICS.items():
        out[metric] = sum(s.counts.get(count, 0) for s in spans)
    # train spans also carry a step count (their training set's), used only
    # for the throughput below
    out["history.steps"] = sum(s.counts["steps"] for s in spans if s.name == "history.extract")
    trains = [s for s in spans if s.name.startswith("rnn.train.")]
    evals = sum(s.counts.get("grad_evals", 0) for s in trains)
    out["rnn.grad_evals"] = evals
    out["rnn.accepted_step_ratio"] = sum(s.counts["accepted"] for s in trains) / evals if evals else 0.0
    train_s = out["rnn.train.seq_s"] + out["rnn.train.nn_s"]
    work = sum(s.counts["steps"] * s.counts.get("grad_evals", 0) for s in trains)
    out["rnn.step_samples_per_s"] = work / train_s if train_s else 0.0
    return out


def layer_metrics(
    spans: list[Span], traced_run_s: dict[int, float], untraced_run_s: dict[int, float]
) -> tuple[dict[str, float], dict[int, float]]:
    """Median over traced runs of each per-run metric, plus the overhead.

    Both maps take run id to that run's outer wall time.  The runs
    alternate, so ``trace_overhead_s`` is the median over traced runs of
    each one's time minus that of the untraced run just before it: the two
    share the machine's CPU-speed phase.  Also returns, per traced run, the
    wall time its spans do not account for: the outer timer minus the sum
    of all self times.
    """
    per_run = {r: run_metrics([s for s in spans if s.run == r]) for r in sorted(traced_run_s)}
    out = {key: median(m[key] for m in per_run.values()) for key in next(iter(per_run.values()))}
    out["trace.run_s"] = median(traced_run_s.values())
    out["trace_overhead_s"] = median(
        t - untraced_run_s[r - 1] for r, t in traced_run_s.items() if r - 1 in untraced_run_s
    )
    gaps = {r: traced_run_s[r] - m["trace.total_s"] for r, m in per_run.items()}
    return out, gaps
