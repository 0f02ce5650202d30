"""Effort-aware and threshold-independent evaluation.

Files are ranked by predicted-defect density (score per line of code); the
cumulative (LOC fraction, bug fraction) curve of that ranking is compared
against the random diagonal and the best achievable ordering, restricted to
the first pi fraction of total LOC.  ACC is the defective-file recall at a
20% inspection budget and AUC the usual rank-sum ROC area with ties
counting one half.

A test set is one column set (:class:`ScoredColumns`: key, LOC and bug
arrays, built by :func:`scored_files`), shared by every scoring of it.
Its files are laid out once in tie order (the smaller file first, then the
key).  :func:`rank_by_density` turns one scoring into an inspection order,
an index array: one stable sort of the densities in that layout.  Each
ordering becomes one cumulative-sum curve (:func:`ce_curve`); every CE
cutoff is then read from the running sum of that curve's trapezoids with
``np.searchsorted``, and ACC from the cumulative LOC of the same order.
The optimal ordering and its CE areas depend only on the columns, so many
scorings of one test set build them once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .stats import rankdata

CE_CUTOFFS = (0.1, 0.2, 0.5, 1.0)
_INT64_MAX = 2**63 - 1


class UndefinedCeError(ValueError):
    """CE is undefined: no bugs, or the optimal curve equals the diagonal."""


@dataclass(frozen=True, eq=False)
class ScoredColumns:
    """Parallel per-file columns of one test set: keys, LOC (>= 1) and bug
    counts.  Every scoring of the set reads them, and what does not depend
    on a scoring (tie order, optimal ordering and its CE areas) is built at
    most once per column set."""

    keys: tuple[str, ...]
    loc: np.ndarray
    bugs: np.ndarray

    def __post_init__(self):
        if not len(self.keys) == len(self.loc) == len(self.bugs):
            raise ValueError("columns differ in length")
        checks = (("loc must be >= 1", self.loc < 1), ("negative bug count", self.bugs < 0))
        for message, bad in checks:
            if bad.any():
                raise ValueError(f"{message} for {self.keys[np.argmax(bad)]!r}")
        # the curves' running sums are int64: a total beyond it would wrap
        for name, counts in (("LOC", self.loc), ("bug count", self.bugs)):
            if len(self) and int(counts.max()) * len(self) > _INT64_MAX:
                total = sum(counts.tolist())
                if total > _INT64_MAX:
                    raise ValueError(f"total {name} {total} exceeds the int64 range")

    def __len__(self) -> int:
        return len(self.keys)

    @cached_property
    def _tie_order(self) -> np.ndarray:
        # how every ordering breaks density ties: the smaller file first,
        # then the key; equal keys keep their input order
        by_key = np.array(sorted(range(len(self)), key=self.keys.__getitem__), dtype=np.intp)
        return by_key[np.argsort(self.loc[by_key], kind="stable")]

    @cached_property
    def optimal(self) -> np.ndarray:
        """Best achievable inspection order: actual bug density descending."""
        return rank_by_density(self, self.bugs)

    @cached_property
    def _optimal_areas(self) -> dict[tuple[float, ...], list[float]]:
        # CE areas of the optimal curve by cutoffs, filled in by ce_report_values
        return {}


def scored_files(
    keys: Sequence[str], locs: Sequence[int], bugs: Sequence[int]
) -> tuple[ScoredColumns, int]:
    """Bundle parallel columns; zero-LOC files are counted as one line.

    Returns the columns and how many files needed the zero-LOC adjustment
    (callers surface that count in their reports).
    """
    loc = np.asarray(locs)
    columns = ScoredColumns(
        keys=tuple(keys),
        loc=np.maximum(loc, 1).astype(np.int64),
        bugs=np.asarray(bugs).astype(np.int64),
    )
    return columns, int(np.count_nonzero(loc < 1))


def rank_by_density(files: ScoredColumns, score: Sequence[float]) -> np.ndarray:
    """Inspection order of one score per file, as indices into ``files``:
    score per line descending; ties go to the smaller file, then the key.
    It is one stable sort of the densities laid out in tie order."""
    score = np.asarray(score, dtype=float)
    if score.shape != (len(files),):
        raise ValueError("scores and files differ in length")
    tie = files._tie_order
    return tie[np.lexsort((-(score[tie] / files.loc[tie]),))]


def _points(loc: np.ndarray, bugs: np.ndarray) -> np.ndarray:
    """Curve vertices after each file of an ordering, from (0, 0)."""
    cum_loc = np.cumsum(loc)
    cum_bugs = np.cumsum(bugs)
    points = np.zeros((len(loc) + 1, 2))
    points[1:, 0] = cum_loc / cum_loc[-1]
    if cum_bugs[-1]:
        points[1:, 1] = cum_bugs / cum_bugs[-1]
    return points


def ce_curve(files: ScoredColumns, order: np.ndarray) -> np.ndarray:
    """Vertices of the piecewise-linear curve through the cumulative totals
    after each file of ``order``: a (k+1, 2) array from (0, 0)."""
    if not len(order):
        raise ValueError("empty ordering")
    return _points(files.loc[order], files.bugs[order])


def _areas(points: np.ndarray, cutoffs: Sequence[float]) -> list[float]:
    """Trapezoidal area of the curve over LOC fraction [0, pi], per cutoff.

    Whole segments come from one running sum; the segment that straddles
    the cutoff adds its part up to the linearly interpolated vertex.
    """
    x, y = points[:, 0], points[:, 1]
    running = np.cumsum((x[1:] - x[:-1]) * (y[:-1] + y[1:]) / 2.0)
    areas = []
    for pi, whole in zip(cutoffs, np.searchsorted(x[1:], cutoffs, side="right")):
        area = running[whole - 1] if whole else 0.0
        if whole < len(running) and x[whole] < pi:
            x0, y0, x1, y1 = x[whole], y[whole], x[whole + 1], y[whole + 1]
            y_pi = y0 + (y1 - y0) * (pi - x0) / (x1 - x0)
            area = area + (pi - x0) * (y0 + y_pi) / 2.0
        areas.append(area)
    return areas


def ce_report_values(
    files: ScoredColumns, order: np.ndarray, cutoffs: Sequence[float] = CE_CUTOFFS
) -> dict[str, float]:
    """CE of the inspection order ``order`` at every cutoff, keyed by the
    cutoff's string form.

    CE at pi is the normalized area gain over random inspection within the
    first pi of total LOC: 1 means the ranking matches the best achievable
    ordering; negative values mean it is worse than random.
    """
    if not len(files):
        raise ValueError("no files")
    for pi in cutoffs:
        if not 0.0 < pi <= 1.0:
            raise ValueError(f"pi must be in (0, 1], got {pi}")
    if not files.bugs.any():
        raise UndefinedCeError("no defective files: CE is undefined")

    model = _areas(ce_curve(files, order), cutoffs)
    optimal = files._optimal_areas.get(tuple(cutoffs))
    if optimal is None:
        optimal = _areas(ce_curve(files, files.optimal), cutoffs)
        files._optimal_areas[tuple(cutoffs)] = optimal
    values = {}
    for pi, area_model, area_optimal in zip(cutoffs, model, optimal):
        area_random = pi * pi / 2.0
        denom = area_optimal - area_random
        if abs(denom) < 1e-12:
            raise UndefinedCeError("optimal ordering equals random: CE is undefined")
        values[format(pi, "g")] = float((area_model - area_random) / denom)
    return values


def acc_at_effort(files: ScoredColumns, order: np.ndarray, effort: float = 0.2) -> float:
    """Recall of defective files once the top of the inspection order uses
    ``effort`` of the total LOC; partially inspected files do not count."""
    defective = int(np.count_nonzero(files.bugs))
    if defective == 0:
        raise ValueError("no defective files: recall undefined")
    cum_loc = np.cumsum(files.loc[order])
    budget = effort * int(cum_loc[-1]) * (1 + 1e-12)
    inspected = order[: np.searchsorted(cum_loc, budget, side="right")]
    return int(np.count_nonzero(files.bugs[inspected])) / defective


def auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """ROC area of ``scores`` against the 0/1 ``labels`` of the same files,
    via the rank-sum formulation; tied scores count one half."""
    values = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if values.shape != labels.shape:
        raise ValueError("scores and labels differ in length")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    rank_sum_pos = float(np.sum(rankdata(values)[labels == 1]))
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def curve_to_csv(points: np.ndarray) -> str:
    """A curve's (k+1, 2) vertices as CSV for external plotting (a float's
    repr never needs CSV quoting).

    A curve's bug fractions take at most one value more than there are
    defective files, so each distinct one (by its bits) is formatted once."""
    x, y = points[:, 0], points[:, 1]
    bits = y.view(np.int64).tolist()
    y_text = {b: f",{v!r}\n" for b, v in dict(zip(bits, y.tolist())).items()}
    parts = ["loc_fraction,bug_fraction\n"] + [None, None] * len(bits)
    parts[1::2] = map(repr, x.tolist())
    parts[2::2] = map(y_text.__getitem__, bits)
    return "".join(parts)
