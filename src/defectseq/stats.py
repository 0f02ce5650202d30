"""Nonparametric comparison machinery for technique rankings.

Wilcoxon signed-rank (exact null by sign enumeration up to n=20, kept per
rank pattern for the life of the process, normal approximation with tie
and continuity corrections beyond), Cliff's delta, the Win/Tie/Loss
verdict gated at p < 0.05 and |delta| >= 0.147, and the Scott-Knott
recursive partition of mean-ordered techniques into statistically
distinct ranks.

The three distribution functions these procedures use are plain
numpy/``math`` code, so importing the package loads no scipy:
:func:`rankdata` (average ranks, also used by ``effort.auc`` and
``experiment.compare_techniques``), :func:`norm_sf` (the normal upper
tail of the large-sample Wilcoxon test) and :func:`chi2_sf` (the
chi-square upper tail that decides a Scott-Knott split).  The test suite
checks each against ``scipy.stats``, which serves there as the oracle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

# boundary below which an effect size is negligible (Romano et al. scale)
NEGLIGIBLE_DELTA = 0.147
ALPHA = 0.05  # significance level of every test


def rankdata(values) -> np.ndarray:
    """Average ranks (1-based) of a 1-d sample; ties share the mean of the
    ranks they span, and any nan makes every rank nan.

    Equal to ``scipy.stats.rankdata(values, method="average")`` bit for
    bit: every rank is a half-integer, computed exactly.
    """
    arr = np.ravel(np.asarray(values))
    if np.isnan(arr).any():
        return np.full(arr.size, np.nan)
    _, inverse, counts = np.unique(arr, return_inverse=True, return_counts=True)
    # a run of c ties ending at rank e spans ranks e - c + 1 .. e
    ends = np.cumsum(counts)
    return (ends - 0.5 * (counts - 1))[inverse]


def norm_sf(z: float) -> float:
    """Upper tail 1 - Phi(z) of the standard normal distribution."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def chi2_sf(x: float, nu: float) -> float:
    """Upper tail Q(nu/2, x/2) of the chi-square distribution with ``nu`` > 0
    degrees of freedom.

    Below x/2 = a + 1 (a = nu/2) the power series gives the lower tail P,
    and Q = 1 - P; above it the continued fraction gives Q itself, so a
    small upper tail keeps its relative precision.
    """
    if x <= 0.0:
        return 1.0
    if x == math.inf:  # the prefix below would be exp(inf - inf), nan
        return 0.0
    a, y = 0.5 * nu, 0.5 * x
    prefix = math.exp(a * math.log(y) - y - math.lgamma(a))
    if y < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > total * 1e-17:
            n += 1.0
            term *= y / n
            total += term
        return 1.0 - total * prefix
    # modified Lentz; for y >= a + 1 every partial denominator stays above
    # b/2 (checked on a grid of a up to 500), so the usual guard against a
    # zero divisor is left out
    b = y + 1.0 - a
    c = math.inf
    d = h = 1.0 / b
    for i in range(1, 1000):
        an = i * (a - i)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return prefix * h


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float  # W+: rank sum of positive differences
    p_value: float
    n: int  # nonzero differences used
    exact: bool
    degenerate: bool  # all differences were zero


@lru_cache(maxsize=256)
def _exact_w_plus_counts(double_ranks: tuple[int, ...]) -> np.ndarray:
    """Counts of sign assignments per doubled W+ value, read-only.

    Ranks are doubled so tied average ranks become integers; the counts
    array then indexes every reachable doubled rank sum.  The counts are
    integers below 2**53, so they do not depend on the order of the ranks:
    callers pass them sorted, and each pattern is counted once per process
    (a report's tests over the same run count mostly share one).
    """
    counts = np.zeros(sum(double_ranks) + 1)
    counts[0] = 1.0
    for r in double_ranks:
        counts[r:] += counts[: counts.size - r]  # numpy buffers the overlap
    counts.flags.writeable = False
    return counts


def wilcoxon_signed_rank(a: Sequence[float], b: Sequence[float]) -> WilcoxonResult:
    """Two-sided paired test of a - b being symmetric about zero.

    Zero differences are dropped; tied absolute differences get average
    ranks.  With every difference zero the test is degenerate and p = 1.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("need two equal-length non-empty 1-d samples")
    diff = a - b
    diff = diff[diff != 0.0]
    n = diff.size
    if n == 0:
        return WilcoxonResult(statistic=0.0, p_value=1.0, n=0, exact=True, degenerate=True)
    ranks = rankdata(np.abs(diff))
    w_plus = float(ranks[diff > 0].sum())
    if n <= 20:
        counts = _exact_w_plus_counts(tuple(sorted(np.rint(2 * ranks).astype(int).tolist())))
        total = 2.0**n
        w2 = int(round(2 * w_plus))
        p_le = counts[: w2 + 1].sum() / total
        p_ge = counts[w2:].sum() / total
        p = min(1.0, 2.0 * min(p_le, p_ge))
        return WilcoxonResult(statistic=w_plus, p_value=p, n=n, exact=True, degenerate=False)
    mean = n * (n + 1) / 4.0
    _, tie_counts = np.unique(np.abs(diff), return_counts=True)
    tie_term = float(np.sum(tie_counts**3 - tie_counts)) / 48.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    d = w_plus - mean
    # continuity correction shrinks |d| by one half
    z = (d - 0.5 * np.sign(d)) / math.sqrt(var) if var > 0 else 0.0
    p = min(1.0, 2.0 * norm_sf(abs(z)))
    return WilcoxonResult(statistic=w_plus, p_value=p, n=n, exact=False, degenerate=False)


def cliffs_delta(a: Sequence[float], b: Sequence[float]) -> float:
    """(#(a_i > b_j) - #(a_i < b_j)) / (|a| * |b|), in [-1, 1]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    diff = a[:, None] - b[None, :]
    return float((np.sum(diff > 0) - np.sum(diff < 0)) / (a.size * b.size))


class Outcome(enum.Enum):
    WIN = "win"
    TIE = "tie"
    LOSS = "loss"


def win_tie_loss(subject_runs: Sequence[float], other_runs: Sequence[float]) -> Outcome:
    """Verdict for the subject technique against another on one dataset.

    Win needs Wilcoxon p < ``ALPHA`` and a non-negligible Cliff's delta in the
    subject's favor (delta >= 0.147); Loss is the mirror image; everything
    else ties.  A single deterministic score on either side is replicated
    to match the other side's run count.
    """
    subject = list(map(float, subject_runs))
    other = list(map(float, other_runs))
    if len(subject) == 1 and len(other) > 1:
        subject = subject * len(other)
    if len(other) == 1 and len(subject) > 1:
        other = other * len(subject)
    if len(subject) != len(other):
        raise ValueError("run counts must match (or one side must be a single value)")
    result = wilcoxon_signed_rank(subject, other)
    if result.p_value >= ALPHA:  # a degenerate test has p = 1
        return Outcome.TIE
    delta = cliffs_delta(subject, other)
    if delta >= NEGLIGIBLE_DELTA:
        return Outcome.WIN
    if -delta >= NEGLIGIBLE_DELTA:
        return Outcome.LOSS
    return Outcome.TIE


# ---------------------------------------------------------------------------
# Scott-Knott
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SkGrouping:
    """Ranks ordered best first; techniques within a rank ordered by mean."""

    ranks: tuple[tuple[str, ...], ...]
    means: dict[str, float]


def _sk_lambda(group_means: np.ndarray, sigma2: float) -> tuple[float, int]:
    """Best split's likelihood statistic over an ordered run of means.

    Returns (lambda, split index); split i puts means[:i] in the first
    group.  B0 is the maximal between-group sum of squares.
    """
    k = len(group_means)
    total = group_means.sum()
    best_b0 = -1.0
    best_split = 1
    for i in range(1, k):
        t1, t2 = group_means[:i].sum(), group_means[i:].sum()
        b0 = t1**2 / i + t2**2 / (k - i) - total**2 / k
        if b0 > best_b0:
            best_b0 = b0
            best_split = i
    lam = math.pi / (2.0 * (math.pi - 2.0)) * best_b0 / sigma2 if sigma2 > 0 else math.inf
    if best_b0 <= 1e-300:
        lam = 0.0
    return lam, best_split


def scott_knott(values: Mapping[str, Sequence[float]]) -> SkGrouping:
    """Partition techniques into statistically distinct ranks.

    Techniques are ordered by mean (higher is better).  Each candidate rank
    is split at the point maximizing the between-group sum of squares B0 of
    the treatment means; the split stands when the chi-square upper tail of
    the likelihood statistic pi/(2(pi-2)) * B0 / sigma^2, with k/(pi-2)
    degrees of freedom, is below ``ALPHA``, where sigma^2 pools the
    between-treatment scatter with the within-treatment variance of a
    treatment mean.  The procedure recurses into both sides until no split
    is significant, and a run of equal means is one rank.
    """
    if not values:
        raise ValueError("no techniques given")
    lengths = {len(v) for v in values.values()}
    if len(lengths) != 1:
        raise ValueError("all techniques need the same number of values")
    (r,) = lengths
    if r == 0:
        raise ValueError("value vectors must be non-empty")

    arrays = {name: np.asarray(v, dtype=float) for name, v in values.items()}
    means = {name: float(arr.mean()) for name, arr in arrays.items()}
    ordered = sorted(arrays, key=lambda name: (-means[name], name))

    # variance of a treatment mean from the pooled within-treatment scatter
    if r > 1:
        pooled_within = sum(float(np.sum((arr - arr.mean()) ** 2)) for arr in arrays.values())
        dof_within = len(arrays) * (r - 1)
        s2_mean = pooled_within / dof_within / r
    else:
        dof_within = 0
        s2_mean = 0.0

    ranks: list[tuple[str, ...]] = []

    def partition(names: list[str]) -> None:
        group_means = np.asarray([means[n] for n in names])
        # sorted, so equal ends mean one technique or equal means, which B0
        # would read as its rounding error over a sigma^2 of zero
        if group_means[0] == group_means[-1]:
            ranks.append(tuple(names))
            return
        k = len(names)
        grand = group_means.mean()
        sigma2 = (float(np.sum((group_means - grand) ** 2)) + dof_within * s2_mean) / (
            k + dof_within
        )
        lam, split = _sk_lambda(group_means, sigma2)
        if chi2_sf(lam, k / (math.pi - 2.0)) < ALPHA:
            partition(names[:split])
            partition(names[split:])
        else:
            ranks.append(tuple(names))

    partition(ordered)
    return SkGrouping(ranks=tuple(ranks), means=means)
