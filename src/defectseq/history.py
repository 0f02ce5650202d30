"""Per-file version sequences and their extraction into training samples.

For an anchor version v, every file present in v yields one sample: the
file's rows of the version matrices over its trailing run of consecutive
versions ending at v, at most ``window`` versions long.  Files absent
from v but seen earlier are dead and yield nothing.

A set of samples (``HvsmSet``) is arrays: keys, 0/1 labels, and values
stacked into one ``(T, n, d)`` array per sequence length
(``HvsmSet.by_length``), the only record of a sample's length.  Extraction
finds every file's run with one membership gather per earlier version,
over the files whose run is still open, then gathers each stack straight
from the version matrices, one gather per length and step.  Normalization
transforms the stacks; training and prediction on a set, in every repeat,
read those stacks.  A sample's ``Hvsm`` record is a view of these arrays,
built only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat

import numpy as np

from .dataset import ProjectHistory


@dataclass(frozen=True, eq=False)
class Hvsm:
    """One file's historical version sequence of metrics.

    ``version_ids`` are consecutive versions of the project ending at the
    anchor; the file's metrics at ``version_ids[t]`` are step t of its set's
    stack of this length.  ``label`` is the binarized bug label at the
    anchor, or None when unknown.
    """

    key: str
    version_ids: tuple[str, ...]
    label: int | None

    @property
    def length(self) -> int:
        return len(self.version_ids)


Stacks = tuple[tuple[np.ndarray, np.ndarray], ...]
"""Sample indices and stacked ``(T, n, d)`` values of each equal-length
group of samples, in ascending T and sample order within a group."""


@dataclass(frozen=True, eq=False)
class HvsmSet:
    """All samples extracted at one anchor version, on one metric schema.

    Sample i is file ``keys[i]`` with label ``labels[i]`` (None for a set
    only predicted); its values are a column of its length's stack in
    ``by_length``.  ``version_ids`` end at the anchor and span the longest
    sample.  Stacks that do not hold every sample once, in ascending length,
    and labels that are not one 0 or 1 per sample are rejected.
    """

    version_ids: tuple[str, ...]
    keys: tuple[str, ...]
    labels: np.ndarray | None
    schema: tuple[str, ...]
    by_length: Stacks

    def __post_init__(self):
        covered = np.sort(np.concatenate([np.empty(0, np.intp), *(i for i, _ in self.by_length)]))
        lengths = [len(X) for _, X in self.by_length]
        if lengths != sorted(set(lengths) - {0}) or not np.array_equal(covered, np.arange(self.m)):
            raise ValueError("by_length must hold every item once, in ascending length")
        for idx, X in self.by_length:
            if X.shape != (len(X), len(idx), len(self.schema)):
                raise ValueError("each stack must be (T, items, schema size)")
        y = self.labels
        if y is not None and (y.shape != (self.m,) or ((y != 0) & (y != 1)).any()):
            raise ValueError("labels must hold one 0/1 label per item")
        if lengths and lengths[-1] > len(self.version_ids):
            raise ValueError("version_ids must span the longest stack")

    @property
    def m(self) -> int:
        return len(self.keys)

    @property
    def anchor_version(self) -> str:
        return self.version_ids[-1]

    @cached_property
    def lengths(self) -> np.ndarray:
        """Each sample's length, read off its stack."""
        lengths = np.empty(self.m, dtype=np.intp)
        for idx, X in self.by_length:
            lengths[idx] = len(X)
        return lengths

    @cached_property
    def items(self) -> tuple[Hvsm, ...]:
        """The samples as records, for demos, tests and tracing: no run reads them."""
        labels = [None] * self.m if self.labels is None else self.labels.tolist()
        n = len(self.version_ids)
        ids = [self.version_ids[n - T :] for T in self.lengths.tolist()]
        return tuple(map(Hvsm, self.keys, ids, labels))


def _item_rows(s: HvsmSet) -> np.ndarray:
    """Every step of every sample as one ``(steps, d)`` array, in sample
    order and step order within a sample, scattered from the stacks."""
    lengths = s.lengths
    starts = np.cumsum(lengths) - lengths
    rows = np.empty((int(lengths.sum()), len(s.schema)))
    for idx, X in s.by_length:
        rows[starts[idx][:, None] + np.arange(len(X))] = X.swapaxes(0, 1)
    return rows


def lifecycle_counts(history: ProjectHistory, v: str) -> dict[str, int]:
    """Counts of version v's files by lifecycle state: ``developing``
    (present at v and in some earlier version), ``newborn`` (first present
    at v) and ``dead`` (seen earlier but absent from v)."""
    idx = history.index(v)
    now = set(history.versions[idx].files)
    before: set[str] = set()
    for i in range(idx):
        before |= set(history.versions[i].files)
    return {
        "developing": len(now & before),
        "newborn": len(now - before),
        "dead": len(before - now),
    }


def developing_fraction(history: ProjectHistory, v: str) -> float:
    """Share of version v's files that existed in an earlier version."""
    counts = lifecycle_counts(history, v)
    total = counts["developing"] + counts["newborn"]
    return counts["developing"] / total if total else 0.0


def extract_hvsm_set(
    history: ProjectHistory,
    v: str,
    window: int | None = None,
) -> HvsmSet:
    """Extract one sample per file present at anchor version ``v``.

    A file's sequence spans its longest run of consecutive-version presence
    ending at v, truncated to the trailing ``window`` versions.  ``window``
    of None means the whole available history.  Items are ordered by file
    key for reproducible batching.
    """
    anchor_idx = history.index(v)
    if window is None:
        window = anchor_idx + 1
    if window < 1:
        raise ValueError("window must be at least 1")
    versions = history.versions
    anchor = versions[anchor_idx]
    keys = tuple(sorted(anchor.files))
    n, depth = len(keys), min(window, anchor_idx + 1)
    # row_at[b, i]: file i's row in the version b steps before the anchor,
    # -1 once its run has ended; one membership gather per version over
    # the files whose run reaches it
    row_at = np.full((depth, n), -1, dtype=np.intp)
    row_at[0] = np.fromiter(map(anchor.files.__getitem__, keys), np.intp, n)
    running, running_keys = np.arange(n), keys
    for back in range(1, depth):
        files = versions[anchor_idx - back].files
        rows = np.fromiter(map(files.get, running_keys, repeat(-1)), np.intp, len(running_keys))
        present = rows >= 0
        running = running[present]
        if not len(running):
            break
        running_keys = tuple(compress(running_keys, present.tolist()))
        row_at[back, running] = rows[present]
    lengths = np.count_nonzero(row_at >= 0, axis=0)
    by_length = []
    for T in range(1, depth + 1):
        idx = np.flatnonzero(lengths == T)
        if not len(idx):
            continue
        stack = np.empty((T, len(idx), len(anchor.schema)))
        for t in range(T):
            stack[t] = versions[anchor_idx - T + 1 + t].values[row_at[T - 1 - t, idx]]
        by_length.append((idx, stack))
    oldest = anchor_idx + 1 - (len(by_length[-1][1]) if by_length else 1)
    return HvsmSet(
        version_ids=tuple(snap.version_id for snap in versions[oldest : anchor_idx + 1]),
        keys=keys,
        labels=(anchor.bugs[row_at[0]] > 0).astype(int),
        schema=anchor.schema,
        by_length=tuple(by_length),
    )


def average_length(s: HvsmSet) -> float:
    """Mean sequence length over the set's samples."""
    if not s.m:
        return 0.0
    return int(s.lengths.sum()) / s.m


@dataclass(frozen=True, eq=False)
class Normalizer:
    """Per-dimension z-score parameters, fit on training data only.

    Dimensions whose spread is below 1e-12 keep std 1 so constant metrics
    pass through as plain mean shifts.
    """

    mean: np.ndarray
    std: np.ndarray
    schema: tuple[str, ...]

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=float) - self.mean) / self.std


def fit_normalizer(train: HvsmSet) -> Normalizer:
    """Population mean/std over every step of every training sequence."""
    if not train.m:
        raise ValueError("cannot fit a normalizer on an empty set")
    # sample order: a mean over rows adds them in sequence, so it sets the bits
    return fit_normalizer_rows(_item_rows(train), train.schema)


def fit_normalizer_rows(rows: np.ndarray, schema: tuple[str, ...]) -> Normalizer:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("need a non-empty 2-d array of feature rows")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = rows.mean(axis=0)
        std = rows.std(axis=0)
    overflowed = ~(np.isfinite(mean) & np.isfinite(std))
    if overflowed.any():
        column = schema[int(np.argmax(overflowed))]
        raise ValueError(f"metric {column!r} overflows z-scoring: its mean or spread is not finite")
    std = np.where(std < 1e-12, 1.0, std)
    return Normalizer(mean=mean, std=std, schema=schema)


def apply_normalizer(n: Normalizer, s: HvsmSet) -> HvsmSet:
    """Z-score every step of every sample; order, labels, lengths unchanged."""
    if s.schema != n.schema:
        raise ValueError("normalizer schema does not match the set's schema")
    by_length = tuple((idx, n.transform(X)) for idx, X in s.by_length)
    return HvsmSet(s.version_ids, s.keys, s.labels, s.schema, by_length)
