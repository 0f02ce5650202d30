"""Per-file version sequences and their extraction into training samples.

For an anchor version v, every file present in v yields one sample: the
file's rows of the version matrices over its trailing run of consecutive
versions ending at v, at most ``window`` versions long.  Files absent
from v but seen earlier are dead and yield nothing.

A sample (``Hvsm``) is a record of the file's key, version ids and label.
Its set is immutable and carries the samples' metric schema and their
values, stacked into one ``(T, n, d)`` array per sequence length
(``HvsmSet.by_length``), the only place that holds them.  Extraction
gathers each stack straight from the version matrices, one gather per
length and step, and normalization transforms the stacks; training and
prediction on a set, in every repeat, read those stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

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
"""Item indices and stacked ``(T, n, d)`` values of each equal-length group
of samples, in ascending T and item order within a group."""


@dataclass(frozen=True, eq=False)
class HvsmSet:
    """All samples extracted at one anchor version, on one metric schema.

    ``by_length`` holds the samples' values stacked by length; a set whose
    stacks do not hold every item once, at its length, is rejected.
    """

    anchor_version: str
    items: tuple[Hvsm, ...]
    window: int
    schema: tuple[str, ...]
    by_length: Stacks

    def __post_init__(self):
        covered = sorted(i for idx, _ in self.by_length for i in idx.tolist())
        lengths = [len(X) for _, X in self.by_length]
        if covered != list(range(self.m)) or lengths != sorted(set(lengths)) or 0 in lengths:
            raise ValueError("by_length must hold every item once, in ascending length")
        for idx, X in self.by_length:
            if X.shape != (len(X), len(idx), len(self.schema)) or any(
                self.items[i].length != len(X) for i in idx.tolist()
            ):
                raise ValueError("each stack must be (T, items, schema size), items of length T")

    @property
    def m(self) -> int:
        return len(self.items)


def _item_rows(s: HvsmSet) -> np.ndarray:
    """Every step of every sample as one ``(steps, d)`` array, in item order
    and step order within an item, scattered from the stacks."""
    lengths = np.array([item.length for item in s.items], dtype=np.intp)
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
    labels = (anchor.bugs > 0).astype(int).tolist()
    keys = sorted(anchor.files)
    # each file's rows in the versions of its run, anchor first
    runs: dict[int, list[int]] = {}
    walks: list[list[int]] = []
    for i, key in enumerate(keys):
        rows = [anchor.files[key]]
        start = anchor_idx
        while start > 0 and len(rows) < window and key in versions[start - 1].files:
            start -= 1
            rows.append(versions[start].files[key])
        runs.setdefault(len(rows), []).append(i)
        walks.append(rows)
    by_length = []
    version_ids = {}
    for T in sorted(runs):
        idx = runs[T]
        first = anchor_idx - T + 1
        version_ids[T] = tuple(snap.version_id for snap in versions[first : anchor_idx + 1])
        stack = np.empty((T, len(idx), len(anchor.schema)))
        for t in range(T):
            stack[t] = versions[first + t].values[[walks[i][T - 1 - t] for i in idx]]
        by_length.append((np.asarray(idx, dtype=np.intp), stack))
    items = tuple(
        Hvsm(key=key, version_ids=version_ids[len(rows)], label=labels[rows[0]])
        for key, rows in zip(keys, walks)
    )
    return HvsmSet(
        anchor_version=v,
        items=items,
        window=window,
        schema=anchor.schema,
        by_length=tuple(by_length),
    )


def average_length(s: HvsmSet) -> float:
    """Mean sequence length over the set's samples."""
    if not s.items:
        return 0.0
    return sum(item.length for item in s.items) / len(s.items)


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
    if not train.items:
        raise ValueError("cannot fit a normalizer on an empty set")
    # item order: a mean over rows adds them in sequence, so it sets the bits
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
    return HvsmSet(s.anchor_version, s.items, s.window, s.schema, by_length)
