"""Per-file version sequences and their extraction into training samples.

For an anchor version v, every file present in v yields one sample: the
file's rows of the version matrices over its trailing run of consecutive
versions ending at v, at most ``window`` versions long, as one ``(T, d)``
block.  Files absent from v but seen earlier are dead and yield nothing.

A set is immutable and carries its samples' metric schema.  It stacks its
samples into one ``(T, n, d)`` array per sequence length once, on first use
(``HvsmSet.by_length``); training and prediction on the same set, in every
repeat, read that one stack.
"""

from __future__ import annotations

import csv
import enum
import io
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .dataset import ProjectHistory


class Lifecycle(enum.Enum):
    DEVELOPING = "developing"
    NEWBORN = "newborn"
    DEAD = "dead"


@dataclass(frozen=True, eq=False)
class Hvsm:
    """One file's historical version sequence of metrics.

    ``version_ids`` are consecutive versions of the project ending at the
    anchor; row t of the ``(T, d)`` block ``values`` holds the file's
    metrics at ``version_ids[t]``.  ``label`` is the binarized bug label at
    the anchor, or None when unknown.
    """

    key: str
    version_ids: tuple[str, ...]
    values: np.ndarray
    label: int | None

    def __post_init__(self):
        T = len(self.version_ids)
        if not T or self.values.ndim != 2 or len(self.values) != T:
            raise ValueError("values must be a (T, d) block aligned with non-empty version_ids")

    @property
    def length(self) -> int:
        return len(self.version_ids)


@dataclass(frozen=True, eq=False)
class HvsmSet:
    """All samples extracted at one anchor version, on one metric schema."""

    anchor_version: str
    items: tuple[Hvsm, ...]
    window: int
    schema: tuple[str, ...]

    def __post_init__(self):
        if any(item.values.shape[1] != len(self.schema) for item in self.items):
            raise ValueError(f"every sample step needs one value per schema entry {self.schema}")

    @property
    def m(self) -> int:
        return len(self.items)

    @cached_property
    def by_length(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Item indices and stacked ``(T, n, d)`` raw values of each
        equal-length group of samples, in ascending T; built once per set."""
        return _stack_by_length(self.items)


def _stack_by_length(items: tuple[Hvsm, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    by_length: dict[int, list[int]] = {}
    for i, item in enumerate(items):
        by_length.setdefault(item.length, []).append(i)
    return [
        (np.asarray(idx, dtype=np.intp), np.stack([items[i].values for i in idx], axis=1))
        for idx in (by_length[T] for T in sorted(by_length))
    ]


def classify_file(history: ProjectHistory, v: str, key: str) -> Lifecycle:
    """Lifecycle of ``key`` at version ``v``.

    Developing: present at v and in some earlier version.  Newborn: first
    appears at v.  Dead: seen earlier but absent from v.
    """
    idx = history.index(v)
    present_now = key in history.versions[idx].files
    present_before = any(
        key in history.versions[i].files for i in range(idx)
    )
    if present_now:
        return Lifecycle.DEVELOPING if present_before else Lifecycle.NEWBORN
    if present_before:
        return Lifecycle.DEAD
    raise KeyError(f"file {key!r} never seen up to version {v!r}")


def lifecycle_counts(history: ProjectHistory, v: str) -> dict[Lifecycle, int]:
    """Counts of developing/newborn files in v and of files dead at v."""
    idx = history.index(v)
    now = set(history.versions[idx].files)
    before: set[str] = set()
    for i in range(idx):
        before |= set(history.versions[i].files)
    return {
        Lifecycle.DEVELOPING: len(now & before),
        Lifecycle.NEWBORN: len(now - before),
        Lifecycle.DEAD: len(before - now),
    }


def developing_fraction(history: ProjectHistory, v: str) -> float:
    """Share of version v's files that existed in an earlier version."""
    counts = lifecycle_counts(history, v)
    total = counts[Lifecycle.DEVELOPING] + counts[Lifecycle.NEWBORN]
    return counts[Lifecycle.DEVELOPING] / total if total else 0.0


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
    items: list[Hvsm] = []
    for key in sorted(anchor.files):
        row = anchor.files[key]
        rows = [anchor.values[row]]
        start = anchor_idx
        while start > 0 and len(rows) < window and key in versions[start - 1].files:
            start -= 1
            rows.append(versions[start].values[versions[start].files[key]])
        items.append(
            Hvsm(
                key=key,
                version_ids=tuple(snap.version_id for snap in versions[start : anchor_idx + 1]),
                values=np.array(rows[::-1]),
                label=labels[row],
            )
        )
    return HvsmSet(anchor_version=v, items=tuple(items), window=window, schema=anchor.schema)


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
    return fit_normalizer_rows(np.vstack([item.values for item in train.items]), train.schema)


def fit_normalizer_rows(rows: np.ndarray, schema: tuple[str, ...]) -> Normalizer:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("need a non-empty 2-d array of feature rows")
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return Normalizer(mean=mean, std=std, schema=schema)


def apply_normalizer(n: Normalizer, s: HvsmSet) -> HvsmSet:
    """Z-score every step of every sample; order, labels, lengths unchanged."""
    if s.schema != n.schema:
        raise ValueError("normalizer schema does not match the set's schema")
    items = tuple(
        Hvsm(item.key, item.version_ids, n.transform(item.values), item.label) for item in s.items
    )
    return replace(s, items=items)


def hvsm_set_to_csv(s: HvsmSet) -> str:
    """Debug dump: one row per (file, step) with the step's metric values."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["name", "version", "T", "step", *s.schema, "label"])
    for item in s.items:
        for step, (version_id, values) in enumerate(zip(item.version_ids, item.values), 1):
            writer.writerow(
                [
                    item.key,
                    version_id,
                    item.length,
                    step,
                    *map(repr, values.tolist()),
                    "" if item.label is None else item.label,
                ]
            )
    return out.getvalue()
