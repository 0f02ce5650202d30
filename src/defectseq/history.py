"""Per-file version sequences and their extraction into training samples.

For an anchor version v, every file present in v yields one sample: the
file's rows of the version matrices over its trailing run of consecutive
versions ending at v, at most ``window`` versions long, as one ``(T, d)``
block.  Files absent from v but seen earlier are dead and yield nothing.

A set is immutable and carries its samples' metric schema and its values,
stacked into one ``(T, n, d)`` array per sequence length
(``HvsmSet.by_length``).  Extraction gathers each stack straight from the
version matrices, one gather per length and step, and normalization
transforms the stacks; each sample's block is a view into its length's
stack, so a set holds its values once, and training and prediction on it,
in every repeat, read those stacks.
"""

from __future__ import annotations

import csv
import enum
import io
from dataclasses import dataclass

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


Stacks = tuple[tuple[np.ndarray, np.ndarray], ...]
"""Item indices and stacked ``(T, n, d)`` values of each equal-length group
of samples, in ascending T and item order within a group."""


@dataclass(frozen=True, eq=False)
class HvsmSet:
    """All samples extracted at one anchor version, on one metric schema.

    ``by_length`` holds the samples' values stacked by length.  A set built
    from items alone stacks them; extraction and normalization hand over the
    stacks that the items' blocks view, and stacks that do not hold the
    items that way are rejected.
    """

    anchor_version: str
    items: tuple[Hvsm, ...]
    window: int
    schema: tuple[str, ...]
    by_length: Stacks | None = None

    def __post_init__(self):
        if any(item.values.shape[1] != len(self.schema) for item in self.items):
            raise ValueError(f"every sample step needs one value per schema entry {self.schema}")
        if self.by_length is None:
            object.__setattr__(self, "by_length", _stack_by_length(self.items))
        else:
            _check_stacks(self.items, self.by_length)

    @property
    def m(self) -> int:
        return len(self.items)


def _stack_by_length(items: tuple[Hvsm, ...]) -> Stacks:
    by_length: dict[int, list[int]] = {}
    for i, item in enumerate(items):
        by_length.setdefault(item.length, []).append(i)
    return tuple(
        (np.asarray(idx, dtype=np.intp), np.stack([items[i].values for i in idx], axis=1))
        for idx in (by_length[T] for T in sorted(by_length))
    )


def _check_stacks(items: tuple[Hvsm, ...], by_length: Stacks) -> None:
    """Raise unless every item sits in exactly one stack, of its length, in
    ascending T, with its block a view into that stack."""
    covered = sorted(i for idx, _ in by_length for i in idx.tolist())
    lengths = [X.shape[0] for _, X in by_length]
    if covered != list(range(len(items))) or lengths != sorted(set(lengths)):
        raise ValueError("by_length must hold every item once, in ascending length")
    for idx, X in by_length:
        if X.shape[1] != len(idx) or any(
            items[i].length != len(X) or not np.may_share_memory(items[i].values, X)
            for i in idx.tolist()
        ):
            raise ValueError("every item's block must be a view into the stack of its length")


def _views(by_length: Stacks) -> list[np.ndarray]:
    """Each item's ``(T, d)`` block as a view into its length's stack, in
    item order."""
    views = [None] * sum(len(idx) for idx, _ in by_length)
    for idx, X in by_length:
        for j, i in enumerate(idx.tolist()):
            views[i] = X[:, j]
    return views


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
        Hvsm(key=key, version_ids=version_ids[len(rows)], values=values, label=labels[rows[0]])
        for key, rows, values in zip(keys, walks, _views(by_length))
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
    by_length = tuple((idx, n.transform(X)) for idx, X in s.by_length)
    items = tuple(
        Hvsm(item.key, item.version_ids, values, item.label)
        for item, values in zip(s.items, _views(by_length))
    )
    return HvsmSet(s.anchor_version, items, s.window, s.schema, by_length)


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
