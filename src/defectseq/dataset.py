"""Ingestion of per-version metrics tables and bug labels.

A project is described by an ordered sequence of version snapshots.  Each
snapshot maps a file key (directory path + file name, or a fully qualified
class name in PROMISE-style data) to a numeric metric vector and a bug
count.  Process metrics (lines added/deleted plus their running totals) can
be appended to every vector from a companion table.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

# The 20 static code metrics of the PROMISE tables, in their published
# column order.  "loc" doubles as the effort denominator for ranking.
PROMISE_CODE_METRICS: tuple[str, ...] = (
    "wmc", "dit", "noc", "cbo", "rfc", "lcom", "ca", "ce", "npm", "lcom3",
    "loc", "dam", "moa", "mfa", "cam", "ic", "cbm", "amc", "max_cc", "avg_cc",
)

PROCESS_METRICS: tuple[str, ...] = ("add", "del", "cadd", "cdel")

NAME_COLUMN = "name"
BUG_COLUMN = "bug"


class ParseError(ValueError):
    """Malformed input table; message names the offending row/column."""


def normalize_key(raw: str) -> str:
    """Canonical file key: surrounding whitespace trimmed, case kept."""
    key = raw.strip()
    if not key:
        raise ParseError("empty file key")
    return key


@dataclass(frozen=True, eq=False)
class MetricVector:
    """One file's numeric metrics in one version.

    ``loc`` duplicates the value of the "loc" schema entry (when present) as
    an integer so effort-aware ranking does not have to re-find it.
    """

    values: np.ndarray
    schema: tuple[str, ...]
    loc: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.shape[0] != len(self.schema):
            raise ValueError(
                f"expected {len(self.schema)} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("metric values must be finite")
        if self.loc < 0:
            raise ValueError("loc must be non-negative")


def make_metric_vector(values: Sequence[float], schema: Sequence[str]) -> MetricVector:
    """Build a MetricVector, deriving ``loc`` from the schema's loc entry."""
    schema = tuple(schema)
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != len(schema):
        raise ValueError(f"expected {len(schema)} values, got shape {arr.shape}")
    loc = 0
    for i, name in enumerate(schema):
        if name.lower() == "loc":
            loc = int(round(float(arr[i])))
            break
    return MetricVector(values=arr, schema=schema, loc=loc)


@dataclass(frozen=True)
class VersionSnapshot:
    """All files of one released version with their bug counts."""

    version_id: str
    files: dict[str, MetricVector]
    labels: dict[str, int]

    def __post_init__(self):
        for key, count in self.labels.items():
            if key not in self.files:
                raise ValueError(f"label for unknown file {key!r}")
            if count < 0:
                raise ValueError(f"negative bug count for {key!r}")


@dataclass(frozen=True)
class ProjectHistory:
    """Ordered version sequence of a project (ascending release order)."""

    name: str
    versions: tuple[VersionSnapshot, ...]

    def __post_init__(self):
        object.__setattr__(self, "versions", tuple(self.versions))
        ids = [v.version_id for v in self.versions]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate version ids in {self.name!r}: {ids}")

    @property
    def version_ids(self) -> list[str]:
        return [v.version_id for v in self.versions]

    def index(self, version_id: str) -> int:
        for i, snap in enumerate(self.versions):
            if snap.version_id == version_id:
                return i
        raise KeyError(f"unknown version {version_id!r} in project {self.name!r}")

    def snapshot(self, version_id: str) -> VersionSnapshot:
        return self.versions[self.index(version_id)]


def binarize_label(bug_count: int) -> int:
    """1 iff the file has at least one reported bug."""
    if bug_count < 0:
        raise ValueError("bug count must be non-negative")
    return 1 if bug_count > 0 else 0


def _parse_number(cell: str, row: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(
            f"row {row}, column {column!r}: non-numeric cell {cell!r}"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"row {row}, column {column!r}: non-finite cell {cell!r}")
    return value


def _parse_count(cell: str, row: int, column: str) -> int:
    value = _parse_number(cell, row, column)
    count = int(round(value))
    if abs(value - count) > 1e-9 or count < 0:
        raise ParseError(
            f"row {row}, column {column!r}: expected non-negative integer, got {value!r}"
        )
    return count


def parse_metrics_csv(
    data: bytes | str,
    schema: Sequence[str],
    version_id: str = "",
) -> VersionSnapshot:
    """Parse one version's metrics table.

    The table must carry a header with a ``name`` column, every metric named
    in ``schema``, and an integer ``bug`` column; extra columns are ignored.
    Rows with duplicate file keys, missing cells, or non-numeric metric
    values are rejected.
    """
    if isinstance(data, bytes):
        text = data.decode("utf-8")
    else:
        text = data
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input: missing header row") from None
    header = [h.strip() for h in header]
    positions: dict[str, int] = {}
    for column in (NAME_COLUMN, BUG_COLUMN, *schema):
        if column not in header:
            raise ParseError(f"missing required column {column!r}")
        positions[column] = header.index(column)

    files: dict[str, MetricVector] = {}
    labels: dict[str, int] = {}
    schema = tuple(schema)
    for row_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise ParseError(
                f"row {row_no}: expected {len(header)} cells, got {len(row)}"
            )
        key = normalize_key(row[positions[NAME_COLUMN]])
        if key in files:
            raise ParseError(f"row {row_no}: duplicate file key {key!r}")
        values = [
            _parse_number(row[positions[m]], row_no, m) for m in schema
        ]
        bug = _parse_count(row[positions[BUG_COLUMN]], row_no, BUG_COLUMN)
        files[key] = make_metric_vector(values, schema)
        labels[key] = bug
    return VersionSnapshot(version_id=version_id, files=files, labels=labels)


def parse_process_csv(data: bytes | str) -> dict[tuple[str, str], tuple[int, int]]:
    """Parse a companion change table with columns version,name,add,del."""
    if isinstance(data, bytes):
        text = data.decode("utf-8")
    else:
        text = data
    reader = csv.reader(io.StringIO(text))
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ParseError("empty input: missing header row") from None
    for column in ("version", "name", "add", "del"):
        if column not in header:
            raise ParseError(f"missing required column {column!r}")
    i_version = header.index("version")
    i_name = header.index("name")
    i_add = header.index("add")
    i_del = header.index("del")
    entries: dict[tuple[str, str], tuple[int, int]] = {}
    for row_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        version = row[i_version].strip()
        key = normalize_key(row[i_name])
        added = _parse_count(row[i_add], row_no, "add")
        deleted = _parse_count(row[i_del], row_no, "del")
        if (version, key) in entries:
            raise ParseError(f"row {row_no}: duplicate entry for {version!r}/{key!r}")
        entries[(version, key)] = (added, deleted)
    return entries


def attach_process_metrics(
    history: ProjectHistory,
    add_del: Mapping[tuple[str, str], tuple[int, int]],
) -> ProjectHistory:
    """Extend every metric vector with [add, del, cadd, cdel].

    Per-version added/deleted line counts come from ``add_del``; files with
    no entry get 0/0 for that version.  The cumulative columns accumulate in
    ascending version order from each file's first appearance.
    """
    known = {v.version_id for v in history.versions}
    for version_id, key in add_del:
        if version_id not in known:
            raise ValueError(f"process entry references unknown version {version_id!r}")
        if key not in history.snapshot(version_id).files:
            raise ValueError(
                f"process entry references unknown file {key!r} in version {version_id!r}"
            )

    cumulative: dict[str, tuple[int, int]] = {}
    new_versions: list[VersionSnapshot] = []
    for snap in history.versions:
        new_files: dict[str, MetricVector] = {}
        for key, vec in snap.files.items():
            added, deleted = add_del.get((snap.version_id, key), (0, 0))
            prev_add, prev_del = cumulative.get(key, (0, 0))
            cadd, cdel = prev_add + added, prev_del + deleted
            cumulative[key] = (cadd, cdel)
            new_files[key] = MetricVector(
                values=np.concatenate([vec.values, [added, deleted, cadd, cdel]]),
                schema=vec.schema + PROCESS_METRICS,
                loc=vec.loc,
            )
        new_versions.append(
            VersionSnapshot(
                version_id=snap.version_id,
                files=new_files,
                labels=dict(snap.labels),
            )
        )
    return ProjectHistory(name=history.name, versions=tuple(new_versions))
