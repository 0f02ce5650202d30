"""Ingestion of per-version metrics tables and bug labels.

A project is described by an ordered sequence of version snapshots.  A
snapshot is one table in array form: its file keys (directory path + file
name, or a fully qualified class name in PROMISE-style data) in table
order, an ``(n, d)`` matrix of their metric values, and per-file bug counts
and line counts; ``files`` maps each key to its row.  Process metrics (lines
added/deleted plus their running totals) can be appended to every version's
matrix as four columns from a companion table.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping, Sequence

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

# bug, line and change counts are held as int64
_COUNT_LIMIT = 2**63


class ParseError(ValueError):
    """Malformed input table; message names the offending row/column."""


def normalize_key(raw: str) -> str:
    """Canonical file key: surrounding whitespace trimmed, case kept."""
    key = raw.strip()
    if not key:
        raise ParseError("empty file key")
    return key


@dataclass(frozen=True, eq=False)
class VersionSnapshot:
    """All files of one released version, one row per file.

    Row i holds file ``keys[i]``: its metrics ``values[i]`` in ``schema``
    order, its bug count ``bugs[i]`` and its line count ``loc[i]`` (the
    rounded "loc" metric, or 0 when the schema has none).  ``files`` maps
    each key to its row.
    """

    version_id: str
    schema: tuple[str, ...]
    keys: tuple[str, ...]
    values: np.ndarray
    bugs: np.ndarray
    loc: np.ndarray
    files: dict[str, int] = field(init=False)

    def __post_init__(self):
        n = len(self.keys)
        object.__setattr__(self, "files", dict(zip(self.keys, range(n))))
        if len(self.files) != n:
            raise ValueError(f"duplicate file keys in version {self.version_id!r}")
        if self.values.shape != (n, len(self.schema)):
            raise ValueError(
                f"expected values of shape {(n, len(self.schema))}, got {self.values.shape}"
            )
        if self.bugs.shape != (n,) or self.loc.shape != (n,):
            raise ValueError("expected one bug count and one line count per file")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("metric values must be finite")
        if np.any(self.bugs < 0) or np.any(self.loc < 0):
            raise ValueError("bug and line counts must be non-negative")


@dataclass(frozen=True)
class ProjectHistory:
    """Ordered version sequence of a project (ascending release order),
    every version on one metric schema."""

    name: str
    versions: tuple[VersionSnapshot, ...]

    def __post_init__(self):
        object.__setattr__(self, "versions", tuple(self.versions))
        ids = [v.version_id for v in self.versions]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate version ids in {self.name!r}: {ids}")
        if len({v.schema for v in self.versions}) > 1:
            raise ValueError(f"versions of {self.name!r} differ in metric schema")

    def index(self, version_id: str) -> int:
        for i, snap in enumerate(self.versions):
            if snap.version_id == version_id:
                return i
        raise KeyError(f"unknown version {version_id!r} in project {self.name!r}")

    def snapshot(self, version_id: str) -> VersionSnapshot:
        return self.versions[self.index(version_id)]


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
    if abs(value - count) > 1e-9 or not 0 <= count < _COUNT_LIMIT:
        raise ParseError(
            f"row {row}, column {column!r}: expected non-negative integer, got {value!r}"
        )
    return count


def _parse_key(cell: str, row: int) -> str:
    try:
        return normalize_key(cell)
    except ParseError as exc:
        raise ParseError(f"row {row}: {exc}") from None


def _decode(data: bytes | str) -> str:
    """A table's text; bytes that are not UTF-8 raise ParseError naming the
    row of the first bad byte (one more than the line feeds before it)."""
    try:
        return data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        row = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"row {row}: not UTF-8 text") from None


def _read_table(
    data: bytes | str, required: Sequence[str]
) -> tuple[dict[str, int], Iterator[tuple[int, list[str]]]]:
    """The header positions of the ``required`` columns, and the non-blank
    rows as (row number, cells); a row whose cell count differs from the
    header's, or that csv cannot read, raises ParseError."""
    text = _decode(data)
    # newline="" as csv asks of a file: a row ends at LF, CRLF or CR
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ParseError("empty input: missing header row") from None
    except csv.Error as exc:
        raise ParseError(f"row 1: {exc}") from None
    for column in required:
        if column not in header:
            raise ParseError(f"missing column {column!r}")

    def rows() -> Iterator[tuple[int, list[str]]]:
        row_no = 1
        try:
            for row_no, row in enumerate(reader, start=2):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) != len(header):
                    raise ParseError(f"row {row_no}: expected {len(header)} cells, got {len(row)}")
                yield row_no, row
        except csv.Error as exc:
            raise ParseError(f"row {row_no + 1}: {exc}") from None

    return {column: header.index(column) for column in required}, rows()


# the characters that keep a table off numpy's reader (see _parse_metrics_fast)
_NOT_PLAIN = '"\r\0\x1c\x1d\x1e\x1f'


def _loc_column(schema: tuple[str, ...]) -> int | None:
    return next((i for i, m in enumerate(schema) if m.lower() == "loc"), None)


def _parse_metrics_fast(
    text: str, schema: tuple[str, ...]
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray] | None:
    """``(keys, values, bugs, loc)`` of a plain table, read by numpy's C
    reader, or None wherever the per-cell parser might read the table
    differently or reject it.

    Plain means no quote, carriage return or NUL anywhere, so that a row is
    one line split on commas, as csv reads it; no line longer than csv's
    field limit; and none of the separators U+001C..U+001F, which numpy
    strips from a number as whitespace and float() does not.  The table
    must have data rows, the required columns, rows of the header's width,
    non-blank unique keys, finite values, integral bug counts within 1e-9
    and counts in int64 range; anything else, and any cell numpy cannot
    read, returns None.
    """
    if any(c in text for c in _NOT_PLAIN):  # one C scan per character
        return None
    lines = text.split("\n")
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    header = [h.strip() for h in lines[0].split(",")]
    if any(column not in header for column in (NAME_COLUMN, BUG_COLUMN, *schema)):
        return None
    name_at, commas = header.index(NAME_COLUMN), len(header) - 1
    key_cells, rows = [], []
    for line in lines[1:]:
        cell = line.split(",", name_at + 1)[name_at] if line.count(",") == commas else ""
        if not cell.strip():
            if line.replace(",", "").strip():
                return None  # a short or long row, or a blank key
            continue  # csv skips a row whose every cell is blank
        key_cells.append(cell)
        rows.append(line)
    try:
        keys = [normalize_key(cell) for cell in key_cells]
    except ParseError:
        return None
    if not rows or len(set(keys)) != len(keys):
        return None
    try:
        table = np.loadtxt(
            rows,
            delimiter=",",
            usecols=[header.index(column) for column in (*schema, BUG_COLUMN)],
            comments=None,
            ndmin=2,
        )
    except ValueError:
        return None
    if table.shape != (len(rows), len(schema) + 1) or not np.isfinite(table).all():
        return None
    values = np.ascontiguousarray(table[:, :-1])
    bugs = table[:, -1]
    counts = np.rint(bugs)
    loc_at = _loc_column(schema)
    lines_of_code = np.rint(values[:, loc_at]) if loc_at is not None else np.zeros(len(rows))
    if not (
        (np.abs(bugs - counts) <= 1e-9).all()
        and _in_count_range(counts)
        and _in_count_range(lines_of_code)
    ):
        return None
    return tuple(keys), values, counts.astype(np.int64), lines_of_code.astype(np.int64)


def _in_count_range(counts: np.ndarray) -> bool:
    return bool(((counts >= 0) & (counts < float(_COUNT_LIMIT))).all())


def parse_metrics_csv(
    data: bytes | str,
    schema: Sequence[str],
    version_id: str = "",
) -> VersionSnapshot:
    """Parse one version's metrics table.

    The table must carry a header with a ``name`` column, every metric named
    in ``schema``, and an integer ``bug`` column; extra columns are ignored.
    Rows with duplicate or blank file keys, missing cells, non-numeric
    metric values or a negative line count are rejected.  A file's line
    count is its "loc" metric rounded to an integer.

    A plain table is read whole by numpy (``_parse_metrics_fast``); any
    other, and every rejected one, is read cell by cell, so the per-cell
    parser alone defines what is accepted and every ParseError's text.
    """
    schema = tuple(schema)
    text = _decode(data)
    fast = _parse_metrics_fast(text, schema)
    if fast is not None:
        keys, values, bugs, loc = fast
        return VersionSnapshot(
            version_id=version_id, schema=schema, keys=keys, values=values, bugs=bugs, loc=loc
        )
    positions, rows = _read_table(text, (NAME_COLUMN, BUG_COLUMN, *schema))
    cells = [(positions[m], m) for m in schema]
    loc_at = _loc_column(schema)
    seen: set[str] = set()
    keys, values, bugs, locs = [], [], [], []
    for row_no, row in rows:
        key = _parse_key(row[positions[NAME_COLUMN]], row_no)
        if key in seen:
            raise ParseError(f"row {row_no}: duplicate file key {key!r}")
        seen.add(key)
        keys.append(key)
        metrics = [_parse_number(row[i], row_no, m) for i, m in cells]
        values.append(metrics)
        bugs.append(_parse_count(row[positions[BUG_COLUMN]], row_no, BUG_COLUMN))
        if loc_at is not None:
            loc = int(round(metrics[loc_at]))
            if not 0 <= loc < _COUNT_LIMIT:
                raise ParseError(
                    f"row {row_no}, column {schema[loc_at]!r}: "
                    f"expected a non-negative line count, got {metrics[loc_at]!r}"
                )
            locs.append(loc)
    return VersionSnapshot(
        version_id=version_id,
        schema=schema,
        keys=tuple(keys),
        values=np.array(values, dtype=float).reshape(len(keys), len(schema)),
        bugs=np.array(bugs, dtype=np.int64),
        loc=np.array(locs, dtype=np.int64) if loc_at is not None else np.zeros(len(keys), np.int64),
    )


def parse_process_csv(data: bytes | str) -> dict[tuple[str, str], tuple[int, int]]:
    """Parse a companion change table with columns version,name,add,del."""
    positions, rows = _read_table(data, ("version", "name", "add", "del"))
    entries: dict[tuple[str, str], tuple[int, int]] = {}
    for row_no, row in rows:
        version = row[positions["version"]].strip()
        key = _parse_key(row[positions["name"]], row_no)
        added = _parse_count(row[positions["add"]], row_no, "add")
        deleted = _parse_count(row[positions["del"]], row_no, "del")
        if (version, key) in entries:
            raise ParseError(f"row {row_no}: duplicate entry for {version!r}/{key!r}")
        entries[(version, key)] = (added, deleted)
    return entries


def attach_process_metrics(
    history: ProjectHistory,
    add_del: Mapping[tuple[str, str], tuple[int, int]],
) -> ProjectHistory:
    """Append the columns [add, del, cadd, cdel] to every version's matrix.

    Per-version added/deleted line counts come from ``add_del``; files with
    no entry get 0/0 for that version.  The cumulative columns accumulate in
    ascending version order from each file's first appearance.
    """
    files = {v.version_id: v.files for v in history.versions}
    for version_id, key in add_del:
        if version_id not in files:
            raise ValueError(f"process entry references unknown version {version_id!r}")
        if key not in files[version_id]:
            raise ValueError(
                f"process entry references unknown file {key!r} in version {version_id!r}"
            )

    cumulative: dict[str, tuple[int, int]] = {}
    versions = []
    for snap in history.versions:
        block = []
        for key in snap.keys:
            added, deleted = add_del.get((snap.version_id, key), (0, 0))
            prev_add, prev_del = cumulative.get(key, (0, 0))
            cumulative[key] = (prev_add + added, prev_del + deleted)
            block.append((added, deleted, *cumulative[key]))
        versions.append(
            replace(
                snap,
                schema=snap.schema + PROCESS_METRICS,
                values=np.hstack([snap.values, np.array(block, dtype=float).reshape(-1, 4)]),
            )
        )
    return ProjectHistory(name=history.name, versions=tuple(versions))
