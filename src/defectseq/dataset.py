"""Ingestion of per-version metrics tables and bug labels.

A project is described by an ordered sequence of version snapshots.  A
snapshot is one table in array form: its file keys (directory path + file
name, or a fully qualified class name in PROMISE-style data) in table
order, an ``(n, d)`` matrix of their metric values, and per-file bug counts
and line counts; ``files`` maps each key to its row.  Process metrics (lines
added/deleted plus their running totals) can be appended to every version's
matrix as four columns, from one change table per version that lists only
that version's own files.

Every table read cell by cell, here and in ``cli``, goes through one row
reader, ``read_rows``: a table declares its columns, each with a parser
of the shared signature ``parser(cell, row, column)`` (``parse_key``,
``parse_name``, ``parse_number``, ``parse_count``), and adds its own row
checks after the parse.  The first fault in row order, then in declared
column order, is the one named.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Mapping, Sequence

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


def parse_number(cell: str, row: int, column: str) -> float:
    """A finite number."""
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(
            f"row {row}, column {column!r}: non-numeric cell {cell!r}"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"row {row}, column {column!r}: non-finite cell {cell!r}")
    return value


def parse_count(cell: str, row: int, column: str) -> int:
    """A non-negative integer within int64, written whole or to within 1e-9."""
    value = parse_number(cell, row, column)
    count = int(round(value))
    if abs(value - count) > 1e-9 or not 0 <= count < _COUNT_LIMIT:
        raise ParseError(
            f"row {row}, column {column!r}: expected non-negative integer, got {value!r}"
        )
    return count


def parse_key(cell: str, row: int, column: str) -> str:
    """A file key, by ``normalize_key``."""
    try:
        return normalize_key(cell)
    except ParseError as exc:
        raise ParseError(f"row {row}: {exc}") from None


def parse_name(cell: str, row: int, column: str) -> str:
    """A name cell as written, which must not be blank."""
    if not cell.strip():
        raise ParseError(f"row {row}, column {column!r}: blank cell {cell!r}")
    return cell


def _decode(data: bytes | str) -> str:
    """A table's text; bytes that are not UTF-8 raise ParseError naming the
    csv record of the first bad byte."""
    try:
        return data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        # the records of the text before the byte, and of one placeholder
        # in its place; an earlier record csv cannot read is named instead
        before = io.StringIO(data[: exc.start].decode("utf-8") + "?", newline="")
        row = 0
        try:
            for row, _ in enumerate(csv.reader(before), start=1):
                pass
        except csv.Error as error:
            raise ParseError(f"row {row + 1}: {error}") from None
        raise ParseError(f"row {row}: not UTF-8 text") from None


def read_rows(
    data: bytes | str, columns: Sequence[tuple[str, Callable[[str, int, str], Any]]]
) -> Iterator[tuple[int, list]]:
    """The non-blank rows of a CSV table as (row number, cells), each cell
    of ``columns`` read by its parser as ``parser(cell, row number,
    column)``, in row order and then in ``columns`` order.

    The header must name every column of ``columns`` once (others are
    ignored, and may repeat); a missing or repeated column, a row whose
    cell count differs from the header's, a row csv cannot read and each
    parser's own refusal raise ParseError naming the column or row.  A row
    whose every cell is blank is skipped and keeps its number.
    """
    # newline="" as csv asks of a file: a record ends at LF, CRLF or CR
    reader = csv.reader(io.StringIO(_decode(data), newline=""))
    row_no = 0
    try:
        header = [h.strip() for h in next(reader)]
        for column, _ in columns:
            if column not in header:
                raise ParseError(f"missing column {column!r}")
            if header.count(column) > 1:
                raise ParseError(f"column {column!r} is named twice in the header")
        parsers = [(header.index(column), parse, column) for column, parse in columns]
        for row_no, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            if len(row) != len(header):
                raise ParseError(f"row {row_no}: expected {len(header)} cells, got {len(row)}")
            yield row_no, [parse(row[at], row_no, column) for at, parse, column in parsers]
    except StopIteration:
        raise ParseError("empty input: missing header row") from None
    except csv.Error as exc:
        raise ParseError(f"row {row_no + 1}: {exc}") from None


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
    must have data rows, the required columns each named once, rows of the
    header's width, non-blank unique keys, finite values, integral bug
    counts within 1e-9 and counts in int64 range; anything else, and any
    cell numpy cannot read, returns None.
    """
    if any(c in text for c in _NOT_PLAIN):  # one C scan per character
        return None
    lines = text.split("\n")
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    header = [h.strip() for h in lines[0].split(",")]
    if any(header.count(column) != 1 for column in (NAME_COLUMN, BUG_COLUMN, *schema)):
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
    lines_of_code = _line_counts(values, loc_at)
    if not (
        (np.abs(bugs - counts) <= 1e-9).all()
        and _in_count_range(counts)
        and _in_count_range(lines_of_code)
    ):
        return None
    return tuple(keys), values, counts.astype(np.int64), lines_of_code.astype(np.int64)


def _line_counts(values: np.ndarray, loc_at: int | None) -> np.ndarray:
    """Each row's line count as a float: its rounded "loc" metric, or 0."""
    return np.rint(values[:, loc_at]) if loc_at is not None else np.zeros(len(values))


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
    columns = [(NAME_COLUMN, parse_key), (BUG_COLUMN, parse_count)]
    columns += [(m, parse_number) for m in schema]
    loc_at = _loc_column(schema)
    keys: dict[str, None] = {}
    bugs, values = [], []
    for row_no, (key, bug, *metrics) in read_rows(text, columns):
        if key in keys:
            raise ParseError(f"row {row_no}: duplicate file key {key!r}")
        # the cells that np.rint takes into [0, 2**63)
        if loc_at is not None and not -0.5 <= metrics[loc_at] < _COUNT_LIMIT:
            raise ParseError(
                f"row {row_no}, column {schema[loc_at]!r}: "
                f"expected a non-negative line count, got {metrics[loc_at]!r}"
            )
        keys[key] = None
        bugs.append(bug)
        values.append(metrics)
    table = np.array(values, dtype=float).reshape(len(keys), len(schema))
    return VersionSnapshot(
        version_id=version_id,
        schema=schema,
        keys=tuple(keys),
        values=table,
        bugs=np.array(bugs, dtype=np.int64),
        loc=_line_counts(table, loc_at).astype(np.int64),
    )


# the change table's columns; its version cell is checked against the table's
_CHANGE_COLUMNS = (
    ("version", lambda cell, row, column: cell.strip()),
    ("name", parse_key),
    ("add", parse_count),
    ("del", parse_count),
)


def parse_process_csv(data: bytes | str, snap: VersionSnapshot) -> dict[str, tuple[int, int]]:
    """Parse the change table of version ``snap``: columns
    version,name,add,del, one row per changed file.  Returns ``{file key:
    (added, deleted)}``, one entry per row.  A row must name ``snap``'s
    version and one of its files, each file once; any other row raises
    ParseError naming it."""
    entries: dict[str, tuple[int, int]] = {}
    for row_no, (version, key, added, deleted) in read_rows(data, _CHANGE_COLUMNS):
        if version != snap.version_id:
            raise ParseError(f"row {row_no}: version {version!r} is not this table's version")
        if key not in snap.files:
            raise ParseError(f"row {row_no}: no file {key!r} in version {version!r}")
        if key in entries:
            raise ParseError(f"row {row_no}: duplicate entry for {version!r}/{key!r}")
        entries[key] = (added, deleted)
    return entries


def attach_process_metrics(
    history: ProjectHistory,
    changes: Mapping[str, Mapping[str, tuple[int, int]]],
) -> ProjectHistory:
    """Append the columns [add, del, cadd, cdel] to every version's matrix.

    ``changes`` maps a version id to its parsed change table (see
    ``parse_process_csv``); a version without one, and a file its table
    does not list, get 0/0 for that version.  The cumulative columns
    accumulate in ascending version order from each file's first
    appearance.
    """
    cumulative: dict[str, tuple[int, int]] = {}
    versions = []
    for snap in history.versions:
        add_del = changes.get(snap.version_id, {})
        block = []
        for key in snap.keys:
            added, deleted = add_del.get(key, (0, 0))
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
