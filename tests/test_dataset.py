import csv
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from defectseq import dataset
from defectseq.dataset import (
    ParseError,
    VersionSnapshot,
    attach_process_metrics,
    normalize_key,
    parse_metrics_csv,
    parse_process_csv,
)

from helpers import toy_history

SCHEMA = ("wmc", "loc")


def make_csv(rows, header="name,wmc,loc,bug"):
    return "\n".join([header, *rows]) + "\n"


def row_of(snap, key):
    """Metric values of file ``key``."""
    return snap.values[snap.files[key]].tolist()


def by_key(snap, column):
    """``{key: value}`` of one per-file array: bugs or loc."""
    return {key: int(getattr(snap, column)[row]) for key, row in snap.files.items()}


class TestParseMetricsCsv:
    def test_single_row(self):
        snap = parse_metrics_csv(make_csv(["a/B.java,3,120,3"]), SCHEMA, "1.0")
        assert len(snap.files) == 1
        assert snap.keys == ("a/B.java",) and snap.schema == SCHEMA
        assert row_of(snap, "a/B.java") == [3.0, 120.0]
        assert snap.loc.tolist() == [120]
        assert snap.bugs.tolist() == [3]

    def test_header_only(self):
        snap = parse_metrics_csv(make_csv([]), SCHEMA)
        assert snap.files == {} and snap.keys == ()
        assert snap.values.shape == (0, 2) and snap.bugs.shape == snap.loc.shape == (0,)

    def test_nan_cell_rejected(self):
        with pytest.raises(ParseError, match="wmc"):
            parse_metrics_csv(make_csv(["a,NaN,10,0"]), SCHEMA)

    def test_non_numeric_cell_names_row_and_column(self):
        with pytest.raises(ParseError, match=r"row 3.*loc"):
            parse_metrics_csv(make_csv(["a,1,10,0", "b,2,ten,0"]), SCHEMA)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_metrics_csv(make_csv(["a,1,10,0", "a,2,20,0"]), SCHEMA)

    def test_missing_column_rejected(self):
        with pytest.raises(ParseError, match="bug"):
            parse_metrics_csv("name,wmc,loc\na,1,10\n", SCHEMA)

    def test_extra_columns_ignored(self):
        text = "version,name,wmc,loc,bug,notes\n1.0,a,1,10,0,hello\n"
        snap = parse_metrics_csv(text, SCHEMA)
        assert row_of(snap, "a") == [1.0, 10.0]

    def test_negative_bug_rejected(self):
        with pytest.raises(ParseError, match="bug"):
            parse_metrics_csv(make_csv(["a,1,10,-1"]), SCHEMA)

    def test_bytes_accepted(self):
        snap = parse_metrics_csv(make_csv(["a,1,10,2"]).encode(), SCHEMA)
        assert by_key(snap, "bugs") == {"a": 2}

    def test_round_trip_preserves_multiset(self):
        text = make_csv(["c,0,1,7", "a,1,10,2", "b,2.5,20,0", "d,0.1,1e-3,1"])
        snap = parse_metrics_csv(text, SCHEMA, "1.0")
        assert {k: row_of(snap, k) for k in snap.files} == {
            "a": [1.0, 10.0],
            "b": [2.5, 20.0],
            "c": [0.0, 1.0],
            "d": [0.1, 0.001],
        }
        assert by_key(snap, "bugs") == {"a": 2, "b": 0, "c": 7, "d": 1}

    @pytest.mark.parametrize("cell", ["", "   "])
    def test_blank_key_names_row(self, cell):
        with pytest.raises(ParseError, match=r"^row 3: empty file key$"):
            parse_metrics_csv(make_csv(["a,1,10,0", f"{cell},2,20,0"]), SCHEMA)

    @pytest.mark.parametrize("loc", ["-1", "-0.6"])
    def test_negative_loc_names_row_and_column(self, loc):
        expected = r"^row 2, column 'loc': expected a non-negative line count"
        with pytest.raises(ParseError, match=expected):
            parse_metrics_csv(make_csv([f"a,1,{loc},0"]), SCHEMA)

    def test_loc_rounding_to_zero_accepted(self):
        # the line count is the rounded cell, so -0.4 counts as 0 lines
        assert parse_metrics_csv(make_csv(["a,1,-0.4,0"]), SCHEMA).loc.tolist() == [0]

    @pytest.mark.parametrize("row", ["a,1,10", "a,1,10,0,9"])
    def test_short_or_long_row_rejected(self, row):
        with pytest.raises(ParseError, match=r"^row 2: expected 4 cells, got [35]$"):
            parse_metrics_csv(make_csv([row]), SCHEMA)

    def test_carriage_return_ends_a_row(self):
        snap = parse_metrics_csv("name,wmc,loc,bug\ra,1,10,0\rb,2,20,1\r", SCHEMA)
        assert snap.keys == ("a", "b") and snap.bugs.tolist() == [0, 1]
        with pytest.raises(ParseError, match=r"^row 3: expected 4 cells, got 2$"):
            parse_metrics_csv(make_csv(["a,1,10,0", "b,2\r5,20,0"]), SCHEMA)

    def test_unreadable_row_names_row(self):
        # a cell beyond csv's field limit is an error of csv itself
        key = "k" * (csv.field_size_limit() + 1)
        with pytest.raises(ParseError, match=r"^row 3: field larger than field limit"):
            parse_metrics_csv(make_csv(["a,1,10,0", f"{key},2,20,0"]), SCHEMA)

    @pytest.mark.parametrize(
        "parse, data",
        [
            (
                lambda data: parse_metrics_csv(data, SCHEMA),
                b"name,wmc,loc,bug\na,1,10,0\nb\xe9,2,20,0\n",
            ),
            (parse_process_csv, b"version,name,add,del\n1.0,a,3,1\n1.0,b\xff,3,1\n"),
        ],
        ids=["metrics", "changes"],
    )
    def test_non_utf8_byte_names_row(self, parse, data):
        with pytest.raises(ParseError, match=r"^row 3: not UTF-8 text$"):
            parse(data)

    def test_count_beyond_int64_rejected(self):
        with pytest.raises(ParseError, match="row 2, column 'loc'"):
            parse_metrics_csv(make_csv(["a,1,1e19,0"]), SCHEMA)
        with pytest.raises(ParseError, match="row 2, column 'bug'"):
            parse_metrics_csv(make_csv(["a,1,10,1e19"]), SCHEMA)


# a cell as a table writer might emit it, with the value it must parse to
NUMBER_CELLS = st.one_of(
    st.integers(-10**6, 10**6).map(lambda n: str(n)),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-1000, 1000).map(lambda n: f"{n}.5"),
)
LOC_CELLS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.integers(0, 10**6).map(lambda n: f"{n}.5"),
    st.floats(0, 1e6, allow_nan=False, allow_infinity=False).map(repr),
)
COUNT_CELLS = st.integers(0, 50).flatmap(lambda n: st.sampled_from([str(n), f"{n}.0"]))
KEY_CELLS = st.tuples(
    st.sampled_from(["", " ", "  "]),
    st.text("abcXYZ/._$0123", min_size=1, max_size=8),
    st.sampled_from(["", " ", "\t"]),
)


class TestParseOracle:
    """The parsed arrays equal a cell-by-cell reading of the table."""

    @settings(max_examples=60, deadline=None)
    @given(
        with_loc=st.booleans(),
        rows=st.lists(
            st.tuples(KEY_CELLS, NUMBER_CELLS, LOC_CELLS, COUNT_CELLS),
            max_size=8,
            unique_by=lambda r: r[0][1],
        ),
    )
    def test_arrays_match_per_cell_oracle(self, with_loc, rows):
        schema = ("wmc", "loc") if with_loc else ("wmc",)
        header = "name,wmc,loc,bug" if with_loc else "name,wmc,bug"
        lines = []
        for (pre, key, post), wmc, loc, bug in rows:
            cells = [f"{pre}{key}{post}", wmc, *([loc] if with_loc else []), bug]
            lines.append(",".join(cells))
        snap = parse_metrics_csv(make_csv(lines, header), schema)
        assert snap.keys == tuple(key for (_, key, _), *_ in rows)
        expected = [[float(wmc), *([float(loc)] if with_loc else [])] for _, wmc, loc, _ in rows]
        assert snap.values.tolist() == expected
        assert snap.values.shape == (len(rows), len(schema))
        assert snap.bugs.tolist() == [int(float(bug)) for *_, bug in rows]
        locs = [int(round(float(loc))) if with_loc else 0 for _, _, loc, _ in rows]
        assert snap.loc.tolist() == locs
        assert snap.bugs.dtype == snap.loc.dtype == np.int64


def outcome(data, schema):
    """What parse_metrics_csv makes of a table: the snapshot's keys, arrays
    (values by float.hex) and layout, or the exception's type and text."""
    try:
        snap = parse_metrics_csv(data, schema)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    arrays = (snap.values, snap.bugs, snap.loc)
    return (
        snap.keys,
        [float(x).hex() for x in snap.values.ravel()],
        snap.bugs.tolist(),
        snap.loc.tolist(),
        [(a.shape, a.dtype.str, a.flags.c_contiguous) for a in arrays],
    )


def per_cell_outcome(data, schema):
    """``outcome`` with the numpy reader off: every table read cell by cell."""
    with mock.patch.object(dataset, "_parse_metrics_fast", lambda text, schema: None):
        return outcome(data, schema)


# cells that numpy and float() might read differently, or that one rejects
ODD_CELLS = st.sampled_from([
    "nan", "-inf", "Infinity", "1e400", "1e-400", "-0", "+3", "1.", ".5", "1E3",
    "1_0", "\u0663", "\uff11", "0x10", "1d5", "", " ", "1 2", "#1", "1#", " 7 ",
    "\t8", "\xa09", "\u20031", "1\x0c", "\x0b2", "\x1c1", "1\x1f", "\x851", "\u20284",
])
COUNT_ODD = st.sampled_from([
    "2.0", "1.0000000001", "0.99999999995", "1.000001", "2.5", "-1", "-0", "-1e-10",
    "0.5", "1e19", "9223372036854775807", "9.2e18", "1_0", "nan", "", "\u0663", " 4 ",
])
KEY_ODD = st.sampled_from([
    "", " ", "\t", "dup", "#k", "\xe9/\xfc", "\xa0d", "k\x1c", "\u2028k", 'q"k', '"x,y"',
])
# lines csv skips: no cells, or only blank ones
BLANK_LINES = st.sampled_from(["", "  ", ",,,", " , ,\t, ", "\t", ",", "\xa0"])


@st.composite
def mutated_tables(draw):
    """A metrics table, mostly well formed, with some of: odd cells, short
    and long rows, blank rows, duplicate and blank keys, quotes, CR/CRLF
    line ends, NUL, and no rows at all."""
    with_loc = draw(st.booleans())
    schema = ("wmc", "loc") if with_loc else ("wmc",)
    columns = draw(st.permutations(["name", "wmc", "loc", "bug", "notes"][: 4 + draw(st.booleans())]))
    # the share of odd cells; "one" makes exactly one cell odd
    odd = draw(st.sampled_from([0.0, "one", "one", 0.05, 0.3]))
    n_rows = draw(st.integers(0, 6))
    target = (draw(st.integers(0, max(n_rows - 1, 0))), draw(st.sampled_from(columns)))
    lines = [",".join(columns)]
    for i in range(n_rows):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(BLANK_LINES))
            continue
        row = []
        for column in columns:
            if odd == "one":
                mutate = (i, column) == target
            else:
                mutate = draw(st.floats(0, 1)) < odd
            if column == "name":
                row.append(draw(KEY_ODD) if mutate else draw(KEY_CELLS.map("".join)) + str(i))
            elif column == "bug":
                row.append(draw(COUNT_ODD) if mutate else draw(COUNT_CELLS))
            elif column == "notes":
                row.append(draw(st.sampled_from(["", "x", "#", "é"])))
            else:
                row.append(draw(ODD_CELLS) if mutate else draw(LOC_CELLS))
        shape = draw(st.sampled_from(["row"] * 18 + ["short", "long"]))
        if shape == "short":
            row.pop()
        elif shape == "long":
            row.append("9")
        lines.append(",".join(row))
    ends = draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r", "mixed"]))
    if ends == "mixed":
        text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    else:
        text = ends.join(lines) + draw(st.sampled_from([ends, ""]))
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(["\0", '"', "\x1e", "\n"])) + text[at:]
    return text, schema


class TestFastPathMatchesPerCell:
    """The numpy reader and the per-cell parser: the same arrays bit for
    bit, or the same exception and text."""

    @settings(max_examples=150, deadline=None)
    @given(table=mutated_tables(), as_bytes=st.booleans())
    @example(table=("name,wmc,loc,bug\n", SCHEMA), as_bytes=False)
    @example(table=("name,wmc,loc,bug\r\na,1,2,0\r\n", SCHEMA), as_bytes=False)
    @example(table=("name,wmc,loc,bug\na,\x1c1,2,0\n", SCHEMA), as_bytes=False)
    @example(table=("name,wmc,loc,bug\na,1_0,2,0\n", SCHEMA), as_bytes=False)
    @example(table=("name,wmc,loc,bug\na,1,2,0\nb,1,2,1.000001\n", SCHEMA), as_bytes=False)
    @example(table=("name,bug,wmc\na,-1e-10,7\nb,1e19,8\n", ("wmc",)), as_bytes=False)
    @example(table=("name,wmc,loc,bug\na,1,2,0\na,3,4,1\n", SCHEMA), as_bytes=False)
    @example(table=("name,wmc,loc,bug\n ,1,2,0\n", SCHEMA), as_bytes=False)
    @example(table=('name,wmc,loc,bug\n"a",1,2,0\n', SCHEMA), as_bytes=False)
    @example(table=("name,wmc,loc,bug\na,1,2\n", SCHEMA), as_bytes=False)
    @example(table=("name,wmc,loc,bug\na,1#,2,0\n", SCHEMA), as_bytes=False)
    @example(table=("name,wmc,loc,bug\na,nan,2,0\n", SCHEMA), as_bytes=False)
    @example(table=("name,wmc,loc,bug\na,\u0663,2,0\n", SCHEMA), as_bytes=False)
    @example(table=("name,wmc,loc,bug\na,1,2,0\x00\n", SCHEMA), as_bytes=True)
    @example(table=("name,wmc,loc,bug\na,1,2,0\n,,,\nb,1,2,3", SCHEMA), as_bytes=True)
    def test_same_outcome(self, table, as_bytes):
        text, schema = table
        data = text.encode("utf-8") if as_bytes else text
        assert outcome(data, schema) == per_cell_outcome(data, schema)

    def test_clean_table_skips_per_cell_parser(self, monkeypatch):
        rows = [f" org.C{i} ,{i % 7}.25,{10 * i},{i % 3}.0" for i in range(300)]
        data = make_csv([*rows[:150], "", " , , , ", *rows[150:]]).encode("utf-8")

        def per_cell(*args):
            raise AssertionError("a clean table reached the per-cell parser")

        monkeypatch.setattr(dataset, "_parse_number", per_cell)
        monkeypatch.setattr(dataset, "_read_table", per_cell)
        snap = parse_metrics_csv(data, SCHEMA)
        assert snap.keys[:2] == ("org.C0", "org.C1") and len(snap.keys) == 300
        assert snap.values[3].tolist() == [3.25, 30.0]
        assert snap.bugs[:4].tolist() == [0, 1, 2, 0]

    @pytest.mark.parametrize(
        "char", list('"\r\0\x1c\x1d\x1e\x1f'),
        ids=["quote", "CR", "NUL", "U+001C", "U+001D", "U+001E", "U+001F"],
    )
    def test_each_unplain_character_keeps_numpy_off(self, char):
        # anywhere in the text, here inside a key, any of these sends the
        # table to the per-cell parser
        assert dataset._parse_metrics_fast("name,wmc,loc,bug\nab,1,2,0\n", SCHEMA) is not None
        assert dataset._parse_metrics_fast(f"name,wmc,loc,bug\na{char}b,1,2,0\n", SCHEMA) is None

    @pytest.mark.parametrize("text", ["name,wmc,loc,bug", "name,wmc,loc,bug\n", "name,wmc,loc,bug\n\n , ,,\n"])
    def test_header_only_warns_nothing(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            snap = parse_metrics_csv(text, SCHEMA)
        assert snap.keys == () and snap.values.shape == (0, 2) and snap.bugs.shape == (0,)


class TestNormalizeKey:
    def test_trims_whitespace_keeps_case(self):
        assert normalize_key("  Org.Apache.X ") == "Org.Apache.X"

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            normalize_key("   ")


def version(values, schema=SCHEMA, loc=(0,), bugs=(0,), keys=("a",)):
    return VersionSnapshot(
        version_id="1",
        schema=schema,
        keys=keys,
        values=np.asarray(values, dtype=float),
        bugs=np.asarray(bugs, dtype=np.int64),
        loc=np.asarray(loc, dtype=np.int64),
    )


class TestSnapshotRows:
    """A version's metric rows: shape, finiteness and line counts."""

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            version([[1.0]])
        with pytest.raises(ValueError, match="shape"):
            version([1.0, 2.0])

    def test_loc_derived_from_schema(self):
        snap = parse_metrics_csv("name,wmc,loc,bug\na,5,42.4,0\nb,5,42.5,0\nc,5,43.5,0\n", SCHEMA)
        assert snap.loc.tolist() == [42, 42, 44]  # Python's round: half to even
        assert version([[5.0, 42.0]], loc=[42]).loc.tolist() == [42]
        with pytest.raises(ValueError, match="non-negative"):
            version([[5.0, 42.0]], loc=[-1])

    def test_no_loc_column_defaults_zero(self):
        snap = parse_metrics_csv("name,wmc,loc,bug\na,5,42,0\n", ("wmc",))
        assert snap.loc.tolist() == [0]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            version([[np.inf, 1.0]])


class TestAttachProcessMetrics:
    def test_running_sums(self):
        history = toy_history()
        add_del = {
            ("v1", "fA"): (10, 2),
            ("v2", "fA"): (5, 0),
            ("v3", "fA"): (0, 1),
        }
        out = attach_process_metrics(history, add_del)
        rows = [row_of(out.snapshot(v), "fA")[-4:] for v in ("v1", "v2", "v3")]
        assert rows == [
            [10, 2, 10, 2],
            [5, 0, 15, 2],
            [0, 1, 15, 3],
        ]

    def test_newborn_base_case(self):
        out = attach_process_metrics(toy_history(), {("v4", "fD"): (100, 0)})
        assert row_of(out.snapshot("v4"), "fD")[-4:] == [100, 0, 100, 0]

    def test_missing_entries_default_zero(self):
        out = attach_process_metrics(toy_history(), {})
        assert row_of(out.snapshot("v1"), "fA")[-4:] == [0, 0, 0, 0]

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            attach_process_metrics(toy_history(), {("v9", "fA"): (1, 1)})

    def test_unknown_file_rejected(self):
        with pytest.raises(ValueError, match="file"):
            attach_process_metrics(toy_history(), {("v4", "fG"): (1, 1)})

    def test_schema_extended(self):
        out = attach_process_metrics(toy_history(), {})
        history = toy_history()
        for before, after in zip(history.versions, out.versions):
            assert after.schema == before.schema + ("add", "del", "cadd", "cdel")
            assert after.values.shape == (len(before.keys), len(before.schema) + 4)
            np.testing.assert_array_equal(after.values[:, :-4], before.values)
            assert after.keys == before.keys
            assert after.bugs.tolist() == before.bugs.tolist()
            assert after.loc.tolist() == before.loc.tolist()

    def test_cumulative_monotone(self):
        rng = np.random.default_rng(0)
        history = toy_history()
        add_del = {}
        for snap in history.versions:
            for key in snap.files:
                add_del[(snap.version_id, key)] = (
                    int(rng.integers(0, 50)),
                    int(rng.integers(0, 50)),
                )
        out = attach_process_metrics(history, add_del)
        for key in ("fA", "fB", "fE"):
            cadds, cdels = [], []
            for snap in out.versions:
                if key in snap.files:
                    cadds.append(row_of(snap, key)[-2])
                    cdels.append(row_of(snap, key)[-1])
            assert cadds == sorted(cadds)
            assert cdels == sorted(cdels)


class TestParseProcessCsv:
    def test_basic(self):
        entries = parse_process_csv("version,name,add,del\n1.0,a,3,1\n1.1,a,0,2\n")
        assert entries == {("1.0", "a"): (3, 1), ("1.1", "a"): (0, 2)}

    def test_negative_rejected(self):
        with pytest.raises(ParseError):
            parse_process_csv("version,name,add,del\n1.0,a,-3,1\n")

    @pytest.mark.parametrize("row, column", [("1.0,a,3.7,1", "add"), ("1.0,a,3,0.5", "del")])
    def test_fractional_count_rejected(self, row, column):
        expected = f"row 2, column '{column}': expected non-negative integer"
        with pytest.raises(ParseError, match=expected):
            parse_process_csv("version,name,add,del\n" + row + "\n")

    def test_integral_float_accepted(self):
        assert parse_process_csv("version,name,add,del\n1.0,a,3.0,1\n") == {("1.0", "a"): (3, 1)}

    @pytest.mark.parametrize("row, got", [("1.0,a", 2), ("1.0,a,3,1,9", 5)])
    def test_short_or_long_row_rejected(self, row, got):
        with pytest.raises(ParseError, match=rf"^row 2: expected 4 cells, got {got}$"):
            parse_process_csv("version,name,add,del\n" + row + "\n")

    def test_blank_key_names_row(self):
        with pytest.raises(ParseError, match=r"^row 3: empty file key$"):
            parse_process_csv("version,name,add,del\n1.0,a,3,1\n1.0, ,3,1\n")
