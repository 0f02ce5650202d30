import numpy as np
import pytest
from hypothesis import given, strategies as st

from defectseq.dataset import (
    ParseError,
    attach_process_metrics,
    binarize_label,
    make_metric_vector,
    normalize_key,
    parse_metrics_csv,
    parse_process_csv,
)

from helpers import toy_history

SCHEMA = ("wmc", "loc")


def make_csv(rows, header="name,wmc,loc,bug"):
    return "\n".join([header, *rows]) + "\n"


class TestParseMetricsCsv:
    def test_single_row(self):
        snap = parse_metrics_csv(make_csv(["a/B.java,3,120,3"]), SCHEMA, "1.0")
        assert len(snap.files) == 1
        vec = snap.files["a/B.java"]
        assert vec.values.tolist() == [3.0, 120.0]
        assert vec.loc == 120
        assert snap.labels["a/B.java"] == 3

    def test_header_only(self):
        snap = parse_metrics_csv(make_csv([]), SCHEMA)
        assert snap.files == {} and snap.labels == {}

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
        assert snap.files["a"].values.tolist() == [1.0, 10.0]

    def test_negative_bug_rejected(self):
        with pytest.raises(ParseError, match="bug"):
            parse_metrics_csv(make_csv(["a,1,10,-1"]), SCHEMA)

    def test_bytes_accepted(self):
        snap = parse_metrics_csv(make_csv(["a,1,10,2"]).encode(), SCHEMA)
        assert snap.labels["a"] == 2

    def test_round_trip_preserves_multiset(self):
        text = make_csv(["c,0,1,7", "a,1,10,2", "b,2.5,20,0", "d,0.1,1e-3,1"])
        snap = parse_metrics_csv(text, SCHEMA, "1.0")
        assert {k: v.values.tolist() for k, v in snap.files.items()} == {
            "a": [1.0, 10.0],
            "b": [2.5, 20.0],
            "c": [0.0, 1.0],
            "d": [0.1, 0.001],
        }
        assert snap.labels == {"a": 2, "b": 0, "c": 7, "d": 1}


class TestNormalizeKey:
    def test_trims_whitespace_keeps_case(self):
        assert normalize_key("  Org.Apache.X ") == "Org.Apache.X"

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            normalize_key("   ")


class TestBinarizeLabel:
    @pytest.mark.parametrize("count,expected", [(0, 0), (1, 1), (7, 1)])
    def test_values(self, count, expected):
        assert binarize_label(count) == expected

    @given(st.integers(min_value=0, max_value=10**6))
    def test_idempotent_through_binary(self, count):
        once = binarize_label(count)
        assert binarize_label(once) == once

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binarize_label(-1)


class TestMetricVector:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            make_metric_vector([1.0], SCHEMA)

    def test_loc_derived_from_schema(self):
        vec = make_metric_vector([5, 42], SCHEMA)
        assert vec.loc == 42

    def test_no_loc_column_defaults_zero(self):
        vec = make_metric_vector([5.0], ("wmc",))
        assert vec.loc == 0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            make_metric_vector([np.inf, 1], SCHEMA)


class TestAttachProcessMetrics:
    def test_running_sums(self):
        history = toy_history()
        add_del = {
            ("v1", "fA"): (10, 2),
            ("v2", "fA"): (5, 0),
            ("v3", "fA"): (0, 1),
        }
        out = attach_process_metrics(history, add_del)
        rows = [out.snapshot(v).files["fA"].values[-4:].tolist() for v in ("v1", "v2", "v3")]
        assert rows == [
            [10, 2, 10, 2],
            [5, 0, 15, 2],
            [0, 1, 15, 3],
        ]

    def test_newborn_base_case(self):
        out = attach_process_metrics(toy_history(), {("v4", "fD"): (100, 0)})
        assert out.snapshot("v4").files["fD"].values[-4:].tolist() == [100, 0, 100, 0]

    def test_missing_entries_default_zero(self):
        out = attach_process_metrics(toy_history(), {})
        assert out.snapshot("v1").files["fA"].values[-4:].tolist() == [0, 0, 0, 0]

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            attach_process_metrics(toy_history(), {("v9", "fA"): (1, 1)})

    def test_unknown_file_rejected(self):
        with pytest.raises(ValueError, match="file"):
            attach_process_metrics(toy_history(), {("v4", "fG"): (1, 1)})

    def test_schema_extended(self):
        out = attach_process_metrics(toy_history(), {})
        assert out.snapshot("v1").files["fA"].schema[-4:] == ("add", "del", "cadd", "cdel")

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
                    cadds.append(snap.files[key].values[-2])
                    cdels.append(snap.files[key].values[-1])
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
