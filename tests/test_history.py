from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defectseq.history import (
    Hvsm,
    Lifecycle,
    apply_normalizer,
    average_length,
    classify_file,
    developing_fraction,
    extract_hvsm_set,
    fit_normalizer,
    hvsm_set_to_csv,
    lifecycle_counts,
)

from helpers import hvsm_from_rows, hvsm_set, snapshot, toy_history


@pytest.fixture(scope="module")
def history():
    return toy_history()


class TestClassifyFile:
    # fA..fD mirror developing/newborn files at the anchor, fE..fG dead ones
    @pytest.mark.parametrize(
        "key,expected",
        [
            ("fA", Lifecycle.DEVELOPING),
            ("fB", Lifecycle.DEVELOPING),
            ("fC", Lifecycle.DEVELOPING),
            ("fD", Lifecycle.NEWBORN),
            ("fE", Lifecycle.DEAD),
            ("fF", Lifecycle.DEAD),
            ("fG", Lifecycle.DEAD),
        ],
    )
    def test_states_at_anchor(self, history, key, expected):
        assert classify_file(history, "v4", key) == expected

    def test_unknown_file_rejected(self, history):
        with pytest.raises(KeyError):
            classify_file(history, "v1", "fD")  # fD first appears at v4

    def test_unknown_version_rejected(self, history):
        with pytest.raises(KeyError):
            classify_file(history, "v9", "fA")

    def test_counts_cover_all_files(self, history):
        counts = lifecycle_counts(history, "v4")
        n_present = len(history.snapshot("v4").files)
        assert counts[Lifecycle.DEVELOPING] + counts[Lifecycle.NEWBORN] == n_present
        assert counts[Lifecycle.DEAD] == 3

    def test_developing_fraction(self, history):
        assert developing_fraction(history, "v4") == pytest.approx(3 / 4)


class TestExtractHvsmSet:
    def test_lengths_at_anchor(self, history):
        s = extract_hvsm_set(history, "v4", window=4)
        lengths = {item.key: item.length for item in s.items}
        assert lengths == {"fA": 4, "fB": 3, "fC": 2, "fD": 1}

    def test_window_caps_length(self, history):
        s = extract_hvsm_set(history, "v5", window=2)
        lengths = {item.key: item.length for item in s.items}
        assert lengths == {"fA": 2}

    def test_sequences_end_at_anchor(self, history):
        s = extract_hvsm_set(history, "v4", window=4)
        for item in s.items:
            assert item.version_ids[-1] == "v4"

    def test_newborn_is_single_step(self, history):
        s = extract_hvsm_set(history, "v4", window=4)
        item = {i.key: i for i in s.items}["fD"]
        assert item.length == 1
        v4 = history.snapshot("v4")
        np.testing.assert_array_equal(item.values, v4.values[[v4.files["fD"]]])

    def test_value_count_is_metrics_times_length(self):
        # ten metrics over three steps carry thirty values
        rows = np.arange(30, dtype=float).reshape(3, 10)
        item = hvsm_from_rows(rows, label=1)
        assert item.values.shape == (3, 10) and item.values.size == 30

    def test_window_one_degenerates_to_single_version(self, history):
        s = extract_hvsm_set(history, "v4", window=1)
        assert {item.length for item in s.items} == {1}
        v4 = history.snapshot("v4")
        for item in s.items:
            np.testing.assert_array_equal(item.values[0], v4.values[v4.files[item.key]])

    def test_default_window_spans_full_history(self, history):
        s = extract_hvsm_set(history, "v4")
        assert s.window == 4
        assert {i.key: i.length for i in s.items}["fA"] == 4

    def test_gap_truncates_to_consecutive_suffix(self):
        from defectseq.dataset import ProjectHistory

        def snap(vid, keys):
            return snapshot(vid, ("loc", "x"), {k: [1.0, 1.0] for k in keys})

        gapped = ProjectHistory(
            name="gap",
            versions=(snap("1", ["f"]), snap("2", []), snap("3", ["f"]), snap("4", ["f"])),
        )
        s = extract_hvsm_set(gapped, "4", window=4)
        item = s.items[0]
        assert item.version_ids == ("3", "4")

    def test_labels_binarized_from_anchor(self, history):
        s = extract_hvsm_set(history, "v4", window=4)
        labels = {item.key: item.label for item in s.items}
        assert labels == {"fA": 1, "fB": 0, "fC": 1, "fD": 0}

    def test_items_ordered_by_key(self, history):
        s = extract_hvsm_set(history, "v4", window=4)
        keys = [item.key for item in s.items]
        assert keys == sorted(keys)

    def test_deterministic(self, history):
        a = extract_hvsm_set(history, "v4", window=4)
        b = extract_hvsm_set(history, "v4", window=4)
        assert [i.key for i in a.items] == [i.key for i in b.items]
        for x, y in zip(a.items, b.items):
            assert x.version_ids == y.version_ids
            np.testing.assert_array_equal(x.values, y.values)

    def test_unknown_version_rejected(self, history):
        with pytest.raises(KeyError):
            extract_hvsm_set(history, "v9")

    def test_zero_window_rejected(self, history):
        with pytest.raises(ValueError):
            extract_hvsm_set(history, "v4", window=0)

    def test_average_length(self, history):
        s = extract_hvsm_set(history, "v4", window=4)
        assert average_length(s) == pytest.approx((4 + 3 + 2 + 1) / 4)

    @pytest.mark.parametrize("window", [None, 2])
    def test_items_view_their_length_stacks(self, history, window):
        # the stacks hold the values once: each block is a view into its
        # length's stack, which equals stacking the blocks
        for s in (extract_hvsm_set(history, "v4", window), extract_hvsm_set(history, "v5", window)):
            lengths = [item.length for item in s.items]
            assert [X.shape[0] for _, X in s.by_length] == sorted(set(lengths))
            for idx, X in s.by_length:
                for j, i in enumerate(idx):
                    assert np.shares_memory(s.items[i].values, X)
                    np.testing.assert_array_equal(X[:, j], s.items[i].values)
                    assert s.items[i].length == X.shape[0]
            n = fit_normalizer(s)
            out = apply_normalizer(n, s)
            for (idx, X), (_, Z) in zip(s.by_length, out.by_length):
                np.testing.assert_array_equal(Z, n.transform(X))
                for j, i in enumerate(idx):
                    assert np.shares_memory(out.items[i].values, Z)

    def test_rejects_stacks_that_do_not_hold_the_items(self, history):
        s = extract_hvsm_set(history, "v4", window=4)
        copied = tuple(
            Hvsm(item.key, item.version_ids, item.values.copy(), item.label) for item in s.items
        )
        with pytest.raises(ValueError, match="view into the stack"):
            replace(s, items=copied)  # the old stacks no longer hold the items
        with pytest.raises(ValueError, match="every item once"):
            replace(s, by_length=s.by_length[1:])
        with pytest.raises(ValueError, match="ascending length"):
            replace(s, by_length=s.by_length[::-1])
        restacked = replace(s, items=copied, by_length=None)  # stacks the new items
        for (idx, X), (idx2, X2) in zip(s.by_length, restacked.by_length):
            np.testing.assert_array_equal(idx2, idx)
            np.testing.assert_array_equal(X2, X)


class TestNormalizer:
    def test_single_vector_constant_dims(self):
        s = hvsm_set([(np.array([[2.0, 4.0]]), 0)])
        n = fit_normalizer(s)
        assert n.mean.tolist() == [2.0, 4.0]
        assert n.std.tolist() == [1.0, 1.0]

    def test_population_std(self):
        s = hvsm_set([(np.array([[0.0, 0.0]]), 0), (np.array([[2.0, 2.0]]), 1)])
        n = fit_normalizer(s)
        assert n.mean.tolist() == [1.0, 1.0]
        assert n.std.tolist() == [1.0, 1.0]

    def test_identity_normalizer_is_noop(self):
        s = hvsm_set([(np.array([[1.0, -2.0], [3.0, 0.5]]), 1)])
        n = fit_normalizer(s)
        object.__setattr__(n, "mean", np.zeros(2))
        object.__setattr__(n, "std", np.ones(2))
        out = apply_normalizer(n, s)
        np.testing.assert_array_equal(out.items[0].values, [[1.0, -2.0], [3.0, 0.5]])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_fit_then_apply_standardizes(self, seed):
        rng = np.random.default_rng(seed)
        samples = [(rng.normal(size=(int(rng.integers(1, 4)), 3)) * 5 + 2, 0) for _ in range(6)]
        s = hvsm_set(samples)
        out = apply_normalizer(fit_normalizer(s), s)
        rows = np.vstack([item.values for item in out.items])
        np.testing.assert_allclose(rows.mean(axis=0), 0.0, atol=1e-9)
        for var in rows.var(axis=0):
            assert var == pytest.approx(1.0, abs=1e-9) or var == pytest.approx(0.0, abs=1e-9)

    def test_labels_lengths_order_unchanged(self):
        s = hvsm_set([(np.array([[1.0, 2.0], [3.0, 4.0]]), 1), (np.array([[0.0, 1.0]]), 0)])
        out = apply_normalizer(fit_normalizer(s), s)
        assert [i.label for i in out.items] == [1, 0]
        assert [i.length for i in out.items] == [2, 1]
        assert [i.key for i in out.items] == [i.key for i in s.items]

    def test_schema_mismatch_rejected(self):
        s = hvsm_set([(np.array([[1.0, 2.0]]), 0)])
        other = hvsm_set([(np.array([[1.0, 2.0, 3.0]]), 0)])
        with pytest.raises(ValueError):
            apply_normalizer(fit_normalizer(other), s)

    def test_empty_set_rejected(self):
        from defectseq.history import HvsmSet

        with pytest.raises(ValueError):
            fit_normalizer(HvsmSet(anchor_version="v", items=(), window=1, schema=("m0",)))


def test_debug_csv_dump(history):
    s = extract_hvsm_set(history, "v4", window=4)
    text = hvsm_set_to_csv(s)
    lines = text.strip().splitlines()
    assert lines[0].startswith("name,version,T,step")
    assert len(lines) == 1 + sum(i.length for i in s.items)
