import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defectseq.dataset import ProjectHistory
from defectseq.history import (
    Hvsm,
    HvsmSet,
    anchor_step,
    apply_normalizer,
    average_length,
    developing_fraction,
    extract_hvsm_set,
    fit_normalizer,
    fit_normalizer_rows,
    lifecycle_counts,
)

from helpers import blocks, hvsm_set, lifecycle_states, snapshot, toy_history


@pytest.fixture(scope="module")
def history():
    return toy_history()


class TestClassifyFile:
    # fA..fD mirror developing/newborn files at the anchor, fE..fG dead ones
    @pytest.mark.parametrize(
        "key,expected",
        [
            pytest.param(key, state, id=f"{key}-Lifecycle.{state.upper()}")
            for key, state in (
                ("fA", "developing"),
                ("fB", "developing"),
                ("fC", "developing"),
                ("fD", "newborn"),
                ("fE", "dead"),
                ("fF", "dead"),
                ("fG", "dead"),
            )
        ],
    )
    def test_states_at_anchor(self, history, key, expected):
        assert lifecycle_states(history, extract_hvsm_set(history, "v4"))[key] == expected

    def test_unknown_version_rejected(self, history):
        with pytest.raises(KeyError):
            lifecycle_counts(history, "v9")

    def test_counts_cover_all_files(self, history):
        counts = lifecycle_counts(history, "v4")
        n_present = len(history.snapshot("v4").files)
        assert counts["developing"] + counts["newborn"] == n_present
        assert counts["dead"] == 3

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
        i = [item.key for item in s.items].index("fD")
        assert s.items[i].length == 1
        v4 = history.snapshot("v4")
        np.testing.assert_array_equal(blocks(s)[i], v4.values[[v4.files["fD"]]])

    def test_value_count_is_metrics_times_length(self):
        # ten metrics over three steps carry thirty values
        rows = np.arange(30, dtype=float).reshape(3, 10)
        (_, X), = hvsm_set([(rows, 1)]).by_length
        assert X.shape == (3, 1, 10) and X.size == 30

    def test_window_one_degenerates_to_single_version(self, history):
        s = extract_hvsm_set(history, "v4", window=1)
        assert {item.length for item in s.items} == {1}
        v4 = history.snapshot("v4")
        for item, values in zip(s.items, blocks(s)):
            np.testing.assert_array_equal(values[0], v4.values[v4.files[item.key]])

    def test_default_window_spans_full_history(self, history):
        s = extract_hvsm_set(history, "v4")
        assert len(s.version_ids) == 4
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
        for x, y in zip(blocks(a), blocks(b)):
            np.testing.assert_array_equal(x, y)

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
    def test_stacks_hold_each_files_rows(self, window):
        # every file and version has its own values, so a sample gathered
        # from the wrong row or version shows up
        from defectseq.dataset import ProjectHistory

        presence = {"a": "1234", "b": "234", "c": "4", "d": "124", "e": "34"}
        versions = tuple(
            snapshot(v, ("loc", "x"), {k: [10 * ord(k) + int(v), -int(v)] for k in presence
                                       if v in presence[k]})
            for v in "1234"
        )
        history = ProjectHistory(name="distinct", versions=versions)
        s = extract_hvsm_set(history, "4", window)
        assert [X.shape[0] for _, X in s.by_length] == sorted({i.length for i in s.items})
        for item, values in zip(s.items, blocks(s)):
            expected = [history.snapshot(v).values[history.snapshot(v).files[item.key]]
                        for v in item.version_ids]
            np.testing.assert_array_equal(values, expected)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("missing item", "every item once"),
            ("repeated item", "every item once"),
            ("descending T", "ascending length"),
            ("wrong d", "schema size"),
            ("labels of the wrong length", "one 0/1 label per item"),
            ("a label of 2", "one 0/1 label per item"),
            ("version ids shorter than the longest stack", "span the longest stack"),
        ],
        ids=[
            "missing-item", "repeated-item", "descending-T", "wrong-d",
            "labels-not-one-per-item", "label-not-0-or-1", "version-ids-short",
        ],
    )
    def test_rejects_stacks_that_do_not_match_the_items(self, history, case, message):
        s = extract_hvsm_set(history, "v4", window=4)  # four items of lengths 1..4
        (idx1, X1), *_ = s.by_length
        fields = {
            "missing item": {"by_length": s.by_length[1:]},
            "repeated item": {
                "by_length": ((idx1.repeat(2), X1.repeat(2, axis=1)), *s.by_length[1:])
            },
            "descending T": {"by_length": s.by_length[::-1]},
            "wrong d": {"by_length": tuple((idx, X[..., :1]) for idx, X in s.by_length)},
            "labels of the wrong length": {"labels": s.labels[1:]},
            "a label of 2": {"labels": 2 * s.labels},
            "version ids shorter than the longest stack": {"version_ids": s.version_ids[1:]},
        }[case]
        with pytest.raises(ValueError, match=message):
            replace(s, **fields)
        HvsmSet(s.version_ids, s.keys, s.labels, s.schema, s.by_length)  # the intact set


def walked_set(history, v, window):
    """``extract_hvsm_set`` by walking each file back through the earlier
    versions one step at a time: the reference for the gathered runs."""
    anchor_idx = history.index(v)
    versions = history.versions
    anchor = versions[anchor_idx]
    keys = tuple(sorted(anchor.files))
    runs, walks = {}, []
    for i, key in enumerate(keys):
        rows = [anchor.files[key]]
        start = anchor_idx
        while start > 0 and len(rows) < window and key in versions[start - 1].files:
            start -= 1
            rows.append(versions[start].files[key])
        runs.setdefault(len(rows), []).append(i)
        walks.append(rows)
    by_length = []
    for T in sorted(runs):
        first = anchor_idx - T + 1
        stack = np.empty((T, len(runs[T]), len(anchor.schema)))
        for t in range(T):
            stack[t] = versions[first + t].values[[walks[i][T - 1 - t] for i in runs[T]]]
        by_length.append((np.asarray(runs[T], dtype=np.intp), stack))
    oldest = anchor_idx + 1 - max(runs, default=1)
    labels = (anchor.bugs[[rows[0] for rows in walks]] > 0).astype(int)
    ids = tuple(snap.version_id for snap in versions[oldest : anchor_idx + 1])
    return ids, keys, labels, by_length


def drawn_history(presence, seed) -> ProjectHistory:
    """File f{j} is present in version v{i} where presence[j][i]; rows are
    shuffled per version, so a file's row differs across versions."""
    rng = np.random.default_rng(seed)
    versions = []
    for i in range(6):
        keys = [f"f{j:02d}" for j, row in enumerate(presence) if row[i]]
        keys = [keys[k] for k in rng.permutation(len(keys))]
        rows = {key: rng.uniform(0, 100, size=2).tolist() for key in keys}
        bugs = {key: int(rng.integers(0, 3)) for key in keys}
        versions.append(snapshot(f"v{i}", ("loc", "x"), rows, bugs))
    return ProjectHistory("drawn", tuple(versions))


drawn = given(
    presence=st.lists(st.lists(st.booleans(), min_size=6, max_size=6), max_size=12),
    anchor=st.integers(0, 5),
    window=st.none() | st.integers(1, 7),
    seed=st.integers(0, 2**16),
)


class TestExtractionMatchesWalk:
    @settings(max_examples=60, deadline=None)
    @drawn
    def test_same_arrays_bit_for_bit(self, presence, anchor, window, seed):
        history = drawn_history(presence, seed)
        s = extract_hvsm_set(history, f"v{anchor}", window)
        ids, keys, labels, by_length = walked_set(history, f"v{anchor}", window or anchor + 1)
        assert s.version_ids == ids and s.keys == keys
        assert s.labels.dtype == labels.dtype and np.array_equal(s.labels, labels)
        assert len(s.by_length) == len(by_length)
        for (idx, X), (ref_idx, ref_X) in zip(s.by_length, by_length):
            assert idx.dtype == ref_idx.dtype and np.array_equal(idx, ref_idx)
            assert X.shape == ref_X.shape and X.tobytes() == ref_X.tobytes()

    @settings(max_examples=60, deadline=None)
    @drawn
    def test_anchor_step_is_a_window_of_one(self, presence, anchor, window, seed):
        # the baselines' rows: each sample's last step, as extracting only
        # the anchor version gives them
        history = drawn_history(presence, seed)
        got = anchor_step(extract_hvsm_set(history, f"v{anchor}", window))
        want = extract_hvsm_set(history, f"v{anchor}", 1)
        assert got.version_ids == want.version_ids and got.keys == want.keys
        assert got.labels.dtype == want.labels.dtype and np.array_equal(got.labels, want.labels)
        assert len(got.by_length) == len(want.by_length)
        for (idx, X), (want_idx, want_X) in zip(got.by_length, want.by_length):
            assert np.array_equal(idx, want_idx)
            assert X.shape == want_X.shape and X.tobytes() == want_X.tobytes()


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
        np.testing.assert_array_equal(blocks(out)[0], [[1.0, -2.0], [3.0, 0.5]])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_fit_then_apply_standardizes(self, seed):
        rng = np.random.default_rng(seed)
        samples = [(rng.normal(size=(int(rng.integers(1, 4)), 3)) * 5 + 2, 0) for _ in range(6)]
        s = hvsm_set(samples)
        out = apply_normalizer(fit_normalizer(s), s)
        rows = np.vstack(blocks(out))
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
        with pytest.raises(ValueError):
            fit_normalizer(HvsmSet(("v",), (), None, ("m0",), by_length=()))

    @pytest.mark.parametrize("cells", [1, 2], ids=["spread-overflows", "mean-overflows"])
    def test_overflowing_column_is_named(self, cells):
        # one 1e308 cell overflows the squared deviations (std inf, so the
        # column would z-score to zeros); two overflow the sum (mean inf)
        rows = np.tile([1.0, 2.0, 3.0], (4, 1))
        rows[:, 1] = [1.0, 2.0, 3.0, 4.0]
        rows[:cells, 2] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                fit_normalizer_rows(rows, ("a", "b", "wmc"))
        assert str(err.value) == "metric 'wmc' overflows z-scoring: its mean or spread is not finite"

    def test_large_finite_column_still_fits(self):
        rows = np.array([[1e150, 0.0], [-1e150, 1.0]])
        n = fit_normalizer_rows(rows, ("a", "b"))
        assert n.mean.tolist() == [0.0, 0.5] and n.std.tolist() == [1e150, 0.5]

    def test_fit_reads_rows_in_item_order(self):
        # a mean over rows adds them in sequence, so the rows must come in
        # item order, not grouped by length, for the bits to match
        rng = np.random.default_rng(3)
        samples = [(rng.normal(size=(T, 3)) * 10.0 ** rng.integers(-3, 4), 0)
                   for T in (3, 1, 2, 3, 1, 1, 2, 3, 2, 1)]
        s = hvsm_set(samples)
        fit = fit_normalizer(s)
        expected = fit_normalizer_rows(np.vstack([rows for rows, _ in samples]), s.schema)
        for got, want in ((fit.mean, expected.mean), (fit.std, expected.std)):
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]
