import csv
import io
import itertools
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from defectseq.effort import (
    CE_CUTOFFS,
    ScoredColumns,
    UndefinedCeError,
    acc_at_effort,
    auc,
    ce_curve,
    ce_report_values,
    curve_to_csv,
    rank_by_density,
    scored_files,
)
from defectseq.experiment import evaluate_scores


# ---------------------------------------------------------------------------
# independent oracles, on plain rows
# ---------------------------------------------------------------------------

class Row(NamedTuple):
    """One scored file, as the oracles read it."""

    key: str
    score: float
    loc: int
    bugs: int


def columns(rows):
    """The rows' key, LOC and bug columns, which every evaluation function
    takes."""
    return scored_files([f.key for f in rows], [f.loc for f in rows], [f.bugs for f in rows])[0]


def ranked(rows):
    """The rows' columns and the inspection order of their scores."""
    files = columns(rows)
    return files, rank_by_density(files, [f.score for f in rows])


def listed(rows):
    """The rows' columns and the order they are listed in."""
    return columns(rows), np.arange(len(rows))


def ranked_keys(rows):
    files, order = ranked(rows)
    return [files.keys[i] for i in order]


def oracle_vertices(ordering):
    """Cumulative (loc%, bug%) polyline, written independently."""
    total_loc = float(sum(f.loc for f in ordering))
    total_bugs = float(sum(f.bugs for f in ordering))
    xs, ys = [0.0], [0.0]
    for f in ordering:
        xs.append(xs[-1] + f.loc / total_loc)
        ys.append(ys[-1] + (f.bugs / total_bugs if total_bugs else 0.0))
    return np.asarray(xs), np.asarray(ys)


def oracle_area(ordering, pi):
    """Clip the polyline at pi via interpolation, integrate with trapezoid."""
    xs, ys = oracle_vertices(ordering)
    keep = xs < pi
    clipped_x = np.append(xs[keep], pi)
    clipped_y = np.append(ys[keep], np.interp(pi, xs, ys))
    return float(np.trapezoid(clipped_y, clipped_x))


def oracle_ce(files, pi):
    model = sorted(files, key=lambda f: (-(f.score / f.loc), f.loc, f.key))
    optimal = sorted(files, key=lambda f: (-(f.bugs / f.loc), f.loc, f.key))
    a_model = oracle_area(model, pi)
    a_opt = oracle_area(optimal, pi)
    a_rand = pi * pi / 2.0
    return (a_model - a_rand) / (a_opt - a_rand)


def random_instance(rng, max_files=8):
    n = int(rng.integers(1, max_files + 1))
    files = [
        Row(
            key=f"f{i}",
            score=float(rng.uniform()),
            loc=int(rng.integers(1, 101)),
            bugs=int(rng.integers(0, 4)),
        )
        for i in range(n)
    ]
    return files


def instance_is_defined(files):
    if sum(f.bugs for f in files) == 0:
        return False
    optimal = sorted(files, key=lambda f: (-(f.bugs / f.loc), f.loc, f.key))
    return abs(oracle_area(optimal, 1.0) - 0.5) >= 1e-12


# ---------------------------------------------------------------------------
# worked three-file example: scores give f1,f2,f3; actual density f1,f3,f2
# ---------------------------------------------------------------------------

THREE_FILES = [
    Row("f1", score=0.9, loc=10, bugs=1),
    Row("f2", score=0.5, loc=10, bugs=0),
    Row("f3", score=0.9, loc=80, bugs=1),
]
THREE_SCORES = [f.score for f in THREE_FILES]
THREE_LABELS = [int(f.bugs > 0) for f in THREE_FILES]


class TestRankByDensity:
    def test_equal_scores_smaller_loc_first(self):
        files = [Row("big", 0.8, 100, 0), Row("small", 0.8, 10, 0)]
        assert ranked_keys(files) == ["small", "big"]

    def test_singleton(self):
        files = [Row("only", 0.3, 5, 1)]
        assert ranked_keys(files) == ["only"]

    def test_density_tie_broken_by_loc_then_key(self):
        files = [
            Row("f1", 0.9, 10, 1),
            Row("f2", 0.9, 90, 0),
            Row("f3", 0.1, 10, 1),
        ]
        # densities 0.09, 0.01, 0.01; the 0.01 tie goes to the smaller file
        assert ranked_keys(files) == ["f1", "f3", "f2"]

    def test_key_breaks_full_ties(self):
        files = [Row("b", 0.5, 10, 0), Row("a", 0.5, 10, 0)]
        assert ranked_keys(files) == ["a", "b"]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_monotone_density_transform_preserves_everything(self, seed):
        # strictly increasing transforms of score/loc keep orderings intact
        rng = np.random.default_rng(seed)
        files = random_instance(rng)
        transformed = [
            Row(f.key, score=float(np.exp(3 * f.score / f.loc)) * f.loc, loc=f.loc, bugs=f.bugs)
            for f in files
        ]
        assert ranked_keys(files) == ranked_keys(transformed)
        if instance_is_defined(files):
            files, transformed = ranked(files), ranked(transformed)
            for pi in CE_CUTOFFS:
                key = format(pi, "g")
                assert ce_report_values(*files, (pi,))[key] == pytest.approx(
                    ce_report_values(*transformed, (pi,))[key], abs=1e-12
                )
            assert acc_at_effort(*files) == acc_at_effort(*transformed)


class TestCeCurve:
    def test_hand_computed_vertices(self):
        files = [
            Row("a", 1.0, 10, 1),
            Row("b", 0.9, 10, 0),
            Row("c", 0.8, 80, 1),
        ]
        curve = ce_curve(*listed(files))
        np.testing.assert_allclose(
            curve, [(0, 0), (0.1, 0.5), (0.2, 0.5), (1, 1)], atol=1e-12
        )

    def test_single_file(self):
        curve = ce_curve(*listed([Row("a", 0.2, 7, 2)]))
        np.testing.assert_allclose(curve, [(0, 0), (1, 1)], atol=1e-12)

    def test_all_bugs_up_front(self):
        files = [Row("a", 1.0, 25, 3), Row("b", 0.1, 75, 0)]
        curve = ce_curve(*listed(files))
        np.testing.assert_allclose(curve[1], (0.25, 1.0), atol=1e-12)

    def test_coordinates_non_decreasing_and_terminal(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            files = random_instance(rng)
            if sum(f.bugs for f in files) == 0:
                continue
            pts = ce_curve(*ranked(files))
            assert np.all(np.diff(pts[:, 0]) >= 0)
            assert np.all(np.diff(pts[:, 1]) >= 0)
            np.testing.assert_allclose(pts[-1], (1.0, 1.0), atol=1e-12)

    def test_zero_bugs_curve_still_valid(self):
        curve = ce_curve(*listed([Row("a", 0.5, 10, 0)]))
        np.testing.assert_allclose(curve, [(0, 0), (1, 0)], atol=1e-12)

    def test_csv_export_round_trips(self):
        curve = ce_curve(*listed(THREE_FILES))
        text = curve_to_csv(curve)
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        values = np.asarray([[float(a), float(b)] for a, b in rows])
        np.testing.assert_array_equal(values, curve)


class TestCePi:
    def test_worked_example(self):
        # areas 0.675 (model), 0.725 (optimal), 0.5 (random)
        ce = ce_report_values(*ranked(THREE_FILES), (1.0,))["1"]
        assert ce == pytest.approx(0.7778, abs=1e-4)
        assert ce == pytest.approx(oracle_ce(THREE_FILES, 1.0), abs=1e-15)

    def test_optimal_scores_give_one(self):
        files = [Row(f"f{i}", score=(i + 1) * 0.1, loc=10, bugs=i) for i in range(4)]
        # score order equals bug-density order
        ordered = sorted(files, key=lambda f: -f.score)
        assert ranked_keys(ordered) == [
            f.key for f in sorted(files, key=lambda f: (-(f.bugs / f.loc), f.loc, f.key))
        ]
        for pi in CE_CUTOFFS:
            assert ce_report_values(*ranked(files), (pi,))[format(pi, "g")] == pytest.approx(
                1.0, abs=1e-12
            )

    def test_reverse_optimal_no_better_than_random(self):
        files = [
            Row("a", 0.1, 10, 5),
            Row("b", 0.5, 10, 1),
            Row("c", 0.9, 10, 0),
        ]
        assert ce_report_values(*ranked(files), (1.0,))["1"] <= 0.0

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(1234)
        checked = 0
        while checked < 200:
            files = random_instance(rng)
            if not instance_is_defined(files):
                continue
            for pi in CE_CUTOFFS:
                assert ce_report_values(*ranked(files), (pi,))[format(pi, "g")] == pytest.approx(
                    oracle_ce(files, pi), abs=1e-12
                )
            checked += 1

    def test_optimal_matches_best_permutation(self):
        # the density ordering attains the maximum area over all orderings
        rng = np.random.default_rng(99)
        for _ in range(30):
            files = random_instance(rng, max_files=6)
            if not instance_is_defined(files):
                continue
            optimal = sorted(files, key=lambda f: (-(f.bugs / f.loc), f.loc, f.key))
            for pi in (0.3, 1.0):
                best = max(
                    oracle_area(list(perm), pi)
                    for perm in itertools.permutations(files)
                )
                assert oracle_area(optimal, pi) == pytest.approx(best, abs=1e-12)

    def test_zero_bugs_undefined(self):
        with pytest.raises(UndefinedCeError):
            ce_report_values(*ranked([Row("a", 0.5, 10, 0)]), (1.0,))

    def test_degenerate_optimal_undefined(self):
        # one file: optimal curve is the diagonal's chord, denominator 0
        with pytest.raises(UndefinedCeError):
            ce_report_values(*ranked([Row("a", 0.5, 10, 2)]), (1.0,))

    def test_invalid_pi_rejected(self):
        with pytest.raises(ValueError):
            ce_report_values(*ranked(THREE_FILES), (0.0,))


class TestAccAtEffort:
    def test_all_defects_in_budget(self):
        files = [Row("a", 0.9, 10, 1), Row("b", 0.1, 90, 0)]
        assert acc_at_effort(*ranked(files)) == 1.0

    def test_no_defects_in_budget(self):
        files = [Row("a", 0.9, 10, 0), Row("b", 0.1, 90, 1)]
        assert acc_at_effort(*ranked(files)) == 0.0

    def test_partial_file_not_counted(self):
        files = [Row(f"f{i}", 1.0 - i / 10, 10, 1 if i in (0, 9) else 0) for i in range(10)]
        # 20% of 100 LOC inspects exactly two files; one of the two defects
        assert acc_at_effort(*ranked(files)) == 0.5

    def test_no_defective_rejected(self):
        with pytest.raises(ValueError):
            acc_at_effort(*ranked([Row("a", 0.5, 10, 0)]))


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_tied_is_half(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_hand_counted_pairs(self):
        # (0.9>0.6), (0.9>0.1), (0.4<0.6), (0.4>0.1): 3 of 4 pairs
        assert auc([0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([0.5, 0.6], [1, 1])

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 31))
            scores = np.round(rng.uniform(size=n), 1)  # coarse grid forces ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = sum(1.0 for p in pos for q in neg if p > q)
            ties = sum(0.5 for p in pos for q in neg if p == q)
            expected = (wins + ties) / (len(pos) * len(neg))
            assert auc(scores, labels) == pytest.approx(expected, abs=1e-12)


class TestScoredFiles:
    def test_zero_loc_adjusted_and_counted(self):
        files, adjusted = scored_files(["a", "b"], [0, 10], [1, 0])
        assert adjusted == 1
        assert files.loc.tolist() == [1, 10]

    def test_columns(self):
        files, adjusted = scored_files(["a", "b", "c"], [3, 10, -2], [1, 0, 2])
        assert len(files) == 3 and adjusted == 1
        assert files.keys == ("a", "b", "c")
        assert files.loc.tolist() == [3, 10, 1]
        assert files.bugs.tolist() == [1, 0, 2]

    def test_negative_bugs_rejected(self):
        with pytest.raises(ValueError, match="negative bug count for 'a'"):
            ScoredColumns(keys=("a",), loc=np.array([10]), bugs=np.array([-1]))

    def test_negative_bugs_in_columns_named(self):
        with pytest.raises(ValueError, match="negative bug count for 'b'"):
            scored_files(["a", "b"], [10, 10], [1, -1])

    def test_column_lengths_must_match(self):
        # one score per file
        files, _ = scored_files(["a", "b"], [10, 10], [1, 0])
        with pytest.raises(ValueError, match="differ in length"):
            rank_by_density(files, [0.5])

    def test_zero_loc_direct_construction_rejected(self):
        with pytest.raises(ValueError, match="loc must be >= 1 for 'a'"):
            ScoredColumns(keys=("a",), loc=np.array([0]), bugs=np.array([1]))

    def test_zero_loc_direct_column_construction_rejected(self):
        with pytest.raises(ValueError, match="loc must be >= 1 for 'b'"):
            ScoredColumns(
                keys=("a", "b"),
                loc=np.array([10, 0]),
                bugs=np.array([1, 0]),
            )


# ---------------------------------------------------------------------------
# loop-based reference: the row-at-a-time evaluation that the column core
# replaced, kept verbatim so the core can be checked against it bit for bit
# ---------------------------------------------------------------------------

def loop_rank_by_density(files):
    return sorted(files, key=lambda f: (-(f.score / f.loc), f.loc, f.key))


def loop_optimal_ordering(files):
    return sorted(files, key=lambda f: (-(f.bugs / f.loc), f.loc, f.key))


def loop_ce_curve(ordering):
    total_loc = sum(f.loc for f in ordering)
    total_bugs = sum(f.bugs for f in ordering)
    points = np.zeros((len(ordering) + 1, 2))
    cum_loc = 0
    cum_bugs = 0
    for i, f in enumerate(ordering, start=1):
        cum_loc += f.loc
        cum_bugs += f.bugs
        points[i, 0] = cum_loc / total_loc
        points[i, 1] = cum_bugs / total_bugs if total_bugs else 0.0
    return points


def loop_area_under(points, pi):
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points[:-1], points[1:]):
        if x0 >= pi:
            break
        if x1 <= pi:
            area += (x1 - x0) * (y0 + y1) / 2.0
        else:
            y_pi = y0 + (y1 - y0) * (pi - x0) / (x1 - x0)
            area += (pi - x0) * (y0 + y_pi) / 2.0
            break
    return area


def loop_ce_pi(files, pi):
    if sum(f.bugs for f in files) == 0:
        raise UndefinedCeError("no defective files")
    area_model = loop_area_under(loop_ce_curve(loop_rank_by_density(files)), pi)
    area_optimal = loop_area_under(loop_ce_curve(loop_optimal_ordering(files)), pi)
    area_random = pi * pi / 2.0
    denom = area_optimal - area_random
    if abs(denom) < 1e-12:
        raise UndefinedCeError("optimal ordering equals random")
    return (area_model - area_random) / denom


def loop_acc_at_effort(files, effort=0.2):
    defective = sum(1 for f in files if f.bugs > 0)
    if defective == 0:
        raise ValueError("no defective files")
    budget = effort * sum(f.loc for f in files) * (1 + 1e-12)
    cum_loc = 0
    found = 0
    for f in loop_rank_by_density(files):
        cum_loc += f.loc
        if cum_loc > budget:
            break
        if f.bugs > 0:
            found += 1
    return found / defective


def loop_auc(pairs):
    values = np.asarray([s for s, _ in pairs], dtype=float)
    labels = np.asarray([y for _, y in pairs], dtype=int)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(sorted_vals):
        j = i
        while j + 1 < len(sorted_vals) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    rank_sum_pos = float(np.sum(ranks[labels == 1]))
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def outcome(fn, *args):
    """The value, or the exception type, so raising cases compare too."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


# scores and LOCs on small exact grids: equal densities across different
# files (0.25/1 == 0.5/2), equal LOCs, equal scores, zero LOC and zero bugs
tied_files = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h"]),
        st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0]),
        st.sampled_from([0, 1, 2, 4, 8, 16]),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=24,
)


class TestColumnCoreMatchesLoops:
    @settings(max_examples=300, deadline=None)
    @given(tied_files, st.sampled_from([0.05, 0.25, 0.3, 0.75]))
    def test_bitwise_equal(self, rows, extra_pi):
        keys, scores, locs, bugs = (list(c) for c in zip(*rows))
        frame, adjusted = scored_files(keys, locs, bugs)
        assert adjusted == sum(1 for loc in locs if loc < 1)
        files = [Row(k, float(s), max(loc, 1), b) for k, s, loc, b in rows]

        reference = loop_rank_by_density(files)
        order = rank_by_density(frame, scores)
        assert tuple(frame.keys[i] for i in order) == tuple(f.key for f in reference)
        curve = ce_curve(frame, order)
        assert np.array_equal(curve, loop_ce_curve(reference))

        # cutoffs at curve vertices hit the whole-segment boundary exactly
        vertex_pis = [float(x) for x in curve[1:, 0][:3]]
        cutoffs = (*CE_CUTOFFS, extra_pi, *vertex_pis)
        expected = {format(pi, "g"): outcome(loop_ce_pi, files, pi) for pi in cutoffs}
        if all(isinstance(v, float) for v in expected.values()):
            assert ce_report_values(frame, order, cutoffs) == expected
        else:
            with pytest.raises(UndefinedCeError):
                ce_report_values(frame, order, cutoffs)

        def ce_at(pi):
            return ce_report_values(frame, order, (pi,))[format(pi, "g")]

        for pi in cutoffs:
            assert outcome(ce_at, pi) == expected[format(pi, "g")]

        # the same scores on another column set of the same files give the
        # same values
        again = scored_files(keys, locs, bugs)[0]
        again_order = rank_by_density(again, scores)
        assert outcome(ce_report_values, again, again_order, cutoffs) == outcome(
            ce_report_values, frame, order, cutoffs
        )
        assert outcome(acc_at_effort, frame, order) == outcome(loop_acc_at_effort, files)
        labels = [1 if b > 0 else 0 for b in bugs]
        assert outcome(auc, scores, labels) == outcome(loop_auc, list(zip(scores, labels)))

    def test_ranking_is_computed_once_per_column_set(self, monkeypatch):
        files = columns(THREE_FILES)
        calls = []
        real = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or real(keys))
        evaluate_scores(files, THREE_SCORES, THREE_LABELS)
        # one model ranking and one optimal ordering, shared by CE and ACC
        assert len(calls) == 2

    def test_rescoring_shares_the_optimal_ordering(self, monkeypatch):
        frame = columns(THREE_FILES)
        calls = []
        real = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or real(keys))
        first = evaluate_scores(frame, THREE_SCORES, THREE_LABELS)
        again = evaluate_scores(frame, THREE_SCORES, THREE_LABELS)
        flipped = evaluate_scores(frame, [-s for s in THREE_SCORES], THREE_LABELS)
        # the optimal ordering once, then one model ranking per scoring
        assert len(calls) == 4
        assert first == again == evaluate_scores(columns(THREE_FILES), THREE_SCORES, THREE_LABELS)
        assert flipped != first


def csv_writer_curve(points):
    """The CSV form written with ``csv.writer`` and ``repr``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["loc_fraction", "bug_fraction"])
    for x, y in points:
        writer.writerow([repr(float(x)), repr(float(y))])
    return out.getvalue()


class TestCurveCsv:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(allow_nan=True), st.floats(allow_nan=True)), max_size=40
        )
    )
    # equal bug fractions of different reprs: 0.0 and -0.0, and NaNs
    @example([(0.0, 0.0), (0.5, -0.0), (0.7, 0.0), (0.9, float("nan")), (1.0, -float("nan"))])
    def test_equals_csv_writer_form(self, points):
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        assert curve_to_csv(points) == csv_writer_curve(points)
