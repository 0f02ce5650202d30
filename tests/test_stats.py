import itertools
import math

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import given, settings, strategies as st

from defectseq import stats
from defectseq.stats import (
    NEGLIGIBLE_DELTA,
    Outcome,
    chi2_sf,
    cliffs_delta,
    norm_sf,
    rankdata,
    scott_knott,
    wilcoxon_signed_rank,
    win_tie_loss,
)


# ---------------------------------------------------------------------------
# enumeration oracles
# ---------------------------------------------------------------------------

def oracle_wilcoxon_p(a, b):
    """Exact two-sided p by walking every one of the 2^n sign assignments."""
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    diff = diff[diff != 0]
    n = diff.size
    if n == 0:
        return 1.0
    # average ranks of |diff|, computed from scratch
    order = sorted(range(n), key=lambda i: abs(diff[i]))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(diff[order[j + 1]]) == abs(diff[order[i]]):
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    observed = sum(r for r, d in zip(ranks, diff) if d > 0)
    n_le = n_ge = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        n_le += w <= observed
        n_ge += w >= observed
    total = 2.0**n
    return min(1.0, 2.0 * min(n_le / total, n_ge / total))


def oracle_cliffs(a, b):
    gt = sum(1 for x in a for y in b if x > y)
    lt = sum(1 for x in a for y in b if x < y)
    return (gt - lt) / (len(a) * len(b))


class TestDistributionFunctions:
    """The numpy/math replacements against scipy.stats."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, 3.0])
            | st.floats(allow_nan=False, min_value=-1e6, max_value=1e6),
            min_size=1,
            max_size=60,
        )
    )
    def test_rankdata_bitwise_equal_to_scipy(self, values):
        ours = rankdata(np.asarray(values))
        theirs = sps.rankdata(values, method="average")
        assert ours.dtype == theirs.dtype
        assert np.array_equal(ours, theirs)

    def test_rankdata_nan_propagates_like_scipy(self):
        values = [2.0, np.nan, 1.0, 2.0]
        assert np.array_equal(
            rankdata(values), sps.rankdata(values, method="average"), equal_nan=True
        )

    def test_chi2_sf_matches_scipy(self):
        # both branches (the series below x/2 = nu/2 + 1, the continued
        # fraction above) at every Scott-Knott nu up to 60 techniques, out to
        # tails near 1e-216
        xs = np.concatenate([np.geomspace(1e-6, 1.2e3, 300), np.linspace(1.0, 1.2e3, 300)])
        for k in range(1, 61):
            nu = k / (math.pi - 2)
            for x in xs:
                assert chi2_sf(x, nu) == pytest.approx(sps.chi2.sf(x, nu), rel=1e-12, abs=0)

    def test_chi2_sf_ends(self):
        assert chi2_sf(0.0, 1.0) == 1.0
        assert chi2_sf(math.inf, 1.0) == 0.0

    def test_split_rule_matches_scipy_critical_value(self):
        # the Scott-Knott rule chi2_sf(lam, nu) < alpha against lam > ppf(1 - alpha):
        # a grid, and points 1e-9 (relative) and more either side of the critical value
        steps = np.array([1e-9, 3e-9, 1e-7, 1e-4, 1e-2])
        for k in range(2, 31):
            nu = k / (math.pi - 2)
            critical = sps.chi2.ppf(0.95, nu)
            lams = np.concatenate(
                [[0.0, math.inf], np.linspace(0.0, 4 * critical, 201),
                 critical * (1 + steps), critical * (1 - steps)]
            )
            for lam in lams:
                if abs(lam - critical) <= 1e-9 * critical:
                    continue
                assert (chi2_sf(lam, nu) < 0.05) == (lam > critical), (k, lam)

    def test_norm_sf_matches_scipy(self):
        for z in np.linspace(0.0, 8.0, 801):
            assert norm_sf(z) == pytest.approx(sps.norm.sf(z), rel=1e-13, abs=0)


class TestWilcoxon:
    def test_all_positive_distinct_n5(self):
        r = wilcoxon_signed_rank([2, 4, 6, 8, 10], [1, 2, 3, 4, 5])
        assert r.statistic == 15.0
        assert r.p_value == 2 / 32
        assert r.exact and not r.degenerate

    def test_identical_samples_degenerate(self):
        r = wilcoxon_signed_rank([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.degenerate
        assert r.p_value == 1.0

    def test_symmetric_under_swap(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=8), rng.normal(size=8)
        assert wilcoxon_signed_rank(a, b).p_value == wilcoxon_signed_rank(b, a).p_value

    def test_zero_differences_dropped(self):
        r = wilcoxon_signed_rank([1, 2, 3, 5], [1, 2, 3, 4])
        assert r.n == 1

    def test_matches_enumeration_oracle_small(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            a = np.round(rng.normal(size=n), 1)
            b = np.round(rng.normal(size=n), 1)
            assert wilcoxon_signed_rank(a, b).p_value == oracle_wilcoxon_p(a, b)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-5, max_value=5),
                st.integers(min_value=-5, max_value=5),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_matches_enumeration_oracle_property(self, pairs):
        a = [float(x) for x, _ in pairs]
        b = [float(y) for _, y in pairs]
        assert wilcoxon_signed_rank(a, b).p_value == oracle_wilcoxon_p(a, b)

    def test_exact_matches_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(3, 15))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            ours = wilcoxon_signed_rank(a, b)
            theirs = sps.wilcoxon(a, b, mode="exact")
            assert ours.p_value == pytest.approx(theirs.pvalue, abs=1e-12)

    def test_large_sample_normal_approximation(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=30)
        b = rng.normal(size=30)
        a[:5] = b[:5] + 0.25  # tie block
        ours = wilcoxon_signed_rank(a, b)
        theirs = sps.wilcoxon(a, b, correction=True, mode="approx")
        assert not ours.exact
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-10)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1, 2], [1, 2, 3])


def unmemoized_w_plus_counts(double_ranks):
    """The sign-assignment counts by the loop over the ranks in their given
    order, computed afresh."""
    counts = np.zeros(int(np.sum(double_ranks)) + 1)
    counts[0] = 1.0
    for r in double_ranks:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: counts.size - r]
        counts = counts + shifted
    return counts


class TestExactNullMemo:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(-4, 4).filter(bool), min_size=1, max_size=20))
    def test_memoized_counts_equal_the_loop(self, diffs):
        # small integer differences: tied absolute values give half-integer ranks
        ranks = rankdata(np.abs(diffs))
        double_ranks = np.rint(2 * ranks).astype(int).tolist()
        memoized = stats._exact_w_plus_counts(tuple(sorted(double_ranks)))
        again = stats._exact_w_plus_counts(tuple(sorted(double_ranks)))
        assert again is memoized
        expected = unmemoized_w_plus_counts(double_ranks)
        assert memoized.dtype == expected.dtype
        assert memoized.tobytes() == expected.tobytes()

    def test_counts_are_read_only(self):
        counts = stats._exact_w_plus_counts((2, 4, 6, 8, 10, 12))
        assert not counts.flags.writeable
        with pytest.raises(ValueError):
            counts[0] = 5.0
        assert stats._exact_w_plus_counts((2, 4, 6, 8, 10, 12))[0] == 1.0


class TestCliffsDelta:
    def test_complete_dominance(self):
        assert cliffs_delta([4, 5, 6], [1, 2, 3]) == 1.0

    def test_identical_is_zero(self):
        assert cliffs_delta([1, 2, 3], [1, 2, 3]) == 0.0

    def test_hand_counted(self):
        assert cliffs_delta([1, 2, 3], [2, 3, 4]) == pytest.approx(-5 / 9, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(-10, 10), min_size=1, max_size=12),
        st.lists(st.integers(-10, 10), min_size=1, max_size=12),
    )
    def test_antisymmetric_bounded_and_matches_oracle(self, a, b):
        d = cliffs_delta(a, b)
        assert -1.0 <= d <= 1.0
        assert d == -cliffs_delta(b, a)
        assert d == pytest.approx(oracle_cliffs(a, b), abs=1e-12)


class TestWinTieLoss:
    def test_dominant_subject_wins(self):
        assert win_tie_loss([0.9] * 10, [0.1] * 10) == Outcome.WIN

    def test_identical_ties(self):
        assert win_tie_loss([0.5] * 10, [0.5] * 10) == Outcome.TIE

    def test_significant_but_negligible_effect_ties(self):
        # significant shift yet most pairs overlap: delta below 0.147
        subject = [0.5 + 0.001 * i for i in range(10)]
        other = [s - 0.0005 for s in subject]
        result = wilcoxon_signed_rank(subject, other)
        assert result.p_value < 0.05
        delta = cliffs_delta(subject, other)
        assert abs(delta) < NEGLIGIBLE_DELTA
        assert win_tie_loss(subject, other) == Outcome.TIE

    def test_antisymmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.normal(size=10)
            b = rng.normal(size=10)
            forward = win_tie_loss(a, b)
            backward = win_tie_loss(b, a)
            assert (forward, backward) in (
                (Outcome.WIN, Outcome.LOSS),
                (Outcome.LOSS, Outcome.WIN),
                (Outcome.TIE, Outcome.TIE),
            )

    def test_single_value_replicated(self):
        assert win_tie_loss([0.9] * 10, [0.1]) == Outcome.WIN
        assert win_tie_loss([0.1], [0.9] * 10) == Outcome.LOSS

    def test_mismatched_run_counts_rejected(self):
        with pytest.raises(ValueError):
            win_tie_loss([1, 2, 3], [1, 2])


class TestScottKnott:
    def test_single_technique_single_rank(self):
        g = scott_knott({"only": [0.5, 0.6, 0.7]})
        assert g.ranks == (("only",),)

    def test_clear_separation_two_ranks(self):
        g = scott_knott({"high": [0.90, 0.91, 0.92], "low": [0.10, 0.11, 0.12]})
        assert g.ranks == (("high",), ("low",))

    def test_identical_vectors_one_rank(self):
        g = scott_knott({"a": [0.5, 0.6], "b": [0.5, 0.6]})
        assert g.ranks == (("a", "b"),)
        # equal means with no scatter: B0 is only rounding error, over a
        # sigma^2 of zero or an ulp squared
        g = scott_knott({"a": [0.3], "b": [0.3], "c": [0.3]})
        assert g.ranks == (("a", "b", "c"),)
        g = scott_knott({name: [0.1, 0.1] for name in "abcde"})
        assert g.ranks == (tuple("abcde"),)

    def test_lambda_statistic_hand_computed(self):
        # two techniques, three runs each: B0 = 0.32, pooled variance terms
        # give sigma^2 = (0.32 + 4 * (1e-4 / 3)) / 6
        values = {"high": [0.90, 0.91, 0.92], "low": [0.10, 0.11, 0.12]}
        b0 = 2 * (0.41**2)
        s2_mean = 1e-4 / 3
        sigma2 = (b0 + 4 * s2_mean) / 6
        lam = math.pi / (2 * (math.pi - 2)) * b0 / sigma2
        critical = sps.chi2.ppf(0.95, 2 / (math.pi - 2))
        assert lam > critical
        assert scott_knott(values).ranks == (("high",), ("low",))

    def test_rank_means_strictly_ordered(self):
        rng = np.random.default_rng(6)
        values = {f"t{i}": list(rng.normal(loc=i, size=5)) for i in range(5)}
        g = scott_knott(values)
        rank_means = [np.mean([g.means[t] for t in rank]) for rank in g.ranks]
        assert all(x > y for x, y in zip(rank_means, rank_means[1:]))
        # every technique appears exactly once
        seen = [t for rank in g.ranks for t in rank]
        assert sorted(seen) == sorted(values)

    def test_invariant_under_constant_shift(self):
        rng = np.random.default_rng(7)
        values = {f"t{i}": list(rng.normal(loc=i * 0.3, size=4)) for i in range(4)}
        shifted = {k: [x + 123.456 for x in v] for k, v in values.items()}
        assert scott_knott(values).ranks == scott_knott(shifted).ranks

    def test_three_groups(self):
        values = {
            "a": [0.9, 0.91, 0.92],
            "b": [0.5, 0.51, 0.52],
            "c": [0.1, 0.11, 0.12],
        }
        g = scott_knott(values)
        assert g.ranks == (("a",), ("b",), ("c",))

    def test_close_techniques_merge(self):
        values = {"a": [0.50, 0.61, 0.58], "b": [0.52, 0.60, 0.55]}
        assert len(scott_knott(values).ranks) == 1

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            scott_knott({"a": [1, 2], "b": [1]})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            scott_knott({})

    def test_single_value_per_technique(self):
        g = scott_knott({"a": [0.9], "b": [0.1], "c": [0.89]})
        seen = [t for rank in g.ranks for t in rank]
        assert sorted(seen) == ["a", "b", "c"]
