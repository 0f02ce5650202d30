from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defectseq import baselines
from defectseq.baselines import (
    BASELINE_KINDS,
    FEEDFORWARD_NN,
    GAUSSIAN_NB,
    KNN,
    LOGISTIC_REGRESSION,
    predict_baseline_many,
    train_baseline,
)
from defectseq.history import HvsmSet, apply_normalizer, fit_normalizer
from defectseq.rnn import BLAS_THREAD_BOUND, Hyperparams, TrainingError

SCHEMA = ("m0", "m1")


def labeled(points, labels, schema=SCHEMA):
    """Labelled rows as a set of one-step samples, the form a baseline
    trains on; the rows are used as given, without z-scoring."""
    return rows(points, schema, np.asarray(labels, dtype=float))


def rows(queries, schema=SCHEMA, labels=None):
    X = np.asarray(queries, dtype=float).reshape(1, -1, len(schema))
    n = X.shape[1]
    stacks = ((np.arange(n), X),) if n else ()
    return HvsmSet(("v",), tuple(f"f{i}" for i in range(n)), labels, schema, stacks)


def z_scored(s, on=None):
    """``s`` z-scored by a fit on ``on`` (default: ``s`` itself)."""
    return apply_normalizer(fit_normalizer(s if on is None else on), s)


def score(model, *values, schema=SCHEMA):
    """Positive-class probability of the one row ``values``."""
    return float(predict_baseline_many(model, rows([values], schema))[0])


@pytest.fixture
def h():
    return Hyperparams(hidden_size=4, eta=0.5, lam=1e-4, iterations=200, seed=0)


@pytest.fixture
def separable(h):
    rng = np.random.default_rng(0)
    pos = rng.normal(loc=2.0, size=(20, 2))
    neg = rng.normal(loc=-2.0, size=(20, 2))
    points = np.vstack([pos, neg])
    labels = [1] * 20 + [0] * 20
    return labeled(points, labels)


class TestLogisticRegression:
    def test_orders_separable_points(self, h):
        model = train_baseline(
            LOGISTIC_REGRESSION, labeled([[0.0], [1.0]], [0, 1], schema=("m",)), h
        )
        p0 = score(model, 0.0, schema=("m",))
        p1 = score(model, 1.0, schema=("m",))
        assert p1 > p0

    def test_single_class_rejected(self, h):
        with pytest.raises(ValueError):
            train_baseline(LOGISTIC_REGRESSION, labeled([[0.0], [1.0]], [1, 1], schema=("m",)), h)

    def test_feature_rescaling_preserves_ranking(self, h, separable):
        model = train_baseline(LOGISTIC_REGRESSION, z_scored(separable), h)
        rng = np.random.default_rng(1)
        queries = rng.normal(size=(10, 2))
        base = predict_baseline_many(model, z_scored(rows(queries), on=separable)).tolist()

        ((idx, X),) = separable.by_length
        scaled = replace(separable, by_length=((idx, X * [50, 0.02]),))
        model_scaled = train_baseline(LOGISTIC_REGRESSION, z_scored(scaled), h)
        rescored = predict_baseline_many(
            model_scaled, z_scored(rows(queries * [50, 0.02]), on=scaled)
        ).tolist()
        assert np.argsort(base).tolist() == np.argsort(rescored).tolist()

    def test_divergence_reports_iteration(self, h, separable):
        # the same rule as the sequence model: a non-finite loss stops
        # training with the iteration named, instead of returning NaN weights
        with np.errstate(over="ignore"), pytest.raises(TrainingError, match="iteration 0"):
            train_baseline(LOGISTIC_REGRESSION, separable, replace(h, eta=1e300))

    def test_reproduces_reference_bitwise(self):
        # weights and bias as trained by the (w, b)-tuple trainer this one
        # replaced (numpy 2.4, OpenBLAS, x86-64); eta 40 takes three
        # halvings, so the retry path is covered too
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 3)) * [1.0, 10.0, 0.1]
        y = (X[:, 0] + rng.normal(size=30) > 0).astype(float)
        features = z_scored(labeled(X, y, schema=("a", "b", "c")))
        h = Hyperparams(eta=40.0, lam=1e-2, iterations=25)
        p = train_baseline(LOGISTIC_REGRESSION, features, h).params
        assert [x.hex() for x in p["weights"].tolist()] == [
            "0x1.c647c168178d0p+0", "0x1.62e6b0df1c007p-2", "0x1.de6734a8f2d26p-2",
        ]
        assert p["bias"].hex() == "-0x1.d39316f1d2830p-1"


class TestGaussianNb:
    def test_symmetric_classes_give_half_at_origin(self, h):
        data = labeled([[1.0], [2.0], [-1.0], [-2.0]], [1, 1, 0, 0], schema=("m",))
        model = train_baseline(GAUSSIAN_NB, data, h)
        assert score(model, 0.0, schema=("m",)) == pytest.approx(0.5, abs=1e-9)

    def test_deep_in_class_region(self, h, separable):
        model = train_baseline(GAUSSIAN_NB, separable, h)
        assert score(model, 3.0, 3.0) > 0.5
        assert score(model, -3.0, -3.0) < 0.5

    def test_posteriors_sum_to_one(self, h, separable):
        # the class-0 posterior equals the flipped-label model's class-1
        # posterior, so the two must complement each other within 1e-12
        model = train_baseline(GAUSSIAN_NB, separable, h)
        flipped = train_baseline(GAUSSIAN_NB, replace(separable, labels=1 - separable.labels), h)
        rng = np.random.default_rng(2)
        for q in rng.normal(size=(20, 2)) * 3:
            p1 = score(model, *q)
            p0 = score(flipped, *q)
            assert 0.0 <= p1 <= 1.0
            assert p1 + p0 == pytest.approx(1.0, abs=1e-12)

    def test_single_class_rejected(self, h):
        with pytest.raises(ValueError):
            train_baseline(GAUSSIAN_NB, labeled([[0.0]], [1], schema=("m",)), h)


class TestKnn:
    def test_exact_training_point_k1(self, h):
        data = labeled([[0.0, 0.0], [5.0, 5.0]], [0, 1])
        model = train_baseline(KNN, data, h, k=1)
        assert score(model, 0.0, 0.0) == 0.0
        assert score(model, 5.0, 5.0) == 1.0

    def test_vote_fraction(self, h):
        data = labeled([[0.0], [0.1], [0.2], [9.0]], [1, 1, 0, 0], schema=("m",))
        model = train_baseline(KNN, data, h, k=3)
        assert score(model, 0.05, schema=("m",)) == pytest.approx(2 / 3)

    def test_distance_ties_broken_by_training_order(self, h):
        # equidistant neighbors: the earlier training rows win the vote
        data = labeled([[1.0], [-1.0], [1.0]], [1, 0, 0], schema=("m",))
        model = train_baseline(KNN, data, h, k=2)
        # distances from 0: all equal after z-scoring; stable order keeps rows 0,1
        assert score(model, 0.0, schema=("m",)) == pytest.approx(0.5)

    def test_k_exceeding_training_size_rejected(self, h):
        with pytest.raises(ValueError):
            train_baseline(KNN, labeled([[0.0]], [1], schema=("m",)), h, k=2)


def nb_row(params, z):
    """Row-at-a-time naive Bayes posterior, the formula the batch must match."""
    log_joint = {}
    for cls in (0, 1):
        mu, var = params["means"][cls], params["vars"][cls]
        log_lik = -0.5 * np.sum(np.log(2 * np.pi * var) + (z - mu) ** 2 / var)
        log_joint[cls] = np.log(params["priors"][cls]) + log_lik
    peak = max(log_joint.values())
    w0 = np.exp(log_joint[0] - peak)
    w1 = np.exp(log_joint[1] - peak)
    return float(w1 / (w0 + w1))


def knn_row(params, z):
    """Row-at-a-time kNN vote, the formula the batch must match."""
    dist = np.sqrt(np.sum((params["points"] - z) ** 2, axis=1))
    neighbors = np.argsort(dist, kind="stable")[: params["k"]]
    return float(params["labels"][neighbors].mean())


class TestBatchedPrediction:
    """The whole-matrix nb/knn paths equal the per-row formulas bit for bit."""

    @staticmethod
    def per_row(model, queries, row_formula):
        Z = np.asarray(queries, dtype=float)
        return np.asarray([row_formula(model.params, z) for z in Z])

    def test_nb_matches_row_formula(self, h):
        rng = np.random.default_rng(5)
        schema = tuple(f"m{i}" for i in range(20))
        data = labeled(rng.normal(size=(60, 20)), rng.integers(0, 2, size=60), schema=schema)
        model = train_baseline(GAUSSIAN_NB, data, h)
        queries = rng.normal(size=(40, 20)) * 3
        np.testing.assert_array_equal(
            predict_baseline_many(model, rows(queries, schema)),
            self.per_row(model, queries, nb_row),
        )

    # one row, two rows and every row per block
    @pytest.mark.parametrize("bound", [1, 3 * 24 * 2, 1 << 16])
    def test_knn_matches_row_formula_with_ties(self, h, monkeypatch, bound):
        # every training point appears twice with opposite labels, and the
        # queries sit on the same grid, so many distances tie exactly and
        # the vote depends on breaking them by training order
        grid = [[x, y] for x in (-1.0, 0.0, 2.0) for y in (0.0, 1.0, 3.0, 4.0)]
        points = grid + grid
        labels = [1] * len(grid) + [0] * len(grid)
        model = train_baseline(KNN, labeled(points, labels), h, k=3)
        queries = grid[:11]  # 11 rows: the last block is short
        monkeypatch.setattr(baselines, "BLAS_THREAD_BOUND", bound)
        got = predict_baseline_many(model, rows(queries))
        np.testing.assert_array_equal(got, self.per_row(model, queries, knn_row))
        # (-1, 0): its own two copies, then the earlier (label 1) copy of
        # the tied next-nearest pair
        assert got[0] == 2 / 3

    def test_knn_random_matrix(self, h, monkeypatch):
        rng = np.random.default_rng(6)
        points = np.round(rng.normal(size=(300, 2)), 1)  # coarse grid: ties
        model = train_baseline(KNN, labeled(points, rng.integers(0, 2, size=300)), h, k=5)
        queries = np.round(rng.normal(size=(250, 2)), 1)
        # 40 queries per block, so the queries span several blocks
        monkeypatch.setattr(baselines, "BLAS_THREAD_BOUND", 40 * points.size + 1)
        assert model.params["points"].size * 250 > baselines.BLAS_THREAD_BOUND
        np.testing.assert_array_equal(
            predict_baseline_many(model, rows(queries)), self.per_row(model, queries, knn_row)
        )


def brute_force_knn(points, labels, k, Z):
    """Every distance by the row formula, then a stable argsort of all of them."""
    out = []
    for z in Z:
        dist = np.sqrt(np.sum((points - z) ** 2, axis=1))
        out.append(labels[np.argsort(dist, kind="stable")[:k]].mean())
    return np.asarray(out)


# coarse values repeat, so points duplicate and distances tie at the k-th place
coarse = st.sampled_from([0.0, 1.0, -1.0, 2.0, 0.5, 3.0, 0.1, 0.3])
values = coarse | st.floats(min_value=-10, max_value=10, allow_nan=False)
# 1e200 overflows both the squared distances and their BLAS estimate, and
# 1e154 puts the squared norms near the float max; 1e-160 makes them
# subnormal and 1e-200 underflows them to zero
scales = st.sampled_from([1.0, 1e-3, 1e150, 1e154, 1e200, 1e-160, 1e-200])


class TestKnnPruning:
    """The BLAS-pruned search picks exactly the neighbours of a full sort."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_brute_force(self, data):
        n = data.draw(st.integers(1, 24), label="n")
        d = data.draw(st.integers(1, 4), label="d")
        k = data.draw(st.integers(1, n), label="k")
        m = data.draw(st.integers(1, 12), label="queries")
        points = np.asarray(data.draw(st.lists(values, min_size=n * d, max_size=n * d)))
        queries = np.asarray(data.draw(st.lists(values, min_size=m * d, max_size=m * d)))
        # far from the origin, the estimate cancels most of its digits
        offset = data.draw(st.sampled_from([0.0, 100.0]), label="offset")
        points = points.reshape(n, d) * data.draw(scales, label="point scale") + offset
        queries = queries.reshape(m, d) * data.draw(scales, label="query scale") + offset
        labels = data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
        labels = np.asarray(labels)
        # from one row per block up to every row in one block, which the
        # production bound gives here
        bound = data.draw(
            st.sampled_from([1, n * d + 1, 3 * n * d, BLAS_THREAD_BOUND]), label="bound"
        )
        params = {"points": points, "labels": labels, "k": k}
        with np.errstate(over="ignore", invalid="ignore"):
            want = brute_force_knn(points, labels, k, queries)
            with mock.patch.object(baselines, "BLAS_THREAD_BOUND", bound):
                got = baselines._predict_knn(params, queries)
        np.testing.assert_array_equal(got, want)

    def test_overflowing_row_falls_back_to_every_point(self):
        points = np.array([[1.0, 0.0], [1e200, 0.0], [2e200, 0.0], [0.0, 1.0]])
        labels = np.array([0.0, 1.0, 1.0, 0.0])
        # the first row's own square overflows; the second's estimates for
        # the two large points are inf - inf, so its k-th estimate is nan
        queries = np.array([[1e200, 1e200], [1e110, 0.0], [0.0, 0.0], [1e-200, 0.0]])
        params = {"points": points, "labels": labels, "k": 3}
        with np.errstate(over="ignore", invalid="ignore"):
            got = baselines._predict_knn(params, queries)
            np.testing.assert_array_equal(got, brute_force_knn(points, labels, 3, queries))


    def test_subnormal_distances_keep_their_candidates(self):
        # squares near 1e-316 are subnormal, so their rounding error is
        # absolute, not relative to their size
        points = np.array([-4, -3, 0, 3, 1, 1, -2, 4, 4, -1, 1.0])[:, None] * 1e-158
        labels = np.array([1, 1, 0, 0, 0, 1, 1, 1, 1, 0, 1.0])
        queries = np.array([[-2.0], [-2.0], [4.0]]) * 1e-158
        params = {"points": points, "labels": labels, "k": 2}
        np.testing.assert_array_equal(
            baselines._predict_knn(params, queries), brute_force_knn(points, labels, 2, queries)
        )


    def test_cancellation_far_from_origin(self):
        # |z|² + |p|² − 2 z·p cancels about 1e4 down to under 1: the estimate
        # keeps only a few digits, and its slack must cover the rest
        points = np.array([6, 9, -9, 1, 4, -6, 8, 3, -4, -8, -7.0])[:, None] * 0.1 + 100.0
        labels = np.array([1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1.0])
        queries = np.array([[-3.0], [7.0], [0.0]]) * 0.1 + 100.0
        params = {"points": points, "labels": labels, "k": 3}
        np.testing.assert_array_equal(
            baselines._predict_knn(params, queries), brute_force_knn(points, labels, 3, queries)
        )


class TestFeedforward:
    def test_zero_init_scale_gives_half(self):
        h = Hyperparams(hidden_size=3, eta=0.0, init_scale=0.0, iterations=1, seed=0)
        data = labeled([[0.0, 1.0], [1.0, 0.0]], [0, 1])
        model = train_baseline(FEEDFORWARD_NN, data, h)
        assert score(model, 7.0, -3.0) == 0.5

    def test_learns_separable(self, h, separable):
        model = train_baseline(FEEDFORWARD_NN, separable, h)
        assert score(model, 2.5, 2.5) > 0.5
        assert score(model, -2.5, -2.5) < 0.5

    def test_seed_changes_model(self, separable):
        h1 = Hyperparams(hidden_size=4, iterations=5, seed=1)
        h2 = Hyperparams(hidden_size=4, iterations=5, seed=2)
        m1 = train_baseline(FEEDFORWARD_NN, separable, h1)
        m2 = train_baseline(FEEDFORWARD_NN, separable, h2)
        assert not np.array_equal(m1.params["rnn"].U, m2.params["rnn"].U)

    def test_matches_hidden_layer_formula(self, h, separable):
        model = train_baseline(FEEDFORWARD_NN, separable, h)
        p = model.params["rnn"]
        for q in np.random.default_rng(6).normal(size=(5, 2)):
            z = q
            expected = 1.0 / (1.0 + np.exp(-(float(p.V[0] @ np.tanh(p.U @ z + p.b)) + p.c)))
            assert score(model, *q) == pytest.approx(expected, rel=1e-12)


class TestCommon:
    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_deterministic_given_seed(self, kind, h, separable):
        rng = np.random.default_rng(3)
        queries = rng.normal(size=(5, 2))
        a = train_baseline(kind, separable, h)
        b = train_baseline(kind, separable, h)
        for q in queries:
            assert score(a, *q) == score(b, *q)

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_probability_in_unit_interval(self, kind, h, separable):
        model = train_baseline(kind, separable, h)
        rng = np.random.default_rng(4)
        probs = predict_baseline_many(model, rows(rng.normal(size=(20, 2)) * 4))
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_schema_mismatch_rejected(self, kind, h, separable):
        model = train_baseline(kind, separable, h)
        with pytest.raises(ValueError):
            score(model, 1.0, schema=("other",))

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_many_matches_one_at_a_time(self, kind, h, separable):
        model = train_baseline(kind, separable, h)
        queries = np.random.default_rng(5).normal(size=(7, 2)) * 2
        probs = predict_baseline_many(model, rows(queries))
        singles = [score(model, *q) for q in queries]
        np.testing.assert_allclose(probs, singles, rtol=1e-12, atol=0)
        assert predict_baseline_many(model, rows([])).shape == (0,)

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_only_one_step_sets_in_sample_order_accepted(self, kind, h, separable):
        # two samples of two steps, then the one-step rows out of sample order
        two_steps = HvsmSet(("u", "v"), ("a", "b"), np.array([0, 1]), SCHEMA, (
            (np.arange(2), np.ones((2, 2, 2))),
        ))
        ((idx, X),) = separable.by_length
        shuffled = replace(separable, by_length=((idx[::-1], X[:, ::-1]),))
        for s in (two_steps, shuffled):
            with pytest.raises(ValueError, match="one-step samples, in sample order"):
                train_baseline(kind, s, h)
        model = train_baseline(kind, separable, h)
        with pytest.raises(ValueError, match="one-step samples, in sample order"):
            predict_baseline_many(model, replace(two_steps, labels=None))

    def test_unknown_kind_rejected(self, h, separable):
        with pytest.raises(ValueError):
            train_baseline("forest", separable, h)

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    @pytest.mark.parametrize("bad", [2.0, np.nan, -1.0, 0.5])
    def test_label_other_than_0_or_1_rejected(self, kind, bad, h):
        with pytest.raises(ValueError, match="one 0/1 label per item"):
            train_baseline(kind, labeled([[0.0], [1.0], [2.0]], [0, 1, bad], schema=("m",)), h)

    @pytest.mark.parametrize(
        "kind, message",
        [(LOGISTIC_REGRESSION, "both classes"), (GAUSSIAN_NB, "one sample per class")],
    )
    @pytest.mark.parametrize("label", [0, 1])
    def test_single_class_rejected_by_name(self, kind, message, label, h):
        with pytest.raises(ValueError, match=message):
            train_baseline(kind, labeled([[0.0], [1.0]], [label, label], schema=("m",)), h)
