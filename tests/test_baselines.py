from dataclasses import replace

import numpy as np
import pytest

from defectseq.baselines import (
    BASELINE_KINDS,
    FEEDFORWARD_NN,
    GAUSSIAN_NB,
    KNN,
    LOGISTIC_REGRESSION,
    load_baseline,
    predict_baseline,
    predict_baseline_many,
    save_baseline,
    train_baseline,
)
from defectseq.dataset import make_metric_vector
from defectseq.rnn import Hyperparams, TrainingError

SCHEMA = ("m0", "m1")


def vec(*values, schema=SCHEMA):
    return make_metric_vector(list(values), schema)


def labeled(points, labels, schema=SCHEMA):
    return [(vec(*p, schema=schema), y) for p, y in zip(points, labels)]


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
        p0 = predict_baseline(model, vec(0.0, schema=("m",)))
        p1 = predict_baseline(model, vec(1.0, schema=("m",)))
        assert p1 > p0

    def test_single_class_rejected(self, h):
        with pytest.raises(ValueError):
            train_baseline(LOGISTIC_REGRESSION, labeled([[0.0], [1.0]], [1, 1], schema=("m",)), h)

    def test_feature_rescaling_preserves_ranking(self, h, separable):
        model = train_baseline(LOGISTIC_REGRESSION, separable, h)
        rng = np.random.default_rng(1)
        queries = rng.normal(size=(10, 2))
        base = [predict_baseline(model, vec(*q)) for q in queries]

        scaled = [(vec(v.values[0] * 50, v.values[1] * 0.02), y) for v, y in separable]
        model_scaled = train_baseline(LOGISTIC_REGRESSION, scaled, h)
        rescored = [
            predict_baseline(model_scaled, vec(q[0] * 50, q[1] * 0.02)) for q in queries
        ]
        assert np.argsort(base).tolist() == np.argsort(rescored).tolist()

    def test_divergence_reports_iteration(self, h, separable):
        # the same rule as the sequence model: a non-finite loss stops
        # training with the iteration named, instead of returning NaN weights
        with np.errstate(over="ignore"), pytest.raises(TrainingError, match="iteration 0"):
            train_baseline(LOGISTIC_REGRESSION, separable, replace(h, eta=1e300))


class TestGaussianNb:
    def test_symmetric_classes_give_half_at_origin(self, h):
        data = labeled([[1.0], [2.0], [-1.0], [-2.0]], [1, 1, 0, 0], schema=("m",))
        model = train_baseline(GAUSSIAN_NB, data, h)
        assert predict_baseline(model, vec(0.0, schema=("m",))) == pytest.approx(0.5, abs=1e-9)

    def test_deep_in_class_region(self, h, separable):
        model = train_baseline(GAUSSIAN_NB, separable, h)
        assert predict_baseline(model, vec(3.0, 3.0)) > 0.5
        assert predict_baseline(model, vec(-3.0, -3.0)) < 0.5

    def test_posteriors_sum_to_one(self, h, separable):
        # the class-0 posterior equals the flipped-label model's class-1
        # posterior, so the two must complement each other within 1e-12
        model = train_baseline(GAUSSIAN_NB, separable, h)
        flipped = train_baseline(GAUSSIAN_NB, [(v, 1 - y) for v, y in separable], h)
        rng = np.random.default_rng(2)
        for q in rng.normal(size=(20, 2)) * 3:
            p1 = predict_baseline(model, vec(*q))
            p0 = predict_baseline(flipped, vec(*q))
            assert 0.0 <= p1 <= 1.0
            assert p1 + p0 == pytest.approx(1.0, abs=1e-12)

    def test_single_class_rejected(self, h):
        with pytest.raises(ValueError):
            train_baseline(GAUSSIAN_NB, labeled([[0.0]], [1], schema=("m",)), h)


class TestKnn:
    def test_exact_training_point_k1(self, h):
        data = labeled([[0.0, 0.0], [5.0, 5.0]], [0, 1])
        model = train_baseline(KNN, data, h, k=1)
        assert predict_baseline(model, vec(0.0, 0.0)) == 0.0
        assert predict_baseline(model, vec(5.0, 5.0)) == 1.0

    def test_vote_fraction(self, h):
        data = labeled([[0.0], [0.1], [0.2], [9.0]], [1, 1, 0, 0], schema=("m",))
        model = train_baseline(KNN, data, h, k=3)
        assert predict_baseline(model, vec(0.05, schema=("m",))) == pytest.approx(2 / 3)

    def test_distance_ties_broken_by_training_order(self, h):
        # equidistant neighbors: the earlier training rows win the vote
        data = labeled([[1.0], [-1.0], [1.0]], [1, 0, 0], schema=("m",))
        model = train_baseline(KNN, data, h, k=2)
        # distances from 0: all equal after z-scoring; stable order keeps rows 0,1
        assert predict_baseline(model, vec(0.0, schema=("m",))) == pytest.approx(0.5)

    def test_k_exceeding_training_size_rejected(self, h):
        with pytest.raises(ValueError):
            train_baseline(KNN, labeled([[0.0]], [1], schema=("m",)), h, k=2)


class TestFeedforward:
    def test_zero_init_scale_gives_half(self):
        h = Hyperparams(hidden_size=3, eta=0.0, init_scale=0.0, iterations=1, seed=0)
        data = labeled([[0.0, 1.0], [1.0, 0.0]], [0, 1])
        model = train_baseline(FEEDFORWARD_NN, data, h)
        assert predict_baseline(model, vec(7.0, -3.0)) == 0.5

    def test_learns_separable(self, h, separable):
        model = train_baseline(FEEDFORWARD_NN, separable, h)
        assert predict_baseline(model, vec(2.5, 2.5)) > 0.5
        assert predict_baseline(model, vec(-2.5, -2.5)) < 0.5

    def test_seed_changes_model(self, separable):
        h1 = Hyperparams(hidden_size=4, iterations=5, seed=1)
        h2 = Hyperparams(hidden_size=4, iterations=5, seed=2)
        m1 = train_baseline(FEEDFORWARD_NN, separable, h1)
        m2 = train_baseline(FEEDFORWARD_NN, separable, h2)
        assert not np.array_equal(m1.params["rnn"].U, m2.params["rnn"].U)

    def test_matches_hidden_layer_formula(self, h, separable):
        model = train_baseline(FEEDFORWARD_NN, separable, h)
        p, n = model.params["rnn"], model.normalizer
        for q in np.random.default_rng(6).normal(size=(5, 2)):
            z = n.transform(q)
            expected = 1.0 / (1.0 + np.exp(-(float(p.V[0] @ np.tanh(p.U @ z + p.b)) + p.c)))
            assert predict_baseline(model, vec(*q)) == pytest.approx(expected, rel=1e-12)


class TestCommon:
    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_deterministic_given_seed(self, kind, h, separable):
        rng = np.random.default_rng(3)
        queries = rng.normal(size=(5, 2))
        a = train_baseline(kind, separable, h)
        b = train_baseline(kind, separable, h)
        for q in queries:
            assert predict_baseline(a, vec(*q)) == predict_baseline(b, vec(*q))

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_probability_in_unit_interval(self, kind, h, separable):
        model = train_baseline(kind, separable, h)
        rng = np.random.default_rng(4)
        probs = predict_baseline_many(model, [vec(*q) for q in rng.normal(size=(20, 2)) * 4])
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_schema_mismatch_rejected(self, kind, h, separable):
        model = train_baseline(kind, separable, h)
        with pytest.raises(ValueError):
            predict_baseline(model, vec(1.0, schema=("other",)))

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_many_matches_one_at_a_time(self, kind, h, separable):
        model = train_baseline(kind, separable, h)
        queries = [vec(*q) for q in np.random.default_rng(5).normal(size=(7, 2)) * 2]
        probs = predict_baseline_many(model, queries)
        singles = [predict_baseline(model, q) for q in queries]
        np.testing.assert_allclose(probs, singles, rtol=1e-12, atol=0)
        assert predict_baseline_many(model, []).shape == (0,)

    def test_unknown_kind_rejected(self, h, separable):
        with pytest.raises(ValueError):
            train_baseline("forest", separable, h)

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_serialization_round_trip(self, kind, h, separable, tmp_path):
        model = train_baseline(kind, separable, h)
        path = tmp_path / f"{kind}.json"
        save_baseline(path, model)
        loaded = load_baseline(path)
        rng = np.random.default_rng(5)
        for q in rng.normal(size=(10, 2)) * 2:
            assert predict_baseline(loaded, vec(*q)) == predict_baseline(model, vec(*q))
