import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from defectseq import rnn
from defectseq.history import HvsmSet, Normalizer
from defectseq.rnn import (
    Batch,
    Hyperparams,
    RnnParams,
    TrainingError,
    batch_gradient,
    forward,
    gradient_check,
    group_by_length,
    init_params,
    predict_set,
    train,
)

from helpers import hvsm_set, trend_samples


def make_params(U, W, V, b, c) -> RnnParams:
    """The parameters holding these arrays, packed into one ``theta``."""
    U = np.asarray(U, dtype=float)
    theta = np.concatenate([U.ravel(), np.ravel(V), np.ravel(W), np.ravel(b), [c]])
    return RnnParams(theta, *U.shape)


def random_params(rng, hidden, input_dim, scale=0.5):
    return make_params(
        U=rng.uniform(-scale, scale, size=(hidden, input_dim)),
        W=rng.uniform(-scale, scale, size=(hidden, hidden)),
        V=rng.uniform(-scale, scale, size=(1, hidden)),
        b=rng.uniform(-scale, scale, size=hidden),
        c=float(rng.uniform(-scale, scale)),
    )


def views(p: RnnParams, g: np.ndarray) -> RnnParams:
    """A gradient in ``p``'s layout, as named views."""
    return RnnParams(g, p.hidden_size, p.input_dim)


# ---------------------------------------------------------------------------
# independent oracles: one sample, one time step at a time
# ---------------------------------------------------------------------------

def ref_forward(p: RnnParams, seq: np.ndarray) -> tuple[np.ndarray, float]:
    """Hidden states (T x hidden) and output probability of one sequence."""
    x = np.atleast_2d(np.asarray(seq, dtype=float))
    states = [np.tanh(p.U @ x[0] + p.b)]
    for t in range(1, x.shape[0]):
        states.append(np.tanh(p.U @ x[t] + p.W @ states[-1] + p.b))
    prob = 1.0 / (1.0 + math.exp(-(float(p.V[0] @ states[-1]) + p.c[0])))
    return np.array(states), prob


def ref_loss(p: RnnParams, seq: np.ndarray, y: int, lam: float) -> float:
    """Clamped log loss of one sample plus the L2 penalty on U, V, W."""
    prob = min(max(ref_forward(p, seq)[1], 1e-12), 1.0 - 1e-12)
    penalty = np.sum(p.U**2) + np.sum(p.V**2) + np.sum(p.W**2)
    return float(-y * math.log(prob) - (1 - y) * math.log(1.0 - prob) + 0.5 * lam * penalty)


def ref_backward(p: RnnParams, seq: np.ndarray, y: int) -> dict:
    """Exact per-sample gradients of the unregularized log loss."""
    x = np.atleast_2d(np.asarray(seq, dtype=float))
    states, prob = ref_forward(p, x)
    T = x.shape[0]
    dz = prob - y
    grads = {"U": np.zeros_like(p.U), "W": np.zeros_like(p.W), "b": np.zeros_like(p.b)}
    grads["V"] = dz * states[T - 1][None, :]
    grads["c"] = dz
    delta = (p.V[0] * dz) * (1.0 - states[T - 1] ** 2)
    for t in range(T - 1, -1, -1):
        grads["U"] += np.outer(delta, x[t])
        grads["b"] += delta
        if t > 0:
            grads["W"] += np.outer(delta, states[t - 1])
            delta = (p.W.T @ delta) * (1.0 - states[t - 1] ** 2)
    return grads


def finite_difference_gradients(p: RnnParams, seq: np.ndarray, y: int, lam: float, eps=1e-5):
    """Central differences of ``ref_loss`` for every parameter."""
    out = {}
    for name in ("U", "W", "V", "b", "c"):
        arr = getattr(p, name)
        grad = np.zeros_like(arr)
        for i in np.ndindex(arr.shape):
            orig = arr[i]
            arr[i] = orig + eps
            hi = ref_loss(p, seq, y, lam)
            arr[i] = orig - eps
            lo = ref_loss(p, seq, y, lam)
            arr[i] = orig
            grad[i] = (hi - lo) / (2 * eps)
        out[name] = grad
    return out


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.atleast_1d(np.asarray(analytic, dtype=float))
    n = np.atleast_1d(np.asarray(numeric, dtype=float))
    return float(np.max(np.abs(a - n) / np.maximum(np.abs(a) + np.abs(n), 1e-5)))


# ---------------------------------------------------------------------------
# oracle: the per-group loop the sweep replaced, one forward and one
# backward pass per length group and step
# ---------------------------------------------------------------------------

def loop_group_forward(p: RnnParams, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """States (T, n, hidden) and probabilities of one equal-length group."""
    T, n, _ = X.shape
    S = np.empty((T, n, p.hidden_size))
    S[0] = np.tanh(X[0] @ p.U.T + p.b)
    for t in range(1, T):
        S[t] = np.tanh(X[t] @ p.U.T + S[t - 1] @ p.W.T + p.b)
    probs = 1.0 / (1.0 + np.exp(-(S[T - 1] @ p.V[0] + p.c)))
    return S, probs


def loop_batch_gradient(p: RnnParams, groups, lam: float) -> tuple[np.ndarray, float]:
    """``batch_gradient`` over ``(X, y)`` length groups in ascending T, the
    gradient laid out as ``p.theta``."""
    m = sum(X.shape[1] for X, _ in groups)
    dU = np.zeros_like(p.U)
    dW = np.zeros_like(p.W)
    dV = np.zeros_like(p.V)
    db = np.zeros_like(p.b)
    dc = 0.0
    data_loss = 0.0
    for X, y in groups:
        T = X.shape[0]
        S, probs = loop_group_forward(p, X)
        clipped = probs.clip(rnn.PROB_EPS, 1.0 - rnn.PROB_EPS)
        data_loss += float((-y * np.log(clipped) - (1 - y) * np.log(1 - clipped)).sum())
        dz = probs - y
        dV += dz[None, :] @ S[T - 1]
        dc += float(dz.sum())
        delta = (dz[:, None] * p.V[0]) * (1.0 - S[T - 1] ** 2)
        for t in range(T - 1, -1, -1):
            dU += delta.T @ X[t]
            db += delta.sum(axis=0)
            if t > 0:
                dW += delta.T @ S[t - 1]
                delta = (delta @ p.W) * (1.0 - S[t - 1] ** 2)
    grad = make_params(
        U=dU / m + lam * p.U,
        W=dW / m + lam * p.W,
        V=dV / m + lam * p.V,
        b=db / m,
        c=dc / m,
    ).theta
    # one sum per matrix, as the model defines its L2 term
    weight_norm = float((p.U**2).sum() + (p.V**2).sum() + (p.W**2).sum())
    return grad, float(data_loss / m + 0.5 * lam * weight_norm)


def as_batch(groups) -> Batch:
    return Batch([X for X, _ in groups], np.concatenate([y for _, y in groups]))


# ---------------------------------------------------------------------------
# the production path on a batch of one
# ---------------------------------------------------------------------------

def forward_one(p: RnnParams, rows: np.ndarray) -> tuple[np.ndarray, float]:
    """States and probability of one sequence through the sweep."""
    S, probs = forward(p, Batch([np.atleast_2d(rows)[:, None, :]]))
    return S[:, 0, :], float(probs[0])


def gradient_one(p: RnnParams, rows: np.ndarray, y: int, lam: float):
    return batch_gradient(p, group_by_length(hvsm_set([(rows, y)])), lam)


def loss_one(p: RnnParams, rows: np.ndarray, y: int, lam: float) -> float:
    return gradient_one(p, rows, y, lam)[1]


def as_dict(p: RnnParams, g: np.ndarray) -> dict:
    return {name: getattr(views(p, g), name) for name in ("U", "W", "V", "b", "c")}


def assert_gradients_close(p, g, expected: dict, rtol: float, atol: float = 1e-12):
    for name, value in as_dict(p, g).items():
        np.testing.assert_allclose(value, expected[name], rtol=rtol, atol=atol, err_msg=name)


class TestHyperparams:
    def test_negative_halving_limit_rejected(self):
        with pytest.raises(ValueError, match="halving_limit"):
            Hyperparams(halving_limit=-3)


class TestInitParams:
    def test_same_seed_bitwise_identical(self):
        h = Hyperparams(seed=11)
        a, b = init_params(h, 5), init_params(h, 5)
        assert np.array_equal(a.U, b.U) and np.array_equal(a.W, b.W)
        assert np.array_equal(a.V, b.V)

    def test_biases_exactly_zero(self):
        p = init_params(Hyperparams(seed=3), 4)
        assert not p.b.any() and p.c[0] == 0.0

    def test_zero_scale_gives_zero_weights(self):
        p = init_params(Hyperparams(init_scale=0.0), 4)
        assert not p.U.any() and not p.W.any() and not p.V.any()

    def test_bounds_respected(self):
        h = Hyperparams(hidden_size=12, init_scale=0.2, seed=5)
        p = init_params(h, 9)
        for arr in (p.U, p.V, p.W):
            assert np.all(np.abs(arr) <= 0.2)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**130),
        n=st.integers(0, 2000),
        scale=st.sampled_from([0.0, 0.2]) | st.floats(0, 1e300, allow_nan=False),
    )
    @example(seed=0, n=592, scale=0.2)
    @example(seed=2**32 - 1, n=7, scale=0.2)
    @example(seed=2**32, n=1, scale=0.2)
    @example(seed=2**64 + 3, n=1000, scale=1.0)
    @example(seed=12345678901234567890123, n=592, scale=0.0)
    def test_draws_equal_numpy_generator_bitwise(self, seed, n, scale):
        # the in-package PCG64 stream against numpy's own
        expected = np.random.default_rng(seed).uniform(-scale, scale, n).tolist()
        drawn = rnn.pcg64_uniform(seed, -scale, scale, n)
        assert list(map(float.hex, drawn)) == list(map(float.hex, expected))

    @pytest.mark.parametrize("seed", [-1, 1.0])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises((ValueError, TypeError)):
            init_params(Hyperparams(seed=seed), 3)

    def test_scale_beyond_float_range_is_a_value_error(self):
        with pytest.raises(ValueError, match="exceeds the float range"):
            init_params(Hyperparams(init_scale=1e308), 3)


class TestInitialDrawMemo:
    """``init_params`` draws each (seed, range, count) once per process and
    keeps it; every later call must still get a fresh draw's bits."""

    @staticmethod
    def fresh(h, input_dim):
        n = h.hidden_size * (input_dim + h.hidden_size + 1)
        return rnn.pcg64_uniform(h.seed, -h.init_scale, h.init_scale, n)

    def weights(self, p):
        return list(map(float.hex, p.theta[: -p.hidden_size - 1].tolist()))

    def test_miss_and_hit_equal_a_fresh_draw_bitwise(self):
        h = Hyperparams(hidden_size=16, seed=912)
        rnn._draw.cache_clear()
        miss = init_params(h, 20)
        hit = init_params(h, 20)
        assert rnn._draw.cache_info().hits == 1 and rnn._draw.cache_info().misses == 1
        expected = list(map(float.hex, self.fresh(h, 20)))
        assert self.weights(miss) == expected and self.weights(hit) == expected
        assert miss.theta is not hit.theta

    def test_changing_a_theta_leaves_the_next_draw_unchanged(self):
        h = Hyperparams(hidden_size=4, seed=913)
        p = init_params(h, 3)
        p.theta[:] = 7.0
        p.U[0, 0] = -1.0
        assert self.weights(init_params(h, 3)) == list(map(float.hex, self.fresh(h, 3)))

    def test_refused_draws_still_raise_and_are_not_kept(self):
        init_params(Hyperparams(seed=1), 3)  # seed 1 kept; 1.0 must not find it
        size = rnn._draw.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match="non-negative"):
                init_params(Hyperparams(seed=-1), 3)
            with pytest.raises(TypeError):
                init_params(Hyperparams(seed=1.0), 3)
            with pytest.raises(ValueError, match="exceeds the float range"):
                init_params(Hyperparams(init_scale=1e308), 3)
        assert rnn._draw.cache_info().currsize == size


class TestForward:
    def test_zero_params_yield_half(self):
        p = init_params(Hyperparams(hidden_size=4, init_scale=0.0), 3)
        states, prob = forward_one(p, np.ones((5, 3)))
        assert not states.any()
        assert prob == 0.5

    def test_single_step_ignores_recurrence(self):
        rng = np.random.default_rng(0)
        p = random_params(rng, 4, 3)
        x = rng.normal(size=(1, 3))
        states, prob = forward_one(p, x)
        expected = np.tanh(p.U @ x[0] + p.b)
        np.testing.assert_allclose(states[0], expected, rtol=1e-12)
        assert prob == pytest.approx(ref_forward(p, x)[1], rel=1e-12)
        p.W[:] = 0.0
        np.testing.assert_allclose(forward_one(p, x)[1], prob, rtol=1e-12)

    def test_scalar_network_zeros_propagate(self):
        p = make_params(
            U=np.array([[1.0]]), W=np.array([[1.0]]), V=np.array([[1.0]]),
            b=np.zeros(1), c=0.0,
        )
        states, prob = forward_one(p, np.zeros((2, 1)))
        assert states.tolist() == [[0.0], [0.0]]
        assert prob == 0.5

    def test_recurrence_formula(self):
        rng = np.random.default_rng(1)
        p = random_params(rng, 3, 2)
        x = rng.normal(size=(3, 2))
        states, prob = forward_one(p, x)
        s1 = np.tanh(p.U @ x[0] + p.b)
        s2 = np.tanh(p.U @ x[1] + p.W @ s1 + p.b)
        s3 = np.tanh(p.U @ x[2] + p.W @ s2 + p.b)
        np.testing.assert_allclose(states, [s1, s2, s3], rtol=1e-12)
        np.testing.assert_allclose(
            prob, 1 / (1 + math.exp(-(float(p.V[0] @ s3) + p.c[0]))), rtol=1e-12
        )

    def test_states_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(2)
        p = random_params(rng, 6, 4)
        states, prob = forward_one(p, rng.normal(size=(8, 4)) * 3)
        assert np.all(np.abs(states) < 1.0)
        assert 0.0 < prob < 1.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(2, 6))
    def test_prefix_causality(self, seed, T):
        # shared parameters: the first t states do not depend on later inputs
        rng = np.random.default_rng(seed)
        p = random_params(rng, 3, 2)
        x = rng.normal(size=(T, 2))
        full, _ = forward_one(p, x)
        for t in range(1, T):
            prefix, _ = forward_one(p, x[:t])
            np.testing.assert_array_equal(prefix, full[:t])

    def test_dimension_mismatch_rejected(self):
        p = init_params(Hyperparams(hidden_size=2), 3)
        n = Normalizer(mean=np.zeros(4), std=np.ones(4), schema=tuple(f"m{i}" for i in range(4)))
        with pytest.raises(ValueError):
            predict_set(p, hvsm_set([(np.ones((2, 4)), None)]), n)


class TestLoss:
    def test_half_probability_gives_log_two(self):
        p = init_params(Hyperparams(hidden_size=2, init_scale=0.0), 2)
        rows = np.ones((2, 2))
        assert loss_one(p, rows, 1, 0.0) == pytest.approx(math.log(2), rel=1e-12)
        assert loss_one(p, rows, 0, 0.0) == pytest.approx(math.log(2), rel=1e-12)

    def test_zero_weights_zero_penalty(self):
        p = init_params(Hyperparams(hidden_size=2, init_scale=0.0), 2)
        assert loss_one(p, np.ones((1, 2)), 1, 1.0) == pytest.approx(math.log(2), rel=1e-12)

    def test_penalty_excludes_biases(self):
        p = make_params(
            U=np.ones((2, 2)), W=np.ones((2, 2)), V=np.ones((1, 2)),
            b=np.full(2, 100.0), c=100.0,
        )
        rows = np.ones((2, 2))
        # 4 + 4 + 2 squared weight entries
        penalty = loss_one(p, rows, 0, 2.0) - loss_one(p, rows, 0, 0.0)
        assert penalty == pytest.approx(10.0, rel=1e-12)

    def test_out_of_range_rejected(self):
        for bad in (-1, 2, 0.5):
            with pytest.raises(ValueError, match="0/1 label"):
                group_by_length(hvsm_set([(np.ones((1, 2)), bad)]))

    def test_boundary_clamped(self):
        # a saturated output (probability exactly 1) on a negative sample
        p = init_params(Hyperparams(hidden_size=2, init_scale=0.0), 2)
        p.c[0] = 100.0
        assert forward_one(p, np.ones((1, 2)))[1] == 1.0
        assert loss_one(p, np.ones((1, 2)), 0, 0.0) == pytest.approx(-math.log(1e-12))


class TestBackward:
    def test_output_bias_gradient_is_residual(self):
        rng = np.random.default_rng(3)
        p = random_params(rng, 3, 2)
        rows = rng.normal(size=(2, 2))
        g, _ = gradient_one(p, rows, 1, 0.0)
        dc = views(p, g).c[0]
        assert dc == pytest.approx(ref_forward(p, rows)[1] - 1, rel=1e-12)
        assert dc < 0

    def test_single_step_recurrent_gradient_is_zero(self):
        rng = np.random.default_rng(4)
        p = random_params(rng, 3, 2)
        g, _ = gradient_one(p, rng.normal(size=(1, 2)), 0, 0.0)
        assert not views(p, g).W.any()

    @pytest.mark.parametrize("T", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("y", [0, 1])
    def test_matches_finite_differences(self, T, y):
        rng = np.random.default_rng(100 + T)
        p = random_params(rng, 4, 3)
        seq = rng.normal(size=(T, 3))
        lam = 0.3
        analytic, _ = gradient_one(p, seq, y, lam)
        numeric = finite_difference_gradients(p, seq, y, lam)
        for name, value in as_dict(p, analytic).items():
            assert max_rel_error(value, numeric[name]) < 1e-5, name


class TestGradientCheck:
    def test_reports_small_error(self):
        assert gradient_check(Hyperparams(hidden_size=3, seed=0), 4, 1) < 1e-5
        assert gradient_check(Hyperparams(hidden_size=3, seed=0), 4, 5) < 1e-5

    def test_both_labels(self):
        for y in (0, 1):
            assert gradient_check(Hyperparams(hidden_size=2, seed=1), 3, 4, y=y) < 1e-5

    @pytest.mark.parametrize("fault", ["output-bias", "l2-term", "length-groups", "start-rows"])
    def test_detects_broken_batch_gradient(self, monkeypatch, fault):
        original = rnn.batch_gradient

        def broken(p, batch, lam):
            grad, loss = original(p, batch, lam)
            if fault == "output-bias":
                grad[-1] *= 1.01
            elif fault == "l2-term":  # left out of the gradient, kept in the loss
                grad = original(p, batch, 0.0)[0]
            elif fault == "length-groups":  # only the shortest group reaches the gradient
                shortest = Batch(batch.stacks[:1], batch.labels[: batch.rows[1]])
                grad = original(p, shortest, lam)[0]
            else:  # rows starting at a step get tanh(2 x U^T + b) in the gradient
                doubled = [np.concatenate([2 * X[:1], X[1:]]) for X in batch.stacks]
                grad = original(p, Batch(doubled, batch.labels), lam)[0]
            return grad, loss

        monkeypatch.setattr(rnn, "batch_gradient", broken)
        assert gradient_check(Hyperparams(hidden_size=3, seed=0), 4, 3) > 1e-3


class TestBatchGradient:
    def test_single_sample_matches_backward(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(3, 2))
        p = random_params(rng, 4, 2)
        grad, mean_loss = gradient_one(p, rows, 1, 0.0)
        assert_gradients_close(p, grad, ref_backward(p, rows, 1), rtol=1e-10)
        assert mean_loss == pytest.approx(ref_loss(p, rows, 1, 0.0), rel=1e-10)

    def test_mixed_lengths_match_per_sample_average(self):
        rng = np.random.default_rng(6)
        samples = [(rng.normal(size=(T, 3)), int(rng.integers(0, 2))) for T in (1, 2, 2, 4)]
        p = random_params(rng, 5, 3)
        lam = 0.2
        grad, mean_loss = batch_gradient(p, group_by_length(hvsm_set(samples)), lam)
        expected = {name: 0.0 for name in ("U", "W", "V", "b", "c")}
        for rows, y in samples:
            for name, value in ref_backward(p, rows, y).items():
                expected[name] = expected[name] + value / len(samples)
        for name in ("U", "W", "V"):
            expected[name] = expected[name] + lam * getattr(p, name)
        assert_gradients_close(p, grad, expected, rtol=1e-9)
        mean_ref = np.mean([ref_loss(p, rows, y, lam) for rows, y in samples])
        assert mean_loss == pytest.approx(mean_ref, rel=1e-10)

    def test_duplicated_samples_leave_gradient_unchanged(self):
        rng = np.random.default_rng(7)
        samples = [(rng.normal(size=(2, 2)), 1), (rng.normal(size=(3, 2)), 0)]
        p = random_params(rng, 3, 2)
        g1, l1 = batch_gradient(p, group_by_length(hvsm_set(samples)), 0.0)
        g2, l2 = batch_gradient(p, group_by_length(hvsm_set(samples + samples)), 0.0)
        np.testing.assert_allclose(views(p, g1).U, views(p, g2).U, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(views(p, g1).b, views(p, g2).b, rtol=1e-9, atol=1e-12)
        assert l1 == pytest.approx(l2, rel=1e-9)

    def test_regularizer_only_when_data_gradient_vanishes(self):
        # P = 0.5 for both labels of a duplicated input cancels the data term
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(2, 2))
        batch = group_by_length(hvsm_set([(rows, 0), (rows, 1)]))
        p = random_params(rng, 3, 2)
        lam = 0.7
        grad, _ = batch_gradient(p, batch, lam)
        data_grad_u = sum(ref_backward(p, rows, y)["U"] for y in (0, 1)) / 2
        np.testing.assert_allclose(views(p, grad).U - data_grad_u, lam * p.U, rtol=1e-9, atol=1e-12)

    def test_bias_gradients_unregularized(self):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(2, 2))
        p = random_params(rng, 3, 2)
        g0, _ = gradient_one(p, rows, 1, 0.0)
        g1, _ = gradient_one(p, rows, 1, 10.0)
        np.testing.assert_allclose(views(p, g0).b, views(p, g1).b, rtol=1e-12)
        assert views(p, g0).c[0] == pytest.approx(views(p, g1).c[0], rel=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            group_by_length(HvsmSet(("v",), (), None, ("m0",), by_length=()))


def hex_gradients(g: np.ndarray, loss: float) -> dict:
    return {"theta": [x.hex() for x in g.tolist()], "loss": float(loss).hex()}


def random_groups(rng, lengths, counts, input_dim):
    return [
        (rng.normal(size=(T, n, input_dim)), rng.integers(0, 2, size=n).astype(float))
        for T, n in zip(lengths, counts)
    ]


class TestSweepMatchesLoop:
    """The end-aligned sweep against the per-group loop it replaced, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        lengths=st.sets(st.integers(1, 12), min_size=1, max_size=12).map(sorted),
        counts=st.lists(st.integers(2, 40), min_size=12, max_size=12),
        input_dim=st.integers(1, 24),
        hidden=st.integers(1, 16),
        lam=st.floats(1e-6, 1.0),
    )
    # hidden 1: the terms' rows hold one element each, and eight of them
    # are where a reduce would start summing pairwise
    @example(seed=0, lengths=[1, 6], counts=[2] * 12, input_dim=1, hidden=1, lam=1.0)
    # the nn baseline's batch: one group of one step
    @example(seed=1, lengths=[1], counts=[40] * 12, input_dim=20, hidden=16, lam=1e-4)
    def test_gradient_and_forward_bitwise(self, seed, lengths, counts, input_dim, hidden, lam):
        rng = np.random.default_rng(seed)
        groups = random_groups(rng, lengths, counts, input_dim)
        p = random_params(rng, hidden, input_dim)
        batch = as_batch(groups)
        expected = hex_gradients(*loop_batch_gradient(p, groups, lam))
        assert hex_gradients(*batch_gradient(p, batch, lam)) == expected
        # a second call reuses the batch's work arrays
        assert hex_gradients(*batch_gradient(p, batch, lam)) == expected

        schema = tuple(f"m{i}" for i in range(input_dim))
        samples = [(X[:, i, :], None) for X, _ in groups for i in range(X.shape[1])]
        n = Normalizer(mean=np.zeros(input_dim), std=np.ones(input_dim), schema=schema)
        got = predict_set(p, hvsm_set(samples), n)
        want = np.concatenate([loop_group_forward(p, X)[1] for X, _ in groups])
        assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("counts", [(1, 5, 1, 7), (4, 1, 6), (1, 1), (3, 1)])
    def test_one_sample_groups_bitwise(self, counts):
        # a one-sample group's products run as gemv in the loop; the sweep
        # gives its rows their own products, so it stays exact
        rng = np.random.default_rng(sum(counts))
        groups = random_groups(rng, range(1, len(counts) + 1), counts, 5)
        p = random_params(rng, 16, 5)
        got = hex_gradients(*batch_gradient(p, as_batch(groups), 1e-3))
        assert got == hex_gradients(*loop_batch_gradient(p, groups, 1e-3))


class TestRowBlocks:
    """``row_blocks`` keeps products under the BLAS thread bound and never
    leaves a one-row (gemv) block."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 20_000), row_cost=st.integers(1, rnn.BLAS_THREAD_BOUND))
    @example(n=1639, row_cost=320)  # one row past the bound
    @example(n=3277, row_cost=320)  # one row past twice the most rows per block
    def test_blocks_cover_rows_under_the_bound(self, n, row_cost):
        blocks = rnn.row_blocks(n, row_cost)
        assert [a for a, _ in blocks] == [0] + [b for _, b in blocks[:-1]]
        assert blocks[-1][1] == n
        if (rnn.BLAS_THREAD_BOUND - 1) // row_cost < 3:  # too costly to split
            assert blocks == [(0, n)]
            return
        sizes = [b - a for a, b in blocks]
        assert all(size * row_cost < rnn.BLAS_THREAD_BOUND for size in sizes)
        assert n < 2 or min(sizes) >= 2
        assert max(sizes) - min(sizes) <= 1

    def test_atlas_sized_projection_is_split(self):
        # the nn's one-step projection of a 1,700-file release, 20 metrics
        assert rnn.row_blocks(1638, 20 * 16) == [(0, 1638)]
        assert rnn.row_blocks(1639, 20 * 16) == [(0, 820), (820, 1639)]
        assert len(rnn.row_blocks(1700, 20 * 16)) == 2


class TestBlockedProducts:
    """Forward, prediction and gradient over groups large enough to be cut
    into row blocks equal the unblocked per-group loop bit for bit."""

    @pytest.mark.parametrize(
        "lengths, counts",
        [
            ((1,), (1700,)),  # the nn's one-step batch of a wide test release
            ((1, 2), (1639, 2049)),  # projections one row past the bound
            ((2, 3), (1, 2048)),  # recurrent products at the bound, one-sample group
        ],
    )
    def test_bitwise_against_loop(self, lengths, counts):
        rng = np.random.default_rng(sum(counts))
        groups = random_groups(rng, lengths, counts, 20)
        p = random_params(rng, 16, 20)
        batch = as_batch(groups)
        want = [x.hex() for X, _ in groups for x in loop_group_forward(p, X)[1]]
        assert [x.hex() for x in forward(p, batch)[1]] == want

        schema = tuple(f"m{i}" for i in range(20))
        samples = [(X[:, i, :], None) for X, _ in groups for i in range(X.shape[1])]
        n = Normalizer(mean=np.zeros(20), std=np.ones(20), schema=schema)
        assert [x.hex() for x in predict_set(p, hvsm_set(samples), n)] == want

        expected = hex_gradients(*loop_batch_gradient(p, groups, 1e-4))
        assert hex_gradients(*batch_gradient(p, batch, 1e-4)) == expected


class TestGroupByLength:
    def test_groups_ascend_by_length_in_sample_order(self):
        rng = np.random.default_rng(20)
        samples = [(rng.normal(size=(T, 2)), T % 2) for T in (3, 1, 3, 2, 1)]
        batch = group_by_length(hvsm_set(samples))
        assert [X.shape for X in batch.stacks] == [(1, 2, 2), (2, 1, 2), (3, 2, 2)]
        np.testing.assert_array_equal(batch.stacks[0][:, 1, :], samples[4][0])
        np.testing.assert_array_equal(batch.stacks[2][:, 0, :], samples[0][0])
        assert batch.labels.tolist() == [1.0, 1.0, 0.0, 1.0, 1.0]
        # end-aligned: length 3 from step 0, length 2 from 1, length 1 at 2
        assert (batch.rows, batch.depth, batch.first) == ([0, 2, 3, 5], 3, [3, 2, 0])


class TestTrain:
    def test_zero_eta_keeps_init(self):
        rng = np.random.default_rng(10)
        batch = hvsm_set([(rng.normal(size=(2, 3)), 1), (rng.normal(size=(1, 3)), 0)])
        h = Hyperparams(hidden_size=4, eta=0.0, iterations=5, seed=2)
        result = train(batch, h)
        np.testing.assert_array_equal(result.params.U, init_params(h, 3).U)

    def test_loss_decreases_on_separable_toy(self):
        batch = hvsm_set([(np.array([[1.0, 0.0]]), 1), (np.array([[-1.0, 0.0]]), 0)])
        h = Hyperparams(hidden_size=4, eta=0.05, lam=0.0, iterations=10, seed=0)
        result = train(batch, h)
        diffs = np.diff(result.loss_history[:11])
        assert np.all(diffs < 0)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        samples = [(rng.normal(size=(T, 2)), int(rng.integers(0, 2))) for T in (1, 2, 3)]
        h = Hyperparams(hidden_size=3, iterations=20, seed=9)
        a = train(hvsm_set(samples), h)
        b = train(hvsm_set(samples), h)
        assert np.array_equal(a.params.U, b.params.U)
        assert np.array_equal(a.params.W, b.params.W)
        assert a.loss_history == b.loss_history

    def test_one_small_step_does_not_increase_loss(self):
        # halving up to 20 times must find a non-increasing step
        rng = np.random.default_rng(12)
        samples = [(rng.normal(size=(2, 3)), int(rng.integers(0, 2))) for _ in range(4)]
        batch = hvsm_set(samples)
        h = Hyperparams(hidden_size=4, eta=1e4, lam=0.0, iterations=1, seed=3, halving_limit=20)
        result = train(batch, h)
        assert result.loss_history[1] <= result.loss_history[0] + 1e-12

    def test_unlabeled_sample_rejected(self):
        batch = hvsm_set([(np.ones((1, 2)), None)])
        with pytest.raises(ValueError):
            train(batch, Hyperparams(hidden_size=2, iterations=1))

    def test_divergence_reports_iteration(self):
        # with retries disabled, an absurd learning rate overflows the
        # weight penalty and training must name the failing iteration
        rng = np.random.default_rng(13)
        batch = hvsm_set([(rng.normal(size=(2, 2)), 1), (rng.normal(size=(2, 2)), 0)])
        h = Hyperparams(
            hidden_size=3, eta=1e200, lam=1e-4, iterations=10, seed=0, halving_limit=0
        )
        with np.errstate(over="ignore"), pytest.raises(TrainingError, match="iteration"):
            train(batch, h)


# loss history and final parameters of ``reference_run`` as produced by the
# per-call-grouping trainer this one replaced (numpy 2.4, OpenBLAS, x86-64);
# the run takes two halvings, so the retry path is covered too
REFERENCE_LOSS_HEX = (
    "0x1.62ece72aad143p-1", "0x1.5f3cf3d5fe895p-1", "0x1.55e0d2832e2cdp-1",
    "0x1.408049f81f7d9p-1", "0x1.190549d485fddp-1", "0x1.aeb5fc6109d07p-2",
    "0x1.794d6b09f2bfap-2", "0x1.4f9aa4ef3667ep-2", "0x1.3fdfdfdcbeb70p-2",
    "0x1.318dd573fc108p-2", "0x1.2259725c8cf64p-2", "0x1.12c34dbe503fep-2",
    "0x1.03b32c4e40569p-2",
)
REFERENCE_PARAMS_HEX = {
    "U": (
        "-0x1.8ec4472cc941dp-2", "-0x1.db60485d3c1e7p-3", "0x1.24c984d9196c7p-2",
        "-0x1.7bd4aa3694e4bp-2", "-0x1.4d1391d2ca469p-5", "0x1.1c24e7f2447a4p-2",
        "-0x1.38575d16eb89ap-2", "0x1.4caac143c8b20p-2", "0x1.df3465e4ffee3p-1",
        "-0x1.e41186e96bed2p-3", "0x1.0e105736c63e5p-3", "-0x1.1a00eea8600afp-5",
    ),
    "W": (
        "0x1.fde4fbc3f47d7p-4", "0x1.7b5ebc7ca9257p-7", "0x1.64c1a3c0dd86cp+0",
        "-0x1.60b7489d9979ap-5", "0x1.5481b76772404p-2", "-0x1.2a099b892cdbcp+0",
        "-0x1.29b4a54bf248ap-1", "0x1.018f38a9747e8p-1", "-0x1.bbf345266191dp-2",
    ),
    "V": ("-0x1.6953e9048f8ebp+0", "0x1.20545349ebb68p+0", "0x1.a5656bc328792p+0"),
    "b": ("-0x1.13e5ae85774f9p-2", "0x1.88ecbcab8c115p-3", "0x1.9f052d06f37f1p-2"),
    "c": ("-0x1.cdd6f831199acp-3",),
}


def reference_run():
    """Mixed lengths 2 and 3, interleaved, trained with a step size that
    forces halvings."""
    long, _ = trend_samples(12, seed=3, T=3)
    short, _ = trend_samples(8, seed=4, T=2)
    samples = [s for pair in zip(long, short) for s in pair] + long[8:]
    h = Hyperparams(hidden_size=3, eta=5.0, lam=1e-3, iterations=12, seed=7)
    return hvsm_set(samples), h


class TestTrainingCore:
    def test_batch_built_once_per_train(self, monkeypatch):
        calls = []
        original = rnn.group_by_length

        def counting(train_set):
            calls.append(train_set)
            return original(train_set)

        monkeypatch.setattr(rnn, "group_by_length", counting)
        train_set, h = reference_run()
        train(train_set, h)
        assert calls == [train_set]

    def test_one_gradient_evaluation_per_loss(self, monkeypatch):
        calls = []
        original = rnn.batch_gradient

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(rnn, "batch_gradient", counting)
        train_set, h = reference_run()
        result = train(train_set, h)
        # initial loss, one per accepted step, plus the two halvings
        assert len(calls) == len(result.loss_history) + 2

    def test_reproduces_reference_bitwise(self):
        result = train(*reference_run())
        assert [x.hex() for x in result.loss_history] == list(REFERENCE_LOSS_HEX)
        p = result.params
        got = {name: tuple(float(x).hex() for x in np.ravel(getattr(p, name))) for name in "UWVbc"}
        assert got == REFERENCE_PARAMS_HEX


class TestPredict:
    def identity_normalizer(self, dim, schema=None):
        schema = schema or tuple(f"m{i}" for i in range(dim))
        return Normalizer(mean=np.zeros(dim), std=np.ones(dim), schema=schema)

    @staticmethod
    def predict_one(p, rows, n, schema=None) -> float:
        return float(predict_set(p, hvsm_set([(rows, None)], schema=schema), n)[0])

    def test_zero_weights_give_half(self):
        p = init_params(Hyperparams(hidden_size=3, init_scale=0.0), 2)
        rows = np.random.default_rng(0).normal(size=(3, 2))
        assert self.predict_one(p, rows, self.identity_normalizer(2)) == 0.5

    def test_variable_lengths_accepted(self):
        rng = np.random.default_rng(13)
        p = random_params(rng, 3, 2)
        n = self.identity_normalizer(2)
        p3 = self.predict_one(p, rng.normal(size=(3, 2)), n)
        p2 = self.predict_one(p, rng.normal(size=(2, 2)), n)
        assert 0 < p3 < 1 and 0 < p2 < 1

    def test_independent_of_other_samples(self):
        rng = np.random.default_rng(14)
        p = random_params(rng, 3, 2)
        n = self.identity_normalizer(2)
        rows = rng.normal(size=(2, 2))
        alone = self.predict_one(p, rows, n)
        together = predict_set(
            p, hvsm_set([(rows, 1), (rng.normal(size=(4, 2)), 0)]), n
        )
        assert together[0] == pytest.approx(alone, rel=1e-12)
        assert alone == pytest.approx(ref_forward(p, rows)[1], rel=1e-12)

    def test_predict_set_matches_predict(self):
        rng = np.random.default_rng(15)
        p = random_params(rng, 4, 3)
        n = self.identity_normalizer(3)
        samples = [(rng.normal(size=(T, 3)), 0) for T in (1, 3, 2, 3, 1)]
        s = hvsm_set(samples)
        batch = predict_set(p, s, n)
        for prob, (rows, _) in zip(batch, samples):
            assert prob == pytest.approx(self.predict_one(p, rows, n), rel=1e-12)
            assert prob == pytest.approx(ref_forward(p, rows)[1], rel=1e-12)

    def test_normalization_applied(self):
        rng = np.random.default_rng(16)
        p = random_params(rng, 3, 2)
        schema = ("m0", "m1")
        n = Normalizer(mean=np.array([1.0, -1.0]), std=np.array([2.0, 4.0]), schema=schema)
        rows = rng.normal(size=(2, 2))
        manual = ref_forward(p, (rows - n.mean) / n.std)[1]
        assert self.predict_one(p, rows, n, schema) == pytest.approx(manual)

    def test_schema_mismatch_rejected(self):
        p = init_params(Hyperparams(hidden_size=2), 2)
        n = Normalizer(mean=np.zeros(2), std=np.ones(2), schema=("a", "b"))
        with pytest.raises(ValueError):
            self.predict_one(p, np.ones((1, 2)), n, ("c", "d"))


class TestLearnability:
    def test_learns_trend_signal(self):
        samples, _ = trend_samples(120, seed=42)
        s = hvsm_set(samples)
        h = Hyperparams(hidden_size=8, eta=0.5, lam=1e-4, iterations=150, seed=0)
        result = train(s, h)
        assert result.loss_history[-1] < result.loss_history[0] / 2
