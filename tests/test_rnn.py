import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defectseq import rnn
from defectseq.history import HvsmSet, Normalizer
from defectseq.rnn import (
    Hyperparams,
    RnnParams,
    TrainingError,
    _group_forward,
    batch_gradient,
    gradient_check,
    group_by_length,
    init_params,
    load_model,
    predict_set,
    save_model,
    train,
)

from helpers import hvsm_from_rows, hvsm_set, trend_samples


def random_params(rng, hidden, input_dim, scale=0.5):
    return RnnParams(
        U=rng.uniform(-scale, scale, size=(hidden, input_dim)),
        W=rng.uniform(-scale, scale, size=(hidden, hidden)),
        V=rng.uniform(-scale, scale, size=(1, hidden)),
        b=rng.uniform(-scale, scale, size=hidden),
        c=float(rng.uniform(-scale, scale)),
    )


# ---------------------------------------------------------------------------
# independent oracles: one sample, one time step at a time
# ---------------------------------------------------------------------------

def ref_forward(p: RnnParams, seq: np.ndarray) -> tuple[np.ndarray, float]:
    """Hidden states (T x hidden) and output probability of one sequence."""
    x = np.atleast_2d(np.asarray(seq, dtype=float))
    states = [np.tanh(p.U @ x[0] + p.b)]
    for t in range(1, x.shape[0]):
        states.append(np.tanh(p.U @ x[t] + p.W @ states[-1] + p.b))
    prob = 1.0 / (1.0 + math.exp(-(float(p.V[0] @ states[-1]) + p.c)))
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
    for name in ("U", "W", "V", "b"):
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
    orig = p.c
    p.c = orig + eps
    hi = ref_loss(p, seq, y, lam)
    p.c = orig - eps
    lo = ref_loss(p, seq, y, lam)
    p.c = orig
    out["c"] = (hi - lo) / (2 * eps)
    return out


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.atleast_1d(np.asarray(analytic, dtype=float))
    n = np.atleast_1d(np.asarray(numeric, dtype=float))
    return float(np.max(np.abs(a - n) / np.maximum(np.abs(a) + np.abs(n), 1e-5)))


# ---------------------------------------------------------------------------
# the production path on a batch of one
# ---------------------------------------------------------------------------

def forward_one(p: RnnParams, rows: np.ndarray) -> tuple[np.ndarray, float]:
    """States and probability of one sequence through the batched forward."""
    S, probs = _group_forward(p, np.atleast_2d(rows)[:, None, :])
    return S[:, 0, :], float(probs[0])


def gradient_one(p: RnnParams, rows: np.ndarray, y: int, lam: float):
    return batch_gradient(p, group_by_length(hvsm_set([(rows, y)])), lam)


def loss_one(p: RnnParams, rows: np.ndarray, y: int, lam: float) -> float:
    return gradient_one(p, rows, y, lam)[1]


def as_dict(g) -> dict:
    return {"U": g.dU, "W": g.dW, "V": g.dV, "b": g.db, "c": g.dc}


def assert_gradients_close(g, expected: dict, rtol: float, atol: float = 1e-12):
    for name, value in as_dict(g).items():
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
        assert not p.b.any() and p.c == 0.0

    def test_zero_scale_gives_zero_weights(self):
        p = init_params(Hyperparams(init_scale=0.0), 4)
        assert not p.U.any() and not p.W.any() and not p.V.any()

    def test_bounds_respected(self):
        h = Hyperparams(hidden_size=12, init_scale=0.2, seed=5)
        p = init_params(h, 9)
        for arr in (p.U, p.V, p.W):
            assert np.all(np.abs(arr) <= 0.2)


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
        p = RnnParams(
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
            prob, 1 / (1 + math.exp(-(float(p.V[0] @ s3) + p.c))), rtol=1e-12
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
        p = RnnParams(
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
        p.c = 100.0
        assert forward_one(p, np.ones((1, 2)))[1] == 1.0
        assert loss_one(p, np.ones((1, 2)), 0, 0.0) == pytest.approx(-math.log(1e-12))


class TestBackward:
    def test_output_bias_gradient_is_residual(self):
        rng = np.random.default_rng(3)
        p = random_params(rng, 3, 2)
        rows = rng.normal(size=(2, 2))
        g, _ = gradient_one(p, rows, 1, 0.0)
        assert g.dc == pytest.approx(ref_forward(p, rows)[1] - 1, rel=1e-12)
        assert g.dc < 0

    def test_single_step_recurrent_gradient_is_zero(self):
        rng = np.random.default_rng(4)
        p = random_params(rng, 3, 2)
        g, _ = gradient_one(p, rng.normal(size=(1, 2)), 0, 0.0)
        assert not g.dW.any()

    @pytest.mark.parametrize("T", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("y", [0, 1])
    def test_matches_finite_differences(self, T, y):
        rng = np.random.default_rng(100 + T)
        p = random_params(rng, 4, 3)
        seq = rng.normal(size=(T, 3))
        lam = 0.3
        analytic, _ = gradient_one(p, seq, y, lam)
        numeric = finite_difference_gradients(p, seq, y, lam)
        for name, value in as_dict(analytic).items():
            assert max_rel_error(value, numeric[name]) < 1e-5, name


class TestGradientCheck:
    def test_reports_small_error(self):
        assert gradient_check(Hyperparams(hidden_size=3, seed=0), 4, 1) < 1e-5
        assert gradient_check(Hyperparams(hidden_size=3, seed=0), 4, 5) < 1e-5

    def test_both_labels(self):
        for y in (0, 1):
            assert gradient_check(Hyperparams(hidden_size=2, seed=1), 3, 4, y=y) < 1e-5

    @pytest.mark.parametrize("fault", ["output-bias", "l2-term", "length-groups"])
    def test_detects_broken_batch_gradient(self, monkeypatch, fault):
        original = rnn.batch_gradient

        def broken(p, batch, lam):
            grad, loss = original(p, batch, lam)
            if fault == "output-bias":
                grad = replace(grad, dc=1.01 * grad.dc)
            elif fault == "l2-term":  # left out of the gradient, kept in the loss
                grad = original(p, batch, 0.0)[0]
            else:  # only the shortest length group reaches the gradient
                grad = original(p, batch[:1], lam)[0]
            return grad, loss

        monkeypatch.setattr(rnn, "batch_gradient", broken)
        assert gradient_check(Hyperparams(hidden_size=3, seed=0), 4, 3) > 1e-3


class TestBatchGradient:
    def test_single_sample_matches_backward(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(3, 2))
        p = random_params(rng, 4, 2)
        grad, mean_loss = gradient_one(p, rows, 1, 0.0)
        assert_gradients_close(grad, ref_backward(p, rows, 1), rtol=1e-10)
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
        assert_gradients_close(grad, expected, rtol=1e-9)
        mean_ref = np.mean([ref_loss(p, rows, y, lam) for rows, y in samples])
        assert mean_loss == pytest.approx(mean_ref, rel=1e-10)

    def test_duplicated_samples_leave_gradient_unchanged(self):
        rng = np.random.default_rng(7)
        samples = [(rng.normal(size=(2, 2)), 1), (rng.normal(size=(3, 2)), 0)]
        p = random_params(rng, 3, 2)
        g1, l1 = batch_gradient(p, group_by_length(hvsm_set(samples)), 0.0)
        g2, l2 = batch_gradient(p, group_by_length(hvsm_set(samples + samples)), 0.0)
        np.testing.assert_allclose(g1.dU, g2.dU, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(g1.db, g2.db, rtol=1e-9, atol=1e-12)
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
        np.testing.assert_allclose(grad.dU - data_grad_u, lam * p.U, rtol=1e-9, atol=1e-12)

    def test_bias_gradients_unregularized(self):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(2, 2))
        p = random_params(rng, 3, 2)
        g0, _ = gradient_one(p, rows, 1, 0.0)
        g1, _ = gradient_one(p, rows, 1, 10.0)
        np.testing.assert_allclose(g0.db, g1.db, rtol=1e-12)
        assert g0.dc == pytest.approx(g1.dc, rel=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            group_by_length(HvsmSet(anchor_version="v", items=(), window=1))


class TestGroupByLength:
    def test_groups_ascend_by_length_in_sample_order(self):
        rng = np.random.default_rng(20)
        samples = [(rng.normal(size=(T, 2)), T % 2) for T in (3, 1, 3, 2, 1)]
        batch = group_by_length(hvsm_set(samples))
        assert [X.shape for X, _ in batch] == [(1, 2, 2), (2, 1, 2), (3, 2, 2)]
        np.testing.assert_array_equal(batch[0][0][:, 1, :], samples[4][0])
        np.testing.assert_array_equal(batch[2][0][:, 0, :], samples[0][0])
        assert [y.tolist() for _, y in batch] == [[1.0, 1.0], [0.0], [1.0, 1.0]]


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
        item = hvsm_from_rows(np.ones((1, 2)), label=None)
        batch = HvsmSet(anchor_version="v", items=(item,), window=1)
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
    def predict_one(p, item, n) -> float:
        return float(predict_set(p, HvsmSet(anchor_version="v", items=(item,), window=item.length), n)[0])

    def test_zero_weights_give_half(self):
        p = init_params(Hyperparams(hidden_size=3, init_scale=0.0), 2)
        item = hvsm_from_rows(np.random.default_rng(0).normal(size=(3, 2)), 1)
        assert self.predict_one(p, item, self.identity_normalizer(2)) == 0.5

    def test_variable_lengths_accepted(self):
        rng = np.random.default_rng(13)
        p = random_params(rng, 3, 2)
        n = self.identity_normalizer(2)
        p3 = self.predict_one(p, hvsm_from_rows(rng.normal(size=(3, 2)), None), n)
        p2 = self.predict_one(p, hvsm_from_rows(rng.normal(size=(2, 2)), None), n)
        assert 0 < p3 < 1 and 0 < p2 < 1

    def test_independent_of_other_samples(self):
        rng = np.random.default_rng(14)
        p = random_params(rng, 3, 2)
        n = self.identity_normalizer(2)
        rows = rng.normal(size=(2, 2))
        alone = self.predict_one(p, hvsm_from_rows(rows, 1), n)
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
        for prob, item, (rows, _) in zip(batch, s.items, samples):
            assert prob == pytest.approx(self.predict_one(p, item, n), rel=1e-12)
            assert prob == pytest.approx(ref_forward(p, rows)[1], rel=1e-12)

    def test_normalization_applied(self):
        rng = np.random.default_rng(16)
        p = random_params(rng, 3, 2)
        schema = ("m0", "m1")
        n = Normalizer(mean=np.array([1.0, -1.0]), std=np.array([2.0, 4.0]), schema=schema)
        rows = rng.normal(size=(2, 2))
        manual = ref_forward(p, (rows - n.mean) / n.std)[1]
        item = hvsm_from_rows(rows, None, schema=schema)
        assert self.predict_one(p, item, n) == pytest.approx(manual)

    def test_schema_mismatch_rejected(self):
        p = init_params(Hyperparams(hidden_size=2), 2)
        n = Normalizer(mean=np.zeros(2), std=np.ones(2), schema=("a", "b"))
        item = hvsm_from_rows(np.ones((1, 2)), None, schema=("c", "d"))
        with pytest.raises(ValueError):
            self.predict_one(p, item, n)


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        p = random_params(rng, 4, 3)
        h = Hyperparams(hidden_size=4, eta=0.07, lam=3e-4, iterations=12, seed=5)
        path = tmp_path / "model.json"
        save_model(path, p, h)
        loaded, h2 = load_model(path)
        assert np.array_equal(loaded.U, p.U)
        assert np.array_equal(loaded.W, p.W)
        assert np.array_equal(loaded.V, p.V)
        assert np.array_equal(loaded.b, p.b)
        assert loaded.c == p.c
        assert h2 == h

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_model(path)


class TestLearnability:
    def test_learns_trend_signal(self):
        samples, _ = trend_samples(120, seed=42)
        s = hvsm_set(samples)
        h = Hyperparams(hidden_size=8, eta=0.5, lam=1e-4, iterations=150, seed=0)
        result = train(s, h)
        assert result.loss_history[-1] < result.loss_history[0] / 2
