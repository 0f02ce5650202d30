"""``descend``'s reused vectors against the loop they replaced, bit for bit.

The oracle builds a fresh ``theta - eta * grad`` every step from a gradient
the objective returns fresh, and lr's oracle objective is the two-log
formula with ``np.mean``.  Production keeps two points and two gradients
for the whole run and writes every step and gradient in place; each case
compares the final vector and the whole loss history by ``float.hex``.
"""

import numpy as np
import pytest

from defectseq import baselines as bl
from defectseq.baselines import _train_logistic
from defectseq.rnn import (
    Hyperparams,
    RnnParams,
    TrainingError,
    batch_gradient,
    descend,
    group_by_length,
    init_params,
    train,
)

from helpers import hvsm_set


def oracle_descend(objective, theta, h, halvings_seen=None):
    """Gradient descent with halving, one new vector per step;
    ``objective(theta)`` returns a new gradient and the loss."""
    grad, current = objective(theta)
    history = [current]
    eta = h.eta
    for it in range(h.iterations):
        candidate = theta - eta * grad
        cand_grad, cand_loss = objective(candidate)
        halvings = 0
        while np.isfinite(cand_loss) and cand_loss > current and halvings < h.halving_limit:
            eta *= 0.5
            candidate = theta - eta * grad
            cand_grad, cand_loss = objective(candidate)
            halvings += 1
        if halvings_seen is not None:
            halvings_seen.append(halvings)
        if not np.isfinite(cand_loss):
            raise TrainingError(f"non-finite loss at iteration {it}")
        theta, grad, current = candidate, cand_grad, cand_loss
        history.append(current)
    return theta, history


def oracle_rnn(train_set, h, halvings_seen=None):
    batch = group_by_length(train_set)
    shape = h.hidden_size, len(train_set.schema)
    return oracle_descend(
        lambda theta: batch_gradient(RnnParams(theta, *shape), batch, h.lam),
        init_params(h, shape[1]).theta,
        h,
        halvings_seen,
    )


def oracle_lr(Z, y, h, halvings_seen=None):
    m, d = Z.shape

    def objective(theta):
        w, b = theta[:d], theta[d]
        p = 1.0 / (1.0 + np.exp(-(Z @ w + b)))
        grad = np.append(Z.T @ (p - y) / m + h.lam * w, np.mean(p - y))
        p = np.clip(p, 1e-12, 1 - 1e-12)
        loss = np.mean(-y * np.log(p) - (1 - y) * np.log(1 - p)) + 0.5 * h.lam * np.sum(w**2)
        return grad, float(loss)

    return oracle_descend(objective, np.zeros(d + 1), h, halvings_seen)


def hexes(values) -> list[str]:
    return [float(x).hex() for x in np.ravel(values)]


def mixed_set(seed=0, input_dim=4):
    # lengths 1-3 with several samples each, and one sample of length 4
    rng = np.random.default_rng(seed)
    lengths = [1, 1, 2, 3, 2, 3, 1, 4, 3, 2, 1, 3]
    return hvsm_set([(rng.normal(size=(T, input_dim)), int(rng.integers(0, 2))) for T in lengths])


def one_step_set(seed=1, n=30, input_dim=5):
    rng = np.random.default_rng(seed)
    return hvsm_set([(rng.normal(size=(1, input_dim)), int(rng.integers(0, 2))) for _ in range(n)])


def lr_data(seed=2, m=37, d=3):
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(m, d))
    y = (Z[:, 0] + rng.normal(size=m) > 0).astype(float)
    return Z, y


def rnn_case(train_set, h):
    seen = []
    theta, history = oracle_rnn(train_set, h, seen)
    result = train(train_set, h)
    assert hexes(result.params.theta) == hexes(theta)
    assert hexes(result.loss_history) == hexes(history)
    return seen, history


def lr_case(Z, y, h):
    seen = []
    theta, history = oracle_lr(Z, y, h, seen)
    got = _train_logistic(Z, y, h)
    assert hexes(got["weights"]) == hexes(theta[:-1])
    assert float(got["bias"]).hex() == float(theta[-1]).hex()
    return seen, history


@pytest.fixture
def lr_history(monkeypatch):
    """The loss histories of the lr trainings run under this fixture, read
    off ``descend`` as ``_train_logistic`` calls it."""
    histories = []

    def recording(bind, theta, h):
        theta, history = descend(bind, theta, h)
        histories.append(history)
        return theta, history

    monkeypatch.setattr(bl, "descend", recording)
    return histories


class TestAgainstFreshVectors:
    def test_rnn_mixed_lengths_with_a_one_sample_group(self):
        rnn_case(mixed_set(), Hyperparams(hidden_size=5, eta=0.5, lam=1e-3, iterations=30, seed=4))

    def test_nn_one_step(self):
        h = Hyperparams(hidden_size=6, eta=0.3, lam=1e-4, iterations=30, seed=5)
        rnn_case(one_step_set(), h)

    def test_lr(self, lr_history):
        _, history = lr_case(*lr_data(), Hyperparams(eta=0.5, lam=1e-2, iterations=40))
        assert [hexes(h) for h in lr_history] == [hexes(history)]

    @pytest.mark.parametrize("model", ["rnn", "lr"])
    def test_consecutive_halvings(self, model, lr_history):
        h = Hyperparams(hidden_size=4, eta=300.0, lam=1e-3, iterations=15, seed=6)
        if model == "rnn":
            seen, _ = rnn_case(mixed_set(seed=3), h)
        else:
            seen, history = lr_case(*lr_data(seed=4), h)
            assert [hexes(h) for h in lr_history] == [hexes(history)]
        assert max(seen) >= 2

    @pytest.mark.parametrize("model", ["rnn", "lr"])
    def test_halving_limit_reached(self, model, lr_history):
        # two halvings cannot tame this step, so a rising loss is accepted
        h = Hyperparams(hidden_size=4, eta=1e4, lam=1e-2, iterations=6, seed=7, halving_limit=2)
        with np.errstate(over="ignore"):
            if model == "rnn":
                seen, history = rnn_case(mixed_set(seed=5), h)
            else:
                seen, history = lr_case(*lr_data(seed=6), h)
                assert [hexes(h) for h in lr_history] == [hexes(history)]
        assert 2 in seen and any(b > a for a, b in zip(history, history[1:]))

    @pytest.mark.parametrize("model", ["rnn", "lr"])
    def test_non_finite_loss_names_the_iteration(self, model):
        # without halving, lam * eta >> 1 multiplies the weights by about
        # lam * eta per step until their squares overflow, some steps in
        h = Hyperparams(hidden_size=3, eta=1e12, lam=1e-2, iterations=40, seed=8, halving_limit=0)
        if model == "rnn":
            train_set = mixed_set(seed=7)
            run_oracle, run = (lambda: oracle_rnn(train_set, h)), (lambda: train(train_set, h))
        else:
            Z, y = lr_data(seed=8)
            run_oracle, run = (lambda: oracle_lr(Z, y, h)), (lambda: _train_logistic(Z, y, h))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError) as want:
                run_oracle()
            with pytest.raises(TrainingError) as got:
                run()
        assert str(got.value) == str(want.value)
        assert int(str(want.value).rsplit(" ", 1)[1]) >= 2


class TestReusedVectors:
    def test_rejected_candidate_never_overwrites_the_current_point(self):
        # f(x) = x.x from eta 5 needs three halvings per step; at every
        # evaluation the other pair of vectors (the current point) must
        # still hold its own gradient 2x
        pairs = []

        def bind(theta, grad):
            pairs.append((theta, grad))

            def objective():
                for other, other_grad in pairs:
                    if other is not theta and evaluated[id(other)]:
                        assert np.array_equal(other_grad, 2.0 * other)
                np.multiply(2.0, theta, out=grad)
                evaluated[id(theta)] = True
                return float(theta @ theta)

            evaluated[id(theta)] = False
            return objective

        evaluated = {}
        h = Hyperparams(eta=5.0, iterations=4, halving_limit=20)
        start = np.array([1.0, -2.0, 0.5])
        seen = []
        want = oracle_descend(lambda x: (2.0 * x, float(x @ x)), start.copy(), h, seen)
        theta, history = descend(bind, start.copy(), h)
        assert seen[0] == 3 and len(pairs) == 2
        assert hexes(theta) == hexes(want[0]) and hexes(history) == hexes(want[1])

    def test_three_argument_gradient_is_the_callers(self):
        # without ``out`` each call returns a new vector
        train_set = mixed_set()
        batch = group_by_length(train_set)
        p = init_params(Hyperparams(hidden_size=3), len(train_set.schema))
        g1, _ = batch_gradient(p, batch, 1e-3)
        kept = g1.copy()
        g2, _ = batch_gradient(p, batch, 1e-3)
        assert g1 is not g2 and np.array_equal(g1, kept)
