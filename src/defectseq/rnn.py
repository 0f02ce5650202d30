"""Variable-length recurrent classifier trained by full-batch gradient descent.

One tanh hidden layer with shared weights across time steps, a sigmoid
output read off the final state, and log loss with an L2 penalty on the
three weight matrices (biases are unpenalized).

There is one forward/backward implementation, and it is batched.  A set
stacks its samples into one ``(T, n, input_dim)`` array per sequence
length once (``HvsmSet.by_length``); ``group_by_length`` pairs those
stacks with their labels once per training run, ``batch_gradient`` runs
exact backpropagation through time over them, and prediction runs the same
forward pass over the test set's own stack, so repeats on the same sets
restack nothing.  The finite-difference checker differentiates
``batch_gradient`` itself, on a batch of mixed lengths and labels with the
L2 term on, so it verifies the code the trainer runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .history import HvsmSet, Normalizer

# log-loss clamp; keeps log() finite when sigmoid saturates to 0 or 1
PROB_EPS = 1e-12


class TrainingError(RuntimeError):
    """Raised when training produces a non-finite loss."""


@dataclass(frozen=True)
class Hyperparams:
    """Training knobs.  The seed fixes weight initialization.

    ``halving_limit`` bounds how often a step may be retried with half the
    learning rate after a loss increase; 0 disables the retry entirely.
    """

    hidden_size: int = 16
    eta: float = 0.1
    lam: float = 1e-4
    iterations: int = 500
    seed: int = 0
    init_scale: float = 0.2
    halving_limit: int = 20

    def __post_init__(self):
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be positive")
        if self.eta < 0:
            raise ValueError("eta must be non-negative")
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if self.init_scale < 0:
            raise ValueError("init_scale must be non-negative")
        if self.halving_limit < 0:
            raise ValueError("halving_limit must be non-negative")


@dataclass(eq=False)
class RnnParams:
    """Weights of the classifier.

    U maps the input into the hidden layer, W carries the hidden state
    across adjacent time steps, V reads the final state out, b and c are
    the hidden/output biases.
    """

    U: np.ndarray  # hidden x input
    W: np.ndarray  # hidden x hidden
    V: np.ndarray  # 1 x hidden
    b: np.ndarray  # hidden
    c: float

    @property
    def hidden_size(self) -> int:
        return self.U.shape[0]

    @property
    def input_dim(self) -> int:
        return self.U.shape[1]

    def squared_weight_norm(self) -> float:
        """Sum of squared entries of U, V and W; biases excluded."""
        return float((self.U**2).sum() + (self.V**2).sum() + (self.W**2).sum())


@dataclass(eq=False)
class Gradients:
    dU: np.ndarray
    dW: np.ndarray
    dV: np.ndarray
    db: np.ndarray
    dc: float


def init_params(h: Hyperparams, input_dim: int) -> RnnParams:
    """Uniform random U, V, W in [-init_scale, init_scale]; zero biases."""
    if input_dim < 1:
        raise ValueError("input_dim must be positive")
    rng = np.random.default_rng(h.seed)
    s = h.init_scale
    U = rng.uniform(-s, s, size=(h.hidden_size, input_dim))
    V = rng.uniform(-s, s, size=(1, h.hidden_size))
    W = rng.uniform(-s, s, size=(h.hidden_size, h.hidden_size))
    b = np.zeros(h.hidden_size)
    return RnnParams(U=U, W=W, V=V, b=b, c=0.0)


def _sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-z))


Batch = list[tuple[np.ndarray, np.ndarray]]
"""Samples stacked by length: ``(X, y)`` pairs, X of shape (T, n, input_dim)."""


def group_by_length(train_set: HvsmSet) -> Batch:
    """The training batch: every sample stacked with the others of its length,
    in ascending T for a fixed summation order.

    Built once per training run from the set's own stack
    (``HvsmSet.by_length``), so repeats on one set stack it once; rejects an
    empty set and any sample whose label is not 0 or 1.
    """
    if not train_set.items:
        raise ValueError("empty training set")
    for item in train_set.items:
        if item.label not in (0, 1):
            raise ValueError(f"sample {item.key!r} has no 0/1 label: {item.label!r}")
    return [
        (X, np.asarray([train_set.items[i].label for i in idx], dtype=float))
        for idx, X in train_set.by_length
    ]


def _group_forward(p: RnnParams, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized forward for one equal-length group; states (T, n, hidden)."""
    T, n, _ = X.shape
    S = np.empty((T, n, p.hidden_size))
    S[0] = np.tanh(X[0] @ p.U.T + p.b)
    for t in range(1, T):
        S[t] = np.tanh(X[t] @ p.U.T + S[t - 1] @ p.W.T + p.b)
    probs = _sigmoid(S[T - 1] @ p.V[0] + p.c)
    return S, probs


def batch_gradient(p: RnnParams, batch: Batch, lam: float) -> tuple[Gradients, float]:
    """Average per-sample gradient plus the L2 term on U, V, W, by
    backpropagation through time over every length group.

    Returns the gradient and the mean loss ``mean(L_a) + lam/2 * ||w||^2``.
    """
    m = sum(X.shape[1] for X, _ in batch)
    dU = np.zeros_like(p.U)
    dW = np.zeros_like(p.W)
    dV = np.zeros_like(p.V)
    db = np.zeros_like(p.b)
    dc = 0.0
    data_loss = 0.0
    for X, y in batch:
        T = X.shape[0]
        S, probs = _group_forward(p, X)
        clipped = probs.clip(PROB_EPS, 1.0 - PROB_EPS)
        data_loss += float((-y * np.log(clipped) - (1 - y) * np.log(1 - clipped)).sum())
        dz = probs - y  # (n,)
        dV += dz[None, :] @ S[T - 1]
        dc += float(dz.sum())
        delta = (dz[:, None] * p.V[0]) * (1.0 - S[T - 1] ** 2)  # n x hidden
        for t in range(T - 1, -1, -1):
            dU += delta.T @ X[t]
            db += delta.sum(axis=0)
            if t > 0:
                dW += delta.T @ S[t - 1]
                delta = (delta @ p.W) * (1.0 - S[t - 1] ** 2)
    grad = Gradients(
        dU=dU / m + lam * p.U,
        dW=dW / m + lam * p.W,
        dV=dV / m + lam * p.V,
        db=db / m,
        dc=dc / m,
    )
    mean_loss = data_loss / m + 0.5 * lam * p.squared_weight_norm()
    return grad, float(mean_loss)


def _apply_step(p: RnnParams, g: Gradients, eta: float) -> RnnParams:
    return RnnParams(
        U=p.U - eta * g.dU,
        W=p.W - eta * g.dW,
        V=p.V - eta * g.dV,
        b=p.b - eta * g.db,
        c=p.c - eta * g.dc,
    )


@dataclass(eq=False)
class TrainResult:
    params: RnnParams
    loss_history: list[float]


def descend(objective, step, params, h: Hyperparams):
    """Full-batch gradient descent for ``h.iterations`` steps from ``params``.

    ``objective(params)`` returns ``(gradient, loss)``; ``step(params,
    gradient, eta)`` returns the moved params.  On a loss increase the step
    is retried with a halved learning rate (the reduction persists), up to
    ``h.halving_limit`` times per step.  Raises TrainingError with the
    iteration index if the loss turns non-finite.  Returns the final params
    and the loss history, initial loss first.
    """
    grad, current = objective(params)
    history = [current]
    eta = h.eta
    for it in range(h.iterations):
        candidate = step(params, grad, eta)
        cand_grad, cand_loss = objective(candidate)
        halvings = 0
        while (
            np.isfinite(cand_loss)
            and cand_loss > current
            and halvings < h.halving_limit
        ):
            eta *= 0.5
            candidate = step(params, grad, eta)
            cand_grad, cand_loss = objective(candidate)
            halvings += 1
        if not np.isfinite(cand_loss):
            raise TrainingError(f"non-finite loss at iteration {it}")
        params, grad, current = candidate, cand_grad, cand_loss
        history.append(current)
    return params, history


def train(train_set: HvsmSet, h: Hyperparams) -> TrainResult:
    """Fit the classifier by ``descend`` on the set's batch, grouped once."""
    batch = group_by_length(train_set)
    params, history = descend(
        lambda q: batch_gradient(q, batch, h.lam),
        _apply_step,
        init_params(h, len(train_set.schema)),
        h,
    )
    return TrainResult(params=params, loss_history=history)


def predict_set(p: RnnParams, s: HvsmSet, n: Normalizer) -> np.ndarray:
    """Probability that each sample's file is defective at its anchor,
    aligned with ``s.items``."""
    if not s.items:
        return np.empty(0)
    if s.schema != n.schema:
        raise ValueError("set schema does not match the normalizer")
    if len(s.schema) != p.input_dim:
        raise ValueError(f"input dim {len(s.schema)} does not match U ({p.input_dim})")
    probs = np.empty(len(s.items))
    for idx, X in s.by_length:
        _, probs[idx] = _group_forward(p, n.transform(X))
    return probs


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def gradient_check(
    h: Hyperparams,
    input_dim: int,
    T: int,
    y: int = 1,
    eps: float = 1e-5,
) -> float:
    """Max relative error between ``batch_gradient`` and central differences
    of the loss it returns.

    The batch holds two samples of every length 1..T, labelled ``y`` and
    ``1 - y``, and the L2 term uses ``h.lam``: the path training runs.
    Every parameter, biases and ``c`` included, is perturbed at a random
    point drawn from the hyperparams' seed.  The relative error uses the
    denominator max(|analytic| + |numeric|, 1e-5) so structurally-zero
    gradients do not divide by zero.
    """
    rng = np.random.default_rng(h.seed)
    s = max(h.init_scale, 0.1)
    p = RnnParams(
        U=rng.uniform(-s, s, size=(h.hidden_size, input_dim)),
        W=rng.uniform(-s, s, size=(h.hidden_size, h.hidden_size)),
        V=rng.uniform(-s, s, size=(1, h.hidden_size)),
        b=rng.uniform(-s, s, size=h.hidden_size),
        c=np.array(rng.uniform(-s, s)),  # 0-d, so it is perturbed in place like the rest
    )
    labels = np.array([y, 1 - y], dtype=float)
    batch = [(rng.normal(size=(t, 2, input_dim)), labels) for t in range(1, T + 1)]
    g, _ = batch_gradient(p, batch, h.lam)
    max_err = 0.0
    for arr, analytic in ((p.U, g.dU), (p.W, g.dW), (p.V, g.dV), (p.b, g.db), (p.c, g.dc)):
        for i in np.ndindex(arr.shape):
            orig = arr[i]
            arr[i] = orig + eps
            hi = batch_gradient(p, batch, h.lam)[1]
            arr[i] = orig - eps
            lo = batch_gradient(p, batch, h.lam)[1]
            arr[i] = orig
            numeric = (hi - lo) / (2 * eps)
            a = np.asarray(analytic)[i]
            max_err = max(max_err, abs(a - numeric) / max(abs(a) + abs(numeric), 1e-5))
    return float(max_err)

