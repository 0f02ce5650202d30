"""Variable-length recurrent classifier trained by full-batch gradient descent.

One tanh hidden layer with shared weights across time steps, a sigmoid
output read off the final state, and log loss with an L2 penalty on the
three weight matrices (biases are unpenalized).

The parameters are one flat float64 vector ``theta``, laid out U, V, W, b,
c; ``RnnParams`` names views into it, and ``batch_gradient`` returns its
gradient in the same layout.  ``descend`` is the one optimizer, for this
model and the nn and lr baselines alike: each step is ``theta - eta *
gradient``, its learning rate halved while the loss would rise.

There is one forward/backward implementation, and it is batched.  A set
holds its samples stacked into one ``(T, n, input_dim)`` array per sequence
length (``HvsmSet.by_length``).  ``group_by_length`` lays those stacks
end-aligned on one time axis once per training run (a ``Batch``), so the
samples active at each step are one suffix of rows; ``forward`` sweeps the
axis once, with one recurrent product per step for every length, and
``batch_gradient`` runs exact backpropagation through time back along it.
Every sum over samples keeps the order of a pass per length group, so the
sweep's numbers equal that loop's bit for bit.  Prediction runs the same
sweep over the test set's own stacks, so repeats on the same sets restack
nothing.  The finite-difference checker differentiates ``batch_gradient``
itself, on a batch of mixed lengths and labels with the L2 term on, so it
verifies the code the trainer runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .history import HvsmSet, Normalizer

# log-loss clamp; keeps log() finite when sigmoid saturates to 0 or 1
PROB_EPS = 1e-12

# multiply-adds from which OpenBLAS runs a matrix product on two threads;
# waking the second thread after an idle spell can stall the call for
# milliseconds, so row-independent products are cut into smaller row blocks
BLAS_THREAD_BOUND = 1 << 19


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


class RnnParams:
    """Weights of the classifier, as named views into one flat vector.

    ``theta`` holds U (hidden x input), V (1 x hidden), W (hidden x
    hidden), b (hidden) and c (1,), in that order.  U maps the input into
    the hidden layer, W carries the hidden state across adjacent time
    steps, V reads the final state out, b and c are the hidden/output
    biases.  A view shares its memory with ``theta``.
    """

    def __init__(self, theta: np.ndarray, hidden_size: int, input_dim: int):
        h, d = hidden_size, input_dim
        v, w, b = h * d, h * (d + 1), h * (d + h + 1)  # where V, W and b start
        self.theta, self.hidden_size, self.input_dim = theta, h, d
        self.U = theta[:v].reshape(h, d)
        self.V = theta[v:w].reshape(1, h)
        self.W = theta[w:b].reshape(h, h)
        self.b = theta[b:-1]
        self.c = theta[-1:]

    @classmethod
    def zeros(cls, hidden_size: int, input_dim: int) -> RnnParams:
        h, d = hidden_size, input_dim
        return cls(np.zeros(h * (d + h + 2) + 1), h, d)

    def squared_weight_norm(self) -> float:
        """Sum of squared entries of U, V and W; biases excluded."""
        return float((self.U**2).sum() + (self.V**2).sum() + (self.W**2).sum())


def init_params(h: Hyperparams, input_dim: int) -> RnnParams:
    """Uniform random U, V, W in [-init_scale, init_scale], drawn in their
    ``theta`` order; zero biases."""
    if input_dim < 1:
        raise ValueError("input_dim must be positive")
    p = RnnParams.zeros(h.hidden_size, input_dim)
    weights = p.theta[: -h.hidden_size - 1]
    weights[:] = np.random.default_rng(h.seed).uniform(-h.init_scale, h.init_scale, weights.size)
    return p


def _sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-z))


class Batch:
    """Samples stacked by length and laid end-aligned on one time axis.

    ``stacks`` holds one ``(T, n, input_dim)`` array per length, in strictly
    ascending T; group g's samples are rows ``rows[g]:rows[g + 1]`` of the
    batch, and a sample of length T occupies steps ``depth - T ... depth - 1``
    (``depth`` the longest T).  The samples active at step τ are then the
    suffix of rows from ``first[τ]``, and those continuing from step τ - 1 are
    the suffix from ``first[τ - 1]``.  ``labels`` holds the 0/1 label of every
    row, or is None for a batch that is only predicted.

    The sweep's work arrays (states and deltas, ``(depth, m, hidden)``
    each, and the gradient's per-step terms) are allocated on first use and
    kept for the batch's lifetime.
    """

    def __init__(self, stacks, labels: np.ndarray | None = None):
        self.stacks = tuple(stacks)
        self.labels = labels
        lengths = [X.shape[0] for X in self.stacks]
        counts = [X.shape[1] for X in self.stacks]
        self.rows = np.cumsum([0, *counts]).tolist()
        self.m = self.rows[-1]
        self.depth = lengths[-1]
        self.steps = sum(lengths)  # (group, step) pairs
        self.first = [
            next(r for r, T in zip(self.rows, lengths) if T >= self.depth - tau)
            for tau in range(self.depth)
        ]
        # the rows of one-sample groups
        self.singles = [r for r, n in zip(self.rows, counts) if n == 1]
        self._work: dict[str, np.ndarray] = {}

    def work(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """The batch's zero-initialized work array ``name``, reallocated only
        when its shape changes."""
        arr = self._work.get(name)
        if arr is None or arr.shape != shape:
            arr = self._work[name] = np.zeros(shape)
        return arr


def group_by_length(train_set: HvsmSet) -> Batch:
    """The training batch: every sample stacked with the others of its length,
    in ascending T for a fixed summation order.

    Built once per training run from the set's own stack
    (``HvsmSet.by_length``); rejects an empty set and any sample whose label
    is not 0 or 1.
    """
    if not train_set.items:
        raise ValueError("empty training set")
    for item in train_set.items:
        if item.label not in (0, 1):
            raise ValueError(f"sample {item.key!r} has no 0/1 label: {item.label!r}")
    labels = [train_set.items[i].label for idx, _ in train_set.by_length for i in idx]
    return Batch([X for _, X in train_set.by_length], np.asarray(labels, dtype=float))


def row_blocks(n: int, row_cost: int) -> list[tuple[int, int]]:
    """Consecutive ``(start, stop)`` blocks covering rows ``0 .. n``, each
    under ``BLAS_THREAD_BOUND`` multiply-adds at ``row_cost`` per row, of
    near-equal size and never of one row: gemv rounds a one-row product
    differently from gemm, while gemm's rows do not depend on how many
    other rows share the call.  Where fewer than three rows fit under the
    bound, all rows stay in one block, as an even split could leave a
    block of one."""
    cap = (BLAS_THREAD_BOUND - 1) // row_cost
    if n <= cap or cap < 3:
        return [(0, n)]
    k = -(-n // cap)
    size, extra = divmod(n, k)
    stops = [(i + 1) * size + min(i + 1, extra) for i in range(k)]
    return list(zip([0, *stops], stops))


def _matmul_rows(A: np.ndarray, M: np.ndarray, out: np.ndarray) -> None:
    """``np.matmul(A, M, out=out)`` for a 2-d ``M``, one product per
    ``row_blocks`` block of A's rows (its second-to-last axis)."""
    n = A.shape[-2]
    if n * M.size < BLAS_THREAD_BOUND:
        np.matmul(A, M, out=out)
        return
    for i, j in row_blocks(n, M.size):
        np.matmul(A[..., i:j, :], M, out=out[..., i:j, :])


def _recurrent(A: np.ndarray, M: np.ndarray, singles: list[int], a: int) -> np.ndarray:
    """``A[a:] @ M``, in row blocks.  gemv rounds a one-row product
    differently from gemm, so where other rows share the product, each row
    in ``singles`` (a one-sample group's) gets a product of its own."""
    n = len(A) - a
    if n * M.size < BLAS_THREAD_BOUND:
        R = A[a:] @ M
    else:
        R = np.empty((n, M.shape[1]))
        _matmul_rows(A[a:], M, R)
    if n > 1:
        for r in singles:
            if r >= a:
                R[r - a : r - a + 1] = A[r : r + 1] @ M
    return R


def _sum_terms(terms: np.ndarray) -> np.ndarray:
    """``terms[0] + terms[1] + ...`` in that order.  A reduce over axis 0
    adds row by row, except over one-element rows, which it sums pairwise."""
    if terms[0].size == 1:
        return np.add.accumulate(terms, axis=0)[-1]
    return np.add.reduce(terms, axis=0)


def _sum_rows(D: np.ndarray, out: np.ndarray) -> None:
    """``D.sum(axis=1, out=out)`` for a ``(steps, rows, hidden)`` block.
    einsum adds the rows in the same order with less overhead, except over
    one-element rows, where the reduce sums pairwise."""
    if D.shape[2] == 1:
        D.sum(axis=1, out=out)
    else:
        np.einsum("tnh->th", D, out=out)


def forward(p: RnnParams, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    """States ``(depth, m, hidden)`` and output probabilities ``(m,)`` of
    every row, by one sweep over the batch's time axis.

    Each group's input projection is one matmul over its own stack, in
    row blocks; at each step the continuing rows add ``S[τ - 1] @
    W.T`` to it, every active row adds b, and tanh runs in place, so a row
    that starts at τ gets ``tanh(x U^T + b)``.  The states array belongs to
    the batch.
    """
    depth, rows, first = batch.depth, batch.rows, batch.first
    S = batch.work("states", (depth, batch.m, p.hidden_size))
    for X, a, b in zip(batch.stacks, rows, rows[1:]):
        _matmul_rows(X, p.U.T, S[depth - X.shape[0] :, a:b])
    WT = p.W.T
    for tau in range(depth):
        if tau:
            c = first[tau - 1]
            S[tau, c:] += _recurrent(S[tau - 1], WT, batch.singles, c)
        active = S[tau, first[tau] :]
        active += p.b
        np.tanh(active, out=active)
    z = np.empty(batch.m)
    for a, b in zip(rows, rows[1:]):
        np.matmul(S[-1, a:b], p.V[0], out=z[a:b])
    return S, _sigmoid(z + p.c)


def batch_gradient(p: RnnParams, batch: Batch, lam: float) -> tuple[np.ndarray, float]:
    """Average per-sample gradient plus the L2 term on U, V, W, by
    backpropagation through time over the batch's sweep.

    Returns the gradient, laid out as ``p.theta``, and the mean loss
    ``mean(L_a) + lam/2 * ||w||^2``.
    Every sum over samples runs in the order of a loop over the length
    groups in ascending T and, within one, over steps in descending t, each
    term the group's own product: the sweep changes no bit of the result.
    """
    S, probs = forward(p, batch)
    y = batch.labels
    depth, rows, first, m = batch.depth, batch.rows, batch.first, batch.m
    clipped = probs.clip(PROB_EPS, 1.0 - PROB_EPS)
    # one log per sample: with 0/1 labels, the same bits as
    # -y log(c) - (1 - y) log(1 - c), and a sum's negation is exact
    log_likelihood = np.log(np.where(y == 1, clipped, 1 - clipped))
    dz = probs - y
    data_loss = 0.0
    dc = 0.0
    dV = np.zeros_like(p.V)
    for a, b in zip(rows, rows[1:]):
        data_loss -= float(log_likelihood[a:b].sum())
        dc += float(dz[a:b].sum())
        dV += dz[None, a:b] @ S[-1, a:b]

    # deltas, written over the 1 - S² they consume
    D = batch.work("deltas", S.shape)
    np.square(S, out=D)
    np.subtract(1.0, D, out=D)
    np.multiply(dz[:, None] * p.V[0], D[-1], out=D[-1])
    for tau in range(depth - 1, 0, -1):
        continuing = D[tau - 1, first[tau - 1] :]
        continuing *= _recurrent(D[tau], p.W, batch.singles, first[tau - 1])

    # one term per (group, step) in the loop's order, after a leading zero
    # row, summed in that order
    u_terms = batch.work("u_terms", (1 + batch.steps, *p.U.shape))
    w_terms = batch.work("w_terms", (1 + batch.steps - len(batch.stacks), *p.W.shape))
    b_terms = batch.work("b_terms", (1 + batch.steps, *p.b.shape))
    k = j = 1
    for X, a, b in zip(batch.stacks, rows, rows[1:]):
        T = X.shape[0]
        Dg = D[depth - T :, a:b][::-1]  # steps descending
        np.matmul(Dg.transpose(0, 2, 1), X[::-1], out=u_terms[k : k + T])
        _sum_rows(Dg, b_terms[k : k + T])
        if T > 1:
            Sg = S[depth - T : -1, a:b][::-1]
            np.matmul(Dg[:-1].transpose(0, 2, 1), Sg, out=w_terms[j : j + T - 1])
        k += T
        j += T - 1
    g = RnnParams(np.empty_like(p.theta), p.hidden_size, p.input_dim)
    np.add(_sum_terms(u_terms) / m, lam * p.U, out=g.U)
    np.add(dV / m, lam * p.V, out=g.V)
    np.add(_sum_terms(w_terms) / m, lam * p.W, out=g.W)
    np.divide(_sum_terms(b_terms), m, out=g.b)
    g.c[0] = dc / m
    mean_loss = data_loss / m + 0.5 * lam * p.squared_weight_norm()
    return g.theta, float(mean_loss)


@dataclass(eq=False)
class TrainResult:
    params: RnnParams
    loss_history: list[float]


def descend(objective, theta: np.ndarray, h: Hyperparams):
    """Full-batch gradient descent for ``h.iterations`` steps from the
    parameter vector ``theta``.

    ``objective(theta)`` returns ``(gradient, loss)``, the gradient a
    vector like ``theta``; a step moves to ``theta - eta * gradient``.  On
    a loss increase the step is retried with a halved learning rate (the
    reduction persists), up to ``h.halving_limit`` times per step.  Raises
    TrainingError with the iteration index if the loss turns non-finite.
    Returns the final vector and the loss history, initial loss first.
    """
    grad, current = objective(theta)
    history = [current]
    eta = h.eta
    for it in range(h.iterations):
        candidate = theta - eta * grad
        cand_grad, cand_loss = objective(candidate)
        halvings = 0
        while (
            np.isfinite(cand_loss)
            and cand_loss > current
            and halvings < h.halving_limit
        ):
            eta *= 0.5
            candidate = theta - eta * grad
            cand_grad, cand_loss = objective(candidate)
            halvings += 1
        if not np.isfinite(cand_loss):
            raise TrainingError(f"non-finite loss at iteration {it}")
        theta, grad, current = candidate, cand_grad, cand_loss
        history.append(current)
    return theta, history


def train(train_set: HvsmSet, h: Hyperparams) -> TrainResult:
    """Fit the classifier by ``descend`` on the set's batch, grouped once."""
    batch = group_by_length(train_set)
    shape = h.hidden_size, len(train_set.schema)
    theta, history = descend(
        lambda theta: batch_gradient(RnnParams(theta, *shape), batch, h.lam),
        init_params(h, shape[1]).theta,
        h,
    )
    return TrainResult(params=RnnParams(theta, *shape), loss_history=history)


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
    _, probs[np.concatenate([idx for idx, _ in s.by_length])] = forward(
        p, Batch([n.transform(X) for _, X in s.by_length])
    )
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

    The batch holds two samples, labelled ``y`` and ``1 - y``, of every
    length 1..T except T - 1 for T > 2, so some step of the sweep starts no
    row, and for T > 1 a single sample of length T, labelled ``y``, so a
    one-row group shares the recurrent products; the L2 term uses
    ``h.lam``: the path training runs.
    Every entry of ``theta``, biases included, is perturbed at a random
    point drawn from the hyperparams' seed.  The relative error uses the
    denominator max(|analytic| + |numeric|, 1e-5) so structurally-zero
    gradients do not divide by zero.
    """
    rng = np.random.default_rng(h.seed)
    s = max(h.init_scale, 0.1)
    p = RnnParams.zeros(h.hidden_size, input_dim)
    theta = p.theta
    theta[:] = rng.uniform(-s, s, size=theta.size)
    lengths = [t for t in range(1, T + 1) if t != T - 1 or T == 2]
    counts = [1 if t == T > 1 else 2 for t in lengths]
    batch = Batch(
        [rng.normal(size=(t, n, input_dim)) for t, n in zip(lengths, counts)],
        np.array([label for n in counts for label in (y, 1 - y)[:n]], dtype=float),
    )
    g, _ = batch_gradient(p, batch, h.lam)
    max_err = 0.0
    for i, analytic in enumerate(g.tolist()):
        orig = theta[i]
        theta[i] = orig + eps
        hi = batch_gradient(p, batch, h.lam)[1]
        theta[i] = orig - eps
        lo = batch_gradient(p, batch, h.lam)[1]
        theta[i] = orig
        numeric = (hi - lo) / (2 * eps)
        max_err = max(max_err, abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-5))
    return float(max_err)
