"""Variable-length recurrent classifier trained by full-batch gradient descent.

One tanh hidden layer with shared weights across time steps, a sigmoid
output read off the final state, and log loss with an L2 penalty on the
three weight matrices (biases are unpenalized).

The parameters are one flat float64 vector ``theta``, laid out U, V, W, b,
c; ``RnnParams`` names views into it, and ``batch_gradient`` returns its
gradient in the same layout.  ``descend`` is the one optimizer, for this
model and the nn and lr baselines alike: each step is ``theta - eta *
gradient``, its learning rate halved while the loss would rise.  descend
owns four vectors for the whole run, the current point and the candidate
with a gradient each, and swaps the pairs when it accepts a step; ``train``
builds the ``RnnParams`` views of all four once.

There is one forward/backward implementation, and it is batched.  A set
holds its samples stacked into one ``(T, n, input_dim)`` array per sequence
length (``HvsmSet.by_length``) and their labels in one array.
``group_by_length`` lays those stacks end-aligned on one time axis once per
training run (a ``Batch``), its labels one gather of the set's, so the
samples active at each step are one suffix of rows; ``forward`` sweeps the
axis once, with one recurrent product per step for every length, and
``batch_gradient`` runs exact backpropagation through time back along it.
The batch owns its ``Sweep``: every work array and every view that one
sweep reads or writes, built once per parameter shape, so a gradient is
products and ufuncs writing with ``out=``.
Every sum over samples keeps the order of a pass per length group, so the
sweep's numbers equal that loop's bit for bit.  ``train`` and
``predict_set`` take sets that the caller has z-scored once, and read
their stacks as they are; each call still builds its own batch and
``Sweep``.  The finite-difference checker differentiates ``batch_gradient``
itself, on a batch of mixed lengths and labels with the L2 term on, so it
verifies the code the trainer runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .history import HvsmSet

# log-loss clamp; keeps log() finite when sigmoid saturates to 0 or 1
PROB_EPS = 1e-12

# multiply-adds from which OpenBLAS runs a matrix product on two threads;
# waking the second thread after an idle spell can stall the call for
# milliseconds, so row-independent products are cut into smaller row blocks
BLAS_THREAD_BOUND = 1 << 19

# the step of gradient_check's central differences
GRADCHECK_EPS = 1e-5


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
        """Sum of squared entries of U, V and W; biases excluded.  One sum
        per matrix, in that order: a single sum over all three rounds
        differently."""
        sq = np.square(self.theta[: -self.hidden_size - 1])
        v, w = self.U.size, self.U.size + self.V.size
        return float(np.add.reduce(sq[:v]) + np.add.reduce(sq[v:w]) + np.add.reduce(sq[w:]))


def init_params(h: Hyperparams, input_dim: int) -> RnnParams:
    """Uniform random U, V, W in [-init_scale, init_scale], one draw of
    ``np.random.default_rng(seed)`` in their ``theta`` order; zero biases."""
    if input_dim < 1:
        raise ValueError("input_dim must be positive")
    low, high = -h.init_scale, h.init_scale
    if not math.isfinite(high - low):  # numpy would raise OverflowError
        raise ValueError(f"uniform range [{low!r}, {high!r}] exceeds the float range")
    p = RnnParams.zeros(h.hidden_size, input_dim)
    weights = p.theta[: -h.hidden_size - 1]
    # numpy 2 loads numpy.random on the first use of ``np.random``, so only a
    # process that trains pays for its import; importing it at the top of
    # this module would put it in the pooled run's caller too (1.9 MB)
    weights[:] = np.random.default_rng(h.seed).uniform(low, high, weights.size)
    return p


def sigmoid_in_place(z: np.ndarray) -> None:
    """Overwrite ``z`` with ``1 / (1 + exp(-z))``, the same bits as that
    expression."""
    np.negative(z, out=z)
    np.exp(z, out=z)
    np.add(1.0, z, out=z)
    np.divide(1.0, z, out=z)


def label_log_likelihood(probs: np.ndarray, positive: np.ndarray, out: np.ndarray) -> None:
    """Write each row's log-likelihood of its own 0/1 label into ``out``:
    ``log(c)`` where ``positive``, else ``log(1 - c)``, with c the
    probability clamped into ``[PROB_EPS, 1 - PROB_EPS]``, in place in
    ``probs``.  One log per row gives the bits of ``y log(c) + (1 - y)
    log(1 - c)``.  The rnn's and lr's losses both take their log-likelihood
    here."""
    np.maximum(probs, PROB_EPS, out=probs)
    np.minimum(probs, 1.0 - PROB_EPS, out=probs)
    np.subtract(1.0, probs, out=out)
    np.copyto(out, probs, where=positive)
    np.log(out, out=out)


class Batch:
    """Samples stacked by length and laid end-aligned on one time axis.

    ``stacks`` holds one ``(T, n, input_dim)`` array per length, in strictly
    ascending T; group g's samples are rows ``rows[g]:rows[g + 1]`` of the
    batch, and a sample of length T occupies steps ``depth - T ... depth - 1``
    (``depth`` the longest T).  The samples active at step τ are then the
    suffix of rows from ``first[τ]``, and those continuing from step τ - 1 are
    the suffix from ``first[τ - 1]``.  ``labels`` holds the 0/1 label of every
    row, or is None for a batch that is only predicted.

    The sweep's work arrays and views (a ``Sweep``) are built on first use
    and kept for the batch's lifetime, or until the parameters' shape
    changes.
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
        self._sweep: Sweep | None = None

    def sweep(self, hidden_size: int, input_dim: int) -> Sweep:
        """The batch's ``Sweep`` for parameters of this shape."""
        sweep = self._sweep
        if sweep is None or sweep.shape != (hidden_size, input_dim):
            sweep = self._sweep = Sweep(self, hidden_size, input_dim)
        return sweep


def group_by_length(train_set: HvsmSet) -> Batch:
    """The training batch: every sample stacked with the others of its length,
    in ascending T for a fixed summation order.

    Built once per training run from the set's own stacks
    (``HvsmSet.by_length``), each row labelled by one gather of the set's
    labels; rejects an empty or unlabelled set.
    """
    if not train_set.m:
        raise ValueError("empty training set")
    if train_set.labels is None:
        raise ValueError("training samples need 0/1 labels")
    order = np.concatenate([idx for idx, _ in train_set.by_length])
    return Batch([X for _, X in train_set.by_length], train_set.labels[order].astype(float))


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


def _sum_terms(terms: np.ndarray, out: np.ndarray) -> None:
    """``terms[0] + terms[1] + ...`` in that order, into ``out``.  A reduce
    over axis 0 adds row by row, except over one-element rows, which it
    sums pairwise."""
    if terms[0].size == 1:
        out[...] = np.add.accumulate(terms, axis=0)[-1]
    else:
        np.add.reduce(terms, axis=0, out=out)


def _sum_rows(D: np.ndarray, out: np.ndarray) -> None:
    """``D.sum(axis=1, out=out)`` for a ``(steps, rows, hidden)`` block.
    einsum adds the rows in the same order with less overhead, except over
    one-element rows, where the reduce sums pairwise."""
    if D.shape[2] == 1:
        D.sum(axis=1, out=out)
    else:
        np.einsum("tnh->th", D, out=out)


class Sweep:
    """Every array one sweep over a batch writes, and every view of it and of
    the stacks that one sweep reads, for parameters of one shape.

    ``forward`` and ``batch_gradient`` run only products and ufuncs over
    these views, writing with ``out=``.  Each row-independent product is
    listed as ``(rows, out)`` pairs, one per ``row_blocks`` block, and a
    recurrent product gives each one-sample group's row (``singles``) a
    product of its own wherever other rows share it: gemv rounds a one-row
    product differently from gemm.  The gradient's arrays are built only
    for a labelled batch.
    """

    def __init__(self, batch: Batch, hidden_size: int, input_dim: int):
        self.shape = h, d = hidden_size, input_dim
        depth, rows, first, m = batch.depth, batch.rows, batch.first, batch.m
        groups = [(X, X.shape[0], a, b) for X, a, b in zip(batch.stacks, rows, rows[1:])]
        self.S = S = np.zeros((depth, m, h))  # states
        self.R = R = np.empty((m, h))  # recurrent products

        def recurrent(A: np.ndarray, c: int):
            """``A[c:] @ M`` into ``R[:m - c]`` as ``(rows, out)`` pairs."""
            n = m - c
            pairs = [(A[c + i : c + j], R[i:j]) for i, j in row_blocks(n, h * h)]
            if n > 1:
                pairs += [(A[r : r + 1], R[r - c : r - c + 1]) for r in batch.singles if r >= c]
            return pairs, R[:n]

        # each group's input projection, then per step τ the rows continuing
        # from τ - 1 (none at τ = 0) and the rows active at τ
        self.projection = [
            (X[:, i:j], S[depth - T :, a + i : a + j])
            for X, T, a, b in groups
            for i, j in row_blocks(b - a, h * d)
        ]
        self.steps = []
        for tau in range(depth):
            products, R_tau, continuing = (), None, None
            if tau:
                products, R_tau = recurrent(S[tau - 1], first[tau - 1])
                continuing = S[tau, first[tau - 1] :]
            self.steps.append((products, R_tau, continuing, S[tau, first[tau] :]))
        self.probs = np.empty(m)
        self.readout = [(S[-1, a:b], self.probs[a:b]) for _, _, a, b in groups]
        if batch.labels is None:
            return

        self.positive = batch.labels == 1
        self.likelihood = np.empty(m)  # log-likelihood of each row's own label
        self.dz = np.empty(m)
        self.dV, self.dV_term = np.empty((1, h)), np.empty((1, h))
        self.by_group = [
            (self.likelihood[a:b], self.dz[a:b], self.dz[None, a:b], S[-1, a:b])
            for _, _, a, b in groups
        ]
        self.D = D = np.empty_like(S)  # deltas
        self.back_steps = [
            (*recurrent(D[tau], first[tau - 1]), D[tau - 1, first[tau - 1] :])
            for tau in range(depth - 1, 0, -1)
        ]
        # one term per (group, step) in the order of a loop over groups and,
        # within one, over steps in descending t, after a leading zero row
        self.u_terms = np.zeros((1 + batch.steps, h, d))
        self.w_terms = np.zeros((1 + batch.steps - len(groups), h, h))
        self.b_terms = np.zeros((1 + batch.steps, h))
        self.term_products, self.bias_terms = [], []
        k = j = 1
        for X, T, a, b in groups:
            Dg = D[depth - T :, a:b][::-1]  # steps descending
            DgT = Dg.transpose(0, 2, 1)
            self.term_products.append((DgT, X[::-1], self.u_terms[k : k + T]))
            self.bias_terms.append((Dg, self.b_terms[k : k + T]))
            if T > 1:
                Sg = S[depth - T : -1, a:b][::-1]
                self.term_products.append((DgT[:-1], Sg, self.w_terms[j : j + T - 1]))
            k += T
            j += T - 1
        self.u_sum, self.w_sum, self.b_sum = np.empty((h, d)), np.empty((h, h)), np.empty(h)


def forward(p: RnnParams, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    """States ``(depth, m, hidden)`` and output probabilities ``(m,)`` of
    every row, by one sweep over the batch's time axis.

    Each group's input projection is one matmul over its own stack, in
    row blocks; at each step the continuing rows add ``S[τ - 1] @
    W.T`` to it, every active row adds b, and tanh runs in place, so a row
    that starts at τ gets ``tanh(x U^T + b)``.  Both arrays belong to the
    batch's ``Sweep``.
    """
    sweep = batch.sweep(p.hidden_size, p.input_dim)
    UT, WT = p.U.T, p.W.T
    for X, out in sweep.projection:
        np.matmul(X, UT, out=out)
    for products, R, continuing, active in sweep.steps:
        for A, out in products:
            np.matmul(A, WT, out=out)
        if R is not None:
            np.add(continuing, R, out=continuing)
        np.add(active, p.b, out=active)
        np.tanh(active, out=active)
    for S_last, z in sweep.readout:
        np.matmul(S_last, p.V[0], out=z)
    np.add(sweep.probs, p.c, out=sweep.probs)
    sigmoid_in_place(sweep.probs)
    return sweep.S, sweep.probs


def batch_gradient(
    p: RnnParams, batch: Batch, lam: float, out: RnnParams | None = None
) -> tuple[np.ndarray, float]:
    """Average per-sample gradient plus the L2 term on U, V, W, by
    backpropagation through time over the batch's sweep.

    Returns the gradient, laid out as ``p.theta``, and the mean loss
    ``mean(L_a) + lam/2 * ||w||^2``.  The gradient is written into
    ``out.theta`` if given, else into a new vector.
    Every sum over samples runs in the order of a loop over the length
    groups in ascending T and, within one, over steps in descending t, each
    term the group's own product: the sweep changes no bit of the result.
    """
    S, probs = forward(p, batch)
    sweep = batch.sweep(p.hidden_size, p.input_dim)
    m = batch.m
    np.subtract(probs, batch.labels, out=sweep.dz)
    # clamps probs in place, after dz has read them; a sum's negation is
    # exact, so the loss keeps the bits of the two-term log loss
    label_log_likelihood(probs, sweep.positive, out=sweep.likelihood)
    data_loss = 0.0
    dc = 0.0
    dV = sweep.dV
    dV.fill(0.0)
    for log_likelihood, dz, dz_row, S_last in sweep.by_group:
        data_loss -= float(np.add.reduce(log_likelihood))
        dc += float(np.add.reduce(dz))
        np.matmul(dz_row, S_last, out=sweep.dV_term)
        np.add(dV, sweep.dV_term, out=dV)

    # deltas, written over the 1 - S² they consume
    D = sweep.D
    np.square(S, out=D)
    np.subtract(1.0, D, out=D)
    np.multiply(sweep.dz[:, None], p.V[0], out=sweep.R)
    np.multiply(sweep.R, D[-1], out=D[-1])
    for products, R, continuing in sweep.back_steps:
        for A, prod in products:
            np.matmul(A, p.W, out=prod)
        np.multiply(continuing, R, out=continuing)

    for A, B, term in sweep.term_products:
        np.matmul(A, B, out=term)
    for Dg, term in sweep.bias_terms:
        _sum_rows(Dg, term)
    g = out if out is not None else RnnParams(np.empty_like(p.theta), p.hidden_size, p.input_dim)
    # lam * (U, V, W) first, then each data term added to it: a sum's bits
    # do not depend on the order of its two operands
    np.multiply(lam, p.theta[: -p.hidden_size - 1], out=g.theta[: -p.hidden_size - 1])
    for terms, total, grad in (
        (sweep.u_terms, sweep.u_sum, g.U), (sweep.w_terms, sweep.w_sum, g.W)
    ):
        _sum_terms(terms, total)
        np.divide(total, m, out=total)
        np.add(total, grad, out=grad)
    np.divide(dV, m, out=dV)
    np.add(dV, g.V, out=g.V)
    _sum_terms(sweep.b_terms, sweep.b_sum)
    np.divide(sweep.b_sum, m, out=g.b)
    g.c[0] = dc / m
    mean_loss = data_loss / m + 0.5 * lam * p.squared_weight_norm()
    return g.theta, float(mean_loss)


@dataclass(eq=False)
class TrainResult:
    params: RnnParams
    loss_history: list[float]


@np.errstate(over="ignore", invalid="ignore")
def descend(bind, theta: np.ndarray, h: Hyperparams):
    """Full-batch gradient descent for ``h.iterations`` steps from the
    parameter vector ``theta``, which it takes over.

    ``bind(theta, grad)`` returns a function of no arguments that writes
    the gradient at ``theta`` into ``grad`` (a vector like ``theta``) and
    returns the loss.  descend binds two such pairs for the whole run, the
    current point and the candidate, and swaps them when it accepts a step,
    so a rejected candidate never overwrites the current gradient.  A step
    writes ``theta - eta * gradient`` into the candidate.  On a loss
    increase the step is retried with a halved learning rate (the reduction
    persists), up to ``h.halving_limit`` times per step.  Raises
    TrainingError with the iteration index if the loss turns non-finite,
    and that error is the one diagnostic: overflows warn of nothing.
    Returns the final vector and the loss history, initial loss first.
    """
    thetas = [theta, np.empty_like(theta)]
    grads = [np.empty_like(theta), np.empty_like(theta)]
    evaluate = [bind(t, g) for t, g in zip(thetas, grads)]
    step = np.empty_like(theta)

    def candidate_loss(eta: float) -> float:
        np.multiply(eta, grads[0], out=step)
        np.subtract(thetas[0], step, out=thetas[1])
        return evaluate[1]()

    current = evaluate[0]()
    history = [current]
    eta = h.eta
    for it in range(h.iterations):
        cand_loss = candidate_loss(eta)
        halvings = 0
        while (
            math.isfinite(cand_loss)
            and cand_loss > current
            and halvings < h.halving_limit
        ):
            eta *= 0.5
            cand_loss = candidate_loss(eta)
            halvings += 1
        if not math.isfinite(cand_loss):
            raise TrainingError(f"non-finite loss at iteration {it}")
        for pair in thetas, grads, evaluate:
            pair.reverse()
        current = cand_loss
        history.append(current)
    return thetas[0], history


def train(train_set: HvsmSet, h: Hyperparams) -> TrainResult:
    """Fit the classifier by ``descend`` on the set's batch, grouped once;
    each of descend's vectors gets its ``RnnParams`` views once."""
    batch = group_by_length(train_set)
    shape = h.hidden_size, len(train_set.schema)

    def bind(theta: np.ndarray, grad: np.ndarray):
        p, g = RnnParams(theta, *shape), RnnParams(grad, *shape)
        return lambda: batch_gradient(p, batch, h.lam, g)[1]

    theta, history = descend(bind, init_params(h, shape[1]).theta, h)
    return TrainResult(params=RnnParams(theta, *shape), loss_history=history)


def predict_set(p: RnnParams, s: HvsmSet) -> np.ndarray:
    """Probability that each sample's file is defective at its anchor, in
    sample order (aligned with ``s.keys``), for a set z-scored as the
    training set was."""
    if not s.m:
        return np.empty(0)
    if len(s.schema) != p.input_dim:
        raise ValueError(f"input dim {len(s.schema)} does not match U ({p.input_dim})")
    probs = np.empty(s.m)
    _, probs[np.concatenate([idx for idx, _ in s.by_length])] = forward(
        p, Batch([X for _, X in s.by_length])
    )
    return probs


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def gradient_check(h: Hyperparams, input_dim: int, T: int, y: int = 1) -> float:
    """Max relative error between ``batch_gradient`` and central differences,
    of step ``GRADCHECK_EPS``, of the loss it returns.

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
    errors = []
    for i, analytic in enumerate(g.tolist()):
        orig = theta[i]
        theta[i] = orig + GRADCHECK_EPS
        hi = batch_gradient(p, batch, h.lam)[1]
        theta[i] = orig - GRADCHECK_EPS
        lo = batch_gradient(p, batch, h.lam)[1]
        theta[i] = orig
        numeric = (hi - lo) / (2 * GRADCHECK_EPS)
        errors.append(abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-5))
    return float(np.max(errors))  # NaN if any entry is NaN
