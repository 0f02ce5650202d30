"""Single-version classifiers scoring the anchor version's metric rows.

Four natively implemented techniques: L2-regularized logistic regression,
Gaussian naive Bayes, k-nearest neighbors on z-scored features, and a
one-hidden-layer feedforward network reusing the recurrent classifier with
every sequence cut to a single step.

Every technique reads a set of one-step samples: the anchor step of a
sequence set (``history.anchor_step``), each file's row at the anchor
version, with the sequences' keys, labels and order.  The caller z-scores
each set once, so all techniques and all repeats share one copy of it.
The network trains and predicts through the recurrent classifier's own
``train`` and ``predict_set``.  kNN finds its neighbours by an exact
search that BLAS prunes first (see ``_predict_knn``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .history import HvsmSet
from .rnn import (
    BLAS_THREAD_BOUND, PROB_EPS, Hyperparams, descend, predict_set, sigmoid_in_place, train,
)

LOGISTIC_REGRESSION = "lr"
GAUSSIAN_NB = "nb"
KNN = "knn"
FEEDFORWARD_NN = "nn"
BASELINE_KINDS = (LOGISTIC_REGRESSION, GAUSSIAN_NB, KNN, FEEDFORWARD_NN)

VARIANCE_FLOOR = 1e-9
DEFAULT_KNN_K = 5


@dataclass(eq=False)
class BaselineModel:
    kind: str
    params: dict


def _rows(s: HvsmSet) -> np.ndarray:
    """The ``(samples, d)`` rows of a non-empty one-step set in sample
    order, as ``anchor_step`` gives it."""
    (idx, X), *rest = s.by_length
    if rest or len(X) != 1 or not np.array_equal(idx, np.arange(s.m)):
        raise ValueError("baselines read one-step samples, in sample order")
    return X[0]


def train_baseline(kind: str, s: HvsmSet, h: Hyperparams, k: int = DEFAULT_KNN_K) -> BaselineModel:
    """Fit one baseline on a labelled set of one-step samples, z-scored by
    the caller: the anchor step of a training set."""
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind {kind!r}")
    if not s.m:
        raise ValueError("empty training data")
    y = s.labels
    if y is None:
        raise ValueError("training rows need labels")
    Z = _rows(s)

    if kind == LOGISTIC_REGRESSION:
        if y.min() == y.max():
            raise ValueError("logistic regression needs both classes in training data")
        params = _train_logistic(Z, y, h)
    elif kind == GAUSSIAN_NB:
        if y.min() == y.max():
            raise ValueError("naive Bayes needs at least one sample per class")
        params = _train_gaussian_nb(Z, y)
    elif kind == KNN:
        if k < 1:
            raise ValueError("k must be positive")
        if k > len(y):
            raise ValueError(f"k={k} exceeds training size {len(y)}")
        params = {"points": Z, "labels": y, "k": k}
    else:  # FEEDFORWARD_NN
        params = {"rnn": train(s, h).params}
    return BaselineModel(kind=kind, params=params)


def _train_logistic(Z: np.ndarray, y: np.ndarray, h: Hyperparams) -> dict:
    """Full-batch gradient descent on log loss; L2 on weights, not bias.
    The parameter vector is the weights, then the bias.

    Both of ``descend``'s points share one set of work arrays, written with
    ``out=``.  The loss takes one log per sample, which with 0/1 labels
    gives the bits of ``-y log(p) - (1 - y) log(1 - p)``, and each mean is
    ``np.mean``'s own sum-then-divide."""
    m, d = Z.shape
    ZT = Z.T
    positive = y == 1
    prob, resid, work = np.empty(m), np.empty(m), np.empty(d)

    def bind(theta, grad):
        w, b, gw = theta[:d], theta[d:], grad[:d]

        def objective():
            np.matmul(Z, w, out=prob)
            np.add(prob, b, out=prob)
            sigmoid_in_place(prob)
            np.subtract(prob, y, out=resid)
            np.matmul(ZT, resid, out=gw)
            np.divide(gw, m, out=gw)
            np.multiply(h.lam, w, out=work)
            np.add(gw, work, out=gw)
            grad[d] = np.add.reduce(resid) / m
            np.maximum(prob, PROB_EPS, out=prob)
            np.minimum(prob, 1.0 - PROB_EPS, out=prob)
            np.subtract(1.0, prob, out=resid)
            np.copyto(resid, prob, where=positive)
            np.log(resid, out=resid)
            np.square(w, out=work)
            return float(-(np.add.reduce(resid) / m) + 0.5 * h.lam * np.add.reduce(work))

        return objective

    theta, _ = descend(bind, np.zeros(d + 1), h)
    return {"weights": theta[:d], "bias": float(theta[d])}


def _train_gaussian_nb(Z: np.ndarray, y: np.ndarray) -> dict:
    out = {"priors": {}, "means": {}, "vars": {}}
    for cls in (0, 1):
        rows = Z[y == cls]
        out["priors"][cls] = len(rows) / len(y)
        out["means"][cls] = rows.mean(axis=0)
        out["vars"][cls] = np.maximum(rows.var(axis=0), VARIANCE_FLOOR)
    return out


def _predict_gaussian_nb(params: dict, Z: np.ndarray) -> np.ndarray:
    width = len(params["means"][0])
    if Z.shape[1] != width:
        # lr's and kNN's products reject rows of another width; these would broadcast
        raise ValueError(f"rows of width {Z.shape[1]} do not match the model's {width}")
    log_joint = []
    for cls in (0, 1):
        mu, var = params["means"][cls], params["vars"][cls]
        log_lik = -0.5 * np.sum(np.log(2 * np.pi * var) + (Z - mu) ** 2 / var, axis=1)
        log_joint.append(np.log(params["priors"][cls]) + log_lik)
    peak = np.maximum(*log_joint)
    w0 = np.exp(log_joint[0] - peak)
    w1 = np.exp(log_joint[1] - peak)
    return w1 / (w0 + w1)


# unit roundoff of float64
_UNIT = np.finfo(float).eps / 2


def _predict_knn(params: dict, Z: np.ndarray) -> np.ndarray:
    """Mean label of each row's k nearest training points by the distance
    ``sqrt(sum((p - z) ** 2))``, distance ties going to the earlier point:
    what a stable argsort of every distance would pick.

    BLAS first estimates every squared distance as |z|² + |p|² − 2 z·p.
    With d features, both that estimate and the exact sum of squares lie
    within (2d + 6)·u·(|z|² + |p|²) of the true value (u the unit
    roundoff), so they differ by less than ``err`` = 8(d + 4)·u·(|z|² +
    max |p|²) plus one smallest normal for underflow.  Every point that the
    exact distances rank in the top k then has an estimate within 2·err of
    the row's k-th smallest estimate; only those candidates get the exact
    distance.  A non-finite estimate needs no pass of its own: where it could
    hide a top-k point, |z|² + max |p|² or the k-th distance overflows (or
    an input is NaN), so the row's bound is not finite and the row keeps
    every point.  The queries go in blocks whose estimate product stays
    under ``BLAS_THREAD_BOUND``.

    Each block's estimate is written into two arrays made once per call, in
    the order above: the product, doubled in place, subtracted from the
    outer sum of the squared norms.  The candidates are read off the mask
    as flat indices, which are few (about k per row), and counted per row
    from those.
    """
    points, labels, k = params["points"], params["labels"], params["k"]
    rows = max(1, (BLAS_THREAD_BOUND - 1) // points.size)
    p_sq = np.sum(points**2, axis=1)
    p_sq_max = p_sq.max()
    slack = 8 * (points.shape[1] + 4) * _UNIT
    out = np.empty(len(Z))
    product = np.empty((min(rows, len(Z)), len(points)))
    estimates = np.empty_like(product)
    for start in range(0, len(Z), rows):
        block = Z[start : start + rows]
        twice_dot, estimate = product[: len(block)], estimates[: len(block)]
        z_sq = np.sum(block**2, axis=1)
        np.matmul(block, points.T, out=twice_dot)
        np.multiply(twice_dot, 2.0, out=twice_dot)
        np.add(z_sq[:, None], p_sq, out=estimate)
        np.subtract(estimate, twice_dot, out=estimate)
        err = slack * (z_sq + p_sq_max) + np.finfo(float).tiny
        bound = np.partition(estimate, k - 1, axis=1)[:, k - 1] + 2.0 * err
        candidate = estimate <= bound[:, None]
        # a bound that overflowed keeps every point of its row
        candidate[~np.isfinite(bound)] = True
        # row-major flat indices: c ascends within each row
        r, c = np.divmod(np.flatnonzero(candidate), len(points))
        dist = np.sqrt(np.sum((points[c] - block[r]) ** 2, axis=-1))
        # stable: equal distances keep training order
        order = np.lexsort((dist, r))
        counts = np.bincount(r, minlength=len(block))
        first = np.cumsum(counts) - counts
        neighbors = c[order[first[:, None] + np.arange(k)]]
        out[start : start + rows] = labels[neighbors].mean(axis=1)
    return out


@np.errstate(over="ignore", invalid="ignore")
def predict_baseline_many(model: BaselineModel, s: HvsmSet) -> np.ndarray:
    """Probabilities of the positive class, aligned with ``s.keys``, for a
    one-step set z-scored as the training set was.  An overflow warns of
    nothing: a score it leaves non-finite is the caller's to reject."""
    if not s.m:
        return np.empty(0)
    Z = _rows(s)
    p = model.params
    if model.kind == FEEDFORWARD_NN:
        return predict_set(p["rnn"], s)
    if model.kind == LOGISTIC_REGRESSION:
        # row by row: ``Z @ w`` may round differently and move reported scores
        return np.asarray([1.0 / (1.0 + np.exp(-(p["weights"] @ z + p["bias"]))) for z in Z])
    predict = _predict_gaussian_nb if model.kind == GAUSSIAN_NB else _predict_knn
    return predict(p, Z)
