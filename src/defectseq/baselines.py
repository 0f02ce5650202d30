"""Single-version classifiers scoring the anchor version's metric rows.

Four natively implemented techniques: L2-regularized logistic regression,
Gaussian naive Bayes, k-nearest neighbors on z-scored features, and a
one-hidden-layer feedforward network reusing the recurrent classifier with
every sequence cut to a single step.

Every technique reads its rows from one :class:`Features` matrix, rows
gathered from a version's value matrix.  A training matrix fits its
z-scoring, z-scores itself and builds the network's one-step set (its
z-scored rows as one stack, with its labels) on first use and keeps them,
so all techniques and all repeats trained on it share one copy of each.  kNN finds its neighbours by an exact search that BLAS
prunes first (see ``_predict_knn``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .history import HvsmSet, Normalizer, fit_normalizer_rows
from .rnn import BLAS_THREAD_BOUND, Batch, Hyperparams, descend, forward, sigmoid_in_place, train

LOGISTIC_REGRESSION = "lr"
GAUSSIAN_NB = "nb"
KNN = "knn"
FEEDFORWARD_NN = "nn"
BASELINE_KINDS = (LOGISTIC_REGRESSION, GAUSSIAN_NB, KNN, FEEDFORWARD_NN)

VARIANCE_FLOOR = 1e-9
DEFAULT_KNN_K = 5


@dataclass(frozen=True, eq=False)
class Features:
    """Raw metric rows (files x metrics) with their schema and, to train
    on, their 0/1 labels.

    The z-scoring fit on the rows, the z-scored rows and the feedforward
    net's one-step set are each built on first use and kept.
    """

    values: np.ndarray
    schema: tuple[str, ...]
    labels: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def normalizer(self) -> Normalizer:
        """Z-scoring fit on these rows."""
        return fit_normalizer_rows(self.values, self.schema)

    @cached_property
    def normalized(self) -> np.ndarray:
        return self.normalizer.transform(self.values)

    @cached_property
    def one_step(self) -> HvsmSet:
        """The z-scored rows as one-step sequences, keyed by row number: the
        feedforward net is the recurrent one on these.  Features arrive
        pre-normalized, so the net trains on them raw."""
        n = len(self)
        stacks = ((np.arange(n), self.normalized[None]),)
        return HvsmSet(("0",), tuple(map(str, range(n))), self.labels, self.schema, stacks)


@dataclass(eq=False)
class BaselineModel:
    kind: str
    normalizer: Normalizer
    params: dict


def train_baseline(
    kind: str,
    features: Features,
    h: Hyperparams,
    k: int = DEFAULT_KNN_K,
) -> BaselineModel:
    """Fit one baseline on labelled feature rows.

    Features are z-scored by the matrix's own normalizer, which is stored
    on the model, so prediction sees the same scaling.
    """
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind {kind!r}")
    if not len(features):
        raise ValueError("empty training data")
    y = features.labels
    if y is None:
        raise ValueError("training rows need labels")
    # comparisons, not np.unique, which imports numpy.ma into a forked worker
    if ((y != 0) & (y != 1)).any():
        raise ValueError("labels must be 0 or 1")
    Z = features.normalized

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
        params = {"rnn": train(features.one_step, h).params}
    return BaselineModel(kind=kind, normalizer=features.normalizer, params=params)


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
            np.maximum(prob, 1e-12, out=prob)
            np.minimum(prob, 1 - 1e-12, out=prob)
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
    the row's k-th smallest estimate; only those candidates (and any whose
    estimate is not finite) get the exact distance.  The queries go in
    blocks whose estimate product stays under ``BLAS_THREAD_BOUND``.
    """
    points, labels, k = params["points"], params["labels"], params["k"]
    rows = max(1, (BLAS_THREAD_BOUND - 1) // points.size)
    p_sq = np.sum(points**2, axis=1)
    p_sq_max = p_sq.max()
    slack = 8 * (points.shape[1] + 4) * _UNIT
    out = np.empty(len(Z))
    for start in range(0, len(Z), rows):
        block = Z[start : start + rows]
        with np.errstate(over="ignore", invalid="ignore"):
            z_sq = np.sum(block**2, axis=1)
            estimate = z_sq[:, None] + p_sq - 2.0 * (block @ points.T)
            err = slack * (z_sq + p_sq_max) + np.finfo(float).tiny
            bound = np.partition(estimate, k - 1, axis=1)[:, k - 1] + 2.0 * err
            candidate = (estimate <= bound[:, None]) | ~np.isfinite(estimate)
        # a bound that overflowed keeps every point of its row
        candidate[~np.isfinite(bound)] = True
        r, c = np.nonzero(candidate)  # c ascends within each row
        dist = np.sqrt(np.sum((points[c] - block[r]) ** 2, axis=-1))
        # stable: equal distances keep training order
        order = np.lexsort((dist, r))
        counts = np.count_nonzero(candidate, axis=1)
        first = np.cumsum(counts) - counts
        neighbors = c[order[first[:, None] + np.arange(k)]]
        out[start : start + rows] = labels[neighbors].mean(axis=1)
    return out


def predict_baseline_many(model: BaselineModel, rows: Features) -> np.ndarray:
    """Probabilities of the positive class, aligned with ``rows``."""
    if not len(rows):
        return np.empty(0)
    if rows.schema != model.normalizer.schema:
        raise ValueError("schema does not match the model's training schema")
    Z = model.normalizer.transform(rows.values)
    p = model.params
    if model.kind == FEEDFORWARD_NN:
        return forward(p["rnn"], Batch([Z[None]]))[1]
    if model.kind == LOGISTIC_REGRESSION:
        # row by row: ``Z @ w`` may round differently and move reported scores
        return np.asarray([1.0 / (1.0 + np.exp(-(p["weights"] @ z + p["bias"]))) for z in Z])
    predict = _predict_gaussian_nb if model.kind == GAUSSIAN_NB else _predict_knn
    return predict(p, Z)

