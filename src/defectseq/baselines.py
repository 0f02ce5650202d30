"""Single-version classifiers scoring the anchor version's metric vectors.

Four natively implemented techniques: L2-regularized logistic regression,
Gaussian naive Bayes, k-nearest neighbors on z-scored features, and a
one-hidden-layer feedforward network reusing the recurrent classifier with
every sequence cut to a single step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import MetricVector
from .history import Hvsm, HvsmSet, Normalizer, fit_normalizer_rows
from .rnn import (
    MODEL_FORMAT,
    MODEL_FORMAT_VERSION,
    Hyperparams,
    RnnParams,
    _group_forward,
    descend,
    params_from_json,
    params_to_json,
    train,
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
    normalizer: Normalizer
    params: dict

    @property
    def is_random(self) -> bool:
        """Whether retraining with another seed can change predictions."""
        return self.kind == FEEDFORWARD_NN


def _feature_matrix(features: Sequence[tuple[MetricVector, int]]) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    if not features:
        raise ValueError("empty training data")
    schema = features[0][0].schema
    X = np.vstack([vec.values for vec, _ in features])
    y = np.asarray([label for _, label in features], dtype=float)
    if set(np.unique(y)) - {0.0, 1.0}:
        raise ValueError("labels must be 0 or 1")
    return X, y, schema


def train_baseline(
    kind: str,
    features: Sequence[tuple[MetricVector, int]],
    h: Hyperparams,
    k: int = DEFAULT_KNN_K,
) -> BaselineModel:
    """Fit one baseline on (metric vector, binary label) pairs.

    Features are z-scored with a normalizer fit here and stored on the
    model, so prediction sees the same scaling.
    """
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind {kind!r}")
    X, y, schema = _feature_matrix(features)
    normalizer = fit_normalizer_rows(X, schema)
    Z = normalizer.transform(X)

    if kind == LOGISTIC_REGRESSION:
        if len(np.unique(y)) < 2:
            raise ValueError("logistic regression needs both classes in training data")
        params = _train_logistic(Z, y, h)
    elif kind == GAUSSIAN_NB:
        if len(np.unique(y)) < 2:
            raise ValueError("naive Bayes needs at least one sample per class")
        params = _train_gaussian_nb(Z, y)
    elif kind == KNN:
        if k < 1:
            raise ValueError("k must be positive")
        if k > len(y):
            raise ValueError(f"k={k} exceeds training size {len(y)}")
        params = {"points": Z, "labels": y, "k": k}
    else:  # FEEDFORWARD_NN
        params = {"rnn": _train_feedforward(Z, y, schema, h)}
    return BaselineModel(kind=kind, normalizer=normalizer, params=params)


def _train_logistic(Z: np.ndarray, y: np.ndarray, h: Hyperparams) -> dict:
    """Full-batch gradient descent on log loss; L2 on weights, not bias."""
    m, d = Z.shape

    def objective(params):
        w, b = params
        p = 1.0 / (1.0 + np.exp(-(Z @ w + b)))
        grad = (Z.T @ (p - y) / m + h.lam * w, float(np.mean(p - y)))
        p = np.clip(p, 1e-12, 1 - 1e-12)
        loss = np.mean(-y * np.log(p) - (1 - y) * np.log(1 - p)) + 0.5 * h.lam * np.sum(w**2)
        return grad, float(loss)

    def step(params, grad, eta):
        return params[0] - eta * grad[0], params[1] - eta * grad[1]

    (w, b), _ = descend(objective, step, (np.zeros(d), 0.0), h)
    return {"weights": w, "bias": b}


def _train_gaussian_nb(Z: np.ndarray, y: np.ndarray) -> dict:
    out = {"priors": {}, "means": {}, "vars": {}}
    for cls in (0, 1):
        rows = Z[y == cls]
        out["priors"][cls] = len(rows) / len(y)
        out["means"][cls] = rows.mean(axis=0)
        out["vars"][cls] = np.maximum(rows.var(axis=0), VARIANCE_FLOOR)
    return out


def _train_feedforward(Z: np.ndarray, y: np.ndarray, schema, h: Hyperparams) -> RnnParams:
    # one-step sequences make the recurrent net a plain hidden-layer
    # classifier; features arrive pre-normalized, so train raw
    items = tuple(
        Hvsm(
            key=str(i),
            version_ids=("0",),
            sequence=(MetricVector(values=row, schema=schema, loc=0),),
            label=int(label),
        )
        for i, (row, label) in enumerate(zip(Z, y))
    )
    result = train(HvsmSet(anchor_version="0", items=items, window=1), h)
    return result.params


def predict_baseline(model: BaselineModel, x: MetricVector) -> float:
    """Probability of the positive class for one metric vector."""
    return float(predict_baseline_many(model, [x])[0])


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


# elements of the (rows, training points, features) difference array that
# one kNN block may hold
KNN_BLOCK_ELEMENTS = 1 << 16


def _predict_knn(params: dict, Z: np.ndarray) -> np.ndarray:
    points, k = params["points"], params["k"]
    rows = max(1, KNN_BLOCK_ELEMENTS // points.size)
    out = np.empty(len(Z))
    for start in range(0, len(Z), rows):
        block = Z[start : start + rows]
        dist = np.sqrt(np.sum((points - block[:, None, :]) ** 2, axis=-1))
        # stable argsort breaks distance ties by training order
        neighbors = np.argsort(dist, axis=1, kind="stable")[:, :k]
        out[start : start + rows] = params["labels"][neighbors].mean(axis=1)
    return out


def predict_baseline_many(model: BaselineModel, xs: Sequence[MetricVector]) -> np.ndarray:
    """Probabilities of the positive class, aligned with ``xs``."""
    if any(x.schema != model.normalizer.schema for x in xs):
        raise ValueError("schema does not match the model's training schema")
    if not xs:
        return np.empty(0)
    Z = model.normalizer.transform(np.vstack([x.values for x in xs]))
    p = model.params
    if model.kind == FEEDFORWARD_NN:
        return _group_forward(p["rnn"], Z[None])[1]
    if model.kind == LOGISTIC_REGRESSION:
        # row by row: ``Z @ w`` may round differently and move reported scores
        return np.asarray([1.0 / (1.0 + np.exp(-(p["weights"] @ z + p["bias"]))) for z in Z])
    predict = _predict_gaussian_nb if model.kind == GAUSSIAN_NB else _predict_knn
    return predict(p, Z)


# ---------------------------------------------------------------------------
# serialization (same envelope as the recurrent model, kind-tagged)
# ---------------------------------------------------------------------------

def save_baseline(path: str | Path, model: BaselineModel) -> None:
    params: dict
    if model.kind == LOGISTIC_REGRESSION:
        params = {
            "weights": model.params["weights"].tolist(),
            "bias": model.params["bias"],
        }
    elif model.kind == GAUSSIAN_NB:
        params = {
            "priors": {str(c): v for c, v in model.params["priors"].items()},
            "means": {str(c): v.tolist() for c, v in model.params["means"].items()},
            "vars": {str(c): v.tolist() for c, v in model.params["vars"].items()},
        }
    elif model.kind == KNN:
        params = {
            "points": model.params["points"].tolist(),
            "labels": model.params["labels"].tolist(),
            "k": model.params["k"],
        }
    else:
        params = params_to_json(model.params["rnn"])
    payload = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "schema": list(model.normalizer.schema),
        "normalizer": {
            "mean": model.normalizer.mean.tolist(),
            "std": model.normalizer.std.tolist(),
        },
        "params": params,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_baseline(path: str | Path) -> BaselineModel:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != MODEL_FORMAT or payload.get("kind") not in BASELINE_KINDS:
        raise ValueError(f"not a baseline model file: {path}")
    kind = payload["kind"]
    schema = tuple(payload["schema"])
    normalizer = Normalizer(
        mean=np.asarray(payload["normalizer"]["mean"], dtype=float),
        std=np.asarray(payload["normalizer"]["std"], dtype=float),
        schema=schema,
    )
    raw = payload["params"]
    if kind == LOGISTIC_REGRESSION:
        params = {"weights": np.asarray(raw["weights"], dtype=float), "bias": float(raw["bias"])}
    elif kind == GAUSSIAN_NB:
        params = {
            "priors": {int(c): float(v) for c, v in raw["priors"].items()},
            "means": {int(c): np.asarray(v, dtype=float) for c, v in raw["means"].items()},
            "vars": {int(c): np.asarray(v, dtype=float) for c, v in raw["vars"].items()},
        }
    elif kind == KNN:
        params = {
            "points": np.asarray(raw["points"], dtype=float),
            "labels": np.asarray(raw["labels"], dtype=float),
            "k": int(raw["k"]),
        }
    else:
        params = {"rnn": params_from_json(raw)}
    return BaselineModel(kind=kind, normalizer=normalizer, params=params)
