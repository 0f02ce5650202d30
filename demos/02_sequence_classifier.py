#!/usr/bin/env python3
"""Train the recurrent classifier on sequences whose label is pure trend.

Half the files' key metric climbs strictly across three releases, half
fall; the final release's value is standard normal either way, so a
single-release look carries nothing.  The classifier reads the path.  Also
shows the finite-difference gradient check and variable-length prediction.
"""

import numpy as np

from defectseq.dataset import MetricVector
from defectseq.history import Hvsm, HvsmSet, apply_normalizer, fit_normalizer
from defectseq.rnn import Hyperparams, gradient_check, predict_set, train

SCHEMA = ("trend", "noise_a", "noise_b")


def make_samples(n: int, seed: int) -> HvsmSet:
    rng = np.random.default_rng(seed)
    items = []
    for i in range(n):
        rising = i % 2 == 0
        final = rng.normal()
        gaps = np.abs(rng.normal(size=2)) + 0.1
        if rising:
            trend = (final - gaps.sum(), final - gaps[1], final)
        else:
            trend = (final + gaps.sum(), final + gaps[1], final)
        rows = np.column_stack([trend, rng.normal(size=(3, 2))])
        items.append(
            Hvsm(
                key=f"f{i:03d}",
                version_ids=("r1", "r2", "r3"),
                sequence=tuple(MetricVector(values=r, schema=SCHEMA, loc=0) for r in rows),
                label=1 if rising else 0,
            )
        )
    return HvsmSet(anchor_version="r3", items=tuple(items), window=3)


def main() -> None:
    print("=== gradient check (batched backpropagation through time vs central differences) ===")
    for T in (1, 3, 5):
        err = gradient_check(Hyperparams(hidden_size=4, seed=1), input_dim=3, T=T)
        print(f"  T={T}: max relative error {err:.2e}")

    print("\n=== training on 200 trend-labeled sequences ===")
    train_set = make_samples(200, seed=0)
    test_set = make_samples(60, seed=1)
    normalizer = fit_normalizer(train_set)
    h = Hyperparams(hidden_size=16, eta=0.1, lam=1e-4, iterations=300, seed=0)
    result = train(apply_normalizer(normalizer, train_set), h)
    losses = result.loss_history
    print(f"  loss: {losses[0]:.4f} -> {losses[len(losses) // 2]:.4f} -> {losses[-1]:.4f}")

    probs = predict_set(result.params, test_set, normalizer)
    labels = np.array([item.label for item in test_set.items])
    accuracy = float(np.mean((probs > 0.5) == labels))
    print(f"  held-out accuracy at threshold 0.5: {accuracy:.1%}")

    print("\n=== variable-length prediction (shared weights across steps) ===")
    long_item = test_set.items[0]
    short_item = Hvsm(
        key="short",
        version_ids=long_item.version_ids[1:],
        sequence=long_item.sequence[1:],
        label=None,
    )
    pair = HvsmSet(anchor_version="r3", items=(long_item, short_item), window=3)
    for item, prob in zip(pair.items, predict_set(result.params, pair, normalizer)):
        print(f"  T={item.length}: p(defective) = {prob:.3f}")


if __name__ == "__main__":
    main()
