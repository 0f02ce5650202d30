#!/usr/bin/env python3
"""Train the recurrent classifier on sequences whose label is pure trend.

Half the files' key metric climbs strictly across three releases, half
fall; the final release's value is standard normal either way, so a
single-release look carries nothing.  The classifier reads the path.  Also
shows the finite-difference gradient check and variable-length prediction.
"""

import numpy as np

from defectseq.history import HvsmSet, apply_normalizer, fit_normalizer
from defectseq.rnn import Hyperparams, gradient_check, predict_set, train

SCHEMA = ("trend", "noise_a", "noise_b")


def make_samples(n: int, seed: int) -> HvsmSet:
    rng = np.random.default_rng(seed)
    blocks = []
    for i in range(n):
        rising = i % 2 == 0
        final = rng.normal()
        gaps = np.abs(rng.normal(size=2)) + 0.1
        if rising:
            trend = (final - gaps.sum(), final - gaps[1], final)
        else:
            trend = (final + gaps.sum(), final + gaps[1], final)
        # one (T, d) block per file: row t holds the metrics of release t
        blocks.append(np.column_stack([trend, rng.normal(size=(3, 2))]))
    # every file has three releases, so the set's values are one (3, n, d)
    # stack; even-numbered files rise
    return HvsmSet(
        version_ids=("r1", "r2", "r3"),
        keys=tuple(f"f{i:03d}" for i in range(n)),
        labels=(np.arange(n) % 2 == 0).astype(int),
        schema=SCHEMA,
        by_length=((np.arange(n), np.stack(blocks, axis=1)),),
    )


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

    probs = predict_set(result.params, apply_normalizer(normalizer, test_set))
    accuracy = float(np.mean((probs > 0.5) == test_set.labels))
    print(f"  held-out accuracy at threshold 0.5: {accuracy:.1%}")

    print("\n=== variable-length prediction (shared weights across steps) ===")
    (_, stack), = test_set.by_length
    # the first test file, whole and without its first release; stacks
    # ascend in length, so the short sample's (2, 1, d) stack comes first
    by_length = ((np.array([1]), stack[1:, :1]), (np.array([0]), stack[:, :1]))
    pair = HvsmSet(test_set.version_ids, ("long", "short"), None, SCHEMA, by_length)
    pair = apply_normalizer(normalizer, pair)
    for T, prob in zip(pair.lengths, predict_set(result.params, pair)):
        print(f"  T={T}: p(defective) = {prob:.3f}")


if __name__ == "__main__":
    main()
