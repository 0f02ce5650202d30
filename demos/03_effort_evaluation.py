#!/usr/bin/env python3
"""Cost-effectiveness by hand: three files, two bugs, one ranking.

The model ranks by predicted-defect density (score per line).  The curve
tracks how fast bugs are found as inspected lines accumulate; CE divides
the model's area gain over random inspection by the best achievable gain,
cut off at several inspection budgets.
"""

from defectseq.effort import (
    CE_CUTOFFS,
    acc_at_effort,
    auc,
    ce_curve,
    ce_pi,
    rank_by_density,
    scored_files,
)

# one column per field, one entry per file
FILES, _ = scored_files(
    keys=["app/Main.java", "app/View.java", "app/Model.java"],
    scores=[0.9, 0.5, 0.9],
    locs=[10, 10, 80],
    bugs=[1, 0, 1],
)


def main() -> None:
    ranking = rank_by_density(FILES)
    print("=== density ranking (score per line, descending) ===")
    for key, score, loc in zip(ranking.keys, ranking.score, ranking.loc):
        print(f"  {key:16s} score={score:.2f} loc={loc:3d} density={score / loc:.4f}")

    print("\n=== cumulative inspection curve ===")
    curve = ce_curve(ranking)
    for x, y in curve.points:
        print(f"  {x:5.2f} of lines inspected -> {y:5.2f} of bugs found")

    print("\n=== cost-effectiveness at the usual budgets ===")
    for pi in CE_CUTOFFS:
        print(f"  CE at {pi:>4}: {ce_pi(FILES, pi):.4f}")

    labels = (FILES.bugs > 0).astype(int).tolist()
    print(f"\nrecall at 20% effort: {acc_at_effort(FILES):.3f}")
    print(f"ROC area:             {auc(FILES.score, labels):.3f}")


if __name__ == "__main__":
    main()
