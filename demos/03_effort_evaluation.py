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
    ce_report_values,
    rank_by_density,
    scored_files,
)

# one column per field, one entry per file; the model's scores are kept
# apart, since one test set may be scored many times
FILES, _ = scored_files(
    keys=["app/Main.java", "app/View.java", "app/Model.java"],
    locs=[10, 10, 80],
    bugs=[1, 0, 1],
)
SCORES = [0.9, 0.5, 0.9]


def main() -> None:
    order = rank_by_density(FILES, SCORES)
    print("=== density ranking (score per line, descending) ===")
    for i in order:
        key, score, loc = FILES.keys[i], SCORES[i], FILES.loc[i]
        print(f"  {key:16s} score={score:.2f} loc={loc:3d} density={score / loc:.4f}")

    print("\n=== cumulative inspection curve ===")
    for x, y in ce_curve(FILES, order):
        print(f"  {x:5.2f} of lines inspected -> {y:5.2f} of bugs found")

    print("\n=== cost-effectiveness at the usual budgets ===")
    ce = ce_report_values(FILES, order)
    for pi in CE_CUTOFFS:
        print(f"  CE at {pi:>4}: {ce[format(pi, 'g')]:.4f}")

    labels = (FILES.bugs > 0).astype(int).tolist()
    print(f"\nrecall at 20% effort: {acc_at_effort(FILES, order):.3f}")
    print(f"ROC area:             {auc(SCORES, labels):.3f}")


if __name__ == "__main__":
    main()
