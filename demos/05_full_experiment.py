#!/usr/bin/env python3
"""End-to-end run on a generated project: tables in, report files out.

Writes a four-release metrics project whose defect labels follow the trend
of one metric, a YAML manifest for it, then drives the same code path as
``defectseq run`` and prints the emitted summary.  Output lands in
demo_output/.
"""

from pathlib import Path

import numpy as np

from defectseq.cli import main as cli_main

OUT = Path("demo_output")
SCHEMA = ("loc", "trend", "noise")


def write_project(root: Path) -> list[str]:
    rng = np.random.default_rng(11)
    version_ids = ["r1", "r2", "r3", "r4"]
    rows = {vid: [] for vid in version_ids}
    for i in range(120):
        rising = i % 2 == 0
        loc = int(rng.integers(20, 200))
        final = rng.normal()
        gaps = np.abs(rng.normal(size=3)) + 0.1
        if rising:
            values = (final - gaps[0] - gaps[1], final - gaps[1], final, final + gaps[2])
        else:
            values = (final + gaps[0] + gaps[1], final + gaps[1], final, final - gaps[2])
        for vid, value in zip(version_ids, values):
            bug = int(rising) if vid in ("r3", "r4") else 0
            rows[vid].append(f"pkg/File{i:03d}.java,{loc},{value:.6f},{rng.normal():.6f},{bug}")
    for vid in version_ids:
        path = root / f"demo-{vid}.csv"
        path.write_text("name," + ",".join(SCHEMA) + ",bug\n" + "\n".join(rows[vid]) + "\n")
    return version_ids


def config_text(version_ids: list[str]) -> str:
    """The manifest of the run on the tables ``write_project`` wrote."""
    return "\n".join(
        [
            "seed: 5",
            "repeats: 10",
            "len: 3",
            f"code_metrics: [{', '.join(SCHEMA)}]",
            "baselines: [lr, nb, knn, nn]",
            f"output: {OUT / 'report'}",
            "hyperparams: {hidden_size: 8, eta: 0.3, iterations: 200}",
            "projects:",
            "  - name: demo",
            "    train_version: r3",
            "    test_version: r4",
            "    versions:",
        ]
        + [f"      - {{id: {vid}, metrics: demo-{vid}.csv}}" for vid in version_ids]
    ) + "\n"


def main() -> None:
    OUT.mkdir(exist_ok=True)
    version_ids = write_project(OUT)
    config = OUT / "config.yaml"
    config.write_text(config_text(version_ids))

    print(f"running: defectseq run {config}\n")
    code = cli_main(["run", str(config)])
    if code != 0:
        raise SystemExit(code)

    print("\n=== summary.csv ===")
    print((OUT / "report" / "summary.csv").read_text())
    print("=== sk_groups.txt (ce_1) ===")
    for line in (OUT / "report" / "sk_groups.txt").read_text().splitlines():
        print(line)


if __name__ == "__main__":
    main()
