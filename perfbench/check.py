"""Correctness check of a run's ``report.json``.

Two parts:

* invariants every report must hold, whatever the seed: no recorded
  errors, every metric finite and in range, each technique's mean equal to
  the mean of its runs, Scott-Knott ranks that partition the techniques,
  and Win/Tie/Loss counts that add up to the project count;
* a comparison with the stored reference for the workload and seed, when
  one exists: the same structure, identical Scott-Knott groups and
  Win/Tie/Loss counts, and every float within ``TOLERANCE``.

References hold a fingerprint, not the whole report: the per-file maps
(``test_files`` and ``scores_mean``, thousands of entries each) are reduced
to their key list's hash plus exact or checksummed values, everything else
is kept as it is.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

TOLERANCE = 1e-9
REFERENCES = Path(__file__).resolve().parent / "references"
METRICS = ("ce_0.1", "ce_0.2", "ce_0.5", "ce_1", "acc", "auc")
_GOLDEN = (math.sqrt(5) - 1) / 2


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(report: dict) -> dict:
    """The report with each per-file map replaced by a compact digest.

    ``test_files`` holds integers and is hashed exactly.  ``scores_mean``
    keeps its plain and position-weighted sums, so one changed score moves
    both and two changes cannot cancel in both.
    """

    def walk(node, key=None):
        if isinstance(node, dict):
            if key == "test_files":
                return {"n": len(node), "sha256": _sha(json.dumps(node, sort_keys=True))}
            if key == "scores_mean":
                keys = sorted(node)
                values = [float(node[k]) for k in keys]
                weights = [1.0 + (i * _GOLDEN) % 1.0 for i in range(len(values))]
                return {
                    "n": len(keys),
                    "keys_sha256": _sha("\n".join(keys)),
                    "sum": math.fsum(values),
                    "weighted_sum": math.fsum(v * w for v, w in zip(values, weights)),
                }
            return {k: walk(v, k) for k, v in node.items()}
        if isinstance(node, list):
            return [walk(v) for v in node]
        return node

    return walk(report)


def compare(reference, observed, path: str = "report") -> list[str]:
    """Differences between two fingerprints; empty when they agree."""
    if isinstance(reference, dict) and isinstance(observed, dict):
        if set(reference) != set(observed):
            missing = sorted(set(reference) - set(observed))
            extra = sorted(set(observed) - set(reference))
            return [f"{path}: keys differ (missing {missing[:3]}, extra {extra[:3]})"]
        out: list[str] = []
        for k in sorted(reference):
            out += compare(reference[k], observed[k], f"{path}.{k}")
        return out
    if isinstance(reference, list) and isinstance(observed, list):
        if len(reference) != len(observed):
            return [f"{path}: length {len(observed)} != {len(reference)}"]
        out = []
        for i, (a, b) in enumerate(zip(reference, observed)):
            out += compare(a, b, f"{path}[{i}]")
        return out
    numbers = (int, float)
    if (
        (isinstance(reference, float) or isinstance(observed, float))
        and isinstance(reference, numbers)
        and isinstance(observed, numbers)
        and not isinstance(reference, bool)
        and not isinstance(observed, bool)
    ):
        if math.isnan(reference) and math.isnan(observed):
            return []
        if abs(reference - observed) <= TOLERANCE:
            return []
        return [f"{path}: {observed!r} != {reference!r} (tolerance {TOLERANCE})"]
    if type(reference) is not type(observed) or reference != observed:
        return [f"{path}: {observed!r} != {reference!r}"]
    return []


def invariants(report: dict) -> list[str]:
    """Problems that make a report wrong whatever its reference."""
    problems = [f"errors: {project}: {msg}" for project, msg in report["errors"].items()]
    projects = report["projects"]
    for name, project in projects.items():
        for technique, entry in project["techniques"].items():
            if "runs" not in entry:
                problems.append(f"{name}/{technique}: {entry.get('error', 'no runs')}")
                continue
            for metric in METRICS:
                values = [run[metric] for run in entry["runs"]]
                if not all(math.isfinite(v) for v in values):
                    problems.append(f"{name}/{technique}/{metric}: non-finite value")
                    continue
                low = 0.0 if metric in ("acc", "auc") else -math.inf
                if not all(low <= v <= 1.0 + TOLERANCE for v in values):
                    problems.append(f"{name}/{technique}/{metric}: out of range")
                if abs(math.fsum(values) / len(values) - entry["mean"][metric]) > TOLERANCE:
                    problems.append(f"{name}/{technique}/{metric}: mean is not the mean of runs")
    aggregates = report["aggregates"]
    techniques = aggregates.get("techniques", [])
    for metric, ranks in aggregates.get("scott_knott", {}).items():
        ranked = [t for rank in ranks for t in rank]
        if sorted(ranked) != sorted(techniques):
            problems.append(f"scott_knott/{metric}: ranks do not partition the techniques")
    for baseline, by_metric in aggregates.get("win_tie_loss", {}).items():
        for metric, row in by_metric.items():
            if row["win"] + row["tie"] + row["loss"] != len(projects):
                problems.append(f"win_tie_loss/{baseline}/{metric}: counts do not add up")
    return problems


def load_reference(workload: str, seed: int) -> dict | None:
    path = REFERENCES / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(str(seed))


def check_report(data: bytes, reference: dict | None) -> list[str]:
    """Every problem found in one ``report.json``; empty when it passes.

    ``reference`` is a stored entry: ``{"sha256": ..., "fingerprint": ...}``.
    """
    report = json.loads(data)
    problems = invariants(report)
    if reference is not None:
        problems += compare(reference["fingerprint"], fingerprint(report))
    return problems


def reference_entry(data: bytes) -> dict:
    """What the reference store keeps for one report."""
    return {"sha256": hashlib.sha256(data).hexdigest(), "fingerprint": fingerprint(json.loads(data))}
