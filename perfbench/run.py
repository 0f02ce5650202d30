"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload standin-paper --seed 0 --seconds 15 --trace 0

Run from the root of a checkout.  The steps, in order:

1. write the workload's inputs for the seed (untimed);
2. with ``--trace 0``, time ``SETUP_PROBES`` fresh interpreters from spawn
   until ``load_config`` returns, half before step 3 and half after it
   (``setup_s``, the median);
3. start ``worker.py``, which repeats comparison runs for ``--seconds``,
   one at a time in one process (a closed loop of one client);
4. check every distinct ``report.json`` the runs wrote (check.py);
5. print the environment stamp, a per-metric summary, and as the last line
   ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
   metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
   ``--trace 1``.

A run fails if it raises, if its report records errors, or if the report
fails the check; ``fail_ratio`` is failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402

# half run before the worker and half after it, so the median spans the
# CPU-speed phases of the whole run
SETUP_PROBES = 8
# a run that has not finished by then is killed and prints no result
DEADLINE_S = 170.0
# the traced runs' spans must account for their outer wall time to within
# this share of it (what is left is the time between the root calls)
TRACE_GAP_SHARE = 0.01


def git_commit(root: Path) -> str:
    """HEAD's commit of the git checkout at ``root``; "unknown" if ``root``
    itself is not one (no parent directory is searched)."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, check=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def worker(*args: str, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=True,
    )


def setup_seconds(manifest: Path, probes: int) -> list[float]:
    """Fresh-interpreter times to a parsed config."""
    times = []
    for _ in range(probes):
        t0 = time.monotonic()
        done = float(worker("setup", str(manifest), timeout=60).stdout.split()[-1])
        times.append(done - t0)
    return times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def tally(runs: list[dict], reports: Path, reference: dict | None):
    """Split the worker's runs into passing ones and problems.

    A run fails if it raised or if its report fails the check; each
    distinct report (by sha256) is checked once.  Returns the passing runs,
    the problems found and the distinct report hashes.
    """
    verdicts = {
        sha: check.check_report((reports / f"{sha}.json").read_bytes(), reference)
        for sha in {r["sha256"] for r in runs if "sha256" in r}
    }
    problems = sorted({p for v in verdicts.values() for p in v})
    problems += ["a run raised; see the traceback above" for r in runs if "sha256" not in r]
    ok = [r for r in runs if "sha256" in r and not verdicts[r["sha256"]]]
    return ok, problems, sorted(verdicts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "defectseq" / "__init__.py").is_file():
        print(f"error: no defectseq package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    manifest = workloads.generate(args.workload, work / "inputs", args.seed)

    samples: dict[str, list[float]] = {}
    if not args.trace:
        # the first probe, which may also compile bytecode, is dropped
        samples["setup_s"] = setup_seconds(manifest, SETUP_PROBES // 2 + 1)[1:]
    result_path = work / "result.json"
    worker(
        "run", str(manifest), str(work), repr(args.seconds), str(args.trace), str(result_path),
        timeout=started + DEADLINE_S - time.monotonic(),
    )
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not args.trace:
        samples["setup_s"] += setup_seconds(manifest, SETUP_PROBES - SETUP_PROBES // 2)

    runs = result["runs"]
    reference = check.load_reference(args.workload, args.seed)
    ok, problems, shas = tally(runs, work / "reports", reference)
    for bulky in ("inputs", "run", "reports"):  # keep result.json and spans.json
        shutil.rmtree(work / bulky)
    failed = len(runs) - len(ok)
    # a run whose report fails the check still took its time
    untraced = [r for r in runs if not r["traced"] and "run_s" in r]

    if args.trace:
        layers = result.get("layers", {})
        for run in runs:
            gap = run.get("trace_gap_s", 0.0)
            if not -1e-6 <= gap <= TRACE_GAP_SHARE * run.get("run_s", 0.0):
                problems.append(f"spans leave {gap:.6f}s of a {run['run_s']:.3f}s traced run unaccounted")
        values = {m["name"]: layers.get(m["name"]) for m in wanted}
    else:
        samples["run_s"] = [r["run_s"] for r in untraced]
        samples["cpu_s"] = [r["cpu_s"] for r in untraced]
        samples["peak_rss_mb"] = [result["peak_rss_mb"]]
        values = {m["name"]: statistics.median(samples[m["name"]]) if samples.get(m["name"]) else None
                  for m in wanted}
    missing = [name for name, value in values.items() if value is None]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": git_commit(ROOT),
        **result["env"],
        "reference": "stored" if reference else "none (invariants only)",
        "report_sha256": shas,
        "byte_identical": bool(reference) and shas == [reference["sha256"]],
    }
    print("env " + json.dumps(stamp, sort_keys=True))
    for problem in problems[:20]:
        print(f"FAIL {problem}")
    for name, series in samples.items():
        q1, med, q3 = quartiles(series)
        print(f"{name}: median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(series)}")
    if args.trace:
        for name in sorted(layers):
            print(f"{name}: {layers[name]:.6g}")
    print(f"fail_ratio: {failed / len(runs):.6g}  ({failed} of {len(runs)} runs)")

    print(json.dumps({
        "correct": not problems and bool(ok),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
