"""Run every workload several times and summarise the end-to-end metrics.

    python3 perfbench/suite.py --runs 10 [--workloads standin-paper,wide-eval]
    python3 perfbench/suite.py --runs 0 --trace

For each workload, makes ``--runs`` runs of run.py (seeds 0, 1, ...) and
prints each end-to-end metric by name with its unit, median, quartiles and
sample count, the spread (q3 - q1) / median next to the metric's bound,
and the fail ratio.  With ``--trace`` it also makes one traced run per
workload and prints the layer shares that the workload was chosen for.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import quartiles  # this file's directory is sys.path[0]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# layer metrics whose share of the traced run_s each workload must reach
LOAD_CHECKS = {
    "standin-paper": (("rnn.train.seq_s", "rnn.train.nn_s"), 0.80),
    "long-history": (("rnn.train.seq_s", "rnn.train.nn_s"), 0.80),
    "wide-eval": (
        (
            "effort.evaluate_s", "effort.curve_s", "rnn.predict_s", "experiment.emit_s",
            "baselines.predict.lr_s", "baselines.predict.nb_s",
            "baselines.predict.knn_s", "baselines.predict.nn_s",
        ),
        0.50,
    ),
}


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    print(f"  {workload} seed {seed} trace {trace}: correct {result['correct']}  "
          + "  ".join(f"{k} {v['value']:.4g}" for k, v in list(result["metrics"].items())[:4]),
          flush=True)
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json", help="also write the collected results here")
    args = parser.parse_args(argv)

    collected: dict = {}
    ok = True
    for workload in args.workloads.split(","):
        print(f"== {workload}", flush=True)
        results = [
            bench(workload, i, spec["run_seconds"], 0) for i in range(args.runs)
        ]
        collected[workload] = {"runs": results}
        if results:
            for metric in spec["end_to_end"]:
                values = [r["metrics"][metric["name"]]["value"] for r in results]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                print(f"  {metric['name']:<12} {metric['unit']:<3} median {med:.4f}  q1 {q1:.4f}"
                      f"  q3 {q3:.4f}  n {len(values)}  spread {spread:.3f} (bound {metric['bound']})")
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            correct = all(r["correct"] for r in results)
            ok &= correct and failed == 0
            print(f"  fail_ratio   {failed / attempted:.4f} ({failed} of {attempted} runs)  correct {correct}")
        if args.trace:
            traced = bench(workload, 0, spec["run_seconds"], 1)
            detail = json.loads(
                (HERE / "_work" / f"{workload}-0-1" / "result.json").read_text()
            )["layers"]
            collected[workload]["trace"] = traced
            collected[workload]["layers"] = detail
            names, floor = LOAD_CHECKS[workload]
            share = sum(detail[n] for n in names) / detail["trace.run_s"]
            ok &= traced["correct"] and share >= floor
            print(f"  traced run_s {detail['trace.run_s']:.4f}  overhead {detail['trace_overhead_s']:+.4f}"
                  f"  load share {share:.3f} (needs >= {floor}: {'ok' if share >= floor else 'MISSED'})")
            for name in sorted(detail):
                print(f"    {name:<28} {detail[name]:.6g}")
    if args.json:
        Path(args.json).write_text(json.dumps(collected, indent=1), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
