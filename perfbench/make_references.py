"""Regenerate the stored reference reports that run.py checks against.

    python3 perfbench/make_references.py [--workloads wide-eval,...]

For each workload and seed 0..SEEDS-1, writes the inputs, makes the
worker's minimum number of comparison runs in a fresh worker, requires
them to write the same report, and stores its sha256 and fingerprint in
references/<workload>.json.  Run it only at a commit whose
reports are known good: a later change that moves a report must state why
and regenerate the references in the same change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402
from run import worker  # noqa: E402

# references cover seeds 0..SEEDS-1; other seeds are checked by invariants only
SEEDS = 32


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    check.REFERENCES.mkdir(exist_ok=True)
    for name in args.workloads.split(","):
        entries = {}
        for seed in range(SEEDS):
            work = HERE / "_work" / f"reference-{name}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            manifest = workloads.generate(name, work / "inputs", seed)
            worker("run", str(manifest), str(work), "0", "0", str(work / "result.json"), timeout=600)
            runs = json.loads((work / "result.json").read_text(encoding="utf-8"))["runs"]
            shas = {run.get("sha256") for run in runs}
            if len(shas) != 1 or None in shas:
                raise SystemExit(f"{name} seed {seed}: runs disagree or failed: {shas}")
            (sha,) = shas
            data = (work / "reports" / f"{sha}.json").read_bytes()
            problems = check.invariants(json.loads(data))
            if problems:
                raise SystemExit(f"{name} seed {seed}: {problems[:3]}")
            entries[str(seed)] = check.reference_entry(data)
            shutil.rmtree(work)
            print(f"{name} seed {seed}: {sha}", flush=True)
        path = check.REFERENCES / f"{name}.json"
        path.write_text(json.dumps(entries, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
