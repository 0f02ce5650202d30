"""Child process of the benchmark: the only code that imports ``defectseq``.

    python3 perfbench/worker.py setup MANIFEST
        Import the package and its dependencies, parse the manifest with
        ``load_config``, print ``time.monotonic()`` and exit.  The parent
        times from spawning this process to that stamp.

    python3 perfbench/worker.py run MANIFEST OUT SECONDS TRACE RESULT
        Repeat comparison runs (``run_experiment`` then ``emit_report``, the
        calls ``defectseq run`` makes) one at a time until SECONDS have
        passed and at least MIN_RUNS were made.  With TRACE=1 the runs
        alternate untraced and traced, MIN_RUNS of each at least.  Writes
        RESULT as JSON; each distinct ``report.json`` is kept under
        OUT/reports/<sha256>.json for the parent to check.

The package is imported from ``src/`` of the checkout that holds this file,
never from anywhere else.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_RUNS = 3


def _import_package():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import yaml  # noqa: F401

    from defectseq import baselines, experiment, rnn

    if not os.path.abspath(experiment.__file__).startswith(src + os.sep):
        raise ImportError(f"defectseq imported from {experiment.__file__}, not {src}")
    return experiment, baselines, rnn


def setup(manifest):
    experiment, _, _ = _import_package()
    experiment.load_config(manifest)
    print(repr(time.monotonic()), flush=True)


def _cpu_seconds():
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb():
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
    }


def run(manifest, out, seconds, trace, result_path):
    import contextlib
    import hashlib
    import json
    import traceback

    from spans import Tracer, layer_metrics  # this file's directory is sys.path[0]

    experiment, baselines, rnn = _import_package()

    cfg = experiment.load_config(manifest)
    out_dir = os.path.join(out, "run")
    reports_dir = os.path.join(out, "reports")
    os.makedirs(reports_dir, exist_ok=True)
    tracer = Tracer()
    runs = []

    def one_run(traced):
        tracer.run = len(runs)
        run_experiment, emit_report = experiment.run_experiment, experiment.emit_report
        scope = contextlib.nullcontext()
        if traced:
            run_experiment = tracer.span("experiment.run", run_experiment)
            emit_report = tracer.span(
                "experiment.emit",
                emit_report,
                lambda a, paths: {"bytes_written": sum(os.path.getsize(p) for p in paths)},
            )
            scope = tracer.installed(experiment, baselines, rnn)
        try:
            with scope:
                t0, c0 = time.perf_counter(), _cpu_seconds()
                emit_report(run_experiment(cfg), out_dir)
                t1, c1 = time.perf_counter(), _cpu_seconds()
        except Exception:  # a failed run is counted, and the loop goes on
            traceback.print_exc()
            return {"traced": traced, "error": "raised"}
        with open(os.path.join(out_dir, "report.json"), "rb") as fh:
            data = fh.read()
        sha = hashlib.sha256(data).hexdigest()
        kept = os.path.join(reports_dir, sha + ".json")
        if not os.path.exists(kept):
            with open(kept, "wb") as fh:
                fh.write(data)
        return {"traced": traced, "run_s": t1 - t0, "cpu_s": c1 - c0, "sha256": sha}

    # at least MIN_RUNS samples of each kind, so the medians of a workload
    # whose run takes most of SECONDS still span several runs
    start = time.perf_counter()
    while True:
        runs.append(one_run(False))
        if trace:
            runs.append(one_run(True))
        if time.perf_counter() - start >= seconds and len(runs) >= MIN_RUNS * (1 + trace):
            break

    result = {"peak_rss_mb": _peak_rss_mb(), "env": environment()}
    if trace:
        traced = {i: r["run_s"] for i, r in enumerate(runs) if r["traced"] and "run_s" in r}
        untraced = {i: r["run_s"] for i, r in enumerate(runs) if not r["traced"] and "run_s" in r}
        if traced and untraced:
            result["layers"], gaps = layer_metrics(tracer.spans, traced, untraced)
            for r, gap in gaps.items():
                runs[r]["trace_gap_s"] = gap
        with open(os.path.join(out, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump([s.__dict__ for s in tracer.spans], fh)
    result["runs"] = runs
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2])
    elif mode == "run":
        run(sys.argv[2], sys.argv[3], float(sys.argv[4]), sys.argv[5] == "1", sys.argv[6])
    else:
        sys.exit(f"unknown mode {mode!r}")
