"""What the package imports.

The package runs without scipy: scipy is a test-only dependency.  ``cli``
imports every package module, so a fresh interpreter that imports it must
end with no ``scipy`` module loaded.

A forked project worker runs on the modules its parent holds.  Running a
project imports ``numpy.random`` (with ``secrets``, ``hashlib`` and
OpenSSL) for the initial weights, and nothing else: no ``numpy.ma``.
numpy 2 loads ``numpy.random`` only on first use, so a pooled run's caller,
which trains nothing itself, never loads it.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import write_trend_project

SRC = Path(__file__).resolve().parent.parent / "src"


def probe(code: str):
    """What a fresh interpreter running ``code`` prints, read as JSON."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    return json.loads(out)


def project_setup(tmp_path, names) -> str:
    """The lines that import ``cli`` and build a config of one trend project
    per name, as ``cfg``, with its first spec as ``spec``."""
    specs = []
    for name in names:
        (tmp_path / name).mkdir()
        version_ids, paths, schema = write_trend_project(tmp_path / name, n_files=40)
        specs.append((name, [(v, str(paths[v])) for v in version_ids]))
    return f"""
import json, sys
import numpy
preloaded = "numpy.random" in sys.modules
from defectseq import cli, experiment
from defectseq.rnn import Hyperparams
specs = tuple(
    experiment.ProjectSpec(name, tuple(experiment.VersionEntry(v, p) for v, p in versions))
    for name, versions in {specs!r}
)
spec = specs[0]
cfg = experiment.ExperimentConfig(
    projects=specs, repeats=2, code_metrics={schema!r},
    hyperparams=Hyperparams(hidden_size=4, iterations=5),
)
"""


def test_package_import_loads_no_scipy():
    modules = probe("import json, sys, defectseq.cli; print(json.dumps(list(sys.modules)))")
    assert "defectseq.cli" in modules
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []


def test_running_a_project_imports_nothing(tmp_path):
    # nothing, that is, beyond what ``import numpy.random`` loads in the
    # same process
    setup = project_setup(tmp_path, ["trend"])
    ok, techniques, added = probe(setup + """
before = set(sys.modules)
ok, project = experiment._project_outcome((spec, cfg))
added = sorted(set(sys.modules) - before)
print(json.dumps([ok, sorted(project["techniques"].items()), added]))
""")
    numpy_random = probe(setup + """
before = set(sys.modules)
import numpy.random
print(json.dumps(sorted(set(sys.modules) - before)))
""")
    assert ok
    # every technique, each baseline kind included, fitted and scored
    assert [t for t, entry in techniques if "runs" in entry] == ["knn", "lr", "nb", "nn", "rnn"]
    assert added == numpy_random
    assert [m for m in added if m.split(".")[:2] == ["numpy", "ma"] or m.startswith("scipy")] == []


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_pooled_run_leaves_numpy_random_out_of_the_caller(tmp_path):
    # the worker count is forced, so the pool runs even on a one-CPU box
    preloaded, projects, errors, loaded = probe(project_setup(tmp_path, ["a", "b"]) + """
experiment._worker_count = lambda n: min(n, 2)
report = experiment.run_experiment(cfg)
techniques = {
    name: sorted(t for t, entry in p["techniques"].items() if "runs" in entry)
    for name, p in report["projects"].items()
}
print(json.dumps([preloaded, techniques, report["errors"], "numpy.random" in sys.modules]))
""")
    if preloaded:
        pytest.skip("this numpy loads numpy.random with numpy itself")
    assert errors == {}
    assert projects == {name: ["knn", "lr", "nb", "nn", "rnn"] for name in ("a", "b")}
    assert not loaded
