"""What the package imports.

The package runs without scipy: scipy is a test-only dependency.  ``cli``
imports every package module, so a fresh interpreter that imports it must
end with no ``scipy`` module loaded.

A forked project worker runs on the modules its parent holds: running a
project imports nothing more, so no worker pays for ``numpy.random`` (with
``secrets``, ``hashlib`` and OpenSSL) or ``numpy.ma``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from helpers import write_trend_project

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_import_loads_no_scipy():
    probe = "import sys, defectseq.cli; print(*sys.modules, sep='\\n')"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    modules = out.split()
    assert "defectseq.cli" in modules
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []


def test_running_a_project_imports_nothing(tmp_path):
    version_ids, paths, schema = write_trend_project(tmp_path, n_files=40)
    versions = [(v, str(paths[v])) for v in version_ids]
    probe = f"""
import json, sys
from defectseq import cli, experiment
from defectseq.rnn import Hyperparams
spec = experiment.ProjectSpec(
    "trend", tuple(experiment.VersionEntry(v, path) for v, path in {versions!r})
)
cfg = experiment.ExperimentConfig(
    projects=(spec,), repeats=2, code_metrics={schema!r},
    hyperparams=Hyperparams(hidden_size=4, iterations=5),
)
before = set(sys.modules)
ok, project = experiment._project_outcome((spec, cfg))
added = sorted(set(sys.modules) - before)
print(json.dumps([ok, sorted(project["techniques"].items()), added]))
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    ok, techniques, added = json.loads(out)
    assert ok
    # every technique, each baseline kind included, fitted and scored
    assert [t for t, entry in techniques if "runs" in entry] == ["knn", "lr", "nb", "nn", "rnn"]
    assert added == []
