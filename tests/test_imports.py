"""The package runs without scipy: scipy is a test-only dependency.

``cli`` imports every package module, so a fresh interpreter that imports
it must end with no ``scipy`` module loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

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
