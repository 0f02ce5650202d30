"""Golden outputs: ``defectseq run`` through ``cli.main`` writes exactly the
pinned bytes.

Three small generated inputs, each run inline and with two forced workers:

- ``code``: two trend projects on the code metrics, two repeats, every
  baseline, Scott-Knott over pooled runs, and lr set to diverge, so its
  entries are errors and stderr carries one warning line per project;
- ``code+process``: the same kind of projects with change tables attached
  and a two-version ``len`` window;
- ``diverging-rnn``: the same kind of projects with the rnn set to diverge, so
  no technique is compared against it: the Win/Tie/Loss table is empty and
  ``win_tie_loss.csv`` holds only its header.

The sha256 of every written file, the written paths and the exact stderr
lines are pinned.  Training bits depend on numpy and its BLAS, so the
hashes hold on the build stamped in ``BUILD`` only, and the test skips on
any other.  A change that moves a report byte must update the hashes and
say why.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from defectseq import experiment
from defectseq.cli import main

from helpers import write_trend_project

# numpy version, BLAS name and BLAS version the hashes were taken on
BUILD = ("2.4.6", "scipy-openblas", "0.3.31.188.0")


def build_stamp() -> tuple[str, str, str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return np.__version__, blas["name"], blas["version"]
    except (TypeError, KeyError):  # a numpy without show_config(mode=...)
        return np.__version__, "unknown", "unknown"


pytestmark = pytest.mark.skipif(
    build_stamp() != BUILD,
    reason=f"golden hashes were taken on numpy/BLAS {BUILD}, this build is {build_stamp()}",
)


def write_change_table(path, version_id, n_files, seed):
    """Lines added and deleted for every third file of a trend project."""
    rng = np.random.default_rng(seed)
    lines = ["version,name,add,del"]
    for i in range(0, n_files, 3):
        added, deleted = rng.integers(0, 40, size=2).tolist()
        lines.append(f"{version_id},f{i:04d},{added},{deleted}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# each case's config lines beyond the shared ones
CASES = {
    "code": ["sk_pool_runs: true", "technique_hyperparams: {lr: {eta: 1e300}}"],
    "code+process": ["metrics: code+process", "len: 2"],
    "diverging-rnn": ["technique_hyperparams: {rnn: {eta: 1e300}}"],
}


def write_input(root, case):
    """A two-project config under ``root`` for one of ``CASES``; a
    ``code+process`` case gets a change table for every version but the
    first.  Returns the config path."""
    n_files = 60
    lines = [
        "seed: 4",
        "repeats: 2",
        "code_metrics: [loc, trend, n0, n1]",
        "baselines: [lr, nb, knn, nn]",
        "hyperparams: {hidden_size: 4, eta: 0.5, iterations: 30}",
        f"output: {root / 'out'}",
    ]
    lines += CASES[case]
    with_process = "metrics: code+process" in CASES[case]
    lines.append("projects:")
    for p, name in enumerate(("alpha", "beta")):
        project = root / name
        project.mkdir()
        version_ids, paths, _ = write_trend_project(project, n_files=n_files, seed=20 + p)
        lines += [f"  - name: {name}", "    versions:"]
        for v, vid in enumerate(version_ids):
            entry = f"      - {{id: {vid}, metrics: {name}/{paths[vid].name}"
            if with_process and v:
                write_change_table(project / f"changes-{vid}.csv", vid, n_files, 10 * p + v)
                entry += f", process: {name}/changes-{vid}.csv"
            lines.append(entry + "}")
    config = root / "config.yaml"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return config


LR_ERROR = "warning: {}/lr: non-finite loss at iteration 0"
RNN_ERROR = "warning: {}/rnn: non-finite loss at iteration 0"

GOLDEN = {
    "code": {
        "stderr": [LR_ERROR.format("alpha"), LR_ERROR.format("beta")],
        "sha256": {
            "ce_curves/alpha_knn.csv":
                "7fa1119a89bfb02bdb3eb4bf875300611d20154630ae5460f8034496adcc6bc4",
            "ce_curves/alpha_nb.csv":
                "1e5d01322bc38e0a0dc61bff779a17a1126aba00d85556fdb225c4966e27ada8",
            "ce_curves/alpha_nn.csv":
                "8929e68aa1ce46306932a9620ef3a32b6efcdb9cdf7ed4218c0323d34ea18742",
            "ce_curves/alpha_rnn.csv":
                "a15075940236c7065d80718b2581319ce7ea659d3b506fa4966da46b1f2c7f62",
            "ce_curves/beta_knn.csv":
                "2681f4ad5308bb4fddccc0cf92bc6c7d1ab1e1443565e3b9496b92fcf4d8aae8",
            "ce_curves/beta_nb.csv":
                "c0cfd879fe43fae34e1946e4555ec874085ddbfb13cd20b0a0b6228cd3a64939",
            "ce_curves/beta_nn.csv":
                "1c13ce7818889b5a9252317d714b8480ab635a9f5b6ab5afb806e975c944fa2d",
            "ce_curves/beta_rnn.csv":
                "b2da2cd85428f7adbdde1505376b32fc6ebbe21a626e06cdb44f665379a9cf83",
            "report.json":
                "5c7e244f86605505cb2c0caeebcf06f8e9cb5eab9b7bfa0a40bc6aee67d43a26",
            "sk_groups.txt":
                "5ce64f07f566016bd932a4cc9aaae0cb33102312a9a815eb433ce7776b3abe81",
            "summary.csv":
                "9737443dce14b663d6eed48401be717044b9fe00f3e1fa4943c488c3de37a1bf",
            "win_tie_loss.csv":
                "ba63d27fa01111afe8077148d354890c1dbd0e959f3b338c700d104da5282a19",
        },
    },
    "code+process": {
        "stderr": [],
        "sha256": {
            "ce_curves/alpha_knn.csv":
                "40c0979bb388b18f6888b5509c13adc46959e7c56c4fef9ffec45405c3dfc3e1",
            "ce_curves/alpha_lr.csv":
                "b7f5b6347ae2e0cde4b732d78887feb1152b1d6cbffc34070bed4900d27c5a10",
            "ce_curves/alpha_nb.csv":
                "1c19b7de3b1d34860707265855b505374c68855f7348804c9b591c34c54c8954",
            "ce_curves/alpha_nn.csv":
                "1e4880c8a97dcecccfbf7d16cbb2a2f6b6821e3f050980def5ae4087f67d578a",
            "ce_curves/alpha_rnn.csv":
                "161176f251d72f330d44352fe2f5a06414f9d81f225e4091690ee24c070b2fe1",
            "ce_curves/beta_knn.csv":
                "dd100d9dd209b414e7b4c218ee7aa49a8e035cc02258fbc2c2183d50c85e6422",
            "ce_curves/beta_lr.csv":
                "fc704ee2e7091831375629e2273eeb5cbfee6b2ef821eddaca45a5d366e2ec24",
            "ce_curves/beta_nb.csv":
                "13fe05bebbdbf4fbc71c11fee2abf19cdb7cfb483643505521f9bbaa92a372c7",
            "ce_curves/beta_nn.csv":
                "5046920b545284b2ce7cca689382b571b08d09dc2774cb7061966c5e5670f9b5",
            "ce_curves/beta_rnn.csv":
                "9d7692915f24a2d72df603eb9030e90e3397de226563d356a9eceaf2787c8970",
            "report.json":
                "a68a424543846c0e9e114a2605e9a9ba4f53a29872cb1ef568b94e2e6d48bc12",
            "sk_groups.txt":
                "b7a8e0c412f62edf78aea1c17d54293b4d0a9f1fc2c72e4bcbd68c0b38dd4d93",
            "summary.csv":
                "544a477cfdd66c959e94f39d14e1699f644d471d49fffb11f7ee2683308870ed",
            "win_tie_loss.csv":
                "977b38c989aadc039d8f7ee9d8a0c1dbfae450ee1e5cbb01211cb6ae60903522",
        },
    },
    "diverging-rnn": {
        "stderr": [RNN_ERROR.format("alpha"), RNN_ERROR.format("beta")],
        "sha256": {
            "ce_curves/alpha_knn.csv":
                "7fa1119a89bfb02bdb3eb4bf875300611d20154630ae5460f8034496adcc6bc4",
            "ce_curves/alpha_lr.csv":
                "cae20bcb09b02d06939240fe9ca9dbb11d7ea062ec54543dd8d9bc0a0486fae1",
            "ce_curves/alpha_nb.csv":
                "1e5d01322bc38e0a0dc61bff779a17a1126aba00d85556fdb225c4966e27ada8",
            "ce_curves/alpha_nn.csv":
                "8929e68aa1ce46306932a9620ef3a32b6efcdb9cdf7ed4218c0323d34ea18742",
            "ce_curves/beta_knn.csv":
                "2681f4ad5308bb4fddccc0cf92bc6c7d1ab1e1443565e3b9496b92fcf4d8aae8",
            "ce_curves/beta_lr.csv":
                "3e521c0e9710bbd186d58f1abfae21db2d97603089b11bd6b4f7f00906ae9fa2",
            "ce_curves/beta_nb.csv":
                "c0cfd879fe43fae34e1946e4555ec874085ddbfb13cd20b0a0b6228cd3a64939",
            "ce_curves/beta_nn.csv":
                "1c13ce7818889b5a9252317d714b8480ab635a9f5b6ab5afb806e975c944fa2d",
            "report.json":
                "7ba92b9c0e3e17ee34d9bbbbd76dda1d69b75f928fe32fad06b7c4dcee8e0019",
            "sk_groups.txt":
                "437150a8ce84d0fd6ecc37b19267aa5b32eaa1556a0b125ee88b75e581468334",
            "summary.csv":
                "203ff548e242b43dae55805a2efd1abb7171c1f90b291459ca4d3b715e6f9a0f",
            "win_tie_loss.csv":
                "4290f31f4add60f05b7072d869e1751ea302efe127903d3b6bf4e481973a1816",
        },
    },
}


@pytest.mark.parametrize("workers", [1, 2], ids=["inline", "two-workers"])
@pytest.mark.parametrize("case", list(GOLDEN))
def test_run_writes_the_golden_outputs(tmp_path, monkeypatch, case, workers):
    config = write_input(tmp_path, case)
    monkeypatch.setattr(experiment, "_worker_count", lambda n: min(n, workers))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", str(config)])
    assert code == 0
    assert err.getvalue().splitlines() == GOLDEN[case]["stderr"]
    root = tmp_path / "out"
    hashes = {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }
    printed = [
        path[len(str(root)) + 1 :] for path in out.getvalue().splitlines() if path.startswith(str(root))
    ]
    assert sorted(printed) == sorted(hashes) and len(printed) == len(out.getvalue().splitlines())
    assert hashes == GOLDEN[case]["sha256"]
    if case == "diverging-rnn":
        report = json.loads((root / "report.json").read_text(encoding="utf-8"))
        assert all("error" in p["techniques"]["rnn"] for p in report["projects"].values())
        assert report["aggregates"]["win_tie_loss"] == {}
        assert (root / "win_tie_loss.csv").read_text(encoding="utf-8").splitlines() == [
            "baseline,metric,win,tie,loss"
        ]
