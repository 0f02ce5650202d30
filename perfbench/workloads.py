"""Seeded input generators, one per benchmark workload.

Each generator writes a YAML manifest plus the metrics tables (and, for
``long-history``, the companion change tables) it names, into a directory
of its own.  The same seed gives the same bytes.  Nothing here imports
``defectseq``: the inputs are plain files, produced before any timing
starts, and the package only ever sees them through ``load_config``.

Why each workload exists, and which layer it loads, is in README.md.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import numpy as np
import yaml

# The 20 static code metrics of the PROMISE tables, in their published
# column order (a copy, so the inputs do not move when the package does).
CODE_METRICS = (
    "wmc", "dit", "noc", "cbo", "rfc", "lcom", "ca", "ce", "npm", "lcom3",
    "loc", "dam", "moa", "mfa", "cam", "ic", "cbm", "amc", "max_cc", "avg_cc",
)
TREND = CODE_METRICS.index("wmc")
LOC = CODE_METRICS.index("loc")

MANIFEST = "manifest.yaml"


# ---------------------------------------------------------------------------
# standin-paper: the nine stand-in projects at the published file counts
# ---------------------------------------------------------------------------

PROMISE_PROJECTS = {
    "ant": ["1.3", "1.4", "1.5", "1.6", "1.7"],
    "camel": ["1.0", "1.2", "1.4", "1.6"],
    "jedit": ["3.2", "4.0", "4.1", "4.2", "4.3"],
    "log4j": ["1.0", "1.1", "1.2"],
    "lucene": ["2.0", "2.2", "2.4"],
    "poi": ["1.5", "2.0", "2.5", "3.0"],
    "velocity": ["1.4", "1.5", "1.6"],
    "xalan": ["2.4", "2.5", "2.6"],
    "xerces": ["init", "1.2", "1.3", "1.4"],
}

# published (files, developing) counts at each project's train/test anchors
ANCHOR_COUNTS = {
    "ant": ((351, 293), (745, 355)),
    "camel": ((872, 577), (965, 857)),
    "jedit": ((367, 291), (492, 225)),
    "log4j": ((109, 98), (205, 117)),
    "lucene": ((247, 192), (340, 235)),
    "poi": ((385, 314), (442, 382)),
    "velocity": ((214, 155), (229, 210)),
    "xalan": ((803, 689), (885, 766)),
    "xerces": ((453, 433), (588, 328)),
}

# published developing-file percentages at the (train, test) anchors
EXPECTED_DF_PCT = {
    "ant": (83.5, 47.7), "camel": (66.2, 88.8), "jedit": (79.3, 45.7),
    "log4j": (89.9, 57.1), "lucene": (77.7, 69.1), "poi": (81.6, 86.4),
    "velocity": (72.4, 91.7), "xalan": (85.8, 86.6), "xerces": (95.6, 55.8),
}

# The paper's hidden size.  The iteration budget and repeat count are cut
# from the paper's 500 x 10 so that one comparison run takes seconds and a
# measured run holds several of them; training still dominates run_s.
STANDIN_HYPERPARAMS = {"hidden_size": 16, "eta": 0.1, "lam": 0.0001, "iterations": 300}
STANDIN_REPEATS = 1


def plan_groups(f_tr: int, d_tr: int, f_te: int, d_te: int) -> dict[str, int]:
    """Group sizes whose presence patterns hit the published counts.

    a: in every version; ad: dies at the test anchor; b: born at the train
    anchor and survives; bd: born at the train anchor and dies; e: gap file
    (first version + test anchor only); c: born at the test anchor.
    """
    e = max(0, d_te - f_tr)
    survivors = d_te - e
    a = min(d_tr, survivors)
    b = survivors - a
    ad = d_tr - a
    bd = (f_tr - d_tr) - b
    c = f_te - d_te
    sizes = {"a": a, "ad": ad, "b": b, "bd": bd, "e": e, "c": c}
    if any(v < 0 for v in sizes.values()):
        raise ValueError(f"no presence plan for counts {sizes}")
    return sizes


def presence_indices(group: str, k: int) -> list[int]:
    return {
        "a": list(range(k)),
        "ad": list(range(k - 1)),
        "b": [k - 2, k - 1],
        "bd": [k - 2],
        "e": [0, k - 1],
        "c": [k - 1],
    }[group]


def check_standin_plans() -> None:
    """Raise unless every group plan reproduces the published %DF."""
    for name, ((f_tr, d_tr), (f_te, d_te)) in ANCHOR_COUNTS.items():
        sizes = plan_groups(f_tr, d_tr, f_te, d_te)
        train = (sizes["a"] + sizes["ad"] + sizes["b"] + sizes["bd"], sizes["a"] + sizes["ad"])
        test = (
            sizes["a"] + sizes["b"] + sizes["e"] + sizes["c"],
            sizes["a"] + sizes["b"] + sizes["e"],
        )
        if (train, test) != ((f_tr, d_tr), (f_te, d_te)):
            raise ValueError(f"{name}: plan {sizes} misses the published counts")
        for (files, dev), pct in zip((train, test), EXPECTED_DF_PCT[name]):
            if abs(100 * dev / files - pct) > 0.05:
                raise ValueError(f"{name}: %DF {100 * dev / files:.2f} != published {pct}")


def _write_table(path: Path, rows: list[tuple[str, np.ndarray, int]]) -> None:
    lines = ["name," + ",".join(CODE_METRICS) + ",bug"]
    for key, values, bug in rows:
        lines.append(f"{key}," + ",".join(f"{v:.6f}" for v in values) + f",{bug}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_manifest(root: Path, projects: list[dict], **settings) -> Path:
    manifest = {
        "seed": 1,
        "len": None,
        "baselines": ["lr", "nb", "knn", "nn"],
        "output": "out",
        **settings,
        "projects": projects,
    }
    path = root / MANIFEST
    path.write_text(yaml.safe_dump(manifest, sort_keys=False), encoding="utf-8")
    return path


def generate_standin(root: Path, seed: int) -> Path:
    """Nine projects whose per-version file populations reproduce the
    published developing-file counts; labels follow a strict metric trend
    that only the sequence model can read."""
    check_standin_plans()
    rng = np.random.default_rng(seed)
    projects = []
    for name, vids in PROMISE_PROJECTS.items():
        k = len(vids)
        (f_tr, d_tr), (f_te, d_te) = ANCHOR_COUNTS[name]
        rows: dict[str, list] = {vid: [] for vid in vids}
        serial = 0
        for group, count in plan_groups(f_tr, d_tr, f_te, d_te).items():
            present = presence_indices(group, k)
            # the label-neutral value sits at the train anchor when the file
            # is there, so single-version features carry no signal
            pin = k - 2 if k - 2 in present else present[-1]
            for _ in range(count):
                serial += 1
                rising = serial % 5 < 2
                direction = 1.0 if rising else -1.0
                gap = float(np.abs(rng.normal()) + 0.2)
                pinned = float(rng.normal())
                loc = int(rng.integers(10, 400))
                for j in present:
                    values = rng.normal(size=len(CODE_METRICS))
                    values[TREND] = pinned + direction * (j - pin) * gap
                    values[LOC] = loc
                    rows[vids[j]].append((f"{name}.g{group}.C{serial:04d}", values, int(rising)))
        for vid in vids:
            _write_table(root / f"{name}-{vid}.csv", rows[vid])
        projects.append(
            {
                "name": name,
                "train_version": vids[-2],
                "test_version": vids[-1],
                "versions": [{"id": vid, "metrics": f"{name}-{vid}.csv"} for vid in vids],
            }
        )
    return _write_manifest(
        root, projects, repeats=STANDIN_REPEATS, metrics="code", hyperparams=STANDIN_HYPERPARAMS
    )


# ---------------------------------------------------------------------------
# evolving projects: wide-eval and long-history
# ---------------------------------------------------------------------------

def _evolve(
    rng: np.random.Generator,
    name: str,
    sizes: list[int],
    deaths: list[int],
) -> list[dict[str, tuple[np.ndarray, int]]]:
    """File populations over len(sizes) releases.

    Release j keeps release j-1's files except ``deaths[j]`` drawn at
    random, and adds newborns up to ``sizes[j]``.  A file's trend metric drifts by a per-file slope; files
    with a rising slope are more likely to carry bugs, so both the history
    and (more weakly) the current vector hold signal.  Returns per-release
    {key: (values, bug)}.
    """
    alive: list[str] = []
    state: dict[str, dict] = {}
    releases = []
    serial = 0
    for j, size in enumerate(sizes):
        if j and deaths[j]:
            dead = set(rng.choice(len(alive), size=deaths[j], replace=False).tolist())
            alive = [key for i, key in enumerate(alive) if i not in dead]
        while len(alive) < size:
            serial += 1
            key = f"{name}.pkg{serial % 17:02d}.C{serial:05d}"
            state[key] = {
                "base": rng.normal(size=len(CODE_METRICS)),
                "slope": float(rng.normal()),
                "loc": int(rng.integers(5, 2000)),
                "age": 0,
            }
            alive.append(key)
        release = {}
        for key in alive:
            s = state[key]
            values = s["base"] + 0.3 * rng.normal(size=len(CODE_METRICS))
            values[TREND] = s["base"][TREND] + s["slope"] * s["age"]
            s["loc"] = max(1, s["loc"] + int(rng.integers(-20, 40)))
            values[LOC] = s["loc"]
            risk = 1.2 * s["slope"] * min(s["age"], 3) + 0.4 * values[0] + rng.normal()
            bug = int(risk > 1.0) * int(rng.integers(1, 4))
            release[key] = (values, bug)
            s["age"] += 1
        releases.append(release)
    return releases


def _write_evolving_project(
    root: Path,
    rng: np.random.Generator,
    name: str,
    sizes: list[int],
    deaths: list[int],
    process: bool,
) -> dict:
    vids = [f"{i + 1}.0" for i in range(len(sizes))]
    releases = _evolve(rng, name, sizes, deaths)
    versions = []
    previous: dict[str, tuple[np.ndarray, int]] = {}
    for vid, release in zip(vids, releases):
        rows = [(key, values, bug) for key, (values, bug) in sorted(release.items())]
        _write_table(root / f"{name}-{vid}.csv", rows)
        entry = {"id": vid, "metrics": f"{name}-{vid}.csv"}
        if process:
            # churn since the previous release; low for long-lived files
            lines = ["version,name,add,del"]
            for key, (values, _) in sorted(release.items()):
                if key in previous:
                    delta = values[LOC] - previous[key][0][LOC]
                    added = int(max(delta, 0) + rng.integers(0, 6))
                    deleted = int(max(-delta, 0) + rng.integers(0, 4))
                else:
                    added, deleted = int(values[LOC]), 0
                lines.append(f"{vid},{key},{added},{deleted}")
            (root / f"{name}-{vid}.changes.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
            entry["process"] = f"{name}-{vid}.changes.csv"
        versions.append(entry)
        previous = release
    return {
        "name": name,
        "train_version": vids[-2],
        "test_version": vids[-1],
        "versions": versions,
    }


# Two large projects with three releases; the test release is ~3x the
# training release, so prediction, evaluation and curve emission scale with
# the test side while training runs a short budget.
WIDE_PROJECTS = {"atlas": (500, 560, 1700), "borealis": (400, 450, 1350)}
WIDE_HYPERPARAMS = {"hidden_size": 16, "eta": 0.1, "lam": 0.0001, "iterations": 10}
WIDE_REPEATS = 6


def generate_wide(root: Path, seed: int) -> Path:
    rng = np.random.default_rng(seed)
    projects = [
        _write_evolving_project(root, rng, name, list(sizes), [0, 20, 30], process=False)
        for name, sizes in WIDE_PROJECTS.items()
    ]
    return _write_manifest(
        root, projects, repeats=WIDE_REPEATS, metrics="code", hyperparams=WIDE_HYPERPARAMS
    )


# Three projects with twelve releases growing 200 -> 475 files at low
# churn: long sequences in many narrow length groups, plus change tables.
LONG_PROJECTS = ("cassini", "dione", "enceladus")
LONG_RELEASES = 12
LONG_HYPERPARAMS = {"hidden_size": 16, "eta": 0.1, "lam": 0.0001, "iterations": 200}
LONG_REPEATS = 1


def generate_long(root: Path, seed: int) -> Path:
    rng = np.random.default_rng(seed)
    sizes = [200 + 25 * j for j in range(LONG_RELEASES)]
    deaths = [0] + [4] * (LONG_RELEASES - 1)
    projects = [
        _write_evolving_project(root, rng, name, sizes, deaths, process=True)
        for name in LONG_PROJECTS
    ]
    return _write_manifest(
        root, projects, repeats=LONG_REPEATS, metrics="code+process", hyperparams=LONG_HYPERPARAMS
    )


WORKLOADS: dict[str, Callable[[Path, int], Path]] = {
    "standin-paper": generate_standin,
    "wide-eval": generate_wide,
    "long-history": generate_long,
}


def generate(name: str, root: Path, seed: int) -> Path:
    """Write workload ``name``'s inputs for ``seed`` under ``root``; returns
    the manifest path."""
    root.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](root, seed)
