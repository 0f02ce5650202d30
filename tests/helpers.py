"""Shared builders for toy projects and synthetic datasets."""

from __future__ import annotations

import numpy as np

from defectseq.dataset import ProjectHistory, VersionSnapshot
from defectseq.history import HvsmSet

TOY_SCHEMA = ("loc", "x")

# presence pattern of the 7-file lifecycle project: 5 versions, anchor "v4"
# fA spans everything, fB/fC/fD progressively newer, fE/fF/fG gone by v4
TOY_PRESENCE = {
    "fA": ("v1", "v2", "v3", "v4", "v5"),
    "fB": ("v2", "v3", "v4"),
    "fC": ("v3", "v4"),
    "fD": ("v4",),
    "fE": ("v1", "v2", "v3"),
    "fF": ("v1", "v2"),
    "fG": ("v1",),
}

TOY_BUGS = {"fA": 2, "fB": 0, "fC": 1, "fD": 0}  # labels at v4


def snapshot(version_id, schema, rows, bugs=None) -> VersionSnapshot:
    """A version from ``{key: metric values}`` (and optional bug counts);
    line counts are the rounded "loc" metric, as the parser reads them."""
    keys = tuple(rows)
    values = np.array([rows[key] for key in keys], dtype=float).reshape(len(keys), len(schema))
    loc_at = schema.index("loc") if "loc" in schema else None
    return VersionSnapshot(
        version_id=version_id,
        schema=tuple(schema),
        keys=keys,
        values=values,
        bugs=np.array([(bugs or {}).get(key, 0) for key in keys], dtype=np.int64),
        loc=np.rint(values[:, loc_at]).astype(np.int64) if loc_at is not None
        else np.zeros(len(keys), np.int64),
    )


def toy_history() -> ProjectHistory:
    versions = []
    for i, vid in enumerate(("v1", "v2", "v3", "v4", "v5"), start=1):
        rows = {key: [10 * i, float(i)] for key, present in TOY_PRESENCE.items() if vid in present}
        versions.append(snapshot(vid, TOY_SCHEMA, rows, TOY_BUGS if vid == "v4" else None))
    return ProjectHistory(name="toy", versions=tuple(versions))


def lifecycle_states(history: ProjectHistory, s: HvsmSet) -> dict[str, str]:
    """Each file's lifecycle state at the anchor of ``s``, a set extracted
    from ``history`` with a window of at least 2, read off the set: a
    sequence of two or more steps is a developing file's, one step a
    newborn's, and a file absent from the set but present in an earlier
    version is dead."""
    lengths = {item.key: item.length for item in s.items}
    states = {key: "developing" if T > 1 else "newborn" for key, T in lengths.items()}
    for snap in history.versions[: history.index(s.version_ids[-1])]:
        states.update((key, "dead") for key in snap.files if key not in lengths)
    return states


def hvsm_set(samples, anchor="v", window=None, schema=None) -> HvsmSet:
    """samples: iterable of (rows, label) pairs, each rows a (T, d) block;
    the schema defaults to m0, m1, ..., one name per column."""
    samples = list(samples)
    arrays = [np.atleast_2d(np.asarray(rows, dtype=float)) for rows, _ in samples]
    labels = [label for _, label in samples]
    lengths = [len(rows) for rows in arrays]
    by_length = tuple(
        (idx, np.stack([arrays[i] for i in idx], axis=1))
        for idx in (np.flatnonzero(np.equal(lengths, T)) for T in sorted(set(lengths)))
    )
    if schema is None:
        schema = tuple(f"m{i}" for i in range(arrays[0].shape[1]))
    return HvsmSet(
        version_ids=(*(f"v{t}" for t in range((window or max(lengths)) - 1)), anchor),
        keys=tuple(f"f{i:04d}" for i in range(len(arrays))),
        labels=None if all(label is None for label in labels) else np.array(labels),
        schema=schema,
        by_length=by_length,
    )


def blocks(s: HvsmSet) -> list[np.ndarray]:
    """Each sample's (T, d) block, read off its length's stack, in item order."""
    out = [None] * s.m
    for idx, X in s.by_length:
        for j, i in enumerate(idx.tolist()):
            out[i] = X[:, j]
    return out


def write_trend_project(
    root,
    n_files: int = 80,
    seed: int = 5,
    n_noise: int = 2,
    clean_test: bool = False,
):
    """Write a four-version metrics-table project whose labels follow the
    trend of one metric; returns the version ids and csv paths.

    Each file's trend metric rises strictly across all four versions for
    positives and falls for negatives, with the third version's value
    N(0,1) for both classes.  ``clean_test`` zeroes every bug count at the
    final version.
    """
    rng = np.random.default_rng(seed)
    version_ids = ("u1", "u2", "u3", "u4")
    schema = ("loc", "trend") + tuple(f"n{i}" for i in range(n_noise))
    rows = {vid: [] for vid in version_ids}
    for i in range(n_files):
        label = 1 if i % 2 == 0 else 0
        loc = int(rng.integers(10, 101))
        x3 = rng.normal()
        g = np.abs(rng.normal(size=3)) + 0.1
        if label:
            trend = (x3 - g[0] - g[1], x3 - g[1], x3, x3 + g[2])
        else:
            trend = (x3 + g[0] + g[1], x3 + g[1], x3, x3 - g[2])
        for vid, value in zip(version_ids, trend):
            noise = rng.normal(size=n_noise)
            bug = label if vid in ("u3", "u4") else 0
            if clean_test and vid == "u4":
                bug = 0
            rows[vid].append(
                [f"f{i:04d}", loc, float(value), *noise.tolist(), bug]
            )
    paths = {}
    for vid in version_ids:
        lines = ["name," + ",".join(schema) + ",bug"]
        for row in rows[vid]:
            lines.append(",".join(str(x) for x in row))
        path = root / f"trend-{vid}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths[vid] = path
    return version_ids, paths, schema


def trend_samples(n: int, seed: int, n_noise: int = 3, T: int = 3):
    """Sequences whose label hinges on a strict upward trend of one metric.

    The trend metric's final value is N(0,1) for both classes, so a
    single-version look at the last step carries no signal; only the path
    to it does.  Positives rise strictly to the final value, negatives fall
    strictly to it.  Returns (samples, final_rows) where final_rows are the
    last-step vectors.
    """
    rng = np.random.default_rng(seed)
    samples = []
    final_rows = []
    for i in range(n):
        label = 1 if i % 2 == 0 else 0
        final = rng.normal()
        gaps = np.abs(rng.normal(size=T - 1)) + 0.1
        path = [final]
        for gap in gaps:
            path.append(path[-1] - gap if label else path[-1] + gap)
        trend = np.array(path[::-1])  # ascending toward the final value
        rows = np.column_stack([trend, rng.normal(size=(T, n_noise))])
        samples.append((rows, label))
        final_rows.append(rows[-1])
    return samples, np.asarray(final_rows)


def standin_sized_report() -> dict:
    """A report shaped like ``run_experiment``'s on the nine stand-in
    projects: per project, 500 test files and, for each of five
    techniques, one run, its mean and a mean score for every test file."""
    return sized_report([500] * 9)


def sized_report(files_per_project, runs: int = 1) -> dict:
    """A report shaped like ``run_experiment``'s: per project, as many test
    files as given and, for each of five techniques, ``runs`` runs, their
    mean and a mean score for every test file."""
    from defectseq.experiment import METRIC_KEYS

    techniques = ("rnn", "lr", "nb", "knn", "nn")
    rng = np.random.default_rng(0)
    projects = {}
    for p, n_files in enumerate(files_per_project):
        keys = [f"p{p}.pkg.C{i:04d}" for i in range(n_files)]
        test_files = {
            k: {"loc": int(loc), "bugs": int(bugs)}
            for k, loc, bugs in zip(keys, rng.integers(1, 900, n_files), rng.integers(0, 3, n_files))
        }
        techniques_out = {}
        for t in techniques:
            runs_out = [
                {m: float(v) for m, v in zip(METRIC_KEYS, rng.uniform(size=len(METRIC_KEYS)))}
                for _ in range(runs)
            ]
            techniques_out[t] = {
                "runs": runs_out,
                "mean": {m: float(np.mean([r[m] for r in runs_out])) for m in METRIC_KEYS},
                "scores_mean": dict(zip(keys, rng.uniform(size=n_files).tolist())),
            }
        projects[f"p{p}"] = {
            "train_version": "1.0",
            "test_version": "1.1",
            "train": {"files": n_files, "developing_pct": 50.0, "avg_length": 2.5},
            "test": {"files": n_files, "developing_pct": 50.0, "avg_length": 2.5, "defective": 100},
            "test_files": test_files,
            "techniques": techniques_out,
            "zero_loc_files_adjusted": 0,
        }
    return {
        "config": {"repeats": runs, "seed": 0, "baselines": list(techniques[1:]), "projects": []},
        "projects": projects,
        "errors": {},
        "aggregates": {"projects_evaluated": sorted(projects)},
    }
