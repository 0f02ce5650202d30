#!/usr/bin/env python3
"""Walk through file lifecycles and sequence extraction on a tiny project.

Seven files drift in and out of five releases: one lives through all of
them, three are newer arrivals, three disappear before the anchor release.
The anchor is version v4; everything present there yields one training
sample whose sequence covers its trailing run of consecutive releases.
"""

import numpy as np

from defectseq.dataset import ProjectHistory, VersionSnapshot
from defectseq.history import developing_fraction, extract_hvsm_set, lifecycle_counts

SCHEMA = ("loc", "complexity")

PRESENCE = {
    "core/Engine.java": ("v1", "v2", "v3", "v4", "v5"),
    "core/Parser.java": ("v2", "v3", "v4"),
    "util/Cache.java": ("v3", "v4"),
    "util/Pool.java": ("v4",),
    "legacy/Old.java": ("v1", "v2", "v3"),
    "legacy/Tmp.java": ("v1", "v2"),
    "legacy/Once.java": ("v1",),
}

BUGS_AT_V4 = {"core/Engine.java": 2, "core/Parser.java": 0, "util/Cache.java": 1, "util/Pool.java": 0}


def build_history() -> ProjectHistory:
    rng = np.random.default_rng(7)
    versions = []
    for vid in ("v1", "v2", "v3", "v4", "v5"):
        # one row per file present in this release: its metrics, bugs and LOC
        keys = tuple(key for key, present in PRESENCE.items() if vid in present)
        loc = rng.integers(50, 500, size=len(keys))
        complexity = np.round(rng.uniform(1, 30, size=len(keys)), 1)
        bugs = [BUGS_AT_V4.get(key, 0) if vid == "v4" else 0 for key in keys]
        versions.append(
            VersionSnapshot(
                version_id=vid,
                schema=SCHEMA,
                keys=keys,
                values=np.column_stack([loc, complexity]).astype(float),
                bugs=np.array(bugs, dtype=np.int64),
                loc=loc.astype(np.int64),
            )
        )
    return ProjectHistory(name="demo", versions=tuple(versions))


def main() -> None:
    history = build_history()
    anchor = "v4"
    s = extract_hvsm_set(history, anchor, window=4)
    lengths = {item.key: item.length for item in s.items}

    print(f"=== lifecycle states at {anchor} ===")
    # a file in the anchor's set is developing if its sequence reaches back
    # to an earlier release, newborn if not; every file here was seen by
    # v4, so one missing from the set is dead
    for key in PRESENCE:
        T = lengths.get(key)
        state = "dead" if T is None else "developing" if T > 1 else "newborn"
        print(f"  {key:22s} {state}")
    print("  counts:", lifecycle_counts(history, anchor))
    print(f"  developing share: {developing_fraction(history, anchor):.1%}")

    v4 = history.snapshot(anchor)
    n_files, n_metrics = v4.values.shape
    print(f"\n=== version {anchor} as arrays: {n_files} files x {n_metrics} metrics ===")
    for key, row in v4.files.items():
        values = v4.values[row].tolist()
        print(f"  row {row}: {key:22s} values={values}  bugs={v4.bugs[row]}  loc={v4.loc[row]}")

    print(f"\n=== sequences extracted at {anchor} (window 4) ===")
    for item in s.items:
        print(
            f"  {item.key:22s} T={item.length}  versions={'-'.join(item.version_ids)}  "
            f"label={item.label}"
        )
    # the values live once, in one (T, files, metrics) stack per length
    for idx, X in s.by_length:
        print(f"  stack {X.shape}: {', '.join(s.keys[i] for i in idx)}")


if __name__ == "__main__":
    main()
