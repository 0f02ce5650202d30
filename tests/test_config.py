"""The manifest reader: every known manifest loads, and every malformed
one stops ``load_config`` (and ``defectseq run``) with one line that
starts with the key path of what is wrong."""

import contextlib
import importlib.util
import io
import math
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from defectseq import baselines as bl
from defectseq.cli import main
from defectseq.experiment import (
    ConfigError,
    ExperimentConfig,
    ProjectSpec,
    VersionEntry,
    load_config,
)
from defectseq.rnn import Hyperparams

ROOT = Path(__file__).resolve().parent.parent


def load_module(path: Path, name: str):
    """Import a script outside the package, read-only."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_yaml(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# every manifest the project ships or generates loads
# ---------------------------------------------------------------------------

class TestKnownManifests:
    def test_promise_config(self):
        cfg = load_config(ROOT / "configs" / "promise.yaml")
        assert [p.name for p in cfg.projects] == [
            "ant", "camel", "jedit", "log4j", "lucene", "poi", "velocity", "xalan", "xerces"
        ]
        assert (cfg.repeats, cfg.window, cfg.output_dir) == (10, None, "out/promise")

    def test_readme_configuration_block(self, tmp_path):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration", 1)[1]
        block = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
        cfg = load_config(write_yaml(tmp_path, block))
        assert cfg.projects[0].train_version == "1.6"
        assert cfg.hyperparams_for("nn").eta == 0.05

    def test_demo_config(self, tmp_path):
        demo = load_module(ROOT / "demos" / "05_full_experiment.py", "demo_05")
        cfg = load_config(write_yaml(tmp_path, demo.config_text(["r1", "r2", "r3", "r4"])))
        assert (cfg.projects[0].train_version, cfg.projects[0].test_version) == ("r3", "r4")

    @pytest.mark.parametrize("workload", ["standin-paper", "wide-eval", "long-history"])
    def test_benchmark_manifest(self, tmp_path, workload):
        workloads = load_module(ROOT / "perfbench" / "workloads.py", "perfbench_workloads")
        path = workloads.generate(workload, tmp_path, seed=0)
        manifest = yaml.safe_load(path.read_text(encoding="utf-8"))
        cfg = load_config(path)
        assert len(cfg.projects) == len(manifest["projects"])
        assert cfg.repeats == manifest["repeats"]
        assert cfg.metric_set == manifest["metrics"]


# ---------------------------------------------------------------------------
# duplicates are refused by the config itself
# ---------------------------------------------------------------------------

class TestDuplicatesUpFront:
    def spec(self, name):
        versions = (VersionEntry("a", "a.csv"), VersionEntry("b", "b.csv"))
        return ProjectSpec(name=name, versions=versions)

    def test_project_named_twice(self):
        with pytest.raises(ConfigError, match=r"^projects: 'p' is listed twice$"):
            ExperimentConfig(projects=(self.spec("p"), self.spec("q"), self.spec("p")))

    def test_baseline_listed_twice(self):
        with pytest.raises(ConfigError, match=r"^baselines: 'nb' is listed twice$"):
            ExperimentConfig(projects=(self.spec("p"),), baseline_kinds=("nb", "lr", "nb"))

    @pytest.mark.parametrize("ids", [("1", "1", "2"), ("1", "2", "1")])
    def test_version_listed_twice(self, tmp_path, ids):
        versions = ", ".join(f"{{id: '{v}', metrics: {v}.csv}}" for v in ids)
        project = f"projects:\n  - {{name: p, versions: [{versions}]}}\n"
        path = write_yaml(tmp_path, f"output: {tmp_path / 'out'}\n{project}")
        run_fails_with(path, "projects[0]: project 'p': version '1' is listed twice")
        assert not (tmp_path / "out").exists()

    def test_distinct_names_pass(self):
        cfg = ExperimentConfig(projects=(self.spec("p"), self.spec("q")), baseline_kinds=("nb",))
        assert [p.train_version for p in cfg.projects] == ["a", "a"]


class TestKeyWrittenTwice:
    """A key written twice in one mapping is refused, naming the second
    occurrence; ``yaml.safe_load`` would keep the last value."""

    MANIFEST = """seed: 1
projects:
  - name: p
    versions:
      - id: a
        metrics: a.csv
      - id: b
        metrics: b.csv
hyperparams:
  iterations: 10
"""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (("seed: 1\n", "seed: 1\nseed: 7\n"), "line 2, column 1: duplicate key 'seed'"),
            (
                ("  iterations: 10\n", "  iterations: 10\n  iterations: 3\n"),
                "line 11, column 3: duplicate key 'iterations'",
            ),
            (
                ("metrics: b.csv\n", "metrics: b.csv\n        id: c\n"),
                "line 9, column 9: duplicate key 'id'",
            ),
        ],
        ids=["top-level", "hyperparams", "version-entry"],
    )
    def test_refused(self, tmp_path, edit, message):
        path = write_yaml(tmp_path, self.MANIFEST.replace(*edit))
        with pytest.raises(ConfigError, match=f"^invalid YAML at {re.escape(message)}$"):
            load_config(path)

    def test_json_manifest_refused_alike(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"seed": 1, "seed": 7, "projects": []}', encoding="utf-8")
        message = "invalid YAML at line 1, column 13: duplicate key 'seed'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)

    def test_merged_key_may_be_overridden(self, tmp_path):
        text = self.MANIFEST.replace("hyperparams:\n", "hyperparams: &shared\n  eta: 0.5\n")
        text += "technique_hyperparams:\n  nn:\n    <<: *shared\n    iterations: 3\n"
        cfg = load_config(write_yaml(tmp_path, text))
        assert (cfg.hyperparams.iterations, cfg.hyperparams.eta) == (10, 0.5)
        nn = cfg.hyperparams_for("nn")
        assert (nn.iterations, nn.eta) == (3, 0.5)


# ---------------------------------------------------------------------------
# fuzzed front door: one key of a valid config set to any YAML kind
# ---------------------------------------------------------------------------

# The manifest as README documents it: key -> (field, kind).  A kind ending
# in "?" reads null as the field's default; "block" is a mapping and
# "blocks" a list of mappings, whose contents are fuzzed on their own.
TOP = {
    "projects": ("projects", "blocks"),
    "hyperparams": ("hyperparams", "block"),
    "technique_hyperparams": ("technique_hyperparams", "block"),
    "repeats": ("repeats", "int"),
    "seed": ("seed", "int"),
    "len": ("window", "int?"),
    "metrics": ("metric_set", "str"),
    "code_metrics": ("code_metrics", "strs"),
    "baselines": ("baseline_kinds", "strs"),
    "knn_k": ("knn_k", "int"),
    "sk_pool_runs": ("sk_pool_runs", "bool"),
    "output": ("output_dir", "str"),
}
PROJECT = {
    "name": ("name", "str"),
    "versions": ("versions", "blocks"),
    "train_version": ("train_version", "str?"),
    "test_version": ("test_version", "str?"),
}
VERSION = {"id": ("version_id", "str"), "metrics": ("metrics_path", "path"),
           "process": ("process_path", "path?")}
HYPERPARAMS = {
    "hidden_size": "int", "eta": "float", "lam": "float", "iterations": "int",
    "init_scale": "float", "halving_limit": "int",
}
# what an empty block reads as
EMPTY = {"hyperparams": Hyperparams(), "technique_hyperparams": {}, "projects": ()}


class Refused(Exception):
    """The value is not of the key's kind."""


def read_as(kind: str, value, base: Path):
    """The value the reader must produce for ``value`` of ``kind``, or
    ``Refused``; ``None`` stands for the field's default."""
    if value is None and kind.endswith("?"):
        return None
    kind = kind.rstrip("?")
    if kind in ("block", "blocks"):
        if kind == "block" and value in (None, {}) or kind == "blocks" and value == []:
            return value
        raise Refused
    if kind == "bool" or isinstance(value, bool):
        if kind == "bool" and isinstance(value, bool):
            return value
        raise Refused
    if kind in ("str", "path"):
        if not isinstance(value, str):
            raise Refused
        return value if kind == "str" else str(base / value)
    if kind == "strs":
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise Refused
        return tuple(value)
    if not isinstance(value, (int, float, str)):
        raise Refused
    try:
        number = float(value) if kind == "float" or isinstance(value, float) else int(value)
    except ValueError:
        raise Refused from None
    if not math.isfinite(number) or kind == "int" and number != int(number):
        raise Refused
    return number if kind == "float" else int(number)


FUZZ_VALUES = st.one_of(
    st.integers(-3, 40),
    st.floats(-5, 5, allow_nan=False).filter(lambda x: not x.is_integer()),
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, None]),
    st.sampled_from(["3", "2.0", "0.5", "1e1", " 7 ", "nan", "inf", "", "code", "lr", "u2"]),
    st.text("abz019.-", max_size=5),
    st.lists(st.one_of(st.integers(0, 3), st.sampled_from(["lr", "nb", "x"])), max_size=2),
    st.dictionaries(st.sampled_from(["x_a", "x_b"]), st.integers(0, 3), max_size=2),
)


@st.composite
def valid_configs(draw):
    """A config that loads, as a plain YAML-ready dict."""
    raw: dict = {"projects": []}
    for i in range(draw(st.integers(1, 2))):
        ids = [f"v{j}" for j in range(draw(st.integers(2, 4)))]
        versions = [{"id": vid, "metrics": f"p{i}-{vid}.csv"} for vid in ids]
        if draw(st.booleans()):
            versions[-1]["process"] = f"p{i}-{ids[-1]}.changes.csv"
        project = {"name": f"p{i}", "versions": versions}
        if draw(st.booleans()):
            project.update(train_version=ids[0], test_version=ids[-1])
        raw["projects"].append(project)
    optional = {
        "repeats": st.integers(1, 12),
        "seed": st.integers(0, 99),
        "len": st.one_of(st.none(), st.integers(1, 6)),
        "metrics": st.sampled_from(["code", "code+process"]),
        "code_metrics": st.lists(
            st.sampled_from(["loc", "wmc", "cbo"]), unique=True, min_size=1, max_size=3
        ),
        "baselines": st.lists(st.sampled_from(bl.BASELINE_KINDS), unique=True),
        "knn_k": st.integers(1, 9),
        "sk_pool_runs": st.booleans(),
        "output": st.sampled_from(["out", "runs/a"]),
    }
    for key in draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
        raw[key] = draw(optional[key])
    hp_values = {"int": st.integers(1, 50), "float": st.floats(0, 1)}
    hyperparams = {
        key: draw(hp_values[kind]) for key, kind in HYPERPARAMS.items() if draw(st.booleans())
    }
    if hyperparams:
        raw["hyperparams"] = hyperparams
    if draw(st.booleans()):
        raw["technique_hyperparams"] = {draw(st.sampled_from(["rnn", "nn"])): {"eta": 0.05}}
    return raw


def sites(raw: dict):
    """Every key of ``raw`` as (container, key, kind, key path, getter,
    prefixes a refusal may start with)."""
    for key, (name, kind) in TOP.items():
        if key in raw:
            yield raw, key, kind, key, lambda c, n=name: getattr(c, n), (key,)
    for key in raw.get("hyperparams", {}):
        yield (raw["hyperparams"], key, HYPERPARAMS[key], f"hyperparams.{key}",
               lambda c, k=key: getattr(c.hyperparams, k), (f"hyperparams.{key}", "hyperparams:"))
    for t, block in raw.get("technique_hyperparams", {}).items():
        where = f"technique_hyperparams.{t}"
        yield (raw["technique_hyperparams"], t, "block", where,
               lambda c, t=t: c.technique_hyperparams[t], (where,))
        for key in block:
            yield (block, key, HYPERPARAMS[key], f"{where}.{key}",
                   lambda c, t=t, k=key: c.technique_hyperparams[t][k],
                   (f"{where}.{key}", f"{where}:"))
    for i, project in enumerate(raw["projects"]):
        named = (f"projects[{i}]", "projects:")
        for key, (name, kind) in PROJECT.items():
            if key in project:
                yield (project, key, kind, f"projects[{i}].{key}",
                       lambda c, i=i, n=name: getattr(c.projects[i], n), named)
        for j, version in enumerate(project["versions"]):
            for key, (name, kind) in VERSION.items():
                if key in version:
                    yield (version, key, kind, f"projects[{i}].versions[{j}].{key}",
                           lambda c, i=i, j=j, n=name: getattr(c.projects[i].versions[j], n),
                           named)


def unknown_key_sites(raw: dict):
    """Every block of ``raw`` as (block, prefix of the refusal)."""
    yield raw, "unknown key"
    if "hyperparams" in raw:
        yield raw["hyperparams"], "hyperparams: unknown hyperparameter"
    for t, block in raw.get("technique_hyperparams", {}).items():
        yield block, f"technique_hyperparams.{t}: unknown hyperparameter"
    for i, project in enumerate(raw["projects"]):
        yield project, f"projects[{i}]: unknown key"
        for j, version in enumerate(project["versions"]):
            yield version, f"projects[{i}].versions[{j}]: unknown key"


def run_fails_with(path: Path, message: str) -> None:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(path)]) == 1
    assert err.getvalue() == f"error: {message}\n"


FUZZ_EXAMPLES = 150
KIND_REFUSAL = (
    " must be (an integer|a finite number|true or false|a string|a path|a list|a mapping)"
)


@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(data=st.data())
def test_fuzzed_front_door(tmp_path_factory, data):
    root = tmp_path_factory.getbasetemp() / "fuzz"
    root.mkdir(exist_ok=True)
    raw = data.draw(valid_configs())
    path = root / "config.yaml"
    if data.draw(st.booleans()):
        block, prefix = data.draw(st.sampled_from(list(unknown_key_sites(raw))))
        block["x_unknown"] = 1
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"{prefix} 'x_unknown'"
        run_fails_with(path, str(info.value))
        return
    container, key, kind, where, get, prefixes = data.draw(st.sampled_from(list(sites(raw))))
    container[key] = value = data.draw(FUZZ_VALUES)
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    try:
        expected = read_as(kind, value, root)
    except Refused:
        expected = Refused
    try:
        cfg = load_config(path)
    except ConfigError as exc:
        message = str(exc)
        assert "\n" not in message
        assert message.startswith(prefixes), (where, value, message)
        if expected is not Refused:  # a range or consistency check, not the kind
            assert not re.match(re.escape(where) + KIND_REFUSAL, message), (where, value, message)
        run_fails_with(path, message)
        return
    assert expected is not Refused, (where, value)
    if kind in ("block", "blocks"):
        assert get(cfg) == EMPTY.get(key, {})
    elif expected is None:  # null: the field keeps its default
        assert where != "len" or cfg.window is None
    else:
        assert get(cfg) == expected and type(get(cfg)) is type(expected), (where, value)
