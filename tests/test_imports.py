"""Import and loader rules checked on the syntax tree of the sources.

Every name a module under src/ or tests/ imports is used in it.
``__init__.py`` files are exempt: their imports are the package's re-exports.
A name listed in a module's ``__all__`` counts as used.
Every name in the ``__all__`` of a module under src/ is an attribute of
the imported module.

Under src/, no function body imports a module of the package, so the module
graph has no cycle hidden behind a deferred import; every ``load_array``
call outside ``volume.py`` names the array kind the file must hold; and no
string literal outside ``pipeline.py`` names a file of the run directory's
layout, which ``pipeline`` alone knows.

Every function name ``bench/spans.py`` derives a metric from is a function in
its module's ``__all__``, but for a listed few whose functions are gone.
Under src/, only ``pipeline.entry_grid`` makes a feature grid or reads a
persisted one; ``encoder.ingest_external_features``, which it calls, reads
the entry's own file.  In ``pipeline``, only ``_entry_label`` calls
``_load_label``, and a label file is loaded only there and in
``load_round_state``.

A fresh interpreter that imports the package and runs a pipeline loads no
scipy module; only a surface distance loads ``scipy.spatial``.
"""
from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py") if p.name != "__init__.py"
)
SOURCES = sorted((ROOT / "src").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read, with their line numbers."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_scanner_flags_only_unused_names():
    source = (
        "import os\nimport os.path as osp\nfrom json import dumps, loads\n"
        "from x import y as z\n__all__ = ['loads']\nprint(dumps, os.sep)\n"
    )
    assert unused_imports(source) == ["osp (line 2)", "z (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _module_name(path: Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_export_resolves(path):
    # bench/spans.py wraps the functions it finds through ``__all__`` and skips
    # a name that does not resolve, so a stale entry would drop a span silently
    module = importlib.import_module(_module_name(path))
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


def deferred_imports(source: str) -> list[int]:
    """Lines of imports of the package (relative or ``protoloop``) inside a function body."""
    lines = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if not node.level else ["protoloop"]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[0] == "protoloop" for name in names):
                lines.add(node.lineno)
    return sorted(lines)


def kindless_loads(source: str) -> list[int]:
    """Lines of ``load_array`` calls that pass no array kind."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "load_array"
        and len(node.args) + len(node.keywords) < 2
    ]


def test_guards_flag_only_what_they_name():
    source = (
        "from . import a\nimport json\ndef f(p):\n    from . import b\n"
        "    import protoloop.c\n    from protoloop.d import e\n    import numpy\n"
        "    load_array(p)\n    volume.load_array(p)\n"
        "    load_array(p, LabelVolume)\n    load_array(p, kind=FeatureGrid)\n"
    )
    assert deferred_imports(source) == [4, 5, 6]
    assert kindless_loads(source) == [8, 9]


def test_no_function_body_imports_the_package():
    found = {str(p.relative_to(ROOT)): deferred_imports(p.read_text()) for p in SOURCES}
    assert {path: lines for path, lines in found.items() if lines} == {}


def test_every_load_outside_volume_names_a_kind():
    found = {
        str(p.relative_to(ROOT)): kindless_loads(p.read_text())
        for p in SOURCES
        if p.name != "volume.py"
    }
    assert {path: lines for path, lines in found.items() if lines} == {}


LAYOUT_FILES = ("config.json", "state.json", "report.json", "train_log.jsonl", "params.vxar")


def layout_names(source: str) -> list[int]:
    """Lines of string literals, f-string parts included, that name a run-directory file."""
    return sorted({
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and any(name in node.value for name in LAYOUT_FILES)
    })


def test_layout_guard_flags_only_run_directory_files():
    source = (
        'a = "config.json"\nb = f"{d}/state.json"\nc = "report.csv"\n'
        'd = "manifest.json"\ne = run / "report.json"\nf = "state"\n'
        'g = tmp / "train_log.jsonl"\nh = "params.vxar"\ni = "params"\n'
    )
    assert layout_names(source) == [1, 2, 5, 7, 8]


def test_only_pipeline_names_run_directory_files():
    found = {
        str(p.relative_to(ROOT)): layout_names(p.read_text())
        for p in SOURCES
        if p.name != "pipeline.py"
    }
    assert {path: lines for path, lines in found.items() if lines} == {}


def traced_names(source: str) -> set[str]:
    """The ``layer.function`` names ``bench/spans.py`` derives metrics from: the
    arguments of ``busy``, ``calls`` and ``size``, the keys of ``SIZES`` and the
    members of ``MARKS``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("busy", "calls", "size"):
            names.update(a.value for a in node.args if isinstance(a, ast.Constant))
        elif isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("SIZES", "MARKS"):
            value = node.value if isinstance(node.value, ast.Dict) else node.value.args[0]
            names.update(k.value for k in (value.keys if isinstance(value, ast.Dict) else value.elts))
    return names


def test_traced_names_finds_each_source():
    source = (
        'MARKS = frozenset({"a.m"})\nSIZES = {"b.s": f}\nOTHER = {"x.y": g}\n'
        'def m():\n    return busy("c.b") + calls("d.c") + size("e.s") + rate(1, "z.z")\n'
    )
    assert traced_names(source) == {"a.m", "b.s", "c.b", "d.c", "e.s"}


# names the benchmark still reads whose functions are gone; their metrics read 0
DEAD_TRACED = {"specialist.build_feature_matrix", "uncertainty.sample_uncertainty"}


def test_every_traced_name_is_a_public_function():
    # the tracer wraps only functions in a module's ``__all__`` and skips any
    # other name silently, so a metric derived from it would read 0
    names = traced_names((ROOT / "bench" / "spans.py").read_text())
    assert DEAD_TRACED <= names

    def public_function(name: str) -> bool:
        layer, fn = name.split(".")
        module = importlib.import_module(f"protoloop.{layer}")
        return fn in getattr(module, "__all__", ()) and inspect.isfunction(getattr(module, fn, None))

    assert {name for name in names if not public_function(name)} == DEAD_TRACED


GRID_MAKERS = ("extract_feature_grid", "ingest_external_features")


def call_sites(source: str, module: str) -> set[tuple[str, str]]:
    """``(callee, caller)`` for each call of a named function made in ``module``:
    a ``load_array`` call with a kind is named with it, as ``load_array(FeatureGrid)``,
    and the caller is the dotted name of the innermost function around the
    call, or ``module``."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                kinds = child.args[1:2] + [k.value for k in child.keywords if k.arg == "kind"]
                if name == "load_array" and kinds and getattr(kinds[0], "id", None):
                    name = f"load_array({kinds[0].id})"
                if name is not None:
                    found.add((name, where))
            visit(child, where)

    visit(ast.parse(source), module)
    return found


def grid_calls(source: str, module: str) -> set[tuple[str, str]]:
    """The ``call_sites`` of a ``GRID_MAKERS`` function, and of ``load_array`` with
    the kind ``FeatureGrid``, in ``module``."""
    grid_callees = {*GRID_MAKERS, "load_array(FeatureGrid)"}
    return {(callee, caller) for callee, caller in call_sites(source, module) if callee in grid_callees}


def test_grid_calls_finds_each_caller():
    source = (
        "def f(v):\n    return encoder_mod.extract_feature_grid(v)\n"
        "def g(p):\n    def h():\n        ingest_external_features(p)\n"
        "    load_array(p, FeatureGrid)\n    load_array(p, LabelVolume)\n"
        "def k(p):\n    return load_array(p, kind=FeatureGrid), extract(p)\n"
        "x = extract_feature_grid(1)\n"
    )
    assert grid_calls(source, "m") == {
        ("extract_feature_grid", "m.f"),
        ("ingest_external_features", "m.g.h"),
        ("load_array(FeatureGrid)", "m.g"),
        ("load_array(FeatureGrid)", "m.k"),
        ("extract_feature_grid", "m"),
    }


def test_only_entry_grid_makes_or_reads_a_grid():
    # after round 0 a missing grid is refused by entry_grid; a second path to
    # the encoder or to a grid file could make it again, or skip that check
    found = set().union(*(grid_calls(p.read_text(), p.stem) for p in SOURCES))
    assert found == {
        ("extract_feature_grid", "pipeline.entry_grid"),
        ("ingest_external_features", "pipeline.entry_grid"),
        ("load_array(FeatureGrid)", "pipeline.entry_grid"),
        ("load_array(FeatureGrid)", "encoder.ingest_external_features"),
    }


def test_only_entry_label_reads_a_label_of_a_manifest_volume():
    # the template's label, each truth label and the model's labels refine
    # re-votes are checked against their volume's header by _entry_label; a
    # second reader could skip that check. A round reload reads the labels
    # the pipeline itself wrote, one file per volume id.
    found = call_sites((ROOT / "src" / "protoloop" / "pipeline.py").read_text(), "pipeline")
    assert {site for site in found if site[0] in ("_load_label", "load_array(LabelVolume)")} == {
        ("_load_label", "pipeline._entry_label"),
        ("load_array(LabelVolume)", "pipeline._load_label"),
        ("load_array(LabelVolume)", "pipeline.load_round_state"),
    }


SCIPY_PROBE = """
import json, sys
from pathlib import Path

import protoloop
import protoloop.cli
from protoloop import EncoderParams, PhantomSpec, PipelineConfig, Shape3, TrainConfig
from protoloop import evaluate_pair, generate, run_pipeline
from protoloop.phantom import ClassShape

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out = Path(sys.argv[1])
spec = PhantomSpec(5, Shape3(16, 16, 16), 2, (ClassShape(radii=(4.5, 4.5, 4.5)),), seed=5)
_, truth = generate(spec, out / "data")
state = run_pipeline(PipelineConfig(
    out / "data" / "manifest.json", out / "run", rounds=1,
    encoder=EncoderParams(patch_size=4), train=TrainConfig(iterations=20, batch_voxels=64),
    knn=2, q_unc=0.5,
))
after_run = scipy_modules()
vol_id, label = sorted(state.labels.items())[0]
evaluate_pair(label, truth[vol_id])
print(json.dumps({"after_run": after_run, "after_eval": scipy_modules()}))
"""


def test_runs_load_scipy_only_for_surface_distances(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded["after_run"] == []
    assert "scipy.spatial" in loaded["after_eval"]
