"""Import and loader rules checked on the syntax tree of the sources.

Every name a module under src/ or tests/ imports is used in it.
``__init__.py`` files are exempt: their imports are the package's re-exports.
A name listed in a module's ``__all__`` counts as used.

Under src/, no function body imports a module of the package, so the module
graph has no cycle hidden behind a deferred import; every ``load_array``
call outside ``volume.py`` names the array kind the file must hold; and no
string literal outside ``pipeline.py`` names a file of the run directory's
layout, which ``pipeline`` alone knows.
"""
from __future__ import annotations

import ast
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


LAYOUT_FILES = ("config.json", "state.json", "report.json")


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
    )
    assert layout_names(source) == [1, 2, 5]


def test_only_pipeline_names_run_directory_files():
    found = {
        str(p.relative_to(ROOT)): layout_names(p.read_text())
        for p in SOURCES
        if p.name != "pipeline.py"
    }
    assert {path: lines for path, lines in found.items() if lines} == {}
