"""No module under src/ calls ``argmax``: every label decision goes through
``volume.class_argmax``, which computes the lowest class at the per-voxel max
class-major, without an argmax call.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py"))


def argmax_calls(source: str) -> list[int]:
    """Line numbers of calls to a function or method named ``argmax``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "argmax":
                lines.append(node.lineno)
    return sorted(lines)


def test_scanner_flags_every_argmax_call():
    source = (
        "import numpy as np\nfrom numpy import argmax\n"
        "a = np.argmax(x, axis=0)\nb = x.argmax(0)\nc = argmax(x)\n"
        "d = np.argmin(x)  # argmax in a comment\ne = 'argmax'\n"
    )
    assert argmax_calls(source) == [3, 4, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_argmax_under_src(path):
    assert argmax_calls(path.read_text()) == []
