"""No module under src/ calls ``argmax``: every label decision goes through
``volume.class_argmax``, which computes the lowest class at the per-voxel max
class-major, without an argmax call.  Nor does any call ``np.median`` or
``np.partition``: the encoder reads min, max and median off one in-place sort
of each blocked patch, and a partition per statistic would be a second pass.
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


def numpy_selection_calls(source: str) -> list[int]:
    """Line numbers of ``np.median``/``np.partition`` calls (``numpy.`` too).

    Only numpy-qualified calls count: ``str.partition`` is a different method.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if (
                node.func.attr in ("median", "partition")
                and isinstance(owner, ast.Name)
                and owner.id in ("np", "numpy")
            ):
                lines.append(node.lineno)
    return sorted(lines)


def test_scanner_flags_numpy_median_and_partition_only():
    source = (
        "import numpy as np\nimport numpy\n"
        "a = np.median(x, axis=-1)\nb = numpy.partition(x, 3)\n"
        "c = 'round_1'.partition('_')\nd = statistics.median(v)\ne = x.sort(axis=-1)\n"
    )
    assert numpy_selection_calls(source) == [3, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_numpy_median_or_partition_under_src(path):
    assert numpy_selection_calls(path.read_text()) == []
