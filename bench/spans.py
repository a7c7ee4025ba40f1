"""Spans around the library's public functions, recorded from outside the library.

A :class:`Tracer` replaces each public function of the traced ``protoloop``
modules with a timing wrapper, in its own module and in every other
``protoloop`` module that imported it by name, and restores the originals on
exit.  No library code changes.  Spans are kept in memory as
``[name, parent, start, end, size]`` records; ``size`` is a per-function work
measure (grid cells, matrix bytes, voxels, file bytes) taken from the call.

A function that is renamed or removed is simply not wrapped, so the metrics
derived from it read 0 instead of failing.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import threading
import time
from collections import defaultdict

# The package's modules, one layer each.  ``phantom`` is set-up and ``cli``
# is not driven by the benchmark.
LAYERS = (
    "encoder",
    "prototype",
    "specialist",
    "uncertainty",
    "refine",
    "metrics",
    "volume",
    "pipeline",
)

# Spans the untraced runs still need: round boundaries and encoder calls.
MARKS = frozenset({"pipeline.run_round0", "pipeline.run_round", "encoder.extract_feature_grid"})


def _grid_cells(args, kwargs, result):
    return math.prod(result.data.shape[1:])


def _matrix_bytes(args, kwargs, result):
    n, f = result.shape
    return n * f * 8


def _inferred_voxels(args, kwargs, result):
    return result[0].data.size


def _file_bytes(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return os.path.getsize(path)


SIZES = {
    "encoder.extract_feature_grid": _grid_cells,
    "specialist.build_feature_matrix": _matrix_bytes,
    "specialist.infer": _inferred_voxels,
    "volume.save_array": _file_bytes,
}


def _public_functions(layer: str):
    try:
        mod = importlib.import_module(f"protoloop.{layer}")
    except ImportError:
        return
    for name in getattr(mod, "__all__", ()):
        fn = getattr(mod, name, None)
        if inspect.isfunction(fn):
            yield f"{layer}.{name}", fn


class Tracer:
    """Context manager that records one span per call of a wrapped function."""

    def __init__(self, only: frozenset[str] | None = None):
        self.only = only
        self.spans: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        local = self._local
        size_of = SIZES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, stack[-1] if stack else -1, clock(), 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if size_of is not None:
                span[4] = size_of(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            for name, fn in _public_functions(layer):
                if (self.only is None or name in self.only) and fn not in wrappers:
                    wrappers[fn] = self._wrap(name, fn)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "protoloop" or modname.startswith("protoloop.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# derived metrics

def _nearest_rank(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def round_ends(spans: list[list]) -> list[float]:
    """End time of round 0, then of each later round, in order."""
    return [s[3] for s in spans if s[0] in ("pipeline.run_round0", "pipeline.run_round")]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer times, counts and rates of one pipeline run."""
    by_name: dict[str, list[int]] = defaultdict(list)
    children: dict[int, list[int]] = defaultdict(list)
    for i, (name, parent, *_rest) in enumerate(spans):
        by_name[name].append(i)
        children[parent].append(i)

    def dur(i: int) -> float:
        return spans[i][3] - spans[i][2]

    def busy(name: str) -> float:
        return sum(dur(i) for i in by_name[name])

    def calls(name: str) -> int:
        return len(by_name[name])

    def size(name: str) -> int:
        return sum(spans[i][4] for i in by_name[name])

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    round0_end = min((spans[i][3] for i in by_name["pipeline.run_round0"]), default=math.inf)

    # one step = from one loss_and_grad entry to the next, the last one
    # ending when its train_round returns
    steps_ms = []
    for t in by_name["specialist.train_round"]:
        starts = sorted(spans[i][2] for i in children[t] if spans[i][0] == "specialist.loss_and_grad")
        bounds = starts + [spans[t][3]]
        steps_ms += [1e3 * (b - a) for a, b in zip(bounds, bounds[1:])]
    steps_ms.sort()

    round_self = sum(
        dur(r) - sum(dur(c) for c in children[r]) for r in by_name["pipeline.run_round"]
    )
    extract_s = busy("encoder.extract_feature_grid")
    infer_s = busy("specialist.infer")
    train_s = busy("specialist.train_round")
    loss_grad_s = busy("specialist.loss_and_grad")
    return {
        "encoder.extract_s": extract_s,
        "encoder.extract_calls": calls("encoder.extract_feature_grid"),
        "encoder.cells_per_s": rate(size("encoder.extract_feature_grid"), extract_s),
        "encoder.calls_after_round0": sum(
            1 for i in by_name["encoder.extract_feature_grid"] if spans[i][2] > round0_end
        ),
        "prototype.propagate_s": busy("prototype.compute_prototypes")
        + busy("prototype.initial_pseudo_label"),
        "specialist.feature_build_calls": calls("specialist.build_feature_matrix"),
        "specialist.feature_build_s": busy("specialist.build_feature_matrix"),
        "specialist.feature_bytes": size("specialist.build_feature_matrix"),
        "specialist.infer_s": infer_s,
        "specialist.infer_mvox_per_s": rate(size("specialist.infer") / 1e6, infer_s),
        "uncertainty.entropy_s": busy("uncertainty.sample_uncertainty"),
        "uncertainty.partition_s": busy("uncertainty.partition_by_quantile"),
        "specialist.train_s": train_s,
        "specialist.steps": calls("specialist.loss_and_grad"),
        "specialist.loss_grad_s": loss_grad_s,
        "specialist.step_overhead_s": train_s - loss_grad_s if train_s else 0.0,
        "specialist.step_ms_p50": _nearest_rank(steps_ms, 0.50),
        "specialist.step_ms_p99": _nearest_rank(steps_ms, 0.99),
        "refine.refine_s": busy("refine.refine_all"),
        "refine.queries": calls("refine.refine_pseudo_label"),
        "refine.vote_s": busy("refine.refine_pseudo_label"),
        "volume.load_calls": calls("volume.load_array"),
        "volume.load_s": busy("volume.load_array"),
        "volume.save_calls": calls("volume.save_array"),
        "volume.save_s": busy("volume.save_array"),
        "volume.bytes_written": size("volume.save_array"),
        "pipeline.context_calls": calls("pipeline.build_context"),
        "pipeline.context_s": busy("pipeline.build_context"),
        "pipeline.round_self_s": round_self,
        "metrics.quality_s": busy("metrics.pseudo_label_quality"),
    }
