#!/usr/bin/env python3
"""protoloop benchmark: whole pipeline runs on frozen phantom fixtures.

    python3 bench/run_bench.py --workload desk --seed 2024 --seconds 25 --trace 0

Run from the repository root; the library is imported from ``src/``.  One
invocation generates the workload's fixture from ``--seed`` (several times,
to time set-up), then runs the whole pipeline again and again, in this one
process, until the next run would end after ``--seconds``.  Every run is
checked (see ``checks.py``) and a run that fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes the first
run untraced and traces the rest, wrapping every public library function
(see ``spans.py``), and reports the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Scratch files go to ``.bench_work/`` under the repository root and are removed
on exit.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_MIN_REPEATS = 5  # fixture generations per invocation, and at least
SETUP_MIN_SECONDS = 2.0  # this much generating, so the median is steady

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "round_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "round0_dice": "fraction",
    "final_dice": "fraction",
    "runs_ok": "fraction",
}


def layer_unit(name: str) -> str:
    for suffix, unit in (
        ("cells_per_s", "cells/s"),
        ("mvox_per_s", "Mvox/s"),
        ("bytes", "bytes"),
        ("bytes_written", "bytes"),
        ("_ms_p50", "ms"),
        ("_ms_p99", "ms"),
        ("_s", "s"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def _import_library() -> None:
    src = ROOT / "src"
    if not (src / "protoloop" / "__init__.py").is_file():
        sys.exit(f"error: no protoloop sources under {src}")
    sys.path.insert(0, str(src))


# ---------------------------------------------------------------------------
# environment

def _blas() -> dict:
    """The loaded OpenBLAS library and its thread count, read through ctypes."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:  # not Linux
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if getter is not None:
                    info = {"library": Path(path).name, "threads": int(getter())}
                    if config is not None:
                        config.restype = ctypes.c_char_p
                        info["config"] = config().decode()
                    return info
    return {"library": "unknown", "threads": None}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "cpu_count": os.cpu_count(),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "load_avg": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# one invocation

def set_up(workload, seed: int, work: Path):
    """Generate the fixture repeatedly, timing each; keep the first copy."""
    from protoloop import phantom

    times = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        data_dir = work / f"fixture_{len(times)}"
        t0 = time.perf_counter()
        manifest, truth = phantom.generate(workload.phantom(seed), data_dir)
        times.append(time.perf_counter() - t0)
        if len(times) > 1:
            shutil.rmtree(data_dir)
    pool = {e.vol_id: truth[e.vol_id] for e in manifest.unlabeled_entries()}
    return work / "fixture_0", pool, times


def drive(workload, config) -> None:
    """One whole pipeline run, through the library's public entry points."""
    from protoloop import pipeline

    if not workload.resume:
        pipeline.run_pipeline(config)
        return
    # the `init` + `round` path: nothing is shared between rounds but the disk
    pipeline.run_round0(config)
    for r in range(1, config.rounds + 1):
        pipeline.run_round(config, r, pipeline.load_round_state(config.out_dir, r - 1))


def run_once(workload, data_dir: Path, out_dir: Path, truth: dict, check_dice: bool, trace: bool) -> dict:
    """Run the pipeline once into ``out_dir``, time it from outside and check it."""
    import checks
    import spans

    config = workload.config(data_dir, out_dir)
    tracer = spans.Tracer(None if trace else spans.MARKS)
    gc.collect()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with tracer:
        drive(workload, config)
    cpu = time.process_time() - cpu0

    ends = spans.round_ends(tracer.spans)
    extracts = [s[2] for s in tracer.spans if s[0] == "encoder.extract_feature_grid"]
    in_round0 = sum(1 for start in extracts if start <= ends[0])
    problems, dice = checks.check_run(
        out_dir,
        config.rounds,
        truth,
        (in_round0, len(extracts) - in_round0),
        read_report=not workload.resume,
        expected_dice=workload.expected_dice if check_dice else None,
    )
    if len(ends) != config.rounds + 1:
        problems.append(f"{len(ends)} rounds ran, expected {config.rounds + 1}")
    layers = None
    if trace:
        layers = spans.layer_metrics(tracer.spans)
        layers["pipeline.round0_s"] = ends[0] - t0
    return {
        "run_s": ends[-1] - t0,
        "round0_s": ends[0] - t0,
        "round_s": [b - a for a, b in zip(ends, ends[1:])],
        "cpu_s": cpu,
        "dice": dice,
        "digests": checks.label_digests(out_dir),
        "problems": problems,
        "layers": layers,
    }


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, run until ``seconds`` have passed, and return the result object."""
    data_dir, truth, setup_times = set_up(workload, seed, work)
    runs, crashed = [], 0
    start = time.perf_counter()
    while True:
        out_dir = work / f"run_{len(runs)}"
        traced = trace and len(runs) > 0
        try:
            run = run_once(workload, data_dir, out_dir, truth, seed == workload.default_seed, traced)
        except Exception:  # a crashed run is a failed run; stop measuring
            traceback.print_exc()
            crashed = 1
            break
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if not run["digests"]:
            run["problems"].append("no label files found to compare across runs")
        elif runs and run["digests"] != runs[0]["digests"]:
            run["problems"].append("label files differ from the first run of this seed")
        for problem in run["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
        runs.append(run)
        print(
            f"run {len(runs)}{' traced' if traced else ''}: {run['run_s']:.3f} s, "
            f"rounds {' '.join(f'{x:.3f}' for x in [run['round0_s']] + run['round_s'])} s, "
            f"Dice {' -> '.join(f'{d:.4f}' for d in run['dice'])}"
        )
        elapsed = time.perf_counter() - start
        # a traced invocation needs its untraced run plus at least one traced
        if len(runs) >= 1 + trace and elapsed * (1 + 1 / len(runs)) > seconds:
            break
    if len(runs) < 1 + trace:
        raise RuntimeError("too few runs finished to report")

    attempted = len(runs) + crashed
    failed = crashed + sum(bool(r["problems"]) for r in runs)
    median = statistics.median
    if trace:
        layers = [r["layers"] for r in runs[1:]]
        metrics = {name: median(t[name] for t in layers) for name in layers[0]}
        metrics["tracing_overhead_s"] = median(r["run_s"] for r in runs[1:]) - runs[0]["run_s"]
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": median(setup_times),
            "run_s": median(r["run_s"] for r in runs),
            "round_s": median(x for r in runs for x in r["round_s"]),
            "cpu_s": median(r["cpu_s"] for r in runs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "round0_dice": runs[0]["dice"][0] if runs[0]["dice"] else 0.0,
            "final_dice": runs[0]["dice"][-1] if runs[0]["dice"] else 0.0,
            "runs_ok": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="phantom seed (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    print("# environment " + json.dumps(environment(), sort_keys=True))

    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(workload, seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another invocation still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
