#!/usr/bin/env python3
"""Self-test of the benchmark on the seconds-long ``tiny`` fixture.

    python3 bench/selftest.py

Checks that both modes, on both drive paths, emit exactly the metrics
BENCHMARK.json names, each with its unit; that the output checks reject
corrupted rounds; and that the tracer reads 0 for functions that are gone.
Prints one line per failure and exits 1 if there is any.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

import run_bench


def _corruptions(voxels: int) -> dict:
    """name -> function that damages a copy of a good run directory."""

    def drop_label_file(d: Path) -> None:
        doc = json.loads((d / "round_1" / "state.json").read_text())
        (d / "round_1" / sorted(doc["labels"].values())[0]).unlink()

    def state_loses_a_volume(d: Path) -> None:
        path = d / "round_2" / "state.json"
        doc = json.loads(path.read_text())
        doc["labels"].pop(sorted(doc["labels"])[0])
        path.write_text(json.dumps(doc))

    def labels_overwritten(d: Path) -> None:
        doc = json.loads((d / "round_2" / "state.json").read_text())
        for name in doc["labels"].values():
            path = d / "round_2" / name
            raw = path.read_bytes()
            path.write_bytes(raw[:-voxels] + bytes(voxels))  # every voxel background

    def report_denies_contract(d: Path) -> None:
        path = d / "report.json"
        doc = json.loads(path.read_text())
        doc["offline_contract_honored"] = False
        path.write_text(json.dumps(doc))

    return {
        "label file removed": drop_label_file,
        "state.json loses a pool volume": state_loses_a_volume,
        "label files overwritten": labels_overwritten,
        "report.json denies the offline contract": report_denies_contract,
    }


def main() -> int:
    run_bench._import_library()
    import checks
    import spans
    from workloads import WORKLOADS

    bench = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text())
    tiny = WORKLOADS["tiny"]
    seed = tiny.default_seed
    work = run_bench.ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    failures: list[str] = []
    try:
        # every named metric, with its unit, in both modes and on both drive paths
        for resume in (False, True):
            workload = dataclasses.replace(tiny, resume=resume)
            for trace, group in ((False, "end_to_end"), (True, "per_layer")):
                where = f"resume={resume} trace={int(trace)}"
                result = run_bench.measure(workload, seed, 0.5, trace, work / f"m-{resume}-{trace}")
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    failures.append(f"{where}: result keys {sorted(result)}")
                if not result["correct"] or result["failed"]:
                    failures.append(f"{where}: a good run failed its checks")
                got = result["metrics"]
                want = {m["name"]: m["unit"] for m in bench[group]}
                for name in sorted(want.keys() | got.keys()):
                    if name not in got:
                        failures.append(f"{where}: {name} not emitted")
                    elif name not in want:
                        failures.append(f"{where}: {name} emitted but not in BENCHMARK.json")
                    elif got[name]["unit"] != want[name]:
                        failures.append(f"{where}: {name} unit {got[name]['unit']!r} != {want[name]!r}")
                    elif not isinstance(got[name]["value"], (int, float)):
                        failures.append(f"{where}: {name} value is not a number")

        # corrupted rounds fail the checks
        data_dir, truth, _ = run_bench.set_up(tiny, seed, work / "fixture")
        good = work / "good"
        run = run_bench.run_once(tiny, data_dir, good, truth, check_dice=False, trace=False)
        if run["problems"]:
            failures.append(f"good run reported problems: {run['problems']}")
        rounds = tiny.run["rounds"]
        volumes = len(truth) + 1  # the pool plus the template
        for name, corrupt in _corruptions(tiny.spec["shape"].voxels).items():
            bad = work / "bad"
            shutil.copytree(good, bad)
            corrupt(bad)
            problems, _ = checks.check_run(bad, rounds, truth, (volumes, 0), True, None)
            if not problems:
                failures.append(f"checks accept a corrupted round: {name}")
            if name.startswith("label") and checks.label_digests(bad) == run["digests"]:
                failures.append(f"label digests do not change: {name}")
            shutil.rmtree(bad)
        for name, calls, dice in (
            ("an encoder call after round 0", (volumes, 1), None),
            ("a Dice far from the frozen value", (volumes, 0), (0.0, 0.0)),
        ):
            problems, _ = checks.check_run(good, rounds, truth, calls, True, dice)
            if not problems:
                failures.append(f"checks accept {name}")

        # a function that is gone or never called reads 0
        with spans.Tracer(frozenset({"nowhere.missing"})) as tracer:
            pass
        if tracer.spans or any(spans.layer_metrics([]).values()):
            failures.append("an empty trace does not read 0")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
