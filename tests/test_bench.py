"""The benchmark's calls into the library, on its seconds-long ``tiny`` workload.

``bench/run_bench.py`` builds a ``TrainConfig`` with ``seed=0``, drives
``run_pipeline`` or ``run_round0`` + ``run_round`` + ``load_round_state``,
and checks each run's round files and ``report.json``.  A library change that
breaks one of those calls fails here, not first in a benchmark run.
"""
from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from protoloop import phantom

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_the_benchmark_runs_tiny_as_written_and_resumed(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run_bench
    from workloads import WORKLOADS

    tiny = WORKLOADS["tiny"]
    manifest, truth = phantom.generate(tiny.phantom(tiny.default_seed), tmp_path / "data")
    pool = {e.vol_id: truth[e.vol_id] for e in manifest.unlabeled_entries()}
    runs = [
        run_bench.run_once(w, tmp_path / "data", tmp_path / f"run_{w.resume}", pool, check_dice=True, trace=False)
        for w in (tiny, replace(tiny, resume=True))  # the second is the `init` + `round` path
    ]
    assert [run["problems"] for run in runs] == [[], []]
    assert len(runs[0]["dice"]) == tiny.run["rounds"] + 1
    assert runs[0]["dice"] == runs[1]["dice"]
    assert runs[0]["digests"] == runs[1]["digests"]
