"""Round orchestration: persistence layout, resume, determinism, contracts."""
from __future__ import annotations

import gc
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from protoloop import encoder as encoder_mod
from protoloop import cli, pipeline, specialist, volume
from protoloop.encoder import EncoderParams, FeatureGrid
from protoloop.metrics import foreground_dice
from protoloop.phantom import ClassShape, PhantomSpec, generate
from protoloop.pipeline import (
    PipelineConfig,
    RoundState,
    _config_doc,
    _config_from_doc,
    build_context,
    load_round_state,
    load_run_config,
    parse_round_dir,
    refine_round,
    run_pipeline,
    run_round,
    run_round0,
    run_table,
    start_run,
)
from protoloop.specialist import TrainConfig
from protoloop.volume import (
    DatasetManifest,
    IntensityVolume,
    LabelVolume,
    Shape3,
    VolumeEntry,
    load_array,
    load_label,
    save_array,
    save_manifest,
    write_blob,
)

from .oracles import infer_oracle, loss_and_grad_oracle


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    spec = PhantomSpec(
        num_volumes=4,
        shape=Shape3(12, 12, 12),
        num_classes=2,
        classes=(ClassShape(center=(0.5, 0.5, 0.5), radii=(3.5, 3.5, 3.5)),),
        noise_sigma=0.1,
        center_jitter=0.7,
        radius_jitter=0.4,
        seed=21,
    )
    generate(spec, root)
    return root


def _config(dataset, out_dir, **over):
    defaults = dict(
        manifest_path=dataset / "manifest.json",
        out_dir=Path(out_dir),
        rounds=1,
        encoder=EncoderParams(patch_size=4),
        train=TrainConfig(iterations=60, batch_voxels=64, seed=0),
        knn=2,
        q_unc=0.5,
        seed=7,
        truth_dir=dataset / "truth",
    )
    defaults.update(over)
    return PipelineConfig(**defaults)


def _drive(config: PipelineConfig) -> list[RoundState]:
    """Every round's state, from rounds run as ``run_pipeline`` runs them: on one
    context, each from the previous round read back (``run_round`` spends the
    state it is given)."""
    start_run(config)
    ctx = build_context(config)
    states = [run_round0(config, ctx=ctx)]
    for r in range(1, config.rounds + 1):
        states.append(run_round(config, r, load_round_state(config.out_dir, r - 1), ctx=ctx))
    return states


@pytest.fixture(scope="module")
def main_run(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run_main")
    states = _drive(_config(dataset, out, rounds=2))
    return states, out


def _label_bytes(state: RoundState) -> dict[str, bytes]:
    return {k: v.data.tobytes() for k, v in state.labels.items()}


def _named_bytes(round_dir: Path, names: dict[str, str]) -> dict[str, bytes]:
    """The payload of each label file of ``round_dir`` that ``names`` gives a volume id."""
    return {k: load_array(round_dir / name, LabelVolume).data.tobytes() for k, name in names.items()}


# ---------------------------------------------------------------------------
# round 0

def test_round0_layout_and_reload(dataset, main_run):
    states, out = main_run
    r0 = out / "round_0"
    for vid in ("vol_001", "vol_002", "vol_003"):
        assert (r0 / f"{vid}.round0.label").exists()
    assert (r0 / "state.json").exists()
    assert not (out / "round_0.tmp").exists()
    # one grid per manifest id and nothing else: the global features are computed from them
    manifest = pipeline.load_manifest(dataset / "manifest.json")
    want = sorted(f"{e.vol_id}.features.vxar" for e in manifest.entries)
    assert sorted(p.name for p in (out / "features").iterdir()) == want

    back = load_round_state(out, 0)
    assert back.round_index == 0 and not back.refined
    assert _label_bytes(back) == _label_bytes(states[0])

    fractions = json.loads((r0 / "state.json").read_text())["foreground_fraction"]
    assert sorted(fractions) == ["vol_001", "vol_002", "vol_003"]
    for vid, fraction in fractions.items():
        assert fraction == (states[0].labels[vid].data > 0).mean()
        assert 0.0 < fraction < 1.0


def test_round0_quality_tracked(main_run):
    states, _ = main_run
    assert states[0].pseudo_label_dice is not None
    assert 0.0 < states[0].pseudo_label_dice <= 1.0


def test_round0_exact_on_ingested_orthogonal_features(tmp_path):
    """Block-aligned one-hot features recover block labels perfectly."""
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    shape = Shape3(4, 4, 4)

    # cell class layouts on the 2x2x2 grid; labels are block-constant at 4^3
    layout_a = np.array([0, 1, 1, 0, 1, 0, 0, 1]).reshape(2, 2, 2)
    layout_b = np.array([1, 0, 0, 0, 1, 1, 0, 1]).reshape(2, 2, 2)

    def one_hot_grid(layout):
        data = np.zeros((2, 2, 2, 2), dtype=np.float32)
        for idx in np.ndindex(2, 2, 2):
            data[layout[idx]][idx] = 1.0
        return FeatureGrid(channels=2, grid_shape=Shape3(2, 2, 2), data=data)

    def block_labels(layout):
        return LabelVolume(shape, 2, np.repeat(np.repeat(np.repeat(layout, 2, 0), 2, 1), 2, 2))

    entries = []
    for vid, layout, labeled in (("vol_a", layout_a, True), ("vol_b", layout_b, False)):
        save_array(IntensityVolume(shape, np.zeros(shape.as_tuple(), np.float32)), data_dir / f"{vid}.i.vxar")
        save_array(one_hot_grid(layout), data_dir / f"{vid}.f.vxar")
        if labeled:
            save_array(block_labels(layout), data_dir / f"{vid}.l.vxar")
        entries.append(
            VolumeEntry(
                vol_id=vid,
                intensity=f"{vid}.i.vxar",
                label=f"{vid}.l.vxar" if labeled else None,
                features=f"{vid}.f.vxar",
            )
        )
    save_manifest(
        DatasetManifest(num_classes=2, entries=tuple(entries), base_dir=data_dir),
        data_dir / "manifest.json",
    )

    calls_before = encoder_mod.extract_call_count()
    config = _config(data_dir, tmp_path / "run", truth_dir=None)
    state = run_round0(config)
    assert encoder_mod.extract_call_count() == calls_before  # all grids ingested
    np.testing.assert_array_equal(state.labels["vol_b"].data, block_labels(layout_b).data)
    # the cached ingested grids (patch 2, 2 channels) differ from the encoder
    # config (patch 4, 11 channels) and are still reused: they are not stale
    ctx = build_context(config, extract_allowed=False)
    assert ctx.features["vol_b"].grid_shape == Shape3(2, 2, 2) and ctx.features["vol_b"].channels == 2
    # a later context still refuses grids of unequal channel counts
    grid = FeatureGrid(channels=3, grid_shape=Shape3(2, 2, 2), data=np.zeros((3, 2, 2, 2), np.float32))
    save_array(grid, tmp_path / "run" / "features" / "vol_b.features.vxar")
    with pytest.raises(ValueError, match="channel"):
        build_context(config, extract_allowed=False)


def test_round0_from_rebuilt_grids_equals_round0_from_grid_files(tmp_path, monkeypatch):
    """Round 0 rebuilds each grid from its volume's cell table; the prototypes,
    the initial labels and a later context's global features are those of the
    persisted grid files.

    The extents are not multiples of the patch, and one pool volume's grid is
    ingested from an external file that names no patch size.
    """
    data_dir = tmp_path / "data"
    spec = PhantomSpec(
        num_volumes=4,
        shape=Shape3(13, 17, 11),
        num_classes=3,
        classes=(
            ClassShape(center=(0.5, 0.4, 0.5), radii=(4.0, 4.0, 3.0)),
            ClassShape(center=(0.5, 0.8, 0.5), radii=(2.5, 2.5, 2.5), intensity_mean=2.0),
        ),
        noise_sigma=0.2,
        center_jitter=0.5,
        seed=31,
    )
    generate(spec, data_dir)
    external = FeatureGrid(
        channels=11,
        grid_shape=Shape3(5, 6, 3),
        data=np.random.default_rng(32).normal(size=(11, 5, 6, 3)).astype(np.float32),
    )
    save_array(external, data_dir / "ext.features.vxar")
    doc = json.loads((data_dir / "manifest.json").read_text())
    doc["volumes"][2]["features"] = "ext.features.vxar"
    (data_dir / "manifest.json").write_text(json.dumps(doc))

    made = []
    real = pipeline.compute_prototypes
    monkeypatch.setattr(pipeline, "compute_prototypes", lambda *a: made.append(real(*a)) or made[-1])
    config = _config(data_dir, tmp_path / "run", encoder=EncoderParams(patch_size=4))
    state = run_round0(config)

    features = tmp_path / "run" / "features"
    manifest = pipeline.load_manifest(config.manifest_path)
    grids = {
        e.vol_id: load_array(features / f"{e.vol_id}.features.vxar", FeatureGrid)
        for e in manifest.entries
    }
    assert grids["vol_002"].patch_size == (3, 3, 4)  # inferred on ingest
    assert grids["vol_001"].grid_shape == Shape3(4, 5, 3)
    template = load_array(data_dir / manifest.labeled_entry().label, LabelVolume)
    protos = real(grids["vol_000"], template)
    assert len(made) == 1 and made[0].tobytes() == protos.tobytes()
    for vol_id, lab in state.labels.items():
        want = pipeline.initial_pseudo_label(grids[vol_id], protos, lab.shape)
        assert lab.data.tobytes() == want.data.tobytes(), vol_id
    got = build_context(config, extract_allowed=False).global_features
    assert {v: g.tobytes() for v, g in got.items()} == {
        v: encoder_mod.global_feature(g).tobytes() for v, g in grids.items()
    }


def test_round0_perfect_on_noiseless_clones(tmp_path):
    """Identical volumes whose one structure fills exactly one feature cell.

    The 1.2-radius ball around the corner at 5.0 covers precisely the eight
    voxel centers of block (2,2,2) at patch size 2, so the cell grid loses
    nothing and propagation must reproduce the truth bit for bit.
    """
    data_dir = tmp_path / "data"
    spec = PhantomSpec(
        num_volumes=3,
        shape=Shape3(8, 8, 8),
        num_classes=2,
        classes=(
            ClassShape(center=(0.625, 0.625, 0.625), radii=(1.2, 1.2, 1.2)),
        ),
        background_mean=0.25,
        noise_sigma=0.0,
        center_jitter=0.0,
        radius_jitter=0.0,
        seed=5,
    )
    generate(spec, data_dir)

    state = run_round0(
        _config(data_dir, tmp_path / "run", encoder=EncoderParams(patch_size=2))
    )
    assert state.pseudo_label_dice == 1.0
    for vid, lab in state.labels.items():
        truth = load_array(data_dir / "truth" / f"{vid}.label.vxar")
        np.testing.assert_array_equal(lab.data, truth.data)


def test_first_training_round_beats_propagation_when_separable(tmp_path):
    """Noise-free voxels are linearly separable, so the round-1 model has to
    outdo the block-resolution propagation labels it was trained on."""
    data_dir = tmp_path / "data"
    spec = PhantomSpec(
        num_volumes=4,
        shape=Shape3(12, 12, 12),
        num_classes=2,
        classes=(ClassShape(center=(0.5, 0.5, 0.5), radii=(3.5, 3.5, 3.5)),),
        noise_sigma=0.0,
        center_jitter=0.7,
        radius_jitter=0.4,
        seed=21,
    )
    generate(spec, data_dir)

    states = _drive(
        _config(
            data_dir,
            tmp_path / "run",
            train=TrainConfig(iterations=200, batch_voxels=256, seed=0),
        )
    )
    assert states[1].model_dice >= states[0].pseudo_label_dice


def test_template_class_count_mismatch(dataset, tmp_path):
    doctored = tmp_path / "data"
    shutil.copytree(dataset, doctored)
    manifest = json.loads((doctored / "manifest.json").read_text())
    manifest["num_classes"] = 3
    (doctored / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="classes"):
        build_context(_config(doctored, tmp_path / "run"))


def test_round0_refuses_overwrite(dataset, main_run, tmp_path):
    _, out = main_run
    with pytest.raises(FileExistsError, match="refusing"):
        run_round0(_config(dataset, out, rounds=2))


def test_stale_tmp_dir_cleared(dataset, tmp_path):
    out = tmp_path / "run"
    stale = out / "round_0.tmp"
    stale.mkdir(parents=True)
    (stale / "junk").write_text("leftover")
    run_round0(_config(dataset, out))
    assert (out / "round_0").exists()
    assert not stale.exists()


def test_remove_unlinks_a_link_and_never_touches_its_target(tmp_path):
    """``_remove`` removes a directory with its contents, unlinks a file, a link
    to a directory, a link to a file and a dangling link, and takes a missing
    path as removed; no link's target changes, nor one linked from inside a
    removed directory."""
    elsewhere = tmp_path / "elsewhere"
    (elsewhere / "sub").mkdir(parents=True)
    (elsewhere / "keep.txt").write_text("kept")
    (elsewhere / "sub" / "keep.txt").write_text("kept too")

    def targets():
        return {str(p.relative_to(elsewhere)): p.read_bytes() for p in elsewhere.rglob("*") if p.is_file()}

    before = targets()
    run = tmp_path / "run"
    (run / "dir" / "inner").mkdir(parents=True)
    (run / "dir" / "inner" / "f").write_text("x")
    (run / "dir" / "link").symlink_to(elsewhere, target_is_directory=True)
    (run / "file").write_text("x")
    (run / "dir_link").symlink_to(elsewhere / "sub", target_is_directory=True)
    (run / "file_link").symlink_to(elsewhere / "keep.txt")
    (run / "dangling").symlink_to(tmp_path / "gone")
    for name in ("dir", "file", "dir_link", "file_link", "dangling", "missing"):
        pipeline._remove(run / name)
        assert not os.path.lexists(run / name), name
    assert list(run.iterdir()) == []
    assert targets() == before


# ---------------------------------------------------------------------------
# later rounds

def test_run_round_validation(dataset, tmp_path):
    config = _config(dataset, tmp_path / "run")
    r0 = RoundState(round_index=0, labels={})
    with pytest.raises(ValueError, match="entry point"):
        run_round(config, 0, r0)
    with pytest.raises(ValueError, match="previous state"):
        run_round(config, 2, r0)


def test_pipeline_states_and_report(dataset, main_run, tmp_path):
    states, out = main_run
    assert [s.round_index for s in states] == [0, 1, 2]
    assert states[1].refined and states[2].refined
    assert states[1].params is not None
    assert states[1].pseudo_label_dice is not None
    assert states[1].model_dice is not None

    rows = run_table(out)
    assert [r["round"] for r in rows] == [0, 1, 2]
    assert rows[0]["threshold"] is None and rows[1]["threshold"] is not None
    # round 0 is charged with the feature extraction done for it
    assert rows[0]["timings"]["features"] > 0
    # 3 pool volumes plus the labeled template, which is always certain
    assert rows[1]["n_certain"] + rows[1]["n_uncertain"] == 4
    assert rows[1]["n_uncertain"] >= 1
    for row, state in zip(rows, states):
        assert row["pseudo_label_dice"] == state.pseudo_label_dice
        assert row["model_dice"] == state.model_dice
        assert row["timings"] == state.timings

    # run_pipeline runs the same rounds, returns the last and writes report.json
    run = tmp_path / "run"
    last = run_pipeline(_config(dataset, run, rounds=2))
    assert last.round_index == 2 and last.refined
    assert _label_bytes(last) == _label_bytes(states[2])
    assert last.partition == states[2].partition
    assert last.pseudo_label_dice == states[2].pseudo_label_dice
    report = json.loads((run / "report.json").read_text())
    assert sorted(report) == ["encoder_calls_after_round0", "encoder_calls_total", "offline_contract_honored"]
    assert report["offline_contract_honored"] is True
    assert report["encoder_calls_total"] == report["encoder_calls_after_round0"]
    assert not (run / "report.txt").exists()
    assert (run / "config.json").exists()


def test_run_pipeline_frees_old_rounds(dataset, tmp_path, monkeypatch):
    """Round r - 2's label arrays are freed before round r starts."""
    alive, checked = {}, []  # round index -> weak references to its label arrays
    real = pipeline.run_round

    def watched(config, round_index, prev, ctx=None):
        gc.collect()
        if round_index - 2 in alive:
            refs = alive.pop(round_index - 2)
            assert all(ref() is None for ref in refs), f"round {round_index - 2} is alive"
            checked.append(round_index - 2)
        labels = list(prev.labels.values()) + list((prev.raw_labels or {}).values())
        alive[prev.round_index] = [weakref.ref(lab.data) for lab in labels]
        return real(config, round_index, prev, ctx=ctx)

    monkeypatch.setattr(pipeline, "run_round", watched)
    last = run_pipeline(_config(dataset, tmp_path / "run", rounds=3))
    assert last.round_index == 3 and checked == [0, 1]


def _watch_label_lifetimes(monkeypatch) -> dict[int, int]:
    """Watch every label array of each round, taken where the round's labels are
    made (``_persist_round``) or read back (``load_round_state``, also as the
    CLI imported it).  At round r's first ``infer``, after a collection, the
    returned dict records how many arrays of round r - 1 are still alive."""
    refs: dict[int, list] = {}
    alive_at: dict[int, int] = {}
    real_persist, real_load, real_infer = pipeline._persist_round, pipeline.load_round_state, pipeline.infer

    def watch(state):
        for labels in (state.labels, state.raw_labels or {}):
            for lab in labels.values():
                root = lab.data
                while isinstance(root.base, np.ndarray):  # the array that owns the memory
                    root = root.base
                refs.setdefault(state.round_index, []).append(weakref.ref(root))
        return state

    def persist(out_dir, state, *args, **kwargs):
        return real_persist(out_dir, watch(state), *args, **kwargs)

    def load(out_dir, round_index):
        return watch(real_load(out_dir, round_index))

    def infer(params, data):
        r = max(refs) + 1  # rounds up to r - 1 are persisted; round r is not yet
        if r not in alive_at:
            gc.collect()
            alive_at[r] = sum(ref() is not None for ref in refs[r - 1])
        return real_infer(params, data)

    monkeypatch.setattr(pipeline, "_persist_round", persist)
    monkeypatch.setattr(pipeline, "load_round_state", load)
    monkeypatch.setattr(cli, "load_round_state", load)
    monkeypatch.setattr(pipeline, "infer", infer)
    return alive_at


def test_run_pipeline_holds_no_previous_label_at_inference(dataset, tmp_path, monkeypatch):
    """A round holds one pool label set: once its head is trained, no label
    volume of the round before it is alive."""
    alive_at = _watch_label_lifetimes(monkeypatch)
    last = run_pipeline(_config(dataset, tmp_path / "run", rounds=2))
    assert last.round_index == 2 and alive_at == {1: 0, 2: 0}
    assert json.loads((tmp_path / "run" / "round_2" / "state.json").read_text())["refine_audit"]  # a vote ran


def test_round_command_holds_no_previous_label_at_inference(dataset, tmp_path, monkeypatch):
    """As under ``run_pipeline``: ``round`` reads round r - 1 back from disk
    and drops its labels once the head is trained."""
    alive_at = _watch_label_lifetimes(monkeypatch)
    out = tmp_path / "cli"
    argv = [
        "init", "--manifest", str(dataset / "manifest.json"), "--out", str(out),
        "--truth", str(dataset / "truth"), "--patch", "4", "--iters", "60", "--batch", "64",
        "--k", "2", "--q-unc", "0.5", "--seed", "7",
    ]
    assert cli.dispatch(argv) == 0
    for prev in ("round_0", "round_1"):
        assert cli.dispatch(["round", "--prev", str(out / prev)]) == 0
    assert alive_at == {1: 0, 2: 0}
    assert json.loads((out / "round_2" / "state.json").read_text())["refine_audit"]  # a vote ran


def test_round1_files_and_partition_records(main_run):
    states, out = main_run
    r1 = out / "round_1"
    state_doc = json.loads((r1 / "state.json").read_text())
    assert state_doc["refined"] is True
    for vid, name in state_doc["labels"].items():
        if vid in state_doc["partition"]["uncertain"]:
            assert name == f"{vid}.round1.refined.label"
        assert (r1 / name).exists()
    for vid, name in state_doc["raw_labels"].items():
        assert name == f"{vid}.round1.raw.label"
        assert (r1 / name).exists()
    assert (r1 / "params.vxar").exists()
    assert (r1 / "train_log.jsonl").exists()

    unc = state_doc["uncertainties"]
    assert unc == states[1].uncertainties
    assert sorted(unc) == ["vol_001", "vol_002", "vol_003"]
    threshold = state_doc["partition"]["threshold"]
    assert isinstance(threshold, float) and threshold in unc.values()
    # the stored certain set additionally holds the always-certain template
    pool_certain = set(state_doc["partition"]["certain"]) - {"vol_000"}
    assert sorted(pool_certain) == sorted(k for k, v in unc.items() if v <= threshold)

    audit = state_doc["refine_audit"]
    assert len(audit) == len(state_doc["partition"]["uncertain"]) > 0
    for q in audit:
        sims = [n["similarity"] for n in q["neighbors"]]
        assert sims == sorted(sims, reverse=True)
        assert all(n["weight"] >= 0.0 for n in q["neighbors"])


def test_certain_volumes_name_their_raw_file(main_run, monkeypatch):
    _, out = main_run
    for r in (1, 2):
        rd = out / f"round_{r}"
        doc = json.loads((rd / "state.json").read_text())
        certain = set(doc["partition"]["certain"]) - {"vol_000"}
        assert certain and doc["partition"]["uncertain"]
        for vid in certain:
            assert doc["labels"][vid] == doc["raw_labels"][vid] == f"{vid}.round{r}.raw.label"
        refined = {p.name for p in rd.glob("*.refined.label")}
        assert refined == {f"{vid}.round{r}.refined.label" for vid in doc["partition"]["uncertain"]}

    loads = []
    real = pipeline.load_array
    monkeypatch.setattr(
        pipeline, "load_array", lambda path, kind: loads.append(path) or real(path, kind)
    )
    back = load_round_state(out, 1)
    # a reload reads the round's labels, each file once, and no raw label the vote replaced
    rd = out / "round_1"
    doc = json.loads((rd / "state.json").read_text())
    assert sorted(loads) == sorted(rd / name for name in doc["labels"].values())
    assert back.raw_labels is None
    raw = _named_bytes(rd, doc["raw_labels"])
    assert all(back.labels[v].data.tobytes() == raw[v] for v in certain)


def test_round_with_refined_copies_still_loads(dataset, main_run, tmp_path):
    """Earlier runs wrote a refined copy of every certain volume's labels too."""
    states, out = main_run
    old = tmp_path / "old"
    shutil.copytree(out, old)
    r1 = old / "round_1"
    doc = json.loads((r1 / "state.json").read_text())
    copied = 0
    for vid, name in doc["labels"].items():
        if name != f"{vid}.round1.refined.label":
            doc["labels"][vid] = f"{vid}.round1.refined.label"
            shutil.copy(r1 / name, r1 / doc["labels"][vid])
            copied += 1
    assert copied
    (r1 / "state.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    back = load_round_state(old, 1)
    assert _label_bytes(back) == _label_bytes(states[1])
    shutil.rmtree(old / "round_2")
    state2 = run_round(_config(dataset, old, rounds=2), 2, back)
    assert _label_bytes(state2) == _label_bytes(states[2])
    # a rewrite of the old round drops the copies
    refine_round(_config(dataset, old, rounds=2, force=True), 1)
    assert len(list(r1.glob("*.refined.label"))) == len(doc["partition"]["uncertain"])
    assert _label_bytes(load_round_state(old, 1)) == _label_bytes(states[1])


def test_run_round_refuses_existing_round_before_training(dataset, main_run, monkeypatch):
    states, out = main_run
    monkeypatch.setattr(pipeline, "train_round", lambda *a: pytest.fail("trained"))
    with pytest.raises(FileExistsError, match="round_1 already exists.*force"):
        run_round(_config(dataset, out, rounds=2), 1, states[0])


def test_refine_round_reads_no_volume(dataset, main_run, tmp_path, monkeypatch):
    states, out = main_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    config = _config(dataset, run, rounds=2)
    with pytest.raises(FileExistsError, match="already refined"):
        refine_round(config, 1)
    with pytest.raises(ValueError, match="round 0"):
        refine_round(config, 0)
    loads = []
    real = pipeline.load_array
    for module in (pipeline, volume):  # grids are read in pipeline, labels by volume.load_label
        monkeypatch.setattr(
            module, "load_array", lambda path, kind: loads.append(Path(path)) or real(path, kind)
        )
    state = refine_round(_config(dataset, run, rounds=2, force=True), 2)
    # label files, and the grid of each manifest id for the global features
    grids = sorted(p for p in loads if p.parent == run / "features")
    ids = [e.vol_id for e in pipeline.load_manifest(dataset / "manifest.json").entries]
    assert grids == sorted(run / "features" / f"{v}.features.vxar" for v in ids)
    labels = [p for p in loads if p not in grids]
    assert labels and all(p.name.endswith((".label", ".label.vxar")) for p in labels)
    assert _label_bytes(state) == _label_bytes(states[2])
    assert state.pseudo_label_dice == states[2].pseudo_label_dice
    assert not (run / "round_2.tmp").exists() and not (run / "round_2.old").exists()


def test_round_state_round_trip_full(main_run):
    states, out = main_run
    back = load_round_state(out, 1)
    assert _label_bytes(back) == _label_bytes(states[1])
    assert back.raw_labels is None
    doc = json.loads((out / "round_1" / "state.json").read_text())
    assert _named_bytes(out / "round_1", doc["raw_labels"]) == {
        k: v.data.tobytes() for k, v in states[1].raw_labels.items()
    }
    assert back.partition == states[1].partition
    np.testing.assert_allclose(
        back.params.weights, states[1].params.weights, atol=1e-6
    )
    assert back.uncertainties == states[1].uncertainties


def test_train_log_lines(main_run):
    _, out = main_run
    lines = (out / "round_1" / "train_log.jsonl").read_text().splitlines()
    assert len(lines) == 60
    first = json.loads(lines[0])
    assert first["iter"] == 0 and np.isfinite(first["loss"])
    for line in lines:
        rec = json.loads(line)
        for key in ("grad_norm", "param_norm"):
            assert np.isfinite(rec[key]) and rec[key] >= 0.0
    # the first step starts from zero weights and moves them
    assert first["param_norm"] > 0.0


def test_pipeline_deterministic(dataset, main_run, tmp_path):
    states, _ = main_run
    again = _drive(_config(dataset, tmp_path / "rerun", rounds=2))
    for a, b in zip(states, again, strict=True):
        assert _label_bytes(a) == _label_bytes(b)
    assert states[1].partition == again[1].partition


# the benchmark's tiny fixture and run settings: a run of two rounds in well under a second
_TINY = PhantomSpec(
    num_volumes=5,
    shape=Shape3(16, 16, 16),
    num_classes=2,
    classes=(ClassShape("ellipsoid", (0.5, 0.5, 0.5), (4.0, 4.0, 4.0), 1.0),),
    noise_sigma=0.3,
    seed=7,
)


def _run_files(out: Path) -> dict[str, bytes]:
    """Every grid, label file and ``params.vxar`` of the run in ``out``, by relative path."""
    files = [*out.glob("features/*.vxar"), *out.glob("round_*/*.label"), *out.glob("round_*/params.vxar")]
    return {str(p.relative_to(out)): p.read_bytes() for p in files}


def _tiny_outputs(manifest: Path, out: Path) -> dict[str, bytes]:
    """``_run_files`` of a run on ``manifest`` at the benchmark's tiny settings."""
    run_pipeline(PipelineConfig(
        manifest_path=manifest, out_dir=out, rounds=2, encoder=EncoderParams(patch_size=4),
        train=TrainConfig(iterations=100, batch_voxels=512, seed=0), knn=2, q_unc=0.5, seed=11,
    ))
    return _run_files(out)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """The tiny dataset's directory and the outputs of a plain run, which is in its sibling ``plain``."""
    root = tmp_path_factory.mktemp("tiny")
    generate(_TINY, root / "data")
    return root / "data", _tiny_outputs(root / "data" / "manifest.json", root / "plain")


def _transformed_outputs(data: Path, root: Path, transform) -> dict[str, bytes]:
    """``_tiny_outputs`` of a run in ``root/run`` on the dataset in ``data`` with
    its manifest, made absolute, edited by ``transform(doc, data, root)``."""
    doc = json.loads((data / "manifest.json").read_text())
    for entry in doc["volumes"]:
        for key in ("intensity", "label"):
            if key in entry:
                entry[key] = str(data / entry[key])
    transform(doc, data, root)
    (root / "manifest.json").write_text(json.dumps(doc))
    return _tiny_outputs(root / "manifest.json", root / "run")


def _reverse_volumes(doc, data, root):
    doc["volumes"].reverse()


def _prefix_ids(doc, data, root):
    for entry in doc["volumes"]:
        entry["id"] = f"p_{entry['id']}"  # one common prefix keeps the ids' sort order


def _map_intensities(doc, data, root, scale, shift=0.0):
    for entry in doc["volumes"]:
        vol = load_array(data / entry["intensity"], IntensityVolume)
        entry["intensity"] = str(root / Path(entry["intensity"]).name)
        save_array(IntensityVolume(vol.shape, vol.data * scale + shift), entry["intensity"])


def _double_intensities(doc, data, root):
    _map_intensities(doc, data, root, 2)


@pytest.mark.parametrize("transform", [_reverse_volumes, _prefix_ids, _double_intensities])
def test_a_run_is_invariant_to_what_should_not_matter(tiny, tmp_path, transform):
    """The manifest's order, ids renamed in their sort order and intensities
    scaled by 2 leave every grid, label file and ``params.vxar`` byte for
    byte: the pool is walked in id order and intensities are z-scored."""
    data, want = tiny
    got = _transformed_outputs(data, tmp_path, transform)
    assert len(want) == 23 and {name.replace("/p_", "/"): b for name, b in got.items()} == want


@pytest.mark.parametrize("scale, shift", [(3, 100), (1, 0.5)])
def test_labels_are_invariant_to_a_positive_affine_map_of_the_intensities(tiny, tmp_path, scale, shift):
    """Only the z-score makes this hold, and grids and ``params.vxar`` may
    differ in low bits: every label file agrees with the plain run's on at
    least 99.9% of voxels, and its Dice against the truth within 1e-4."""
    data, want = tiny
    got = _transformed_outputs(data, tmp_path, lambda *args: _map_intensities(*args, scale, shift))
    names = sorted(name for name in want if name.endswith(".label"))
    assert len(names) == 16 and names == sorted(name for name in got if name.endswith(".label"))
    for name in names:
        plain, mapped = (load_array(run / name, LabelVolume) for run in (data.parent / "plain", tmp_path / "run"))
        truth = load_array(data / "truth" / f"{Path(name).name.split('.')[0]}.label.vxar", LabelVolume)
        assert np.mean(plain.data == mapped.data) >= 0.999
        assert abs(foreground_dice(plain, truth) - foreground_dice(mapped, truth)) <= 1e-4


def test_a_run_is_invariant_to_one_blas_thread(tiny, tmp_path):
    """A ``run`` in a process whose OpenBLAS has one thread writes every grid,
    label file and ``params.vxar`` of one with the default count, byte for byte."""
    data, want = tiny
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "run"
    subprocess.run([
        sys.executable, "-m", "protoloop.cli", "run", "--manifest", str(data / "manifest.json"),
        "--out", str(out), "--patch", "4", "--rounds", "2", "--iters", "100", "--batch", "512",
        "--k", "2", "--q-unc", "0.5", "--seed", "11",
    ], env=env, capture_output=True, timeout=120, check=True)
    assert _run_files(out) == want


def _round_records(out: Path) -> dict[str, bytes]:
    """Every label file, ``params.vxar`` and ``train_log.jsonl`` of the run in
    ``out``, and each ``state.json`` without its ``timings``, by relative path."""
    records = {}
    for path in sorted(out.glob("round_*/*")):
        name = str(path.relative_to(out))
        if path.name == "state.json":
            doc = json.loads(path.read_text())
            del doc["timings"]
            records[name] = json.dumps(doc, sort_keys=True).encode()
        elif path.suffix == ".label" or path.name in ("params.vxar", "train_log.jsonl"):
            records[name] = path.read_bytes()
    return records


@pytest.mark.parametrize("num_classes", [2, 3])
def test_a_run_on_the_former_kernels_is_byte_identical(tiny, tmp_path, monkeypatch, num_classes):
    """The two-class margin inference and the whole-batch loss pass change no
    output: a run with the former softmax ``infer`` and per-half
    ``loss_and_grad`` writes every label file, ``params.vxar``,
    ``train_log.jsonl`` and ``state.json`` but its timings byte for byte."""
    data, _ = tiny
    plain = data.parent / "plain"
    if num_classes == 3:
        second = ClassShape("ellipsoid", (0.35, 0.4, 0.6), (2.5, 3.0, 2.0), 2.0)
        data = tmp_path / "data"
        generate(replace(_TINY, num_classes=3, classes=_TINY.classes + (second,)), data)
        plain = tmp_path / "plain"
        _tiny_outputs(data / "manifest.json", plain)
    monkeypatch.setattr(specialist, "loss_and_grad", loss_and_grad_oracle)
    monkeypatch.setattr(pipeline, "infer", infer_oracle)
    _tiny_outputs(data / "manifest.json", tmp_path / "former")
    want = _round_records(plain)
    assert len(want) == 23 and _round_records(tmp_path / "former") == want


def test_a_non_finite_logit_is_refused_before_the_round_is_written(dataset, tmp_path, monkeypatch):
    """An infinite logit in one volume's inference stops the round before it is persisted."""
    config = _config(dataset, tmp_path / "run")
    start_run(config)
    run_round0(config)
    before = sorted(p.name for p in config.out_dir.iterdir())
    real = specialist.voxel_logits

    def poisoned(params, data):
        for sl, logits in real(params, data):
            if data.vol_id == "vol_002":
                logits[0, 5] = np.inf
            yield sl, logits

    monkeypatch.setattr(specialist, "voxel_logits", poisoned)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="NaN class score.*'vol_002'"):
        run_round(config, 1, load_round_state(config.out_dir, 0))
    assert sorted(p.name for p in config.out_dir.iterdir()) == before


def test_truth_only_scores(dataset, tmp_path, monkeypatch):
    """Truth labels are read for the recorded Dice alone: with and without
    them, every label file and every parameter file is the same byte for byte.
    Each truth file is read, and checked, only when a round is scored: once
    per round, every round scoring its raw and voted labels against one read."""

    def outputs(run_dir):
        files = sorted(run_dir.glob("round_*/*.label")) + sorted(run_dir.glob("round_*/params.vxar"))
        return {str(p.relative_to(run_dir)): p.read_bytes() for p in files}

    reads, real = [], pipeline.load_label
    monkeypatch.setattr(pipeline, "load_label", lambda path, n: reads.append(path) or real(path, n))
    scored, blind = tmp_path / "scored", tmp_path / "blind"
    last = run_pipeline(_config(dataset, scored, rounds=2))
    assert last.pseudo_label_dice is not None and last.pseudo_label_dice != last.model_dice  # a vote ran
    truth = sorted((dataset / "truth").glob("vol_*.label.vxar"))[1:]  # vol_000 is the template
    assert sorted(path for path in reads if path.parent == dataset / "truth") == sorted(truth * 3)
    assert run_pipeline(_config(dataset, blind, rounds=2, truth_dir=None)).pseudo_label_dice is None
    want = outputs(scored)
    assert any(name.endswith("params.vxar") for name in want)
    assert outputs(blind) == want


def test_context_reads_no_truth(dataset, tmp_path, monkeypatch):
    """A context is built without reading a truth file; its truth is read when a round is scored."""
    reads, real = [], pipeline.load_label
    monkeypatch.setattr(pipeline, "load_label", lambda path, n: reads.append(path) or real(path, n))
    ctx = build_context(_config(dataset, tmp_path / "run"))
    assert reads == [dataset / "vol_000.label.vxar"]  # the template's label alone
    assert ctx.truth["vol_002"].shape == ctx.features["vol_002"].shape
    assert reads[1:] == [dataset / "truth" / "vol_002.label.vxar"]


def test_reloaded_rounds_keep_their_raw_labels(dataset, tmp_path):
    """An unrefined round persists as its labels the raw labels it held in
    memory, round 0 holds none; a reloaded round has no raw labels."""
    config = _config(dataset, tmp_path / "plain", refine=False)
    states = _drive(config)
    assert states[0].raw_labels is None
    assert load_round_state(config.out_dir, 0).raw_labels is None
    back = load_round_state(config.out_dir, 1)
    assert back.raw_labels is None
    doc = json.loads((config.out_dir / "round_1" / "state.json").read_text())
    assert "raw_labels" not in doc
    assert _named_bytes(config.out_dir / "round_1", doc["labels"]) == {
        k: v.data.tobytes() for k, v in states[1].raw_labels.items()
    }


def test_resume_after_round0_matches(dataset, main_run, tmp_path):
    """Copying round 0 to a new directory and continuing reproduces round 1."""
    states, out = main_run
    resumed = tmp_path / "resumed"
    resumed.mkdir()
    shutil.copytree(out / "features", resumed / "features")
    shutil.copytree(out / "round_0", resumed / "round_0")

    config = _config(dataset, resumed, rounds=2)
    prev = load_round_state(resumed, 0)
    state1 = run_round(config, 1, prev)  # context rebuilt with extraction disabled
    assert _label_bytes(state1) == _label_bytes(states[1])
    assert state1.partition == states[1].partition


def test_round_refuses_a_previous_round_lacking_a_pool_id(dataset, main_run, tmp_path):
    """A round refuses a previous round lacking a pool volume before anything is written."""
    _, out = main_run
    resumed = tmp_path / "resumed"
    resumed.mkdir()
    shutil.copytree(out / "features", resumed / "features")
    shutil.copytree(out / "round_0", resumed / "round_0")
    prev = load_round_state(resumed, 0)
    del prev.labels["vol_002"]
    message = "round 0 labels ['vol_001', 'vol_003'], the manifest's pool is ['vol_001', 'vol_002', 'vol_003']"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_round(_config(dataset, resumed), 1, prev)
    assert sorted(p.name for p in resumed.iterdir()) == ["features", "round_0"]


def test_refine_ablation_keeps_raw(dataset, main_run, tmp_path, monkeypatch):
    states, _ = main_run
    out = tmp_path / "norefine"
    quality, scored = pipeline.pseudo_label_quality, []

    def counted(labels, truth, *others):
        scored.append(len(others))
        return quality(labels, truth, *others)

    monkeypatch.setattr(pipeline, "pseudo_label_quality", counted)
    plain = run_pipeline(_config(dataset, out, refine=False))
    assert plain.round_index == 1 and plain.refined is False
    # one scoring call per round: round 0's labels, then round 1's raw and
    # voted labels together, which without a vote are the same
    assert scored == [0, 1]
    assert plain.pseudo_label_dice == plain.model_dice == states[1].model_dice
    assert _label_bytes(plain) == {
        k: v.data.tobytes() for k, v in plain.raw_labels.items()
    }
    # training is unaffected by the ablation, so the model output matches
    assert {k: v.data.tobytes() for k, v in plain.raw_labels.items()} == {
        k: v.data.tobytes() for k, v in states[1].raw_labels.items()
    }
    doc = json.loads((out / "round_1" / "state.json").read_text())
    for vid, name in doc["labels"].items():
        assert name == f"{vid}.round1.raw.label"
    assert doc["refine_audit"] == []


def test_offline_contract_blocks_reencoding(dataset, tmp_path):
    config = _config(dataset, tmp_path / "run")
    grid = tmp_path / "run" / "features" / "vol_000.features.vxar"
    calls = encoder_mod.extract_call_count()
    with pytest.raises(FileNotFoundError, match=re.escape(f"{grid}: no feature grid for 'vol_000'")):
        build_context(config, extract_allowed=False)
    assert encoder_mod.extract_call_count() == calls
    assert not grid.exists()


def test_offline_contract_blocks_reencoding_a_deleted_grid(dataset, tmp_path):
    config = _config(dataset, tmp_path / "run")
    build_context(config)
    build_context(config, extract_allowed=False)  # every grid cached: no extraction
    grid = tmp_path / "run" / "features" / "vol_001.features.vxar"
    grid.unlink()
    calls = encoder_mod.extract_call_count()
    with pytest.raises(FileNotFoundError, match=re.escape(f"{grid}: no feature grid for 'vol_001'")):
        build_context(config, extract_allowed=False)
    assert encoder_mod.extract_call_count() == calls
    assert not grid.exists()


def test_rerun_requires_force(dataset, main_run, tmp_path):
    _, out = main_run
    with pytest.raises(FileExistsError, match="force"):
        run_pipeline(_config(dataset, out, rounds=2))


def test_force_clears_previous_run(dataset, tmp_path):
    out = tmp_path / "run"
    run_pipeline(_config(dataset, out))
    first = run_table(out)
    last = run_pipeline(_config(dataset, out, force=True))
    assert last.round_index == 1
    assert run_table(out)[0]["round"] == first[0]["round"] == 0


def test_a_clear_that_stops_part_way_still_holds_a_run(dataset, tmp_path, monkeypatch):
    """``config.json`` is removed last, so a ``force`` clear that fails part-way
    leaves a directory that a plain start refuses, not a bare ``features/``
    whose grids it would reuse."""
    out = tmp_path / "run"
    start_run(_config(dataset, out))
    run_round0(_config(dataset, out))
    real = pipeline._remove

    def remove(path):
        if path.name == "features":
            raise OSError(f"cannot remove {path}")
        real(path)

    monkeypatch.setattr(pipeline, "_remove", remove)
    with pytest.raises(OSError, match="cannot remove"):
        start_run(_config(dataset, out, force=True))
    monkeypatch.undo()
    assert not (out / "round_0").exists() and (out / "config.json").is_file()
    with pytest.raises(FileExistsError, match="already holds a run"):
        start_run(_config(dataset, out))


@pytest.mark.parametrize("name", ["round_3.old", "round_3.tmp", "round_01", "round_", "round_backup"])
def test_parse_round_dir_refuses_all_but_a_round(tmp_path, name):
    # a .old or .tmp entry is a round entry of the run directory, but not a round to read
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path / name} is not a round directory (round_<r>)")):
        parse_round_dir(tmp_path / name)
    assert parse_round_dir(tmp_path / "round_0") == (tmp_path, 0)
    assert parse_round_dir(tmp_path / "round_30") == (tmp_path, 30)


def _misname_intensity(data_dir: Path, vol_id: str) -> None:
    """Point labeled entry ``vol_id``'s intensity at its label file."""
    manifest = data_dir / "manifest.json"
    doc = json.loads(manifest.read_text())
    entry = next(v for v in doc["volumes"] if v["id"] == vol_id)
    entry["intensity"] = entry["label"]
    manifest.write_text(json.dumps(doc))


def _shrink_label(label_dir: Path, vol_id: str) -> None:
    label = LabelVolume(Shape3(10, 12, 12), 2, np.zeros((10, 12, 12), dtype=np.uint8))
    save_array(label, label_dir / f"{vol_id}.label.vxar")


def _add_class(label_dir: Path, vol_id: str) -> None:
    data = np.zeros((12, 12, 12), dtype=np.uint8)
    data[4:8, 4:8, 4:8] = 2
    save_array(LabelVolume(Shape3(12, 12, 12), 3, data), label_dir / f"{vol_id}.label.vxar")


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_shrink_label, r"truth/vol_001\.label\.vxar: truth label of 'vol_001' has shape "
                        r"\(10, 12, 12\), its intensity volume \(12, 12, 12\)"),
        (_add_class, r"truth/vol_001\.label\.vxar: label has 3 classes, expected 2"),
    ],
)
def test_truth_labels_checked_before_round0(dataset, tmp_path, corrupt, message):
    truth = tmp_path / "truth"
    shutil.copytree(dataset / "truth", truth)
    corrupt(truth, "vol_001")
    out = tmp_path / "run"
    with pytest.raises(ValueError, match=message):
        run_pipeline(_config(dataset, out, truth_dir=truth))
    assert not (out / "round_0").exists()


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_shrink_label, r"data/vol_000\.label\.vxar: template label of 'vol_000' has shape "
                        r"\(10, 12, 12\), its intensity volume \(12, 12, 12\)"),
        (_misname_intensity, r"data/vol_000\.label\.vxar: holds LabelVolume, expected IntensityVolume"),
        (_add_class, r"data/vol_000\.label\.vxar: label has 3 classes, expected 2"),
    ],
)
def test_template_inputs_checked_before_round0(dataset, tmp_path, corrupt, message):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    corrupt(data, "vol_000")
    out = tmp_path / "run"
    with pytest.raises(ValueError, match=message):
        run_pipeline(_config(dataset, out, manifest_path=data / "manifest.json"))
    assert not (out / "round_0").exists()


def test_headerless_label_takes_the_manifest_class_count(tmp_path):
    path = tmp_path / "ext.label.vxar"
    header = {"dtype": "u8", "shape": [1, 1, 4], "order": "row-major"}
    write_blob(path, header, bytes([0, 1, 1, 0]))  # no voxel of class 2
    lab = load_label(path, 3)
    assert lab.num_classes == 3 and lab.data.tobytes() == bytes([0, 1, 1, 0])
    assert load_label(path, 2).num_classes == 2
    write_blob(path, header, bytes([0, 3, 1, 0]))
    with pytest.raises(ValueError, match="label has 4 classes, expected 3"):
        load_label(path, 3)
    # a count the header names is held to the manifest's, in both directions
    for named, wanted in ((2, 3), (3, 2)):
        write_blob(path, header | {"num_classes": named}, bytes([0, 1, 1, 0]))
        with pytest.raises(ValueError, match=f"label has {named} classes, expected {wanted}"):
            load_label(path, wanted)


def test_label_class_count_check_reads_only_the_header(tmp_path):
    # a headerless label takes the manifest's count after a look at its
    # header; loading it holds one payload, never a second read of the file
    path = tmp_path / "ext.label.vxar"
    data = (np.arange(64**3) % 2).astype(np.uint8)
    write_blob(path, {"dtype": "u8", "shape": [64, 64, 64], "order": "row-major"}, data)
    tracemalloc.start()
    try:
        lab = load_label(path, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lab.num_classes == 3 and lab.data.tobytes() == data.tobytes()
    assert peak < 1.1 * data.nbytes


def test_stale_feature_cache_refused(dataset, tmp_path):
    out = tmp_path / "run"
    build_context(_config(dataset, out))  # caches patch-4 grids with 11 channels
    build_context(_config(dataset, out), extract_allowed=False)  # same encoder: reused
    calls = encoder_mod.extract_call_count()
    with pytest.raises(ValueError, match=r"stale feature grid for 'vol_000'.*\(4, 4, 4\).*\(2, 2, 2\)"):
        build_context(_config(dataset, out, encoder=EncoderParams(patch_size=2)))
    # a grid of another channel count, such as one an encoder without the
    # position channels wrote, is refused by its file and not made again
    path = out / "features" / "vol_000.features.vxar"
    grid = load_array(path, FeatureGrid)
    save_array(FeatureGrid(8, grid.grid_shape, grid.data[:8], grid.patch_size), path)
    with pytest.raises(ValueError, match=re.escape(f"in {path}: it has patch_size (4, 4, 4) and 8 channels")):
        build_context(_config(dataset, out))
    assert encoder_mod.extract_call_count() == calls


# ---------------------------------------------------------------------------
# factorized features and config documents

def test_context_holds_factorized_features(dataset, tmp_path):
    ctx = build_context(_config(dataset, tmp_path / "run"))
    for entry in ctx.manifest.entries:
        feats = ctx.features[entry.vol_id]
        grid = load_array(tmp_path / "run" / "features" / f"{entry.vol_id}.features.vxar", FeatureGrid)
        # the cell table is the grid's float32 values, transposed once
        assert feats.cells.dtype == np.float32 and feats.cells.flags.c_contiguous
        assert feats.cells.tobytes() == grid.data.reshape(grid.channels, -1).T.tobytes()
        assert feats.grid().data.tobytes() == grid.data.tobytes()
        # the per-voxel array is the float32 intensities, not a float64 z
        assert feats.values.shape == (feats.shape.voxels,) and feats.values.dtype == np.float32
        vol = load_array(ctx.manifest.resolve(entry.intensity), IntensityVolume)
        assert feats.values.tobytes() == vol.data.tobytes()
        assert (feats.offset, feats.scale) == encoder_mod.zscore_scalars(vol.data)


def test_context_keeps_four_bytes_per_voxel(tmp_path):
    # per volume: the float32 intensities (4 bytes per voxel) and the float32
    # cell table, 4 C / p^3 (0.09 at p = 8, 0.69 at p = 4); no feature grid is
    # kept.  The margin of 0.3 covers the lookup tables, the in-plane one
    # being 8 bytes per (h, w) position (0.17 per voxel at depth 48), and the
    # small objects.  A float64 (n_cells, C + 1) table would add 1.5 at p = 4
    # and a float64 z volume 8.  The template's uint8 label is not counted.
    # With truth_dir set the bound is the same: the truth is read one volume
    # at a time when a round is scored, where keeping it would add 0.75.
    spec = PhantomSpec(
        num_volumes=4,
        shape=Shape3(48, 48, 48),
        num_classes=2,
        classes=(ClassShape(center=(0.5, 0.5, 0.5), radii=(8.0, 8.0, 8.0)),),
        seed=22,
    )
    generate(spec, tmp_path / "data")
    for patch, truth_dir in ((8, None), (4, None), (4, tmp_path / "data" / "truth")):
        encoder = EncoderParams(patch_size=patch)
        config = PipelineConfig(
            manifest_path=tmp_path / "data" / "manifest.json",
            out_dir=tmp_path / f"run_{patch}",
            encoder=encoder,
            truth_dir=truth_dir,
        )
        bound = 4 + 4 * encoder_mod.CHANNELS / patch**3 + 0.3
        for extract_allowed in (True, False):  # round 0, then a later round's reload
            tracemalloc.start()
            try:
                ctx = build_context(config, extract_allowed)
                kept = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            voxels = sum(f.n_voxels for f in ctx.features.values())
            assert (kept - ctx.labeled_gt.data.nbytes) / voxels <= bound, (patch, truth_dir, extract_allowed)
            assert (ctx.truth is None) == (truth_dir is None)
            del ctx


def test_zscore_once_per_volume_per_context(dataset, tmp_path, monkeypatch):
    config = _config(dataset, tmp_path / "run")
    calls = []
    real = encoder_mod.zscore_scalars

    def zscore_scalars(data):
        calls.append(data.shape)
        return real(data)

    monkeypatch.setattr(encoder_mod, "zscore_scalars", zscore_scalars)
    monkeypatch.setattr(specialist, "zscore_scalars", zscore_scalars)
    # round 0: the encoder and the voxel features share one scalar pass per volume
    calls_before = encoder_mod.extract_call_count()
    build_context(config)
    assert encoder_mod.extract_call_count() - calls_before == 4
    assert len(calls) == 4  # the template and 3 pool volumes
    calls.clear()
    build_context(config, extract_allowed=False)  # a later round: grids reloaded
    assert len(calls) == 4


def test_config_doc_round_trips_every_field(tmp_path):
    config = PipelineConfig(
        manifest_path=tmp_path / "m.json",
        out_dir=tmp_path / "run",
        rounds=4,
        encoder=EncoderParams(patch_size=6),
        train=TrainConfig(iterations=77, batch_voxels=128),
        knn=7,
        q_unc=0.8,
        seed=5,
        refine=False,
        truth_dir=tmp_path / "truth",
    )
    # every persisted field differs from its default, so a dropped one shows
    defaults = PipelineConfig(manifest_path=tmp_path / "x.json", out_dir=tmp_path / "y")
    for f in fields(PipelineConfig):
        if f.name == "force":
            continue
        value, default = getattr(config, f.name), getattr(defaults, f.name)
        if is_dataclass(value):
            changed = [getattr(value, g.name) != getattr(default, g.name) for g in fields(value)]
            assert all(changed)
        else:
            assert value != default, f.name
    doc = json.loads(json.dumps(_config_doc(config)))
    assert "force" not in doc and "out_dir" not in doc
    assert sorted(doc["encoder"]) == ["patch_size"]
    assert sorted(doc["train"]) == ["batch_voxels", "iterations"]
    assert _config_from_doc(doc, config.out_dir) == config
    del doc["manifest"]
    with pytest.raises(ValueError, match="manifest"):
        _config_from_doc(doc, config.out_dir)


def test_previous_config_format_loads_and_resumes(dataset, main_run, tmp_path, monkeypatch):
    """A config.json of an earlier format still resumes: an ``out_dir`` key,
    input paths relative to the directory it is loaded from, the module
    constants and position settings at their fixed values, and a null
    ``val_manifest``, which every run wrote before the labeled validation set
    was removed, and ``train.seed`` at 0.  The keys earlier formats wrote
    that no ``_FIXED`` entry holds (``window``, ``stride``, ``threads``, and
    the consistency-term and validation settings) are refused instead; see
    the test below."""
    states, out = main_run
    resumed = tmp_path / "resumed"
    resumed.mkdir()
    shutil.copytree(out / "features", resumed / "features")
    shutil.copytree(out / "round_0", resumed / "round_0")
    monkeypatch.chdir(dataset.parent)
    doc = {
        "manifest": f"{dataset.name}/manifest.json",
        "out_dir": "elsewhere",
        "rounds": 2,
        "encoder": {"patch_size": 4, "include_position": True, "position_weight": 0.25},
        "train": {
            "iterations": 60, "base_lr": 0.01, "lr_power": 0.9, "momentum": 0.9,
            "weight_decay": 0.0001, "batch_voxels": 64, "ramp_fraction": 0.3,
            "dice_smooth": 1e-05, "seed": 0,
        },
        "knn": 2,
        "q_unc": 0.5,
        "seed": 7,
        "refine": True,
        "val_manifest": None,
        "truth_dir": f"{dataset.name}/truth",
    }
    (resumed / "config.json").write_text(json.dumps(doc))
    config = load_run_config(resumed)
    assert config == _config(dataset, resumed, rounds=2)
    state1 = run_round(config, 1, load_round_state(resumed, 0))
    assert _label_bytes(state1) == _label_bytes(states[1])


@pytest.mark.parametrize(
    "section, key, value",
    [
        (None, "threads", 1),
        (None, "window", [8, 8, 8]),
        (None, "stride", 3),
        ("train", "val_interval", 250),
        ("train", "lambda_max", 0.1),
        ("train", "ema_decay", 0.99),
        ("train", "noise_sigma", 0.1),
        (None, "kn", 1),
        ("train", "iteration", 99999),
        ("encoder", "out_dir", "elsewhere"),  # ignored at the top level only
    ],
)
def test_config_json_key_this_version_does_not_read_is_refused(dataset, tmp_path, section, key, value):
    """Before, each was dropped silently: a typo such as ``kn`` or
    ``train.iteration`` ran with the default, and a setting of an older
    version (which ``window``, ``stride``, ``threads`` and the consistency and
    validation settings are) looked as if it still took effect."""
    config = _config(dataset, tmp_path / "run")
    doc = json.loads(json.dumps(_config_doc(config)))
    (doc[section] if section else doc)[key] = value
    name = f"{section}.{key}" if section else key
    with pytest.raises(ValueError, match=re.escape(f"config.json: unknown key {name}")):
        _config_from_doc(doc, config.out_dir)
