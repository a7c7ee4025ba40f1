"""Round orchestration: persistence layout, resume, determinism, contracts."""
from __future__ import annotations

import json
import shutil
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from protoloop import encoder as encoder_mod
from protoloop.encoder import EncoderParams, FeatureGrid
from protoloop.phantom import ClassShape, PhantomSpec, generate
from protoloop.pipeline import (
    PipelineConfig,
    RoundState,
    _config_doc,
    build_context,
    config_from_doc,
    load_report,
    load_round_state,
    run_pipeline,
    run_round,
    run_round0,
)
from protoloop.specialist import TrainConfig
from protoloop.volume import (
    DatasetManifest,
    IntensityVolume,
    LabelVolume,
    Shape3,
    VolumeEntry,
    load_array,
    save_array,
    save_manifest,
)


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


@pytest.fixture(scope="module")
def main_run(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run_main")
    states = run_pipeline(_config(dataset, out, rounds=2))
    return states, out


def _label_bytes(state: RoundState) -> dict[str, bytes]:
    return {k: v.data.tobytes() for k, v in state.labels.items()}


# ---------------------------------------------------------------------------
# round 0

def test_round0_layout_and_reload(main_run):
    states, out = main_run
    r0 = out / "round_0"
    for vid in ("vol_001", "vol_002", "vol_003"):
        assert (r0 / f"{vid}.round0.label").exists()
    assert (r0 / "state.json").exists() and (r0 / "summary.json").exists()
    assert not (out / "round_0.tmp").exists()

    back = load_round_state(out, 0)
    assert back.round_index == 0 and not back.refined
    assert _label_bytes(back) == _label_bytes(states[0])

    summary = json.loads((r0 / "summary.json").read_text())
    for row in summary["volumes"]:
        assert 0.0 < row["foreground_fraction"] < 1.0


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

    states = run_pipeline(
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


# ---------------------------------------------------------------------------
# later rounds

def test_run_round_validation(dataset, tmp_path):
    config = _config(dataset, tmp_path / "run")
    r0 = RoundState(round_index=0, labels={})
    with pytest.raises(ValueError, match="entry point"):
        run_round(config, 0, r0)
    with pytest.raises(ValueError, match="previous state"):
        run_round(config, 2, r0)


def test_pipeline_states_and_report(main_run):
    states, out = main_run
    assert [s.round_index for s in states] == [0, 1, 2]
    assert states[1].refined and states[2].refined
    assert states[1].params is not None
    assert states[1].pseudo_label_dice is not None
    assert states[1].model_dice is not None

    report = load_report(out)
    rows = report["rounds"]
    assert [r["round"] for r in rows] == [0, 1, 2]
    assert rows[0]["threshold"] is None and rows[1]["threshold"] is not None
    # round 0 is charged with the feature extraction that run_pipeline did for it
    assert rows[0]["timings"]["features"] > 0
    # 3 pool volumes plus the labeled template, which is always certain
    assert rows[1]["n_certain"] + rows[1]["n_uncertain"] == 4
    assert rows[1]["n_uncertain"] >= 1
    assert report["offline_contract_honored"] is True
    text = (out / "report.txt").read_text()
    assert "encoder calls" in text and "honored" in text
    assert (out / "config.json").exists()


def test_round1_files_and_partition_records(main_run):
    _, out = main_run
    r1 = out / "round_1"
    state_doc = json.loads((r1 / "state.json").read_text())
    assert state_doc["refined"] is True
    for vid, name in state_doc["labels"].items():
        assert name == f"{vid}.round1.refined.label"
        assert (r1 / name).exists()
    for vid, name in state_doc["raw_labels"].items():
        assert name == f"{vid}.round1.raw.label"
        assert (r1 / name).exists()
    assert (r1 / "params.vxar").exists()
    assert (r1 / "train_log.jsonl").exists()

    unc = json.loads((r1 / "uncertainty.json").read_text())
    assert unc["round"] == 1
    assert isinstance(unc["threshold"], float)
    flags = {s["id"]: s["certain"] for s in unc["samples"]}
    assert set(flags) == {"vol_001", "vol_002", "vol_003"}
    # the stored certain set additionally holds the always-certain template
    pool_certain = set(state_doc["partition"]["certain"]) - {"vol_000"}
    assert sorted(pool_certain) == sorted(k for k, v in flags.items() if v)

    audit = json.loads((r1 / "refine_audit.json").read_text())
    assert audit["round"] == 1 and audit["refined"] is True
    assert len(audit["queries"]) == len(state_doc["partition"]["uncertain"]) > 0
    for q in audit["queries"]:
        sims = [n["similarity"] for n in q["neighbors"]]
        assert sims == sorted(sims, reverse=True)
        assert all(n["weight"] >= 0.0 for n in q["neighbors"])


def test_round_state_round_trip_full(main_run):
    states, out = main_run
    back = load_round_state(out, 1)
    assert _label_bytes(back) == _label_bytes(states[1])
    assert {k: v.data.tobytes() for k, v in back.raw_labels.items()} == {
        k: v.data.tobytes() for k, v in states[1].raw_labels.items()
    }
    assert back.partition == states[1].partition
    np.testing.assert_allclose(
        back.params.weights, states[1].params.weights, atol=1e-6
    )
    assert [u.vol_id for u in back.uncertainties] == [
        u.vol_id for u in states[1].uncertainties
    ]


def test_train_log_lines(main_run):
    _, out = main_run
    lines = (out / "round_1" / "train_log.jsonl").read_text().splitlines()
    assert len(lines) == 60
    first = json.loads(lines[0])
    assert first["iter"] == 0 and np.isfinite(first["loss"])


def test_pipeline_deterministic(dataset, main_run, tmp_path):
    states, _ = main_run
    again = run_pipeline(_config(dataset, tmp_path / "rerun", rounds=2))
    for a, b in zip(states, again):
        assert _label_bytes(a) == _label_bytes(b)
    assert states[1].partition == again[1].partition


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


def test_refine_ablation_keeps_raw(dataset, main_run, tmp_path):
    states, _ = main_run
    out = tmp_path / "norefine"
    plain = run_pipeline(_config(dataset, out, refine=False))
    assert plain[1].refined is False
    assert _label_bytes(plain[1]) == {
        k: v.data.tobytes() for k, v in plain[1].raw_labels.items()
    }
    # training is unaffected by the ablation, so the model output matches
    assert {k: v.data.tobytes() for k, v in plain[1].raw_labels.items()} == {
        k: v.data.tobytes() for k, v in states[1].raw_labels.items()
    }
    doc = json.loads((out / "round_1" / "state.json").read_text())
    for vid, name in doc["labels"].items():
        assert name == f"{vid}.round1.raw.label"
    audit = json.loads((out / "round_1" / "refine_audit.json").read_text())
    assert audit["queries"] == []


def test_offline_contract_blocks_reencoding(dataset, tmp_path):
    config = _config(dataset, tmp_path / "run")
    with pytest.raises(RuntimeError, match="not allowed"):
        build_context(config, extract_allowed=False)


def test_rerun_requires_force(dataset, main_run, tmp_path):
    _, out = main_run
    with pytest.raises(FileExistsError, match="force"):
        run_pipeline(_config(dataset, out, rounds=2))


def test_force_clears_previous_run(dataset, tmp_path):
    out = tmp_path / "run"
    run_pipeline(_config(dataset, out))
    first = load_report(out)
    states = run_pipeline(_config(dataset, out, force=True))
    assert len(states) == 2
    assert load_report(out)["rounds"][0]["round"] == first["rounds"][0]["round"] == 0


def test_validation_manifest_path(dataset, tmp_path):
    val_dir = tmp_path / "val"
    spec = PhantomSpec(
        num_volumes=2,
        shape=Shape3(12, 12, 12),
        num_classes=2,
        classes=(ClassShape(center=(0.5, 0.5, 0.5), radii=(3.5, 3.5, 3.5)),),
        noise_sigma=0.1,
        seed=77,
    )
    generate(spec, val_dir, all_labeled=True)
    config = _config(
        dataset, tmp_path / "run", val_manifest_path=val_dir / "manifest.json"
    )
    states = run_pipeline(config)
    assert states[1].params is not None
    assert (tmp_path / "run" / "features" / "val.vol_000.features.vxar").exists()


def test_threads_do_not_change_results(dataset, main_run, tmp_path):
    states, _ = main_run
    threaded = run_pipeline(_config(dataset, tmp_path / "mt", rounds=2, threads=4))
    for a, b in zip(states, threaded):
        assert _label_bytes(a) == _label_bytes(b)


# ---------------------------------------------------------------------------
# factorized features and config documents

def test_context_holds_factorized_features(dataset, tmp_path):
    ctx = build_context(_config(dataset, tmp_path / "run"))
    for vol_id, feats in ctx.store.features.items():
        grid = ctx.store.grids[vol_id]
        assert feats.cells.shape == (grid.grid_shape.voxels, grid.channels)
        assert feats.z.shape == (feats.shape.voxels,) and feats.z.dtype == np.float64


def test_config_doc_round_trips_every_field(tmp_path):
    config = PipelineConfig(
        manifest_path=tmp_path / "m.json",
        out_dir=tmp_path / "run",
        rounds=4,
        encoder=EncoderParams(patch_size=6, include_position=False, position_weight=0.5),
        train=TrainConfig(
            iterations=77, base_lr=0.02, lr_power=0.8, momentum=0.85, weight_decay=2e-4,
            batch_voxels=128, lambda_max=0.2, ramp_fraction=0.4, ema_decay=0.95,
            noise_sigma=0.2, dice_smooth=1e-4, val_interval=10, seed=3,
        ),
        knn=7,
        q_unc=0.8,
        seed=5,
        refine=False,
        threads=2,
        val_manifest_path=tmp_path / "val.json",
        truth_dir=tmp_path / "truth",
    )
    # every persisted field differs from its default, so a dropped one shows
    defaults = PipelineConfig(manifest_path=tmp_path / "x.json", out_dir=tmp_path / "y")
    for f in fields(PipelineConfig):
        if f.name == "force":
            continue
        value, default = getattr(config, f.name), getattr(defaults, f.name)
        if is_dataclass(value):
            assert all(getattr(value, g.name) != getattr(default, g.name) for g in fields(value))
        else:
            assert value != default, f.name
    doc = json.loads(json.dumps(_config_doc(config)))
    assert "force" not in doc
    assert config_from_doc(doc, config.out_dir) == config
    del doc["manifest"]
    with pytest.raises(ValueError, match="manifest"):
        config_from_doc(doc, config.out_dir)


def test_previous_config_format_loads_and_resumes(dataset, main_run, tmp_path):
    """A config.json of the earlier format, with window/stride keys, still resumes."""
    states, out = main_run
    resumed = tmp_path / "resumed"
    resumed.mkdir()
    shutil.copytree(out / "features", resumed / "features")
    shutil.copytree(out / "round_0", resumed / "round_0")
    doc = {
        "manifest": str(dataset / "manifest.json"),
        "out_dir": str(resumed),
        "rounds": 2,
        "encoder": {"patch_size": 4, "include_position": True, "position_weight": 0.25},
        "train": {
            "iterations": 60, "base_lr": 0.01, "lr_power": 0.9, "momentum": 0.9,
            "weight_decay": 0.0001, "batch_voxels": 64, "lambda_max": 0.1,
            "ramp_fraction": 0.3, "ema_decay": 0.99, "noise_sigma": 0.1,
            "dice_smooth": 1e-05, "val_interval": 250,
        },
        "knn": 2,
        "q_unc": 0.5,
        "seed": 7,
        "refine": True,
        "window": [8, 8, 8],
        "stride": 3,
        "threads": 1,
        "val_manifest": None,
        "truth_dir": str(dataset / "truth"),
    }
    (resumed / "config.json").write_text(json.dumps(doc))
    config = config_from_doc(json.loads((resumed / "config.json").read_text()), resumed)
    assert config == _config(dataset, resumed, rounds=2)
    state1 = run_round(config, 1, load_round_state(resumed, 0))
    assert _label_bytes(state1) == _label_bytes(states[1])
