"""Synthetic dataset generator: geometry, noise tiers, manifest layout."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from protoloop import phantom
from protoloop.phantom import ClassShape, PhantomSpec, generate, load_spec, save_spec
from protoloop.volume import Shape3, load_array

from .oracles import generate_whole_volume_oracle


def _single_class_spec(**overrides):
    base = dict(
        num_volumes=2,
        shape=Shape3(16, 16, 16),
        num_classes=2,
        classes=(ClassShape(center=(0.5, 0.5, 0.5), radii=(4.0, 4.0, 4.0)),),
        noise_sigma=0.0,
        seed=11,
    )
    base.update(overrides)
    return PhantomSpec(**base)


def _ellipsoid_oracle(shape, center, radii):
    """Voxel-center membership test, one voxel at a time."""
    mask = np.zeros(shape, dtype=bool)
    for d in range(shape[0]):
        for h in range(shape[1]):
            for w in range(shape[2]):
                q = sum(
                    ((i + 0.5 - c) / r) ** 2
                    for i, c, r in zip((d, h, w), center, radii)
                )
                mask[d, h, w] = q <= 1.0
    return mask


# ---------------------------------------------------------------------------
# validation

def test_spec_validation():
    with pytest.raises(ValueError, match="template"):
        _single_class_spec(num_volumes=1)
    with pytest.raises(ValueError, match="class shapes"):
        _single_class_spec(num_classes=3)
    with pytest.raises(ValueError, match="sigma"):
        _single_class_spec(noise_sigma=-0.1)
    with pytest.raises(ValueError, match="hard_fraction"):
        _single_class_spec(hard_fraction=1.0)
    with pytest.raises(ValueError, match="family"):
        ClassShape(family="cube")
    with pytest.raises(ValueError, match="radii"):
        ClassShape(radii=(1.0, 0.0, 1.0))


def test_infeasible_geometry_rejected():
    # lobe reach past the volume edge, directly or via jitter slack
    with pytest.raises(ValueError, match="infeasible"):
        _single_class_spec(shape=Shape3(8, 8, 8), classes=(ClassShape(radii=(5.0, 2.0, 2.0)),))
    with pytest.raises(ValueError, match="infeasible"):
        _single_class_spec(shape=Shape3(8, 8, 8), classes=(ClassShape(radii=(3.0, 3.0, 3.0)),), center_jitter=2.0)
    # second lobe of the two-ellipsoid family is part of the fit check
    with pytest.raises(ValueError, match="infeasible"):
        _single_class_spec(
            classes=(ClassShape(family="two_ellipsoids", radii=(4.0, 6.0, 4.0)),)
        )


def test_unplaceable_class_exhausts_retries(tmp_path):
    # a sub-voxel ellipsoid centered on a cell corner never covers a voxel center
    spec = _single_class_spec(
        shape=Shape3(8, 8, 8),
        classes=(ClassShape(center=(0.5, 0.5, 0.5), radii=(0.5, 0.5, 0.5)),),
    )
    with pytest.raises(ValueError, match="could not place"):
        generate(spec, tmp_path / "d")


# ---------------------------------------------------------------------------
# rasterization

def test_ellipsoid_matches_voxel_center_oracle(tmp_path):
    spec = _single_class_spec(
        shape=Shape3(12, 14, 10),
        classes=(ClassShape(center=(0.5, 0.5, 0.5), radii=(4.0, 5.0, 3.0)),),
    )
    _, truth = generate(spec, tmp_path / "d")
    expect = _ellipsoid_oracle((12, 14, 10), (6.0, 7.0, 5.0), (4.0, 5.0, 3.0))
    np.testing.assert_array_equal(truth["vol_000"].data.astype(bool), expect)


def test_two_ellipsoids_superset_of_one(tmp_path):
    kwargs = dict(center=(0.5, 0.4, 0.5), radii=(4.0, 4.0, 4.0))
    one = _single_class_spec(shape=Shape3(24, 24, 24), classes=(ClassShape(**kwargs),))
    two = _single_class_spec(
        shape=Shape3(24, 24, 24),
        classes=(ClassShape(family="two_ellipsoids", **kwargs),),
    )
    _, truth_one = generate(one, tmp_path / "a")
    _, truth_two = generate(two, tmp_path / "b")
    m1 = truth_one["vol_000"].data > 0
    m2 = truth_two["vol_000"].data > 0
    assert (m2 | m1).sum() == m2.sum()  # union adds nothing: superset
    assert m2.sum() > m1.sum()


def test_ellipsoid_count_near_analytic_volume(tmp_path):
    spec = _single_class_spec(
        shape=Shape3(20, 20, 20),
        classes=(ClassShape(center=(0.5, 0.5, 0.5), radii=(5.0, 6.0, 4.0)),),
    )
    _, truth = generate(spec, tmp_path / "d")
    count = int((truth["vol_000"].data > 0).sum())
    analytic = 4.0 / 3.0 * np.pi * 5.0 * 6.0 * 4.0
    assert abs(count - analytic) / analytic < 0.1


# ---------------------------------------------------------------------------
# dataset output

def test_generate_layout_and_manifest(tmp_path):
    spec = _single_class_spec(num_volumes=3)
    manifest, truth = generate(spec, tmp_path / "d")
    assert [e.vol_id for e in manifest.entries] == ["vol_000", "vol_001", "vol_002"]
    assert manifest.entries[0].label == "vol_000.label.vxar"
    assert all(e.label is None for e in manifest.entries[1:])
    assert manifest.num_classes == 2
    assert sorted(truth) == ["vol_000", "vol_001", "vol_002"]
    assert (tmp_path / "d" / "manifest.json").exists()
    for vid in truth:
        assert (tmp_path / "d" / f"{vid}.intensity.vxar").exists()
        stored = load_array(tmp_path / "d" / "truth" / f"{vid}.label.vxar")
        np.testing.assert_array_equal(stored.data, truth[vid].data)


def test_generation_deterministic(tmp_path):
    spec = _single_class_spec(num_volumes=3, noise_sigma=0.2, center_jitter=1.0, radius_jitter=0.5)
    _, truth_a = generate(spec, tmp_path / "a")
    _, truth_b = generate(spec, tmp_path / "b")
    for vid in truth_a:
        assert truth_a[vid].data.tobytes() == truth_b[vid].data.tobytes()
        raw_a = (tmp_path / "a" / f"{vid}.intensity.vxar").read_bytes()
        raw_b = (tmp_path / "b" / f"{vid}.intensity.vxar").read_bytes()
        assert raw_a == raw_b


def test_volume_streams_independent_of_count(tmp_path):
    # adding volumes must not change earlier ones (per-volume seeded streams)
    small = _single_class_spec(num_volumes=2, noise_sigma=0.2, center_jitter=1.0)
    large = _single_class_spec(num_volumes=4, noise_sigma=0.2, center_jitter=1.0)
    _, truth_s = generate(small, tmp_path / "s")
    _, truth_l = generate(large, tmp_path / "l")
    for vid in truth_s:
        assert truth_s[vid].data.tobytes() == truth_l[vid].data.tobytes()


def test_zero_noise_zero_jitter_clones(tmp_path):
    spec = _single_class_spec(num_volumes=4, background_mean=0.25)
    _, truth = generate(spec, tmp_path / "d")
    first = truth["vol_000"].data
    for vid in ("vol_001", "vol_002", "vol_003"):
        np.testing.assert_array_equal(truth[vid].data, first)
    vol = load_array(tmp_path / "d" / "vol_000.intensity.vxar")
    np.testing.assert_array_equal(
        vol.data, np.where(first > 0, np.float32(1.0), np.float32(0.25))
    )


def test_jittered_volumes_differ_but_keep_all_classes(tmp_path):
    spec = _single_class_spec(
        num_volumes=4,
        num_classes=3,
        classes=(
            ClassShape(center=(0.35, 0.35, 0.35), radii=(3.0, 3.0, 3.0)),
            ClassShape(center=(0.68, 0.68, 0.68), radii=(2.5, 2.5, 2.5)),
        ),
        center_jitter=1.0,
        radius_jitter=0.5,
    )
    _, truth = generate(spec, tmp_path / "d")
    assert any(
        not np.array_equal(truth[v].data, truth["vol_000"].data)
        for v in ("vol_001", "vol_002", "vol_003")
    )
    for lab in truth.values():
        counts = np.bincount(lab.data.reshape(-1), minlength=3)
        assert (counts > 0).all()


def test_hard_volumes_get_extra_noise(tmp_path):
    spec = _single_class_spec(
        num_volumes=4, noise_sigma=0.05, hard_fraction=0.5, hard_sigma=0.5
    )
    assert spec.hard_count == 2
    _, truth = generate(spec, tmp_path / "d")
    stds = {}
    for i in range(4):
        vid = f"vol_{i:03d}"
        vol = load_array(tmp_path / "d" / f"{vid}.intensity.vxar")
        bg = vol.data[truth[vid].data == 0]
        stds[i] = float(np.std(bg))
    assert stds[0] < 0.1 and stds[1] < 0.1
    assert stds[2] > 0.3 and stds[3] > 0.3


# ---------------------------------------------------------------------------
# slabbed synthesis against the whole-volume generator

_BYTE_EQUAL_SPECS = {
    # the benchmark's desk fixture: every volume is one slab
    "desk": dict(
        num_volumes=24,
        shape=Shape3(32, 32, 32),
        num_classes=2,
        classes=(ClassShape("two_ellipsoids", (0.5, 0.42, 0.5), (7.0, 7.0, 7.0), 1.0),),
        noise_sigma=0.35,
        seed=2024,
    ),
    # the benchmark's resume fixture: one slab, three classes, hard volumes
    "resume": dict(
        num_volumes=12,
        shape=Shape3(64, 64, 64),
        num_classes=3,
        classes=(
            ClassShape("two_ellipsoids", (0.5, 0.35, 0.5), (10.24, 10.24, 10.24), 1.0),
            ClassShape("ellipsoid", (0.5, 0.78, 0.5), (6.4, 6.4, 6.4), 2.0),
        ),
        noise_sigma=0.35,
        center_jitter=2.0,
        hard_fraction=0.25,
        hard_sigma=0.7,
        seed=99,
    ),
    # slabs of 32 planes and a last slab of 8; both lobes cross the slab edge
    "ragged-two-lobes": dict(
        num_volumes=3,
        shape=Shape3(40, 128, 64),
        num_classes=2,
        classes=(ClassShape("two_ellipsoids", (0.75, 0.3, 0.5), (6.0, 20.0, 12.0), 1.0),),
        noise_sigma=0.3,
        center_jitter=1.5,
        radius_jitter=1.0,
        seed=5,
    ),
    # a half-voxel class in the last slab that jitter often leaves empty
    "jitter-retry": dict(
        num_volumes=6,
        shape=Shape3(20, 128, 128),
        num_classes=3,
        classes=(
            ClassShape("ellipsoid", (0.4, 0.5, 0.5), (5.0, 20.0, 20.0), 1.0),
            ClassShape("ellipsoid", (0.9, 0.5, 0.5), (0.5, 0.5, 0.5), 2.0),
        ),
        noise_sigma=0.3,
        center_jitter=0.5,
        seed=3,
    ),
}


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(_BYTE_EQUAL_SPECS))
def test_slabbed_generate_byte_equal_to_whole_volume(tmp_path, monkeypatch, name):
    spec = PhantomSpec(**_BYTE_EQUAL_SPECS[name])
    masks, rasterize = [], phantom._rasterize

    def recorded(*args):
        masks.append(args[-2:])  # the slab's planes [d0, d1)
        return rasterize(*args)

    monkeypatch.setattr(phantom, "_rasterize", recorded)
    manifest, truth = generate(spec, tmp_path / "slabbed")
    want_manifest, want_truth = generate_whole_volume_oracle(spec, tmp_path / "whole")
    got, want = _files(tmp_path / "slabbed"), _files(tmp_path / "whole")
    assert sorted(got) == sorted(want) and len(got) == 2 * spec.num_volumes + 2
    for rel in want:
        assert got[rel] == want[rel], rel
    assert manifest.entries == want_manifest.entries
    assert all(truth[v].data.tobytes() == want_truth[v].data.tobytes() for v in want_truth)
    # the slabs each spec is meant to take
    slabs = sorted(set(masks))
    first_try = spec.num_volumes * (spec.num_classes - 1) * len(slabs)
    if name in ("desk", "resume"):
        assert slabs == [(0, spec.shape.d)] and len(masks) == first_try
    elif name == "ragged-two-lobes":
        assert slabs == [(0, 32), (32, 40)]
    else:
        assert slabs == [(0, 16), (16, 20)] and len(masks) > first_try


def test_generate_peak_is_one_volume_and_a_slab(tmp_path):
    # the float32 intensities (4 bytes per voxel) and one slab's float64 and
    # bool buffers (2.5 MB) on top of the returned labels: 5.7 here; the
    # whole-volume float64 normals and means took about 22 bytes per voxel
    spec = PhantomSpec(
        num_volumes=2,
        shape=Shape3(128, 128, 128),
        num_classes=2,
        classes=(ClassShape("two_ellipsoids", (0.5, 0.42, 0.5), (14.0, 28.0, 28.0), 1.0),),
        noise_sigma=0.35,
        center_jitter=4.0,
    )
    tracemalloc.start()
    try:
        _, truth = generate(spec, tmp_path / "d")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(lab.data.nbytes for lab in truth.values())
    assert (peak - returned) / spec.shape.voxels < 7.0


# ---------------------------------------------------------------------------
# spec files

def test_spec_round_trip(tmp_path):
    spec = _single_class_spec(
        num_volumes=5,
        noise_sigma=0.15,
        center_jitter=0.75,
        radius_jitter=0.25,
        hard_fraction=0.2,
        hard_sigma=0.4,
        background_mean=-0.5,
        seed=99,
    )
    save_spec(spec, tmp_path / "spec.json")
    assert load_spec(tmp_path / "spec.json") == spec


def test_spec_round_trip_defaults(tmp_path):
    spec = _single_class_spec()
    save_spec(spec, tmp_path / "spec.json")
    back = load_spec(tmp_path / "spec.json")
    assert back == spec
    assert back.hard_sigma is None


def test_load_spec_missing_field(tmp_path):
    (tmp_path / "bad.json").write_text('{"num_volumes": 3}')
    with pytest.raises(ValueError, match="missing required field"):
        load_spec(tmp_path / "bad.json")
