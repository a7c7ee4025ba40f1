"""Patch-statistics encoder: per-cell channels, pooling, external ingestion."""
from __future__ import annotations

import itertools
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from protoloop.encoder import (
    BASE_CHANNELS,
    CHANNELS,
    EncoderParams,
    FeatureGrid,
    extract_call_count,
    extract_feature_grid,
    global_feature,
    ingest_external_features,
    _axis_parts,
    _blocked,
    _order_statistics,
    apply_zscore,
    uniform_channel_count,
    zscore_scalars,
)
from protoloop.volume import IntensityVolume, Shape3, load_array, save_array, write_blob

from .oracles import (
    extract_grid_loop_oracle,
    extract_grid_whole_volume_oracle,
    gap_oracle,
    patch_features_oracle,
    zscore,
)


def _vol(data):
    data = np.asarray(data, dtype=np.float32)
    return IntensityVolume(Shape3(*data.shape), data)


def test_params_validation():
    EncoderParams(patch_size=2)
    with pytest.raises(ValueError):
        EncoderParams(patch_size=1)
    assert CHANNELS == 11


def test_constant_volume_zero_statistics():
    grid = extract_feature_grid(_vol(np.full((8, 8, 8), 5.0)), EncoderParams(patch_size=4))
    # z-score of a constant volume is all zeros, so every intensity statistic is 0
    for ch in range(BASE_CHANNELS):
        assert np.allclose(grid.data[ch], 0.0), ch
    # position channels survive and are strictly increasing along their axis
    pos_d = grid.data[BASE_CHANNELS]
    assert (np.diff(pos_d[:, 0, 0]) > 0).all()


def test_grid_shape_and_channels():
    grid = extract_feature_grid(_vol(np.zeros((8, 8, 8))), EncoderParams(patch_size=8))
    assert grid.grid_shape.as_tuple() == (1, 1, 1)
    assert grid.channels == 11
    grid = extract_feature_grid(_vol(np.zeros((9, 8, 3))), EncoderParams(patch_size=4))
    assert grid.grid_shape.as_tuple() == (3, 2, 1)  # ceil division, edge truncation
    assert grid.channels == 11


def test_extract_matches_oracle_seeded():
    rng = np.random.default_rng(123)
    for trial in range(6):
        shape = tuple(int(rng.integers(3, 11)) for _ in range(3))
        p = int(rng.integers(2, 5))
        data = rng.normal(size=shape)
        grid = extract_feature_grid(_vol(data), EncoderParams(patch_size=p))
        expect = patch_features_oracle(data.astype(np.float32), p)
        np.testing.assert_allclose(grid.data, expect, atol=1e-6)


def _assert_matches_loop(data, patch, pass_scalars=False):
    """With ``pass_scalars`` the volume's z-score scalars are passed in, as ``build_context`` does."""
    vol = _vol(data)
    params = EncoderParams(patch_size=patch)
    grid = extract_feature_grid(vol, params, zscore_scalars(vol.data) if pass_scalars else None)
    expect = extract_grid_loop_oracle(vol, params)
    assert grid.grid_shape == expect.grid_shape
    assert grid.patch_size == expect.patch_size == (patch, patch, patch)
    assert grid.data.tobytes() == expect.data.tobytes()


@pytest.mark.parametrize("pass_scalars", [True, False])
@pytest.mark.parametrize("patch", [2, 3, 4, 8])
@pytest.mark.parametrize(
    "shape", [(16, 16, 16), (13, 17, 23), (9, 8, 3), (30, 31, 29)], ids=str
)
def test_blocked_grid_byte_equal_to_loop(shape, patch, pass_scalars):
    rng = np.random.default_rng([*shape, patch])
    _assert_matches_loop(rng.normal(size=shape) * 3.0 + 1.0, patch, pass_scalars)


@pytest.mark.parametrize("shape", [(1, 12, 10), (9, 1, 7), (6, 5, 1), (1, 1, 9)], ids=str)
@pytest.mark.parametrize("patch", [2, 4])
def test_blocked_grid_byte_equal_axis_of_extent_one(shape, patch):
    # the gradient along an axis of extent 1 is all zeros
    data = np.random.default_rng(7).normal(size=shape)
    _assert_matches_loop(data, patch)
    grid = extract_feature_grid(_vol(data), EncoderParams(patch_size=patch))
    for axis, extent in enumerate(shape):
        if extent == 1:
            assert (grid.data[5 + axis] == 0.0).all()


@pytest.mark.parametrize("shape", [(2, 3, 2), (7, 7, 7), (1, 5, 3)], ids=str)
def test_blocked_grid_byte_equal_volume_smaller_than_patch(shape):
    data = np.random.default_rng(11).normal(size=shape)
    _assert_matches_loop(data, 8)


@pytest.mark.parametrize("patch", [2, 3, 8])
def test_blocked_grid_byte_equal_constant_volume(patch):
    _assert_matches_loop(np.full((10, 9, 8), -2.5), patch)


def test_blocked_grid_byte_equal_integer_valued_ties():
    # many repeated values: medians of even-sized patches average two equal ties
    data = np.random.default_rng(3).integers(0, 4, size=(12, 10, 9)).astype(np.float64)
    for patch in (2, 3, 4):
        _assert_matches_loop(data, patch)


def _assert_order_statistics_exact(blocks):
    want = (blocks.min(axis=-1), blocks.max(axis=-1), np.median(blocks, axis=-1))
    got = _order_statistics(blocks.copy())
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("n", range(1, 28))
def test_sorted_block_statistics_byte_equal_numpy_every_block_size(n):
    rng = np.random.default_rng(n)
    _assert_order_statistics_exact(zscore(rng.normal(size=(5, 4, 3, n))))
    # integer-valued: ties everywhere, and even sizes average two equal middles
    ties = zscore(rng.integers(0, 4, size=(5, 4, 3, n)))
    assert len(np.unique(ties)) <= 4
    _assert_order_statistics_exact(ties)


@pytest.mark.parametrize("shape, patch", [((13, 17, 23), 4), ((9, 8, 3), 2), ((7, 5, 6), 8)])
def test_sorted_block_statistics_byte_equal_numpy_on_ragged_regions(shape, patch):
    # every region the encoder blocks, edge patches truncated to their own extents
    z = zscore(np.random.default_rng(5).integers(-3, 4, size=shape))
    regions = list(itertools.product(*(_axis_parts(s, patch) for s in shape)))
    assert len(regions) == np.prod([1 + (0 < s % patch < s) for s in shape])
    for parts in regions:
        voxels, _, sizes = zip(*parts)
        _assert_order_statistics_exact(_blocked(z, voxels, sizes))


@pytest.mark.parametrize("patch", [3, 4])
def test_passed_scalars_give_the_same_grid(patch):
    vol = _vol(np.random.default_rng(12).normal(size=(13, 17, 23)))
    params = EncoderParams(patch_size=patch)
    own = extract_feature_grid(vol, params)
    offset, scale = zscore_scalars(vol.data)
    passed = extract_feature_grid(vol, params, (offset, scale))
    assert passed.data.tobytes() == own.data.tobytes()
    # the passed scalars are the ones used: another offset moves every mean
    shifted = extract_feature_grid(vol, params, (offset + 1.0, scale))
    assert (shifted.data[0] < own.data[0]).all()


@pytest.mark.parametrize(
    "data",
    [
        np.random.default_rng(21).normal(size=(13, 17, 23)) * 40.0 - 7.0,
        np.random.default_rng(22).integers(-3, 4, size=(9, 8, 3)).astype(np.float64),
        np.full((6, 5, 4), 0.1),  # constant: std 0
        np.full((3, 2, 2), -2.5e-30),
    ],
    ids=["normal", "integers", "constant", "constant-tiny"],
)
def test_zscore_scalars_reproduce_the_whole_volume_zscore(data):
    values = np.asarray(data, dtype=np.float32)
    scalars = zscore_scalars(values)
    z = apply_zscore(values, scalars)
    want = zscore(values)
    assert z.dtype == np.float64 and z.tobytes() == want.tobytes()
    # into a strided float64 buffer, as a batch column is filled: the same bits
    out = np.full((values.size, 2), np.nan)
    apply_zscore(values.reshape(-1), scalars, out=out[:, 1])
    assert out[:, 1].tobytes() == want.reshape(-1).tobytes()
    if np.unique(values).size == 1:
        assert scalars[1] == 1.0 and not np.signbit(z).any() and (z == 0.0).all()


def _bits(*xs):
    return np.array(xs, dtype=np.float64).tobytes()


def _numpy_scalars(values):
    data = np.asarray(values, dtype=np.float64)
    std = float(data.std())
    return float(data.mean()), (std if std != 0.0 else 1.0)


@settings(max_examples=300, deadline=None)
@given(
    arrays(
        np.float32,
        array_shapes(min_dims=3, max_dims=3, max_side=24),
        elements=st.floats(-1e6, 1e6, width=32),
    )
)
def test_zscore_scalars_are_numpy_mean_and_std_bit_for_bit(values):
    assert _bits(*zscore_scalars(values)) == _bits(*_numpy_scalars(values))


@pytest.mark.parametrize(
    "shape",
    [
        (64, 64, 64),
        (37, 129, 5),
        (1, 1, 1),
        (3, 1, 1031),
        (1, 1, 2**14 - 1),  # around one leaf of the streamed sums
        (1, 1, 2**14 + 1),
        (1, 1, 2**15 - 1),
        (1, 1, 2**15 + 1),
        (1, 1, 2**16 + 8),
        (1, 3, 2**16 + 7),
        (101, 173, 179),  # 3,127,487 values: leaves of unequal sizes
    ],
    ids=str,
)
def test_zscore_scalars_match_numpy_on_large_volumes(shape):
    # sizes past numpy's pairwise-summation blocks and the streamed leaves,
    # so the sums' order matters
    rng = np.random.default_rng(list(shape))
    for values in (rng.normal(size=shape) * 7.0 + 3.0, rng.gamma(0.5, size=shape) * 1e3):
        values = values.astype(np.float32)
        assert _bits(*zscore_scalars(values)) == _bits(*_numpy_scalars(values))


_SLAB_SHAPES = [
    (13, 17, 23),  # ragged on every axis for p > 1
    (16, 16, 16),
    (1, 12, 10),   # depth 1: no d-gradient
    (2, 9, 7),     # depth 2: one-sided d-gradient on both planes
    (5, 3, 11),    # a patch larger than an extent
    (9, 2, 1),
    (7, 7, 7),
]


@pytest.mark.parametrize("patch", [2, 3, 4, 8])
@pytest.mark.parametrize("shape", _SLAB_SHAPES, ids=str)
def test_slabbed_grid_byte_equal_to_whole_volume(shape, patch):
    rng = np.random.default_rng([*shape, patch, 1])
    for data in (rng.normal(size=shape) * 3.0 + 1.0, np.full(shape, 7.25)):
        vol = _vol(data)
        params = EncoderParams(patch_size=patch)
        grid = extract_feature_grid(vol, params)
        want = extract_grid_whole_volume_oracle(vol, params)
        assert grid.grid_shape == want.grid_shape
        assert grid.patch_size == want.patch_size
        assert grid.data.tobytes() == want.data.tobytes()


def _peak_per_voxel(fn, *args, voxels) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / voxels


def test_zscore_scalars_build_no_whole_volume_array():
    # one leaf's float64 buffer (2**14 values: 0.5 bytes per voxel here); the
    # whole-volume float64 cast took 8
    values = np.random.default_rng(65).normal(size=(64, 64, 64)).astype(np.float32)
    assert _peak_per_voxel(zscore_scalars, values, voxels=values.size) < 1.0


def test_extraction_builds_no_whole_volume_array():
    # no whole-volume array: a whole-volume z plus one blocked copy and one
    # gradient peaks at 24.5.  What is left is the grid and one row's arrays,
    # about (p + 2) / 64 of the volume each (4.1 here), with or without the
    # scalars passed in; one whole-volume float64 array would add 8.
    vol = _vol(np.random.default_rng(64).normal(size=(64, 64, 64)))
    params = EncoderParams(patch_size=4)
    for scalars in (None, zscore_scalars(vol.data)):
        assert _peak_per_voxel(extract_feature_grid, vol, params, scalars, voxels=vol.shape.voxels) <= 6.0


def test_extract_16_cubed_patch_8_mean_channel():
    rng = np.random.default_rng(99)
    data = rng.normal(size=(16, 16, 16))
    grid = extract_feature_grid(_vol(data), EncoderParams(patch_size=8))
    expect = patch_features_oracle(data.astype(np.float32), 8)
    np.testing.assert_allclose(grid.data[0], expect[0], atol=1e-6)


def test_shift_and_scale_invariance():
    rng = np.random.default_rng(17)
    data = rng.normal(size=(8, 8, 8)).astype(np.float32)
    params = EncoderParams(patch_size=4)
    base = extract_feature_grid(_vol(data), params)
    shifted = extract_feature_grid(_vol(data + 37.5), params)
    scaled = extract_feature_grid(_vol(data * 4.0), params)
    np.testing.assert_allclose(shifted.data, base.data, atol=1e-5)
    np.testing.assert_allclose(scaled.data, base.data, atol=1e-5)


def test_extract_deterministic():
    rng = np.random.default_rng(31)
    data = rng.normal(size=(7, 6, 5)).astype(np.float32)
    a = extract_feature_grid(_vol(data), EncoderParams(patch_size=3))
    b = extract_feature_grid(_vol(data), EncoderParams(patch_size=3))
    assert a.data.tobytes() == b.data.tobytes()


def test_extract_counter_increments():
    before = extract_call_count()
    extract_feature_grid(_vol(np.zeros((2, 2, 2))), EncoderParams(patch_size=2))
    assert extract_call_count() == before + 1


def test_extract_counter_exact_under_threads():
    vol = _vol(np.random.default_rng(5).normal(size=(4, 4, 4)))
    params = EncoderParams(patch_size=2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a lost update would show
    try:
        before = extract_call_count()
        with ThreadPoolExecutor(max_workers=2) as pool:
            calls = pool.map(lambda _: extract_feature_grid(vol, params), range(32), timeout=60)
            grids = list(calls)
        assert extract_call_count() == before + 32
    finally:
        sys.setswitchinterval(interval)
    assert len({g.data.tobytes() for g in grids}) == 1


def test_global_feature_analytic():
    data = np.zeros((2, 2, 2, 2))
    data[0] = 3.0
    data[1] = 4.0
    grid = FeatureGrid(channels=2, grid_shape=Shape3(2, 2, 2), data=data)
    g = global_feature(grid)
    np.testing.assert_allclose(g, [0.6, 0.8], atol=1e-12)
    assert g.dtype == np.float64 and g.shape == (2,)
    assert not g.flags.writeable


def test_global_feature_zero_grid_degenerate():
    grid = FeatureGrid(channels=3, grid_shape=Shape3(1, 2, 1), data=np.zeros((3, 1, 2, 1)))
    g = global_feature(grid)
    assert g.shape == (3,) and not g.flags.writeable
    assert (g == 0.0).all() and not np.signbit(g).any()  # +0.0, not -0.0


def test_global_feature_matches_oracle_seeded():
    rng = np.random.default_rng(55)
    for trial in range(10):
        c = int(rng.integers(1, 9))
        gs = tuple(int(rng.integers(1, 4)) for _ in range(3))
        data = rng.normal(size=(c,) + gs)
        g = global_feature(FeatureGrid(channels=c, grid_shape=Shape3(*gs), data=data))
        vec, degenerate = gap_oracle(data)
        assert not degenerate
        np.testing.assert_allclose(g, vec, atol=1e-6)
        assert abs(np.linalg.norm(g) - 1.0) < 1e-6


def test_ingest_verbatim_with_patch_inference(tmp_path):
    # external file without a patch size: inferred as ceil(vol extent / grid extent)
    path = tmp_path / "ext.vxar"
    rng = np.random.default_rng(1)
    data = rng.normal(size=(384, 8, 8, 8)).astype("<f4")
    header = {"dtype": "f32", "shape": [8, 8, 8], "order": "row-major", "channels": 384}
    write_blob(path, header, data.tobytes())
    grid = ingest_external_features(path, Shape3(128, 128, 128))
    assert grid.channels == 384
    assert grid.patch_size == (16, 16, 16)
    assert grid.data.tobytes() == data.astype(np.float32).tobytes()


def test_ingest_rejects_grid_larger_than_volume(tmp_path):
    path = tmp_path / "big.vxar"
    data = np.zeros((2, 4, 4, 4), dtype="<f4")
    header = {"dtype": "f32", "shape": [4, 4, 4], "order": "row-major", "channels": 2}
    write_blob(path, header, data.tobytes())
    with pytest.raises(ValueError, match="larger than volume"):
        ingest_external_features(path, Shape3(2, 4, 4))


def test_feature_grid_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    data = rng.normal(size=(6, 6, 6)).astype(np.float32)
    grid = extract_feature_grid(_vol(data), EncoderParams(patch_size=3))
    save_array(grid, tmp_path / "g.vxar")
    back = load_array(tmp_path / "g.vxar")
    assert isinstance(back, FeatureGrid)
    assert back.channels == grid.channels
    assert back.patch_size == grid.patch_size
    assert back.data.tobytes() == grid.data.tobytes()
    # ingestion of a built-in grid keeps the stored patch size verbatim
    again = ingest_external_features(tmp_path / "g.vxar", Shape3(6, 6, 6))
    assert again.data.tobytes() == grid.data.tobytes()


def test_uniform_channel_count():
    a = FeatureGrid(channels=2, grid_shape=Shape3(1, 1, 1), data=np.zeros((2, 1, 1, 1)))
    b = FeatureGrid(channels=3, grid_shape=Shape3(1, 1, 1), data=np.zeros((3, 1, 1, 1)))
    assert uniform_channel_count({"x": a}) == 2
    with pytest.raises(ValueError, match="channel"):
        uniform_channel_count({"x": a, "y": b})


def test_single_truncated_patch_volume():
    # a volume smaller than one patch is a single truncated cell, not an error
    grid = extract_feature_grid(_vol(np.ones((2, 3, 2))), EncoderParams(patch_size=8))
    assert grid.grid_shape.as_tuple() == (1, 1, 1)
