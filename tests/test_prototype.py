"""Template prototypes and round-0 cosine propagation."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from protoloop.encoder import FeatureGrid
from protoloop.prototype import (
    argmax_softmax,
    compute_prototypes,
    initial_pseudo_label,
    similarity_maps,
)
from protoloop.volume import LabelVolume, Shape3, nearest_axis_indices

from .oracles import prototypes_oracle, round0_oracle


def _grid(data):
    data = np.asarray(data, dtype=np.float64)
    return FeatureGrid(channels=data.shape[0], grid_shape=Shape3(*data.shape[1:]), data=data)


def _labels(data, num_classes):
    data = np.asarray(data, dtype=np.uint8)
    return LabelVolume(Shape3(*data.shape), num_classes, data)


def test_prototype_constant_feature_single_class():
    v = np.array([3.0, 0.0, 4.0])
    data = np.tile(v[:, None, None, None], (1, 2, 2, 2))
    protos = compute_prototypes(_grid(data), _labels(np.ones((2, 2, 2)), 2))
    assert not protos[0].any()  # absent: a zero row
    np.testing.assert_allclose(protos[1], v / 5.0, atol=1e-7)
    assert not protos.flags.writeable


def test_prototype_orthogonal_classes_exact():
    # class 0 cells carry e0, class 1 cells carry e1
    labels = np.array([0, 0, 1, 1], dtype=np.uint8).reshape(4, 1, 1)
    data = np.zeros((2, 4, 1, 1))
    data[0, :2] = 1.0
    data[1, 2:] = 1.0
    protos = compute_prototypes(_grid(data), _labels(labels, 2))
    np.testing.assert_allclose(protos, np.eye(2), atol=1e-9)


def test_prototype_matches_oracle_seeded():
    rng = np.random.default_rng(77)
    for trial in range(10):
        c = int(rng.integers(2, 9))
        gs = (4, 4, 4)
        data = rng.normal(size=(c,) + gs)
        labels = rng.integers(0, 3, size=gs).astype(np.uint8)
        protos = compute_prototypes(_grid(data), _labels(labels, 3))
        present, vectors = prototypes_oracle(data, labels, 3)
        assert protos.shape == (3, c) and protos.dtype == np.float64
        assert not protos.flags.writeable
        assert protos.any(axis=1).tolist() == present
        for cls in range(3):
            if present[cls]:
                np.testing.assert_allclose(protos[cls], vectors[cls], atol=1e-6)
                assert abs(np.linalg.norm(protos[cls]) - 1.0) < 1e-6


def test_prototype_of_a_zero_mean_class_is_a_zero_row():
    # class 0's cells carry +e0 and -e0: their mean is the zero vector, which has no direction
    labels = np.array([0, 0, 1], dtype=np.uint8).reshape(3, 1, 1)
    data = np.zeros((2, 3, 1, 1))
    data[0, 0], data[0, 1], data[1, 2] = 1.0, -1.0, 2.0
    protos = compute_prototypes(_grid(data), _labels(labels, 2))
    assert protos.tolist() == [[0.0, 0.0], [0.0, 1.0]]


def test_all_zero_template_grid_yields_no_prototype():
    labels = np.array([0, 1, 1], dtype=np.uint8).reshape(3, 1, 1)
    with pytest.raises(ValueError, match="template grid yields no usable class prototype"):
        compute_prototypes(_grid(np.zeros((2, 3, 1, 1))), _labels(labels, 2))


def test_prototype_absent_class():
    data = np.ones((2, 2, 2, 2))
    labels = np.ones((2, 2, 2), dtype=np.uint8)  # class 2 never appears
    protos = compute_prototypes(_grid(data), _labels(labels, 3))
    assert protos.any(axis=1).tolist() == [False, True, False]


def test_similarity_identity_and_orthogonal():
    protos = np.eye(2)
    data = np.zeros((2, 1, 1, 2))
    data[:, 0, 0, 0] = (1.0, 0.0)   # equals prototype 0
    data[:, 0, 0, 1] = (0.0, 2.0)   # parallel to prototype 1
    sims = similarity_maps(_grid(data), protos)
    assert sims[0, 0, 0, 0] == pytest.approx(1.0)
    assert sims[1, 0, 0, 0] == pytest.approx(0.0)
    assert sims[1, 0, 0, 1] == pytest.approx(1.0)


def test_similarity_zero_cell_and_absent_class():
    protos = np.array([[1.0, 0.0], [0.0, 0.0]])
    data = np.zeros((2, 1, 1, 1))
    sims = similarity_maps(_grid(data), protos)
    assert sims[0, 0, 0, 0] == 0.0       # zero-norm cell scores 0 to present classes
    assert sims[1, 0, 0, 0] == -math.inf  # absent class can never win


def test_single_present_class_probability_one():
    protos = np.array([[0.0, 0.0], [1.0, 0.0]])
    rng = np.random.default_rng(2)
    data = rng.normal(size=(2, 2, 2, 2))
    labels = initial_pseudo_label(_grid(data), protos, Shape3(4, 4, 4))
    assert (labels.data == 1).all()


def test_softmax_analytic_two_class():
    scores = np.zeros((2, 1))
    scores[0] = 1.0
    assert argmax_softmax(scores).tolist() == [0]
    # one ulp apart, both exponentials round to 1.0: the softmax ties and the
    # lower class wins, where an argmax of the raw scores would pick class 1
    close = np.array([[0.1], [np.nextafter(0.1, 1.0)]])
    assert np.argmax(close[:, 0]) == 1
    assert argmax_softmax(close).tolist() == [0]


def test_round0_matches_oracle_bit_exact():
    rng = np.random.default_rng(2024)
    for trial in range(10):
        c = int(rng.integers(2, 7))
        gs = tuple(int(rng.integers(2, 5)) for _ in range(3))
        vol_shape = tuple(g * int(rng.integers(1, 4)) for g in gs)
        template_grid = rng.normal(size=(c,) + gs)
        template_labels = rng.integers(0, 2, size=vol_shape).astype(np.uint8)
        query_grid = rng.normal(size=(c,) + gs)

        tg, qg = _grid(template_grid), _grid(query_grid)
        protos = compute_prototypes(tg, _labels(template_labels, 2))
        labels = initial_pseudo_label(qg, protos, Shape3(*vol_shape))
        # feed the oracle the same stored (f32) grid values the engine sees
        expect = round0_oracle(
            tg.data.astype(np.float64),
            template_labels,
            qg.data.astype(np.float64),
            2,
            vol_shape,
        )
        assert labels.data.tobytes() == expect.tobytes()


@pytest.mark.parametrize(
    "vol_shape, grid_shape, absent",
    [((13, 17, 23), (4, 5, 6), 2), ((9, 8, 3), (3, 3, 1), 0)],
    ids=["13x17x23-on-4x5x6", "9x8x3-on-3x3x1"],
)
def test_round0_matches_oracle_on_ragged_shapes(vol_shape, grid_shape, absent):
    # extents that are not multiples of the grid, a class the template lacks
    # and a slab of zero-norm query cells, which tie and take the lower class
    rng = np.random.default_rng(sum(vol_shape))
    template = rng.normal(size=(5,) + grid_shape)
    query = rng.normal(size=(5,) + grid_shape)
    query[:, 0] = 0.0
    present = [c for c in range(3) if c != absent]
    template_labels = rng.choice(present, size=vol_shape).astype(np.uint8)

    tg, qg = _grid(template), _grid(query)
    protos = compute_prototypes(tg, _labels(template_labels, 3))
    assert not protos[absent].any()
    labels = initial_pseudo_label(qg, protos, Shape3(*vol_shape))
    expect = round0_oracle(
        tg.data.astype(np.float64), template_labels, qg.data.astype(np.float64), 3, vol_shape
    )
    assert labels.data.tobytes() == expect.tobytes()
    first_cell = nearest_axis_indices(grid_shape[0], vol_shape[0]) == 0
    assert (labels.data[first_cell] == min(present)).all()


def test_round0_allocates_no_per_voxel_floats():
    # labels are decided per cell; the volume only ever holds uint8 labels
    rng = np.random.default_rng(64)
    vectors = rng.normal(size=(2, 4))
    protos = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    grid = _grid(rng.normal(size=(4, 8, 8, 8)))
    shape = Shape3(64, 64, 64)
    initial_pseudo_label(grid, protos, shape)  # warm-up
    tracemalloc.start()
    try:
        initial_pseudo_label(grid, protos, shape)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * shape.voxels, f"{peak / shape.voxels:.1f} bytes per voxel"


def test_prototypes_and_similarities_have_the_whole_grid_bits():
    # computed per channel, they equal bit for bit the whole-grid float64
    # expressions they replace, past numpy's 8192-element buffer as well
    rng = np.random.default_rng(7)
    for channels, side in ((11, 24), (3, 5), (1, 9)):
        data = rng.normal(size=(channels, side, side, side)).astype(np.float32)
        data[:, 0, 0] = 0.0  # zero-norm cells
        grid = FeatureGrid(channels, Shape3(side, side, side), data)
        cell_labels = rng.integers(0, 3, size=(side, side, side))
        protos = compute_prototypes(grid, _labels(cell_labels, 3))
        feats = grid.data.astype(np.float64).reshape(channels, -1)
        for c in range(3):
            mask = cell_labels.reshape(-1) == c
            mean = feats[:, mask].sum(axis=1) / (int(mask.sum()) + 1e-8)
            assert protos[c].tobytes() == (mean / float(np.linalg.norm(mean))).tobytes()
        norms = np.linalg.norm(feats, axis=0)
        sims = protos @ (feats / np.where(norms == 0.0, 1.0, norms))
        sims[:, norms == 0.0] = 0.0
        assert similarity_maps(grid, protos).tobytes() == sims.tobytes()


def test_propagation_peak_per_cell():
    # above its inputs, initial_pseudo_label holds the grid's float64 copy
    # (8 C bytes per cell), divided by the norms in place, the norms and one
    # channel's squares (16), the similarities (8 k), a bool mask and small
    # objects, then its output; one more whole-grid float64 temporary, such as
    # np.linalg.norm's squares or a unit copy, adds 8 C.  compute_prototypes
    # holds a class mask and one channel's cells of a class at a time, where a
    # float64 copy of the grid and its masked copy held up to 16 C per cell
    rng = np.random.default_rng(5)
    channels, k, side = 11, 2, 24
    grid = FeatureGrid(
        channels, Shape3(side, side, side), rng.normal(size=(channels, side, side, side)).astype(np.float32)
    )
    template = _labels(rng.integers(0, k, size=(side,) * 3), k)
    cells = grid.grid_shape.voxels
    tracemalloc.start()
    try:
        protos = compute_prototypes(grid, template)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / cells <= 16, f"{peak / cells:.1f} bytes per cell"
    for scale in (1, 2):
        shape = Shape3(*(side * scale,) * 3)
        tracemalloc.start()
        try:
            labels = initial_pseudo_label(grid, protos, shape)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_cell = (peak - labels.data.nbytes) / cells
        assert per_cell <= 8 * channels + 8 * k + 24, f"{per_cell:.1f} bytes per cell at scale {scale}"


def test_volume_smaller_than_grid_rejected():
    protos = np.array([[1.0], [0.0]])
    with pytest.raises(ValueError, match="larger than the volume"):
        initial_pseudo_label(_grid(np.ones((1, 2, 2, 2))), protos, Shape3(1, 2, 2))


def test_self_consistency_orthogonal_fixture():
    # cell features are exactly the one-hot vector of the cell's class, so
    # propagating the template onto itself must reproduce the block labels
    rng = np.random.default_rng(8)
    gs = (3, 3, 3)
    p = 2
    vol_shape = tuple(g * p for g in gs)
    cell_labels = rng.integers(0, 3, size=gs).astype(np.uint8)
    data = np.zeros((3,) + gs)
    for cls in range(3):
        data[cls][cell_labels == cls] = 1.0
    full_labels = np.repeat(
        np.repeat(np.repeat(cell_labels, p, axis=0), p, axis=1), p, axis=2
    )
    protos = compute_prototypes(_grid(data), _labels(full_labels, 3))
    labels = initial_pseudo_label(_grid(data), protos, Shape3(*vol_shape))
    assert (labels.data == full_labels).all()


def test_argmax_shift_invariance():
    rng = np.random.default_rng(12)
    scores = rng.normal(size=(3, 8))
    assert (argmax_softmax(scores) == argmax_softmax(scores + 7.25)).all()


def test_channel_mismatch_rejected():
    protos = np.array([[1.0, 0.0], [0.0, 0.0]])
    grid = _grid(np.ones((3, 1, 1, 1)))
    with pytest.raises(ValueError, match="channels"):
        initial_pseudo_label(grid, protos, Shape3(1, 1, 1))


def test_all_neg_inf_voxel_rejected():
    scores = np.full((2, 1), -math.inf)
    with pytest.raises(ValueError):
        argmax_softmax(scores)
