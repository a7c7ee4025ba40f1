"""Linear voxel classifier: loss, gradients, round training, inference."""
from __future__ import annotations

import numpy as np
import pytest

from protoloop import specialist
from protoloop.encoder import FeatureGrid
from protoloop.specialist import (
    EmaTeacher,
    LossTerms,
    SpecialistParams,
    TrainAssets,
    TrainConfig,
    TrainVolumeData,
    VoxelBatch,
    forward,
    infer,
    load_params,
    loss_and_grad,
    poly_lr,
    ramp_up_alpha,
    save_params,
    train_round,
    voxel_logits,
)
from protoloop.uncertainty import sample_uncertainty
from protoloop.volume import IntensityVolume, LabelVolume, ProbVolume, Shape3

from .oracles import (
    build_feature_matrix,
    finite_diff_grad,
    per_voxel_features,
    softmax_argmax_oracle,
)


def _vol(data):
    data = np.asarray(data, dtype=np.float32)
    return IntensityVolume(Shape3(*data.shape), data)


def _grid(data):
    data = np.asarray(data)
    return FeatureGrid(channels=data.shape[0], grid_shape=Shape3(*data.shape[1:]), data=data)


def _factorized(vol, grid):
    return TrainVolumeData.from_volume("v", vol, grid)


def _rows_data(name, rows):
    """An arbitrary (n, F) feature matrix as factorized data: one voxel per cell."""
    n = len(rows)
    return TrainVolumeData(
        vol_id=name,
        shape=Shape3(n, 1, 1),
        grid_shape=Shape3(n, 1, 1),
        cells=rows[:, :-1],
        z=rows[:, -1],
    )


def _random_batch(rng, n_l=6, n_p=6, c=3, f=4):
    return VoxelBatch(
        labeled_x=rng.normal(size=(n_l, f)),
        labeled_y=rng.integers(0, c, size=n_l),
        pseudo_x=rng.normal(size=(n_p, f)),
        pseudo_y=rng.integers(0, c, size=n_p),
        pseudo_x_noisy=rng.normal(size=(n_p, f)),
    )


# ---------------------------------------------------------------------------
# per-voxel features

def test_constant_volume_zero_intensity_feature():
    grid = _grid(np.ones((2, 2, 2, 2)))
    vol = _vol(np.full((4, 4, 4), 9.0))
    feat = per_voxel_features(vol, grid, (1, 2, 3))
    assert feat.shape == (3,)
    assert feat[-1] == 0.0  # constant volume z-scores to zero


def test_cell_boundary_mapping_4_to_2():
    # along a 4-voxel axis with 2 cells, voxels 0-1 read cell 0 and 2-3 cell 1
    data = np.zeros((1, 2, 1, 1))
    data[0, 0] = 5.0
    data[0, 1] = -5.0
    grid = _grid(data)
    vol = _vol(np.zeros((4, 1, 1)))
    assert per_voxel_features(vol, grid, (0, 0, 0))[0] == 5.0
    assert per_voxel_features(vol, grid, (1, 0, 0))[0] == 5.0
    assert per_voxel_features(vol, grid, (2, 0, 0))[0] == -5.0
    assert per_voxel_features(vol, grid, (3, 0, 0))[0] == -5.0


def test_feature_width_is_channels_plus_one():
    rng = np.random.default_rng(1)
    grid = _grid(rng.normal(size=(5, 2, 2, 2)))
    vol = _vol(rng.normal(size=(4, 4, 4)))
    assert per_voxel_features(vol, grid, (0, 0, 0)).shape == (6,)
    assert build_feature_matrix(vol, grid).shape == (64, 6)


def test_out_of_range_voxel_rejected():
    grid = _grid(np.zeros((2, 1, 1, 1)))
    vol = _vol(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="outside"):
        per_voxel_features(vol, grid, (2, 0, 0))


def test_feature_matrix_matches_per_voxel():
    rng = np.random.default_rng(7)
    grid = _grid(rng.normal(size=(3, 2, 2, 2)))
    vol = _vol(rng.normal(size=(3, 4, 5)))
    mat = build_feature_matrix(vol, grid)
    flat = 0
    for d in range(3):
        for h in range(4):
            for w in range(5):
                np.testing.assert_array_equal(mat[flat], per_voxel_features(vol, grid, (d, h, w)))
                flat += 1


# non-divisible extents, so edge cells cover fewer voxels than interior ones
ODD_SHAPE = (13, 17, 23)
ODD_GRID = (4, 5, 6)  # ceil(extent / 4) cells per axis, as at patch 4


def _odd_case(seed, num_classes, channels=5):
    rng = np.random.default_rng(seed)
    vol = _vol(rng.normal(size=ODD_SHAPE))
    grid = _grid(rng.normal(size=(channels,) + ODD_GRID).astype(np.float32))
    params = SpecialistParams(
        weights=rng.normal(size=(num_classes, channels + 1)), bias=rng.normal(size=num_classes)
    )
    return rng, vol, grid, params


@pytest.mark.parametrize("num_classes", [2, 3])
def test_gathered_rows_byte_equal_dense_rows(num_classes):
    rng, vol, grid, _ = _odd_case(70, num_classes)
    dense = build_feature_matrix(vol, grid)
    data = _factorized(vol, grid)
    idx = rng.integers(0, data.n_voxels, size=500)
    assert data.rows(idx).tobytes() == dense[idx].tobytes()
    assert data.rows(np.arange(data.n_voxels)).tobytes() == dense.tobytes()


@pytest.mark.parametrize("num_classes", [2, 3])
def test_factorized_logits_match_dense_oracle(num_classes, monkeypatch):
    monkeypatch.setattr(specialist, "_SLAB_VOXELS", 800)  # two 17x23 planes per slab
    _, vol, grid, params = _odd_case(71, num_classes)
    dense = build_feature_matrix(vol, grid) @ params.weights.T + params.bias
    slabs = list(voxel_logits(params, _factorized(vol, grid)))
    assert len(slabs) == 7
    assert [sl.start for sl, _ in slabs] == [0] + [sl.stop for sl, _ in slabs[:-1]]
    logits = np.concatenate([chunk for _, chunk in slabs], axis=1)
    assert logits.shape == (num_classes, vol.shape.voxels)
    np.testing.assert_allclose(logits.T, dense, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# forward / schedules

def test_forward_zero_model_uniform():
    params = SpecialistParams.zeros(4, 3)
    probs = forward(params, np.array([1.0, -2.0, 3.0]))
    np.testing.assert_allclose(probs, 0.25, atol=1e-12)


def test_forward_bias_analytic():
    params = SpecialistParams(weights=np.zeros((2, 1)), bias=np.array([10.0, -10.0]))
    probs = forward(params, np.array([0.0]))
    assert probs[0] == pytest.approx(1.0, abs=1e-8)
    assert probs[1] == pytest.approx(2.061153622438558e-09, rel=1e-6)


def test_forward_matches_softmax_oracle():
    rng = np.random.default_rng(12)
    for trial in range(10):
        c, f = int(rng.integers(2, 5)), int(rng.integers(1, 6))
        params = SpecialistParams(weights=rng.normal(size=(c, f)), bias=rng.normal(size=c))
        x = rng.normal(size=f)
        probs = forward(params, x)
        logits = [float(params.weights[k] @ x + params.bias[k]) for k in range(c)]
        _, expect = softmax_argmax_oracle(logits)
        np.testing.assert_allclose(probs, expect, atol=1e-6)
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)


def test_ramp_up_alpha_schedule():
    assert ramp_up_alpha(0, 1000) == 0.0
    assert ramp_up_alpha(300, 1000) == pytest.approx(1.0)
    assert ramp_up_alpha(500, 1000) == 1.0
    values = [ramp_up_alpha(t, 1000) for t in range(0, 1001, 25)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)
    with pytest.raises(ValueError):
        ramp_up_alpha(5, 0)
    with pytest.raises(ValueError):
        ramp_up_alpha(11, 10)


def test_poly_lr_schedule():
    assert poly_lr(0, 100, 0.01) == pytest.approx(0.01)
    assert poly_lr(100, 100, 0.01) == 0.0
    assert poly_lr(50, 100, 0.01) == pytest.approx(0.01 * 0.5**0.9)


def test_zero_lr_step_is_noop():
    # an SGD step scaled by lr = 0 leaves the parameters at initialization
    rng = np.random.default_rng(3)
    params = SpecialistParams.zeros(2, 2)
    terms, (dw, db) = loss_and_grad(params, params, _random_batch(rng, c=2, f=2), 0.5, 0.1)
    after = SpecialistParams(
        weights=params.weights - 0.0 * dw, bias=params.bias - 0.0 * db
    )
    assert (after.weights == params.weights).all()
    assert (after.bias == params.bias).all()


# ---------------------------------------------------------------------------
# EMA teacher

def test_ema_update_exact():
    rng = np.random.default_rng(5)
    start = SpecialistParams(weights=rng.normal(size=(2, 3)), bias=rng.normal(size=2))
    student = SpecialistParams(weights=rng.normal(size=(2, 3)), bias=rng.normal(size=2))
    teacher = EmaTeacher(start, 0.99)
    teacher.update(student)
    np.testing.assert_allclose(
        teacher.shadow.weights, 0.99 * start.weights + 0.01 * student.weights, atol=1e-12
    )
    np.testing.assert_allclose(
        teacher.shadow.bias, 0.99 * start.bias + 0.01 * student.bias, atol=1e-12
    )
    with pytest.raises(ValueError):
        EmaTeacher(start, 1.0)


# ---------------------------------------------------------------------------
# loss

def test_loss_reduces_to_sup_when_weights_zero():
    rng = np.random.default_rng(8)
    batch = _random_batch(rng)
    params = SpecialistParams(weights=rng.normal(size=(3, 4)), bias=rng.normal(size=3))
    terms, _ = loss_and_grad(params, params, batch, alpha=0.0, lam=0.0)
    assert terms.total == terms.sup


def test_loss_decomposition_exact():
    rng = np.random.default_rng(9)
    batch = _random_batch(rng)
    params = SpecialistParams(weights=rng.normal(size=(3, 4)), bias=rng.normal(size=3))
    teacher = SpecialistParams(weights=rng.normal(size=(3, 4)), bias=rng.normal(size=3))
    for alpha, lam in [(0.3, 0.05), (1.0, 0.1), (0.0, 0.0)]:
        terms, _ = loss_and_grad(params, teacher, batch, alpha, lam)
        assert terms.total == terms.sup + lam * terms.unsup + alpha * terms.pseudo


def test_perfect_prediction_loss_floor():
    # huge margins: CE ~ 0 and the soft-Dice loss sits at its smooth-term floor
    n, c = 8, 2
    y = np.array([0, 1] * 4)
    x = np.where(y[:, None] == 1, 1.0, -1.0)
    params = SpecialistParams(weights=np.array([[-50.0], [50.0]]), bias=np.zeros(2))
    batch = VoxelBatch(
        labeled_x=x, labeled_y=y, pseudo_x=x, pseudo_y=y, pseudo_x_noisy=x
    )
    terms, _ = loss_and_grad(params, params, batch, 0.0, 0.0)
    assert terms.sup < 1e-5


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2718)
    for trial in range(5):
        c = int(rng.integers(2, 4))
        f = int(rng.integers(2, 5))
        batch = _random_batch(rng, n_l=5, n_p=4, c=c, f=f)
        params = SpecialistParams(
            weights=0.5 * rng.normal(size=(c, f)), bias=0.5 * rng.normal(size=c)
        )
        teacher = SpecialistParams(
            weights=0.5 * rng.normal(size=(c, f)), bias=0.5 * rng.normal(size=c)
        )
        alpha, lam = float(rng.uniform(0, 1)), float(rng.uniform(0, 0.2))

        def loss_fn(w, b):
            p = SpecialistParams(weights=w, bias=b)
            terms, _ = loss_and_grad(p, teacher, batch, alpha, lam)
            return terms.total

        _, (dw, db) = loss_and_grad(params, teacher, batch, alpha, lam)
        fd_w, fd_b = finite_diff_grad(loss_fn, params.weights.copy(), params.bias.copy(), h=1e-5)
        scale = max(np.abs(dw).max(), np.abs(db).max(), np.abs(fd_w).max(), 1e-8)
        assert np.abs(dw - fd_w).max() / scale < 1e-4
        assert np.abs(db - fd_b).max() / scale < 1e-4


def test_batch_validation():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        VoxelBatch(
            labeled_x=np.zeros((0, 2)),
            labeled_y=np.zeros(0, dtype=int),
            pseudo_x=rng.normal(size=(2, 2)),
            pseudo_y=np.zeros(2, dtype=int),
            pseudo_x_noisy=rng.normal(size=(2, 2)),
        )


# ---------------------------------------------------------------------------
# round training

def _separable_assets(rng, n=64, noise=0.05):
    """Features that a linear model can fit: class-aligned signed channel."""

    def vol_data(name):
        y = rng.integers(0, 2, size=n)
        base = np.where(y[:, None] == 1, 1.0, -1.0)
        extra = rng.normal(scale=noise, size=(n, 2))
        return _rows_data(name, np.hstack([base, extra])), y

    labeled, labeled_y = vol_data("t")
    pool_u, pool_y = vol_data("u")
    pseudo = {
        "u": LabelVolume(Shape3(4, 4, 4), 2, pool_y.astype(np.uint8).reshape(4, 4, 4))
    }
    return (
        TrainAssets(
            num_classes=2, labeled=labeled, labeled_targets=labeled_y, pool=(pool_u,)
        ),
        pseudo,
        pool_u,
        pool_y,
    )


def test_train_round_fits_separable_fixture():
    rng = np.random.default_rng(1234)
    assets, pseudo, pool_u, pool_y = _separable_assets(rng)
    config = TrainConfig(iterations=500, batch_voxels=64, seed=5)
    params, log = train_round(assets, pseudo, config, 1)
    pred = infer(params, pool_u)[0].data.reshape(-1)
    p, t = pred > 0, pool_y > 0
    dice = 2.0 * np.logical_and(p, t).sum() / max(1, p.sum() + t.sum())
    assert dice > 0.95
    assert len(log) == 500
    assert all(np.isfinite(rec["loss"]) for rec in log)
    assert log[-1]["lr"] > 0.0  # last step uses the pre-final LR, 0 only at t=total


def test_train_round_deterministic():
    rng = np.random.default_rng(77)
    assets, pseudo, _, _ = _separable_assets(rng)
    config = TrainConfig(iterations=50, batch_voxels=32, seed=9)
    params_a, log_a = train_round(assets, pseudo, config, 1)
    params_b, log_b = train_round(assets, pseudo, config, 1)
    assert params_a.weights.tobytes() == params_b.weights.tobytes()
    assert params_a.bias.tobytes() == params_b.bias.tobytes()
    assert log_a == log_b


def test_train_round_validation_selection():
    rng = np.random.default_rng(31)
    assets, pseudo, pool_u, pool_y = _separable_assets(rng)
    val = (pool_u, pool_y.copy())
    assets = TrainAssets(
        num_classes=2,
        labeled=assets.labeled,
        labeled_targets=assets.labeled_targets,
        pool=assets.pool,
        validation=(val,),
    )
    config = TrainConfig(iterations=300, batch_voxels=64, seed=4, val_interval=50)
    params, _ = train_round(assets, pseudo, config, 1)
    pred = infer(params, pool_u)[0].data.reshape(-1)
    p, t = pred > 0, pool_y > 0
    dice = 2.0 * np.logical_and(p, t).sum() / max(1, p.sum() + t.sum())
    assert dice > 0.9  # the selected checkpoint must beat the zero init


def test_train_round_missing_pseudo_labels():
    rng = np.random.default_rng(3)
    assets, pseudo, _, _ = _separable_assets(rng)
    with pytest.raises(ValueError, match="missing"):
        train_round(assets, {}, TrainConfig(iterations=1, batch_voxels=8), 1)


def test_log_contains_schedule_fields():
    rng = np.random.default_rng(6)
    assets, pseudo, _, _ = _separable_assets(rng)
    config = TrainConfig(iterations=10, batch_voxels=16, seed=0, ramp_fraction=0.5)
    _, log = train_round(assets, pseudo, config, 2)
    for rec in log:
        assert set(rec) == {"iter", "lr", "alpha", "lambda", "loss", "l_sup", "l_unsup", "l_pseudo"}
        assert rec["lambda"] == pytest.approx(0.1 * rec["alpha"])


# ---------------------------------------------------------------------------
# inference

def test_infer_full_volume_equals_forward(monkeypatch):
    # labels are the argmax and the fused entropy the ProbVolume entropy of
    # the dense oracle's probabilities, on a divisible and a non-divisible
    # case, the latter split into several slabs
    monkeypatch.setattr(specialist, "_SLAB_VOXELS", 800)
    rng = np.random.default_rng(50)
    even = (
        _vol(rng.normal(size=(4, 4, 4))),
        _grid(rng.normal(size=(3, 2, 2, 2))),
        SpecialistParams(weights=rng.normal(size=(2, 4)), bias=rng.normal(size=2)),
    )
    cases = [even] + [_odd_case(72, k)[1:] for k in (2, 3)]
    for vol, grid, params in cases:
        k = params.num_classes
        probs = forward(params, build_feature_matrix(vol, grid))
        labels, entropy = infer(params, _factorized(vol, grid))
        assert labels.num_classes == k
        assert (labels.data.reshape(-1) == np.argmax(probs, axis=1)).all()
        dense = ProbVolume(vol.shape, k, probs.T.reshape((k,) + vol.shape.as_tuple()))
        assert entropy == pytest.approx(sample_uncertainty(dense).value, abs=1e-9)


def test_infer_prob_rows_sum_to_one():
    # the softmax of the factorized logits is a valid probability volume, and
    # the fused pass reports that volume's mean entropy
    rng = np.random.default_rng(52)
    grid = _grid(rng.normal(size=(2, 2, 2, 2)))
    vol = _vol(rng.normal(size=(5, 5, 5)))
    params = SpecialistParams(weights=rng.normal(size=(3, 3)), bias=rng.normal(size=3))
    data = _factorized(vol, grid)
    probs = forward(params, data.rows(np.arange(data.n_voxels)))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    prob_vol = ProbVolume(vol.shape, 3, probs.T.reshape(3, 5, 5, 5))
    assert infer(params, data)[1] == pytest.approx(sample_uncertainty(prob_vol).value, abs=1e-9)


def test_infer_zero_model_is_uniform():
    # all logits tie: class 0 everywhere, entropy exactly ln(num_classes)
    vol = _vol(np.random.default_rng(53).normal(size=(3, 4, 5)))
    data = _factorized(vol, _grid(np.ones((2, 2, 2, 2))))
    labels, entropy = infer(SpecialistParams.zeros(3, 3), data)
    assert not labels.data.any()
    assert entropy == pytest.approx(np.log(3), abs=1e-12)


def test_infer_validation():
    data = _factorized(_vol(np.zeros((2, 2, 2))), _grid(np.zeros((2, 1, 1, 1))))
    with pytest.raises(ValueError, match="feature width"):
        infer(SpecialistParams.zeros(2, 4), data)


def test_factorized_data_validation():
    with pytest.raises(ValueError, match="cell table"):
        TrainVolumeData("v", Shape3(2, 2, 2), Shape3(1, 1, 2), np.zeros((1, 3)), np.zeros(8))
    with pytest.raises(ValueError, match="z volume"):
        TrainVolumeData("v", Shape3(2, 2, 2), Shape3(1, 1, 1), np.zeros((1, 3)), np.zeros(7))


# ---------------------------------------------------------------------------
# parameter files

def test_params_round_trip(tmp_path):
    rng = np.random.default_rng(60)
    params = SpecialistParams(
        weights=rng.normal(size=(3, 5)).astype(np.float32).astype(np.float64),
        bias=rng.normal(size=3).astype(np.float32).astype(np.float64),
    )
    save_params(params, tmp_path / "p.vxar", round_index=2, iteration=99)
    back, meta = load_params(tmp_path / "p.vxar")
    np.testing.assert_array_equal(back.weights, params.weights)
    np.testing.assert_array_equal(back.bias, params.bias)
    assert meta["round"] == 2 and meta["iteration"] == 99
    assert meta["num_classes"] == 3 and meta["features"] == 5


def test_load_params_rejects_other_files(tmp_path):
    vol = _vol(np.zeros((2, 2, 2)))
    from protoloop.volume import save_array

    save_array(vol, tmp_path / "v.vxar")
    with pytest.raises(ValueError, match="parameter"):
        load_params(tmp_path / "v.vxar")
