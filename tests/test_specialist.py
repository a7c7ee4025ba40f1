"""Linear voxel classifier: loss, gradients, round training, inference."""
from __future__ import annotations

import os
import re
import time
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protoloop import encoder as encoder_mod
from protoloop import specialist
from protoloop.encoder import EncoderParams, FeatureGrid
from protoloop.specialist import (
    SpecialistParams,
    TrainConfig,
    TrainVolumeData,
    infer,
    load_params,
    loss_and_grad,
    save_params,
    train_round,
    voxel_logits,
)
from protoloop.volume import IntensityVolume, LabelVolume, Shape3, read_header

from . import oracles
from .oracles import (
    build_feature_matrix,
    entropy_oracle,
    finite_diff_grad,
    forward,
    infer_oracle,
    loss_and_grad_oracle,
    per_voxel_features,
    sample_uncertainty,
    softmax_argmax_oracle,
    train_round_loop_oracle,
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
    """An (n, F) feature matrix as factorized data: one voxel per cell.

    The last column is the intensity, taken with offset 0 and scale 1.  Cells
    and intensities are held as float32, so every column must hold float32
    values for the rows to come back unchanged.
    """
    n = len(rows)
    as_f32 = rows.astype(np.float32)
    assert (as_f32 == rows).all(), "rows are not float32-valued"
    return TrainVolumeData(
        vol_id=name,
        shape=Shape3(n, 1, 1),
        grid_shape=Shape3(n, 1, 1),
        cells=np.ascontiguousarray(as_f32[:, :-1]),
        values=as_f32[:, -1],
        offset=0.0,
        scale=1.0,
    )


def _random_batch(rng, n_l=6, n_p=6, c=3, f=4):
    """``loss_and_grad``'s batch arguments: stacked rows, labeled targets, pseudo targets."""
    x_l, y_l = rng.normal(size=(n_l, f)), rng.integers(0, c, size=n_l)
    x_p, y_p = rng.normal(size=(n_p, f)), rng.integers(0, c, size=n_p)
    return np.vstack([x_l, x_p]), y_l, y_p


def _pair(params):
    return params.weights, params.bias


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


def test_fixed_settings_keep_their_values():
    # every frozen Dice value and label digest was made with these
    fixed = (
        specialist.BASE_LR, specialist.LR_POWER, specialist.MOMENTUM, specialist.WEIGHT_DECAY,
        specialist.RAMP_FRACTION, specialist.DICE_SMOOTH, encoder_mod.POSITION_WEIGHT,
    )
    assert fixed == (0.01, 0.9, 0.9, 1e-4, 0.3, 1e-5, 0.25)
    assert [f.name for f in fields(TrainConfig)] == ["iterations", "batch_voxels"]
    assert [f.name for f in fields(EncoderParams)] == ["patch_size"]


def test_train_seed_is_accepted_at_zero_only():
    # a round's model is seeded seed ^ round; a train seed is not a setting
    assert TrainConfig(seed=0) == TrainConfig()
    with pytest.raises(ValueError, match="train.seed=3 is fixed at 0; set seed"):
        TrainConfig(seed=3)


def test_zero_lr_step_is_noop():
    # an SGD step scaled by lr = 0 leaves the parameters at initialization
    rng = np.random.default_rng(3)
    params = SpecialistParams.zeros(2, 2)
    _, (dw, db) = loss_and_grad(_pair(params), *_random_batch(rng, c=2, f=2), 0.5)
    after = SpecialistParams(
        weights=params.weights - 0.0 * dw, bias=params.bias - 0.0 * db
    )
    assert (after.weights == params.weights).all()
    assert (after.bias == params.bias).all()


# ---------------------------------------------------------------------------
# loss

def test_loss_reduces_to_sup_when_weights_zero():
    rng = np.random.default_rng(8)
    batch = _random_batch(rng)
    params = SpecialistParams(weights=rng.normal(size=(3, 4)), bias=rng.normal(size=3))
    (total, sup, _), _ = loss_and_grad(_pair(params), *batch, alpha=0.0)
    assert total == sup


def test_loss_decomposition_exact():
    rng = np.random.default_rng(9)
    batch = _random_batch(rng)
    params = SpecialistParams(weights=rng.normal(size=(3, 4)), bias=rng.normal(size=3))
    for alpha in (0.3, 1.0, 0.0):
        (total, sup, pseudo), _ = loss_and_grad(_pair(params), *batch, alpha)
        assert total == sup + alpha * pseudo


def test_perfect_prediction_loss_floor():
    # huge margins: CE ~ 0 and the soft-Dice loss sits at its smooth-term floor
    n, c = 8, 2
    y = np.array([0, 1] * 4)
    x = np.where(y[:, None] == 1, 1.0, -1.0)
    params = SpecialistParams(weights=np.array([[-50.0], [50.0]]), bias=np.zeros(2))
    (_, sup, _), _ = loss_and_grad(_pair(params), np.vstack([x, x]), y, y, 0.0)
    assert sup < 1e-5


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2718)
    for trial in range(5):
        c = int(rng.integers(2, 4))
        f = int(rng.integers(2, 5))
        batch = _random_batch(rng, n_l=5, n_p=4, c=c, f=f)
        params = SpecialistParams(
            weights=0.5 * rng.normal(size=(c, f)), bias=0.5 * rng.normal(size=c)
        )
        alpha = float(rng.uniform(0, 1))

        def loss_fn(w, b):
            (total, _, _), _ = loss_and_grad((w, b), *batch, alpha)
            return total

        _, (dw, db) = loss_and_grad(_pair(params), *batch, alpha)
        fd_w, fd_b = finite_diff_grad(loss_fn, params.weights.copy(), params.bias.copy(), h=1e-5)
        scale = max(np.abs(dw).max(), np.abs(db).max(), np.abs(fd_w).max(), 1e-8)
        assert np.abs(dw - fd_w).max() / scale < 1e-4
        assert np.abs(db - fd_b).max() / scale < 1e-4


def _bits(*values) -> bytes:
    return b"".join(np.asarray(v, dtype=np.float64).tobytes() for v in values)


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 9),
    n_l=st.integers(1, 40),
    odd=st.booleans(),
    missing=st.sampled_from([None, "labeled", "pseudo"]),
    alpha=st.sampled_from([0.0, 1.0, None]),
)
@example(seed=4, k=9, n_l=1, odd=False, missing=None, alpha=None)
def test_fused_loss_equals_per_half_loss_bit_for_bit(seed, k, n_l, odd, missing, alpha):
    # the whole-batch pass against the per-half pass it replaced: loss
    # terms, d_w and d_b, bit for bit, also where a class is absent from a
    # half (its Dice term is then the smoothing ratio), on odd batches, and
    # on one-voxel halves, whose class sums numpy takes pairwise at k >= 8
    rng = np.random.default_rng(seed)
    n_p = n_l + odd
    f = int(rng.integers(1, 7))
    x = rng.normal(size=(n_l + n_p, f))
    labeled_y = rng.integers(0, k, size=n_l).astype(np.uint8)
    pseudo_y = rng.integers(0, k, size=n_p).astype(np.uint8)
    if missing is not None:
        half = labeled_y if missing == "labeled" else pseudo_y
        absent = int(rng.integers(k))
        half[half == absent] = (absent + 1) % k
    params = (rng.normal(scale=float(rng.choice([0.1, 1.0, 10.0])), size=(k, f)), rng.normal(size=k))
    alpha = float(rng.uniform()) if alpha is None else alpha
    terms, (d_w, d_b) = loss_and_grad(params, x, labeled_y, pseudo_y, alpha)
    want_terms, (want_w, want_b) = loss_and_grad_oracle(params, x, labeled_y, pseudo_y, alpha)
    assert _bits(*terms) == _bits(*want_terms)
    assert d_w.tobytes() == want_w.tobytes() and d_b.tobytes() == want_b.tobytes()


# ---------------------------------------------------------------------------
# round training

def _separable_assets(rng, n=64, noise=0.05):
    """Features that a linear model can fit: class-aligned signed channel."""

    def vol_data(name):
        y = rng.integers(0, 2, size=n)
        base = np.where(y[:, None] == 1, 1.0, -1.0)
        extra = rng.normal(scale=noise, size=(n, 2)).astype(np.float32)
        return _rows_data(name, np.hstack([base, extra])), y

    labeled, labeled_y = vol_data("t")
    pool_u, pool_y = vol_data("u")
    pseudo = {
        "u": LabelVolume(Shape3(4, 4, 4), 2, pool_y.astype(np.uint8).reshape(4, 4, 4))
    }
    labeled_gt = LabelVolume(labeled.shape, 2, labeled_y.astype(np.uint8).reshape(n, 1, 1))
    return (labeled, labeled_gt, [pool_u]), pseudo, pool_u, pool_y


def test_train_round_fits_separable_fixture():
    rng = np.random.default_rng(1234)
    inputs, pseudo, pool_u, pool_y = _separable_assets(rng)
    config = TrainConfig(iterations=500, batch_voxels=64)
    params, log = train_round(*inputs, pseudo, config, seed=5)
    pred = infer(params, pool_u)[0].data.reshape(-1)
    p, t = pred > 0, pool_y > 0
    dice = 2.0 * np.logical_and(p, t).sum() / max(1, p.sum() + t.sum())
    assert dice > 0.95
    assert len(log) == 500
    assert all(np.isfinite(rec["loss"]) for rec in log)
    assert log[-1]["lr"] > 0.0  # last step uses the pre-final LR, 0 only at t=total


def test_train_round_deterministic():
    rng = np.random.default_rng(77)
    inputs, pseudo, _, _ = _separable_assets(rng)
    config = TrainConfig(iterations=50, batch_voxels=32)
    params_a, log_a = train_round(*inputs, pseudo, config, seed=9)
    params_b, log_b = train_round(*inputs, pseudo, config, seed=9)
    assert params_a.weights.tobytes() == params_b.weights.tobytes()
    assert params_a.bias.tobytes() == params_b.bias.tobytes()
    assert log_a == log_b


def test_train_round_missing_pseudo_labels():
    rng = np.random.default_rng(3)
    inputs, pseudo, _, _ = _separable_assets(rng)
    with pytest.raises(ValueError, match="missing"):
        train_round(*inputs, {}, TrainConfig(iterations=1, batch_voxels=8), seed=0)


def test_train_round_refuses_a_template_label_of_another_shape_and_an_empty_pool():
    rng = np.random.default_rng(3)
    (labeled, labeled_gt, pool), pseudo, _, _ = _separable_assets(rng)
    config = TrainConfig(iterations=1, batch_voxels=8)
    other = LabelVolume(Shape3(4, 4, 4), 2, labeled_gt.data.reshape(4, 4, 4))
    with pytest.raises(ValueError, match=re.escape("template label has shape (4, 4, 4), its volume (64, 1, 1)")):
        train_round(labeled, other, pool, pseudo, config, seed=0)
    with pytest.raises(ValueError, match="training pool is empty"):
        train_round(labeled, labeled_gt, [], pseudo, config, seed=0)


def test_train_round_pseudo_label_of_another_class_count():
    """A pseudo-label with more classes than the run's would train on an all-zero one-hot row."""
    rng = np.random.default_rng(3)
    inputs, pseudo, _, _ = _separable_assets(rng)
    vol_id = inputs[2][0].vol_id
    lab = pseudo[vol_id]
    pseudo[vol_id] = LabelVolume(lab.shape, 5, np.where(lab.data > 0, 4, 0))
    with pytest.raises(ValueError, match=f"pseudo-label of '{vol_id}' has 5 classes, the run 2"):
        train_round(*inputs, pseudo, TrainConfig(iterations=1, batch_voxels=8), seed=0)


def test_log_contains_schedule_fields():
    rng = np.random.default_rng(6)
    inputs, pseudo, _, _ = _separable_assets(rng)
    config = TrainConfig(iterations=10, batch_voxels=16)
    _, log = train_round(*inputs, pseudo, config, seed=0)
    for rec in log:
        assert list(rec) == [
            "iter", "lr", "alpha", "loss", "l_sup", "l_pseudo", "grad_norm", "param_norm",
        ]
        assert type(rec["iter"]) is int


def _schedule_log():
    rng = np.random.default_rng(6)
    inputs, pseudo, _, _ = _separable_assets(rng)
    _, log = train_round(*inputs, pseudo, TrainConfig(iterations=100, batch_voxels=16), seed=0)
    return log


def test_poly_lr_schedule():
    # lr = 0.01 (1 - t/T)^0.9 decays from 0.01 and is still > 0 at the last step
    lr = [rec["lr"] for rec in _schedule_log()]
    assert lr[0] == 0.01 and lr[50] == pytest.approx(0.01 * 0.5**0.9)
    assert all(b < a for a, b in zip(lr, lr[1:])) and lr[-1] > 0.0


def test_ramp_up_alpha_schedule():
    # alpha ramps from 0 to 1 over the first 30% of the steps
    alpha = [rec["alpha"] for rec in _schedule_log()]
    assert alpha[0] == 0.0 and alpha[30] == pytest.approx(1.0) and alpha[50] == 1.0
    assert all(b >= a for a, b in zip(alpha, alpha[1:]))
    assert all(0.0 <= v <= 1.0 for v in alpha)


def _oracle_assets(num_classes, seed=90):
    """Factorized volumes on ragged grids, labeled by z quantile so the model learns."""
    rng = np.random.default_rng(seed)

    def volume(name, shape):
        grid_shape = tuple(-(-s // 3) for s in shape)
        data = _factorized(_vol(rng.normal(size=shape)), _grid(rng.normal(size=(4,) + grid_shape)))
        data = replace(data, vol_id=name)
        z = data.z(slice(None))
        cuts = np.quantile(z, np.linspace(0, 1, num_classes + 1)[1:-1])
        return data, np.digitize(z, cuts).astype(np.uint8)

    labeled, labeled_y = volume("t", (6, 7, 5))
    pool = [volume(f"u{i}", shape) for i, shape in enumerate([(5, 6, 7), (7, 5, 6), (6, 6, 6)])]
    # pseudo-labels disagree with the z order on a tenth of the voxels
    pseudo = {}
    for data, y in pool:
        flip = rng.random(len(y)) < 0.1
        y = np.where(flip, rng.integers(0, num_classes, size=len(y)), y).astype(np.uint8)
        pseudo[data.vol_id] = LabelVolume(data.shape, num_classes, y.reshape(data.shape.as_tuple()))
    labeled_gt = LabelVolume(labeled.shape, num_classes, labeled_y.reshape(labeled.shape.as_tuple()))
    return (labeled, labeled_gt, [data for data, _ in pool]), pseudo


@pytest.mark.parametrize("batch_voxels", [37, 48])
@pytest.mark.parametrize("num_classes", [2, 3])
def test_train_round_matches_loop_oracle(num_classes, batch_voxels):
    # the class-major step against the voxel-major loop it replaced: same
    # draws, so only summation order separates the two
    iterations = 120
    inputs, pseudo = _oracle_assets(num_classes)
    config = TrainConfig(iterations=iterations, batch_voxels=batch_voxels)
    params, log = train_round(*inputs, pseudo, config, seed=3)
    want, want_log = train_round_loop_oracle(*inputs, pseudo, config, seed=3)

    for got, ref in ((params.weights, want.weights), (params.bias, want.bias)):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    for data in inputs[2]:
        assert infer(params, data)[0].data.tobytes() == infer(want, data)[0].data.tobytes()
    assert len(log) == len(want_log) == iterations
    for rec, ref in zip(log, want_log):
        assert list(rec) == list(ref)
        for key, value in ref.items():
            assert abs(rec[key] - value) <= 1e-12 * max(1.0, abs(value)), key


def test_batch_buffer_byte_equal_dense_rows(monkeypatch):
    # rows gathered into the batch buffer against the dense feature matrix,
    # at the indices drawn from the same generator sequence
    rng = np.random.default_rng(43)
    dense, data = {}, {}
    for name in ("t", "u0", "u1"):
        vol = _vol(rng.normal(size=ODD_SHAPE))
        grid = _grid(rng.normal(size=(5,) + ODD_GRID).astype(np.float32))
        dense[name] = build_feature_matrix(vol, grid)
        data[name] = TrainVolumeData.from_volume(name, vol, grid)
    n = data["t"].n_voxels
    pseudo = {
        name: LabelVolume(Shape3(*ODD_SHAPE), 2, rng.integers(0, 2, size=ODD_SHAPE).astype(np.uint8))
        for name in ("u0", "u1")
    }
    labeled_gt = LabelVolume(Shape3(*ODD_SHAPE), 2, rng.integers(0, 2, size=ODD_SHAPE).astype(np.uint8))
    config = TrainConfig(iterations=3, batch_voxels=61)
    seen = []
    real = specialist.loss_and_grad

    def spy(params, x, *rest):
        seen.append(x.copy())
        return real(params, x, *rest)

    monkeypatch.setattr(specialist, "loss_and_grad", spy)
    train_round(data["t"], labeled_gt, [data["u0"], data["u1"]], pseudo, config, seed=8)

    draw = np.random.default_rng(8)
    n_lab, n_pse = 30, 31
    for x in seen:
        pick = ("u0", "u1")[int(draw.integers(2))]
        li = draw.integers(0, n, size=n_lab)
        pi = draw.integers(0, data[pick].n_voxels, size=n_pse)
        want = np.vstack([dense["t"][li], dense[pick][pi]])
        assert x.tobytes() == want.tobytes()
    assert len(seen) == 3


def test_train_round_rejects_non_finite_features():
    # a non-finite feature makes the loss non-finite at the first step
    rng = np.random.default_rng(14)
    (labeled, labeled_gt, pool), pseudo, _, _ = _separable_assets(rng)
    rows = labeled.rows(np.arange(labeled.n_voxels))
    rows[:, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite loss"):
        train_round(_rows_data("t", rows), labeled_gt, pool, pseudo, TrainConfig(iterations=3, batch_voxels=16), seed=0)


# ---------------------------------------------------------------------------
# inference

def test_infer_full_volume_equals_forward(monkeypatch):
    # labels are the argmax and the fused entropy the dense entropy of the
    # oracle's probabilities, on a divisible and a non-divisible
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
        dense = probs.T.reshape((k,) + vol.shape.as_tuple())
        assert entropy == pytest.approx(sample_uncertainty(dense), abs=1e-9)


@pytest.mark.parametrize("num_classes", [2, 3, 5])
def test_infer_slabs_break_ties_low_and_match_dense_entropy(num_classes, monkeypatch):
    # two classes share one weight row, so their logits tie exactly on every
    # voxel; the slab holds five 17x23 planes, so the last of 13 is ragged
    monkeypatch.setattr(specialist, "_SLAB_VOXELS", 5 * 17 * 23)
    _, vol, grid, params = _odd_case(73, num_classes)
    weights, bias = params.weights.copy(), params.bias.copy()
    weights[-1], bias[-1] = weights[0], bias[0]
    params = SpecialistParams(weights=weights, bias=bias)
    data = _factorized(vol, grid)
    assert len(list(voxel_logits(params, data))) == 3
    probs = forward(params, build_feature_matrix(vol, grid))
    labels, entropy = infer(params, data)
    expect = np.argmax(probs, axis=1).astype(np.uint8)
    assert labels.data.reshape(-1).tobytes() == expect.tobytes()
    assert not (labels.data == num_classes - 1).any()
    dense = probs.T.reshape((num_classes,) + vol.shape.as_tuple())
    entropy_map, entropy_mean = entropy_oracle(dense)
    assert entropy == pytest.approx(entropy_mean, abs=1e-9)
    assert entropy == pytest.approx(float(entropy_map.mean()), abs=1e-9)


# (volume shape, grid shape, logits bit-equal to the whole-table head): ragged,
# a multiple of a 4-voxel patch, and one cell per row.  A one-cell row's head
# goes through another BLAS kernel than the whole table's, which may round
# its sums differently (it does here, by up to 1e-15).
ROW_CASES = {
    "odd": (ODD_SHAPE, ODD_GRID, True),
    "even": ((16, 12, 20), (4, 3, 5), True),
    "one_cell": ((12, 3, 2), (4, 1, 1), False),
}


def _whole_table_logits(params, data):
    """Logits from one head product over the whole cell table, expanded to every voxel."""
    k = params.num_classes
    ld, lh, lw = data.luts
    head = data.cells.astype(np.float64) @ params.weights[:, :-1].T
    cell = (head + params.bias).T.reshape((k,) + data.grid_shape.as_tuple())
    logits = cell.take(lw, axis=3).take(lh, axis=2).take(ld, axis=1).reshape(k, -1)
    logits += params.weights[:, -1:] * data.z(slice(0, data.n_voxels))
    return logits


@pytest.mark.parametrize("num_classes", [2, 3])
@pytest.mark.parametrize("case, slab_planes", [
    ("odd", 1), ("odd", 2), ("even", 1), ("even", 3), ("one_cell", 1),
])
def test_infer_from_row_slabs_matches_unpatched_and_dense(case, slab_planes, num_classes, monkeypatch):
    # small slabs: a slab straddles two cell rows (slab_planes > 1) and a row
    # spans several slabs; the logits are those of the whole-table head, bit for bit
    shape, grid_shape, bit_equal = ROW_CASES[case]
    rng = np.random.default_rng(74)
    vol = _vol(rng.normal(size=shape))
    grid = _grid(rng.normal(size=(5,) + grid_shape).astype(np.float32))
    params = SpecialistParams(rng.normal(size=(num_classes, 6)), rng.normal(size=num_classes))
    data = _factorized(vol, grid)
    want_labels, want_entropy = infer(params, data)

    monkeypatch.setattr(specialist, "_SLAB_VOXELS", slab_planes * shape[1] * shape[2])
    ld = data.luts[0]
    starts = range(0, shape[0], slab_planes)
    rows = [(ld[d0], ld[min(d0 + slab_planes, shape[0]) - 1] + 1) for d0 in starts]
    assert any(r1 - r0 > 1 for r0, r1 in rows) == (slab_planes > 1)
    assert any(a == b for a, b in zip(rows, rows[1:]))

    slabs = list(voxel_logits(params, data))
    assert len(slabs) == len(rows)
    logits = np.concatenate([chunk for _, chunk in slabs], axis=1)
    whole = _whole_table_logits(params, data)
    if bit_equal:
        assert logits.tobytes() == whole.tobytes()
    np.testing.assert_allclose(logits, whole, rtol=0, atol=1e-12)
    dense = build_feature_matrix(vol, grid) @ params.weights.T + params.bias
    np.testing.assert_allclose(logits.T, dense, rtol=0, atol=1e-12)
    labels, entropy = infer(params, data)
    assert labels.data.tobytes() == want_labels.data.tobytes()
    assert entropy == pytest.approx(want_entropy, rel=1e-13, abs=1e-15)  # summed per slab
    probs = forward(params, build_feature_matrix(vol, grid))
    assert labels.data.reshape(-1).tobytes() == np.argmax(probs, axis=1).astype(np.uint8).tobytes()


def _same_inference(got, want):
    (labels, entropy), (want_labels, want_entropy) = got, want
    assert labels.num_classes == want_labels.num_classes
    assert labels.data.tobytes() == want_labels.data.tobytes()
    assert _bits(entropy) == _bits(want_entropy)


@settings(max_examples=100, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([2, 3]),
    shape=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
    ties=st.sampled_from(["none", "zero", "equal_rows"]),
    slab_planes=st.integers(1, 4),
)
def test_infer_equals_former_infer_on_volumes(seed, k, shape, ties, slab_planes):
    # labels and entropy bit for bit against the former softmax inference,
    # with exact ties from a zero model or from two equal weight rows
    rng = np.random.default_rng(seed)
    grid_shape = tuple(int(rng.integers(1, s + 1)) for s in shape)
    channels = int(rng.integers(1, 5))
    data = _factorized(
        _vol(rng.normal(size=shape)), _grid(rng.normal(size=(channels,) + grid_shape).astype(np.float32))
    )
    weights, bias = rng.normal(size=(k, channels + 1)), rng.normal(size=k)
    if ties == "zero":
        weights, bias = np.zeros_like(weights), np.zeros_like(bias)
    elif ties == "equal_rows":
        pair = rng.choice(k, size=2, replace=False)
        weights[pair[1]], bias[pair[1]] = weights[pair[0]], bias[pair[0]]
    params = SpecialistParams(weights, bias)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(specialist, "_SLAB_VOXELS", slab_planes * shape[1] * shape[2])
        _same_inference(infer(params, data), infer_oracle(params, data))


def _logits_volume(logits: np.ndarray, slabs: int = 2):
    """Factorized data and a model of ``logits``'s width whose ``voxel_logits``,
    patched in ``specialist`` and in the oracles, yields copies of ``logits``
    split into ``slabs`` slabs."""
    k, n = logits.shape
    bounds = np.linspace(0, n, slabs + 1).astype(int)

    def fake(params, data):
        for a, b in zip(bounds, bounds[1:]):
            yield slice(a, b), logits[:, a:b].copy()

    data = _rows_data("v", np.zeros((n, 2)))
    return data, SpecialistParams.zeros(k, 2), fake


def _infer_on_logits(logits, slabs=2):
    data, params, fake = _logits_volume(logits, slabs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(specialist, "voxel_logits", fake)
        patch.setattr(oracles, "voxel_logits", fake)
        _same_inference(infer(params, data), infer_oracle(params, data))


_LOGIT = st.floats(-60.0, 60.0, allow_nan=False, allow_subnormal=False)


@settings(max_examples=200, deadline=None, database=None)
@given(
    k=st.sampled_from([2, 3]),
    columns=st.lists(st.tuples(_LOGIT, _LOGIT, _LOGIT), min_size=1, max_size=40),
)
def test_infer_equals_former_infer_on_random_logits(k, columns):
    _infer_on_logits(np.array(columns)[:, :k].T.copy())


def _ulps_from(x: float, j: int) -> float:
    """``x`` moved by ``j`` ulps."""
    for _ in range(abs(j)):
        x = float(np.nextafter(x, np.inf if j > 0 else -np.inf))
    return x


@settings(max_examples=200, deadline=None, database=None)
@given(
    k=st.sampled_from([2, 3]),
    columns=st.lists(
        st.tuples(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            st.integers(-4, 4),
            st.integers(-4, 4),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_infer_equals_former_infer_on_margins_of_a_few_ulps(k, columns):
    # every other logit is a few ulps from the first: at small ulps exp
    # rounds the lower numerator to 1 and the lower class must win
    rows = [[base, *(_ulps_from(base, j) for j in ups)] for base, *ups in columns]
    _infer_on_logits(np.array(rows)[:, :k].T.copy())


@pytest.mark.parametrize("k", [2, 3])
def test_infer_equals_former_infer_on_signed_zeros(k):
    # every combination of signed zeros and the smallest magnitudes
    zeros = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300)
    _infer_on_logits(np.array(np.meshgrid(*[zeros] * k)).reshape(k, -1), slabs=3)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_infer_refuses_a_non_finite_logit(k, bad):
    logits = np.random.default_rng(54).normal(size=(k, 30))
    logits[k - 1, 17] = bad
    data, params, fake = _logits_volume(logits)
    with pytest.MonkeyPatch.context() as patch, np.errstate(invalid="ignore"):
        patch.setattr(specialist, "voxel_logits", fake)
        with pytest.raises(ValueError, match="NaN class score"):
            infer(params, data)


def test_infer_peak_memory_is_slabs_not_volume():
    # a (64, 128, 128) volume at patch (4, 4, 4): a whole-volume stack of
    # expanded cell planes would be 2 x 16 x 128 x 128 float64, 4.2 MB
    rng = np.random.default_rng(75)
    vol = _vol(rng.normal(size=(64, 128, 128)))
    grid = _grid(rng.normal(size=(11, 16, 32, 32)).astype(np.float32))
    data = _factorized(vol, grid)
    params = SpecialistParams(rng.normal(size=(2, 12)), rng.normal(size=2))
    label_bytes = vol.shape.voxels
    tracemalloc.start()
    try:
        infer(params, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - label_bytes < 2_000_000


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a BLAS worker pool needs two CPUs")
def test_infer_leaves_no_blas_worker_spinning():
    # one head product over this grid's 32768 cells (x 11 x 2) wakes OpenBLAS's
    # worker pool, whose threads then spin on the CPU while the process
    # sleeps; a row of 1024 cells does not.  This covers the row slabs only.
    # Where numpy's BLAS has no worker threads the test passes trivially.
    rng = np.random.default_rng(76)
    vol = _vol(rng.normal(size=(32, 32, 32)))
    data = _factorized(vol, _grid(rng.normal(size=(11, 32, 32, 32)).astype(np.float32)))
    params = SpecialistParams(rng.normal(size=(2, 12)), rng.normal(size=2))
    time.sleep(0.3)  # let workers woken by earlier tests go idle
    infer(params, data)
    cpu0 = time.process_time()
    time.sleep(0.25)
    assert time.process_time() - cpu0 < 0.02


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
    dense = probs.T.reshape(3, 5, 5, 5)
    assert infer(params, data)[1] == pytest.approx(sample_uncertainty(dense), abs=1e-9)


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
    shape, grid_shape = Shape3(2, 2, 2), Shape3(1, 1, 1)
    cells, values = np.zeros((1, 3), dtype=np.float32), np.zeros(8, dtype=np.float32)
    with pytest.raises(ValueError, match="cell table"):
        TrainVolumeData("v", shape, Shape3(1, 1, 2), cells, values, 0.0, 1.0)
    with pytest.raises(ValueError, match="intensity volume has 7 voxels"):
        TrainVolumeData("v", shape, grid_shape, cells, values[:7], 0.0, 1.0)
    with pytest.raises(ValueError, match="intensities: float64, expected float32"):
        TrainVolumeData("v", shape, grid_shape, cells, np.zeros(8), 0.0, 1.0)
    with pytest.raises(ValueError, match="cell table: float64, expected float32"):
        TrainVolumeData("v", shape, grid_shape, np.zeros((1, 3)), values, 0.0, 1.0)
    for offset, scale in ((0.0, 0.0), (np.nan, 1.0), (0.0, np.inf)):
        with pytest.raises(ValueError, match="z-score scalars"):
            TrainVolumeData("v", shape, grid_shape, cells, values, offset, scale)


@pytest.mark.parametrize("value", [9.0, 0.1, -3.3e-7])
def test_constant_volume_gives_positive_zero_z(value, monkeypatch):
    # the whole-volume z-score of a constant volume is all +0.0, and so is
    # every z the factorized data computes: in rows() and in infer's slabs
    monkeypatch.setattr(specialist, "_SLAB_VOXELS", 40)
    rng = np.random.default_rng(54)
    vol = _vol(np.full((5, 6, 7), value))
    grid = _grid(rng.normal(size=(2, 2, 2, 3)).astype(np.float32))
    data = _factorized(vol, grid)
    assert data.scale == 1.0
    dense = build_feature_matrix(vol, grid)
    assert dense[:, -1].tobytes() == np.zeros(vol.shape.voxels).tobytes()
    assert data.rows(np.arange(data.n_voxels)).tobytes() == dense.tobytes()
    assert data.z(slice(None)).tobytes() == dense[:, -1].tobytes()
    # with every z zero, the intensity weight changes no label and no entropy bit
    weights, bias = rng.normal(size=(3, 3)), rng.normal(size=3)
    labels, entropy = infer(SpecialistParams(weights, bias), data)
    no_intensity = SpecialistParams(np.hstack([weights[:, :-1], np.zeros((3, 1))]), bias)
    want_labels, want_entropy = infer(no_intensity, data)
    assert labels.data.tobytes() == want_labels.data.tobytes() and entropy == want_entropy
    probs = forward(no_intensity, dense)
    assert (labels.data.reshape(-1) == np.argmax(probs, axis=1)).all()


# ---------------------------------------------------------------------------
# parameter files

def test_params_round_trip(tmp_path):
    rng = np.random.default_rng(60)
    params = SpecialistParams(
        weights=rng.normal(size=(3, 5)).astype(np.float32).astype(np.float64),
        bias=rng.normal(size=3).astype(np.float32).astype(np.float64),
    )
    save_params(params, tmp_path / "p.vxar", round_index=2)
    back = load_params(tmp_path / "p.vxar")
    np.testing.assert_array_equal(back.weights, params.weights)
    np.testing.assert_array_equal(back.bias, params.bias)
    meta = read_header(tmp_path / "p.vxar")
    assert meta["round"] == 2 and meta["iteration"] == -1
    assert meta["num_classes"] == 3 and meta["features"] == 5


def test_load_params_rejects_other_files(tmp_path):
    vol = _vol(np.zeros((2, 2, 2)))
    from protoloop.volume import save_array

    save_array(vol, tmp_path / "v.vxar")
    with pytest.raises(ValueError, match="parameter"):
        load_params(tmp_path / "v.vxar")
