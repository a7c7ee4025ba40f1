"""The per-round segmentation model: a linear softmax head over voxel features.

Each voxel is described by its enclosing feature-grid cell vector plus its own
z-scored intensity.  Those features are never materialized per voxel: a
volume is held as its (n_cells, C) float64 cell table plus one float64 z
volume, training gathers the rows of each sampled batch, and inference
evaluates ``logits = upsample(W[:, :C] @ grid + b) + W[:, C] * z`` with the
head applied at cell resolution.  Every round trains a fresh zero-initialized
model with SGD (momentum, weight decay, poly LR decay) on a loss combining
supervised and pseudo-label cross-entropy/soft-Dice terms with a consistency
term against an exponential-moving-average teacher.  Gradients are analytic.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .encoder import FeatureGrid, zscore
from .volume import IntensityVolume, LabelVolume, Shape3, nearest_axis_indices
from .volume import read_blob, write_blob

__all__ = [
    "SpecialistParams",
    "TrainConfig",
    "EmaTeacher",
    "VoxelBatch",
    "TrainVolumeData",
    "TrainAssets",
    "LossTerms",
    "cell_index_luts",
    "forward",
    "ramp_up_alpha",
    "poly_lr",
    "loss_and_grad",
    "train_round",
    "voxel_logits",
    "infer",
    "save_params",
    "load_params",
]


@dataclass(frozen=True)
class SpecialistParams:
    """Linear classifier parameters: logits = weights @ features + bias."""

    weights: np.ndarray  # (num_classes, num_features) float64
    bias: np.ndarray     # (num_classes,) float64

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        b = np.ascontiguousarray(np.asarray(self.bias, dtype=np.float64))
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise ValueError(f"inconsistent parameter shapes {w.shape} / {b.shape}")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("parameters contain non-finite values")
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def num_features(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def zeros(cls, num_classes: int, num_features: int) -> "SpecialistParams":
        return cls(np.zeros((num_classes, num_features)), np.zeros(num_classes))


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 3000      # per round; desk-scale default
    base_lr: float = 0.01
    lr_power: float = 0.9       # poly decay exponent
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_voxels: int = 4096    # half labeled, half from one pseudo volume
    lambda_max: float = 0.1     # consistency weight ceiling
    ramp_fraction: float = 0.3  # fraction of iterations to reach full weight
    ema_decay: float = 0.99
    noise_sigma: float = 0.1    # feature perturbation for the consistency term
    dice_smooth: float = 1e-5
    val_interval: int = 250
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.base_lr <= 0:
            raise ValueError("base_lr must be > 0")
        if not 0.0 < self.ramp_fraction <= 1.0:
            raise ValueError(f"ramp_fraction={self.ramp_fraction} outside (0, 1]")
        if not 0.0 <= self.ema_decay < 1.0:
            raise ValueError(f"ema_decay={self.ema_decay} outside [0, 1)")
        if self.batch_voxels < 2:
            raise ValueError("batch_voxels must be >= 2")
        if self.val_interval < 1:
            raise ValueError("val_interval must be >= 1")


class EmaTeacher:
    """Exponential moving average of student parameters.

    update() applies shadow = decay * shadow + (1 - decay) * student, exactly.
    """

    def __init__(self, initial: SpecialistParams, decay: float):
        if not 0.0 <= decay < 1.0:
            raise ValueError(f"decay={decay} outside [0, 1)")
        self.decay = decay
        self.shadow = initial

    def update(self, student: SpecialistParams) -> None:
        d = self.decay
        self.shadow = SpecialistParams(
            weights=d * self.shadow.weights + (1.0 - d) * student.weights,
            bias=d * self.shadow.bias + (1.0 - d) * student.bias,
        )


# ---------------------------------------------------------------------------
# per-voxel features

def cell_index_luts(vol_shape: Shape3, grid_shape: Shape3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis lookup tables mapping voxel index -> enclosing cell index."""
    return tuple(
        nearest_axis_indices(g, v)
        for g, v in zip(grid_shape.as_tuple(), vol_shape.as_tuple())
    )


# ---------------------------------------------------------------------------
# forward / schedules / loss

def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    stable = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(stable)
    return expd / expd.sum(axis=1, keepdims=True)


def forward(params: SpecialistParams, feats: np.ndarray) -> np.ndarray:
    """Class probabilities for (F,) or (N, F) feature input."""
    feats = np.asarray(feats, dtype=np.float64)
    single = feats.ndim == 1
    if single:
        feats = feats[None, :]
    if feats.shape[1] != params.num_features:
        raise ValueError(
            f"feature width {feats.shape[1]} != model width {params.num_features}"
        )
    probs = _softmax_rows(feats @ params.weights.T + params.bias)
    return probs[0] if single else probs


def ramp_up_alpha(iteration: int, total: int, fraction: float = 0.3) -> float:
    """Linear 0 -> 1 ramp over the first ``fraction`` of iterations, then flat."""
    if total < 1:
        raise ValueError("total iterations must be >= 1")
    if not 0 <= iteration <= total:
        raise ValueError(f"iteration {iteration} outside [0, {total}]")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction={fraction} outside (0, 1]")
    return min(1.0, iteration / (fraction * total))


def poly_lr(iteration: int, total: int, base_lr: float, power: float = 0.9) -> float:
    """Polynomial decay base_lr * (1 - t/total)^power; exactly 0 at t == total."""
    if total < 1:
        raise ValueError("total iterations must be >= 1")
    if not 0 <= iteration <= total:
        raise ValueError(f"iteration {iteration} outside [0, {total}]")
    return base_lr * (1.0 - iteration / total) ** power


@dataclass(frozen=True)
class VoxelBatch:
    """One optimization step's voxels, with the consistency perturbation baked in."""

    labeled_x: np.ndarray        # (n_l, F)
    labeled_y: np.ndarray        # (n_l,)
    pseudo_x: np.ndarray         # (n_p, F) clean features
    pseudo_y: np.ndarray         # (n_p,)
    pseudo_x_noisy: np.ndarray   # (n_p, F) Gaussian-perturbed features

    def __post_init__(self):
        if len(self.labeled_x) == 0 or len(self.pseudo_x) == 0:
            raise ValueError("batch needs both labeled and pseudo-labeled voxels")
        if self.pseudo_x.shape != self.pseudo_x_noisy.shape:
            raise ValueError("clean/noisy pseudo features must have equal shapes")


@dataclass(frozen=True)
class LossTerms:
    total: float
    sup: float
    unsup: float
    pseudo: float


def _ce_dice_terms(
    logits: np.ndarray, targets: np.ndarray, num_classes: int, smooth: float
) -> tuple[float, np.ndarray]:
    """0.5*(cross-entropy + soft Dice) over one voxel set; returns (loss, dL/dlogits)."""
    n = logits.shape[0]
    probs = _softmax_rows(logits)
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), targets] = 1.0

    # cross-entropy via logsumexp for stability
    lse = logits.max(axis=1) + np.log(
        np.exp(logits - logits.max(axis=1, keepdims=True)).sum(axis=1)
    )
    ce = float((lse - logits[np.arange(n), targets]).mean())
    d_ce = (probs - onehot) / n

    # soft Dice averaged over all classes on this batch
    inter = (probs * onehot).sum(axis=0)
    psum = probs.sum(axis=0)
    tsum = onehot.sum(axis=0)
    denom = psum + tsum + smooth
    dice_c = (2.0 * inter + smooth) / denom
    dice_loss = float(1.0 - dice_c.mean())
    # d dice_c / d probs[i, c] = (2*onehot - dice_c) / denom  (per class c)
    g_probs = -(2.0 * onehot - dice_c[None, :]) / denom[None, :] / num_classes
    # back through softmax: dL/dz = p * (g - sum_k g_k p_k)
    inner = (g_probs * probs).sum(axis=1, keepdims=True)
    d_dice = probs * (g_probs - inner)

    return 0.5 * (ce + dice_loss), 0.5 * (d_ce + d_dice)


def _mse_consistency(
    student_logits: np.ndarray, teacher_probs: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean squared difference between student and teacher distributions."""
    n, c = student_logits.shape
    probs = _softmax_rows(student_logits)
    diff = probs - teacher_probs
    loss = float((diff**2).mean())
    g_probs = 2.0 * diff / (n * c)
    inner = (g_probs * probs).sum(axis=1, keepdims=True)
    return loss, probs * (g_probs - inner)


def loss_and_grad(
    params: SpecialistParams,
    teacher: SpecialistParams,
    batch: VoxelBatch,
    alpha: float,
    lam: float,
    smooth: float = 1e-5,
) -> tuple[LossTerms, tuple[np.ndarray, np.ndarray]]:
    """Combined round loss and its analytic gradient.

    total = sup + lam * unsup + alpha * pseudo, where sup and pseudo are
    0.5*(CE + soft Dice) on the labeled and pseudo-labeled voxels, and unsup
    is the consistency MSE between the student's probabilities on perturbed
    features and the teacher's on clean features.
    """
    c = params.num_classes
    w, b = params.weights, params.bias

    logits_l = batch.labeled_x @ w.T + b
    sup, d_sup = _ce_dice_terms(logits_l, batch.labeled_y, c, smooth)

    logits_p = batch.pseudo_x @ w.T + b
    pseudo, d_pseudo = _ce_dice_terms(logits_p, batch.pseudo_y, c, smooth)

    logits_noisy = batch.pseudo_x_noisy @ w.T + b
    teacher_probs = forward(teacher, batch.pseudo_x)
    unsup, d_unsup = _mse_consistency(logits_noisy, teacher_probs)

    total = sup + lam * unsup + alpha * pseudo

    d_w = (
        d_sup.T @ batch.labeled_x
        + alpha * (d_pseudo.T @ batch.pseudo_x)
        + lam * (d_unsup.T @ batch.pseudo_x_noisy)
    )
    d_b = d_sup.sum(axis=0) + alpha * d_pseudo.sum(axis=0) + lam * d_unsup.sum(axis=0)
    return LossTerms(total=total, sup=sup, unsup=unsup, pseudo=pseudo), (d_w, d_b)


# ---------------------------------------------------------------------------
# training

@dataclass(frozen=True)
class TrainVolumeData:
    """One volume's voxel features in factorized form.

    The feature row of voxel (d, h, w) is ``cells[cell(d, h, w)]`` followed by
    ``z[(d * H + h) * W + w]``, where ``cell`` reads the per-axis
    ``cell_index_luts``.  Memory is the cell table plus one float64 z volume.
    """

    vol_id: str
    shape: Shape3        # voxel extents
    grid_shape: Shape3   # cell extents
    cells: np.ndarray    # (n_cells, C) float64, cells in row-major grid order
    z: np.ndarray        # (n_voxels,) float64 z-scored intensity, row-major
    luts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cells = np.ascontiguousarray(self.cells, dtype=np.float64)
        z = np.ascontiguousarray(self.z, dtype=np.float64).reshape(-1)
        if cells.ndim != 2 or len(cells) != self.grid_shape.voxels:
            raise ValueError(
                f"cell table {cells.shape} does not match grid {self.grid_shape.as_tuple()}"
            )
        if len(z) != self.shape.voxels:
            raise ValueError(f"z volume has {len(z)} voxels, shape says {self.shape.voxels}")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "luts", cell_index_luts(self.shape, self.grid_shape))

    @classmethod
    def from_volume(cls, vol_id: str, vol: IntensityVolume, grid: FeatureGrid) -> "TrainVolumeData":
        return cls(
            vol_id=vol_id,
            shape=vol.shape,
            grid_shape=grid.grid_shape,
            cells=grid.data.reshape(grid.channels, -1).T,
            z=zscore(vol.data),
        )

    @property
    def n_voxels(self) -> int:
        return len(self.z)

    @property
    def num_features(self) -> int:
        return self.cells.shape[1] + 1

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """(len(idx), C + 1) feature rows of the flat voxel indices ``idx``."""
        _, h, w = self.shape.as_tuple()
        _, gh, gw = self.grid_shape.as_tuple()
        ld, lh, lw = self.luts
        d, rem = np.divmod(idx, h * w)
        hh, ww = np.divmod(rem, w)
        cell = (ld[d] * gh + lh[hh]) * gw + lw[ww]
        out = np.empty((len(idx), self.num_features))
        out[:, :-1] = self.cells[cell]
        out[:, -1] = self.z[idx]
        return out


@dataclass(frozen=True)
class TrainAssets:
    """Everything train_round needs besides the pseudo-labels themselves."""

    num_classes: int
    labeled: TrainVolumeData
    labeled_targets: np.ndarray  # (n_voxels,) ground-truth classes
    pool: tuple[TrainVolumeData, ...]  # unlabeled volumes, sorted by id
    validation: tuple[tuple[TrainVolumeData, np.ndarray], ...] | None = None

    def __post_init__(self):
        if len(self.labeled_targets) != self.labeled.n_voxels:
            raise ValueError("labeled targets do not match labeled features")
        if not self.pool:
            raise ValueError("training pool is empty")
        ids = [v.vol_id for v in self.pool]
        if ids != sorted(ids):
            raise ValueError("pool must be sorted by volume id")


def _mean_val_dice(params: SpecialistParams, assets: TrainAssets) -> float:
    dices = []
    for data, targets in assets.validation:
        labels, _ = infer(params, data)
        p = labels.data.reshape(-1) > 0
        t = targets > 0
        np_, nt = int(p.sum()), int(t.sum())
        inter = int(np.logical_and(p, t).sum())
        dices.append(1.0 if np_ + nt == 0 else 2.0 * inter / (np_ + nt))
    return float(np.mean(dices))


def train_round(
    assets: TrainAssets,
    pseudo_labels: dict[str, LabelVolume],
    config: TrainConfig,
    round_index: int,
) -> tuple[SpecialistParams, list[dict]]:
    """Train a fresh model for one round on the current pseudo-label set.

    Every step draws half the batch from the labeled template and half from
    one sampled pseudo-labeled volume.  Returns the selected parameters (best
    validation Dice when a validation set is present, else the final iterate)
    and the per-step training log.
    """
    missing = {v.vol_id for v in assets.pool} - pseudo_labels.keys()
    if missing:
        raise ValueError(f"pseudo-labels missing for {sorted(missing)}")
    targets = {}
    for vol in assets.pool:
        lab = pseudo_labels[vol.vol_id]
        flat = lab.data.reshape(-1)
        if len(flat) != vol.n_voxels:
            raise ValueError(f"pseudo-label shape mismatch for {vol.vol_id!r}")
        targets[vol.vol_id] = flat

    num_features = assets.labeled.num_features
    rng = np.random.default_rng(config.seed)
    params = SpecialistParams.zeros(assets.num_classes, num_features)
    teacher = EmaTeacher(params, config.ema_decay)
    vel_w = np.zeros_like(params.weights)
    vel_b = np.zeros_like(params.bias)

    n_lab = config.batch_voxels // 2
    n_pse = config.batch_voxels - n_lab
    total = config.iterations
    log: list[dict] = []
    best: tuple[float, SpecialistParams] | None = None

    for t in range(total):
        lr = poly_lr(t, total, config.base_lr, config.lr_power)
        alpha = ramp_up_alpha(t, total, config.ramp_fraction)
        lam = config.lambda_max * alpha

        pick = assets.pool[int(rng.integers(len(assets.pool)))]
        li = rng.integers(0, assets.labeled.n_voxels, size=n_lab)
        pi = rng.integers(0, pick.n_voxels, size=n_pse)
        px = pick.rows(pi)
        noise = rng.normal(0.0, config.noise_sigma, size=px.shape)
        batch = VoxelBatch(
            labeled_x=assets.labeled.rows(li),
            labeled_y=assets.labeled_targets[li],
            pseudo_x=px,
            pseudo_y=targets[pick.vol_id][pi],
            pseudo_x_noisy=px + noise,
        )

        terms, (d_w, d_b) = loss_and_grad(
            params, teacher.shadow, batch, alpha, lam, config.dice_smooth
        )
        if not math.isfinite(terms.total):
            raise ValueError(f"non-finite loss at iteration {t}")
        d_w = d_w + config.weight_decay * params.weights
        d_b = d_b + config.weight_decay * params.bias
        vel_w = config.momentum * vel_w + d_w
        vel_b = config.momentum * vel_b + d_b
        params = SpecialistParams(
            weights=params.weights - lr * vel_w, bias=params.bias - lr * vel_b
        )
        teacher.update(params)
        log.append(
            {
                "iter": t,
                "lr": lr,
                "alpha": alpha,
                "lambda": lam,
                "loss": terms.total,
                "l_sup": terms.sup,
                "l_unsup": terms.unsup,
                "l_pseudo": terms.pseudo,
            }
        )

        if assets.validation and ((t + 1) % config.val_interval == 0 or t == total - 1):
            score = _mean_val_dice(params, assets)
            if best is None or score > best[0]:
                best = (score, params)

    if assets.validation and best is not None:
        return best[1], log
    return params, log


# ---------------------------------------------------------------------------
# inference

# voxels per slab of inference: temporaries stay cache-sized on any volume
_SLAB_VOXELS = 1 << 14


def voxel_logits(
    params: SpecialistParams, data: TrainVolumeData
) -> Iterator[tuple[slice, np.ndarray]]:
    """Logits in slabs of whole d-planes: (flat voxel slice, (num_classes, n) logits).

    The head is applied once per cell, the cell logits are expanded to voxels
    through the LUTs, and the intensity term is added per voxel.
    """
    if data.num_features != params.num_features:
        raise ValueError(
            f"feature width {data.num_features} != model width {params.num_features}"
        )
    k = params.num_classes
    ld, lh, lw = data.luts
    w_cells, w_z = params.weights[:, :-1], params.weights[:, -1:]
    cell = (data.cells @ w_cells.T + params.bias).T.reshape((k,) + data.grid_shape.as_tuple())
    planes = cell.take(lw, axis=3).take(lh, axis=2)  # (k, cells along d, h, w)
    depth, h, w = data.shape.as_tuple()
    step = max(1, _SLAB_VOXELS // (h * w))
    for d0 in range(0, depth, step):
        d1 = min(depth, d0 + step)
        sl = slice(d0 * h * w, d1 * h * w)
        logits = planes.take(ld[d0:d1], axis=1).reshape(k, -1)
        logits += w_z * data.z[sl]
        yield sl, logits


def infer(params: SpecialistParams, data: TrainVolumeData) -> tuple[LabelVolume, float]:
    """Labels and mean voxel entropy (nats) of one volume.

    Softmax, argmax and entropy are fused: with ``s = logits - max`` and
    ``e = exp(s)``, the label is ``argmax e`` and the entropy is
    ``log(sum e) - sum(e * s) / sum e``, so no probability volume is built.
    """
    labels = np.empty(data.n_voxels, dtype=np.uint8)
    entropy_sum = 0.0
    for sl, s in voxel_logits(params, data):
        s -= s.max(axis=0)
        e = np.exp(s)
        labels[sl] = np.argmax(e, axis=0)
        total = e.sum(axis=0)
        e *= s
        entropy_sum += float((np.log(total) - e.sum(axis=0) / total).sum())
    return (
        LabelVolume(data.shape, params.num_classes, labels.reshape(data.shape.as_tuple())),
        entropy_sum / data.n_voxels,
    )


# ---------------------------------------------------------------------------
# parameter files

def save_params(
    params: SpecialistParams, path, round_index: int, iteration: int
) -> None:
    """One f32 tensor [weights | bias] plus JSON meta, in the array container."""
    tensor = np.hstack([params.weights, params.bias[:, None]]).astype("<f4")
    header = {
        "dtype": "f32",
        "shape": list(tensor.shape),
        "order": "row-major",
        "kind": "specialist-params",
        "features": params.num_features,
        "num_classes": params.num_classes,
        "round": round_index,
        "iteration": iteration,
    }
    write_blob(path, header, tensor.tobytes())


def load_params(path) -> tuple[SpecialistParams, dict]:
    header, payload = read_blob(path)
    if header.get("kind") != "specialist-params":
        raise ValueError(f"{path}: not a parameter file")
    c, f1 = header["shape"]
    tensor = np.frombuffer(payload, dtype="<f4").reshape(c, f1).astype(np.float64)
    params = SpecialistParams(weights=tensor[:, :-1], bias=tensor[:, -1])
    return params, header
