"""The per-round segmentation model: a linear softmax head over voxel features.

Each voxel is described by its enclosing feature-grid cell vector plus its own
z-scored intensity.  Those features are never materialized per voxel: a
volume is held as its (n_cells, C) float32 cell table (the grid's values,
transposed once) plus its float32 intensities and two z-score scalars, which
is 4 + 4 C / p^3 bytes per voxel for cubic patches of p voxels (4.69 at
p = 4 and 4.09 at p = 8 with the built-in encoder's 11 channels).  z is
computed where it is used, training gathers the rows of each sampled batch,
and inference evaluates
``logits = upsample(W[:, :C] @ grid + b) + W[:, C] * z`` one slab of
d-planes at a time, with the head applied at cell resolution to the cell
rows that slab reads and nothing else, so no stack of expanded planes for
the whole volume is built and the head's products stay a few rows of cells
in size.  A product over the whole cell table of a 128^3 volume at p = 4
(32768 cells) is large enough to wake OpenBLAS's worker pool, whose threads
then spin on the CPU after the call returns; one row's product (1024 cells
there) runs on the calling thread.  A voxel's label is the lowest class at
the max of its softmax numerators, read with its entropy in the same slab
pass and without ``volume.class_argmax``: with two classes from the logit
margin ``l1 - l0`` (one exp per voxel), with more from the numerators,
where the top class's is exactly 1.0.

Every round trains a fresh zero-initialized model with SGD on the loss
``sup + alpha * pseudo``: cross-entropy/soft-Dice on the labeled voxels
plus the same on the pseudo-labeled voxels, weighted by a ramped ``alpha``.
Gradients are analytic.  The schedule is the same for every run and is
written in ``train_round``'s step loop: learning rate 0.01 * (1 - t/T)^0.9
over T steps, momentum 0.9, weight decay 1e-4, ``alpha`` ramped from 0 to 1
over the first 30% of the steps, and Dice smoothing 1e-5.

A step has k = 2-3 classes and about a dozen features, so its cost is the
number of numpy calls, not arithmetic.  The step is therefore class-major:
the batch is one ``(n_l + n_p, F)`` buffer of labeled and pseudo-labeled
rows, filled in place: each row block's float32 cells are gathered from its
volume's cell table and cast into the buffer, and its last column is filled
with the voxels' z.  Its logits are ``(k, n)`` and every softmax and Dice
reduction runs over the class axis or along one class row.  One matmul gives
the model's logits and one the gradient, and the elementwise loss work runs
once over both halves; only the sums that define each half's loss stay per
half.  ``loss_and_grad`` takes the buffer and the two target arrays and
returns the loss terms as a plain tuple.  The
weights and momentum stay plain arrays updated in place, and the per-step log
is one preallocated array.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import InitVar, dataclass, field

import numpy as np

from .encoder import apply_zscore, zscore_scalars
from .volume import ArrayFormatError, FeatureGrid, IntensityVolume, LabelVolume, Shape3
from .volume import nearest_axis_indices, read_blob, write_blob

__all__ = [
    "SpecialistParams",
    "TrainConfig",
    "TrainVolumeData",
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


# the fixed training schedule
BASE_LR = 0.01
LR_POWER = 0.9       # poly decay exponent
MOMENTUM = 0.9
WEIGHT_DECAY = 1e-4
RAMP_FRACTION = 0.3  # fraction of iterations to reach full pseudo-label weight
DICE_SMOOTH = 1e-5


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 3000      # per round; desk-scale default
    batch_voxels: int = 4096    # half labeled, half from one pseudo volume
    seed: InitVar[int] = 0      # not a setting: round r is seeded seed ^ r; 0 only

    def __post_init__(self, seed: int):
        if self.iterations < 1:
            raise ValueError(f"iterations={self.iterations} must be >= 1")
        if self.batch_voxels < 2:
            raise ValueError(f"batch_voxels={self.batch_voxels} must be >= 2")
        if seed != 0:
            raise ValueError(f"train.seed={seed} is fixed at 0; set seed")


# ---------------------------------------------------------------------------
# softmax / loss

def _softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Softmax over axis 0 of class-major (k, n) logits: (probs, max, sum of exp)."""
    top = logits.max(axis=0)
    probs = np.exp(logits - top)
    total = probs.sum(axis=0)
    probs /= total
    return probs, top, total


def loss_and_grad(
    params: tuple[np.ndarray, np.ndarray],
    x: np.ndarray,
    labeled_y: np.ndarray,
    pseudo_y: np.ndarray,
    alpha: float,
) -> tuple[tuple[float, float, float], tuple[np.ndarray, np.ndarray]]:
    """Round loss terms ``(total, sup, pseudo)`` and the analytic gradient in (weights, bias).

    ``x`` stacks the ``len(labeled_y)`` labeled rows and then the
    ``len(pseudo_y)`` pseudo-labeled rows, so one matmul covers both.
    total = sup + alpha * pseudo, where sup and pseudo are 0.5*(CE + soft
    Dice) on the labeled and pseudo-labeled voxels, each averaged over its
    own half.  Logits are class-major, (k, n): one matmul gives the logits
    on every row of the batch and one the gradient, ``G @ x`` with
    ``G = [d_sup | alpha * d_pseudo]`` the per-voxel logit gradients.  The
    elementwise work runs once over the whole batch; only the sums that
    define a half's loss and its Dice terms are taken per half.

    The soft-Dice gradient through the softmax is ``p * (g - sum_k g_k p_k)``
    with ``g = (dice_c - 2*onehot) / (k*denom_c)`` per class c, so ``g``
    takes one of two values per class and half.
    """
    w, b = params
    k = len(b)
    n_l = len(labeled_y)
    halves = ((slice(0, n_l), n_l), (slice(n_l, None), len(pseudo_y)))

    logits = w @ x.T
    logits += b[:, None]
    probs, top, total = _softmax(logits)
    lse = top + np.log(total)

    classes = np.arange(k)[:, None]
    hot = np.empty(logits.shape, dtype=bool)
    np.equal(labeled_y, classes, out=hot[:, :n_l])
    np.equal(pseudo_y, classes, out=hot[:, n_l:])
    onehot = hot.astype(np.float64)
    target_logits = onehot * logits
    inter = probs * onehot

    terms, g = [], np.empty_like(logits)
    for half, n in halves:
        ce = float((lse[half] - target_logits[:, half].sum(axis=0)).sum()) / n
        denom = probs[:, half].sum(axis=1) + onehot[:, half].sum(axis=1) + DICE_SMOOTH
        dice_c = (2.0 * inter[:, half].sum(axis=1) + DICE_SMOOTH) / denom
        terms.append(0.5 * (ce + float(1.0 - dice_c.sum() / k)))
        scale = (k * denom)[:, None]
        g[:, half] = np.where(hot[:, half], (dice_c[:, None] - 2.0) / scale, dice_c[:, None] / scale)
    # back through the softmax.  Class sums stay per half: numpy sums the
    # classes of a one-voxel half pairwise once k >= 8, so a whole-batch sum
    # would round differently there
    weighted = g * probs
    for half, _ in halves:
        g[:, half] -= weighted[:, half].sum(axis=0)
    g *= probs
    # plus the cross-entropy gradient (p - onehot) / n
    grad = np.subtract(probs, onehot, out=onehot)
    for half, n in halves:
        grad[:, half] /= n
    grad += g
    grad *= 0.5
    grad[:, n_l:] *= alpha

    sup, pseudo = terms
    return (sup + alpha * pseudo, sup, pseudo), (grad @ x, grad.sum(axis=1))


# ---------------------------------------------------------------------------
# training

@dataclass(frozen=True)
class TrainVolumeData:
    """One volume's voxel features in factorized form.

    The feature row of voxel (d, h, w) is ``cells[cell(d, h, w)]`` followed by
    its z, ``(float64(values[i]) - offset) / scale`` with
    ``i = (d * H + h) * W + w``, where ``cell`` reads the per-axis lookup
    tables ``luts`` from voxel index to cell index.  Their map is
    ``volume.nearest_axis_indices``'s centre-aligned rescaling, not the
    encoder's patches (``voxel // patch``).  The two agree on an extent that
    is a multiple of the patch; on any other extent some voxels read a cell
    whose patch does not contain them (4 of 30 per axis at 30 voxels and
    patch 8).  Changing that changes outputs, so it stays.

    Memory is the float32 cell table, the grid's values
    transposed once to ``(n_cells, C)``, plus the float32 intensities (4
    bytes per voxel) and lookup tables of ``H * W`` entries; z is computed
    where it is used, with ``zscore_scalars``'s offset and scale, so it has
    the bits of a volume-wide float64 z-score.  Features are float64 wherever
    they are used: a batch's rows are cast into the batch buffer, and
    inference casts the table before the head's matmul.
    """

    vol_id: str
    shape: Shape3        # voxel extents
    grid_shape: Shape3   # cell extents
    cells: np.ndarray    # (n_cells, C) float32, cells in row-major grid order
    values: np.ndarray   # (n_voxels,) float32 intensities, row-major
    offset: float        # z = (float64(values) - offset) / scale
    scale: float
    luts: tuple = field(init=False, repr=False, compare=False)
    _depth_cells: np.ndarray = field(init=False, repr=False, compare=False)
    _plane_cells: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cells = np.asarray(self.cells)
        values = np.asarray(self.values)
        if cells.ndim != 2 or len(cells) != self.grid_shape.voxels:
            raise ValueError(
                f"cell table {cells.shape} does not match grid {self.grid_shape.as_tuple()}"
            )
        for name, array in (("cell table", cells), ("intensities", values)):
            if array.dtype != np.float32:
                raise ValueError(f"{name}: {array.dtype}, expected float32")
        values = np.ascontiguousarray(values).reshape(-1)
        if len(values) != self.shape.voxels:
            raise ValueError(
                f"intensity volume has {len(values)} voxels, shape says {self.shape.voxels}"
            )
        if not (math.isfinite(self.offset) and math.isfinite(self.scale) and self.scale != 0):
            raise ValueError(f"bad z-score scalars offset={self.offset!r} scale={self.scale!r}")
        luts = tuple(
            nearest_axis_indices(g, v) for g, v in zip(self.grid_shape.as_tuple(), self.shape.as_tuple())
        )
        _, gh, gw = self.grid_shape.as_tuple()
        object.__setattr__(self, "cells", np.ascontiguousarray(cells))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "luts", luts)
        # flat cell index = depth term of the voxel's plane + in-plane term of (h, w)
        object.__setattr__(self, "_depth_cells", luts[0] * (gh * gw))
        object.__setattr__(self, "_plane_cells", (luts[1][:, None] * gw + luts[2]).reshape(-1))

    @classmethod
    def from_volume(
        cls,
        vol_id: str,
        vol: IntensityVolume,
        grid: FeatureGrid,
        scalars: tuple[float, float] | None = None,
    ) -> "TrainVolumeData":
        """``scalars`` is ``zscore_scalars(vol.data)`` when the caller already has it."""
        offset, scale = zscore_scalars(vol.data) if scalars is None else scalars
        return cls(
            vol_id=vol_id,
            shape=vol.shape,
            grid_shape=grid.grid_shape,
            cells=grid.data.reshape(grid.channels, -1).T,
            values=vol.data.reshape(-1),
            offset=offset,
            scale=scale,
        )

    @property
    def n_voxels(self) -> int:
        return len(self.values)

    @property
    def channels(self) -> int:
        return self.cells.shape[1]

    @property
    def num_features(self) -> int:
        return self.channels + 1

    def grid(self) -> FeatureGrid:
        """The feature grid whose values the cell table holds; its patch size is not kept."""
        return FeatureGrid(self.channels, self.grid_shape, self.cells.T)

    def z(self, idx, out: np.ndarray | None = None) -> np.ndarray:
        """float64 z of the flat voxel indices or slice ``idx``, in ``out`` if given."""
        return apply_zscore(self.values[idx], (self.offset, self.scale), out)

    def rows(self, idx: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(len(idx), C + 1) float64 feature rows of the flat voxel indices ``idx``, in ``out`` if given."""
        _, h, w = self.shape.as_tuple()
        d, in_plane = np.divmod(idx, h * w)
        cell = self._depth_cells[d]
        cell += self._plane_cells[in_plane]
        if out is None:
            out = np.empty((len(idx), self.num_features))
        out[:, :-1] = np.take(self.cells, cell, axis=0)
        self.z(idx, out=out[:, -1])
        return out


# per-step columns of the training log, after "iter"
_LOG_FIELDS = (
    "lr", "alpha", "loss", "l_sup", "l_pseudo", "grad_norm", "param_norm",
)


def train_round(
    labeled: TrainVolumeData,
    labeled_gt: LabelVolume,
    pool: list[TrainVolumeData],
    pseudo_labels: dict[str, LabelVolume],
    config: TrainConfig,
    seed: int,
) -> tuple[SpecialistParams, list[dict]]:
    """Train a fresh model, seeded ``seed``, for one round on the current pseudo-label set.

    ``labeled_gt`` is the template's label; its class count is the model's.
    Every step draws half the batch from the labeled template and half from
    one pool volume, drawn by its position in the pool sorted by id.  Returns
    the final iterate and the per-step training log: the schedule, the loss
    terms, the gradient norm ||(dW, db)|| before weight decay and the
    parameter norm ||(W, b)|| after the update.
    """
    if labeled_gt.shape != labeled.shape:
        raise ValueError(
            f"template label has shape {labeled_gt.shape.as_tuple()}, its volume {labeled.shape.as_tuple()}"
        )
    if not pool:
        raise ValueError("training pool is empty")
    pool = sorted(pool, key=lambda vol: vol.vol_id)
    num_classes = labeled_gt.num_classes
    missing = {v.vol_id for v in pool} - pseudo_labels.keys()
    if missing:
        raise ValueError(f"pseudo-labels missing for {sorted(missing)}")
    targets = {}
    for vol in pool:
        lab = pseudo_labels[vol.vol_id]
        flat = lab.data.reshape(-1)
        if len(flat) != vol.n_voxels:
            raise ValueError(f"pseudo-label shape mismatch for {vol.vol_id!r}")
        if lab.num_classes != num_classes:
            raise ValueError(
                f"pseudo-label of {vol.vol_id!r} has {lab.num_classes} classes, the run {num_classes}"
            )
        targets[vol.vol_id] = flat
    labeled_targets = labeled_gt.data.reshape(-1)

    # the weights and their momentum stay plain arrays updated in place; a
    # SpecialistParams is built only to validate and to return
    num_features = labeled.num_features
    rng = np.random.default_rng(seed)
    w = np.zeros((num_classes, num_features))
    b = np.zeros(num_classes)
    vel_w = np.zeros_like(w)
    vel_b = np.zeros_like(b)

    n_lab = config.batch_voxels // 2
    n_pse = config.batch_voxels - n_lab
    x = np.empty((n_lab + n_pse, num_features))
    x_lab, x_pse = x[:n_lab], x[n_lab:]
    total = config.iterations
    log = np.empty((total, len(_LOG_FIELDS)))

    for t in range(total):
        lr = BASE_LR * (1.0 - t / total) ** LR_POWER
        alpha = min(1.0, t / (RAMP_FRACTION * total))

        pick = pool[int(rng.integers(len(pool)))]
        li = rng.integers(0, labeled.n_voxels, size=n_lab)
        pi = rng.integers(0, pick.n_voxels, size=n_pse)
        labeled.rows(li, out=x_lab)
        pick.rows(pi, out=x_pse)
        terms, (d_w, d_b) = loss_and_grad((w, b), x, labeled_targets[li], targets[pick.vol_id][pi], alpha)
        if not math.isfinite(terms[0]):
            raise ValueError(f"non-finite loss at iteration {t}")
        grad_norm = math.sqrt(np.vdot(d_w, d_w) + np.vdot(d_b, d_b))
        d_w += WEIGHT_DECAY * w
        d_b += WEIGHT_DECAY * b
        for param, vel, grad in ((w, vel_w, d_w), (b, vel_b, d_b)):
            vel *= MOMENTUM
            vel += grad
            param -= lr * vel
        param_norm = math.sqrt(np.vdot(w, w) + np.vdot(b, b))
        log[t] = (lr, alpha, *terms, grad_norm, param_norm)

    records = [{"iter": t, **dict(zip(_LOG_FIELDS, row))} for t, row in enumerate(log.tolist())]
    return SpecialistParams(w, b), records


# ---------------------------------------------------------------------------
# inference

# voxels per slab of inference: temporaries stay cache-sized on any volume
_SLAB_VOXELS = 1 << 14


def voxel_logits(
    params: SpecialistParams, data: TrainVolumeData
) -> Iterator[tuple[slice, np.ndarray]]:
    """Logits in slabs of whole d-planes: (flat voxel slice, (num_classes, n) logits).

    A slab's logits come from its own cell rows only: the depth LUT is
    monotone, so the slab's planes read the contiguous rows
    ``ld[d0] .. ld[d1 - 1]``.  The head is applied once per cell of those
    rows, the cell logits are expanded to voxels through the in-plane LUTs,
    and the rows' expanded planes are kept while the next slab reads the
    same rows.  The intensity term is added per voxel from the slab's z,
    computed from its float32 intensities.  Memory is one slab's rows of
    planes, never a plane stack for the whole volume, and each head product
    is a few rows of cells, which OpenBLAS runs on the calling thread where
    a whole-table product wakes its worker pool.  A row's product may run
    through another OpenBLAS kernel than the whole table's and round its
    sums differently: measured, the logits are byte-identical to those of one
    whole-table product on the benchmark workloads (rows of 16, 64 and 1024
    cells) and on the ragged and patch-multiple shapes of the row-slab tests,
    and differ by up to 1e-15 where a row is a single cell.
    """
    if data.num_features != params.num_features:
        raise ValueError(
            f"feature width {data.num_features} != model width {params.num_features}"
        )
    k = params.num_classes
    ld, lh, lw = data.luts
    _, gh, gw = data.grid_shape.as_tuple()
    w_cells, w_z = params.weights[:, :-1], params.weights[:, -1:]
    depth, h, w = data.shape.as_tuple()
    step = max(1, _SLAB_VOXELS // (h * w))
    rows = planes = None
    for d0 in range(0, depth, step):
        d1 = min(depth, d0 + step)
        r0, r1 = int(ld[d0]), int(ld[d1 - 1]) + 1
        if rows != (r0, r1):
            planes = None  # freed before the next rows' planes are built
            head = data.cells[r0 * gh * gw:r1 * gh * gw].astype(np.float64) @ w_cells.T
            cell = (head + params.bias).T.reshape(k, r1 - r0, gh, gw)
            rows, planes = (r0, r1), cell.take(lw, axis=3).take(lh, axis=2)
        sl = slice(d0 * h * w, d1 * h * w)
        logits = planes.take(ld[d0:d1] - r0, axis=1).reshape(k, -1)
        logits += w_z * data.z(sl)
        yield sl, logits


def _margin_slab(logits: np.ndarray, labels: np.ndarray) -> float:
    """Two-class labels of one slab into ``labels``, and its entropy sum.

    Both depend on the margin ``m = l1 - l0`` alone: the lower class's
    ``s = logits - max`` is ``-|m|``, so with ``e = exp(-|m|)`` the softmax
    numerators are 1 and ``e``.  The label is 1 iff ``m > 0`` and ``e < 1``
    (where exp rounds ``e`` to 1 the lower class wins), and the entropy is
    ``log(1 + e) - (-|m|) e / (1 + e)``: the values the general softmax path
    computes, bit for bit, with one exp per voxel.  ``logits`` is overwritten.
    """
    e, s = logits  # the rows l0 and l1, reused in place
    np.subtract(s, e, out=s)  # m
    np.greater(s, 0.0, out=labels)
    np.copysign(s, -1.0, out=s)  # -|m|
    np.exp(s, out=e)
    labels &= e < 1.0
    s *= e
    e += 1.0  # the sum of the numerators
    s /= e
    np.log(e, out=e)
    e -= s
    return float(e.sum())


def _softmax_slab(s: np.ndarray, labels: np.ndarray) -> float:
    """Labels of one slab of k >= 3 classes into ``labels``, and its entropy sum.

    With ``s = logits - max`` and ``e = exp(s)``, the entropy is
    ``log(sum e) - sum(e * s) / sum e``, so no probability volume is built.
    The top class's numerator is exp(0) = 1.0 exactly and no other exceeds
    it, so the label, the lowest class at the max of ``e``, is the number of
    leading classes whose numerator is not 1.0.  The label is taken on
    ``e``, not on ``s``: exp can round two logits one ulp apart to the same
    value, and the lower class wins.  ``s`` is overwritten.
    """
    s -= s.max(axis=0)
    e = np.exp(s)
    below = e[0] != 1.0
    np.copyto(labels, below)
    for c in range(1, len(e) - 1):
        below &= e[c] != 1.0
        labels += below
    total = e.sum(axis=0)
    e *= s
    return float((np.log(total) - e.sum(axis=0) / total).sum())


def infer(params: SpecialistParams, data: TrainVolumeData) -> tuple[LabelVolume, float]:
    """Labels and mean voxel entropy (nats) of one volume.

    Labels and entropy are computed together, one slab of ``voxel_logits``
    at a time and written straight into the label volume: two classes read
    the logit margin (``_margin_slab``), more classes the softmax
    numerators (``_softmax_slab``).  A voxel's label is the lowest class at
    the max of its softmax numerators.  A NaN or infinite logit makes the
    entropy NaN, and the volume is refused.
    """
    labels = np.empty(data.n_voxels, dtype=np.uint8)
    slab = _margin_slab if params.num_classes == 2 else _softmax_slab
    entropy_sum = 0.0
    for sl, logits in voxel_logits(params, data):
        entropy_sum += slab(logits, labels[sl])
    if math.isnan(entropy_sum):
        raise ValueError(f"NaN class score in the logits of {data.vol_id!r}")
    return (
        LabelVolume(data.shape, params.num_classes, labels.reshape(data.shape.as_tuple())),
        entropy_sum / data.n_voxels,
    )


# ---------------------------------------------------------------------------
# parameter files

def save_params(params: SpecialistParams, path, round_index: int) -> None:
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
        "iteration": -1,  # the final iterate
    }
    write_blob(path, header, tensor.tobytes())


def load_params(path) -> SpecialistParams:
    """The inverse of ``save_params``; any other file is an ``ArrayFormatError`` naming it."""
    header, payload = read_blob(path)
    shape = header.get("shape")
    if not (
        header.get("kind") == "specialist-params" and header.get("dtype") == "f32"
        and isinstance(shape, list) and len(shape) == 2 and all(type(n) is int and n >= 1 for n in shape)
        and len(payload) == 4 * shape[0] * shape[1]
    ):
        raise ArrayFormatError(f"{path}: not a parameter file (header {header}, {len(payload)} payload bytes)")
    tensor = np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float64)
    return SpecialistParams(weights=tensor[:, :-1], bias=tensor[:, -1])
