"""Independent brute-force reference implementations for the test suite.

Everything in this file is written straight from the definitions with plain
Python loops and scalar math, deliberately sharing no code or vectorization
structure with the package.  These are slow and obvious on purpose: the fast
implementations are checked against them on small seeded instances.  Eight
sections are exceptions: the per-cell encoder loop and the dense per-voxel
features share the whole-volume z-score below (and the package's voxel ->
cell map, ``volume.nearest_axis_indices``) so that the blocked encoder grid
and the factorized rows can be required byte-equal; the whole-volume encoder
builds on the package's blocking, sorting and gradient helpers, so that only
the package's streaming of one row of cells at a time is compared; the
voxel-major training loop shares the package's row gather, parameter type
and inference so that only the step itself is compared, and writes the
schedule's two formulas itself; the dense entropy of an explicit
probability volume is vectorized, as the reference for the entropy
``specialist.infer`` fuses into its prediction pass; and the whole-volume
phantom generator is the package's former ``generate``, which made every
mask, noise draw and class count on the whole volume at once.  The package's
former ``infer``, which took every label through ``volume.class_argmax``,
and its former ``loss_and_grad``, which ran the elementwise work once per
batch half, are kept as they were, on the package's ``voxel_logits`` and
softmax, so that the current kernels can be required bit-equal to them.
"""
from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np

from protoloop.encoder import (
    BASE_CHANNELS,
    CHANNELS,
    POSITION_WEIGHT,
    EncoderParams,
    FeatureGrid,
    _abs_gradient,
    _axis_parts,
    _blocked,
    _order_statistics,
)
from protoloop.specialist import (
    BASE_LR,
    DICE_SMOOTH,
    LR_POWER,
    MOMENTUM,
    RAMP_FRACTION,
    WEIGHT_DECAY,
    SpecialistParams,
    TrainVolumeData,
    _softmax,
    voxel_logits,
)
from protoloop.phantom import _LOBE_OFFSET, _LOBE_SCALE, _MAX_JITTER_ATTEMPTS
from protoloop.volume import (
    DatasetManifest,
    class_argmax,
    IntensityVolume,
    LabelVolume,
    Shape3,
    VolumeEntry,
    nearest_axis_indices,
    save_array,
    save_manifest,
)

EPS = 1e-8


# ---------------------------------------------------------------------------
# intensity statistics

def zscore(data):
    """Volume-wide z-score as one float64 array; a constant volume maps to all zeros.

    The package never builds this array: it keeps ``zscore_scalars`` and
    computes z where it is used, bit for bit equal to this.
    """
    data = np.asarray(data, dtype=np.float64)
    std = float(data.std())
    if std == 0.0:
        return np.zeros_like(data)
    return (data - float(data.mean())) / std


def zscore_oracle(data):
    vals = [float(v) for v in np.asarray(data).reshape(-1)]
    n = len(vals)
    mean = math.fsum(vals) / n
    var = math.fsum((v - mean) ** 2 for v in vals) / n
    if var == 0.0:
        return np.zeros(np.asarray(data).shape, dtype=np.float64)
    std = math.sqrt(var)
    out = np.empty(np.asarray(data).shape, dtype=np.float64)
    flat = out.reshape(-1)
    for i, v in enumerate(vals):
        flat[i] = (v - mean) / std
    return out


def central_diff_abs(z, axis):
    """|d/daxis| via central differences, one-sided at the borders."""
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[axis]
    out = np.zeros_like(z)
    if n < 2:
        return out
    idx = [slice(None)] * 3

    def at(i):
        sel = list(idx)
        sel[axis] = i
        return z[tuple(sel)]

    def put(i, val):
        sel = list(idx)
        sel[axis] = i
        out[tuple(sel)] = np.abs(val)

    put(0, at(1) - at(0))
    put(n - 1, at(n - 1) - at(n - 2))
    for i in range(1, n - 1):
        put(i, (at(i + 1) - at(i - 1)) / 2.0)
    return out


def patch_features_oracle(data, patch):
    """Per-patch statistics, channel for channel, via explicit loops."""
    z = zscore_oracle(data)
    shape = z.shape
    grads = [central_diff_abs(z, a) for a in range(3)]
    gs = tuple(math.ceil(s / patch) for s in shape)
    out = np.zeros((11,) + gs, dtype=np.float64)
    for gd in range(gs[0]):
        for gh in range(gs[1]):
            for gw in range(gs[2]):
                starts = (gd * patch, gh * patch, gw * patch)
                stops = tuple(min(s + patch, e) for s, e in zip(starts, shape))
                vals, gvals = [], [[], [], []]
                for d in range(starts[0], stops[0]):
                    for h in range(starts[1], stops[1]):
                        for w in range(starts[2], stops[2]):
                            vals.append(float(z[d, h, w]))
                            for a in range(3):
                                gvals[a].append(float(grads[a][d, h, w]))
                n = len(vals)
                mean = math.fsum(vals) / n
                var = math.fsum((v - mean) ** 2 for v in vals) / n
                srt = sorted(vals)
                if n % 2 == 1:
                    median = srt[n // 2]
                else:
                    median = 0.5 * (srt[n // 2 - 1] + srt[n // 2])
                cell = [mean, math.sqrt(var), min(vals), max(vals), median]
                cell += [math.fsum(g) / n for g in gvals]
                for a in range(3):
                    span = stops[a] - starts[a]
                    center = starts[a] + span / 2.0
                    cell.append(POSITION_WEIGHT * center / shape[a])
                out[:, gd, gh, gw] = cell
    return out


def extract_grid_loop_oracle(vol, params: EncoderParams) -> FeatureGrid:
    """The encoder as one numpy reduction per patch, cell by cell.

    Same z-score, gradients and per-patch numpy statistics as the package, so
    the blocked encoder's float32 grid must equal this one byte for byte.
    """
    p = params.patch_size
    shape = vol.shape.as_tuple()
    grid_shape = Shape3(*(-(-s // p) for s in shape))
    z = zscore(vol.data)
    grads = [
        np.zeros_like(z) if z.shape[a] < 2 else np.abs(np.gradient(z, axis=a))
        for a in range(3)
    ]
    data = np.empty((CHANNELS,) + grid_shape.as_tuple(), dtype=np.float64)
    for gd in range(grid_shape.d):
        d0 = gd * p
        for gh in range(grid_shape.h):
            h0 = gh * p
            for gw in range(grid_shape.w):
                w0 = gw * p
                sl = (slice(d0, d0 + p), slice(h0, h0 + p), slice(w0, w0 + p))
                patch = z[sl]
                cell = data[:, gd, gh, gw]
                cell[0] = patch.mean()
                cell[1] = patch.std()
                cell[2] = patch.min()
                cell[3] = patch.max()
                cell[4] = np.median(patch)
                cell[5] = grads[0][sl].mean()
                cell[6] = grads[1][sl].mean()
                cell[7] = grads[2][sl].mean()
                for axis, (start, extent) in enumerate(zip((d0, h0, w0), shape)):
                    span = min(p, extent - start)
                    center = start + span / 2.0
                    cell[8 + axis] = POSITION_WEIGHT * center / extent
    return FeatureGrid(
        channels=CHANNELS, grid_shape=grid_shape, data=data, patch_size=(p, p, p)
    )


def extract_grid_whole_volume_oracle(vol, params: EncoderParams) -> FeatureGrid:
    """The blocked encoder over the whole volume at once.

    One whole-volume z, then for each source (z, then one |gradient| volume
    at a time) one blocked copy per region of whole and truncated patches,
    reduced along its last axis.  The package streams the same reductions
    one d-row of cells at a time; its grid must equal this one byte for byte.
    """
    p = params.patch_size
    shape = vol.shape.as_tuple()
    grid_shape = Shape3(*(-(-s // p) for s in shape))
    regions = [
        tuple(zip(*parts))  # (voxel slices, cell slices, patch extents)
        for parts in itertools.product(*(_axis_parts(s, p) for s in shape))
    ]
    z = zscore(vol.data)
    data = np.empty((CHANNELS,) + grid_shape.as_tuple(), dtype=np.float64)
    for voxels, cells, sizes in regions:
        blocks = _blocked(z, voxels, sizes)
        out = data[(slice(None),) + cells]
        out[0] = blocks.mean(axis=-1)
        out[1] = blocks.std(axis=-1)
        out[2], out[3], out[4] = _order_statistics(blocks)  # sorts blocks
    for axis in range(3):
        grad = _abs_gradient(z, axis)
        for voxels, cells, sizes in regions:
            data[(5 + axis,) + cells] = _blocked(grad, voxels, sizes).mean(axis=-1)
    for axis, (extent, n) in enumerate(zip(shape, grid_shape.as_tuple())):
        start = np.arange(n) * p
        center = start + np.minimum(p, extent - start) / 2.0
        pos = POSITION_WEIGHT * center / extent
        data[BASE_CHANNELS + axis] = pos.reshape([-1 if a == axis else 1 for a in range(3)])
    return FeatureGrid(
        channels=CHANNELS, grid_shape=grid_shape, data=data, patch_size=(p, p, p)
    )


def gap_oracle(grid_data):
    """Global average pool over cells, then L2-normalize."""
    c = grid_data.shape[0]
    cells = grid_data.reshape(c, -1)
    vec = [math.fsum(float(v) for v in cells[k]) / cells.shape[1] for k in range(c)]
    norm = math.sqrt(math.fsum(v * v for v in vec))
    if norm == 0.0:
        return [0.0] * c, True
    return [v / norm for v in vec], False


# ---------------------------------------------------------------------------
# center-aligned nearest-neighbor resampling

def axis_index_oracle(i, src, dst):
    """Source index for destination index i, center-aligned."""
    idx = math.floor((i + 0.5) * src / dst)
    return min(max(idx, 0), src - 1)


def downsample_labels_oracle(labels, target):
    src = labels.shape
    out = np.zeros(target, dtype=labels.dtype)
    for d in range(target[0]):
        for h in range(target[1]):
            for w in range(target[2]):
                out[d, h, w] = labels[
                    axis_index_oracle(d, src[0], target[0]),
                    axis_index_oracle(h, src[1], target[1]),
                    axis_index_oracle(w, src[2], target[2]),
                ]
    return out


def upsample_maps_oracle(maps, target):
    c = maps.shape[0]
    src = maps.shape[1:]
    out = np.zeros((c,) + tuple(target), dtype=maps.dtype)
    for d in range(target[0]):
        sd = axis_index_oracle(d, src[0], target[0])
        for h in range(target[1]):
            sh = axis_index_oracle(h, src[1], target[1])
            for w in range(target[2]):
                sw = axis_index_oracle(w, src[2], target[2])
                out[:, d, h, w] = maps[:, sd, sh, sw]
    return out


# ---------------------------------------------------------------------------
# prototypes and round-0 propagation

def prototypes_oracle(grid_data, cell_labels, num_classes):
    """Per-class normalized masked mean over cells; returns (present, vectors)."""
    c = grid_data.shape[0]
    feats = grid_data.reshape(c, -1)
    flat = cell_labels.reshape(-1)
    present = [False] * num_classes
    vectors = [[0.0] * c for _ in range(num_classes)]
    for cls in range(num_classes):
        members = [i for i in range(len(flat)) if flat[i] == cls]
        if not members:
            continue
        mean = [
            math.fsum(float(feats[k, i]) for i in members) / (len(members) + EPS)
            for k in range(c)
        ]
        norm = math.sqrt(math.fsum(v * v for v in mean))
        if norm == 0.0:
            continue
        present[cls] = True
        vectors[cls] = [v / norm for v in mean]
    return present, vectors


def softmax_argmax_oracle(scores):
    """scores: list of per-class values (-inf allowed); returns (label, probs)."""
    finite = [s for s in scores if s != float("-inf")]
    peak = max(finite)
    expd = [0.0 if s == float("-inf") else math.exp(s - peak) for s in scores]
    tot = math.fsum(expd)
    probs = [e / tot for e in expd]
    label = 0
    for cls in range(1, len(scores)):
        if probs[cls] > probs[label]:
            label = cls
    return label, probs


def round0_oracle(template_grid, template_labels, query_grid, num_classes, vol_shape):
    """Round-0 labels: prototypes -> cosine -> upsample -> per-voxel softmax/argmax."""
    gs = template_grid.shape[1:]
    cell_labels = downsample_labels_oracle(template_labels, gs)
    present, protos = prototypes_oracle(template_grid, cell_labels, num_classes)

    c = query_grid.shape[0]
    qgs = query_grid.shape[1:]
    sims = np.zeros((num_classes,) + qgs, dtype=np.float64)
    for d in range(qgs[0]):
        for h in range(qgs[1]):
            for w in range(qgs[2]):
                f = [float(query_grid[k, d, h, w]) for k in range(c)]
                norm = math.sqrt(math.fsum(v * v for v in f))
                for cls in range(num_classes):
                    if not present[cls]:
                        sims[cls, d, h, w] = float("-inf")
                    elif norm == 0.0:
                        sims[cls, d, h, w] = 0.0
                    else:
                        unit = [v / norm for v in f]
                        sims[cls, d, h, w] = math.fsum(
                            protos[cls][k] * unit[k] for k in range(c)
                        )
    full = upsample_maps_oracle(sims, vol_shape)
    labels = np.zeros(vol_shape, dtype=np.uint8)
    for d in range(vol_shape[0]):
        for h in range(vol_shape[1]):
            for w in range(vol_shape[2]):
                lab, _ = softmax_argmax_oracle([full[cls, d, h, w] for cls in range(num_classes)])
                labels[d, h, w] = lab
    return labels


# ---------------------------------------------------------------------------
# dense per-voxel features
#
# The specialist never builds these: it keeps a cell table plus the float32
# intensities and two z-score scalars.
# The dense forms below are the reference its factorized rows, logits, labels
# and entropies are checked against.  They reuse the whole-volume z-score above
# and the package's voxel -> cell map on purpose, so that gathered rows must
# be byte-equal.

def _cell_luts(vol, grid):
    """Per-axis voxel index -> cell index, as ``TrainVolumeData`` maps them."""
    return [nearest_axis_indices(g, v) for g, v in zip(grid.grid_shape.as_tuple(), vol.shape.as_tuple())]


def per_voxel_features(vol, grid, index):
    """Feature vector of one voxel: its cell's features plus z-scored intensity."""
    d, h, w = index
    if not (0 <= d < vol.shape.d and 0 <= h < vol.shape.h and 0 <= w < vol.shape.w):
        raise ValueError(f"voxel index {index} outside volume {vol.shape.as_tuple()}")
    luts = _cell_luts(vol, grid)
    cell = grid.data[:, luts[0][d], luts[1][h], luts[2][w]].astype(np.float64)
    return np.concatenate([cell, [zscore(vol.data)[d, h, w]]])


def build_feature_matrix(vol, grid):
    """(n_voxels, channels + 1) float64 feature matrix in row-major voxel order."""
    luts = _cell_luts(vol, grid)
    cells = grid.data[:, luts[0]][:, :, luts[1]][:, :, :, luts[2]].astype(np.float64)
    flat = cells.reshape(grid.channels, -1).T
    z = zscore(vol.data).reshape(-1, 1)
    return np.ascontiguousarray(np.hstack([flat, z]))


def forward(params, feats):
    """Class probabilities of a dense (F,) or (N, F) feature input."""
    feats = np.asarray(feats, dtype=np.float64)
    single = feats.ndim == 1
    if single:
        feats = feats[None, :]
    if feats.shape[1] != params.num_features:
        raise ValueError(f"feature width {feats.shape[1]} != model width {params.num_features}")
    probs = _softmax_rows_oracle(feats @ params.weights.T + params.bias)
    return probs[0] if single else probs


# ---------------------------------------------------------------------------
# uncertainty

def entropy_oracle(probs):
    """Per-voxel -sum p ln p with 0 log 0 = 0; returns (map, mean)."""
    c = probs.shape[0]
    shape = probs.shape[1:]
    out = np.zeros(shape, dtype=np.float64)
    total = []
    for d in range(shape[0]):
        for h in range(shape[1]):
            for w in range(shape[2]):
                e = 0.0
                for cls in range(c):
                    p = float(probs[cls, d, h, w])
                    if p > 0.0:
                        e -= p * math.log(p)
                out[d, h, w] = e
                total.append(e)
    return out, math.fsum(total) / len(total)


def entropy_map(probs):
    """Voxel-wise entropy -sum_c p log p in nats of (num_classes, d, h, w) probabilities."""
    probs = np.asarray(probs, dtype=np.float64)
    terms = np.where(probs > 0.0, probs * np.log(np.where(probs > 0.0, probs, 1.0)), 0.0)
    # clamp float jitter; the mathematical range is [0, ln num_classes]
    return np.clip(-terms.sum(axis=0), 0.0, None)


def sample_uncertainty(probs):
    """Mean voxel entropy in nats of a dense probability volume."""
    return float(entropy_map(probs).mean())


def quantile_threshold_oracle(values, q):
    """Nearest-rank quantile: sorted value at 0-based index ceil(q*n) - 1."""
    srt = sorted(values)
    idx = max(0, math.ceil(q * len(srt)) - 1)
    return srt[idx]


# ---------------------------------------------------------------------------
# KNN refinement

def knn_oracle(features, certain, query, k):
    """(id, weight, similarity) for the top-k certain ids by raw cosine."""
    q = features[query]
    scored = []
    for vol_id in certain:
        v = features[vol_id]
        sim = math.fsum(float(a) * float(b) for a, b in zip(q, v))
        scored.append((vol_id, max(0.0, sim), sim))
    scored.sort(key=lambda t: (-t[2], t[0]))
    return scored[: min(k, len(scored))]


def vote_oracle(neighbors, labels, query_id, num_classes, eps=EPS):
    """Weighted per-voxel vote; zero total weight keeps the query's own labels."""
    query = labels[query_id]
    total = sum(w for _, w, _ in neighbors)
    if total < eps:
        return query.copy()
    shape = query.shape
    out = np.zeros(shape, dtype=np.uint8)
    for d in range(shape[0]):
        for h in range(shape[1]):
            for w in range(shape[2]):
                score = [0.0] * num_classes
                for vol_id, weight, _ in neighbors:
                    score[int(labels[vol_id][d, h, w])] += weight
                score = [s / (total + eps) for s in score]
                best = 0
                for cls in range(1, num_classes):
                    if score[cls] > score[best]:
                        best = cls
                out[d, h, w] = best
    return out


def refine_all_oracle(raw, certain, uncertain, labeled_id, features, k, num_classes):
    """Certain ids pass through; uncertain ids get the KNN weighted vote."""
    out = {}
    for vol_id in certain:
        if vol_id != labeled_id:
            out[vol_id] = raw[vol_id].copy()
    for vol_id in uncertain:
        neighbors = knn_oracle(features, sorted(certain), vol_id, k)
        out[vol_id] = vote_oracle(neighbors, raw, vol_id, num_classes)
    return out


# ---------------------------------------------------------------------------
# metrics

def dice_jaccard_oracle(pred, ref):
    np_ = nt = ni = nu = 0
    for a, b in zip(pred.reshape(-1), ref.reshape(-1)):
        a, b = bool(a), bool(b)
        np_ += a
        nt += b
        ni += a and b
        nu += a or b
    if np_ + nt == 0:
        return 1.0, 1.0, True
    dice = 2.0 * ni / (np_ + nt)
    jac = ni / nu if nu else 1.0
    return dice, jac, False


def surface_oracle(mask):
    """Foreground voxels with a 6-neighbor that is background or outside."""
    shape = mask.shape
    pts = []
    for d in range(shape[0]):
        for h in range(shape[1]):
            for w in range(shape[2]):
                if not mask[d, h, w]:
                    continue
                on_surface = False
                for dd, dh, dw in (
                    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)
                ):
                    nd, nh, nw = d + dd, h + dh, w + dw
                    if not (0 <= nd < shape[0] and 0 <= nh < shape[1] and 0 <= nw < shape[2]):
                        on_surface = True
                        break
                    if not mask[nd, nh, nw]:
                        on_surface = True
                        break
                if on_surface:
                    pts.append((d, h, w))
    return pts


def directed_distances_oracle(src_pts, dst_pts):
    out = []
    for a in src_pts:
        best = math.inf
        for b in dst_pts:
            dist = math.sqrt(
                (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2
            )
            best = min(best, dist)
        out.append(best)
    return out


def hd95_asd_oracle(pred, ref):
    """(hd95, asd, degenerate); empty surfaces report the volume diagonal."""
    shape = pred.shape
    sp = surface_oracle(pred)
    sr = surface_oracle(ref)
    if not sp or not sr:
        diag = math.sqrt(shape[0] ** 2 + shape[1] ** 2 + shape[2] ** 2)
        return diag, diag, True
    d_pr = directed_distances_oracle(sp, sr)
    d_rp = directed_distances_oracle(sr, sp)
    hd95 = max(
        quantile_threshold_oracle(d_pr, 0.95), quantile_threshold_oracle(d_rp, 0.95)
    )
    both = d_pr + d_rp
    return hd95, math.fsum(both) / len(both), False


# ---------------------------------------------------------------------------
# gradients

def finite_diff_grad(loss_fn, weights, bias, h=1e-6):
    """Central-difference gradient of loss_fn(weights, bias) in every coordinate."""
    dw = np.zeros_like(weights)
    for idx in np.ndindex(weights.shape):
        wp, wm = weights.copy(), weights.copy()
        wp[idx] += h
        wm[idx] -= h
        dw[idx] = (loss_fn(wp, bias) - loss_fn(wm, bias)) / (2.0 * h)
    db = np.zeros_like(bias)
    for idx in np.ndindex(bias.shape):
        bp, bm = bias.copy(), bias.copy()
        bp[idx] += h
        bm[idx] -= h
        db[idx] = (loss_fn(weights, bp) - loss_fn(weights, bm)) / (2.0 * h)
    return dw, db


# ---------------------------------------------------------------------------
# the former per-half loss and softmax inference
#
# ``specialist.loss_and_grad`` and ``specialist.infer`` as they were before
# the fused batch pass and the two-class margin path, verbatim.

def _ce_dice_terms(
    logits: np.ndarray, probs: np.ndarray, lse: np.ndarray, targets: np.ndarray, out: np.ndarray
) -> float:
    """0.5*(cross-entropy + soft Dice) over one (k, n) block of voxels.

    ``probs`` and ``lse`` (the logsumexp per voxel) come from the softmax of
    the whole batch.  Writes dL/dlogits into ``out`` and returns the loss.
    """
    k, n = logits.shape
    onehot = (targets == np.arange(k)[:, None]).astype(np.float64)
    ce = float((lse - (onehot * logits).sum(axis=0)).sum()) / n

    # soft Dice averaged over all classes on this block
    inter = (probs * onehot).sum(axis=1)
    denom = probs.sum(axis=1) + onehot.sum(axis=1) + DICE_SMOOTH
    dice_c = (2.0 * inter + DICE_SMOOTH) / denom
    dice_loss = float(1.0 - dice_c.sum() / k)
    # d dice_c / d probs[c, i] = (2*onehot - dice_c) / denom  (per class c),
    # then back through softmax: dL/dz = p * (g - sum_k g_k p_k)
    g = (dice_c[:, None] - 2.0 * onehot) / (k * denom)[:, None]
    g -= (g * probs).sum(axis=0)
    g *= probs
    # plus the cross-entropy gradient (p - onehot) / n
    np.subtract(probs, onehot, out=out)
    out /= n
    out += g
    out *= 0.5
    return 0.5 * (ce + dice_loss)


def loss_and_grad_oracle(
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
    Dice) on the labeled and pseudo-labeled voxels.  Logits are class-major,
    (k, n): one matmul gives the logits on every row of the batch and one the
    gradient, ``G @ x`` with ``G = [d_sup | alpha * d_pseudo]`` the per-voxel
    logit gradients.
    """
    w, b = params
    n_l = len(labeled_y)
    lab, pse = slice(0, n_l), slice(n_l, None)

    logits = w @ x.T
    logits += b[:, None]
    probs, top, total = _softmax(logits)
    lse = top + np.log(total)

    grad = np.empty_like(logits)
    sup = _ce_dice_terms(logits[:, lab], probs[:, lab], lse[lab], labeled_y, grad[:, lab])
    pseudo = _ce_dice_terms(logits[:, pse], probs[:, pse], lse[pse], pseudo_y, grad[:, pse])
    grad[:, pse] *= alpha

    return (sup + alpha * pseudo, sup, pseudo), (grad @ x, grad.sum(axis=1))


def infer_oracle(params: SpecialistParams, data: TrainVolumeData) -> tuple[LabelVolume, float]:
    """Labels and mean voxel entropy (nats) of one volume.

    Softmax, labels and entropy are fused: with ``s = logits - max`` and
    ``e = exp(s)``, the label is the lowest class at the max of ``e``
    (``volume.class_argmax``, written straight into the label volume) and the
    entropy is ``log(sum e) - sum(e * s) / sum e``, so no probability volume
    is built.  The label is taken on ``e``, not on ``s``: ``exp`` can round
    two logits one ulp apart to the same value, and the lower class wins.
    """
    labels = np.empty(data.n_voxels, dtype=np.uint8)
    entropy_sum = 0.0
    for sl, s in voxel_logits(params, data):
        s -= s.max(axis=0)
        e = np.exp(s)
        class_argmax(e, out=labels[sl])
        total = e.sum(axis=0)
        e *= s
        entropy_sum += float((np.log(total) - e.sum(axis=0) / total).sum())
    return (
        LabelVolume(data.shape, params.num_classes, labels.reshape(data.shape.as_tuple())),
        entropy_sum / data.n_voxels,
    )


# ---------------------------------------------------------------------------
# training loop
#
# The round training loop as it was before the class-major step: (n, k)
# logits, one matmul per voxel set and direction, a validated parameter
# object per step, and one log dict per step.  It draws from the generator in
# the same order as ``train_round`` (pick, labeled indices, pseudo indices),
# so both see the same batches.

def _softmax_rows_oracle(logits):
    stable = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(stable)
    return expd / expd.sum(axis=1, keepdims=True)


def _ce_dice_terms_oracle(logits, targets, num_classes):
    """0.5*(cross-entropy + soft Dice) over one (n, k) voxel set; (loss, dL/dlogits)."""
    n = logits.shape[0]
    probs = _softmax_rows_oracle(logits)
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), targets] = 1.0
    lse = logits.max(axis=1) + np.log(
        np.exp(logits - logits.max(axis=1, keepdims=True)).sum(axis=1)
    )
    ce = float((lse - logits[np.arange(n), targets]).mean())
    d_ce = (probs - onehot) / n
    inter = (probs * onehot).sum(axis=0)
    psum = probs.sum(axis=0)
    tsum = onehot.sum(axis=0)
    denom = psum + tsum + DICE_SMOOTH
    dice_c = (2.0 * inter + DICE_SMOOTH) / denom
    dice_loss = float(1.0 - dice_c.mean())
    g_probs = -(2.0 * onehot - dice_c[None, :]) / denom[None, :] / num_classes
    inner = (g_probs * probs).sum(axis=1, keepdims=True)
    d_dice = probs * (g_probs - inner)
    return 0.5 * (ce + dice_loss), 0.5 * (d_ce + d_dice)


def loss_and_grad_rows_oracle(params, lx, ly, px, py, alpha):
    """(total, sup, pseudo), (dW, db) of the round loss on (n, F) row blocks."""
    c = params.num_classes
    w, b = params.weights, params.bias
    sup, d_sup = _ce_dice_terms_oracle(lx @ w.T + b, ly, c)
    pseudo, d_pseudo = _ce_dice_terms_oracle(px @ w.T + b, py, c)
    total = sup + alpha * pseudo
    d_w = d_sup.T @ lx + alpha * (d_pseudo.T @ px)
    d_b = d_sup.sum(axis=0) + alpha * d_pseudo.sum(axis=0)
    return (total, sup, pseudo), (d_w, d_b)


def train_round_loop_oracle(labeled, labeled_gt, pool, pseudo_labels, config, seed):
    """(final SpecialistParams, per-step log dicts) of one round, voxel-major."""
    pool = sorted(pool, key=lambda v: v.vol_id)
    labeled_targets = labeled_gt.data.reshape(-1)
    targets = {v.vol_id: pseudo_labels[v.vol_id].data.reshape(-1) for v in pool}
    rng = np.random.default_rng(seed)
    params = SpecialistParams.zeros(labeled_gt.num_classes, labeled.num_features)
    vel_w = np.zeros_like(params.weights)
    vel_b = np.zeros_like(params.bias)
    n_lab = config.batch_voxels // 2
    n_pse = config.batch_voxels - n_lab
    total = config.iterations
    log = []
    for t in range(total):
        lr = BASE_LR * (1.0 - t / total) ** LR_POWER
        alpha = min(1.0, t / (RAMP_FRACTION * total))
        pick = pool[int(rng.integers(len(pool)))]
        li = rng.integers(0, labeled.n_voxels, size=n_lab)
        pi = rng.integers(0, pick.n_voxels, size=n_pse)
        (loss, sup, pse), (d_w, d_b) = loss_and_grad_rows_oracle(
            params, labeled.rows(li), labeled_targets[li],
            pick.rows(pi), targets[pick.vol_id][pi], alpha,
        )
        grad_norm = float(np.linalg.norm(np.concatenate([d_w.ravel(), d_b])))
        d_w = d_w + WEIGHT_DECAY * params.weights
        d_b = d_b + WEIGHT_DECAY * params.bias
        vel_w = MOMENTUM * vel_w + d_w
        vel_b = MOMENTUM * vel_b + d_b
        params = SpecialistParams(
            weights=params.weights - lr * vel_w, bias=params.bias - lr * vel_b
        )
        log.append({
            "iter": t, "lr": lr, "alpha": alpha, "loss": loss,
            "l_sup": sup, "l_pseudo": pse, "grad_norm": grad_norm,
            "param_norm": float(
                np.linalg.norm(np.concatenate([params.weights.ravel(), params.bias]))
            ),
        })
    return params, log


# ---------------------------------------------------------------------------
# phantom synthesis

def _ellipsoid_mask_whole_volume(shape, center, radii):
    axes = [
        ((np.arange(n) + 0.5) - c) / r
        for n, c, r in zip(shape.as_tuple(), center, radii)
    ]
    dd, hh, ww = np.meshgrid(*axes, indexing="ij", sparse=True)
    return dd**2 + hh**2 + ww**2 <= 1.0


def _volume_labels_whole_volume(spec, rng):
    extents = np.array(spec.shape.as_tuple(), dtype=np.float64)
    for _ in range(_MAX_JITTER_ATTEMPTS):
        labels = np.zeros(spec.shape.as_tuple(), dtype=np.uint8)
        for cls, cs in enumerate(spec.classes, start=1):
            center = np.array(cs.center) * extents
            center += rng.uniform(-spec.center_jitter, spec.center_jitter, size=3)
            radii = np.array(cs.radii) + rng.uniform(
                -spec.radius_jitter, spec.radius_jitter, size=3
            )
            radii = np.maximum(radii, 0.5)
            mask = _ellipsoid_mask_whole_volume(spec.shape, center, radii)
            if cs.family == "two_ellipsoids":
                shifted = center.copy()
                shifted[1] += _LOBE_OFFSET * radii[1]
                mask = mask | _ellipsoid_mask_whole_volume(
                    spec.shape, shifted, radii * _LOBE_SCALE
                )
            labels[mask] = cls
        counts = np.bincount(labels.reshape(-1), minlength=spec.num_classes)
        if (counts[: spec.num_classes] > 0).all():
            return labels
    raise ValueError("could not place every class after bounded jitter retries")


def generate_whole_volume_oracle(spec, out_dir):
    """``phantom.generate`` with every mask, noise draw and count made whole-volume.

    It writes through the package's ``save_array`` and ``save_manifest``, so
    only the package's slabbing is compared.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    truth_dir = out_dir / "truth"
    truth_dir.mkdir(exist_ok=True)
    entries, truth = [], {}
    for i in range(spec.num_volumes):
        vol_id = f"vol_{i:03d}"
        rng = np.random.default_rng([spec.seed, i])
        label_data = _volume_labels_whole_volume(spec, rng)
        sigma = spec.noise_sigma
        if spec.hard_sigma is not None and i >= spec.num_volumes - spec.hard_count:
            sigma = spec.hard_sigma
        means = np.array(
            [spec.background_mean] + [cs.intensity_mean for cs in spec.classes]
        )
        intensity = rng.normal(0.0, sigma, size=label_data.shape)
        intensity += means[label_data]
        vol = IntensityVolume(spec.shape, intensity.astype(np.float32))
        labels = LabelVolume(spec.shape, spec.num_classes, label_data)
        truth[vol_id] = labels
        intensity_name = f"{vol_id}.intensity.vxar"
        save_array(vol, out_dir / intensity_name)
        save_array(labels, truth_dir / f"{vol_id}.label.vxar")
        label_name = None
        if i == 0:
            label_name = f"{vol_id}.label.vxar"
            save_array(labels, out_dir / label_name)
        entries.append(VolumeEntry(vol_id=vol_id, intensity=intensity_name, label=label_name))
    manifest = DatasetManifest(
        num_classes=spec.num_classes, entries=tuple(entries), base_dir=out_dir
    )
    save_manifest(manifest, out_dir / "manifest.json")
    return manifest, truth
