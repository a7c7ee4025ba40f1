"""Independent brute-force reference implementations for the test suite.

Everything in this file is written straight from the definitions with plain
Python loops and scalar math, deliberately sharing no code or vectorization
structure with the package.  These are slow and obvious on purpose: the fast
implementations are checked against them on small seeded instances.  The one
exception is the dense per-voxel feature section, which shares the package's
z-score and cell LUTs so that factorized rows can be required byte-equal.
"""
from __future__ import annotations

import math

import numpy as np

from protoloop.encoder import zscore
from protoloop.specialist import cell_index_luts

EPS = 1e-8


# ---------------------------------------------------------------------------
# intensity statistics

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


def patch_features_oracle(data, patch, include_position=True, position_weight=0.25):
    """Per-patch statistics, channel for channel, via explicit loops."""
    z = zscore_oracle(data)
    shape = z.shape
    grads = [central_diff_abs(z, a) for a in range(3)]
    gs = tuple(math.ceil(s / patch) for s in shape)
    channels = 11 if include_position else 8
    out = np.zeros((channels,) + gs, dtype=np.float64)
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
                if include_position:
                    for a in range(3):
                        span = stops[a] - starts[a]
                        center = starts[a] + span / 2.0
                        cell.append(position_weight * center / shape[a])
                out[:, gd, gh, gw] = cell
    return out


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
    """Full propagation chain: prototypes -> cosine -> upsample -> softmax/argmax."""
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
    probs = np.zeros((num_classes,) + tuple(vol_shape), dtype=np.float64)
    for d in range(vol_shape[0]):
        for h in range(vol_shape[1]):
            for w in range(vol_shape[2]):
                lab, p = softmax_argmax_oracle([full[cls, d, h, w] for cls in range(num_classes)])
                labels[d, h, w] = lab
                for cls in range(num_classes):
                    probs[cls, d, h, w] = p[cls]
    return labels, probs


# ---------------------------------------------------------------------------
# dense per-voxel features
#
# The specialist never builds these: it keeps a cell table plus one z volume.
# The dense forms below are the reference its factorized rows, logits, labels
# and entropies are checked against.  They reuse the package's z-score and
# voxel -> cell LUTs on purpose, so that gathered rows must be byte-equal.

def per_voxel_features(vol, grid, index):
    """Feature vector of one voxel: its cell's features plus z-scored intensity."""
    d, h, w = index
    if not (0 <= d < vol.shape.d and 0 <= h < vol.shape.h and 0 <= w < vol.shape.w):
        raise ValueError(f"voxel index {index} outside volume {vol.shape.as_tuple()}")
    luts = cell_index_luts(vol.shape, grid.grid_shape)
    cell = grid.data[:, luts[0][d], luts[1][h], luts[2][w]].astype(np.float64)
    return np.concatenate([cell, [zscore(vol.data)[d, h, w]]])


def build_feature_matrix(vol, grid):
    """(n_voxels, channels + 1) float64 feature matrix in row-major voxel order."""
    luts = cell_index_luts(vol.shape, grid.grid_shape)
    cells = grid.data[:, luts[0]][:, :, luts[1]][:, :, :, luts[2]].astype(np.float64)
    flat = cells.reshape(grid.channels, -1).T
    z = zscore(vol.data).reshape(-1, 1)
    return np.ascontiguousarray(np.hstack([flat, z]))


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
