"""Class prototypes from the one labeled template, and similarity propagation.

The template's labels are pulled down to the feature grid, each class is
summarized by the normalized masked mean of its cell features, and unlabeled
volumes receive initial pseudo-labels by cosine similarity to those
prototypes.  The prototypes are one read-only ``(num_classes, C)`` float64
matrix: a present class's row is unit norm and an absent class's row is zero.
Similarities, softmax and the label decision all run on the cell grid, where
every voxel of a cell would see the same scores; the uint8 cell labels are
then expanded to the volume by nearest-neighbor resampling.
"""
from __future__ import annotations

import numpy as np

from .volume import FeatureGrid, LabelVolume, Shape3, class_argmax, nearest_resample_labels

__all__ = [
    "EPS",
    "compute_prototypes",
    "similarity_maps",
    "argmax_softmax",
    "initial_pseudo_label",
]

EPS = 1e-8

# Sentinel similarity for classes absent from the template grid: never wins a
# softmax/argmax.
NEG_INF = float("-inf")


def compute_prototypes(grid: FeatureGrid, labels: LabelVolume) -> np.ndarray:
    """Normalized masked mean of cell features per class on the label's grid.

    Labels are nearest-downsampled to the grid shape first, so the grid may
    not be larger than the label volume.  A class with no cells gets a zero
    row; so does a class whose mean feature is exactly the zero vector, which
    carries no direction.  At least one row must be non-zero.
    """
    _require_grid_within(grid, labels.shape)
    cell_labels = nearest_resample_labels(labels, grid.grid_shape)
    feats = grid.data.reshape(grid.channels, -1)
    flat = cell_labels.data.reshape(-1)

    vectors = np.zeros((labels.num_classes, grid.channels), dtype=np.float64)
    for c in range(labels.num_classes):
        mask = flat == c
        count = int(mask.sum())
        if count == 0:
            continue
        # one channel's cells of the class at a time, cast and summed: the
        # sums of a float64 copy of the grid, with no copy of the grid
        mean = np.array([row[mask].astype(np.float64).sum() for row in feats]) / (count + EPS)
        norm = float(np.linalg.norm(mean))
        if norm == 0.0:
            continue
        vectors[c] = mean / norm
    if not vectors.any():
        raise ValueError("template grid yields no usable class prototype")
    vectors.setflags(write=False)
    return vectors


def similarity_maps(grid: FeatureGrid, protos: np.ndarray) -> np.ndarray:
    """Cosine similarity of every cell to every prototype.

    Returns (num_classes, d', h', w') float64.  Cells with zero-norm features
    score 0 against every present class; absent classes are -inf everywhere.
    The one whole-grid temporary is the grid's float64 copy, which is divided
    by the norms in place: the norms sum the channels' squares one channel at
    a time, in ``np.linalg.norm``'s order, and so have its bits.
    """
    feats = grid.data.astype(np.float64).reshape(grid.channels, -1)
    norms, square = np.square(feats[0]), np.empty(feats.shape[1])
    for row in feats[1:]:
        norms += np.square(row, out=square)
    np.sqrt(norms, out=norms)
    zero = norms == 0.0
    norms[zero] = 1.0
    feats /= norms
    sims = protos @ feats  # (num_classes, cells)
    sims[:, zero] = 0.0
    sims[~protos.any(axis=1), :] = NEG_INF
    return sims.reshape((len(protos),) + grid.grid_shape.as_tuple())


def argmax_softmax(scores: np.ndarray) -> np.ndarray:
    """Labels of (num_classes, n) scores: softmax per column, then the lowest class at the max.

    The softmax stays before the decision: ``exp`` can round two scores one
    ulp apart to the same probability, and the tie then goes to the lower
    class.
    """
    peak = scores.max(axis=0)
    if not np.isfinite(peak).all():
        raise ValueError("every class scored -inf for some cell")
    expd = np.exp(scores - peak)
    return class_argmax(expd / expd.sum(axis=0))


def initial_pseudo_label(grid: FeatureGrid, protos: np.ndarray, vol_shape: Shape3) -> LabelVolume:
    """Propagate template prototypes onto one unlabeled volume.

    Each cell is labeled from its similarities, and the cell labels are
    nearest-upsampled to ``vol_shape``; no per-voxel score is formed.
    """
    num_classes, channels = protos.shape
    if grid.channels != channels:
        raise ValueError(f"grid has {grid.channels} channels, prototypes have {channels}")
    _require_grid_within(grid, vol_shape)
    sims = similarity_maps(grid, protos).reshape(num_classes, -1)
    cells = LabelVolume(grid.grid_shape, num_classes, argmax_softmax(sims))
    return nearest_resample_labels(cells, vol_shape)


def _require_grid_within(grid: FeatureGrid, shape: Shape3) -> None:
    """Refuse a grid with more cells than ``shape`` has voxels along some axis."""
    if any(g > v for g, v in zip(grid.grid_shape.as_tuple(), shape.as_tuple())):
        raise ValueError(
            f"grid {grid.grid_shape.as_tuple()} is larger than the volume {shape.as_tuple()}"
        )
