"""Deterministic patch-statistics features standing in for a pretrained encoder.

Each volume is z-score normalized, partitioned into non-overlapping cubic
patches (edge patches truncated), and every patch is summarized by a fixed
vector of ``CHANNELS`` values: 8 local statistics, then the 3 patch-center
coordinates, each divided by its axis extent and scaled by
``POSITION_WEIGHT`` (0.25).
The volume is streamed one d-row of cells at a time: a slab of ``p`` planes,
plus one halo plane on each side for the d-gradient, is z-scored from the
float32 intensities with the volume's two z-score scalars, and each of its
sources (the z-scored planes, then one |gradient| at a time) is copied into a
blocked layout with every patch's voxels on the last axis and reduced along
it.  The z-scored copy is reduced to its mean and std, then sorted once in
place along that axis, so min, max and median are read off the sorted
patches with no further pass.  Truncated edge patches are blocked as separate
regions with their own extents, so every shape takes the same code path and
no padding is needed.  No whole-volume z, blocked copy or gradient is built;
a caller that already holds the volume's ``zscore_scalars`` passes them in,
so each volume's scalar pass runs once.  The grid type, ``FeatureGrid``, is
defined in ``volume``, which reads and writes it.  The same grid/global-feature
contract also accepts features produced by an external model, loaded verbatim
from array files.
"""
from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .volume import FeatureGrid, IntensityVolume, Shape3, load_array

__all__ = [
    "EncoderParams",
    "extract_feature_grid",
    "global_feature",
    "ingest_external_features",
    "uniform_channel_count",
    "zscore_scalars",
    "apply_zscore",
    "extract_call_count",
]

BASE_CHANNELS = 8  # mean, std, min, max, median, mean|dd|, mean|dh|, mean|dw|
POSITION_WEIGHT = 0.25  # scale of the position channels
CHANNELS = BASE_CHANNELS + 3  # the statistics, then the d, h, w position

# Diagnostic counter: number of times the built-in extractor ran in this
# process.  The pipeline freezes it after the initial round to prove that no
# raw volume is re-encoded later.  The increment holds a lock so the count
# stays exact when a caller runs extraction on several threads.
_extract_calls = 0
_extract_calls_lock = threading.Lock()


def extract_call_count() -> int:
    return _extract_calls


@dataclass(frozen=True)
class EncoderParams:
    patch_size: int = 8  # voxels per grid cell along each axis

    def __post_init__(self):
        if self.patch_size < 2:
            raise ValueError(f"patch_size={self.patch_size} must be >= 2")


# Values cast to float64 at a time; at least 128.  numpy adds n > 128
# contiguous values as the sum of two halves split at n // 2 - (n // 2) % 8,
# and n <= 128 in one unsplit block, so a leaf of that tree reduced on its own
# is the sum numpy takes of it inside the whole.
_LEAF = 1 << 14


def _pairwise_sum(n: int, leaf_sum, start: int = 0) -> float:
    """``np.add.reduce`` of ``n`` contiguous values, bit for bit, from ``leaf_sum(start, m)``.

    The values are split as numpy splits them, down to leaves of at most
    ``_LEAF``, and the leaves' sums are added in numpy's order.
    """
    if n <= _LEAF:
        return leaf_sum(start, n)
    n2 = n // 2 - (n // 2) % 8
    return _pairwise_sum(n2, leaf_sum, start) + _pairwise_sum(n - n2, leaf_sum, start + n2)


def zscore_scalars(data: np.ndarray) -> tuple[float, float]:
    """(offset, scale) of the volume-wide z-score ``(float64(data) - offset) / scale``.

    They are ``mean()`` and ``std()`` of the float64 cast, bit for bit: the
    sum of the cast and then the sum of its squared deviations from the mean
    are taken leaf by leaf along numpy's own pairwise tree, each leaf cast
    into one buffer of ``_LEAF`` float64 values, and divided by the count.
    No whole-volume float64 array is made.  A constant volume (std 0) gets
    scale 1: every voxel equals the mean exactly, so it maps to ``+0.0``.
    ``apply_zscore`` applies them to any part of the volume.
    """
    flat = np.asarray(data).reshape(-1)
    n = flat.size
    buf = np.empty(min(n, _LEAF), dtype=np.float64)

    def cast(start: int, m: int) -> np.ndarray:
        leaf = buf[:m]
        leaf[...] = flat[start:start + m]
        return leaf

    mean = _pairwise_sum(n, lambda start, m: float(np.add.reduce(cast(start, m)))) / n

    def squares(start: int, m: int) -> float:
        leaf = cast(start, m)
        leaf -= mean
        leaf *= leaf
        return float(np.add.reduce(leaf))

    std = math.sqrt(_pairwise_sum(n, squares) / n)
    return mean, (std if std != 0.0 else 1.0)


def apply_zscore(
    values: np.ndarray, scalars: tuple[float, float], out: np.ndarray | None = None
) -> np.ndarray:
    """``(float64(values) - offset) / scale``, in ``out`` if given.

    The subtraction is asked for in float64: a float32 array minus a Python
    float is computed in float32, which changes bits.
    """
    offset, scale = scalars
    z = np.subtract(values, offset, out=out, dtype=np.float64)
    z /= scale
    return z


def _abs_gradient(z: np.ndarray, axis: int) -> np.ndarray:
    """|central difference| along ``axis``; an axis of extent 1 gets zeros."""
    if z.shape[axis] < 2:
        return np.zeros_like(z)
    grad = np.gradient(z, axis=axis)
    return np.abs(grad, out=grad)


def _order_statistics(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(min, max, median) along the last axis of ``blocks``, which is sorted in place.

    The median is the mean of the middle pair, as ``np.median`` takes it (for
    an odd count both are the middle value, and ``(x + x) / 2 == x``).  Equal
    values may swap places in the sort; that changes no byte here because a
    z-scored volume holds no ``-0.0``: ``x - m`` is ``+0.0`` when ``x == m``,
    and no nonzero float32 difference divided by a finite std rounds to zero.
    """
    blocks.sort(axis=-1)
    n = blocks.shape[-1]
    median = blocks[..., (n - 1) // 2] + blocks[..., n // 2]
    median /= 2
    return blocks[..., 0], blocks[..., -1], median


def _axis_parts(extent: int, p: int) -> list[tuple[slice, slice, int]]:
    """(voxel slice, cell slice, patch extent) for the run of whole patches
    along one axis and for its truncated edge patch, whichever exist."""
    whole, rest = divmod(extent, p)
    parts = []
    if whole:
        parts.append((slice(0, whole * p), slice(0, whole), p))
    if rest:
        parts.append((slice(whole * p, extent), slice(whole, whole + 1), rest))
    return parts


def _blocked(src: np.ndarray, voxels: tuple, sizes: tuple) -> np.ndarray:
    """Copy of ``src[voxels]`` as (cells_d, cells_h, cells_w, voxels per patch).

    Always a fresh array, never a view of ``src``, so it may be reordered.
    """
    region = src[voxels]
    cells = tuple(n // b for n, b in zip(region.shape, sizes))
    view = region.reshape(
        cells[0], sizes[0], cells[1], sizes[1], cells[2], sizes[2]
    ).transpose(0, 2, 4, 1, 3, 5)
    return view.copy().reshape(cells + (sizes[0] * sizes[1] * sizes[2],))


def extract_feature_grid(
    vol: IntensityVolume, params: EncoderParams, scalars: tuple[float, float] | None = None
) -> FeatureGrid:
    """Summarize each patch of ``vol`` into a fixed statistics vector.

    Channel order: mean, population std, min, max, median, then mean absolute
    central difference along d, h, w — all computed on the z-scored volume —
    then POSITION_WEIGHT * (patch center / axis extent) for d, h, w.

    The volume is covered one d-row of cells at a time.  Its ``p`` planes and
    one halo plane on each side (where the volume has one) are z-scored from
    the float32 intensities.  With the halo, the d-gradient of the row's edge
    planes is the same central difference a whole-volume gradient takes; at
    the volume's own first and last plane it is the same one-sided one.
    Every statistic is one reduction over the row's cells: a source is
    copied into blocked form, (1, cells_h, cells_w, voxels per patch), and
    reduced along its last axis.  An extent that is not a multiple of ``p``
    ends in one truncated edge patch, blocked with its own extents, so no
    padding enters any statistic.  Only one row's z, blocked copy and
    gradient are alive at a time.  Position channels are per-axis vectors
    broadcast over the grid.  ``scalars`` is ``zscore_scalars(vol.data)``
    when the caller already has it; without it they are computed here.
    """
    global _extract_calls
    with _extract_calls_lock:
        _extract_calls += 1

    p = params.patch_size
    shape = vol.shape.as_tuple()
    depth = shape[0]
    grid_shape = Shape3(*(-(-s // p) for s in shape))  # ceil division
    hw_regions = [
        tuple(zip(*parts))  # (voxel slices, cell slices, patch extents) along h, w
        for parts in itertools.product(*(_axis_parts(s, p) for s in shape[1:]))
    ]
    if scalars is None:
        scalars = zscore_scalars(vol.data)

    data = np.empty((CHANNELS,) + grid_shape.as_tuple(), dtype=np.float64)
    for gd in range(grid_shape.d):
        d0, d1 = gd * p, min(depth, gd * p + p)
        lo, hi = max(0, d0 - 1), min(depth, d1 + 1)  # the row plus its halo planes
        z = apply_zscore(vol.data[lo:hi], scalars)
        row = slice(d0 - lo, d1 - lo)
        regions = [
            ((slice(None),) + voxels, (slice(gd, gd + 1),) + cells, (d1 - d0,) + sizes)
            for voxels, cells, sizes in hw_regions
        ]
        for voxels, cells, sizes in regions:
            blocks = _blocked(z[row], voxels, sizes)
            out = data[(slice(None),) + cells]
            out[0] = blocks.mean(axis=-1)
            out[1] = blocks.std(axis=-1)
            out[2], out[3], out[4] = _order_statistics(blocks)  # sorts blocks
            del blocks
        for axis in range(3):
            if axis == 0:  # the halo planes give the row's edge planes their central difference
                grad = _abs_gradient(z, axis)[row]
            else:
                grad = _abs_gradient(z[row], axis)
            for voxels, cells, sizes in regions:
                data[(5 + axis,) + cells] = _blocked(grad, voxels, sizes).mean(axis=-1)
            del grad
    for axis, (extent, n) in enumerate(zip(shape, grid_shape.as_tuple())):
        start = np.arange(n) * p
        center = start + np.minimum(p, extent - start) / 2.0
        pos = POSITION_WEIGHT * center / extent
        data[BASE_CHANNELS + axis] = pos.reshape([-1 if a == axis else 1 for a in range(3)])
    return FeatureGrid(
        channels=CHANNELS,
        grid_shape=grid_shape,
        data=data,
        patch_size=(p, p, p),
    )


def global_feature(grid: FeatureGrid) -> np.ndarray:
    """The grid's channel means, L2-normalized: a read-only (channels,) float64 vector.

    It is unit norm, or ``+0.0`` zeros when every channel mean is exactly zero.
    """
    vec = grid.data.astype(np.float64).mean(axis=(1, 2, 3))
    norm = float(np.linalg.norm(vec))
    vec = np.zeros_like(vec) if norm == 0.0 else vec / norm
    vec.setflags(write=False)
    return vec


def ingest_external_features(path, vol_shape: Shape3) -> FeatureGrid:
    """Load an externally produced feature grid for a volume of ``vol_shape``.

    The grid is taken verbatim from the file.  When the header does not name
    a patch size it is inferred as ceil(volume extent / grid extent) per axis.
    """
    grid = load_array(path, FeatureGrid)
    gs = grid.grid_shape.as_tuple()
    vs = vol_shape.as_tuple()
    if any(g > v for g, v in zip(gs, vs)):
        raise ValueError(
            f"{path}: grid {gs} larger than volume {vs}"
        )
    if grid.patch_size is not None:
        return grid
    patch = tuple(-(-v // g) for g, v in zip(gs, vs))
    return FeatureGrid(
        channels=grid.channels, grid_shape=grid.grid_shape, data=grid.data, patch_size=patch
    )


def uniform_channel_count(grids: dict[str, FeatureGrid]) -> int:
    """The single channel count shared by all grids; raises on a mismatch.

    Any value with a ``channels`` count will do, such as the voxel features
    that hold a grid's values.
    """
    if not grids:
        raise ValueError("no feature grids")
    counts = {g.channels for g in grids.values()}
    if len(counts) != 1:
        per_id = {vol_id: g.channels for vol_id, g in sorted(grids.items())}
        raise ValueError(f"feature channel mismatch across volumes: {per_id}")
    return counts.pop()
