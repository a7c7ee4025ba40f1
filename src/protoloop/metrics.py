"""Segmentation quality metrics: Dice, Jaccard, 95th-percentile Hausdorff, ASD.

Distances are Euclidean between voxel centers, in voxel units.  Degenerate
cases (empty masks, empty surfaces) are flagged rather than silently zeroed;
empty-surface distances use the volume diagonal as a sentinel.

``scipy.spatial`` is imported inside :func:`_directed_distances`, the one
function that uses it, not at module import: it loads scipy's sparse and
linear-algebra packages and a second OpenBLAS, which would add tens of MB of
resident memory and a large share of the start-up time to every process,
while only the surface distances of ``protoloop eval`` need it.  The Dice
scores a pipeline run computes are numpy only.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .volume import LabelVolume

__all__ = [
    "ClassMetrics",
    "MetricReport",
    "overlap_metrics",
    "surface_voxels",
    "distance_metrics",
    "evaluate_pair",
    "foreground_dice",
    "pseudo_label_quality",
    "summarize_reports",
    "format_table",
]

# voxels per slab of the foreground intersection: its bool mask stays small
_SLAB_VOXELS = 1 << 16


@dataclass(frozen=True)
class ClassMetrics:
    dice: float
    jaccard: float
    hd95: float
    asd: float
    pred_empty: bool
    ref_empty: bool

    @property
    def overlap_degenerate(self) -> bool:
        """Both masks empty: overlap scores are 1.0 by convention."""
        return self.pred_empty and self.ref_empty

    @property
    def distance_degenerate(self) -> bool:
        """At least one empty surface: distances are the sentinel diagonal."""
        return self.pred_empty or self.ref_empty


@dataclass(frozen=True)
class MetricReport:
    """Per-class metrics (classes >= 1) plus the foreground-union aggregate."""

    per_class: dict[int, ClassMetrics]
    foreground: ClassMetrics


def _binary_overlap(pred: np.ndarray, ref: np.ndarray) -> tuple[float, float]:
    np_, nr = int(np.count_nonzero(pred)), int(np.count_nonzero(ref))
    return _overlap(np_, nr, int(np.count_nonzero(np.logical_and(pred, ref))))


def _overlap(np_: int, nr: int, inter: int) -> tuple[float, float]:
    """(dice, jaccard) from the two mask sizes and their intersection."""
    if np_ == 0 and nr == 0:
        return 1.0, 1.0
    dice = 2.0 * inter / (np_ + nr)
    union = np_ + nr - inter
    jaccard = inter / union if union else 1.0
    return dice, jaccard


def overlap_metrics(pred: LabelVolume, ref: LabelVolume, cls: int) -> tuple[float, float]:
    """(dice, jaccard) of one class; both-empty masks score 1.0 by convention."""
    _check_pair(pred, ref, cls)
    return _binary_overlap(pred.data == cls, ref.data == cls)


def surface_voxels(mask: np.ndarray) -> np.ndarray:
    """Indices (n, 3) of foreground voxels with a 6-connected background neighbor.

    The volume border counts as background, so any foreground voxel touching
    the border is surface.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 3:
        raise ValueError(f"expected a 3-D mask, got shape {mask.shape}")
    padded = np.pad(mask, 1, mode="constant", constant_values=False)
    interior = np.ones_like(mask)
    for axis in range(3):
        for shift in (-1, 1):
            interior &= np.roll(padded, shift, axis=axis)[1:-1, 1:-1, 1:-1]
    return np.argwhere(mask & ~interior)


def _directed_distances(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Distance from each src surface voxel to its nearest dst surface voxel."""
    # deferred so that importing protoloop, and any pipeline run, loads no scipy
    from scipy.spatial import cKDTree

    tree = cKDTree(dst)
    dist, _ = tree.query(src, k=1)
    return np.asarray(dist, dtype=np.float64)


def _nearest_rank(values: np.ndarray, q: float) -> float:
    """Nearest-rank quantile: sorted value at 0-based index ceil(q*n) - 1."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    rank = max(math.ceil(q * values.size) - 1, 0)
    return float(values[rank])


def distance_metrics(
    pred: LabelVolume, ref: LabelVolume, cls: int
) -> tuple[float, float, bool]:
    """(hd95, asd, degenerate) for one class, in voxel units.

    hd95 is the max of the two directed 95th-percentile (nearest-rank) surface
    distances; asd is the mean over the union of both directed distance sets.
    If either surface is empty both values are the volume-diagonal sentinel
    and the degenerate flag is set.
    """
    _check_pair(pred, ref, cls)
    return _surface_distances(pred.data == cls, ref.data == cls, pred.shape.diagonal)


def _surface_distances(
    pred_mask: np.ndarray, ref_mask: np.ndarray, diagonal: float
) -> tuple[float, float, bool]:
    """(hd95, asd, degenerate) of two masks; ``diagonal`` when a surface is empty."""
    sp = surface_voxels(pred_mask)
    sr = surface_voxels(ref_mask)
    if sp.size == 0 or sr.size == 0:
        return diagonal, diagonal, True
    d_pr = _directed_distances(sp, sr)
    d_rp = _directed_distances(sr, sp)
    hd95 = max(_nearest_rank(d_pr, 0.95), _nearest_rank(d_rp, 0.95))
    asd = float((d_pr.sum() + d_rp.sum()) / (d_pr.size + d_rp.size))
    return hd95, asd, False


def _check_pair(pred: LabelVolume, ref: LabelVolume, cls: int | None = None) -> None:
    if pred.shape != ref.shape:
        raise ValueError(
            f"shape mismatch: pred {pred.shape.as_tuple()} vs ref {ref.shape.as_tuple()}"
        )
    if pred.num_classes != ref.num_classes:
        raise ValueError(
            f"class-count mismatch: pred {pred.num_classes} vs ref {ref.num_classes}"
        )
    if cls is not None and not 0 <= cls < pred.num_classes:
        raise ValueError(f"class {cls} outside [0, {pred.num_classes})")


def _metrics_for_masks(
    pred_mask: np.ndarray, ref_mask: np.ndarray, diagonal: float
) -> ClassMetrics:
    dice, jaccard = _binary_overlap(pred_mask, ref_mask)
    hd95, asd, _ = _surface_distances(pred_mask, ref_mask, diagonal)
    return ClassMetrics(
        dice=dice,
        jaccard=jaccard,
        hd95=hd95,
        asd=asd,
        pred_empty=not pred_mask.any(),
        ref_empty=not ref_mask.any(),
    )


def evaluate_pair(pred: LabelVolume, ref: LabelVolume) -> MetricReport:
    """All metrics for one prediction/reference pair."""
    _check_pair(pred, ref)
    diagonal = pred.shape.diagonal
    per_class = {
        c: _metrics_for_masks(pred.data == c, ref.data == c, diagonal)
        for c in range(1, pred.num_classes)
    }
    foreground = _metrics_for_masks(pred.data > 0, ref.data > 0, diagonal)
    return MetricReport(per_class=per_class, foreground=foreground)


def foreground_dice(pred: LabelVolume, ref: LabelVolume) -> float:
    """Dice of the foreground union (any class >= 1).

    A uint8 label is foreground where it is non-zero, so both sizes are
    counted on the labels themselves and the intersection one slab of
    d-planes at a time: no whole-volume mask is built.
    """
    _check_pair(pred, ref)
    p, r = pred.data, ref.data
    step = max(1, _SLAB_VOXELS // (pred.shape.h * pred.shape.w))
    inter = sum(
        int(np.count_nonzero(np.logical_and(p[d0:d0 + step], r[d0:d0 + step])))
        for d0 in range(0, pred.shape.d, step)
    )
    dice, _ = _overlap(int(np.count_nonzero(p)), int(np.count_nonzero(r)), inter)
    return dice


def pseudo_label_quality(
    pseudo: dict[str, LabelVolume], truth: Mapping[str, LabelVolume], *others: dict[str, LabelVolume]
) -> float | tuple[float, ...]:
    """Mean foreground Dice of a pseudo-label set against ground truth; with
    ``others``, label sets of the same ids, the tuple of every set's mean.

    Each truth volume is looked up once, when its volume is scored in every
    set, and not kept, so a ``truth`` mapping that reads its values from files
    has one volume in memory at a time and reads each file once.
    """
    for labels in (pseudo, *others):
        if labels.keys() != truth.keys():
            raise ValueError(f"id mismatch: pseudo {sorted(labels)} vs truth {sorted(truth)}")
    if not pseudo:
        raise ValueError("empty pseudo-label set")
    dice = [[] for _ in (pseudo, *others)]
    for i in sorted(pseudo):
        ref = truth[i]
        for scores, labels in zip(dice, (pseudo, *others)):
            scores.append(foreground_dice(labels[i], ref))
        del ref  # dropped before the next truth volume is read
    means = tuple(float(np.mean(scores)) for scores in dice)
    return means if others else means[0]


# ---------------------------------------------------------------------------
# case aggregation

_COLUMNS = ("dice", "jaccard", "hd95", "asd")


def summarize_reports(reports: list[MetricReport]) -> dict:
    """Mean and population std of every metric over cases, JSON-ready.

    Dice/Jaccard are reported in percent, distances in voxel units.
    """
    if not reports:
        raise ValueError("no cases to summarize")
    classes = sorted(reports[0].per_class)
    rows: dict[str, list[ClassMetrics]] = {
        f"class_{c}": [r.per_class[c] for r in reports] for c in classes
    }
    rows["foreground"] = [r.foreground for r in reports]
    out: dict = {"cases": len(reports), "rows": {}}
    for name, cms in rows.items():
        row: dict = {}
        for col in _COLUMNS:
            vals = np.array([getattr(cm, col) for cm in cms], dtype=np.float64)
            if col in ("dice", "jaccard"):
                vals = vals * 100.0
            row[col] = {"mean": float(vals.mean()), "std": float(vals.std())}
        row["overlap_degenerate"] = sum(cm.overlap_degenerate for cm in cms)
        row["distance_degenerate"] = sum(cm.distance_degenerate for cm in cms)
        out["rows"][name] = row
    return out


def format_table(summary: dict) -> str:
    """Aligned-column text table of a :func:`summarize_reports` summary."""
    headers = ("Dice[%]", "Jaccard[%]", "95HD[voxel]", "ASD[voxel]")
    names = list(summary["rows"])
    cells = {
        name: [
            "{mean:.2f} ± {std:.2f}".format(**summary["rows"][name][col])
            for col in _COLUMNS
        ]
        for name in names
    }
    name_w = max(len(n) for n in names + ["region"])
    widths = [
        max(len(headers[i]), max(len(cells[n][i]) for n in names)) for i in range(4)
    ]
    lines = [
        "  ".join(
            ["region".ljust(name_w)] + [headers[i].rjust(widths[i]) for i in range(4)]
        )
    ]
    for name in names:
        lines.append(
            "  ".join(
                [name.ljust(name_w)] + [cells[name][i].rjust(widths[i]) for i in range(4)]
            )
        )
    flagged = sum(
        summary["rows"][n]["overlap_degenerate"] + summary["rows"][n]["distance_degenerate"]
        for n in names
    )
    lines.append(f"cases: {summary['cases']}, degenerate flags: {flagged}")
    return "\n".join(lines)
