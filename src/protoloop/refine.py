"""KNN pseudo-label refinement: uncertain samples inherit votes from certain ones.

For each uncertain sample, the nearest certain samples in global-feature space
(plain vectors from ``encoder.global_feature``, so a cosine is one dot product)
vote voxel-wise on its labels, weighted by clipped cosine similarity.  Certain
samples keep their labels untouched, and the labeled template votes with its
ground truth.  A query's neighbors are plain ``{"id", "weight",
"similarity"}`` records in descending similarity, ties by id, which
``refine_all``'s audit trail keeps as they are.

The vote runs in slabs of whole d-planes: each slab's ``(num_classes, n)``
scores are summed in neighbor order, normalized by the total weight, and
labeled with the lowest class at the per-voxel max (``volume.class_argmax``),
so no whole-volume score array is built.
"""
from __future__ import annotations

import numpy as np

from .uncertainty import Partition
from .volume import LabelVolume, class_argmax, nearest_resample_labels

__all__ = [
    "EPS",
    "knn_certain_neighbors",
    "refine_pseudo_label",
    "refine_all",
]

EPS = 1e-8

# voxels per slab of the vote: its score temporaries stay cache-sized
_SLAB_VOXELS = 1 << 14


def knn_certain_neighbors(
    features: dict[str, np.ndarray], certain: frozenset[str] | set[str], query_id: str, k: int
) -> list[dict]:
    """The min(k, |certain|) most similar certain samples to the query.

    Each is a record of its ``id``, its raw cosine ``similarity`` and its
    ``weight``, the cosine clipped at 0.
    """
    if k < 1:
        raise ValueError(f"k={k} must be >= 1")
    if not certain:
        raise ValueError("certain set is empty")
    if query_id in certain:
        raise ValueError(f"query {query_id!r} is already certain")
    q = features[query_id]
    scored = []
    for vol_id in sorted(certain):
        sim = float(q @ features[vol_id])
        scored.append({"id": vol_id, "weight": max(0.0, sim), "similarity": sim})
    scored.sort(key=lambda n: (-n["similarity"], n["id"]))
    return scored[:k]


def refine_pseudo_label(
    query_id: str, neighbors: list[dict], raw_labels: dict[str, LabelVolume]
) -> LabelVolume:
    """Weighted voxel-wise vote of the ``neighbors``' labels on ``query_id``.

    Labels of a shape other than the query's are nearest-resampled to its
    shape first.  A class's score is the sum of the weights of the neighbors
    voting for it, divided by the total weight; the label is the lowest class
    with the top score.  If every weight is (numerically) zero the query keeps
    its own raw labels.
    """
    query = raw_labels[query_id]
    shape = query.shape
    num_classes = query.num_classes

    total = sum(n["weight"] for n in neighbors)
    if total < EPS:
        return query

    votes = []
    for n in neighbors:
        lab = raw_labels[n["id"]]
        if lab.num_classes != num_classes:
            raise ValueError(
                f"neighbor {n['id']!r} has {lab.num_classes} classes, query has {num_classes}"
            )
        votes.append((n["weight"], nearest_resample_labels(lab, shape).data.reshape(-1)))

    # adding weight * 0.0 leaves a non-negative sum unchanged, so each class
    # sums exactly the weights that vote for it, in neighbor order
    refined = np.empty(shape.voxels, dtype=np.uint8)
    plane = shape.h * shape.w
    step = max(1, _SLAB_VOXELS // plane) * plane
    for start in range(0, shape.voxels, step):
        sl = slice(start, start + step)
        out = refined[sl]
        scores = np.zeros((num_classes, out.size))
        for weight, lab in votes:
            part = lab[sl]
            for c in range(num_classes):
                scores[c] += weight * (part == c)
        scores /= total + EPS
        class_argmax(scores, out=out)
    return LabelVolume(shape, num_classes, refined.reshape(shape.as_tuple()))


def refine_all(
    raw: dict[str, LabelVolume],
    partition: Partition,
    features: dict[str, np.ndarray],
    k: int,
) -> tuple[dict[str, LabelVolume], list[dict]]:
    """Refine every uncertain sample; certain ones pass through untouched.

    ``raw`` must cover every partitioned id, including the labeled template
    (whose entry is its ground truth).  Returns the refreshed pseudo-label set
    for the pool plus an audit trail of neighbor choices.
    """
    missing = (partition.certain | partition.uncertain) - raw.keys()
    if missing:
        raise ValueError(f"raw labels missing for {sorted(missing)}")

    refined: dict[str, LabelVolume] = {}
    audit: list[dict] = []
    for vol_id in sorted(partition.certain):
        if vol_id != partition.labeled_id:
            refined[vol_id] = raw[vol_id]
    for vol_id in sorted(partition.uncertain):
        nbrs = knn_certain_neighbors(features, partition.certain, vol_id, k)
        refined[vol_id] = refine_pseudo_label(vol_id, nbrs, raw)
        audit.append({"id": vol_id, "neighbors": nbrs})
    return refined, audit
