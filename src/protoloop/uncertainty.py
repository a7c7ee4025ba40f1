"""Prediction-entropy scoring of pool samples and the certain/uncertain split.

A sample's uncertainty is the mean voxel-wise entropy of its predicted class
probabilities (natural log).  The pool is split at a nearest-rank quantile of
those scores; the labeled template always counts as certain.  The pipeline
takes that mean from ``specialist.infer``, which fuses it into the prediction
pass; ``entropy_map``/``sample_uncertainty`` compute it from an explicit
probability volume.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .volume import ProbVolume

__all__ = [
    "SampleUncertainty",
    "Partition",
    "entropy_map",
    "sample_uncertainty",
    "partition_by_quantile",
    "partition_report",
]


@dataclass(frozen=True)
class SampleUncertainty:
    """Scalar uncertainty of one volume: mean voxel entropy in nats."""

    vol_id: str
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value) or self.value < 0:
            raise ValueError(f"uncertainty {self.value!r} must be finite and >= 0")


@dataclass(frozen=True)
class Partition:
    """Certain/uncertain ids plus the threshold that split them."""

    certain: frozenset[str]
    uncertain: frozenset[str]
    threshold: float
    labeled_id: str

    def __post_init__(self):
        object.__setattr__(self, "certain", frozenset(self.certain))
        object.__setattr__(self, "uncertain", frozenset(self.uncertain))
        if self.certain & self.uncertain:
            raise ValueError("certain and uncertain sets overlap")
        if self.labeled_id not in self.certain:
            raise ValueError("labeled sample must be in the certain set")


def entropy_map(p: ProbVolume) -> np.ndarray:
    """Voxel-wise entropy -sum_c p log p in nats, with 0*log(0) = 0."""
    probs = p.data.astype(np.float64)
    terms = np.where(probs > 0.0, probs * np.log(np.where(probs > 0.0, probs, 1.0)), 0.0)
    ent = -terms.sum(axis=0)
    # clamp float jitter; the mathematical range is [0, ln num_classes]
    return np.clip(ent, 0.0, None)


def sample_uncertainty(p: ProbVolume, vol_id: str = "") -> SampleUncertainty:
    return SampleUncertainty(vol_id=vol_id, value=float(entropy_map(p).mean()))


def partition_by_quantile(
    uncertainties: list[SampleUncertainty], labeled_id: str, q_unc: float = 0.9
) -> Partition:
    """Split the pool at the nearest-rank ``q_unc`` quantile of uncertainty.

    The threshold is the sorted value at 0-based index ceil(q_unc * N) - 1;
    samples at or below it are certain, and the labeled id is always added to
    the certain set.
    """
    if not uncertainties:
        raise ValueError("need at least one unlabeled sample to partition")
    if not 0.0 < q_unc <= 1.0:
        raise ValueError(f"q_unc={q_unc} outside (0, 1]")
    ids = [u.vol_id for u in uncertainties]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate volume ids in uncertainty list")
    if labeled_id in ids:
        raise ValueError("labeled sample must not appear in the pool uncertainties")

    values = sorted(u.value for u in uncertainties)
    rank = math.ceil(q_unc * len(values)) - 1
    threshold = values[rank]
    certain = {u.vol_id for u in uncertainties if u.value <= threshold}
    uncertain = {u.vol_id for u in uncertainties if u.value > threshold}
    certain.add(labeled_id)
    return Partition(
        certain=frozenset(certain),
        uncertain=frozenset(uncertain),
        threshold=threshold,
        labeled_id=labeled_id,
    )


def partition_report(
    round_index: int, partition: Partition, uncertainties: list[SampleUncertainty]
) -> dict:
    """JSON-ready uncertainty report for one round."""
    return {
        "round": round_index,
        "threshold": partition.threshold,
        "samples": [
            {
                "id": u.vol_id,
                "uncertainty": u.value,
                "certain": u.vol_id in partition.certain,
            }
            for u in sorted(uncertainties, key=lambda u: u.vol_id)
        ],
    }
