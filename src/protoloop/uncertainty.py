"""The certain/uncertain split of the pool by prediction entropy.

A sample's uncertainty is the mean voxel-wise entropy (natural log) of its
predicted class probabilities, which ``specialist.infer`` computes in the same
pass as the labels; the pool's uncertainties are a plain ``{volume id:
nats}`` dict, which ``pipeline`` records as the round's ``uncertainties``.
The pool is split at a nearest-rank quantile of those scores; the labeled
template always counts as certain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Partition",
    "partition_by_quantile",
]


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


def partition_by_quantile(
    uncertainties: dict[str, float], labeled_id: str, q_unc: float = 0.9
) -> Partition:
    """Split the pool at the nearest-rank ``q_unc`` quantile of uncertainty.

    The threshold is the sorted value at 0-based index ceil(q_unc * N) - 1;
    samples at or below it are certain, and the labeled id is always added to
    the certain set.  The values are finite: ``specialist.infer`` computes
    them and ``pipeline.load_round_state`` checks the ones it reads.
    """
    if not uncertainties:
        raise ValueError("need at least one unlabeled sample to partition")
    if not 0.0 < q_unc <= 1.0:
        raise ValueError(f"q_unc={q_unc} outside (0, 1]")
    if labeled_id in uncertainties:
        raise ValueError("labeled sample must not appear in the pool uncertainties")

    values = sorted(uncertainties.values())
    threshold = values[math.ceil(q_unc * len(values)) - 1]
    certain = {v for v, u in uncertainties.items() if u <= threshold}
    return Partition(
        certain=certain | {labeled_id},
        uncertain=uncertainties.keys() - certain,
        threshold=threshold,
        labeled_id=labeled_id,
    )

