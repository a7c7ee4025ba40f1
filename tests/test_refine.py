"""Nearest-neighbor retrieval and weighted-vote pseudo-label repair."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from protoloop import refine
from protoloop.refine import knn_certain_neighbors, refine_all, refine_pseudo_label
from protoloop.uncertainty import Partition
from protoloop.volume import LabelVolume, Shape3

from .oracles import downsample_labels_oracle, knn_oracle, refine_all_oracle, vote_oracle


def _vec(values):
    return np.asarray(values, dtype=np.float64)


def _labels(data, num_classes=2):
    data = np.asarray(data, dtype=np.uint8)
    return LabelVolume(Shape3(*data.shape), num_classes, data)


def _unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def _records(*pairs):
    """The neighbor records of ``(id, weight)`` pairs, each similarity equal to its weight."""
    return [{"id": vol_id, "weight": w, "similarity": w} for vol_id, w in pairs]


# ---------------------------------------------------------------------------
# neighbor retrieval

def test_single_certain_sample_forced():
    features = {"q": _vec([1.0, 0.0]), "a": _vec([-1.0, 0.0])}
    nbrs = knn_certain_neighbors(features, {"a"}, "q", 5)
    assert nbrs == [{"id": "a", "weight": 0.0, "similarity": -1.0}]  # negative cosine clips to zero


def test_identical_feature_ranks_first():
    features = {
        "q": _vec([1.0, 0.0]),
        "same": _vec([1.0, 0.0]),
        "other": _vec([0.0, 1.0]),
    }
    nbrs = knn_certain_neighbors(features, {"same", "other"}, "q", 2)
    assert nbrs[0]["id"] == "same"
    assert nbrs[0]["weight"] == pytest.approx(1.0)


def test_knn_matches_oracle_seeded():
    rng = np.random.default_rng(61)
    for trial in range(10):
        ids = [f"v{i}" for i in range(10)]
        features = {i: _vec(_unit(rng, 6)) for i in ids}
        certain = set(ids[1:])
        nbrs = knn_certain_neighbors(features, certain, ids[0], 5)
        expect = knn_oracle(
            {i: features[i] for i in ids}, sorted(certain), ids[0], 5
        )
        assert [n["id"] for n in nbrs] == [e[0] for e in expect]
        for n, e in zip(nbrs, expect):
            assert n["weight"] == pytest.approx(e[1], abs=1e-12)


def test_knn_exact_tie_breaks_by_id():
    # two certain samples with identical vectors tie exactly; lower id first
    features = {
        "q": _vec([1.0, 0.0]),
        "b": _vec([0.0, 1.0]),
        "a": _vec([0.0, 1.0]),
    }
    nbrs = knn_certain_neighbors(features, {"a", "b"}, "q", 2)
    assert [n["id"] for n in nbrs] == ["a", "b"]


def test_knn_truncates_to_pool_size():
    features = {"q": _vec([1.0]), "a": _vec([1.0]), "b": _vec([0.5])}
    nbrs = knn_certain_neighbors(features, {"a", "b"}, "q", 10)
    assert len(nbrs) == 2


def test_knn_validation():
    features = {"q": _vec([1.0]), "a": _vec([1.0])}
    with pytest.raises(ValueError):
        knn_certain_neighbors(features, {"a"}, "q", 0)
    with pytest.raises(ValueError, match="empty"):
        knn_certain_neighbors(features, set(), "q", 3)
    with pytest.raises(ValueError, match="certain"):
        knn_certain_neighbors(features, {"q", "a"}, "q", 3)


def test_common_scaling_preserves_order():
    rng = np.random.default_rng(13)
    ids = [f"v{i}" for i in range(8)]
    base = {i: _unit(rng, 5) for i in ids}
    certain = set(ids[1:])
    order_a = [
        n["id"]
        for n in knn_certain_neighbors({i: _vec(v) for i, v in base.items()}, certain, ids[0], 4)
    ]
    order_b = [
        n["id"]
        for n in knn_certain_neighbors(
            {i: _vec(3.0 * v) for i, v in base.items()}, certain, ids[0], 4
        )
    ]
    assert order_a == order_b


# ---------------------------------------------------------------------------
# weighted voting

def test_single_positive_neighbor_copies_labels():
    rng = np.random.default_rng(3)
    lab = rng.integers(0, 2, size=(2, 2, 2)).astype(np.uint8)
    raw = {"q": _labels(np.zeros((2, 2, 2))), "a": _labels(lab)}
    out = refine_pseudo_label("q", _records(("a", 0.7)), raw)
    assert (out.data == lab).all()


def test_heavier_neighbor_wins_disagreement():
    raw = {
        "q": _labels(np.zeros((1, 1, 1))),
        "a": _labels(np.ones((1, 1, 1))),
        "b": _labels(np.zeros((1, 1, 1))),
    }
    out = refine_pseudo_label("q", _records(("a", 0.9), ("b", 0.1)), raw)
    assert out.data[0, 0, 0] == 1


def test_vote_matches_oracle_seeded():
    rng = np.random.default_rng(29)
    for trial in range(10):
        shape = (2, 2, 2)
        weights = sorted((float(w) for w in rng.random(3)), reverse=True)
        raw = {"q": _labels(rng.integers(0, 3, size=shape), 3)}
        for i in range(3):
            raw[f"n{i}"] = _labels(rng.integers(0, 3, size=shape), 3)
        out = refine_pseudo_label("q", _records(*((f"n{i}", w) for i, w in enumerate(weights))), raw)
        expect = vote_oracle(
            [(f"n{i}", w, w) for i, w in enumerate(weights)],
            {k: v.data for k, v in raw.items()},
            "q",
            3,
        )
        assert out.data.tobytes() == expect.tobytes()


@pytest.mark.parametrize("num_classes", [2, 3, 4])
def test_slabbed_vote_matches_oracle(num_classes, monkeypatch):
    # 7 d-planes of 5x6 voxels, three planes per slab: the last slab holds one
    # plane.  Two neighbors have other shapes and are resampled; equal weights
    # make exact score ties, and a zero weight adds nothing.
    monkeypatch.setattr(refine, "_SLAB_VOXELS", 3 * 5 * 6 + 7)
    rng = np.random.default_rng(31)
    query_shape = (7, 5, 6)
    shapes = [(7, 5, 6), (3, 4, 6), (9, 10, 2), (7, 5, 6), (7, 5, 6)]
    weights = [0.75, 0.5, 0.5, 0.25, 0.0]
    raw = {"q": _labels(rng.integers(0, num_classes, size=query_shape), num_classes)}
    for i, shape in enumerate(shapes):
        raw[f"n{i}"] = _labels(rng.integers(0, num_classes, size=shape), num_classes)
    out = refine_pseudo_label("q", _records(*((f"n{i}", w) for i, w in enumerate(weights))), raw)
    resampled = {k: downsample_labels_oracle(v.data, query_shape) for k, v in raw.items()}
    expect = vote_oracle(
        [(f"n{i}", w, w) for i, w in enumerate(weights)], resampled, "q", num_classes
    )
    assert out.data.tobytes() == expect.tobytes()


def test_vote_allocates_no_per_voxel_scores():
    # the vote holds one slab of scores at a time; the volume only ever holds
    # the uint8 labels (1 byte per voxel), and the slab temporaries take under
    # 1 MB (about 3 bytes per voxel at 64^3).  A whole-volume
    # (num_classes, d, h, w) float64 score array alone would be 24 here.
    rng = np.random.default_rng(65)
    shape = (64, 64, 64)
    raw = {"q": _labels(np.zeros(shape), 3)}
    for i in range(5):
        raw[f"n{i}"] = _labels(rng.integers(0, 3, size=shape), 3)
    weights = [0.9, 0.7, 0.5, 0.3, 0.1]
    nbrs = _records(*((f"n{i}", w) for i, w in enumerate(weights)))
    refine_pseudo_label("q", nbrs, raw)  # warm-up
    tracemalloc.start()
    try:
        refine_pseudo_label("q", nbrs, raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    voxels = 64**3
    assert peak <= 6 * voxels, f"{peak / voxels:.1f} bytes per voxel"


def test_zero_total_weight_keeps_raw():
    nbrs = [{"id": "a", "weight": 0.0, "similarity": -0.4}]
    own = np.array([[[0, 1], [1, 0]]], dtype=np.uint8)
    raw = {"q": _labels(own), "a": _labels(np.ones((1, 2, 2)))}
    out = refine_pseudo_label("q", nbrs, raw)
    assert out is raw["q"]  # raw volume retained untouched


def test_vote_resamples_mismatched_neighbor():
    # neighbor at half resolution: constant class 1 expands to the query shape
    raw = {
        "q": _labels(np.zeros((4, 4, 4))),
        "a": _labels(np.ones((2, 2, 2))),
    }
    out = refine_pseudo_label("q", _records(("a", 1.0)), raw)
    assert (out.data == 1).all()
    assert out.shape.as_tuple() == (4, 4, 4)


def test_vote_rejects_class_count_mismatch():
    raw = {
        "q": _labels(np.zeros((1, 1, 1)), 2),
        "a": _labels(np.zeros((1, 1, 1)), 3),
    }
    with pytest.raises(ValueError, match="classes"):
        refine_pseudo_label("q", _records(("a", 1.0)), raw)


# ---------------------------------------------------------------------------
# whole-pool refinement

def _partition(certain, uncertain, labeled_id):
    return Partition(
        certain=frozenset(certain),
        uncertain=frozenset(uncertain),
        threshold=0.5,
        labeled_id=labeled_id,
    )


def test_refine_all_empty_uncertain_identity():
    rng = np.random.default_rng(5)
    raw = {
        "t": _labels(rng.integers(0, 2, size=(2, 2, 2))),
        "a": _labels(rng.integers(0, 2, size=(2, 2, 2))),
        "b": _labels(rng.integers(0, 2, size=(2, 2, 2))),
    }
    features = {k: _vec([1.0, 0.0]) for k in raw}
    refined, audit = refine_all(raw, _partition({"t", "a", "b"}, set(), "t"), features, 3)
    assert set(refined) == {"a", "b"}
    assert refined["a"] is raw["a"]
    assert refined["b"] is raw["b"]
    assert audit == []


def test_refine_all_equal_features_equal_vote():
    # both certain neighbors vote with weight 1; they agree on one voxel only
    features = {k: _vec([1.0, 0.0]) for k in ("t", "a", "u")}
    raw = {
        "t": _labels(np.array([[[1, 1, 0, 0]]])),
        "a": _labels(np.array([[[1, 0, 1, 0]]])),
        "u": _labels(np.array([[[0, 0, 0, 1]]])),
    }
    refined, audit = refine_all(raw, _partition({"t", "a"}, {"u"}, "t"), features, 5)
    # voxel 0: both vote 1 -> 1; voxels 1, 2: split vote -> tie, lowest class 0;
    # voxel 3: both vote 0 -> the query's own raw value is outvoted
    assert refined["u"].data.reshape(-1).tolist() == [1, 0, 0, 0]
    assert len(audit) == 1 and audit[0]["id"] == "u"
    assert {n["id"] for n in audit[0]["neighbors"]} == {"a", "t"}


def test_refine_all_matches_oracle_seeded():
    rng = np.random.default_rng(98)
    for trial in range(8):
        ids = [f"v{i}" for i in range(8)]
        labeled = ids[0]
        features = {i: _vec(_unit(rng, 4)) for i in ids}
        raw = {i: _labels(rng.integers(0, 2, size=(3, 3, 3))) for i in ids}
        uncertain = set(rng.choice(ids[1:], size=2, replace=False).tolist())
        certain = set(ids) - uncertain
        part = _partition(certain, uncertain, labeled)
        refined, _ = refine_all(raw, part, features, 3)
        expect = refine_all_oracle(
            {k: v.data for k, v in raw.items()},
            certain,
            uncertain,
            labeled,
            features,
            3,
            2,
        )
        assert set(refined) == set(expect)
        for vol_id in refined:
            assert refined[vol_id].data.tobytes() == expect[vol_id].tobytes(), vol_id


def test_refine_all_missing_raw_rejected():
    features = {k: _vec([1.0]) for k in ("t", "a", "u")}
    raw = {"t": _labels(np.zeros((1, 1, 1)))}
    with pytest.raises(ValueError, match="missing"):
        refine_all(raw, _partition({"t", "a"}, {"u"}, "t"), features, 2)


def test_refined_classes_subset_of_neighbor_classes():
    rng = np.random.default_rng(44)
    for trial in range(5):
        ids = ["t", "a", "b", "u"]
        features = {i: _vec(_unit(rng, 3)) for i in ids}
        raw = {i: _labels(rng.integers(0, 3, size=(2, 2, 2)), 3) for i in ids}
        part = _partition({"t", "a", "b"}, {"u"}, "t")
        refined, audit = refine_all(raw, part, features, 3)
        voted = audit[0]["neighbors"]
        stack = np.stack([raw[n["id"]].data for n in voted])
        out = refined["u"].data
        if sum(n["weight"] for n in voted) >= 1e-8:
            present = (stack == out[None]).any(axis=0)
            assert present.all()


def test_refine_deterministic():
    rng = np.random.default_rng(71)
    ids = [f"v{i}" for i in range(6)]
    features = {i: _vec(_unit(rng, 4)) for i in ids}
    raw = {i: _labels(rng.integers(0, 2, size=(2, 2, 2))) for i in ids}
    part = _partition(set(ids[:4]), set(ids[4:]), ids[0])
    a, _ = refine_all(raw, part, features, 3)
    b, _ = refine_all(raw, part, features, 3)
    for vol_id in a:
        assert a[vol_id].data.tobytes() == b[vol_id].data.tobytes()
