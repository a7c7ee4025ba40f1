"""The dense entropy reference and the certain/uncertain quantile split."""
from __future__ import annotations

import math

import numpy as np
import pytest

from protoloop.uncertainty import Partition, partition_by_quantile

from .oracles import entropy_map, entropy_oracle, quantile_threshold_oracle, sample_uncertainty


def _probs(data):
    return np.asarray(data, dtype=np.float64)


def _one_hot(shape, cls, num_classes):
    data = np.zeros((num_classes,) + shape)
    data[cls] = 1.0
    return _probs(data)


def test_entropy_one_hot_zero():
    e = entropy_map(_one_hot((2, 2, 2), 1, 2))
    assert (np.abs(e) < 1e-12).all()


def test_entropy_uniform_ln2():
    e = entropy_map(_probs(np.full((2, 3, 3, 3), 0.5)))
    np.testing.assert_allclose(e, math.log(2.0), atol=1e-6)


def test_entropy_matches_oracle_seeded():
    rng = np.random.default_rng(404)
    for trial in range(8):
        c = int(rng.integers(2, 5))
        shape = tuple(int(rng.integers(1, 4)) for _ in range(3))
        raw = rng.random(size=(c,) + shape) + 1e-6
        raw /= raw.sum(axis=0)
        p = _probs(raw)
        expect_map, expect_mean = entropy_oracle(p)
        np.testing.assert_allclose(entropy_map(p), expect_map, atol=1e-6)
        assert sample_uncertainty(p) == pytest.approx(expect_mean, abs=1e-6)


def test_sample_uncertainty_trivial_values():
    assert sample_uncertainty(_one_hot((2, 2, 2), 0, 2)) == pytest.approx(0.0, abs=1e-12)
    assert sample_uncertainty(_probs(np.full((2, 2, 2, 2), 0.5))) == pytest.approx(
        math.log(2.0), abs=1e-6
    )


def test_sample_uncertainty_half_one_hot_half_uniform():
    # 4 one-hot voxels and 4 uniform voxels average to ln(2)/2
    data = np.zeros((2, 2, 2, 2))
    data[0, 0] = 1.0          # first d-slab one-hot class 0
    data[:, 1] = 0.5          # second d-slab uniform
    u = sample_uncertainty(_probs(data))
    assert u == pytest.approx(math.log(2.0) / 2.0, abs=1e-6)


def test_uncertainty_bounds_property():
    rng = np.random.default_rng(3)
    for trial in range(10):
        c = int(rng.integers(2, 6))
        raw = rng.random(size=(c, 2, 2, 2)) + 1e-9
        raw /= raw.sum(axis=0)
        u = sample_uncertainty(_probs(raw))
        assert 0.0 <= u <= math.log(c) + 1e-12


def test_partition_nearest_rank_example():
    unc = {f"v{i}": (i + 1) / 10.0 for i in range(10)}
    part = partition_by_quantile(unc, "template", 0.9)
    assert part.threshold == pytest.approx(0.9)
    assert len(part.certain) == 10  # 9 unlabeled at or below threshold + the template
    assert part.uncertain == frozenset({"v9"})
    assert "template" in part.certain


def test_partition_q_one_all_certain():
    unc = {f"v{i}": float(i) for i in range(5)}
    part = partition_by_quantile(unc, "t", 1.0)
    assert not part.uncertain
    assert part.certain == frozenset({"t", "v0", "v1", "v2", "v3", "v4"})


def test_partition_all_equal_all_certain():
    unc = {f"v{i}": 0.25 for i in range(4)}
    part = partition_by_quantile(unc, "t", 0.5)
    assert not part.uncertain


def test_partition_monotone_in_quantile():
    rng = np.random.default_rng(9)
    values = rng.random(12)
    unc = {f"v{i}": float(v) for i, v in enumerate(values)}
    prev = None
    for q in (0.25, 0.5, 0.75, 0.9, 1.0):
        part = partition_by_quantile(unc, "t", q)
        if prev is not None:
            assert prev.certain <= part.certain
        prev = part


def test_partition_permutation_invariant():
    rng = np.random.default_rng(10)
    values = rng.random(9)
    unc = {f"v{i}": float(v) for i, v in enumerate(values)}
    base = partition_by_quantile(unc, "t", 0.6)
    items = list(unc.items())
    rng.shuffle(items)
    assert partition_by_quantile(dict(items), "t", 0.6) == base


def test_partition_threshold_matches_oracle():
    rng = np.random.default_rng(11)
    for trial in range(10):
        n = int(rng.integers(1, 15))
        q = float(rng.uniform(0.05, 1.0))
        values = [float(v) for v in rng.random(n)]
        unc = {f"v{i}": v for i, v in enumerate(values)}
        part = partition_by_quantile(unc, "t", q)
        assert part.threshold == quantile_threshold_oracle(values, q)
        certain_pool = {vol_id for vol_id, u in unc.items() if u <= part.threshold}
        assert part.certain == certain_pool | {"t"}
        assert part.certain | part.uncertain == unc.keys() | {"t"}


def test_partition_validation():
    with pytest.raises(ValueError, match="unlabeled"):
        partition_by_quantile({}, "t", 0.9)
    unc = {"v0": 0.1}
    with pytest.raises(ValueError):
        partition_by_quantile(unc, "t", 0.0)
    with pytest.raises(ValueError):
        partition_by_quantile(unc, "t", 1.5)
    with pytest.raises(ValueError):
        partition_by_quantile({"t": 0.1}, "t", 0.9)


def test_partition_type_invariants():
    with pytest.raises(ValueError):
        Partition(
            certain=frozenset({"a"}), uncertain=frozenset({"a"}), threshold=0.5, labeled_id="a"
        )
    with pytest.raises(ValueError):
        Partition(
            certain=frozenset({"b"}), uncertain=frozenset(), threshold=0.5, labeled_id="a"
        )

