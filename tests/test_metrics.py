"""Overlap and surface-distance metrics against brute-force references."""
from __future__ import annotations

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from protoloop.metrics import (
    distance_metrics,
    evaluate_pair,
    foreground_dice,
    format_table,
    overlap_metrics,
    pseudo_label_quality,
    summarize_reports,
    surface_voxels,
)
from protoloop.volume import LabelVolume, Shape3

from .oracles import (
    dice_jaccard_oracle,
    directed_distances_oracle,
    hd95_asd_oracle,
    surface_oracle,
)


def _labels(data, num_classes=2):
    data = np.asarray(data, dtype=np.uint8)
    return LabelVolume(Shape3(*data.shape), num_classes, data)


def _mask_volume(mask):
    return _labels(mask.astype(np.uint8))


# ---------------------------------------------------------------------------
# overlap

def test_overlap_identical_masks():
    rng = np.random.default_rng(1)
    lab = _labels(rng.integers(0, 2, size=(3, 3, 3)))
    dice, jac = overlap_metrics(lab, lab, 1)
    assert dice == 1.0 and jac == 1.0


def test_overlap_disjoint_masks():
    a = np.zeros((2, 2, 2), dtype=np.uint8)
    b = np.zeros((2, 2, 2), dtype=np.uint8)
    a[0, 0, 0] = 1
    b[1, 1, 1] = 1
    dice, jac = overlap_metrics(_labels(a), _labels(b), 1)
    assert dice == 0.0 and jac == 0.0


def test_overlap_hand_case():
    # |P| = |R| = 4, intersection 2 -> dice 0.5, jaccard 1/3
    a = np.zeros((1, 1, 8), dtype=np.uint8)
    b = np.zeros((1, 1, 8), dtype=np.uint8)
    a[0, 0, :4] = 1
    b[0, 0, 2:6] = 1
    dice, jac = overlap_metrics(_labels(a), _labels(b), 1)
    assert dice == pytest.approx(0.5)
    assert jac == pytest.approx(1.0 / 3.0)


def test_overlap_shape_mismatch():
    with pytest.raises(ValueError):
        overlap_metrics(
            _labels(np.zeros((2, 2, 2))), _labels(np.zeros((2, 2, 3))), 1
        )


# ---------------------------------------------------------------------------
# surfaces

def test_surface_single_voxel():
    mask = np.zeros((3, 3, 3), dtype=bool)
    mask[1, 1, 1] = True
    pts = surface_voxels(mask)
    assert [tuple(p) for p in pts] == [(1, 1, 1)]


def test_surface_solid_cube_shell():
    # 3x3x3 solid cube inside a 5x5x5 volume: 26 shell voxels, center excluded
    mask = np.zeros((5, 5, 5), dtype=bool)
    mask[1:4, 1:4, 1:4] = True
    pts = {tuple(p) for p in surface_voxels(mask)}
    assert len(pts) == 26
    assert (2, 2, 2) not in pts


def test_surface_volume_border_counts_as_background():
    mask = np.ones((2, 2, 2), dtype=bool)
    pts = {tuple(p) for p in surface_voxels(mask)}
    assert len(pts) == 8  # every voxel touches the border


def test_surface_empty_mask():
    assert len(surface_voxels(np.zeros((2, 2, 2), dtype=bool))) == 0


def test_surface_matches_oracle_seeded():
    rng = np.random.default_rng(66)
    for trial in range(10):
        mask = rng.random(size=(4, 4, 4)) < 0.4
        got = {tuple(p) for p in surface_voxels(mask)}
        assert got == set(surface_oracle(mask))


# ---------------------------------------------------------------------------
# distances

def test_distance_identical_masks_zero():
    mask = np.zeros((4, 4, 4), dtype=np.uint8)
    mask[1:3, 1:3, 1:3] = 1
    hd95, asd, degenerate = distance_metrics(_labels(mask), _labels(mask), 1)
    assert hd95 == 0.0 and asd == 0.0 and not degenerate


def test_distance_point_masks_three_apart():
    a = np.zeros((1, 1, 5), dtype=np.uint8)
    b = np.zeros((1, 1, 5), dtype=np.uint8)
    a[0, 0, 0] = 1
    b[0, 0, 3] = 1
    hd95, asd, degenerate = distance_metrics(_labels(a), _labels(b), 1)
    assert hd95 == pytest.approx(3.0) and asd == pytest.approx(3.0)
    assert not degenerate


def test_distance_empty_surface_sentinel():
    a = np.zeros((2, 3, 6), dtype=np.uint8)
    b = np.zeros((2, 3, 6), dtype=np.uint8)
    b[0, 0, 0] = 1
    hd95, asd, degenerate = distance_metrics(_labels(a), _labels(b), 1)
    diag = math.sqrt(2**2 + 3**2 + 6**2)
    assert degenerate
    assert hd95 == pytest.approx(diag) and asd == pytest.approx(diag)


def test_distance_matches_oracle_seeded():
    rng = np.random.default_rng(8)
    for trial in range(20):
        pred = rng.random(size=(8, 8, 8)) < 0.2
        ref = rng.random(size=(8, 8, 8)) < 0.2
        hd95, asd, degenerate = distance_metrics(_mask_volume(pred), _mask_volume(ref), 1)
        e_hd95, e_asd, e_degenerate = hd95_asd_oracle(pred, ref)
        assert degenerate == e_degenerate
        assert abs(hd95 - e_hd95) < 1e-9
        assert abs(asd - e_asd) < 1e-9


def test_distance_bounded_by_exact_hausdorff():
    rng = np.random.default_rng(15)
    for trial in range(10):
        pred = rng.random(size=(6, 6, 6)) < 0.3
        ref = rng.random(size=(6, 6, 6)) < 0.3
        sp, sr = surface_oracle(pred), surface_oracle(ref)
        if not sp or not sr:
            continue
        hd95, asd, _ = distance_metrics(_mask_volume(pred), _mask_volume(ref), 1)
        exact_hausdorff = max(
            max(directed_distances_oracle(sp, sr)),
            max(directed_distances_oracle(sr, sp)),
        )
        assert hd95 <= exact_hausdorff + 1e-12
        assert asd <= exact_hausdorff + 1e-12


def test_metric_symmetry():
    rng = np.random.default_rng(23)
    a = _mask_volume(rng.random(size=(5, 5, 5)) < 0.3)
    b = _mask_volume(rng.random(size=(5, 5, 5)) < 0.3)
    assert overlap_metrics(a, b, 1) == overlap_metrics(b, a, 1)
    assert distance_metrics(a, b, 1) == distance_metrics(b, a, 1)


def test_dice_jaccard_identity():
    rng = np.random.default_rng(31)
    for trial in range(20):
        a = _mask_volume(rng.random(size=(4, 4, 4)) < 0.5)
        b = _mask_volume(rng.random(size=(4, 4, 4)) < 0.5)
        dice, jac = overlap_metrics(a, b, 1)
        e_dice, e_jac, _ = dice_jaccard_oracle(a.data, b.data)
        assert abs(dice - e_dice) < 1e-12 and abs(jac - e_jac) < 1e-12
        assert abs(dice - 2.0 * jac / (1.0 + jac)) < 1e-9
        assert dice >= jac - 1e-12


# ---------------------------------------------------------------------------
# reports

def test_evaluate_pair_both_empty_class_flagged():
    pred = _labels(np.zeros((2, 2, 2)), 3)
    ref = _labels(np.zeros((2, 2, 2)), 3)
    report = evaluate_pair(pred, ref)
    for cm in report.per_class.values():
        assert cm.dice == 1.0 and cm.overlap_degenerate and cm.distance_degenerate
    assert report.foreground.dice == 1.0 and report.foreground.overlap_degenerate


def test_evaluate_pair_foreground_union():
    # classes disagree but the foreground union matches exactly
    pred = np.zeros((1, 1, 4), dtype=np.uint8)
    ref = np.zeros((1, 1, 4), dtype=np.uint8)
    pred[0, 0, :2] = 1
    ref[0, 0, :2] = 2
    report = evaluate_pair(_labels(pred, 3), _labels(ref, 3))
    assert report.per_class[1].dice == 0.0
    assert report.per_class[2].dice == 0.0
    assert report.foreground.dice == 1.0


def test_pseudo_label_quality_trivial_and_mean():
    rng = np.random.default_rng(2)
    truth = {k: _labels(rng.integers(0, 2, size=(3, 3, 3))) for k in ("a", "b")}
    assert pseudo_label_quality(truth, truth) == pytest.approx(1.0)

    half = np.zeros((1, 1, 4), dtype=np.uint8)
    half[0, 0, :2] = 1
    full = np.zeros((1, 1, 4), dtype=np.uint8)
    full[0, 0, :] = 1
    pseudo = {"a": _labels(full), "b": _labels(full)}
    ref = {"a": _labels(full), "b": _labels(half)}
    # dice(a) = 1.0, dice(b) = 2*2/(4+2) = 2/3
    assert pseudo_label_quality(pseudo, ref) == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)


def test_pseudo_label_quality_composition():
    rng = np.random.default_rng(41)
    pseudo = {f"v{i}": _labels(rng.integers(0, 2, size=(3, 3, 3))) for i in range(4)}
    truth = {f"v{i}": _labels(rng.integers(0, 2, size=(3, 3, 3))) for i in range(4)}
    expect = np.mean([foreground_dice(pseudo[k], truth[k]) for k in pseudo])
    assert pseudo_label_quality(pseudo, truth) == pytest.approx(expect, abs=1e-12)
    # more sets are scored against one lookup of each truth volume, each mean
    # bit for bit, and a looked-up volume is dropped before the next is read
    looked_up, alive = [], []

    class Read(dict):
        def __getitem__(self, key):
            assert all(ref() is None for ref in alive), "an earlier truth volume is alive"
            looked_up.append(key)
            lab = super().__getitem__(key)
            fresh = LabelVolume(lab.shape, lab.num_classes, lab.data.copy())
            alive.append(weakref.ref(fresh))
            return fresh

    got = pseudo_label_quality(pseudo, Read(truth), truth, pseudo)
    assert got == (pseudo_label_quality(pseudo, truth), 1.0, pseudo_label_quality(pseudo, truth))
    assert sorted(looked_up) == sorted(truth)


@pytest.mark.parametrize("shape", [(37, 64, 64), (5, 300, 301), (3, 4, 5)], ids=str)
def test_foreground_dice_counts_slabs_exactly(shape):
    # 16-plane slabs with a ragged last one, one plane per slab past the slab
    # size, and one slab: the whole-volume count's value exactly
    rng = np.random.default_rng(list(shape))
    pred, ref = (_labels(rng.integers(0, 3, size=shape) * rng.integers(0, 2, size=shape), 3)
                 for _ in range(2))
    p, r = pred.data > 0, ref.data > 0
    want = 2.0 * int(np.count_nonzero(p & r)) / (int(np.count_nonzero(p)) + int(np.count_nonzero(r)))
    assert foreground_dice(pred, ref) == want
    if pred.shape.voxels < 100:
        assert foreground_dice(pred, ref) == dice_jaccard_oracle(p, r)[0]
    empty = _labels(np.zeros(shape), 3)
    assert foreground_dice(empty, empty) == 1.0
    assert foreground_dice(pred, empty) == 0.0


def test_pseudo_label_quality_builds_no_voxel_mask():
    # one slab's bool intersection (64 KB); the foreground masks and their
    # intersection took 3 bytes per voxel
    rng = np.random.default_rng(43)
    shape = (64, 64, 128)
    pseudo = {"v": _labels(rng.integers(0, 3, size=shape), 3)}
    truth = {"v": _labels(rng.integers(0, 3, size=shape), 3)}
    tracemalloc.start()
    try:
        pseudo_label_quality(pseudo, truth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < pseudo["v"].shape.voxels / 4


def test_pseudo_label_quality_id_mismatch():
    lab = _labels(np.zeros((1, 1, 1)))
    with pytest.raises(ValueError):
        pseudo_label_quality({"a": lab}, {"b": lab})
    with pytest.raises(ValueError, match="id mismatch"):
        pseudo_label_quality({"a": lab}, {"a": lab}, {"b": lab})


def test_summary_and_table():
    rng = np.random.default_rng(77)
    reports = [
        evaluate_pair(
            _mask_volume(rng.random(size=(4, 4, 4)) < 0.4),
            _mask_volume(rng.random(size=(4, 4, 4)) < 0.4),
        )
        for _ in range(3)
    ]
    summary = summarize_reports(reports)
    assert summary["cases"] == 3
    assert "foreground" in summary["rows"]
    fg = summary["rows"]["foreground"]
    assert 0.0 <= fg["dice"]["mean"] <= 100.0
    table = format_table(summary)
    assert "Dice[%]" in table and "95HD" in table
    assert "foreground" in table
