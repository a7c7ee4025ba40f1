"""End-to-end acceptance suite.

Every test prints one ``[ACCEPTANCE] <name>: PASS|FAIL`` line (outside pytest's
capture) so a full run reads as a checklist, and then asserts the same
condition.  The first five checks pit the library against the brute-force
reference implementations in ``oracles.py`` on seeded instances; the last four
run the full pipeline on a frozen synthetic fixture and check the behaviour it
was calibrated for: training beats propagation, quality saturates instead of
collapsing, disabling refinement costs measurable Dice, no encoder call
happens after round 0, and everything is bit-reproducible.
"""
from __future__ import annotations

import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from protoloop.encoder import EncoderParams, FeatureGrid, extract_feature_grid
from protoloop.metrics import distance_metrics, overlap_metrics
from protoloop.phantom import ClassShape, PhantomSpec, generate
from protoloop.pipeline import PipelineConfig, run_pipeline, run_table
from protoloop.prototype import compute_prototypes, initial_pseudo_label
from protoloop.refine import refine_all
from protoloop.specialist import (
    SpecialistParams,
    TrainConfig,
    TrainVolumeData,
    infer,
    loss_and_grad,
)
from protoloop.uncertainty import Partition
from protoloop.volume import IntensityVolume, LabelVolume, Shape3

from .oracles import (
    dice_jaccard_oracle,
    finite_diff_grad,
    hd95_asd_oracle,
    refine_all_oracle,
    round0_oracle,
)


def _verdict(capsys, name: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        print(f"\n[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, f"{name}{detail}"


# ---------------------------------------------------------------------------
# round-0 propagation vs brute force

def test_round0_matches_bruteforce_oracle(capsys):
    rng = np.random.default_rng(515)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(50):
        num_classes = int(rng.integers(2, 4))
        channels = int(rng.integers(1, 9))
        gs = tuple(int(rng.integers(1, 5)) for _ in range(3))
        vol = tuple(int(g * rng.integers(1, 4)) for g in gs)

        tgrid = FeatureGrid(channels, Shape3(*gs), rng.normal(size=(channels,) + gs))
        qgrid = FeatureGrid(channels, Shape3(*gs), rng.normal(size=(channels,) + gs))
        tlabels = LabelVolume(
            Shape3(*vol), num_classes, rng.integers(0, num_classes, size=vol, dtype=np.uint8)
        )

        protos = compute_prototypes(tgrid, tlabels)
        got = initial_pseudo_label(qgrid, protos, Shape3(*vol))
        want = round0_oracle(
            tgrid.data.astype(np.float64),
            tlabels.data,
            qgrid.data.astype(np.float64),
            num_classes,
            vol,
        )
        if not np.array_equal(got.data, want):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    _verdict(
        capsys,
        "round-0 propagation == brute force (50 seeded cases)",
        ok,
        f" ({mismatches} mismatches, {elapsed:.2f}s)",
    )


# ---------------------------------------------------------------------------
# KNN refinement vs brute force

def test_refinement_matches_bruteforce_oracle(capsys):
    rng = np.random.default_rng(1121)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(50):
        pool = int(rng.integers(3, 11))
        num_classes = int(rng.integers(2, 4))
        channels = int(rng.integers(2, 6))
        vol = tuple(int(rng.integers(2, 5)) for _ in range(3))
        ids = [f"s{i:02d}" for i in range(pool)]
        labeled = "template"

        raw = {labeled: _random_labels(rng, vol, num_classes)}
        vecs = {}
        for vol_id in ids + [labeled]:
            v = rng.normal(size=channels)
            v /= np.linalg.norm(v)
            vecs[vol_id] = v
            if vol_id != labeled:
                raw[vol_id] = _random_labels(rng, vol, num_classes)

        n_unc = int(rng.integers(1, pool))
        order = list(rng.permutation(ids))
        uncertain = frozenset(order[:n_unc])
        certain = frozenset(order[n_unc:]) | {labeled}
        part = Partition(
            certain=certain, uncertain=uncertain, threshold=0.5, labeled_id=labeled
        )
        k = int(rng.integers(1, len(certain) + 1))

        got, _ = refine_all(raw, part, vecs, k)
        want = refine_all_oracle(
            {i: lab.data for i, lab in raw.items()},
            set(certain),
            set(uncertain),
            labeled,
            vecs,
            k,
            num_classes,
        )
        if got.keys() != want.keys() or any(
            not np.array_equal(got[i].data, want[i]) for i in got
        ):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    _verdict(
        capsys,
        "KNN refinement == brute force (50 seeded pools)",
        ok,
        f" ({mismatches} mismatches, {elapsed:.2f}s)",
    )


def _random_labels(rng, vol, num_classes):
    return LabelVolume(
        Shape3(*vol), num_classes, rng.integers(0, num_classes, size=vol, dtype=np.uint8)
    )


# ---------------------------------------------------------------------------
# entropy closed forms

def test_entropy_closed_forms(capsys):
    # through the entropy the pipeline partitions by: the fused pass of infer
    rng = np.random.default_rng(606)
    vol = IntensityVolume(Shape3(5, 6, 7), rng.normal(size=(5, 6, 7)))
    grid = extract_feature_grid(vol, EncoderParams(patch_size=2))
    data = TrainVolumeData.from_volume("v", vol, grid)
    _, uniform = infer(SpecialistParams.zeros(2, data.num_features), data)
    err_uniform = abs(uniform - math.log(2.0))

    # every logit gap is at least 800, so exp(-gap) underflows to 0.0 and
    # each voxel's probabilities are exactly one-hot
    weights = rng.uniform(-0.1, 0.1, size=(3, data.num_features))
    assert np.abs(data.cells).max() < 10 and np.abs(data.z(slice(None))).max() < 10
    _, one_hot = infer(SpecialistParams(weights, np.array([0.0, 1000.0, 0.0])), data)
    err_onehot = abs(one_hot)

    ok = err_uniform < 1e-6 and err_onehot < 1e-12
    _verdict(
        capsys,
        "entropy closed forms (uniform -> ln 2, one-hot -> 0)",
        ok,
        f" (uniform err {err_uniform:.2e}, one-hot err {err_onehot:.2e})",
    )


# ---------------------------------------------------------------------------
# analytic gradients vs central differences

def test_gradient_matches_finite_differences(capsys):
    rng = np.random.default_rng(2033)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        c = int(rng.integers(2, 5))
        f = int(rng.integers(2, 6))
        n_l = int(rng.integers(2, 9))
        n_p = int(rng.integers(2, 9))
        x_l = rng.normal(size=(n_l, f))
        y_l = rng.integers(0, c, size=n_l)
        x_p = rng.normal(size=(n_p, f))
        y_p = rng.integers(0, c, size=n_p)
        batch = (np.vstack([x_l, x_p]), y_l, y_p)
        params = SpecialistParams(rng.normal(size=(c, f)), rng.normal(size=c))
        alpha = float(rng.uniform(0.0, 1.0))

        _, (dw, db) = loss_and_grad((params.weights, params.bias), *batch, alpha)

        def loss_fn(w, b):
            (total, _, _), _ = loss_and_grad((w, b), *batch, alpha)
            return total

        fdw, fdb = finite_diff_grad(loss_fn, params.weights.copy(), params.bias.copy(), h=1e-5)
        scale = max(np.abs(fdw).max(), np.abs(fdb).max(), 1e-8)
        rel = max(np.abs(dw - fdw).max(), np.abs(db - fdb).max()) / scale
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    _verdict(
        capsys,
        "loss gradient == finite differences (20 seeded configs)",
        ok,
        f" (max rel err {worst:.2e}, {elapsed:.2f}s)",
    )


# ---------------------------------------------------------------------------
# overlap and distance metrics vs brute force

def test_metrics_match_bruteforce_oracles(capsys):
    rng = np.random.default_rng(3200)
    worst_dist = 0.0
    worst_overlap = 0.0
    worst_identity = 0.0
    for _ in range(200):
        vol = tuple(int(rng.integers(2, 7)) for _ in range(3))
        p = rng.uniform(0.25, 0.75)
        a = (rng.random(vol) < p).astype(np.uint8)
        b = (rng.random(vol) < p).astype(np.uint8)
        pred = LabelVolume(Shape3(*vol), 2, a)
        ref = LabelVolume(Shape3(*vol), 2, b)

        dice, jac = overlap_metrics(pred, ref, 1)
        dice_o, jac_o, _ = dice_jaccard_oracle(a, b)
        worst_overlap = max(worst_overlap, abs(dice - dice_o), abs(jac - jac_o))
        worst_identity = max(worst_identity, abs(dice - 2.0 * jac / (1.0 + jac)))

        hd95, asd, degenerate = distance_metrics(pred, ref, 1)
        hd95_o, asd_o, degenerate_o = hd95_asd_oracle(a.astype(bool), b.astype(bool))
        assert degenerate == degenerate_o
        worst_dist = max(worst_dist, abs(hd95 - hd95_o), abs(asd - asd_o))
    ok = worst_dist < 1e-9 and worst_overlap < 1e-12 and worst_identity < 1e-9
    _verdict(
        capsys,
        "Dice/Jaccard/95HD/ASD == brute force (200 seeded pairs)",
        ok,
        f" (overlap err {worst_overlap:.2e}, distance err {worst_dist:.2e}, "
        f"identity err {worst_identity:.2e})",
    )


# ---------------------------------------------------------------------------
# frozen pipeline fixture
#
# 24 volumes of 32^3, one labeled, all sharing the same two-lobe shape so that
# the pool disagrees only through noise (sigma 0.35).  Moderate noise puts
# round-0 propagation in the 0.5-0.8 band, leaves a first training round with
# clear headroom, and makes the weighted neighbor vote an effective denoiser:
# that is the regime the ablation check needs.  All seeds below are frozen.

FIXTURE_SPEC = dict(
    num_volumes=24,
    shape=Shape3(32, 32, 32),
    num_classes=2,
    classes=(
        ClassShape(
            family="two_ellipsoids",
            center=(0.5, 0.42, 0.5),
            radii=(7.0, 7.0, 7.0),
            intensity_mean=1.0,
        ),
    ),
    background_mean=0.0,
    noise_sigma=0.35,
    center_jitter=0.0,
    radius_jitter=0.0,
    seed=2024,
)

ROUNDS = 3


def _fixture_config(data_dir, out_dir, **overrides):
    cfg = dict(
        manifest_path=data_dir / "manifest.json",
        out_dir=out_dir,
        rounds=ROUNDS,
        encoder=EncoderParams(patch_size=8),
        train=TrainConfig(iterations=400, batch_voxels=2048, seed=0),
        knn=13,
        q_unc=0.6,
        seed=11,
        truth_dir=data_dir / "truth",
    )
    cfg.update(overrides)
    return PipelineConfig(**cfg)


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    data = base / "phantom"
    generate(PhantomSpec(**FIXTURE_SPEC), data)

    t0 = time.perf_counter()
    refined = run_pipeline(_fixture_config(data, base / "refined"))
    refined_seconds = time.perf_counter() - t0
    rerun = run_pipeline(_fixture_config(data, base / "rerun"))
    plain = run_pipeline(_fixture_config(data, base / "plain", refine=False))
    return SimpleNamespace(
        base=base,
        refined=refined,
        rerun=rerun,
        plain=plain,
        refined_seconds=refined_seconds,
    )


def test_pipeline_dice_rises_then_saturates(capsys, pipeline_runs):
    # every round's Dice, as its state.json records it
    seq = [row["pseudo_label_dice"] for row in run_table(pipeline_runs.base / "refined")]
    elapsed = pipeline_runs.refined_seconds
    ok = (
        0.5 <= seq[0] <= 0.8
        and seq[1] > seq[0]
        and seq[2] >= seq[1] - 0.01
        and elapsed < 300.0
    )
    curve = " -> ".join(f"{v:.3f}" for v in seq)
    _verdict(
        capsys,
        "pseudo-label Dice rises then saturates",
        ok,
        f" (rounds {curve}, {elapsed:.1f}s)",
    )


def test_disabling_refinement_degrades_final_dice(capsys, pipeline_runs):
    with_refine = pipeline_runs.refined.pseudo_label_dice
    without = pipeline_runs.plain.pseudo_label_dice
    gap = with_refine - without
    ok = gap >= 0.02
    _verdict(
        capsys,
        "no-refine run trails the refined run by >= 0.02 Dice",
        ok,
        f" (refined {with_refine:.4f}, plain {without:.4f}, gap {gap:+.4f})",
    )


def test_no_encoder_calls_after_round0(capsys, pipeline_runs):
    ok = True
    details = []
    for name in ("refined", "rerun", "plain"):
        report = json.loads((pipeline_runs.base / name / "report.json").read_text())
        honored = report["offline_contract_honored"]
        total = report["encoder_calls_total"]
        ok = ok and honored and total == report["encoder_calls_after_round0"]
        details.append(f"{name}: {total} calls, honored={honored}")
    _verdict(
        capsys,
        "zero encoder invocations after round 0",
        ok,
        f" ({'; '.join(details)})",
    )


def test_identical_seeds_are_bitwise_identical(capsys, pipeline_runs):
    diffs = []
    for r in range(ROUNDS + 1):
        d_a = pipeline_runs.base / "refined" / f"round_{r}"
        d_b = pipeline_runs.base / "rerun" / f"round_{r}"
        names_a = sorted(p.name for p in d_a.glob("*.label"))
        names_b = sorted(p.name for p in d_b.glob("*.label"))
        if names_a != names_b or not names_a:
            diffs.append(f"round {r}: file sets differ")
            continue
        for name in names_a:
            if (d_a / name).read_bytes() != (d_b / name).read_bytes():
                diffs.append(f"round {r}: {name}")
    ok = not diffs
    _verdict(
        capsys,
        "same-seed reruns produce bit-identical label files",
        ok,
        f" ({'clean' if ok else '; '.join(diffs[:4])})",
    )
