"""The benchmark's workloads: a frozen phantom fixture plus the pipeline run on it.

The workload seed is the phantom seed; the pipeline's own settings, its seed
included, are frozen per workload.  ``expected_dice`` holds the round-0 and
final mean foreground Dice at the default seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from protoloop.encoder import EncoderParams
from protoloop.phantom import ClassShape, PhantomSpec
from protoloop.pipeline import PipelineConfig
from protoloop.specialist import TrainConfig
from protoloop.volume import Shape3


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    held_out_seed: int  # never used while tuning; re-check later claims on it
    spec: dict  # PhantomSpec fields except the seed
    run: dict  # PipelineConfig fields except paths
    resume: bool  # run round by round from persisted state, as `init` + `round` do
    expected_dice: tuple[float, float] | None

    def phantom(self, seed: int) -> PhantomSpec:
        return PhantomSpec(**self.spec, seed=seed)

    def config(self, data_dir: Path, out_dir: Path) -> PipelineConfig:
        return PipelineConfig(
            manifest_path=data_dir / "manifest.json",
            out_dir=out_dir,
            truth_dir=data_dir / "truth",
            **self.run,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # the acceptance fixture of tests/test_acceptance.py, frozen here
        Workload(
            name="desk",
            default_seed=2024,
            held_out_seed=3031,
            spec=dict(
                num_volumes=24,
                shape=Shape3(32, 32, 32),
                num_classes=2,
                classes=(ClassShape("two_ellipsoids", (0.5, 0.42, 0.5), (7.0, 7.0, 7.0), 1.0),),
                noise_sigma=0.35,
            ),
            run=dict(
                rounds=3,
                encoder=EncoderParams(patch_size=8),
                train=TrainConfig(iterations=400, batch_voxels=2048, seed=0),
                knn=13,
                q_unc=0.6,
                seed=11,
            ),
            resume=False,
            expected_dice=(0.5303, 0.8765),
        ),
        Workload(
            name="large",
            default_seed=2024,
            held_out_seed=4049,
            spec=dict(
                num_volumes=4,
                shape=Shape3(128, 128, 128),
                num_classes=2,
                classes=(ClassShape("two_ellipsoids", (0.5, 0.42, 0.5), (28.0, 28.0, 28.0), 1.0),),
                noise_sigma=0.35,
                center_jitter=4.0,
            ),
            run=dict(
                rounds=2,
                encoder=EncoderParams(patch_size=4),
                train=TrainConfig(iterations=400, batch_voxels=2048, seed=0),
                knn=3,
                q_unc=0.75,
                seed=11,
            ),
            resume=False,
            expected_dice=(0.9488, 0.9534),
        ),
        Workload(
            name="resume",
            default_seed=99,
            held_out_seed=5077,
            spec=dict(
                num_volumes=12,
                shape=Shape3(64, 64, 64),
                num_classes=3,
                classes=(
                    ClassShape("two_ellipsoids", (0.5, 0.35, 0.5), (10.24, 10.24, 10.24), 1.0),
                    ClassShape("ellipsoid", (0.5, 0.78, 0.5), (6.4, 6.4, 6.4), 2.0),
                ),
                noise_sigma=0.35,
                center_jitter=2.0,
                hard_fraction=0.25,
                hard_sigma=0.7,
            ),
            run=dict(
                rounds=3,
                encoder=EncoderParams(patch_size=8),
                train=TrainConfig(iterations=600, batch_voxels=2048, seed=0),
                knn=5,
                q_unc=0.75,
                seed=11,
            ),
            resume=True,
            expected_dice=(0.6003, 0.6506),
        ),
        # a seconds-long fixture for the benchmark's self-test; not in BENCHMARK.json
        Workload(
            name="tiny",
            default_seed=7,
            held_out_seed=8,
            spec=dict(
                num_volumes=5,
                shape=Shape3(16, 16, 16),
                num_classes=2,
                classes=(ClassShape("ellipsoid", (0.5, 0.5, 0.5), (4.0, 4.0, 4.0), 1.0),),
                noise_sigma=0.3,
            ),
            run=dict(
                rounds=2,
                encoder=EncoderParams(patch_size=4),
                train=TrainConfig(iterations=100, batch_voxels=512, seed=0),
                knn=2,
                q_unc=0.5,
                seed=11,
            ),
            resume=False,
            expected_dice=None,
        ),
    )
}
