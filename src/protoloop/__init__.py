"""Self-training volumetric segmentation from a single annotated template.

One labeled volume seeds the whole run: handcrafted patch statistics give
each volume a feature grid, class prototypes from the template are matched
against every unlabeled grid to propagate initial pseudo-labels, and
successive rounds train a lightweight voxel classifier whose uncertain
predictions are repaired by nearest-neighbor label voting over the most
confident samples.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .encoder import EncoderParams, extract_feature_grid, global_feature
from .metrics import evaluate_pair, pseudo_label_quality, summarize_reports
from .phantom import PhantomSpec, generate
from .pipeline import PipelineConfig, load_round_state, run_pipeline, run_round, run_round0
from .prototype import compute_prototypes, initial_pseudo_label
from .refine import refine_all, refine_pseudo_label
from .specialist import TrainConfig, infer, train_round
from .uncertainty import partition_by_quantile
from .volume import (
    DatasetManifest,
    FeatureGrid,
    IntensityVolume,
    LabelVolume,
    Shape3,
    load_array,
    load_manifest,
    save_array,
)

__all__ = [
    "__version__",
    "DatasetManifest",
    "EncoderParams",
    "FeatureGrid",
    "IntensityVolume",
    "LabelVolume",
    "PhantomSpec",
    "PipelineConfig",
    "Shape3",
    "TrainConfig",
    "compute_prototypes",
    "evaluate_pair",
    "extract_feature_grid",
    "generate",
    "global_feature",
    "infer",
    "initial_pseudo_label",
    "load_array",
    "load_manifest",
    "load_round_state",
    "partition_by_quantile",
    "pseudo_label_quality",
    "refine_all",
    "refine_pseudo_label",
    "run_pipeline",
    "run_round",
    "run_round0",
    "save_array",
    "summarize_reports",
    "train_round",
]
