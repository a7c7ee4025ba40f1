"""Round orchestration: propagate once, then train / predict / partition / refine.

``entry_grid`` is the one code that reuses, makes or refuses a persisted
feature grid, and only the initial round makes one: it extracts (or ingests)
each grid exactly once under the run directory.  Every later round and
``refine_round`` reuse them, and refuse a missing one by file; the raw
volumes are never re-encoded, which is asserted via the extractor call
counter.  Per volume a context keeps one float32 cell table (the feature
grid's values, transposed) plus the float32 intensities and their two z-score
scalars: 4 + 4 C / p^3 bytes per voxel, 4.69 at patch 4 and 4.09 at patch 8
with the built-in encoder's 11 channels.  Round 0 rebuilds each grid from its
table when it needs it, one volume at a time.  z is computed where it is
used, per-voxel feature rows are never materialized, and inference covers
each whole volume with no windowing.  Per voxel, what is resident is the
intensities, the cell tables and one pool label set: the truth is read and
checked one volume at a time when a round is scored, ``run_pipeline`` reads
each round's input back from disk, as the ``round`` command does, and
``run_round`` drops the previous round's labels once the head is trained.
``_entry_label`` reads every label of a manifest volume (the template's,
the truth and the model's) and checks it against its volume's header.
``_persist_round`` is the one writer of a round directory: it writes the
whole round under a temp name and renames it into place, so a crash never
corrupts a persisted round, and a round replaced by ``run_round`` (with
``force``) or ``refine_round`` is swapped out only once the new one is
complete; the rounds after it, built on the old one, are then removed.  Only
this module knows the run directory's layout, in which each round's
``state.json`` is the round's one record: ``run_table`` tabulates them.
``_round_entries``, the one listing of a run's rounds, finds its ``round_<k>``,
``round_<k>.old`` and ``round_<k>.tmp`` directories for every code that reads,
retires or clears rounds; no other ``round_*`` name marks a run or is removed.
``_remove`` removes every entry that goes, and unlinks a link, never its target.

A run is invariant to the order of the manifest's entries, to a renaming of
the ids that keeps their sort order, to doubling every intensity and to
running OpenBLAS on one thread: every label file, grid and ``params.vxar``
is the same byte for byte.  Under any positive affine map of the
intensities only the z-score keeps the labels, which tests hold to >= 99.9%
of voxels and a Dice within 1e-4.  A renaming that changes the ids' sort
order changes the training draws, because ``train_round`` draws pool volumes
by position in the pool sorted by id.
"""
from __future__ import annotations

import contextlib
import json
import os
import re
import shutil
import time
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import encoder as encoder_mod
from . import specialist
from .encoder import EncoderParams, global_feature
from .metrics import pseudo_label_quality
from .prototype import compute_prototypes, initial_pseudo_label
from .refine import refine_all
from .specialist import (
    SpecialistParams,
    TrainConfig,
    TrainVolumeData,
    infer,
    load_params,
    save_params,
    train_round,
)
from .uncertainty import Partition, partition_by_quantile
from .volume import (
    DatasetManifest,
    FeatureGrid,
    IntensityVolume,
    JsonRules,
    LabelVolume,
    VolumeEntry,
    check_object,
    from_doc,
    load_array,
    load_label,
    load_manifest,
    read_json,
    read_shape,
    save_array,
    write_json,
)

__all__ = [
    "PipelineConfig",
    "RoundState",
    "PipelineContext",
    "build_context",
    "start_run",
    "run_round0",
    "run_round",
    "refine_round",
    "run_pipeline",
    "load_round_state",
    "run_table",
    "load_run_config",
    "parse_round_dir",
    "entry_grid",
]


@dataclass(frozen=True)
class PipelineConfig:
    manifest_path: Path
    out_dir: Path
    rounds: int = 3
    encoder: EncoderParams = field(default_factory=EncoderParams)
    train: TrainConfig = field(default_factory=TrainConfig)
    knn: int = 5
    q_unc: float = 0.9
    seed: int = 0
    refine: bool = True
    truth_dir: Path | None = None  # enables ground-truth quality tracking
    force: bool = False

    def __post_init__(self):
        # input paths are made absolute once, so config.json resolves from any directory
        for name in ("manifest_path", "truth_dir"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, Path(getattr(self, name)).absolute())
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        if self.rounds < 1:
            raise ValueError(f"rounds={self.rounds} must be >= 1")
        if self.knn < 1:
            raise ValueError(f"knn={self.knn} must be >= 1")
        if not 0.0 < self.q_unc <= 1.0:
            raise ValueError(f"q_unc={self.q_unc} outside (0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be >= 0")


@dataclass
class RoundState:
    """Everything one round produced; ``labels`` is the canonical pseudo-label set."""

    round_index: int
    labels: dict[str, LabelVolume]
    refined: bool = False
    raw_labels: dict[str, LabelVolume] | None = None
    partition: Partition | None = None
    uncertainties: dict[str, float] | None = None  # volume id -> mean voxel entropy
    params: SpecialistParams | None = None
    pseudo_label_dice: float | None = None
    model_dice: float | None = None
    timings: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# feature preparation

def entry_grid(
    entry: VolumeEntry,
    manifest: DatasetManifest,
    encoder: EncoderParams,
    path: Path,
    vol: IntensityVolume | None = None,
    scalars: tuple[float, float] | None = None,
) -> FeatureGrid:
    """The feature grid of one manifest entry, persisted at ``path``.

    A grid already at ``path`` is reused; one the built-in encoder made must
    match ``encoder``, one ingested from the entry's external ``features``
    file is taken as it is.  With no grid there, a given ``vol`` gets one:
    the external file is ingested, or else the encoder extracts one (with
    ``scalars``, the volume's ``zscore_scalars``, when given), and it is
    written to ``path``.  With neither, ``FileNotFoundError`` names ``path``.
    """
    if path.exists():
        grid = load_array(path, FeatureGrid)
        want = (encoder.patch_size,) * 3
        if entry.features is None and (grid.patch_size, grid.channels) != (want, encoder_mod.CHANNELS):
            raise ValueError(
                f"stale feature grid for {entry.vol_id!r} in {path}: it has "
                f"patch_size {grid.patch_size} and {grid.channels} channels, but the "
                f"encoder config has patch_size {want} and {encoder_mod.CHANNELS} channels"
            )
        return grid
    if vol is None:
        raise FileNotFoundError(
            f"{path}: no feature grid for {entry.vol_id!r}; only the initial round makes grids"
        )
    if entry.features is not None:
        grid = encoder_mod.ingest_external_features(manifest.resolve(entry.features), vol.shape)
    else:
        grid = encoder_mod.extract_feature_grid(vol, encoder, scalars)
    save_array(grid, path)
    return grid


def _grid_path(config: PipelineConfig, vol_id: str) -> Path:
    return config.out_dir / "features" / f"{vol_id}.features.vxar"


def _entry_label(path: Path, manifest: DatasetManifest, entry: VolumeEntry, kind: str) -> LabelVolume:
    """The ``kind`` label at ``path`` of manifest ``entry``, by ``load_label`` at the manifest's class
    count; a shape other than the one its intensity file's header records is refused, naming ``path``."""
    lab = load_label(path, manifest.num_classes)
    shape = read_shape(manifest.resolve(entry.intensity))
    if lab.shape != shape:
        raise ValueError(
            f"{path}: {kind} label of {entry.vol_id!r} has shape {lab.shape.as_tuple()}, "
            f"its intensity volume {shape.as_tuple()}"
        )
    return lab


def _truth_path(config: PipelineConfig, vol_id: str) -> Path:
    return config.truth_dir / f"{vol_id}.label.vxar"


def _missing_truth(config: PipelineConfig, manifest: DatasetManifest) -> list[str]:
    """Each pool volume's truth file under ``config.truth_dir`` that does not exist."""
    paths = (_truth_path(config, e.vol_id) for e in manifest.unlabeled_entries())
    return [str(path) for path in paths if not path.is_file()]


class _TruthFiles(Mapping):
    """The pool's truth labels by volume id, each read by ``_entry_label`` when
    it is looked up, so code that scores volume by volume holds one truth
    volume at a time; no other code reads a truth file.  A pool volume
    without a truth file is refused when the mapping is made."""

    def __init__(self, config: PipelineConfig, manifest: DatasetManifest):
        if missing := _missing_truth(config, manifest):
            raise FileNotFoundError(f"{config.truth_dir} lacks truth labels: {', '.join(missing)}")
        self.config, self.manifest = config, manifest
        self.entries = {e.vol_id: e for e in manifest.unlabeled_entries()}

    def __getitem__(self, vol_id: str) -> LabelVolume:
        return _entry_label(_truth_path(self.config, vol_id), self.manifest, self.entries[vol_id], "truth")

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class PipelineContext:
    """Loaded inputs shared by all rounds of one run.

    Per voxel, what stays resident is a volume's float32 intensities and its
    float32 cell table (each volume's ``features``; no feature grid and no
    whole-volume float64 array is kept), plus the template's label.  The
    pool's truth is kept as its files, each read and checked only when a
    round scores its volume, so a round adds one pool label set: the previous
    round's labels until the head is trained, then its own.
    """

    manifest: DatasetManifest
    features: dict[str, TrainVolumeData]
    global_features: dict[str, np.ndarray]
    labeled_id: str
    labeled_gt: LabelVolume
    truth: _TruthFiles | None = None
    build_s: float = 0.0  # wall time of build_context: loading and feature extraction


def build_context(config: PipelineConfig, extract_allowed: bool = True) -> PipelineContext:
    """Load every manifest entry, in manifest order, and check the template's label.

    Each volume's grid comes from ``entry_grid`` at ``_grid_path``, which is
    given the volume only when ``extract_allowed``: round 0 makes the grids
    it lacks, and a later context refuses a missing one by file.  The
    volume's z-score scalars are computed once, in leaves of its float64
    cast; the encoder, when it runs, and the voxel features share them.  The
    voxel features hold the grid's values as their cell table and the global
    feature is computed from it, so the grid is not kept, and no
    whole-volume float64 array is made.  No truth file is read here, but a
    missing one is refused before any volume is loaded.
    """
    t0 = time.perf_counter()
    manifest, labeled_id, gt = _load_inputs(config)
    truth = None if config.truth_dir is None else _TruthFiles(config, manifest)
    (config.out_dir / "features").mkdir(parents=True, exist_ok=True)
    features, global_features = {}, {}
    for entry in manifest.entries:
        vol = load_array(manifest.resolve(entry.intensity), IntensityVolume)
        scalars = encoder_mod.zscore_scalars(vol.data)
        path = _grid_path(config, entry.vol_id)
        grid = entry_grid(entry, manifest, config.encoder, path, vol if extract_allowed else None, scalars)
        features[entry.vol_id] = TrainVolumeData.from_volume(entry.vol_id, vol, grid, scalars)
        global_features[entry.vol_id] = global_feature(grid)
    encoder_mod.uniform_channel_count(features)
    return PipelineContext(
        manifest=manifest,
        features=features,
        global_features=global_features,
        labeled_id=labeled_id,
        labeled_gt=gt,
        truth=truth,
        build_s=time.perf_counter() - t0,
    )


def _load_inputs(config: PipelineConfig) -> tuple[DatasetManifest, str, LabelVolume]:
    """The manifest, and the template's id and label, as ``_entry_label`` checks it."""
    manifest = load_manifest(config.manifest_path)
    labeled = manifest.labeled_entry()
    gt = _entry_label(manifest.resolve(labeled.label), manifest, labeled, "template")
    return manifest, labeled.vol_id, gt


# ---------------------------------------------------------------------------
# persistence

def _remove(path: Path) -> None:
    """Remove ``path`` if it exists; a link or a file is unlinked, never a link's target."""
    if path.is_dir() and not path.is_symlink():
        shutil.rmtree(path)
    else:
        path.unlink(missing_ok=True)


def _atomic_write_dir(out_dir: Path, name: str, writer) -> Path:
    """Populate ``out_dir/name`` via a temp directory and a final rename.

    Whatever is at ``name``, a link or a file too, is moved aside to ``name.old`` only once
    ``writer`` has finished, so a failed writer leaves it as it was.  ``_remove`` removes a
    stale ``name.tmp``, and best-effort a failed writer's temp directory and the ``.old``."""
    final = out_dir / name
    tmp = out_dir / f"{name}.tmp"
    _remove(tmp)  # stale leftover from a crashed run; invisible to readers
    tmp.mkdir(parents=True)
    try:
        writer(tmp)
    except BaseException:
        with contextlib.suppress(OSError):
            _remove(tmp)
        raise
    old = out_dir / f"{name}.old"
    if os.path.lexists(final):
        # a directory cannot be renamed onto a non-empty one: move the old aside first
        _remove(old)
        os.replace(final, old)
    os.replace(tmp, final)
    with contextlib.suppress(OSError):
        _remove(old)
    return final


_ROUND_ENTRY = re.compile(r"round_(0|[1-9][0-9]*)(\.old|\.tmp)?")


def parse_round_dir(path: str | Path) -> tuple[Path, int]:
    """The run directory and round index of a ``round_<r>`` directory path."""
    path = Path(path)
    match = _ROUND_ENTRY.fullmatch(path.name)
    if match is None or match.group(2):
        raise ValueError(f"{path} is not a round directory (round_<r>)")
    return path.parent, int(match.group(1))


def _round_entries(out_dir: Path) -> list[tuple[int, str, Path]]:
    """``(k, suffix, path)`` for every ``round_<k>``, ``round_<k>.old`` and
    ``round_<k>.tmp`` directory in ``out_dir``, highest k first and, for one k,
    ``.tmp``, ``.old``, then the round; ``[]`` when ``out_dir`` is not a directory."""
    if not out_dir.is_dir():
        return []
    matches = ((_ROUND_ENTRY.fullmatch(path.name), path) for path in out_dir.iterdir())
    entries = [(int(m.group(1)), m.group(2) or "", path) for m, path in matches if m and path.is_dir()]
    return sorted(entries, reverse=True)


def _restore_round(out_dir: Path, round_index: int) -> Path:
    """``out_dir/round_<r>``, first renamed back from ``round_<r>.old`` if only that exists.

    A crash between ``_atomic_write_dir``'s two renames leaves the ``.old``
    directory, the last complete round, and no ``round_<r>``.
    """
    final = Path(out_dir) / f"round_{round_index}"
    old = final.with_name(f"{final.name}.old")
    if old.is_dir() and not final.exists():
        os.replace(old, final)
    return final


def _refuse_later_rounds(config: PipelineConfig, round_index: int, action: str) -> None:
    """Refuse to rewrite a round that has later rounds, which the rewrite
    removes, unless ``config.force`` is set; the refusal names them."""
    if config.force:
        return
    names = ", ".join(path.name for k, _, path in _round_entries(config.out_dir) if k > round_index)
    if names:
        round_dir = config.out_dir / f"round_{round_index}"
        raise FileExistsError(f"{round_dir} has later rounds ({names}) that {action} removes; pass force")


def _refuse_existing(config: PipelineConfig, round_index: int) -> None:
    """Refuse to recompute a persisted round (any entry at ``round_<r>``, a dangling
    link too), or one with later rounds, unless ``config.force`` is set."""
    target = _restore_round(config.out_dir, round_index)
    if os.path.lexists(target) and not config.force:
        raise FileExistsError(f"{target} already exists; refusing to overwrite without force")
    _refuse_later_rounds(config, round_index, "writing it")


def _label_name(vol_id: str, round_index: int, refined: bool) -> str:
    if round_index == 0:
        return f"{vol_id}.round0.label"
    kind = "refined" if refined else "raw"
    return f"{vol_id}.round{round_index}.{kind}.label"


def _persist_round(
    out_dir: Path,
    state: RoundState,
    extra: dict | None = None,
    train_log: list[dict] | None = None,
) -> None:
    """Write round ``state`` as ``out_dir/round_<r>``; ``state.json`` also holds the keys of ``extra``."""
    r = state.round_index

    def writer(tmp: Path) -> None:
        doc: dict = {
            "round": r,
            "refined": state.refined,
            "labels": {},
            "pseudo_label_dice": state.pseudo_label_dice,
            "model_dice": state.model_dice,
            "timings": state.timings,
        }
        if state.refined:
            doc["raw_labels"] = {}
            for vol_id in sorted(state.raw_labels):
                name = _label_name(vol_id, r, refined=False)
                save_array(state.raw_labels[vol_id], tmp / name)
                doc["raw_labels"][vol_id] = name
        for vol_id in sorted(state.labels):
            if state.refined and vol_id not in state.partition.uncertain:
                # the vote passes a certain volume through: its labels are the raw file
                doc["labels"][vol_id] = doc["raw_labels"][vol_id]
                continue
            name = _label_name(vol_id, r, state.refined)
            save_array(state.labels[vol_id], tmp / name)
            doc["labels"][vol_id] = name
        if state.params is not None:
            save_params(state.params, tmp / "params.vxar", r)
            doc["params"] = "params.vxar"
        if state.partition is not None:
            doc["partition"] = {
                "certain": sorted(state.partition.certain),
                "uncertain": sorted(state.partition.uncertain),
                "threshold": state.partition.threshold,
                "labeled_id": state.partition.labeled_id,
            }
        if state.uncertainties is not None:
            doc["uncertainties"] = state.uncertainties
        doc.update(extra or {})
        if train_log is not None:
            # JSON lines: one record per optimization step
            (tmp / "train_log.jsonl").write_text(
                "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in train_log)
            )
        write_json(tmp / "state.json", doc)

    _atomic_write_dir(out_dir, f"round_{r}", writer)
    # the rounds after r were built on the round just replaced; highest first,
    # so a crash part-way leaves a run whose rounds are still consecutive
    for path in [path for k, _, path in _round_entries(out_dir) if k > r]:
        _remove(path)


# what each key of state.json holds, when it is there; a key not read, such as
# the vote's audit, is ignored, and so is a partition's, as older run
# directories hold such keys
_STATE_TYPES = {
    "round": "int",
    "refined": "bool",
    "labels": "dict[str, FileName]",
    "raw_labels": "dict[str, FileName]",
    "timings": "dict[str, float]",
    "pseudo_label_dice": "float | None",
    "model_dice": "float | None",
    "params": "FileName",
    "uncertainties": "dict[str, float]",
    "partition": "Partition",
}
_PARTITION = JsonRules(Partition, ignored=None)


def _read_state(out_dir: Path, round_index: int) -> tuple[Path, dict, Partition | None]:
    """Round ``round_index``'s directory, its checked ``state.json`` and its partition.

    The file must hold ``round`` and ``labels``, and each key of
    ``_STATE_TYPES`` it holds what that table says, as ``check_object``
    checks it; ``uncertainties`` must also hold a value >= 0 for each id the
    model labeled and no other.  In the returned object an absent
    ``refined``, ``timings`` or Dice takes the value a round without it means.
    """
    round_dir = _restore_round(out_dir, round_index)
    path = round_dir / "state.json"
    doc = read_json(path)
    check_object(doc, _STATE_TYPES, path, required=("round", "labels"), ignored=None)
    if doc["round"] != round_index:
        raise ValueError(
            f"{round_dir}: state file claims round {doc['round']!r}, expected {round_index}"
        )
    if "uncertainties" in doc:
        unc, ids = doc["uncertainties"], doc.get("raw_labels", doc["labels"]).keys()
        for vol_id, value in unc.items():
            if value < 0:
                raise ValueError(f"{path}: uncertainties.{vol_id} is {value}; it must be >= 0")
        missing, unknown = sorted(ids - unc.keys()), sorted(unc.keys() - ids)
        if missing or unknown:
            raise ValueError(f"{path}: uncertainties lack ids {missing} and hold unknown ids {unknown}")
    doc = {"refined": False, "pseudo_label_dice": None, "model_dice": None, "timings": {}} | doc
    partition = from_doc(_PARTITION, doc["partition"], path, "partition") if "partition" in doc else None
    return round_dir, doc, partition


def load_round_state(out_dir: Path, round_index: int) -> RoundState:
    """Reload a persisted round from its ``state.json``, as ``_read_state`` checks
    it; the inverse of ``_persist_round``.

    Training reads a round's ``labels`` only, so the state's ``raw_labels`` is
    None: ``refine_round`` reads the model's labels itself.
    """
    round_dir, doc, partition = _read_state(out_dir, round_index)
    return RoundState(
        round_index=round_index,
        labels={vol_id: load_array(round_dir / name, LabelVolume) for vol_id, name in doc["labels"].items()},
        refined=doc["refined"],
        partition=partition,
        uncertainties=doc.get("uncertainties"),
        params=load_params(round_dir / doc["params"]) if "params" in doc else None,
        pseudo_label_dice=doc["pseudo_label_dice"],
        model_dice=doc["model_dice"],
        timings=doc["timings"],
    )


# ---------------------------------------------------------------------------
# rounds

def _pool_ids(ctx: PipelineContext) -> list[str]:
    return sorted(e.vol_id for e in ctx.manifest.unlabeled_entries())


def run_round0(config: PipelineConfig, ctx: PipelineContext | None = None) -> RoundState:
    """Propagate template prototypes to every unlabeled volume and persist.

    Each feature grid is rebuilt from its volume's cell table when it is
    used and dropped after it.  The ``features`` timing is the context build,
    wherever it happened.
    """
    _refuse_existing(config, 0)
    if ctx is None:
        ctx = build_context(config)

    t0 = time.perf_counter()
    protos = compute_prototypes(ctx.features[ctx.labeled_id].grid(), ctx.labeled_gt)
    labels = {
        v: initial_pseudo_label(ctx.features[v].grid(), protos, ctx.features[v].shape)
        for v in _pool_ids(ctx)
    }
    t_prop = time.perf_counter() - t0

    state = RoundState(
        round_index=0,
        labels=labels,
        refined=False,
        timings={"features": ctx.build_s, "propagate": t_prop},
    )
    if ctx.truth is not None:
        (state.pseudo_label_dice,) = pseudo_label_quality(labels, ctx.truth)

    fractions = {vol_id: np.count_nonzero(lab.data) / lab.data.size for vol_id, lab in labels.items()}
    _persist_round(config.out_dir, state, extra={"foreground_fraction": fractions})
    return state


def run_round(
    config: PipelineConfig,
    round_index: int,
    prev: RoundState,
    ctx: PipelineContext | None = None,
) -> RoundState:
    """Train on the previous round's pseudo-labels, re-predict, partition, refine.

    ``prev`` is spent: once the head is trained its ``labels`` become empty
    and its ``raw_labels`` None, so from then on the round holds its own labels
    and no others unless the caller keeps them elsewhere; a caller that needs
    round r - 1's labels afterwards reloads them with ``load_round_state``.
    The model is seeded ``config.seed ^ round_index``.
    An existing round, or a missing one with later rounds, is refused before
    training unless ``config.force`` is set; it is then replaced once the new
    round is complete, and every later round is removed.
    """
    if round_index < 1:
        raise ValueError("round_index must be >= 1; round 0 has its own entry point")
    if prev.round_index != round_index - 1:
        raise ValueError(
            f"previous state is round {prev.round_index}, cannot run round {round_index}"
        )
    _refuse_existing(config, round_index)
    if ctx is None:
        ctx = build_context(config, extract_allowed=False)
    pool = _pool_ids(ctx)
    held = sorted(prev.labels)
    if held != pool:
        raise ValueError(f"round {prev.round_index} labels {held}, the manifest's pool is {pool}")

    # fresh model trained from scratch on the current pseudo-label set
    t0 = time.perf_counter()
    params, log = train_round(
        ctx.features[ctx.labeled_id], ctx.labeled_gt, [ctx.features[v] for v in pool],
        prev.labels, config.train, seed=config.seed ^ round_index,
    )
    # the head is trained: nothing reads the previous round's labels again
    prev.labels, prev.raw_labels = {}, None
    t_train = time.perf_counter() - t0

    # predict and score every unlabeled volume
    t0 = time.perf_counter()

    raw_labels, uncertainties = {}, {}
    for vol_id in pool:
        raw_labels[vol_id], uncertainties[vol_id] = infer(params, ctx.features[vol_id])
    t_infer = time.perf_counter() - t0

    state = RoundState(
        round_index=round_index,
        labels={},
        raw_labels=raw_labels,
        uncertainties=uncertainties,
        params=params,
        timings={"train": t_train, "infer": t_infer},
    )
    return _vote_and_persist(
        config, state, log, ctx.labeled_id, ctx.labeled_gt, ctx.global_features, ctx.truth
    )


def refine_round(config: PipelineConfig, round_index: int) -> RoundState:
    """Redo persisted round ``round_index``'s vote at ``config.knn`` and ``config.q_unc``.

    The model's labels and ``uncertainties``, ``params.vxar`` and
    ``train_log.jsonl`` are kept, and a round without them is refused; the
    partition, the labels, the ``refine_audit``, the ``refine`` timing and the
    Dice are recomputed as ``run_round`` computes them, with the global
    features of the grids round 0 persisted; a missing or stale grid is
    refused.  The model's labels, each read by ``_entry_label``, must be the
    manifest's pool; no voted label is read.  A refined round, or one with
    later rounds, which the rewrite removes, is refused unless ``force``.
    """
    if round_index < 1:
        raise ValueError("round 0 labels come from propagation; nothing to refine")
    round_dir, doc, _ = _read_state(config.out_dir, round_index)
    if doc["refined"] and not config.force:
        raise FileExistsError(f"{round_dir} is already refined; pass force to redo")
    _refuse_later_rounds(config, round_index, "a refine")
    if "uncertainties" not in doc or "params" not in doc:
        raise ValueError(f"{round_dir / 'state.json'} lacks uncertainties or params: no model output to refine")
    log_path = round_dir / "train_log.jsonl"
    try:
        log = [json.loads(line) for line in log_path.read_text().splitlines()]
    except json.JSONDecodeError as exc:
        raise ValueError(f"{log_path}: a line is not valid JSON ({exc})") from None
    manifest, labeled_id, gt = _load_inputs(config)
    key = "raw_labels" if "raw_labels" in doc else "labels"  # the model's labels
    pool = {e.vol_id: e for e in manifest.unlabeled_entries()}
    if sorted(doc[key]) != sorted(pool):
        raise ValueError(
            f"{round_dir / 'state.json'} {key} {sorted(doc[key])}, the manifest's pool is {sorted(pool)}"
        )
    state = RoundState(
        round_index=round_index,
        labels={},
        raw_labels={
            vol_id: _entry_label(round_dir / name, manifest, pool[vol_id], "raw")
            for vol_id, name in doc[key].items()
        },
        uncertainties=doc["uncertainties"],
        params=load_params(round_dir / doc["params"]),
        timings=doc["timings"],
    )
    grids = {
        e.vol_id: entry_grid(e, manifest, config.encoder, _grid_path(config, e.vol_id))
        for e in manifest.entries
    }
    encoder_mod.uniform_channel_count(grids)
    globals_ = {vol_id: global_feature(grid) for vol_id, grid in grids.items()}
    truth = None if config.truth_dir is None else _TruthFiles(config, manifest)
    return _vote_and_persist(replace(config, refine=True), state, log, labeled_id, gt, globals_, truth)


def _vote_and_persist(
    config: PipelineConfig,
    state: RoundState,
    train_log: list[dict],
    labeled_id: str,
    labeled_gt: LabelVolume,
    global_features: dict[str, np.ndarray],
    truth: _TruthFiles | None,
) -> RoundState:
    """Partition and vote on the model output in ``state``, record Dice, persist.

    The pool is split at ``config.q_unc``; with ``config.refine`` the uncertain
    volumes get a ``config.knn`` vote in which the template votes with its
    ground truth.  The ``refine`` timing covers both steps.  With ``truth``,
    the raw and the voted labels are scored against one read of each truth file.
    """
    t0 = time.perf_counter()
    state.partition = partition_by_quantile(state.uncertainties, labeled_id, config.q_unc)
    state.refined = config.refine
    state.labels, audit = state.raw_labels, []
    if config.refine:
        votable = dict(state.raw_labels)
        votable[labeled_id] = labeled_gt
        state.labels, audit = refine_all(votable, state.partition, global_features, config.knn)
    state.timings["refine"] = time.perf_counter() - t0
    if truth is not None:
        state.model_dice, state.pseudo_label_dice = pseudo_label_quality(state.raw_labels, truth, state.labels)

    _persist_round(config.out_dir, state, extra={"refine_audit": audit}, train_log=train_log)
    return state


def run_table(out_dir: Path) -> list[dict]:
    """One row per round of the run in ``out_dir``, by round, from its ``state.json`` alone.

    ``round_<r>.tmp`` is not a round; ``round_<r>.old`` is one only when it
    is all that is left of round r, and is then renamed back.
    """
    out_dir = Path(out_dir)
    rows = []
    for r in sorted({k for k, suffix, _ in _round_entries(out_dir) if suffix != ".tmp"}):
        _, doc, part = _read_state(out_dir, r)
        rows.append({
            "round": r,
            "refined": doc["refined"],
            "pseudo_label_dice": doc["pseudo_label_dice"],
            "model_dice": doc["model_dice"],
            "threshold": part.threshold if part else None,
            "n_certain": len(part.certain) if part else None,
            "n_uncertain": len(part.uncertain) if part else None,
            "timings": doc["timings"],
        })
    return rows


def _clear_run_dir(out_dir: Path) -> None:
    """Remove a previous run by ``_remove``: ``_round_entries``, ``features``, the files this
    pipeline and ``report`` write, ``report.svg`` from an earlier ``report --plot``, and
    ``config.json`` last, so a clear that stops part-way still leaves a run."""
    names = ("features", "report.json", "report.csv", "report.svg", "config.json")
    for path in [path for _, _, path in _round_entries(out_dir)] + [out_dir / name for name in names]:
        _remove(path)


# How config.json is read: a key named apart from its PipelineConfig field
# (``keys``), the fields a run does not persist (``not_read``: an action of one
# invocation, and where the run is loaded from), and its retired settings
# (``fixed``), which may appear only at these values and JSON types: module
# constants, ``train.seed`` (a round's model is seeded ``seed ^ round``), the
# position channels the encoder always emits, and
# ``val_manifest``, a labeled validation set (the template is the only label a
# run reads).  ``out_dir`` is neither read nor refused: versions up to 314cd6f
# wrote it, and a run loads from where it is.
_CONFIG = JsonRules(
    PipelineConfig,
    keys={"manifest_path": "manifest"},
    not_read=frozenset({"force", "out_dir"}),
    fixed={"val_manifest": None},
    ignored=frozenset({"out_dir"}),
    nested={
        "encoder": JsonRules(
            EncoderParams,
            fixed={"position_weight": encoder_mod.POSITION_WEIGHT, "include_position": True},
        ),
        "train": JsonRules(TrainConfig, fixed={"seed": 0} | {
            name.lower(): getattr(specialist, name)
            for name in ("BASE_LR", "LR_POWER", "MOMENTUM", "WEIGHT_DECAY", "RAMP_FRACTION", "DICE_SMOOTH")
        }),
    },
)


def _config_doc(config: PipelineConfig) -> dict:
    """The ``config.json`` object of ``config``, which ``_config_from_doc`` reads back."""
    return {
        _CONFIG.keys.get(name, name): str(value) if isinstance(value, Path) else value
        for name, value in asdict(config).items()
        if name not in _CONFIG.not_read
    }


def _config_from_doc(doc: dict, out_dir: Path) -> PipelineConfig:
    """The config ``_CONFIG`` reads from the ``config.json`` object ``doc`` of
    the run in ``out_dir``; absent keys take defaults."""
    out_dir = Path(out_dir)
    return from_doc(_CONFIG, doc, out_dir / "config.json", out_dir=out_dir)


def load_run_config(run_dir: Path, **over) -> PipelineConfig:
    """The config of the run in ``run_dir``, with the overrides in ``over`` that are not None."""
    config_file = Path(run_dir) / "config.json"
    if not config_file.exists():
        raise ValueError(f"{run_dir} has no config.json; initialize a run first")
    config = _config_from_doc(read_json(config_file), run_dir)
    return replace(config, **{k: v for k, v in over.items() if v is not None})


def _missing_files(manifest: DatasetManifest) -> list[str]:
    """Every file ``manifest`` names that does not exist."""
    return [
        str(manifest.resolve(rel))
        for entry in manifest.entries
        for rel in (entry.intensity, entry.label, entry.features)
        if rel is not None and not manifest.resolve(rel).is_file()
    ]


def start_run(config: PipelineConfig) -> None:
    """Make ``config.out_dir`` a new run directory holding only ``config.json``.

    The manifest is read first, and every file it names, and each pool
    volume's truth label when ``config.truth_dir`` is set, must exist; so a
    missing or malformed manifest, or a missing volume or truth file, leaves
    the directory untouched.  A directory that already holds a run (a
    ``config.json`` or any entry of ``_round_entries``) is refused unless
    ``config.force`` is set; then ``_clear_run_dir`` removes that run first.
    """
    manifest = load_manifest(config.manifest_path)
    missing = [(f"{config.manifest_path} names missing files", _missing_files(manifest))]
    if config.truth_dir is not None:
        missing.append((f"{config.truth_dir} lacks truth labels", _missing_truth(config, manifest)))
    named = [f"{what}: {', '.join(files)}" for what, files in missing if files]
    if named:
        raise FileNotFoundError("; ".join(named))
    out = config.out_dir
    if (out / "config.json").exists() or _round_entries(out):
        if not config.force:
            raise FileExistsError(f"{out} already holds a run; pass force to overwrite")
        _clear_run_dir(out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "config.json", _config_doc(config))


def run_pipeline(config: PipelineConfig) -> RoundState:
    """Run round 0 through round R, write the run's encoder-call counts to ``report.json``,
    and return round R's state.

    Each round reads the previous one back with ``load_round_state``, as the
    ``round`` command does, and no earlier state is held while it runs: the
    labels it reads are dropped once its head is trained.  No
    later process can encode (``build_context(extract_allowed=False)`` raises
    instead), so rewriting a round never makes these counts stale.
    """
    start_run(config)

    calls_start = encoder_mod.extract_call_count()
    ctx = build_context(config)
    run_round0(config, ctx=ctx)
    calls_after_round0 = encoder_mod.extract_call_count() - calls_start

    for r in range(1, config.rounds + 1):
        state = None  # round r - 1's state is not held while round r runs
        state = run_round(config, r, load_round_state(config.out_dir, r - 1), ctx=ctx)

    calls_total = encoder_mod.extract_call_count() - calls_start
    if calls_total != calls_after_round0:
        raise RuntimeError(
            f"offline contract violated: {calls_total - calls_after_round0} encoder "
            "calls after the initial round"
        )
    write_json(config.out_dir / "report.json", {
        "encoder_calls_after_round0": calls_after_round0,
        "encoder_calls_total": calls_total,
        "offline_contract_honored": calls_total == calls_after_round0,
    })
    return state
