"""Round orchestration: propagate once, then train / predict / partition / refine.

Features are extracted (or ingested) exactly once, persisted under the run
directory, and reused by every later round; after the initial round the raw
volumes are never re-encoded, which is asserted via the extractor call
counter.  Per volume the pipeline keeps the feature grid plus one float64
z-scored intensity volume; per-voxel feature rows are never materialized, and
inference covers each whole volume with no windowing.  Each round is written
to its own directory via a temp-dir rename so a crash never corrupts
previously persisted rounds.
"""
from __future__ import annotations

import json
import os
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import encoder as encoder_mod
from .encoder import EncoderParams, FeatureGrid, GlobalFeature, global_feature
from .metrics import pseudo_label_quality
from .prototype import compute_prototypes, initial_pseudo_label
from .refine import refine_all
from .specialist import (
    SpecialistParams,
    TrainAssets,
    TrainConfig,
    TrainVolumeData,
    infer,
    load_params,
    save_params,
    train_round,
)
from .uncertainty import (
    Partition,
    SampleUncertainty,
    partition_by_quantile,
    partition_report,
)
from .volume import (
    DatasetManifest,
    IntensityVolume,
    LabelVolume,
    load_array,
    load_manifest,
    save_array,
)

__all__ = [
    "PipelineConfig",
    "RoundState",
    "FeatureStore",
    "PipelineContext",
    "build_context",
    "run_round0",
    "run_round",
    "run_pipeline",
    "load_round_state",
    "load_report",
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
    threads: int = 1
    val_manifest_path: Path | None = None
    truth_dir: Path | None = None  # enables ground-truth quality tracking
    force: bool = False

    def __post_init__(self):
        object.__setattr__(self, "manifest_path", Path(self.manifest_path))
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        if self.val_manifest_path is not None:
            object.__setattr__(self, "val_manifest_path", Path(self.val_manifest_path))
        if self.truth_dir is not None:
            object.__setattr__(self, "truth_dir", Path(self.truth_dir))
        if self.rounds < 1:
            raise ValueError(f"rounds={self.rounds} must be >= 1")
        if self.knn < 1:
            raise ValueError(f"knn={self.knn} must be >= 1")
        if not 0.0 < self.q_unc <= 1.0:
            raise ValueError(f"q_unc={self.q_unc} outside (0, 1]")
        if self.threads < 1:
            raise ValueError(f"threads={self.threads} must be >= 1")


@dataclass
class RoundState:
    """Everything one round produced; ``labels`` is the canonical pseudo-label set."""

    round_index: int
    labels: dict[str, LabelVolume]
    refined: bool = False
    raw_labels: dict[str, LabelVolume] | None = None
    partition: Partition | None = None
    uncertainties: list[SampleUncertainty] | None = None
    params: SpecialistParams | None = None
    pseudo_label_dice: float | None = None
    model_dice: float | None = None
    timings: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# feature preparation

class FeatureStore:
    """Feature grids, global features, and factorized voxel features for one run.

    Grids are computed (or ingested) at most once per volume and persisted
    under ``<out>/features`` so later rounds and resumed processes reload them
    instead of touching the extractor again.  ``features`` holds each volume's
    cell table and z volume; the raw intensities are not kept.
    """

    def __init__(self, config: PipelineConfig, manifest: DatasetManifest):
        self.config = config
        self.manifest = manifest
        self.features_dir = config.out_dir / "features"
        self.features: dict[str, TrainVolumeData] = {}
        self.grids: dict[str, FeatureGrid] = {}
        self.global_features: dict[str, GlobalFeature] = {}
        self.extract_counts: dict[str, int] = {}

    def _grid_path(self, vol_id: str, prefix: str) -> Path:
        return self.features_dir / f"{prefix}{vol_id}.features.vxar"

    def _load_volume(self, entry) -> IntensityVolume:
        vol = load_array(self.manifest.resolve(entry.intensity))
        if not isinstance(vol, IntensityVolume):
            raise ValueError(f"{entry.intensity}: not an intensity volume")
        return vol

    def _grid_for(self, entry, vol: IntensityVolume, extract_allowed: bool, prefix: str) -> FeatureGrid:
        cached = self._grid_path(entry.vol_id, prefix)
        if cached.exists():
            grid = load_array(cached)
            if not isinstance(grid, FeatureGrid):
                raise ValueError(f"{cached}: not a feature grid file")
            return grid
        if entry.features is not None:
            grid = encoder_mod.ingest_external_features(
                self.manifest.resolve(entry.features), vol.shape
            )
            save_array(grid, cached)
            return grid
        if not extract_allowed:
            raise RuntimeError(
                f"feature grid for {entry.vol_id!r} missing after the initial round; "
                "re-encoding raw volumes is not allowed"
            )
        grid = encoder_mod.extract_feature_grid(vol, self.config.encoder)
        self.extract_counts[entry.vol_id] = self.extract_counts.get(entry.vol_id, 0) + 1
        if self.extract_counts[entry.vol_id] > 1:
            raise RuntimeError(f"feature grid for {entry.vol_id!r} computed twice")
        save_array(grid, cached)
        return grid

    def prepare(self, extract_allowed: bool = True) -> None:
        self.features_dir.mkdir(parents=True, exist_ok=True)
        entries = list(self.manifest.entries)

        def one(entry):
            vol = self._load_volume(entry)
            grid = self._grid_for(entry, vol, extract_allowed, prefix="")
            return entry.vol_id, TrainVolumeData.from_volume(entry.vol_id, vol, grid), grid

        if self.config.threads > 1:
            with ThreadPoolExecutor(max_workers=self.config.threads) as pool:
                results = list(pool.map(one, entries))
        else:
            results = [one(e) for e in entries]
        for vol_id, feats, grid in results:
            self.features[vol_id] = feats
            self.grids[vol_id] = grid
        encoder_mod.uniform_channel_count(self.grids)
        for vol_id in sorted(self.grids):
            self.global_features[vol_id] = global_feature(self.grids[vol_id])
        self._write_globals()

    def _write_globals(self) -> None:
        doc = {
            vol_id: {
                "vector": [float(x) for x in gf.vector],
                "degenerate": gf.degenerate,
            }
            for vol_id, gf in sorted(self.global_features.items())
        }
        (self.features_dir / "globals.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )


@dataclass
class PipelineContext:
    """Loaded inputs shared by all rounds of one run."""

    config: PipelineConfig
    manifest: DatasetManifest
    store: FeatureStore
    labeled_id: str
    labeled_gt: LabelVolume
    truth: dict[str, LabelVolume] | None = None
    validation: tuple | None = None  # ((TrainVolumeData, targets), ...)
    build_s: float = 0.0  # wall time of build_context: loading and feature extraction


def build_context(config: PipelineConfig, extract_allowed: bool = True) -> PipelineContext:
    t0 = time.perf_counter()
    manifest = load_manifest(config.manifest_path)
    labeled = manifest.labeled_entry()
    gt = load_array(manifest.resolve(labeled.label))
    if not isinstance(gt, LabelVolume):
        raise ValueError(f"{labeled.label}: template label is not a label volume")
    if gt.num_classes != manifest.num_classes:
        raise ValueError(
            f"template label has {gt.num_classes} classes, manifest says {manifest.num_classes}"
        )

    store = FeatureStore(config, manifest)
    store.prepare(extract_allowed=extract_allowed)
    if store.features[labeled.vol_id].shape != gt.shape:
        raise ValueError("template label shape does not match its intensity volume")

    truth = None
    if config.truth_dir is not None:
        truth = {}
        for entry in manifest.unlabeled_entries():
            path = config.truth_dir / f"{entry.vol_id}.label.vxar"
            lab = load_array(path)
            if not isinstance(lab, LabelVolume):
                raise ValueError(f"{path}: truth file is not a label volume")
            truth[entry.vol_id] = lab

    validation = None
    if config.val_manifest_path is not None:
        validation = _load_validation(config, store)

    return PipelineContext(
        config=config,
        manifest=manifest,
        store=store,
        labeled_id=labeled.vol_id,
        labeled_gt=gt,
        truth=truth,
        validation=validation,
        build_s=time.perf_counter() - t0,
    )


def _load_validation(config: PipelineConfig, store: FeatureStore) -> tuple:
    val_manifest = load_manifest(config.val_manifest_path)
    out = []
    for entry in val_manifest.entries:
        if entry.label is None:
            raise ValueError(f"validation entry {entry.vol_id!r} has no label")
        vol = load_array(val_manifest.resolve(entry.intensity))
        lab = load_array(val_manifest.resolve(entry.label))
        cached = store._grid_path(entry.vol_id, prefix="val.")
        if cached.exists():
            grid = load_array(cached)
        elif entry.features is not None:
            grid = encoder_mod.ingest_external_features(
                val_manifest.resolve(entry.features), vol.shape
            )
            save_array(grid, cached)
        else:
            grid = encoder_mod.extract_feature_grid(vol, config.encoder)
            save_array(grid, cached)
        data = TrainVolumeData.from_volume(entry.vol_id, vol, grid)
        out.append((data, lab.data.reshape(-1)))
    return tuple(out)


# ---------------------------------------------------------------------------
# persistence

def _atomic_write_dir(out_dir: Path, name: str, writer) -> Path:
    """Populate ``out_dir/name`` via a temp directory and a final rename."""
    final = out_dir / name
    if final.exists():
        raise FileExistsError(f"{final} already exists; refusing to overwrite")
    tmp = out_dir / f"{name}.tmp"
    if tmp.exists():
        shutil.rmtree(tmp)  # stale leftover from a crashed run; invisible to readers
    tmp.mkdir(parents=True)
    writer(tmp)
    os.replace(tmp, final)
    return final


def _dump_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _label_name(vol_id: str, round_index: int, refined: bool | None) -> str:
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
        for vol_id in sorted(state.labels):
            name = _label_name(vol_id, r, state.refined if r > 0 else None)
            save_array(state.labels[vol_id], tmp / name)
            doc["labels"][vol_id] = name
        if state.raw_labels is not None and state.refined:
            doc["raw_labels"] = {}
            for vol_id in sorted(state.raw_labels):
                name = _label_name(vol_id, r, refined=False)
                save_array(state.raw_labels[vol_id], tmp / name)
                doc["raw_labels"][vol_id] = name
        if state.params is not None:
            save_params(state.params, tmp / "params.vxar", r, iteration=-1)
            doc["params"] = "params.vxar"
        if state.partition is not None:
            doc["partition"] = {
                "certain": sorted(state.partition.certain),
                "uncertain": sorted(state.partition.uncertain),
                "threshold": state.partition.threshold,
                "labeled_id": state.partition.labeled_id,
            }
        if state.uncertainties is not None:
            _dump_json(
                tmp / "uncertainty.json",
                partition_report(r, state.partition, state.uncertainties),
            )
        if extra:
            for name, payload in extra.items():
                _dump_json(tmp / name, payload)
        if train_log is not None:
            # JSON lines: one record per optimization step
            (tmp / "train_log.jsonl").write_text(
                "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in train_log)
            )
        _dump_json(tmp / "state.json", doc)

    _atomic_write_dir(out_dir, f"round_{r}", writer)


def load_round_state(out_dir: Path, round_index: int) -> RoundState:
    """Reload a persisted round; the inverse of the per-round persistence."""
    round_dir = Path(out_dir) / f"round_{round_index}"
    doc = json.loads((round_dir / "state.json").read_text())
    if doc["round"] != round_index:
        raise ValueError(
            f"{round_dir}: state file claims round {doc['round']}, expected {round_index}"
        )

    def load_labels(mapping):
        out = {}
        for vol_id, name in mapping.items():
            lab = load_array(round_dir / name)
            if not isinstance(lab, LabelVolume):
                raise ValueError(f"{name}: not a label volume")
            out[vol_id] = lab
        return out

    state = RoundState(
        round_index=round_index,
        labels=load_labels(doc["labels"]),
        refined=doc.get("refined", False),
        pseudo_label_dice=doc.get("pseudo_label_dice"),
        model_dice=doc.get("model_dice"),
        timings=doc.get("timings", {}),
    )
    if "raw_labels" in doc:
        state.raw_labels = load_labels(doc["raw_labels"])
    if "params" in doc:
        state.params, _ = load_params(round_dir / doc["params"])
    if "partition" in doc:
        p = doc["partition"]
        state.partition = Partition(
            certain=frozenset(p["certain"]),
            uncertain=frozenset(p["uncertain"]),
            threshold=p["threshold"],
            labeled_id=p["labeled_id"],
        )
    unc_file = round_dir / "uncertainty.json"
    if unc_file.exists():
        rep = json.loads(unc_file.read_text())
        state.uncertainties = [
            SampleUncertainty(vol_id=s["id"], value=s["uncertainty"])
            for s in rep["samples"]
        ]
    return state


# ---------------------------------------------------------------------------
# rounds

def _pool_ids(ctx: PipelineContext) -> list[str]:
    return sorted(e.vol_id for e in ctx.manifest.unlabeled_entries())


def run_round0(config: PipelineConfig, ctx: PipelineContext | None = None) -> RoundState:
    """Propagate template prototypes to every unlabeled volume and persist.

    The ``features`` timing is the context build, wherever it happened.
    """
    if ctx is None:
        config.out_dir.mkdir(parents=True, exist_ok=True)
        ctx = build_context(config)

    t0 = time.perf_counter()
    protos = compute_prototypes(ctx.store.grids[ctx.labeled_id], ctx.labeled_gt)
    labels: dict[str, LabelVolume] = {}
    for vol_id in _pool_ids(ctx):
        lab, _prob = initial_pseudo_label(
            ctx.store.grids[vol_id], protos, ctx.store.features[vol_id].shape
        )
        labels[vol_id] = lab
    t_prop = time.perf_counter() - t0

    state = RoundState(
        round_index=0,
        labels=labels,
        refined=False,
        timings={"features": ctx.build_s, "propagate": t_prop},
    )
    if ctx.truth is not None:
        state.pseudo_label_dice = pseudo_label_quality(labels, ctx.truth)

    summary = {
        "round": 0,
        "volumes": [
            {
                "id": vol_id,
                "foreground_fraction": float((labels[vol_id].data > 0).mean()),
            }
            for vol_id in sorted(labels)
        ],
    }
    _persist_round(config.out_dir, state, extra={"summary.json": summary})
    return state


def run_round(
    config: PipelineConfig,
    round_index: int,
    prev: RoundState,
    ctx: PipelineContext | None = None,
) -> RoundState:
    """Train on the previous round's pseudo-labels, re-predict, partition, refine."""
    if round_index < 1:
        raise ValueError("round_index must be >= 1; round 0 has its own entry point")
    if prev.round_index != round_index - 1:
        raise ValueError(
            f"previous state is round {prev.round_index}, cannot run round {round_index}"
        )
    if ctx is None:
        ctx = build_context(config, extract_allowed=False)
    pool = _pool_ids(ctx)
    missing = set(pool) - prev.labels.keys()
    if missing:
        raise ValueError(f"previous round lacks labels for {sorted(missing)}")

    # fresh model trained from scratch on the current pseudo-label set
    t0 = time.perf_counter()
    assets = TrainAssets(
        num_classes=ctx.manifest.num_classes,
        labeled=ctx.store.features[ctx.labeled_id],
        labeled_targets=ctx.labeled_gt.data.reshape(-1),
        pool=tuple(ctx.store.features[v] for v in pool),
        validation=ctx.validation,
    )
    train_cfg = replace(config.train, seed=config.seed ^ round_index)
    params, log = train_round(assets, prev.labels, train_cfg, round_index)
    t_train = time.perf_counter() - t0

    # predict and score every unlabeled volume
    t0 = time.perf_counter()

    def predict(vol_id: str):
        lab, entropy = infer(params, ctx.store.features[vol_id])
        return vol_id, lab, SampleUncertainty(vol_id=vol_id, value=entropy)

    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as tp:
            results = list(tp.map(predict, pool))
    else:
        results = [predict(v) for v in pool]
    raw = {vol_id: lab for vol_id, lab, _ in results}
    uncertainties = [u for _, _, u in results]
    t_infer = time.perf_counter() - t0

    t0 = time.perf_counter()
    partition = partition_by_quantile(uncertainties, ctx.labeled_id, config.q_unc)
    if config.refine:
        votable = dict(raw)
        votable[ctx.labeled_id] = ctx.labeled_gt
        refined, audit = refine_all(
            votable, partition, ctx.store.global_features, config.knn
        )
        labels = refined
    else:
        labels = raw
        audit = []
    t_refine = time.perf_counter() - t0

    state = RoundState(
        round_index=round_index,
        labels=labels,
        refined=config.refine,
        raw_labels=raw,
        partition=partition,
        uncertainties=uncertainties,
        params=params,
        timings={"train": t_train, "infer": t_infer, "refine": t_refine},
    )
    if ctx.truth is not None:
        state.pseudo_label_dice = pseudo_label_quality(labels, ctx.truth)
        state.model_dice = pseudo_label_quality(raw, ctx.truth)

    extra = {
        "refine_audit.json": {"round": round_index, "refined": config.refine, "queries": audit},
    }
    _persist_round(config.out_dir, state, extra=extra, train_log=log)
    return state


def _clear_run_dir(out_dir: Path) -> None:
    """Remove artifacts of a previous run; only paths this pipeline writes."""
    if not out_dir.exists():
        return
    for name in ("config.json", "report.json", "report.txt"):
        p = out_dir / name
        if p.exists():
            p.unlink()
    for p in list(out_dir.glob("round_*")) + [out_dir / "features"]:
        if p.exists() and p.is_dir():
            shutil.rmtree(p)


# config.json keys that differ from the PipelineConfig field names
_DOC_KEYS = {"manifest_path": "manifest", "val_manifest_path": "val_manifest"}
_NESTED = {"encoder": EncoderParams, "train": TrainConfig}
_NOT_PERSISTED = {"force"}  # an action of one invocation, not a run setting


def _config_doc(config: PipelineConfig) -> dict:
    doc = {}
    for f in fields(PipelineConfig):
        if f.name in _NOT_PERSISTED:
            continue
        value = getattr(config, f.name)
        if f.name in _NESTED:
            value = asdict(value)
        elif isinstance(value, Path):
            value = str(value)
        doc[_DOC_KEYS.get(f.name, f.name)] = value
    return doc


def config_from_doc(doc: dict, out_dir: Path) -> PipelineConfig:
    """Inverse of ``_config_doc``; absent keys take defaults, unknown keys are ignored."""
    kwargs = {}
    for f in fields(PipelineConfig):
        key = _DOC_KEYS.get(f.name, f.name)
        if f.name in _NOT_PERSISTED or f.name == "out_dir" or key not in doc:
            continue
        value = doc[key]
        if f.name in _NESTED:
            cls = _NESTED[f.name]
            known = {g.name for g in fields(cls)}
            value = cls(**{k: v for k, v in value.items() if k in known})
        kwargs[f.name] = value
    if "manifest_path" not in kwargs:
        raise ValueError("config document has no manifest")
    return PipelineConfig(out_dir=Path(out_dir), **kwargs)


def run_pipeline(config: PipelineConfig) -> list[RoundState]:
    """Run round 0 through round R and write the run report."""
    out = config.out_dir
    if (out / "config.json").exists() or any(out.glob("round_*")):
        if not config.force:
            raise FileExistsError(
                f"{out} already holds a run; pass force to overwrite"
            )
        _clear_run_dir(out)
    out.mkdir(parents=True, exist_ok=True)
    _dump_json(out / "config.json", _config_doc(config))

    calls_start = encoder_mod.extract_call_count()
    ctx = build_context(config)
    states = [run_round0(config, ctx=ctx)]
    calls_after_round0 = encoder_mod.extract_call_count() - calls_start

    for r in range(1, config.rounds + 1):
        states.append(run_round(config, r, states[-1], ctx=ctx))

    calls_total = encoder_mod.extract_call_count() - calls_start
    if calls_total != calls_after_round0:
        raise RuntimeError(
            f"offline contract violated: {calls_total - calls_after_round0} encoder "
            "calls after the initial round"
        )

    report = {
        "rounds": [
            {
                "round": s.round_index,
                "refined": s.refined,
                "pseudo_label_dice": s.pseudo_label_dice,
                "model_dice": s.model_dice,
                "threshold": s.partition.threshold if s.partition else None,
                "n_certain": len(s.partition.certain) if s.partition else None,
                "n_uncertain": len(s.partition.uncertain) if s.partition else None,
                "timings": s.timings,
            }
            for s in states
        ],
        "encoder_calls_after_round0": calls_after_round0,
        "encoder_calls_total": calls_total,
        "offline_contract_honored": calls_total == calls_after_round0,
        "config": _config_doc(config),
    }
    _dump_json(out / "report.json", report)
    (out / "report.txt").write_text(_format_report(report))
    return states


def load_report(out_dir: Path) -> dict:
    return json.loads((Path(out_dir) / "report.json").read_text())


def _format_report(report: dict) -> str:
    def fmt(x, digits=4):
        return "-" if x is None else f"{x:.{digits}f}"

    lines = ["round  pseudo_dice  model_dice  threshold  uncertain  train_s  other_s"]
    for row in report["rounds"]:
        other = sum(v for k, v in row["timings"].items() if k != "train")
        train = row["timings"].get("train", 0.0)
        unc = "-" if row["n_uncertain"] is None else str(row["n_uncertain"])
        lines.append(
            f"{row['round']:>5}"
            f"  {fmt(row['pseudo_label_dice']):>11}"
            f"  {fmt(row['model_dice']):>10}"
            f"  {fmt(row['threshold']):>9}"
            f"  {unc:>9}"
            f"  {train:7.2f}"
            f"  {other:7.2f}"
        )
    lines.append(
        "encoder calls: "
        f"{report['encoder_calls_total']} total, "
        f"{report['encoder_calls_after_round0']} by end of round 0 "
        f"(offline contract {'honored' if report['offline_contract_honored'] else 'VIOLATED'})"
    )
    return "\n".join(lines) + "\n"
