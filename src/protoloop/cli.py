"""Command-line front end: one orchestrator process, explicit subcommands.

Exit codes: 0 success, 1 validation/usage error, 2 runtime failure.  Every
writing command refuses to overwrite existing outputs unless --force is
given.  --threads caps worker fan-out and falls back to the
PROTOLOOP_THREADS environment variable.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

from . import __version__
from .encoder import (
    EncoderParams,
    GlobalFeature,
    extract_feature_grid,
    global_feature,
    ingest_external_features,
    uniform_channel_count,
)
from .metrics import evaluate_pair, format_table, summarize_reports
from .phantom import generate, load_spec
from .pipeline import (
    PipelineConfig,
    config_from_doc,
    load_round_state,
    run_pipeline,
    run_round,
    run_round0,
)
from .refine import refine_all
from .specialist import TrainConfig
from .uncertainty import Partition, partition_by_quantile, partition_report
from .volume import (
    LabelVolume,
    load_array,
    load_manifest,
    save_array,
)

__all__ = ["dispatch", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; route it to exit code 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _resolve_threads(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("PROTOLOOP_THREADS")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"PROTOLOOP_THREADS={env!r} is not an integer") from None
    return 1


def _add_encoder_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--patch", type=int, default=8, help="patch size in voxels (default 8)")
    p.add_argument(
        "--no-position", action="store_true", help="drop the positional feature channels"
    )
    p.add_argument(
        "--position-weight", type=float, default=0.25, help="positional channel scale"
    )


def _encoder_params(args) -> EncoderParams:
    return EncoderParams(
        patch_size=args.patch,
        include_position=not args.no_position,
        position_weight=args.position_weight,
    )


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True, help="dataset manifest JSON")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--truth", default=None, help="ground-truth label dir (quality tracking)")
    p.add_argument("--force", action="store_true", help="overwrite existing outputs")
    _add_encoder_flags(p)


def _pipeline_config(args, rounds: int, refine: bool = True) -> PipelineConfig:
    train = TrainConfig(
        iterations=getattr(args, "iters", None) or TrainConfig.iterations,
        batch_voxels=getattr(args, "batch", None) or TrainConfig.batch_voxels,
    )
    return PipelineConfig(
        manifest_path=Path(args.manifest),
        out_dir=Path(args.out),
        rounds=rounds,
        encoder=_encoder_params(args),
        train=train,
        knn=getattr(args, "k", None) or 5,
        q_unc=getattr(args, "q_unc", None) or 0.9,
        seed=args.seed,
        refine=refine,
        threads=_resolve_threads(args.threads),
        val_manifest_path=Path(args.val_manifest) if getattr(args, "val_manifest", None) else None,
        truth_dir=Path(args.truth) if args.truth else None,
        force=args.force,
    )


# ---------------------------------------------------------------------------
# commands

def _cmd_synth(args) -> int:
    out = Path(args.out)
    if (out / "manifest.json").exists() and not args.force:
        raise FileExistsError(f"{out} already holds a dataset; pass --force to overwrite")
    spec = load_spec(args.spec)
    manifest, _ = generate(spec, out, all_labeled=args.all_labeled)
    print(f"wrote {len(manifest.entries)} volumes to {out}")
    return 0


def _cmd_encode(args) -> int:
    manifest = load_manifest(args.manifest)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params = _encoder_params(args)
    grids = {}
    for entry in manifest.entries:
        target = out / f"{entry.vol_id}.features.vxar"
        if target.exists() and not args.force:
            raise FileExistsError(f"{target} exists; pass --force to overwrite")
        vol = load_array(manifest.resolve(entry.intensity))
        if entry.features is not None:
            grid = ingest_external_features(manifest.resolve(entry.features), vol.shape)
        else:
            grid = extract_feature_grid(vol, params)
        save_array(grid, target)
        grids[entry.vol_id] = grid
    uniform_channel_count(grids)
    doc = {
        vol_id: {
            "vector": [float(x) for x in global_feature(g).vector],
            "degenerate": global_feature(g).degenerate,
        }
        for vol_id, g in sorted(grids.items())
    }
    (out / "globals.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"encoded {len(grids)} volumes into {out}")
    return 0


def _cmd_init(args) -> int:
    config = _pipeline_config(args, rounds=1)
    out = config.out_dir
    if ((out / "config.json").exists() or (out / "round_0").exists()) and not config.force:
        raise FileExistsError(f"{out} already initialized; pass --force to overwrite")
    if config.force:
        from .pipeline import _clear_run_dir  # shared cleanup of run artifacts

        _clear_run_dir(out)
    out.mkdir(parents=True, exist_ok=True)
    from .pipeline import _config_doc, _dump_json

    _dump_json(out / "config.json", _config_doc(config))
    state = run_round0(config)
    dice = "" if state.pseudo_label_dice is None else f", dice {state.pseudo_label_dice:.4f}"
    print(f"round 0 complete: {len(state.labels)} pseudo-labeled volumes{dice}")
    return 0


def _cmd_run(args) -> int:
    config = _pipeline_config(args, rounds=args.rounds, refine=not args.no_refine)
    states = run_pipeline(config)
    last = states[-1]
    dice = "" if last.pseudo_label_dice is None else f", dice {last.pseudo_label_dice:.4f}"
    print(f"completed rounds 0..{last.round_index}{dice}; report in {config.out_dir}")
    return 0


def _cmd_round(args) -> int:
    prev_dir = Path(args.prev)
    run_dir = prev_dir.parent
    config_file = run_dir / "config.json"
    if not config_file.exists():
        raise ValueError(f"{run_dir} has no config.json; initialize a run first")
    config = config_from_doc(json.loads(config_file.read_text()), run_dir)
    if args.threads is not None:
        config = dataclasses.replace(config, threads=args.threads)
    target = run_dir / f"round_{args.r}"
    if target.exists():
        if not args.force:
            raise FileExistsError(f"{target} exists; pass --force to overwrite")
        shutil.rmtree(target)
    prev = load_round_state(run_dir, args.r - 1)
    state = run_round(config, args.r, prev)
    print(f"round {args.r} complete; {len(state.partition.uncertain)} uncertain samples refined"
          if state.refined else f"round {args.r} complete (refinement disabled)")
    return 0


def _cmd_refine(args) -> int:
    round_dir = Path(args.round)
    run_dir = round_dir.parent
    state_doc = json.loads((round_dir / "state.json").read_text())
    r = state_doc["round"]
    if r < 1:
        raise ValueError("round 0 labels come from propagation; nothing to refine")
    if state_doc.get("refined") and not args.force:
        raise FileExistsError(f"{round_dir} is already refined; pass --force to redo")

    config = config_from_doc(json.loads((run_dir / "config.json").read_text()), run_dir)
    state = load_round_state(run_dir, r)
    raw = state.raw_labels if state.raw_labels is not None else state.labels

    globals_doc = json.loads((run_dir / "features" / "globals.json").read_text())
    features = {
        vol_id: GlobalFeature(vector=g["vector"], degenerate=g["degenerate"])
        for vol_id, g in globals_doc.items()
    }
    manifest = load_manifest(config.manifest_path)
    labeled = manifest.labeled_entry()
    gt = load_array(manifest.resolve(labeled.label))

    if args.q_unc is not None:
        partition = partition_by_quantile(state.uncertainties, labeled.vol_id, args.q_unc)
    else:
        partition = state.partition
    votable = dict(raw)
    votable[labeled.vol_id] = gt
    k = args.k if args.k is not None else config.knn
    refined, audit = refine_all(votable, partition, features, k)

    doc = dict(state_doc)
    doc["refined"] = True
    doc["labels"] = {}
    doc["raw_labels"] = {
        vol_id: f"{vol_id}.round{r}.raw.label" for vol_id in sorted(raw)
    }
    for vol_id in sorted(raw):
        save_array(raw[vol_id], round_dir / doc["raw_labels"][vol_id])
    for vol_id in sorted(refined):
        name = f"{vol_id}.round{r}.refined.label"
        save_array(refined[vol_id], round_dir / name)
        doc["labels"][vol_id] = name
    doc["partition"] = {
        "certain": sorted(partition.certain),
        "uncertain": sorted(partition.uncertain),
        "threshold": partition.threshold,
        "labeled_id": partition.labeled_id,
    }
    (round_dir / "refine_audit.json").write_text(
        json.dumps({"round": r, "refined": True, "queries": audit}, indent=2, sort_keys=True) + "\n"
    )
    (round_dir / "state.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"refined {len(partition.uncertain)} uncertain samples in {round_dir}")
    return 0


def _collect_labels(dir_path: Path) -> dict[str, Path]:
    """Label files by volume id; refined labels shadow raw ones."""
    out: dict[str, Path] = {}
    preferred: dict[str, bool] = {}
    for path in sorted(dir_path.iterdir()):
        if not path.is_file() or ".label" not in path.name:
            continue
        vol_id = path.name.split(".", 1)[0]
        is_refined = ".refined." in path.name
        if vol_id not in out or (is_refined and not preferred[vol_id]):
            out[vol_id] = path
            preferred[vol_id] = is_refined
    if not out:
        raise ValueError(f"no label files found in {dir_path}")
    return out


def _cmd_eval(args) -> int:
    pred = _collect_labels(Path(args.pred))
    truth = _collect_labels(Path(args.truth))
    shared = sorted(pred.keys() & truth.keys())
    if not shared:
        raise ValueError("prediction and truth directories share no volume ids")
    reports = []
    for vol_id in shared:
        p = load_array(pred[vol_id])
        t = load_array(truth[vol_id])
        if not isinstance(p, LabelVolume) or not isinstance(t, LabelVolume):
            raise ValueError(f"{vol_id}: not label volumes")
        reports.append(evaluate_pair(p, t))
    summary = summarize_reports(reports)
    print(format_table(summary))
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


def _svg_line_chart(series: dict[str, list[tuple[float, float]]], title: str) -> str:
    """A dependency-free SVG line chart; rounds on x, Dice on y."""
    width, height, pad = 480, 320, 48
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    if not xs:
        raise ValueError("nothing to plot")
    x0, x1 = min(xs), max(xs)
    y0, y1 = 0.0, max(1.0, max(ys))
    span_x = (x1 - x0) or 1.0

    def px(x):
        return pad + (x - x0) / span_x * (width - 2 * pad)

    def py(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
    ]
    for tick in range(int(x0), int(x1) + 1):
        parts.append(
            f'<text x="{px(tick)}" y="{height - pad + 16}" text-anchor="middle" '
            f'font-size="10">{tick}</text>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y0 + frac * (y1 - y0)
        parts.append(
            f'<text x="{pad - 6}" y="{py(y) + 3}" text-anchor="end" font-size="10">{y:.2f}</text>'
        )
    for i, (name, pts) in enumerate(sorted(series.items())):
        color = colors[i % len(colors)]
        path = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{path}"/>'
        )
        parts.append(
            f'<text x="{width - pad}" y="{pad + 14 * i}" text-anchor="end" '
            f'font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_report(args) -> int:
    run_dir = Path(args.run)
    report = json.loads((run_dir / "report.json").read_text())
    csv_path = run_dir / "report.csv"
    if csv_path.exists() and not args.force:
        raise FileExistsError(f"{csv_path} exists; pass --force to overwrite")
    fields = [
        "round",
        "refined",
        "pseudo_label_dice",
        "model_dice",
        "threshold",
        "n_certain",
        "n_uncertain",
        "train_s",
        "other_s",
    ]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in report["rounds"]:
            timings = row["timings"]
            writer.writerow(
                {
                    "round": row["round"],
                    "refined": row["refined"],
                    "pseudo_label_dice": row["pseudo_label_dice"],
                    "model_dice": row["model_dice"],
                    "threshold": row["threshold"],
                    "n_certain": row["n_certain"],
                    "n_uncertain": row["n_uncertain"],
                    "train_s": timings.get("train", 0.0),
                    "other_s": sum(v for k, v in timings.items() if k != "train"),
                }
            )
    written = [str(csv_path)]
    if args.plot:
        series: dict[str, list[tuple[float, float]]] = {}
        for row in report["rounds"]:
            for key in ("pseudo_label_dice", "model_dice"):
                if row[key] is not None:
                    series.setdefault(key, []).append((row["round"], row[key]))
        svg_path = run_dir / "report.svg"
        if svg_path.exists() and not args.force:
            raise FileExistsError(f"{svg_path} exists; pass --force to overwrite")
        svg_path.write_text(_svg_line_chart(series, "per-round quality"))
        written.append(str(svg_path))
    print("wrote " + ", ".join(written))
    return 0


# ---------------------------------------------------------------------------
# parser wiring

def build_parser() -> _Parser:
    parser = _Parser(prog="protoloop", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset from a JSON spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--all-labeled", action="store_true", help="keep every label (val/test split)")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("encode", help="extract or ingest feature grids for a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    _add_encoder_flags(p)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("init", help="run the propagation round (round 0) only")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_init)

    p = sub.add_parser("run", help="run the full pipeline: round 0 through round R")
    _add_run_flags(p)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--no-refine", action="store_true", help="disable pseudo-label refinement")
    p.add_argument("--k", type=int, default=None, help="refinement neighbors (default 5)")
    p.add_argument("--q-unc", type=float, default=None, help="certainty quantile (default 0.9)")
    p.add_argument("--iters", type=int, default=None, help="training iterations per round")
    p.add_argument("--batch", type=int, default=None, help="voxels per training batch")
    p.add_argument("--val-manifest", default=None, help="labeled manifest for model selection")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("round", help="run one more round on an existing run directory")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--prev", required=True, help="previous round directory")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_round)

    p = sub.add_parser("refine", help="(re-)apply refinement to a persisted round")
    p.add_argument("--round", required=True, help="round directory")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--q-unc", type=float, default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("eval", help="score predicted labels against reference labels")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--json", default=None, help="also write the summary as JSON")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="emit per-round CSV (and SVG chart) for a run")
    p.add_argument("--run", required=True)
    p.add_argument("--plot", action="store_true")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_report)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args) or 0
    except (ValueError, FileExistsError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 — CLI boundary
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
