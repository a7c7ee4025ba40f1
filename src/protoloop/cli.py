"""Command-line front end: one orchestrator process, explicit subcommands.

``init`` and ``run`` take the same flags, every run setting, and record them in
the run directory; ``round --prev <run>/round_<r-1>`` runs round r from them alone.

Exit codes: 0 success, 1 validation/usage error, 2 runtime failure.  Every
writing command refuses to overwrite existing outputs unless --force is
given.
"""
from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import __version__
from .encoder import EncoderParams
from .metrics import evaluate_pair, format_table, summarize_reports
from .phantom import generate, load_spec
from .pipeline import (
    PipelineConfig,
    load_round_state,
    load_run_config,
    parse_round_dir,
    refine_round,
    run_pipeline,
    run_round,
    run_round0,
    run_table,
    start_run,
)
from .specialist import TrainConfig
from .volume import LabelVolume, load_array, write_json

__all__ = ["dispatch", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; route it to exit code 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """Every run setting, with the library's defaults, so ``init`` records what ``run`` does."""
    p.add_argument("--manifest", required=True, help="dataset manifest JSON")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--seed", type=int, default=PipelineConfig.seed)
    p.add_argument("--truth", default=None, help="ground-truth label dir (quality tracking)")
    p.add_argument("--no-refine", action="store_true", help="disable pseudo-label refinement")
    for flag, kind, default, text in (
        ("--patch", int, EncoderParams.patch_size, "patch size in voxels"),
        ("--k", int, PipelineConfig.knn, "refinement neighbors"),
        ("--q-unc", float, PipelineConfig.q_unc, "certainty quantile"),
        ("--iters", int, TrainConfig.iterations, "training iterations per round"),
        ("--batch", int, TrainConfig.batch_voxels, "voxels per training batch"),
    ):
        p.add_argument(flag, type=kind, default=default, help=f"{text} (default %(default)s)")
    p.add_argument("--force", action="store_true", help="overwrite existing outputs")


def _pipeline_config(args, rounds: int) -> PipelineConfig:
    return PipelineConfig(
        manifest_path=args.manifest,
        out_dir=args.out,
        rounds=rounds,
        encoder=EncoderParams(patch_size=args.patch),
        train=TrainConfig(iterations=args.iters, batch_voxels=args.batch),
        knn=args.k,
        q_unc=args.q_unc,
        seed=args.seed,
        refine=not args.no_refine,
        truth_dir=args.truth,
        force=args.force,
    )


# ---------------------------------------------------------------------------
# commands

def _cmd_synth(args) -> int:
    out = Path(args.out)
    if (out / "manifest.json").exists() and not args.force:
        raise FileExistsError(f"{out} already holds a dataset; pass --force to overwrite")
    spec = load_spec(args.spec)
    manifest, _ = generate(spec, out)
    print(f"wrote {len(manifest.entries)} volumes to {out}")
    return 0


def _cmd_init(args) -> int:
    config = _pipeline_config(args, rounds=1)
    start_run(config)
    state = run_round0(config)
    dice = "" if state.pseudo_label_dice is None else f", dice {state.pseudo_label_dice:.4f}"
    print(f"round 0 complete: {len(state.labels)} pseudo-labeled volumes{dice}")
    return 0


def _cmd_run(args) -> int:
    config = _pipeline_config(args, rounds=args.rounds)
    last = run_pipeline(config)
    dice = "" if last.pseudo_label_dice is None else f", dice {last.pseudo_label_dice:.4f}"
    print(f"completed rounds 0..{last.round_index}{dice}; "
          f"`protoloop report --run {config.out_dir}` tabulates them")
    return 0


def _cmd_round(args) -> int:
    run_dir, prev_index = parse_round_dir(args.prev)
    config = load_run_config(run_dir, force=args.force)
    r = prev_index + 1
    state = run_round(config, r, load_round_state(config.out_dir, prev_index))
    print(f"round {r} complete; {len(state.partition.uncertain)} uncertain samples refined"
          if state.refined else f"round {r} complete (refinement disabled)")
    return 0


def _cmd_refine(args) -> int:
    run_dir, index = parse_round_dir(args.round)
    config = load_run_config(run_dir, knn=args.k, q_unc=args.q_unc, force=args.force)
    state = refine_round(config, index)
    print(f"refined {len(state.partition.uncertain)} uncertain samples in {Path(args.round)}")
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
        p = load_array(pred[vol_id], LabelVolume)
        t = load_array(truth[vol_id], LabelVolume)
        reports.append(evaluate_pair(p, t))
    summary = summarize_reports(reports)
    print(format_table(summary))
    if args.json:
        write_json(args.json, summary)
    return 0


def _rounds_text(rows: list[dict]) -> str:
    def fmt(x):
        return "-" if x is None else f"{x:.4f}"

    lines = ["round  pseudo_dice  model_dice  threshold  uncertain  train_s  other_s"]
    for r in rows:
        unc = "-" if r["n_uncertain"] is None else r["n_uncertain"]
        lines.append(
            f"{r['round']:>5}  {fmt(r['pseudo_label_dice']):>11}  {fmt(r['model_dice']):>10}"
            f"  {fmt(r['threshold']):>9}  {unc:>9}  {r['train_s']:7.2f}  {r['other_s']:7.2f}"
        )
    return "\n".join(lines)


def _cmd_report(args) -> int:
    """Tabulate the run's rounds from their state files and write them to ``report.csv``."""
    run_dir = Path(args.run)
    rows = [  # run_table's rows, with the timings collapsed into two columns
        {k: v for k, v in row.items() if k != "timings"}
        | {
            "train_s": row["timings"].get("train", 0.0),
            "other_s": sum(v for k, v in row["timings"].items() if k != "train"),
        }
        for row in run_table(run_dir)
    ]
    if not rows:
        raise ValueError(f"{run_dir} holds no round directory")
    text = _rounds_text(rows)  # every row is read and rendered before report.csv is touched
    path = run_dir / "report.csv"
    if path.exists() and not args.force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(text)
    print(f"wrote {path}")
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
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("init", help="run the propagation round (round 0) only")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_init)

    p = sub.add_parser("run", help="run the full pipeline: round 0 through round R")
    _add_run_flags(p)
    p.add_argument("--rounds", type=int, default=PipelineConfig.rounds)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("round", help="run the round after --prev on its run directory")
    p.add_argument("--prev", required=True, help="previous round directory (round_<r-1>)")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_round)

    p = sub.add_parser("refine", help="redo a persisted round's partition and vote, atomically")
    p.add_argument("--round", required=True, help="round directory (round_<r>)")
    p.add_argument("--k", type=int, default=None, help="refinement neighbors (default: run's)")
    p.add_argument("--q-unc", type=float, default=None, help="certainty quantile (default: run's)")
    p.add_argument("--force", action="store_true", help="redo a round that is already refined")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("eval", help="score predicted labels against reference labels")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--json", default=None, help="also write the summary as JSON")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="emit a per-round CSV for a run")
    p.add_argument("--run", required=True)
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


if __name__ == "__main__":
    main()
