"""Output checks of one benchmark run; any problem counts the run as failed."""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from protoloop import pipeline

# How far a Dice at the default seed may sit from the frozen value: wide
# enough for a reordered floating-point sum, far below any real regression.
DICE_TOLERANCE = 0.005


def mean_foreground_dice(labels: dict, truth: dict) -> float:
    """Mean over volumes of the Dice of the foreground union, computed here."""
    scores = []
    for vol_id in sorted(labels):
        pred = labels[vol_id].data > 0
        ref = truth[vol_id].data > 0
        total = int(pred.sum()) + int(ref.sum())
        inter = int(np.logical_and(pred, ref).sum())
        scores.append(1.0 if total == 0 else 2.0 * inter / total)
    return float(np.mean(scores))


def label_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every label file the rounds' state.json files name."""
    digests = {}
    for state_file in sorted(out_dir.glob("round_*/state.json")):
        doc = json.loads(state_file.read_text())
        names = list(doc.get("labels", {}).values()) + list(doc.get("raw_labels", {}).values())
        for name in sorted(set(names)):
            path = state_file.parent / name
            key = str(path.relative_to(out_dir))
            digests[key] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
    return digests


def check_run(
    out_dir: Path,
    rounds: int,
    truth: dict,
    extract_calls: tuple[int, int],
    read_report: bool,
    expected_dice: tuple[float, float] | None,
) -> tuple[list[str], list[float]]:
    """Check a finished run directory; returns (problems, Dice per round).

    ``extract_calls`` counts encoder calls up to the end of round 0 and after
    it.  ``read_report`` says the run wrote ``report.json``, which must agree
    with those counts.
    """
    problems: list[str] = []
    dice: list[float] = []
    in_round0, after_round0 = extract_calls
    if after_round0 != 0:
        problems.append(f"offline contract: {after_round0} encoder calls after round 0")
    if read_report:
        try:
            report = json.loads((out_dir / "report.json").read_text())
        except (OSError, ValueError) as exc:
            report = {}
            problems.append(f"report.json unreadable ({type(exc).__name__}: {exc})")
        if not report.get("offline_contract_honored"):
            problems.append("report.json says the offline contract was violated")
        total = report.get("encoder_calls_total")
        by_round0 = report.get("encoder_calls_after_round0")
        if (by_round0, total) != (in_round0, in_round0 + after_round0):
            problems.append(
                f"report.json counts encoder calls {by_round0}/{total}, "
                f"measured {in_round0}/{in_round0 + after_round0}"
            )

    pool = sorted(truth)
    for r in range(rounds + 1):
        try:
            state = pipeline.load_round_state(out_dir, r)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"round_{r}: does not reload ({type(exc).__name__}: {exc})")
            continue
        if sorted(state.labels) != pool:
            problems.append(f"round_{r}: labels cover {sorted(state.labels)}, pool is {pool}")
            continue
        shapes = [(state.labels[v].data.shape, truth[v].data.shape) for v in pool]
        if any(a != b for a, b in shapes):
            problems.append(f"round_{r}: label shapes differ from the volumes")
            continue
        ours = mean_foreground_dice(state.labels, truth)
        if state.pseudo_label_dice is None or abs(ours - state.pseudo_label_dice) > 1e-9:
            problems.append(f"round_{r}: recorded Dice {state.pseudo_label_dice} != measured {ours}")
        dice.append(ours)

    if expected_dice is not None and len(dice) == rounds + 1:
        for got, want, which in zip((dice[0], dice[-1]), expected_dice, ("round 0", "final")):
            if abs(got - want) > DICE_TOLERANCE:
                problems.append(f"{which} Dice {got:.4f}, expected {want:.4f} at the default seed")
    return problems, dice
