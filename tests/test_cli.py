"""Command-line surface: exit codes, file outputs, reruns, env fallbacks."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from protoloop import cli
from protoloop.cli import dispatch
from protoloop.phantom import ClassShape, PhantomSpec, save_spec
from protoloop.volume import Shape3


def _spec(num_volumes=4):
    return PhantomSpec(
        num_volumes=num_volumes,
        shape=Shape3(12, 12, 12),
        num_classes=2,
        classes=(ClassShape(center=(0.5, 0.5, 0.5), radii=(3.5, 3.5, 3.5)),),
        noise_sigma=0.1,
        center_jitter=0.7,
        radius_jitter=0.4,
        seed=21,
    )


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    spec_file = root / "spec.json"
    save_spec(_spec(), spec_file)
    out = root / "data"
    assert dispatch(["synth", "--spec", str(spec_file), "--out", str(out)]) == 0
    return out


def _run_args(dataset, out, *extra):
    return [
        "run",
        "--manifest", str(dataset / "manifest.json"),
        "--out", str(out),
        "--truth", str(dataset / "truth"),
        "--patch", "4",
        "--rounds", "1",
        "--iters", "60",
        "--batch", "64",
        "--q-unc", "0.5",
        "--k", "2",
        "--seed", "7",
        *extra,
    ]


@pytest.fixture(scope="module")
def finished_run(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    assert dispatch(_run_args(dataset, out)) == 0
    return out


# ---------------------------------------------------------------------------
# generic surface

def test_help_and_version_exit_zero(capsys):
    assert dispatch(["--help"]) == 0
    assert dispatch(["--version"]) == 0
    out = capsys.readouterr().out
    assert "protoloop" in out


def test_usage_errors_exit_one(capsys):
    assert dispatch(["frobnicate"]) == 1
    assert dispatch(["run"]) == 1  # --manifest/--out required
    assert dispatch(["run", "--manifest", "m", "--out", "o", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_runtime_failure_exits_two(dataset, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_pipeline", lambda config: 1 / 0)
    assert dispatch(_run_args(dataset, tmp_path / "r")) == 2
    assert "runtime failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synth / encode

def test_synth_refuses_rerun_without_force(dataset, tmp_path_factory):
    root = dataset.parent
    spec_file = root / "spec.json"
    assert dispatch(["synth", "--spec", str(spec_file), "--out", str(dataset)]) == 1
    assert dispatch(["synth", "--spec", str(spec_file), "--out", str(dataset), "--force"]) == 0


def test_synth_bad_spec(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"num_volumes": 2}')
    assert dispatch(["synth", "--spec", str(bad), "--out", str(tmp_path / "d")]) == 1


def test_encode_writes_grids_and_globals(dataset, tmp_path, capsys):
    out = tmp_path / "feats"
    argv = ["encode", "--manifest", str(dataset / "manifest.json"), "--out", str(out), "--patch", "4"]
    assert dispatch(argv) == 0
    for i in range(4):
        assert (out / f"vol_{i:03d}.features.vxar").exists()
    doc = json.loads((out / "globals.json").read_text())
    assert set(doc) == {f"vol_{i:03d}" for i in range(4)}
    assert all(len(v["vector"]) > 0 for v in doc.values())
    assert dispatch(argv) == 1  # refuses to overwrite
    assert dispatch(argv + ["--force"]) == 0


# ---------------------------------------------------------------------------
# init / run

def test_init_runs_round0_only(dataset, tmp_path):
    out = tmp_path / "run"
    argv = [
        "init",
        "--manifest", str(dataset / "manifest.json"),
        "--out", str(out),
        "--patch", "4",
    ]
    assert dispatch(argv) == 0
    assert (out / "round_0").exists() and (out / "config.json").exists()
    assert not (out / "round_1").exists()
    assert dispatch(argv) == 1
    assert dispatch(argv + ["--force"]) == 0


def test_run_writes_report(dataset, finished_run, capsys):
    report = json.loads((finished_run / "report.json").read_text())
    assert [r["round"] for r in report["rounds"]] == [0, 1]
    assert report["offline_contract_honored"] is True


def test_run_rejects_zero_rounds(dataset, tmp_path):
    argv = _run_args(dataset, tmp_path / "r")
    argv[argv.index("--rounds") + 1] = "0"
    assert dispatch(argv) == 1


def test_no_refine_flag(dataset, finished_run, tmp_path):
    out = tmp_path / "plain"
    assert dispatch(_run_args(dataset, out, "--no-refine")) == 0
    doc = json.loads((out / "round_1" / "state.json").read_text())
    assert doc["refined"] is False
    # round 0 is untouched by the ablation: bit-identical propagation output
    for name in ("vol_001.round0.label", "vol_002.round0.label"):
        assert (out / "round_0" / name).read_bytes() == (
            finished_run / "round_0" / name
        ).read_bytes()


def test_threads_env_fallback(dataset, tmp_path, monkeypatch):
    monkeypatch.setenv("PROTOLOOP_THREADS", "2")
    out = tmp_path / "r"
    assert dispatch(_run_args(dataset, out)) == 0
    assert json.loads((out / "config.json").read_text())["threads"] == 2


def test_threads_env_not_integer(dataset, tmp_path, monkeypatch):
    monkeypatch.setenv("PROTOLOOP_THREADS", "lots")
    assert dispatch(_run_args(dataset, tmp_path / "r")) == 1


# ---------------------------------------------------------------------------
# round / refine

def test_round_continues_run(dataset, finished_run):
    argv = ["round", "--r", "2", "--prev", str(finished_run / "round_1")]
    assert dispatch(argv) == 0
    assert (finished_run / "round_2" / "state.json").exists()
    assert dispatch(argv) == 1  # round_2 now exists
    assert dispatch(argv + ["--force"]) == 0


def test_round_requires_config(tmp_path):
    (tmp_path / "round_0").mkdir()
    assert dispatch(["round", "--r", "1", "--prev", str(tmp_path / "round_0")]) == 1


def test_refine_command_rewrites_round(dataset, tmp_path):
    out = tmp_path / "plain"
    assert dispatch(_run_args(dataset, out, "--no-refine")) == 0
    round_dir = out / "round_1"
    argv = ["refine", "--round", str(round_dir), "--q-unc", "0.5", "--k", "2"]
    assert dispatch(argv) == 0
    doc = json.loads((round_dir / "state.json").read_text())
    assert doc["refined"] is True
    for vid, name in doc["labels"].items():
        assert name.endswith(".refined.label")
        assert (round_dir / name).exists()
    audit = json.loads((round_dir / "refine_audit.json").read_text())
    assert audit["refined"] is True and len(audit["queries"]) >= 1
    assert dispatch(argv) == 1  # already refined
    assert dispatch(argv + ["--force"]) == 0


def test_refine_rejects_round0(finished_run):
    assert dispatch(["refine", "--round", str(finished_run / "round_0")]) == 1


# ---------------------------------------------------------------------------
# eval / report

def test_eval_identical_dirs_scores_hundred(dataset, capsys):
    truth = str(dataset / "truth")
    out_json = dataset.parent / "eval.json"
    assert dispatch(["eval", "--pred", truth, "--truth", truth, "--json", str(out_json)]) == 0
    table = capsys.readouterr().out
    assert "100.00 ± 0.00" in table and "foreground" in table
    doc = json.loads(out_json.read_text())
    assert doc["rows"]["foreground"]["dice"]["mean"] == pytest.approx(100.0)


def test_eval_scores_run_output(dataset, finished_run, capsys):
    argv = [
        "eval",
        "--pred", str(finished_run / "round_1"),
        "--truth", str(dataset / "truth"),
    ]
    assert dispatch(argv) == 0
    assert "Dice[%]" in capsys.readouterr().out


def test_eval_disjoint_ids(dataset, tmp_path, capsys):
    other = tmp_path / "other"
    other.mkdir()
    import shutil

    shutil.copy(
        dataset / "truth" / "vol_000.label.vxar", other / "different.label.vxar"
    )
    argv = ["eval", "--pred", str(other), "--truth", str(dataset / "truth")]
    assert dispatch(argv) == 1
    assert "share no volume ids" in capsys.readouterr().err


def test_report_csv_and_svg(finished_run, capsys):
    argv = ["report", "--run", str(finished_run), "--plot"]
    assert dispatch(argv) == 0
    csv_text = (finished_run / "report.csv").read_text().splitlines()
    assert csv_text[0].startswith("round,refined,pseudo_label_dice")
    assert len(csv_text) >= 3  # header + rounds 0..1 (round 2 added by a prior test)
    svg = (finished_run / "report.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    assert dispatch(argv) == 1  # outputs exist now
    assert dispatch(argv + ["--force"]) == 0
