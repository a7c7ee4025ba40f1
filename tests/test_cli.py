"""Command-line surface: exit codes, file outputs, reruns, env fallbacks."""
from __future__ import annotations

import argparse
import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from protoloop import __version__, cli, encoder, pipeline, volume
from protoloop.cli import dispatch
from protoloop.phantom import ClassShape, PhantomSpec, generate, save_spec
from protoloop.specialist import load_params
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


def _init_args(dataset, out, *extra):
    """``_run_args`` for ``init``: every run setting but ``--rounds``."""
    argv = _run_args(dataset, out, *extra)
    i = argv.index("--rounds")
    return ["init", *argv[1:i], *argv[i + 2:]]


def _absolute_manifest(dataset) -> dict:
    """The dataset's manifest with every file it names as an absolute path."""
    doc = json.loads((dataset / "manifest.json").read_text())
    for v in doc["volumes"]:
        for key in ("intensity", "label", "features"):
            if v.get(key):
                v[key] = str(dataset / v[key])
    return doc


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


def test_python_m_runs_the_cli():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "protoloop.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120, check=False,
        )

    version = run("--version")
    assert (version.returncode, version.stdout) == (0, f"protoloop {__version__}\n")
    unknown = run("frobnicate")
    assert unknown.returncode == 1 and "error" in unknown.stderr


def test_usage_errors_exit_one(capsys):
    assert dispatch(["frobnicate"]) == 1
    assert dispatch(["run"]) == 1  # --manifest/--out required
    assert dispatch(["run", "--manifest", "m", "--out", "o", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


@pytest.mark.parametrize("vol_id", ["../escaped", "vol.x"])
def test_run_rejects_hostile_volume_id(dataset, tmp_path, capsys, vol_id):
    doc = _absolute_manifest(dataset)
    doc["volumes"][-1]["id"] = vol_id
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    argv = _run_args(dataset, tmp_path / "out")
    argv[argv.index("--manifest") + 1] = str(manifest)
    assert dispatch(argv) == 1
    assert "volume id" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.vxar")) and not list(tmp_path.rglob("*.label"))


def test_bad_manifest_leaves_nothing_then_run_succeeds(dataset, tmp_path, capsys):
    out = tmp_path / "out"
    argv = _run_args(dataset, out)
    argv[argv.index("--manifest") + 1] = str(dataset / "no_such_manifest.json")
    assert dispatch(argv) == 1
    assert "no_such_manifest" in capsys.readouterr().err
    assert not out.exists()
    out.mkdir()
    assert dispatch(argv) == 1
    assert not any(out.iterdir())
    assert dispatch(_run_args(dataset, out)) == 0
    assert (out / "report.json").exists()


@pytest.mark.parametrize("labeled", [0, 2])
def test_manifest_without_exactly_one_label_leaves_nothing(dataset, tmp_path, capsys, labeled):
    """An ``"exactly_one_labeled": false`` a manifest may still carry is ignored:
    ``init`` refuses the manifest before writing anything."""
    doc = _absolute_manifest(dataset)
    doc["exactly_one_labeled"] = False
    if labeled == 0:
        del doc["volumes"][0]["label"]
    else:
        doc["volumes"][1]["label"] = doc["volumes"][0]["label"]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    argv = _init_args(dataset, tmp_path / "out")
    argv[argv.index("--manifest") + 1] = str(manifest)
    assert dispatch(argv) == 1
    assert capsys.readouterr().err.count(f"{labeled} labeled entries") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("command", ["init", "run"])
def test_unknown_manifest_keys_leave_nothing(dataset, tmp_path, capsys, command):
    """A key the manifest does not read, or one given twice in one object, in
    a volume entry or at its top level, exits 1 naming the manifest and the
    key path, and makes no run directory.  Before, an entry's misspelled
    ``featurs`` was dropped and ``init`` encoded that volume with the
    built-in encoder, and a key given twice was read as its last value."""
    good = _absolute_manifest(dataset)
    typo = json.loads(json.dumps(good))
    typo["volumes"][1]["featurs"] = "vol_001.ext.vxar"
    manifest, out = tmp_path / "manifest.json", tmp_path / "out"
    argv = (_init_args if command == "init" else _run_args)(dataset, out)
    argv[argv.index("--manifest") + 1] = str(manifest)
    text = json.dumps(good)
    for doc, named in (
        (typo, "unknown key volumes[vol_001].featurs"),
        (good | {"num_volumes": 4}, "unknown key num_volumes"),
        (text[:-1] + ', "num_classes": 3}', "key num_classes appears twice in one object"),
        (text.replace('"id": "vol_001"', '"id": "vol_001", "id": "vol_001"'), "key volumes[vol_001].id appears twice"),
    ):
        manifest.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert f"{manifest}: {named}" in err, err
        assert not out.exists()


@pytest.mark.parametrize("volume, key, value", [
    (None, "num_classes", 2.0),
    (None, "num_classes", "2"),
    (None, "num_classes", True),
    (1, "intensity", 3),
    (1, "features", 3),
    (0, "label", ["vol_000.label.vxar"]),
])
def test_manifest_field_of_another_type_leaves_nothing(dataset, tmp_path, capsys, volume, key, value):
    """Before, ``"num_classes": 2.0`` passed every check and ``run`` failed in
    training after writing round 0, ``"2"`` was called a missing field, and a
    path that is not a string exited 2.  Now the manifest is refused by file,
    and by volume id, before anything is written."""
    doc = _absolute_manifest(dataset)
    if volume is None:
        doc[key] = value
    else:
        doc["volumes"][volume][key] = value
        key = f"volumes[{doc['volumes'][volume]['id']}].{key}"
    named = [str(tmp_path / "manifest.json"), f"{key} is {json.dumps(value)}"]
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    for argv in (_run_args(dataset, tmp_path / "out"), _init_args(dataset, tmp_path / "out")):
        argv[argv.index("--manifest") + 1] = str(tmp_path / "manifest.json")
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert all(n in err for n in named), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda doc: doc["volumes"][1].update(id="../x"), ["volume id '../x'"]),
        (lambda doc: doc.update(num_classes=300), ["num_classes=300"]),
        (lambda doc: doc["volumes"][2].update(id="vol_001"), ["volume ids ['vol_001'] are not unique"]),
        (lambda doc: doc["volumes"][1].update(label=doc["volumes"][0]["label"]), ["['vol_000', 'vol_001']"]),
        (lambda doc: doc.update(volumes=doc["volumes"][:1]), ["manifest has no unlabeled volume"]),
    ],
    ids=["path-id", "300-classes", "duplicated-id", "two-labeled", "template-only"],
)
def test_manifest_the_dataset_contract_refuses_is_named(dataset, tmp_path, capsys, edit, named):
    """Before, ``init`` refused these naming neither the manifest nor, for a
    duplicated id or two labeled entries, the ids."""
    doc = _absolute_manifest(dataset)
    edit(doc)
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    argv = _init_args(dataset, tmp_path / "out")
    argv[argv.index("--manifest") + 1] = str(tmp_path / "manifest.json")
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert all(n in err for n in [f"{tmp_path / 'manifest.json'}: ", *named]), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("truth", [False, True])
def test_template_only_manifest_leaves_out_empty(dataset, tmp_path, capsys, truth):
    """Before, ``run`` failed in training after writing ``config.json``, the
    grids and an empty round 0, and with ``--truth`` in scoring round 0
    (``init``, in the table above, exited 0).  Now the manifest is refused
    before anything is written."""
    doc = _absolute_manifest(dataset)
    doc["volumes"] = doc["volumes"][:1]
    manifest, out = tmp_path / "manifest.json", tmp_path / "out"
    manifest.write_text(json.dumps(doc))
    out.mkdir()
    argv = _run_args(dataset, out)
    argv[argv.index("--manifest") + 1] = str(manifest)
    if not truth:
        del argv[argv.index("--truth"):argv.index("--truth") + 2]
    assert dispatch(argv) == 1
    assert f"{manifest}: manifest has no unlabeled volume" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_manifest_naming_missing_volume_leaves_nothing_then_run_succeeds(dataset, tmp_path, capsys):
    doc = _absolute_manifest(dataset)
    doc["volumes"][-1]["intensity"] = str(dataset / "missing.vxar")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = _run_args(dataset, out)
    argv[argv.index("--manifest") + 1] = str(manifest)
    assert dispatch(argv) == 1
    assert "missing.vxar" in capsys.readouterr().err
    assert not out.exists()
    out.mkdir()
    assert dispatch(argv) == 1
    assert not (out / "config.json").exists() and not (out / "features").exists()
    assert dispatch(_run_args(dataset, out)) == 0
    assert (out / "report.json").exists()


def test_missing_truth_files_leave_nothing_then_run_succeeds(dataset, tmp_path, capsys):
    """Every pool volume's truth label is checked before ``config.json`` is
    written, so the corrected run needs no ``--force``."""
    truth = tmp_path / "truth"
    shutil.copytree(dataset / "truth", truth)
    pool = sorted(truth.glob("vol_*.label.vxar"))[1:]  # vol_000 is the template
    for path in pool[1:]:
        path.unlink()
    out = tmp_path / "out"
    out.mkdir()
    argv = _run_args(dataset, out)
    argv[argv.index("--truth") + 1] = str(truth)
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert all(str(path) in err for path in pool[1:]) and str(pool[0]) not in err
    argv[argv.index("--truth") + 1] = str(dataset / "nowhere")
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert all(str(dataset / "nowhere" / path.name) in err for path in pool)
    assert not any(out.iterdir())
    assert dispatch(_run_args(dataset, out)) == 0
    assert (out / "report.json").exists()


def test_runtime_failure_exits_two(dataset, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_pipeline", lambda config: 1 / 0)
    assert dispatch(_run_args(dataset, tmp_path / "r")) == 2
    assert "runtime failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synth

def test_synth_refuses_rerun_without_force(dataset, tmp_path_factory):
    root = dataset.parent
    spec_file = root / "spec.json"
    assert dispatch(["synth", "--spec", str(spec_file), "--out", str(dataset)]) == 1
    assert dispatch(["synth", "--spec", str(spec_file), "--out", str(dataset), "--force"]) == 0


def test_synth_bad_spec(tmp_path, capsys):
    """A malformed spec exits 1 naming the file, and the key where there is
    one, before ``--out`` is made.  Before, ``"num_volumes": 2.5`` and
    ``"seed": 1.5`` exited 2 after making ``--out/truth/``, ``"3"`` and ``"x"``
    were called missing fields, ``"classes": {"a": 1}`` exited 2 and invalid
    JSON was not named by file.  A key given twice was read as its last
    value, and ``NaN`` or ``Infinity`` made ``synth`` fail part-way, after
    making ``--out/truth/``."""
    save_spec(_spec(), tmp_path / "good.json")
    good = json.loads((tmp_path / "good.json").read_text())
    center = {"center": "x", "radii": [3.5, 3.5, 3.5], "intensity_mean": 1.0}
    rows = [  # (the spec's text, or keys set in a good spec; what the refusal names)
        ('{"num_volumes": 2}', "missing required field shape"),
        ('{"num_volumes": ', "not valid JSON"),
        ("[]", "must be an object"),
        ({"num_volumes": 2.5}, "num_volumes is 2.5; it must be an integer"),
        ({"seed": 1.5}, "seed is 1.5"),
        ({"num_volumes": "3"}, 'num_volumes is "3"'),
        ({"noise_sigma": "x"}, 'noise_sigma is "x"; it must be a number'),
        ({"classes": {"a": 1}}, "classes is"),
        ({"classes": [center]}, 'classes[0].center is "x"'),
        ({"shape": [12, 12]}, "shape is [12, 12]"),
        ({"num_classes": 300}, "num_classes=300 outside [2, 256]"),
        (json.dumps(good)[:-1] + ', "seed": 3}', "key seed appears twice in one object"),
        (json.dumps(good).replace('"family": ', '"family": "ellipsoid", "family": '), "key classes[0].family appears twice"),
        ({"noise_sigma": float("nan")}, "noise_sigma is NaN, which is not a JSON number"),
        ({"background_mean": float("inf")}, "background_mean is Infinity,"),
        ({"classes": [good["classes"][0] | {"intensity_mean": float("nan")}]}, "classes[0].intensity_mean is NaN,"),
        ({"classes": [good["classes"][0] | {"center": [float("nan"), 0.5, 0.5]}]}, "classes[0].center[0] is NaN,"),
    ]
    bad, out = tmp_path / "bad.json", tmp_path / "d"
    for spec, named in rows:
        bad.write_text(spec if isinstance(spec, str) else json.dumps(good | spec))
        assert dispatch(["synth", "--spec", str(bad), "--out", str(out)]) == 1, spec
        err = capsys.readouterr().err
        assert str(bad) in err and named in err, err
        assert not out.exists(), spec


def test_synth_refuses_unknown_spec_keys(tmp_path, capsys):
    """A key the spec does not read, at the top level or in a class, exits 1
    naming the file and the key before ``--out`` is made.  Before, a
    misspelled ``noise_sigm`` was dropped and the default noise used."""
    save_spec(_spec(), tmp_path / "good.json")
    good = json.loads((tmp_path / "good.json").read_text())
    shape = good["classes"][0]
    bad, out = tmp_path / "bad.json", tmp_path / "d"
    for doc, named in (
        (good | {"noise_sigm": 0.9}, "unknown key noise_sigm"),
        (good | {"classes": [shape | {"intensity_men": 2.0}]}, "unknown key classes[0].intensity_men"),
    ):
        bad.write_text(json.dumps(doc))
        assert dispatch(["synth", "--spec", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{bad}: {named}" in err, err
        assert not out.exists()



# ---------------------------------------------------------------------------
# init / run

def _write_grids(dataset, features_dir, patch):
    """Each manifest volume's grid at ``patch``, extracted and saved by the library."""
    manifest = volume.load_manifest(dataset / "manifest.json")
    features_dir.mkdir(parents=True)
    for entry in manifest.entries:
        vol = volume.load_array(manifest.resolve(entry.intensity), volume.IntensityVolume)
        grid = encoder.extract_feature_grid(vol, encoder.EncoderParams(patch_size=patch))
        volume.save_array(grid, features_dir / f"{entry.vol_id}.features.vxar")


def test_run_reuses_encoded_grids_and_refuses_stale_ones(dataset, finished_run, tmp_path, capsys):
    fresh = tmp_path / "fresh"
    _write_grids(dataset, fresh / "features", 4)
    names = sorted(f"vol_{i:03d}.features.vxar" for i in range(4))
    for name in names:  # the library's grids are the run's
        assert (fresh / "features" / name).read_bytes() == (finished_run / "features" / name).read_bytes()
    calls = encoder.extract_call_count()
    assert dispatch(_run_args(dataset, fresh)) == 0
    assert encoder.extract_call_count() == calls  # every grid was reused
    assert sorted(p.name for p in (fresh / "features").iterdir()) == names
    for path in (finished_run / "round_1").glob("*.label"):
        assert (fresh / "round_1" / path.name).read_bytes() == path.read_bytes()

    stale = tmp_path / "stale"
    _write_grids(dataset, stale / "features", 6)
    capsys.readouterr()
    assert dispatch(_run_args(dataset, stale)) == 1  # run asks for patch 4
    err = capsys.readouterr().err
    assert "stale feature grid for 'vol_000'" in err
    assert "(6, 6, 6)" in err and "(4, 4, 4)" in err
    assert not (stale / "round_0").exists()


def test_init_refuses_a_label_file_as_intensity(dataset, tmp_path, capsys):
    doc = _absolute_manifest(dataset)
    label = doc["volumes"][0]["label"]
    doc["volumes"][1]["intensity"] = label
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "run"
    argv = _init_args(dataset, out)
    argv[argv.index("--manifest") + 1] = str(manifest)
    assert dispatch(argv) == 1
    assert f"{label}: holds LabelVolume, expected IntensityVolume" in capsys.readouterr().err
    assert not (out / "features" / "vol_001.features.vxar").exists() and not (out / "round_0").exists()

def test_init_runs_round0_only(dataset, finished_run, tmp_path):
    out = tmp_path / "run"
    argv = [
        "init",
        "--manifest", str(dataset / "manifest.json"),
        "--out", str(out),
        "--patch", "6",
    ]
    assert dispatch(argv) == 0
    assert (out / "round_0").exists() and (out / "config.json").exists()
    assert not (out / "round_1").exists()
    argv[argv.index("--patch") + 1] = "4"
    assert dispatch(argv) == 1
    assert dispatch(argv + ["--force"]) == 0
    # --force makes fresh grids: the old ones, of another patch, are not reused
    grids = sorted((out / "features").iterdir())
    assert [p.name for p in grids] == [f"vol_{i:03d}.features.vxar" for i in range(4)]
    for path in grids:
        assert path.read_bytes() == (finished_run / "features" / path.name).read_bytes()


def test_init_refuses_a_dir_holding_only_a_later_round(dataset, tmp_path, capsys):
    # the same rule as run: a config.json or any round_* marks a run
    out = tmp_path / "run"
    (out / "round_2").mkdir(parents=True)
    argv = ["init", "--manifest", str(dataset / "manifest.json"), "--out", str(out), "--patch", "4"]
    assert dispatch(argv) == 1
    assert "already holds a run" in capsys.readouterr().err
    assert not (out / "config.json").exists() and not (out / "round_0").exists()
    assert dispatch(argv + ["--force"]) == 0
    assert not (out / "round_2").exists() and (out / "round_0").exists()


def test_run_writes_report(dataset, finished_run, capsys):
    report = json.loads((finished_run / "report.json").read_text())
    assert sorted(report) == ["encoder_calls_after_round0", "encoder_calls_total", "offline_contract_honored"]
    assert report["offline_contract_honored"] is True
    assert report["encoder_calls_total"] == report["encoder_calls_after_round0"]
    assert [r["round"] for r in pipeline.run_table(finished_run)][:2] == [0, 1]


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


@pytest.mark.parametrize("flag", ["--k", "--q-unc", "--iters", "--batch"])
def test_zero_flag_is_refused_not_defaulted(dataset, tmp_path, capsys, flag):
    argv = _run_args(dataset, tmp_path / "r")
    argv[argv.index(flag) + 1] = "0"
    assert dispatch(argv) == 1
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "r" / "config.json").exists()


@pytest.mark.parametrize("args", [_run_args, _init_args], ids=["run", "init"])
def test_negative_seed_is_refused_before_anything_is_written(dataset, tmp_path, capsys, args):
    argv = args(dataset, tmp_path / "r")
    argv[argv.index("--seed") + 1] = "-1"
    assert dispatch(argv) == 1
    assert "seed=-1 must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_threads_flag_is_gone(dataset, tmp_path):
    assert dispatch(_run_args(dataset, tmp_path / "r", "--threads", "2")) == 1


def test_encode_command_is_gone(dataset, tmp_path):
    # round 0 makes every grid; there is no second way to write one
    argv = ["encode", "--manifest", str(dataset / "manifest.json"), "--out", str(tmp_path / "f")]
    assert dispatch(argv) == 1
    assert dispatch(argv + ["--patch", "4", "--force"]) == 1
    assert not any(tmp_path.iterdir())


def test_report_plot_writes_nothing_when_it_refuses(finished_run, tmp_path, capsys):
    # --plot is gone: asking for it is refused and leaves the run as it was
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    before = _tree(run)
    assert dispatch(["report", "--run", str(run), "--plot"]) == 1
    assert dispatch(["report", "--run", str(run), "--plot", "--force"]) == 1
    assert _tree(run) == before
    # a refusal of the report itself writes nothing: the existing file keeps its bytes
    (run / "report.csv").write_text("kept")
    capsys.readouterr()
    assert dispatch(["report", "--run", str(run)]) == 1
    assert "report.csv exists" in capsys.readouterr().err
    assert (run / "report.csv").read_text() == "kept"
    assert not (run / "report.svg").exists()


def test_the_subcommands_are_these_seven():
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == ["synth", "init", "run", "round", "refine", "eval", "report"]


def test_position_weight_flag_is_gone(dataset, tmp_path):
    # so is --no-position: the encoder always emits its position channels
    for flag in (["--position-weight", "0.5"], ["--no-position"]):
        assert dispatch(_run_args(dataset, tmp_path / "r", *flag)) == 1
        assert dispatch(_init_args(dataset, tmp_path / "r", *flag)) == 1
    assert not (tmp_path / "r").exists()


def _config_leaves(run_dir) -> dict:
    """``config.json`` of ``run_dir`` as ``{"section.key" or "key": value}``."""
    doc = json.loads((run_dir / "config.json").read_text())
    leaves = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            leaves.update({f"{key}.{name}": v for name, v in value.items()})
        else:
            leaves[key] = value
    return leaves


def test_every_run_flag_sets_a_persisted_field_of_its_own(dataset, tmp_path):
    """Guard: with every run flag at a non-default value, every persisted field
    differs from a default ``init``'s, one field per flag, so no flag outlives
    its field and no field lacks its flag.  ``init`` records one round;
    ``--rounds`` is ``run``'s."""
    manifest = tmp_path / "manifest.json"  # another path than the default run's
    manifest.write_text(json.dumps(_absolute_manifest(dataset)))
    flags = {
        "--manifest": str(manifest), "--seed": "5", "--truth": str(dataset / "truth"),
        "--no-refine": None, "--patch": "4", "--k": "2", "--q-unc": "0.5", "--iters": "5",
        "--batch": "64", "--rounds": "2",
    }
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert dispatch(["init", "--manifest", str(dataset / "manifest.json"), "--out", str(tmp_path / "default")]) == 0
    default = _config_leaves(tmp_path / "default")
    for command in ("run", "init"):
        used = {flag: value for flag, value in flags.items() if command == "run" or flag != "--rounds"}
        options = {o for a in sub.choices[command]._actions for o in a.option_strings}
        assert options - {"-h", "--help", "--out", "--force"} == used.keys()
        argv = [command, "--out", str(tmp_path / command)]
        for flag, value in used.items():
            argv += [flag] if value is None else [flag, value]
        assert dispatch(argv) == 0
        leaves = _config_leaves(tmp_path / command)
        assert leaves.keys() == default.keys()
        differ = {key for key in leaves if leaves[key] != default[key]}
        assert differ == default.keys() - ({"rounds"} if command == "init" else set())
        assert len(differ) == len(used)  # a flag that sets nothing would leave one field short


# ---------------------------------------------------------------------------
# round / refine

def test_round_continues_run(finished_run, tmp_path):
    # on a copy: the module's finished run keeps its one round for later readers
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    argv = ["round", "--prev", str(out / "round_1")]
    assert dispatch(argv) == 0
    assert (out / "round_2" / "state.json").exists()
    assert not (finished_run / "round_2").exists()
    assert dispatch(argv) == 1  # round_2 now exists
    assert dispatch(argv + ["--force"]) == 0


def test_round_refuses_prev_that_is_not_the_previous_round(dataset, tmp_path, capsys):
    out = tmp_path / "r"
    assert dispatch(_run_args(dataset, out)) == 0
    before = sorted(p.relative_to(out) for p in out.rglob("*"))
    assert dispatch(["round", "--prev", str(out / "features")]) == 1
    assert "not a round directory" in capsys.readouterr().err
    # --prev names the round; there is no separate index to contradict it
    assert dispatch(["round", "--r", "1", "--prev", str(out / "round_0"), "--force"]) == 1
    assert "unrecognized arguments: --r 1" in capsys.readouterr().err
    assert sorted(p.relative_to(out) for p in out.rglob("*")) == before


def test_round_refuses_a_pseudo_label_of_another_class_count(dataset, tmp_path, capsys):
    """A round-0 label rewritten with 5 classes in a 2-class run is refused by id, not trained on."""
    out = tmp_path / "r"
    assert dispatch(_init_args(dataset, out)) == 0
    path = out / "round_0" / "vol_002.round0.label"
    lab = volume.load_array(path, volume.LabelVolume)
    volume.save_array(volume.LabelVolume(lab.shape, 5, np.where(lab.data > 0, 4, 0)), path)
    assert dispatch(["round", "--prev", str(out / "round_0")]) == 1
    assert "pseudo-label of 'vol_002' has 5 classes, the run 2" in capsys.readouterr().err
    assert not (out / "round_1").exists()


def test_round_refuses_a_pseudo_label_of_another_shape(dataset, tmp_path, capsys):
    out = tmp_path / "r"
    assert dispatch(_init_args(dataset, out)) == 0
    path = out / "round_0" / "vol_001.round0.label"
    lab = volume.load_array(path, volume.LabelVolume)
    half = lab.shape.d // 2  # a label of half its volume's depth
    volume.save_array(volume.LabelVolume(volume.Shape3(half, lab.shape.h, lab.shape.w), 2, lab.data[:half]), path)
    assert dispatch(["round", "--prev", str(out / "round_0")]) == 1
    assert "pseudo-label shape mismatch for 'vol_001'" in capsys.readouterr().err
    assert not (out / "round_1").exists()


def test_a_state_file_of_another_round_is_refused(finished_run, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    assert dispatch(["round", "--prev", str(out / "round_1")]) == 0
    shutil.copyfile(out / "round_1" / "state.json", out / "round_2" / "state.json")
    named = f"{out / 'round_2'}: state file claims round 1, expected 2"
    assert dispatch(["round", "--prev", str(out / "round_2")]) == 1
    assert dispatch(["report", "--run", str(out)]) == 1
    assert capsys.readouterr().err.count(named) == 2
    assert not (out / "round_3").exists()


def test_round_requires_config(tmp_path):
    (tmp_path / "round_0").mkdir()
    assert dispatch(["round", "--prev", str(tmp_path / "round_0")]) == 1


@pytest.mark.parametrize("section, key, value", [
    ("encoder", "position_weight", 0.5),
    ("encoder", "include_position", False),
    ("encoder", "include_position", "true"),
    ("train", "base_lr", 0.02),
    ("train", "lr_power", 0.8),
    ("train", "momentum", 0.85),
    ("train", "weight_decay", 2e-4),
    ("train", "ramp_fraction", 0.4),
    ("train", "dice_smooth", 1e-4),
    ("train", "seed", 3),
    (None, "val_manifest", "/data/val/manifest.json"),
])
def test_config_drift_in_a_fixed_setting_is_refused(finished_run, tmp_path, capsys, section, key, value):
    """An older config.json may name a setting that is now a constant; at
    another value, the rounds after it are not trained under that value.  A
    run that named a labeled validation manifest, which no run reads now, or an
    encoder without its position channels, is refused by that key the same way,
    and so is a ``train.seed`` other than 0, which no round reads."""
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    doc = json.loads((out / "config.json").read_text())
    where = doc[section] if section else doc
    assert key not in where  # a new run writes none of these keys
    where[key] = value
    (out / "config.json").write_text(json.dumps(doc))
    before = _tree(out)
    name = f"{section}.{key}" if section else key
    named = f"config.json: {name} is {json.dumps(value)}; it is fixed at"
    with pytest.raises(ValueError, match=re.escape(named)):
        pipeline.load_run_config(out)
    assert dispatch(["round", "--prev", str(out / "round_1")]) == 1
    assert dispatch(["refine", "--round", str(out / "round_1"), "--force"]) == 1
    assert capsys.readouterr().err.count(named) == 2
    assert _tree(out) == before


@pytest.mark.parametrize("key, value", [
    ("train", None),
    ("encoder", [4]),
    ("knn", "2"),
    ("rounds", 1.0),
    ("train.iterations", True),
    ("train.batch_voxels", 64.0),
    ("encoder.include_position", 1),
    ("refine", "false"),
    ("q_unc", True),
    ("seed", None),
    ("manifest", None),
    ("truth_dir", 3),
])
def test_config_value_of_another_type_is_refused(finished_run, tmp_path, capsys, key, value):
    """A hand-edited config.json is refused by key and value before any round
    is written: ``round`` and ``refine`` exit 1 and leave the run as it was."""
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    doc = json.loads((out / "config.json").read_text())
    *section, name = key.split(".")
    (doc[section[0]] if section else doc)[name] = value
    (out / "config.json").write_text(json.dumps(doc))
    before = _tree(out)
    assert dispatch(["round", "--prev", str(out / "round_1")]) == 1
    assert dispatch(["refine", "--round", str(out / "round_1"), "--force"]) == 1
    err = capsys.readouterr().err
    assert err.count(f"config.json: {key} is {json.dumps(value)};") == 2
    assert _tree(out) == before


@pytest.mark.parametrize("key, value", [
    ("knn", 0),
    ("rounds", 0),
    ("q_unc", 1.5),
    ("train.iterations", 0),
    ("train.batch_voxels", 1),
    ("encoder.patch_size", 1),
    ("seed", -1),
])
def test_config_value_out_of_range_is_refused_by_key(finished_run, tmp_path, capsys, key, value):
    """A value of the right type that the config's own checks refuse is named
    by file, section and key, and no round is written."""
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    doc = json.loads((out / "config.json").read_text())
    *section, name = key.split(".")
    (doc[section[0]] if section else doc)[name] = value
    (out / "config.json").write_text(json.dumps(doc))
    before = _tree(out)
    named = f"config.json: {section[0] + ': ' if section else ''}{name}={value} "
    with pytest.raises(ValueError, match=re.escape(named)):
        pipeline.load_run_config(out)
    assert dispatch(["round", "--prev", str(out / "round_1")]) == 1
    assert dispatch(["refine", "--round", str(out / "round_1"), "--force"]) == 1
    err = capsys.readouterr().err
    assert err.count(named) == 2
    assert not (out / "round_2").exists()
    assert _tree(out) == before


@pytest.mark.parametrize(
    "text, named",
    [
        ("[]", "config.json: "),
        ("null", "config.json: "),
        ('{"manifest": ', "config.json: "),
        (lambda text: text.replace('"knn": ', '"knn": 2, "knn": '), "config.json: key knn appears twice"),
        (
            lambda text: text.replace('"iterations": ', '"iterations": 5, "iterations": '),
            "config.json: key train.iterations appears twice",
        ),
    ],
    ids=["[]", "null", '{"manifest": ', "twice", "twice-in-train"],
)
def test_config_json_that_is_not_an_object_is_refused_by_name(finished_run, tmp_path, capsys, text, named):
    """So is one that gives a key twice in one object, named by its key path."""
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    path = out / "config.json"
    path.write_text(text(path.read_text()) if callable(text) else text)
    before = _tree(out)
    assert dispatch(["round", "--prev", str(out / "round_1")]) == 1
    assert named in capsys.readouterr().err
    assert _tree(out) == before


def _tree(run_dir):
    """Every file under ``run_dir`` by relative path: bytes, or a ``state.json`` without timings."""
    files = {}
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        if path.name == "state.json":
            doc = json.loads(path.read_text())
            del doc["timings"]
            files[str(path.relative_to(run_dir))] = doc
        else:
            files[str(path.relative_to(run_dir))] = path.read_bytes()
    return files


def test_init_and_rounds_reproduce_run(dataset, tmp_path):
    # every setting differs from its default, and init records all of them
    resumed, whole = tmp_path / "resumed", tmp_path / "whole"
    assert dispatch(_init_args(dataset, resumed)) == 0
    assert dispatch(["round", "--prev", str(resumed / "round_0")]) == 0
    assert dispatch(["round", "--prev", f"{resumed / 'round_1'}/"]) == 0
    assert dispatch(_run_args(dataset, whole, "--rounds", "2")) == 0

    got, want = _tree(resumed), _tree(whole)
    want.pop("report.json")  # the encoder counts of the `run` process
    got_config, want_config = json.loads(got.pop("config.json")), json.loads(want.pop("config.json"))
    assert (got_config.pop("rounds"), want_config.pop("rounds")) == (1, 2)
    assert got_config == want_config
    assert want_config["train"]["iterations"] == 60 and want_config["knn"] == 2
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


def test_a_run_resumes_from_another_directory(dataset, tmp_path, monkeypatch):
    monkeypatch.chdir(dataset.parent)
    argv = _init_args(dataset, tmp_path / "run")
    for flag, name in (("--manifest", "manifest.json"), ("--truth", "truth")):
        argv[argv.index(flag) + 1] = f"{dataset.name}/{name}"
    assert dispatch(argv) == 0
    doc = json.loads((tmp_path / "run" / "config.json").read_text())
    assert "out_dir" not in doc
    for key, name in (("manifest", "manifest.json"), ("truth_dir", "truth")):
        assert Path(doc[key]).is_absolute() and Path(doc[key]).samefile(dataset / name)
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert dispatch(["round", "--prev", "../run/round_0"]) == 0
    assert json.loads((tmp_path / "run" / "round_1" / "state.json").read_text())["pseudo_label_dice"]


def test_a_resumed_round_leaves_globals_json_alone(finished_run, tmp_path):
    """A run directory from before the global features were derived from the
    grids holds a ``globals.json``; it still resumes, and the file is neither
    read nor deleted."""
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    globals_json = out / "features" / "globals.json"
    globals_json.write_text("[]")
    assert dispatch(["round", "--prev", str(out / "round_0"), "--force"]) == 0
    assert _round_key(out, "refine_audit") == _round_key(finished_run, "refine_audit")
    refine = ["refine", "--round", str(out / "round_1"), "--q-unc", "0.5", "--k", "2", "--force"]
    assert dispatch(refine) == 0
    assert _round_key(out, "refine_audit") == _round_key(finished_run, "refine_audit")
    assert globals_json.read_text() == "[]"


def _round_key(run_dir, key, r=1):
    """``key`` of round ``r``'s ``state.json`` in ``run_dir``."""
    return json.loads((run_dir / f"round_{r}" / "state.json").read_text())[key]


def _refused(out, capsys, file, *named):
    """``round``, ``refine`` and ``report`` on ``out`` exit 1 naming ``file`` and
    each of ``named``, and write nothing: every file keeps its bytes."""
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    for argv in (
        ["round", "--prev", str(out / "round_1")],
        ["refine", "--round", str(out / "round_1"), "--force"],
        ["report", "--run", str(out)],
    ):
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert file in err and all(n in err for n in named), err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def _grid_refused(out, capsys, grid):
    """``round --prev round_0 --force`` and ``refine`` of round 1 on ``out``
    exit 1 naming ``grid``, and change no file: a missing grid is not made again."""
    before = _tree(out)
    for argv in (
        ["round", "--prev", str(out / "round_0"), "--force"],
        ["refine", "--round", str(out / "round_1"), "--force"],
    ):
        assert dispatch(argv) == 1
        assert str(grid) in capsys.readouterr().err, argv
        assert _tree(out) == before, argv


@pytest.mark.parametrize("stale", [False, True], ids=["missing", "stale"])
def test_refine_refuses_a_missing_or_stale_grid_by_name(finished_run, tmp_path, capsys, stale):
    """The vote's global features come from the grids; ``round`` and
    ``refine`` refuse the same grids, by file."""
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    grid = out / "features" / "vol_002.features.vxar"
    grid.unlink()
    if stale:  # a grid of another channel count than the run's encoder makes
        data = np.zeros((2, 3, 3, 3), np.float32)
        volume.save_array(volume.FeatureGrid(2, Shape3(3, 3, 3), data), grid)
    _grid_refused(out, capsys, grid)


def test_refine_refuses_a_template_label_of_another_shape_by_name(dataset, tmp_path, capsys):
    """``refine`` checks the template's label against the shape its intensity
    file's header records, and refuses it as ``round`` does, by file."""
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    out = tmp_path / "run"
    assert dispatch(_run_args(data, out)) == 0
    label = data / volume.load_manifest(data / "manifest.json").labeled_entry().label
    volume.save_array(volume.LabelVolume(Shape3(10, 12, 12), 2, np.zeros((10, 12, 12), np.uint8)), label)
    before = _tree(out)
    for argv in (
        ["refine", "--round", str(out / "round_1"), "--force"],
        ["round", "--prev", str(out / "round_0"), "--force"],
    ):
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert f"{label}: template label of 'vol_000' has shape (10, 12, 12)" in err, argv
        assert _tree(out) == before, argv


@pytest.mark.parametrize("truth", [True, False], ids=["truth", "blind"])
def test_refine_refuses_a_raw_label_of_another_shape_by_name(dataset, tmp_path, capsys, truth):
    """``refine`` reads the model's labels through the check the template's and
    the truth's pass, and refuses one of another shape than its intensity
    volume by file, whether or not the run scores against truth."""
    out = tmp_path / "run"
    argv = _run_args(dataset, out)
    if not truth:
        del argv[argv.index("--truth"):argv.index("--truth") + 2]
    assert dispatch(argv) == 0
    raw = out / "round_1" / _round_key(out, "raw_labels")["vol_001"]
    volume.save_array(volume.LabelVolume(Shape3(6, 12, 12), 2, np.zeros((6, 12, 12), np.uint8)), raw)
    before = _tree(out)
    assert dispatch(["refine", "--round", str(out / "round_1"), "--force"]) == 1
    err = capsys.readouterr().err
    assert f"{raw}: raw label of 'vol_001' has shape (6, 12, 12), its intensity volume (12, 12, 12)" in err
    assert _tree(out) == before


@pytest.mark.parametrize("command", ["round", "refine"])
def test_a_round_naming_a_volume_outside_the_pool_is_refused(finished_run, tmp_path, capsys, command):
    """A ``state.json`` whose labels name an id the manifest's pool lacks is
    refused by ``round`` before training and by ``refine`` before the vote."""
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    path = out / "round_1" / "state.json"
    doc = json.loads(path.read_text())
    for key in ("labels", "raw_labels", "uncertainties"):
        doc[key]["vol_999"] = doc[key]["vol_001"]
    path.write_text(json.dumps(doc))
    before = _tree(out)
    if command == "round":
        argv, named = ["round", "--prev", str(out / "round_1"), "--force"], "round 1 labels"
    else:
        argv, named = ["refine", "--round", str(out / "round_1"), "--force"], f"{path} raw_labels"
    assert dispatch(argv) == 1
    pool = ["vol_001", "vol_002", "vol_003"]
    assert f"{named} {pool + ['vol_999']}, the manifest's pool is {pool}" in capsys.readouterr().err
    assert _tree(out) == before and not (out / "round_2").exists()


def _mixed_shape_dataset(root: Path) -> Path:
    """A manifest of four 16^3 volumes, the template among them, and three
    (20, 18, 22) volumes of one class spec, with every volume's truth."""
    classes = (ClassShape("ellipsoid", (0.5, 0.5, 0.5), (4.0, 4.0, 4.0), 1.0),)
    (root / "truth").mkdir(parents=True)
    entries = []
    for part, (n, shape) in enumerate(((4, Shape3(16, 16, 16)), (3, Shape3(20, 18, 22)))):
        spec = PhantomSpec(n, shape, 2, classes, noise_sigma=0.3, seed=7 + part)
        for e in generate(spec, root / f"part{part}")[0].entries:
            vol_id = f"vol_{len(entries):03d}"
            label = None if part or e.label is None else f"part{part}/{e.label}"  # one template
            entries.append(volume.VolumeEntry(vol_id, f"part{part}/{e.intensity}", label))
            truth = root / f"part{part}" / "truth" / f"{e.vol_id}.label.vxar"
            shutil.copy(truth, root / "truth" / f"{vol_id}.label.vxar")
    volume.save_manifest(volume.DatasetManifest(2, tuple(entries)), root / "manifest.json")
    return root


def test_a_pool_of_mixed_volume_shapes_runs_and_refines(tmp_path):
    """Every round's labels have their own volume's shape, and ``refine``,
    whose vote resamples neighbors of another shape, records a Dice."""
    data = _mixed_shape_dataset(tmp_path / "data")
    out = tmp_path / "run"
    argv = ["run", "--manifest", str(data / "manifest.json"), "--out", str(out), "--truth", str(data / "truth"),
            "--patch", "4", "--rounds", "2", "--iters", "100", "--batch", "512", "--k", "2", "--seed", "11"]
    manifest = volume.load_manifest(data / "manifest.json")
    shapes = {e.vol_id: volume.read_shape(manifest.resolve(e.intensity)) for e in manifest.entries}
    assert set(shapes.values()) == {Shape3(16, 16, 16), Shape3(20, 18, 22)}

    def check_shapes(rounds):
        for r in range(rounds):
            doc = json.loads((out / f"round_{r}" / "state.json").read_text())
            for vol_id, name in doc["labels"].items() | doc.get("raw_labels", {}).items():
                assert volume.read_shape(out / f"round_{r}" / name) == shapes[vol_id], (r, name)

    assert dispatch(argv) == 0
    check_shapes(3)
    assert dispatch(["refine", "--round", str(out / "round_1"), "--q-unc", "0.4", "--force"]) == 0
    check_shapes(2)
    doc = json.loads((out / "round_1" / "state.json").read_text())
    assert doc["refined"] and doc["partition"]["uncertain"] and doc["pseudo_label_dice"] > 0
    assert any(shapes[n["id"]] != shapes[q["id"]] for q in doc["refine_audit"] for n in q["neighbors"])


@pytest.fixture(scope="module")
def external_run(dataset, tmp_path_factory):
    """A finished run whose manifest gives ``vol_002`` an external ``features`` file."""
    root = tmp_path_factory.mktemp("cli_external")
    data = root / "data"
    shutil.copytree(dataset, data)
    doc = json.loads((data / "manifest.json").read_text())
    (entry,) = [v for v in doc["volumes"] if v["id"] == "vol_002"]
    vol = volume.load_array(data / entry["intensity"], volume.IntensityVolume)
    grid = encoder.extract_feature_grid(vol, encoder.EncoderParams(patch_size=4))
    volume.save_array(grid, data / "vol_002.ext.vxar")
    entry["features"] = "vol_002.ext.vxar"
    (data / "manifest.json").write_text(json.dumps(doc))
    out = root / "run"
    assert dispatch(_run_args(data, out)) == 0
    return out


def test_a_deleted_external_grid_is_refused_not_ingested_again(external_run, tmp_path, capsys):
    """After round 0 only the persisted grid is read, not the entry's own file."""
    out = tmp_path / "run"
    shutil.copytree(external_run, out)
    grid = out / "features" / "vol_002.features.vxar"
    grid.unlink()
    _grid_refused(out, capsys, grid)


_DELETE = object()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("partition", "threshold", _DELETE),
        ("partition", "threshold", float("nan")),
        ("partition", "threshold", True),
        ("partition", "certain", 5),
        ("partition", "uncertain", [7]),
        ("partition", "labeled_id", None),
        ("partition", "labeled_id", "vol_999"),  # Partition's own check: not a certain id
        (None, "partition", []),
        (None, "labels", _DELETE),
        (None, "round", _DELETE),
        (None, "labels", ["a"]),
        ("labels", "vol_001", "../round_0/vol_001.round0.label"),
        ("raw_labels", "vol_001", 7),
        (None, "refined", "no"),
        (None, "timings", "x"),
        ("timings", "train", float("nan")),
        (None, "pseudo_label_dice", "high"),
        (None, "model_dice", True),
        (None, "params", 5),
        (None, "params", "../round_0/params.vxar"),
    ],
    ids=[
        "no-threshold", "nan-threshold", "true-threshold", "certain-5", "uncertain-int",
        "null-labeled_id", "uncertain-labeled_id", "partition-list", "no-labels", "no-round",
        "labels-list", "label-outside-round", "raw_label-int", "refined-string", "timings-string",
        "nan-timing", "string-dice", "true-dice", "params-int", "params-outside-round",
    ],
)
def test_state_json_malformed_is_refused_by_name(finished_run, tmp_path, capsys, section, key, value):
    """Before, these made ``round`` and ``refine`` exit 2 with a TypeError, an
    AttributeError or a KeyError, or read on: ``"refined": "no"`` as refined,
    and a label file outside the round as the volume's labels.  ``report``
    refuses them too, and leaves an existing ``report.csv`` as it was."""
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    path = out / "round_1" / "state.json"
    doc = json.loads(path.read_text())
    target = doc[section] if section else doc
    if value is _DELETE:
        del target[key]
    else:
        target[key] = value
    path.write_text(json.dumps(doc))
    _refused(out, capsys, str(path))
    assert dispatch(["report", "--run", str(out)]) == 1
    assert str(path) in capsys.readouterr().err
    assert not (out / "report.csv").exists()
    (out / "report.csv").write_text("an earlier report\n")
    assert dispatch(["report", "--run", str(out), "--force"]) == 1
    assert str(path) in capsys.readouterr().err
    assert (out / "report.csv").read_text() == "an earlier report\n"


@pytest.mark.parametrize(
    "text, named",
    [
        ("[]", "the top level must be an object"),
        ("null", "the top level must be an object"),
        ('{"round": 1, ', "not valid JSON"),
        (lambda text: text.replace('"refined": ', '"refined": true, "refined": '), "key refined appears twice"),
        (
            lambda text: text.replace('"threshold": ', '"threshold": 0.5, "threshold": '),
            "key partition.threshold appears twice",
        ),
        # the vote's audit is not read, and is refused all the same
        (lambda text: text.replace('"weight": ', '"weight": 1, "weight": ', 1), "key refine_audit["),
        (lambda text: text.replace('"weight": ', '"weight": NaN, "was": ', 1), "is NaN, which is not a JSON number"),
    ],
    ids=["[]", "null", '{"round": 1, ', "twice", "twice-in-partition", "twice-unread", "nan-unread"],
)
def test_state_json_that_is_not_an_object_is_refused_by_name(finished_run, tmp_path, capsys, text, named):
    """So is one that gives a key twice in one object, or holds ``NaN``,
    anywhere in it, named by its key path."""
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    path = out / "round_1" / "state.json"
    path.write_text(text(path.read_text()) if callable(text) else text)
    _refused(out, capsys, str(path), named)


def test_state_json_partition_keys_beyond_the_four_are_ignored(finished_run, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    path = out / "round_1" / "state.json"
    doc = json.loads(path.read_text())
    doc["partition"]["extra"] = 1
    path.write_text(json.dumps(doc))
    assert dispatch(["report", "--run", str(out)]) == 0
    assert dispatch(["round", "--prev", str(out / "round_1")]) == 0
    assert dispatch(["refine", "--round", str(out / "round_1"), "--force"]) == 0
    assert _round_key(out, "refine_audit") == _round_key(finished_run, "refine_audit")


def test_train_log_line_that_is_not_json_is_refused_by_name(finished_run, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    path = out / "round_1" / "train_log.jsonl"
    path.write_text(path.read_text() + '{"step": \n')
    before = _tree(out)
    assert dispatch(["refine", "--round", str(out / "round_1"), "--force"]) == 1
    assert str(path) in capsys.readouterr().err
    assert _tree(out) == before


def _corrupt_uncertainties(finished_run, tmp_path, text):
    """A copy of ``finished_run`` whose round 1 ``state.json`` holds, as its
    ``uncertainties``, the JSON text ``text(uncertainties, vol_id)`` returns,
    with ``vol_id`` the second id; and that id."""
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    path = out / "round_1" / "state.json"
    doc = json.loads(path.read_text())
    unc = doc.pop("uncertainties")
    vol_id = sorted(unc)[1]
    path.write_text(json.dumps(doc)[:-1] + f', "uncertainties": {text(unc, vol_id)}}}')
    return out, vol_id


@pytest.mark.parametrize(
    "bad",
    ["0.12", None, True, -0.5, float("nan"), float("inf"), pytest.param(10**400, id="10**400")],
)
def test_uncertainty_json_value_that_is_not_a_finite_number_is_refused(finished_run, tmp_path, capsys, bad):
    """Each volume's mean entropy, a value of ``state.json``'s ``uncertainties``
    (once ``uncertainty.json``), must be a finite JSON number >= 0."""
    out, vol_id = _corrupt_uncertainties(finished_run, tmp_path, lambda unc, i: json.dumps(unc | {i: bad}))
    _refused(out, capsys, str(out / "round_1" / "state.json"), f"uncertainties.{vol_id} is ")


@pytest.mark.parametrize(
    "text, named",
    [
        (lambda unc, i: json.dumps({k: v for k, v in unc.items() if k != i}), "lack ids ['{}']"),
        (lambda unc, i: json.dumps({("vol_999" if k == i else k): v for k, v in unc.items()}), "lack ids ['{}']"),
        (lambda unc, i: json.dumps(unc)[:-1] + f', "{i}": 0.5}}', "key uncertainties.{} appears twice"),
    ],
    ids=["missing", "unknown", "duplicated"],
)
def test_uncertainty_json_ids_other_than_the_rounds_are_refused(finished_run, tmp_path, capsys, text, named):
    """``uncertainties`` must hold each id the model labeled once and no other.
    A missing id would let ``refine --force`` rewrite the round without its
    labels, and a key written twice would be read as its last value."""
    out, vol_id = _corrupt_uncertainties(finished_run, tmp_path, text)
    _refused(out, capsys, str(out / "round_1" / "state.json"), named.format(vol_id))


@pytest.mark.parametrize(
    "text",
    ['{"samples": ', "[]", '{"samples": {}}', '{"samples": [7]}', '{"samples": [{"id": 7, "uncertainty": 0.1}]}'],
)
def test_uncertainty_json_that_is_not_an_object_of_samples_is_refused(finished_run, tmp_path, capsys, text):
    """``uncertainties`` must be an object of samples, id to mean entropy: a
    list, the old ``uncertainty.json`` layout and a cut-off text are refused."""
    out, _ = _corrupt_uncertainties(finished_run, tmp_path, lambda unc, i: text)
    _refused(out, capsys, str(out / "round_1" / "state.json"))


def _round_files(run_dir):
    """Each round directory of ``run_dir`` and its files that are not label files."""
    return {
        d.name: sorted(p.name for p in d.iterdir() if not p.name.endswith(".label"))
        for d in run_dir.iterdir()
        if d.name.startswith("round_")
    }


def test_a_round_directory_holds_state_json_and_its_files_only(dataset, tmp_path):
    """``state.json`` is each round's one record: it holds the uncertainties,
    the vote's audit and round 0's foreground fractions, which side files
    held before, and a rewritten round holds no more."""
    want = {"round_0": ["state.json"], "round_1": ["params.vxar", "state.json", "train_log.jsonl"]}
    for name, extra in (("refined", ()), ("plain", ("--no-refine",))):
        assert dispatch(_run_args(dataset, tmp_path / name, *extra)) == 0
        assert _round_files(tmp_path / name) == want, name
    argv = ["refine", "--round", str(tmp_path / "refined" / "round_1"), "--q-unc", "0.75", "--force"]
    assert dispatch(argv) == 0
    assert _round_files(tmp_path / "refined") == want


def test_a_round_without_uncertainties_resumes_but_is_not_refined(finished_run, tmp_path, capsys):
    """A run an earlier version wrote keeps the uncertainties, the audit and the
    foreground fractions in side files, which are not read: ``report``
    tabulates it and ``round`` continues from its labels, while ``refine``,
    which needs the uncertainties, is refused by ``state.json``."""
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    side_files = {"foreground_fraction": "summary", "uncertainties": "uncertainty", "refine_audit": "refine_audit"}
    for path in out.glob("round_*/state.json"):
        doc = json.loads(path.read_text())
        for key in side_files.keys() & doc.keys():
            (path.parent / f"{side_files[key]}.json").write_text(json.dumps(doc.pop(key)))
        path.write_text(json.dumps(doc))
    before = _tree(out)
    assert dispatch(["refine", "--round", str(out / "round_1"), "--force"]) == 1
    err = capsys.readouterr().err
    assert f"{out / 'round_1' / 'state.json'} lacks uncertainties" in err, err
    assert _tree(out) == before
    assert dispatch(["report", "--run", str(out)]) == 0
    assert dispatch(["round", "--prev", str(out / "round_1")]) == 0
    assert _round_key(out, "uncertainties", r=2)


def test_refine_command_rewrites_round(dataset, tmp_path):
    out = tmp_path / "plain"
    assert dispatch(_run_args(dataset, out, "--no-refine")) == 0
    round_dir = out / "round_1"
    argv = ["refine", "--round", str(round_dir), "--q-unc", "0.5", "--k", "2"]
    assert dispatch(argv) == 0
    doc = json.loads((round_dir / "state.json").read_text())
    assert doc["refined"] is True
    for vid, name in doc["labels"].items():
        if vid in doc["partition"]["uncertain"]:
            assert name.endswith(".refined.label")
        assert (round_dir / name).exists()
    assert len(doc["refine_audit"]) >= 1
    assert dispatch(argv) == 1  # already refined
    assert dispatch(argv + ["--force"]) == 0


def _rounds(run_dir):
    return sorted(p.name for p in run_dir.iterdir() if p.name.startswith("round_"))


def test_refine_retires_the_rounds_after_it(dataset, tmp_path, capsys):
    """Rewriting round 1 of a two-round run removes round 2, which was trained
    on the old round 1's labels; no round can then continue from it."""
    out = tmp_path / "run"
    assert dispatch(_run_args(dataset, out, "--rounds", "2")) == 0
    argv = ["refine", "--round", str(out / "round_1"), "--k", "1", "--q-unc", "0.2", "--force"]
    assert dispatch(argv) == 0
    assert _rounds(out) == ["round_0", "round_1"]
    assert dispatch(["report", "--run", str(out)]) == 0
    assert [row["round"] for row in _report_csv(out)] == ["0", "1"]
    capsys.readouterr()
    assert dispatch(["round", "--prev", str(out / "round_2")]) == 1
    assert "round_2" in capsys.readouterr().err
    assert _rounds(out) == ["round_0", "round_1"]


def test_refine_of_an_unrefined_round_with_later_rounds_needs_force(dataset, tmp_path, capsys):
    out = tmp_path / "plain"
    assert dispatch(_run_args(dataset, out, "--no-refine", "--rounds", "2")) == 0
    before = _tree(out)
    argv = ["refine", "--round", str(out / "round_1"), "--q-unc", "0.5", "--k", "2"]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert "later rounds (round_2)" in err and "force" in err
    assert _tree(out) == before
    assert dispatch(argv + ["--force"]) == 0
    assert _rounds(out) == ["round_0", "round_1"]


def test_round_force_retires_the_rounds_after_it(dataset, tmp_path, capsys):
    """Leftovers of later rounds go too: a ``round_<k>.old`` that would be
    renamed back and a ``round_<k>.tmp``."""
    out = tmp_path / "run"
    assert dispatch(_run_args(dataset, out, "--rounds", "2")) == 0
    (out / "round_2").rename(out / "round_2.old")  # a crash between a round 2 rewrite's renames
    (out / "round_3.tmp").mkdir()
    assert dispatch(["round", "--prev", str(out / "round_0"), "--force"]) == 0
    assert _rounds(out) == ["round_0", "round_1"]
    assert [row["round"] for row in pipeline.run_table(out)] == [0, 1]
    capsys.readouterr()
    assert dispatch(["round", "--prev", str(out / "round_2")]) == 1
    assert _rounds(out) == ["round_0", "round_1"]


def test_round_over_a_missing_round_with_later_rounds_needs_force(dataset, tmp_path, capsys):
    """Writing round 1 removes round 2 even when round 1 itself was deleted,
    so it is refused without --force, as a refine is."""
    out = tmp_path / "run"
    assert dispatch(_run_args(dataset, out, "--rounds", "2")) == 0
    shutil.rmtree(out / "round_1")
    before = _tree(out)
    round_2 = {p: p.read_bytes() for p in (out / "round_2").rglob("*") if p.is_file()}
    capsys.readouterr()
    argv = ["round", "--prev", str(out / "round_0")]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert "later rounds (round_2)" in err and "force" in err
    assert _tree(out) == before
    assert {p: p.read_bytes() for p in (out / "round_2").rglob("*") if p.is_file()} == round_2
    assert dispatch(argv + ["--force"]) == 0
    assert _rounds(out) == ["round_0", "round_1"]
    assert [row["round"] for row in pipeline.run_table(out)] == [0, 1]


def _state_rows(run_dir):
    """``run_table``'s rows, rebuilt by hand from the ``state.json`` of every ``round_<r>``."""
    rows = []
    states = [p for p in run_dir.glob("round_*/state.json") if p.parent.name[6:].isdigit()]
    for path in sorted(states, key=lambda p: int(p.parent.name[6:])):
        doc = json.loads(path.read_text())
        part = doc.get("partition")
        rows.append({
            "round": doc["round"],
            "refined": doc["refined"],
            "pseudo_label_dice": doc["pseudo_label_dice"],
            "model_dice": doc["model_dice"],
            "threshold": part and part["threshold"],
            "n_certain": part and len(part["certain"]),
            "n_uncertain": part and len(part["uncertain"]),
            "timings": doc["timings"],
        })
    return rows


def _report_csv(run_dir):
    with open(run_dir / "report.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _init_and_round(dataset, out):
    """A run built the resumable way, with ``_run_args``'s settings: ``init``, then one ``round``."""
    assert dispatch(_init_args(dataset, out)) == 0
    assert dispatch(["round", "--prev", str(out / "round_0")]) == 0


def test_report_on_a_run_built_by_init_and_round(dataset, tmp_path, capsys):
    out = tmp_path / "run"
    _init_and_round(dataset, out)
    capsys.readouterr()
    assert dispatch(["report", "--run", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert pipeline.run_table(out) == _state_rows(out)
    rows = _report_csv(out)
    assert [row["round"] for row in rows] == ["0", "1"]
    for row, want in zip(rows, _state_rows(out)):
        assert float(row["pseudo_label_dice"]) == want["pseudo_label_dice"]
        assert float(row["train_s"]) == want["timings"].get("train", 0.0)
    assert printed[0].startswith("round  pseudo_dice") and len(printed) == 4  # header, 2 rounds, wrote
    assert not (out / "report.json").exists()


def test_report_after_refine_shows_the_rewritten_round(dataset, tmp_path, capsys):
    out = tmp_path / "plain"
    assert dispatch(_run_args(dataset, out, "--no-refine")) == 0
    counts = (out / "report.json").read_bytes()
    assert dispatch(["report", "--run", str(out)]) == 0
    assert _report_csv(out)[1]["refined"] == "False"
    assert dispatch(["refine", "--round", str(out / "round_1"), "--q-unc", "0.5", "--k", "2"]) == 0
    capsys.readouterr()
    assert dispatch(["report", "--run", str(out), "--force"]) == 0
    printed = capsys.readouterr().out.splitlines()
    doc = json.loads((out / "round_1" / "state.json").read_text())
    row = _report_csv(out)[1]
    assert row["refined"] == "True"
    assert float(row["pseudo_label_dice"]) == doc["pseudo_label_dice"]
    assert float(row["threshold"]) == doc["partition"]["threshold"]
    assert printed[2].split()[:4] == [
        "1", f"{doc['pseudo_label_dice']:.4f}", f"{doc['model_dice']:.4f}", f"{doc['partition']['threshold']:.4f}",
    ]
    assert pipeline.run_table(out) == _state_rows(out)
    # the encoder counts describe the run process; no rewrite can change them
    assert (out / "report.json").read_bytes() == counts
    assert dispatch(["round", "--prev", str(out / "round_1")]) == 0
    assert dispatch(["report", "--run", str(out), "--force"]) == 0
    assert [row["round"] for row in _report_csv(out)] == ["0", "1", "2"]
    assert dispatch(["round", "--prev", str(out / "round_0"), "--force"]) == 0  # retires round 2
    assert (out / "report.json").read_bytes() == counts
    assert dispatch(["report", "--run", str(out), "--force"]) == 0
    assert [row["round"] for row in _report_csv(out)] == ["0", "1"]
    assert pipeline.run_table(out) == _state_rows(out)


def test_report_opens_no_array_file(dataset, tmp_path, monkeypatch):
    run = tmp_path / "run"
    _init_and_round(dataset, run)
    opened = []
    real = volume.load_array

    def spy(path, kind=None):
        opened.append(path)
        return real(path, kind)

    for module in (volume, pipeline, cli):
        monkeypatch.setattr(module, "load_array", spy)
    assert dispatch(["report", "--run", str(run)]) == 0
    assert opened == []
    pipeline.load_round_state(run, 1)  # the spies see the label files a state load opens
    assert opened
    # the next round reads one label file of its input round per pool volume:
    # the voted labels it trains on, not the raw labels the vote replaced
    opened.clear()
    assert dispatch(["round", "--prev", str(run / "round_1")]) == 0
    doc = json.loads((run / "round_1" / "state.json").read_text())
    assert doc["refined"] and doc["raw_labels"] != doc["labels"]
    read = sorted(path.name for path in opened if path.parent == run / "round_1")
    assert read == sorted(doc["labels"].values()) and len(read) == 3
    # refine reads one label file of its round per pool volume: the model's
    # labels it votes on, not the voted labels it replaces
    opened.clear()
    doc = json.loads((run / "round_2" / "state.json").read_text())
    assert any(name.endswith(".refined.label") for name in doc["labels"].values())
    assert dispatch(["refine", "--round", str(run / "round_2"), "--force"]) == 0
    read = sorted(path.name for path in opened if path.parent == run / "round_2")
    assert read == sorted(doc["raw_labels"].values()) and len(read) == 3


@pytest.mark.parametrize("command", ["run", "init"])
def test_force_rerun_removes_the_old_report(dataset, tmp_path, capsys, command):
    out = tmp_path / "run"
    assert dispatch(_run_args(dataset, out, "--rounds", "2")) == 0
    assert dispatch(["report", "--run", str(out)]) == 0
    (out / "report.svg").write_text("<svg/>")  # the chart an earlier version's report --plot wrote
    if command == "run":  # a shorter run without truth: the old report's rows and Dice are stale
        rerun = _run_args(dataset, out, "--force")
        rerun.remove("--truth")
        rerun.remove(str(dataset / "truth"))
    else:
        rerun = ["init", "--manifest", str(dataset / "manifest.json"), "--out", str(out),
                 "--patch", "4", "--force"]
    assert dispatch(rerun) == 0
    assert not (out / "report.csv").exists() and not (out / "report.svg").exists()
    capsys.readouterr()
    assert dispatch(["report", "--run", str(out)]) == 0  # nothing stale to refuse
    rows = _report_csv(out)
    assert [row["round"] for row in rows] == (["0", "1"] if command == "run" else ["0"])
    assert all(row["pseudo_label_dice"] == "" for row in rows)


def test_report_refuses_a_dir_without_rounds(tmp_path, capsys):
    assert dispatch(["report", "--run", str(tmp_path)]) == 1
    assert "holds no round directory" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("case", ["truncated", "no-shape", "u8"])
def test_refine_refuses_a_malformed_parameter_file_by_name(finished_run, tmp_path, capsys, case):
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    path = run / "round_1" / "params.vxar"
    header, payload = volume.read_blob(path)
    payload = bytes(payload)
    if case == "truncated":
        payload = payload[:-4]
    elif case == "no-shape":
        del header["shape"]
    else:
        header["dtype"] = "u8"
    volume.write_blob(path, header, payload)
    with pytest.raises(volume.ArrayFormatError, match=re.escape(f"{path}: ")):
        load_params(path)
    assert dispatch(["refine", "--round", str(run / "round_1"), "--force"]) == 1
    assert f"error: {path}: " in capsys.readouterr().err


def test_refine_rejects_round0(finished_run):
    assert dispatch(["refine", "--round", str(finished_run / "round_0")]) == 1


def _files(round_dir):
    return {p.name: p.read_bytes() for p in round_dir.iterdir()}


def test_refine_after_no_refine_equals_a_refined_run(dataset, tmp_path):
    # the plain run keeps the default q 0.9 and k 5 in config.json; refine overrides both
    plain, refined = tmp_path / "plain", tmp_path / "refined"
    argv = _run_args(dataset, plain, "--no-refine")
    for flag in ("--q-unc", "--k"):
        del argv[argv.index(flag):argv.index(flag) + 2]
    assert dispatch(argv) == 0
    assert dispatch(["refine", "--round", str(plain / "round_1"), "--q-unc", "0.5", "--k", "2"]) == 0
    assert dispatch(_run_args(dataset, refined)) == 0

    got, want = _files(plain / "round_1"), _files(refined / "round_1")
    assert sorted(got) == sorted(want)
    got_state, want_state = json.loads(got.pop("state.json")), json.loads(want.pop("state.json"))
    for name in want:
        assert got[name] == want[name], name
    assert set(got_state.pop("timings")) == set(want_state.pop("timings")) == {"train", "infer", "refine"}
    assert got_state == want_state
    assert {p.name for p in plain.iterdir()} == {p.name for p in refined.iterdir()}


class _Crash(Exception):
    pass


def _crash_after(monkeypatch, n):
    """Make the round writer raise once it has saved ``n`` label files."""
    real, saved = pipeline.save_array, []

    def save_array(array, path):
        if len(saved) == n:
            raise _Crash(f"crash before writing {path}")
        saved.append(path)
        real(array, path)

    monkeypatch.setattr(pipeline, "save_array", save_array)


def _assert_round_intact(out, r, before):
    assert _files(out / f"round_{r}") == before
    pipeline.load_round_state(out, r)
    holders = [p.parent.name for p in out.glob("*/state.json") if json.loads(p.read_text())["round"] == r]
    assert holders == [f"round_{r}"]
    assert sorted(p.name for p in out.iterdir() if p.name.startswith("round_")) == ["round_0", "round_1"]


@pytest.mark.parametrize("n", [0, 2])
def test_round_force_crash_keeps_old_round(dataset, tmp_path, monkeypatch, capsys, n):
    out = tmp_path / "run"
    assert dispatch(_run_args(dataset, out)) == 0
    before = _files(out / "round_1")
    argv = ["round", "--prev", str(out / "round_0"), "--force"]
    _crash_after(monkeypatch, n)
    assert dispatch(argv) == 2
    assert "_Crash" in capsys.readouterr().err
    _assert_round_intact(out, 1, before)
    monkeypatch.undo()
    assert dispatch(argv) == 0  # the same seed recomputes the same round
    after = _files(out / "round_1")
    assert json.loads(after.pop("state.json"))["labels"] == json.loads(before.pop("state.json"))["labels"]
    assert after == before
    assert sorted(p.name for p in out.iterdir() if p.name.startswith("round_")) == ["round_0", "round_1"]


@pytest.mark.parametrize("n", [0, 2])
def test_refine_force_crash_keeps_old_round(dataset, tmp_path, monkeypatch, capsys, n):
    out = tmp_path / "run"
    assert dispatch(_run_args(dataset, out)) == 0
    before = _files(out / "round_1")
    argv = ["refine", "--round", str(out / "round_1"), "--q-unc", "0.75", "--force"]
    _crash_after(monkeypatch, n)
    assert dispatch(argv) == 2
    assert "_Crash" in capsys.readouterr().err
    _assert_round_intact(out, 1, before)
    monkeypatch.undo()
    assert dispatch(argv) == 0
    after = _files(out / "round_1")
    assert after["params.vxar"] == before["params.vxar"]
    assert after["train_log.jsonl"] == before["train_log.jsonl"]
    after_doc, before_doc = json.loads(after["state.json"]), json.loads(before["state.json"])
    assert after_doc["uncertainties"] == before_doc["uncertainties"]
    assert after_doc["partition"] != before_doc["partition"]  # partitioned at q 0.75
    assert sorted(p.name for p in out.iterdir() if p.name.startswith("round_")) == ["round_0", "round_1"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["round", "--prev", "{out}/round_1"], 0),
        (["round", "--prev", "{out}/round_0"], 1),  # round 1 exists again: needs --force
        (["report", "--run", "{out}"], 0),
    ],
    ids=["next-round", "rewrite", "report"],
)
def test_crash_between_the_renames_restores_the_old_round(dataset, tmp_path, monkeypatch, capsys, argv, code):
    out = tmp_path / "run"
    assert dispatch(_run_args(dataset, out)) == 0
    before = _files(out / "round_1")
    real = pipeline.os.replace

    def replace(src, dst):
        if Path(dst).name == "round_1":  # the second rename: the new round into place
            raise _Crash(f"crash before renaming {src}")
        real(src, dst)

    monkeypatch.setattr(pipeline.os, "replace", replace)
    assert dispatch(["round", "--prev", str(out / "round_0"), "--force"]) == 2
    monkeypatch.undo()
    rounds = sorted(p.name for p in out.iterdir() if p.name.startswith("round_"))
    assert rounds == ["round_0", "round_1.old", "round_1.tmp"]
    capsys.readouterr()
    assert dispatch([a.format(out=out) for a in argv]) == code
    assert _files(out / "round_1") == before
    assert not (out / "round_1.old").exists()
    assert pipeline.run_table(out)[1] == _state_rows(out)[1]


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
    shutil.copy(
        dataset / "truth" / "vol_000.label.vxar", other / "different.label.vxar"
    )
    argv = ["eval", "--pred", str(other), "--truth", str(dataset / "truth")]
    assert dispatch(argv) == 1
    assert "share no volume ids" in capsys.readouterr().err


def test_report_csv_and_svg(finished_run, tmp_path):
    # the report is the CSV alone: no report.svg is written
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    (run / "report.csv").unlink(missing_ok=True)
    argv = ["report", "--run", str(run)]
    assert dispatch(argv) == 0
    csv_text = (run / "report.csv").read_text().splitlines()
    assert csv_text[0] == (
        "round,refined,pseudo_label_dice,model_dice,threshold,n_certain,n_uncertain,train_s,other_s"
    )
    assert [line.split(",")[0] for line in csv_text[1:]] == ["0", "1"]
    assert sorted(p.name for p in run.iterdir() if p.name.startswith("report")) == ["report.csv", "report.json"]
    assert dispatch(argv) == 1  # the output exists now
    assert dispatch(argv + ["--force"]) == 0
    assert (run / "report.csv").read_text().splitlines() == csv_text