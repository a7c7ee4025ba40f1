"""Array container round-trips, manifest handling, and resampling rules."""
from __future__ import annotations

import json
import re
import struct
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from protoloop import pipeline, volume
from protoloop.encoder import EncoderParams
from protoloop.phantom import ClassShape, PhantomSpec
from protoloop.pipeline import PipelineConfig
from protoloop.prototype import compute_prototypes
from protoloop.specialist import TrainConfig
from protoloop.uncertainty import Partition
from protoloop.volume import (
    MAGIC,
    ArrayFormatError,
    DatasetManifest,
    FeatureGrid,
    IntensityVolume,
    LabelVolume,
    Shape3,
    VolumeEntry,
    class_argmax,
    load_array,
    load_manifest,
    nearest_axis_indices,
    nearest_resample_labels,
    read_blob,
    read_header,
    save_array,
    save_manifest,
    write_blob,
)

from .oracles import axis_index_oracle, downsample_labels_oracle, upsample_maps_oracle


# ---------------------------------------------------------------------------
# types

def test_shape3_validation():
    s = Shape3(2, 3, 4)
    assert s.as_tuple() == (2, 3, 4)
    assert s.voxels == 24
    for bad in [(0, 1, 1), (1, -1, 1), (1, 1, 0)]:
        with pytest.raises(ValueError):
            Shape3(*bad)


NON_FINITE_KINDS = {
    "intensity": (lambda data: IntensityVolume(Shape3(3, 4, 5), data), {}, "intensity data"),
    "grid": (lambda data: FeatureGrid(1, Shape3(3, 4, 5), data), {"channels": 1}, "feature grid"),
}


@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "pos-inf", "neg-inf"])
@pytest.mark.parametrize("kind", sorted(NON_FINITE_KINDS))
def test_non_finite_value_refused(tmp_path, kind, value, position):
    build, header, what = NON_FINITE_KINDS[kind]
    data = np.random.default_rng(5).normal(size=60).astype("<f4")
    data[{"first": 0, "middle": 29, "last": 59}[position]] = value
    with pytest.raises(ValueError, match=f"{what} contains non-finite values"):
        build(data)
    path = tmp_path / "bad.vxar"
    write_blob(path, {"dtype": "f32", "shape": [3, 4, 5], "order": "row-major", **header}, data.tobytes())
    with pytest.raises(ArrayFormatError, match=rf"bad\.vxar: {what} contains non-finite values"):
        load_array(path)


def test_label_volume_rejects_out_of_range():
    data = np.full((2, 2, 2), 3, dtype=np.uint8)
    with pytest.raises(ValueError):
        LabelVolume(Shape3(2, 2, 2), 2, data)


def test_volumes_are_immutable():
    vol = IntensityVolume(Shape3(2, 2, 2), np.zeros((2, 2, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        vol.data[0, 0, 0] = 1.0


# ---------------------------------------------------------------------------
# file format

def test_load_constant_intensity_file(tmp_path):
    path = tmp_path / "a.vxar"
    save_array(IntensityVolume(Shape3(2, 2, 2), np.ones((2, 2, 2), dtype=np.float32)), path)
    vol = load_array(path)
    assert isinstance(vol, IntensityVolume)
    assert (vol.data == 1.0).all()


def test_round_trip_intensity_bit_identical(tmp_path):
    rng = np.random.default_rng(42)
    data = rng.normal(size=(4, 4, 4)).astype(np.float32)
    vol = IntensityVolume(Shape3(4, 4, 4), data)
    save_array(vol, tmp_path / "v.vxar")
    back = load_array(tmp_path / "v.vxar")
    assert back.data.tobytes() == vol.data.tobytes()


@pytest.mark.parametrize("header_pad", [0, 1, 3])
def test_read_blob_payload_is_a_view_of_the_file_bytes(tmp_path, header_pad):
    # the header length varies the payload's offset, so its alignment is arbitrary
    path = tmp_path / "b.vxar"
    header = {"dtype": "f32", "shape": [2, 3, 4], "order": "row-major", "note": "x" * header_pad}
    payload = np.arange(24, dtype="<f4").tobytes()
    write_blob(path, header, payload)
    got_header, got = read_blob(path)
    assert got_header == header
    assert isinstance(got, memoryview) and got.readonly and got.obj is not None
    assert got.tobytes() == payload and len(got) == len(payload)
    back = load_array(path, IntensityVolume)
    assert back.data.tobytes() == payload and back.data.flags.c_contiguous


def test_load_array_copies_the_payload_once(tmp_path):
    # the payload is read from disk straight into the array returned, and
    # the finiteness check reads min and max, not a bool mask: loading peaks
    # at one payload.  Reading the file's bytes and copying the payload out
    # of them made it about 2.
    data = np.random.default_rng(3).normal(size=(32, 32, 64)).astype(np.float32)
    path = tmp_path / "v.vxar"
    save_array(IntensityVolume(Shape3(*data.shape), data), path)
    tracemalloc.start()
    try:
        back = load_array(path, IntensityVolume)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.data.tobytes() == data.tobytes()
    assert peak < 1.1 * data.nbytes


def _file(header: dict, payload: bytes) -> bytes:
    head = json.dumps(header).encode()
    return MAGIC + struct.pack("<I", len(head)) + head + payload


_F32, _U8 = {"dtype": "f32", "order": "row-major"}, {"dtype": "u8", "order": "row-major"}


def _intensity_file(extra: bytes = b"", cut: int = 0) -> bytes:
    blob = _file(_F32 | {"shape": [1, 2, 3]}, bytes(24) + extra)
    return blob[: len(blob) - cut]
# what read_header itself refuses: the container, not the header's values or the payload
_CONTAINER_ERRORS = ("bad magic", "truncated header", "malformed header", "header is not a JSON object")


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"NOPE\x00\x00" + bytes(40), "bad magic"),
        (MAGIC + b"\x01", "bad magic"),
        (MAGIC + struct.pack("<I", 200) + b"{}", "truncated header"),
        (MAGIC + struct.pack("<I", 8) + b"not json", "malformed header"),
        (MAGIC + struct.pack("<I", 2) + b"[]", "header is not a JSON object"),
        (_intensity_file(cut=1), r"shape/payload mismatch \(23 bytes, expected 24\)"),
        (_intensity_file(extra=b"\x00"), r"shape/payload mismatch \(25 bytes, expected 24\)"),
        # a JSON boolean is not a count, though Python's bool is an int
        (_file(_F32 | {"shape": [True, 2, 2]}, bytes(16)), "bad shape"),
        (_file(_F32 | {"shape": [1, 1, 1], "channels": True}, bytes(4)), "bad channels"),
        (_file(_F32 | {"shape": [1, 1, 1], "channels": 1, "patch_size": [True] * 3}, bytes(4)),
         "bad patch_size"),
        (_file(_U8 | {"shape": [1, 1, 2], "num_classes": True}, bytes(2)), "bad num_classes"),
        (_file(_F32 | {"shape": [1, 2, 3], "dtype": "f64"}, bytes(48)), "unknown dtype 'f64'"),
        (_file(_F32 | {"shape": [1, 2, 3], "order": "col-major"}, bytes(24)), "unsupported order 'col-major'"),
    ],
    ids=["magic", "short-magic", "truncated-header", "malformed-header", "header-list",
         "short-payload", "long-payload", "bool-shape", "bool-channels", "bool-patch-size",
         "bool-num-classes", "f64-dtype", "col-major-order"],
)
def test_malformed_file_refused_by_name(tmp_path, blob, message):
    path = tmp_path / "bad.vxar"
    path.write_bytes(blob)
    with pytest.raises(ArrayFormatError, match=re.escape(f"{path}: ") + message):
        load_array(path)
    if message in _CONTAINER_ERRORS:
        with pytest.raises(ArrayFormatError, match=re.escape(f"{path}: ") + message):
            read_header(path)
    # the same file, well formed, loads
    path.write_bytes(_intensity_file())
    assert load_array(path, IntensityVolume).data.tobytes() == bytes(24)


@pytest.mark.parametrize("kind", ["intensity", "label", "grid"])
def test_save_array_writes_the_payload_without_a_copy(tmp_path, kind):
    values = np.random.default_rng(4).normal(size=(64, 64, 64)).astype(np.float32)
    array = {
        "intensity": lambda: IntensityVolume(Shape3(64, 64, 64), values),
        "label": lambda: LabelVolume(Shape3(64, 64, 64), 3, (values > 0) + (values > 1)),
        "grid": lambda: FeatureGrid(4, Shape3(16, 64, 64), values, (4, 1, 1)),
    }[kind]()
    path = tmp_path / "a.vxar"
    tracemalloc.start()
    try:
        save_array(array, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * array.data.nbytes
    # byte-identical to writing the payload's bytes object
    header, _ = read_blob(path)
    write_blob(tmp_path / "ref.vxar", header, array.data.tobytes())
    assert path.read_bytes() == (tmp_path / "ref.vxar").read_bytes()


def test_round_trip_labels(tmp_path):
    rng = np.random.default_rng(7)
    for trial in range(5):
        labels = LabelVolume(
            Shape3(3, 2, 4), 3, rng.integers(0, 3, size=(3, 2, 4)).astype(np.uint8)
        )
        save_array(labels, tmp_path / "l.vxar")
        back = load_array(tmp_path / "l.vxar")
        assert isinstance(back, LabelVolume)
        assert back.num_classes == 3
        assert back.data.tobytes() == labels.data.tobytes()


def test_probability_file_refused(tmp_path):
    # per-class f32 planes with num_classes: no array kind, and never an
    # intensity volume, even when the payload would fit one
    path = tmp_path / "p.vxar"
    for planes in (1, 2):
        header = {"dtype": "f32", "shape": [1, 1, 2], "order": "row-major", "num_classes": 2}
        write_blob(path, header, np.full(2 * planes, 0.5, dtype="<f4").tobytes())
        with pytest.raises(ArrayFormatError, match="num_classes"):
            load_array(path)


def test_label_file_with_channels_refused(tmp_path):
    # only f32 feature grids carry channels; a u8 payload sized for two
    # channels must not pass the size check and die in a reshape
    path = tmp_path / "l.vxar"
    for planes in (1, 2):
        header = {"dtype": "u8", "shape": [1, 1, 2], "order": "row-major", "channels": planes}
        write_blob(path, header, bytes(2 * planes))
        with pytest.raises(ArrayFormatError, match=r"l\.vxar: u8 data with channels"):
            load_array(path)


def test_shape_payload_mismatch(tmp_path):
    path = tmp_path / "bad.vxar"
    header = {"dtype": "f32", "shape": [2, 2, 2], "order": "row-major"}
    write_blob(path, header, b"\x00" * 4)  # one float, not eight
    with pytest.raises(ArrayFormatError, match="shape/payload mismatch"):
        load_array(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.vxar"
    path.write_bytes(b"NOPE\x00\x00" + b"\x00" * 32)
    with pytest.raises(ArrayFormatError, match="magic"):
        load_array(path)


def test_malformed_header_rejected(tmp_path):
    path = tmp_path / "hdr.vxar"
    blob = b"not json"
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob)
    with pytest.raises(ArrayFormatError, match="malformed header"):
        load_array(path)


def test_wrong_kind_refused_by_name(tmp_path):
    path = tmp_path / "l.vxar"
    save_array(LabelVolume(Shape3(1, 1, 2), 2, np.array([0, 1])), path)
    assert isinstance(load_array(path, LabelVolume), LabelVolume)
    for kind in (IntensityVolume, FeatureGrid):
        with pytest.raises(ArrayFormatError, match=rf"l\.vxar: holds LabelVolume, expected {kind.__name__}"):
            load_array(path, kind)


@pytest.mark.parametrize(
    "header, payload, message",
    [
        ({"dtype": "u8", "num_classes": 2}, bytes([0, 5]), "label value 5 >= num_classes 2"),
        ({"dtype": "u8", "num_classes": 1}, bytes(2), r"num_classes=1 outside \[2, 256\]"),
        ({"dtype": "u8", "num_classes": 257}, bytes(2), r"num_classes=257 outside \[2, 256\]"),
        ({"dtype": "u8", "num_classes": 2.5}, bytes([0, 2]), "bad num_classes 2.5"),
        ({"dtype": "u8", "num_classes": "2"}, bytes(2), "bad num_classes '2'"),
    ],
    ids=["label-value", "one-class", "257-classes", "float-classes", "str-classes"],
)
def test_payload_refused_by_its_array_type_names_the_file(tmp_path, header, payload, message):
    path = tmp_path / "bad.vxar"
    write_blob(path, {"shape": [1, 1, 2], "order": "row-major", **header}, payload)
    with pytest.raises(ArrayFormatError, match=rf"bad\.vxar: .*{message}"):
        load_array(path)


def test_external_label_file_infers_classes(tmp_path):
    # a label file without num_classes gets a tight inferred class count
    path = tmp_path / "ext.vxar"
    header = {"dtype": "u8", "shape": [1, 1, 4], "order": "row-major"}
    write_blob(path, header, bytes([0, 1, 2, 1]))
    back = load_array(path)
    assert isinstance(back, LabelVolume)
    assert back.num_classes == 3


# ---------------------------------------------------------------------------
# manifest

def test_manifest_round_trip(tmp_path):
    entries = (
        VolumeEntry(vol_id="a", intensity="a.vxar", label="a.label.vxar"),
        VolumeEntry(vol_id="b", intensity="b.vxar"),
        VolumeEntry(vol_id="c", intensity="c.vxar", features="c.feat.vxar"),
    )
    man = DatasetManifest(num_classes=2, entries=entries)
    save_manifest(man, tmp_path / "manifest.json")
    back = load_manifest(tmp_path / "manifest.json")
    assert back.num_classes == 2
    assert back.labeled_entry().vol_id == "a"
    assert [e.vol_id for e in back.unlabeled_entries()] == ["b", "c"]
    assert back.base_dir == tmp_path
    # older manifests carry "exactly_one_labeled": true; the key is ignored
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert "exactly_one_labeled" not in doc
    (tmp_path / "manifest.json").write_text(json.dumps({**doc, "exactly_one_labeled": True}))
    assert load_manifest(tmp_path / "manifest.json") == back


def test_manifest_rejects_duplicate_ids():
    entries = (
        VolumeEntry(vol_id="a", intensity="a.vxar", label="a.label.vxar"),
        VolumeEntry(vol_id="a", intensity="b.vxar"),
    )
    with pytest.raises(ValueError, match="unique"):
        DatasetManifest(num_classes=2, entries=entries)


def test_manifest_requires_exactly_one_label():
    for labels in ((None, None), ("a.label.vxar", "b.label.vxar")):
        entries = tuple(
            VolumeEntry(vol_id=v, intensity=f"{v}.vxar", label=lab) for v, lab in zip("ab", labels)
        )
        with pytest.raises(ValueError, match=f"{sum(map(bool, labels))} labeled entries"):
            DatasetManifest(num_classes=2, entries=entries)


@pytest.mark.parametrize("vol_id", ["../x", "a/b", "a.b", "..", "", "vol 1", "x\n", "é", 7])
def test_manifest_rejects_hostile_ids(tmp_path, vol_id):
    # an id names files under the run directory: no separator, dot or blank
    doc = {
        "num_classes": 2,
        "volumes": [
            {"id": "vol_000", "intensity": "a.vxar", "label": "a.label.vxar"},
            {"id": vol_id, "intensity": "b.vxar"},
        ],
    }
    (tmp_path / "m.json").write_text(json.dumps(doc))
    named = "volume id" if isinstance(vol_id, str) else re.escape("volumes[1].id is 7; it must be a string")
    with pytest.raises(ValueError, match=named):
        load_manifest(tmp_path / "m.json")


def test_manifest_accepts_plain_ids():
    for vol_id in ("vol_000", "A-1", "x", "case_12-b"):
        assert VolumeEntry(vol_id=vol_id, intensity="v.vxar").vol_id == vol_id


def test_manifest_missing_field(tmp_path):
    (tmp_path / "m.json").write_text(json.dumps({"volumes": []}))
    with pytest.raises(ValueError):
        load_manifest(tmp_path / "m.json")


@pytest.mark.parametrize(
    "cls", [PhantomSpec, ClassShape, VolumeEntry, DatasetManifest, PipelineConfig, EncoderParams, TrainConfig, Partition]
)
def test_every_field_read_from_json_has_a_json_type(cls):
    """Each field annotation of a dataclass a JSON document is read into, and
    each annotation of ``state.json``'s own table, has an entry in the one type
    table, as have the members an entry names: a new field with a new
    annotation fails here, not at a user's first load."""
    annotations = [f.type for f in fields(cls)] + list(pipeline._STATE_TYPES.values())
    annotations += [members for _, _, members in volume._JSON_TYPES.values() if members is not None]
    assert [a for a in annotations if a not in volume._JSON_TYPES] == []


# ---------------------------------------------------------------------------
# resampling

def test_downsample_constant_volume():
    labels = LabelVolume(Shape3(4, 4, 4), 2, np.ones((4, 4, 4), dtype=np.uint8))
    down = nearest_resample_labels(labels, Shape3(2, 2, 2))
    assert (down.data == 1).all()
    assert down.num_classes == 2


def test_downsample_hand_case_4_to_2():
    # centers at 0.5*4/2=1 and 1.5*4/2=3 pick source indices 1 and 3
    labels = LabelVolume(
        Shape3(4, 1, 1), 2, np.array([0, 0, 1, 1], dtype=np.uint8).reshape(4, 1, 1)
    )
    down = nearest_resample_labels(labels, Shape3(2, 1, 1))
    assert down.data.reshape(-1).tolist() == [0, 1]


def test_downsample_identity():
    rng = np.random.default_rng(3)
    labels = LabelVolume(Shape3(3, 4, 5), 3, rng.integers(0, 3, size=(3, 4, 5)).astype(np.uint8))
    down = nearest_resample_labels(labels, Shape3(3, 4, 5))
    assert (down.data == labels.data).all()


def test_downsample_rejects_larger_target():
    # labels are downsampled onto the template grid, which may not be finer
    # than the label volume
    labels = LabelVolume(Shape3(2, 2, 2), 2, np.zeros((2, 2, 2), dtype=np.uint8))
    grid = FeatureGrid(channels=1, grid_shape=Shape3(3, 2, 2), data=np.ones((1, 3, 2, 2)))
    with pytest.raises(ValueError, match="larger than the volume"):
        compute_prototypes(grid, labels)


def test_upsample_constant_map():
    labels = LabelVolume(Shape3(1, 1, 1), 3, np.full((1, 1, 1), 2, dtype=np.uint8))
    up = nearest_resample_labels(labels, Shape3(3, 3, 3))
    assert up.shape == Shape3(3, 3, 3)
    assert (up.data == 2).all()


def test_upsample_hand_case_2_to_4():
    labels = LabelVolume(Shape3(2, 1, 1), 2, np.array([1, 0], dtype=np.uint8).reshape(2, 1, 1))
    up = nearest_resample_labels(labels, Shape3(4, 1, 1))
    assert up.data.reshape(-1).tolist() == [1, 1, 0, 0]


def test_axis_indices_match_oracle():
    for dst in range(1, 9):
        for src in range(1, 9):
            idx = nearest_axis_indices(src, dst)
            expect = [axis_index_oracle(i, src, dst) for i in range(dst)]
            assert idx.tolist() == expect, (src, dst)


def test_resampling_matches_oracle_seeded():
    rng = np.random.default_rng(11)
    for trial in range(20):
        src = tuple(int(rng.integers(2, 7)) for _ in range(3))
        dst = tuple(int(rng.integers(1, s + 1)) for s in src)
        labels = LabelVolume(
            Shape3(*src), 4, rng.integers(0, 4, size=src).astype(np.uint8)
        )
        down = nearest_resample_labels(labels, Shape3(*dst))
        assert (down.data == downsample_labels_oracle(labels.data, dst)).all()

        up_target = tuple(int(rng.integers(s, 2 * s + 1)) for s in src)
        up = nearest_resample_labels(labels, Shape3(*up_target))
        assert (up.data == upsample_maps_oracle(labels.data[None], up_target)[0]).all()


def test_down_then_up_constant_identity():
    labels = LabelVolume(Shape3(6, 6, 6), 2, np.ones((6, 6, 6), dtype=np.uint8))
    down = nearest_resample_labels(labels, Shape3(2, 2, 2))
    up = nearest_resample_labels(down, Shape3(6, 6, 6))
    assert (up.data == 1).all()


def test_downsample_never_invents_classes():
    rng = np.random.default_rng(5)
    for trial in range(10):
        data = rng.integers(0, 3, size=(5, 5, 5)).astype(np.uint8)
        labels = LabelVolume(Shape3(5, 5, 5), 4, data)
        down = nearest_resample_labels(labels, Shape3(2, 3, 2))
        assert set(np.unique(down.data)) <= set(np.unique(data))


def test_resample_both_directions():
    rng = np.random.default_rng(9)
    labels = LabelVolume(Shape3(4, 4, 4), 3, rng.integers(0, 3, size=(4, 4, 4)).astype(np.uint8))
    same = nearest_resample_labels(labels, Shape3(4, 4, 4))
    assert same is labels  # identity short-circuit
    up = nearest_resample_labels(labels, Shape3(6, 6, 6))
    back = nearest_resample_labels(up, Shape3(4, 4, 4))
    assert back.shape.as_tuple() == (4, 4, 4)


# ---------------------------------------------------------------------------
# label decisions

@st.composite
def _class_scores(draw):
    """(k, ...) scores built from a few values around one base: exact ties,
    one-ulp neighbours, +-inf, optionally passed through ``exp`` (which can
    round neighbours to one value), and possibly whole columns of -inf."""
    k = draw(st.integers(1, 6))
    shape = draw(st.sampled_from([(9,), (1,), (2, 3, 2), (1, 1, 4)]))
    base = draw(st.floats(-30.0, 30.0))
    pool = np.array([
        base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf), base + 1.0,
        base - 1e-12, np.inf, -np.inf,
    ])
    scores = pool[draw(arrays(np.int64, (k,) + shape, elements=st.integers(0, len(pool) - 1)))]
    if draw(st.booleans()):
        scores = np.exp(scores)
    columns = scores.reshape(k, -1)
    for col in draw(st.lists(st.integers(0, columns.shape[1] - 1), max_size=2)):
        columns[:, col] = -np.inf
    return scores


@settings(max_examples=300, deadline=None, database=None)
@given(_class_scores())
def test_class_argmax_equals_argmax(scores):
    expect = np.argmax(scores, axis=0)
    labels = class_argmax(scores)
    assert labels.dtype == np.uint8
    assert labels.tobytes() == expect.astype(np.uint8).tobytes()
    out = np.full(scores.shape[1:], 99, dtype=np.uint8)
    assert class_argmax(scores, out=out) is out
    assert out.tobytes() == labels.tobytes()


@pytest.mark.parametrize("where", [(0, 0), (1, 3), (2, 4)])
def test_class_argmax_refuses_nan(where):
    scores = np.zeros((3, 5))
    scores[1, 4] = np.inf
    scores[where] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        class_argmax(scores)


def test_class_argmax_validates_out():
    with pytest.raises(ValueError, match="uint8"):
        class_argmax(np.zeros((2, 4)), out=np.empty(4, dtype=np.int64))
    with pytest.raises(ValueError, match="uint8"):
        class_argmax(np.zeros((2, 4)), out=np.empty(3, dtype=np.uint8))
