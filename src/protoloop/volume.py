"""Volumetric data containers, nearest-neighbor resampling, label decisions, and bit-exact array IO.

The three array kinds are intensity volumes, label volumes and feature grids;
this module defines, writes and reads all three.  All tensors are numpy
arrays in row-major order with the depth axis slowest.  On disk each tensor
is one self-describing binary file: a 6-byte magic, a little-endian u32
length prefix, a UTF-8 JSON header, and the raw little-endian payload.  No
compression, no chunking, so save/load round-trips are bit-exact.
:func:`load_array` is the one reader: it reads the payload straight into the
array it returns, given the kind a file must hold it refuses any other, and
every refusal is an :class:`ArrayFormatError` that names the file.

This module also reads every JSON document a run takes, the manifest among
them: :func:`read_json` refuses a malformed file, and :func:`from_doc` builds
a dataclass from an object that :func:`check_object` has checked against one
type table, ``_JSON_TYPES``; each refusal names the file and the key path.
"""
from __future__ import annotations

import json
import math
import os
import re
import struct
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

__all__ = [
    "ArrayFormatError",
    "Shape3",
    "IntensityVolume",
    "LabelVolume",
    "FeatureGrid",
    "VolumeEntry",
    "DatasetManifest",
    "JsonRules",
    "read_json",
    "write_json",
    "check_object",
    "from_doc",
    "read_header",
    "read_shape",
    "read_blob",
    "write_blob",
    "save_array",
    "load_array",
    "load_manifest",
    "save_manifest",
    "nearest_axis_indices",
    "nearest_resample_labels",
    "class_argmax",
]

MAGIC = b"VXAR\x01\x00"

_DTYPES = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}


class ArrayFormatError(ValueError):
    """Raised for malformed, truncated, or inconsistent array files."""


@dataclass(frozen=True)
class Shape3:
    """Voxel extents (d, h, w); d is the slowest axis."""

    d: int
    h: int
    w: int

    def __post_init__(self):
        for name in ("d", "h", "w"):
            v = getattr(self, name)
            if int(v) != v or int(v) < 1:
                raise ValueError(f"extent {name}={v!r} must be a positive integer")
            object.__setattr__(self, name, int(v))

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.d, self.h, self.w)

    @property
    def voxels(self) -> int:
        return self.d * self.h * self.w

    @property
    def diagonal(self) -> float:
        """Euclidean length of the volume diagonal, in voxel units."""
        return float(np.sqrt(self.d**2 + self.h**2 + self.w**2))


def _all_finite(data: np.ndarray) -> bool:
    """No NaN or +-inf in a non-empty float array, checked without a bool mask.

    A NaN propagates through ``min`` and ``max``, and an infinity is an extreme.
    """
    return bool(np.isfinite(data.min()) and np.isfinite(data.max()))


def _finalize(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class IntensityVolume:
    """A raw scalar volume; float32, finite everywhere."""

    shape: Shape3
    data: np.ndarray  # (d, h, w) float32

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float32).reshape(self.shape.as_tuple())
        if not _all_finite(data):
            raise ValueError("intensity data contains non-finite values")
        object.__setattr__(self, "data", _finalize(data))


@dataclass(frozen=True)
class LabelVolume:
    """Integer class ids per voxel; background is class 0."""

    shape: Shape3
    num_classes: int
    data: np.ndarray  # (d, h, w) uint8

    def __post_init__(self):
        if not 2 <= self.num_classes <= 256:
            raise ValueError(f"num_classes={self.num_classes} outside [2, 256]")
        data = np.asarray(self.data)
        if data.dtype != np.uint8:
            # refuse silent narrowing: only accept values that fit exactly
            as_u8 = data.astype(np.uint8)
            if not np.array_equal(as_u8, data):
                raise ValueError("label data does not fit in uint8")
            data = as_u8
        data = data.reshape(self.shape.as_tuple())
        if data.size and int(data.max()) >= self.num_classes:
            raise ValueError(
                f"label value {int(data.max())} >= num_classes {self.num_classes}"
            )
        object.__setattr__(self, "data", _finalize(data))


@dataclass(frozen=True)
class FeatureGrid:
    """Per-cell feature vectors on a coarse grid aligned to a source volume."""

    channels: int
    grid_shape: Shape3
    data: np.ndarray  # (channels, d', h', w') float32
    patch_size: tuple[int, int, int] | None = None  # voxels per cell, per axis

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        data = np.asarray(self.data, dtype=np.float32).reshape(
            (self.channels,) + self.grid_shape.as_tuple()
        )
        if not _all_finite(data):
            raise ValueError("feature grid contains non-finite values")
        object.__setattr__(self, "data", _finalize(data))
        if self.patch_size is not None:
            patch = tuple(int(p) for p in self.patch_size)
            if len(patch) != 3 or any(p < 1 for p in patch):
                raise ValueError(f"bad patch_size {self.patch_size!r}")
            object.__setattr__(self, "patch_size", patch)


# ---------------------------------------------------------------------------
# binary array files

def write_blob(path: str | Path, header: dict, payload: bytes | np.ndarray) -> None:
    """Write one magic + JSON header + payload file. Canonical key order.

    An array payload must be C-contiguous; its buffer is written as it is,
    without a copy.
    """
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        fh.write(payload)


def _read_header(fh, path) -> dict:
    """The header of the array file open as ``fh``, which is left at the payload."""
    lead = fh.read(len(MAGIC) + 4)
    if len(lead) < len(MAGIC) + 4 or lead[: len(MAGIC)] != MAGIC:
        raise ArrayFormatError(f"{path}: bad magic; not an array file")
    (hlen,) = struct.unpack_from("<I", lead, len(MAGIC))
    head = fh.read(hlen)
    if len(head) < hlen:
        raise ArrayFormatError(f"{path}: truncated header")
    try:
        header = json.loads(head.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArrayFormatError(f"{path}: malformed header ({exc})") from exc
    if not isinstance(header, dict):
        raise ArrayFormatError(f"{path}: header is not a JSON object")
    return header


def read_header(path: str | Path) -> dict:
    """The header of one array file; its payload is not read."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def read_shape(path: str | Path) -> Shape3:
    """The shape the header of one array file records; its payload is not read."""
    return _header_shape(read_header(path), path)


def read_blob(path: str | Path) -> tuple[dict, memoryview]:
    """The header and payload of one array file.

    The payload is a read-only view of the one bytes object read for it.
    """
    with open(path, "rb") as fh:
        return _read_header(fh, path), memoryview(fh.read())


def _header_shape(header: dict, path) -> Shape3:
    shape = header.get("shape")
    if (
        not isinstance(shape, list)
        or len(shape) != 3
        or not all(type(s) is int and s >= 1 for s in shape)
    ):
        raise ArrayFormatError(f"{path}: bad shape {shape!r}")
    return Shape3(*shape)


def save_array(array, path: str | Path) -> None:
    """Persist a typed array; the header records dtype, shape, and kind-specific keys."""
    if isinstance(array, IntensityVolume):
        header = {"dtype": "f32", "shape": list(array.shape.as_tuple()), "order": "row-major"}
        payload = np.ascontiguousarray(array.data, dtype="<f4")
    elif isinstance(array, LabelVolume):
        header = {
            "dtype": "u8",
            "shape": list(array.shape.as_tuple()),
            "order": "row-major",
            "num_classes": array.num_classes,
        }
        payload = array.data
    elif isinstance(array, FeatureGrid):
        header = {
            "dtype": "f32",
            "shape": list(array.grid_shape.as_tuple()),
            "order": "row-major",
            "channels": array.channels,
        }
        if array.patch_size is not None:
            header["patch_size"] = list(array.patch_size)
        payload = np.ascontiguousarray(array.data, dtype="<f4")
    else:
        raise TypeError(f"cannot save object of type {type(array).__name__}")
    write_blob(path, header, payload)


def load_array(path: str | Path, kind: type | None = None):
    """Load a typed array back; the inverse of :func:`save_array`, bit-exact.

    With ``kind`` (``IntensityVolume``, ``LabelVolume`` or ``FeatureGrid``),
    a file that holds another kind is refused.  A malformed file, a payload
    its array type rejects, and a wrong kind all raise
    :class:`ArrayFormatError` naming ``path``.
    """
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        dtype_name = header.get("dtype")
        if dtype_name not in _DTYPES:
            raise ArrayFormatError(f"{path}: unknown dtype {dtype_name!r}")
        if header.get("order") != "row-major":
            raise ArrayFormatError(f"{path}: unsupported order {header.get('order')!r}")
        shape = _header_shape(header, path)
        dtype = _DTYPES[dtype_name]

        planes = 1
        if "channels" in header:
            planes = header["channels"]
            if type(planes) is not int or planes < 1:
                raise ArrayFormatError(f"{path}: bad channels {planes!r}")
            if dtype_name != "f32":
                # only feature grids carry channels, and they are f32
                raise ArrayFormatError(f"{path}: {dtype_name} data with channels is not a known array kind")
            patch = header.get("patch_size")
            if patch is not None and (
                not isinstance(patch, list)
                or len(patch) != 3
                or not all(type(p) is int and p >= 1 for p in patch)
            ):
                raise ArrayFormatError(f"{path}: bad patch_size {patch!r}")
        elif dtype_name == "f32" and "num_classes" in header:
            # per-class f32 planes (an old probability file) must not load as intensities
            raise ArrayFormatError(f"{path}: f32 data with num_classes is not a known array kind")
        elif type(header.get("num_classes", 2)) is not int:
            raise ArrayFormatError(f"{path}: bad num_classes {header['num_classes']!r}")

        expected = planes * shape.voxels * dtype.itemsize
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != expected:
            raise ArrayFormatError(f"{path}: shape/payload mismatch ({size} bytes, expected {expected})")
        # the payload is read straight into the array: a load holds one payload
        data = np.empty(planes * shape.voxels, dtype=dtype)
        if fh.readinto(data) != expected:
            raise ArrayFormatError(f"{path}: payload ended early")

    try:
        if dtype_name == "u8":
            num_classes = header.get("num_classes")
            if num_classes is None:
                # externally produced label file: infer a tight class count
                num_classes = max(2, int(data.max()) + 1) if data.size else 2
            array = LabelVolume(shape, num_classes, data)
        elif "channels" in header:
            array = FeatureGrid(planes, shape, data, patch)
        else:
            array = IntensityVolume(shape, data)
    except ValueError as exc:
        raise ArrayFormatError(f"{path}: {exc}") from exc
    if kind is not None and not isinstance(array, kind):
        raise ArrayFormatError(f"{path}: holds {type(array).__name__}, expected {kind.__name__}")
    return array


# ---------------------------------------------------------------------------
# JSON documents: one reader for the manifest, the phantom spec, config.json
# and state.json

def _is_number(value) -> bool:
    """``value`` is a finite JSON number: not a bool, nor an integer beyond float range."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


def _is_file_name(value) -> bool:
    """``value`` is a string naming a file in its directory: no separator, not ``..``."""
    return type(value) is str and value not in ("", "..") and Path(value).name == value


def _of(kind, length: int | None = None):
    """A check that a JSON value is of type ``kind``, a list of ``length`` items where given."""
    return lambda value: type(value) is kind and (length is None or len(value) == length)


# The JSON value each annotation takes: what a refusal calls it, a check of it,
# and for a list or an object of members, the members' annotation.  Everywhere
# "a number" is a finite JSON number that is not a bool.
_JSON_TYPES = {
    "int": ("an integer", _of(int), None),
    "bool": ("a bool", _of(bool), None),
    "float": ("a number", _is_number, None),
    "float | None": ("a number or null", lambda value: value is None or _is_number(value), None),
    "str": ("a string", _of(str), None),
    "str | None": ("a string or null", lambda value: value is None or type(value) is str, None),
    "Path": ("a string", _of(str), None),
    "Path | None": ("a string or null", lambda value: value is None or type(value) is str, None),
    "Shape3": ("a list of three integers", _of(list, 3), "int"),
    "tuple[float, float, float]": ("a list of three numbers", _of(list, 3), "float"),
    "frozenset[str]": ("a list of strings", _of(list), "str"),
    "tuple[ClassShape, ...]": ("a list of objects", _of(list), "ClassShape"),
    "tuple[VolumeEntry, ...]": ("a list of objects", _of(list), "VolumeEntry"),
    **dict.fromkeys(
        ("ClassShape", "VolumeEntry", "EncoderParams", "TrainConfig", "Partition"), ("an object", _of(dict), None)
    ),
    # state.json's own: the files it names are in its round directory
    "FileName": ("a file name in its directory", _is_file_name, None),
    "dict[str, FileName]": ("an object of file names", _of(dict), "FileName"),
    "dict[str, float]": ("an object of numbers", _of(dict), "float"),
}


def _key_path(at: str, key, value=None) -> str:
    """The key path of an object's ``key``, or of the list item ``value`` at index
    ``key``, under ``at``; an item with a string ``id`` is named by it (``volumes[vol_003]``)."""
    if isinstance(key, str):
        return f"{at}.{key}" if at else key
    if isinstance(value, dict) and type(value.get("id")) is str:
        key = value["id"]
    return f"{at}[{key}]"


class _Twice(dict):
    """A JSON object in which the key ``twice`` appears more than once."""


class _Constant(str):
    """``NaN``, ``Infinity`` or ``-Infinity``, for which JSON has no number."""


def _object_of_pairs(pairs: list) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys, doc = [key for key, _ in pairs], _Twice(doc)
        doc.twice = next(key for i, key in enumerate(keys) if key in keys[:i])
    return doc


def _refusal(value, at: str) -> str | None:
    """Why ``value``, at key path ``at``, is refused: its first duplicated key or constant; or None."""
    if isinstance(value, _Constant):
        return f"{at} is {value}, which is not a JSON number"
    if isinstance(value, _Twice):
        return f"key {_key_path(at, value.twice)} appears twice in one object"
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            found = _refusal(item, _key_path(at, key, item))
            if found:
                return found
    return None


def read_json(path: str | Path) -> dict:
    """The JSON object in the file at ``path``.  Invalid JSON, a top level that
    is not an object, a key given twice in one object and the constants ``NaN``,
    ``Infinity`` and ``-Infinity`` are refused by file, the last two by key path too."""
    try:
        doc = json.loads(Path(path).read_text(), object_pairs_hook=_object_of_pairs, parse_constant=_Constant)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    refusal = _refusal(doc, "") if isinstance(doc, dict) else "the top level must be an object"
    if refusal:
        raise ValueError(f"{path}: {refusal}")
    return doc


def write_json(path: str | Path, doc: dict) -> None:
    """Write ``doc`` to ``path`` indented, with sorted keys and a final newline: the
    form of every JSON document the package writes."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _check_value(value, annotation: str, path, at: str) -> None:
    what, valid, members = _JSON_TYPES[annotation]
    if not valid(value):
        raise ValueError(f"{path}: {at} is {json.dumps(value)}; it must be {what}")
    if members:
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            _check_value(item, members, path, _key_path(at, key, item))


def check_object(doc: dict, types: dict[str, str], path, at: str = "", required=(), ignored=()) -> None:
    """Refuse the object ``doc``, at key path ``at`` in the file ``path``, by
    file and key path, if it holds a key neither in ``types`` nor ``ignored``
    (None: every other key), lacks a ``required`` key, or holds a value of
    another JSON type than its annotation in ``types`` takes in ``_JSON_TYPES``."""
    unknown = [] if ignored is None else sorted(doc.keys() - types.keys() - set(ignored))
    if unknown:
        raise ValueError(f"{path}: unknown key {', '.join(_key_path(at, key) for key in unknown)}")
    for key in required:
        if key not in doc:
            raise ValueError(f"{path}: missing required field {_key_path(at, key)}")
    for key, annotation in types.items():
        if key in doc:
            _check_value(doc[key], annotation, path, _key_path(at, key))


@dataclass(frozen=True)
class JsonRules:
    """How one document reads a dataclass from a JSON object: its own rules, as data."""

    cls: type
    keys: dict = field(default_factory=dict)  # field name -> JSON key, where they differ
    not_read: frozenset = frozenset()  # fields no document sets
    required: tuple = ()  # fields with defaults that a document must still set
    fixed: dict = field(default_factory=dict)  # retired keys, allowed only at this value and JSON type
    ignored: frozenset | None = frozenset()  # keys neither read nor refused; None: every other key
    nested: dict = field(default_factory=dict)  # field name -> rules of its object, or of each in its list


def _construct(path, at: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a ValueError it raises is reported by file ``path`` and key path ``at``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {at + ': ' if at else ''}{exc}") from None


def from_doc(rules: JsonRules, doc: dict, path, at: str = "", **given):
    """``rules.cls`` from ``given`` and the JSON object ``doc``, at key path
    ``at`` in the file ``path``, which :func:`check_object` checks against the
    fields' annotations; a field without a default, or in ``rules.required``,
    must be set.  A nested object becomes its dataclass, a ``Shape3`` list a
    ``Shape3`` and any other list a tuple."""
    read = {rules.keys.get(f.name, f.name): f for f in fields(rules.cls) if f.name not in rules.not_read}
    required = [
        key for key, f in read.items()
        if f.name in rules.required or (f.default is MISSING and f.default_factory is MISSING)
    ]
    ignored = None if rules.ignored is None else {*rules.ignored, *rules.fixed}
    check_object(doc, {key: f.type for key, f in read.items()}, path, at, required, ignored)
    for key, fixed in rules.fixed.items():
        value = doc.get(key, fixed)
        if type(value) is not type(fixed) or value != fixed:  # 1 == True in Python
            where = _key_path(at, key)
            raise ValueError(f"{path}: {where} is {json.dumps(value)}; it is fixed at {json.dumps(fixed)}")
    kwargs = dict(given)
    for key, f in read.items():
        if key not in doc:
            continue
        value, where, nested = doc[key], _key_path(at, key), rules.nested.get(f.name)
        if nested and type(value) is list:
            value = tuple(from_doc(nested, v, path, _key_path(where, i, v)) for i, v in enumerate(value))
        elif nested:
            value = from_doc(nested, value, path, where)
        elif f.type == "Shape3":
            value = _construct(path, where, Shape3, *value)
        elif type(value) is list:
            value = tuple(value)
        kwargs[f.name] = value
    return _construct(path, at, rules.cls, **kwargs)


# ---------------------------------------------------------------------------
# dataset manifest

_VOL_ID = re.compile(r"[A-Za-z0-9_-]+")


@dataclass(frozen=True)
class VolumeEntry:
    """One pool member: id plus relative paths to its array files.

    The id names files under the run directory (``<id>.features.vxar``,
    ``<id>.round1.raw.label``, ...), so it is restricted to letters, digits,
    ``_`` and ``-``: no path separator can leave the directory and no ``.``
    can blur where the id ends in a file name.
    """

    vol_id: str
    intensity: str
    label: str | None = None
    features: str | None = None

    def __post_init__(self):
        if not isinstance(self.vol_id, str) or not _VOL_ID.fullmatch(self.vol_id):
            raise ValueError(
                f"volume id {self.vol_id!r} must be a non-empty string of letters, "
                "digits, '_' and '-'"
            )


@dataclass(frozen=True)
class DatasetManifest:
    """The dataset contract: unique ids, exactly one labeled entry, the template,
    and at least one unlabeled entry, the pool."""

    num_classes: int
    entries: tuple[VolumeEntry, ...]
    base_dir: Path = Path(".")

    def __post_init__(self):
        if not 2 <= self.num_classes <= 256:
            raise ValueError(f"num_classes={self.num_classes} outside [2, 256]")
        entries = tuple(self.entries)
        if not entries:
            raise ValueError("manifest has no volumes")
        ids = [e.vol_id for e in entries]
        if len(set(ids)) != len(ids):
            raise ValueError(f"volume ids {sorted({i for i in ids if ids.count(i) > 1})} are not unique")
        labeled = [e.vol_id for e in entries if e.label is not None]
        if len(labeled) != 1:
            raise ValueError(f"manifest has {len(labeled)} labeled entries {labeled}; it needs exactly one")
        if len(entries) == 1:
            raise ValueError("manifest has no unlabeled volume; it needs at least one besides the template")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "base_dir", Path(self.base_dir))

    def labeled_entry(self) -> VolumeEntry:
        return next(e for e in self.entries if e.label is not None)

    def unlabeled_entries(self) -> list[VolumeEntry]:
        return [e for e in self.entries if e.label is None]

    def resolve(self, rel: str) -> Path:
        return self.base_dir / rel


# older manifests hold ``exactly_one_labeled``, which nothing reads
_MANIFEST = JsonRules(
    DatasetManifest,
    keys={"entries": "volumes"},
    not_read=frozenset({"base_dir"}),
    ignored=frozenset({"exactly_one_labeled"}),
    nested={"entries": JsonRules(VolumeEntry, keys={"vol_id": "id"})},
)


def load_manifest(path: str | Path) -> DatasetManifest:
    """The manifest at ``path``, read by :func:`from_doc`; its ``base_dir`` is the file's directory."""
    return from_doc(_MANIFEST, read_json(path), path, base_dir=Path(path).parent)


def save_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    volumes = []
    for e in manifest.entries:
        entry: dict = {"id": e.vol_id, "intensity": e.intensity}
        if e.label is not None:
            entry["label"] = e.label
        if e.features is not None:
            entry["features"] = e.features
        volumes.append(entry)
    write_json(path, {"num_classes": manifest.num_classes, "volumes": volumes})


# ---------------------------------------------------------------------------
# center-aligned nearest-neighbor resampling

def nearest_axis_indices(n_src: int, n_dst: int) -> np.ndarray:
    """Source index per destination index: floor((i + 0.5) * n_src / n_dst).

    Pure integer arithmetic, so the mapping is exact for any extents; results
    are clamped to the valid source range.
    """
    if n_src < 1 or n_dst < 1:
        raise ValueError("extents must be positive")
    i = np.arange(n_dst, dtype=np.int64)
    return np.minimum((2 * i + 1) * n_src // (2 * n_dst), n_src - 1)


def nearest_resample_labels(labels: LabelVolume, target: Shape3) -> LabelVolume:
    """Resample labels to an arbitrary shape (either direction) center-aligned."""
    if labels.shape == target:
        return labels
    idx = [
        nearest_axis_indices(s, t)
        for s, t in zip(labels.shape.as_tuple(), target.as_tuple())
    ]
    return LabelVolume(target, labels.num_classes, labels.data[np.ix_(*idx)])


# ---------------------------------------------------------------------------
# label decisions

def class_argmax(scores: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.argmax(scores, axis=0)`` of class-major scores, as uint8.

    The label is the lowest class that reaches the per-voxel max.  It is
    computed one class row at a time: a voxel's label is the number of leading
    classes below its max, so no axis is moved and no per-voxel call is made.
    ``out``, if given, receives the labels and is returned.  A NaN score is
    refused.
    """
    k = scores.shape[0]
    if not 1 <= k <= 256:
        raise ValueError(f"{k} classes do not fit uint8 labels")
    top = scores.max(axis=0)
    if np.isnan(top).any():
        raise ValueError("NaN class score")
    if out is None:
        out = np.empty(top.shape, dtype=np.uint8)
    elif out.shape != top.shape or out.dtype != np.uint8:
        raise ValueError(f"out must be uint8 of shape {top.shape}")
    below = scores[0] != top
    np.copyto(out, below)
    for c in range(1, k - 1):
        below &= scores[c] != top
        out += below
    return out
