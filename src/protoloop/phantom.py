"""Seeded synthetic volumes for end-to-end runs with known ground truth.

Each foreground class is an analytic ellipsoid (or a union of two) rasterized
at voxel centers, with per-volume jitter of center and radii and Gaussian
intensity noise on top of per-class means.  The first volume is the labeled
template; ground truth for every volume is written to a separate truth
directory so pipeline quality can be tracked without leaking labels into the
manifest.

A volume is synthesized one slab of whole d-planes, about ``_SLAB_VOXELS``
voxels, at a time: its masks are rasterized into a uint8 label volume and
its classes checked, then its normals are drawn and its class means added
into a float32 intensity volume.  No float64 array wider than a slab is made,
and the slab buffers and the float32 volume are reused by every volume of a
dataset.  The normals are drawn in C order, so the slabs' draws are the
values of one whole-volume draw and every file is the same byte for byte.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .volume import (
    DatasetManifest,
    IntensityVolume,
    JsonRules,
    LabelVolume,
    Shape3,
    VolumeEntry,
    from_doc,
    read_json,
    save_array,
    save_manifest,
    write_json,
)

__all__ = ["ClassShape", "PhantomSpec", "generate", "load_spec", "save_spec"]

_FAMILIES = ("ellipsoid", "two_ellipsoids")

# Fixed secondary-lobe convention for the two-ellipsoid family: a smaller copy
# offset along the h axis.
_LOBE_OFFSET = 0.8   # times the main h radius
_LOBE_SCALE = 0.6    # radius scale of the secondary lobe

_MAX_JITTER_ATTEMPTS = 50


@dataclass(frozen=True)
class ClassShape:
    """Geometry and intensity of one foreground class."""

    family: str = "ellipsoid"
    center: tuple[float, float, float] = (0.5, 0.5, 0.5)  # fractional coordinates
    radii: tuple[float, float, float] = (4.0, 4.0, 4.0)   # voxels
    intensity_mean: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown shape family {self.family!r}")
        if len(self.center) != 3 or len(self.radii) != 3:
            raise ValueError("center and radii must have three components")
        if any(r <= 0 for r in self.radii):
            raise ValueError("radii must be positive")


@dataclass(frozen=True)
class PhantomSpec:
    num_volumes: int
    shape: Shape3
    num_classes: int
    classes: tuple[ClassShape, ...]
    background_mean: float = 0.0
    noise_sigma: float = 0.1
    center_jitter: float = 0.0  # max |offset| in voxels, uniform per axis
    radius_jitter: float = 0.0  # max |change| in voxels, uniform per axis
    hard_fraction: float = 0.0  # trailing fraction of volumes with extra noise
    hard_sigma: float | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if self.num_volumes < 2:
            raise ValueError("need at least the template plus one pool volume")
        if not 2 <= self.num_classes <= 256:
            raise ValueError(f"num_classes={self.num_classes} outside [2, 256]")
        if len(self.classes) != self.num_classes - 1:
            raise ValueError(
                f"expected {self.num_classes - 1} class shapes, got {len(self.classes)}"
            )
        if self.noise_sigma < 0 or (self.hard_sigma is not None and self.hard_sigma < 0):
            raise ValueError("noise sigma must be >= 0")
        if not 0.0 <= self.hard_fraction < 1.0:
            raise ValueError("hard_fraction must be in [0, 1)")
        if self.center_jitter < 0 or self.radius_jitter < 0:
            raise ValueError("jitter ranges must be >= 0")
        for cs in self.classes:
            self._check_fits(cs)

    def _check_fits(self, cs: ClassShape) -> None:
        """Every jittered lobe must stay inside the volume."""
        extents = self.shape.as_tuple()
        slack_c = self.center_jitter
        slack_r = self.radius_jitter
        lobes = [(cs.center, cs.radii)]
        if cs.family == "two_ellipsoids":
            shifted = (
                cs.center[0],
                cs.center[1] + _LOBE_OFFSET * cs.radii[1] / extents[1],
                cs.center[2],
            )
            lobes.append((shifted, tuple(r * _LOBE_SCALE for r in cs.radii)))
        for center, radii in lobes:
            for axis in range(3):
                c = center[axis] * extents[axis]
                reach = radii[axis] + slack_r + slack_c
                if c - reach < 0 or c + reach > extents[axis]:
                    raise ValueError(
                        f"infeasible geometry: class lobe exceeds volume on axis {axis}"
                    )

    @property
    def hard_count(self) -> int:
        return int(round(self.hard_fraction * self.num_volumes))


# voxels per slab of synthesis: every volume of up to 64^3 voxels is one slab,
# and a larger one never holds a float64 array of more than 2 MB
_SLAB_VOXELS = 1 << 18


class _Scratch:
    """One slab's float64 buffer (the mask's squared distances, then the
    noise) and two bool buffers, and one float32 volume, reused by every
    volume of a dataset: after the first volume, synthesis touches no new
    memory but the labels it keeps."""

    def __init__(self, shape: Shape3):
        d, h, w = shape.as_tuple()
        step = max(1, _SLAB_VOXELS // (h * w))
        self.slabs = [(d0, min(d0 + step, d)) for d0 in range(0, d, step)]
        n = min(step, d) * h * w
        self.f64 = np.empty(n)
        self.mask, self.lobe = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
        self.intensity = np.empty((d, h, w), dtype=np.float32)

    def view(self, buf: np.ndarray, d0: int, d1: int) -> np.ndarray:
        """``buf``'s first voxels shaped as planes [d0, d1)."""
        _, h, w = self.intensity.shape
        return buf[: (d1 - d0) * h * w].reshape(d1 - d0, h, w)


def _ellipsoid_mask(
    shape: Shape3, center: np.ndarray, radii: np.ndarray, d0: int, q: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Voxels of the planes from ``d0`` on whose centers (i + 0.5) fall inside
    the analytic ellipsoid, in ``out``; ``q`` is float64 scratch of its shape."""
    dd, hh, ww = (
        ((np.arange(n) + 0.5) - c) / r
        for n, c, r in zip(shape.as_tuple(), center, radii)
    )
    dd, hh, ww = np.meshgrid(dd[d0:d0 + len(q)], hh, ww, indexing="ij", sparse=True)
    np.add(dd**2 + hh**2, ww**2, out=q)
    return np.less_equal(q, 1.0, out=out)


def _rasterize(
    shape: Shape3, cs: ClassShape, center: np.ndarray, radii: np.ndarray,
    scratch: _Scratch, d0: int, d1: int,
) -> np.ndarray:
    q = scratch.view(scratch.f64, d0, d1)
    mask = _ellipsoid_mask(shape, center, radii, d0, q, scratch.view(scratch.mask, d0, d1))
    if cs.family == "two_ellipsoids":
        shifted = center.copy()
        shifted[1] += _LOBE_OFFSET * radii[1]
        mask |= _ellipsoid_mask(
            shape, shifted, radii * _LOBE_SCALE, d0, q, scratch.view(scratch.lobe, d0, d1)
        )
    return mask


def _volume_labels(spec: PhantomSpec, rng: np.random.Generator, scratch: _Scratch) -> np.ndarray:
    """Jittered class masks; retried until every class is present.

    Each attempt draws every class's jitter first, then rasterizes the
    classes and checks which are present one slab at a time (rasterizing
    draws nothing, so the stream is the same as when each class was drawn
    just before its mask).
    """
    extents = np.array(spec.shape.as_tuple(), dtype=np.float64)
    labels = np.empty(spec.shape.as_tuple(), dtype=np.uint8)
    for _ in range(_MAX_JITTER_ATTEMPTS):
        placed = []
        for cs in spec.classes:
            center = np.array(cs.center) * extents
            center += rng.uniform(-spec.center_jitter, spec.center_jitter, size=3)
            radii = np.array(cs.radii) + rng.uniform(
                -spec.radius_jitter, spec.radius_jitter, size=3
            )
            placed.append((cs, center, np.maximum(radii, 0.5)))
        present = np.zeros(spec.num_classes, dtype=bool)
        for d0, d1 in scratch.slabs:
            slab = labels[d0:d1]
            slab.fill(0)
            for cls, (cs, center, radii) in enumerate(placed, start=1):
                slab[_rasterize(spec.shape, cs, center, radii, scratch, d0, d1)] = cls
            flags = scratch.view(scratch.mask, d0, d1)
            for cls in np.flatnonzero(~present).tolist():
                present[cls] = np.equal(slab, cls, out=flags).any()
        if present.all():
            return labels
    raise ValueError("could not place every class after bounded jitter retries")


def _volume_intensity(
    spec: PhantomSpec, labels: np.ndarray, sigma: float, rng: np.random.Generator, scratch: _Scratch
) -> np.ndarray:
    """float32 of ``normal(0, sigma) + class mean``, one slab at a time, in ``scratch.intensity``.

    ``normal(0.0, sigma)`` draws ``0.0 + sigma * z`` for each standard normal
    ``z`` in C order, so the slabs' standard normals, scaled and added to
    ``0.0`` (which turns a ``-0.0`` product into ``+0.0``), are the values of
    one whole-volume draw and leave the stream where it would.
    """
    means = [spec.background_mean] + [cs.intensity_mean for cs in spec.classes]
    for d0, d1 in scratch.slabs:
        noise = rng.standard_normal(out=scratch.view(scratch.f64, d0, d1))
        noise *= sigma
        noise += 0.0
        # each voxel gets its class mean added once (noise + mean is mean +
        # noise bit for bit), with no index array cast from the labels
        of_class = scratch.view(scratch.mask, d0, d1)
        for cls, mean in enumerate(means):
            np.add(noise, mean, out=noise, where=np.equal(labels[d0:d1], cls, out=of_class))
        scratch.intensity[d0:d1] = noise
    return scratch.intensity


def generate(
    spec: PhantomSpec, out_dir: str | Path
) -> tuple[DatasetManifest, dict[str, LabelVolume]]:
    """Write a synthetic dataset under ``out_dir`` and return (manifest, truth).

    Volume ``vol_000`` is the labeled template, the only entry with a label.
    Ground truth for every volume goes to ``out_dir/truth/``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    truth_dir = out_dir / "truth"
    truth_dir.mkdir(exist_ok=True)

    n_hard = spec.hard_count
    scratch = _Scratch(spec.shape)
    entries = []
    truth: dict[str, LabelVolume] = {}
    for i in range(spec.num_volumes):
        vol_id = f"vol_{i:03d}"
        # independent per-volume streams: generation order never matters
        rng = np.random.default_rng([spec.seed, i])
        labels = LabelVolume(spec.shape, spec.num_classes, _volume_labels(spec, rng, scratch))
        truth[vol_id] = labels
        sigma = spec.noise_sigma
        if spec.hard_sigma is not None and i >= spec.num_volumes - n_hard:
            sigma = spec.hard_sigma

        # written before the next volume refills the scratch volume
        intensity_name = f"{vol_id}.intensity.vxar"
        save_array(
            IntensityVolume(spec.shape, _volume_intensity(spec, labels.data, sigma, rng, scratch)),
            out_dir / intensity_name,
        )
        save_array(labels, truth_dir / f"{vol_id}.label.vxar")

        label_name = None
        if i == 0:
            label_name = f"{vol_id}.label.vxar"
            save_array(labels, out_dir / label_name)
        entries.append(
            VolumeEntry(vol_id=vol_id, intensity=intensity_name, label=label_name)
        )

    manifest = DatasetManifest(
        num_classes=spec.num_classes,
        entries=tuple(entries),
        base_dir=out_dir,
    )
    save_manifest(manifest, out_dir / "manifest.json")
    return manifest, truth


# ---------------------------------------------------------------------------
# JSON spec files for the CLI

# a class must set its geometry and intensity, though ClassShape has defaults for them
_SPEC = JsonRules(
    PhantomSpec, nested={"classes": JsonRules(ClassShape, required=("center", "radii", "intensity_mean"))}
)


def load_spec(path: str | Path) -> PhantomSpec:
    """The spec at ``path``, read by ``volume.from_doc``, which refuses what it
    cannot read by file and key path."""
    return from_doc(_SPEC, read_json(path), path)


def save_spec(spec: PhantomSpec, path: str | Path) -> None:
    """Write ``spec`` as the JSON object ``load_spec`` reads back: each field by its name."""
    doc = asdict(spec) | {"shape": list(spec.shape.as_tuple())}
    write_json(path, doc)
