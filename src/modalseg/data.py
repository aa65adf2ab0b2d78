"""Seeded multi-modal scene generator and the .mmss dataset container.

A scene is a K-class label map (random rectangles and ellipses over a
background class) rendered through four toy sensors:

- camera: per-class color under a smooth illumination field; at night the
  image is dimmed to 15% and buried in Gaussian noise, so the camera is the
  designated fragile modality for night scenes
- depth: per-class constant distance plus a vertical ramp, weather-blind
- event: binary label-edge map, weather-blind and spatially sparse
- range: the depth image with 90% of pixels dropped to zero

Every random draw comes from a purpose-specific stream spawned from the
scene seed, so the condition changes the camera image and nothing else.
Images are float32 in [0,1]; labels are uint8 with 255 marking the 2-pixel
annotation border that losses and metrics must skip.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoder import IMAGE_CHANNELS, TOTAL_DOWNSAMPLE
from .head import IGNORE_LABEL
from .tensor import _interp_matrix

MODALITY_NAMES = ("camera", "depth", "event", "range")
MAGIC = b"MMSS"
FORMAT_VERSION = 1
BORDER = 2  # annotation border width, labeled 255
MAX_CLASSES = 16

NIGHT_DIM = 0.15
NIGHT_NOISE_SIGMA = 0.2
RANGE_DROPOUT = 0.9
ILLUM_GRID = 4  # side of the coarse grid the illumination field is upsampled from


class DatasetFormatError(ValueError):
    """Malformed .mmss container."""


class BadMagicError(DatasetFormatError):
    pass


class VersionMismatchError(DatasetFormatError):
    pass


class TruncatedDatasetError(DatasetFormatError):
    pass


@dataclass
class ModalityScene:
    seed: int
    condition: str  # "day" or "night"
    modalities: list[np.ndarray]  # each float32, 3 x H x W, values in [0,1]
    labels: np.ndarray  # uint8, H x W, class ids plus 255 border


@dataclass
class Dataset:
    num_classes: int
    modality_names: tuple[str, ...]
    scenes: list[ModalityScene]


# ---------------------------------------------------------------------------
# generation


def _paint_label_map(rng: np.random.Generator, h: int, w: int, k: int) -> np.ndarray:
    labels = np.zeros((h, w), dtype=np.int64)
    yy, xx = np.mgrid[0:h, 0:w]
    for _ in range(int(rng.integers(3, 7))):
        cls = int(rng.integers(1, k)) if k > 1 else 0
        cy, cx = rng.integers(0, h), rng.integers(0, w)
        ry = int(rng.integers(h // 8, h // 3 + 1))
        rx = int(rng.integers(w // 8, w // 3 + 1))
        if rng.random() < 0.5:
            mask = (np.abs(yy - cy) <= ry) & (np.abs(xx - cx) <= rx)
        else:
            mask = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
        labels[mask] = cls
    return labels


def _smooth_field(rng: np.random.Generator, h: int, w: int,
                  lo: float, hi: float) -> np.ndarray:
    """Bilinear upsample of a coarse uniform grid: a gentle illumination field."""
    coarse = rng.uniform(lo, hi, size=(ILLUM_GRID, ILLUM_GRID))
    return _interp_matrix(ILLUM_GRID, h) @ coarse @ _interp_matrix(ILLUM_GRID, w).T


def _render_camera(class_map, k, rng_cam, rng_noise, night: bool) -> np.ndarray:
    h, w = class_map.shape
    colors = rng_cam.uniform(0.7, 1.0, size=(k, 3))
    illum = _smooth_field(rng_cam, h, w, 0.9, 1.0)
    day = colors[class_map].transpose(2, 0, 1) * illum[None]
    if not night:
        return day.astype(np.float32)
    noisy = NIGHT_DIM * day + rng_noise.normal(0.0, NIGHT_NOISE_SIGMA, size=day.shape)
    return np.clip(noisy, 0.0, 1.0).astype(np.float32)


def _render_depth(class_map, k, rng_depth) -> np.ndarray:
    h, w = class_map.shape
    depths = rng_depth.uniform(0.15, 0.8, size=k)
    ramp = 0.15 * (np.arange(h) / max(h - 1, 1))
    plane = depths[class_map] + ramp[:, None]
    return np.repeat(plane[None], 3, axis=0).astype(np.float32)


def _render_event(class_map) -> np.ndarray:
    edges = np.zeros(class_map.shape, dtype=bool)
    edges[:-1, :] |= class_map[:-1, :] != class_map[1:, :]
    edges[:, :-1] |= class_map[:, :-1] != class_map[:, 1:]
    return np.repeat(edges[None].astype(np.float32), 3, axis=0)


def _render_range(depth: np.ndarray, rng_range) -> np.ndarray:
    keep = rng_range.random(depth.shape[1:]) >= RANGE_DROPOUT
    return (depth * keep[None]).astype(np.float32)


def generate_scene(seed: int, h: int, w: int, k: int, m: int = 4,
                   p_night: float = 0.5) -> ModalityScene:
    """Render one scene; identical seeds give bit-identical scenes."""
    if h < 1 or w < 1 or h % TOTAL_DOWNSAMPLE or w % TOTAL_DOWNSAMPLE:
        raise ValueError(f"scene size {h}x{w} must be positive multiples of "
                         f"{TOTAL_DOWNSAMPLE}")
    if not 1 <= k <= MAX_CLASSES:
        raise ValueError(f"class count must be in [1, {MAX_CLASSES}]")
    if not 1 <= m <= len(MODALITY_NAMES):
        raise ValueError(f"modality count must be in [1, {len(MODALITY_NAMES)}]")
    if not 0.0 <= p_night <= 1.0:
        raise ValueError("p_night must be a probability")

    streams = np.random.SeedSequence(seed).spawn(6)
    rng_label, rng_cond, rng_cam, rng_noise, rng_depth, rng_range = (
        np.random.Generator(np.random.PCG64(s)) for s in streams)

    class_map = _paint_label_map(rng_label, h, w, k)
    night = bool(rng_cond.random() < p_night)

    # in MODALITY_NAMES order; each sensor has its own streams, so m changes no image
    depth = _render_depth(class_map, k, rng_depth)
    sensors = [_render_camera(class_map, k, rng_cam, rng_noise, night), depth,
               _render_event(class_map), _render_range(depth, rng_range)]

    labels = class_map.astype(np.uint8)
    labels[:BORDER, :] = IGNORE_LABEL
    labels[-BORDER:, :] = IGNORE_LABEL
    labels[:, :BORDER] = IGNORE_LABEL
    labels[:, -BORDER:] = IGNORE_LABEL
    return ModalityScene(seed=int(seed), condition="night" if night else "day",
                         modalities=sensors[:m], labels=labels)


def generate_dataset(seed: int, count: int, h: int, w: int, k: int,
                     m: int = 4, p_night: float = 0.5) -> Dataset:
    scene_seeds = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    scenes = [generate_scene(int(s), h, w, k, m, p_night) for s in scene_seeds]
    return Dataset(num_classes=k, modality_names=MODALITY_NAMES[:m], scenes=scenes)


# ---------------------------------------------------------------------------
# container


@contextmanager
def atomic_target(path):
    """Yield a temp path beside ``path``; rename it over ``path`` when the
    block succeeds, delete it when the block fails, so a failed write leaves
    the previous file whole and no temp file behind. There is no fsync: this
    guards against a failed write or a crashed process, not power loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _check_finite(img: np.ndarray, index: int, seed: int, name: str) -> None:
    if not np.isfinite(img).all():
        raise DatasetFormatError(f"scene {index} (seed {seed}): modality {name!r} "
                                 f"image holds a non-finite value")


def write_dataset(path, dataset: Dataset) -> None:
    """Write a ``.mmss`` file atomically. Raises ``DatasetFormatError``, before
    any file is opened, for anything ``read_dataset`` would reject."""
    scenes = dataset.scenes
    if not scenes:
        raise ValueError("refusing to write an empty dataset")
    k = dataset.num_classes
    if not 1 <= k <= MAX_CLASSES:
        raise DatasetFormatError(f"class count {k} outside [1, {MAX_CLASSES}]")
    h, w = scenes[0].labels.shape
    m = len(dataset.modality_names)
    blob = bytearray()
    blob += struct.pack("<4sIIIIII", MAGIC, FORMAT_VERSION, len(scenes), m, h, w, k)
    for name in dataset.modality_names:
        raw = name.encode("utf-8")
        blob += struct.pack("<I", len(raw)) + raw
    for index, scene in enumerate(scenes):
        labels = scene.labels
        if labels.shape != (h, w) or len(scene.modalities) != m:
            raise DatasetFormatError("inconsistent scene geometry in dataset")
        if np.any((labels != IGNORE_LABEL) & ((labels < 0) | (labels >= k))):
            raise DatasetFormatError(f"label outside [0, {k}) in a scene")
        if any(img.shape != (IMAGE_CHANNELS, h, w) for img in scene.modalities):
            raise DatasetFormatError(
                f"modality image is not {IMAGE_CHANNELS} x {h} x {w}")
        blob += struct.pack("<QB", scene.seed, 1 if scene.condition == "night" else 0)
        blob += labels.astype(np.uint8).tobytes()
        for name, img in zip(dataset.modality_names, scene.modalities):
            with np.errstate(over="ignore"):  # overflow is rejected just below
                raw = img.astype("<f4")
            _check_finite(raw, index, scene.seed, name)
            blob += raw.tobytes()
    with atomic_target(path) as tmp, open(tmp, "wb") as fh:
        fh.write(blob)


def read_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 28:
        raise TruncatedDatasetError("file shorter than fixed header")
    magic, version, count, m, h, w, k = struct.unpack_from("<4sIIIIII", blob, 0)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"format version {version}, "
                                   f"reader supports {FORMAT_VERSION}")
    if not 1 <= k <= MAX_CLASSES:
        raise DatasetFormatError(f"class count {k} outside [1, {MAX_CLASSES}]")
    offset = 28
    names = []
    for _ in range(m):
        if offset + 4 > len(blob):
            raise TruncatedDatasetError("truncated modality name table")
        (nlen,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if offset + nlen > len(blob):
            raise TruncatedDatasetError("truncated modality name table")
        try:
            names.append(blob[offset:offset + nlen].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(f"modality name is not UTF-8: {exc}") from exc
        offset += nlen

    image_values = IMAGE_CHANNELS * h * w
    record = 9 + h * w + m * image_values * 4
    if len(blob) - offset != count * record:
        raise TruncatedDatasetError(
            f"payload is {len(blob) - offset} bytes, header promises {count * record}")

    scenes = []
    for index in range(count):
        seed, cond = struct.unpack_from("<QB", blob, offset)
        if cond not in (0, 1):
            raise DatasetFormatError(f"invalid condition byte {cond}")
        offset += 9
        labels = np.frombuffer(blob, dtype=np.uint8, count=h * w,
                               offset=offset).reshape(h, w).copy()
        if np.any((labels >= k) & (labels != IGNORE_LABEL)):
            raise DatasetFormatError(f"label outside [0, {k}) in a scene")
        offset += h * w
        modalities = []
        for name in names:
            img = np.frombuffer(blob, dtype="<f4", count=image_values,
                                offset=offset).reshape(IMAGE_CHANNELS, h, w)
            _check_finite(img, index, seed, name)
            modalities.append(img.astype(np.float32))  # a copy, so it outlives blob
            offset += image_values * 4
        scenes.append(ModalityScene(seed=seed, condition="night" if cond else "day",
                                    modalities=modalities, labels=labels))
    return Dataset(num_classes=k, modality_names=tuple(names), scenes=scenes)
