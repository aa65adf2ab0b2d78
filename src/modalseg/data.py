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

A ``.mmss`` file (format version 2) is a ``container`` file. Its header
holds the class count, the modality names, and each scene's seed and
condition by name; its arrays are one N x H x W uint8 ``labels`` and one
N x M x 3 x H x W float32 ``images``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import container
from .encoder import IMAGE_CHANNELS, TOTAL_DOWNSAMPLE
from .head import IGNORE_LABEL
from .tensor import _interp_matrix

MODALITY_NAMES = ("camera", "depth", "event", "range")
CONDITIONS = ("day", "night")
_META = ("num_classes", "modality_names", "seeds", "conditions")  # a .mmss header's fields
MAGIC = b"MMSS"
FORMAT_VERSION = 2
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


_ERRORS = (DatasetFormatError, BadMagicError, VersionMismatchError, TruncatedDatasetError)


@dataclass
class ModalityScene:
    seed: int
    condition: str  # one of CONDITIONS
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


def _check_dataset(k, names, seeds, conditions, labels: np.ndarray,
                   images: np.ndarray) -> None:
    """What ``read_dataset`` checks of a dataset's content, and
    ``write_dataset`` before it opens a file: the class count, each scene's
    seed and condition, its labels, and that its images are finite."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) \
            or not 1 <= k <= MAX_CLASSES:
        raise DatasetFormatError(f"class count {k!r} outside [1, {MAX_CLASSES}]")
    for index, (seed, condition) in enumerate(zip(seeds, conditions)):
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) \
                or not 0 <= seed < 2**64:
            raise DatasetFormatError(f"scene {index}: seed {seed!r} is not an "
                                     f"integer in [0, 2**64)")
        if condition not in CONDITIONS:
            raise DatasetFormatError(f"scene {index}: condition {condition!r} is "
                                     f"not one of {CONDITIONS}")
    if np.any(((labels < 0) | (labels >= k)) & (labels != IGNORE_LABEL)):
        raise DatasetFormatError(f"label outside [0, {k}) in a scene")
    for index, (seed, scene_images) in enumerate(zip(seeds, images)):
        for name, img in zip(names, scene_images):
            if not np.isfinite(img).all():
                raise DatasetFormatError(f"scene {index} (seed {seed}): modality "
                                         f"{name!r} image holds a non-finite value")


def write_dataset(path, dataset: Dataset) -> None:
    """Write a ``.mmss`` file atomically. Raises ``DatasetFormatError``, before
    any file is opened, for anything ``read_dataset`` would reject."""
    scenes, names = dataset.scenes, dataset.modality_names
    if not scenes:
        raise ValueError("refusing to write an empty dataset")
    try:
        labels = np.stack([scene.labels for scene in scenes])
        with np.errstate(over="ignore"):  # overflow is rejected as non-finite
            images = np.array([scene.modalities for scene in scenes], dtype="<f4")
        if labels.ndim != 3 or images.shape != (len(scenes), len(names), IMAGE_CHANNELS,
                                                *labels.shape[1:]):
            raise ValueError(f"shapes {labels.shape} and {images.shape}")
    except ValueError as exc:  # np.stack and np.array refuse unequal sizes
        raise DatasetFormatError(f"label maps and modality images are not all H x W and "
                                 f"{len(names)} x {IMAGE_CHANNELS} x H x W: {exc}") from None
    seeds, conditions = [s.seed for s in scenes], [s.condition for s in scenes]
    _check_dataset(dataset.num_classes, names, seeds, conditions, labels, images)
    meta = dict(zip(_META, (int(dataset.num_classes), list(names),
                            [int(seed) for seed in seeds], conditions)))
    container.write(path, MAGIC, FORMAT_VERSION, meta,
                    [("labels", "|u1", labels), ("images", "<f4", images)])


def _check_header(meta: dict, table) -> tuple:
    """A ``.mmss`` header's class count, modality names, seeds and
    conditions, once its fields are all there, its lists are lists, and its
    array table holds one label map and M images for each seed."""
    if set(meta) != set(_META):
        raise DatasetFormatError(f"header fields {sorted(meta)} are not {list(_META)}")
    k, names, seeds, conditions = (meta[key] for key in _META)
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)
            and isinstance(seeds, list) and isinstance(conditions, list)
            and len(seeds) == len(conditions)):
        raise DatasetFormatError("header does not list modality names, and one "
                                 "seed and one condition per scene")
    hw = table[0][2][1:] if table else ()
    n, m = len(seeds), len(names)
    if len(hw) != 2 or table != [("labels", "|u1", (n, *hw)),
                                 ("images", "<f4", (n, m, IMAGE_CHANNELS, *hw))]:
        raise DatasetFormatError(f"array table is not {n} label maps and {n} x {m} "
                                 f"images of {IMAGE_CHANNELS} x H x W: {table}")
    return k, tuple(names), seeds, conditions


def read_dataset(path) -> Dataset:
    """Read a ``.mmss`` file; any flaw in it is a ``DatasetFormatError``. Each
    scene's label map and images are views of the file's two arrays."""
    (k, names, seeds, conditions), arrays = container.read(
        path, MAGIC, FORMAT_VERSION, _ERRORS, _check_header)
    _check_dataset(k, names, seeds, conditions, arrays["labels"], arrays["images"])
    return Dataset(num_classes=k, modality_names=names, scenes=[
        ModalityScene(seed, condition, list(images), labels) for seed, condition, images, labels
        in zip(seeds, conditions, arrays["images"], arrays["labels"])])
