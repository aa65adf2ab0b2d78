"""Scene generator determinism/conditions and .mmss container round-trip."""

from __future__ import annotations

import errno
import re

import numpy as np
import pytest

import modalseg.container as container_module
from modalseg.data import (BadMagicError, Dataset, DatasetFormatError,
                           TruncatedDatasetError, VersionMismatchError,
                           generate_dataset, generate_scene, read_dataset,
                           write_dataset)

from helpers import read_frame, reframe


def scenes_equal(a, b) -> bool:
    return (a.seed == b.seed and a.condition == b.condition
            and a.labels.tobytes() == b.labels.tobytes()
            and len(a.modalities) == len(b.modalities)
            and all(x.tobytes() == y.tobytes()
                    for x, y in zip(a.modalities, b.modalities)))


# ---------------------------------------------------------------------------
# generation


def test_same_seed_is_bit_identical():
    a = generate_scene(1234, 64, 64, 5)
    b = generate_scene(1234, 64, 64, 5)
    assert scenes_equal(a, b)


def test_scene_geometry_and_ranges():
    scene = generate_scene(7, 64, 96, 5, m=4)
    assert len(scene.modalities) == 4
    for img in scene.modalities:
        assert img.shape == (3, 64, 96)
        assert img.dtype == np.float32
        assert img.min() >= 0.0 and img.max() <= 1.0
    assert scene.labels.shape == (64, 96)
    assert scene.labels.dtype == np.uint8
    interior = scene.labels[2:-2, 2:-2]
    assert interior.max() < 5
    assert np.all(scene.labels[:2, :] == 255)
    assert np.all(scene.labels[:, -2:] == 255)


def test_k1_gives_single_class_map():
    scene = generate_scene(9, 32, 32, 1)
    interior = scene.labels[2:-2, 2:-2]
    assert np.all(interior == 0)


def test_invalid_dims_rejected():
    for h, w in [(48, 64), (0, 64), (64, 0), (-32, 64)]:
        with pytest.raises(ValueError, match="positive multiples of 32"):
            generate_scene(0, h, w, 5)
    with pytest.raises(ValueError):
        generate_scene(0, 64, 64, 17)
    with pytest.raises(ValueError):
        generate_scene(0, 64, 64, 0)
    with pytest.raises(ValueError):
        generate_scene(0, 64, 64, 5, m=5)
    with pytest.raises(ValueError):
        generate_scene(0, 64, 64, 5, p_night=1.5)


def test_night_dims_only_the_camera():
    for seed in range(12):
        day = generate_scene(seed, 64, 64, 5, p_night=0.0)
        night = generate_scene(seed, 64, 64, 5, p_night=1.0)
        assert day.condition == "day" and night.condition == "night"
        assert day.labels.tobytes() == night.labels.tobytes()
        for i in (1, 2, 3):  # depth, event, range are weather-blind
            assert day.modalities[i].tobytes() == night.modalities[i].tobytes()
        assert day.modalities[0].tobytes() != night.modalities[0].tobytes()
        assert night.modalities[0].mean() < 0.25 * day.modalities[0].mean()


def test_event_is_sparse_edge_map():
    scene = generate_scene(21, 64, 64, 5)
    event = scene.modalities[2]
    assert set(np.unique(event)) <= {0.0, 1.0}
    density = event.mean()
    assert 0.0 < density < 0.3


def test_range_is_dropped_out_depth():
    scene = generate_scene(22, 64, 64, 5)
    depth, rng_img = scene.modalities[1], scene.modalities[3]
    zero_frac = (rng_img == 0).mean()
    assert 0.8 < zero_frac < 0.97
    kept = rng_img != 0
    assert np.array_equal(rng_img[kept], depth[kept])


def test_depth_condition_independent_and_in_range():
    scene = generate_scene(23, 64, 64, 5)
    depth = scene.modalities[1]
    assert depth.min() >= 0.1 and depth.max() <= 1.0
    assert np.array_equal(depth[0], depth[1]) and np.array_equal(depth[0], depth[2])


def test_generate_dataset_counts_and_m3():
    ds = generate_dataset(5, count=4, h=32, w=32, k=3, m=3, p_night=0.5)
    assert len(ds.scenes) == 4
    assert ds.modality_names == ("camera", "depth", "event")
    assert ds.num_classes == 3
    seeds = [s.seed for s in ds.scenes]
    assert len(set(seeds)) == 4


# ---------------------------------------------------------------------------
# container


def small_dataset(seed=31, count=3):
    return generate_dataset(seed, count=count, h=32, w=64, k=4, m=4, p_night=0.5)


def test_round_trip_bit_identical(tmp_path):
    ds = small_dataset()
    path = tmp_path / "scenes.mmss"
    write_dataset(path, ds)
    back = read_dataset(path)
    assert back.num_classes == ds.num_classes
    assert back.modality_names == ds.modality_names
    assert len(back.scenes) == len(ds.scenes)
    for a, b in zip(ds.scenes, back.scenes):
        assert scenes_equal(a, b)


def test_bad_magic(tmp_path):
    path = tmp_path / "scenes.mmss"
    write_dataset(path, small_dataset())
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagicError):
        read_dataset(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "scenes.mmss"
    write_dataset(path, small_dataset())
    blob = bytearray(path.read_bytes())
    for version in (1, 99):  # 1 is the earlier format, which is not read
        blob[4:8] = version.to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError):
            read_dataset(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "scenes.mmss"
    write_dataset(path, small_dataset())
    blob = path.read_bytes()
    path.write_bytes(blob[:-100])
    with pytest.raises(TruncatedDatasetError):
        read_dataset(path)


def test_count_mismatch_is_truncation_error(tmp_path):
    path = tmp_path / "scenes.mmss"
    write_dataset(path, small_dataset(count=3))

    def promise_seven_scenes(header):
        for _, _, shape in header["arrays"]:
            shape[0] = 7

    reframe(path, edit_header=promise_seven_scenes)
    with pytest.raises(TruncatedDatasetError):
        read_dataset(path)


def test_tiny_file_is_truncation_error(tmp_path):
    path = tmp_path / "scenes.mmss"
    path.write_bytes(b"MMSS\x01")
    with pytest.raises(TruncatedDatasetError):
        read_dataset(path)


def test_class_count_outside_generator_range_is_format_error(tmp_path):
    path = tmp_path / "scenes.mmss"
    for k in (0, 17):
        write_dataset(path, small_dataset())
        reframe(path, edit_header=lambda header: header["meta"].update(num_classes=k))
        with pytest.raises(DatasetFormatError, match="class count"):
            read_dataset(path)


def test_class_count_below_a_label_is_format_error(tmp_path):
    ds = small_dataset()
    assert max(int(s.labels[s.labels != 255].max()) for s in ds.scenes) >= 2
    path = tmp_path / "scenes.mmss"
    write_dataset(path, ds)
    reframe(path, edit_header=lambda header: header["meta"].update(num_classes=2))  # was 4
    with pytest.raises(DatasetFormatError, match="label outside"):
        read_dataset(path)


def test_single_class_dataset_round_trips(tmp_path):
    ds = generate_dataset(5, count=2, h=32, w=32, k=1, m=2)
    path = tmp_path / "scenes.mmss"
    write_dataset(path, ds)
    back = read_dataset(path)
    assert back.num_classes == 1
    assert all(scenes_equal(a, b) for a, b in zip(ds.scenes, back.scenes))


def test_errors_share_a_base_class():
    for exc in (BadMagicError, VersionMismatchError, TruncatedDatasetError):
        assert issubclass(exc, DatasetFormatError)


def test_write_rejects_empty_dataset(tmp_path):
    with pytest.raises(ValueError):
        write_dataset(tmp_path / "x.mmss", Dataset(3, ("camera",), []))


def _write_rejected(tmp_path, ds, match):
    path = tmp_path / "scenes.mmss"
    with pytest.raises(DatasetFormatError, match=match):
        write_dataset(path, ds)
    assert list(tmp_path.iterdir()) == []  # rejected before any file was opened


def test_write_rejects_class_count_outside_range(tmp_path):
    for k in (0, 17):
        ds = small_dataset()
        ds.num_classes = k
        _write_rejected(tmp_path, ds, "class count")


def test_write_rejects_labels_the_reader_would_reject(tmp_path):
    for bad in (-1, 256, 4, 254):  # -1 and 256 would wrap to 255 and 0 as uint8
        ds = small_dataset()
        labels = ds.scenes[1].labels.astype(np.int64)
        labels[5, 7] = bad
        ds.scenes[1].labels = labels
        _write_rejected(tmp_path, ds, "label outside")
    ds = small_dataset()
    ds.num_classes = 2  # below a label the scenes hold
    _write_rejected(tmp_path, ds, "label outside")


def test_write_rejects_modality_images_that_are_not_3_x_h_x_w(tmp_path):
    for shape in ((1, 32, 64), (3, 32, 32), (3, 64, 32), (3 * 32 * 64,)):
        ds = small_dataset()
        ds.scenes[2].modalities[1] = np.zeros(shape, dtype=np.float32)
        _write_rejected(tmp_path, ds, "modality image")


def test_failed_dataset_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "scenes.mmss"
    write_dataset(path, small_dataset(seed=31))
    before = path.read_bytes()
    opened = []

    class DiskFull:
        """File that takes 100 bytes, then fails the write that passes them."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()
            return False

        def write(self, data):
            self.fh.write(data[:100])
            raise OSError(errno.ENOSPC, "no space left on device")

    def failing_open(file, mode="r", *args, **kwargs):
        opened.append(file)
        return DiskFull(open(file, mode, *args, **kwargs))

    monkeypatch.setattr(container_module, "open", failing_open, raising=False)
    with pytest.raises(OSError):
        write_dataset(path, small_dataset(seed=32))
    monkeypatch.undo()
    assert opened and all(p != path for p in opened)
    assert path.read_bytes() == before
    assert all(scenes_equal(a, b) for a, b in
               zip(read_dataset(path).scenes, small_dataset(seed=31).scenes))
    assert [p.name for p in tmp_path.iterdir()] == ["scenes.mmss"]


def test_write_rejects_non_finite_images_naming_scene_and_modality(tmp_path):
    for bad in (np.nan, np.inf, -np.inf, 1e39):  # 1e39 is finite, but not as float32
        ds = small_dataset()
        img = ds.scenes[2].modalities[1].astype(np.float64)
        img[1, 3, 4] = bad
        ds.scenes[2].modalities[1] = img
        _write_rejected(tmp_path, ds, r"scene 2 \(seed \d+\): modality 'depth' image "
                                      r"holds a non-finite value")


def test_non_finite_image_value_is_format_error_naming_scene_and_modality(tmp_path):
    path = tmp_path / "scenes.mmss"
    for bad in (np.nan, np.inf, -np.inf):
        def poison(arrays):
            arrays["images"][2, 3, 0, 0, 17] = bad  # scene 2, modality 3 ('range')

        write_dataset(path, small_dataset())
        reframe(path, edit_arrays=poison)
        with pytest.raises(DatasetFormatError,
                           match=r"scene 2 \(seed \d+\): modality 'range' image"):
            read_dataset(path)


def test_header_byte_flips_give_typed_error_or_exact_round_trip(tmp_path):
    """Every flip of 1-3 bytes of the magic, version, header length or
    header is a ``DatasetFormatError``; the checksum leaves none loading."""
    path = tmp_path / "scenes.mmss"
    write_dataset(path, small_dataset(count=1))
    blob = path.read_bytes()
    _, end = read_frame(blob)
    rng = np.random.default_rng(2024)
    for _ in range(300):
        flipped = bytearray(blob)
        for pos in rng.integers(0, end, size=rng.integers(1, 4)):
            flipped[pos] ^= int(rng.integers(1, 256))
        path.write_bytes(bytes(flipped))
        with pytest.raises(DatasetFormatError):
            read_dataset(path)


def test_payload_byte_flips_give_typed_error_or_exact_round_trip(tmp_path):
    """Every flip of 1-3 bytes of the labels, images or checksum trailer is
    a ``DatasetFormatError``; the checksum leaves none loading."""
    path = tmp_path / "scenes.mmss"
    write_dataset(path, small_dataset(count=1))
    blob = path.read_bytes()
    _, start = read_frame(blob)
    pixels = start + 32 * 64  # the one scene's images follow its labels
    rng = np.random.default_rng(2025)
    for case in range(400):
        flipped = bytearray(blob)
        if case < 300:  # arbitrary bytes: labels, pixels or the trailer
            for pos in rng.integers(start, len(blob), size=rng.integers(1, 4)):
                flipped[pos] ^= int(rng.integers(1, 256))
        else:  # every exponent bit of one pixel set: an Inf or a NaN
            pos = pixels + 4 * int(rng.integers((len(blob) - 4 - pixels) // 4))
            flipped[pos + 2] |= 0x80
            flipped[pos + 3] |= 0x7F
        path.write_bytes(bytes(flipped))
        with pytest.raises(DatasetFormatError):
            read_dataset(path)


def test_undecodable_modality_name_is_format_error(tmp_path):
    path = tmp_path / "scenes.mmss"
    write_dataset(path, small_dataset(count=1))
    # 0xFF as the first byte of the first name is never valid UTF-8
    reframe(path, edit_raw=lambda raw: raw.replace(b'"camera"', b'"\xffamera"', 1))
    with pytest.raises(DatasetFormatError, match="UTF-8"):
        read_dataset(path)


def test_write_rejects_a_condition_other_than_day_or_night(tmp_path):
    """Any other condition is rejected, not written as day."""
    for bad in ("dusk", "Night", None):
        ds = small_dataset()
        ds.scenes[1].condition = bad
        _write_rejected(tmp_path, ds, r"scene 1: condition .* is not one of")


def test_write_rejects_a_seed_outside_u64(tmp_path):
    """A seed that is not an integer in [0, 2**64) is a typed error."""
    for bad in (-1, 2**64, 1.5, True):
        ds = small_dataset()
        ds.scenes[2].seed = bad
        _write_rejected(tmp_path, ds, r"scene 2: seed .* is not an integer")


@pytest.mark.parametrize("key, what, bad", [
    ("conditions", "condition", "dusk"), ("conditions", "condition", 1),
    ("seeds", "seed", -1), ("seeds", "seed", 2**64), ("seeds", "seed", 1.0),
    ("seeds", "seed", True)])
def test_read_rejects_a_bad_seed_or_condition_in_the_header(tmp_path, key, what, bad):
    def spoil(header):
        header["meta"][key][1] = bad

    path = tmp_path / "scenes.mmss"
    write_dataset(path, small_dataset())
    reframe(path, edit_header=spoil)
    with pytest.raises(DatasetFormatError, match=re.escape(f"scene 1: {what} {bad!r} is")):
        read_dataset(path)
