"""Evaluation harness: subset order, mIoU oracle, inference fusion, reports."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

import modalseg.evaluate as evaluate
import modalseg.tensor as T
from modalseg.data import generate_dataset
from modalseg.encoder import encode_batch
from modalseg.masm import mean_feature
from modalseg.evaluate import (MassReport, ReportFormatError, confusion_matrix,
                               enumerate_subsets, miou, rankings_csv,
                               render_report, report_from_json, report_to_json,
                               run_mass_eval, subset_name)
from modalseg.head import decode, embed
from modalseg.model import infer, infer_logits, init_model_params, scene_tensors
from modalseg.tensor import Tensor, no_grad
from modalseg.train import TrainConfig

from helpers import split_pyramids

MODALITIES = ("camera", "depth", "event", "range")
SMALL_MODEL = TrainConfig(stage_channels=(4, 6, 8, 10), d_embed=8)


def small_model(k=3, m=4, seed=0):
    cfg = SMALL_MODEL.model_config(k, MODALITIES[:m])
    return cfg, init_model_params(cfg, seed)


# ---------------------------------------------------------------------------
# subset enumeration


def test_subsets_m4_order_matches_table_layout():
    assert enumerate_subsets(4) == [
        (0,), (1,), (2,), (3,),
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
        (0, 1, 2, 3)]


def test_subsets_m3():
    assert enumerate_subsets(3) == [
        (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


def test_subsets_m1():
    assert enumerate_subsets(1) == [(0,)]


def test_subsets_counts_and_uniqueness():
    for m in range(1, 9):
        subsets = enumerate_subsets(m)
        assert len(subsets) == 2 ** m - 1
        assert len(set(subsets)) == len(subsets)


def test_subsets_range_errors():
    with pytest.raises(ValueError):
        enumerate_subsets(0)
    with pytest.raises(ValueError):
        enumerate_subsets(9)


def test_subset_names_use_initials():
    assert subset_name((0, 1, 3), MODALITIES) == "CDR"
    assert subset_name((2,), MODALITIES) == "E"


# ---------------------------------------------------------------------------
# metrics


def test_confusion_matrix_hand_case():
    gt = np.array([[0, 0], [1, 255]])
    pred = np.array([[0, 1], [1, 0]])
    cm = confusion_matrix(gt, pred, 2)
    assert np.array_equal(cm, [[1, 1], [0, 1]])
    assert cm.sum() == 3  # the 255 pixel is not scored


def test_confusion_matrix_rejects_out_of_range():
    with pytest.raises(ValueError):
        confusion_matrix(np.array([[2]]), np.array([[0]]), 2)
    with pytest.raises(ValueError):
        confusion_matrix(np.array([[0]]), np.array([[5]]), 2)
    with pytest.raises(ValueError):
        confusion_matrix(np.zeros((2, 2)), np.zeros((3, 2)), 2)


def test_confusion_matrix_of_stacked_grids_equals_one_grid_at_a_time():
    rng = np.random.default_rng(3)
    k = 4
    gt = rng.integers(0, k, size=(6, 5))
    gt[rng.random((6, 5)) < 0.2] = 255
    preds = rng.integers(0, k, size=(15, 6, 5))
    stacked = confusion_matrix(gt, preds, k)
    assert stacked.shape == (15, k, k)
    for cm, pred in zip(stacked, preds):
        assert np.array_equal(cm, confusion_matrix(gt, pred, k))
    assert confusion_matrix(gt, preds.reshape(3, 5, 6, 5), k).shape == (3, 5, k, k)
    r, c = np.argwhere(gt != 255)[0]
    preds[7, r, c] = k  # one bad scored label anywhere in the stack is an error
    with pytest.raises(ValueError):
        confusion_matrix(gt, preds, k)
    with pytest.raises(ValueError):
        confusion_matrix(gt, preds[:, :, :4], k)


def test_miou_perfect_prediction():
    gt = np.random.default_rng(0).integers(0, 3, size=(10, 10))
    cm = confusion_matrix(gt, gt, 3)
    assert miou(cm) == 100.0


def test_miou_hand_case():
    gt = np.array([[0, 0, 1, 1]])
    pred = np.array([[0, 1, 1, 1]])
    cm = confusion_matrix(gt, pred, 2)
    assert abs(miou(cm) - 100 * (1 / 2 + 2 / 3) / 2) < 1e-9


def test_miou_disjoint_is_zero():
    gt = np.zeros((4, 4), dtype=np.int64)
    pred = np.ones((4, 4), dtype=np.int64)
    assert miou(confusion_matrix(gt, pred, 2)) == 0.0


def test_miou_excludes_absent_classes():
    gt = np.array([[0, 1]])
    pred = np.array([[0, 1]])
    cm = confusion_matrix(gt, pred, 5)  # classes 2..4 have zero union
    assert miou(cm) == 100.0


def test_miou_errors_without_scored_pixels():
    with pytest.raises(ValueError):
        miou(np.zeros((3, 3), dtype=np.int64))


def test_miou_matches_set_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        gt = rng.integers(0, k, size=(20, 20))
        pred = rng.integers(0, k, size=(20, 20))
        gt[rng.random((20, 20)) < 0.1] = 255
        got = miou(confusion_matrix(gt, pred, k))

        valid = gt != 255
        ious = []
        for c in range(k):
            gset = set(zip(*np.nonzero(valid & (gt == c))))
            pset = set(zip(*np.nonzero(valid & (pred == c))))
            union = gset | pset
            if union:
                ious.append(len(gset & pset) / len(union))
        assert abs(got - 100.0 * np.mean(ious)) < 1e-9


# ---------------------------------------------------------------------------
# inference fusion


def eval_dataset(count=2, seed=7, m=4, k=3):
    return generate_dataset(seed, count=count, h=32, w=32, k=k, m=m, p_night=0.5)


def test_singleton_subset_equals_bare_pipeline():
    cfg, params = small_model()
    scene = eval_dataset(count=1).scenes[0]
    images = scene_tensors(scene)
    with no_grad():
        embedded = T.unstack(embed(encode_batch([images[1]], cfg, params), params))
    got = infer(embedded, cfg, params, scene.labels.shape)

    with no_grad():  # backbone + head only, no selection/rectification code
        pyramids = encode_batch([images[1]], cfg, params)
        logits = decode(T.unstack(embed(pyramids, params))[0], params, scene.labels.shape)
    manual = np.argmax(logits.data, axis=0)
    assert np.array_equal(got, manual)


def test_duplicated_modality_equals_singleton():
    cfg, params = small_model()
    scene = eval_dataset(count=1).scenes[0]
    img = scene_tensors(scene)[0]
    with no_grad():
        once = T.unstack(embed(encode_batch([img], cfg, params), params))
        twice = T.unstack(embed(encode_batch([img, img], cfg, params), params))
    single = infer(once, cfg, params, scene.labels.shape)
    doubled = infer(twice, cfg, params, scene.labels.shape)
    assert np.array_equal(single, doubled)


def test_full_subset_matches_mean_fusion_oracle():
    cfg, params = small_model()
    scene = eval_dataset(count=1).scenes[0]
    images = scene_tensors(scene)
    with no_grad():
        got = infer_logits(images, cfg, params, scene.labels.shape)
        pyramids = [split_pyramids(encode_batch([img], cfg, params))[0] for img in images]
        fused = [Tensor(np.mean([p[i].data for p in pyramids], axis=0)[None])
                 for i in range(4)]
        expect = decode(T.unstack(embed(fused, params))[0], params, scene.labels.shape)
    assert np.max(np.abs(got.data - expect.data)) < 1e-12


def test_infer_rejects_empty_subset():
    cfg, params = small_model()
    with pytest.raises(T.TensorError):
        infer([], cfg, params, (32, 32))


def test_infer_rejects_pyramids_that_do_not_match_config():
    cfg, params = small_model()
    img = scene_tensors(eval_dataset(count=1).scenes[0])[0]
    wider = TrainConfig(stage_channels=(4, 6, 8, 12), d_embed=8).model_config(3, MODALITIES)
    with no_grad():
        levels = encode_batch([img], cfg, params)
        other = encode_batch([img], wider, init_model_params(wider, 0))
    for bad in (levels[:3], other, [*levels[:3], other[3]]):
        with pytest.raises(T.TensorError, match="stage channels"):
            with no_grad():  # pyramids enter inference through head.embed
                embedded = T.unstack(embed(bad, params))
            infer(embedded, cfg, params, (32, 32))


def test_infer_rejects_embeddings_of_unequal_shape():
    cfg, params = small_model()
    rng = np.random.default_rng(3)
    a = Tensor(rng.normal(size=(8, 8, 8)))
    for b in (Tensor(rng.normal(size=(8, 4, 4))), Tensor(rng.normal(size=(6, 8, 8)))):
        with pytest.raises(T.TensorError):
            infer([a, b], cfg, params, (32, 32))


def test_infer_matches_unfolded_decode_on_every_subset():
    cfg, params = small_model()
    scene = eval_dataset(count=1).scenes[0]
    with no_grad():
        levels = encode_batch(scene_tensors(scene), cfg, params)
        embedded = T.unstack(embed(levels, params))
        pyramids = split_pyramids(levels)
        for subset in enumerate_subsets(4):
            folded = decode(mean_feature([embedded[i] for i in subset]), params,
                            scene.labels.shape).data
            fused = [T.stack([mean_feature([pyramids[i][lvl] for i in subset])])
                     for lvl in range(4)]
            unfolded = decode(T.unstack(embed(fused, params))[0],
                              params, scene.labels.shape).data
            assert np.max(np.abs(folded - unfolded)) <= 1e-12 * np.max(np.abs(unfolded))
            pred = infer([embedded[i] for i in subset], cfg, params, scene.labels.shape)
            assert np.array_equal(pred, np.argmax(folded, axis=0))


# ---------------------------------------------------------------------------
# mass evaluation


def test_mass_eval_random_model_scores_in_range():
    cfg, params = small_model()
    report = run_mass_eval(cfg, params, eval_dataset())
    assert len(report.scores) == 15
    assert len(report.subset_names) == 15
    assert all(0.0 <= s <= 100.0 and np.isfinite(s) for s in report.scores)
    assert abs(report.mean - np.mean(report.scores)) < 1e-9


def test_mass_eval_matches_reencode_per_subset(monkeypatch):
    cfg, params = small_model()
    ds = eval_dataset()
    expected = run_mass_eval(cfg, params, ds)
    calls = itertools.product(ds.scenes, enumerate_subsets(4))  # the order of prediction

    def reencode(embedded, mcfg, prm, out_size):
        scene, subset = next(calls)
        assert len(embedded) == len(subset) and out_size == scene.labels.shape
        images = scene_tensors(scene)
        with no_grad():
            logits = infer_logits([images[i] for i in subset], mcfg, prm, out_size)
        return np.argmax(logits.data, axis=0)

    monkeypatch.setattr(evaluate, "infer", reencode)
    assert run_mass_eval(cfg, params, ds) == expected
    assert next(calls, None) is None


def test_mass_eval_encodes_each_modality_once_per_scene(monkeypatch):
    cfg, params = small_model()
    ds = eval_dataset(count=3)
    encoded = []

    def counting(images, mcfg, prm):
        encoded.append(len(images))
        return encode_batch(images, mcfg, prm)

    monkeypatch.setattr(evaluate, "encode_batch", counting)
    run_mass_eval(cfg, params, ds)
    assert encoded == [4] * len(ds.scenes)


def test_mass_eval_embeds_each_modality_once_and_decodes_each_subset(monkeypatch):
    import modalseg.model as model

    cfg, params = small_model()
    ds = eval_dataset(count=3)
    calls = {"embed": 0, "decode": 0, "infer": 0}
    embedded = []  # pyramids per embed call

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    def embed_spy(fn):
        def wrapper(pyramids, prm):
            embedded.append(len(pyramids))
            return fn(pyramids, prm)
        return wrapper

    monkeypatch.setattr(evaluate, "embed", counted("embed", embed_spy(evaluate.embed)))
    monkeypatch.setattr(model, "decode", counted("decode", model.decode))
    monkeypatch.setattr(evaluate, "infer", counted("infer", evaluate.infer))
    run_mass_eval(cfg, params, ds)
    n = len(ds.scenes)
    assert calls == {"embed": n, "decode": 15 * n, "infer": 15 * n}
    assert embedded == [4] * n  # one call per scene carries all its modalities


def test_mass_eval_perfect_oracle_scores_100(monkeypatch):
    cfg, params = small_model()
    ds = eval_dataset(count=1)
    labels = ds.scenes[0].labels
    oracle = np.where(labels == 255, 0, labels).astype(np.int64)
    monkeypatch.setattr(evaluate, "infer", lambda embedded, mcfg, prm, out_size: oracle)
    report = run_mass_eval(cfg, params, ds)
    assert all(s == 100.0 for s in report.scores)
    assert report.mean == 100.0


def test_mass_eval_rejects_modality_mismatch():
    cfg, params = small_model(m=4)
    ds = eval_dataset(m=3)
    with pytest.raises(ValueError):
        run_mass_eval(cfg, params, ds)


@pytest.mark.parametrize("k", [2, 5])
def test_mass_eval_rejects_class_count_mismatch(monkeypatch, k):
    """A 3-class model on a dataset of fewer or more classes fails before
    its first scene, naming both counts."""
    cfg, params = small_model(k=3)
    ds = eval_dataset(k=k)
    monkeypatch.setattr(evaluate, "scene_tensors", None)  # reaching a scene fails
    with pytest.raises(ValueError, match=f"dataset has {k} classes, model 3"):
        run_mass_eval(cfg, params, ds)


def test_mass_eval_rejects_empty_split():
    cfg, params = small_model()
    ds = eval_dataset()
    ds.scenes.clear()
    with pytest.raises(ValueError):
        run_mass_eval(cfg, params, ds)


# ---------------------------------------------------------------------------
# rendering


def sample_report():
    names = tuple(subset_name(s, MODALITIES) for s in enumerate_subsets(4))
    scores = tuple(float(10 + i) for i in range(15))
    return MassReport(modality_names=MODALITIES, subset_names=names,
                      scores=scores, mean=float(np.mean(scores)))


def test_markdown_has_16_data_columns():
    lines = render_report(sample_report(), "markdown").strip().splitlines()
    header = [c.strip() for c in lines[0].strip("|").split("|")]
    assert len(header) == 16
    assert header[-1] == "Mean"
    assert len(lines) == 3


def test_csv_round_trips():
    report = sample_report()
    text = render_report(report, "csv")
    header, row = [line.split(",") for line in text.strip().splitlines()]
    assert header == list(report.subset_names) + ["Mean"]
    values = [float(v) for v in row]
    assert values[:-1] == [round(s, 2) for s in report.scores]
    assert values[-1] == round(report.mean, 2)
    assert all("." in v for v in row)  # 2-digit decimal formatting


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render_report(sample_report(), "latex")


def test_report_json_round_trip():
    report = sample_report()
    back = report_from_json(report_to_json(report))
    assert back == report
    assert report_from_json(report_to_json(report).encode()) == report


def _edited_sidecar(edit):
    raw = json.loads(report_to_json(sample_report()))
    edit(raw)
    return json.dumps(raw).encode()


MALFORMED_SIDECARS = {
    "not-utf-8": report_to_json(sample_report()).encode().replace(b"camera", b"c\xe4mera"),
    "utf-16": report_to_json(sample_report()).encode("utf-16"),
    "not-json": b'{"modality_names": ["camera"',
    "too-deep": b"[" * 100_000 + b"]" * 100_000,
    "not-an-object": b"[1, 2]",
    "no-subsets": _edited_sidecar(lambda r: r.pop("subsets")),
    "subsets-not-a-list": _edited_sidecar(lambda r: r.update(subsets="C,D")),
    "modality-not-a-string": _edited_sidecar(lambda r: r["modality_names"].__setitem__(0, 7)),
    "no-modalities": _edited_sidecar(lambda r: r.update(modality_names=[])),
    "name-not-a-string": _edited_sidecar(lambda r: r["subsets"][0].update(name=None)),
    "miou-a-string": _edited_sidecar(lambda r: r["subsets"][0].update(miou="10")),
    "miou-a-bool": _edited_sidecar(lambda r: r["subsets"][0].update(miou=True)),
    "miou-too-large": _edited_sidecar(lambda r: r["subsets"][0].update(miou=10 ** 400)),
    "2-modalities-1-subset": _edited_sidecar(
        lambda r: r.update(modality_names=["camera", "depth"], subsets=r["subsets"][:1])),
    "16-subsets": _edited_sidecar(lambda r: r["subsets"].append(r["subsets"][0])),
    "nan-miou": _edited_sidecar(lambda r: r["subsets"][0].update(miou=float("nan"))),
    "inf-miou": _edited_sidecar(lambda r: r["subsets"][0].update(miou=float("inf"))),
    "nan-mean": _edited_sidecar(lambda r: r.update(mean=float("nan"))),
    "wrong-mean": _edited_sidecar(lambda r: r.update(mean=r["mean"] + 1e-6)),
    # what run_mass_eval can never write: subset names that are not the
    # modality names' initials, and modality names a model config refuses
    "repeated-subset-names": _edited_sidecar(
        lambda r: r.update(modality_names=["camera", "depth"], subsets=[
            dict(entry, name="Q") for entry in r["subsets"][:3]],
            mean=sum(entry["miou"] for entry in r["subsets"][:3]) / 3)),
    "subset-names-reordered": _edited_sidecar(
        lambda r: r["subsets"].insert(0, r["subsets"].pop(1))),
    "empty-modality-name": _edited_sidecar(lambda r: r["modality_names"].__setitem__(1, "")),
    "shared-initial": _edited_sidecar(lambda r: r["modality_names"].__setitem__(1, "cam")),
}


@pytest.mark.parametrize("case", MALFORMED_SIDECARS)
def test_malformed_report_sidecar_is_typed_error(case):
    with pytest.raises(ReportFormatError):
        report_from_json(MALFORMED_SIDECARS[case])


# ---------------------------------------------------------------------------
# ranking dump


def test_rankings_csv_structure():
    cfg, params = small_model()
    ds = eval_dataset(count=2)
    text = rankings_csv(cfg, params, ds)
    lines = text.strip().splitlines()
    assert lines[0] == "sample,scale,modality,cosine,robust,fragile"
    assert len(lines) == 1 + 2 * 4 * 4  # scenes x scales x modalities
    for line in lines[1:]:
        sample, scale, name, score, robust, fragile = line.split(",")
        assert name in MODALITIES
        assert -1.0 <= float(score) <= 1.0
        assert robust in "01" and fragile in "01"
    # exactly one robust and one fragile flag per (sample, scale) block
    rows = [line.split(",") for line in lines[1:]]
    for s in range(2):
        for lvl in range(1, 5):
            block = [r for r in rows if r[0] == str(s) and r[1] == str(lvl)]
            assert sum(int(r[4]) for r in block) == 1
            assert sum(int(r[5]) for r in block) == 1
