"""Subset-exhaustive evaluation: every non-empty modality combination is
scored with mean-fusion inference, one confusion matrix per subset over the
whole split, mIoU per subset, and the plain average as the headline number.

Report rows follow the subset order size-then-lexicographic, e.g. for
camera/depth/event/range: C, D, E, R, CD, CE, ..., CDER, then Mean.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import Dataset
from .encoder import encode_batch
from .head import IGNORE_LABEL, embed
from .masm import mean_feature, rank_modalities
from .model import ModelConfig, check_modality_names, infer, scene_tensors

MAX_MODALITIES = 8


def enumerate_subsets(m: int) -> list[tuple[int, ...]]:
    """All non-empty index subsets, ordered by size then lexicographically."""
    if not 1 <= m <= MAX_MODALITIES:
        raise ValueError(f"modality count must be in [1, {MAX_MODALITIES}]")
    out: list[tuple[int, ...]] = []
    for size in range(1, m + 1):
        out.extend(itertools.combinations(range(m), size))
    return out


def subset_name(subset, modality_names) -> str:
    return "".join(modality_names[i][0].upper() for i in subset)


# ---------------------------------------------------------------------------
# metrics


def confusion_matrix(gt: np.ndarray, pred: np.ndarray, k: int) -> np.ndarray:
    """K x K counts (rows ground truth, cols prediction), 255 pixels skipped.

    ``pred`` may stack several label grids on leading axes (one per subset);
    the ground truth is then prepared once and every grid is counted in the
    same ``bincount``, giving one K x K matrix per grid on the same axes.
    """
    gt, pred = np.asarray(gt), np.asarray(pred)
    lead = pred.shape[:pred.ndim - gt.ndim]
    if pred.shape[len(lead):] != gt.shape:
        raise ValueError(f"label grids differ: {gt.shape} vs {pred.shape}")
    gt = gt.ravel().astype(np.int64)
    valid = gt != IGNORE_LABEL
    gt = gt[valid]
    if gt.size and (gt.min() < 0 or gt.max() >= k):
        raise ValueError(f"ground-truth labels outside [0, {k})")
    grids = math.prod(lead)
    cells = pred.reshape(grids, -1).compress(valid, axis=1).astype(np.int64, copy=False)
    if cells.size and (cells.min() < 0 or cells.max() >= k):
        raise ValueError(f"predicted labels outside [0, {k})")
    # in place on the fresh compressed copy: no further grid-sized temporaries
    cells += gt * k
    cells += np.arange(0, grids * k * k, k * k)[:, None]
    return np.bincount(cells.ravel(), minlength=grids * k * k).reshape(lead + (k, k))


def miou(cm: np.ndarray) -> float:
    """Mean IoU percent over classes present in GT or prediction."""
    if cm.sum() == 0:
        raise ValueError("mIoU undefined: no scored pixels")
    tp = np.diag(cm).astype(np.float64)
    union = cm.sum(axis=0) + cm.sum(axis=1) - tp
    present = union > 0
    if not np.any(present):
        raise ValueError("mIoU undefined: every class union is zero")
    return float(np.mean(tp[present] / union[present]) * 100.0)


@dataclass(frozen=True)
class MassReport:
    modality_names: tuple[str, ...]
    subset_names: tuple[str, ...]
    scores: tuple[float, ...]  # mIoU percent, enumerate_subsets order
    mean: float


# ---------------------------------------------------------------------------
# evaluation


def run_mass_eval(cfg: ModelConfig, params, dataset: Dataset) -> MassReport:
    """Score every modality subset across the split.

    Each modality of a scene is encoded once, the scene's pyramids pass
    through the head's affine front (``head.embed``) in one call, and every
    subset is predicted by ``infer`` from the mean of its embeddings.
    """
    if tuple(dataset.modality_names) != tuple(cfg.modality_names):
        raise ValueError(
            f"dataset modalities {tuple(dataset.modality_names)} do not match "
            f"model {tuple(cfg.modality_names)}")
    if dataset.num_classes != cfg.num_classes:
        raise ValueError(f"dataset has {dataset.num_classes} classes, model "
                         f"{cfg.num_classes}")
    if not dataset.scenes:
        raise ValueError("evaluation split is empty")
    subsets = enumerate_subsets(len(cfg.modality_names))
    k = dataset.num_classes
    cms = np.zeros((len(subsets), k, k), dtype=np.int64)
    for scene in dataset.scenes:
        with T.no_grad():
            embedded = T.unstack(embed(encode_batch(scene_tensors(scene), cfg, params),
                                       params))
        preds = [infer([embedded[i] for i in subset], cfg, params, scene.labels.shape)
                 for subset in subsets]
        cms += confusion_matrix(scene.labels, np.stack(preds), k)
    scores = tuple(miou(cm) for cm in cms)
    names = tuple(subset_name(s, dataset.modality_names) for s in subsets)
    return MassReport(modality_names=tuple(dataset.modality_names),
                      subset_names=names, scores=scores,
                      mean=float(np.mean(scores)))


# ---------------------------------------------------------------------------
# rendering and persistence


def render_report(report: MassReport, fmt: str) -> str:
    cells = [f"{s:.2f}" for s in report.scores] + [f"{report.mean:.2f}"]
    headers = list(report.subset_names) + ["Mean"]
    if fmt == "markdown":
        lines = ["| " + " | ".join(headers) + " |",
                 "|" + "|".join("---" for _ in headers) + "|",
                 "| " + " | ".join(cells) + " |"]
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        return ",".join(headers) + "\n" + ",".join(cells) + "\n"
    raise ValueError(f"format must be 'markdown' or 'csv', got {fmt!r}")


def report_to_json(report: MassReport) -> str:
    return json.dumps({
        "modality_names": list(report.modality_names),
        "subsets": [{"name": n, "miou": s}
                    for n, s in zip(report.subset_names, report.scores)],
        "mean": report.mean,
    }, indent=2)


class ReportFormatError(ValueError):
    """A report sidecar that is not what ``report_to_json`` writes."""


def _field(obj, key: str, kind, what: str):
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ReportFormatError(f"report field {key!r} is missing or not {what}")
    return value


def _number(obj, key: str) -> float:
    try:
        return float(_field(obj, key, (int, float), "a number"))
    except OverflowError:
        raise ReportFormatError(f"report field {key!r} is out of range") from None


def report_from_json(data: str | bytes) -> MassReport:
    """Read a sidecar written by ``report_to_json`` (UTF-8 bytes or text).

    Raises ``ReportFormatError`` unless it names M modalities that a model
    config accepts, carries 2^M - 1 finite subset scores named as
    ``subset_name`` names ``enumerate_subsets``, and its mean is their
    average.
    """
    try:
        raw = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError:
        raise ReportFormatError("report is not UTF-8 text") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ReportFormatError(f"report is not JSON: {exc}") from None
    modalities = _field(raw, "modality_names", list, "a list")
    if not 1 <= len(modalities) <= MAX_MODALITIES or not all(
            isinstance(n, str) for n in modalities):
        raise ReportFormatError(
            f"modality_names must hold 1 to {MAX_MODALITIES} strings")
    try:
        check_modality_names(modalities)
    except ValueError as exc:
        raise ReportFormatError(str(exc)) from None
    subsets = _field(raw, "subsets", list, "a list")
    names = tuple(_field(entry, "name", str, "a string") for entry in subsets)
    want = tuple(subset_name(s, modalities) for s in enumerate_subsets(len(modalities)))
    if names != want:
        raise ReportFormatError(f"{len(names)} subsets {names} for {len(modalities)} "
                                f"modalities; expected {len(want)}, {want}")
    scores = tuple(_number(entry, "miou") for entry in subsets)
    if not all(math.isfinite(s) for s in scores):
        raise ReportFormatError("non-finite subset mIoU")
    mean = _number(raw, "mean")
    average = float(np.mean(scores))
    if not abs(mean - average) <= 1e-9:
        raise ReportFormatError(f"mean {mean} is not the subset average {average}")
    return MassReport(modality_names=tuple(modalities), subset_names=names,
                      scores=scores, mean=mean)


# ---------------------------------------------------------------------------
# ranking diagnostics


def rankings_csv(cfg: ModelConfig, params, dataset: Dataset) -> str:
    """Per-sample, per-scale ranking table for offline inspection."""
    if len(dataset.modality_names) < 2:
        raise ValueError("ranking dump needs at least 2 modalities")
    lines = ["sample,scale,modality,cosine,robust,fragile"]
    with T.no_grad():
        for sample_idx, scene in enumerate(dataset.scenes):
            for level, maps in enumerate(encode_batch(scene_tensors(scene), cfg, params)):
                features = T.unstack(maps)
                rank = rank_modalities(features, mean_feature(features))
                for mod_idx, name in enumerate(dataset.modality_names):
                    lines.append(
                        f"{sample_idx},{level + 1},{name},"
                        f"{rank.scores[mod_idx]:.6f},"
                        f"{int(mod_idx == rank.robust_idx)},"
                        f"{int(mod_idx == rank.fragile_idx)}")
    return "\n".join(lines) + "\n"
