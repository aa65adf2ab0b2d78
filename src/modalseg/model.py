"""Model assembly: parameter construction and the forward paths.

Training forward: shared encoder on every modality of the whole batch in one
stacked pass, then per scene similarity-ranked rectification producing the
fused pyramid, the head's affine front (``head.embed``) over the batch's
fused pyramids in one call, and per scene decode, supervision and consistency
losses. Inference forward: the modality pyramids through ``head.embed`` in
one call, the mean of the available subset's embeddings, decode, argmax; the
front is affine, so that mean equals embedding the per-scale mean-fused
pyramid. The rectification and ranking machinery never runs at inference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import ModalityScene
from .encoder import encode_batch, encoder_param_specs
from .head import cross_entropy, decode, embed, head_param_specs
from .masm import RankingResult, consistency_loss, masm_forward, mean_feature
from .mim import mim_param_specs
from .tensor import Tensor, TensorError

FUSION_MODES = ("masm", "mean")


@dataclass(frozen=True)
class ModelConfig:
    """A dataset's classes and modalities plus the architecture that
    ``TrainConfig.model_config`` copies in, after ``TrainConfig`` checked it."""

    num_classes: int
    modality_names: tuple[str, ...]
    stage_channels: tuple[int, ...]
    blocks_per_stage: int
    d_embed: int

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        if len(self.modality_names) < 1:
            raise ValueError("need at least one modality name")
        initials = [name[:1].upper() for name in self.modality_names]
        if "" in initials or len(set(initials)) != len(initials):  # report names use them
            raise ValueError(f"modality names {self.modality_names} must be non-empty "
                             f"with distinct upper-cased initials")


def model_param_specs(cfg: ModelConfig) -> T.ParamSpecs:
    """Specs of every tensor ``init_model_params`` builds, lazily; allocates nothing."""
    yield from encoder_param_specs(cfg)
    yield from mim_param_specs(cfg.stage_channels)
    yield from head_param_specs(cfg.stage_channels, cfg.d_embed, cfg.num_classes)


def init_model_params(cfg: ModelConfig, seed: int) -> dict[str, Tensor]:
    """All trainable tensors for encoder, rectification, and head."""
    return T.init_params(model_param_specs(cfg), np.random.default_rng(seed))


def fuse_mean(pyramids: list[list[Tensor]]) -> list[Tensor]:
    """Per-level elementwise mean of equal-depth modality pyramids."""
    return [mean_feature([p[i] for p in pyramids]) for i in range(len(pyramids[0]))]


def scene_tensors(scene: ModalityScene) -> list[Tensor]:
    return [Tensor(img) for img in scene.modalities]  # one float64 conversion each


def forward_train(batch: list[ModalityScene], cfg: ModelConfig,
                  params: dict[str, Tensor], fusion: str
                  ) -> list[tuple[Tensor, Tensor, list[RankingResult]]]:
    """Supervision loss L_M, consistency loss L_C, and rankings, one triple
    per scene; the mean arm's L_C is an untracked 0 and its rankings empty.

    All B*M images of the batch go through the encoder as one stack, and the
    B fused pyramids through ``head.embed`` as one batch.
    """
    if fusion not in FUSION_MODES:
        raise ValueError(f"fusion must be one of {FUSION_MODES}")
    m = len(cfg.modality_names)
    for scene in batch:
        if len(scene.modalities) != m:
            raise TensorError(f"scene has {len(scene.modalities)} modalities, "
                              f"model expects {m}")
    images = [t for scene in batch for t in scene_tensors(scene)]
    pyramids = encode_batch(images, cfg, params)
    fused, selection = [], []
    for i in range(len(batch)):
        scene_pyramids = pyramids[i * m:(i + 1) * m]
        if fusion == "masm" and m >= 2:
            pyramid, rankings, terms = masm_forward(scene_pyramids, params)
            l_c = consistency_loss(terms, cfg.num_classes)
        else:
            pyramid, rankings, l_c = fuse_mean(scene_pyramids), [], Tensor(0.0)
        fused.append(pyramid)
        selection.append((l_c, rankings))
    embedded = T.unstack(embed(fused, params))
    return [(cross_entropy(decode(e, params, scene.labels.shape), scene.labels), l_c, rankings)
            for e, scene, (l_c, rankings) in zip(embedded, batch, selection)]


def infer_logits(images: list[Tensor], cfg: ModelConfig,
                 params: dict[str, Tensor], out_size: tuple[int, int]) -> Tensor:
    """Mean-fused backbone inference for an arbitrary modality subset."""
    embedded = T.unstack(embed(encode_batch(images, cfg, params), params))
    return decode(mean_feature(embedded), params, out_size)


def infer(embedded: list[Tensor], cfg: ModelConfig, params: dict[str, Tensor],
          out_size: tuple[int, int]) -> np.ndarray:
    """Predicted label map from the head embeddings (``head.embed``, split by
    ``T.unstack``) of one modality subset: their mean, decoded. ``cfg`` is not read; the call shape
    matches ``infer_logits``.

    Raises ``TensorError`` for an empty subset or embeddings of unequal shape.
    Argmax ties resolve to the lowest class id.
    """
    with T.no_grad():
        logits = decode(mean_feature(embedded), params, out_size)
    return class_argmax(logits.data)


def class_argmax(scores: np.ndarray) -> np.ndarray:
    """``np.argmax(scores, axis=0)`` as int64 for a K x H x W stack, by a
    running max over the K contiguous planes instead of a strided reduction.
    A pixel moves to class k only where plane k beats every earlier plane
    strictly, so ties resolve to the lowest class id."""
    best = scores[0].copy()
    pred = np.zeros(best.shape, dtype=np.int64)
    mark = np.empty_like(pred)
    for k in range(1, scores.shape[0]):
        np.greater(scores[k], best, out=mark)  # 1 where k is the new argmax
        mark *= k
        np.maximum(pred, mark, out=pred)  # every earlier id is below k
        np.maximum(best, scores[k], out=best)
    return pred
