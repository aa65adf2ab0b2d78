"""Model assembly: parameter construction and the forward paths.

Training forward, over the whole batch: the shared encoder on all B*M images
in one stacked pass, giving four level tensors; per level the fusion
(``masm_forward``, or each scene's plain modality mean); ``head.embed``; one
``head.decode`` per scene; the supervision and consistency losses, one op
each. Inference forward: the modality pyramids through ``head.embed`` in one
call, the mean of the available subset's embeddings, decode, argmax; the
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
        check_modality_names(self.modality_names)


def check_modality_names(names) -> None:
    """Raise ``ValueError`` unless there are names, with distinct non-empty
    upper-cased initials: report headers use them."""
    initials = [name[:1].upper() for name in names]
    if not initials or "" in initials or len(set(initials)) != len(initials):
        raise ValueError(f"modality names {tuple(names)} must be at least one, non-empty, "
                         f"with distinct upper-cased initials")


def model_param_specs(cfg: ModelConfig) -> T.ParamSpecs:
    """Specs of every tensor ``init_model_params`` builds, lazily; allocates nothing."""
    yield from encoder_param_specs(cfg)
    yield from mim_param_specs(cfg.stage_channels)
    yield from head_param_specs(cfg.stage_channels, cfg.d_embed, cfg.num_classes)


def init_model_params(cfg: ModelConfig, seed: int) -> dict[str, Tensor]:
    """All trainable tensors for encoder, rectification, and head."""
    return T.init_params(model_param_specs(cfg), np.random.default_rng(seed))


def scene_tensors(scene: ModalityScene) -> list[Tensor]:
    """A scene's images as tensors, unscanned: ``encode_batch``'s stack checks them."""
    return [T._unchecked(np.asarray(img, dtype=np.float64), False) for img in scene.modalities]


def forward_train(batch: list[ModalityScene], cfg: ModelConfig,
                  params: dict[str, Tensor], fusion: str
                  ) -> tuple[Tensor, Tensor, list[list[RankingResult]]]:
    """Supervision loss L_M and consistency loss L_C, each a mean over the
    batch, and each scene's rankings in level order; the mean arm's L_C is an
    untracked 0 and its rankings empty."""
    if fusion not in FUSION_MODES:
        raise ValueError(f"fusion must be one of {FUSION_MODES}")
    m = len(cfg.modality_names)
    for scene in batch:
        if len(scene.modalities) != m:
            raise TensorError(f"scene has {len(scene.modalities)} modalities, "
                              f"model expects {m}")
    levels = encode_batch([t for scene in batch for t in scene_tensors(scene)], cfg, params)
    if fusion == "masm" and m >= 2:
        fused, rankings, terms = masm_forward(levels, m, params)
        l_c = consistency_loss(terms, cfg.num_classes)
    else:
        fused = [mean_feature(T.deinterleave(level, m)) for level in levels]
        rankings, l_c = [], Tensor(0.0)
    logits = [decode(e, params, scene.labels.shape)
              for e, scene in zip(T.unstack(embed(fused, params)), batch)]
    return cross_entropy(logits, [scene.labels for scene in batch]), l_c, rankings


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
