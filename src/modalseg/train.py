"""Training loop, optimizer, schedule, checkpointing, and config parsing.

The objective is supervision plus beta-weighted consistency, minimized with
decoupled-weight-decay adaptive moments (0.9/0.999, eps 1e-8, decay 0.01).
The learning rate warms up linearly from 10% of base over the first 10% of
steps, then follows polynomial decay with power 0.9. The optimizer's first
update packs the parameters that have a gradient into flat arena blocks
owned by its ``AdamState``, updated in place, a few numpy passes per block;
a parameter left out is never updated, and an update raises ``ValueError``
on a parameter whose ``.data`` or ``.grad`` is not as the first one left it.

Checkpoints capture parameters, optimizer moments, epoch, and the exact
shuffle RNG state, so a resumed run is bit-identical to an uninterrupted
one; it trains copies, so the checkpoint it resumes from is left as it was.
A ``.mmck`` file (format version 2) is a ``container`` file: its header
holds the config, class count, modality names, epoch, optimizer step,
shuffle state, history and the names of the parameters that have moments;
its arrays are the float64 parameters by name, then ``m/<name>`` and
``v/<name>`` for each of those.
Config files are INI-style key = value sections.
"""

from __future__ import annotations

import configparser
import csv
import itertools
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import container
from . import tensor as T
from .container import atomic_target
from .data import Dataset
from .encoder import PYRAMID_LEVELS
from .head import total_loss
from .model import (FUSION_MODES, ModelConfig, forward_train, init_model_params,
                    model_param_specs)
from .tensor import NonFiniteError, Tensor, backward

CKPT_MAGIC = b"MMCK"
CKPT_VERSION = 2

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01
WARMUP_FRAC = 0.1  # share of all steps spent warming up from 0.1 * base_lr
POLY_POWER = 0.9  # power of the polynomial decay after the warmup
LOG_FIELDS = ("epoch", "l_m", "l_c", "loss", "lr")  # a train_log.csv row, one per epoch


class CheckpointError(ValueError):
    """Malformed model checkpoint."""


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


_ERRORS = (CheckpointError, CheckpointError, CheckpointVersionError, CheckpointTruncatedError)


class TrainingAbort(RuntimeError):
    """Raised when training hits a non-finite loss; carries diagnostics."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class TrainConfig:
    """A run's settings; the architecture's only defaults and only checks."""

    stage_channels: tuple[int, ...] = (16, 32, 64, 96)
    blocks_per_stage: int = 1
    d_embed: int = 64
    fusion: str = "masm"
    beta: float = 1.0
    base_lr: float = 6e-5
    epochs: int = 4
    batch_size: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.stage_channels) != PYRAMID_LEVELS:
            raise ValueError(f"need {PYRAMID_LEVELS} stage channel counts")
        if any(c < 1 for c in self.stage_channels):
            raise ValueError("stage channels must be positive")
        if self.blocks_per_stage < 1:
            raise ValueError("blocks_per_stage must be positive")
        if self.d_embed < 1:
            raise ValueError("d_embed must be positive")
        for name in ("beta", "base_lr"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.fusion not in FUSION_MODES:
            raise ValueError(f"fusion must be one of {FUSION_MODES}")

    def model_config(self, num_classes: int, modality_names) -> ModelConfig:
        """The model this config trains on a dataset of these classes and
        modalities; the one place a ``ModelConfig`` is built."""
        return ModelConfig(num_classes=num_classes,
                           modality_names=tuple(modality_names),
                           stage_channels=self.stage_channels,
                           blocks_per_stage=self.blocks_per_stage,
                           d_embed=self.d_embed)


def load_config(path) -> TrainConfig:
    """Read a UTF-8 [model]/[train] INI file; unknown keys are an error. [model]
    takes the fields ``ModelConfig`` shares with ``TrainConfig``, [train] the
    rest; a value parses as its default's type, ``stage_channels`` as a comma
    list. Any flaw, down to a value ``TrainConfig`` rejects, raises a
    ``ValueError`` that names the file; a missing file ``FileNotFoundError``."""
    model_keys = {f.name for f in fields(ModelConfig)}
    handlers: dict[str, dict] = {"model": {}, "train": {}}
    for f in fields(TrainConfig):
        kind = type(f.default)
        parse = (lambda v: tuple(int(x) for x in v.split(","))) if kind is tuple else kind
        handlers["model" if f.name in model_keys else "train"][f.name] = parse
    parser = configparser.ConfigParser(interpolation=None)  # no key interpolates
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
        if parser.defaults():  # its keys would pass into every section unchecked
            raise ValueError(f"unknown config section [{parser.default_section}]")
        kwargs: dict = {}
        for section in parser.sections():
            if section not in handlers:
                raise ValueError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in handlers[section]:
                    raise ValueError(f"unknown config key {key!r} in [{section}]")
                kwargs[key] = handlers[section][key](raw)
        return TrainConfig(**kwargs)
    except (ValueError, configparser.Error) as exc:  # ValueError covers UTF-8 decoding
        message = " ".join(str(exc).split())  # some parser errors span lines
        raise ValueError(f"config file {path}: {message}") from None


# ---------------------------------------------------------------------------
# schedule and optimizer


def lr_at(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Linear warmup from 0.1*base, then polynomial decay to 0."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warmup = round(WARMUP_FRAC * total_steps)
    if step < warmup:
        return cfg.base_lr * (0.1 + 0.9 * step / warmup)
    if step == total_steps:
        return 0.0
    progress = (step - warmup) / (total_steps - warmup)
    return cfg.base_lr * (1.0 - progress) ** POLY_POWER


ARENA_BLOCK = 16_384  # doubles per arena block: 128 KiB, glibc's default mmap threshold


class _Block(NamedTuple):
    """Flat data, gradient and moment arrays of a run of parameters."""
    data: np.ndarray
    grad: np.ndarray
    m: np.ndarray
    v: np.ndarray


class _Arena:
    """The parameters with a gradient at an ``AdamState``'s first update,
    packed in dict order into blocks of at most ``ARENA_BLOCK`` doubles per
    array (a larger parameter gets a block to itself), with one scratch pair
    as long as the largest block. ``bound`` holds each parameter's ``.data``
    and ``.grad`` as packing left them."""

    def __init__(self, params: dict[str, Tensor], state: "AdamState") -> None:
        sizes: list[int] = []  # doubles per block
        spans: dict[str, tuple[int, int]] = {}  # packed name -> (block, offset)
        for name, p in params.items():
            if p.grad is None:
                continue
            if not sizes or sizes[-1] + p.size > ARENA_BLOCK:
                sizes.append(0)
            spans[name] = (len(sizes) - 1, sizes[-1])
            sizes[-1] += p.size
        self.blocks = [_Block(*(np.empty(size) for _ in _Block._fields)) for size in sizes]
        for name, (index, start) in spans.items():
            p = params[name]
            data, grad, m, v = (a[start:start + p.size].reshape(p.shape)
                                for a in self.blocks[index])
            data[...] = p.data
            grad[...] = p.grad
            m[...] = state.m.get(name, 0.0)
            v[...] = state.v.get(name, 0.0)
            p.data, p.grad = data, grad
            state.m[name], state.v[name] = m, v
        self.bound = {name: (p.data, p.grad) for name, p in params.items()}
        largest = max(sizes, default=0)
        self.scratch = (np.empty(largest), np.empty(largest))


@dataclass
class AdamState:
    """AdamW's step count and first and second moments by parameter name.

    The first ``adam_update`` packs the parameters that have a gradient then
    into an arena, and their ``.data``, ``.grad`` and moments become its
    views; a parameter left out is never updated and gets no moments. An
    update raises ``ValueError`` naming a parameter if the names differ from
    the first update's, or if a ``.data`` or ``.grad`` is not as it left it.
    """

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    _arena: _Arena | None = field(default=None, init=False, repr=False, compare=False)

    def zero_grad(self, params: dict[str, Tensor]) -> None:
        """Zero the arena's gradient blocks; before the first update, clear
        each parameter's ``.grad``."""
        if self._arena is None:
            for p in params.values():
                p.grad = None
        else:
            for block in self._arena.blocks:
                block.grad.fill(0.0)


def adam_update(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """One decoupled-weight-decay moment update, in place over ``state``'s
    arena, one run per block; the first call builds the arena."""
    arena = state._arena
    if arena is None:
        arena = state._arena = _Arena(params, state)
    if params.keys() != arena.bound.keys():
        raise ValueError(f"parameter names differ from the optimizer's first update: "
                         f"{sorted(params.keys() ^ arena.bound.keys())}")
    for name, p in params.items():
        data, grad = arena.bound[name]
        if p.data is not data or p.grad is not grad:
            raise ValueError(f"parameter {name!r}: .data or .grad is not as the "
                             f"optimizer's first update left it")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for block in arena.blocks:
        _adamw_run(block, arena.scratch, lr, bc1, bc2)


def _adamw_run(block: _Block, scratch, lr: float, bc1: float, bc2: float) -> None:
    """AdamW over ``block`` in place: ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + (1-b2)*g*g`` and ``p = p - lr*((m/bc1) / (sqrt(v/bc2) + eps)
    + decay*p)``, each operation in that order, so every value is the one
    those expressions give."""
    data, grad, m, v = block
    s, u = (a[:len(data)] for a in scratch)
    m *= ADAM_BETA1
    np.multiply(grad, 1.0 - ADAM_BETA1, out=s)
    m += s
    v *= ADAM_BETA2
    np.multiply(grad, 1.0 - ADAM_BETA2, out=s)
    s *= grad
    v += s
    np.divide(v, bc2, out=s)
    np.sqrt(s, out=s)
    s += ADAM_EPS
    np.divide(m, bc1, out=u)
    u /= s
    np.multiply(data, WEIGHT_DECAY, out=s)
    u += s
    u *= lr
    data -= u


# ---------------------------------------------------------------------------
# steps and loop


def batch_losses(batch, model_cfg: ModelConfig, params: dict[str, Tensor],
                 cfg: TrainConfig) -> tuple[Tensor, Tensor, Tensor]:
    """(L_M, L_C, L) over a batch of scenes, each a batch-mean."""
    l_m, l_c, _ = forward_train(batch, model_cfg, params, fusion=cfg.fusion)
    return l_m, l_c, total_loss(l_m, l_c, cfg.beta)


def train_step(batch, params: dict[str, Tensor], opt: AdamState,
               cfg: TrainConfig, model_cfg: ModelConfig, lr: float
               ) -> dict[str, float]:
    """One forward/backward/update; returns the loss parts."""
    opt.zero_grad(params)
    try:
        l_m, l_c, total = batch_losses(batch, model_cfg, params, cfg)
        parts = {"l_m": l_m.item(), "l_c": l_c.item(), "loss": total.item()}
        backward(total)
    except NonFiniteError as exc:
        T.active_tape().clear()
        raise TrainingAbort(
            f"non-finite loss at optimizer step {opt.step + 1}: {exc}",
            diagnostics={
                "step": opt.step + 1,
                "scene_seeds": [s.seed for s in batch],
                "lr": lr,
                "cause": str(exc),
            }) from exc
    adam_update(params, opt, lr)
    return parts


def train(cfg: TrainConfig, dataset: Dataset, out_dir,
          resume: "Checkpoint | None" = None) -> tuple[dict[str, Tensor], list[dict]]:
    """Full run: shuffle per epoch; log and checkpoint after every epoch.

    A fresh run starts from its epoch-0 checkpoint, so fresh and resumed runs
    take the same path; a resumed run's first update copies ``resume``'s
    parameters and moments, and leaves ``resume`` as it was. Every check runs
    before ``out_dir`` is created. Returns the trained parameters and the
    per-epoch log rows.
    """
    if not dataset.scenes:
        raise ValueError("training dataset is empty")
    model_cfg = cfg.model_config(dataset.num_classes, dataset.modality_names)
    if resume is None:
        ckpt = Checkpoint(
            config=cfg, num_classes=model_cfg.num_classes,
            modality_names=model_cfg.modality_names, epoch=0,
            params=init_model_params(model_cfg, cfg.seed), opt=AdamState(),
            rng_state=np.random.default_rng(cfg.seed).bit_generator.state, history=[])
    else:  # new Tensors and dicts over the caller's arrays, which no update writes
        ckpt = replace(resume, params={n: T._unchecked(p.data, requires_grad=True)
                                       for n, p in resume.params.items()},
                       opt=AdamState(resume.opt.step, dict(resume.opt.m), dict(resume.opt.v)))
    _check_compat(ckpt, cfg, model_cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    params, opt = ckpt.params, ckpt.opt
    shuffle_rng = np.random.Generator(np.random.PCG64())
    shuffle_rng.bit_generator.state = ckpt.rng_state
    scenes = dataset.scenes
    steps_per_epoch = (len(scenes) + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch

    try:
        for epoch in range(ckpt.epoch, cfg.epochs):
            order = shuffle_rng.permutation(len(scenes))
            sums = {"l_m": 0.0, "l_c": 0.0, "loss": 0.0}
            for b in range(steps_per_epoch):  # at least one: scenes is not empty
                idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
                batch = [scenes[i] for i in idx]
                lr = lr_at(opt.step, total_steps, cfg)
                parts = train_step(batch, params, opt, cfg, model_cfg, lr)
                for key in sums:
                    sums[key] += parts[key]
            row = {"epoch": epoch + 1,
                   "l_m": sums["l_m"] / steps_per_epoch,
                   "l_c": sums["l_c"] / steps_per_epoch,
                   "loss": sums["loss"] / steps_per_epoch,
                   "lr": lr}
            ckpt = replace(ckpt, epoch=epoch + 1, history=[*ckpt.history, row],
                           rng_state=shuffle_rng.bit_generator.state)
            _write_log(out / "train_log.csv", ckpt.history)
            save_checkpoint(out / "model.mmck", ckpt)
    except TrainingAbort as abort:
        dump = out / "abort_diagnostics.json"
        dump.write_text(json.dumps(abort.diagnostics, indent=2))
        raise
    return params, ckpt.history


def _write_log(path: Path, history: list[dict]) -> None:
    with atomic_target(path) as tmp, open(tmp, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=LOG_FIELDS)
        writer.writeheader()
        writer.writerows(history)


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    config: TrainConfig
    num_classes: int
    modality_names: tuple[str, ...]
    epoch: int
    params: dict[str, Tensor]
    opt: AdamState
    rng_state: dict
    history: list[dict]


def _check_compat(ckpt: Checkpoint, cfg: TrainConfig, model_cfg: ModelConfig) -> None:
    if ckpt.config != cfg:
        raise CheckpointError("checkpoint was trained with a different config")
    if ckpt.num_classes != model_cfg.num_classes:
        raise CheckpointError(
            f"checkpoint has {ckpt.num_classes} classes, dataset has "
            f"{model_cfg.num_classes}")
    if tuple(ckpt.modality_names) != tuple(model_cfg.modality_names):
        raise CheckpointError(
            f"checkpoint modalities {ckpt.modality_names} do not match dataset "
            f"{model_cfg.modality_names}; refusing to reorder silently")


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write a ``.mmck`` file atomically: the header, then the parameters in
    the dict's order, then each moment's ``m`` and ``v`` in name order, every
    array as little-endian float64 and from its own buffer when it is one."""
    moments = sorted(ckpt.opt.m)
    meta = {
        "config": asdict(ckpt.config),
        "num_classes": ckpt.num_classes,
        "modality_names": list(ckpt.modality_names),
        "epoch": ckpt.epoch,
        "adam_step": ckpt.opt.step,
        "rng_state": ckpt.rng_state,
        "history": ckpt.history,
        "moments": moments,
    }
    arrays = [(name, "<f8", p.data) for name, p in ckpt.params.items()]
    arrays += [(f"{kind}/{name}", "<f8", getattr(ckpt.opt, kind)[name])
               for name in moments for kind in "mv"]
    container.write(path, CKPT_MAGIC, CKPT_VERSION, meta, arrays)


def _is_log_row(row, epoch: int) -> bool:
    """Whether ``row`` is a history row as ``train`` logs it for ``epoch``."""
    return (isinstance(row, dict) and set(row) == set(LOG_FIELDS)
            and type(row["epoch"]) is int and row["epoch"] == epoch
            and all(type(row[k]) in (int, float) and math.isfinite(row[k])
                    for k in LOG_FIELDS[1:]))


def _parse_header(meta: dict, table) -> Checkpoint:
    """The checkpoint a header describes, with no parameters or moments yet.
    Type-checks the header, checks its counters, history and shuffle state,
    and checks the array table against the float64 parameters its config
    specifies, then the two moments of each parameter it names; any flaw is
    a CheckpointError."""
    try:
        header = dict(meta)
        for key, kind in (("num_classes", int), ("epoch", int), ("adam_step", int),
                          ("rng_state", dict), ("history", list), ("modality_names", list),
                          ("moments", list)):
            if type(header[key]) is not kind:
                raise TypeError(f"{key} must be of type {kind.__name__}")
        cfg_fields = dict(header["config"])
        cfg_fields["stage_channels"] = tuple(cfg_fields["stage_channels"])
        header["config"] = TrainConfig(**cfg_fields)
        epoch, history, rng = header["epoch"], header["history"], np.random.PCG64()
        if not 0 <= epoch <= header["config"].epochs or header["adam_step"] < 0:
            raise ValueError(f"epoch {epoch} or adam_step {header['adam_step']} out of range")
        if len(history) != epoch or not all(map(_is_log_row, history, range(1, epoch + 1))):
            raise ValueError(f"history is not the log rows of epochs 1..{epoch}")
        rng.state = header["rng_state"]  # raises on a state PCG64 cannot take
        if rng.state != header["rng_state"]:
            raise ValueError("rng_state does not read back from a PCG64 generator")
        if not all(isinstance(n, str) for n in header["modality_names"]):
            raise TypeError("modality_names must be strings")
        header["modality_names"] = tuple(header["modality_names"])
        model_cfg = header["config"].model_config(header["num_classes"],
                                                  header["modality_names"])
        shapes = {n: spec.shape for n, spec in  # bounded by the header; allocates nothing
                  itertools.islice(model_param_specs(model_cfg), len(table) + 1)}
        expected = [(n, "<f8", shape) for n, shape in shapes.items()] + [
            (f"{kind}/{n}", "<f8", shapes.get(n)) for n in header["moments"] for kind in "mv"]
        if len(table) != len(expected) or set(table) != set(expected):  # in any order
            raise ValueError(
                f"arrays do not match the stored config: missing "
                f"{sorted(set(expected) - set(table), key=str)}, unexpected "
                f"{sorted(set(table) - set(expected), key=str)}")
    except (ValueError, KeyError, TypeError, OverflowError) as exc:  # ValueError
        # covers the config classes' own checks
        raise CheckpointError(f"malformed checkpoint header: {exc!r}") from exc
    return Checkpoint(config=header["config"], num_classes=header["num_classes"],
                      modality_names=header["modality_names"], epoch=epoch, params={},
                      opt=AdamState(step=header["adam_step"]),
                      rng_state=header["rng_state"], history=history)


_WHAT = {"": "parameter", "m": "first moment of", "v": "second moment of"}  # by array prefix


def load_checkpoint(path) -> Checkpoint:
    """Read a ``.mmck`` file. The header is checked before any array is
    allocated; each array is read straight into one fresh float64 array,
    checked, and kept, so loading holds the payload once plus the header."""
    ckpt, arrays = container.read(path, CKPT_MAGIC, CKPT_VERSION, _ERRORS, _parse_header)
    for key, arr in arrays.items():
        kind, _, name = key.rpartition("/")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"non-finite value in {_WHAT[kind]} {name!r}")
        if kind == "v" and (arr < 0.0).any():  # AdamW takes its square root
            raise CheckpointError(f"negative value in second moment of {name!r}")
        if kind:
            getattr(ckpt.opt, kind)[name] = arr
        else:
            ckpt.params[name] = T._unchecked(arr, requires_grad=True)
    return ckpt
