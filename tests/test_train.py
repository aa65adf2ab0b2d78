"""Training loop: schedule, optimizer step semantics, checkpoints, abort."""

from __future__ import annotations

import dataclasses
import errno
import importlib.util
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import modalseg.container as container_module
import modalseg.masm as masm
import modalseg.model as model
import modalseg.tensor as T
import modalseg.train as train_module
from modalseg.data import generate_dataset, generate_scene
from modalseg.encoder import encode_batch
from modalseg.evaluate import rankings_csv, run_mass_eval
from modalseg.model import init_model_params
from modalseg.tensor import NonFiniteError
from modalseg.train import (AdamState, Checkpoint, CheckpointError,
                            CheckpointTruncatedError, CheckpointVersionError,
                            TrainConfig, TrainingAbort, load_checkpoint,
                            load_config, lr_at, save_checkpoint, train,
                            train_step)

from helpers import (adam_update_reference, read_frame, save_checkpoint_reference,
                     traced_peak)

MODALITIES = ("camera", "depth", "event", "range")

TINY = TrainConfig(stage_channels=(4, 6, 8, 10), d_embed=8, beta=1.0,
                   base_lr=1e-2, epochs=1, batch_size=2, seed=3)


def tiny_setup(k=3, seed=42):
    scene = generate_scene(seed, 32, 32, k, m=4, p_night=0.5)
    mcfg = TINY.model_config(k, MODALITIES)
    params = init_model_params(mcfg, 0)
    return scene, mcfg, params


def param_bytes(params):
    return {n: p.data.tobytes() for n, p in params.items()}


# ---------------------------------------------------------------------------
# schedule


def test_lr_warmup_start_is_tenth_of_base():
    cfg = TrainConfig()
    assert lr_at(0, 100, cfg) == pytest.approx(0.1 * cfg.base_lr, rel=1e-12)


def test_lr_at_warmup_end_is_base():
    cfg = TrainConfig()
    assert lr_at(10, 100, cfg) == pytest.approx(cfg.base_lr, rel=1e-12)


def test_lr_final_step_is_zero():
    cfg = TrainConfig()
    assert abs(lr_at(100, 100, cfg)) < 1e-12


def test_lr_decay_matches_polynomial():
    cfg = TrainConfig()
    expect = cfg.base_lr * (1.0 - 45 / 90) ** 0.9
    assert lr_at(55, 100, cfg) == pytest.approx(expect, rel=1e-12)


def test_lr_monotone_segments():
    cfg = TrainConfig()
    ramp = [lr_at(s, 100, cfg) for s in range(0, 11)]
    assert all(a < b for a, b in zip(ramp, ramp[1:]))
    decay = [lr_at(s, 100, cfg) for s in range(10, 101)]
    assert all(a > b for a, b in zip(decay, decay[1:]))


def bench_reference():
    """``bench/reference.py``, loaded by path; nothing in it imports modalseg."""
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("total", [4, 6, 15, 100])  # warmup of 0, 1, 2 and 10 steps
def test_lr_at_matches_the_benchmark_reference(total):
    """The benchmark checks every step's lr against its own schedule; the
    fixed warmup fraction and poly power must not drift from it."""
    cfg = TrainConfig(base_lr=3e-4)
    reference = bench_reference()
    for step in range(total + 1):
        assert lr_at(step, total, cfg) == reference.lr_schedule(step, total, cfg.base_lr), step


def test_lr_step_out_of_range():
    cfg = TrainConfig()
    with pytest.raises(ValueError):
        lr_at(-1, 100, cfg)
    with pytest.raises(ValueError):
        lr_at(101, 100, cfg)


# ---------------------------------------------------------------------------
# config


# (section, key, value) that TrainConfig rejects: the architecture's shape,
# then out-of-range and non-finite training floats (NaN fails no comparison)
BAD_CONFIG_VALUES = [
    ("model", "stage_channels", (4, 6, 8)), ("model", "stage_channels", (4, 6, 8, 0)),
    ("model", "blocks_per_stage", 0), ("model", "d_embed", 0),
    ("train", "beta", -0.5), ("train", "base_lr", 0.0), ("train", "epochs", 0),
    ("train", "batch_size", 0), ("train", "fusion", "concat"),
    *(("train", key, value) for key in ("beta", "base_lr") for value in (math.nan, math.inf)),
]

# (num_classes, modality_names) that the model config rejects; report names
# are built from the upper-cased initials, so they must exist and differ
BAD_DATASET_FIELDS = [
    (1, MODALITIES), (3, ()), (3, ("camera", "camera")), (3, ("camera", "")),
    (3, ("depth", "dvs")), (3, ("camera", "Cam")),
]


def test_config_validation():
    for _, key, value in BAD_CONFIG_VALUES:
        with pytest.raises(ValueError):
            TrainConfig(**{key: value})
    for num_classes, names in BAD_DATASET_FIELDS:
        with pytest.raises(ValueError):
            TrainConfig().model_config(num_classes, names)


def test_load_config_rejects_bad_values_and_malformed_files(tmp_path):
    """Every flaw is a plain ValueError naming the file, never a parser error
    or a ``UnicodeDecodeError`` (itself a ValueError subclass)."""
    path = tmp_path / "bad.ini"
    texts = [f"[{section}]\n{key} = "
             f"{','.join(map(str, value)) if isinstance(value, tuple) else value}\n"
             for section, key, value in BAD_CONFIG_VALUES]
    texts += ["epochs = 3\n",  # no section header
              "[train]\nepochs = 3\nepochs = 4\n", "[train]\n[train]\n",
              "[train]\nfusion = mean%\n", "[train]\nseed = %(epochs)s\n",
              "[DEFAULT]\nepochs = 9\n", "[DEFAULT]\nepochs = 9\n[train]\nseed = 2\n"]
    raws = [text.encode() for text in texts] + [b"[train]\nfusion = m\xe9an\n"]
    for raw in raws:
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=f"^config file {re.escape(str(path))}: ") as exc:
            load_config(path)
        assert type(exc.value) is ValueError, raw


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "train.ini"
    path.write_text("""
[model]
stage_channels = 4,6,8,10
blocks_per_stage = 2
d_embed = 16

[train]
fusion = mean
beta = 0.5
base_lr = 1e-3
epochs = 7
batch_size = 3
seed = 11
""")
    cfg = load_config(path)
    assert cfg.stage_channels == (4, 6, 8, 10)
    assert cfg.blocks_per_stage == 2
    assert cfg.d_embed == 16
    assert cfg.fusion == "mean"
    assert cfg.beta == 0.5
    assert cfg.base_lr == 1e-3
    assert cfg.epochs == 7
    assert cfg.batch_size == 3
    assert cfg.seed == 11


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[train]\nmomentum = 0.9\n")
    with pytest.raises(ValueError):
        load_config(path)
    path.write_text("[optimizer]\nlr = 1\n")
    with pytest.raises(ValueError):
        load_config(path)
    path.write_text("[model]\nepochs = 3\n")
    with pytest.raises(ValueError, match="unknown config key 'epochs' in \\[model\\]"):
        load_config(path)
    for key in ("warmup_frac", "poly_power"):  # fixed constants, not settings
        path.write_text(f"[train]\n{key} = 0.5\n")
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "absent.ini")


# ---------------------------------------------------------------------------
# step semantics


def test_beta_zero_total_equals_supervision():
    scene, _, _ = tiny_setup()
    cfg = TrainConfig(stage_channels=(4, 6, 8, 10), d_embed=8, beta=0.0,
                      base_lr=1e-3, epochs=1, batch_size=1, seed=0)
    mcfg = cfg.model_config(3, MODALITIES)
    params = init_model_params(mcfg, 0)
    parts = train_step([scene], params, AdamState(), cfg, mcfg, lr=1e-3)
    assert parts["loss"] == parts["l_m"]


def test_zero_lr_leaves_params_bit_identical():
    scene, mcfg, params = tiny_setup()
    before = param_bytes(params)
    train_step([scene], params, AdamState(), TINY, mcfg, lr=0.0)
    after = param_bytes(params)
    assert before == after


def test_overfit_single_scene():
    scene, mcfg, params = tiny_setup()
    opt = AdamState()
    first = None
    for _ in range(50):
        parts = train_step([scene], params, opt, TINY, mcfg, lr=1e-2)
        first = first or parts
    assert parts["l_m"] < 0.2 * first["l_m"], (
        f"no overfit: {first['l_m']:.4f} -> {parts['l_m']:.4f}")


def poison(params):
    """Make the head fusion matmul overflow to inf on the next forward."""
    params["head.proj0.b"].data = np.full(params["head.proj0.b"].shape, 1e200)
    params["head.fuse.w"].data = np.full(params["head.fuse.w"].shape, 1e200)


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_loss_aborts_with_diagnostics():
    scene, mcfg, params = tiny_setup()
    poison(params)
    with pytest.raises(TrainingAbort) as exc:
        train_step([scene], params, AdamState(), TINY, mcfg, lr=1e-3)
    diag = exc.value.diagnostics
    assert diag["step"] == 1
    assert diag["scene_seeds"] == [scene.seed]


def test_nonfinite_pixel_is_refused_in_training_and_evaluation():
    """A NaN pixel in an in-memory scene: ``scene_tensors`` converts images
    without a scan, so the image stack's check in ``encode_batch`` is the one
    that refuses it, on the training and both evaluation paths."""
    ds = small_dataset(count=2)
    ds.scenes[1].modalities[2][1, 3, 5] = np.nan
    mcfg = TINY.model_config(ds.num_classes, ds.modality_names)
    params = init_model_params(mcfg, 0)
    with pytest.raises(TrainingAbort, match="non-finite"):
        train_step(ds.scenes, params, AdamState(), TINY, mcfg, lr=1e-3)
    for evaluation in (run_mass_eval, rankings_csv):
        with pytest.raises(NonFiniteError):
            evaluation(mcfg, params, ds)


def test_train_step_encodes_the_batch_in_one_call(monkeypatch):
    ds = small_dataset(count=3)
    mcfg = TINY.model_config(ds.num_classes, ds.modality_names)
    params = init_model_params(mcfg, 0)
    encoded = []

    def counting(images, cfg, prm):
        encoded.append(len(images))
        return encode_batch(images, cfg, prm)

    monkeypatch.setattr(model, "encode_batch", counting)
    train_step(ds.scenes, params, AdamState(), TINY, mcfg, lr=1e-3)
    assert encoded == [3 * 4]


# ---------------------------------------------------------------------------
# AdamW over parameter arenas

BENCH_TRAIN = TrainConfig(stage_channels=(8, 12, 16, 24), d_embed=16, base_lr=1e-2,
                          batch_size=4, epochs=1, fusion="masm", beta=1.0, seed=0)
ADAM_MODELS = {"train-masm": BENCH_TRAIN.model_config(3, MODALITIES),
               "cli": TrainConfig().model_config(5, MODALITIES)}
ADAM_MEMORY_BUDGET = 64 * 2**10  # bytes a steady-state update may allocate at its peak


def give_grads(params, state, rng, skip=()):
    """A fresh random gradient for every parameter not named in ``skip``,
    accumulated as the tape accumulates one after ``state.zero_grad``."""
    state.zero_grad(params)
    for name, p in params.items():
        if name not in skip:
            T.accumulate_grad(p, rng.normal(size=p.shape))


def moments_bytes(state):
    return ({n: a.tobytes() for n, a in state.m.items()},
            {n: a.tobytes() for n, a in state.v.items()})


@pytest.mark.parametrize("model_name", sorted(ADAM_MODELS))
def test_adam_update_bit_identical_to_the_reference_loop(model_name):
    """Four steps against ``helpers.adam_update_reference``: a parameter that
    never has a gradient, a gap in the middle of a block that gets no
    gradient after the first update (the reference gets zeros there: a
    packed parameter's zeroed gradient) and ``.data`` swapped and restored,
    as the benchmark's gradient probe does."""
    mcfg = ADAM_MODELS[model_name]
    names = list(model.model_param_specs(mcfg))
    never = "enc.s1.b0.ln.b"
    gap = {name for name, _ in names[10:14]} - {never}  # around it, in one block
    sides = []
    for update in (train_module.adam_update, adam_update_reference):
        params, state = init_model_params(mcfg, 0), AdamState()
        initial = params[never].data.copy()
        rng = np.random.default_rng(7)
        history = []
        for step in range(1, 5):
            give_grads(params, state, rng, skip={never} | (gap if step == 3 else set()))
            if step == 3 and update is adam_update_reference:
                for name in gap:
                    params[name].grad = np.zeros(params[name].shape)
            if step == 2:
                probed = params["mim.l2.sp.w"]
                base = probed.data
                probed.data = base + 1.0
                probed.data = base
            update(params, state, lr=1e-2 * step)
            history.append((state.step, param_bytes(params), moments_bytes(state)))
        assert never not in state.m and never not in state.v
        assert params[never].data.tobytes() == initial.tobytes()
        sides.append(history)
    assert sides[0] == sides[1]


def break_rebound_data(params):
    params["enc.s0.patch.w"].data = params["enc.s0.patch.w"].data * 1.5


def break_reset_grad(params):
    params["head.cls.w"].grad = None


def break_late_gradient(params):
    T.accumulate_grad(params["head.cls.b"], np.ones(params["head.cls.b"].shape))


def break_other_names(params):
    params["extra"] = T.Tensor(np.zeros(3), requires_grad=True)


@pytest.mark.parametrize("name, breaks", [
    ("enc.s0.patch.w", break_rebound_data), ("head.cls.w", break_reset_grad),
    ("head.cls.b", break_late_gradient), ("extra", break_other_names)])
def test_adam_update_rejects_parameters_changed_since_its_first_update(name, breaks):
    """After a first update that left ``head.cls.b`` out (it had no gradient),
    a rebound ``.data``, a ``.grad`` reset to ``None``, a gradient on the
    left-out parameter and a parameter the first update did not see each
    raise a ``ValueError`` naming the parameter, before the step counts."""
    params, state = init_model_params(ADAM_MODELS["train-masm"], 0), AdamState()
    rng = np.random.default_rng(11)
    give_grads(params, state, rng, skip={"head.cls.b"})
    train_module.adam_update(params, state, lr=1e-3)
    give_grads(params, state, rng, skip={"head.cls.b"})
    breaks(params)
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        train_module.adam_update(params, state, lr=1e-3)
    assert state.step == 1


def test_adam_update_resumes_moments_loaded_from_a_checkpoint(tmp_path):
    ds, cfg, mcfg, ckpt, _ = trained_state(steps=2)
    path = tmp_path / "model.mmck"
    save_checkpoint(path, ckpt)
    sides = []
    for update in (train_module.adam_update, adam_update_reference):
        loaded = load_checkpoint(path)
        rng = np.random.default_rng(8)
        for _ in range(3):
            give_grads(loaded.params, loaded.opt, rng)
            update(loaded.params, loaded.opt, lr=5e-3)
        sides.append((loaded.opt.step, param_bytes(loaded.params), moments_bytes(loaded.opt)))
    assert sides[0] == sides[1]


def element_offset(view, whole):
    return (view.__array_interface__["data"][0] - whole.__array_interface__["data"][0]) // 8


@pytest.mark.parametrize("model_name", sorted(ADAM_MODELS))
def test_arena_blocks_stay_below_the_block_size(model_name):
    """Every block holds at most ``ARENA_BLOCK`` doubles unless it holds one
    parameter; the blocks hold every parameter once, in order and end to
    end, and each parameter's data, gradient and moments are views of its
    block; a gradient accumulates into that view."""
    mcfg = ADAM_MODELS[model_name]
    params, state = init_model_params(mcfg, 0), AdamState()
    rng = np.random.default_rng(9)
    give_grads(params, state, rng)
    train_module.adam_update(params, state, lr=1e-3)
    give_grads(params, state, rng)
    blocks = state._arena.blocks
    held = [[n for n, p in params.items() if np.shares_memory(p.data, b.data)] for b in blocks]
    assert [n for names in held for n in names] == list(params)
    assert all(len(b.data) <= train_module.ARENA_BLOCK or len(names) == 1
               for b, names in zip(blocks, held))
    for b, names in zip(blocks, held):
        sizes = [params[n].size for n in names]
        assert len(b.data) == sum(sizes)
        starts = np.cumsum([0] + sizes[:-1]).tolist()
        for name, start in zip(names, starts):
            views = (params[name].data, params[name].grad, state.m[name], state.v[name])
            assert [element_offset(view, whole) for view, whole in zip(views, b)] == [start] * 4
            assert all(np.shares_memory(view, whole) for view, whole in zip(views, b))
    if model_name == "cli":  # 73,728 doubles: a block to itself
        assert [names for names in held if "mim.l3.ch.w1" in names] == [["mim.l3.ch.w1"]]


def test_steady_state_adam_update_allocates_almost_nothing():
    """tracemalloc peak of one ``adam_update`` for the CLI default model after
    its first: the per-parameter loop allocated about 3 MiB of temporaries."""
    params, state = init_model_params(ADAM_MODELS["cli"], 0), AdamState()
    rng = np.random.default_rng(10)
    give_grads(params, state, rng)
    train_module.adam_update(params, state, lr=1e-3)
    give_grads(params, state, rng)
    _, peak = traced_peak(lambda: train_module.adam_update(params, state, lr=1e-3))
    assert peak <= ADAM_MEMORY_BUDGET


MASM_STEP_OP_BUDGET = 40
EVAL_SCENE_OP_BUDGET = 36
STEP_MEMORY_BUDGET = 1896 * 2**10  # bytes one masm train_step may allocate at its peak
FIRST_STEP_MEMORY_BUDGET = 16876 * 2**10  # bytes the CLI model and its first step may hold
BACKWARD_MEMORY_BUDGET = 2 * 2**20  # bytes backward may add over what the forward holds
CHECKPOINT_LOAD_MEMORY_BUDGET = 2**20  # bytes a load's peak may add over its payload


def spy_op_names(monkeypatch, outputs: list | None = None) -> list[str]:
    """Rebind ``record_op`` in every modalseg module that holds it to a spy;
    returns the list the spy appends each recorded op's name to, and appends
    each op's output to ``outputs`` when given."""
    names = []
    record = T.record_op

    def spy(name, *rest):
        names.append(name)
        out = record(name, *rest)
        if outputs is not None:
            outputs.append(out)
        return out

    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.startswith("modalseg") \
                and getattr(mod, "record_op", None) is record:
            monkeypatch.setattr(mod, "record_op", spy)
    return names


def test_masm_step_records_at_most_the_op_budget(monkeypatch):
    """Recorded ops in one masm step at the benchmark's training size (batch 4,
    32x32, M=4, K=3, widths 8/12/16/24, d_embed 16, beta 1): per-op Python
    cost dominates a step of this size, so a fused op split back into a chain
    shows up here. The calls the benchmark's traced run pins per step are
    counted too: one ``head.decode`` per scene, and one ``mim_forward`` and
    one ``rank_modalities`` per scene and level."""
    ds = small_dataset(count=4)
    mcfg = BENCH_TRAIN.model_config(ds.num_classes, ds.modality_names)
    params = init_model_params(mcfg, 0)
    names = spy_op_names(monkeypatch)
    calls = {}

    def counting(name, real):
        def spy(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        return spy

    for mod, name in ((model, "decode"), (masm, "mim_forward"), (masm, "rank_modalities")):
        monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    train_step(ds.scenes, params, AdamState(), BENCH_TRAIN, mcfg, lr=1e-2)
    assert "mean" in names and "consistency" in names  # the spy saw masm's binding
    assert "mim" in names  # ... and mim's
    assert len(names) <= MASM_STEP_OP_BUDGET
    assert calls == {"decode": 4, "mim_forward": 16, "rank_modalities": 16}


def test_masm_step_allocates_at_most_the_memory_budget():
    """tracemalloc peak of one masm ``train_step`` after a first, at the
    benchmark's training configuration (seed 302). The budget is the peak of
    a step whose backwards rebuild the cheap intermediates; a step that saved
    them on the tape peaked at 2,373 KiB."""
    cfg = dataclasses.replace(BENCH_TRAIN, seed=302)
    ds = generate_dataset(302, count=16, h=32, w=32, k=3, m=4, p_night=0.5)
    mcfg = cfg.model_config(ds.num_classes, ds.modality_names)
    params, state = init_model_params(mcfg, 302), AdamState()
    train_step(ds.scenes[:4], params, state, cfg, mcfg, lr=1e-2)
    _, peak = traced_peak(lambda: train_step(ds.scenes[4:8], params, state, cfg, mcfg,
                                             lr=1e-2))
    assert peak <= STEP_MEMORY_BUDGET


def test_first_step_allocates_at_most_the_memory_budget():
    """tracemalloc peak of building the CLI default model and running its
    first ``train_step`` on 4 scenes at 64x64 (M=4, K=5, batch 4), the step
    a one-epoch ``train()`` call on the benchmark's evaluation set-up data
    runs: an optimizer arena built before the first forward, which would
    hold the gradient block (and the moments) through it, shows up here, and
    so does a backward that saves what it can rebuild (21,217 KiB)."""
    cfg = TrainConfig()
    ds = generate_dataset(0, count=4, h=64, w=64, k=5, m=4, p_night=0.5)
    mcfg = cfg.model_config(ds.num_classes, ds.modality_names)
    _, peak = traced_peak(lambda: train_step(ds.scenes, init_model_params(mcfg, 0),
                                             AdamState(), cfg, mcfg, lr=cfg.base_lr))
    assert peak <= FIRST_STEP_MEMORY_BUDGET


def test_evaluated_scene_records_at_most_the_op_budget(monkeypatch):
    """Recorded ops in one scene of ``run_mass_eval`` (all 15 subsets) with
    the CLI default model at the benchmark's evaluation size (64x64, M=4,
    K=5): an evaluation kernel split back into a chain of ops shows up here."""
    ds = generate_dataset(8, count=1, h=64, w=64, k=5, m=4, p_night=0.5)
    mcfg = TrainConfig().model_config(ds.num_classes, ds.modality_names)
    params = init_model_params(mcfg, 0)
    names = spy_op_names(monkeypatch)
    run_mass_eval(mcfg, params, ds)
    assert names.count("mean") == 15  # the spy saw masm's binding, once per subset
    assert len(names) <= EVAL_SCENE_OP_BUDGET


def test_masm_step_leaves_gradients_only_on_parameters(monkeypatch):
    """After one masm ``train_step`` every parameter holds a gradient and no
    recorded op output does: the walk releases each node's gradient."""
    ds = small_dataset(count=2)
    mcfg = TINY.model_config(ds.num_classes, ds.modality_names)
    params = init_model_params(mcfg, 0)
    outputs = []
    spy_op_names(monkeypatch, outputs)
    train_step(ds.scenes, params, AdamState(), TINY, mcfg, lr=1e-3)
    # every op is on the tape but the stack of the input images, which need no gradient
    assert [o.shape for o in outputs if not o.requires_grad] == [(2 * 4, 3, 32, 32)]
    assert all(p.grad is not None for p in params.values())
    assert all(o.grad is None and o._node_index is None for o in outputs)
    assert len(T.active_tape()) == 0


def test_backward_adds_at_most_the_memory_budget():
    """tracemalloc peak of ``backward`` over what the forward's tape holds,
    for the CLI default model on 4 scenes of 64x64 (M=4, K=5, masm). The tape
    holds about 12.6 MiB here; a walk that kept each node's saved arrays and
    gradient until its end added about as much again."""
    cfg = TrainConfig()
    ds = generate_dataset(8, count=4, h=64, w=64, k=5, m=4, p_night=0.5)
    mcfg = cfg.model_config(ds.num_classes, ds.modality_names)
    params = init_model_params(mcfg, 0)

    def forward_then_backward():
        _, _, total = train_module.batch_losses(ds.scenes, mcfg, params, cfg)
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        T.backward(total)
        return held

    held, peak = traced_peak(forward_then_backward)
    assert held > 12 * 2**20  # the tape was traced: it holds 12.6 MiB, not a bound
    assert all(p.grad is not None for p in params.values())
    assert peak - held <= BACKWARD_MEMORY_BUDGET


def test_checkpoint_load_holds_its_payload_once(tmp_path):
    """tracemalloc peak of ``load_checkpoint`` for the CLI default model with
    both moments (a 7.6 MiB file) over the arrays it returns: reading the
    whole file and copying each slice held about twice the file."""
    cfg = TrainConfig()
    mcfg = cfg.model_config(5, MODALITIES)
    params = init_model_params(mcfg, 0)
    opt = AdamState(step=1, m={n: 0.1 * p.data for n, p in params.items()},
                    v={n: p.data * p.data for n, p in params.items()})
    ckpt = Checkpoint(config=cfg, num_classes=5, modality_names=MODALITIES, epoch=0,
                      params=params, opt=opt,
                      rng_state=np.random.default_rng(0).bit_generator.state, history=[])
    path = tmp_path / "model.mmck"
    save_checkpoint(path, ckpt)
    payload = 3 * sum(p.data.nbytes for p in params.values())
    back, peak = traced_peak(lambda: load_checkpoint(path))
    assert checkpoints_equal(back, ckpt)
    assert peak - payload <= CHECKPOINT_LOAD_MEMORY_BUDGET


# ---------------------------------------------------------------------------
# full runs


def small_dataset(count=4, seed=5):
    return generate_dataset(seed, count=count, h=32, w=32, k=3, m=4, p_night=0.5)


def test_training_is_deterministic(tmp_path):
    ds = small_dataset()
    cfg = TrainConfig(stage_channels=(4, 6, 8, 10), d_embed=8, epochs=2,
                      batch_size=2, base_lr=1e-3, seed=9)
    params_a, hist_a = train(cfg, ds, tmp_path / "a")
    params_b, hist_b = train(cfg, ds, tmp_path / "b")
    assert hist_a == hist_b  # exact float equality
    assert param_bytes(params_a) == param_bytes(params_b)


def test_train_writes_log_and_checkpoint(tmp_path):
    ds = small_dataset()
    cfg = TrainConfig(stage_channels=(4, 6, 8, 10), d_embed=8, epochs=2,
                      batch_size=2, base_lr=1e-3, seed=9)
    _, history = train(cfg, ds, tmp_path / "run")
    log = (tmp_path / "run" / "train_log.csv").read_text().strip().splitlines()
    assert log[0] == "epoch,l_m,l_c,loss,lr"
    assert len(log) == 1 + len(history) == 3
    assert (tmp_path / "run" / "model.mmck").exists()


def test_resumed_run_matches_uninterrupted_run(tmp_path, monkeypatch):
    """A run resumed from its epoch-1 checkpoint ends bit-identical to the
    run that never stopped: parameters, history, log and checkpoint."""
    ds = small_dataset()
    cfg = TrainConfig(stage_channels=(4, 6, 8, 10), d_embed=8, epochs=3,
                      batch_size=2, base_lr=1e-3, seed=9)
    save = train_module.save_checkpoint

    def save_every_epoch(path, ckpt):
        save(path, ckpt)
        save(tmp_path / f"epoch{ckpt.epoch}.mmck", ckpt)

    monkeypatch.setattr(train_module, "save_checkpoint", save_every_epoch)
    params_a, hist_a = train(cfg, ds, tmp_path / "a")
    monkeypatch.undo()
    params_b, hist_b = train(cfg, ds, tmp_path / "b",
                             resume=load_checkpoint(tmp_path / "epoch1.mmck"))
    assert hist_a == hist_b
    assert param_bytes(params_a) == param_bytes(params_b)
    for name in ("train_log.csv", "model.mmck"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_resumed_run_leaves_the_callers_checkpoint_as_loaded(tmp_path, monkeypatch):
    """``train(resume=ckpt)`` trains copies: afterwards ``ckpt`` still equals
    the file it was loaded from, parameters and moments included."""
    ds = small_dataset()
    cfg = TrainConfig(stage_channels=(4, 6, 8, 10), d_embed=8, epochs=2,
                      batch_size=2, base_lr=1e-3, seed=9)
    save = train_module.save_checkpoint
    monkeypatch.setattr(train_module, "save_checkpoint", lambda path, ckpt: (
        save(path, ckpt), save(tmp_path / f"epoch{ckpt.epoch}.mmck", ckpt)))
    train(cfg, ds, tmp_path / "a")
    monkeypatch.undo()
    resume = load_checkpoint(tmp_path / "epoch1.mmck")
    train(cfg, ds, tmp_path / "b", resume=resume)
    assert checkpoints_equal(resume, load_checkpoint(tmp_path / "epoch1.mmck"))


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_abort_writes_diagnostics_file(tmp_path):
    ds = small_dataset(count=2)
    cfg = TrainConfig(stage_channels=(4, 6, 8, 10), d_embed=8, epochs=1,
                      batch_size=2, base_lr=1e-3, seed=9)
    mcfg = cfg.model_config(ds.num_classes, ds.modality_names)
    params = init_model_params(mcfg, cfg.seed)
    poison(params)
    poisoned = Checkpoint(config=cfg, num_classes=ds.num_classes,
                          modality_names=tuple(ds.modality_names), epoch=0,
                          params=params, opt=AdamState(),
                          rng_state=np.random.default_rng(9).bit_generator.state,
                          history=[])
    with pytest.raises(TrainingAbort):
        train(cfg, ds, tmp_path / "run", resume=poisoned)
    assert (tmp_path / "run" / "abort_diagnostics.json").exists()


# ---------------------------------------------------------------------------
# checkpoints


def trained_state(steps=3):
    ds = small_dataset(count=2)
    cfg = TrainConfig(stage_channels=(4, 6, 8, 10), d_embed=8, epochs=1,
                      batch_size=2, base_lr=1e-3, seed=9)
    mcfg = cfg.model_config(ds.num_classes, ds.modality_names)
    params = init_model_params(mcfg, cfg.seed)
    opt = AdamState()
    for _ in range(steps):
        train_step(ds.scenes, params, opt, cfg, mcfg, lr=1e-3)
    rng = np.random.default_rng(cfg.seed)
    rng.permutation(4)  # advance so the saved state is mid-stream
    ckpt = Checkpoint(config=cfg, num_classes=ds.num_classes,
                      modality_names=tuple(ds.modality_names), epoch=1,
                      params=params, opt=opt, rng_state=rng.bit_generator.state,
                      history=[{"epoch": 1, "l_m": 1.0, "l_c": 0.1,
                                "loss": 1.1, "lr": 1e-3}])
    return ds, cfg, mcfg, ckpt, rng


def test_checkpoint_round_trip_bit_exact(tmp_path):
    _, cfg, _, ckpt, rng = trained_state()
    path = tmp_path / "model.mmck"
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)
    assert back.config == cfg
    assert back.num_classes == ckpt.num_classes
    assert back.modality_names == ckpt.modality_names
    assert back.epoch == ckpt.epoch
    assert back.opt.step == ckpt.opt.step
    assert back.history == ckpt.history
    assert param_bytes(back.params) == param_bytes(ckpt.params)
    for name in ckpt.opt.m:
        assert back.opt.m[name].tobytes() == ckpt.opt.m[name].tobytes()
        assert back.opt.v[name].tobytes() == ckpt.opt.v[name].tobytes()
    restored = np.random.Generator(np.random.PCG64())
    restored.bit_generator.state = back.rng_state
    assert np.array_equal(restored.permutation(1000), rng.permutation(1000))


def test_checkpoint_round_trips_parameters_in_any_order(tmp_path):
    _, _, _, ckpt, _ = trained_state()
    ckpt = dataclasses.replace(ckpt, params=dict(reversed(ckpt.params.items())))
    save_checkpoint(tmp_path / "model.mmck", ckpt)
    back = load_checkpoint(tmp_path / "model.mmck")
    assert list(back.params) == list(ckpt.params)
    assert checkpoints_equal(back, ckpt)


def test_save_checkpoint_writes_the_reference_writers_bytes(tmp_path):
    _, _, _, ckpt, _ = trained_state()
    save_checkpoint(tmp_path / "new.mmck", ckpt)
    save_checkpoint_reference(tmp_path / "ref.mmck", ckpt)
    assert (tmp_path / "new.mmck").read_bytes() == (tmp_path / "ref.mmck").read_bytes()
    # arrays a caller built in another layout, byte order or dtype
    name = "head.cls.w"
    ckpt.params[name].data = np.asfortranarray(ckpt.params[name].data)
    assert not ckpt.params[name].data.flags.c_contiguous
    ckpt.opt.m[name] = ckpt.opt.m[name].astype(">f8")
    ckpt.opt.v[name] = ckpt.opt.v[name].astype(np.float32)
    save_checkpoint(tmp_path / "new.mmck", ckpt)
    save_checkpoint_reference(tmp_path / "ref.mmck", ckpt)
    assert (tmp_path / "new.mmck").read_bytes() == (tmp_path / "ref.mmck").read_bytes()


def test_resume_step_matches_uninterrupted_step(tmp_path):
    ds, cfg, mcfg, ckpt, _ = trained_state()
    path = tmp_path / "model.mmck"
    save_checkpoint(path, ckpt)

    train_step(ds.scenes, ckpt.params, ckpt.opt, cfg, mcfg, lr=5e-4)
    uninterrupted = param_bytes(ckpt.params)

    resumed = load_checkpoint(path)
    train_step(ds.scenes, resumed.params, resumed.opt, cfg, mcfg, lr=5e-4)
    assert param_bytes(resumed.params) == uninterrupted


def test_checkpoint_bad_magic(tmp_path):
    _, _, _, ckpt, _ = trained_state()
    path = tmp_path / "model.mmck"
    save_checkpoint(path, ckpt)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    _, _, _, ckpt, _ = trained_state()
    path = tmp_path / "model.mmck"
    save_checkpoint(path, ckpt)
    blob = bytearray(path.read_bytes())
    for version in (1, 9):  # 1 is the earlier format, which is not read
        blob[4:8] = version.to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)


def test_checkpoint_truncation(tmp_path):
    _, _, _, ckpt, _ = trained_state()
    path = tmp_path / "model.mmck"
    save_checkpoint(path, ckpt)
    blob = path.read_bytes()
    path.write_bytes(blob[:-64])
    with pytest.raises(CheckpointTruncatedError):
        load_checkpoint(path)
    path.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(CheckpointTruncatedError):
        load_checkpoint(path)


CHECKPOINT_EDITS = {
    "wrong shape": (lambda c: c.params.update({"mim.l0.sp.w": T.Tensor(np.zeros((8, 3))),
                                               "head.cls.b": T.Tensor(np.zeros(7))}),
                    "do not match the stored config"),
    "missing name": (lambda c: c.params.pop("head.fuse.b"), "do not match the stored config"),
    "extra name": (lambda c: c.params.update({"head.extra.b": T.Tensor(np.zeros(3))}),
                   "do not match the stored config"),
    "config the model rejects": (lambda c: setattr(c, "num_classes", 1), "num_classes"),
    # a small file claiming a huge model: must fail without building it
    "huge stage_channels": (lambda c: setattr(c, "config", dataclasses.replace(
        c.config, stage_channels=(20000,) * 4)), "do not match the stored config"),
    "huge blocks_per_stage": (lambda c: setattr(c, "config", dataclasses.replace(
        c.config, blocks_per_stage=10**9)), "do not match the stored config"),
    "huge d_embed": (lambda c: setattr(c, "config", dataclasses.replace(
        c.config, d_embed=10**9)), "do not match the stored config"),
    "huge num_classes": (lambda c: setattr(c, "num_classes", 10**9),
                         "do not match the stored config"),
    # epoch counters, history rows and the shuffle state as train() writes them
    "epoch beyond config.epochs": (lambda c: (setattr(c, "epoch", 2), c.history.append(
        dict(c.history[0], epoch=2))), "epoch 2 or adam_step 0 out of range"),
    "negative epoch": (lambda c: (setattr(c, "epoch", -1), c.history.clear()),
                       "epoch -1 or adam_step 0 out of range"),
    "negative adam_step": (lambda c: setattr(c.opt, "step", -1),
                           "epoch 1 or adam_step -1 out of range"),
    "history row not a row": (lambda c: setattr(c, "history", [1]), "history is not"),
    "history row missing a key": (lambda c: c.history[0].pop("lr"), "history is not"),
    "history row with an extra key": (lambda c: c.history[0].update(step=3),
                                      "history is not"),
    "history row with a float epoch": (lambda c: c.history[0].update(epoch=1.0),
                                       "history is not"),
    "history row out of order": (lambda c: c.history[0].update(epoch=2), "history is not"),
    "history shorter than epoch": (lambda c: c.history.clear(), "history is not"),
    "history with a NaN loss": (lambda c: c.history[0].update(loss=float("nan")),
                                "history is not"),
    "history with a string lr": (lambda c: c.history[0].update(lr="0.001"), "history is not"),
    "history with a bool l_c": (lambda c: c.history[0].update(l_c=True), "history is not"),
    "empty rng_state": (lambda c: setattr(c, "rng_state", {}), "PCG64"),
    "rng_state of another generator": (lambda c: c.rng_state.update(
        bit_generator="MT19937"), "PCG64"),
    "rng_state integer out of range": (lambda c: c.rng_state["state"].update(state=2**200),
                                       "OverflowError"),
    "rng_state that reads back changed": (lambda c: c.rng_state["state"].update(state=1.5),
                                          "does not read back"),
}


@pytest.mark.parametrize("edit", list(CHECKPOINT_EDITS))
def test_checkpoint_params_must_match_the_stored_config(tmp_path, edit):
    _, _, _, ckpt, _ = trained_state(steps=1)
    ckpt = dataclasses.replace(ckpt, params=dict(ckpt.params), opt=AdamState(),
                               history=[dict(row) for row in ckpt.history])
    change, message = CHECKPOINT_EDITS[edit]
    change(ckpt)
    path = tmp_path / "model.mmck"
    save_checkpoint(path, ckpt)

    def refused_load():
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    _, peak = traced_peak(refused_load)
    assert peak < 2**20  # about the file's own size; no parameter is allocated


@pytest.mark.parametrize("key, value", [("warmup_frac", 0.1), ("poly_power", 0.9)])
def test_checkpoint_config_naming_a_fixed_schedule_value_is_refused(tmp_path, monkeypatch,
                                                                    key, value):
    """The warmup fraction and poly power are constants, not settings."""
    _, _, _, ckpt, _ = trained_state(steps=1)
    monkeypatch.setattr(train_module, "asdict",
                        lambda cfg: {**dataclasses.asdict(cfg), key: value})
    save_checkpoint(tmp_path / "model.mmck", ckpt)
    with pytest.raises(CheckpointError, match=key):
        load_checkpoint(tmp_path / "model.mmck")


def test_resume_rejects_wrong_modality_count(tmp_path):
    _, cfg, _, ckpt, _ = trained_state()
    ds3 = generate_dataset(5, count=2, h=32, w=32, k=3, m=3, p_night=0.5)
    with pytest.raises(CheckpointError):
        train(cfg, ds3, tmp_path / "run", resume=ckpt)
    assert not (tmp_path / "run").exists()


def test_resume_rejects_reordered_modalities(tmp_path):
    ds, cfg, _, ckpt, _ = trained_state()
    reordered = type(ds)(num_classes=ds.num_classes,
                         modality_names=tuple(reversed(ds.modality_names)),
                         scenes=[type(s)(seed=s.seed, condition=s.condition,
                                         modalities=list(reversed(s.modalities)),
                                         labels=s.labels) for s in ds.scenes])
    with pytest.raises(CheckpointError):
        train(cfg, reordered, tmp_path / "run", resume=ckpt)
    assert not (tmp_path / "run").exists()


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    _, _, _, ckpt, _ = trained_state(steps=1)
    path = tmp_path / "model.mmck"
    save_checkpoint(path, ckpt)
    before = path.read_bytes()
    ckpt.epoch = 2
    opened = []

    class DiskFull:
        """File that takes 100 bytes, then fails the write that passes them."""

        def __init__(self, fh):
            self.fh, self.left = fh, 100

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()
            return False

        def write(self, data):
            if len(data) > self.left:
                self.fh.write(data[:self.left])
                raise OSError(errno.ENOSPC, "no space left on device")
            self.left -= len(data)
            return self.fh.write(data)

    def failing_open(file, mode="r", *args, **kwargs):
        opened.append(file)
        return DiskFull(open(file, mode, *args, **kwargs))

    monkeypatch.setattr(container_module, "open", failing_open, raising=False)
    with pytest.raises(OSError):
        save_checkpoint(path, ckpt)
    monkeypatch.undo()
    assert opened and all(p != path for p in opened)
    assert path.read_bytes() == before
    assert load_checkpoint(path).epoch == 1
    assert [p.name for p in tmp_path.iterdir()] == ["model.mmck"]


def checkpoints_equal(a, b) -> bool:
    return (a.config == b.config and a.num_classes == b.num_classes
            and a.modality_names == b.modality_names and a.epoch == b.epoch
            and a.rng_state == b.rng_state and a.history == b.history
            and a.opt.step == b.opt.step
            and param_bytes(a.params) == param_bytes(b.params)
            and sorted(a.opt.m) == sorted(b.opt.m)
            and all(a.opt.m[n].tobytes() == b.opt.m[n].tobytes()
                    and a.opt.v[n].tobytes() == b.opt.v[n].tobytes() for n in a.opt.m))


def test_header_byte_flips_give_typed_error_or_exact_round_trip(tmp_path):
    """Every flip of 1-3 bytes of the magic, version, header length or
    header is a ``CheckpointError``; the checksum leaves none loading."""
    _, _, _, ckpt, _ = trained_state(steps=1)
    path = tmp_path / "model.mmck"
    save_checkpoint(path, ckpt)
    blob = path.read_bytes()
    _, header_end = read_frame(blob)
    digits = [i for i in range(12, header_end) if chr(blob[i]).isdigit()]
    rng = np.random.default_rng(2024)
    for case in range(400):
        flipped = bytearray(blob)
        if case < 300:  # arbitrary bytes: mostly breaks UTF-8 or JSON
            for pos in rng.integers(0, header_end, size=rng.integers(1, 4)):
                flipped[pos] ^= int(rng.integers(1, 256))
        else:  # one digit for another: mostly still a well-formed header
            pos = digits[rng.integers(len(digits))]
            flipped[pos] = ord("0") + (blob[pos] - ord("0") + int(rng.integers(1, 10))) % 10
        path.write_bytes(bytes(flipped))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


@pytest.mark.parametrize("where, bad, message", [
    ("params", np.nan, "non-finite value in parameter"),
    ("params", -np.inf, "non-finite value in parameter"),
    ("m", np.inf, "non-finite value in first moment of"),
    ("v", np.nan, "non-finite value in second moment of"),
    ("v", -1e-300, "negative value in second moment of"),
])
def test_bad_payload_values_are_checkpoint_errors(tmp_path, where, bad, message):
    _, _, _, ckpt, _ = trained_state(steps=1)
    name = "head.cls.w"
    if where == "params":  # Tensor() refuses NaN, so the data is swapped in
        data = ckpt.params[name].data.copy()
        data[2, 1] = bad
        ckpt.params[name].data = data
    else:
        getattr(ckpt.opt, where)[name][2, 1] = bad
    path = tmp_path / "model.mmck"
    save_checkpoint(path, ckpt)
    with pytest.raises(CheckpointError, match=f"{message} '{name}'"):
        load_checkpoint(path)


def test_payload_byte_flips_give_typed_error_or_exact_round_trip(tmp_path):
    """Every flip of 1-3 bytes of the parameters, moments or checksum trailer
    is a ``CheckpointError``; the checksum leaves none loading."""
    _, _, _, ckpt, _ = trained_state(steps=1)
    path = tmp_path / "model.mmck"
    save_checkpoint(path, ckpt)
    blob = path.read_bytes()
    _, start = read_frame(blob)  # parameters, then moments, then the trailer
    rng = np.random.default_rng(2025)
    for case in range(400):
        flipped = bytearray(blob)
        if case < 300:  # arbitrary bytes of parameters, moments and the trailer
            for pos in rng.integers(start, len(blob), size=rng.integers(1, 4)):
                flipped[pos] ^= int(rng.integers(1, 256))
        else:  # every exponent bit of one value set: an Inf or a NaN
            pos = start + 8 * int(rng.integers((len(blob) - 4 - start) // 8))
            flipped[pos + 6] |= 0xF0
            flipped[pos + 7] |= 0x7F
        path.write_bytes(bytes(flipped))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
