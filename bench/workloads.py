"""The three workloads: set-up, timed region, checks and per-layer figures.

``train-masm`` and ``train-mean`` run ``train()`` at the acceptance
experiment's configuration (32x32 scenes, M=4, K=3, widths 8/12/16/24,
d_embed 16, batch 4, lr 1e-2), once per fusion arm. ``eval-subsets`` scores
all 15 modality subsets of 64x64 scenes with the CLI's default model. A
timed operation is one training step or one scene evaluated under every
subset; runs repeat whole rounds (one ``train()`` call, or one pass over the
evaluation split) until the time is up and at least ``MIN_OPS`` operations
have been timed.

``BENCHMARK.json`` lists ``train-masm`` and ``eval-subsets`` only: three
workloads at run lengths long enough for a steady ``op_ms_min`` would not
fit the benchmark's time budget. ``train-mean`` stays runnable by hand as
the mean-fusion arm that MASM/MIM changes should leave alone.
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

import checks
from tracing import Rebinder, Tracer

from modalseg import data, evaluate, tensor, train

MIN_OPS = 100
SETUP_REPEATS = 5

# 40 epochs per train() call: over this schedule the epoch-mean L_M falls by
# about 0.4 (seeds 11-20), over 16 epochs by as little as 0.05, and every
# timed round is checked to make it fall.
TRAIN_CFG = dict(stage_channels=(8, 12, 16, 24), d_embed=16, base_lr=1e-2,
                 batch_size=4, epochs=40)
TRAIN_DATA = dict(count=16, h=32, w=32, k=3, m=4, p_night=0.5)
CHECK_EPOCHS = 2  # the checked train() call: same configuration, shorter schedule

EVAL_SETUP_DATA = dict(count=4, h=64, w=64, k=5, m=4, p_night=0.5)
EVAL_DATA = dict(count=10, h=64, w=64, k=5, m=4, p_night=0.5)
EVAL_SETUP_EPOCHS = 1
EVAL_SEED_OFFSET = 1_000_000  # evaluation scenes never share a seed with training ones
EVAL_CHECK_SCENES = 2


@dataclass
class Outcome:
    kind: str  # "train" or "eval"
    fusion: str | None = None  # training workloads only
    attempted: int = 0
    failed: int = 0
    op_ms: list = field(default_factory=list)
    scenes: int = 0
    timed_s: float = 0.0
    setup_s: list = field(default_factory=list)
    fails: checks.Failures = field(default_factory=checks.Failures)
    per_unit: int = 0  # fixed call counts per unit for the traced run's checks


def _setup(fn, out: Outcome):
    result = None
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        result = fn()
        out.setup_s.append(perf_counter() - t0)
    return result


def _timed_rounds(seconds: float, round_fn, ops_per_round: int, out: Outcome) -> int:
    """Repeat whole rounds; returns rounds done.

    Once MIN_OPS are in, a run stops before a round that would, at the mean
    round time so far, end past ``seconds``. So a run with long rounds
    measures a little less than ``seconds`` rather than up to a round more.
    """
    start = perf_counter()
    done = 0
    while True:
        try:
            round_fn()
            done += 1
        except Exception:  # a failed round counts all its operations as failed
            traceback.print_exc(file=sys.stderr)
            out.failed += ops_per_round
        out.attempted += ops_per_round
        rounds = out.attempted // ops_per_round
        elapsed = perf_counter() - start
        if out.attempted >= MIN_OPS and elapsed * (rounds + 1) / rounds > seconds:
            break
    out.timed_s = perf_counter() - start
    return done


def _write_read(path, dataset, out: Outcome):
    data.write_dataset(path, dataset)
    loaded = data.read_dataset(path)
    out.fails.expect(checks.datasets_equal(dataset, loaded),
                     f"{path.name}: .mmss round trip changed the dataset")
    return loaded


def run_train(fusion: str, seed: int, seconds: float, tracer: Tracer | None, work) -> Outcome:
    out = Outcome("train", fusion)
    cfg = train.TrainConfig(**TRAIN_CFG, fusion=fusion,
                            beta=1.0 if fusion == "masm" else 0.0, seed=seed)

    def setup():
        dataset = _write_read(work / "train.mmss", data.generate_dataset(seed, **TRAIN_DATA), out)
        train.train(replace(cfg, epochs=1), dataset, work / "warmup")
        return dataset

    dataset = _setup(setup, out)
    steps_per_round = cfg.epochs * -(-len(dataset.scenes) // cfg.batch_size)
    histories = []

    def step_hook(fn):
        def wrapper(*args):
            if tracer is not None:
                tracer.unit = len(out.op_ms)
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                out.op_ms.append((perf_counter() - t0) * 1e3)
        return wrapper

    with Rebinder() as hooks:
        hooks.wrap("modalseg.train.train_step", step_hook)
        rounds = _timed_rounds(
            seconds, lambda: histories.append(train.train(cfg, dataset, work / "run")[1]),
            steps_per_round, out)
    out.scenes = rounds * cfg.epochs * len(dataset.scenes)
    out.per_unit = cfg.batch_size

    if tracer is not None:
        tracer.active = False
    for history in histories:
        checks.check_history(history, out.fails)
    checks.training_round(replace(cfg, epochs=CHECK_EPOCHS), dataset, work / "check",
                          np.random.default_rng(seed), out.fails)
    return out


def run_eval(seed: int, seconds: float, tracer: Tracer | None, work) -> Outcome:
    out = Outcome("eval")
    cfg = train.TrainConfig(epochs=EVAL_SETUP_EPOCHS, seed=seed)  # CLI defaults otherwise

    def setup():
        train_set = _write_read(work / "train.mmss",
                                data.generate_dataset(seed, **EVAL_SETUP_DATA), out)
        eval_set = _write_read(work / "eval.mmss", data.generate_dataset(
            seed + EVAL_SEED_OFFSET, **EVAL_DATA), out)
        train.train(cfg, train_set, work / "setup")
        params = train.load_checkpoint(work / "setup" / "model.mmck").params
        mcfg = cfg.model_config(eval_set.num_classes, eval_set.modality_names)
        evaluate.run_mass_eval(mcfg, params, checks.sliced(eval_set, 1))
        return eval_set, mcfg, params

    eval_set, mcfg, params = _setup(setup, out)
    reports = []
    starts: list[float] = []

    def scene_hook(fn):
        def wrapper(*args):
            if tracer is not None:
                tracer.unit = len(out.op_ms) + len(starts)
            starts.append(perf_counter())
            return fn(*args)
        return wrapper

    def one_pass():
        starts.clear()
        try:
            reports.append(evaluate.run_mass_eval(mcfg, params, eval_set))
        finally:
            starts.append(perf_counter())
            out.op_ms.extend((b - a) * 1e3 for a, b in zip(starts, starts[1:]))
        out.fails.expect(len(starts) == len(eval_set.scenes) + 1,
                         f"{len(starts) - 1} scene starts seen for {len(eval_set.scenes)} scenes")

    with Rebinder() as hooks:
        hooks.wrap("modalseg.evaluate.scene_tensors", scene_hook)
        rounds = _timed_rounds(seconds, one_pass, len(eval_set.scenes), out)
    out.scenes = rounds * len(eval_set.scenes)
    out.per_unit = 2 ** len(mcfg.modality_names) - 1

    if tracer is not None:
        tracer.active = False
    checks.check_reports(reports, len(mcfg.modality_names), out.fails)
    checks.evaluation_slice(mcfg, params, checks.sliced(eval_set, EVAL_CHECK_SCENES), out.fails)
    return out


WORKLOADS = {
    "train-masm": lambda *a: run_train("masm", *a),
    "train-mean": lambda *a: run_train("mean", *a),
    "eval-subsets": run_eval,
}


# ---------------------------------------------------------------------------
# figures


def end_to_end(out: Outcome) -> dict[str, tuple[float, str]]:
    """Set-up median, fastest operation and peak RSS.

    The host's other tenants slow this VM's cores by up to about 1.6x for
    seconds to minutes at a time, so a run's median or p90 operation time
    (and its throughput) mostly tracks how busy the host was during the run.
    The fastest operation of the run, its cost in the run's quietest moment,
    is the timing that varies least between runs.
    """
    return {
        "setup_s": (statistics.median(out.setup_s), "s"),
        "op_ms_min": (min(out.op_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def spread_summary(out: Outcome) -> str:
    """The contention-sensitive figures, for people reading the log."""
    p50, p90 = np.percentile(out.op_ms, [50, 90])
    return (f"{len(out.op_ms)} ops: op_ms p50 {p50:.1f} p90 {p90:.1f}, "
            f"{out.scenes / out.timed_s:.2f} scenes/s over {out.timed_s:.1f} s")


def trace_hooks() -> dict:
    """(before, after) callbacks that note a value beside a span."""
    def tape_nodes(tr, args):
        tape = args[1] if len(args) > 1 and args[1] is not None else tensor.active_tape()
        tr.note("tape_nodes", len(tape))

    def images(tr, args):
        for image in args[0]:
            tr.note("image", hash(image.data.tobytes()))

    def file_bytes(key):
        return lambda tr, args: tr.note(key, os.path.getsize(args[0]))

    return {
        "tensor.backward": (tape_nodes, None),
        "encoder.encode_batch": (images, None),
        "train.save_checkpoint": (None, file_bytes("checkpoint_bytes")),
        "data.write_dataset": (None, file_bytes("dataset_bytes")),
    }


def per_layer(tr: Tracer, out: Outcome) -> dict[str, tuple[float, str]]:
    units = list(range(len(out.op_ms)))
    timed = tr.by_name(set(units))
    every = tr.by_name()
    n = max(len(units), 1)
    step = out.kind == "train"

    def per_step(x):
        return x / n if step else 0.0

    def per_scene(x):
        return 0.0 if step else x / n

    def ms(name, rows=timed, key="ms"):
        return rows.get(name, {}).get(key, 0.0)

    def count(name, rows=timed):
        return rows.get(name, {}).get("count", 0)

    def mean_ms(name):
        return ms(name, every) / count(name, every) if count(name, every) else 0.0

    def noted(key, wanted=None):
        return [(u, v) for u, v in tr.values.get(key, []) if wanted is None or u in wanted]

    unit_set = set(units)
    ops = [tr.ops[u] for u in units if u in tr.ops]
    n_ops, ops_ms = sum(c for c, _ in ops), sum(ns for _, ns in ops) / 1e6
    images = noted("image", unit_set)
    distinct = len(set(images))  # (unit, image hash) pairs
    tape = [v for _, v in noted("tape_nodes", unit_set)]
    ckpt = [v for _, v in noted("checkpoint_bytes")]

    # Call counts the method fixes; a missed rebinding shows up here.
    if step:
        levels = len(TRAIN_CFG["stage_channels"])
        want_mim = out.per_unit * levels if out.fusion == "masm" else 0
        for name, want in (("head.decode", out.per_unit), ("mim.mim_forward", want_mim)):
            got = tr.per_unit_counts(name, units)
            out.fails.expect(all(c == want for c in got),
                             f"traced {name} calls per step {sorted(set(got))}, expected {want}")
    else:
        for name in ("model.infer", "head.decode"):
            got = tr.per_unit_counts(name, units)
            out.fails.expect(all(c == out.per_unit for c in got),
                             f"traced {name} calls per scene {sorted(set(got))}, "
                             f"expected {out.per_unit}")

    return {
        "tensor.ops_per_step": (per_step(n_ops), "count"),
        "tensor.ops_per_scene": (per_scene(n_ops), "count"),
        "tensor.record_op_ms_per_step": (per_step(ops_ms), "ms"),
        "tensor.record_op_ms_per_scene": (per_scene(ops_ms), "ms"),
        "tensor.tape_nodes_per_step": (float(np.mean(tape)) if tape else 0.0, "count"),
        "tensor.backward_ms_per_step": (per_step(ms("tensor.backward")), "ms"),
        "encoder.images_per_step": (per_step(len(images)), "count"),
        "encoder.images_per_scene": (per_scene(len(images)), "count"),
        "encoder.forward_ms_per_step": (per_step(ms("encoder.encode_batch")), "ms"),
        "encoder.forward_ms_per_scene": (per_scene(ms("encoder.encode_batch")), "ms"),
        "encoder.distinct_image_ratio": (distinct / len(images) if images else 0.0, "ratio"),
        "masm.forward_self_ms_per_step": (per_step(ms("masm.masm_forward", key="self_ms")), "ms"),
        "masm.rank_ms_per_step": (per_step(ms("masm.rank_modalities")), "ms"),
        "masm.consistency_ms_per_step": (per_step(ms("masm.consistency_loss")), "ms"),
        "mim.calls_per_step": (per_step(count("mim.mim_forward")), "count"),
        "mim.forward_ms_per_step": (per_step(ms("mim.mim_forward")), "ms"),
        "head.decode_calls_per_step": (per_step(count("head.decode")), "count"),
        "head.decode_ms_per_step": (per_step(ms("head.decode")), "ms"),
        "head.loss_ms_per_step": (per_step(ms("head.cross_entropy")), "ms"),
        "head.decode_calls_per_scene": (per_scene(count("head.decode")), "count"),
        "head.decode_ms_per_scene": (per_scene(ms("head.decode")), "ms"),
        "model.forward_ms_per_step": (per_step(ms("model.forward_train")), "ms"),
        "model.infer_ms_per_subset": (
            ms("model.infer") / count("model.infer") if count("model.infer") else 0.0, "ms"),
        "train.adam_ms_per_step": (per_step(ms("train.adam_update")), "ms"),
        "train.checkpoint_save_ms": (mean_ms("train.save_checkpoint"), "ms"),
        "train.checkpoint_bytes": (float(np.mean(ckpt)) if ckpt else 0.0, "bytes"),
        "train.checkpoint_load_ms": (mean_ms("train.load_checkpoint"), "ms"),
        "evaluate.subsets_per_scene": (per_scene(count("model.infer")), "count"),
        "evaluate.confusion_ms_per_scene": (per_scene(ms("evaluate.confusion_matrix")), "ms"),
        "data.generate_ms_per_scene": (mean_ms("data.generate_scene"), "ms"),
        "data.write_ms": (mean_ms("data.write_dataset"), "ms"),
        "data.read_ms": (mean_ms("data.read_dataset"), "ms"),
        "data.dataset_bytes": (sum(v for _, v in noted("dataset_bytes")) / SETUP_REPEATS,
                               "bytes"),
        "trace.op_ms_min": (min(out.op_ms), "ms"),
    }
