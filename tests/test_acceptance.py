"""Acceptance gate: one test per shipped criterion.

Each test is self-contained and checks one release property end to end:
  1. the substitute property surface exists (full-scale benchmarks are out
     of desk reach, so the package is accepted on properties + experiments)
  2. gradient correctness, per op and through the full training loss, with a
     case for every op the model records
  3. ranking, mIoU, and cross-entropy against independent oracles
  4. consistency-loss identities and the beta=0 short circuit
  5. subset enumeration counts and order
  6. selection semantics: night camera ranks fragile
  7. directional robustness: selection training vs mean-fusion ablation
  8. determinism and container IO safety
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import pkgutil
import tempfile
import time

import numpy as np
import pytest

import helpers
import modalseg
import modalseg.tensor as T
from helpers import (channel_mix, check_grads, clamp, concat, cross_rectify, div, exp, gelu,
                     init_head_params, init_mim_params, layer_norm, linear, log, max_rel_err,
                     pool_global, resample_bilinear, reshape, sigmoid, sum_all, transpose)
from modalseg.data import (BadMagicError, DatasetFormatError, generate_dataset,
                           read_dataset, write_dataset)
from modalseg.encoder import encode_batch, encode_stage, encoder_param_specs
from modalseg.evaluate import (confusion_matrix, enumerate_subsets, miou,
                               render_report, run_mass_eval)
from modalseg.head import cross_entropy, decode, embed, total_loss
from modalseg.masm import (consistency_loss, fuse_level, masm_forward, mean_feature,
                           rank_modalities)
from modalseg.mim import mim_forward
from modalseg.model import forward_train, init_model_params, scene_tensors
from modalseg.tensor import Tensor, backward, no_grad
from modalseg.train import (AdamState, CheckpointError, TrainConfig, load_checkpoint,
                            save_checkpoint, train, train_step)

MODALITIES = ("camera", "depth", "event", "range")
TINY = dict(stage_channels=(4, 6, 8, 10), d_embed=8)


# ---------------------------------------------------------------------------
# 1. Substitute acceptance surface


def test_criterion_1_property_surface_complete():
    """Full-scale benchmark numbers are not reproducible on a desk, so
    acceptance rests on the property checks below plus the two experiments;
    this asserts that the entire substitute surface is importable and wired.
    """
    from modalseg import cli

    parser = cli.build_parser()
    subcommands = parser._subparsers._group_actions[0].choices
    assert set(subcommands) == {"synth", "train", "eval", "report"}
    for fn in (generate_dataset, train, run_mass_eval, render_report,
               forward_train, consistency_loss, rank_modalities,
               cross_entropy, enumerate_subsets, miou):
        assert callable(fn)


# ---------------------------------------------------------------------------
# 2. Gradient suite


def _op_cases(rng):
    """One scalar-loss builder per differentiable op, fresh arrays per seed."""
    n = rng.normal
    p = lambda *s: rng.uniform(0.5, 2.0, s)  # positive, away from 0
    m = sum_all
    mim_params = init_mim_params((2,), np.random.default_rng(0))  # names, shapes
    cases = [
        ("add", lambda a, b: m(T.add(a, b)), [n(size=(3, 4)), n(size=(3, 4))]),
        ("mul", lambda a, b: m(T.mul(a, b)), [n(size=(3, 4)), n(size=(3, 4))]),
        ("div", lambda a, b: m(div(a, b)), [n(size=(3, 4)), p(3, 4)]),
        ("linear", lambda x, w, b: m(exp(linear(x, w, b))),
         [n(size=(3, 4)), n(size=(4, 2)), n(size=(2,))]),
        ("reshape", lambda t: m(T.mul(reshape(t, (3, 4)), 2.0)),
         [n(size=(2, 6))]),
        ("transpose", lambda t: m(exp(transpose(t, (1, 0, 2)))),
         [n(size=(2, 3, 2))]),
        ("concat", lambda a, b: m(exp(concat([a, b], axis=1))),
         [n(size=(2, 3)), n(size=(2, 2))]),
        ("sum", lambda t: sum_all(T.mul(t, t)), [n(size=(3, 4))]),
        ("exp", lambda t: m(exp(t)), [n(size=(3, 4))]),
        ("log", lambda t: m(log(t)), [p(3, 4)]),
        ("sigmoid", lambda t: m(sigmoid(t)), [n(size=(3, 4))]),
        ("gelu", lambda t: m(gelu(t)), [n(size=(3, 4))]),
        ("clamp", lambda t: m(clamp(t, -0.7, 0.7)), [n(size=(3, 4))]),
        ("layer_norm", lambda x, g, b: m(layer_norm(x, g, b)),
         [n(size=(4, 6)), p(6), n(size=(6,))]),
        ("pool_avg", lambda f: m(pool_global(f, "avg")), [n(size=(3, 4, 4))]),
        ("pool_max", lambda f: m(pool_global(f, "max")), [n(size=(3, 4, 4))]),
        ("resample_bilinear", lambda f: m(exp(resample_bilinear(f, 5, 4))),
         [n(size=(2, 3, 3))]),
        ("cross_rectify per channel", lambda f, w: m(exp(cross_rectify(f, w))),
         [n(size=(2, 3, 2, 2)), n(size=(2, 3, 1, 1))]),
        ("cross_rectify per pixel", lambda f, w: m(exp(cross_rectify(f, w))),
         [n(size=(2, 3, 2, 2)), n(size=(2, 1, 2, 2))]),
        ("channel_mix", lambda f, w, b: m(exp(channel_mix(f, w, b))),
         [n(size=(3, 2, 4)), n(size=(3, 5)), n(size=(5,))]),
        ("stack", lambda a, b: m(exp(T.stack([a, b]))),
         [n(size=(2, 3)), n(size=(2, 3))]),
    ]
    # Draws of retired cases stay in the stream, so every other case keeps its
    # arrays; new cases draw after the others.
    n(size=(3, 2, 2))  # the unstack op's case: its views record nothing now
    n(size=(2, 3, 2, 2))  # the cosine op's case
    cases.append(("mean", lambda a, b, c: m(exp(mean_feature([a, b, a, c]))),
                  [n(size=(3, 2)), n(size=(3, 2)), n(size=(3, 2))]))  # a twice: fan-in
    rng.random(10)  # the map_similarity op's case and the similarity-level consistency case
    mim_arrays = [n(size=(2, 3, 3)), n(size=(2, 3, 3)),
                  *(n(scale=0.5, size=t.shape) for t in mim_params.values())]
    labels = rng.integers(0, 3, size=(2, 3))
    labels[0, 0] = 255  # ignored: its logits get zero gradient
    cases.append(("cross_entropy", lambda x: cross_entropy([x], [labels]), [n(size=(3, 2, 3))]))
    cases.append(("consistency",  # c and a in both terms: fan-in
                  lambda a, b, c, d: consistency_loss([[(a, b, c), (d, c, a)]], 7),
                  [n(size=(3, 2, 2)) for _ in range(4)]))
    # a fixed linear weighting of the mim output, not exp(): the exponential
    # amplified the central difference's cancellation past the tolerance
    weights = Tensor(n(size=(2, 3, 3)))
    cases.append(("mim", lambda a, b, *ws: m(T.mul(mim_forward(a, b, dict(zip(mim_params, ws)),
                                                               0), weights)), mim_arrays))
    # the head's affine front over two pyramids and its ten parameters; the
    # levels' grids are uneven so every resampling path has real weights
    front = {k: t.shape for k, t in init_head_params(
        (2, 3, 2, 2), 3, 2, np.random.default_rng(0)).items() if not k.startswith("head.cls")}
    grids = [(2, 4, 6), (3, 2, 3), (2, 1, 2), (2, 1, 1)]
    embed_arrays = [n(size=g) for _ in range(2) for g in grids]
    embed_arrays += [n(scale=0.5, size=shape) for shape in front.values()]
    embed_weights = Tensor(n(size=(2, 3, 4, 6)))
    cases.append(("embed", lambda *ts: m(T.mul(embed([T.stack([ts[i], ts[4 + i]])
                                                      for i in range(4)],
                                                     dict(zip(front, ts[8:]))),
                                               embed_weights)), embed_arrays))
    # encoder stage 1 (2 x 2 patches, 2 -> 3 channels, two mixer blocks) over
    # two maps and its fifteen parameters, under a fixed linear weighting
    stage_cfg = TrainConfig(stage_channels=(2, 3, 4, 5), blocks_per_stage=2).model_config(
        2, MODALITIES[:1])
    stage = {name: spec.shape for name, spec in encoder_param_specs(stage_cfg)
             if name.startswith("enc.s1.")}
    stage_arrays = [n(size=(2, 4, 4)) for _ in range(2)]
    stage_arrays += [n(scale=0.5, size=shape) for shape in stage.values()]
    stage_weights = Tensor(n(size=(2, 3, 2, 2)))
    cases.append(("encode_stage", lambda *ts: m(T.mul(encode_stage(
        T.stack(list(ts[:2])), stage_cfg, dict(zip(stage, ts[2:])), 1), stage_weights)),
        stage_arrays))
    # the batched ops: one mean op over the deinterleaved modality maps of two
    # scenes (M = 3), each scene's interaction output plus its mean, the
    # consistency loss and cross-entropy over two scenes, and the one-op decode
    cases.append(("mean over deinterleaved maps", lambda x: m(exp(mean_feature(
        T.deinterleave(transpose(x, (0, 3, 1, 2)), 3)))), [n(size=(6, 2, 3, 2))]))
    cases.append(("fuse_level", lambda a, b, f_m: m(exp(fuse_level([a, b], f_m))),
                  [n(size=(2, 3, 2)), n(size=(2, 3, 2)), n(size=(2, 2, 3, 2))]))
    scene_labels = [rng.integers(0, 3, size=(2, 3)) for _ in range(2)]
    scene_labels[1][1, 2] = 255
    cases.append(("cross_entropy over two scenes", lambda x, y: cross_entropy(
        [x, y], scene_labels), [n(size=(3, 2, 3)), n(size=(3, 2, 3))]))
    cases.append(("consistency over two scenes",  # b in both scenes: fan-in
                  lambda a, b, c, d, e: consistency_loss([[(a, b, c), (c, a, b)],
                                                          [(d, e, b), (b, d, e)]], 5),
                  [n(size=(3, 2, 2)) for _ in range(5)]))
    head = init_head_params((2, 3, 2, 2), 4, 3, np.random.default_rng(0))
    cls = [k for k in head if k.startswith("head.cls")]
    decode_weights = Tensor(n(size=(3, 5, 3)))
    cases.append(("decode", lambda e, w, b: m(T.mul(decode(e, dict(zip(cls, (w, b))), (5, 3)),
                                                   decode_weights)),
                  [n(size=(4, 2, 3)), *(n(scale=0.5, size=head[k].shape) for k in cls)]))
    return cases


def _full_loss(scene, cfg, params):
    l_m, l_c, _ = forward_train([scene], cfg, params, "masm")
    return total_loss(l_m, l_c, beta=1.0)


def test_criterion_2_gradients_per_op_and_end_to_end():
    start = time.monotonic()

    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        for name, build, arrays in _op_cases(rng):
            try:
                check_grads(build, arrays, tol=1e-4)
            except AssertionError as exc:
                raise AssertionError(f"op {name}, seed {seed}: {exc}") from exc

    # full loss L = L_M + beta*L_C through encoder, selection, and head
    scene = generate_dataset(11, count=1, h=32, w=32, k=3, m=4,
                             p_night=0.5).scenes[0]
    cfg = TrainConfig(**TINY).model_config(3, MODALITIES)
    params = init_model_params(cfg, seed=0)
    loss = _full_loss(scene, cfg, params)
    backward(loss)

    rng = np.random.default_rng(2)
    with_grad = sorted(n for n, t in params.items() if t.grad is not None)
    eps = 1e-6  # the loss has strong curvature; larger steps alias it
    for pname in rng.choice(with_grad, size=10, replace=False):
        tensor = params[pname]
        idx = np.unravel_index(rng.integers(tensor.data.size), tensor.data.shape)
        base = tensor.data.copy()
        vals = []
        try:
            for sign in (+1, -1):
                probe = base.copy()
                probe[idx] += sign * eps
                tensor.data = probe
                with no_grad():
                    vals.append(_full_loss(scene, cfg, params).item())
        finally:
            tensor.data = base
        numeric = (vals[0] - vals[1]) / (2 * eps)
        err = max_rel_err(np.asarray(tensor.grad[idx]), np.asarray(numeric))
        assert err < 1e-3, f"{pname}{list(idx)}: end-to-end rel err {err:.3g}"

    assert time.monotonic() - start < 60.0


def test_criterion_2_every_recorded_op_has_a_gradient_case(monkeypatch):
    """Every op name the model records, in a masm and a mean training step at
    the benchmark's training size and in one evaluated scene, names a
    finite-difference case of ``_op_cases``; and every case names an op the
    model records or one ``tests/helpers.py`` records, so a case outlives no
    deleted op. A case's op name is its first word."""
    record = T.record_op
    recorded = set()
    helper_ops = set()

    def spy(name, *rest):
        recorded.add(name)
        return record(name, *rest)

    def helper_spy(name, *rest):
        helper_ops.add(name)
        return record(name, *rest)

    for info in pkgutil.iter_modules(modalseg.__path__):
        mod = importlib.import_module(f"modalseg.{info.name}")
        if getattr(mod, "record_op", None) is record:
            monkeypatch.setattr(mod, "record_op", spy)
    monkeypatch.setattr(helpers, "record_op", helper_spy)
    ds = generate_dataset(5, count=4, h=32, w=32, k=3, m=4, p_night=0.5)
    for fusion in ("masm", "mean"):
        cfg = TrainConfig(stage_channels=(8, 12, 16, 24), d_embed=16, base_lr=1e-2,
                          batch_size=4, epochs=1, fusion=fusion, beta=1.0, seed=0)
        mcfg = cfg.model_config(ds.num_classes, ds.modality_names)
        params = init_model_params(mcfg, 0)
        train_step(ds.scenes, params, AdamState(), cfg, mcfg, lr=1e-2)
    run_mass_eval(mcfg, params, dataclasses.replace(ds, scenes=ds.scenes[:1]))

    assert {"mim", "consistency", "cross_entropy", "encode_stage"} <= recorded  # every binding
    cases = _op_cases(np.random.default_rng(0))
    case_ops = {name.split()[0] for name, _, _ in cases}
    assert recorded <= case_ops, f"ops without a gradient case: {sorted(recorded - case_ops)}"

    model_ops = set(recorded)
    with no_grad():
        for _, build, arrays in cases:
            build(*[Tensor(a) for a in arrays])
    assert {"sum", "cross_rectify"} <= helper_ops  # the spy saw the helpers' binding
    stale = case_ops - model_ops - helper_ops
    assert not stale, f"gradient cases for ops nothing records: {sorted(stale)}"


# ---------------------------------------------------------------------------
# 3. Oracle suite


def test_criterion_3_oracles():
    # modality ranking vs an independent stable sort on numpy cosines
    rng = np.random.default_rng(3)
    for _ in range(50):
        feats = [rng.normal(size=(3, 4, 4)) for _ in range(4)]
        fm = np.mean(feats, axis=0)
        scores = [float(np.dot(f.ravel(), fm.ravel())
                        / (np.linalg.norm(f) * np.linalg.norm(fm)))
                  for f in feats]
        order = np.argsort([-s for s in scores], kind="stable")
        got = rank_modalities([Tensor(f) for f in feats], Tensor(fm))
        assert got.robust_idx == order[0]
        assert got.fragile_idx == order[-1]
        assert got.remaining == tuple(order[1:-1])

    # mIoU vs per-class set arithmetic
    rng = np.random.default_rng(4)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        gt = rng.integers(0, k, size=(20, 20))
        pred = rng.integers(0, k, size=(20, 20))
        gt[rng.random((20, 20)) < 0.1] = 255
        got = miou(confusion_matrix(gt, pred, k))
        valid = gt != 255
        ious = []
        for c in range(k):
            inter = np.sum(valid & (gt == c) & (pred == c))
            union = np.sum(valid & ((gt == c) | (pred == c)))
            if union:
                ious.append(inter / union)
        assert abs(got - 100.0 * float(np.mean(ious))) < 1e-9

    # cross-entropy vs a per-pixel scalar loop
    rng = np.random.default_rng(5)
    for _ in range(10):
        logits = rng.normal(size=(3, 4, 4))
        labels = rng.integers(0, 3, size=(4, 4)).astype(np.uint8)
        labels[0, 0] = 255
        total, count = 0.0, 0
        for i in range(4):
            for j in range(4):
                if labels[i, j] == 255:
                    continue
                z = logits[:, i, j]
                pz = np.exp(z - z.max())
                total += -math.log(pz[labels[i, j]] / pz.sum())
                count += 1
        got = cross_entropy([Tensor(logits)], [labels]).item()
        assert abs(got - total / count) < 1e-10


# ---------------------------------------------------------------------------
# 4. Loss identities


def test_criterion_4_consistency_identities():
    rng = np.random.default_rng(6)
    f_mim, f = Tensor(rng.normal(size=(3, 4, 4))), Tensor(rng.normal(size=(3, 4, 4)))
    # equal features have equal similarities, which cancel exactly
    assert consistency_loss([[(f_mim, f, f)]], class_count=25).item() == 0.0

    # symmetry and non-negativity over random feature pairs
    for _ in range(1000):
        f_mim, a, b = (Tensor(rng.normal(size=(3, 2, 2))) for _ in range(3))
        fwd = consistency_loss([[(f_mim, a, b)]], 7).item()
        rev = consistency_loss([[(f_mim, b, a)]], 7).item()
        assert abs(fwd - rev) < 1e-12
        assert fwd >= -1e-12

    # extreme disagreement, similarities 1 and SIM_EPS, approaches K*ln(2)
    got = consistency_loss([[(f, f, T.mul(f, -1.0))]], 25).item()
    assert abs(got - 25 * math.log(2)) < 1e-3

    # beta=0 collapses the total loss to the supervision term bit-for-bit
    l_m = Tensor(np.float64(1.2345678901234567))
    l_c = Tensor(np.float64(9.87654321))
    combined = total_loss(l_m, l_c, beta=0.0)
    assert combined.data.tobytes() == l_m.data.tobytes()


# ---------------------------------------------------------------------------
# 5. Protocol counts


def test_criterion_5_subset_protocol():
    assert enumerate_subsets(4) == [
        (0,), (1,), (2,), (3,),
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
        (0, 1, 2, 3)]
    assert enumerate_subsets(3) == [
        (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


# ---------------------------------------------------------------------------
# 6. Selection semantics experiment


def test_criterion_6_night_camera_ranks_fragile():
    """Two-modality setup (camera + depth) isolates the day/night contrast;
    with sparse modalities present they monopolize the fragile slot and the
    condition signal on camera is invisible at any scale.
    """
    start = time.monotonic()
    mods = ("camera", "depth")
    train_ds = generate_dataset(100, count=16, h=32, w=32, k=4, m=2,
                                p_night=0.5)
    eval_ds = generate_dataset(200, count=60, h=32, w=32, k=4, m=2,
                               p_night=0.5)
    cfg = TrainConfig(**TINY, base_lr=1e-2, epochs=2, batch_size=4, seed=0)
    with tempfile.TemporaryDirectory() as out:
        params, _ = train(cfg, train_ds, out)
    mcfg = cfg.model_config(train_ds.num_classes, mods)

    hits = {"day": 0, "night": 0}
    totals = {"day": 0, "night": 0}
    for scene in eval_ds.scenes:
        with no_grad():
            levels = encode_batch(scene_tensors(scene), mcfg, params)
            _, rankings, _ = masm_forward(levels, len(mods), params)
        totals[scene.condition] += 1
        hits[scene.condition] += rankings[0][0].fragile_idx == 0  # scale 1, camera

    assert totals["day"] > 0 and totals["night"] > 0
    freq_night = hits["night"] / totals["night"]
    freq_day = hits["day"] / totals["day"]
    assert freq_night > 0
    assert freq_night >= 2 * freq_day, (
        f"night {freq_night:.2f} vs day {freq_day:.2f}")
    assert time.monotonic() - start < 600.0


# ---------------------------------------------------------------------------
# 7. Directional robustness experiment


def _train_and_eval(fusion, beta, seed, train_ds, eval_ds, epochs, lr):
    cfg = TrainConfig(stage_channels=(8, 12, 16, 24), d_embed=16,
                      fusion=fusion, beta=beta, base_lr=lr, epochs=epochs,
                      batch_size=4, seed=seed)
    with tempfile.TemporaryDirectory() as out:
        params, _ = train(cfg, train_ds, out)
    mcfg = cfg.model_config(train_ds.num_classes, MODALITIES)
    return run_mass_eval(mcfg, params, eval_ds).mean


def test_criterion_7_selection_training_beats_mean_fusion():
    """Identical data, seeds, and step budgets per arm; the selection-trained
    model must beat the mean-fusion, beta=0 ablation on the subset-mean mIoU
    by two points on average, with the direction holding on all three seeds.
    """
    start = time.monotonic()
    margins = []
    for seed in (0, 1, 2):
        train_ds = generate_dataset(1000 + seed, count=16, h=32, w=32, k=3,
                                    m=4, p_night=0.5)
        eval_ds = generate_dataset(2000 + seed, count=48, h=32, w=32, k=3,
                                   m=4, p_night=0.5)
        selected = _train_and_eval("masm", 1.0, seed, train_ds, eval_ds,
                                   epochs=80, lr=1e-2)
        ablation = _train_and_eval("mean", 0.0, seed, train_ds, eval_ds,
                                   epochs=80, lr=1e-2)
        margins.append(selected - ablation)

    rounded = [round(m, 2) for m in margins]
    assert all(m > 0 for m in margins), f"direction lost: margins {rounded}"
    assert float(np.mean(margins)) >= 2.0, f"margins {rounded}"
    assert time.monotonic() - start < 900.0


# ---------------------------------------------------------------------------
# 8. Determinism and IO


def test_criterion_8_determinism_and_io(tmp_path):
    ds = generate_dataset(21, count=4, h=32, w=32, k=3, m=4, p_night=0.5)
    cfg = TrainConfig(**TINY, base_lr=1e-3, epochs=2, batch_size=2, seed=9)
    mcfg = cfg.model_config(3, MODALITIES)

    runs = []
    for tag in ("a", "b"):
        params, history = train(cfg, ds, tmp_path / tag)
        report = render_report(run_mass_eval(mcfg, params, ds), "csv")
        runs.append((history, report,
                     {k: v.data.tobytes() for k, v in params.items()}))
    assert runs[0][0] == runs[1][0]  # loss curves bit-identical
    assert runs[0][1] == runs[1][1]  # rendered reports identical
    assert runs[0][2] == runs[1][2]  # final parameters identical

    # dataset container round-trip is byte-stable
    p1, p2 = tmp_path / "d1.mmss", tmp_path / "d2.mmss"
    write_dataset(p1, ds)
    write_dataset(p2, read_dataset(p1))
    assert p1.read_bytes() == p2.read_bytes()

    # checkpoint round-trip is byte-stable
    c1 = tmp_path / "a" / "model.mmck"
    c2 = tmp_path / "copy.mmck"
    save_checkpoint(c2, load_checkpoint(c1))
    assert c1.read_bytes() == c2.read_bytes()

    # corruption surfaces as typed errors, never raw crashes
    bad_magic = bytearray(p1.read_bytes())
    bad_magic[:4] = b"JUNK"
    (tmp_path / "bad.mmss").write_bytes(bytes(bad_magic))
    with pytest.raises(BadMagicError):
        read_dataset(tmp_path / "bad.mmss")

    (tmp_path / "cut.mmss").write_bytes(p1.read_bytes()[:40])
    with pytest.raises(DatasetFormatError):
        read_dataset(tmp_path / "cut.mmss")

    (tmp_path / "cut.mmck").write_bytes(c1.read_bytes()[:-20])
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "cut.mmck")
