"""Correctness checks: the program's outputs against ``reference``.

The comparison functions are pure, so the self-test can hand them wrong
answers. ``training_round`` and ``evaluation_slice`` run the program with
hooks that capture what each check needs and report every mismatch to a
``Failures`` list.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

import reference
from tracing import Rebinder

from modalseg import evaluate, model, train
from modalseg.tensor import no_grad

FD_EPS = 1e-6
FD_TOL = 1e-4  # relative, floored at FD_FLOOR, as in the package's own tests
FD_FLOOR = 1e-3
FD_PER_GROUP = 3  # sampled entries per parameter group
FD_STEP = 2  # the optimizer step whose gradients are checked; moments are warm by then
LOGIT_RTOL = 1e-9
TIE_TOL = 1e-9  # cosine scores closer than this count as tied


class Failures(list):
    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.append(what)


def numpy_params(params) -> dict[str, np.ndarray]:
    return {name: p.data.copy() for name, p in params.items()}


# ---------------------------------------------------------------------------
# pure comparisons


def fd_agrees(grad_entry: float, fd: float) -> bool:
    """Tape gradient entry vs central difference, relative error floored."""
    return abs(grad_entry - fd) <= FD_TOL * max(abs(grad_entry), abs(fd), FD_FLOOR)


def adam_matches(before, after, lr, t) -> bool:
    """``before``/``after``: name -> (param, grad, m, v); grad is None when skipped."""
    for name, (p0, g, m0, v0) in before.items():
        p1, _, m1, v1 = after[name]
        if g is None:
            if not np.array_equal(p0, p1):
                return False
            continue
        if m0 is None:
            m0 = v0 = np.zeros_like(p0)
        p, m, v = reference.adamw(p0, g, m0, v0, t, lr)
        scale = np.abs(p0) + lr
        if not (np.all(np.abs(p1 - p) <= 1e-10 * scale)
                and np.allclose(m1, m, rtol=1e-12, atol=0)
                and np.allclose(v1, v, rtol=1e-12, atol=0)):
            return False
    return True


def ranking_matches(features, robust: int, fragile: int) -> bool:
    scores = reference.cosine_scores(features)
    return (robust != fragile and scores[robust] >= scores.max() - TIE_TOL
            and scores[fragile] <= scores.min() + TIE_TOL)


def logits_match(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and bool(
        np.max(np.abs(got - want)) <= LOGIT_RTOL * max(1.0, float(np.max(np.abs(want)))))


def confident(want_logits: np.ndarray) -> np.ndarray:
    """Pixels whose top-two logit margin exceeds the logit tolerance."""
    top2 = np.sort(want_logits, axis=0)[-2:]
    tol = 10 * LOGIT_RTOL * max(1.0, float(np.max(np.abs(want_logits))))
    return (top2[1] - top2[0]) > tol


def predictions_match(pred: np.ndarray, want_logits: np.ndarray) -> bool:
    sure = confident(want_logits)
    return bool(np.array_equal(pred[sure], np.argmax(want_logits, axis=0)[sure]))


def datasets_equal(a, b) -> bool:
    return (a.num_classes == b.num_classes
            and tuple(a.modality_names) == tuple(b.modality_names)
            and len(a.scenes) == len(b.scenes)
            and all(x.seed == y.seed and x.condition == y.condition
                    and np.array_equal(x.labels, y.labels)
                    and all(np.array_equal(i, j) for i, j in zip(x.modalities, y.modalities))
                    for x, y in zip(a.scenes, b.scenes)))


# ---------------------------------------------------------------------------
# training


def grad_entry(p, idx) -> float:
    """The tape gradient at one entry; a parameter the loss never reached has 0."""
    return 0.0 if p.grad is None else float(p.grad[idx])


def _sample_entries(params, rng, grouped_prefixes):
    picks = []
    for prefix in grouped_prefixes:
        names = sorted(n for n in params if n.startswith(prefix))
        for name in rng.choice(names, size=FD_PER_GROUP, replace=False):
            shape = params[name].shape
            picks.append((str(name), tuple(int(i) for i in rng.integers(0, shape))))
    return picks


def check_gradients(batch, params, cfg, model_cfg, rng, fails: Failures) -> None:
    """Central differences of the batch loss for sampled encoder/MIM/head entries.

    An entry whose difference quotient moves between eps and eps/2 sits on a
    kink (a ranking flip or a max-pool switch) and is replaced by another.
    """
    def loss() -> float:
        with no_grad():
            return train.batch_losses(batch, model_cfg, params, cfg)[2].item()

    def central(p, idx, eps) -> float:
        base = p.data
        vals = []
        for sign in (1.0, -1.0):
            probe = base.copy()
            probe[idx] += sign * eps
            p.data = probe
            vals.append(loss())
        p.data = base
        return (vals[0] - vals[1]) / (2 * eps)

    checked = 0
    for attempt in range(3):
        for name, idx in _sample_entries(params, rng, ("enc.", "mim.", "head.")):
            p = params[name]
            fd = central(p, idx, FD_EPS)
            if not fd_agrees(fd, central(p, idx, FD_EPS / 2)):
                continue
            grad = grad_entry(p, idx)
            fails.expect(fd_agrees(grad, fd),
                         f"gradient {name}{list(idx)}: tape {grad:.6g} vs fd {fd:.6g}")
            checked += 1
        if checked >= 2 * FD_PER_GROUP:
            break
    fails.expect(checked >= 2 * FD_PER_GROUP, f"only {checked} gradient entries checkable")


def training_round(cfg, dataset, out_dir, rng, fails: Failures) -> None:
    """One ``train()`` call at the timed configuration, checked step by step."""
    model_cfg = cfg.model_config(dataset.num_classes, dataset.modality_names)
    steps_per_epoch = -(-len(dataset.scenes) // cfg.batch_size)
    total = cfg.epochs * steps_per_epoch
    seen = {"steps": 0, "ranks": 0}
    current = {}

    def step_hook(fn):
        def wrapper(batch, params, opt, tcfg, mcfg, lr):
            want = reference.lr_schedule(opt.step, total, cfg.base_lr)
            fails.expect(abs(lr - want) <= 1e-12 * cfg.base_lr,
                         f"lr at step {opt.step}: {lr!r} vs schedule {want!r}")
            current["batch"] = batch
            return fn(batch, params, opt, tcfg, mcfg, lr)
        return wrapper

    def adam_hook(fn):
        def wrapper(params, state, lr):
            seen["steps"] += 1
            current["state"] = state
            if seen["steps"] == FD_STEP:
                ranks = seen["ranks"]
                check_gradients(current["batch"], params, cfg, model_cfg, rng, fails)
                seen["ranks"] = ranks  # the probes' forward passes rank again

            def snap(name, p, grad):
                m, v = state.m.get(name), state.v.get(name)
                return (p.data.copy(), grad, None if m is None else m.copy(),
                        None if v is None else v.copy())

            before = {n: snap(n, p, None if p.grad is None else p.grad.copy())
                      for n, p in params.items()}
            t = state.step + 1
            fn(params, state, lr)
            after = {n: snap(n, p, None) for n, p in params.items()}
            fails.expect(state.step == t, f"optimizer step {state.step}, expected {t}")
            fails.expect(adam_matches(before, after, lr, t),
                         f"AdamW update at step {t} differs from the reference")
        return wrapper

    def rank_hook(fn):
        def wrapper(features, f_m):
            result = fn(features, f_m)
            seen["ranks"] += 1
            fails.expect(ranking_matches([f.data for f in features],
                                         result.robust_idx, result.fragile_idx),
                         f"ranking {result.robust_idx}/{result.fragile_idx} is not "
                         f"argmax/argmin of the cosine to the mean")
            return result
        return wrapper

    with Rebinder() as hooks:
        hooks.wrap("modalseg.train.train_step", step_hook)
        hooks.wrap("modalseg.train.adam_update", adam_hook)
        hooks.wrap("modalseg.masm.rank_modalities", rank_hook)
        params, _ = train.train(cfg, dataset, out_dir)

    fails.expect(seen["steps"] == total, f"{seen['steps']} optimizer steps, expected {total}")
    levels = len(cfg.stage_channels)
    want_ranks = total * cfg.batch_size * levels if cfg.fusion == "masm" else 0
    fails.expect(seen["ranks"] == want_ranks,
                 f"{seen['ranks']} rankings checked, expected {want_ranks}")
    ckpt = train.load_checkpoint(Path(out_dir) / "model.mmck")
    state = current["state"]
    fails.expect(
        list(ckpt.params) == list(params)
        and all(np.array_equal(ckpt.params[n].data, params[n].data) for n in params)
        and ckpt.opt.step == state.step and sorted(ckpt.opt.m) == sorted(state.m)
        and all(np.array_equal(ckpt.opt.m[n], state.m[n])
                and np.array_equal(ckpt.opt.v[n], state.v[n]) for n in state.m),
        "reloaded checkpoint differs from the trained parameters or moments")


def check_history(history, fails: Failures) -> None:
    fails.expect(history[-1]["l_m"] < history[0]["l_m"],
                 f"L_M did not fall: first epoch {history[0]['l_m']:.6f}, "
                 f"last {history[-1]['l_m']:.6f}")


# ---------------------------------------------------------------------------
# evaluation


def check_reports(reports, m: int, fails: Failures) -> None:
    first = reports[0]
    for r in reports:
        fails.expect(len(r.scores) == 2 ** m - 1 == len(r.subset_names),
                     f"{len(r.scores)} subsets scored, expected {2 ** m - 1}")
        fails.expect(abs(r.mean - sum(r.scores) / len(r.scores)) <= 1e-9,
                     f"reported mean {r.mean} is not the subset average")
        fails.expect(r.scores == first.scores, "repeated evaluation changed the scores")


def evaluation_slice(mcfg, params, dataset, fails: Failures) -> None:
    """Reference forward pass on every subset of a few scenes."""
    ref_params = numpy_params(params)
    subsets = reference.subsets(len(mcfg.modality_names))
    preds = []

    def infer_hook(fn):
        def wrapper(images, cfg, prm, out_size):
            pred = fn(images, cfg, prm, out_size)
            preds.append(pred)
            return pred
        return wrapper

    with Rebinder() as hooks:
        hooks.wrap("modalseg.evaluate.infer", infer_hook)
        report = evaluate.run_mass_eval(mcfg, params, dataset)
    fails.expect(len(preds) == len(dataset.scenes) * len(subsets),
                 f"{len(preds)} predictions for {len(dataset.scenes)} scenes")

    cms = [np.zeros((dataset.num_classes,) * 2, dtype=np.int64) for _ in subsets]
    for si, scene in enumerate(dataset.scenes):
        size = scene.labels.shape
        pyramids = [reference.encode(img, ref_params, mcfg.stage_channels,
                                     mcfg.blocks_per_stage) for img in scene.modalities]
        images = model.scene_tensors(scene)
        for j, subset in enumerate(subsets):
            want = reference.subset_logits([pyramids[i] for i in subset], ref_params, size)
            picked = [images[i] for i in subset]
            with no_grad():
                got = model.infer_logits(picked, mcfg, params, size).data
                doubled = model.infer_logits(picked + picked, mcfg, params, size).data
            tag = f"scene {si} subset {evaluate.subset_name(subset, mcfg.modality_names)}"
            fails.expect(logits_match(got, want), f"{tag}: logits differ from reference")
            k = si * len(subsets) + j
            pred = preds[k] if k < len(preds) else None
            fails.expect(pred is not None and predictions_match(pred, want),
                         f"{tag}: prediction differs from reference argmax")
            fails.expect(logits_match(doubled, want)
                         and predictions_match(np.argmax(doubled, axis=0), want),
                         f"{tag}: repeating every image changed the prediction")
            if pred is not None:
                cms[j] += reference.confusion(scene.labels, pred, dataset.num_classes)
    for j, cm in enumerate(cms):
        fails.expect(abs(reference.miou(cm) - report.scores[j]) <= 1e-9,
                     f"subset {report.subset_names[j]}: mIoU {report.scores[j]} vs "
                     f"recount {reference.miou(cm)}")
    check_reports([report], len(mcfg.modality_names), fails)


def sliced(dataset, count: int):
    return replace(dataset, scenes=dataset.scenes[:count])

