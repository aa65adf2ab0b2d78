"""Reference segmentation quality of the benchmark's models; reported, not gated.

    python3 bench/miou.py [--seed 0]

Trains one timed round of each training workload (40 epochs on 16 scenes)
and the eval-subsets set-up model, then prints the subset-mean mIoU on the
training scenes and on held-out scenes drawn the same way. Held-out scenes
carry no class signal the model can learn across scenes (class colours and
depths are redrawn per scene), so held-out figures sit near chance.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import run


def main(argv=None) -> int:
    run.pin_threads()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=0)
    seed = p.parse_args(argv).seed
    if not run.import_program():
        return 2
    import workloads as W
    from modalseg import data, evaluate, train

    held_out_count = 48
    rows = []
    work = run.ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for fusion in ("masm", "mean"):
            cfg = train.TrainConfig(**W.TRAIN_CFG, fusion=fusion,
                                    beta=1.0 if fusion == "masm" else 0.0, seed=seed)
            seen = data.generate_dataset(seed, **W.TRAIN_DATA)
            unseen = data.generate_dataset(seed + W.EVAL_SEED_OFFSET,
                                           **{**W.TRAIN_DATA, "count": held_out_count})
            params, _ = train.train(cfg, seen, Path(tmp) / fusion)
            rows.append((f"train-{fusion}", cfg, params, seen, unseen))
        cfg = train.TrainConfig(epochs=W.EVAL_SETUP_EPOCHS, seed=seed)
        seen = data.generate_dataset(seed, **W.EVAL_SETUP_DATA)
        unseen = data.generate_dataset(seed + W.EVAL_SEED_OFFSET, **W.EVAL_DATA)
        params, _ = train.train(cfg, seen, Path(tmp) / "eval")
        rows.append(("eval-subsets", cfg, params, seen, unseen))

    print("| workload | training-set mIoU | held-out mIoU | held-out scenes |")
    print("|---|---|---|---|")
    for name, cfg, params, seen, unseen in rows:
        mcfg = cfg.model_config(seen.num_classes, seen.modality_names)
        train_miou = evaluate.run_mass_eval(mcfg, params, seen).mean
        held_miou = evaluate.run_mass_eval(mcfg, params, unseen).mean
        print(f"| {name} | {train_miou:.1f} | {held_miou:.1f} | {len(unseen.scenes)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
