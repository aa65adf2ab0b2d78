"""Command-line entry points: synth, train, eval, report.

Typical session:

    modalseg synth --seed 7 --out data/ --train 200 --eval 50 --p-night 0.5
    modalseg train --config train.ini --data data/train.mmss --out run/
    modalseg eval --model run/model.mmck --data data/eval.mmss \
        --report run/report.md --format markdown
    modalseg report --report-json run/report.md.json --format csv

Every error exits nonzero with a one-line message on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from .container import atomic_target
from .data import generate_dataset, read_dataset, write_dataset
from .evaluate import (rankings_csv, render_report, report_from_json,
                       report_to_json, run_mass_eval)
from .train import TrainConfig, load_checkpoint, load_config, train


def _cmd_synth(args) -> int:
    out = Path(args.out)
    specs = [("train.mmss", args.train, args.seed),
             ("eval.mmss", args.eval, args.seed + 1)]
    for fname, count, _ in specs:
        if count < 1:
            raise ValueError(f"scene count for {fname} must be positive")
    for fname, count, seed in specs:
        ds = generate_dataset(seed, count=count, h=args.size, w=args.size,
                              k=args.classes, m=args.modalities,
                              p_night=args.p_night)
        out.mkdir(parents=True, exist_ok=True)  # the generator has checked its arguments
        write_dataset(out / fname, ds)
        print(f"wrote {out / fname}: {count} scenes, {args.size}x{args.size}, "
              f"K={args.classes}, M={args.modalities}")
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config) if args.config else TrainConfig()
    dataset = read_dataset(args.data)
    resume = load_checkpoint(args.resume) if args.resume else None
    _, history = train(cfg, dataset, args.out, resume=resume)
    last = history[-1]
    print(f"trained {last['epoch']} epochs; final L_M={last['l_m']:.4f} "
          f"L_C={last['l_c']:.4f} L={last['loss']:.4f}")
    print(f"checkpoint: {Path(args.out) / 'model.mmck'}")
    return 0


def _cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.model)
    dataset = read_dataset(args.data)
    cfg = ckpt.config.model_config(ckpt.num_classes, ckpt.modality_names)
    report = run_mass_eval(cfg, ckpt.params, dataset)
    rendered = render_report(report, args.format)
    # everything that can fail runs before the first write
    rankings = rankings_csv(cfg, ckpt.params, dataset) if args.dump_rankings else None
    report_path = Path(args.report)
    texts = {report_path: rendered, Path(f"{report_path}.json"): report_to_json(report)}
    if rankings is not None:
        texts[Path(args.dump_rankings)] = rankings
    report_path.parent.mkdir(parents=True, exist_ok=True)
    _write_texts(texts)
    print(rendered, end="")
    print(f"mean mIoU over {len(report.scores)} subsets: {report.mean:.2f}")
    return 0


def _cmd_report(args) -> int:
    report = report_from_json(Path(args.report_json).read_bytes())
    rendered = render_report(report, args.format)
    if args.out:
        _write_texts({Path(args.out): rendered})
    print(rendered, end="")
    return 0


def _write_texts(texts: dict[Path, str]) -> None:
    """Write each text to its path through ``atomic_target``. No file is
    renamed into place before every one is written, so a failed write leaves
    all previous files whole and no temp file behind."""
    with contextlib.ExitStack() as stack:
        for path, text in texts.items():
            stack.enter_context(atomic_target(path)).write_text(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modalseg",
        description="Multi-modal segmentation: synthesize, train, evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate train/eval .mmss datasets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--train", type=int, default=200, help="training scene count")
    p.add_argument("--eval", type=int, default=50, help="evaluation scene count")
    p.add_argument("--p-night", type=float, default=0.5)
    p.add_argument("--size", type=int, default=64, help="square scene size")
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--modalities", type=int, default=4)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a model on a .mmss dataset")
    p.add_argument("--config", help="INI config; defaults used when omitted")
    p.add_argument("--data", required=True, help="training .mmss file")
    p.add_argument("--out", required=True, help="run directory for checkpoint/logs")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="subset-exhaustive evaluation of a checkpoint")
    p.add_argument("--model", required=True, help=".mmck checkpoint")
    p.add_argument("--data", required=True, help="evaluation .mmss file")
    p.add_argument("--report", required=True, help="output table path")
    p.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    p.add_argument("--dump-rankings", help="write per-scene ranking CSV here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="re-render a saved evaluation")
    p.add_argument("--report-json", required=True, help="sidecar written by eval")
    p.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    p.add_argument("--out", help="write here instead of stdout only")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # CLI boundary: every failure is a clean nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
