"""modalseg benchmark: one workload per run, result as the last stdout line.

    python3 bench/run.py --workload train-masm --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/``. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it wraps the package's functions, records spans and reports
the per-layer metrics instead, writing the spans to
``.bench_work/trace-<workload>-<seed>.json``. Either way it checks the
program's outputs and exits 1 if any check fails (2 if the package cannot be
imported from the checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The keys of workloads.WORKLOADS, listed here so that arguments are checked
# before numpy and the program are imported.
WORKLOAD_NAMES = ("train-masm", "train-mean", "eval-subsets")


def pin_threads() -> None:
    """One BLAS thread; must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_program() -> bool:
    """Put the checkout's ``src/`` first on the path and import modalseg from it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import modalseg
    except ImportError as exc:
        print(f"cannot import modalseg from {src}: {exc}", file=sys.stderr)
        return False
    if not Path(modalseg.__file__).resolve().is_relative_to(src):
        print(f"modalseg resolved outside the checkout: {modalseg.__file__}", file=sys.stderr)
        return False
    return True


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    pin_threads()
    args = parse_args(argv)
    if not import_program():
        return 2
    import workloads  # after pin_threads and the program import
    from tracing import Rebinder, Tracer

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    tracer = Tracer() if args.trace else None
    try:
        with Rebinder() as rebinder:
            if tracer is not None:
                tracer.install(rebinder, workloads.trace_hooks())
            out = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer, scratch)
            if tracer is not None:
                figures = workloads.per_layer(tracer, out)
                tracer.write(work / f"trace-{args.workload}-{args.seed}.json")
            else:
                figures = workloads.end_to_end(out)
                print(workloads.spread_summary(out), file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for failure in out.fails:
        print(f"check failed: {failure}", file=sys.stderr)
    correct = not out.fails
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in figures.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
