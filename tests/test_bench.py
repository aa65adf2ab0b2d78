"""The benchmark's self-test and short traced runs, as part of the suite.

The benchmark rebinds package functions by name (``train_step``,
``adam_update``, ``rank_modalities``, ...) and calls others directly, so a
rename or deletion there fails these tests, not only a benchmark run. The
traced runs also check the per-step and per-scene call counts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_exits_zero():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", ["train-masm", "eval-subsets"])
def test_traced_bench_run_passes_its_checks(workload):
    """A short traced run: the call-count checks the method fixes (15
    ``head.decode`` and ``model.infer`` calls per scene, 4 ``head.decode`` and
    16 ``mim_forward`` calls per step) and every reference check."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", "0.1", "--trace", "1"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
