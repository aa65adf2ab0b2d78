"""The benchmark's self-test, run as part of the suite.

The benchmark rebinds package functions by name (``train_step``,
``adam_update``, ``rank_modalities``, ...) and calls others directly, so a
rename or deletion there fails this test, not only a benchmark run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_exits_zero():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
