"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Runs short in-process benchmark runs, first clean and then with one wrong
answer injected into a check's inputs each time:

- a perturbed tape-gradient entry, before the finite-difference comparison
- a perturbed encoder parameter, before the plain-numpy reference forward
- a wrong AdamW constant (beta1 0.8) in the expected update

Each clean run must exit 0 with ``"correct": true``. Each faulty run must
name the failed check, print ``"correct": false`` and exit 1. Exits 0 when
all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run


@contextlib.contextmanager
def patched(owner, name, value):
    old = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, old)


def short_run(workload: str) -> tuple[int, dict, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1"])
    return code, json.loads(out.getvalue().strip().splitlines()[-1]), err.getvalue()


def main() -> int:
    run.pin_threads()
    if not run.import_program():
        return 2
    import checks
    import reference
    import workloads

    grad_entry, numpy_params = checks.grad_entry, checks.numpy_params

    def perturbed_params(params):
        arrays = numpy_params(params)
        arrays["enc.s0.patch.w"][0, 0] += 1e-3
        return arrays

    faults = [
        ("perturbed gradient entry", "train-mean", "gradient ",
         patched(checks, "grad_entry", lambda p, idx: grad_entry(p, idx) + 1e-3)),
        ("perturbed parameter before the reference forward", "eval-subsets",
         "logits differ from reference", patched(checks, "numpy_params", perturbed_params)),
        ("wrong AdamW constant", "train-mean", "AdamW update",
         patched(reference, "ADAM", {**reference.ADAM, "beta1": 0.8})),
    ]
    ok = True
    with patched(workloads, "MIN_OPS", 1):
        for workload in ("train-mean", "eval-subsets"):
            code, result, err = short_run(workload)
            passed = code == 0 and result["correct"] is True
            print(f"{'ok  ' if passed else 'FAIL'} clean {workload}: exit {code}")
            if not passed:
                print(err, file=sys.stderr)
            ok &= passed
        for label, workload, message, fault in faults:
            with fault:
                code, result, err = short_run(workload)
            named = [line for line in err.splitlines()
                     if line.startswith("check failed:") and message in line]
            passed = code == 1 and result["correct"] is False and bool(named)
            print(f"{'ok  ' if passed else 'FAIL'} {label} on {workload}: exit {code}, "
                  f"{named[0] if named else 'no matching check failure'}")
            ok &= passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
