"""Call hooks and spans recorded from outside the program.

``Rebinder`` replaces a modalseg function by a wrapper in every modalseg
module that holds a reference to it (``from .tensor import record_op`` makes
``modalseg.head.record_op`` a second binding of the same function), and puts
the originals back on ``restore``. ``Tracer`` builds the wrappers: one span
per call (name, start, end, parent span, unit id), kept in memory and
written out once at the end of the run. ``record_op`` runs thousands of times
per step, so it is counted and timed per unit instead of getting a span each.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter_ns


class Rebinder:
    """Swap functions for wrappers wherever modalseg looks them up."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, qualname: str, factory) -> int:
        """Rebind ``qualname`` to ``factory(original)``; returns the number of sites."""
        modname, attr = qualname.rsplit(".", 1)
        original = getattr(importlib.import_module(modname), attr)
        wrapper = factory(original)
        sites = 0
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "modalseg" or name.startswith("modalseg.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))
                    sites += 1
        if sites == 0:
            raise RuntimeError(f"no binding of {qualname} found to wrap")
        return sites

    def restore(self) -> None:
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def __enter__(self) -> "Rebinder":
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False


# Functions that get a span in the traced run, by layer.
SPANNED = (
    "modalseg.tensor.backward",
    "modalseg.encoder.encode_batch",
    "modalseg.masm.masm_forward",
    "modalseg.masm.rank_modalities",
    "modalseg.masm.consistency_loss",
    "modalseg.mim.mim_forward",
    "modalseg.head.decode",
    "modalseg.head.cross_entropy",
    "modalseg.model.forward_train",
    "modalseg.model.infer",
    "modalseg.train.adam_update",
    "modalseg.train.save_checkpoint",
    "modalseg.train.load_checkpoint",
    "modalseg.evaluate.confusion_matrix",
    "modalseg.data.generate_scene",
    "modalseg.data.write_dataset",
    "modalseg.data.read_dataset",
)

SETUP = "setup"


def _short(qualname: str) -> str:
    return qualname.split(".", 1)[1]  # "tensor.backward"


class Tracer:
    """In-memory spans plus per-unit counters for the traced run.

    A unit is one timed training step or one evaluated scene; the workload
    sets ``unit`` as each begins. Everything before the timed region is
    recorded under the unit ``"setup"``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent_index, unit]
        self.values: dict[str, list[tuple[object, object]]] = {}  # key -> (unit, value)
        self.ops: dict[object, list[int]] = {}  # unit -> [record_op calls, ns inside]
        self.unit: object = SETUP
        self.active = True
        self._stack: list[int] = []

    def note(self, key: str, value) -> None:
        self.values.setdefault(key, []).append((self.unit, value))

    def span(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(self, args)
            span = [name, 0, 0, stack[-1] if stack else -1, self.unit]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(self, args)
            return result

        return wrapper

    def counted(self, fn):
        ops = self.ops

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                acc = ops.get(self.unit)
                if acc is None:
                    ops[self.unit] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt

        return wrapper

    def install(self, rebinder: Rebinder, hooks: dict) -> None:
        """Wrap every SPANNED function plus ``record_op``.

        ``hooks`` maps a short name to ``(before, after)`` callbacks for the
        spans that also note a value (tape length, bytes written, ...).
        """
        rebinder.wrap("modalseg.tensor.record_op", self.counted)
        for qualname in SPANNED:
            name = _short(qualname)
            before, after = hooks.get(name, (None, None))
            rebinder.wrap(qualname, lambda fn, n=name, b=before, a=after:
                          self.span(n, fn, b, a))

    # -----------------------------------------------------------------------
    # summaries

    def by_name(self, units=None) -> dict[str, dict[str, float]]:
        """Count, total ms and self ms per span name, over the given units.

        Self time is a span's duration minus the durations of its direct
        child spans. ``units=None`` takes every span.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, unit) in enumerate(self.spans):
            if units is not None and unit not in units:
                continue
            row = out.setdefault(name, {"count": 0, "ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - child_ns[i]) / 1e6
        return out

    def per_unit_counts(self, name: str, units) -> list[int]:
        counts = {u: 0 for u in units}
        for span in self.spans:
            if span[0] == name and span[4] in counts:
                counts[span[4]] += 1
        return [counts[u] for u in units]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "span_fields": ["name", "start_ns", "end_ns", "parent", "unit"],
                "spans": self.spans,
                "record_op": {str(u): acc for u, acc in self.ops.items()},
                "values": self.values,
                "self_ms_by_name": {n: r["self_ms"] for n, r in self.by_name().items()},
            }, fh)
