"""Spans around calls into crdf's modules, recorded from outside the program.

``Tracer.install`` replaces every public function of the traced modules, in
every crdf namespace that holds it (``from .solver import sweep`` copies the
name into the importing module), and every public method of their public
classes, by a wrapper that records a span: layer, function name, parent span,
start and end.  ``uninstall`` puts the originals back, so untraced rounds run
the program unchanged.  Private helpers (``_Workspace``, ``_BatchEvaluator``)
and the ``indexing`` and ``sampling`` modules are not wrapped; their time is
the self time of the layer that calls them.

Spans stay in memory.  ``layer_times`` turns them into self time per layer:
a span's duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("cli", "serialization", "solver", "information", "distortion",
          "probability", "oracle", "coding")
# classical (non-causal) Blahut-Arimoto is reported apart from the causal solver
CLASSICAL = "classical_ba"


def _count_result(counts: Counter, name: str, result) -> None:
    """Work counts read from a traced call's result."""
    if name == "solve_fixed_s":
        counts["solver.solves"] += 1
        counts["solver.iterations"] += result.iterations
        if not result.converged:
            counts["solver.nonconverged"] += 1
            counts["solver.wasted_iterations"] += result.iterations
    elif name == CLASSICAL:
        counts["solver.classical_iterations"] += result.iterations
    elif name == "brute_force_lagrangian":
        counts["oracle.calls"] += 1
        counts["oracle.evaluations"] += result.evaluations
    elif name == "simulate":
        counts["coding.trials"] += result.trials
        counts["coding.codewords"] += result.codebook_count
        # the block encoder's trials x codewords x (n+1) distortion table
        counts["coding.encoder_cells"] += (
            result.trials * result.codebook_count * (result.horizon + 1))
    elif name == "run":
        counts["cli.commands"] += 1


class Tracer:
    """Installs span-recording wrappers and keeps the spans of one round."""

    def __init__(self):
        self.spans = []      # [layer, name, parent index, start, end]
        self.counts = Counter()
        self._stack = []
        self._patches = []   # (owner, attribute, original)

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, name, stack[-1] if stack else -1,
                   time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            _count_result(counts, name, result)
            return result
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"crdf.{m}") for m in LAYERS]
        owners = modules + [importlib.import_module("crdf")]
        traced = {f"crdf.{m}" for m in LAYERS}
        wrappers = {}
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ not in traced):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(
                        obj.__module__.rsplit(".", 1)[1], obj.__name__, obj)
                self._patch(owner, attr, wrappers[obj])
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for cname, cls in list(vars(mod).items()):
                if (cname.startswith("_") or not inspect.isclass(cls)
                        or cls.__module__ != mod.__name__):
                    continue
                for attr, obj in list(vars(cls).items()):
                    if not attr.startswith("_") and inspect.isfunction(obj):
                        self._patch(cls, attr, self._wrap(
                            layer, f"{cname}.{attr}", obj))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def layer_times(self) -> dict:
        """Self time per layer (classical BA apart), plus named totals."""
        child = [0.0] * len(self.spans)
        for layer, name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for k, (layer, name, parent, start, end) in enumerate(self.spans):
            key = ("solver.classical_self_s" if name == CLASSICAL
                   else f"{layer}.self_s")
            out[key] += end - start - child[k]
            if name == "generate_codebook":
                out["coding.codebook_s"] += end - start
            elif name == "typicality_probability":
                out["coding.typicality_s"] += end - start
            if layer == "information":
                out["information.calls"] += 1
        return out
