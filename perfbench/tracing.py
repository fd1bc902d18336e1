"""A traced pass: time every call into phl's public functions from outside.

    PYTHONPATH=src python3 perfbench/tracing.py --summary OUT.json [--spans OUT.jsonl] -- ARGS...

ARGS are either `phl` arguments (`cube --spec specs/k3_b22.json --out x`) or
`closure SPEC` for one closure pass (see closure.py). Nothing under src/ is
edited: the public functions of each layer are replaced, in every phl module
that binds them, by wrappers that record a span (name, start, end, parent).
Spans stay in memory; at exit the per-layer figures go to --summary as one
JSON object and, on request, the spans go to --spans as JSON lines. The exit
code is the pass's own.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np
from phl.linalg import MatrixQ, Subspace

LAYERS = ("linalg", "filtration", "models", "perverse", "lie", "checks", "report")

# Public methods that do exact arithmetic; plain accessors stay unwrapped.
_METHODS = {
    "linalg": {
        "MatrixQ": ("__matmul__", "power", "rank"),
        "Subspace": ("span", "contains", "contains_subspace"),
    },
    "report": {"CheckReport": ("dumps",)},
}

# Functions whose inclusive time is reported per pass, as `<name>_s`.
TIMED = (
    "models.build_model",
    "models.validate",
    "filtration.weight_filtration",
    "filtration.verify_weight_axioms",
    "perverse.perverse_filtration",
    "perverse.hodge_item1_comparison",
    "perverse.cube",
    "lie.sl2_complete",
    "lie.lie_closure",
    "checks.run_check_suite",
    "report.CheckReport.dumps",
)


def _operand_size(x) -> int:
    if isinstance(x, np.ndarray):
        return x.size
    if isinstance(x, MatrixQ):
        return x.rows * x.cols
    if isinstance(x, Subspace):
        return x.dim * x.ambient_dim
    if isinstance(x, (list, tuple)) and x and hasattr(x[0], "__len__"):
        return len(x) * len(x[0])
    return 0


class Tracer:
    """Nested spans kept in memory, plus the linalg operand counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self._stack = []
        self.closure_dim = 0
        self.largest_operand = 0

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        is_linalg = name.startswith("linalg.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_linalg:
                size = max(map(_operand_size, args), default=0)
                if size > self.largest_operand:
                    self.largest_operand = size
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if name == "lie.lie_closure":
                self.closure_dim = max(self.closure_dim, out.dim)
            return out

        return traced

    def install(self) -> None:
        """Wrap each layer's public functions wherever a phl module binds them."""
        layers = {layer: importlib.import_module(f"phl.{layer}") for layer in LAYERS}
        modules = [*layers.values(), importlib.import_module("phl.cli"), importlib.import_module("phl")]
        for layer, mod in layers.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(fn):  # a span would end before the work starts
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for other in modules:
                    if getattr(other, attr, None) is fn:
                        setattr(other, attr, wrapped)
            for cls_name, methods in _METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(f"{layer}.{cls_name}.{meth}", raw.__func__)))
                    else:
                        setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", raw))

    def summary(self) -> dict:
        """Per-pass figures: inclusive time of the TIMED functions (outermost
        calls only), self time per layer, and the counters."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out.update({f"{name}_s": 0.0 for name in TIMED})
        out.update({"linalg.calls": 0, "lie.sl2_complete_calls": 0})
        for idx, (name, start, end, parent) in enumerate(spans):
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += end - start - child_time[idx]
            out["linalg.calls"] += layer == "linalg"
            out["lie.sl2_complete_calls"] += name == "lie.sl2_complete"
            if name in TIMED and not self._has_ancestor(idx, name):
                out[f"{name}_s"] += end - start
        out["report.dumps_s"] = out.pop("report.CheckReport.dumps_s")
        out["linalg.largest_operand"] = self.largest_operand
        out["lie.closure_dim"] = self.closure_dim
        return out

    def _has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write_spans(self, path: str) -> None:
        """Append one JSON line per span; `pid` tells the passes apart."""
        pid = os.getpid()
        with open(path, "a", encoding="utf-8") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                doc = {"pid": pid, "id": idx, "name": name, "start": start, "end": end, "parent": parent}
                fh.write(json.dumps(doc) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", required=True)
    parser.add_argument("--spans")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args

    tracer = Tracer()
    tracer.install()
    if args[:1] == ["closure"]:
        import closure  # imported after install, so it binds the wrappers

        code = closure.main(args[1])
    else:
        from phl.cli import main as phl_main

        code = phl_main(args)
    with open(opts.summary, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    if opts.spans:
        tracer.write_spans(opts.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
