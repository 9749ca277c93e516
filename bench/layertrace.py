"""Per-layer self time and call counts, recorded from outside the program.

`LayerTracer.install` wraps every public function of each layer module,
the public methods and arithmetic operators of its classes, and every
name another module bound to a wrapped function with `from .x import y`.
A layer's self time is the time inside its wrapped calls minus the time
inside the wrapped calls they make.  Private helpers are not wrapped:
their time counts toward the public caller.
"""

from __future__ import annotations

import functools
import importlib
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("arith", "linalg", "partitions", "symfun", "chern", "grobner",
          "reductions", "transversality", "cli")

OPERATORS = frozenset(("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                       "__rmul__", "__pow__", "__neg__", "__call__"))


def _max_coeff_digits(basis):
    digits = 0
    for g in basis:
        for c in g.terms.values():
            digits = max(digits, len(str(abs(c.numerator))), len(str(c.denominator)))
    return digits


class LayerTracer:
    def __init__(self):
        self.stack = []                    # child time of each open call
        self.self_s = defaultdict(float)   # layer -> seconds
        self.inclusive_s = defaultdict(float)
        self.calls = Counter()             # "layer.qualname" -> calls
        self.basis_size_max = 0
        self.max_coeff_digits = 0

    def _observe_basis(self, basis):
        self.basis_size_max = max(self.basis_size_max, len(basis))
        self.max_coeff_digits = max(self.max_coeff_digits, _max_coeff_digits(basis))

    def wrap(self, fn, layer, key, observe=None):
        stack, self_s, inclusive_s, calls = (self.stack, self.self_s,
                                             self.inclusive_s, self.calls)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[layer] += elapsed - stack.pop()
                inclusive_s[key] += elapsed
                calls[key] += 1
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                # charge the observer to nobody: count it as child time
                t = perf_counter()
                observe(result)
                if stack:
                    stack[-1] += perf_counter() - t
            return result

        return wrapper

    def install(self):
        modules = {layer: importlib.import_module("hilbertpoly." + layer)
                   for layer in LAYERS}
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, layer)
                elif isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
                    key = "%s.%s" % (layer, name)
                    observe = self._observe_basis if key == "grobner.buchberger" else None
                    wrapped[id(obj)] = (obj, self.wrap(obj, layer, key, observe))
        for module in list(modules.values()) + [importlib.import_module("hilbertpoly")]:
            for name, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])
        return self

    def _wrap_class(self, cls, layer):
        done = {}
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            if isinstance(attr, (classmethod, staticmethod)):
                fn, kind = attr.__func__, type(attr)
            elif isinstance(attr, types.FunctionType):
                fn, kind = attr, None
            else:
                continue
            if fn not in done:
                done[fn] = self.wrap(fn, layer, "%s.%s" % (layer, fn.__qualname__))
            setattr(cls, name, kind(done[fn]) if kind else done[fn])

    def summary(self):
        return {
            "self_s": dict(self.self_s),
            "inclusive_s": dict(self.inclusive_s),
            "calls": dict(self.calls),
            "basis_size_max": self.basis_size_max,
            "max_coeff_digits": self.max_coeff_digits,
        }
