"""Outside-in trace of the program's layers.

The layers are the package modules.  Tracer.install wraps every public
function defined in a layer, and every name another layer bound to such
a function with `from ... import`, so calls between modules pass through
a wrapper whichever name they use.  Module functions look their globals
up at call time, so a call from inside a module is traced as well.
Methods of the module's classes are not wrapped; their time counts
toward the function that called them.

Each wrapper records, per function, the number of calls, the inclusive
time and the self time: its duration minus that of the wrapped calls
nested in it.  A layer's self time is the sum of the self times of its
functions.  Work counts are computed from arguments and results, so they
repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("core", "balance", "mycielskian", "coloring", "matrices", "exactla", "cli")


def _counts_for(layer, name, args, result):
    """Work counts of one call, by (layer, counter name)."""
    if layer == "exactla" and name == "inertia":
        n = args[0].rows
        return {"inertia_n3": n ** 3}
    if layer == "exactla" and name == "multiply":
        a, b = args[0], args[1]
        return {"multiply_macs": a.rows * a.cols * b.cols}
    if layer == "coloring" and name == "chromatic_number":
        return {"vertices_searched": args[0].p}
    if layer == "mycielskian" and name == "mycielskian":
        return {"builds": 1, "edges_built": result[0].q}
    if layer == "core" and name == "loads":
        return {"edges_parsed": result.q}
    if layer == "matrices":
        built = result if isinstance(result, tuple) else (result,)
        return {"entries_built": sum(m.rows * m.cols for m in built)}
    return {}


class Tracer:
    """Wraps the layers of one imported sgmyc package and tallies calls."""

    def __init__(self):
        self.calls = defaultdict(int)       # (layer, function) -> calls
        self.self_s = defaultdict(float)    # (layer, function) -> self seconds
        self.counts = defaultdict(int)      # (layer, counter) -> total
        self._stack = [0.0]                 # child time of each open frame
        self._restore = []

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def install(self):
        modules = {layer: sys.modules[f"sgmyc.{layer}"] for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                    wrapped[fn] = self._wrap(layer, name, fn)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrapped[obj])

    def uninstall(self):
        for mod, name, fn in reversed(self._restore):
            setattr(mod, name, fn)
        self._restore.clear()

    def _wrap(self, layer, name, fn):
        key = (layer, name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                self.self_s[key] += elapsed - child
                self.calls[key] += 1
            for counter, value in _counts_for(layer, name, args, result).items():
                self.counts[layer, counter] += value
            return result

        return traced

    def layer_self_s(self, layer):
        return sum(t for (lay, _), t in self.self_s.items() if lay == layer)

    def metrics(self, commands):
        """Per-layer metrics per command attempted."""
        per = float(commands)
        out = {
            "exactla.inertia_s": (self.self_s["exactla", "inertia"] / per, "s"),
            "exactla.inertia_calls": (self.calls["exactla", "inertia"] / per, "count"),
            "exactla.inertia_n3": (self.counts["exactla", "inertia_n3"] / per, "count"),
            "exactla.multiply_s": (self.self_s["exactla", "multiply"] / per, "s"),
            "exactla.multiply_macs": (self.counts["exactla", "multiply_macs"] / per, "count"),
            "exactla.rank_s": (self.self_s["exactla", "rank"] / per, "s"),
            "exactla.rank_calls": (self.calls["exactla", "rank"] / per, "count"),
            "coloring.chromatic_s": (self.self_s["coloring", "chromatic_number"] / per, "s"),
            "coloring.chromatic_calls": (self.calls["coloring", "chromatic_number"] / per, "count"),
            "coloring.vertices_searched": (self.counts["coloring", "vertices_searched"] / per, "count"),
            "mycielskian.self_s": (self.layer_self_s("mycielskian") / per, "s"),
            "mycielskian.builds": (self.counts["mycielskian", "builds"] / per, "count"),
            "mycielskian.edges_built": (self.counts["mycielskian", "edges_built"] / per, "count"),
            "balance.self_s": (self.layer_self_s("balance") / per, "s"),
            "balance.certify_calls": (self.calls["balance", "certify_balance"] / per, "count"),
            "core.self_s": (self.layer_self_s("core") / per, "s"),
            "core.edges_parsed": (self.counts["core", "edges_parsed"] / per, "count"),
            "matrices.self_s": (self.layer_self_s("matrices") / per, "s"),
            "matrices.entries_built": (self.counts["matrices", "entries_built"] / per, "count"),
            "cli.self_s": (self.layer_self_s("cli") / per, "s"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}
