"""Outside-in tracing of cstarlab: every public function of the layer modules
is wrapped from here, without editing the package.

cstarlab modules bind names with ``from .linalg import opnorm``, so a wrapper
is installed on every attribute of every loaded cstarlab module that refers
to the original function, and on the class for ``LinMap.__call__``.  Spans
(name, op id, parent, start, end) are kept in flat arrays in memory and
written out when the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("linalg", "algebra", "cpmaps", "averaging", "intertwine", "geometry",
          "orderzero", "instances", "pipelines", "serialize")

# Counters read from return values: span name -> result -> {counter: amount}.
COUNTERS = {
    "averaging.exact_diagonal": lambda r: {"terms": len(r.terms)},
    "intertwine.intertwining_iso": lambda r: {
        "stages": len(r.trace), "tracked_points": sum(s.n_Z for s in r.trace)},
    "serialize.dumps": lambda r: {"bytes": len(r)},
}


class Tracer:
    """Wraps the layer functions while installed (use as a context manager)."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        count = COUNTERS.get(name)
        stack, counters = self._stack, self.counters
        names, ops, parents = self.name, self.op, self.parent
        starts, ends = self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            ops.append(self.op_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                for key, amount in count(result).items():
                    counters[f"{name}.{key}"] += amount
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = {n: m for n, m in sys.modules.items()
                   if m is not None and (n == "cstarlab" or n.startswith("cstarlab."))}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"cstarlab.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                traced = wrappers.get(id(value))
                if traced is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, traced)
        linmap = modules["cstarlab.cpmaps"].LinMap
        self._restore.append((linmap, "__call__", linmap.__call__))
        linmap.__call__ = self._wrap("cpmaps.LinMap.__call__", linmap.__call__)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def summary(self, op_pipelines: dict[int, str]) -> dict:
        """Per-function and per-module totals.

        A span's self time is its duration minus the time its direct child
        spans cover; children of one span run one after another in this
        single-threaded program, so that time is the sum of their durations.
        ``pipelines.run_pipeline`` is split by the op's pipeline name.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.name[i]]
            if name == "pipelines.run_pipeline":
                name = f"{name}.{op_pipelines[self.op[i]]}"
            self_s = dur[i] - child[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            out[f"{name}.incl_s"] += dur[i]
            out[f"{name.split('.', 1)[0]}.self_s"] += self_s
        out.update(self.counters)
        return dict(out)

    def spans(self) -> dict:
        """The recorded spans as columns, for writing out."""
        return {"names": list(self.names), "name": self.name, "op": self.op,
                "parent": self.parent, "start": self.start, "end": self.end}
