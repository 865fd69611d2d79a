"""Per-layer tracing of ``tlaction`` from outside the package.

Each module of the package is a layer.  :class:`Tracer` wraps the public
functions and public methods of every layer, and puts each wrapper
wherever the package looks the name up: in the defining module, in every
module that imported the name, and in the package namespace.  A wrapper
records a span (name, start, end, parent, op id) and adds the span's self
time (its duration minus its direct child spans) to its name's total, so
a layer's self time is its spans' time minus the time spent in other
layers they called.  Spans stay in memory, up to a cap, until
:meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import weakref
from time import perf_counter

LAYERS = ("groups", "graph", "paths", "decidability", "extenders", "action", "stallings", "subshift")

PACKAGE = "tlaction"
SPAN_CAP = 100_000  # spans kept for the span file; counts and times cover every call


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.spans_dropped = 0
        self.op = -1
        self.neighbor_args: set[tuple[int, int]] = set()
        self._graph_serial: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._serials = itertools.count()
        self.neighbor_distinct = 0
        self.karaganis_vertices = 0
        self._child = [0.0]  # child time of each open span; slot 0 is the root
        self._ids = [-1]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation

    def _wrap(self, name: str, fn):
        tracer = self
        calls, self_s, spans, child, ids = self.calls, self.self_s, self.spans, self._child, self._ids
        calls[name] = 0
        self_s[name] = 0.0
        hook = None
        if name == "graph.CayleyGraph.neighbors":
            def hook(args):
                # a serial per graph object: ids of collected graphs are reused
                serial = tracer._graph_serial.get(args[0])
                if serial is None:
                    serial = tracer._graph_serial[args[0]] = next(tracer._serials)
                tracer.neighbor_args.add((serial, args[1]))
        elif name == "paths.karaganis_path":
            def hook(args):
                tracer.karaganis_vertices += len(args[0].vertices)

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = ids[-1]
            ids.append(span_id)
            child.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                inner = child.pop()
                ids.pop()
                dur = end - start
                child[-1] += dur
                calls[name] += 1
                self_s[name] += dur - inner
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, name, start, end, parent, tracer.op))
                else:
                    tracer.spans_dropped += 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions and methods where they are looked up."""
        pkg = PACKAGE
        modules = {n: m for n, m in sys.modules.items() if n == pkg or n.startswith(pkg + ".")}
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[f"{pkg}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                            continue
                        w = self._wrap(f"{layer}.{attr}.{meth}", fn)
                        self._undo.append((obj, meth, fn))
                        setattr(obj, meth, w)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def end_round(self) -> None:
        """Close a round: distinct neighbour queries are counted per round."""
        self.neighbor_distinct += len(self.neighbor_args)
        self.neighbor_args.clear()

    # -- results

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Self time (s) and calls per layer, summed over its wrapped names."""
        table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for name, calls in self.calls.items():
            row = table[name.split(".", 1)[0]]
            row["calls"] += calls
            row["self_s"] += self.self_s[name]
        return table

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(f"{span_id},{name},{start:.9f},{end:.9f},{parent},{op}\n")
