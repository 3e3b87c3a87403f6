"""Per-layer span tracer that instruments the program from outside.

The tracer never edits the program's source.  :meth:`Tracer.install`
replaces every public function and every public method of the public
classes of the modules that make up a layer with a timing wrapper, and
then rebinds every other reference to the same function object that a
loaded ``repro`` module holds: module globals bound by ``from x import
y`` and values of module-level registries such as ``SEMI_SCC_SOLVERS``.
A wrapper on the defining module alone would silently miss those call
paths.

A span is one call into a wrapped function, or one resumption of a
generator it returned: a function that returns a generator does its work
while the caller consumes it, so every ``next()`` on the returned
generator is timed as a span of the layer that made it.  Spans nest per
thread; a layer's self time is the time its spans cover minus the time
covered by spans nested inside them.  Spans are folded into per-layer
and per-function totals as they close, so memory stays constant however
many records flow through a traced generator.

Work is charged to the layer whose code does it, also when another layer
drives that code.  A generator passed as an argument into a wrapped
function (such as a contraction filter handed to the codec that writes
its output) is re-yielded through a span of the layer whose module
defined it.  Stage callbacks handed to the plan layer (the ``run`` thunks
of a plan stage) are closures defined in the contraction, expansion or
semi-external modules; they are charged to the layer of the module that
defined them, not to the planner that calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
import types
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["LAYERS", "OFFLINE_LAYERS", "Tracer"]

LAYERS: Dict[str, Tuple[str, ...]] = {
    "contraction": ("repro.core.contraction",),
    "expansion": ("repro.core.expansion",),
    "semi": (
        "repro.semi_external",
        "repro.semi_external.coloring",
        "repro.semi_external.forward_backward",
        "repro.semi_external.multi_bfs",
        "repro.semi_external.parallel_fw_bw",
        "repro.semi_external.semi_kosaraju",
        "repro.semi_external.spanning_tree",
        "repro.semi_external.union_find",
    ),
    "runs": ("repro.io.runs",),
    "sort": ("repro.io.sort",),
    "kernels": ("repro.kernels.merge",),
    "join": ("repro.io.join",),
    "codecs": ("repro.io.codecs",),
    "device": ("repro.io.blocks", "repro.io.stats"),
    "plan": (
        "repro.plan.plan",
        "repro.plan.executor",
        "repro.plan.ops",
        "repro.plan.cache",
        "repro.analysis.planner",
    ),
    "batch": ("repro.service.batch",),
    "cache": ("repro.io.cache",),
    "node_table": ("repro.baselines.node_table", "repro.io.persistent"),
    "daemon": ("repro.service.daemon",),
    "store": ("repro.service.store",),
}
"""Layer name -> the modules whose public functions belong to it."""

OFFLINE_LAYERS = (
    "contraction", "expansion", "semi", "runs", "sort", "kernels", "join",
    "plan",
)
"""Layers of the offline SCC pipeline; a query workload must leave them idle."""

CALLBACK_LAYERS = frozenset({"plan"})
"""Layers whose callers hand them closures to run (plan stage thunks)."""


class _Frame:
    __slots__ = ("layer", "func", "start", "child")

    def __init__(self, layer: str, func: str, start: float) -> None:
        self.layer = layer
        self.func = func
        self.start = start
        self.child = 0.0


class LayerTotals:
    """Aggregated spans of one layer (or one function of a layer)."""

    __slots__ = ("calls", "spans", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0      # calls into wrapped functions
        self.spans = 0      # calls plus generator resumptions
        self.total_s = 0.0  # time covered by the spans, nested ones included
        self.self_s = 0.0   # time covered minus time of nested spans


class Tracer:
    """Collects per-layer span totals from wrapped program functions."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.layers: Dict[str, LayerTotals] = {}
        self.functions: Dict[Tuple[str, str], LayerTotals] = {}
        self._restore: List[Callable[[], None]] = []
        self._layer_of_module: Dict[str, str] = {}
        self._layer_of_file: Dict[str, str] = {}

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, stack: List[_Frame], frame: _Frame, is_call: bool) -> None:
        duration = self._clock() - frame.start
        stack.pop()
        if stack:
            stack[-1].child += duration
        own = duration - frame.child
        with self._lock:
            for totals in (
                self.layers.setdefault(frame.layer, LayerTotals()),
                self.functions.setdefault((frame.layer, frame.func), LayerTotals()),
            ):
                totals.calls += is_call
                totals.spans += 1
                totals.total_s += duration
                totals.self_s += own

    def _callback(self, fn: Callable) -> Callable:
        """Charge a closure handed to the plan layer to its defining layer."""
        layer = self._layer_of_module.get(getattr(fn, "__module__", ""))
        if layer is None or "<locals>" not in getattr(fn, "__qualname__", ""):
            return fn
        return self._wrap(layer, fn)

    def _adopt(self, value: object, callbacks: bool) -> object:
        """Charge an argument's future work to the layer that defined it."""
        if isinstance(value, types.GeneratorType):
            layer = self._layer_of_file.get(value.gi_code.co_filename)
            if layer is not None:
                return self._resumptions(layer, value.__qualname__, value)
        elif callbacks and inspect.isfunction(value):
            return self._callback(value)
        return value

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        tracer = self
        name = fn.__qualname__
        callbacks = layer in CALLBACK_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            args = tuple(tracer._adopt(a, callbacks) for a in args)
            if kwargs:
                kwargs = {k: tracer._adopt(v, callbacks) for k, v in kwargs.items()}
            stack = tracer._stack()
            frame = _Frame(layer, name, tracer._clock())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(stack, frame, True)
            if isinstance(result, types.GeneratorType):
                return tracer._resumptions(layer, name, result)
            return result

        return traced

    def _resumptions(self, layer: str, name: str, gen: types.GeneratorType):
        """Re-yield ``gen``, timing each resumption as a span of ``layer``."""
        try:
            while True:
                stack = self._stack()
                frame = _Frame(layer, name, self._clock())
                stack.append(frame)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(stack, frame, False)
                yield item
        finally:
            gen.close()

    # -- installation ------------------------------------------------------

    def install(self, layers: Optional[Dict[str, Sequence[str]]] = None) -> None:
        """Wrap the public functions of every module of every layer."""
        layers = LAYERS if layers is None else layers
        replaced: Dict[int, Tuple[Callable, Callable]] = {}
        for layer, modules in layers.items():
            for modname in modules:
                module = importlib.import_module(modname)
                self._layer_of_module[modname] = layer
                self._layer_of_file[module.__file__] = layer
                for name, obj in list(vars(module).items()):
                    if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                        continue
                    if inspect.isfunction(obj):
                        replaced[id(obj)] = (obj, self._wrap(layer, obj))
                    elif inspect.isclass(obj):
                        self._wrap_class(layer, obj)
        self._rebind(replaced)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, (staticmethod, classmethod)):
                wrapped = type(member)(self._wrap(layer, member.__func__))
            elif inspect.isfunction(member):
                wrapped = self._wrap(layer, member)
            else:
                continue  # properties and plain class data stay as they are
            setattr(cls, attr, wrapped)
            self._restore.append(functools.partial(setattr, cls, attr, member))

    def _rebind(self, replaced: Dict[int, Tuple[Callable, Callable]]) -> None:
        """Point every alias a loaded ``repro`` module holds at the wrapper."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "repro" or modname.startswith("repro.")):
                continue
            namespace = vars(module)
            for name, value in list(namespace.items()):
                if id(value) in replaced and replaced[id(value)][0] is value:
                    original, wrapper = replaced[id(value)]
                    namespace[name] = wrapper
                    self._restore.append(
                        functools.partial(namespace.__setitem__, name, original)
                    )
                elif isinstance(value, dict) and not name.startswith("__"):
                    for key, item in list(value.items()):
                        hit = replaced.get(id(item))
                        if hit is not None and hit[0] is item:
                            value[key] = hit[1]
                            self._restore.append(
                                functools.partial(value.__setitem__, key, item)
                            )

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._restore:
            self._restore.pop()()

    # -- reporting ---------------------------------------------------------

    def self_s(self, layer: str) -> float:
        totals = self.layers.get(layer)
        return totals.self_s if totals else 0.0

    def calls(self, layer: str) -> int:
        totals = self.layers.get(layer)
        return totals.calls if totals else 0

    def busy(self, layer: str) -> bool:
        """Whether ``layer`` recorded any span."""
        totals = self.layers.get(layer)
        return bool(totals and totals.spans)

    def function_totals(self, layer: str, suffix: str) -> Optional[LayerTotals]:
        """Totals of the one function of ``layer`` whose name ends in ``suffix``."""
        for (owner, func), totals in self.functions.items():
            if owner == layer and func.endswith(suffix):
                return totals
        return None

    def top_functions(self, limit: int = 12) -> List[Tuple[str, str, LayerTotals]]:
        ranked = sorted(
            self.functions.items(), key=lambda item: item[1].self_s, reverse=True
        )
        return [(layer, func, totals) for (layer, func), totals in ranked[:limit]]
