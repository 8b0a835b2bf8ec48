"""Host-time attribution to program layers by class-level wrappers.

:class:`LayerTracer` replaces every plain function defined in the
classes of a layer's modules with a timing wrapper, so instances built
afterwards (and the bound methods they register as RPC handlers or
spawn as processes) run through it.  Nothing in the program changes:
the wrappers forward arguments, return values, sent values and thrown
exceptions unchanged, so a traced run executes the same schedule as an
untraced one (``phases.py`` checks this).

Frames nest on one stack, and a frame's *self* time is its duration
minus the time of the frames nested inside it.  Time spent outside
every frame is the simulation engine's own (``sim``), so the layers'
self times plus ``sim`` tile the traced wall time exactly.

A generator is timed per resumption: a call that enters a layer from
outside returns a generator that drives the original one step at a
time inside a frame.  A call from a layer into itself returns the
original generator, whose steps then run inside the enclosing frame of
the same layer, so ``calls`` counts layer entries (boundary crossings)
rather than internal helper calls.  Such a generator can still become a
process of its own; ``Simulator.process`` is hooked to time any process
whose generator code lives in a layer's module, closures included.
Code in modules that belong to no layer is charged to its caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types
from typing import Callable, Dict, List, Sequence, Tuple


class LayerTracer:
    """Per-layer call counts and self times for one traced phase.

    ``layers`` maps a layer name to the modules whose classes belong to
    it.  ``observers`` maps ``(module, class, method)`` to a callback
    that receives the value each call of that generator method returns.
    """

    def __init__(self, layers: Dict[str, Sequence[str]],
                 observers: Dict[Tuple[str, str, str], Callable] = None):
        self.names: List[str] = list(layers)
        self._modules = {name: tuple(mods) for name, mods in layers.items()}
        self._observers = dict(observers or {})
        self._stack: list = []
        self._self_ns = [0] * len(self.names)
        self._calls = [0] * len(self.names)
        self._layer_of_file: Dict[str, int] = {}
        self._patched: List[Tuple[type, str, object]] = []

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        """Wrap every class method of every layer module."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for index, name in enumerate(self.names):
            for module_name in self._modules[name]:
                module = importlib.import_module(module_name)
                self._layer_of_file[module.__file__] = index
                for cls in vars(module).values():
                    if (isinstance(cls, type)
                            and cls.__module__ == module_name):
                        self._wrap_class(index, module_name, cls)
        from repro.sim.core import Simulator
        self._hook_process(Simulator)

    def uninstall(self) -> None:
        """Restore the original methods."""
        for cls, attr, original in reversed(self._patched):
            setattr(cls, attr, original)
        self._patched.clear()

    def _patch(self, cls: type, attr: str, wrapper) -> None:
        self._patched.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, wrapper)

    def _wrap_class(self, layer: int, module_name: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if (not isinstance(value, types.FunctionType)
                    or (attr.startswith("__") and attr.endswith("__"))):
                continue
            if inspect.isgeneratorfunction(value):
                observer = self._observers.get(
                    (module_name, cls.__name__, attr))
                self._patch(cls, attr,
                            self._wrap_generator(layer, value, observer))
            else:
                self._patch(cls, attr, self._wrap_function(layer, value))

    def _hook_process(self, simulator: type) -> None:
        original = simulator.process
        layer_of_file = self._layer_of_file
        timed = self._timed

        @functools.wraps(original)
        def process(sim, generator, name=None):
            code = getattr(generator, "gi_code", None)
            if code is not None:
                layer = layer_of_file.get(code.co_filename)
                if layer is not None:
                    generator = timed(layer, generator, None, False)
            return original(sim, generator, name)

        self._patch(simulator, "process", process)

    # -- accounting ------------------------------------------------------------

    def reset(self) -> None:
        """Zero the counters (call between phases, outside every frame)."""
        if self._stack:
            raise RuntimeError("reset inside a traced frame")
        # In place: live wrappers hold references to these lists.
        self._self_ns[:] = [0] * len(self.names)
        self._calls[:] = [0] * len(self.names)

    def report(self) -> Dict[str, Tuple[int, int]]:
        """``{layer: (calls, self_ns)}`` since the last :meth:`reset`."""
        return {name: (self._calls[i], self._self_ns[i])
                for i, name in enumerate(self.names)}

    def _wrap_function(self, layer: int, fn):
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            tracer._calls[layer] += 1
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                tracer._self_ns[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return timed

    def _wrap_generator(self, layer: int, fn, observer):
        stack = self._stack
        timed = self._timed

        @functools.wraps(fn)
        def call(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if stack and stack[-1][0] == layer and observer is None:
                return gen
            return timed(layer, gen, observer, True)

        return call

    def _timed(self, layer: int, gen, observer, count: bool):
        """Generator: drive ``gen`` one resumption per frame of ``layer``."""
        stack = self._stack
        clock = time.perf_counter_ns
        self_ns = self._self_ns
        if count and not (stack and stack[-1][0] == layer):
            self._calls[layer] += 1
        sent = None
        error = None
        while True:
            try:
                if stack and stack[-1][0] == layer:
                    item = gen.send(sent) if error is None else gen.throw(error)
                else:
                    frame = [layer, 0]
                    stack.append(frame)
                    start = clock()
                    try:
                        item = (gen.send(sent) if error is None
                                else gen.throw(error))
                    finally:
                        elapsed = clock() - start
                        stack.pop()
                        self_ns[layer] += elapsed - frame[1]
                        if stack:
                            stack[-1][1] += elapsed
            except StopIteration as stop:
                if observer is not None:
                    observer(stop.value)
                return stop.value
            try:
                sent = yield item
                error = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into ``gen``
                sent = None
                error = exc
