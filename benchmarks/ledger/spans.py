"""Span recorder for the traced ledger run, installed from outside ``src/``.

:class:`Tracer` keeps a per-process span stack and aggregates, in
memory, per (layer, name): calls, total seconds and self seconds (span
time minus the time its child spans cover).  It also keeps the full span
trees (id, parent id, root id, name, start, end) of the first
``tree_budget`` kernel-dispatched events, so a reader can see what one
query, push fan-out or churn event looks like layer by layer.

:func:`install` wraps, at class level and before any engine object
exists, the public entry points of every ``repro.*`` package the ledger
workloads exercise.  The layers are the packages of ``src/repro``.  The
tracer is a pure observer: it draws no random number and schedules no
event, so a traced run's result fingerprint equals the untraced one
(``run.py`` fails the operation if it does not).

What is *not* a span: properties and dunder methods (``node in tree``,
``tree.root``), underscore-private helpers, and generator bodies — their
time is billed to the calling span's layer.  Tracer bookkeeping outside
a span's own clock window is billed to the caller too, so layers that
make many small calls into other layers read a few percent high; the
README quantifies the traced/untraced ratio per workload.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import re
import sys
import time

LAYERS = (
    "sim",
    "net",
    "topology",
    "index",
    "core",
    "schemes",
    "engine",
    "workload",
    "metrics",
    "stats",
)

#: Modules whose classes and public functions are wrapped, per layer.
#: ``repro.schemes`` is instrumented wholesale (every registered scheme
#: class and its bases); ``repro.sim`` by hand in :func:`_install_kernel`.
MODULES = {
    "net": ("repro.net.transport",),
    "topology": (
        "repro.topology.tree",
        "repro.topology.chord",
        "repro.topology.chord_tree",
        "repro.topology.generators",
    ),
    "index": ("repro.index.cache", "repro.index.authority"),
    "core": (
        "repro.core.protocol",
        "repro.core.maintenance",
        "repro.core.interest",
        "repro.core.subscriber_list",
        "repro.core.leases",
        "repro.core.soa",
    ),
    "engine": ("repro.engine.simulation", "repro.engine.multikey"),
    "workload": (
        "repro.workload.selection",
        "repro.workload.arrivals",
        "repro.workload.churn",
        "repro.workload.storms",
    ),
    "metrics": (
        "repro.metrics.counters",
        "repro.metrics.latency",
        "repro.metrics.windows",
        "repro.metrics.registry",
    ),
    "stats": ("repro.stats.distributions",),
}

#: Constructors that are spans too (set-up time must be attributed).
CONSTRUCTORS = {"Simulation", "MultiKeyScaleSimulation"}

_perf = time.perf_counter
_KEY_SUFFIX = re.compile(r"-\d+$")


def layer_of(module_name: "str | None") -> str:
    """The ``repro.<layer>`` package a module belongs to (else ``engine``:
    a callback defined outside ``repro`` is the harness's own)."""
    parts = (module_name or "").split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "engine"


class Tracer:
    """In-memory span aggregates plus a bounded set of full span trees."""

    def __init__(self, tree_budget: int = 200):
        self._slots: dict[tuple[str, str], int] = {}
        self.labels: list[tuple[str, str]] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        #: Calls that crossed into the layer from a different layer.
        self.boundary = {layer: 0 for layer in LAYERS}
        #: Outcome counters fed by result hooks (see ``install``).
        self.counters = {"index.useful_gets": 0, "index.swept_entries": 0}
        self._stack: list[float] = []  # child seconds of each open span
        self._layers: list[str] = []  # layer of each open span
        self._budget = [tree_budget]
        self._recording = [False]
        self._open_ids: list[int] = []
        self._root_id = 0
        #: Retained span trees: [id, parent, root, slot, start, end].
        self.spans: list[list] = []
        self._event_runners: dict[tuple[str, str], object] = {}
        self._epoch = _perf()

    # -- aggregation --------------------------------------------------------
    def slot(self, layer: str, name: str) -> int:
        """Index of the (layer, name) aggregate row (allocated on demand)."""
        key = (layer, name)
        index = self._slots.get(key)
        if index is None:
            index = len(self.labels)
            self._slots[key] = index
            self.labels.append(key)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return index

    def calls_of(self, layer: str, *names: str) -> int:
        """Total calls of the named spans of one layer (0 if never seen)."""
        return sum(
            self.calls[self._slots[(layer, name)]]
            for name in names
            if (layer, name) in self._slots
        )

    def calls_matching(self, layer: str, suffix: str) -> int:
        """Total calls of every ``layer`` span whose name ends ``suffix``."""
        return sum(
            self.calls[index]
            for index, (owner, name) in enumerate(self.labels)
            if owner == layer and name.endswith(suffix)
        )

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per-layer ``self_s`` and boundary ``calls``."""
        out = {
            layer: {"self_s": 0.0, "calls": self.boundary[layer]}
            for layer in LAYERS
        }
        for (layer, _), seconds in zip(self.labels, self.self_time):
            out[layer]["self_s"] += seconds
        return out

    def aggregate_rows(self) -> list[dict]:
        """One JSON-safe row per (layer, name) that was ever called."""
        return [
            {
                "layer": layer,
                "name": name,
                "calls": self.calls[index],
                "total_s": self.total[index],
                "self_s": self.self_time[index],
            }
            for index, (layer, name) in enumerate(self.labels)
            if self.calls[index]
        ]

    def span_rows(self) -> list[dict]:
        """The retained span trees, one JSON-safe row per span."""
        rows = []
        for ident, parent, root, slot, start, end in self.spans:
            layer, name = self.labels[slot]
            rows.append(
                {
                    "id": ident,
                    "parent": parent,
                    "root": root,
                    "layer": layer,
                    "name": name,
                    "start": start - self._epoch,
                    "end": end - self._epoch,
                }
            )
        return rows

    # -- span trees -----------------------------------------------------------
    def _begin_node(self, slot: int) -> list:
        ident = len(self.spans) + 1
        parent = self._open_ids[-1] if self._open_ids else 0
        if not parent:
            self._root_id = ident
        node = [ident, parent, self._root_id, slot, _perf(), None]
        self.spans.append(node)
        self._open_ids.append(ident)
        return node

    def _end_node(self, node: list) -> None:
        node[5] = _perf()
        self._open_ids.pop()
        if not self._open_ids:
            self._recording[0] = False

    # -- wrapping -----------------------------------------------------------
    def wrap(self, fn, layer: str, name: str, on_result=None, event=False):
        """``fn`` timed as one (layer, name) span per call.

        ``event`` marks kernel-dispatched work: such a span may open one
        of the retained span trees.  ``on_result`` sees the return value
        of every call that did not raise (outcome counters).
        """
        slot = self.slot(layer, name)
        stack, layers = self._stack, self._layers
        calls, total, self_time = self.calls, self.total, self.self_time
        boundary, budget, recording = (
            self.boundary,
            self._budget,
            self._recording,
        )
        begin, end = self._begin_node, self._end_node

        def traced(*args, **kwargs):
            if not layers or layers[-1] != layer:
                boundary[layer] += 1
            if event and budget[0] > 0 and not recording[0]:
                budget[0] -= 1
                recording[0] = True
            node = begin(slot) if recording[0] else None
            stack.append(0.0)
            layers.append(layer)
            started = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _perf() - started
                children = stack.pop()
                layers.pop()
                calls[slot] += 1
                total[slot] += elapsed
                self_time[slot] += elapsed - children
                if stack:
                    stack[-1] += elapsed
                if node is not None:
                    end(node)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _runner(self, module: "str | None", name: str):
        """The traced trampoline ``runner(fn, *args)`` for one (owning
        layer, name): shared by every callable so labelled, so scheduling
        an event allocates nothing beyond the kernel's own record."""
        key = (layer_of(module), name)
        runner = self._event_runners.get(key)
        if runner is None:
            runner = self.wrap(_apply, *key, event=True)
            self._event_runners[key] = runner
        return runner

    def event_runner(self, fn):
        """Trampoline for a scheduled callable, owned by the layer that
        defines it and named by its qualified name."""
        name = getattr(fn, "__qualname__", None) or type(fn).__name__
        return self._runner(getattr(fn, "__module__", None), name)

    def trace_generator(self, generator, name: str):
        """``generator`` with each resume timed as one event span, owned
        by the layer that defines the generator function."""
        module = generator.gi_frame.f_globals.get("__name__")
        label = "process:" + _KEY_SUFFIX.sub("", name)
        return _resumed(generator, self._runner(module, label))


def _apply(fn, *args):
    return fn(*args)


def _resumed(generator, resume):
    """Drive ``generator`` one traced resume at a time (a transparent
    proxy: values, thrown interrupts and the return value pass through)."""
    value = error = None
    while True:
        try:
            if error is None:
                target = resume(generator.send, value)
            else:
                target = resume(generator.throw, error)
        except StopIteration as stop:
            return stop.value
        error = None
        try:
            value = yield target
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as exc:  # forwarded into the wrapped generator
            error = exc


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


def _rebind_everywhere(original, replacement) -> None:
    """Point every ``repro`` module global bound to ``original`` (the
    defining module and every ``from x import f`` alias) at the wrapper."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for alias, value in list(vars(module).items()):
            if value is original:
                setattr(module, alias, replacement)


def _instrument_class(tracer: Tracer, cls, layer: str, hooks: dict) -> None:
    if issubclass(cls, enum.Enum) or getattr(cls, "_is_protocol", False):
        return
    for name, attr in list(vars(cls).items()):
        if name.startswith("_") and not (
            name == "__init__" and cls.__name__ in CONSTRUCTORS
        ):
            continue
        rewrap = None
        fn = attr
        if isinstance(attr, (classmethod, staticmethod)):
            rewrap = type(attr)
            fn = attr.__func__
        if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
            continue
        if getattr(fn, "__isabstractmethod__", False):
            continue
        label = f"{cls.__name__}.{name}"
        traced = tracer.wrap(fn, layer, label, on_result=hooks.get(label))
        functools.update_wrapper(traced, fn)
        setattr(cls, name, rewrap(traced) if rewrap else traced)


def _instrument_module(tracer: Tracer, module_name: str, layer: str, hooks):
    module = importlib.import_module(module_name)
    for name, value in list(vars(module).items()):
        if getattr(value, "__module__", None) != module_name:
            continue
        if inspect.isclass(value):
            _instrument_class(tracer, value, layer, hooks)
        elif inspect.isfunction(value) and not name.startswith("_"):
            if inspect.isgeneratorfunction(value):
                continue
            traced = tracer.wrap(value, layer, name)
            functools.update_wrapper(traced, value)
            _rebind_everywhere(value, traced)


def _install_kernel(tracer: Tracer) -> None:
    """Wrap the event kernel: ``run`` is the span whose self time is the
    ``sim`` layer; everything it dispatches becomes an event span owned
    by the layer that defines the dispatched callable."""
    from repro import fastpath
    from repro.sim.core import Environment

    original_call_later = Environment.call_later
    original_defer = Environment.defer
    original_process = Environment.process

    def call_later(self, delay, function, *args):
        runner = tracer.event_runner(function)
        return original_call_later(self, delay, runner, function, *args)

    def defer(self, delay, function, *args):
        runner = tracer.event_runner(function)
        return original_defer(self, delay, runner, function, *args)

    def process(self, generator, name=""):
        name = name or getattr(generator, "__name__", "process")
        traced = tracer.trace_generator(generator, name)
        return original_process(self, traced, name=name)

    replacements = {
        "run": Environment.run,
        "timeout": Environment.timeout,
        "call_later": call_later,
        "process": process,
    }
    if fastpath.ENABLED and fastpath.BATCHED:
        # Outside batched mode ``defer`` delegates to (the wrapped)
        # ``call_later``; wrapping both would trace the event twice.
        replacements["defer"] = defer
    for name, fn in replacements.items():
        traced = tracer.wrap(fn, "sim", f"Environment.{name}")
        functools.update_wrapper(traced, getattr(Environment, name))
        setattr(Environment, name, traced)


def _install_transport_bind(tracer: Tracer) -> None:
    """The bound delivery handler is the engine's dispatch entry point."""
    from repro.net.transport import Transport

    traced_bind = Transport.bind  # already a ``net`` span

    def bind(self, handler):
        owner = layer_of(getattr(handler, "__module__", None))
        return traced_bind(self, tracer.wrap(handler, owner, "dispatch"))

    functools.update_wrapper(bind, traced_bind)
    Transport.bind = bind


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (call once, before any
    engine object is built, in the traced child only)."""
    import repro.schemes.registry  # loads every scheme module

    counters = tracer.counters

    def useful_get(result) -> None:
        if result is not None:
            counters["index.useful_gets"] += 1

    def swept(result) -> None:
        counters["index.swept_entries"] += int(result)

    hooks = {"IndexCache.get": useful_get, "IndexCache.sweep": swept}
    for layer, module_names in MODULES.items():
        for module_name in module_names:
            _instrument_module(tracer, module_name, layer, hooks)
    for module_name in sorted(sys.modules):
        if module_name.startswith("repro.schemes."):
            _instrument_module(tracer, module_name, "schemes", hooks)
    _install_transport_bind(tracer)
    _install_kernel(tracer)
