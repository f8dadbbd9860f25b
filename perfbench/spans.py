"""In-memory span tracer that times calls into the library's layers.

Tracing works from the benchmark's side only: `Tracer.install` replaces
each public function of the seven layer modules (and a few methods that
carry the hot paths) with a timing wrapper, everywhere the function object
is bound, and `Tracer.uninstall` puts the originals back.  Library code is
not modified.

A span has a name, a start, an end and a parent span.  Spans are kept in
flat arrays up to `SPAN_CAP`; beyond it they are still timed and counted
but not stored.  A layer's self time is the duration of its spans minus
the part covered by their child spans, accumulated as spans close, per
layer and per span name.
"""

from __future__ import annotations

import inspect
import json
from array import array
from time import perf_counter

LAYERS = ("core", "uniformity", "pseudometric", "topology", "oracle", "jsonio", "cli")
BENCH = len(LAYERS)  # index of the benchmark's own spans
SPAN_CAP = 100_000

# Methods traced besides the module-level public functions: JSON
# conversions of every class, plus the relation operators and the table
# constructor, which hold most of the work.
CONVERSIONS = ("from_json", "to_json")
METHODS = {
    "core": {"Relation": ("__and__", "__or__", "issubset")},
    "pseudometric": {"Pseudometric": ("__init__",)},
}
# Helpers run inside every relation operation or table entry; wrapping them
# would double the tracing cost of the hottest paths, so their time stays
# with their caller, in the same layer.  Generator functions are skipped
# too: a span would end before any work.
UNTRACED = {"core.same_carrier", "core.mask_of", "cli.padic_valuation"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_layer: list[int] = []
        self.name_calls: list[int] = []
        self.name_total: list[float] = []  # summed span durations, per name
        self.name_self: list[float] = []  # the same minus time in child spans
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.self_time = [0.0] * (BENCH + 1)
        self.counts: dict[str, float] = {}
        self._child = [0.0]  # child-time accumulators; [0] is the outside
        self._current = -1  # index of the innermost stored span
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name(self, layer: int, name: str) -> int:
        key = f"{LAYERS[layer] if layer < BENCH else 'bench'}.{name}"
        nid = self.name_ids.get(key)
        if nid is None:
            nid = self.name_ids[key] = len(self.names)
            self.names.append(key)
            self.name_layer.append(layer)
            self.name_calls.append(0)
            self.name_total.append(0.0)
            self.name_self.append(0.0)
        return nid

    def _open(self, nid: int) -> tuple[int, int, float]:
        parent = self._current
        idx = -1
        if len(self.span_name) < SPAN_CAP:
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self._current = idx
        else:
            self.dropped += 1
        self._child.append(0.0)
        start = perf_counter()
        if idx >= 0:
            self.span_start[idx] = start
        return idx, parent, start

    def _close(self, nid: int, idx: int, parent: int, start: float) -> None:
        end = perf_counter()
        duration = end - start
        child = self._child.pop()
        self._child[-1] += duration
        self.self_time[self.name_layer[nid]] += duration - child
        self.name_calls[nid] += 1
        self.name_total[nid] += duration
        self.name_self[nid] += duration - child
        if idx >= 0:
            self.span_end[idx] = end
            self._current = parent

    def span(self, layer: int, name: str):
        return _Span(self, self._name(layer, name))

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrapping the library ----------------------------------------------

    def _wrap(self, fn, layer: int, name: str, hooks: tuple):
        nid = self._name(layer, name)
        tracer = self
        prepare, after = hooks

        def traced(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            idx, parent, start = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(nid, idx, parent, start)
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, lib, hooks: dict) -> None:
        """Wrap the public functions and traced methods of the layer modules.

        `hooks` maps "<layer>.<name>" (or "<layer>.<Class>.<method>") to a
        pair (prepare, after): `prepare(args)` may replace the positional
        arguments before the call, `after(tracer, args, result)` updates
        the per-layer counts.  Either may be None.
        """
        none = (None, None)
        wrappers = {}
        modules = [getattr(lib, layer) for layer in LAYERS]
        for layer, module in enumerate(modules):
            prefix = LAYERS[layer]
            for name, value in vars(module).items():
                key = f"{prefix}.{name}"
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not name.startswith("_")
                    and not inspect.isgeneratorfunction(value)
                    and key not in UNTRACED
                ):
                    traced = self._wrap(value, layer, name, hooks.get(key, none))
                    wrappers[id(value)] = (value, traced)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    extra = METHODS.get(prefix, {}).get(name, ())
                    for method in extra + CONVERSIONS:
                        attr = value.__dict__.get(method)
                        if attr is None:
                            continue
                        label = f"{name}.{method}"
                        hook = hooks.get(f"{prefix}.{label}", none)
                        if isinstance(attr, classmethod):
                            traced = classmethod(self._wrap(attr.__func__, layer, label, hook))
                        else:
                            traced = self._wrap(attr, layer, label, hook)
                        self._patch(value, method, traced)
        # rebind every name bound to a wrapped function, so that calls
        # between modules, and within one, go through the wrappers too
        for module in modules + [lib.package]:
            for name, value in list(vars(module).items()):
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    self._patch(module, name, pair[1])

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write(self, path, meta: dict) -> None:
        spans = [
            [self.span_name[i], self.span_start[i], self.span_end[i], self.span_parent[i]]
            for i in range(len(self.span_name))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                dict(
                    meta,
                    names=self.names,
                    calls=self.name_calls,
                    dropped=self.dropped,
                    spans=spans,
                ),
                fh,
            )


class _Span:
    __slots__ = ("tracer", "nid", "state")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.state = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.nid, *self.state)
        return False

