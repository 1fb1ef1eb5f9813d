"""Layer spans and work counts for meanlab, installed from outside the package.

`Tracer.install()` replaces every public module-level function of the
layer modules, and `MeanDescriptor.__call__`, with a wrapper that counts
the call and records a span.  It then rebinds every reference that other
meanlab modules and tables hold to an original: imported names (the
`integrate` that `elliptic`, `harmonic` and `calculus` call, the
`apply_i_operator` that `suite` imports), `SUITE_CHECKS`, the catalog
evaluators (`elliptic.agm`, `elliptic.v_mean`) and the derivative table.
Nothing in the package's source changes.

The pair helpers in `meanlab._pairs` run on every evaluation, so they are
counted but never given a span; their time stays in the caller's span.

A span is (name, start, end, parent span, op id), kept in parallel arrays
in the order the spans opened and written out by `dump`.  Wrappers only
count and record while `active` is set, so warm-up ops and output checks
leave no trace.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

#: Module of the package -> layer it belongs to.
MODULE_LAYERS = {
    "meanlab.cli": "cli",
    "meanlab.means": "means",
    "meanlab._pairs": "means",
    "meanlab.elliptic": "elliptic",
    "meanlab.calculus": "calculus",
    "meanlab.harmonic": "harmonic",
    "meanlab.inequalities": "inequalities",
    "meanlab.suite": "suite",
    "meanlab.reporting": "reporting",
}

LAYERS = ("cli", "means", "elliptic", "calculus", "harmonic", "inequalities",
          "suite", "reporting")

_COUNT_ONLY_MODULES = ("meanlab._pairs",)

MEAN_CALL = "means.MeanDescriptor.__call__"
INTEGRAND = "calculus.integrand"
CHAIN_POINTS = "inequalities.chain_points"
SKIPPED_POINTS = "inequalities.skipped_points"

_ARRAYS = (("name", "i"), ("start", "q"), ("end", "q"), ("parent", "i"), ("op", "i"))


def _bump(counts: dict, key: str, n: int = 1) -> None:
    counts[key] = counts.get(key, 0) + n


class Tracer:
    """Spans and per-op call counts of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.op_counts: dict[int, dict[str, int]] = {}
        self.current_op = -1
        self.active = False

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.current_op = op_id
        self.counts = {}
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self.op_counts[self.current_op] = self.counts

    # -- wrappers ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _counting(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                _bump(tracer.counts, name)
            return fn(*args, **kwargs)

        return wrapper

    def _spanning(self, fn, name, before=None, after=None):
        tracer = self
        nid = self._name_id(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            _bump(tracer.counts, name)
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            stack = tracer.stack
            idx = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.end.append(0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions and rebind every reference."""
        from meanlab.means import MeanDescriptor

        wrappers: dict[int, tuple[object, object]] = {}
        for modname, layer in MODULE_LAYERS.items():
            module = importlib.import_module(modname)
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != modname):
                    continue
                name = f"{layer}.{attr}"
                if modname in _COUNT_ONLY_MODULES:
                    wrapper = self._counting(value, name)
                else:
                    wrapper = self._spanning(value, name, *_HOOKS.get(name, ()))
                wrappers[id(value)] = (value, wrapper)
        MeanDescriptor.__call__ = self._spanning(MeanDescriptor.__call__, MEAN_CALL)

        def rebind(value):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                return entry[1]
            if isinstance(value, dict):
                for key, item in list(value.items()):
                    new = rebind(item)
                    if new is not item:
                        value[key] = new
            elif isinstance(value, tuple):
                new = tuple(rebind(item) for item in value)
                if any(a is not b for a, b in zip(new, value)):
                    return new
            elif isinstance(value, MeanDescriptor):
                new = rebind(value.evaluator)
                if new is not value.evaluator:
                    object.__setattr__(value, "evaluator", new)
            return value

        for modname in [m for m in sys.modules if m == "meanlab" or m.startswith("meanlab.")]:
            module = sys.modules[modname]
            for attr, value in list(vars(module).items()):
                new = rebind(value)
                if new is not value:
                    setattr(module, attr, new)

    # -- output ------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write the spans (raw arrays) and the index (names, counts) beside them."""
        with open(path.with_suffix(".bin"), "wb") as fh:
            for attr, _ in _ARRAYS:
                getattr(self, attr).tofile(fh)
        index = {"names": self.names, "spans": len(self.name),
                 "op_counts": {str(k): v for k, v in self.op_counts.items()}}
        path.with_suffix(".json").write_text(json.dumps(index))


def load(path: Path) -> Tracer:
    """Read back what `Tracer.dump` wrote."""
    index = json.loads(path.with_suffix(".json").read_text())
    trace = Tracer()
    trace.names = index["names"]
    trace.op_counts = {int(k): v for k, v in index["op_counts"].items()}
    n = index["spans"]
    with open(path.with_suffix(".bin"), "rb") as fh:
        for attr, _ in _ARRAYS:
            getattr(trace, attr).fromfile(fh, n)
    return trace


# -- hooks for the calls whose counts need more than the call itself --------

def _count_integrand(tracer, args, kwargs):
    fn = args[0]

    def counted(u):
        _bump(tracer.counts, INTEGRAND)
        return fn(u)

    return (counted,) + args[1:], kwargs


def _count_k_route(tracer, args, kwargs):
    method = kwargs.get("method", args[1] if len(args) > 1 else "agm")
    _bump(tracer.counts, f"elliptic.ellip_k.{method}")
    return args, kwargs


def _count_chain_points(tracer, report):
    _bump(tracer.counts, CHAIN_POINTS, len(report.points) + len(report.skipped))
    _bump(tracer.counts, SKIPPED_POINTS, len(report.skipped))


_HOOKS = {
    "calculus.integrate": (_count_integrand, None),
    "elliptic.ellip_k": (_count_k_route, None),
    "inequalities.run_chain_suite": (None, _count_chain_points),
}


# -- analysis ---------------------------------------------------------------

def self_times(start, end, parent) -> array.array:
    """Each span's duration minus the part of it that its child spans cover.

    Spans must be in the order they opened, so that the children of any
    span come in order of start time; overlapping children count once and
    a child reaching past its parent counts only inside it.
    """
    n = len(start)
    covered = array.array("q", bytes(8 * n))
    reach = array.array("q", start)
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array.array("q", (end[i] - start[i] - covered[i] for i in range(n)))


def summarize(trace: Tracer) -> dict[int, dict]:
    """Per op: self time of each layer, inclusive time of each span name,
    span count and call counts.  Ops with a negative id are left out."""
    layer_of = [name.split(".", 1)[0] for name in trace.names]
    own = self_times(trace.start, trace.end, trace.parent)
    ops = {op: {"self_ns": dict.fromkeys(LAYERS, 0), "fn_ns": {}, "spans": 0,
                "counts": counts}
           for op, counts in trace.op_counts.items() if op >= 0}
    for i in range(len(trace.name)):
        entry = ops.get(trace.op[i])
        if entry is None:
            continue
        nid = trace.name[i]
        entry["self_ns"][layer_of[nid]] += own[i]
        name = trace.names[nid]
        entry["fn_ns"][name] = entry["fn_ns"].get(name, 0) + trace.end[i] - trace.start[i]
        entry["spans"] += 1
    return ops

