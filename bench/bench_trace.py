"""In-memory span tracer that wraps cathub's public functions from outside.

Tracer.installed() rebinds every public function found in the cathub.*
module namespaces (including names re-exported with ``from .fock import``)
to one timing wrapper per original function, and counts LogReal
constructions.  Leaving the context restores every binding.  Spans are
kept in flat arrays (name, start, end, parent) and summarised afterwards;
self time is a span's duration minus the durations of its direct children.
"""

import contextlib
import functools
import sys
import time
import types
from array import array

import numpy as np

PACKAGE = "cathub"

# Argument payloads kept for the span kinds whose per-layer metrics need them.
ARG_HOOKS = {
    "fock.genfunc_derivative": lambda order, y: (int(order), float(y)),
    "hub.heralded_amps": lambda parity, m, y, n_max: int(n_max) + 1,
}


def span_name(fn) -> str:
    """'<module>.<qualname>' with the package prefix dropped, e.g. 'fock.genfunc_derivative'."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def _in_package(module_name: str) -> bool:
    return module_name == PACKAGE or module_name.startswith(PACKAGE + ".")


def package_bindings():
    """(module, attribute, function) for every public function bound in the package's modules."""
    out = []
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not _in_package(mod_name):
            continue
        for attr, value in sorted(vars(module).items()):
            if not attr.startswith("_") and isinstance(value, types.FunctionType) and _in_package(value.__module__):
                out.append((module, attr, value))
    return out


class Tracer:
    """Collects spans for every call into the package while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.payload: dict[int, object] = {}
        self.logreal_objects = 0
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[sid] = t0
        self.end[sid] = t1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the caller itself, such as one benchmark item."""
        sid = self._open(self._intern(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, t0, time.perf_counter())

    def _wrap(self, fn):
        name = span_name(fn)
        name_id = self._intern(name)
        hook = ARG_HOOKS.get(name)
        payload = self.payload

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name_id)
            if hook is not None:
                payload[sid] = hook(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, t0, time.perf_counter())

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch the package's bindings for the duration of the block."""
        bindings = package_bindings()
        wrappers = {}
        logreal_cls = sys.modules[PACKAGE + ".logreal"].LogReal
        own_init = logreal_cls.__dict__.get("__init__")
        init = logreal_cls.__init__

        def counting_init(obj, *args, **kwargs):
            self.logreal_objects += 1
            init(obj, *args, **kwargs)

        try:
            for module, attr, fn in bindings:
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn)
                setattr(module, attr, wrappers[id(fn)])
            logreal_cls.__init__ = counting_init
            yield self
        finally:
            if own_init is None:
                del logreal_cls.__init__
            else:
                logreal_cls.__init__ = own_init
            for module, attr, fn in bindings:
                setattr(module, attr, fn)

    def arrays(self):
        """Spans as numpy arrays: (name ids, start, end, parent)."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
        )

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus the durations of direct children."""
        _, start, end, parent = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur - child

    def save(self, path: str) -> None:
        """Write the spans out as a compressed .npz (start/end relative to the first span)."""
        name_id, start, end, parent = self.arrays()
        t0 = start.min() if len(start) else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name_id,
            start=start - t0,
            end=end - t0,
            parent=parent,
        )
