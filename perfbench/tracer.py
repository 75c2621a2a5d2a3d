"""Out-of-program span tracer for the picardrom layer modules.

The tracer rebinds the public functions and methods of each layer module to
timing wrappers, in every ``picardrom`` module namespace that binds them, and
restores the originals on :meth:`Tracer.uninstall`. Each call becomes a span
``(id, parent, phase, name, start, end, self)``, where ``self`` is the span's
duration minus the time covered by its child spans. Spans are kept in memory;
the caller aggregates them per phase (one phase per traced operation).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.sparse

LAYERS = ("numerics", "problems", "pod", "coupling", "driver", "harness")
PACKAGE = "picardrom"


def _matrix_bytes(obj) -> int:
    """Bytes held by a dense 2-D array or a scipy sparse matrix, else 0."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes if obj.ndim == 2 else 0
    if scipy.sparse.issparse(obj):
        return sum(getattr(obj, attr).nbytes
                   for attr in ("data", "indices", "indptr", "row", "col")
                   if hasattr(obj, attr))
    return 0


def _is_value_class(cls) -> bool:
    # Frozen dataclasses (grids, graphs, bases, trace rows) are value objects
    # whose methods are accessors called per grid node; wrapping them would
    # cost more than the work they do.
    return dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen


def public_callables(module) -> list[tuple[object, str, object, str]]:
    """(owner, attribute, raw attribute, span name) for a layer module.

    Covers the public functions defined in the module and the public plain,
    static and class methods of its public classes (except value classes).
    """
    short = module.__name__.rsplit(".", 1)[-1]
    found = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((module, name, obj, f"{short}.{name}"))
        elif inspect.isclass(obj) and not _is_value_class(obj):
            for attr, raw in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (staticmethod, classmethod)) or inspect.isfunction(raw):
                    found.append((obj, attr, raw, f"{short}.{name}.{attr}"))
    return found


class Tracer:
    """Collects spans from wrapped callables while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.phase: object = None
        self.matrix_bytes: dict[object, int] = defaultdict(int)  # max per phase
        self.basis_size: dict[object, int] = defaultdict(int)    # max per phase
        self._stack: list[list] = []   # [span id, child seconds]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """Return a span-recording wrapper around ``fn``."""
        layer = name.split(".", 1)[0]
        in_numerics = layer == "numerics"
        builds_basis = name.startswith("pod.build_basis")
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            phase = self.phase
            if in_numerics and args:
                nbytes = _matrix_bytes(args[0])
                if nbytes > self.matrix_bytes[phase]:
                    self.matrix_bytes[phase] = nbytes
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, parent, phase, name, t0, t1, dur - frame[1]))
            if builds_basis:
                size = getattr(result, "size", 0)
                if size > self.basis_size[phase]:
                    self.basis_size[phase] = size
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public callable of the layer modules, in every binding."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS]
        replaced = {}
        for module in modules:
            for owner, attr, raw, span_name in public_callables(module):
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(span_name, raw.__func__))
                elif isinstance(raw, classmethod):
                    new = classmethod(self.wrap(span_name, raw.__func__))
                else:
                    new = self.wrap(span_name, raw)
                    replaced[id(raw)] = (raw, new)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, new)
        # Re-export sites such as ``from .driver import accelerated_run``.
        namespaces = [m for name, m in sys.modules.items()
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for namespace in namespaces:
            for attr, val in list(vars(namespace).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    self._restore.append((namespace, attr, val))
                    setattr(namespace, attr, hit[1])

    def wrap_problem(self, problem) -> None:
        """Wrap the assemblers and the combiner held by a CoupledProblem."""
        layer = problem.combiner.__module__.rsplit(".", 1)[-1]
        self._restore.append((problem, "assemblers", problem.assemblers))
        self._restore.append((problem, "combiner", problem.combiner))
        problem.assemblers = tuple(self.wrap(f"{layer}.assemble", a)
                                   for a in problem.assemblers)
        problem.combiner = self.wrap(f"{layer}.combine", problem.combiner)

    def uninstall(self) -> None:
        """Restore every binding replaced by install/wrap_problem."""
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def last_span(self, name: str, phase) -> tuple | None:
        """Most recent finished span of ``name`` in ``phase``."""
        for span in reversed(self.spans):
            if span[3] == name and span[2] == phase:
                return span
        return None

    def summary(self, phase) -> dict[str, dict[str, float]]:
        """Per-name ``calls``, ``self_s`` and inclusive ``s`` for one phase."""
        out: dict[str, dict[str, float]] = {}
        for _, _, ph, name, t0, t1, self_s in self.spans:
            if ph != phase:
                continue
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_s
            row["s"] += t1 - t0
        return out

    def layer_totals(self, phase) -> dict[str, dict[str, float]]:
        """Per-layer ``calls`` and ``self_s`` summed over all wrapped names."""
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for name, row in self.summary(phase).items():
            layer = name.split(".", 1)[0]
            out[layer]["calls"] += row["calls"]
            out[layer]["self_s"] += row["self_s"]
        return out
