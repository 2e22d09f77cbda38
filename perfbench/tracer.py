"""Span recording around calls into the bdie2d modules.

The tracer replaces the public functions of each traced module, and a
few public methods, by timing wrappers at module or class attribute
level.  It is installed only for the duration of one traced operation
and restored afterwards, so untraced operations run the library as
shipped.  Only calls that go through a module or class attribute are
seen; a name bound by ``from module import name`` elsewhere escapes.

Each span is ``[name, start, end, parent, op, phase, count]``: ``parent``
is the index of the enclosing span (-1 at the top), ``op`` the operation
id, ``phase`` the part of the operation that was running (set by the
benchmark), and ``count`` the number of targets or points the call was
given (-1 when the call takes none).  Spans stay in memory until the
benchmark writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager

import numpy as np

from bdie2d import coefficient, geometry, laplace, parametrix, system, verification

MODULES = (geometry, coefficient, laplace, parametrix, system, verification)

# (module, class, method, counted argument); spans are named
# "<module>.<method>" like the module-level functions
METHODS = (
    (geometry, "DomainMesh", "interpolation", "rho"),
    (coefficient, "CoefficientField", "eval", "x"),
    (coefficient, "CoefficientField", "grad_log", "x"),
    (coefficient, "CoefficientField", "laplacian_log", "x"),
    (system, "BdieSolution", "evaluate", "targets"),
)

# spans whose target arrays are kept for the distinct-target ratio
KEEP_TARGETS = ("laplace.domain_rows", "laplace.newtonian_potential")

NAME, START, END, PARENT, OP, PHASE, COUNT = range(7)


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def public_functions(module):
    """Public functions defined in ``module`` itself (not imported)."""
    return sorted((name, fn) for name, fn in vars(module).items()
                  if inspect.isfunction(fn) and not name.startswith("_")
                  and fn.__module__ == module.__name__)


def _arg_index(fn, arg):
    params = list(inspect.signature(fn).parameters)
    return params.index(arg) if arg in params else None


def _count_points(value) -> int:
    """Rows of an (m, 2) point array; a single (2,) point counts once."""
    return np.atleast_2d(np.asarray(value, dtype=float)).shape[0]


def _count_values(value) -> int:
    return np.atleast_1d(np.asarray(value, dtype=float)).shape[0]


class Tracer:
    """Records spans for the operations run inside ``operation()``."""

    def __init__(self):
        self.spans = []
        self.targets = {}      # (op id, phase) -> list of (m, 2) arrays
        self.phase = None
        self._op = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, arg):
        index = _arg_index(fn, arg)
        counter = _count_values if arg == "rho" else _count_points
        keep = name in KEEP_TARGETS
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            value = None
            if index is not None:
                value = args[index] if index < len(args) else kwargs.get(arg)
            count = -1 if value is None else counter(value)
            if keep and value is not None:
                self.targets.setdefault((self._op, self.phase), []).append(
                    np.array(value, dtype=float).reshape(-1, 2))
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op,
                    self.phase, count]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    def _install(self):
        for module in MODULES:
            for name, fn in public_functions(module):
                self._saved.append((module, name, fn))
                setattr(module, name,
                        self._wrap(f"{_short(module)}.{name}", fn, "targets"))
        for module, cls_name, method, arg in METHODS:
            cls = getattr(module, cls_name)
            fn = cls.__dict__[method]
            self._saved.append((cls, method, fn))
            setattr(cls, method, self._wrap(f"{_short(module)}.{method}", fn, arg))

    def _remove(self):
        while self._saved:
            owner, name, fn = self._saved.pop()
            setattr(owner, name, fn)

    @contextmanager
    def operation(self, op_id):
        """Trace every library call made inside the block as operation op_id."""
        self._op = op_id
        try:
            self._install()
            yield
        finally:
            self._remove()
            self._op = None
            self.phase = None


def self_times(spans):
    """Span duration minus the time covered by its direct child spans."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def distinct_fraction(arrays) -> float:
    """Distinct target points over all target points in ``arrays``."""
    if not arrays:
        return 0.0
    pts = np.concatenate(arrays)
    return np.unique(pts, axis=0).shape[0] / pts.shape[0]
