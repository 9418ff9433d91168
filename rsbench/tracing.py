"""In-memory spans around calls into rowsplit's layers.

The traced run wraps public names from the benchmark's side: module
attributes that rowsplit.solver and rowsplit.precond look up at call
time, and the preconditioner's apply through a proxy.  Nothing in the
library changes.  Spans are kept in flat arrays and written out when
the run ends; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np


def _trisolve_bytes(T, *args, **kwargs) -> float:
    """Bytes a CSC triangular solve must touch, computed from the factor.

    Values and row indices (16 per stored entry), the column pointers,
    and the dense right-hand side read once and written once.
    """
    return 16.0 * T.nnz + 8.0 * (T.ncols + 1) + 16.0 * T.ncols


# (module, attribute, span name, bytes-of-arguments or None)
HOOKS = [
    ("rowsplit.solver", "matvec", "sparse_core.matvec", None),
    ("rowsplit.solver", "matvec_transpose", "sparse_core.matvec", None),
    ("rowsplit.precond", "matvec", "precond.y_product", None),
    ("rowsplit.precond", "matvec_transpose", "precond.y_product", None),
    ("rowsplit.precond", "sparse_lower_solve", "sparse_core.trisolve", _trisolve_bytes),
    ("rowsplit.precond", "sparse_lower_solve_transpose", "sparse_core.trisolve", _trisolve_bytes),
    ("rowsplit.precond", "sparse_upper_solve", "sparse_core.trisolve", _trisolve_bytes),
    ("rowsplit.precond", "dense_cholesky_factorize", "sparse_core.chol_factor", None),
    ("rowsplit.precond", "dense_cholesky_solve", "sparse_core.chol_solve", None),
    ("rowsplit.precond", "sparse_solve_sparse_rhs", "sparse_core.reach_solve", None),
    ("rowsplit.precond", "build_y_explicit", "precond.y_build", None),
    ("rowsplit.precond", "_cg_fixed_steps", "precond.s_inner_cg", None),
]


class NullTracer:
    """Untraced runs: calls go straight through."""

    enabled = False
    solve_id = -1

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def traced_preconditioner(self, pre):
        return pre


class Tracer:
    enabled = True

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.solve = array("q")
        self.nbytes = array("d")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.solve_id = -1
        self.hooked: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, bytes_of=None):
        nid = self._id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.solve.append(self.solve_id)
            self.nbytes.append(bytes_of(*args, **kwargs) if bytes_of else 0.0)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                stack.pop()

        return traced

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def traced_preconditioner(self, pre):
        return _TracedPreconditioner(pre, self.wrap("precond.apply", pre.apply))

    @contextmanager
    def hooks(self):
        """Wrap every name in HOOKS that the library still has; restore on exit."""
        saved = []
        try:
            for modname, attr, span, bytes_of in HOOKS:
                mod = importlib.import_module(modname)
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(span, fn, bytes_of))
                self.hooked.append(f"{modname}.{attr}")
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def table(self) -> "SpanTable":
        ints = (np.array(a, dtype=np.int64) for a in (self.name, self.parent, self.solve))
        floats = (np.array(a, dtype=np.float64) for a in (self.nbytes, self.start, self.end))
        return SpanTable(self.names, *ints, *floats)


class _TracedPreconditioner:
    """Forwards everything to the preconditioner; apply is a traced wrapper."""

    def __init__(self, pre, apply):
        self._pre = pre
        self.apply = apply

    def __getattr__(self, attr):
        return getattr(self._pre, attr)


class SpanTable:
    """Finished spans as arrays, with durations and self times."""

    def __init__(self, names, name, parent, solve, nbytes, start, end):
        self.names = list(names)
        self.name, self.parent, self.solve = name, parent, solve
        self.nbytes, self.start, self.end = nbytes, start, end
        self.dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(name))
        self.self_time = self.dur - child

    def ids(self, *names) -> list[int]:
        return [self.names.index(n) for n in names if n in self.names]

    def mask(self, *names) -> np.ndarray:
        return np.isin(self.name, self.ids(*names))

    def nearest_ancestor(self, *names) -> np.ndarray:
        """Index of each span's nearest ancestor with one of `names`, or -1."""
        targets = set(self.ids(*names))
        name, parent = self.name.tolist(), self.parent.tolist()
        out = [-1] * len(name)
        for i, p in enumerate(parent):  # a parent always precedes its children
            if p >= 0:
                out[i] = p if name[p] in targets else out[p]
        return np.array(out, dtype=np.int64)

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), name=self.name,
                            parent=self.parent, solve=self.solve, nbytes=self.nbytes,
                            start=self.start, end=self.end)
