"""Spans around the library's layer boundaries, recorded from outside.

``Tracer.patched()`` replaces the module attributes and methods that the
library's callers resolve at call time (``precond.tri_solve``,
``rla.lanczos``, ``SparseSymMatrix.matvec``, the ``Preconditioner`` apply
methods, ...) with wrappers that open a span, and restores them on exit.
Each span records its name, start, end, parent and root, plus counts taken
at the same boundary (right-hand-side columns, Lanczos steps, PCG
iterations).  Spans stay in memory; ``layer_table`` reduces them.

A layer's self time is its duration minus the durations of its child
spans.  Calls are single-threaded and properly nested, so children never
overlap and the self times of all spans under a root add up to the root's
duration exactly.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

from bld_kaporin import linalg, pcg, precond, rla
from bld_kaporin.matio import SparseSymMatrix

__all__ = ["Span", "Tracer", "layer_table"]


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    root: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _cols(args, result):
    b = args[1]
    return {"cols": 1 if b.ndim == 1 else b.shape[1]}


def _lanczos(args, result):
    return {
        "steps": result.m,
        "requested": min(int(args[2]), len(args[1])),
        "breakdowns": int(result.breakdown),
    }


# (owner, attribute, span name, counts from (args, result)).  The owners are
# the namespaces the callers look the name up in: precond calls tri_solve
# and sym_eig through its own globals, rla calls lanczos through its own.
TARGETS = (
    (linalg, "ic0", "linalg.ic0", lambda args, res: {"shift": res.shift}),
    (precond, "error_core", "precond.error_core", None),
    (precond, "tri_solve", "linalg.tri_solve", _cols),
    (precond, "sym_eig", "linalg.sym_eig", None),
    (pcg, "pcg_solve", "pcg.solve", lambda args, res: {"iters": res.iterations}),
    (rla, "slq_trace_logdet", "rla.slq", lambda args, res: {"probes": res.probes_used}),
    (rla, "lanczos", "linalg.lanczos", _lanczos),
    (SparseSymMatrix, "matvec", "matio.matvec", None),
    (precond.Preconditioner, "apply_inverse", "precond.apply_inverse", None),
    # The square-root apply and its adjoint form one layer.
    (precond.Preconditioner, "apply_inv_sqrt", "precond.apply_inv_sqrt", None),
    (precond.Preconditioner, "apply_inv_sqrt_t", "precond.apply_inv_sqrt", None),
)


class Tracer:
    """In-memory span recorder; records only while ``patched()`` is open."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._enabled = False

    def _open(self, name: str) -> Span:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else index
        span = Span(name=name, start=self.clock(), parent=parent, root=root)
        self.spans.append(span)
        self._stack.append(index)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the block; a no-op while not patched."""
        if not self._enabled:
            yield None
            return
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span.counts.update(counts(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the span wrappers on every target; restore them on exit."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in TARGETS]
        try:
            for owner, attr, name, counts in TARGETS:
                setattr(owner, attr, self._wrap(owner.__dict__[attr], name, counts))
            self._enabled = True
            yield self
        finally:
            self._enabled = False
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)


def layer_table(spans: list[Span], roots) -> dict[str, dict]:
    """Per span name: total ``s``, ``self_s``, ``calls`` and summed counts,
    over the spans under the given root indices (the roots included)."""
    roots = set(roots)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    table: dict[str, dict] = {}
    for k, span in enumerate(spans):
        if span.root not in roots:
            continue
        row = table.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["s"] += span.duration
        row["self_s"] += span.duration - child_time[k]
        row["calls"] += 1
        for key, value in span.counts.items():
            row[key] = row.get(key, 0) + value
    return table
