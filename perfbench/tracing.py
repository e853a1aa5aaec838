"""Span recording around calls into the library's public layer functions.

The wrappers live here, in the benchmark, so the library itself carries
no tracing code.  :func:`install` swaps each traced callable for a
wrapper on its owning class or module and restores the originals on
exit; it must run before any engine, session or walker is built, so
that no object holds a reference to an unwrapped callable.

A span is ``[name, start, end, parent, request, work, useful]``:
``parent`` is the index of the enclosing span (-1 at top level),
``request`` the id of the request it ran under, and ``work``/``useful``
optional counts taken at the call (e.g. windows attempted / valid).
Spans stay in memory and are written out once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    """In-memory span log for one single-threaded traced phase."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self.request = None

    def call(self, name, fn, args, kwargs, counter=None):
        """``fn(*args, **kwargs)`` under a span named ``name``;
        ``counter(args, result)`` gives the span's (work, useful) counts."""
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.request, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if counter is not None:
            span[5], span[6] = counter(args, result)
        return result

    def run_request(self, request_id, fn, *args, **kwargs):
        """Run one request under a root ``request`` span."""
        self.request = request_id
        try:
            return self.call("request", fn, args, kwargs)
        finally:
            self.request = None

    def per_request(self):
        """``{request: {name: [self_s, calls, work, useful, total_s]}}``.

        ``calls`` counts only spans not nested in a span of the same
        name, so a recursive layer is one call.  A span's self time is
        its duration minus that of its direct children, which never
        overlap because the traced phase is single-threaded.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: [0.0, 0, 0, 0, 0.0]))
        for i, (name, start, end, parent, request, work, useful) in enumerate(
            self.spans
        ):
            cell = out[request][name]
            cell[0] += end - start - child[i]
            if parent < 0 or self.spans[parent][0] != name:
                cell[1] += 1
                cell[4] += end - start
            cell[2] += work
            cell[3] += useful
        return out

    def dump(self, path) -> None:
        """Write a header line naming the fields, then one JSON list per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(
                ["name", "start", "end", "parent", "request", "work", "useful"]
            ) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _wrap(tracer, owner, attr, name, counter):
    original = owner.__dict__[attr]

    @functools.wraps(original)
    def traced(*args, **kwargs):
        return tracer.call(name, original, args, kwargs, counter)

    setattr(owner, attr, traced)
    return owner, attr, original


def _block_work(args, result):
    engine = args[0]
    return result.shape[0] * engine.chains, 0


def _window_work(args, result):
    valid = result[0]
    return valid.shape[0], int(valid.sum())


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap every traced layer callable for the duration of the block."""
    from repro.core import estimator, stopping
    from repro.core.css import CSSWeightTable
    from repro.exact import triads
    from repro.relgraph.vectorized import VectorSubgraphSpace
    from repro.walks import batched, walkers, windows

    targets = [
        (triads, "edge_triangle_counts", "exact.edge_triangle_counts", None),
        (batched.BatchedWalkEngine, "step_block", "engine.step_block", _block_work),
        (VectorSubgraphSpace, "frontier", "relgraph.frontier", None),
        (windows, "distinct_window_nodes", "windows.distinct_window_nodes",
         _window_work),
        (windows, "induced_bitmasks", "windows.induced_bitmasks", None),
        (CSSWeightTable, "weights", "css.weights", None),
        (windows, "state_degrees", "windows.state_degrees", None),
        (estimator.SRWSession, "snapshot", "stopping.snapshot", None),
        # Serial single-chain path (the daemon workers' default).
        (estimator, "sampling_weight", "css.sampling_weight", None),
    ]
    for cls in (walkers.SimpleWalk, walkers.NonBacktrackingWalk):
        targets.append((cls, "step", "walks.step", None))
    for cls in vars(stopping).values():
        if (
            isinstance(cls, type)
            and issubclass(cls, stopping.StoppingRule)
            and "firing" in cls.__dict__
        ):
            targets.append((cls, "firing", "stopping.firing", None))
    restore = []
    try:
        for owner, attr, name, counter in targets:
            restore.append(_wrap(tracer, owner, attr, name, counter))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
