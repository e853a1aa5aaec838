"""Optional numba kernels for the fused G(3) hot loops.

The ``csr-jit`` backend (:func:`repro.graphs.as_backend`) routes the
innermost ragged-gather/dedup loops of
:class:`~repro.relgraph.fused.FusedKernel` (d = 3) — triangle-count builds,
segment counting/ranking and segment selection — through the compiled
two-pointer merges below instead of the NumPy sort pipeline.  Outputs
are bit-identical: both paths walk the same sorted CSR rows in the same
canonical order.

numba is strictly optional (tier-1 CI never installs it).  When the
import fails, :data:`HAVE_NUMBA` is ``False``, the decorators degrade to
identity, and callers fall back to the NumPy path after a once-per-run
warning at backend conversion (:func:`~repro.graphs.csr.as_backend`).
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised only on the optional-numba CI leg
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - default environment
    HAVE_NUMBA = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        if len(args) == 1 and callable(args[0]) and not kwargs:
            return args[0]

        def wrap(func):
            return func

        return wrap


@njit(cache=True)
def tri_counts(indptr, indices):  # pragma: no cover - numba-only CI leg
    """``|N(u) ∩ N(v)|`` per directed edge, two-pointer merge per edge."""
    total = indices.size
    tri = np.zeros(total, dtype=np.int64)
    n = indptr.size - 1
    for u in range(n):
        for ei in range(indptr[u], indptr[u + 1]):
            v = indices[ei]
            i = indptr[u]
            j = indptr[v]
            i_end = indptr[u + 1]
            j_end = indptr[v + 1]
            count = 0
            while i < i_end and j < j_end:
                a = indices[i]
                b = indices[j]
                if a == b:
                    count += 1
                    i += 1
                    j += 1
                elif a < b:
                    i += 1
                else:
                    j += 1
            tri[ei] = count
    return tri


@njit(cache=True)
def segment_rank(
    indptr, indices, x, y, s0, s1, s2, bound, inter
):  # pragma: no cover - numba-only CI leg
    """Valid candidates of segment ``(x, y)`` with id below ``bound``,
    per lane (``bound = num_nodes`` counts the whole segment)."""
    m = x.size
    out = np.empty(m, dtype=np.int64)
    for t in range(m):
        i = indptr[x[t]]
        j = indptr[y[t]]
        i_end = indptr[x[t] + 1]
        j_end = indptr[y[t] + 1]
        limit = bound[t]
        count = 0
        while i < i_end or j < j_end:
            if i < i_end and (j >= j_end or indices[i] <= indices[j]):
                w = indices[i]
                both = j < j_end and indices[j] == w
                i += 1
                if both:
                    j += 1
            else:
                w = indices[j]
                both = False
                j += 1
            if w >= limit:
                break
            if inter[t] and not both:
                continue
            if w == s0[t] or w == s1[t] or w == s2[t]:
                continue
            count += 1
        out[t] = count
    return out


@njit(cache=True)
def segment_select(
    indptr, indices, x, y, s0, s1, s2, within, inter
):  # pragma: no cover - numba-only CI leg
    """The ``within``-th valid candidate of segment ``(x, y)`` per lane,
    in canonical (ascending id) order."""
    m = x.size
    out = np.empty(m, dtype=np.int64)
    for t in range(m):
        i = indptr[x[t]]
        j = indptr[y[t]]
        i_end = indptr[x[t] + 1]
        j_end = indptr[y[t] + 1]
        need = within[t]
        chosen = np.int64(-1)
        while i < i_end or j < j_end:
            if i < i_end and (j >= j_end or indices[i] <= indices[j]):
                w = indices[i]
                both = j < j_end and indices[j] == w
                i += 1
                if both:
                    j += 1
            else:
                w = indices[j]
                both = False
                j += 1
            if inter[t] and not both:
                continue
            if w == s0[t] or w == s1[t] or w == s2[t]:
                continue
            if need == 0:
                chosen = w
                break
            need -= 1
        out[t] = chosen
    return out
