"""Log-structured edge-delta overlay on the immutable CSR backend.

:class:`DeltaCSRGraph` makes the frozen :class:`~repro.graphs.CSRGraph`
usable on *edge streams* — the paper's own OSN setting — without giving
up the vectorized walk kernels.  The design is the classic log-structured
split (LogBase-style, see PAPERS.md): bulk adjacency stays in the
immutable CSR ``indptr``/``indices`` arrays of a **base** snapshot, and
mutations accumulate in a small hot layer —

* an append-only edge **log** (``int32`` endpoint arrays plus a boolean
  tombstone bitmap marking deletes) recording every applied operation
  since the last compaction, and
* a per-node **flip index**: for each touched node, the set of neighbors
  whose adjacency differs from the base (an inserted-but-absent edge or
  a deleted-but-present one).  An insert followed by a delete of the
  same edge cancels out of the index (the log keeps both entries).

Reads serve the merged view: ``has_edge``/``has_edges`` answer from the
base and patch the (few) probes that hit the flip index via one
``searchsorted`` over the sorted delta keys; ``neighbors`` filters and
extends only touched rows; degrees are maintained incrementally.  The
``indptr``/``indices`` *properties* materialize a merged CSR snapshot
lazily (cached until the next ``apply``), so every vectorized consumer —
:mod:`repro.relgraph.vectorized`, :mod:`repro.walks.windows`, the
batched engine — runs unchanged on a mutating graph.

``compact()`` merges the log into a fresh immutable :class:`CSRGraph`
(bit-identical to rebuilding from scratch over the live edge set — the
same :meth:`CSRGraph.from_edges` code path) and rebases the overlay on
it; ``version`` increments monotonically on every ``apply`` and every
effective ``compact``, which is what
:class:`~repro.streaming.ContinuousSession` and the service daemon key
their refresh / republish logic on.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

import numpy as np

from .graph import Edge, Graph, GraphError
from .csr import CSRGraph

#: Initial capacity of the append-only log arrays (doubled on overflow).
_LOG_INITIAL_CAPACITY = 16

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_BOOL = np.empty(0, dtype=bool)


def _canonical_pairs(pairs: Iterable[Edge], n: int, label: str) -> np.ndarray:
    """Validate and canonicalize a batch of edge pairs to ``u < v`` rows."""
    arr = np.asarray(list(pairs), dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphError(f"{label} must be (u, v) pairs")
    if np.any(arr < 0) or np.any(arr >= n):
        bad = arr[np.any((arr < 0) | (arr >= n), axis=1)][0]
        raise GraphError(
            f"{label} endpoint out of range for num_nodes={n}: "
            f"({int(bad[0])}, {int(bad[1])})"
        )
    if np.any(arr[:, 0] == arr[:, 1]):
        bad = int(arr[arr[:, 0] == arr[:, 1]][0, 0])
        raise GraphError(f"{label} contains self-loop ({bad}, {bad})")
    return np.sort(arr, axis=1)


class DeltaCSRGraph(CSRGraph):
    """Mutable read-path overlay over an immutable CSR base.

    Parameters
    ----------
    base:
        Any full-access graph; converted to :class:`CSRGraph` once.  A
        ``DeltaCSRGraph`` input is snapshotted at its current merged
        view (the new overlay starts with an empty log at version 0).

    The node set is fixed at construction — only edges churn.  All
    :class:`CSRGraph` read methods (including the vectorized
    ``has_edges`` and the ``indptr``/``indices`` arrays the batched
    kernels gather from) answer for the *current* merged view, so the
    overlay is a drop-in ``backend="csr"``-compatible substrate
    (``isinstance(delta, CSRGraph)`` holds and ``batch_support`` passes).
    """

    __slots__ = (
        "base",
        "version",
        "_log_u",
        "_log_v",
        "_log_del",
        "_log_len",
        "_flipped",
        "_row_cache",
        "_dkeys",
        "_dalive",
        "_mat",
    )

    def __init__(self, base) -> None:
        base = CSRGraph.from_graph(base) if not isinstance(base, CSRGraph) else base
        if isinstance(base, DeltaCSRGraph):
            base = CSRGraph(base.indptr.copy(), base.indices.copy())
        if base.num_nodes >= np.iinfo(np.int32).max:
            raise GraphError(
                "DeltaCSRGraph logs endpoints as int32; "
                f"num_nodes={base.num_nodes} does not fit"
            )
        self.base = base
        self.version = 0
        # Parent slots (CSRGraph.__init__ is bypassed: ``indptr``/``indices``
        # are read-only properties here, so the parent constructor's
        # assignments would not apply).
        self._degrees = base.degrees_array.copy()
        self._num_edges = base.num_edges
        self._nset_cache: dict = {}
        self._edge_keys = None
        self._edge_tri = None
        # Append-only operation log (int32 endpoints + tombstone bitmap).
        self._log_u = np.empty(_LOG_INITIAL_CAPACITY, dtype=np.int32)
        self._log_v = np.empty(_LOG_INITIAL_CAPACITY, dtype=np.int32)
        self._log_del = np.zeros(_LOG_INITIAL_CAPACITY, dtype=bool)
        self._log_len = 0
        # node -> set of neighbors whose adjacency differs from the base.
        self._flipped: Dict[int, Set[int]] = {}
        self._row_cache: Dict[int, np.ndarray] = {}
        # Sorted directed delta keys (u * (n + 1) + v) + live flags, for
        # patching vectorized has_edges probes.
        self._dkeys = _EMPTY_I64
        self._dalive = _EMPTY_BOOL
        # Cached merged (indptr, indices); version 0 merged == base.
        self._mat: Tuple[np.ndarray, np.ndarray] = (base.indptr, base.indices)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply(self, inserts: Iterable[Edge] = (), deletes: Iterable[Edge] = ()) -> int:
        """Apply one batch of edge updates; returns the new ``version``.

        Both lists are validated against the **pre-batch** view: every
        insert must be absent, every delete present, and the batch may
        not contain duplicates or an insert/delete of the same edge.
        Deletes are logged before inserts.  An invalid batch raises
        :class:`~repro.graphs.GraphError` naming the offending edge and
        leaves the overlay untouched.
        """
        n = self.base.num_nodes
        ins = _canonical_pairs(inserts, n, "inserts")
        dels = _canonical_pairs(deletes, n, "deletes")
        if ins.size == 0 and dels.size == 0:
            return self.version
        stride = n + 1
        ins_keys = ins[:, 0] * stride + ins[:, 1]
        del_keys = dels[:, 0] * stride + dels[:, 1]
        for keys, label in ((ins_keys, "inserts"), (del_keys, "deletes")):
            if np.unique(keys).size != keys.size:
                raise GraphError(f"{label} batch contains duplicate edges")
        clash = np.intersect1d(ins_keys, del_keys)
        if clash.size:
            u, v = divmod(int(clash[0]), stride)
            raise GraphError(
                f"edge ({u}, {v}) appears in both inserts and deletes "
                "of one batch"
            )
        if ins.size:
            present = self.has_edges(ins[:, 0], ins[:, 1])
            if np.any(present):
                u, v = (int(x) for x in ins[present][0])
                raise GraphError(f"cannot insert ({u}, {v}): edge already present")
        if dels.size:
            present = self.has_edges(dels[:, 0], dels[:, 1])
            if not np.all(present):
                u, v = (int(x) for x in dels[~present][0])
                raise GraphError(f"cannot delete ({u}, {v}): no such edge")
        for u, v in dels:
            self._apply_one(int(u), int(v), True)
        for u, v in ins:
            self._apply_one(int(u), int(v), False)
        self._rebuild_delta_keys()
        self._mat = None
        self._edge_keys = None
        self._edge_tri = None
        self.version += 1
        return self.version

    def _apply_one(self, u: int, v: int, is_delete: bool) -> None:
        if self._log_len == self._log_u.size:
            cap = self._log_u.size * 2
            for name in ("_log_u", "_log_v", "_log_del"):
                old = getattr(self, name)
                grown = np.zeros(cap, dtype=old.dtype)
                grown[: old.size] = old
                setattr(self, name, grown)
        i = self._log_len
        self._log_u[i] = u
        self._log_v[i] = v
        self._log_del[i] = is_delete
        self._log_len = i + 1
        for a, b in ((u, v), (v, u)):
            flip = self._flipped.get(a)
            if flip is None:
                flip = self._flipped[a] = set()
            if b in flip:  # cancels a prior logged op on this edge
                flip.discard(b)
                if not flip:
                    del self._flipped[a]
            else:
                flip.add(b)
            self._row_cache.pop(a, None)
            self._nset_cache.pop(a, None)
        step = -1 if is_delete else 1
        self._degrees[u] += step
        self._degrees[v] += step
        self._num_edges += step

    def _rebuild_delta_keys(self) -> None:
        if not self._flipped:
            self._dkeys = _EMPTY_I64
            self._dalive = _EMPTY_BOOL
            return
        us: List[int] = []
        vs: List[int] = []
        for a, nbrs in self._flipped.items():
            us.extend([a] * len(nbrs))
            vs.extend(nbrs)
        ua = np.asarray(us, dtype=np.int64)
        va = np.asarray(vs, dtype=np.int64)
        keys = ua * (self.base.num_nodes + 1) + va
        order = np.argsort(keys)  # keys are unique
        self._dkeys = keys[order]
        # A flipped edge absent from the base is a live insert; one present
        # in the base is a (dead) delete.
        self._dalive = ~self.base.has_edges(ua[order], va[order])

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> CSRGraph:
        """Merge the log into a fresh immutable :class:`CSRGraph`.

        The result is bit-identical (``indptr``/``indices``) to a
        from-scratch :meth:`CSRGraph.from_edges` rebuild over the live
        edge set.  The overlay rebases onto it — empty log, caches
        cleared — and ``version`` increments.  Compacting a clean
        overlay (no operations logged since the last compaction) is a
        no-op that returns the current base unchanged.
        """
        if self._log_len == 0:
            return self.base
        fresh = CSRGraph.from_edges(self._live_pairs(), num_nodes=self.base.num_nodes)
        self.base = fresh
        self._degrees = fresh.degrees_array.copy()
        self._num_edges = fresh.num_edges
        self._nset_cache = {}
        self._edge_keys = None
        self._edge_tri = None
        self._log_u = np.empty(_LOG_INITIAL_CAPACITY, dtype=np.int32)
        self._log_v = np.empty(_LOG_INITIAL_CAPACITY, dtype=np.int32)
        self._log_del = np.zeros(_LOG_INITIAL_CAPACITY, dtype=bool)
        self._log_len = 0
        self._flipped = {}
        self._row_cache = {}
        self._dkeys = _EMPTY_I64
        self._dalive = _EMPTY_BOOL
        self._mat = (fresh.indptr, fresh.indices)
        self.version += 1
        return fresh

    def _flipped_canonical(self) -> np.ndarray:
        """Flipped edges as sorted canonical ``u < v`` rows."""
        pairs = [
            (a, b)
            for a, nbrs in self._flipped.items()
            for b in nbrs
            if a < b
        ]
        if not pairs:
            return np.empty((0, 2), dtype=np.int64)
        arr = np.asarray(sorted(pairs), dtype=np.int64)
        return arr

    def _live_pairs(self) -> np.ndarray:
        """Current live edge set as canonical ``u < v`` rows."""
        base = self.base
        n = base.num_nodes
        src = np.repeat(np.arange(n, dtype=np.int64), base.degrees_array)
        dst = base.indices
        fwd = src < dst
        src, dst = src[fwd], dst[fwd]
        flipped = self._flipped_canonical()
        if flipped.size == 0:
            return np.stack([src, dst], axis=1)
        alive = ~base.has_edges(flipped[:, 0], flipped[:, 1])
        inserted = flipped[alive]
        deleted = flipped[~alive]
        if deleted.size:
            stride = n + 1
            dead_keys = deleted[:, 0] * stride + deleted[:, 1]  # sorted rows
            keep = ~np.isin(src * stride + dst, dead_keys, assume_unique=False)
            src, dst = src[keep], dst[keep]
        return np.concatenate([np.stack([src, dst], axis=1), inserted], axis=0)

    # ------------------------------------------------------------------
    # Merged-view accessors
    # ------------------------------------------------------------------
    def _merged(self) -> Tuple[np.ndarray, np.ndarray]:
        mat = self._mat
        if mat is None:
            if not self._flipped:
                mat = (self.base.indptr, self.base.indices)
            else:
                snap = CSRGraph.from_edges(
                    self._live_pairs(), num_nodes=self.base.num_nodes
                )
                mat = (snap.indptr, snap.indices)
            self._mat = mat
        return mat

    @property
    def indptr(self) -> np.ndarray:  # type: ignore[override]
        """Merged-view CSR row pointers (lazily materialized per version)."""
        return self._merged()[0]

    @property
    def indices(self) -> np.ndarray:  # type: ignore[override]
        """Merged-view CSR neighbor ids (lazily materialized per version)."""
        return self._merged()[1]

    @property
    def num_nodes(self) -> int:  # type: ignore[override]
        """Fixed node count (from the base; node churn is out of scope)."""
        return self.base.num_nodes

    @property
    def delta_edges(self) -> int:
        """Operations logged since the last compaction."""
        return self._log_len

    @property
    def log(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The append-only log as ``(u, v, deleted)`` read-only views."""
        out = (
            self._log_u[: self._log_len],
            self._log_v[: self._log_len],
            self._log_del[: self._log_len],
        )
        for arr in out:
            arr.flags.writeable = False
        return out

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted merged neighbor row of ``v`` (cached for touched rows)."""
        flip = self._flipped.get(v)
        if not flip:
            return self.base.neighbors(v)
        row = self._row_cache.get(v)
        if row is None:
            base_row = self.base.neighbors(v)
            flip_arr = np.fromiter(flip, dtype=np.int64, count=len(flip))
            kept = base_row[~np.isin(base_row, flip_arr)]
            added = flip_arr[~np.isin(flip_arr, base_row)]
            row = np.sort(np.concatenate([kept, added]))
            row.flags.writeable = False
            self._row_cache[v] = row
        return row

    def has_edge(self, u: int, v: int) -> bool:
        """Adjacency test on the merged view (base answer, flip-patched)."""
        flip = self._flipped.get(u)
        if flip is not None and v in flip:
            return not self.base.has_edge(u, v)
        return self.base.has_edge(u, v)

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized merged-view adjacency: base answers, delta-patched.

        One extra ``searchsorted`` over the (tiny) sorted delta-key array
        patches exactly the probes that hit a flipped edge — O(delta)
        extra work per batch, independent of graph size.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        out = self.base.has_edges(us, vs)
        dkeys = self._dkeys
        if dkeys.size:
            probes = us * (self.base.num_nodes + 1) + vs
            pos = np.searchsorted(dkeys, probes)
            pos[pos == dkeys.size] = 0  # safe gather; mask handles validity
            hit = dkeys[pos] == probes
            if np.any(hit):
                out = out.copy() if not out.flags.writeable else out
                out[hit] = self._dalive[pos[hit]]
        return out

    def edges(self):
        """Iterate live edges as ``(u, v)`` with ``u < v``, sorted."""
        if not self._flipped:
            yield from self.base.edges()
            return
        pairs = self._live_pairs()
        for u, v in pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]:
            yield (int(u), int(v))

    def to_graph(self) -> Graph:
        """Materialize the merged view into the list backend."""
        return Graph(self.num_nodes, [(int(u), int(v)) for u, v in self._live_pairs()])

    def copy(self) -> CSRGraph:
        """Immutable :class:`CSRGraph` snapshot of the current merged view."""
        merged = self._merged()
        return CSRGraph(merged[0].copy(), merged[1].copy())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaCSRGraph(num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges}, version={self.version}, "
            f"pending={self._log_len})"
        )
