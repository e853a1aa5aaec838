"""Fused blocked step kernel for G(3) and G(4): closed-form swap counts.

The generic :meth:`~repro.relgraph.vectorized.VectorSubgraphSpace.frontier`
materializes every chain's full swap-candidate frontier — a ragged gather
of ``d (d - 1) B`` CSR rows plus a stable argsort — on *every* transition,
even though sampling only ever reads one segment of it.  For d = 3 and
d = 4 the per-segment candidate counts have a closed form, so the
frontier never needs to exist.

**d = 3.**  Drop a node ``o`` from the sorted state ``(s0, s1, s2)`` and
call the remaining pair ``(x, y)``:

* if ``x ~ y`` the valid swap-ins are ``N(x) ∪ N(y)`` minus the state
  nodes:  ``count = deg(x) + deg(y) - |N(x) ∩ N(y)| - 2 - [o ~ x or o ~ y]``
  (``x`` and ``y`` always sit in each other's neighborhoods);
* if ``x !~ y`` they are ``N(x) ∩ N(y)`` minus the state nodes:
  ``count = |N(x) ∩ N(y)| - [o ~ x and o ~ y]``.

**d = 4.**  Dropping ``o`` leaves a remainder triple ``(a, b, c)``.  A
node ``w`` whose neighbors among the triple are exactly ``S ⊆ {a, b, c}``
is a valid swap-in iff ``S`` touches every connected component of the
remainder — the same labeled-pattern lookup
(:func:`~repro.relgraph.vectorized._validity_table`) the generic
frontier applies per candidate.  The number ``E[S]`` of such nodes is
the Möbius inversion of the intersection sizes ``I[T] = |∩_{t∈T} N(t)|``
(``E[S] = Σ_{T ⊇ S} (-1)^{|T|-|S|} I[T]``), so::

    count = Σ_S valid[S] · E[S] - Σ_{x ∈ state} valid[S(x)]

where the last sum removes the four state nodes (``S(x)`` is read off
the state's induced edge mask).  Both sums fold into per-pattern tables:
``count = Σ_T coef[pattern, T] · I[T] - corr[pattern]``.  ``I`` needs
the three degrees, the pair intersections of the state's six node pairs
and, only where all three pairwise intersections of a triple are
positive, the triple intersection (probe the smallest row into the
other two).

**Intersections.**  ``|N(x) ∩ N(y)|`` for *adjacent* pairs is the
per-edge triangle count — a table built once per graph version and
cached on the graph (:meth:`~repro.graphs.csr.CSRGraph.edge_triangles`,
shared by every engine over it) and indexed by the position of the
directed edge in the CSR layout.  The same ``searchsorted`` that finds
that position also answers the adjacency probe (position hits an equal
key iff the edge exists), so one batched binary search per transition
yields the induced-edge mask *and* every adjacent-pair cap.  Non-adjacent
pairs are rare per state — exactly the pairs the mask marks — and only
those lanes pay a probe of the smaller row.

Candidates are materialized solely for each lane's *chosen* segment (and,
for NB-SRW, the reverse-move segment that sets the excluded rank), in the
same canonical order as the generic frontier — swap-out position
ascending, then swap-in node id ascending — so a fixed seed yields
bit-identical trajectories: the kernel consumes exactly one uniform per
chain per transition, like :meth:`VectorSubgraphSpace.propose`.

With the ``csr-jit`` backend (:func:`repro.graphs.as_backend`) and numba
installed, the d = 3 innermost ragged-gather/dedup loops — triangle-count
build, segment counting/ranking and segment selection — run as compiled
two-pointer merges over the CSR arrays (:mod:`repro.relgraph.jitkernels`)
instead of the NumPy sort pipeline, with identical outputs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .spaces import WalkSpaceError
from .vectorized import _pair_order, _validity_table

#: NumPy triangle-table builds beyond this many adjacency probes
#: (``sum(min(deg u, deg v))`` over undirected edges) are skipped: the
#: engine keeps the generic unfused frontier path rather than stalling
#: start-up.  The jit build streams two-pointer merges and ignores the
#: cap, and a table the graph already caches is reused whatever its size.
MAX_TRI_PROBES = 50_000_000

# Largest adjacency bitmap worth carrying: 2**23 uint32 words = 32 MiB,
# i.e. graphs up to ~16k nodes get O(1) membership probes.
MAX_BITMAP_WORDS = 1 << 23

# Remainder-pair layout per swap-out position j of a sorted (s0, s1, s2):
# j drops states[:, j]; the pair is (states[:, _XI[j]], states[:, _YI[j]])
# and its adjacency is mask bit _ADJ[j] of the (e01, e02, e12) edge mask.
_XI = np.array([1, 0, 0])
_YI = np.array([2, 2, 1])
_ADJ = np.array([2, 1, 0])

# d = 4: the six state pairs in induced-mask bit order, the remainder
# positions of each swap-out j, and the pair ids inside each remainder
# triple ((a, b), (a, c), (b, c)).
_PAIRS4 = _pair_order(4)
_PI4 = np.array([i for i, _ in _PAIRS4])
_PJ4 = np.array([j for _, j in _PAIRS4])
_BITS4 = np.int64(1) << np.arange(len(_PAIRS4), dtype=np.int64)
_R4 = np.array([[p for p in range(4) if p != j] for j in range(4)])
_TP4 = np.array(
    [[_PAIRS4.index((r[0], r[1])), _PAIRS4.index((r[0], r[2])),
      _PAIRS4.index((r[1], r[2]))] for r in _R4.tolist()]
)
_J4 = np.arange(4, dtype=np.int64)


@lru_cache(maxsize=None)
def _validity_bytes4() -> np.ndarray:
    """:func:`_validity_table` for d = 4 as one byte per pattern
    ``mask * 4 + j``: bit ``S`` is set iff remainder bitmap ``S`` is a
    valid swap-in."""
    valid = _validity_table(4).reshape(-1, 8).astype(np.uint8)
    return (valid << np.arange(8, dtype=np.uint8)).sum(axis=1).astype(np.uint8)


@lru_cache(maxsize=None)
def _count_tables4() -> Tuple[np.ndarray, np.ndarray]:
    """Per-pattern G(4) counting tables ``(coef, corr)``.

    A pattern is ``mask * 4 + j`` (induced edge mask, swap-out
    position).  ``coef[pattern, T]`` weighs the intersection size
    ``I[T]`` of the remainder subset ``T`` (bit ``t`` = ``t``-th
    remainder node): the validity-weighted Möbius inversion
    ``Σ_{S ⊆ T} (-1)^{|T|-|S|} valid[S]``.  ``corr[pattern]`` counts
    the state nodes that those terms admit as candidates.
    """
    valid = _validity_table(4).reshape(-1, 8).astype(np.int64)
    mobius = np.zeros((8, 8), dtype=np.int64)
    for t in range(1, 8):
        for sub in range(1, 8):
            if sub & ~t == 0:
                mobius[t, sub] = (-1) ** (bin(t).count("1") - bin(sub).count("1"))
    coef = valid @ mobius.T
    corr = np.zeros(valid.shape[0], dtype=np.int64)
    for mask in range(1 << len(_PAIRS4)):
        adj = np.zeros((4, 4), dtype=bool)
        for bit, (i, j) in enumerate(_PAIRS4):
            adj[i, j] = adj[j, i] = bool(mask >> bit & 1)
        for j in range(4):
            for x in range(4):
                bitmap = sum(1 << t for t, q in enumerate(_R4[j]) if adj[x, q])
                corr[mask * 4 + j] += valid[mask * 4 + j, bitmap]
    return coef, corr


class FusedKernel:
    """Closed-form G(d) transition kernel (d ∈ {3, 4}) over one CSR substrate.

    Owned by the :class:`~repro.walks.batched.BatchedWalkEngine`; the
    tables it reads — directed-edge keys and the per-edge triangle
    table — are cached on the graph itself
    (:meth:`~repro.graphs.csr.CSRGraph.edge_keys`,
    :meth:`~repro.graphs.csr.CSRGraph.edge_triangles`), so engines over
    one graph share them.  The kernel re-reads them whenever the
    graph's ``version`` changes, which keeps
    :class:`~repro.graphs.delta.DeltaCSRGraph` overlays correct.

    ``jit`` is the :mod:`repro.relgraph.jitkernels` module when the
    graph rides the ``csr-jit`` backend and numba is importable, else
    ``None`` (the NumPy sort pipeline).  The compiled loops cover d = 3
    only; d = 4 always runs the NumPy pipeline.
    """

    def __init__(self, csr, d: int = 3, jit=None) -> None:
        if d not in (3, 4):
            raise ValueError(f"the fused kernel covers d = 3 and d = 4, got {d}")
        self.csr = csr
        self.d = d
        self.jit = jit if d == 3 else None
        self._version: Optional[int] = None
        self._usable = False
        self._indptr: Optional[np.ndarray] = None
        self._indices: Optional[np.ndarray] = None
        self._cand_dtype = np.int64
        self._degs: Optional[np.ndarray] = None
        self._keys: Optional[np.ndarray] = None
        self._tri: Optional[np.ndarray] = None
        self._stride = np.int64(0)
        self._shift = 0
        self._mask = 0
        self._iota_buf: Optional[np.ndarray] = None
        self._lane_cache: dict = {}
        self._bits: Optional[np.ndarray] = None
        self._bitword: Optional[np.ndarray] = None
        self._bitsel: Optional[np.ndarray] = None
        self._bitw = 0

    # ------------------------------------------------------------------
    # Lazily (re)built per-graph-version tables
    # ------------------------------------------------------------------
    def ready(self) -> bool:
        """Whether the kernel can serve the graph's current version."""
        version = getattr(self.csr, "version", 0)
        if version != self._version:
            self._build(version)
        return self._usable

    def _build(self, version: int) -> None:
        csr = self.csr
        indptr = np.ascontiguousarray(csr.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(csr.indices, dtype=np.int64)
        degs = np.diff(indptr)
        n = indptr.size - 1
        self._version = version
        self._usable = False
        if indices.size == 0:
            return
        if self.jit is None and csr._edge_tri is None:
            probes = int(np.minimum(np.repeat(degs, degs), degs[indices]).sum()) // 2
            if probes > MAX_TRI_PROBES:
                return  # unfused fallback beats a minutes-long build
        self._indptr = indptr
        self._indices = indices
        self._degs = degs
        self._stride = np.int64(n + 1)
        # Lane-composite keys use a power-of-2 node stride so lane/value
        # split is a shift+mask instead of an integer division.
        self._shift = max(int(n - 1).bit_length(), 1)
        self._mask = (1 << self._shift) - 1
        # Both probe tables carry a trailing sentinel slot (+inf key, 0
        # triangles): searchsorted can never return an out-of-range
        # position, dropping the per-transition clamp passes.
        self._keys = csr.edge_keys()
        # Slim dtype on the candidate-gather hot path: node ids fit int32
        # on every real graph; the composite sort keys stay int64.
        if n < 2**31:
            self._cand_indices = indices.astype(np.int32)
            self._cand_dtype = np.int32
        else:  # pragma: no cover - needs a >2B-node graph
            self._cand_indices = indices
            self._cand_dtype = np.int64
        # Adjacency bitmap (memory-gated): O(1) membership replaces the
        # binary search on the intersection hot path.  One row-major
        # uint32 word block per node; per-edge word index and bit mask
        # are precomputed so a probe is a single gather + AND.
        self._bits = None
        words = (n + 31) >> 5
        if n * words <= MAX_BITMAP_WORDS:
            rows = np.repeat(np.arange(n, dtype=np.int64), degs)
            sel = np.uint32(1) << (indices & 31).astype(np.uint32)
            word = rows * words + (indices >> 5)
            bits = np.zeros(n * words, dtype=np.uint32)
            starts = np.flatnonzero(np.r_[True, word[1:] != word[:-1]])
            bits[word[starts]] = np.bitwise_or.reduceat(sel, starts)
            self._bits = bits
            self._bitw = words
            self._bitword = indices >> 5
            self._bitsel = sel
        if self.jit is not None:
            self._tri = np.concatenate([self.jit.tri_counts(indptr, indices), [0]])
        else:
            # One census, every consumer: the graph caches the exact-triads
            # kernel's table, so later engines over it skip the build.
            self._tri = csr.edge_triangles()
        self._lane_cache = {}
        self._usable = True

    # ------------------------------------------------------------------
    # Per-segment candidate machinery (NumPy path)
    # ------------------------------------------------------------------
    def _iota(self, n: int) -> np.ndarray:
        """Cached ``arange(n)`` prefix (every gather re-derives one)."""
        buf = self._iota_buf
        if buf is None or buf.size < n:
            grow = 0 if buf is None else 2 * buf.size
            buf = np.arange(max(n, grow, 1024), dtype=np.int64)
            self._iota_buf = buf
        return buf[:n]

    def _segment_candidates(
        self,
        x: np.ndarray,
        y: np.ndarray,
        excl: np.ndarray,
        inter: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Valid swap-in candidates of one ``(x, y)`` segment per lane.

        ``excl`` is the ``(m, 3)`` state rows (state nodes are never
        candidates); ``inter`` marks lanes whose pair is non-adjacent
        (candidates = the intersection rather than the union).  Returns
        ``(kept, counts, offsets)``: ``kept`` holds the surviving
        *composite keys* ascending within each lane — the canonical
        order — and callers unpack values (``key & mask``) only for the
        elements they actually touch, which keeps the rank-``r``
        selection path free of full-width extraction passes.

        One composite sort does all the work: keys are
        ``(lane << 1 | inter) << shift | node`` — int32 when the top
        lane fits — so the post-sort passes are pure shift/mask ops with
        no per-element gathers.  State-node exclusions are applied
        *before* the sort by rewriting their keys to the dtype's max
        sentinel (strictly above every valid key), which parks them in a
        tail slice that is simply cut off.
        """
        m = x.size
        shift = self._shift
        nodes = np.empty(2 * m, dtype=np.int64)
        nodes[0::2] = x
        nodes[1::2] = y
        sizes = self._degs[nodes]
        csum = np.cumsum(sizes)
        total = int(csum[-1])
        adj = csum - sizes - self._indptr[nodes]
        offs = self._iota(total) - np.repeat(adj, sizes)
        vals = self._cand_indices[offs]
        slim = self._cand_dtype is np.int32 and (m << (shift + 1)) < 2**31
        kdt = np.int32 if slim else np.int64
        pre = self._lane_cache.get((m, slim))
        if pre is None:
            lane2 = np.arange(m, dtype=kdt) << 1
            heads = np.arange(m + 1, dtype=kdt) << (shift + 1)
            sent = kdt(np.iinfo(kdt).max)
            self._lane_cache[(m, slim)] = pre = (lane2, heads, sent)
        lane2, heads, sent = pre
        lane_sizes = sizes.reshape(m, 2).sum(axis=1)
        lane_flag = lane2 | inter.astype(kdt)
        key = np.repeat(lane_flag << shift, lane_sizes)
        key |= vals.astype(kdt, copy=False)
        # State-node exclusion by direct probe: a state value occurs at
        # most once per CSR row, so six tiny binary searches per lane
        # (3 excluded values x 2 rows) locate every excluded slot — no
        # full-width compare passes over the gathered candidates.
        probes = (nodes[:, None] * self._stride + np.repeat(excl, 2, axis=0)).ravel()
        pos = np.searchsorted(self._keys, probes)
        hit = self._keys[pos] == probes
        ndrop = int(np.count_nonzero(hit))
        if ndrop:
            key[(pos + np.repeat(adj, 3))[hit]] = sent
        key.sort()
        if ndrop:
            key = key[: key.size - ndrop]
        run = np.empty(key.size, dtype=bool)
        if key.size:
            run[0] = True
            np.not_equal(key[1:], key[:-1], out=run[1:])
        # Union lanes keep each distinct value (run heads); intersection
        # lanes keep values both rows contain (the duplicate positions —
        # CSR rows are distinct, so a key repeats at most twice): that is
        # ``run XOR inter``.
        keep = run ^ ((key & (kdt(1) << shift)) != 0)
        kept = key[keep]
        # ``kept`` stays lane-ascending, so per-lane extents fall out of
        # m binary searches against the lane boundary keys instead of a
        # full-array bincount (or materializing a lane column at all).
        bounds = np.searchsorted(kept, heads)
        counts = np.diff(bounds)
        offsets = bounds[:-1]
        return kept, counts, offsets

    def _gather_rows(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """CSR positions of the concatenated rows of ``nodes``, as
        ``(offs, sizes)``."""
        sizes = self._degs[nodes]
        csum = np.cumsum(sizes)
        total = int(csum[-1]) if csum.size else 0
        offs = self._iota(total) + np.repeat(self._indptr[nodes] - (csum - sizes), sizes)
        return offs, sizes

    def _member(self, rows: np.ndarray, offs: np.ndarray) -> np.ndarray:
        """``indices[offs[i]] ∈ N(rows[i])``: a bitmap gather when the
        graph is small enough, else a batched binary search against the
        directed-edge keys."""
        if self._bits is not None:
            word = self._bits[rows * self._bitw + self._bitword[offs]]
            return (word & self._bitsel[offs]) != 0
        probe = rows * self._stride + self._indices[offs]
        return self._keys[np.searchsorted(self._keys, probe)] == probe

    def _isect_count(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``|N(x) ∩ N(y)|`` per lane for *non-adjacent* pairs: probe the
        smaller row's neighbors against the larger row instead of
        materializing both rows."""
        swap = self._degs[y] < self._degs[x]
        a = np.where(swap, y, x)
        b = np.where(swap, x, y)
        offs, sizes = self._gather_rows(a)
        hits = self._member(np.repeat(b, sizes), offs)
        lane_of = np.repeat(self._iota(x.size), sizes)
        return np.bincount(lane_of[hits], minlength=x.size)

    def _isect3_count(self, trip: np.ndarray) -> np.ndarray:
        """``|N(a) ∩ N(b) ∩ N(c)|`` per row of the ``(m, 3)`` ``trip``:
        the smallest row's neighbors are probed into the second row, and
        only the survivors into the third."""
        order = np.argsort(self._degs[trip], axis=1, kind="stable")
        trip = np.take_along_axis(trip, order, axis=1)
        offs, sizes = self._gather_rows(trip[:, 0])
        lane_of = np.repeat(self._iota(trip.shape[0]), sizes)
        hits = self._member(trip[lane_of, 1], offs)
        offs, lane_of = offs[hits], lane_of[hits]
        hits = self._member(trip[lane_of, 2], offs)
        return np.bincount(lane_of[hits], minlength=trip.shape[0])

    def _segment_count(self, x, y, excl, inter) -> np.ndarray:
        """Valid-candidate count of one segment per lane."""
        if x.size == 0:
            return np.zeros(0, dtype=np.int64)
        if self.jit is not None:
            bound = np.full(x.size, self.csr.num_nodes, dtype=np.int64)
            return self.jit.segment_rank(
                self._indptr, self._indices, x, y,
                excl[:, 0], excl[:, 1], excl[:, 2], bound, inter,
            )
        return self._segment_candidates(x, y, excl, inter)[1]

    def _segment_rank(self, x, y, excl, bound, inter) -> np.ndarray:
        """Per lane: how many valid candidates of the segment precede
        ``bound`` in the canonical (ascending id) order."""
        if self.jit is not None:
            return self.jit.segment_rank(
                self._indptr, self._indices, x, y,
                excl[:, 0], excl[:, 1], excl[:, 2], bound, inter,
            )
        kept, _, _ = self._segment_candidates(x, y, excl, inter)
        lanes = kept >> (self._shift + 1)
        values = kept & kept.dtype.type(self._mask)
        below = values < bound[lanes]
        return np.bincount(lanes[below], minlength=x.size)

    def _segment_select(self, x, y, excl, within, inter) -> np.ndarray:
        """The ``within``-th valid candidate of the segment, per lane."""
        if self.jit is not None:
            return self.jit.segment_select(
                self._indptr, self._indices, x, y,
                excl[:, 0], excl[:, 1], excl[:, 2], within, inter,
            )
        kept, _, offsets = self._segment_candidates(x, y, excl, inter)
        # Only the chosen element per lane is unpacked from its key.
        return (kept[offsets + within] & kept.dtype.type(self._mask)).astype(np.int64)

    def _segment4(self, rem: np.ndarray, pat: np.ndarray, excl: np.ndarray):
        """Valid swap-in candidates of one G(4) segment per lane.

        ``rem`` is the ``(m, 3)`` remainder triple, ``pat`` the lane's
        ``mask * 4 + j`` pattern and ``excl`` the ``(m, 4)`` state rows.
        The three CSR rows are gathered under composite keys
        ``(lane << shift | node) << 3 | 1 << row`` and sorted once: a run
        of equal ``key >> 3`` is one candidate, the OR of its (at most
        three) one-hot row tags is its remainder bitmap, and the lane's
        validity byte filters the runs.  State nodes are parked on a max
        sentinel before the sort (a state value occurs at most once per
        row, so twelve key probes per lane find every one) and cut off
        the tail.  Returns ``(kept, offsets)``: the surviving
        ``lane << shift | node`` keys, ascending — the canonical order —
        and each lane's first slot.
        """
        m = rem.shape[0]
        shift = self._shift
        nodes = rem.reshape(-1)
        sizes = self._degs[nodes]
        csum = np.cumsum(sizes)
        adj = csum - sizes - self._indptr[nodes]
        offs = self._iota(int(csum[-1])) - np.repeat(adj, sizes)
        slim = self._cand_dtype is np.int32 and (m << (shift + 3)) < 2**31
        kdt = np.int32 if slim else np.int64
        pre = self._lane_cache.get((m, slim, 4))
        if pre is None:
            row_tag = (np.repeat(np.arange(m, dtype=kdt), 3) << (shift + 3)) | np.tile(
                np.array([1, 2, 4], dtype=kdt), m
            )
            heads = np.arange(m, dtype=kdt) << shift
            sent = kdt(np.iinfo(kdt).max)
            self._lane_cache[(m, slim, 4)] = pre = (row_tag, heads, sent)
        row_tag, heads, sent = pre
        key = np.repeat(row_tag, sizes)
        vals = self._cand_indices[offs].astype(kdt, copy=False)
        vals <<= 3
        key |= vals
        probes = (nodes[:, None] * self._stride + np.repeat(excl, 3, axis=0)).ravel()
        pos = np.searchsorted(self._keys, probes)
        hit = self._keys[pos] == probes
        ndrop = int(np.count_nonzero(hit))
        if ndrop:
            key[(pos + np.repeat(adj, 4))[hit]] = sent
        key.sort()
        if ndrop:
            key = key[: key.size - ndrop]
        cand = key >> 3
        tag = (key & 7).astype(np.uint8)
        # Rows are distinct and a run sorts by row, so OR-ing the next
        # two tags where they continue the run builds the run's bitmap
        # at its head (a reduceat costs several times more).
        same = cand[1:] == cand[:-1]
        bitmap = tag.copy()
        bitmap[:-1] |= tag[1:] * same
        bitmap[:-2] |= tag[2:] * (same[:-1] & same[1:])
        keep = np.empty(cand.size, dtype=bool)
        keep[:1] = True
        np.logical_not(same, out=keep[1:])
        valid = _validity_bytes4()[pat][cand >> shift] >> bitmap
        keep &= (valid & 1).astype(bool)
        kept = cand[keep]
        return kept, np.searchsorted(kept, heads)

    # ------------------------------------------------------------------
    # Transition kernel
    # ------------------------------------------------------------------
    def _counts(self, states: np.ndarray):
        """Closed-form per-swap-position candidate counts.

        Returns ``(counts (n, d), aux)``; ``aux`` is what segment
        materialization needs besides the states (the ``(e01, e02,
        e12)`` edge mask for d = 3, the ``(n, 4)`` patterns for d = 4).
        """
        return self._counts3(states) if self.d == 3 else self._counts4(states)

    def _counts3(self, states: np.ndarray):
        """d = 3 counts and the ``(n, 3)`` edge mask.

        One ``searchsorted`` against the directed-edge key table answers
        both the three induced-adjacency probes and the adjacent-pair
        triangle caps.
        """
        keys, tri, stride = self._keys, self._tri, self._stride
        pair_keys = states[:, [0, 0, 1]] * stride + states[:, [1, 2, 2]]
        pos = np.searchsorted(keys, pair_keys)
        e = keys[pos] == pair_keys  # (n, 3): e01, e02, e12
        dg = self._degs[states]
        # Swap-out j leaves pair (x, y) = columns (_XI[j], _YI[j]); its
        # adjacency and triangle cap sit at mask/probe column _ADJ[j].
        adj = e[:, _ADJ]
        cap = tri[pos][:, _ADJ]
        # Dropped-node adjacency to the remaining pair, per j.
        ox = e[:, [0, 0, 1]]
        oy = e[:, [1, 2, 2]]
        counts = dg[:, _XI] + dg[:, _YI] - cap - 2 - (ox | oy)
        lanes, js = np.nonzero(~adj)
        if lanes.size:
            x = states[lanes, _XI[js]]
            y = states[lanes, _YI[js]]
            if self.jit is not None:
                counts[lanes, js] = self._segment_count(
                    x, y, states[lanes], np.ones(lanes.size, dtype=bool)
                )
            else:
                # x, y, and the dropped node are the only state nodes the
                # intersection could contain, and only the dropped node
                # actually can (x !~ y keeps them out of each other's
                # rows) — it is in iff it neighbors both.
                counts[lanes, js] = self._isect_count(x, y) - (
                    (ox & oy)[lanes, js]
                )
        return counts, e

    def _counts4(self, states: np.ndarray):
        """d = 4 counts and the ``(n, 4)`` patterns ``mask * 4 + j``.

        One ``searchsorted`` over the six state pairs yields the induced
        edge mask and every adjacent pair's intersection (its triangle
        count); non-adjacent pairs and the needed triple intersections
        are probed.  The per-pattern tables of :func:`_count_tables4`
        turn the intersections into exact candidate counts.
        """
        coef_table, corr = _count_tables4()
        n = states.shape[0]
        keys, stride = self._keys, self._stride
        pair_keys = states[:, _PI4] * stride + states[:, _PJ4]
        pos = np.searchsorted(keys, pair_keys)
        e = keys[pos] == pair_keys
        pat = ((e @ _BITS4)[:, None] << 2) | _J4
        inter = self._tri[pos]
        lanes, ps = np.nonzero(~e)
        if lanes.size:
            inter[lanes, ps] = self._isect_count(
                states[lanes, _PI4[ps]], states[lanes, _PJ4[ps]]
            )
        # I[T] per swap-out j, indexed by remainder subset T.
        isz = np.zeros((n, 4, 8), dtype=np.int64)
        dg = self._degs[states]
        pairs = inter[:, _TP4]
        isz[:, :, 1] = dg[:, _R4[:, 0]]
        isz[:, :, 2] = dg[:, _R4[:, 1]]
        isz[:, :, 4] = dg[:, _R4[:, 2]]
        isz[:, :, 3] = pairs[:, :, 0]
        isz[:, :, 5] = pairs[:, :, 1]
        isz[:, :, 6] = pairs[:, :, 2]
        coef = coef_table[pat]
        lanes, js = np.nonzero((pairs > 0).all(axis=2) & (coef[:, :, 7] != 0))
        if lanes.size:
            isz[lanes, js, 7] = self._isect3_count(states[lanes[:, None], _R4[js]])
        counts = (isz * coef).sum(axis=2) - corr[pat]
        return counts, pat

    def _select(self, states, aux, out_j, within) -> np.ndarray:
        """The ``within``-th valid candidate of segment ``out_j``, per lane."""
        rows = self._iota(states.shape[0])
        if self.d == 3:
            x = states[rows, _XI[out_j]]
            y = states[rows, _YI[out_j]]
            inter = ~aux[rows, _ADJ[out_j]]
            return self._segment_select(x, y, states, within, inter)
        kept, offsets = self._segment4(
            states[rows[:, None], _R4[out_j]], aux[rows, out_j], states
        )
        # Only the chosen element per lane is unpacked from its key.
        return (kept[offsets + within] & kept.dtype.type(self._mask)).astype(np.int64)

    def _rank(self, states, aux, out_j, bound) -> np.ndarray:
        """Per lane: how many valid candidates of segment ``out_j``
        precede ``bound`` in the canonical (ascending id) order."""
        rows = self._iota(states.shape[0])
        if self.d == 3:
            x = states[rows, _XI[out_j]]
            y = states[rows, _YI[out_j]]
            inter = ~aux[rows, _ADJ[out_j]]
            return self._segment_rank(x, y, states, bound, inter)
        kept, offsets = self._segment4(
            states[rows[:, None], _R4[out_j]], aux[rows, out_j], states
        )
        probe = (rows << self._shift) | bound
        return np.searchsorted(kept, probe.astype(kept.dtype)) - offsets

    def _advance(self, states, aux, counts, r, out):
        """Resolve global neighbor ranks ``r`` into next states."""
        n = states.shape[0]
        cum = counts.cumsum(axis=1)
        out_j = (r[:, None] >= cum).sum(axis=1)
        rows = self._iota(n)
        within = r - (cum[rows, out_j] - counts[rows, out_j])
        chosen = self._select(states, aux, out_j, within)
        nxt = out if out is not None else np.empty_like(states)
        np.copyto(nxt, states)
        nxt[rows, out_j] = chosen
        nxt.sort(axis=1)
        return nxt

    def propose(
        self, states: np.ndarray, u: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """One uniform G(d) neighbor per lane from pre-drawn uniforms
        ``u`` — bit-identical to the generic
        :meth:`VectorSubgraphSpace.propose` for the same draws."""
        counts, aux = self._counts(states)
        deg = counts.sum(axis=1)
        if np.any(deg == 0):
            bad = states[np.flatnonzero(deg == 0)[0]]
            raise WalkSpaceError(
                f"state {tuple(int(v) for v in bad)} has no G({self.d}) neighbors"
            )
        r = (u * deg).astype(np.int64)
        np.minimum(r, deg - 1, out=r)
        return self._advance(states, aux, counts, r, out)

    def propose_nb(
        self,
        states: np.ndarray,
        prev: np.ndarray,
        u: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Exact NB draw (rank exclusion of the reverse move), fused.

        Mirrors :meth:`VectorSubgraphSpace.propose_nb` bit for bit: the
        reverse move's global rank comes from the closed-form prefix
        counts plus a rank query on its own segment, and degree-1 lanes
        keep the forced backtrack (``r`` stays 0)."""
        counts, aux = self._counts(states)
        deg = counts.sum(axis=1)
        n = states.shape[0]
        rows = np.arange(n)
        out_jb = (~(states[:, :, None] == prev[:, None, :]).any(axis=2)).argmax(axis=1)
        back = prev[
            rows, (~(prev[:, :, None] == states[:, None, :]).any(axis=2)).argmax(axis=1)
        ]
        cum = counts.cumsum(axis=1)
        prefix = cum[rows, out_jb] - counts[rows, out_jb]
        back_rank = prefix + self._rank(states, aux, out_jb, back)
        r = (u * (deg - 1)).astype(np.int64)
        np.minimum(r, np.maximum(deg - 2, 0), out=r)
        r += (r >= back_rank) & (deg > 1)
        return self._advance(states, aux, counts, r, out)
