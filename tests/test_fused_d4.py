"""The fused G(4) kernel against the generic swap frontier.

:class:`~repro.relgraph.fused.FusedKernel` counts every G(4) swap-out
segment in closed form (inclusion–exclusion over the remainder triple's
neighborhoods) and materializes only the segment a chain draws from.
:meth:`VectorSubgraphSpace.frontier` stays the oracle: on ordinary
graphs (BA, powerlaw-cluster) and hostile ones (a star with pendants, a
barbell with a bridge path, a near-bipartite graph) the fused counts
must equal the frontier's, and fused ``propose``/``propose_nb``
trajectories must match the unfused engine bit for bit at any batch
width — through forced backtracks, mid-block failures and graph
updates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.exact import triads
from repro.graphs import CSRGraph, Graph
from repro.graphs.delta import DeltaCSRGraph
from repro.graphs.generators import (
    barabasi_albert,
    complete_graph,
    path_graph,
    powerlaw_cluster,
)
from repro.relgraph import enumerate_states, fused
from repro.relgraph.spaces import WalkSpaceError
from repro.relgraph.vectorized import vector_space
from repro.walks import BatchedWalkEngine

from test_vectorized_d3 import random_graphs


def star_with_pendants(leaves: int = 6) -> Graph:
    """Hub 0 with leaves 1..L, each leaf carrying one pendant node."""
    edges = [(0, i) for i in range(1, leaves + 1)]
    edges += [(i, leaves + i) for i in range(1, leaves + 1)]
    return Graph(2 * leaves + 1, edges)


def barbell(clique: int = 5, bridge: int = 2) -> Graph:
    """Two K_clique joined by a path of ``bridge`` inner nodes."""
    edges = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
    offset = clique + bridge
    edges += [
        (offset + i, offset + j) for i in range(clique) for j in range(i + 1, clique)
    ]
    chain = [clique - 1] + list(range(clique, clique + bridge)) + [offset]
    edges += list(zip(chain, chain[1:]))
    return Graph(2 * clique + bridge, edges)


def near_bipartite(left: int = 5, right: int = 6) -> Graph:
    """K_{left,right} minus a few cross edges, plus two same-side edges."""
    edges = [
        (i, left + j)
        for i in range(left)
        for j in range(right)
        if (i + 2 * j) % 5 != 0
    ]
    edges += [(0, 1), (left, left + 1)]
    return Graph(left + right, edges)


GRAPHS = {
    "ba": lambda: barabasi_albert(120, 3, seed=4),
    "powerlaw-cluster": lambda: powerlaw_cluster(150, 3, 0.5, seed=7),
    "star-with-pendants": star_with_pendants,
    "barbell": barbell,
    "near-bipartite": near_bipartite,
}


@pytest.fixture(params=sorted(GRAPHS), scope="module")
def csr(request):
    return CSRGraph.from_graph(GRAPHS[request.param]())


def twin_engines(csr, chains, seed, nb=False):
    """A fused G(4) engine and its unfused double on one RNG stream."""
    return tuple(
        BatchedWalkEngine(
            csr, 4, chains, np.random.default_rng(seed),
            non_backtracking=nb, fused=flag,
        )
        for flag in (True, False)
    )


def kernel_counts(csr, states):
    kernel = fused.FusedKernel(csr, 4)
    assert kernel.ready()
    return kernel._counts(np.asarray(states, dtype=np.int64))[0]


def frontier_counts(csr, states):
    return vector_space(4).frontier(
        csr, np.asarray(states, dtype=np.int64), want_candidates=False
    )[0]


class TestCounts:
    def test_counts_equal_the_frontier_on_walked_states(self, csr):
        engine = BatchedWalkEngine(csr, 4, 64, np.random.default_rng(3), fused=False)
        for _ in range(6):
            states = engine.step_block(5).reshape(-1, 4)
            got = kernel_counts(csr, states)
            want = frontier_counts(csr, states)
            assert np.array_equal(got, want)
            assert np.array_equal(got.sum(axis=1), want.sum(axis=1))

    @pytest.mark.parametrize("name", ["star-with-pendants", "barbell", "near-bipartite"])
    def test_counts_equal_the_frontier_on_every_state(self, name):
        graph = GRAPHS[name]()
        csr = CSRGraph.from_graph(graph)
        states = np.array(enumerate_states(graph, 4), dtype=np.int64)
        assert np.array_equal(kernel_counts(csr, states), frontier_counts(csr, states))

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(min_nodes=5, max_nodes=11))
    def test_counts_equal_the_frontier_on_random_graphs(self, graph):
        states = enumerate_states(graph, 4)
        if not states:
            return
        csr = CSRGraph.from_graph(graph)
        assert np.array_equal(kernel_counts(csr, states), frontier_counts(csr, states))


class TestTrajectories:
    @pytest.mark.parametrize("chains", [1, 7, 256])
    @pytest.mark.parametrize("nb", [False, True])
    def test_fused_walk_is_bit_identical_to_the_frontier(self, csr, chains, nb):
        fast, slow = twin_engines(csr, chains, seed=11, nb=nb)
        assert fast._fused is not None and slow._fused is None
        assert np.array_equal(fast.states(), slow.states())
        for block in (1, 6, 13):
            assert np.array_equal(fast.step_block(block), slow.step_block(block))
        assert fast.steps_taken == slow.steps_taken == 20

    def test_single_steps_match_blocks(self, csr):
        fast, slow = twin_engines(csr, 5, seed=2, nb=True)
        for _ in range(8):
            assert np.array_equal(fast.step(), slow.step_block(1)[0])

    def test_degree1_forced_backtrack(self):
        # P5's two G(4) states are each other's only neighbor: plain
        # SRW alternates, and NB-SRW backtracks on every step.
        csr = CSRGraph.from_graph(path_graph(5))
        for nb in (False, True):
            fast, slow = twin_engines(csr, 3, seed=0, nb=nb)
            block = fast.step_block(6)
            assert np.array_equal(block, slow.step_block(6))
            assert np.array_equal(block[0::2], np.broadcast_to(block[0], (3, 3, 4)))
            assert not np.array_equal(block[0], block[1])


class TestFailures:
    def test_stuck_state_raises_like_the_frontier(self):
        # A K4 component's lone G(4) state has no neighbors.
        csr = CSRGraph.from_graph(complete_graph(4))
        engines = twin_engines(csr, 2, seed=1)
        messages = []
        for engine in engines:
            before = engine.states().copy()
            with pytest.raises(WalkSpaceError, match="no G\\(4\\) neighbors") as info:
                engine.step_block(3)
            messages.append(str(info.value))
            assert engine.steps_taken == 0
            assert np.array_equal(engine.states(), before)
        assert messages[0] == messages[1]

    def test_midblock_stuck_state_commits_the_completed_steps(self, monkeypatch):
        csr = CSRGraph.from_graph(GRAPHS["powerlaw-cluster"]())
        fast, slow = twin_engines(csr, 4, seed=5)
        slow.step_block(2)
        kernel = fast._fused
        original = kernel._counts4
        calls = {"n": 0}

        def stuck_on_third(states):
            counts, pat = original(states)
            calls["n"] += 1
            if calls["n"] == 3:
                counts[1] = 0
            return counts, pat

        monkeypatch.setattr(kernel, "_counts4", stuck_on_third)
        with pytest.raises(WalkSpaceError, match="no G\\(4\\) neighbors"):
            fast.step_block(5)
        assert fast.steps_taken == 2
        assert np.array_equal(fast.states(), slow.states())

    def test_over_the_probe_cap_keeps_the_generic_path(self, monkeypatch):
        monkeypatch.setattr(fused, "MAX_TRI_PROBES", 0)
        csr = CSRGraph.from_graph(GRAPHS["ba"]())
        fast, slow = twin_engines(csr, 8, seed=4)
        assert not fast._fused.ready()
        assert np.array_equal(fast.step_block(5), slow.step_block(5))

    def test_d5_stays_on_the_frontier(self):
        csr = CSRGraph.from_graph(GRAPHS["ba"]())
        engine = BatchedWalkEngine(csr, 5, 4, np.random.default_rng(0))
        assert engine._fused is None
        with pytest.raises(ValueError, match="d = 3 and d = 4"):
            fused.FusedKernel(csr, 5)


class TestTables:
    def test_delta_apply_rebuilds_the_tables(self):
        base = CSRGraph.from_graph(GRAPHS["powerlaw-cluster"]())
        delta = DeltaCSRGraph(base)
        fast, slow = twin_engines(delta, 16, seed=8, nb=True)
        assert np.array_equal(fast.step_block(10), slow.step_block(10))
        old_tri = delta.edge_triangles()
        present = set(delta.edges())
        inserts = [
            (u, v) for u in range(0, 40, 3) for v in range(60, 150, 7)
            if (u, v) not in present
        ][:25]
        delta.apply(inserts=inserts, deletes=[])
        assert delta.edge_triangles() is not old_tri
        assert np.array_equal(fast.step_block(10), slow.step_block(10))
        fresh = delta.compact()
        assert np.array_equal(
            delta.edge_triangles()[:-1],
            triads.edge_triangle_counts(fresh.indptr, fresh.indices),
        )
        assert np.array_equal(fast.step_block(10), slow.step_block(10))

    def test_triangle_table_is_built_once_per_graph(self, monkeypatch):
        import repro

        calls = {"n": 0}
        original = triads.edge_triangle_counts

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(triads, "edge_triangle_counts", counting)
        csr = CSRGraph.from_graph(GRAPHS["ba"]())
        assert calls["n"] == 0  # never built at construction
        for method, k in (("srw3", 4), ("srw4", 5), ("srw3", 4)):
            repro.estimate(csr, method, k=k, budget=512, seed=1, backend="csr", chains=8)
        assert calls["n"] == 1

    def test_cached_tables_are_never_saved(self, tmp_path):
        csr = CSRGraph.from_graph(GRAPHS["ba"]())
        csr.edge_triangles()
        csr.save(tmp_path / "g")
        assert sorted(p.name for p in (tmp_path / "g").iterdir()) == [
            "degrees.bin", "header.json", "indices.bin", "indptr.bin",
        ]
        loaded = CSRGraph.load(tmp_path / "g")
        assert loaded._edge_tri is None
        assert np.array_equal(loaded.edge_triangles(), csr.edge_triangles())
