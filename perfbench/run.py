"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload srw3-fused --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer metrics.  The lines before it repeat
them for people, together with ungated diagnostics.  A failed output
check prints ``"correct": false`` and exits 1.  See NOTES.md.
"""

import os

# Single-threaded BLAS/OpenMP, set before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import mmap  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

HERE = Path(__file__).resolve().parent
if not (HERE.parent / "src" / "repro").is_dir():
    sys.exit("perfbench: src/repro not found; run from a checkout of the repository")

import numpy as np  # noqa: E402

import inputs  # noqa: E402  (puts src/ on sys.path)
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro import graphlets  # noqa: E402

#: Set-up is timed this many times per run and reported as the median.
SETUP_REPEATS = 5
#: Warm-up request budget, as a share of a measured request's.
WARMUP_SHARE = 8
#: NRMSE of the target graphlet above which a run's answers count as
#: wrong: about four times what a healthy run measures (NOTES.md).
NRMSE_LIMIT = {"srw3-fused": 0.06, "css-stream": 0.08, "service-serial": 0.10}
OUT_DIR = HERE / "out"


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
class HostReference:
    """Two fixed kernels, timed throughout the run.

    Co-tenants of a shared host slow everything in this process, by up
    to 1.5x for minutes at a time, which would swamp any change under
    test.  Timed end-to-end metrics are therefore scaled to a host on
    which the kernels take :data:`REF_S`.

    The compute kernel mixes the operations the walks spend their user
    time in: sorted-key probes, random gathers from a table larger than
    L2, a sort, a histogram and an interpreter loop.  The fault kernel
    maps, touches and unmaps 8 MiB of fresh pages: the kernel time of
    ``srw4-frontier`` (40% of its CPU time) is page faults on numpy's
    large temporaries, and their cost moves apart from user time.  Both
    are timed in CPU time, like the requests, so time the hypervisor
    steals is in neither.
    """

    #: Compute and fault kernel CPU times on the 2-core Xeon (2.1 GHz)
    #: development host.
    REF_S = (0.015, 0.006)
    FAULT_BYTES = 8 << 20

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._keys = np.sort(rng.integers(0, 1 << 40, 100_000))
        self._probes = rng.integers(0, 1 << 40, 50_000)
        self._table = rng.integers(0, 1 << 30, 1 << 20).astype(np.int32)
        self._index = rng.integers(0, 1 << 20, 200_000)
        self._floats = rng.random(60_000)
        #: One ``(compute_s, fault_s)`` pair per probe.
        self.samples: list = []

    def _compute(self) -> float:
        t0 = process_time()
        np.searchsorted(self._keys, self._probes)
        gathered = self._table[self._index]
        np.sort(self._floats)
        np.bincount(gathered & 4095)
        table: dict = {}
        for i in range(20_000):
            table[i & 1023] = table.get(i & 1023, 0) + i
        return process_time() - t0

    def _fault(self) -> float:
        t0 = process_time()
        region = mmap.mmap(-1, self.FAULT_BYTES)
        pages = np.frombuffer(region, dtype=np.uint8)
        pages[:: mmap.PAGESIZE] = 1
        del pages
        region.close()
        return process_time() - t0

    def probe(self) -> None:
        """Record the median of three timings of each kernel (about 65 ms)."""
        self.samples.append((
            statistics.median(self._compute() for _ in range(3)),
            statistics.median(self._fault() for _ in range(3)),
        ))

    def speed_since(self, first: int = 0):
        """``(compute, fault)`` slowdown factors over the probes from
        number ``first`` on."""
        probes = self.samples[first:]
        return tuple(
            statistics.median(p[j] for p in probes) / self.REF_S[j] for j in (0, 1)
        )

    @staticmethod
    def scale(user_s: float, sys_s: float, speed) -> float:
        """CPU seconds as they would read on the reference host."""
        return user_s / speed[0] + sys_s / speed[1]


def peak_rss_mb(daemon=None) -> float:
    """Peak RSS of this process and, for the service, its largest worker."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in daemon.worker_pids() if daemon is not None else ():
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:  # worker exited meanwhile
            pass
    return peak_kb / 1024.0


def setup(workload, host: HostReference):
    """Graph build + CSR (and ``Daemon.start`` for the service), each
    timed ``SETUP_REPEATS`` times after a host probe.  The build is
    timed in CPU time; ``Daemon.start`` waits for its worker, so it is
    timed in wall time less hypervisor steal.

    Returns ``(csr, daemon, (user_s, sys_s), start_s)``: the build's
    median user and kernel time, and the median start.
    """
    builds, starts = [], []
    csr = daemon = None
    for _ in range(SETUP_REPEATS):
        csr = None  # free the previous build: peak RSS holds one graph
        gc.collect()
        host.probe()
        cpu0 = workloads.cpu_times()
        csr = inputs.build_csr()
        cpu1 = workloads.cpu_times()
        builds.append((cpu1[0] - cpu0[0], cpu1[1] - cpu0[1]))
    gc.collect()
    if workload.service:
        for _ in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.close()
            host.probe()
            t0, steal0 = perf_counter(), workloads.stolen_s()
            daemon = workloads.start_daemon(csr)
            starts.append(perf_counter() - t0 - (workloads.stolen_s() - steal0))
    start_s = statistics.median(starts) if starts else 0.0
    build = tuple(statistics.median(b[j] for b in builds) for j in (0, 1))
    return csr, daemon, build, start_s


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check_estimate(workload, est) -> list:
    problems = []
    if est.steps != workload.budget:
        problems.append(f"steps {est.steps} != budget {workload.budget}")
    conc = np.asarray(est.concentrations, dtype=np.float64)
    if not np.all(np.isfinite(conc)) or np.any(conc < 0):
        problems.append(f"concentrations not finite and non-negative: {conc}")
    elif abs(conc.sum() - 1.0) > 1e-9:
        problems.append(f"concentrations sum to {conc.sum()!r}")
    if workload.checks is not None:
        checks = est.meta.get("stopping", {}).get("checks")
        if checks != workload.checks:
            problems.append(f"{checks} stopping probes, expected {workload.checks}")
    return problems


def same_estimate(a, b) -> bool:
    """Bit-identical sums, stderr and step counts."""
    if a.steps != b.steps or not np.array_equal(a.sums, b.sums):
        return False
    if a.stderr is None or b.stderr is None:
        return a.stderr is None and b.stderr is None
    return np.array_equal(a.stderr, b.stderr, equal_nan=True)


def accuracy(workload, records, truth):
    """``(nrmse, ci_coverage)`` of the target graphlet over ``records``.

    Coverage is the share of (request, type) cells whose truth lies
    within 1.96 stderr; a non-finite stderr covers.  Either is None when
    it does not apply (no truth; single chains carry no stderr).
    """
    if not workload.has_truth or not records:
        return None, None
    exact = truth[workload.k]
    names = [g.name for g in graphlets(workload.k)]
    true = np.array([exact[n] for n in names])
    target = names.index(inputs.TARGET[workload.k])
    est = np.array([r.estimate.concentrations for r in records])
    nrmse = math.sqrt(np.mean((est[:, target] - true[target]) ** 2)) / true[target]
    if any(r.estimate.stderr is None for r in records):
        return nrmse, None
    stderr = np.array([r.estimate.stderr for r in records])
    covered = ~np.isfinite(stderr) | (np.abs(est - true) <= 1.96 * stderr)
    return nrmse, float(covered.mean())


# ----------------------------------------------------------------------
# Per-layer metrics from the traced phase
# ----------------------------------------------------------------------
def _declared(kind: str) -> dict:
    """``{name: unit}`` of one metric list in BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def layer_metrics(tracer) -> dict:
    """Per-request layer numbers from the spans, as medians over requests."""
    rows = []
    for request, cells in tracer.per_request().items():
        if request is None:
            continue

        def get(name, field):
            cell = cells.get(name)
            return cell[field] if cell is not None else 0

        step_s = get("engine.step_block", 0)
        chain_steps = get("engine.step_block", 2)
        attempted = get("windows.distinct_window_nodes", 2)
        root_total = get("request", 4)
        rows.append({
            "exact.tri_table_s": get("exact.edge_triangle_counts", 0),
            "exact.tri_table_calls": get("exact.edge_triangle_counts", 1),
            "engine.step_block_s": step_s,
            "engine.chain_steps": chain_steps,
            "engine.ns_per_chain_step": (
                step_s / chain_steps * 1e9 if chain_steps else 0.0
            ),
            "relgraph.frontier_s": get("relgraph.frontier", 0),
            "relgraph.frontier_calls": get("relgraph.frontier", 1),
            "windows.classify_s": get("windows.distinct_window_nodes", 0)
            + get("windows.induced_bitmasks", 0),
            "windows.attempted": attempted,
            "windows.valid_ratio": (
                get("windows.distinct_window_nodes", 3) / attempted
                if attempted else 0.0
            ),
            "css.weight_s": get("css.weights", 0),
            "css.state_degrees_s": get("windows.state_degrees", 0),
            "estimator.self_s": get("request", 0),
            "stopping.probe_s": get("stopping.snapshot", 0)
            + get("stopping.firing", 0),
            "stopping.checks": get("stopping.firing", 1),
            "walks.serial_step_s": get("walks.step", 0),
            "css.serial_weight_s": get("css.sampling_weight", 0),
            "walks.serial_steps": get("walks.step", 1),
            "trace.coverage_ratio": 1.0 - get("request", 0) / root_total,
        })
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def daemon_metrics(loop, daemon_stats) -> dict:
    ok = [r for r in loop.records if r.error is None]
    return {
        "daemon.submit_s": statistics.median(r.submit_s for r in ok),
        "daemon.queue_wait_s": statistics.median(
            r.first_s - r.first_worker_s for r in ok
        ),
        "daemon.overhead_s": statistics.median(
            r.wall_s - r.estimate.elapsed_seconds for r in ok
        ),
        "daemon.frames": statistics.median(r.frames for r in ok),
        "daemon.worker_util": sum(r.estimate.elapsed_seconds for r in ok)
        / (workloads.SERVICE_WORKERS * loop.window_s),
        "daemon.requeues": daemon_stats["requeues"],
    }


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def steps_per_s(records, service: bool = False, speed=(1.0, 1.0)) -> float:
    """Counted transitions per second of the answered ``records``, on the
    reference host when ``speed`` is a run's :meth:`HostReference.speed_since`.

    For the service, all steps over the summed request latencies, less
    the time the hypervisor stole meanwhile; the worker's serial walk is
    user time, so only the compute slowdown scales it.  In-process, the
    median over requests of steps per second of the client's CPU time:
    the client is single-threaded, so that is its wall time less what
    was stolen.
    """
    ok = [r for r in records if r.error is None]
    if service:
        busy = sum(r.wall_s - r.steal_s for r in ok)
        return sum(r.estimate.steps for r in ok) / busy * speed[0]
    return statistics.median(
        r.estimate.steps / HostReference.scale(r.user_s, r.sys_s, speed) for r in ok
    )


#: Request pairs in the service's traced replay; each traced replay
#: records about 80,000 spans.
SERVICE_TRACED_REQUESTS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    seed, seconds = args.seed, args.seconds
    tracer = tracing.Tracer() if args.trace else None
    # A traced service run gives half its time to the in-process replay.
    daemon_s = seconds / 2 if tracer and workload.service else seconds

    host = HostReference()
    csr, daemon, build, start_s = setup(workload, host)
    build_s = sum(build)
    # Each phase is scaled by the host speed its own probes measured.
    setup_speed, loop_probes = host.speed_since(0), len(host.samples)
    try:
        truth = inputs.load_truth(csr)  # raises on a fingerprint mismatch
        if workload.service:
            loop = workloads.run_service(workload, daemon, seed, daemon_s, host.probe)
            rss, stats = peak_rss_mb(daemon), daemon.stats()
        else:
            workload.request(csr, seed - 1, workload.budget // WARMUP_SHARE)
            loop = workloads.run_inprocess(workload, csr, seed, seconds, host.probe, tracer)
            rss, stats = peak_rss_mb(), None
    finally:
        if daemon is not None:
            workloads.stop_daemon(daemon)
    ok = [r for r in loop.records if r.error is None]
    if not ok:
        for r in loop.records:
            print(r.error, file=sys.stderr)
        print("perfbench: every request failed", file=sys.stderr)
        return 1

    problems = []
    for r in ok:
        problems += [f"request {r.index}: {p}" for p in check_estimate(workload, r.estimate)]
    nrmse, coverage = accuracy(workload, ok, truth)
    if nrmse is not None and nrmse > NRMSE_LIMIT[workload.name]:
        problems.append(
            f"nrmse {nrmse:.4g} of {inputs.TARGET[workload.k]} exceeds "
            f"{NRMSE_LIMIT[workload.name]}"
        )

    raw_rate = steps_per_s(loop.records, workload.service)
    loop_speed = host.speed_since(loop_probes)
    setup_scaled = HostReference.scale(*build, setup_speed) + start_s / setup_speed[0]
    n = f"n={len(ok)}"
    walls = [r.wall_s for r in ok]
    end_to_end = [
        ("setup_s", setup_scaled, "s",
         f"raw {build_s + start_s:.4g} s, median of {SETUP_REPEATS}"),
        ("steps_per_s", steps_per_s(loop.records, workload.service, loop_speed), "1/s",
         f"raw {raw_rate:.6g} 1/s, "
         + ("aggregate over requests" if workload.service else "median over requests")
         + f", {n}"),
        ("peak_rss_mb", rss, "MiB", "benchmark process"
         + (" and largest worker" if workload.service else "")),
    ]
    diagnostics = [("latency_p50_s", statistics.median(walls), "s", n)]
    if workload.service:
        diagnostics += [
            ("latency_p90_s", percentile(walls, 90), "s", n),
            ("first_snapshot_p50_s", statistics.median(r.first_s for r in ok), "s", n),
        ]
    if nrmse is not None:
        diagnostics.append(("nrmse", nrmse, "ratio", inputs.TARGET[workload.k]))
    if coverage is not None:
        diagnostics.append(("ci_coverage", coverage, "ratio", ""))
    failed = len(loop.records) - len(ok)
    diagnostics.append(("error_rate", failed / len(loop.records), "ratio",
                        f"{failed}/{len(loop.records)}"))
    if workload.service:
        diagnostics.append(("steal_share", sum(r.steal_s for r in ok) / sum(walls),
                            "ratio", "hypervisor steal over request latency"))
    else:
        cpu = [r.user_s + r.sys_s for r in ok]
        diagnostics.append(("cpu_share", statistics.median(c / w for c, w in zip(cpu, walls)),
                            "ratio", "request CPU time over wall time, median"))
        diagnostics.append(("sys_share", sum(r.sys_s for r in ok) / sum(cpu),
                            "ratio", "kernel share of request CPU time"))
    diagnostics.append(("host_speed", loop_speed[0], "ratio",
                        f"compute; fault {loop_speed[1]:.4g}; "
                        f"{len(host.samples) - loop_probes} probes; set-up "
                        f"{setup_speed[0]:.4g}/{setup_speed[1]:.4g}; REF_S={HostReference.REF_S}"))

    records = loop.records + loop.traced
    if tracer is None:
        declared = _declared("end_to_end")
        metrics = {name: {"value": value, "unit": declared[name]}
                   for name, value, _, _ in end_to_end}
    else:
        paired = loop
        if workload.service:
            workload.request(csr, seed - 1, workload.budget // WARMUP_SHARE)
            paired = workloads.run_inprocess(
                workload, csr, seed, seconds / 2, host.probe, tracer,
                max_requests=SERVICE_TRACED_REQUESTS,
            )
            records += paired.records + paired.traced
            served = {r.index: r.estimate for r in ok}
            for r in paired.records:
                if r.error is None and r.index in served and not same_estimate(
                    r.estimate, served[r.index]
                ):
                    problems.append(f"replay of request {r.index} != daemon answer")
        for plain, traced in zip(paired.records, paired.traced):
            if traced.error is not None:
                problems.append(f"traced request {traced.index} failed")
            elif plain.error is None and not same_estimate(plain.estimate, traced.estimate):
                problems.append(f"traced request {traced.index} differs from untraced")
        declared = _declared("per_layer")
        layer = dict.fromkeys(declared, 0.0)
        layer["graphs.build_s"] = build_s
        layer["daemon.start_s"] = start_s
        if all(r.error is None for r in paired.records + paired.traced):
            layer.update(layer_metrics(tracer))
            layer["trace.overhead_ratio"] = steps_per_s(paired.traced) / steps_per_s(
                paired.records
            )
        if workload.service:
            layer.update(daemon_metrics(loop, stats))
        metrics = {name: {"value": float(value), "unit": declared[name]}
                   for name, value in layer.items()}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl")

    fp = inputs.fingerprint(csr)
    print(f"workload {workload.name}  seed {seed}  graph {inputs.GRAPH_NAME} "
          f"n={fp['n']} m={fp['m']} edge_hash={fp['edge_hash']}")
    for kind, rows in (("end-to-end", end_to_end), ("diagnostic", diagnostics)):
        for name, value, unit, note in rows:
            print(f"  {kind:<10} {name:<22} {value:>14.6g} {unit:<6} {note}")
    if tracer is not None:
        for name, entry in metrics.items():
            print(f"  per-layer  {name:<26} {entry['value']:>14.6g} {entry['unit']}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(metrics)} != BENCHMARK.json {sorted(declared)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(1 for r in records if r.error is not None),
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
