"""The four benchmark workloads: request definitions and closed loops.

Every workload runs on the pinned stand-in graph (``inputs.py``) and is
a closed loop: a client issues its next request only after the previous
one answered.  Request ``i`` of a run uses seed ``seed + i``; the
warm-up request uses ``seed - 1`` and is never measured.  See
``NOTES.md`` for why each workload exists and which layers it exercises.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import os
import resource
import traceback
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from time import perf_counter
from typing import Callable, List, Optional

import repro
import tracing
from repro import estimators
from repro.core import EstimationConfig
from repro.service import (
    Daemon,
    EstimateRequest,
    RequestFailed,
    RequestTimeout,
    ServiceOverloaded,
)


def srw3_fused(csr, seed: int, budget: int):
    """Fused G(3) kernel, one-shot, 256 chains, 512-row accumulator blocks."""
    return repro.estimate(
        csr, "srw3", k=4, backend="csr", chains=256, budget=budget, seed=seed
    )


def srw4_frontier(csr, seed: int, budget: int):
    """Generic d=4 swap frontier, one-shot, 256 chains."""
    return repro.estimate(
        csr, "srw4", k=5, backend="csr", chains=256, budget=budget, seed=seed
    )


CSS_CHECK_EVERY = 4000


def css_stream(csr, seed: int, budget: int):
    """Streamed SRW2CSS session with a CI target the cap cannot meet, so
    every request walks the whole budget and pays every stopping probe."""
    target = f"ci:1e-6|steps:{budget}"
    config = EstimationConfig(
        method="srw2css", k=4, chains=64, backend="csr", target=target, seed=seed
    )
    session = estimators.get("srw2css").prepare(csr, config)
    return session.run(target, check_every=CSS_CHECK_EVERY)


SERVICE_METHOD = "srw1cssnb"
SERVICE_SNAPSHOT_STEPS = 2_500


def service_request(seed: int, budget: int) -> EstimateRequest:
    return EstimateRequest(
        SERVICE_METHOD,
        k=3,
        chains=1,
        budget=budget,
        snapshot_steps=SERVICE_SNAPSHOT_STEPS,
        seed=seed,
    )


def service_replay(csr, seed: int, budget: int):
    """One service request run in-process the way a daemon worker runs
    it: the same config, streamed in ``snapshot_steps`` chunks with a
    snapshot after every chunk but the last."""
    request = service_request(seed, budget)
    config = EstimationConfig(
        method=request.method, k=request.k, target=budget, seed=seed, chains=1
    )
    session = estimators.prepare(csr, config)
    while True:
        session.step(min(SERVICE_SNAPSHOT_STEPS, session.remaining))
        if session.done:
            return session.result()
        session.snapshot()


@dataclass
class Workload:
    name: str
    k: int
    budget: int
    #: ``request(csr, seed, budget)`` for in-process workloads; the
    #: service workload's in-process replay of one request.
    request: Callable
    service: bool = False
    #: Whether truth.json holds exact truth for ``k`` (none for k=5).
    has_truth: bool = True
    #: Stopping probes every request must pay (css-stream only).
    checks: Optional[int] = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("srw3-fused", 4, 256_000, srw3_fused),
        Workload("srw4-frontier", 5, 12_800, srw4_frontier, has_truth=False),
        Workload(
            "css-stream", 4, 256_000, css_stream,
            checks=256_000 // CSS_CHECK_EVERY,
        ),
        Workload("service-serial", 3, 40_000, service_replay, service=True),
    )
}


@dataclass
class Record:
    """One attempted request."""

    index: int
    seed: int
    wall_s: float = 0.0
    #: User and kernel CPU time of this process during the request
    #: (in-process only).
    user_s: float = 0.0
    sys_s: float = 0.0
    #: Hypervisor steal during the request (the service only).
    steal_s: float = 0.0
    estimate: object = None
    error: Optional[str] = None
    submit_s: float = 0.0
    first_s: float = 0.0
    first_worker_s: float = 0.0
    frames: int = 0


@dataclass
class LoopResult:
    records: List[Record] = field(default_factory=list)
    window_s: float = 0.0
    #: With a tracer: the traced twin of each record (same seed).
    traced: List[Record] = field(default_factory=list)


def cpu_times():
    """``(user, system)`` CPU seconds this process has used so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime, usage.ru_stime


def _attempt(workload: Workload, csr, index: int, seed: int, tracer) -> Record:
    """One timed request; with a ``tracer``, traced under a root span."""
    record = Record(index, seed)
    wrappers = tracing.install(tracer) if tracer else contextlib.nullcontext()
    with wrappers:
        t0, cpu0 = perf_counter(), cpu_times()
        try:
            if tracer is None:
                record.estimate = workload.request(csr, seed, workload.budget)
            else:
                record.estimate = tracer.run_request(
                    index, workload.request, csr, seed, workload.budget
                )
        except Exception:  # counted as a failed request, run goes on
            record.error = traceback.format_exc()
        record.wall_s = perf_counter() - t0
        cpu1 = cpu_times()
        record.user_s, record.sys_s = cpu1[0] - cpu0[0], cpu1[1] - cpu0[1]
    return record


def run_inprocess(workload: Workload, csr, seed: int, seconds: float,
                  probe: Callable[[], None], tracer=None,
                  max_requests: Optional[int] = None) -> LoopResult:
    """Closed loop from one client for ``seconds`` (at least one request).

    The cyclic collector is off while requests run; between requests it
    collects and ``probe`` times the host reference.  With a ``tracer``
    every request runs twice back to back, untraced and then traced, so
    that host drift cannot come between a request and its traced twin.
    """
    out = LoopResult()
    gc.collect()
    gc.disable()
    try:
        probe()
        start = perf_counter()
        deadline = start + seconds
        for i in itertools.count():
            if out.records and (
                perf_counter() >= deadline
                or (max_requests is not None and i >= max_requests)
            ):
                break
            out.records.append(_attempt(workload, csr, i, seed + i, None))
            gc.collect()
            probe()
            if tracer is not None:
                out.traced.append(_attempt(workload, csr, i, seed + i, tracer))
                gc.collect()
                probe()
        out.window_s = perf_counter() - start
    finally:
        gc.enable()
    return out


def stolen_s() -> float:
    """Seconds the hypervisor has stolen from this VM's CPUs since boot,
    summed over the CPUs (the ``steal`` column of ``/proc/stat``; 0 where
    that file is missing).  A vCPU that idles is not stolen from, so
    while one process computes this is, to a tick, what it lost."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    steal = int(fields[8]) if fields[:1] == ["cpu"] and len(fields) > 8 else 0
    return steal / os.sysconf("SC_CLK_TCK")


#: One worker serves one client: a second pair would put three busy
#: processes on two cores and measure the scheduler (NOTES.md).
SERVICE_WORKERS = 1
#: Per-frame wait before a request counts as timed out.
FRAME_TIMEOUT_S = 60.0


def start_daemon(csr) -> Daemon:
    return Daemon(csr, workers=SERVICE_WORKERS).start()


def stop_daemon(daemon: Daemon) -> None:
    """Close the daemon (it joins its workers), then stop the shared-memory
    resource tracker that publishing the graph started, and wait for it."""
    daemon.close()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _serve_one(daemon: Daemon, record: Record, budget: int) -> None:
    """Submit one request; record its frame arrival times and answer."""
    t0, steal0 = perf_counter(), stolen_s()
    try:
        handle = daemon.submit(service_request(record.seed, budget))
        record.submit_s = perf_counter() - t0
        for snapshot in handle.snapshots(timeout=FRAME_TIMEOUT_S):
            now = perf_counter() - t0
            if record.frames == 0 and snapshot.estimate is not None:
                record.first_s = now
                record.first_worker_s = snapshot.estimate.elapsed_seconds
            record.frames += 1
        record.estimate = handle.result(timeout=FRAME_TIMEOUT_S)
    except (RequestFailed, RequestTimeout, ServiceOverloaded, TimeoutError) as exc:
        record.error = f"{type(exc).__name__}: {exc}"
    record.wall_s = perf_counter() - t0
    record.steal_s = stolen_s() - steal0


def run_service(workload: Workload, daemon: Daemon, seed: int,
                seconds: float, probe: Callable[[], None]) -> LoopResult:
    """One client keeping one request in flight for ``seconds``.

    After one unmeasured warm-up request, the client submits, waits for
    the answer, then collects garbage and lets ``probe`` time the host
    reference while the worker idles, so the probes never compete with
    it.  No request starts after ``seconds``; the window runs from the
    first submit to the probe after the last answer.
    """
    warm = Record(-1, seed - 1)
    _serve_one(daemon, warm, workload.budget)
    if warm.error is not None:
        raise RuntimeError(f"service warm-up request failed: {warm.error}")

    out = LoopResult()
    gc.collect()
    probe()
    start = perf_counter()
    deadline = start + seconds
    for i in itertools.count():
        if out.records and perf_counter() >= deadline:
            break
        record = Record(i, seed + i)
        _serve_one(daemon, record, workload.budget)
        out.records.append(record)
        gc.collect()
        probe()
    out.window_s = perf_counter() - start
    return out
