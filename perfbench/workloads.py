"""The four benchmark workloads and the phases that run them.

Every workload uses the same engine sizing (table 509, 256 cells, 4096
keys, batch 512, linger 2 ms, block admission) and differs in what the
FOL method is sensitive to: how much the keys share, and which layers
carry the requests.  The harness generates each input list from the
seed before anything is timed and hands it to the program's public
entry points; the end state of every run is diffed with the scalar
oracle outside every timed region.
"""

from __future__ import annotations

import asyncio
import gc
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.audit.oracle import diff_stream_state
from repro.machine.counter import CycleCounter
from repro.obs.core import percentile
from repro.runtime import (
    BoundedQueue,
    StreamExecutor,
    StreamService,
    closed_loop_workload,
    make_batcher,
)
from repro.serve import ProcessCluster, ServeFrontend, timed_workload
from repro.shard.coordinator import ShardCoordinator

TABLE_SIZE = 509
N_CELLS = 256
KEY_SPACE = 4096
BATCH = 512
LINGER_S = 0.002
QUEUE_CAPACITY = 8192
ADMISSION = "block"
#: Serve requests scheduled in the first second form the warm-up window:
#: excluded from the latency percentiles, reported on their own.
WARMUP_S = 1.0
#: The serve p99 is the median of the p99s of consecutive windows this
#: long (at least 2000 requests each, so 20 beyond each p99): a host
#: stall of a second or two moves one window, not the run's figure.
WINDOW_S = 2.0

MIX = ("hash", "list", "xfer", "bst")

#: What one timing of :func:`host_probe` takes on the 2-vCPU VM the
#: bounds were set on; closed-loop timings and every engine build time
#: are scaled to this host speed.
REFERENCE_PROBE_S = 0.010
#: :func:`host_probe` reports the median of this many timings.
PROBE_REPS = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; ``BENCHMARK.json`` records why each exists."""

    name: str
    kinds: Tuple[str, ...]
    weights: Tuple[float, ...]
    skew: float
    backend: str
    shards: int
    #: open loop: offered requests per second (0 for a closed loop)
    rate: float = 0.0
    #: closed loop: requests in one job, all ready at t=0
    requests: int = 0

    @property
    def open_loop(self) -> bool:
        return self.rate > 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Open loops stay well below the knee, where the p99 stops
        # repeating between runs.  serve-hot leaves bst out: a hot key's
        # duplicate inserts grow one ever-longer BST chain, so with bst
        # its latency climbs for the whole run (window p99 from 13 ms
        # to over 1 s within 20 s) instead of settling.
        Workload("serve-hot", MIX[:3], (1, 1, 1), 1.2, "native", 1, rate=1000.0),
        Workload("serve-uniform", MIX, (1, 1, 1, 1), 0.0, "native", 1, rate=3000.0),
        # sort at a small weight: at 1 in 7 it takes most of the job.
        Workload(
            "bulk-native", MIX + ("sort",), (1, 1, 1, 1, 0.25), 0.8, "native", 4,
            requests=20000,
        ),
        Workload("paper-sim", MIX, (1, 1, 1, 1), 0.0, "sim", 1, requests=60000),
    )
}


def make_inputs(w: Workload, seed: int, seconds: float = 0.0) -> list:
    """The request list for one run: ``seconds`` of Poisson arrivals
    for an open loop, one job of ``w.requests`` for a closed loop."""
    rng = np.random.default_rng(seed)
    common = dict(
        kinds=w.kinds, weights=w.weights, skew=w.skew,
        key_space=KEY_SPACE, n_cells=N_CELLS,
    )
    if w.open_loop:
        return timed_workload(rng, int(w.rate * seconds), rate=w.rate, **common)
    return closed_loop_workload(rng, w.requests, **common)


def oracle_diff(engine, completed) -> Optional[object]:
    return diff_stream_state(
        engine, completed,
        table_size=TABLE_SIZE, n_cells=N_CELLS, key_space=KEY_SPACE,
    )


def _queue() -> BoundedQueue:
    return BoundedQueue(QUEUE_CAPACITY, admission=ADMISSION)


def host_probe() -> float:
    """Seconds a fixed reference computation takes right now: the
    median of :data:`PROBE_REPS` timings, so one interrupted timing
    does not set a scale.

    The work is interpreter loops over a dict and small-array NumPy
    gathers and sorts, the mix a FOL exchange costs on the host.  On a
    shared VM the host's speed drifts by half over tens of minutes
    (measured: the same closed-loop job at 50k and 77k req/s half an
    hour apart, the serve cluster spawn at 30 and 38 ms 40 minutes
    apart), and CPU-bound work follows it; timing the probe around
    that work and scaling the work by it cancels most of that."""
    times = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        counts: Dict[int, int] = {}
        for i in range(40000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        a = np.arange(512)
        for _ in range(600):
            a = np.sort(a[(a * 7) % 512])
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ----------------------------------------------------------------------
# open loop: ServeFrontend over a ProcessCluster
# ----------------------------------------------------------------------
@dataclass
class ServeRun:
    setup_s: List[float]
    #: per spawn, REFERENCE_PROBE_S over the host probes timed just
    #: before and after it: multiply its setup time by it to scale it
    #: to the reference host speed
    setup_scale: List[float]
    requests: int
    completed: int
    latencies_s: List[float]  # scheduled arrival to completion, warm
    warmup_s: List[float]  # the same, warm-up window
    window_p99s_s: List[float]  # p99 of each full window after warm-up
    throughput_rps: float
    carry_max_depth: int
    divergence: Optional[object]


def serve_phase(
    w: Workload, seed: int, seconds: float, *, setups: int = 1,
    recorder=None, before_spawn=None,
) -> ServeRun:
    """Serve ``seconds`` of arrivals once.  Setup is timed ``setups``
    times (cluster spawn until every worker is ready), with the host
    probe timed between spawns; the last cluster serves.
    ``before_spawn()`` runs before the serving cluster forks."""
    requests = make_inputs(w, seed, seconds)
    setup_s = []
    probes = [host_probe()]
    for i in range(setups):
        if i == setups - 1 and before_spawn is not None:
            before_spawn()
        t0 = time.perf_counter()
        cluster = ProcessCluster.for_workload(
            requests, shards=w.shards, backend=w.backend,
            table_size=TABLE_SIZE, n_cells=N_CELLS, key_space=KEY_SPACE,
            seed=seed,
        )
        setup_s.append(time.perf_counter() - t0)
        probes.append(host_probe())
        if i < setups - 1:
            cluster.shutdown()
    try:
        frontend = ServeFrontend(
            cluster,
            batcher=make_batcher("fixed", batch_size=BATCH),
            queue=_queue(),
            linger=LINGER_S,
        )
        if recorder is not None:
            frontend.attach_recorder(recorder)
        gc.collect()  # the harness's own garbage from input generation
        metrics = asyncio.run(frontend.run(requests))
    finally:
        cluster.shutdown()
    divergence = oracle_diff(cluster.coordinator, frontend.completed)
    warm, cold = [], []
    windows: Dict[int, List[float]] = {}
    n_windows = max(1, int((seconds - WARMUP_S) // WINDOW_S))
    for req in frontend.completed:
        if req.arrival < WARMUP_S:
            cold.append(req.latency)
            continue
        warm.append(req.latency)
        k = int((req.arrival - WARMUP_S) // WINDOW_S)
        if k < n_windows:
            windows.setdefault(k, []).append(req.latency)
    return ServeRun(
        setup_s=setup_s,
        setup_scale=[
            2 * REFERENCE_PROBE_S / (a + b) for a, b in zip(probes, probes[1:])
        ],
        requests=len(requests),
        completed=len(frontend.completed),
        latencies_s=warm,
        warmup_s=cold,
        window_p99s_s=[percentile(v, 99) for v in windows.values()],
        throughput_rps=metrics.throughput,
        carry_max_depth=frontend.carry.max_depth,
        divergence=divergence,
    )


# ----------------------------------------------------------------------
# closed loop: StreamService over an in-process engine
# ----------------------------------------------------------------------
@dataclass
class ClosedJob:
    setup_s: float
    job_s: float
    requests: int
    completed: int
    sim_cycles_per_req: float
    carry_max_depth: int
    #: REFERENCE_PROBE_S over the host probe timed around the job:
    #: multiply a time by it to scale it to the reference host speed
    host_scale: float
    #: the engine's cycle ledger (no reference to the engine itself, so
    #: a finished job's state is freed before the next job is built)
    counter: CycleCounter
    divergence: Optional[object]


def build_engine(w: Workload, requests: list, seed: int):
    if w.shards > 1:
        return ShardCoordinator.for_workload(
            requests, shards=w.shards, backend=w.backend,
            table_size=TABLE_SIZE, n_cells=N_CELLS, key_space=KEY_SPACE,
            seed=seed,
        )
    return StreamExecutor.for_workload(
        requests, backend=w.backend,
        table_size=TABLE_SIZE, n_cells=N_CELLS, key_space=KEY_SPACE,
        seed=seed,
    )


def closed_job(w: Workload, seed: int) -> ClosedJob:
    """Run one job of ``w.requests``: build the engine (timed as setup),
    drain the job through the stream service (timed), check the oracle."""
    requests = make_inputs(w, seed)
    gc.collect()  # the harness's own garbage from input generation
    probe = host_probe()
    t0 = time.perf_counter()
    engine = build_engine(w, requests, seed)
    service = StreamService(
        engine, batcher=make_batcher("fixed", batch_size=BATCH), queue=_queue()
    )
    t1 = time.perf_counter()
    metrics = service.run(requests)
    t2 = time.perf_counter()
    probe += host_probe()
    return ClosedJob(
        setup_s=t1 - t0,
        job_s=t2 - t1,
        requests=len(requests),
        completed=metrics.total_completed,
        sim_cycles_per_req=metrics.cycles_per_request,
        carry_max_depth=service.carry.max_depth,
        host_scale=2 * REFERENCE_PROBE_S / probe,
        counter=service.executor.vm.counter,
        divergence=oracle_diff(engine, requests),
    )
