"""``repro.serve`` — the real multi-process serving layer.

The serving path runs on a **measured wall clock**: an asyncio
front-end admits and micro-batches requests
(:mod:`~repro.serve.frontend`), one OS process per shard worker owns
its arena in shared memory and computes in place
(:mod:`~repro.serve.proc_worker`), and the sharded engine's one
:class:`~repro.shard.coordinator.ShardCoordinator` runs every exchange
over them: :mod:`~repro.serve.cluster` gives it one process shard per
worker, whose reads are zero-copy views of the worker's arena and
whose every mutating call — a batch, a claim/commit's word additions,
a migration step — is one message on a multiprocessing queue, while
batches and end states move zero-copy through shared segments
(:mod:`~repro.serve.transport`).  A real load generator replays the
runtime's open/closed-loop Zipf workloads in real time
(:mod:`~repro.serve.loadgen`) and the metrics
(:mod:`~repro.serve.metrics`) report measured p50/p99 latency and
saturation throughput — the simulated runtime's cycle-denominated
quantities keep living in :mod:`repro.runtime`.

Entry points: ``python -m repro serve`` and :func:`run_workload`, the
one runner ``python -m repro stream`` shares (its ``driver="stream"``
runs the simulated runtime's cycles instead).  See docs/serving.md for
the process topology and protocol.
"""

from .cluster import ProcessCluster
from .frontend import RunReport, ServeFrontend, run_workload
from .loadgen import timed_workload
from .metrics import ExchangeRecord, ServeMetrics

__all__ = [
    "ExchangeRecord",
    "ProcessCluster",
    "RunReport",
    "ServeFrontend",
    "ServeMetrics",
    "run_workload",
    "timed_workload",
]
