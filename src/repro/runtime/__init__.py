"""repro.runtime — streaming micro-batch execution of FOL workloads.

The paper vectorizes a *fixed* index vector; this package turns the
same kernels into a continuously running service: requests stream into
a bounded admission queue (:mod:`~repro.runtime.queue`), a pluggable
policy slices them into micro-batches (:mod:`~repro.runtime.batcher`),
each batch runs through FOL against shared hash/tree/list state
(:mod:`~repro.runtime.executor`), and — instead of retrying filtered
lanes in-batch — overwritten lanes recirculate into the next batch
(:mod:`~repro.runtime.carryover`).  Every batch is metered
(:mod:`~repro.runtime.metrics`) in simulated cycles.  The loop itself
(release rule, batch formation, retirement) is
:class:`~repro.runtime.loop.BatchLoop`, shared with the wall-clock
serving front-end.

Quickstart
----------
>>> import numpy as np
>>> from repro.runtime import StreamService, AdaptiveBatcher, open_loop_workload
>>> rng = np.random.default_rng(0)
>>> reqs = open_loop_workload(rng, 2000, kinds=("hash",), skew=1.1)
>>> svc = StreamService.for_workload(reqs, batcher=AdaptiveBatcher())
>>> m = svc.run(reqs)
>>> print(m.summary_table())          # doctest: +SKIP
"""

from ..core.round import fol_round, tuple_round
from .batcher import (
    BATCH_POLICIES,
    AdaptiveBatcher,
    BatchPolicy,
    FixedBatcher,
    make_batcher,
)
from .carryover import CarryoverBuffer
from .executor import BatchResult, StreamExecutor
from .loop import BatchLoop
from .metrics import BatchRecord, StreamMetrics
from .qos import (
    QoSPolicy,
    TenantClass,
    apply_slos,
    jain_index,
    parse_slo,
    parse_tenants,
    tenant_workload,
)
from .queue import (
    ADMISSION_POLICIES,
    BoundedQueue,
    QueueSnapshot,
    QueueStats,
    Request,
)
from .service import (
    StreamService,
    closed_loop_workload,
    open_loop_workload,
    requests_from_keys,
    zipf_keys,
)


def __getattr__(name: str):
    # Served live from the workload registry (see repro.runtime.queue).
    if name == "REQUEST_KINDS":
        from ..engine.spec import registered_kinds

        return registered_kinds()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    # queue
    "ADMISSION_POLICIES",
    "REQUEST_KINDS",
    "BoundedQueue",
    "QueueSnapshot",
    "QueueStats",
    "Request",
    # batcher
    "BATCH_POLICIES",
    "BatchPolicy",
    "FixedBatcher",
    "AdaptiveBatcher",
    "make_batcher",
    # carryover
    "CarryoverBuffer",
    "fol_round",
    "tuple_round",
    # executor
    "BatchResult",
    "StreamExecutor",
    # loop
    "BatchLoop",
    # metrics
    "BatchRecord",
    "StreamMetrics",
    # qos
    "QoSPolicy",
    "TenantClass",
    "apply_slos",
    "jain_index",
    "parse_slo",
    "parse_tenants",
    "tenant_workload",
    # service
    "StreamService",
    "open_loop_workload",
    "closed_loop_workload",
    "requests_from_keys",
    "zipf_keys",
]
