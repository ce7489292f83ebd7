"""The streaming micro-batch FOL service on a simulated clock.

:class:`StreamService` is the simulated-cycle driver of the shared
micro-batch loop (:class:`~repro.runtime.loop.BatchLoop`)::

    arrivals -> BoundedQueue -> BatchPolicy -> StreamExecutor -> done
                    ^                              |
                    |        CarryoverBuffer <-----+  (filtered lanes)
                    +--- backpressure (block/reject)

Time is *simulated cycles*: the service clock advances to arrival
timestamps while idle and by each batch's charged cycle count while
executing, so queueing delay and service time share one unit and the
p50/p99 latencies are machine-level quantities, not wall-clock noise.
``linger`` (cycles, default unbounded) caps how long the oldest queued
request waits for a fuller batch.

Workload generators produce request streams with the two knobs that
stress FOL: **arrival process** (open loop with exponential gaps, or
closed loop where everything is ready at t=0 and the bounded queue is
the only pacing) and **key skew** (truncated Zipf; hot keys alias the
same chain heads/cells, driving the pointer multiplicity M up).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..errors import ReproError
from ..machine.cost_model import CostModel
from ..machine.trace import Tracer
from .batcher import BatchPolicy, FixedBatcher
from .executor import StreamExecutor
from .loop import BatchLoop
from .metrics import BatchRecord, StreamMetrics
from .qos import TenantClass, tenant_workload
from .queue import BoundedQueue, Request


class StreamService(BatchLoop):
    """Top-level façade: run a request stream through micro-batched FOL."""

    def __init__(
        self,
        executor: StreamExecutor,
        batcher: Optional[BatchPolicy] = None,
        queue: Optional[BoundedQueue] = None,
        trace: bool = False,
        linger: float = math.inf,
    ) -> None:
        super().__init__(
            batcher if batcher is not None else FixedBatcher(),
            # Explicit None check: an empty BoundedQueue is falsy via __len__.
            queue if queue is not None else BoundedQueue(capacity=4096),
            StreamMetrics(),
            linger,
        )
        self.executor = executor
        self.trace = trace
        self.now = 0.0

    def migration_controller(self):
        return getattr(self.executor, "controller", None)

    # ------------------------------------------------------------------
    @classmethod
    def for_workload(
        cls,
        requests: Sequence[Request],
        *,
        batcher: Optional[BatchPolicy] = None,
        queue: Optional[BoundedQueue] = None,
        linger: float = math.inf,
        table_size: int = 509,
        n_cells: int = 64,
        key_space: int = 4096,
        carryover: bool = True,
        conflict_policy: str = "arbitrary",
        cost_model: Optional[CostModel] = None,
        backend="sim",
        trace: bool = False,
        seed: int = 0,
    ) -> "StreamService":
        """Build a service whose executor/machine are sized to fit
        ``requests`` (the common construction path; see also
        :meth:`StreamExecutor.for_workload`)."""
        executor = StreamExecutor.for_workload(
            requests,
            table_size=table_size,
            n_cells=n_cells,
            key_space=key_space,
            carryover=carryover,
            conflict_policy=conflict_policy,
            cost_model=cost_model,
            backend=backend,
            seed=seed,
        )
        return cls(
            executor, batcher=batcher, queue=queue, trace=trace, linger=linger
        )

    # ------------------------------------------------------------------
    def run(self, requests: Sequence[Request]) -> StreamMetrics:
        """Drive every request to completion (or rejection); returns the
        populated metrics object (also kept on ``self.metrics``).  The
        queue's admission ledger is copied into the metrics on every
        exit, an interrupted run's included."""
        arrivals = sorted(requests, key=lambda r: (r.arrival, r.rid))
        try:
            if self.trace:
                backend = getattr(self.executor, "backend", None)
                if backend is not None and not backend.calibrated:
                    raise ReproError(
                        f"tracing records the simulated instruction mix, but "
                        f"backend {backend.name!r} charges no cycles; trace on "
                        f"the sim backend"
                    )
                with Tracer(self.executor.vm.counter) as tracer:
                    self._drive(arrivals)
                self.metrics.attach_trace(tracer)
            else:
                self._drive(arrivals)
        finally:
            self.metrics.absorb_queue(self.queue)
        return self.metrics

    def _drive(self, arrivals: List[Request]) -> None:
        i = 0
        n = len(arrivals)
        while True:
            # -- admit every arrival that is due and fits ---------------
            blocked = False
            while i < n and arrivals[i].arrival <= self.now:
                if self.queue.offer(arrivals[i], self.now):
                    i += 1
                elif self.queue.admission == "reject":
                    i += 1  # dropped and counted by the queue
                else:
                    blocked = True  # backpressure: producer stalls
                    break

            if self.carry.depth + self.queue.depth == 0:
                if i >= n:
                    return  # drained
                self.now = max(self.now, arrivals[i].arrival)
                continue

            # -- wait for a fuller batch? -------------------------------
            release = self.release_at(self.now, i < n and not blocked)
            if release > self.now:
                wake = min(release, arrivals[i].arrival)
                if self.recorder is not None:
                    self.recorder.linger_wait(self.now, wake)
                self.now = wake
                continue

            # -- form and execute one micro-batch -----------------------
            batch, carried_in, depth = self.form_batch()
            launch = self.now
            result = self.executor.execute(batch)
            self.now += result.cycles
            self.metrics.record_batch(
                BatchRecord(
                    index=self.batch_index,
                    size=len(batch),
                    carried_in=carried_in,
                    queue_depth=depth,
                    rounds=result.rounds,
                    multiplicity=result.multiplicity,
                    filtered=result.filtered,
                    completed=len(result.completed),
                    cycles=result.cycles,
                    kind_counts=result.kind_counts,
                    shard_sizes=result.shard_sizes,
                    shard_rounds=result.shard_rounds,
                    cross_units=result.cross_units,
                    migrations=result.migrations,
                    parked=result.parked,
                    t_end=self.now,
                )
            )
            self.retire(batch, carried_in, result, launch, self.now)


# ----------------------------------------------------------------------
# workload generators
# ----------------------------------------------------------------------
def zipf_keys(
    rng: np.random.Generator, n: int, skew: float, key_space: int
) -> np.ndarray:
    """``n`` keys from a truncated Zipf over ``key_space`` ranks.

    ``skew == 0`` is uniform; ``skew >= 1`` concentrates mass on a few
    hot keys (at 1.1 the hottest key takes ~15% of the stream), which is
    exactly the regime that inflates FOL's pointer multiplicity M."""
    if key_space <= 0:
        raise ReproError(f"key space must be positive, got {key_space}")
    if skew < 0:
        raise ReproError(f"skew must be non-negative, got {skew}")
    if skew == 0.0:
        return rng.integers(0, key_space, size=n).astype(np.int64)
    ranks = np.arange(1, key_space + 1, dtype=np.float64)
    p = ranks ** -skew
    p /= p.sum()
    return rng.choice(key_space, size=n, p=p).astype(np.int64)


def _build_requests(
    rng: np.random.Generator,
    arrivals: np.ndarray,
    kinds: Sequence[str],
    skew: float,
    key_space: int,
    n_cells: int,
    max_delta: int,
    weights: Optional[Sequence[float]] = None,
) -> List[Request]:
    from ..engine.spec import EngineContext, get_spec

    by_kind = {k: get_spec(k) for k in kinds}
    n = arrivals.size
    keys = zipf_keys(rng, n, skew, key_space)
    if weights is None:
        kind_choices = rng.integers(0, len(kinds), size=n)
    else:
        if len(weights) != len(kinds):
            raise ReproError(
                f"{len(weights)} mix weights for {len(kinds)} kinds"
            )
        p = np.asarray(weights, dtype=np.float64)
        if p.size == 0 or (p < 0).any() or p.sum() <= 0:
            raise ReproError("mix weights must be non-negative, sum > 0")
        kind_choices = rng.choice(len(kinds), size=n, p=p / p.sum())
    deltas = rng.integers(1, max_delta + 1, size=n)
    # Transfer targets follow the *same* skew as sources, so a hot rank
    # is hot on both ends of the tuple — the worst case for sharding.
    keys2 = zipf_keys(rng, n, skew, key_space)
    ctx = EngineContext(n_cells=n_cells, key_space=key_space)
    return [
        by_kind[kinds[kind_choices[idx]]].make_request(
            idx,
            int(keys[idx]),
            int(keys2[idx]),
            int(deltas[idx]),
            float(arrivals[idx]),
            ctx,
        )
        for idx in range(n)
    ]


def open_loop_workload(
    rng: np.random.Generator,
    n: int,
    *,
    kinds: Sequence[str] = ("hash",),  # no-kind-lint
    skew: float = 0.0,
    key_space: int = 4096,
    mean_gap: float = 40.0,
    n_cells: int = 64,
    max_delta: int = 9,
    weights: Optional[Sequence[float]] = None,
) -> List[Request]:
    """Open loop: arrivals with exponential inter-arrival gaps of
    ``mean_gap`` cycles — the generator does not react to service speed,
    so a slow policy shows up as queue growth and latency."""
    gaps = rng.exponential(mean_gap, size=n)
    return _build_requests(
        rng, np.cumsum(gaps), kinds, skew, key_space, n_cells, max_delta,
        weights=weights,
    )


def closed_loop_workload(
    rng: np.random.Generator,
    n: int,
    *,
    kinds: Sequence[str] = ("hash",),  # no-kind-lint
    skew: float = 0.0,
    key_space: int = 4096,
    n_cells: int = 64,
    max_delta: int = 9,
    weights: Optional[Sequence[float]] = None,
) -> List[Request]:
    """Closed loop: every request is ready at t=0 and the bounded
    admission queue is the only pacing — the throughput-measuring
    configuration (latency then measures time-in-system from t=0)."""
    return _build_requests(
        rng, np.zeros(n), kinds, skew, key_space, n_cells, max_delta,
        weights=weights,
    )


def make_workload(
    rng: np.random.Generator,
    n: int,
    *,
    kinds: Sequence[str],
    weights: Optional[Sequence[float]] = None,
    skew: float = 0.0,
    key_space: int = 4096,
    n_cells: int = 64,
    max_delta: int = 9,
    mean_gap: Optional[float] = None,
    tenants: Optional[Sequence[TenantClass]] = None,
) -> List[Request]:
    """The one workload dispatcher: closed loop when ``mean_gap`` is
    None, open loop otherwise, and a tenant-tagged mix (each tenant
    drawing keys with its own skew; ``skew`` is ignored) when
    ``tenants`` is given.  ``mean_gap`` is in the driver's clock unit."""
    if tenants is not None:
        return tenant_workload(
            rng, n, tenants, kinds=kinds, weights=weights,
            key_space=key_space, n_cells=n_cells, max_delta=max_delta,
            mean_gap=mean_gap,
        )
    common = dict(
        kinds=kinds, weights=weights, skew=skew, key_space=key_space,
        n_cells=n_cells, max_delta=max_delta,
    )
    if mean_gap is None:
        return closed_loop_workload(rng, n, **common)
    return open_loop_workload(rng, n, mean_gap=mean_gap, **common)


def requests_from_keys(
    keys: Iterable[int], kind: str = "hash", deltas: Optional[Iterable[int]] = None  # no-kind-lint
) -> List[Request]:
    """Deterministic all-at-t0 stream from explicit keys (test helper)."""
    keys = list(keys)
    deltas = list(deltas) if deltas is not None else [1] * len(keys)
    if len(deltas) != len(keys):
        raise ReproError(f"{len(deltas)} deltas for {len(keys)} keys")
    return [
        Request(rid=i, kind=kind, key=int(k), delta=int(d))
        for i, (k, d) in enumerate(zip(keys, deltas))
    ]
