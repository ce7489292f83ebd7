"""Asyncio front-end: admission, micro-batching, graceful shutdown.

:class:`ServeFrontend` is the wall-clock driver of the shared
micro-batch loop (:class:`~repro.runtime.loop.BatchLoop`, the same
release rule, batch formation and retirement that
:class:`~repro.runtime.service.StreamService` runs on simulated cycles)
over the :class:`~repro.runtime.queue.BoundedQueue` (block/reject
admission) and the :class:`~repro.runtime.carryover.CarryoverBuffer`
(one lane per conflict group per batch), on a monotonic clock:

* a **producer** task replays the workload's arrival offsets in real
  time and offers requests to the queue; a full queue blocks it
  (backpressure, latency grows) or sheds load (reject);
* the **serve loop** sleeps toward the batch's release (a full batch,
  or the head request lingering ``linger`` seconds), then runs the
  blocking cluster exchange in a thread-pool executor so admission
  keeps running while the shard processes compute.

``request_stop()`` (wired to SIGINT/SIGTERM by :func:`run_serve`, and
to ``--duration``) stops admission, **drains** everything already
admitted — carried lanes included, so the merged end state stays
oracle-consistent — then returns a partial summary instead of dying
mid-batch.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..runtime.qos import TenantClass
from ..runtime.batcher import BatchPolicy, FixedBatcher
from ..runtime.loop import BatchLoop
from ..runtime.queue import BoundedQueue, Request
from .cluster import ProcessCluster
from .metrics import ExchangeRecord, ServeMetrics

#: Poll granularity for idle waits (seconds); batching decisions use
#: event wake-ups, this only bounds how stale a stop flag can get.
_IDLE_TICK = 0.02


class ServeFrontend(BatchLoop):
    """Admission + micro-batching over one :class:`ProcessCluster`."""

    def __init__(
        self,
        cluster: ProcessCluster,
        *,
        batcher: Optional[BatchPolicy] = None,
        queue: Optional[BoundedQueue] = None,
        linger: float = 0.002,
    ) -> None:
        super().__init__(
            batcher if batcher is not None else FixedBatcher(512),
            queue if queue is not None else BoundedQueue(8192),
            ServeMetrics(
                workers=cluster.shards,
                backend=cluster.coordinator.backend.name,
            ),
            linger,
        )
        self.cluster = cluster
        #: Requests retired in completion order (the oracle's workload).
        self.completed: List[Request] = []
        self._stop = False
        self._stop_event: Optional[asyncio.Event] = None
        self._work = asyncio.Event()
        self._space = asyncio.Event()

    def migration_controller(self):
        return self.cluster.coordinator.controller

    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Stop admitting, drain what's in flight, return partial
        metrics (idempotent; safe from signal handlers on the loop)."""
        self._stop = True
        self.metrics.interrupted = True
        if self._stop_event is not None:
            self._stop_event.set()
        self._work.set()
        self._space.set()

    # ------------------------------------------------------------------
    async def run(
        self,
        requests: Sequence[Request],
        *,
        duration: Optional[float] = None,
    ) -> ServeMetrics:
        """Serve ``requests`` (arrival offsets in seconds) to completion
        or until stopped; returns the populated metrics.  The queue's
        admission ledger is copied into the metrics on every exit."""
        loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        if self._stop:  # stop requested before the loop existed
            self._stop_event.set()
        t0 = time.perf_counter()

        def clock() -> float:
            return time.perf_counter() - t0

        if self.recorder is not None:
            # Re-anchor the recorder on this run's monotonic origin so
            # every event timestamp shares the frontend's clock.
            from ..obs.core import Clock

            self.recorder.clock = Clock(clock, "seconds")
        arrivals = sorted(requests, key=lambda r: (r.arrival, r.rid))
        timer = (
            loop.call_later(duration, self.request_stop)
            if duration is not None
            else None
        )
        producer = asyncio.create_task(self._produce(arrivals, clock))
        try:
            await self._drive(clock, producer)
        finally:
            self._stop = True
            self._stop_event.set()
            try:
                await producer
            finally:
                if timer is not None:
                    timer.cancel()
                self.metrics.absorb_queue(self.queue)
        return self.metrics

    # ------------------------------------------------------------------
    async def _produce(self, arrivals: List[Request], clock) -> None:
        for req in arrivals:
            if self._stop:
                return
            delay = req.arrival - clock()
            if delay > 0:
                try:
                    await asyncio.wait_for(
                        self._stop_event.wait(), timeout=delay
                    )
                    return  # stop arrived while waiting for the arrival
                except asyncio.TimeoutError:
                    pass
            while not self._stop:
                if self.queue.offer(req, clock()):
                    self._work.set()
                    break
                if self.queue.admission == "reject":
                    break  # dropped and counted by the queue
                self._space.clear()
                # blocked: wait for a batch to free queue space
                try:
                    await asyncio.wait_for(
                        self._space.wait(), timeout=_IDLE_TICK
                    )
                except asyncio.TimeoutError:
                    pass

    # ------------------------------------------------------------------
    async def _drive(self, clock, producer: "asyncio.Task") -> None:
        loop = asyncio.get_running_loop()
        while True:
            if self.carry.depth + self.queue.depth == 0:
                if producer.done() or self._stop:
                    break  # admitted work fully drained
                self._work.clear()
                try:
                    await asyncio.wait_for(
                        self._work.wait(), timeout=_IDLE_TICK
                    )
                except asyncio.TimeoutError:
                    pass
                continue

            # -- wait for a fuller batch? ------------------------------
            now = clock()
            release = self.release_at(
                now, not (producer.done() or self._stop)
            )
            if now < release:
                await asyncio.sleep(min(self.linger, release - now))
                if self.recorder is not None:
                    self.recorder.linger_wait(now, clock())
                continue

            # -- form and execute one micro-batch exchange -------------
            batch, carried_in, depth = self.form_batch()
            self._space.set()
            t_start = clock()
            result = await loop.run_in_executor(
                None, self.cluster.execute, batch
            )
            t_end = clock()
            self.completed.extend(result.completed)
            self.metrics.record_exchange(
                ExchangeRecord(
                    index=self.batch_index,
                    size=len(batch),
                    carried_in=carried_in,
                    queue_depth=depth,
                    rounds=result.rounds,
                    completed=len(result.completed),
                    seconds=t_end - t_start,
                    cross_units=result.cross_units,
                    shard_sizes=result.shard_sizes,
                ),
                t_end,
            )
            self.retire(batch, carried_in, result, t_start, t_end)


# ----------------------------------------------------------------------
# one-call orchestration (CLI and benchmarks)
# ----------------------------------------------------------------------
@dataclass
class ServeReport:
    """Everything one serve run produced."""

    metrics: ServeMetrics
    #: First divergence between the merged worker end state and the
    #: one-shot scalar oracle over the completed requests, or None.
    divergence: Optional[object]
    #: Requests actually applied (the oracle's input; excludes rejected
    #: and still-carried lanes of an interrupted run).
    completed: List[Request]
    state_fingerprint: str
    #: True when SIGINT/SIGTERM (not --duration) stopped the run.
    signalled: bool = False
    #: The lifecycle-span recorder of a ``--trace`` run, or None.
    recorder: Optional[object] = None


def run_serve(
    *,
    workers: int,
    backend: str = "native",
    requests: int = 2000,
    rate: Optional[float] = None,
    duration: Optional[float] = None,
    skew: float = 1.2,
    kinds: Optional[Sequence[str]] = None,
    weights: Optional[Sequence[float]] = None,
    policy: str = "fixed",
    batch_size: int = 512,
    linger_ms: float = 2.0,
    queue_capacity: int = 8192,
    admission: str = "block",
    table_size: int = 509,
    n_cells: int = 64,
    key_space: int = 4096,
    partitioner: str = "hash",  # no-kind-lint
    seed: int = 0,
    install_signal_handlers: bool = True,
    bins: Optional[int] = None,
    rebalance: bool = False,
    rebalance_objective: str = "imbalance",
    migration: str = "all-at-once",
    tenants: Optional[Sequence["TenantClass"]] = None,
    qos: bool = False,
    qos_burst: float = 1.0,
    trace: bool = False,
    trace_out: Optional[str] = None,
) -> ServeReport:
    """Generate a workload, serve it through a K-process cluster, shut
    the cluster down cleanly, and verify the merged end state against
    the scalar oracle.  The one entry point the CLI, the benchmark and
    the tests all share.

    ``tenants`` switches the workload to a tenant-tagged mix (each
    tenant drawing keys with its own skew) and adds per-tenant metrics;
    ``qos=True`` additionally enables weighted per-tenant admission and
    deadline-aware batch release (``qos_burst`` scales the per-tenant
    depth caps).

    ``trace=True`` attaches a request-lifecycle span recorder (see
    :mod:`repro.obs.events`): the summary gains a per-stage latency
    decomposition and ``trace_out`` exports the event log as JSONL for
    ``python -m repro trace``.  Purely observational — admission,
    batching and execution paths are unchanged."""
    import math as _math
    import signal as _signal

    import numpy as np

    from ..audit.oracle import diff_stream_state
    from ..engine.spec import stream_mix_kinds
    from ..runtime.batcher import make_batcher
    from ..runtime.qos import QoSPolicy
    from .loadgen import timed_workload

    if qos and not tenants:
        raise ReproError("qos=True needs tenant classes (tenants=...)")
    if kinds is None:
        kinds = stream_mix_kinds()
    rng = np.random.default_rng(seed)
    workload = timed_workload(
        rng,
        requests,
        kinds=kinds,
        weights=weights,
        skew=skew,
        key_space=key_space,
        n_cells=n_cells,
        rate=rate,
        tenants=tenants,
    )
    size = "batch_size" if policy == "fixed" else "initial"
    batcher = make_batcher(policy, **{size: batch_size})

    cluster = ProcessCluster.for_workload(
        workload,
        shards=workers,
        backend=backend,
        table_size=table_size,
        n_cells=n_cells,
        key_space=key_space,
        partitioner=partitioner,
        seed=seed,
        bins=bins,
        rebalance=rebalance,
        rebalance_objective=rebalance_objective,
        migration=migration,
    )
    try:
        policy = QoSPolicy(tenants, burst=qos_burst) if qos else None
        frontend = ServeFrontend(
            cluster,
            batcher=batcher,
            queue=BoundedQueue(queue_capacity, admission=admission, qos=policy),
            linger=linger_ms / 1e3,
        )
        recorder = None
        if trace or trace_out:
            from ..obs.core import Clock
            from ..obs.events import TraceRecorder

            recorder = TraceRecorder(Clock.wall(), sink=trace_out)
            frontend.attach_recorder(recorder)

        signalled = {"flag": False}

        def _on_signal() -> None:
            signalled["flag"] = True
            frontend.request_stop()

        async def _main() -> ServeMetrics:
            loop = asyncio.get_running_loop()
            installed: List[int] = []
            if install_signal_handlers:
                for sig in (_signal.SIGINT, _signal.SIGTERM):
                    try:
                        loop.add_signal_handler(sig, _on_signal)
                        installed.append(sig)
                    except (NotImplementedError, RuntimeError):
                        pass  # non-unix loop; Ctrl-C falls back to KI
            try:
                return await frontend.run(workload, duration=duration)
            finally:
                for sig in installed:
                    loop.remove_signal_handler(sig)

        try:
            metrics = asyncio.run(_main())
        except KeyboardInterrupt:
            # Non-unix fallback: the loop died under us; report what
            # completed before the interrupt (``run`` copied the
            # admission ledger on its way out; state is drained by
            # shutdown below).
            signalled["flag"] = True
            metrics = frontend.metrics
            metrics.interrupted = True
    finally:
        cluster.shutdown()
    if tenants:
        # The FIFO baseline has no QoSPolicy on the queue, but fairness
        # accounting still needs the configured weights and budgets.
        metrics.tenant_weights.update({t.name: t.share for t in tenants})
        for t in tenants:
            if _math.isfinite(t.slo):
                metrics.tenant_slos.setdefault(t.name, t.slo)
    divergence = diff_stream_state(
        cluster.coordinator,
        frontend.completed,
        table_size=table_size,
        n_cells=n_cells,
        key_space=key_space,
    )
    if recorder is not None:
        recorder.flush()
    return ServeReport(
        metrics=metrics,
        divergence=divergence,
        completed=frontend.completed,
        state_fingerprint=cluster.coordinator.state_fingerprint(),
        signalled=signalled["flag"],
        recorder=recorder,
    )
