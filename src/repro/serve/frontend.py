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

``request_stop()`` (wired to SIGINT/SIGTERM by :func:`run_workload`, and
to ``--duration``) stops admission, **drains** everything already
admitted — carried lanes included, so the merged end state stays
oracle-consistent — then returns a partial summary instead of dying
mid-batch.
"""

from __future__ import annotations

import asyncio
import math
import signal
import time
from contextlib import ExitStack
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
# one-call orchestration (CLI, benchmarks and tests)
# ----------------------------------------------------------------------
@dataclass
class RunReport:
    """Everything one run produced."""

    #: ``StreamMetrics`` (``stream``) or :class:`ServeMetrics` (``serve``).
    metrics: object
    #: The run stopped early: Ctrl-C, a signal or ``serve``'s ``duration``.
    interrupted: bool = False
    #: Ctrl-C or a signal (not ``duration``) stopped the run.
    signalled: bool = False
    #: The lifecycle-span recorder of a traced run, or None.
    recorder: Optional[object] = None
    wall_seconds: float = 0.0
    #: ``serve`` only: the first divergence between the merged worker
    #: end state and the scalar oracle over the completed requests (the
    #: oracle's input; excludes rejected and still-carried lanes of an
    #: interrupted run), or None.
    divergence: Optional[object] = None
    completed: Optional[List[Request]] = None
    state_fingerprint: Optional[str] = None


def run_workload(
    *,
    driver: str = "serve",
    shards: int = 1,
    backend: str = "native",
    requests: int = 2000,
    mean_gap: Optional[float] = None,
    duration: Optional[float] = None,
    skew: float = 1.2,
    kinds: Optional[Sequence[str]] = None,
    weights: Optional[Sequence[float]] = None,
    policy: str = "fixed",
    batch_size: int = 512,
    linger: Optional[float] = None,
    queue_capacity: int = 8192,
    admission: str = "block",
    table_size: int = 509,
    n_cells: int = 64,
    key_space: int = 4096,
    carryover: bool = True,
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
) -> RunReport:
    """Generate a workload and run it through the micro-batch loop: the
    one entry point of ``repro stream``, ``repro serve``, the benchmarks
    and the tests.

    ``driver="stream"`` runs :class:`~repro.runtime.service.StreamService`
    on simulated cycles over a ``StreamExecutor`` (one shard) or an
    in-process ``ShardCoordinator``; ``driver="serve"`` runs
    :class:`ServeFrontend` under asyncio over a ``shards``-process
    :class:`ProcessCluster`, shuts it down and checks the merged end
    state against the scalar oracle.  ``mean_gap`` (None: closed loop),
    ``linger`` (None: the driver's default) and tenant SLOs are in the
    driver's clock unit; ``duration`` and ``install_signal_handlers``
    are ``serve``'s (``stream`` refuses a ``duration``), and the shard
    options need ``shards > 1``.  ``qos=True`` adds weighted per-tenant
    admission and deadline-aware release; ``trace``/``trace_out``
    attach the lifecycle recorder (and, on an unsharded ``stream``
    with ``trace``, the instruction-mix tracer), purely observational."""
    import numpy as np

    from ..engine.spec import stream_mix_kinds
    from ..obs.core import Clock
    from ..obs.events import TraceRecorder
    from ..runtime.batcher import make_batcher
    from ..runtime.executor import StreamExecutor
    from ..runtime.qos import QoSPolicy
    from ..runtime.service import StreamService, make_workload
    from ..shard.coordinator import ShardCoordinator

    if driver not in ("stream", "serve"):
        raise ReproError(f"unknown driver {driver!r}; use 'stream' or 'serve'")
    if qos and not tenants:
        raise ReproError("qos=True needs tenant classes (tenants=...)")
    if driver == "stream" and duration is not None:
        raise ReproError("duration= is serve's; stream runs every request")
    if shards == 1 and (rebalance or bins is not None
                        or partitioner != "hash"):  # no-kind-lint
        raise ReproError("rebalance=, bins= and partitioner= need shards > 1")
    workload = make_workload(
        np.random.default_rng(seed),
        requests,
        kinds=stream_mix_kinds() if kinds is None else kinds,
        weights=weights,
        skew=skew,
        key_space=key_space,
        n_cells=n_cells,
        mean_gap=mean_gap,
        tenants=tenants,
    )
    size = "batch_size" if policy == "fixed" else "initial"
    loop_kw = dict(
        batcher=make_batcher(policy, **{size: batch_size}),
        queue=BoundedQueue(
            queue_capacity,
            admission=admission,
            qos=QoSPolicy(tenants, burst=qos_burst) if qos else None,
        ),
    )
    if linger is not None:
        loop_kw["linger"] = linger
    layout = dict(
        table_size=table_size, n_cells=n_cells, key_space=key_space,
        carryover=carryover, backend=backend, seed=seed,
    )
    sharding = dict(
        shards=shards, partitioner=partitioner, rebalance=rebalance,
        bins=bins, migration=migration,
        rebalance_objective=rebalance_objective,
    )
    with ExitStack() as stack:
        if driver == "stream":
            if shards > 1:
                engine = ShardCoordinator.for_workload(
                    workload, **sharding, **layout
                )
            else:
                engine = StreamExecutor.for_workload(workload, **layout)
            # The instruction mix is one machine's counter: only the
            # unsharded executor has one.
            mix = trace and shards == 1
            loop = StreamService(engine, trace=mix, **loop_kw)
            clock = Clock.simulated(lambda: loop.now)
        else:
            engine = ProcessCluster.for_workload(
                workload, **sharding, **layout
            )
            stack.callback(engine.shutdown)
            loop = ServeFrontend(engine, **loop_kw)
            clock = Clock.wall()
        recorder = None
        if trace or trace_out:
            recorder = TraceRecorder(clock, sink=trace_out)
            loop.attach_recorder(recorder)
        t0 = time.perf_counter()
        try:
            if driver == "stream":
                metrics, signalled = loop.run(workload), False
            else:
                metrics, signalled = _serve(
                    loop, workload, duration, install_signal_handlers
                )
        except KeyboardInterrupt:
            # Partial summary instead of a traceback: the metrics hold
            # every batch that finished before the interrupt, and the
            # run copied the admission ledger on its way out.
            metrics, signalled = loop.metrics, True
        wall = time.perf_counter() - t0
    report = RunReport(
        metrics,
        interrupted=signalled if driver == "stream" else metrics.interrupted,
        signalled=signalled,
        recorder=recorder,
        wall_seconds=wall,
    )
    if driver == "serve":
        from ..audit.oracle import diff_stream_state

        report.completed = loop.completed
        report.divergence = diff_stream_state(
            engine.coordinator, loop.completed, table_size=table_size,
            n_cells=n_cells, key_space=key_space,
        )
        report.state_fingerprint = engine.coordinator.state_fingerprint()
    for t in tenants or ():
        # A FIFO run has no QoSPolicy on the queue, but the tenant table
        # and the fairness index still need the configured weights and
        # budgets, so they compare with --qos runs.
        metrics.tenant_weights.setdefault(t.name, t.share)
        if math.isfinite(t.slo):
            metrics.tenant_slos.setdefault(t.name, t.slo)
    if recorder is not None:
        recorder.flush()
    return report


def _serve(frontend, workload, duration, install_signal_handlers):
    """Run ``frontend`` under asyncio with SIGINT/SIGTERM wired to
    :meth:`ServeFrontend.request_stop`; returns ``(metrics, signalled)``."""
    signalled = False

    def on_signal() -> None:
        nonlocal signalled
        signalled = True
        frontend.request_stop()

    async def main() -> ServeMetrics:
        loop = asyncio.get_running_loop()
        installed: List[int] = []
        if install_signal_handlers:
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, on_signal)
                    installed.append(sig)
                except (NotImplementedError, RuntimeError):
                    pass  # non-unix loop; Ctrl-C falls back to KI
        try:
            return await frontend.run(workload, duration=duration)
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)

    try:
        metrics = asyncio.run(main())
    except KeyboardInterrupt:
        # Non-unix fallback: the loop died under us; report what
        # completed before the interrupt (``run`` copied the admission
        # ledger on its way out; shutdown drains the state).
        signalled = True
        metrics = frontend.metrics
        metrics.interrupted = True
    return metrics, signalled
