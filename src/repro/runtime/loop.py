"""One micro-batch loop, driven on two clocks.

Kanada's method is one loop: run an FOL round over the lanes at hand,
then send the filtered lanes round again (§3.2).  The runtime defers
those lanes to the next micro-batch, so every iteration admits, waits
for its release, forms a batch with the carried lanes first, executes
it and retires it.  :class:`BatchLoop` is the part that does not depend
on the clock: the release rule, batch formation, retirement, the batch
index and the recorder wiring.  Its drivers add admission, a clock, the
call into their engine and their own per-batch record —
:class:`~repro.runtime.service.StreamService` on simulated cycles and
:class:`~repro.serve.frontend.ServeFrontend` under asyncio on the wall
clock.
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import ReproError
from .batcher import BatchPolicy
from .carryover import CarryoverBuffer
from .queue import BoundedQueue, Request


class BatchLoop:
    """Release rule, batch formation and retirement over one queue.

    ``linger`` bounds how long the oldest queued request waits for a
    fuller batch, in the driver's clock unit (cycles or seconds);
    ``math.inf`` waits until the batch fills or no more work can
    arrive.  ``metrics`` is the driver's metrics facade.
    """

    def __init__(
        self, batcher: BatchPolicy, queue: BoundedQueue, metrics, linger: float
    ) -> None:
        if linger < 0:
            raise ReproError(f"linger must be non-negative, got {linger}")
        self.batcher = batcher
        self.queue = queue
        self.metrics = metrics
        self.linger = linger
        self.carry = CarryoverBuffer()
        self.recorder = None
        self.batch_index = 0  # index of the next batch to retire

    def attach_recorder(self, recorder) -> None:
        """Attach a lifecycle-span recorder (see
        :class:`repro.obs.events.TraceRecorder`) — or detach with
        ``None``.  Wires the queue's admission observer, the migration
        controller's step observer (sharded engines) and the metrics
        summary's stage breakdown.  The recorder is passive: batching,
        execution and cycle accounting are the same without it."""
        self.recorder = recorder
        self.queue.observer = recorder
        self.metrics.trace_recorder = recorder
        controller = self.migration_controller()
        if controller is not None:
            controller.observer = recorder

    def migration_controller(self):
        """The engine's live-migration controller, or None."""
        return None

    def release_at(self, now: float, filling: bool) -> float:
        """When the next batch launches; a time ``<= now`` means now.

        A full batch launches now, and so does any batch when nothing
        more can join it (``filling`` is False: arrivals are over, or the
        producer is blocked on the full queue).  Otherwise the batch
        waits until the oldest queued request has lingered ``linger``,
        but not past the soonest queued SLO deadline.  Carried lanes
        with nothing queued count from ``now``, so under a positive
        linger they wait for an arrival."""
        ready = self.carry.depth + self.queue.depth
        if not filling or ready >= self.batcher.target_size():
            return now
        oldest = self.queue.oldest_enqueued()
        release = (now if oldest is None else oldest) + self.linger
        deadline = self.queue.earliest_deadline()
        return release if deadline is None else min(release, deadline)

    def form_batch(self) -> Tuple[List[Request], int, int]:
        """Carried lanes first (the oldest of each conflict group), then
        queued requests up to the policy's target.  Returns the batch,
        how many of its lanes were carried, and the queue depth left."""
        carried = self.carry.drain_ready()
        take = max(0, self.batcher.target_size() - len(carried))
        batch = carried + self.queue.take(take)
        return batch, len(carried), self.queue.depth

    def retire(self, batch, carried_in, result, t_launch, t_end) -> None:
        """Stamp the batch's completions at ``t_end``, carry its filtered
        lanes to the next batch, trace it and feed the policy.  The
        driver appends its own per-batch record first."""
        for req in result.completed:
            req.completed = t_end
            self.metrics.record_completion(req.latency, tenant=req.tenant)
        self.carry.put(result.carried)
        if self.recorder is not None:
            self.recorder.record_batch(
                self.batch_index, batch, result, t_launch, t_end
            )
        self.batcher.observe(
            len(batch),
            result.rounds,
            result.multiplicity,
            result.filtered,
            carried=carried_in,
        )
        self.batch_index += 1
