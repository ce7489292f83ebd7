"""Live bin migration: pacing, pending-request buffering, handoff.

The :class:`~repro.shard.rebalance.Rebalancer` decides *which* bins
should move; this module decides *how fast* they move and keeps the
owner-computes discipline intact while they are in flight.  The
controller sits between the planner and the
:class:`~repro.shard.coordinator.ShardCoordinator`, the one mover for
both kinds of shard (in-process workers and the serving layer's
process shards), and drives one **mover** callback per domain index:

    ``mover.migrate_index(domain, src, dst, index) -> words | None``

The mover performs the physical, address-preserving state transfer
(chain re-link, cell delta fold, or nothing for route-only domains)
and returns the words shipped, or ``None`` when the destination
refused (a full node arena), which aborts the bin's transfer.  Every
intermediate state is merge-correct — global chains are per-slot
multiset unions and cells are sums over shards, so a half-moved bin
never corrupts the merged view — but the routing flip
(:meth:`~repro.shard.partition.RoutingTable.move_bin`) happens only
once the whole bin has landed.

**Pending-request buffering**: while a bin is in flight, requests
routed to it are *parked* instead of executed (the router asks
:meth:`MigrationController.in_flight` per routed index).  Parked lanes
ride the carryover path — they re-enter the next micro-batch, get
parked again if the bin is still moving, and replay on the new owner
once it flips.  That preserves both the single-writer discipline (no
lane ever executes against a bin whose state is split mid-transfer)
and claim/commit correctness: a cross-shard tuple touching an
in-flight bin is parked *before* the claim phase, so there is no claim
to drop or double-apply across the handoff.

Two pacing strategies (CLI ``--migration``), per inter-batch gap; both
move whole bins:

* ``all-at-once`` — every planned bin transfers completely in the gap
  it was planned; maximum reconfiguration spike, minimum time-to-home.
* ``batched`` — at most ``bins_per_gap`` whole bins per gap; later
  bins stay queued (and their requests parked) until their turn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..errors import ReproError
from .partition import PartitionMap
from .rebalance import Migration

#: Pacing strategies understood by :class:`MigrationController`
#: (the CLI ``--migration`` choices).
PACING_STRATEGIES = ("all-at-once", "batched")


@dataclass
class BinTransfer:
    """One bin's in-flight transfer: the plan plus the bin's indices."""

    move: Migration
    indices: List[int]  # domain indices the bin held when admitted

    @property
    def key(self) -> Tuple[str, int]:
        return (self.move.domain, self.move.bin)


@dataclass
class StepReport:
    """What one inter-batch migration step did (the cycle-charge input)."""

    words: int = 0  # state words shipped this gap
    rtts: int = 0  # control round trips (bins engaged this gap)
    completed: int = 0  # bins that finished and flipped ownership
    skipped: int = 0  # bins aborted (destination refused)
    flipped: List[BinTransfer] = field(default_factory=list)


class MigrationController:
    """Paces planned bin moves across inter-batch gaps and tracks which
    bins are in flight (the router's parking signal)."""

    def __init__(
        self,
        partition: PartitionMap,
        *,
        strategy: str = "all-at-once",
        bins_per_gap: int = 2,
    ) -> None:
        if strategy not in PACING_STRATEGIES:
            raise ReproError(
                f"unknown migration strategy {strategy!r}; "
                f"expected one of {PACING_STRATEGIES}"
            )
        if bins_per_gap <= 0:
            raise ReproError(
                f"bins per gap must be positive, got {bins_per_gap}"
            )
        self.partition = partition
        self.strategy = strategy
        self.bins_per_gap = bins_per_gap
        self._queue: List[BinTransfer] = []
        self._in_flight: Dict[Tuple[str, int], BinTransfer] = {}
        self.bins_admitted = 0
        self.bins_completed = 0
        self.bins_skipped = 0
        self.parked_requests = 0
        #: Optional lifecycle-trace recorder (see repro.obs.events);
        #: notified after every step that engaged at least one bin.
        self.observer = None

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Bins admitted but not yet flipped or aborted."""
        return len(self._in_flight)

    def in_flight(self, domain: str, index: int) -> bool:
        """True when the bin owning this domain index is mid-handoff
        (the router parks requests that route to it)."""
        if not self._in_flight:
            return False
        table = self.partition.domain(domain)
        return (domain, int(table.bin_of[index])) in self._in_flight

    def note_parked(self, n: int = 1) -> None:
        self.parked_requests += n

    # ------------------------------------------------------------------
    def admit(self, moves: Sequence[Migration]) -> None:
        """Queue freshly planned bin moves.  A bin already in flight, or
        one whose owner changed since the plan, is dropped (stale)."""
        for mv in moves:
            key = (mv.domain, mv.bin)
            if key in self._in_flight:
                continue
            table = self.partition.domain(mv.domain)
            if table.bin_owner_of(mv.bin) != mv.src:
                continue  # stale plan; ownership moved under the planner
            indices = [int(i) for i in table.indices_in_bin(mv.bin)]
            transfer = BinTransfer(mv, indices)
            self._queue.append(transfer)
            self._in_flight[key] = transfer
            self.bins_admitted += 1

    # ------------------------------------------------------------------
    def step(self, mover) -> StepReport:
        """Advance the queued transfers by one inter-batch gap under the
        configured pacing; flips each bin's routing the moment its last
        index lands.  Always makes progress when anything is queued, so
        parked requests are never stranded."""
        report = StepReport()
        if not self._queue:
            return report
        queue = self._queue
        budget = self.bins_per_gap if self.strategy == "batched" else len(queue)
        # Bins past the budget stay queued, in FIFO order.
        engaged, self._queue = queue[:budget], queue[budget:]
        for transfer in engaged:
            mv = transfer.move
            report.rtts += 1  # one control round trip per bin engaged
            refused = False
            for idx in transfer.indices:
                words = mover.migrate_index(mv.domain, mv.src, mv.dst, idx)
                if words is None:
                    refused = True
                    break
                report.words += int(words)
            del self._in_flight[transfer.key]
            if refused:
                # The bin stays with its source; indices already shipped
                # stay merge-correct where they landed.
                report.skipped += 1
                self.bins_skipped += 1
                continue
            self.partition.domain(mv.domain).move_bin(mv.bin, mv.dst)
            report.completed += 1
            report.flipped.append(transfer)
            self.bins_completed += 1
        if self.observer is not None:
            self.observer.migration_step(report)
        return report
