"""Batch routing: split each micro-batch by owning shard.

The router turns one micro-batch into K shard-local sub-batches plus a
(usually short) list of **cross-shard units** — ``"xfer"`` tuples whose
two cells live on different owners.  Everything else is single-address
and lands wholly inside one shard, which is the point of
owner-computes: the FOL rounds a shard runs over its sub-batch touch
only addresses it owns, so no two shards can conflict and the rounds
run concurrently.

Routing is spec-driven (:mod:`repro.engine`): each request kind's
:class:`~repro.engine.spec.WorkloadSpec` names its routing domain and
maps the request to the domain indices its unit process touches
(:meth:`~repro.engine.spec.WorkloadSpec.route_indices`).  A request
whose indices share one owner is shard-local; an arity-2 request whose
two indices have different owners becomes a :class:`CrossUnit`,
resolved by the coordinator's two-phase claim/commit (see
:meth:`Router.resolve_claims` and ``docs/sharding.md`` §3).

Carried lanes hold no shard-resident state (their ``group`` is a
layout address, identical across the uniformly-built workers), so they
re-route freely by ownership.

When a :class:`~repro.shard.migration.MigrationController` is attached
(:attr:`Router.controller`), a request routed to a bin that is
mid-handoff is **parked**: returned in the split's third list instead
of any shard's sub-batch.  Parked lanes ride the carryover path and
re-enter the next micro-batch, replaying on the new owner once the bin
flips.  Parking happens *before* the claim phase ever sees the
request, so an in-flight bin can never acquire — or lose — a
cross-shard claim mid-transfer.

The claim phase runs in rounds, each first-come over the cells of the
cross units still pending: of the units competing for a cell, the
earliest in batch order wins both of its claims and the rest retry in
the next round — the same one-winner-per-address-per-round discipline
FOL's filtering gives shard-local lanes.  Rounds repeat inside the
exchange until every unit has won, so no cross unit is carried and
each is routed once.  Claim/commit cycles are charged from the
:class:`~repro.machine.cost_model.CostModel`'s ``shard_claim_rtt`` (one
per claim round plus one for the commit) and
``shard_transfer_per_word`` fields by the coordinator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..engine.spec import get_spec
from ..errors import ReproError
from ..runtime.queue import Request
from .partition import PartitionMap


@dataclass
class CrossUnit:
    """An arity-2 tuple whose two indices have different owners."""

    request: Request
    src_index: int  # domain index of ``key``
    dst_index: int  # domain index of ``key2``
    src_shard: int
    dst_shard: int


class Router:
    """Splits micro-batches by owner and resolves cross-shard claims."""

    def __init__(self, partition: PartitionMap) -> None:
        self.partition = partition
        self.shards = partition.shards
        self.controller = None  # optional MigrationController (parking)
        self.cross_routed = 0
        self.parked_total = 0

    # ------------------------------------------------------------------
    def split(
        self, batch: Sequence[Request]
    ) -> Tuple[List[List[Request]], List[CrossUnit], List[Request]]:
        """Partition ``batch`` into per-shard sub-batches (batch order
        preserved within each shard), the cross-shard units, and the
        requests parked because their bin is mid-handoff."""
        per_shard: List[List[Request]] = [[] for _ in range(self.shards)]
        cross: List[CrossUnit] = []
        parked: List[Request] = []
        ctl = self.controller
        for req in batch:
            spec = get_spec(req.kind)
            table = self.partition.domain(spec.domain)
            indices = spec.route_indices(req, table.fold)
            for idx in indices:  # traffic counts feed the rebalancer
                table.record(idx, tenant=req.tenant or None)
            if ctl is not None and ctl.pending and any(
                ctl.in_flight(spec.domain, idx) for idx in indices
            ):
                if req.group < 0:
                    # A unique group keeps parked lanes from serialising
                    # through the carryover buffer's one-per-group gate.
                    req.group = -(2 + req.rid)
                parked.append(req)
                self.parked_total += 1
                ctl.note_parked()
                continue
            owners = [table.owner_of(idx) for idx in indices]
            if len(set(owners)) == 1:
                per_shard[owners[0]].append(req)
            elif len(indices) == 2:
                self.cross_routed += 1
                cross.append(
                    CrossUnit(req, indices[0], indices[1], owners[0], owners[1])
                )
            else:  # pragma: no cover - no arity > 2 kinds registered
                raise ReproError(
                    f"router cannot place arity-{len(indices)} request "
                    f"kind {req.kind!r} spanning shards {sorted(set(owners))}"
                )
        return per_shard, cross, parked

    # ------------------------------------------------------------------
    def resolve_claims(
        self, cross: Sequence[CrossUnit]
    ) -> Tuple[List[CrossUnit], int]:
        """Phase one of the cross-shard exchange: first-come claim
        rounds over the batch's cross-unit cells until every unit has
        won.  Returns ``(winners, rounds)``: every unit, in the order it
        won (round by round, batch order within a round), and the number
        of claim rounds run."""
        winners: List[CrossUnit] = []
        pending = list(cross)
        rounds = 0
        while pending:
            rounds += 1
            taken: set = set()
            losers: List[CrossUnit] = []
            for unit in pending:
                if unit.src_index in taken or unit.dst_index in taken:
                    losers.append(unit)
                else:
                    taken.add(unit.src_index)
                    taken.add(unit.dst_index)
                    winners.append(unit)
            pending = losers
        return winners, rounds
