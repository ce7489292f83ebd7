"""The ``"xfer"`` kind: atomic two-cell transfers — the L = 2 FOL* case.

Moves ``delta`` from cell ``key`` to cell ``key2``.  Each unit process
rewrites a *tuple* of two storage areas, so filtering is FOL* (§3.3),
not FOL1: a tuple completes only when both of its labels survive, and
each round's last tuple is written with scalar stores so the round
cannot deadlock.

The kind owns no state — it rides the ``"list"`` cell bank
(:mod:`repro.engine.kinds.cells`) and routes both of its cells through
the same domain.  When the two cells have different owners the router
emits a cross-shard unit, resolved by the coordinator's two-phase
claim/commit: claim rounds repeat inside the exchange until every unit
has won, so a cross-shard transfer is never carried.
:meth:`XferSpec.commit_cross` turns each winning unit into word
additions on both owners' cells, which the coordinator sends to the
owners.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ...backend.plan import FolPlan
from ...errors import ReproError
from ..spec import EngineContext, WorkloadSpec, register
from .cells import cell_car_addrs


class XferSpec(WorkloadSpec):
    name = "xfer"
    arity = 2
    domain = "list"
    description = "move delta atomically between two shared list cells"

    # -- request construction and validation ---------------------------
    def validate(self, req) -> None:
        if req.key2 < 0:
            raise ReproError(
                f"{self.name} request {req.rid} needs a non-negative key2, "
                f"got {req.key2}"
            )

    def make_request(self, rid, key, key2, delta, arrival, ctx):
        from ...runtime.queue import Request

        return Request(
            rid=rid, kind=self.name, key=key % ctx.n_cells,
            key2=key2 % ctx.n_cells, delta=delta, arrival=arrival,
        )

    def fuzz_request(self, rid, key, ctx):
        from ...runtime.queue import Request

        return Request(
            rid=rid, kind=self.name, key=key % ctx.n_cells,
            key2=(key * 7 + rid) % ctx.n_cells, delta=1 + key % 5,
        )

    # -- execution ------------------------------------------------------
    def plan(self, executor, reqs: List) -> FolPlan:
        src_addrs = cell_car_addrs(
            executor, [r.key for r in reqs], f"{self.name} source"
        )
        dst_addrs = cell_car_addrs(
            executor, [r.key2 for r in reqs], f"{self.name} target"
        )
        deltas = np.asarray([r.delta for r in reqs], dtype=np.int64)

        # Self-transfers (key == key2) are net no-ops and internally
        # duplicated tuples in the §3.3 sense; retire them up front.
        loop_idx = [i for i, r in enumerate(reqs) if r.key == r.key2]
        live_idx = np.asarray(
            [i for i, r in enumerate(reqs) if r.key != r.key2], dtype=np.int64
        )

        # Atoms are sign-tagged negated: value -= d is word += d and
        # value += d is word -= d.  Gathers/scatters run sequentially
        # per round, so read-modify-write per parallel-processable set
        # is safe (no two tuples in a set share a cell).
        def apply(ops, live_positions: np.ndarray) -> None:
            positions = live_idx[live_positions]
            if positions.size == 0:
                return
            a_src = src_addrs[positions]
            a_dst = dst_addrs[positions]
            d = deltas[positions]
            ops.scatter(a_src, ops.add(ops.gather(a_src), d), policy=executor.policy)
            ops.scatter(a_dst, ops.sub(ops.gather(a_dst), d), policy=executor.policy)

        return FolPlan(
            kind=self.name,
            arity=2,
            policy=executor.policy,
            work_offset=executor.cells.work_offset,
            addrs=[src_addrs[live_idx], dst_addrs[live_idx]],
            commit=apply,
            group_of=lambda i: int(src_addrs[i]),
            measure=np.concatenate([src_addrs, dst_addrs]),
            live=live_idx,
            precompleted=loop_idx,
        )

    # -- routing --------------------------------------------------------
    def route_indices(self, req, fold):
        return (fold(req.key), fold(req.key2))

    # -- cross-shard claim/commit ---------------------------------------
    def commit_cross(self, coordinator, unit):
        """One winning cross-shard transfer as word additions on both
        owners' cells (value -= delta at source, += delta at
        destination).  The cell words hold sign-tagged negated atoms,
        so value moves are word moves with flipped sign."""
        d = unit.request.delta
        src = coordinator.workers[unit.src_shard].cell_addr(unit.src_index)
        dst = coordinator.workers[unit.dst_shard].cell_addr(unit.dst_index)
        return ((unit.src_shard, src, d), (unit.dst_shard, dst, -d))

    # -- differential oracle --------------------------------------------
    def cell_deltas(self, req):
        return ((req.key, -req.delta), (req.key2, req.delta))

    # oracle_diff stays None: the cell bank's owner (the "list" spec)
    # folds this kind's cell_deltas into its bank-wide diff.


register(XferSpec())
