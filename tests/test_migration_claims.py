"""Migration ∩ two-phase claim/commit: a bin handoff racing an
in-flight cross-shard FOL* transfer must neither drop nor double-apply
the claim.

The hazard: an ``"xfer"`` tuple routed to a bin that is mid-handoff.
If it executed against the moving bin, its claim could land on the old
owner while the state lands on the new one (a dropped update), or
replay against both (a double-apply).  The engine's defence is
*parking* — the router diverts any request touching an in-flight bin
onto the carryover path *before* the claim phase sees it, and the lane
replays on the new owner once the bin flips.  These tests drive that
window deterministically:

* batched pacing with ``bins_per_gap=1`` and two admitted bins holds
  the xfer's source bin in flight, queued behind its destination bin,
  across two micro-batches while the xfer keeps arriving (parked,
  parked, replayed as a cross-shard claim on the new owners);
* cross-shard xfers contending on one cell commit in one exchange
  (each wins its own claim round, so no claim loser is carried); then
  the bin holding one of their cells flips, and a later xfer on the
  moved cell parks through the handoff and applies exactly once on the
  new owner;
* every race runs over both kinds of shard: in-process workers and
  worker processes behind a :class:`ProcessCluster`, where the same
  coordinator sends each migration step (query/export/import) and
  each commit to the owning process as a message.

Every test closes by checking the merged state against one-shot FOL1
on a single pipeline (the equivalence oracle), so exactly-once is
verified on the *values*, not just the completion counts.
"""

import pytest

from repro.audit.oracle import diff_stream_state
from repro.machine import CostModel
from repro.runtime import Request, StreamExecutor
from repro.serve import ProcessCluster
from repro.shard import (
    Migration,
    MigrationController,
    ShardCoordinator,
)

FREE = CostModel.free()
TABLE_SIZE = 11
N_CELLS = 8
KEY_SPACE = 13
SHARDS = 2
BINS = 2  # 2 bins over 8 cells -> 4 cells per bin
#: K=2 engine with migration under manual control: the rebalancer's
#: threshold is unreachable, so no bin moves unless a test admits one.
ENGINE = dict(
    shards=SHARDS,
    partitioner="hash",  # no-kind-lint
    rebalance=True,
    rebalance_threshold=1e9,
    table_size=TABLE_SIZE,
    n_cells=N_CELLS,
    key_space=KEY_SPACE,
    bins=BINS,
)


def fresh(requests):
    """Re-materialise requests (execution mutates group/home/arrival)."""
    return [
        Request(rid=r.rid, kind=r.kind, key=r.key, key2=r.key2,
                delta=r.delta)
        for r in requests
    ]


def oracle_clean(coord, applied):
    """The merged end state matches the scalar oracle over ``applied``."""
    return diff_stream_state(
        coord, applied,
        table_size=TABLE_SIZE, n_cells=N_CELLS, key_space=KEY_SPACE,
    ) is None


def one_shot_state(requests):
    """Reference: the stream as one batch of in-batch-retry FOL1."""
    reqs = fresh(requests)
    executor = StreamExecutor.for_workload(
        reqs, table_size=TABLE_SIZE, n_cells=N_CELLS,
        carryover=False, cost_model=FREE,
    )
    result = executor.execute(reqs)
    assert not result.carried
    chains = {
        slot: sorted(executor.table.chain(slot))
        for slot in range(TABLE_SIZE)
        if executor.table.chain(slot)
    }
    return chains, executor.list_values()


PRIME = [
    Request(rid=100 + c, kind="list", key=c, delta=10)
    for c in range(N_CELLS)
]
FILLERS = [Request(rid=200 + i, kind="hash", key=i, delta=1)
           for i in range(8)]


class _Races:
    """Each race is one body, run once per kind of shard (the two
    subclasses below)."""

    processes = False

    @pytest.fixture(autouse=True)
    def _shutdown_clusters(self):
        self.clusters = []
        yield
        for cluster in self.clusters:
            cluster.shutdown()

    def build(self, all_requests, **pacing):
        """The K=2 coordinator over this class's kind of shard, with a
        fresh controller under the requested pacing."""
        if self.processes:
            cluster = ProcessCluster.for_workload(
                fresh(all_requests), backend="native", **ENGINE
            )
            self.clusters.append(cluster)
            coord = cluster.coordinator
        else:
            coord = ShardCoordinator.for_workload(
                fresh(all_requests), cost_model=FREE, **ENGINE
            )
        ctl = MigrationController(coord.router.partition, **pacing)
        coord.controller = ctl
        coord.router.controller = ctl
        return coord, ctl

    def test_xfer_parked_through_handoff_applies_once(self):
        """An xfer arriving while its source cell's bin is queued behind
        its destination cell's bin parks (never claims), keeps parking
        until its source bin's turn, and applies exactly once on the new
        owners after both flips."""
        xfer = Request(rid=0, kind="xfer", key=0, key2=1, delta=3)
        coord, ctl = self.build(
            PRIME + FILLERS + [xfer], strategy="batched", bins_per_gap=1
        )
        applied = []

        r = coord.execute(fresh(PRIME))
        applied.extend(r.completed)
        assert len(r.completed) == len(PRIME)

        # Bin 0 of the list domain = cells {0, 2, 4, 6}, owned by shard
        # 0 under the 2-bin hash layout, and bin 1 = cells {1, 3, 5, 7},
        # owned by shard 1.  One bin moves per gap: the destination
        # cell's bin 1 first, then the source cell's bin 0.
        table = coord.router.partition.domain("list")
        assert sorted(table.indices_in_bin(0)) == [0, 2, 4, 6]
        assert table.bin_owner_of(0) == 0 and table.bin_owner_of(1) == 1
        ctl.admit([
            Migration("list", 1, 1, 0, 1.0),
            Migration("list", 0, 0, 1, 1.0),
        ])
        assert ctl.pending == 2

        live = fresh([xfer])
        fillers = fresh(FILLERS)
        r = coord.execute(live + fillers[:2])
        applied.extend(r.completed)
        # Parked, not claimed: the xfer rode the carryover path and the
        # cells are untouched while its bin waits for its turn.
        assert r.parked == 1
        assert live[0] in r.carried
        assert live[0] not in r.completed
        assert coord.list_values()[0] == 10 and coord.list_values()[1] == 10
        assert ctl.pending == 1  # bin 1 moved, bin 0 waits its turn
        assert table.bin_owner_of(1) == 0 and table.bin_owner_of(0) == 0

        # Re-offering the parked lane before its bin flips parks it
        # again — it can never slip in mid-handoff.
        r = coord.execute([live[0], fillers[2]])
        applied.extend(r.completed)
        assert r.parked == 1 and live[0] not in r.completed
        assert ctl.pending == 0
        assert table.bin_owner_of(0) == 1
        assert ctl.parked_requests == 2

        # Replay on the new owners: the cells swapped shards, so the
        # transfer is cross-shard, wins its claim and must commit.
        r = coord.execute([live[0]])
        applied.extend(r.completed)
        assert live[0] in r.completed
        assert r.cross_committed == (xfer.rid,)

        rids = [req.rid for req in applied]
        assert sorted(rids) == sorted(set(rids)), "a lane applied twice"
        assert xfer.rid in rids
        assert oracle_clean(coord, applied)
        chains, cells = one_shot_state(applied)
        assert coord.chain_multisets() == chains
        assert coord.list_values() == cells
        assert cells[0] == 7 and cells[1] == 13

    def test_contended_claims_commit_before_flip(self):
        """Two cross-shard xfers contending on one cell both commit in
        one exchange (two claim rounds).  Then the bin holding one of
        their cells flips owner, and a later xfer on the moved cell
        parks during the handoff and applies exactly once on the new
        owner."""
        xfer_a = Request(rid=0, kind="xfer", key=0, key2=1, delta=3)
        xfer_b = Request(rid=1, kind="xfer", key=1, key2=2, delta=5)
        xfer_c = Request(rid=2, kind="xfer", key=2, key2=1, delta=4)
        coord, ctl = self.build(
            PRIME + FILLERS + [xfer_a, xfer_b, xfer_c],
            strategy="all-at-once",
        )
        applied = []

        r = coord.execute(fresh(PRIME))
        applied.extend(r.completed)

        # Both xfers are cross-shard and contend on cell 1: A (earlier
        # in batch order) wins the first claim round, B the second, and
        # both commit in this exchange.
        live_a, live_b, live_c = fresh([xfer_a, xfer_b, xfer_c])
        r = coord.execute([live_a, live_b])
        applied.extend(r.completed)
        assert r.completed == [live_a, live_b]
        assert r.carried == []
        assert r.cross_committed == (xfer_a.rid, xfer_b.rid)
        assert coord.total_cross == 2
        values = coord.list_values()
        assert values[0] == 7 and values[1] == 8 and values[2] == 15

        # Flip the bin holding cell 2 (B's destination, C's source)
        # while C arrives: C parks and the whole bin lands in that gap.
        table = coord.router.partition.domain("list")
        assert table.bin_owner_of(0) == 0
        ctl.admit([Migration("list", 0, 0, 1, 1.0)])
        r = coord.execute([live_c] + fresh(FILLERS)[:1])
        applied.extend(r.completed)
        assert r.parked == 1 and live_c in r.carried
        assert ctl.pending == 0
        assert table.bin_owner_of(0) == 1
        assert coord.workers[0].cell_values()[2] == 0
        assert coord.workers[1].cell_values()[2] == 15

        # Both of C's cells are now shard 1's: it replays shard-local
        # there and applies once.
        r = coord.execute([live_c])
        applied.extend(r.completed)
        assert r.completed == [live_c] and r.cross_committed == ()
        assert coord.total_cross == 2
        assert coord.workers[1].cell_values()[2] == 11

        rids = [req.rid for req in applied]
        assert sorted(rids) == sorted(set(rids)), "a lane applied twice"
        assert oracle_clean(coord, applied)
        chains, cells = one_shot_state(applied)
        assert coord.chain_multisets() == chains
        assert coord.list_values() == cells
        assert cells[0] == 7 and cells[1] == 12 and cells[2] == 11

    @pytest.mark.parametrize("strategy", ["all-at-once", "batched"])
    def test_whole_bin_strategies_flip_within_one_gap(self, strategy):
        """all-at-once and batched move whole bins per gap, so a parked
        xfer replays successfully on the very next batch."""
        xfer = Request(rid=0, kind="xfer", key=0, key2=1, delta=3)
        coord, ctl = self.build(
            PRIME + FILLERS + [xfer], strategy=strategy
        )
        applied = []
        r = coord.execute(fresh(PRIME))
        applied.extend(r.completed)
        ctl.admit([Migration("list", 0, 0, 1, 1.0)])
        live = fresh([xfer])[0]
        r = coord.execute([live] + fresh(FILLERS)[:1])
        applied.extend(r.completed)
        assert r.parked == 1 and ctl.pending == 0
        r = coord.execute([live])
        applied.extend(r.completed)
        assert live in r.completed
        chains, cells = one_shot_state(applied)
        assert coord.chain_multisets() == chains
        assert coord.list_values() == cells


class TestInProcessRaces(_Races):
    """The races over in-process workers."""


class TestProcessClusterRaces(_Races):
    """The same races over real OS processes: the coordinator's mover
    ships bin state through the mp-queue migration protocol (query room
    → export → import) and commits as word-addition messages, while
    requests park on the parent's router exactly as in-process."""

    processes = True
