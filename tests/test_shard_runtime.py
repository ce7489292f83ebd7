"""Unit tests for the sharded engine's pieces: partitioners and routing
tables, the batch router and its two-phase claim resolution, worker
migration primitives, rebalance planning, coordinator cost accounting,
and the FOL* ``"xfer"`` request kind in the single-pipeline executor."""

import numpy as np
import pytest

from repro.errors import DeadlockError, ReproError
from repro.machine import CostModel, make_machine
from repro.runtime import (
    FixedBatcher,
    Request,
    StreamExecutor,
    StreamService,
    closed_loop_workload,
    tuple_round,
)
from repro.runtime.metrics import BatchRecord
from repro.shard import (
    Migration,
    MigrationController,
    PartitionMap,
    Rebalancer,
    Router,
    RoutingTable,
    ShardCoordinator,
    ShardWorker,
    hash_partition,
    make_partition_map,
    range_partition,
)

FREE = CostModel.free()


# ----------------------------------------------------------------------
# partitioners and routing tables
# ----------------------------------------------------------------------
class TestPartitioners:
    def test_hash_partition_interleaves(self):
        owners = hash_partition(10, 3)
        assert owners.tolist() == [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]

    def test_range_partition_contiguous_and_balanced(self):
        owners = range_partition(10, 3)
        assert owners.tolist() == [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]
        # every shard covered, sizes within one of each other
        counts = np.bincount(owners, minlength=3)
        assert counts.max() - counts.min() <= 1

    @pytest.mark.parametrize("fn", [hash_partition, range_partition])
    def test_every_index_owned(self, fn):
        owners = fn(23, 4)
        assert owners.size == 23
        assert set(owners.tolist()) == {0, 1, 2, 3}

    @pytest.mark.parametrize("fn", [hash_partition, range_partition])
    def test_bad_args_raise(self, fn):
        with pytest.raises(ReproError):
            fn(0, 2)
        with pytest.raises(ReproError):
            fn(5, 0)

    def test_more_shards_than_indices(self):
        owners = range_partition(2, 5)
        assert owners.size == 2
        assert owners.max() < 5


class TestRoutingTable:
    def test_move_retargets_and_counts(self):
        table = RoutingTable(hash_partition(8, 2), 2)
        assert table.owner_of(3) == 1
        old = table.move(3, 0)
        assert old == 1
        assert table.owner_of(3) == 0
        assert table.moves == 1
        table.move(3, 0)  # no-op move does not count
        assert table.moves == 1

    def test_move_to_unknown_shard_raises(self):
        table = RoutingTable(hash_partition(8, 2), 2)
        with pytest.raises(ReproError):
            table.move(0, 5)

    def test_owner_array_validated(self):
        with pytest.raises(ReproError):
            RoutingTable(np.array([0, 3], dtype=np.int64), 2)

    def test_traffic_decay_and_shard_load(self):
        table = RoutingTable(range_partition(4, 2), 2)
        table.record(0, 4.0)
        table.record(3, 2.0)
        assert table.shard_load().tolist() == [4.0, 2.0]
        table.decay(0.5)
        assert table.shard_load().tolist() == [2.0, 1.0]

    def test_fold_handles_out_of_range_keys(self):
        table = RoutingTable(hash_partition(7, 2), 2)
        assert table.fold(7) == 0
        assert table.fold(13) == 6

    def test_make_partition_map_rejects_unknown(self):
        with pytest.raises(ReproError):
            make_partition_map("round-robin", 2, table_size=7,
                               n_cells=4, key_space=8)

    def test_partition_map_domains(self):
        pm = make_partition_map("range", 3, table_size=9, n_cells=6,
                                key_space=12)
        assert pm.domain("hash").size == 9
        assert pm.domain("list").size == 6
        assert pm.domain("bst").size == 12
        with pytest.raises(ReproError):
            pm.domain("tree")


# ----------------------------------------------------------------------
# router
# ----------------------------------------------------------------------
def two_shard_router():
    pm = make_partition_map("range", 2, table_size=8, n_cells=8, key_space=8)
    return Router(pm)


class TestRouter:
    def test_single_address_kinds_follow_owner(self):
        router = two_shard_router()
        batch = [
            Request(rid=0, kind="hash", key=1),   # slot 1 -> shard 0
            Request(rid=1, kind="hash", key=13),  # slot 5 -> shard 1
            Request(rid=2, kind="list", key=6),   # cell 6 -> shard 1
            Request(rid=3, kind="bst", key=2),    # residue 2 -> shard 0
        ]
        per_shard, cross, _ = router.split(batch)
        assert [r.rid for r in per_shard[0]] == [0, 3]
        assert [r.rid for r in per_shard[1]] == [1, 2]
        assert cross == []

    def test_xfer_same_owner_stays_local(self):
        router = two_shard_router()
        per_shard, cross, _ = router.split(
            [Request(rid=0, kind="xfer", key=0, key2=3)]
        )
        assert len(per_shard[0]) == 1 and not cross

    def test_xfer_cross_owner_detected(self):
        router = two_shard_router()
        per_shard, cross, _ = router.split(
            [Request(rid=0, kind="xfer", key=0, key2=7)]
        )
        assert not per_shard[0] and not per_shard[1]
        assert len(cross) == 1
        assert (cross[0].src_shard, cross[0].dst_shard) == (0, 1)

    def test_carried_hash_lane_reroutes_freely(self):
        router = two_shard_router()
        req = Request(rid=0, kind="hash", key=1)
        per_shard, _, _ = router.split([req])
        assert per_shard[0] == [req]

    def test_resolve_claims_first_come(self):
        router = two_shard_router()
        units = [
            Request(rid=0, kind="xfer", key=0, key2=7),
            Request(rid=1, kind="xfer", key=7, key2=1),  # cell 7 taken
            Request(rid=2, kind="xfer", key=2, key2=6),
        ]
        _, cross, _ = router.split(units)
        winners, rounds = router.resolve_claims(cross)
        # Round one is first-come over all three; its one loser wins
        # round two.
        assert [u.request.rid for u in winners] == [0, 2, 1]
        assert rounds == 2


# ----------------------------------------------------------------------
# worker migration primitives
# ----------------------------------------------------------------------
def small_worker(shard_id=0, hash_capacity=16, carryover=False):
    return ShardWorker(
        shard_id,
        table_size=8,
        hash_capacity=hash_capacity,
        bst_capacity=8,
        n_cells=4,
        carryover=carryover,
        cost_model=FREE,
    )


class TestWorkerMigration:
    def test_chain_export_import_preserves_multiset(self):
        src, dst = small_worker(0), small_worker(1)
        src.execute([Request(rid=i, kind="hash", key=k)
                     for i, k in enumerate([3, 11, 19])])  # slot 3 chain
        keys = src.executor.table.chain(3)
        assert sorted(keys) == [3, 11, 19]
        moved = src.export_chain(3)
        assert src.executor.table.chain(3) == []
        dst.import_chain(3, moved)
        assert sorted(dst.executor.table.chain(3)) == [3, 11, 19]

    def test_import_prepends_to_existing_chain(self):
        src, dst = small_worker(0), small_worker(1)
        dst.execute([Request(rid=0, kind="hash", key=3)])
        dst.import_chain(3, [11, 19])
        assert sorted(dst.executor.table.chain(3)) == [3, 11, 19]

    def test_can_import_chain_respects_capacity(self):
        dst = small_worker(hash_capacity=2)
        assert dst.can_import_chain(2)
        assert not dst.can_import_chain(3)

    def test_cell_export_import_moves_value(self):
        src, dst = small_worker(0), small_worker(1)
        src.execute([Request(rid=0, kind="list", key=2, delta=5)])
        assert src.export_cell(2) == 5
        assert src.cell_values()[2] == 0
        dst.import_cell(2, 5)
        assert dst.cell_values()[2] == 5

    def test_carried_lanes_stamped_with_home(self):
        worker = small_worker(3, carryover=True)
        result = worker.execute(
            [Request(rid=i, kind="hash", key=2) for i in range(3)]
        )
        assert result.carried  # duplicates of one slot must filter


# ----------------------------------------------------------------------
# rebalancer
# ----------------------------------------------------------------------
def loaded_partition(loads):
    """2-shard range partition over 8 hash slots with given traffic."""
    pm = make_partition_map("range", 2, table_size=8, n_cells=8, key_space=8)
    for idx, weight in loads.items():
        pm.hash.record(idx, weight)
    return pm


class TestRebalancer:
    def test_balanced_load_plans_nothing(self):
        pm = loaded_partition({0: 5.0, 4: 5.0})
        assert Rebalancer(pm, cooldown=0).plan() == []

    def test_hot_shard_moves_to_cold(self):
        pm = loaded_partition({0: 6.0, 1: 6.0, 2: 6.0, 4: 1.0})
        moves = Rebalancer(pm, cooldown=0).plan()
        assert moves
        assert all(m.src == 0 and m.dst == 1 for m in moves)
        moved = sum(m.traffic for m in moves)
        assert moved <= (18.0 - 1.0) / 2  # never overshoots half the gap

    def test_single_dominant_index_not_moved(self):
        pm = loaded_partition({0: 100.0})
        assert Rebalancer(pm, cooldown=0).plan() == []

    def test_cooldown_spaces_plans(self):
        pm = loaded_partition({0: 6.0, 1: 6.0, 2: 6.0})
        reb = Rebalancer(pm, cooldown=2, decay=0.01)
        assert reb.plan()  # fires
        pm.hash.record(0, 6.0)
        pm.hash.record(1, 6.0)
        assert reb.plan() == []  # cooling down
        assert reb.plan() == []
        assert reb.plan()  # cooldown expired

    def test_plan_decays_traffic(self):
        pm = loaded_partition({0: 8.0})
        Rebalancer(pm, cooldown=0, decay=0.5).plan()
        assert pm.hash.traffic[0] == pytest.approx(4.0)

    def test_bad_config_raises(self):
        pm = loaded_partition({})
        with pytest.raises(ReproError):
            Rebalancer(pm, threshold=1.0)
        with pytest.raises(ReproError):
            Rebalancer(pm, decay=0.0)


# ----------------------------------------------------------------------
# coordinator accounting
# ----------------------------------------------------------------------
class TestCoordinator:
    def test_k1_matches_unsharded_cycles_exactly(self):
        """With one shard there is nothing to coordinate: the same batch
        must charge exactly the cycles the plain executor charges."""
        reqs = [Request(rid=i, kind="hash", key=i % 5) for i in range(20)]
        cm = CostModel.uniform()
        plain = StreamExecutor.for_workload(list(reqs), table_size=11,
                                            n_cells=8, cost_model=cm)
        r_plain = plain.execute([Request(rid=i, kind="hash", key=i % 5)
                                 for i in range(20)])
        coord = ShardCoordinator.for_workload(reqs, shards=1, table_size=11,
                                              n_cells=8, key_space=16,
                                              cost_model=cm)
        r_shard = coord.execute(reqs)
        assert r_shard.cycles == r_plain.cycles
        assert r_shard.rounds == r_plain.rounds

    def test_batch_cost_is_max_not_sum(self):
        reqs = [Request(rid=i, kind="hash", key=i) for i in range(32)]
        coord = ShardCoordinator.for_workload(reqs, shards=4, table_size=16,
                                              n_cells=8, key_space=32)
        result = coord.execute(reqs)
        assert result.shard_cycles and len(result.shard_cycles) == 4
        assert result.cycles == pytest.approx(max(result.shard_cycles))
        assert result.cycles < sum(result.shard_cycles)

    def test_cross_exchange_charged_from_cost_model(self):
        cm = CostModel.uniform()
        reqs = [Request(rid=0, kind="xfer", key=0, key2=7)]
        coord = ShardCoordinator.for_workload(
            reqs, shards=2, partitioner="range", table_size=8,
            n_cells=8, key_space=8, cost_model=cm,
        )
        result = coord.execute(reqs)
        assert result.cross_units == 1
        # 2 RTTs + claim payload (2 words) + commit payload (3 words)
        expected = 2 * cm.shard_claim_rtt + cm.shard_transfer_per_word * 5
        assert coord.exchange_cycles == pytest.approx(expected)
        assert result.cycles >= expected

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_claim_rounds_charged_one_rtt_each(self, k):
        """k cross units on one cell win one per claim round: k claim
        RTTs plus the commit's, with the per-word payloads unchanged."""
        cm = CostModel.uniform()
        reqs = [Request(rid=i, kind="xfer", key=i % 4, key2=7)
                for i in range(k)]
        coord = ShardCoordinator.for_workload(
            reqs, shards=2, partitioner="range", table_size=8,
            n_cells=8, key_space=8, cost_model=cm,
        )
        result = coord.execute(reqs)
        assert len(result.completed) == k and not result.carried
        # k claim RTTs + the commit RTT, and per unit the claim (2
        # words) and commit (3 words) payloads
        expected = (k + 1) * cm.shard_claim_rtt
        expected += cm.shard_transfer_per_word * (2 + 3) * k
        assert coord.exchange_cycles == pytest.approx(expected)

    @staticmethod
    def contending_xfers():
        # Both are cross-shard on the K=2 range layout and share cell 7.
        return [
            Request(rid=0, kind="xfer", key=0, key2=7, delta=2),
            Request(rid=1, kind="xfer", key=7, key2=1, delta=3),
        ]

    def test_contending_cross_units_commit_in_one_exchange(self):
        reqs = self.contending_xfers()
        coord = ShardCoordinator.for_workload(
            reqs, shards=2, partitioner="range", table_size=8,
            n_cells=8, key_space=8, cost_model=FREE,
        )
        result = coord.execute(reqs)
        assert [r.rid for r in result.completed] == [0, 1]
        assert result.carried == []
        assert result.cross_committed == (0, 1)
        assert coord.total_cross == 2
        # The values a two-batch run (rid 1 retired a batch later) ends
        # with: the additions commute.
        values = coord.list_values()
        assert values[0] == -2 and values[7] == 2 - 3 and values[1] == 3

    def test_retry_mode_carries_nothing(self):
        """carryover=False is one-shot on K shards as on one pipeline:
        neither a claim loser nor a shard-local FOL loser is carried."""
        reqs = self.contending_xfers() + [
            Request(rid=2 + i, kind="hash", key=5) for i in range(3)
        ]
        coord = ShardCoordinator.for_workload(
            reqs, shards=2, partitioner="range", table_size=8,
            n_cells=8, key_space=8, carryover=False, cost_model=FREE,
        )
        result = coord.execute(reqs)
        assert result.carried == []
        assert sorted(r.rid for r in result.completed) == [0, 1, 2, 3, 4]

    def test_k4_stream_routes_each_cross_xfer_once(self):
        """Every cross-owner xfer is routed, claimed and committed in
        the exchange that first routes it, on both backends."""
        fingerprints = []
        for backend in ("sim", "native"):
            reqs = closed_loop_workload(
                np.random.default_rng(8), 600,
                kinds=("hash", "list", "xfer"), weights=(1, 1, 4),
                skew=0.8, key_space=64, n_cells=32,
            )
            coord = ShardCoordinator.for_workload(
                reqs, shards=4, table_size=31, n_cells=32, key_space=64,
                backend=backend,
            )
            table = coord.router.partition.domain("list")
            cross_owner = sum(
                r.kind == "xfer"
                and table.owner_of(table.fold(r.key))
                != table.owner_of(table.fold(r.key2))
                for r in reqs
            )
            svc = StreamService(coord, batcher=FixedBatcher(batch_size=64))
            metrics = svc.run(reqs)
            assert metrics.total_completed == len(reqs)
            assert cross_owner > 100
            assert coord.total_cross == cross_owner
            fingerprints.append(coord.state_fingerprint())
        assert fingerprints[0] == fingerprints[1]

    def test_migration_skipped_when_dest_arena_full(self):
        reqs = [Request(rid=i, kind="hash", key=0) for i in range(4)]
        coord = ShardCoordinator.for_workload(
            reqs, shards=2, partitioner="range", table_size=8,
            n_cells=8, key_space=8, cost_model=FREE,
        )
        # exhaust shard 1's node arena so any chain import must fail
        nodes = coord.workers[1].executor.table.nodes
        nodes.alloc_many(nodes.remaining)
        coord.workers[0].execute(reqs)
        table = coord.router.partition.hash
        ctl = MigrationController(coord.router.partition)
        ctl.admit([Migration("hash", table.bin_index(0), 0, 1, 1.0)])
        rep = ctl.step(coord)
        assert rep.completed == 0 and rep.skipped == 1
        assert ctl.bins_skipped == 1 and ctl.pending == 0
        assert table.owner_of(0) == 0  # route intact

    def test_invalid_shard_count_raises(self):
        with pytest.raises(ReproError):
            ShardCoordinator.for_workload([], shards=0)


# ----------------------------------------------------------------------
# per-shard metrics plumbing
# ----------------------------------------------------------------------
class TestShardMetrics:
    def test_unsharded_records_have_no_shard_summary(self):
        reqs = [Request(rid=i, kind="hash", key=i) for i in range(10)]
        svc = StreamService.for_workload(reqs, table_size=11,
                                         cost_model=FREE)
        metrics = svc.run(reqs)
        assert metrics.shard_summary() == {}
        assert "shards" not in metrics.summary()

    def test_sharded_summary_and_tables(self):
        reqs = [Request(rid=i, kind="hash", key=i) for i in range(30)]
        coord = ShardCoordinator.for_workload(reqs, shards=3, table_size=16,
                                              n_cells=8, key_space=32,
                                              cost_model=FREE)
        svc = StreamService(coord, batcher=FixedBatcher(batch_size=10))
        metrics = svc.run(reqs)
        summary = metrics.summary()
        assert summary["shards"] == 3
        assert 0 < summary["mean_shard_occupancy"] <= 1.0
        assert summary["mean_shard_imbalance"] >= 1.0
        table = metrics.shard_table()
        assert "lanes/shard" in table and ":" in table

    def test_record_properties(self):
        rec = BatchRecord(index=0, size=8, carried_in=0, queue_depth=0,
                          rounds=1, multiplicity=1, filtered=0, completed=8,
                          cycles=10.0, shard_sizes=(8, 0, 0, 0),
                          shard_rounds=(1, 0, 0, 0))
        assert rec.shard_occupancy == 0.25
        assert rec.shard_imbalance == 4.0
        plain = BatchRecord(index=0, size=8, carried_in=0, queue_depth=0,
                            rounds=1, multiplicity=1, filtered=0,
                            completed=8, cycles=10.0)
        assert plain.shard_occupancy == 1.0
        assert plain.shard_imbalance == 1.0


# ----------------------------------------------------------------------
# the FOL* "xfer" kind in the single-pipeline executor
# ----------------------------------------------------------------------
def xfer_executor(n_cells=8):
    reqs = [Request(rid=0, kind="xfer", key=0, key2=1)]
    return StreamExecutor.for_workload(reqs, table_size=11, n_cells=n_cells,
                                       cost_model=FREE)


class TestXferKind:
    def test_requires_key2(self):
        with pytest.raises(ReproError):
            Request(rid=0, kind="xfer", key=1)

    def test_moves_value_between_cells(self):
        ex = xfer_executor()
        result = ex.execute([Request(rid=0, kind="xfer", key=0, key2=1,
                                     delta=4)])
        assert len(result.completed) == 1
        assert ex.list_values()[0] == -4
        assert ex.list_values()[1] == 4

    def test_self_transfer_is_noop(self):
        ex = xfer_executor()
        result = ex.execute([Request(rid=0, kind="xfer", key=2, key2=2,
                                     delta=9)])
        assert len(result.completed) == 1
        assert ex.list_values() == [0] * 8

    def test_out_of_range_cell_raises(self):
        ex = xfer_executor()
        with pytest.raises(ReproError):
            ex.execute([Request(rid=0, kind="xfer", key=0, key2=99)])

    def test_conflicting_tuples_carry_and_converge(self):
        ex = xfer_executor()
        batch = [
            Request(rid=0, kind="xfer", key=0, key2=1, delta=1),
            Request(rid=1, kind="xfer", key=1, key2=0, delta=2),
        ]
        result = ex.execute(batch)
        assert len(result.completed) == 1 and len(result.carried) == 1
        result2 = ex.execute(result.carried)
        assert len(result2.completed) == 1
        assert ex.list_values()[0] == -1 + 2
        assert ex.list_values()[1] == 1 - 2

    def test_tuple_round_scalar_tail_prevents_deadlock(self):
        """Crossing tuples (A: 0->1, B: 1->0) can eliminate each other
        in a pure vector round; the paper's scalar-tail remedy must
        still elect the last tuple."""
        vm = make_machine(4096, cost_model=FREE)
        a = np.array([10, 12], dtype=np.int64)
        b = np.array([12, 10], dtype=np.int64)
        labels = [np.array([1, 2], dtype=np.int64),
                  np.array([3, 4], dtype=np.int64)]
        winners, losers = tuple_round(vm, [a, b], labels, work_offset=100)
        assert winners.tolist() == [1]  # the scalar-tail tuple
        assert losers.tolist() == [0]

    def test_tuple_round_empty_is_safe(self):
        vm = make_machine(1024, cost_model=FREE)
        empty = np.empty(0, dtype=np.int64)
        winners, losers = tuple_round(vm, [empty, empty], [empty, empty])
        assert winners.size == 0 and losers.size == 0
