"""Multi-tenant QoS: spec parsing, weighted admission, fairness, oracle.

Covers the ISSUE 9 tentpole end to end:

* the tenant/SLO spec grammar rejects malformed input with
  :class:`~repro.errors.ReproError` (the CLI's exit-2 path);
* :class:`~repro.runtime.qos.QoSPolicy` depth caps and weighted-fair
  dequeue on :class:`~repro.runtime.queue.BoundedQueue`;
* deadline-aware batch release through ``BatchLoop.release_at``;
* per-tenant conservation: ``admitted + rejected + blocked ==
  offered`` for every tenant under randomised offer/take interleaving;
* the correctness anchor — a QoS-enabled run's merged end state is
  identical to the one-shot scalar oracle, single-engine and K=4
  sharded, because admission reorders *service*, never semantics;
* worst-tenant-aware rebalance planning.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ReproError
from repro.runtime import (
    BoundedQueue,
    FixedBatcher,
    QoSPolicy,
    StreamService,
    TenantClass,
    apply_slos,
    jain_index,
    parse_slo,
    parse_tenants,
    tenant_workload,
)
from repro.runtime.queue import Request

TABLE_SIZE = 127
N_CELLS = 32
KEY_SPACE = 512


def req(rid=0, key=1, tenant="", slo=math.inf, arrival=0.0):
    r = Request(rid=rid, kind="hash", key=key, arrival=arrival)
    r.tenant = tenant
    r.slo = slo
    return r


# ----------------------------------------------------------------------
# spec grammar
# ----------------------------------------------------------------------
class TestParseTenants:
    def test_full_spec(self):
        a, b = parse_tenants("A=0.7:zipf1.2,B=0.3:uniform")
        assert (a.name, a.share, a.skew) == ("A", 0.7, 1.2)
        assert (b.name, b.share, b.skew) == ("B", 0.3, 0.0)
        assert math.isinf(a.slo) and math.isinf(b.slo)

    def test_dist_defaults_to_uniform(self):
        (t,) = parse_tenants("solo=2")
        assert t.skew == 0.0 and t.share == 2.0

    @pytest.mark.parametrize("spec", [
        "", "A", "A=", "=0.5", "A=lots", "A=0.7:gauss", "A=0.7:zipfx",
        "A=0.5,A=0.5", "A=-1", "A=0", "A=nan", "A=0.5:zipf-1", "A=0.5,,B=1",
    ])
    def test_malformed_rejected(self, spec):
        with pytest.raises(ReproError):
            parse_tenants(spec)


class TestParseSlo:
    def test_units(self):
        slos = parse_slo("A=50ms,B=0.2s,C=8000")
        assert slos["A"] == pytest.approx(0.05)
        assert slos["B"] == pytest.approx(0.2)
        assert slos["C"] == 8000.0

    def test_unit_pinning(self):
        assert parse_slo("A=50ms", unit="seconds")["A"] == pytest.approx(0.05)
        assert parse_slo("A=8000", unit="cycles")["A"] == 8000.0
        with pytest.raises(ReproError):
            parse_slo("A=8000", unit="seconds")  # bare number needs a suffix
        with pytest.raises(ReproError):
            parse_slo("A=50ms", unit="cycles")  # cycles take no suffix

    @pytest.mark.parametrize("spec", [
        "", "A", "A=", "A=soon", "A=-5", "A=0", "A=5ms,A=6ms", "A=inf",
    ])
    def test_malformed_rejected(self, spec):
        with pytest.raises(ReproError):
            parse_slo(spec)

    def test_apply_slos_merges_by_name(self):
        tenants = parse_tenants("A=0.7,B=0.3")
        merged = apply_slos(tenants, {"A": 50.0})
        assert merged[0].slo == 50.0 and math.isinf(merged[1].slo)
        with pytest.raises(ReproError):
            apply_slos(tenants, {"C": 1.0})  # unknown tenant name


class TestQoSPolicy:
    def test_depth_caps_follow_shares(self):
        policy = QoSPolicy(parse_tenants("A=0.7,B=0.3"), burst=0.5)
        assert policy.depth_cap("A", 128) == math.ceil(0.5 * 128 * 0.7)
        assert policy.depth_cap("B", 128) == math.ceil(0.5 * 128 * 0.3)
        # unknown tenants fall into the lightest class, never below 1
        assert policy.depth_cap("ghost", 128) == policy.depth_cap("B", 128)
        assert policy.depth_cap("B", 2) == 1

    def test_invalid_policy_rejected(self):
        with pytest.raises(ReproError):
            QoSPolicy(())
        with pytest.raises(ReproError):
            QoSPolicy(parse_tenants("A=1"), burst=0.0)
        with pytest.raises(ReproError):
            QoSPolicy(
                (TenantClass("A", 1.0), TenantClass("A", 2.0))
            )


class TestJainIndex:
    def test_known_values(self):
        assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert jain_index([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)
        assert math.isnan(jain_index([]))
        assert math.isnan(jain_index([0.0, 0.0]))
        # non-finite entries are dropped, not propagated
        assert jain_index([1.0, float("nan"), 1.0]) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# the queue under a policy
# ----------------------------------------------------------------------
class TestQoSQueue:
    def test_depth_cap_binds_per_tenant(self):
        policy = QoSPolicy(parse_tenants("A=0.5,B=0.5"), burst=1.0)
        q = BoundedQueue(10, admission="reject", qos=policy)
        for i in range(10):
            q.offer(req(rid=i, tenant="A"), 0.0)
        # A's cap is ceil(10 * 0.5) = 5: half the queue stays reserved
        assert q.depth == 5
        assert q.tenant_stats["A"].admitted == 5
        assert q.tenant_stats["A"].rejected == 5
        # B's half is still open
        assert q.offer(req(rid=100, tenant="B"), 0.0)
        assert q.depth == 6

    def test_wfq_serves_by_weight(self):
        policy = QoSPolicy(parse_tenants("A=3,B=1"))
        q = BoundedQueue(64, admission="reject", qos=policy)
        for i in range(24):
            q.offer(req(rid=i, tenant="A"), 0.0)
            q.offer(req(rid=100 + i, tenant="B"), 0.0)
        first = q.take(16)
        by_tenant = {"A": 0, "B": 0}
        for r in first:
            by_tenant[r.tenant] += 1
        # 3:1 weights -> 12 A, 4 B in the first 16 (both backlogged)
        assert by_tenant == {"A": 12, "B": 4}
        # within a tenant, FIFO order is preserved
        a_rids = [r.rid for r in first if r.tenant == "A"]
        assert a_rids == sorted(a_rids)

    def test_wfq_is_work_conserving(self):
        policy = QoSPolicy(parse_tenants("A=3,B=1"))
        q = BoundedQueue(64, admission="reject", qos=policy)
        for i in range(8):
            q.offer(req(rid=i, tenant="B"), 0.0)
        # A idle: B gets the whole drain, nothing is held back
        assert len(q.take(8)) == 8
        assert q.depth == 0

    def test_untagged_requests_flow_without_policy(self):
        q = BoundedQueue(8, admission="reject")
        for i in range(5):
            q.offer(req(rid=i), 0.0)
        assert [r.rid for r in q.take(5)] == [0, 1, 2, 3, 4]
        assert q.tenant_stats == {}

    def test_earliest_deadline_gated_on_policy(self):
        q = BoundedQueue(8)
        q.offer(req(rid=0, slo=50.0), now=10.0)
        assert q.earliest_deadline() is None  # qos-only feature

        policy = QoSPolicy(parse_tenants("A=1,B=1"))
        qq = BoundedQueue(8, qos=policy)
        qq.offer(req(rid=0, tenant="A", slo=50.0), now=10.0)
        qq.offer(req(rid=1, tenant="B", slo=5.0), now=12.0)
        qq.offer(req(rid=2, tenant="B", slo=5.0), now=20.0)
        # min over per-tenant FIFO heads: A at 60, B's head at 17
        assert qq.earliest_deadline() == pytest.approx(17.0)
        # infinite-SLO heads never produce a deadline
        q3 = BoundedQueue(8, qos=policy)
        q3.offer(req(rid=0, tenant="A"), now=0.0)
        assert q3.earliest_deadline() is None

    def test_conservation_per_tenant_randomised(self):
        """admitted + rejected + blocked_offers == offered, per tenant
        and in aggregate, under random offer/take interleaving — both
        admission modes, policy on and off."""
        rng = np.random.default_rng(5)
        for admission in ("reject", "block"):
            for with_qos in (False, True):
                policy = (
                    QoSPolicy(parse_tenants("A=0.6,B=0.3,C=0.1"), burst=0.7)
                    if with_qos
                    else None
                )
                q = BoundedQueue(16, admission=admission, qos=policy)
                names = ("A", "B", "C")
                for i in range(600):
                    name = names[rng.integers(0, 3)]
                    q.offer(req(rid=i, tenant=name), 0.0)
                    if rng.random() < 0.3:
                        q.take(int(rng.integers(1, 6)))
                total = q.stats
                assert (
                    total.admitted + total.rejected + total.blocked_offers
                    == total.offered == 600
                )
                per = q.tenant_stats
                assert sum(s.offered for s in per.values()) == 600
                for s in per.values():
                    assert (
                        s.admitted + s.rejected + s.blocked_offers
                        == s.offered
                    )
                assert total.max_depth <= 16


# ----------------------------------------------------------------------
# deadline-aware release
# ----------------------------------------------------------------------
class TestDeadlineRelease:
    def test_stream_release_cuts_head_of_line_wait(self):
        """Open loop with a gap close to the SLO: without deadline
        release the fixed batcher sits on the head request until 32
        arrivals trickle in (~12,800 cycles past its 500-cycle budget);
        with QoS it must release small batches at the deadline."""
        tenants = apply_slos(parse_tenants("A=1"), {"A": 500.0})

        def run(with_qos):
            reqs = tenant_workload(
                np.random.default_rng(3), 40, tenants, kinds=("hash",),
                key_space=KEY_SPACE, n_cells=N_CELLS, mean_gap=400.0,
            )
            svc = StreamService.for_workload(
                reqs,
                batcher=FixedBatcher(batch_size=32),
                queue=BoundedQueue(
                    64, qos=QoSPolicy(tenants) if with_qos else None
                ),
                table_size=TABLE_SIZE, n_cells=N_CELLS,
            )
            return svc.run(reqs).summary()

        base, qos = run(False), run(True)
        assert base["completed"] == qos["completed"] == 40
        # the deadline hook releases many small batches instead of two
        # full ones, and the tail drops by roughly the gap-fill wait
        assert qos["batches"] > 3 * base["batches"]
        assert qos["p99_latency"] < base["p99_latency"] / 4


# ----------------------------------------------------------------------
# end-to-end: QoS service runs match the scalar oracle
# ----------------------------------------------------------------------
class TestQoSOracle:
    TENANTS = apply_slos(
        parse_tenants("A=0.7:zipf1.2,B=0.3:uniform"),
        {"A": 30_000.0, "B": 90_000.0},
    )

    def _workload(self, n, seed):
        rng = np.random.default_rng(seed)
        return tenant_workload(
            rng, n, self.TENANTS,
            kinds=("hash", "list", "sort"),
            key_space=KEY_SPACE, n_cells=N_CELLS,
        )

    def test_stream_state_matches_oracle(self):
        from repro.audit import diff_stream_state

        reqs = self._workload(300, seed=21)
        svc = StreamService.for_workload(
            reqs,
            batcher=FixedBatcher(batch_size=32),
            queue=BoundedQueue(
                64, admission="block",
                qos=QoSPolicy(self.TENANTS, burst=0.8),
            ),
            table_size=TABLE_SIZE, n_cells=N_CELLS,
        )
        m = svc.run(reqs)
        assert m.total_completed == 300  # block admission loses nothing
        assert diff_stream_state(
            svc.executor, reqs,
            table_size=TABLE_SIZE, n_cells=N_CELLS, key_space=KEY_SPACE,
        ) is None
        # the per-tenant ledger reconciles with the run
        cells = m.tenant_summary()
        assert sum(c["completed"] for c in cells.values()) == 300
        assert math.isfinite(m.jain_fairness())

    def test_sharded_state_matches_oracle(self):
        from repro.audit import diff_stream_state
        from repro.shard import ShardCoordinator

        reqs = self._workload(240, seed=22)
        coord = ShardCoordinator.for_workload(
            reqs, shards=4,
            table_size=TABLE_SIZE, n_cells=N_CELLS, key_space=KEY_SPACE,
        )
        svc = StreamService(
            coord,
            batcher=FixedBatcher(batch_size=32),
            queue=BoundedQueue(
                64, admission="block",
                qos=QoSPolicy(self.TENANTS, burst=0.8),
            ),
        )
        m = svc.run(reqs)
        assert m.total_completed == 240
        assert diff_stream_state(
            coord, reqs,
            table_size=TABLE_SIZE, n_cells=N_CELLS, key_space=KEY_SPACE,
        ) is None

    def test_reject_run_matches_oracle_over_completed(self):
        """Shedding must not corrupt state: the end state equals the
        oracle replay of exactly the completed (admitted) subset."""
        from repro.audit import diff_stream_state

        reqs = self._workload(300, seed=23)
        svc = StreamService.for_workload(
            reqs,
            batcher=FixedBatcher(batch_size=16),
            queue=BoundedQueue(
                24, admission="reject",
                qos=QoSPolicy(self.TENANTS, burst=0.6),
            ),
            table_size=TABLE_SIZE, n_cells=N_CELLS,
        )
        m = svc.run(reqs)
        done = [r for r in reqs if r.completed]
        assert 0 < len(done) < 300  # the scenario actually shed load
        assert m.total_completed == len(done)
        assert diff_stream_state(
            svc.executor, done,
            table_size=TABLE_SIZE, n_cells=N_CELLS, key_space=KEY_SPACE,
        ) is None


# ----------------------------------------------------------------------
# tenant workload generation
# ----------------------------------------------------------------------
class TestTenantWorkload:
    def test_tags_shares_and_determinism(self):
        tenants = parse_tenants("A=0.7:zipf1.2,B=0.3:uniform")
        reqs = tenant_workload(
            np.random.default_rng(9), 2000, tenants, key_space=KEY_SPACE
        )
        again = tenant_workload(
            np.random.default_rng(9), 2000, tenants, key_space=KEY_SPACE
        )
        assert [(r.tenant, r.key, r.kind) for r in reqs] == [
            (r.tenant, r.key, r.kind) for r in again
        ]
        n_a = sum(1 for r in reqs if r.tenant == "A")
        assert 0.6 < n_a / 2000 < 0.8  # share mix holds approximately
        # the hot tenant's keys concentrate; the uniform tenant's don't
        a_keys = [r.key for r in reqs if r.tenant == "A"]
        b_keys = [r.key for r in reqs if r.tenant == "B"]
        a_top = max(np.bincount(a_keys)) / len(a_keys)
        b_top = max(np.bincount(b_keys)) / len(b_keys)
        assert a_top > 5 * b_top

    def test_open_loop_arrivals_are_monotone(self):
        tenants = parse_tenants("A=1")
        reqs = tenant_workload(
            np.random.default_rng(1), 50, tenants, mean_gap=10.0,
            key_space=KEY_SPACE,
        )
        arrivals = [r.arrival for r in reqs]
        assert arrivals == sorted(arrivals) and arrivals[-1] > 0

    def test_bad_inputs_rejected(self):
        tenants = parse_tenants("A=1")
        with pytest.raises(ReproError):
            tenant_workload(np.random.default_rng(0), 0, tenants)
        with pytest.raises(ReproError):
            tenant_workload(np.random.default_rng(0), 10, ())


# ----------------------------------------------------------------------
# worst-tenant rebalance planning
# ----------------------------------------------------------------------
class TestWorstTenantRebalance:
    def _partition(self):
        from repro.shard.partition import PartitionMap, RoutingTable

        # 8 bins over 2 shards: bins 0-3 on shard 0, 4-7 on shard 1
        owners = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        return PartitionMap({"t": RoutingTable(owners, shards=2)})

    def test_unknown_objective_rejected(self):
        from repro.shard.rebalance import Rebalancer

        with pytest.raises(ReproError):
            Rebalancer(self._partition(), objective="roundrobin")

    def test_plans_the_worst_tenants_bins(self):
        from repro.shard.rebalance import Rebalancer

        part = self._partition()
        table = part.domain("t")
        # aggregate load is balanced: 40 per shard...
        for b in range(4):
            table.traffic[b] = 10.0
            table.traffic[4 + b] = 10.0
        # ...but tenant A's own traffic concentrates on shard 0 (spread
        # over a few bins — one mega-bin would trip the oscillation
        # guard, correctly, since moving it just relocates the hotspot)
        table.tenant_traffic["A"] = np.zeros(8)
        table.tenant_traffic["A"][1] = 3.0
        table.tenant_traffic["A"][2] = 3.5
        table.tenant_traffic["A"][3] = 2.0
        table.tenant_traffic["A"][5] = 0.5
        table.tenant_traffic["B"] = np.full(8, 4.0)

        balanced = Rebalancer(part, threshold=1.5, objective="imbalance")
        assert balanced.plan() == []  # total load looks fine

        part2 = self._partition()
        t2 = part2.domain("t")
        t2.traffic[:] = table.traffic
        t2.tenant_traffic["A"] = table.tenant_traffic["A"].copy()
        t2.tenant_traffic["B"] = table.tenant_traffic["B"].copy()
        planner = Rebalancer(part2, threshold=1.5, objective="worst-tenant")
        moves = planner.plan()
        assert moves, "the hidden per-tenant hotspot must trigger a plan"
        assert all(m.src == 0 and m.dst == 1 for m in moves)
        # ranked by *A's* per-bin heat, not the (flat) aggregate
        assert moves[0].bin == 2

    def test_falls_back_without_tenant_traffic(self):
        from repro.shard.rebalance import Rebalancer

        part = self._partition()
        table = part.domain("t")
        # aggregate hotspot on shard 0 (two bins, so a move can help),
        # with no tenant tags recorded at all
        table.traffic[0] = 30.0
        table.traffic[1] = 30.0
        planner = Rebalancer(part, threshold=1.5, objective="worst-tenant")
        moves = planner.plan()
        assert moves  # imbalance fallback planned
        assert all(m.src == 0 and m.dst == 1 for m in moves)
