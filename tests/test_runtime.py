"""Unit tests for the streaming runtime: queue admission, batch
policies, carryover buffering, executor batches, metrics, the service
loop and its CLI entry point."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.bench.reporting import write_json
from repro.errors import ReproError
from repro.machine import CostModel
from repro.runtime import (
    AdaptiveBatcher,
    BatchLoop,
    BatchRecord,
    BoundedQueue,
    CarryoverBuffer,
    FixedBatcher,
    Request,
    StreamExecutor,
    StreamMetrics,
    StreamService,
    closed_loop_workload,
    make_batcher,
    open_loop_workload,
    requests_from_keys,
    zipf_keys,
)

FREE = CostModel.free()
TMP_JSON = Path(tempfile.gettempdir()) / "repro_test_empty_metrics.json"


def req(rid=0, kind="hash", key=1, **kw):
    return Request(rid=rid, kind=kind, key=key, **kw)


class TestRequest:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            Request(rid=0, kind="nope", key=1)

    def test_latency(self):
        r = req()
        r.arrival, r.completed = 10.0, 35.0
        assert r.latency == 25.0

    def test_latency_nan_until_completed(self):
        # A never-completed request has no latency — NaN, not a fake 0
        # measured against the epoch.
        r = req()
        r.arrival = 10.0
        assert math.isnan(r.latency)


class TestBoundedQueue:
    def test_fifo_take(self):
        q = BoundedQueue(4)
        for i in range(3):
            assert q.offer(req(rid=i), now=0.0)
        assert [r.rid for r in q.take(2)] == [0, 1]
        assert q.depth == 1

    def test_block_policy_keeps_request(self):
        q = BoundedQueue(2, admission="block")
        assert q.offer(req(0), 0.0) and q.offer(req(1), 0.0)
        assert not q.offer(req(2), 0.0)
        assert q.stats.blocked_offers == 1 and q.stats.rejected == 0
        assert q.stats.blocked_requests == 1
        assert not q.offer(req(2), 0.0)  # same request retried
        assert q.stats.blocked_offers == 2  # every offer counts...
        assert q.stats.blocked_requests == 1  # ...each request once
        assert q.depth == 2

    def test_reject_policy_drops(self):
        q = BoundedQueue(1, admission="reject")
        assert q.offer(req(0), 0.0)
        assert not q.offer(req(1), 0.0)
        assert q.stats.rejected == 1

    def test_enqueue_timestamp_set(self):
        q = BoundedQueue(4)
        r = req()
        q.offer(r, now=123.0)
        assert r.enqueued == 123.0
        assert q.oldest_enqueued() == 123.0

    def test_bad_config(self):
        with pytest.raises(ReproError):
            BoundedQueue(0)
        with pytest.raises(ReproError):
            BoundedQueue(4, admission="maybe")


class TestBatchers:
    def test_fixed_target(self):
        assert FixedBatcher(64).target_size() == 64
        with pytest.raises(ReproError):
            FixedBatcher(0)

    # A deadline is the release rule's linger: a partial batch launches
    # once its oldest request has waited that long.
    def test_deadline_wake_before_deadline(self):
        loop = BatchLoop(FixedBatcher(32), BoundedQueue(64), StreamMetrics(),
                         linger=100.0)
        loop.queue.offer(req(0), 10.0)
        assert loop.release_at(0.0, filling=True) == 110.0
        # The sim driver wakes at the sooner of the release and the next
        # arrival, which joins the batch before it launches.
        reqs = [req(0, arrival=10.0), req(1, key=2, arrival=50.0),
                req(2, key=3, arrival=500.0)]
        engine = StreamExecutor.for_workload(
            reqs, table_size=37, key_space=16, cost_model=FREE
        )
        svc = StreamService(engine, batcher=FixedBatcher(32), linger=100.0)
        m = svc.run(reqs)
        assert reqs[1].enqueued == 50.0
        assert [b.size for b in m.batches] == [2, 1]
        launched = 110.0
        assert reqs[0].completed == launched + m.batches[0].cycles
        assert reqs[1].completed == reqs[0].completed

    def test_deadline_blown_flushes(self):
        loop = BatchLoop(FixedBatcher(32), BoundedQueue(64), StreamMetrics(),
                         linger=100.0)
        loop.queue.offer(req(0), 10.0)
        assert loop.release_at(200.0, filling=True) <= 200.0

    def test_adaptive_shrinks_on_high_rounds(self):
        b = AdaptiveBatcher(initial=256, min_size=16, smoothing=1.0)
        b.observe(256, rounds=50, multiplicity=50, filtered=0)
        assert b.target_size() < 256

    def test_adaptive_grows_on_low_rounds(self):
        b = AdaptiveBatcher(initial=64, max_size=512, smoothing=1.0)
        b.observe(64, rounds=1, multiplicity=1, filtered=0)
        assert b.target_size() > 64

    def test_adaptive_respects_bounds(self):
        b = AdaptiveBatcher(initial=16, min_size=16, max_size=32, smoothing=1.0)
        for _ in range(10):
            b.observe(16, rounds=100, multiplicity=100, filtered=0)
        assert b.target_size() == 16
        for _ in range(10):
            b.observe(16, rounds=1, multiplicity=1, filtered=0)
        assert b.target_size() == 32

    def test_adaptive_ignores_recirculation_multiplicity(self):
        # Under carryover M stays high while rounds stay at 1; the
        # policy must follow rounds or it would pin itself at min_size.
        b = AdaptiveBatcher(initial=64, max_size=512, smoothing=1.0)
        b.observe(64, rounds=1, multiplicity=300, filtered=63)
        assert b.target_size() > 64

    def test_adaptive_skips_carried_only_batches(self):
        # A batch that is pure recirculated carryover is the drain tail
        # of earlier conflicts, not a signal about arrival sharing; it
        # must leave the EMA (and hence the target size) untouched.
        b = AdaptiveBatcher(initial=64, max_size=512, smoothing=1.0)
        b.observe(32, rounds=30, multiplicity=30, filtered=31, carried=32)
        assert b.target_size() == 64
        assert b.m_ema is None
        # A mixed batch (some fresh lanes) still feeds the EMA.
        b.observe(32, rounds=1, multiplicity=1, filtered=0, carried=16)
        assert b.target_size() > 64

    def test_adaptive_parameter_validation(self):
        with pytest.raises(ReproError):
            AdaptiveBatcher(initial=8, min_size=16)  # initial < min
        with pytest.raises(ReproError):
            AdaptiveBatcher(m_low=8.0, m_high=3.0)
        with pytest.raises(ReproError):
            AdaptiveBatcher(smoothing=0.0)
        with pytest.raises(ReproError):
            AdaptiveBatcher(grow=1.0)  # could never grow
        with pytest.raises(ReproError):
            AdaptiveBatcher(shrink=1.5)  # could never shrink
        with pytest.raises(ReproError):
            AdaptiveBatcher(shrink=0.0)  # would zero the size

    def test_make_batcher(self):
        assert make_batcher("fixed", batch_size=8).name == "fixed"
        assert make_batcher("adaptive").name == "adaptive"
        with pytest.raises(ReproError):
            make_batcher("nope")
        with pytest.raises(ReproError):
            make_batcher("deadline")  # a linger now, not a policy


class TestCarryoverBuffer:
    def test_drain_ready_dedups_by_group(self):
        buf = CarryoverBuffer()
        reqs = [req(rid=i) for i in range(4)]
        for r, g in zip(reqs, (7, 7, 7, 9)):
            r.group = g
        buf.put(reqs)
        ready = buf.drain_ready()
        assert [r.rid for r in ready] == [0, 3]  # one per group, FIFO
        assert buf.depth == 2
        assert all(r.attempts == 1 for r in reqs)

    def test_drain_ready_eventually_empties(self):
        buf = CarryoverBuffer()
        reqs = [req(rid=i) for i in range(5)]
        for r in reqs:
            r.group = 42
        buf.put(reqs)
        seen = []
        while len(buf):
            seen.extend(r.rid for r in buf.drain_ready())
        assert seen == [0, 1, 2, 3, 4]  # one sibling released per drain
        assert buf.total_carried == 5

    def test_full_drain(self):
        buf = CarryoverBuffer()
        buf.put([req(rid=1), req(rid=2)])
        assert len(buf.drain()) == 2
        assert buf.depth == 0


class TestExecutor:
    def make(self, n=64, **kw):
        reqs = requests_from_keys(range(n))
        return StreamExecutor.for_workload(reqs, cost_model=FREE, **kw), reqs

    def test_hash_batch_completes_distinct_keys(self):
        ex, reqs = self.make(10)
        result = ex.execute(reqs)
        assert len(result.completed) == 10
        assert result.filtered == 0
        assert sorted(ex.table.stored_keys().tolist()) == list(range(10))

    def test_hash_carryover_filters_duplicates(self):
        reqs = requests_from_keys([5, 5, 5, 8])
        ex = StreamExecutor.for_workload(reqs, cost_model=FREE, carryover=True)
        result = ex.execute(reqs)
        # one winner for key 5's chain head, plus key 8
        assert len(result.completed) == 2
        assert len(result.carried) == 2
        assert all(r.group != -1 for r in result.carried)
        assert result.rounds == 1

    def test_hash_retry_mode_completes_all(self):
        reqs = requests_from_keys([5, 5, 5, 8])
        ex = StreamExecutor.for_workload(reqs, cost_model=FREE, carryover=False)
        result = ex.execute(reqs)
        assert len(result.completed) == 4
        assert result.rounds == 3  # M of the index vector
        assert result.multiplicity == 3

    def test_list_bumps_apply_once_per_request(self):
        reqs = requests_from_keys([3, 3, 3], kind="list", deltas=[2, 5, 7])
        ex = StreamExecutor.for_workload(reqs, cost_model=FREE, n_cells=8,
                                         carryover=False)
        ex.execute(reqs)
        values = ex.list_values()
        assert values[3] == 14
        assert sum(values) == 14

    def test_list_request_out_of_range(self):
        reqs = requests_from_keys([99], kind="list")
        ex = StreamExecutor.for_workload(reqs, cost_model=FREE, n_cells=8)
        with pytest.raises(ReproError):
            ex.execute(reqs)

    def test_mixed_kind_batch(self):
        reqs = (requests_from_keys([1, 2], kind="hash")
                + requests_from_keys([3], kind="bst")
                + requests_from_keys([0], kind="list"))
        for i, r in enumerate(reqs):
            r.rid = i
        ex = StreamExecutor.for_workload(reqs, cost_model=FREE, n_cells=4)
        result = ex.execute(reqs)
        assert len(result.completed) == 4
        assert ex.tree.inorder() == [3]
        assert ex.list_values()[0] == 1

    def test_empty_batch(self):
        ex, _ = self.make(4)
        result = ex.execute([])
        assert result.size == 0 and result.rounds == 0

    def test_cycles_charged_under_s810(self):
        reqs = requests_from_keys(range(32))
        ex = StreamExecutor.for_workload(reqs, cost_model=CostModel.s810())
        result = ex.execute(reqs)
        assert result.cycles > 0


class TestMetrics:
    def record(self, **kw):
        defaults = dict(index=0, size=10, carried_in=0, queue_depth=5,
                        rounds=2, multiplicity=2, filtered=3, completed=7,
                        cycles=100.0)
        defaults.update(kw)
        return BatchRecord(**defaults)

    def test_ratios(self):
        b = self.record()
        assert b.filtered_ratio == 0.3
        assert b.cycles_per_lane == 10.0

    def test_summary_aggregates(self):
        m = StreamMetrics()
        m.record_batch(self.record(index=0))
        m.record_batch(self.record(index=1, size=20, filtered=0, completed=20,
                                   cycles=200.0))
        for lat in (10.0, 20.0, 30.0):
            m.record_completion(lat)
        s = m.summary()
        assert s["batches"] == 2
        assert s["completed"] == 27
        assert s["total_cycles"] == 300.0
        assert s["filtered_ratio"] == pytest.approx(3 / 30)
        assert s["p50_latency"] == 20.0

    def test_tables_render(self):
        m = StreamMetrics()
        for i in range(30):
            m.record_batch(self.record(index=i))
        table = m.batch_table(max_rows=5)
        assert len(table.splitlines()) <= 7  # header + rule + <=5 rows
        assert "cyc/lane" in table
        assert "cycles_per_request" in m.summary_table()

    def test_empty_metrics(self):
        # No completions means no latency distribution: percentiles and
        # cycles-per-request are undefined (nan), not a fake 0.0 that
        # would read as an infinitely fast service.
        m = StreamMetrics()
        assert math.isnan(m.latency_percentile(99))
        assert math.isnan(m.cycles_per_request)
        assert m.summary()["completed"] == 0
        # The tables render undefined metrics as an em dash...
        assert "—" in m.summary_table()
        # ...and JSON reports carry null, never the invalid NaN token.
        payload = write_json(TMP_JSON, m.summary())
        try:
            data = json.loads(payload.read_text())
            assert data["p99_latency"] is None
            assert data["cycles_per_request"] is None
        finally:
            payload.unlink()


class TestWorkloads:
    def test_zipf_uniform_and_skewed(self):
        rng = np.random.default_rng(0)
        uni = zipf_keys(rng, 5000, 0.0, 100)
        hot = zipf_keys(rng, 5000, 1.4, 100)
        _, cu = np.unique(uni, return_counts=True)
        _, ch = np.unique(hot, return_counts=True)
        assert ch.max() > 3 * cu.max()  # skew concentrates mass

    def test_zipf_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ReproError):
            zipf_keys(rng, 10, -1.0, 100)
        with pytest.raises(ReproError):
            zipf_keys(rng, 10, 1.0, 0)

    def test_open_loop_arrivals_increase(self):
        rng = np.random.default_rng(0)
        reqs = open_loop_workload(rng, 50, mean_gap=10.0)
        arrivals = [r.arrival for r in reqs]
        assert arrivals == sorted(arrivals)
        assert arrivals[-1] > 0

    def test_closed_loop_all_at_zero(self):
        rng = np.random.default_rng(0)
        reqs = closed_loop_workload(rng, 20, kinds=("hash", "list"), n_cells=8)
        assert all(r.arrival == 0.0 for r in reqs)
        assert all(r.key < 8 for r in reqs if r.kind == "list")

    def test_requests_from_keys_validates(self):
        with pytest.raises(ReproError):
            requests_from_keys([1, 2], deltas=[1])


class TestStreamService:
    def run_service(self, reqs, **kw):
        kw.setdefault("cost_model", FREE)
        kw.setdefault("table_size", 37)
        svc = StreamService.for_workload(reqs, **kw)
        return svc, svc.run(reqs)

    def test_completes_everything(self):
        reqs = requests_from_keys(range(100))
        _, m = self.run_service(reqs, batcher=FixedBatcher(16))
        assert m.summary()["completed"] == 100
        assert m.rejected == 0

    def test_open_loop_under_s810_has_latency(self):
        rng = np.random.default_rng(3)
        reqs = open_loop_workload(rng, 200, mean_gap=20.0, skew=0.8)
        svc, m = self.run_service(reqs, cost_model=CostModel.s810(),
                                  batcher=FixedBatcher(32))
        s = m.summary()
        assert s["completed"] == 200
        assert s["p99_latency"] >= s["p50_latency"] > 0

    def test_reject_admission_drops_overflow(self):
        from repro.runtime import BoundedQueue
        reqs = requests_from_keys(range(50))
        svc, m = self.run_service(
            reqs, queue=BoundedQueue(8, admission="reject"),
            batcher=FixedBatcher(8),
        )
        s = m.summary()
        assert s["completed"] + m.rejected == 50
        assert m.rejected > 0

    def test_block_admission_loses_nothing(self):
        from repro.runtime import BoundedQueue
        reqs = requests_from_keys(range(50))
        _, m = self.run_service(
            reqs, queue=BoundedQueue(8, admission="block"),
            batcher=FixedBatcher(8),
        )
        assert m.summary()["completed"] == 50
        assert m.blocked_offers > 0
        assert 0 < m.blocked_requests <= m.blocked_offers

    def test_carryover_recirculates_hot_key(self):
        reqs = requests_from_keys([7] * 20)
        svc, m = self.run_service(reqs, batcher=FixedBatcher(32),
                                  carryover=True)
        s = m.summary()
        assert s["completed"] == 20
        assert s["batches"] >= 20  # one hot insert per batch (ELS)
        assert sorted(svc.executor.table.stored_keys().tolist()) == [7] * 20

    def test_trace_hook_collects_mix(self):
        reqs = requests_from_keys(range(30))
        _, m = self.run_service(reqs, cost_model=CostModel.s810(), trace=True)
        assert m.instruction_mix is not None
        assert any(k.startswith("v_") or "gather" in k
                   for k in m.instruction_mix)

    def test_deadline_policy_flushes_partial_batches(self):
        rng = np.random.default_rng(1)
        reqs = open_loop_workload(rng, 60, mean_gap=100.0)
        _, m = self.run_service(
            reqs, cost_model=CostModel.s810(),
            batcher=FixedBatcher(64), linger=500.0,
        )
        s = m.summary()
        assert s["completed"] == 60
        assert s["batches"] > 1  # deadline forced partial flushes


class _InterruptOnCall:
    """Engine stand-in that raises KeyboardInterrupt on its ``n``-th
    ``execute`` and forwards every other call."""

    def __init__(self, engine, n):
        self.engine = engine
        self.n = n
        self.calls = 0
        self.shards = len(getattr(engine, "workers", ())) or 1
        self.coordinator = engine

    def execute(self, batch):
        self.calls += 1
        if self.calls == self.n:
            raise KeyboardInterrupt
        return self.engine.execute(batch)


class TestInterruptedRunLedger:
    """An interrupted run still reports the queue's admission ledger,
    global and per tenant, on both drivers of the batching loop."""

    def _workload(self):
        from repro.runtime import apply_slos, parse_tenants, tenant_workload

        tenants = apply_slos(
            parse_tenants("A=0.7:zipf1.2,B=0.3"), {"A": 5000.0}
        )
        return tenant_workload(
            np.random.default_rng(5), 120, tenants, kinds=("hash", "list"),
            key_space=256, n_cells=16,
        )

    def _check(self, metrics, queue):
        assert queue.stats.rejected > 0
        assert metrics.rejected == queue.stats.rejected
        assert metrics.blocked_offers == queue.stats.blocked_offers
        assert set(metrics.tenant_admission) == {"A", "B"}
        assert metrics.tenant_admission == {
            name: ts.as_dict() for name, ts in queue.tenant_stats.items()
        }

    def test_stream_service(self):
        from repro.runtime import BoundedQueue

        reqs = self._workload()
        engine = StreamExecutor.for_workload(
            reqs, table_size=37, n_cells=16, key_space=256, cost_model=FREE
        )
        queue = BoundedQueue(32, admission="reject")
        svc = StreamService(
            _InterruptOnCall(engine, 3), batcher=FixedBatcher(8), queue=queue
        )
        with pytest.raises(KeyboardInterrupt):
            svc.run(reqs)
        assert len(svc.metrics.batches) == 2
        self._check(svc.metrics, queue)

    def test_serve_frontend(self):
        import asyncio

        from repro.runtime import BoundedQueue
        from repro.serve import ServeFrontend
        from repro.shard import ShardCoordinator

        reqs = self._workload()
        engine = ShardCoordinator.for_workload(
            reqs, shards=2, table_size=37, n_cells=16, key_space=256,
            backend="native",
        )
        queue = BoundedQueue(32, admission="reject")
        frontend = ServeFrontend(
            _InterruptOnCall(engine, 3), batcher=FixedBatcher(8), queue=queue
        )
        with pytest.raises(KeyboardInterrupt):
            asyncio.run(frontend.run(reqs))
        assert len(frontend.metrics.exchanges) == 2
        self._check(frontend.metrics, queue)


class TestStreamCli:
    def test_stream_smoke(self, capsys):
        from repro.__main__ import main
        assert main(["stream", "--requests", "80", "--policy", "adaptive",
                     "--skew", "1.1", "--closed-loop", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "cycles_per_request" in out
        assert "p99_latency" in out
        assert "filt%" in out

    def test_stream_all_kinds_and_trace(self, capsys):
        from repro.__main__ import main
        assert main(["stream", "--requests", "40", "--kinds", "hash,bst,list",
                     "--policy", "fixed", "--deadline", "2000",
                     "--trace"]) == 0
        out = capsys.readouterr().out
        assert "instruction mix" in out

    def test_stream_retry_mode(self, capsys):
        from repro.__main__ import main
        assert main(["stream", "--requests", "40", "--no-carryover",
                     "--policy", "fixed", "--batch-size", "16"]) == 0
        assert "retry-in-batch" in capsys.readouterr().out
