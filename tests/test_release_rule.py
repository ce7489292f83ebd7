"""The batch release rule, ``BatchLoop.release_at``.

Unit cases cover each branch of the rule.  Three fixed-seed open-loop
``sim`` streams then run with a 64-lane batch target and a 500-cycle
head-of-line linger: a mixed-kind stream, two tenants with cycle SLOs
under QoS admission, and a K=3 sharded engine.  Each pins the batch
count, the cycle total, p50/p99 latency, the engine's state
fingerprint and the lifecycle stage totals, so any change to when a
batch launches shows up here.
"""

import math

import numpy as np
import pytest

from repro.errors import ReproError
from repro.obs import Clock, TraceRecorder
from repro.runtime import (
    BatchLoop,
    BoundedQueue,
    FixedBatcher,
    QoSPolicy,
    Request,
    StreamMetrics,
    StreamExecutor,
    StreamService,
    apply_slos,
    open_loop_workload,
    parse_tenants,
    tenant_workload,
)
from repro.shard import ShardCoordinator

# ----------------------------------------------------------------------
# release_at, branch by branch
# ----------------------------------------------------------------------
def _loop(linger, queue=None, target=4):
    queue = queue if queue is not None else BoundedQueue(16)
    return BatchLoop(FixedBatcher(target), queue, StreamMetrics(), linger)


def _req(rid, **kw):
    return Request(rid=rid, kind="hash", key=rid, **kw)


class TestReleaseAt:
    def test_full_batch_launches_now(self):
        loop = _loop(linger=100.0)
        for rid in range(4):
            loop.queue.offer(_req(rid), 10.0)
        assert loop.release_at(12.0, filling=True) == 12.0

    def test_nothing_more_can_arrive_launches_now(self):
        loop = _loop(linger=100.0)
        loop.queue.offer(_req(0), 10.0)
        assert loop.release_at(12.0, filling=False) == 12.0

    def test_carried_lanes_only_wait_for_an_arrival(self):
        loop = _loop(linger=math.inf)
        loop.carry.put([_req(0)])
        assert loop.release_at(50.0, filling=True) == math.inf
        # A finite linger counts from now, so every re-check waits again.
        loop.linger = 100.0
        assert loop.release_at(50.0, filling=True) == 150.0
        assert loop.release_at(150.0, filling=True) == 250.0
        # Linger 0 never waits.
        loop.linger = 0.0
        assert loop.release_at(50.0, filling=True) == 50.0

    def test_linger_counts_from_oldest_admission(self):
        loop = _loop(linger=100.0)
        loop.queue.offer(_req(0), 10.0)
        loop.queue.offer(_req(1), 30.0)
        loop.carry.put([_req(2)])
        assert loop.release_at(40.0, filling=True) == 110.0
        # Already lingered longer than that: launch now.
        assert loop.release_at(120.0, filling=True) <= 120.0
        # An unbounded linger waits for the batch to fill.
        loop.linger = math.inf
        assert loop.release_at(40.0, filling=True) == math.inf

    def _qos_loop(self, linger):
        tenants = apply_slos(parse_tenants("A=1"), {"A": 50.0})
        loop = _loop(linger, BoundedQueue(16, qos=QoSPolicy(tenants)))
        loop.queue.offer(_req(0, tenant="A", slo=50.0), 10.0)
        return loop

    def test_slo_deadline_clips_linger(self):
        loop = self._qos_loop(linger=100.0)
        assert loop.release_at(20.0, filling=True) == 60.0
        loop.linger = math.inf
        assert loop.release_at(20.0, filling=True) == 60.0
        # A linger shorter than the budget is not stretched by it.
        loop.linger = 30.0
        assert loop.release_at(20.0, filling=True) == 40.0

    def test_slo_already_past_launches_now(self):
        loop = self._qos_loop(linger=math.inf)
        assert loop.release_at(70.0, filling=True) <= 70.0

    def test_negative_linger_rejected(self):
        with pytest.raises(ReproError):
            _loop(linger=-1.0)


# ----------------------------------------------------------------------
# pinned streams
# ----------------------------------------------------------------------
KINDS = ("hash", "list", "xfer")
ENGINE = dict(table_size=127, n_cells=32, key_space=512)
LINGER = 500.0


def _service(engine, queue):
    return StreamService(
        engine, batcher=FixedBatcher(64), queue=queue, linger=LINGER
    )


def _mixed():
    reqs = open_loop_workload(
        np.random.default_rng(11), 300, kinds=KINDS, skew=1.1,
        mean_gap=800.0, key_space=512, n_cells=32,
    )
    engine = StreamExecutor.for_workload(reqs, seed=11, **ENGINE)
    return reqs, _service(engine, BoundedQueue(256))


def _tenants():
    tenants = apply_slos(
        parse_tenants("A=0.6:zipf1.2,B=0.4"), {"A": 300.0, "B": 2000.0}
    )
    reqs = tenant_workload(
        np.random.default_rng(12), 300, tenants, kinds=("hash", "list"),
        mean_gap=800.0, key_space=512, n_cells=32,
    )
    engine = StreamExecutor.for_workload(reqs, seed=12, **ENGINE)
    return reqs, _service(engine, BoundedQueue(256, qos=QoSPolicy(tenants)))


def _sharded():
    reqs = open_loop_workload(
        np.random.default_rng(13), 300, kinds=KINDS, skew=1.1,
        mean_gap=800.0, key_space=512, n_cells=32,
    )
    engine = ShardCoordinator.for_workload(reqs, shards=3, seed=13, **ENGINE)
    return reqs, _service(engine, BoundedQueue(256))


STREAMS = {"mixed": _mixed, "tenants_qos": _tenants, "sharded_k3": _sharded}


def observe(name):
    reqs, svc = STREAMS[name]()
    recorder = TraceRecorder(Clock.simulated(lambda: svc.now))
    svc.attach_recorder(recorder)
    s = svc.run(reqs).summary()
    stages = recorder.stage_breakdown()["stages"]
    return {
        "batches": s["batches"],
        "completed": s["completed"],
        "total_cycles": round(s["total_cycles"], 6),
        "p50": round(s["p50_latency"], 6),
        "p99": round(s["p99_latency"], 6),
        "fingerprint": svc.executor.state_fingerprint(),
        "stages": {k: round(v["total"], 4) for k, v in stages.items()},
    }


# Captured under the former deadline batch policy (a 500-cycle deadline,
# 64-lane batches), the release rule this linger replaced;
# FixedBatcher(64) with linger=500 must keep reproducing them.
# sharded_k3 was re-pinned when cross-shard claims began retrying in
# rounds inside their exchange (one claim RTT per round).
PINS = {
    "mixed": {
        "batches": 85,
        "completed": 300,
        "total_cycles": 194371.8,
        "p50": 4160.689614,
        "p99": 10711.027689,
        "fingerprint": (
            "5af99e8669b48dd6b394c3cc0fe9728345188a355028c5f57afb10bcefa5a3da"
        ),
        "stages": {
            "admit": 299572.011, "queue": 0.0, "batch": 134845.6334,
            "execute": 859977.2, "commit": 0.0, "park": 0.0,
            "carry": 14833.3699,
        },
    },
    "sharded_k3": {
        "batches": 124,
        "completed": 300,
        "total_cycles": 167711.2,
        "p50": 2531.241367,
        "p99": 5250.038833,
        "fingerprint": (
            "18deae0b0767e270fb9df033850005e3e5832b417917c458c211254390c31877"
        ),
        "stages": {
            "admit": 159711.3105, "queue": 0.0, "batch": 132563.1332,
            "execute": 418057.2, "commit": 67960.0, "park": 0.0,
            "carry": 1500.0,
        },
    },
    "tenants_qos": {
        "batches": 121,
        "completed": 300,
        "total_cycles": 178289.1,
        "p50": 2479.23172,
        "p99": 4123.060363,
        "fingerprint": (
            "383e2973315cf9d8d00f99c110997b8a071a38b1a1a093d523c7f49f2aa3d8b4"
        ),
        "stages": {
            "admit": 175833.4211, "queue": 0.0, "batch": 89694.8586,
            "execute": 497525.1, "commit": 0.0, "park": 0.0, "carry": 600.0,
        },
    },
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_linger_stream_pinned(name):
    assert observe(name) == PINS[name]
