"""BoundedQueue under concurrent producers (and a draining consumer).

The serving layer fronts the queue with real concurrency, so the
admission bookkeeping must be atomic: no lost or duplicated requests,
``admitted + rejected + blocked == offered`` exactly, and the depth
never overshoots capacity regardless of interleaving.
"""

from __future__ import annotations

import threading

from repro.runtime.queue import BoundedQueue, Request


def _reqs(start: int, n: int):
    return [Request(rid=start + i, kind="hash", key=i % 97) for i in range(n)]


def _run_producers(queue, per_producer, n_producers, retry_blocked):
    """Offer from N threads; returns per-producer admitted rid lists."""
    admitted = [[] for _ in range(n_producers)]
    barrier = threading.Barrier(n_producers)

    def produce(p):
        barrier.wait()  # maximise interleaving
        for req in _reqs(p * per_producer, per_producer):
            while True:
                if queue.offer(req, now=0.0):
                    admitted[p].append(req.rid)
                    break
                if not retry_blocked:
                    break

    threads = [
        threading.Thread(target=produce, args=(p,))
        for p in range(n_producers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return admitted


class TestConcurrentReject:
    def test_counters_balance_and_capacity_holds(self):
        queue = BoundedQueue(capacity=64, admission="reject")
        admitted = _run_producers(
            queue, per_producer=200, n_producers=8, retry_blocked=False
        )
        stats = queue.stats
        n_admitted = sum(len(a) for a in admitted)
        assert stats.offered == 8 * 200
        assert stats.admitted == n_admitted == queue.depth
        assert stats.blocked_offers == 0
        assert stats.blocked_requests == 0
        assert stats.blocked == 0  # legacy alias tracks blocked_offers
        assert stats.admitted + stats.rejected == stats.offered
        # the full-check and append are atomic: never overshoots
        assert queue.depth <= 64
        assert stats.max_depth <= 64

    def test_no_lost_or_duplicated_requests(self):
        queue = BoundedQueue(capacity=4096, admission="reject")
        admitted = _run_producers(
            queue, per_producer=300, n_producers=6, retry_blocked=False
        )
        # capacity exceeds the offered load: everything admitted once
        drained = [r.rid for r in queue.take(queue.depth)]
        assert sorted(drained) == sorted(
            rid for lst in admitted for rid in lst
        )
        assert len(set(drained)) == len(drained) == 6 * 300


class TestConcurrentBlock:
    def test_blocked_producers_all_finish_against_consumer(self):
        """Block-mode fairness: with a consumer draining, every
        producer's retries eventually land — nothing is dropped and the
        ledger stays exact under contention."""
        queue = BoundedQueue(capacity=32, admission="block")
        taken = []
        done = threading.Event()

        def consume():
            while not (done.is_set() and queue.depth == 0):
                taken.extend(queue.take(8))

        consumer = threading.Thread(target=consume)
        consumer.start()
        admitted = _run_producers(
            queue, per_producer=150, n_producers=6, retry_blocked=True
        )
        done.set()
        consumer.join()
        stats = queue.stats
        assert all(len(a) == 150 for a in admitted)  # nobody starved out
        assert stats.admitted == 6 * 150
        assert stats.rejected == 0
        assert stats.admitted + stats.blocked_offers == stats.offered
        # every retried offer counts, but a request blocks at most once
        assert stats.blocked_requests <= stats.blocked_offers
        assert stats.blocked_requests <= 6 * 150
        assert stats.max_depth <= 32
        rids = [r.rid for r in taken]
        assert len(set(rids)) == len(rids) == 6 * 150

    def test_reject_mode_sheds_under_contention(self):
        queue = BoundedQueue(capacity=16, admission="reject")
        _run_producers(
            queue, per_producer=100, n_producers=4, retry_blocked=False
        )
        stats = queue.stats
        assert stats.rejected > 0  # 400 offers into 16 slots must shed
        assert stats.admitted + stats.rejected == stats.offered == 400
        assert queue.depth == stats.admitted <= 16


class TestConcurrentReaders:
    def test_len_depth_full_are_locked_and_consistent(self):
        """Hammer ``__len__``/``depth``/``snapshot`` from reader threads
        while producers and a consumer churn the queue: every read must
        be a value the locked counter could actually hold (0..capacity),
        and each snapshot's ``full`` and per-tenant depths must agree
        with its own depth (one lock acquisition, one instant)."""
        queue = BoundedQueue(capacity=32, admission="reject")
        stop = threading.Event()
        bad: list = []

        def read():
            while not stop.is_set():
                d = queue.depth
                n = len(queue)
                if not (0 <= d <= 32 and 0 <= n <= 32):
                    bad.append(("range", d, n))
                snap = queue.snapshot()
                if not 0 <= snap.depth <= 32:
                    bad.append(("snapshot-range", snap))
                if snap.full != (snap.depth >= queue.capacity):
                    bad.append(("full-vs-depth", snap))
                if sum(snap.tenant_depths.values()) != snap.depth:
                    bad.append(("tenant-depths", snap))

        def consume():
            while not stop.is_set():
                queue.take(4)

        readers = [threading.Thread(target=read) for _ in range(4)]
        consumer = threading.Thread(target=consume)
        for t in readers + [consumer]:
            t.start()
        _run_producers(
            queue, per_producer=2000, n_producers=4, retry_blocked=False
        )
        stop.set()
        for t in readers + [consumer]:
            t.join()
        assert bad == []
        stats = queue.stats
        assert stats.admitted + stats.rejected == stats.offered == 4 * 2000
        assert stats.max_depth <= 32
