"""Duplicate keys become counts: ``bst`` and ``sort`` grow with the
distinct keys of a stream, not with its history.

A request whose key is already present completes by bumping the key's
count, in one FOL pass over the batch's count addresses (M rounds for a
key repeated M times, Theorem 5); only a key's first copy adds a tree
node or a ``C`` entry.  So a ``bst`` lane never carries, a stream of
``n`` requests takes ``ceil(n / batch)`` batches, and the cost of a
request no longer depends on how many copies of its key came before.
"""

import math

import numpy as np
import pytest

from repro.engine import EngineContext, machine_words
from repro.errors import ReproError
from repro.runtime import (
    FixedBatcher,
    StreamExecutor,
    StreamService,
    closed_loop_workload,
    requests_from_keys,
)

KEY_SPACE = 4096
BATCH = 256


def closed_stream(kind, n, *, carryover=True, skew=0.8, seed=0):
    rng = np.random.default_rng(seed)
    reqs = closed_loop_workload(
        rng, n, kinds=(kind,), skew=skew, key_space=KEY_SPACE
    )
    svc = StreamService.for_workload(
        reqs, batcher=FixedBatcher(batch_size=BATCH), carryover=carryover
    )
    metrics = svc.run(reqs)
    assert metrics.total_completed == n
    return svc, reqs, metrics


def entered_values(store):
    words = store.memory_words()
    return words[words != store.unentered].tolist()


class TestHistoryIndependence:
    def test_sort_cycles_per_request_flat_in_n(self):
        # Zipf 0.8 packs the hot values into one run at the bottom of C;
        # as copies, the parent paid 10,200 -> 31,090 cycles a request.
        per_req = {}
        for n in (500, 2000):
            svc, _, _ = closed_stream("sort", n)
            per_req[n] = svc.now / n
        assert per_req[2000] <= 1.25 * per_req[500]

    @pytest.mark.parametrize("carryover", [True, False])
    @pytest.mark.parametrize("n", [500, 2000])
    def test_bst_one_pass_one_node_per_key(self, n, carryover):
        svc, reqs, metrics = closed_stream("bst", n, carryover=carryover)
        assert len(metrics.batches) == math.ceil(n / BATCH)
        assert sum(b.filtered for b in metrics.batches) == 0
        tree = svc.executor.tree
        assert tree.nodes.allocated == len({r.key for r in reqs})
        assert tree.inorder() == sorted(r.key for r in reqs)
        tree.check_bst_invariant()

    def test_sort_one_entry_per_value(self):
        svc, reqs, _ = closed_stream("sort", 2000)
        store = svc.executor.kind_state["sort"]
        assert entered_values(store) == sorted({r.key for r in reqs})
        assert store.values() == sorted(r.key for r in reqs)


class TestCounts:
    @pytest.mark.parametrize("carryover", [True, False])
    def test_bst_200_copies_one_node(self, carryover):
        reqs = requests_from_keys([77] * 200, kind="bst")
        svc = StreamService.for_workload(
            reqs, batcher=FixedBatcher(batch_size=64), carryover=carryover
        )
        svc.run(reqs)
        tree = svc.executor.tree
        assert tree.nodes.allocated == 1
        assert tree.counts.table()[77] == 200
        assert tree.inorder() == [77] * 200

    @pytest.mark.parametrize("carryover", [True, False])
    def test_sort_200_copies_one_entry(self, carryover):
        reqs = requests_from_keys([77] * 200, kind="sort")
        svc = StreamService.for_workload(
            reqs, batcher=FixedBatcher(batch_size=64), carryover=carryover
        )
        svc.run(reqs)
        store = svc.executor.kind_state["sort"]
        assert entered_values(store) == [77]
        assert store.counts.table()[77] == 200
        assert store.values() == [77] * 200

    @pytest.mark.parametrize("kind", ["bst", "sort"])
    def test_batch_multiplicity_is_m(self, kind):
        # Theorem 5: the count pass takes M rounds, M = 5 here.  The
        # values are far apart, so no two contest one slot of C.
        keys = [100, 3000, 3000, 1500, 3000, 3000, 2200, 3000]
        reqs = requests_from_keys(keys, kind=kind)
        executor = StreamExecutor.for_workload(reqs)
        result = executor.execute(reqs)
        assert result.multiplicity == 5
        assert sorted(r.rid for r in result.completed) == list(range(8))
        assert result.carried == []

    @pytest.mark.parametrize("kind", ["bst", "sort"])
    def test_present_keys_only_bump(self, kind):
        keys = [500, 1500, 2500, 500, 1500, 2500, 500]
        reqs = requests_from_keys(keys, kind=kind)
        executor = StreamExecutor.for_workload(reqs)
        assert executor.execute(reqs[:3]).carried == []
        words = executor.vm.mem.words.copy()
        executor.execute(reqs[3:])
        changed = np.flatnonzero(executor.vm.mem.words != words)
        counts = executor.kind_state[kind].counts
        # Only count words and their FOL work area moved.
        assert changed.min() >= counts.base
        assert changed.max() < counts.base + 2 * KEY_SPACE
        assert counts.table()[[500, 1500, 2500]].tolist() == [3, 2, 2]

    @pytest.mark.parametrize("kind", ["bst", "sort"])
    def test_key_outside_count_table_rejected(self, kind):
        reqs = requests_from_keys([KEY_SPACE], kind=kind)
        executor = StreamExecutor.for_workload(reqs)
        with pytest.raises(ReproError, match="must lie in"):
            executor.execute(reqs)


class TestSizing:
    def test_absent_kinds_get_no_count_words(self):
        ctx = EngineContext(table_size=101, n_cells=8, key_space=256)
        base = {"hash": 10, "bst": 0, "list": 0, "xfer": 0, "sort": 0}
        legacy = 1 + (2 * 101 + 2 * 10) + (1 + 3) + 6 * 8 + 4 + 4096
        assert machine_words(base, ctx) == legacy
        with_bst = dict(base, bst=1)
        assert machine_words(with_bst, ctx) == legacy + 2 * 256

    def test_machine_without_the_kind_refuses_it(self):
        hashes = requests_from_keys([1, 2, 3], kind="hash")
        executor = StreamExecutor.for_workload(hashes)
        for kind in ("bst", "sort"):
            with pytest.raises(ReproError, match="sized without"):
                executor.execute(requests_from_keys([1], kind=kind))
