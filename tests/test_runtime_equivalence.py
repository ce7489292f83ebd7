"""Property-based equivalence: streaming a request sequence through
``repro.runtime`` — under any batching policy, with or without cross-
batch carryover — leaves the shared structures in the same final state
as one-shot FOL1 batch processing of the whole sequence.

"Same final state" is the strongest claim each structure supports:

* chained hash table — identical key multiset *per chain* (chain order
  is execution-order dependent and explicitly irrelevant, paper
  footnote 5);
* BST — identical inorder key sequence (== sorted input) plus the
  search-tree invariant; shapes may differ because insertion order is
  policy-dependent, which the paper's tree algorithms also allow;
* shared list cells — identical cell values (bumps are commutative
  deltas).

This is the guarantee that makes carryover safe: deferring a filtered
lane to the next micro-batch instead of retrying in-batch (§3.2) must
never change what the structure ends up containing.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.chained import vector_chained_insert
from repro.hashing.table import ChainedHashTable
from repro.machine import CostModel, make_machine
from repro.mem.arena import BumpAllocator
from repro.runtime import (
    AdaptiveBatcher,
    BoundedQueue,
    FixedBatcher,
    StreamService,
    requests_from_keys,
)

FREE = CostModel.free()
TABLE_SIZE = 11
N_CELLS = 8


def make_policy(name):
    """Small policies so even short streams split into several batches;
    ``deadline`` is the fixed policy under a 50-cycle linger."""
    if name in ("fixed", "deadline"):
        return FixedBatcher(batch_size=7)
    return AdaptiveBatcher(
        initial=8, min_size=2, max_size=16, m_low=2.0, m_high=4.0, smoothing=1.0
    )


def run_stream(keys, kind, policy, carryover, deltas=None, queue=None):
    reqs = requests_from_keys(keys, kind=kind, deltas=deltas)
    svc = StreamService.for_workload(
        reqs,
        batcher=make_policy(policy),
        queue=queue,
        linger=50.0 if policy == "deadline" else math.inf,
        table_size=TABLE_SIZE,
        n_cells=N_CELLS,
        carryover=carryover,
        cost_model=FREE,
    )
    metrics = svc.run(reqs)
    assert metrics.summary()["completed"] == len(reqs)
    return svc


# Duplicate-heavy key streams: a dozen distinct keys so chains collide
# and multiplicity regularly exceeds the batch size.
key_streams = st.lists(st.integers(min_value=0, max_value=12), max_size=50)
policies = st.sampled_from(["fixed", "deadline", "adaptive"])


# ----------------------------------------------------------------------
# chained hash table
# ----------------------------------------------------------------------
def one_shot_chains(keys):
    """Reference state: the pre-existing Figure 7 batch algorithm."""
    vm = make_machine(4 * TABLE_SIZE + 2 * max(len(keys), 1) + 64,
                      cost_model=FREE)
    table = ChainedHashTable(BumpAllocator(vm.mem), TABLE_SIZE,
                             max(len(keys), 1))
    vector_chained_insert(vm, table, np.asarray(keys, dtype=np.int64))
    return [sorted(c) for c in table.all_chains()]


@settings(max_examples=40, deadline=None)
@given(keys=key_streams, policy=policies, carryover=st.booleans())
def test_hash_stream_matches_one_shot(keys, policy, carryover):
    svc = run_stream(keys, "hash", policy, carryover)
    streamed = [sorted(c) for c in svc.executor.table.all_chains()]
    assert streamed == one_shot_chains(keys)


# ----------------------------------------------------------------------
# binary search tree
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(keys=key_streams, policy=policies, carryover=st.booleans())
def test_bst_stream_matches_one_shot(keys, policy, carryover):
    svc = run_stream(keys, "bst", policy, carryover)
    tree = svc.executor.tree
    assert tree.inorder() == sorted(keys)
    assert tree.size() == len(keys)
    tree.check_bst_invariant()


# ----------------------------------------------------------------------
# shared list cells
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    updates=st.lists(
        st.tuples(st.integers(0, N_CELLS - 1), st.integers(1, 9)), max_size=50
    ),
    policy=policies,
    carryover=st.booleans(),
)
def test_list_stream_matches_delta_sums(updates, policy, carryover):
    keys = [k for k, _ in updates]
    deltas = [d for _, d in updates]
    svc = run_stream(keys, "list", policy, carryover, deltas=deltas)
    expected = [0] * N_CELLS
    for k, d in updates:
        expected[k] += d
    assert svc.executor.list_values() == expected


# ----------------------------------------------------------------------
# the same property survives backpressure (blocking admission)
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(keys=key_streams, carryover=st.booleans())
def test_hash_stream_equivalent_under_backpressure(keys, carryover):
    svc = run_stream(keys, "hash", "fixed", carryover,
                     queue=BoundedQueue(4, admission="block"))
    streamed = [sorted(c) for c in svc.executor.table.all_chains()]
    assert streamed == one_shot_chains(keys)


# ----------------------------------------------------------------------
# deterministic worst cases, all policies x carryover
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["fixed", "deadline", "adaptive"])
@pytest.mark.parametrize("carryover", [False, True])
def test_all_shared_hot_key(policy, carryover):
    """Theorem 6's regime: every request targets one address."""
    keys = [5] * 30
    svc = run_stream(keys, "hash", policy, carryover)
    streamed = [sorted(c) for c in svc.executor.table.all_chains()]
    assert streamed == one_shot_chains(keys)
