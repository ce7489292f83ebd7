"""The ``"bst"`` kind: binary-search-tree insertion (paper §4.3).

State is a :class:`CountedTree`: the paper's tree of ``(key, left,
right)`` records plus a count per key value (:mod:`.counts`).  A
request whose key is already in the tree completes by bumping that
count; only a key's first copy builds a node and descends.  All bumps
of one batch run as one FOL pass over their count addresses (M rounds
for a key repeated M times), and the first copies, distinct keys by
construction, run the §4.3 descend-and-claim loop: the claim round is
FOL over the NIL slots the lanes reach, and its losers keep descending
within the same visit into the winner's fresh node.  So a ``bst`` lane
completes in the batch that carries it, in carryover and retry mode
alike, and the tree holds one node per distinct key.

Routing is by key residue (``key % key_space``): each shard grows its
own tree over the keys it owns and the global inorder is the sorted
merge of per-shard inorders, so migration is routing-only
(:data:`~repro.engine.spec.MIGRATE_ROUTE`).  A key re-routed by a
migration starts a fresh node and count on its new owner; the merge
still sees every copy.

This kind keeps a custom :meth:`BstSpec.run` instead of emitting a
:class:`~repro.backend.plan.FolPlan`: the descent interleaves claim
rounds with pointer-chasing traversal steps, and the conflict address
set changes *within* the batch as lanes descend — an irregular shape
the single-round plan IR deliberately does not model.  The hook
programs only the executor's backend-supplied ops facade
(``executor.vm``), so it runs unchanged — and uncharged — on the
``native`` backend.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ...trees.bst import (
    BinarySearchTree,
    build_nodes,
    descend_and_claim,
    vector_bst_insert,
)
from ..spec import EngineContext, WorkloadSpec, register
from .counts import KeyCounts


class CountedTree(BinarySearchTree):
    """A :class:`~repro.trees.bst.BinarySearchTree` with one node per
    distinct key and a count per key value.  :meth:`inorder` repeats
    each key by its count, so it reads as the multiset of every copy
    inserted."""

    def __init__(self, allocator, capacity: int, key_space: int) -> None:
        super().__init__(allocator, max(capacity, 1))
        self.counts = KeyCounts.build(
            allocator, key_space, "bst", capacity  # no-kind-lint
        )

    def inorder(self) -> List[int]:
        return KeyCounts.expand(self.counts, super().inorder())


class BstSpec(WorkloadSpec):
    name = "bst"
    domain = "bst"
    state_attr = "tree"
    capacity_param = "bst_capacity"
    description = "insert key into the binary search tree"

    # -- sizing and shared state ---------------------------------------
    def state_words(self, capacity: int, ctx: EngineContext) -> int:
        # root word + (key, left, right) node records, then the counts
        # and their work area when the machine serves this kind
        words = 1 + 3 * max(capacity, 1)
        return words + KeyCounts.words(capacity, ctx.key_space)

    def build_state(self, executor, allocator, capacity: int):
        return CountedTree(allocator, capacity, executor.ctx.key_space)

    # -- execution ------------------------------------------------------
    def run(self, executor, reqs: List, result) -> int:
        vm = executor.vm
        tree = executor.tree
        counts = KeyCounts.require(tree.counts, self.name)
        keys = counts.keys_of(reqs, self.name)

        def enter(fresh: np.ndarray) -> None:
            # The first copies' main processing: the §4.3 insert.
            new_keys = keys[fresh]
            nodes = build_nodes(vm, tree.nodes, new_keys, executor.policy)
            descend_and_claim(vm, tree, new_keys, nodes, executor.policy)

        counted, _, m = counts.count(vm, keys, executor.policy, enter)
        result.completed.extend(reqs[i] for i in counted)
        result.rounds += m
        return m

    # -- differential oracle --------------------------------------------
    def oracle_diff(self, engine, requests, ctx: EngineContext):
        from ...audit.oracle import diff_bst

        keys = [r.key for r in self.requests_of(requests)]
        if hasattr(engine, "bst_inorder"):  # sharded coordinator
            inorder = engine.bst_inorder()
        else:  # single-pipeline executor
            inorder = engine.tree.inorder()
        return diff_bst(inorder, keys)

    # -- core-kernel fuzzing --------------------------------------------
    def core_fuzz(self, vm, allocator, keys: np.ndarray, ctx: EngineContext):
        from ...audit.oracle import diff_bst

        tree = BinarySearchTree(allocator, max(keys.size, 1))
        vector_bst_insert(vm, tree, keys)
        tree.check_bst_invariant()
        return diff_bst(tree.inorder(), keys)


register(BstSpec())
