"""The ``"bst"`` kind: binary-search-tree insertion (paper §4.1).

Conflict address: the NIL slot a descent claims.  Routing is by key
residue (``key % key_space``): each shard grows its own tree over the
keys it owns and the global inorder is the sorted merge of per-shard
inorders, so migration is routing-only
(:data:`~repro.engine.spec.MIGRATE_ROUTE`).  A carried lane owns a
pre-built node and a descent slot in one shard's memory, so it stays
pinned to that shard (:meth:`BstSpec.pin_shard`) even if a migration
re-routed its residue.

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

from ...errors import ReproError
from ...mem.arena import NIL
from ...trees.bst import (
    BinarySearchTree,
    build_nodes,
    claim_round,
    vector_bst_insert,
)
from ..spec import EngineContext, WorkloadSpec, register


class BstSpec(WorkloadSpec):
    name = "bst"
    domain = "bst"
    state_attr = "tree"
    capacity_param = "bst_capacity"
    description = "insert key into the binary search tree"

    # -- sizing and shared state ---------------------------------------
    def state_words(self, capacity: int, ctx: EngineContext) -> int:
        # root word + (key, left, right) node records
        return 1 + 3 * max(capacity, 1)

    def build_state(self, executor, allocator, capacity: int):
        return BinarySearchTree(allocator, max(capacity, 1))

    # -- execution ------------------------------------------------------
    def run(self, executor, reqs: List, result) -> int:
        from ...runtime.queue import FRESH_SLOT

        vm = executor.vm
        tree = executor.tree
        nodes = tree.nodes
        off_key = nodes.offset("key")
        off_left = nodes.offset("left")
        off_right = nodes.offset("right")
        n = len(reqs)
        keys = np.asarray([r.key for r in reqs], dtype=np.int64)

        # Pre-build a node per *fresh* lane; carried lanes already own one.
        fresh = [i for i, r in enumerate(reqs) if r.node == NIL]
        if fresh:
            built = build_nodes(vm, nodes, keys[fresh], executor.policy)
            for i, ptr in zip(fresh, built):
                reqs[i].node = int(ptr)
        node_ptrs = np.asarray([r.node for r in reqs], dtype=np.int64)

        slots = np.asarray(
            [tree.root_addr if r.slot == FRESH_SLOT else r.slot for r in reqs],
            dtype=np.int64,
        )
        labels = vm.iota(n)
        active = vm.iota(n)
        claim_rounds = 0
        limit = 2 * (nodes.capacity + n) + 4
        steps = 0
        while active.size:
            steps += 1
            if steps > limit:
                raise ReproError(f"stream BST insert exceeded {limit} steps")
            cur_slots = slots[active]
            ptrs = vm.gather(cur_slots)
            at_nil = vm.eq(ptrs, NIL)

            if vm.any_true(at_nil):
                claim_rounds += 1
                won = claim_round(
                    vm, cur_slots, labels[active], at_nil, node_ptrs[active],
                    executor.policy,
                )
                result.completed.extend(reqs[i] for i in active[won])
                if executor.carryover:
                    # Filtered claimants defer to the next batch, resuming
                    # at the slot the winner just filled.
                    lost = vm.mask_and(at_nil, vm.mask_not(won))
                    for i, slot in zip(active[lost], cur_slots[lost]):
                        reqs[i].slot = int(slot)
                        reqs[i].group = int(slot)
                        result.carried.append(reqs[i])
                    active = vm.compress(active, vm.mask_not(at_nil))
                else:
                    # Paper semantics: losers keep descending in-batch —
                    # next step they find the winner's node in the slot.
                    active = vm.compress(active, vm.mask_not(won))
                if active.size == 0:
                    break
                cur_slots = slots[active]
                ptrs = vm.gather(cur_slots)

            node_keys = vm.gather(vm.add(ptrs, off_key))
            go_left = vm.lt(keys[active], node_keys)
            child = vm.add(ptrs, vm.select(go_left, off_left, off_right))
            slots[active] = child
            vm.loop_overhead()

        result.rounds += claim_rounds
        return max(claim_rounds, 1)

    # -- routing --------------------------------------------------------
    def pin_shard(self, req) -> int:
        # A carried lane's pre-built node and descent slot live in one
        # shard's memory; it must resume there.
        if req.node != NIL and req.home >= 0:
            return req.home
        return -1

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
