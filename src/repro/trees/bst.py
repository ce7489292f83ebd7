"""Multi-insertion into an unbalanced binary search tree — paper §4.3.

Sequential baseline: standard BST insert, one key at a time, charged on
the scalar unit.

Vectorized algorithm (FOL1 specialisation): all keys descend the tree in
lock-step.  Each step gathers the current nodes' keys, picks the left or
right child slot, and descends where a child exists.  Keys that reach an
empty (NIL) slot try to claim it: they scatter their unique subscript
labels *into the slot word itself* (the slot is about to be overwritten
by main processing, so it doubles as the FOL work area), gather back,
and the surviving lane per slot allocates a node and stores its pointer
there.  Filtered lanes simply keep descending — next step they gather
the slot again and find the winner's freshly inserted node, exactly as
if the winner had been processed "before" them in a sequential order.

Duplicate keys descend right (``key >= node.key`` goes right), matching
the baseline, so both implementations accept duplicate keys.

The paper's benchmark (Figure 14) pre-builds a tree of ``Ni`` random
keys because an empty tree makes every first-wave key collide at the
root — "too disadvantageous for vector processing".
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from ..errors import ReproError
from ..machine.scalar import ScalarProcessor
from ..machine.vm import VectorMachine
from ..mem.arena import NIL, BumpAllocator, RecordArena

#: Node layout: key, left-child pointer, right-child pointer.
BST_FIELDS = ("key", "left", "right")


class BinarySearchTree:
    """Linked BST over a record arena; root held in a memory word so the
    empty-tree case is also a pointer rewrite."""

    def __init__(self, allocator: BumpAllocator, capacity: int, name: str = "bst") -> None:  # no-kind-lint
        self.nodes = RecordArena(allocator, BST_FIELDS, capacity, name=f"{name}.nodes")
        self.root_addr = allocator.alloc(1, f"{name}.root")
        self.memory = allocator.memory
        self.memory.words[self.root_addr] = NIL

    # ------------------------------------------------------------------
    # uncharged helpers (test setup / verification)
    # ------------------------------------------------------------------
    def build(self, keys: Iterable[int]) -> None:
        """Sequentially insert ``keys`` without charging cycles — used to
        pre-build the initial Ni-node tree of Figure 14's setup."""
        for key in keys:
            key = int(key)
            node = self.nodes.alloc_one()
            self.nodes.poke_field(node, "key", key)
            self.nodes.poke_field(node, "left", NIL)
            self.nodes.poke_field(node, "right", NIL)
            ptr = self.memory.peek(self.root_addr)
            if ptr == NIL:
                self.memory.poke(self.root_addr, node)
                continue
            while True:
                nkey = self.nodes.peek_field(ptr, "key")
                field = "left" if key < nkey else "right"
                child = self.nodes.peek_field(ptr, field)
                if child == NIL:
                    self.nodes.poke_field(ptr, field, node)
                    break
                ptr = child

    def inorder(self) -> List[int]:
        """In-order key sequence (uncharged, iterative to spare the
        Python recursion limit on degenerate trees)."""
        out: List[int] = []
        stack: List[int] = []
        ptr = self.memory.peek(self.root_addr)
        while ptr != NIL or stack:
            while ptr != NIL:
                stack.append(ptr)
                ptr = self.nodes.peek_field(ptr, "left")
            ptr = stack.pop()
            out.append(self.nodes.peek_field(ptr, "key"))
            ptr = self.nodes.peek_field(ptr, "right")
        return out

    def check_bst_invariant(self) -> None:
        """Raise unless the in-order sequence is sorted."""
        seq = self.inorder()
        if any(a > b for a, b in zip(seq, seq[1:])):
            raise ReproError("BST invariant violated: in-order sequence not sorted")

    def size(self) -> int:
        """Number of reachable nodes (uncharged)."""
        return len(self.inorder())

    def depth(self) -> int:
        """Tree height (uncharged, iterative)."""
        root = self.memory.peek(self.root_addr)
        if root == NIL:
            return 0
        best = 0
        stack = [(root, 1)]
        while stack:
            ptr, d = stack.pop()
            best = max(best, d)
            for f in ("left", "right"):
                child = self.nodes.peek_field(ptr, f)
                if child != NIL:
                    stack.append((child, d + 1))
        return best


# ----------------------------------------------------------------------
# sequential insertion (baseline)
# ----------------------------------------------------------------------
def scalar_bst_insert(
    sp: ScalarProcessor,
    tree: BinarySearchTree,
    keys: Iterable[int],
) -> None:
    """Insert keys one at a time, charging scalar cycles per step."""
    nodes = tree.nodes
    off_left = nodes.offset("left")
    off_right = nodes.offset("right")
    off_key = nodes.offset("key")
    for key in keys:
        key = int(key)
        node = nodes.alloc_one()
        sp.alu()  # allocation bump
        sp.store(node + off_key, key)
        sp.store(node + off_left, NIL)
        sp.store(node + off_right, NIL)
        slot = tree.root_addr
        while True:
            ptr = sp.load(slot)
            sp.branch()
            if ptr == NIL:
                sp.store(slot, node)
                break
            nkey = sp.load(ptr + off_key)
            sp.alu(2)  # compare + slot address arithmetic
            slot = ptr + (off_left if key < nkey else off_right)
            sp.loop_iter()
        sp.loop_iter()


# ----------------------------------------------------------------------
# vectorized multi-insertion (FOL1 specialisation)
# ----------------------------------------------------------------------
def build_nodes(
    vm: VectorMachine, nodes, keys: np.ndarray, policy: str = "arbitrary"
) -> np.ndarray:
    """Allocate one leaf node per key and initialise its fields by
    vector stores; returns the node addresses."""
    n = keys.size
    ptrs = nodes.alloc_many(n)
    vm.iota(n)  # charge the address generation
    vm.scatter(vm.add(ptrs, nodes.offset("key")), keys, policy=policy)
    vm.scatter(vm.add(ptrs, nodes.offset("left")), vm.splat(n, NIL), policy=policy)
    vm.scatter(vm.add(ptrs, nodes.offset("right")), vm.splat(n, NIL), policy=policy)
    return ptrs


def claim_round(
    vm: VectorMachine, slots, labels, claiming, node_ptrs,
    policy: str = "arbitrary",
) -> np.ndarray:
    """The insert's FOL round, masked to the lanes ``claiming`` a NIL
    slot: write their labels into the slots, read them back, and link
    the one surviving lane's pre-built node per slot (ELS).  Returns
    the mask of winning lanes."""
    vm.scatter_masked(slots, labels, claiming, policy=policy)
    readback = vm.gather(slots)
    won = vm.mask_and(claiming, vm.eq(readback, labels))
    if vm.audit is not None:
        vm.audit.on_claim(slots, claiming, won)
    vm.scatter_masked(slots, node_ptrs, won, policy=policy)
    if not vm.any_true(won):
        raise ReproError("BST claim round made no progress")
    return won


def vector_bst_insert(
    vm: VectorMachine,
    tree: BinarySearchTree,
    keys: np.ndarray,
    policy: str = "arbitrary",
    max_steps: Optional[int] = None,
) -> int:
    """Insert all ``keys`` by vector operations; returns the number of
    descend-and-claim steps executed."""
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        return 0
    new_nodes = build_nodes(vm, tree.nodes, keys, policy)
    return descend_and_claim(vm, tree, keys, new_nodes, policy, max_steps)


def descend_and_claim(
    vm: VectorMachine,
    tree: BinarySearchTree,
    keys: np.ndarray,
    new_nodes: np.ndarray,
    policy: str = "arbitrary",
    max_steps: Optional[int] = None,
) -> int:
    """Descend every key from the root slot and link its pre-built node
    at the NIL slot it reaches, claim losers descending on in the same
    loop.  Returns the number of descend-and-claim steps executed."""
    n = keys.size
    nodes = tree.nodes
    off_left = nodes.offset("left")
    off_right = nodes.offset("right")
    off_key = nodes.offset("key")

    # Every key starts at the root *slot* (the word holding the root
    # pointer), so inserting into an empty tree needs no special case.
    slots = vm.splat(n, tree.root_addr)
    labels = vm.iota(n)
    active = vm.iota(n)  # positions of keys not yet inserted

    steps = 0
    limit = max_steps if max_steps is not None else 2 * (tree.nodes.capacity + n) + 4
    while active.size:
        steps += 1
        if steps > limit:
            raise ReproError(f"vector BST insert exceeded {limit} steps")

        cur_slots = slots[active]
        ptrs = vm.gather(cur_slots)
        at_nil = vm.eq(ptrs, NIL)

        # -- claim phase: lanes standing on a NIL slot run one FOL round.
        if vm.any_true(at_nil):
            won = claim_round(
                vm, cur_slots, labels[active], at_nil, new_nodes[active], policy
            )
            # Winners are inserted and leave the active set; losers stay
            # and will descend into the winner's fresh node next step.
            active = vm.compress(active, vm.mask_not(won))
            if active.size == 0:
                break
            cur_slots = slots[active]
            ptrs = vm.gather(cur_slots)

        # -- descend phase: every touched slot now holds a node, so all
        #    remaining lanes follow left/right by key comparison.
        node_keys = vm.gather(vm.add(ptrs, off_key))
        go_left = vm.lt(keys[active], node_keys)
        child_slots = vm.add(ptrs, vm.select(go_left, off_left, off_right))
        slots[active] = child_slots
        vm.loop_overhead()

    return steps
