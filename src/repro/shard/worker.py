"""One shard: a full FOL pipeline over the addresses it owns.

A :class:`ShardWorker` wraps the existing single-pipeline stack — its
own :class:`~repro.machine.vm.VectorMachine` and
:class:`~repro.runtime.executor.StreamExecutor` — and runs the
micro-batch slices the router sends it.  Because the router only sends
a worker lanes whose conflict addresses it owns, the worker's FOL
rounds are self-contained: its label writes can never collide with
another worker's, which is what lets the coordinator account the
shards' cycles as concurrent (``max``) rather than serial (``sum``).

All workers are built with **identical layouts** (same table size, same
arena capacities, same allocation order), so any structural address —
chain head, cell word, work-area slot — has the same numeric value on
every shard.  Two things depend on this:

* carryover conflict groups (:attr:`Request.group` holds an address)
  stay meaningful when a migration re-routes a lane to a new owner;
* migration can move a chain between shards by address-preserving
  re-linking rather than rewriting pointers.

The coordinator drives a worker through a small surface:
:meth:`submit`/:meth:`collect` for its slice of an exchange,
:meth:`add_words` for cross-shard commits, and the migration primitives
(:meth:`can_import_chain`, :meth:`export_chain`/:meth:`import_chain`,
:meth:`export_cell`/:meth:`import_cell`).  Every other access is a
read.  A subclass whose arena lives in another process (the serving
layer's process shard) overrides these calls and :meth:`execute`,
and inherits every read.  The mutating calls use uncharged debug access:
the *simulated* cost of a migration is charged explicitly by the
coordinator from the cost model's ``shard_transfer_per_word`` /
``shard_claim_rtt`` fields, not by replaying the moves through a
worker's vector pipe (the transfer engine of a shared-nothing machine
is not its vector unit).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..engine.spec import EngineContext, machine_words, resolve_capacities
from ..lists.cells import encode_atom
from ..machine.cost_model import CostModel
from ..mem.arena import NIL
from ..runtime.executor import BatchResult, StreamExecutor
from ..runtime.queue import Request


class ShardWorker:
    """One owner-computes shard wrapping the single-pipeline executor."""

    #: False: the shard charges simulated cycles.  A shard that runs in
    #: another process reports wall seconds instead, and the coordinator
    #: then charges nothing (see ShardCoordinator.execute).
    wall_clock = False

    def __init__(
        self,
        shard_id: int,
        *,
        table_size: int,
        n_cells: int,
        key_space: int = 4096,
        hash_capacity: Optional[int] = None,
        bst_capacity: Optional[int] = None,
        capacities: Optional[Dict[str, int]] = None,
        carryover: bool = True,
        conflict_policy: str = "arbitrary",
        cost_model: Optional[CostModel] = None,
        backend="sim",
        seed: int = 0,
    ) -> None:
        from ..backend import resolve_backend

        self.shard_id = shard_id
        backend = resolve_backend(backend)
        caps = resolve_capacities(
            capacities,
            {"hash_capacity": hash_capacity, "bst_capacity": bst_capacity},
        )
        ctx = EngineContext(
            table_size=table_size, n_cells=n_cells, key_space=key_space
        )
        vm = backend.make_machine(
            machine_words(caps, ctx), cost_model=cost_model, seed=seed
        )
        self.executor = StreamExecutor(
            vm,
            backend=backend,
            table_size=table_size,
            n_cells=n_cells,
            key_space=key_space,
            carryover=carryover,
            conflict_policy=conflict_policy,
            capacities=caps,
        )
        self.vm = vm
        self.batches = 0
        self.lanes = 0
        self._result: Optional[BatchResult] = None

    # ------------------------------------------------------------------
    # invariant auditing (opt-in; zero cost when off)
    # ------------------------------------------------------------------
    def attach_audit(self, auditor) -> None:
        """Attach an invariant auditor to this shard's machine (detach
        with ``None``); the coordinator attaches one per worker."""
        self.vm.attach_audit(auditor)

    @property
    def audit(self):
        return self.vm.audit

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, batch: Sequence[Request]) -> BatchResult:
        """Run this shard's slice of the micro-batch."""
        result = self.executor.execute(batch)
        self.batches += 1
        self.lanes += len(batch)
        return result

    def submit(self, batch: Sequence[Request]) -> None:
        """Start this shard's slice of an exchange; :meth:`collect`
        returns its result.  In process the slice runs right here, so
        shards run in submit order."""
        self._result = self.execute(batch)

    def collect(self) -> BatchResult:
        """The result of the last :meth:`submit`."""
        result, self._result = self._result, None
        return result

    def add_words(self, pairs: Sequence[Tuple[int, int]]) -> None:
        """Add each ``(addr, delta)`` to this shard's words: the
        cross-shard commit (uncharged; the coordinator charges the
        commit payload).  Winners of different claim rounds may add to
        the same word, so the pairs are applied one at a time."""
        mem = self.vm.mem
        for addr, delta in pairs:
            mem.poke(addr, int(mem.peek(addr)) + int(delta))

    # ------------------------------------------------------------------
    # migration primitives (uncharged here; coordinator charges cycles)
    # ------------------------------------------------------------------
    def export_chain(self, slot: int) -> List[int]:
        """Detach and return slot's chain keys (head first)."""
        table = self.executor.table
        keys = table.chain(slot)
        table.memory.poke(table.base + slot, NIL)
        return keys

    def can_import_chain(self, n_keys: int) -> bool:
        """True if the node arena can hold ``n_keys`` more records."""
        return self.executor.table.nodes.remaining >= n_keys

    def import_chain(self, slot: int, keys: List[int]) -> None:
        """Rebuild ``keys`` as this shard's chain for ``slot``, in front
        of whatever the slot already holds (order within the imported
        run is preserved; equivalence only needs the multiset)."""
        if not keys:
            return
        table = self.executor.table
        nodes = table.nodes
        off_key = nodes.offset("key")
        off_next = nodes.offset("next")
        ptrs = [nodes.alloc_one() for _ in keys]
        old_head = table.memory.peek(table.base + slot)
        for i, (ptr, key) in enumerate(zip(ptrs, keys)):
            nxt = ptrs[i + 1] if i + 1 < len(ptrs) else old_head
            table.memory.poke(ptr + off_key, int(key))
            table.memory.poke(ptr + off_next, int(nxt))
        table.memory.poke(table.base + slot, ptrs[0])

    def export_cell(self, cell: int) -> int:
        """Zero this shard's copy of ``cell`` and return the value it
        contributed (may be negative: cells hold signed deltas)."""
        executor = self.executor
        addr = int(executor._cell_ptrs[cell]) + executor.cells.cells.offset("car")
        value = -int(executor.vm.mem.peek(addr)) - 1
        executor.vm.mem.poke(addr, encode_atom(0))
        return value

    def import_cell(self, cell: int, value: int) -> None:
        """Fold ``value`` into this shard's copy of ``cell``."""
        executor = self.executor
        addr = int(executor._cell_ptrs[cell]) + executor.cells.cells.offset("car")
        executor.vm.mem.poke(addr, int(executor.vm.mem.peek(addr)) - int(value))

    def cell_addr(self, cell: int) -> int:
        """Word address of cell's value (for cross-shard commits)."""
        executor = self.executor
        return int(executor._cell_ptrs[cell]) + executor.cells.cells.offset("car")

    # ------------------------------------------------------------------
    # uncharged state inspection (merging and verification)
    # ------------------------------------------------------------------
    def chain_multisets(self) -> Dict[int, List[int]]:
        """Slot -> keys currently chained on this shard (all slots the
        shard has ever populated; empty chains omitted)."""
        table = self.executor.table
        out: Dict[int, List[int]] = {}
        for slot in range(table.size):
            keys = table.chain(slot)
            if keys:
                out[slot] = keys
        return out

    def bst_inorder(self) -> List[int]:
        return list(self.executor.tree.inorder())

    def check_bst(self) -> None:
        """Raise if this shard's tree violates the BST invariant."""
        self.executor.tree.check_bst_invariant()

    def cell_values(self) -> List[int]:
        return self.executor.list_values()

    @property
    def hash_nodes_used(self) -> int:
        return self.executor.table.nodes.allocated

    @property
    def total_cycles(self) -> float:
        return self.vm.counter.total
