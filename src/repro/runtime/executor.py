"""Micro-batch execution of symbolic updates against shared state.

One :class:`StreamExecutor` owns the per-kind shared state every batch
mutates, plus the ops facade its :class:`~repro.backend.Backend`
provides (the calibrated cycle-model VM on ``sim``, uncharged NumPy on
``native``).  The state, and the FOL plan that drives each batch
through it, come from the workload registry (:mod:`repro.engine`):
construction walks the registered
:class:`~repro.engine.spec.WorkloadSpec`\\ s in registration order —
building each kind's state (hash table, BST, cell bank, sort store) on
one bump allocator — and :meth:`StreamExecutor.execute` partitions the
batch by kind in a single pass and hands each slice to its spec's
``run`` hook, which emits a backend-neutral plan for the backend to
execute (or drives the facade directly for irregular kinds).

Two execution modes, chosen per executor:

* **carryover mode** (default) — one FOL round per kind per batch;
  surviving lanes get their main processing, the filtered lanes come
  back in the :class:`BatchResult` for the service to re-enqueue (see
  :mod:`repro.runtime.carryover` for why).  ``bst`` and ``sort`` are
  the exception: their lanes bump per-key counts in one FOL pass of M
  rounds, so a ``bst`` lane always completes, and only a new ``sort``
  value that loses its insertion round carries, with its copies.
* **retry mode** (``carryover=False``) — the paper's §3.2 loop: FOL
  retries filtered lanes within the batch until all lanes complete, so
  the batch performs M full rounds.  This is the one-shot semantics the
  equivalence tests compare against, available per-service for
  benchmarking the two designs.

The per-kind algorithms (chained-hash enter, BST claim-descend, FOL*
two-cell transfer, list bumps, address-calc sort rounds) live in
``repro/engine/kinds/`` — this module no longer names any kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine.spec import (
    EngineContext,
    count_by_kind,
    get_spec,
    machine_words,
    resolve_capacities,
    specs,
)
from ..mem.arena import BumpAllocator
from .queue import Request


@dataclass
class BatchResult:
    """What one executed micro-batch did.

    The shard fields stay at their empty defaults for single-pipeline
    execution; the sharded coordinator (:mod:`repro.shard.coordinator`)
    fills them in so the metrics layer can report per-shard occupancy,
    concurrent rounds, cross-shard traffic and migrations.
    """

    completed: List[Request] = field(default_factory=list)
    carried: List[Request] = field(default_factory=list)
    rounds: int = 0
    multiplicity: int = 1
    cycles: float = 0.0
    kind_counts: Tuple[Tuple[str, int], ...] = ()
    shard_sizes: Tuple[int, ...] = ()
    shard_cycles: Tuple[float, ...] = ()
    shard_rounds: Tuple[int, ...] = ()
    cross_units: int = 0
    migrations: int = 0
    parked: int = 0  # lanes parked because their bin was mid-handoff
    # Phase spans for the lifecycle-trace decomposition, in the layer's
    # clock unit (simulated cycles under the coordinator, wall seconds
    # under the process cluster).  ``cycles`` stays the single source of
    # simulated cost — these only split it (execute = cycles − spans).
    exchange_span: float = 0.0  # claim/commit phase of this batch
    migration_span: float = 0.0  # migration phase of this batch
    shard_exec_spans: Tuple[float, ...] = ()  # worker-measured exec spans
    cross_committed: Tuple[int, ...] = ()  # rids committed cross-shard

    @property
    def size(self) -> int:
        return len(self.completed) + len(self.carried)

    @property
    def filtered(self) -> int:
        return len(self.carried)


class StreamExecutor:
    """Executes micro-batches of symbolic updates on shared state."""

    def __init__(
        self,
        vm,
        *,
        backend="sim",
        table_size: int = 509,
        hash_capacity: int = 4096,
        bst_capacity: int = 4096,
        n_cells: int = 64,
        key_space: int = 4096,
        carryover: bool = True,
        conflict_policy: str = "arbitrary",
        capacities: Optional[Dict[str, int]] = None,
    ) -> None:
        from ..backend import resolve_backend

        self.vm = vm
        self.backend = resolve_backend(backend)
        self.carryover = carryover
        self.policy = conflict_policy
        self.ctx = EngineContext(
            table_size=table_size, n_cells=n_cells, key_space=key_space
        )
        self.n_cells = n_cells
        self.capacities = resolve_capacities(
            capacities,
            {"hash_capacity": hash_capacity, "bst_capacity": bst_capacity},
        )
        alloc = BumpAllocator(vm.mem)
        # Build every registered kind's shared state, in registration
        # order (the allocation order is part of the golden layout).
        self.kind_state: Dict[str, object] = {}
        for spec in specs():
            state = spec.build_state(self, alloc, self.capacities[spec.name])
            if state is not None:
                self.kind_state[spec.name] = state
            for attr, value in spec.state_aliases(state).items():
                setattr(self, attr, value)

    # ------------------------------------------------------------------
    # convenient construction
    # ------------------------------------------------------------------
    @classmethod
    def for_workload(
        cls,
        requests: Sequence[Request],
        *,
        table_size: int = 509,
        n_cells: int = 64,
        key_space: int = 4096,
        carryover: bool = True,
        conflict_policy: str = "arbitrary",
        cost_model=None,
        backend="sim",
        seed: int = 0,
    ) -> "StreamExecutor":
        """Build an executor (and its machine) sized for ``requests``,
        on the given execution backend (name or instance)."""
        from ..backend import resolve_backend

        backend = resolve_backend(backend)
        counts = count_by_kind(requests)
        caps = {s.name: counts.get(s.name, 0) for s in specs()}
        ctx = EngineContext(
            table_size=table_size, n_cells=n_cells, key_space=key_space
        )
        vm = backend.make_machine(
            machine_words(caps, ctx), cost_model=cost_model, seed=seed
        )
        return cls(
            vm,
            backend=backend,
            table_size=table_size,
            n_cells=n_cells,
            key_space=key_space,
            carryover=carryover,
            conflict_policy=conflict_policy,
            capacities=caps,
        )

    # ------------------------------------------------------------------
    # invariant auditing (opt-in; zero cost when off)
    # ------------------------------------------------------------------
    def attach_audit(self, auditor) -> None:
        """Attach an invariant auditor to this executor's machine (or
        detach with ``None``).  See :mod:`repro.audit.invariants`."""
        self.vm.attach_audit(auditor)

    @property
    def audit(self):
        return self.vm.audit

    # ------------------------------------------------------------------
    # uncharged state inspection (verification/tests)
    # ------------------------------------------------------------------
    def list_values(self) -> List[int]:
        """Current decoded value of every shared list cell."""
        off_car = self.cells.cells.offset("car")
        return [
            -int(self.vm.mem.peek(int(p) + off_car)) - 1 for p in self._cell_ptrs
        ]

    def state_fingerprint(self) -> str:
        """SHA-256 over the machine's entire word storage (uncharged).

        Identical layouts make this directly comparable across
        backends: the cross-backend parity suite asserts sim and native
        runs of one workload end bit-identical."""
        import hashlib

        words = self.vm.mem.peek_range(0, self.vm.mem.size)
        return hashlib.sha256(words.tobytes()).hexdigest()

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------
    def execute(self, batch: Sequence[Request]) -> BatchResult:
        """Run one micro-batch; returns completions, carryovers and the
        batch's cycle/round/multiplicity accounting."""
        result = BatchResult()
        if not batch:
            return result
        start = self.vm.counter.snapshot()
        # Single-pass partition by kind, first-appearance order (the
        # dispatch order is part of the golden cycle sequence).
        by_kind: Dict[str, List[Request]] = {}
        for req in batch:
            by_kind.setdefault(req.kind, []).append(req)
        mults = [1]
        for kind, reqs in by_kind.items():
            mults.append(get_spec(kind).run(self, reqs, result))
        result.multiplicity = max(mults)
        result.cycles = self.vm.counter.delta(start)
        result.kind_counts = tuple((k, len(v)) for k, v in by_kind.items())
        return result
