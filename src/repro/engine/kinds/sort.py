"""The ``"sort"`` kind: streaming address-calculation sort (paper §4.2).

The worked example for "how to add a workload kind": this one module
registers a routing domain and a spec, and the stream service, the
K-shard engine, the scalar oracle, the fuzzer and the CLI all serve
the kind with no further edits (see ``docs/architecture.md``).

Each request contributes ``key`` (a value in ``[0, key_space)``) to a
persistent sorted set.  State is a :class:`SortStore`: the work array
``C`` of :func:`repro.sorting.vector_address_calc_sort`, kept *live*
across micro-batches — every batch runs one FOL insertion round, the
sort's own :func:`~repro.sorting.address_calc.insert_round`
(order-preserving hash, masked probing, negated-subscript labels,
displaced-run shifting), so the store is sorted after every batch and
filtered lanes recirculate through the ordinary carryover path.

Routing is by value residue (order-preserving within the domain fold),
merge-on-read like the BST: each shard sorts the values it owns and
the global output is the sorted merge of per-shard stores, so
migration is routing-only (:data:`~repro.engine.spec.MIGRATE_ROUTE`).

Like ``bst``, this kind keeps a custom :meth:`SortSpec.run` rather
than emitting a :class:`~repro.backend.plan.FolPlan`: each insertion
round recomputes conflict addresses from the store's *current*
contents (hash, probe, displaced-run shift), so there is no fixed
address vector to hand a backend up front.  The hook programs only
the backend-supplied ops facade (``executor.vm``), so it runs on the
``native`` backend unchanged.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ...core.decomposition import max_multiplicity
from ...errors import ReproError
from ...sorting.address_calc import (
    AddressCalcWorkspace,
    insert_round,
    vector_address_calc_sort,
)
from ..spec import (
    MIGRATE_ROUTE,
    EngineContext,
    RoutingDomain,
    WorkloadSpec,
    register,
    register_domain,
)


class SortStore:
    """The live work array ``C`` of an incremental address-calc sort.

    ``C`` has ``3 * capacity`` slots plus one guard word; empty slots
    hold ``unentered = vmax`` (greater than any datum), and the
    insertion invariant of §4.2 keeps the entered values sorted.  The
    hash scale is fixed by ``capacity`` (not per-batch size) so the
    layout is stable across micro-batches.
    """

    def __init__(self, executor, allocator, capacity: int) -> None:
        self.capacity = max(capacity, 1)
        self.c_size = 3 * self.capacity
        self.vmax = executor.ctx.key_space
        self.unentered = self.vmax
        self.base = allocator.alloc(self.c_size + 1, "engine.sort")
        self.entered = 0
        self._mem = executor.vm.mem
        self._mem.fill(self.base, self.c_size + 1, self.unentered)

    def hash_of(self, vm, values: np.ndarray) -> np.ndarray:
        """Order-preserving spreading hash ``floor(2n·a / vmax)``."""
        return vm.floordiv(vm.mul(values, 2 * self.capacity), self.vmax)

    def values(self) -> List[int]:
        """Entered values, in sorted order (uncharged inspection)."""
        words = self.memory_words()
        return [int(v) for v in words[words != self.unentered]]

    def memory_words(self) -> np.ndarray:
        return np.asarray(self._mem.peek_range(self.base, self.c_size))


class SortSpec(WorkloadSpec):
    name = "sort"
    domain = "sort"
    description = "enter key into the streaming address-calculation sort"

    # -- sizing and shared state ---------------------------------------
    def state_words(self, capacity: int, ctx: EngineContext) -> int:
        # work array C (3n) + guard word
        return 3 * max(capacity, 1) + 1

    default_capacity = 64

    def build_state(self, executor, allocator, capacity: int):
        return SortStore(executor, allocator, capacity)

    # -- request construction -------------------------------------------
    def validate(self, req) -> None:
        if req.key < 0:
            raise ReproError(
                f"{self.name} request {req.rid} needs a non-negative "
                f"value, got {req.key}"
            )

    def fuzz_request(self, rid, key, ctx):
        from ...runtime.queue import Request

        return Request(rid=rid, kind=self.name, key=key)

    # -- execution ------------------------------------------------------
    def run(self, executor, reqs: List, result) -> int:
        store = executor.kind_state[self.name]
        vm = executor.vm
        values = np.asarray([r.key for r in reqs], dtype=np.int64)
        if values.size and values.max() >= store.vmax:
            raise ReproError(
                f"{self.name} values must lie in [0, {store.vmax})"
            )
        if store.entered + len(reqs) > store.capacity:
            raise ReproError(
                f"sort store holds {store.entered} values; entering "
                f"{len(reqs)} more exceeds capacity {store.capacity}"
            )
        lanes = np.arange(len(reqs), dtype=np.int64)
        rounds = 0
        multiplicity = 1
        limit = len(reqs) + 1
        while lanes.size:
            rounds += 1
            if rounds > limit:
                raise ReproError(f"sort round loop exceeded {limit} rounds")
            rem = values[lanes]
            entered, _, caddr = insert_round(
                vm, store.base, store.unentered, rem, store.hash_of(vm, rem),
                executor.policy,
            )
            multiplicity = max(multiplicity, max_multiplicity(caddr))
            won = lanes[entered]
            store.entered += int(won.size)
            result.completed.extend(reqs[i] for i in won)
            lost = lanes[~entered]
            if executor.carryover:
                # One FOL round per batch; filtered lanes recirculate
                # with the contested slot as their conflict group.
                lost_addrs = caddr[~entered]
                for i, addr in zip(lost, lost_addrs):
                    reqs[i].group = int(addr)
                    result.carried.append(reqs[i])
                break
            lanes = lost  # paper semantics: retry in-batch until entered
        result.rounds += rounds
        return multiplicity

    # -- differential oracle --------------------------------------------
    def _engine_values(self, engine) -> List[int]:
        if hasattr(engine, "workers"):  # sharded coordinator
            merged: List[int] = []
            for w in engine.workers:
                merged.extend(w.executor.kind_state[self.name].values())
            return sorted(merged)
        return engine.kind_state[self.name].values()

    def oracle_diff(self, engine, requests, ctx: EngineContext):
        from ...audit.oracle import diff_sorted

        data = [r.key for r in self.requests_of(requests)]
        return diff_sorted(self._engine_values(engine), data)

    # -- core-kernel fuzzing --------------------------------------------
    def core_fuzz(self, vm, allocator, keys: np.ndarray, ctx: EngineContext):
        from ...audit.oracle import diff_sorted

        ws = AddressCalcWorkspace(allocator, max(keys.size, 1))
        out = vector_address_calc_sort(vm, ws, keys, vmax=ctx.key_space)
        return diff_sorted(out, keys)


register_domain(
    RoutingDomain(
        SortSpec.domain, lambda ctx: ctx.key_space, migration=MIGRATE_ROUTE
    )
)
register(SortSpec())
