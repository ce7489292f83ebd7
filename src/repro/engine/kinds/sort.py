"""The ``"sort"`` kind: streaming address-calculation sort (paper §4.2).

The worked example for "how to add a workload kind": this one module
registers a routing domain and a spec, and the stream service, the
K-shard engine, the scalar oracle, the fuzzer and the CLI all serve
the kind with no further edits (see ``docs/architecture.md``).

Each request contributes ``key`` (a value in ``[0, key_space)``) to a
persistent sorted multiset.  State is a :class:`SortStore`: the work
array ``C`` of :func:`repro.sorting.vector_address_calc_sort`, kept
*live* across micro-batches, and a count per value (:mod:`.counts`).
A request whose value is already in ``C`` completes by bumping the
value's count, all of one batch's bumps in one FOL pass over the count
addresses; only a value's first copy enters ``C``, through the sort's
own :func:`~repro.sorting.address_calc.insert_round` (order-preserving
hash, masked probing, negated-subscript labels, displaced-run
shifting).  So ``C`` holds each distinct value once and stays sorted
after every batch.  In carryover mode a first copy filtered by the
insertion round recirculates through the ordinary carryover path with
the contested slot as its conflict group, and its copies later in the
batch recirculate with groups of their own.

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
from .counts import KeyCounts


class SortStore:
    """The live work array ``C`` of an incremental address-calc sort,
    and the count of every value in it.

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
        self.counts = KeyCounts.build(
            allocator, self.vmax, "engine.sort", capacity
        )

    def hash_of(self, vm, values: np.ndarray) -> np.ndarray:
        """Order-preserving spreading hash ``floor(2n·a / vmax)``."""
        return vm.floordiv(vm.mul(values, 2 * self.capacity), self.vmax)

    def values(self) -> List[int]:
        """Every value entered, each repeated by its count, in sorted
        order (uncharged inspection)."""
        words = self.memory_words()
        return KeyCounts.expand(self.counts, words[words != self.unentered])

    def memory_words(self) -> np.ndarray:
        return np.asarray(self._mem.peek_range(self.base, self.c_size))


class SortSpec(WorkloadSpec):
    name = "sort"
    domain = "sort"
    description = "enter key into the streaming address-calculation sort"

    # -- sizing and shared state ---------------------------------------
    def state_words(self, capacity: int, ctx: EngineContext) -> int:
        # work array C (3n) + guard word, then the counts and their
        # work area when the machine serves this kind
        words = 3 * max(capacity, 1) + 1
        return words + KeyCounts.words(capacity, ctx.key_space)

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
        counts = KeyCounts.require(store.counts, self.name)
        vm = executor.vm
        values = counts.keys_of(reqs, self.name)
        slot_of = {}  # filtered first copy -> the C slot it contested

        def enter(fresh: np.ndarray):
            # The first copies' main processing: §4.2 insertion rounds.
            if store.entered + fresh.size > store.capacity:
                raise ReproError(
                    f"sort store holds {store.entered} values; entering "
                    f"{fresh.size} more exceeds capacity {store.capacity}"
                )
            lanes = fresh
            for _ in range(fresh.size):
                rem = values[lanes]
                entered, _, caddr = insert_round(
                    vm, store.base, store.unentered, rem,
                    store.hash_of(vm, rem), executor.policy,
                )
                store.entered += int(np.count_nonzero(entered))
                if executor.carryover:
                    # One insertion round per batch; the rest carry.
                    for i, addr in zip(lanes[~entered], caddr[~entered]):
                        slot_of[int(i)] = int(addr)
                    return entered
                lanes = lanes[~entered]  # paper semantics: retry in-batch
                if lanes.size == 0:
                    return None
            raise ReproError(f"sort round loop exceeded {fresh.size} rounds")

        counted, missed, m = counts.count(vm, values, executor.policy, enter)
        result.completed.extend(reqs[i] for i in counted)
        for i in missed:
            req = reqs[i]
            req.group = slot_of.get(int(i), -(2 + req.rid))
            result.carried.append(req)
        result.rounds += m
        return m

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
