"""The K-shard engine behind the single-executor interface.

:class:`ShardCoordinator` exposes the same ``execute(batch) ->
BatchResult`` surface as :class:`~repro.runtime.executor.StreamExecutor`,
so :class:`~repro.runtime.service.StreamService` drives it unchanged —
the admission queue, batching policy and coordinator-level carryover
buffer all work exactly as in the single-pipeline runtime.  It is the
only code that runs a shard exchange, for both kinds of shard: the
in-process :class:`~repro.shard.worker.ShardWorker` and the serving
layer's process shard (:mod:`repro.serve.cluster`), which sends each
mutating call to the process that owns its arena.  Inside one
``execute`` call:

1. **route** — the :class:`~repro.shard.router.Router` splits the batch
   into per-shard sub-batches plus cross-shard ``"xfer"`` units;
2. **local execution** — every busy worker is handed its slice
   (``submit``) before any result is taken (``collect``), so process
   shards compute at the same time; an in-process worker runs its
   slice on submit.  The workers are independent machines over
   disjoint address sets, so the batch's local cost is
   ``max`` over per-shard cycle deltas — the makespan of K concurrent
   pipelines — not their sum;
3. **claim/commit** — the router's first-come claim rounds repeat
   until every cross-shard unit has won, so every unit commits in this
   exchange and none is carried: the spec's ``commit_cross`` turns
   each winner into word additions, which the coordinator groups per
   owner and applies with one ``add_words`` call per owner.
   The exchange is charged explicitly: one claim RTT
   (``shard_claim_rtt``) per claim round plus one commit RTT per batch
   that has cross units, plus ``shard_transfer_per_word`` for the claim
   (2 words per unit) and commit (3 words: delta + two cell addresses)
   payloads;
4. **rebalance** (optional) — between batches the
   :class:`~repro.shard.rebalance.Rebalancer` plans hot-*bin* moves and
   the :class:`~repro.shard.migration.MigrationController` paces them
   (``all-at-once`` / ``batched``); the coordinator is the
   controller's *mover* (:meth:`migrate_index`), performing the
   physical per-index transfers (chain re-link, cell delta transfer,
   BST re-route) and charging one control RTT per bin engaged per gap
   plus the per-word transfer cost of the moved state.  Requests routed
   to a bin that is mid-handoff are parked by the router and ride the
   carryover path until the bin flips (see
   :mod:`repro.shard.migration`).  Migration cycles are attributed to
   the batch that just finished, i.e. the inter-batch gap they occupy.

Over process shards the coordinator charges no cycles: it reports the
workers' measured execute spans and its own claim/commit and migration
phases in wall seconds (``BatchResult.shard_exec_spans``,
``exchange_span``, ``migration_span``).

Merged state accessors (:meth:`list_values`, :meth:`chain_multisets`,
:meth:`bst_inorder`) define the global state a K-shard engine
represents: per-cell values are *sums* of the shards' contributions,
chains are per-slot multiset unions, and the BST is the sorted merge
of per-shard inorders.  The equivalence property tests compare these
against one-shot FOL1 on a single pipeline.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.spec import (
    MIGRATE_CELL,
    MIGRATE_CHAIN,
    count_by_kind,
    get_domain,
    get_spec,
    specs,
)
from ..errors import AuditError, ReproError
from ..machine.cost_model import CostModel
from ..runtime.executor import BatchResult
from ..runtime.queue import Request
from .migration import PACING_STRATEGIES, MigrationController
from .partition import make_partition_map
from .rebalance import Rebalancer
from .router import Router
from .worker import ShardWorker

#: Claim/commit payload sizes in words (see docs/sharding.md §3).
_CLAIM_WORDS = 2
_COMMIT_WORDS = 3


class ShardCoordinator:
    """Owner-computes execution of micro-batches across K workers."""

    def __init__(
        self,
        workers: List[ShardWorker],
        router: Router,
        *,
        cost_model: Optional[CostModel] = None,
        rebalancer: Optional[Rebalancer] = None,
        controller: Optional[MigrationController] = None,
    ) -> None:
        if not workers:
            raise ReproError("shard coordinator needs at least one worker")
        self.workers = workers
        self.router = router
        self.shards = len(workers)
        self.backend = workers[0].executor.backend
        #: Process shards run on the wall clock: the coordinator then
        #: charges no cycles and reports its phases in seconds.
        self.wall_clock = workers[0].wall_clock
        self.cost = cost_model if cost_model is not None else CostModel.s810()
        self.rebalancer = rebalancer
        if rebalancer is not None and controller is None:
            controller = MigrationController(router.partition)
        self.controller = controller
        router.controller = controller
        # Cycles charged outside any single worker's counter (cross-shard
        # exchanges and migrations); the per-worker counters hold only
        # shard-local pipeline work.
        self.exchange_cycles = 0.0
        self.migration_cycles = 0.0
        self.total_cross = 0
        self.total_migrations = 0
        self.migration_skips = 0
        # One auditor per worker when auditing (each worker has its own
        # memory); None means no checks and no overhead.
        self._audits: Optional[List] = None

    # ------------------------------------------------------------------
    @classmethod
    def for_workload(
        cls,
        requests: Sequence[Request],
        *,
        shards: int,
        partitioner: str = "hash",  # no-kind-lint
        rebalance: bool = False,
        table_size: int = 509,
        n_cells: int = 64,
        key_space: int = 4096,
        carryover: bool = True,
        conflict_policy: str = "arbitrary",
        cost_model: Optional[CostModel] = None,
        backend="sim",
        seed: int = 0,
        rebalance_threshold: float = 1.8,
        rebalance_cooldown: int = 4,
        rebalance_max_moves: int = 8,
        rebalance_objective: str = "imbalance",
        bins: Optional[int] = None,
        migration: str = "all-at-once",
        make_worker: Callable[..., ShardWorker] = ShardWorker,
    ) -> "ShardCoordinator":
        """Build a K-shard engine sized for ``requests``.

        Workers get identical layouts (a requirement — see
        :mod:`repro.shard.worker`): every worker's arenas are sized for
        the *whole* workload, since routing skew or migration can land
        any fraction of it on one shard.  Hash node arenas get extra
        headroom because chain migration re-allocates nodes at the
        destination (bump arenas never reclaim the source's records).
        ``make_worker(shard_id, **layout)`` builds each shard; the
        serving layer passes one that spawns a worker process.
        """
        from ..backend import resolve_backend

        if shards <= 0:
            raise ReproError(f"shard count must be positive, got {shards}")
        if migration not in PACING_STRATEGIES:
            raise ReproError(
                f"unknown migration strategy {migration!r}; "
                f"expected one of {PACING_STRATEGIES}"
            )
        backend = resolve_backend(backend)
        counts = count_by_kind(requests)
        caps = {
            spec.name: spec.shard_capacity(counts.get(spec.name, 0))
            for spec in specs()
        }
        workers = [
            make_worker(
                s,
                table_size=table_size,
                n_cells=n_cells,
                key_space=key_space,
                capacities=caps,
                carryover=carryover,
                conflict_policy=conflict_policy,
                cost_model=cost_model,
                backend=backend,
                seed=seed,
            )
            for s in range(shards)
        ]
        partition = make_partition_map(
            partitioner,
            shards,
            table_size=table_size,
            n_cells=n_cells,
            key_space=key_space,
            bins=bins,
        )
        rebalancer = (
            Rebalancer(
                partition,
                threshold=rebalance_threshold,
                cooldown=rebalance_cooldown,
                max_moves=rebalance_max_moves,
                objective=rebalance_objective,
            )
            if rebalance
            else None
        )
        controller = (
            MigrationController(partition, strategy=migration)
            if rebalance
            else None
        )
        return cls(
            workers,
            Router(partition),
            cost_model=cost_model,
            rebalancer=rebalancer,
            controller=controller,
        )

    # ------------------------------------------------------------------
    @property
    def vm(self):
        """Worker 0's machine (interface compatibility; per-shard cycle
        ledgers live on each worker, coordinator overheads on
        :attr:`exchange_cycles` / :attr:`migration_cycles`)."""
        return self.workers[0].vm

    # ------------------------------------------------------------------
    # invariant auditing (opt-in; zero cost when off)
    # ------------------------------------------------------------------
    def attach_audit(self, auditor) -> None:
        """Enable invariant auditing across the sharded engine.

        ``auditor`` is a template/aggregate: each worker gets a *fresh*
        :class:`~repro.audit.InvariantAuditor` of the same class (the
        workers own separate memories), and :meth:`audit_summary` merges
        their counters into ``auditor``.  Pass ``None`` to detach."""
        if auditor is None:
            self._audits = None
            for w in self.workers:
                w.attach_audit(None)
            return
        self._audits = [type(auditor)() for _ in self.workers]
        for w, aud in zip(self.workers, self._audits):
            w.attach_audit(aud)
        self._audit_root = auditor

    @property
    def audit(self):
        """The aggregate auditor passed to :meth:`attach_audit` (with
        worker counters merged on access), or ``None``."""
        if self._audits is None:
            return None
        root = self._audit_root
        root.stats = type(root.stats)()
        root.conflict_log = []
        for aud in self._audits:
            root.merge(aud)
        return root

    def _audit_routing(self, per_shard: List[List[Request]]) -> None:
        """Owner-computes invariant: every lane landed on the shard that
        owns its conflict indices."""
        part = self.router.partition
        for s, sub in enumerate(per_shard):
            for req in sub:
                get_spec(req.kind).routing_audit(req, part, s)

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------
    def execute(self, batch: Sequence[Request]) -> BatchResult:
        result = BatchResult()
        if not batch:
            return result
        per_shard, cross, parked = self.router.split(batch)
        if self._audits is not None:
            self._audit_routing(per_shard)
        # Parked lanes (bin mid-handoff) recirculate via the carryover
        # path and replay once the new owner has the bin's state.
        result.carried.extend(parked)
        result.parked = len(parked)

        # -- concurrent shard-local execution --------------------------
        # Every busy shard gets its slice before any is collected, so
        # process shards compute at the same time.
        busy = [s for s, sub in enumerate(per_shard) if sub]
        for s in busy:
            self.workers[s].submit(per_shard[s])
        local_cycles = [0.0] * self.shards
        local_spans = [0.0] * self.shards
        local_rounds = [0] * self.shards
        mults = [1]
        for s in busy:
            r = self.workers[s].collect()
            result.completed.extend(r.completed)
            result.carried.extend(r.carried)
            local_cycles[s] = r.cycles
            local_spans[s] = (
                r.shard_exec_spans[0] if self.wall_clock else r.cycles
            )
            local_rounds[s] = r.rounds
            mults.append(r.multiplicity)

        # -- two-phase claim/commit for cross-shard tuples -------------
        exchange = 0.0
        if cross:
            t0 = time.perf_counter()
            winners, claim_rounds = self.router.resolve_claims(cross)
            result.cross_committed = tuple(u.request.rid for u in winners)
            adds: Dict[int, List[Tuple[int, int]]] = {}
            for unit in winners:
                spec = get_spec(unit.request.kind)
                for s, addr, delta in spec.commit_cross(self, unit):
                    adds.setdefault(s, []).append((addr, delta))
                result.completed.append(unit.request)
            for s, pairs in adds.items():
                self.workers[s].add_words(pairs)
            if self.backend.calibrated:
                exchange = (claim_rounds + 1) * self.cost.shard_claim_rtt
                exchange += self.cost.shard_transfer_per_word * (
                    _CLAIM_WORDS * len(cross) + _COMMIT_WORDS * len(winners)
                )
            exchange, result.exchange_span = self._phase(t0, exchange)
            self.exchange_cycles += exchange
            self.total_cross += len(cross)

        # -- inter-batch live migration --------------------------------
        migration = 0.0
        if self.rebalancer is not None:
            t0 = time.perf_counter()
            self.controller.admit(self.rebalancer.plan())
            rep = self.controller.step(self)
            if self.backend.calibrated:
                migration = self.cost.shard_claim_rtt * rep.rtts
                migration += self.cost.shard_transfer_per_word * rep.words
            migration, result.migration_span = self._phase(t0, migration)
            self.migration_cycles += migration
            result.migrations = rep.completed
            self.total_migrations += rep.completed
            self.migration_skips += rep.skipped

        result.rounds = max(local_rounds)
        result.multiplicity = max(mults)
        result.cycles = max(local_cycles) + exchange + migration
        result.shard_exec_spans = tuple(local_spans)
        result.kind_counts = tuple(count_by_kind(batch).items())
        result.shard_sizes = tuple(len(sub) for sub in per_shard)
        result.shard_cycles = tuple(local_cycles)
        result.shard_rounds = tuple(local_rounds)
        result.cross_units = len(cross)
        return result

    def _phase(self, t0: float, cycles: float) -> Tuple[float, float]:
        """(cycles charged, span reported) for an exchange phase that
        began at ``t0``: the simulated ``cycles`` in process, or no
        charge and the measured wall seconds over process shards."""
        if self.wall_clock:
            return 0.0, time.perf_counter() - t0
        return cycles, cycles

    # ------------------------------------------------------------------
    # migration (the MigrationController's mover hook)
    # ------------------------------------------------------------------
    def migrate_index(
        self, domain: str, src: int, dst: int, index: int
    ) -> Optional[int]:
        """Physically move one domain index's state ``src`` → ``dst``;
        returns the words shipped, or ``None`` to abort the bin.

        A chain transfer that would overflow the destination's node
        arena refuses (``None``) — bump arenas never reclaim the
        source's records, so repeated migration spends headroom and the
        engine degrades to a frozen partition rather than failing.  The
        routing flip is the controller's job, *after* the whole bin has
        landed; every intermediate state is merge-correct (chains are
        per-slot multiset unions, cells are sums over shards).  On a
        process shard the capacity query, the export and the import are
        each one message to the owning process (only the destination's
        owner knows its bump allocator's headroom); the chain keys are
        read through the shard's shared view.
        """
        src_w = self.workers[src]
        dst_w = self.workers[dst]
        style = get_domain(domain).migration
        auditing = self._audits is not None
        if style == MIGRATE_CHAIN:
            keys = src_w.executor.table.chain(index)
            if not dst_w.can_import_chain(len(keys)):
                return None
            if auditing:
                before = sorted(
                    k for w in self.workers
                    for k in w.executor.table.chain(index)
                )
            src_w.export_chain(index)
            dst_w.import_chain(index, keys)
            if auditing:
                after = sorted(
                    k for w in self.workers
                    for k in w.executor.table.chain(index)
                )
                if before != after:
                    raise AuditError(
                        f"chain migration of slot {index} "
                        f"{src}->{dst} changed the key multiset: "
                        f"{before} -> {after}"
                    )
            return 2 * len(keys) + 1  # (key, next) records + head
        if style == MIGRATE_CELL:
            if auditing:
                before_total = sum(
                    w.cell_values()[index] for w in self.workers
                )
            value = src_w.export_cell(index)
            dst_w.import_cell(index, value)
            if auditing:
                after_total = sum(
                    w.cell_values()[index] for w in self.workers
                )
                if before_total != after_total:
                    raise AuditError(
                        f"cell migration of cell {index} "
                        f"{src}->{dst} changed the global value: "
                        f"{before_total} -> {after_total}"
                    )
            return 1
        return 0  # MIGRATE_ROUTE: merge-on-read state, no payload

    # ------------------------------------------------------------------
    # merged state (uncharged; equivalence tests and verification)
    # ------------------------------------------------------------------
    def list_values(self) -> List[int]:
        """Global cell values: per-cell sum of shard contributions."""
        totals = np.zeros(self.workers[0].executor.n_cells, dtype=np.int64)
        for w in self.workers:
            totals += np.asarray(w.cell_values(), dtype=np.int64)
        return [int(v) for v in totals]

    def chain_multisets(self) -> Dict[int, List[int]]:
        """Global chains: per-slot sorted multiset union over shards."""
        merged: Dict[int, List[int]] = {}
        for w in self.workers:
            for slot, keys in w.chain_multisets().items():
                merged.setdefault(slot, []).extend(keys)
        return {slot: sorted(keys) for slot, keys in merged.items()}

    def bst_inorder(self) -> List[int]:
        """Global BST contents: sorted merge of per-shard inorders.
        Also validates every shard's tree along the way."""
        out: List[int] = []
        for w in self.workers:
            w.check_bst()
            out.extend(w.bst_inorder())
        return sorted(out)

    def state_fingerprint(self) -> str:
        """SHA-256 chain over the workers' machine states, in shard
        order (uncharged; cross-backend parity for sharded runs)."""
        import hashlib

        digest = hashlib.sha256()
        for w in self.workers:
            digest.update(w.executor.state_fingerprint().encode("ascii"))
        return digest.hexdigest()
