"""The workload registry: one declarative spec per request kind.

Before this layer existed every engine hard-coded the request kinds it
could serve: the stream executor, the shard router, the partition map,
the audit oracles, the fuzz generators and the CLI each carried their
own ``if kind == ... elif kind == ...`` chain, so adding one unit
process meant editing every layer in lock-step — and a kind any layer
forgot about failed at runtime, deep inside that layer.

A :class:`WorkloadSpec` declares a kind **once**, bundling everything
the engines need to serve it:

* the FOL planner/executor hook (:meth:`WorkloadSpec.run` — FOL1 for
  single-address kinds, FOL* for arity-L tuple kinds), plus the shared
  state it mutates (:meth:`WorkloadSpec.build_state`, sized by
  :meth:`WorkloadSpec.state_words`);
* its routing domain for owner-computes sharding (a
  :class:`RoutingDomain` naming the partition-key index space — chain
  slot, cell number, key residue — and how owned state migrates) and
  the request → index map (:meth:`WorkloadSpec.route_indices`);
* its scalar differential oracle (:meth:`WorkloadSpec.oracle_diff`)
  and routing-invariant audit hook (:meth:`WorkloadSpec.routing_audit`);
* its fuzz-generator and workload-mix constructors
  (:meth:`WorkloadSpec.fuzz_request`, :meth:`WorkloadSpec.make_request`)
  and CLI registration (:attr:`WorkloadSpec.description`, listed by
  ``python -m repro stream --help``).

Engines dispatch exclusively through :func:`get_spec`; kind-string
literals live only in the spec modules under ``repro/engine/kinds/``
(enforced by ``tools/check_no_stray_kinds.py`` in CI).  Registering a
new spec module makes the kind servable by the stream service, the
K-shard engine, the oracles, the fuzzer and the CLI with no further
edits — ``repro/engine/kinds/sort.py`` is the worked example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..errors import AuditError, ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..runtime.executor import BatchResult, StreamExecutor
    from ..runtime.queue import Request

#: How a routing domain's owned state moves during live rebalancing.
MIGRATE_CHAIN = "chain"  # address-preserving chain re-link (hash slots)
MIGRATE_CELL = "cell"  # value transfer between shard-local copies
MIGRATE_ROUTE = "route"  # routing-only: merge-on-read state, no payload


@dataclass(frozen=True)
class EngineContext:
    """The shared-state dimensions every layer sizes against."""

    table_size: int = 509
    n_cells: int = 64
    key_space: int = 4096


@dataclass(frozen=True)
class RoutingDomain:
    """One owner-computes index space (see :mod:`repro.shard.partition`).

    ``size`` maps the :class:`EngineContext` to the dense index range;
    ``migration`` names how the rebalancer moves an owned index's state
    (one of :data:`MIGRATE_CHAIN` / :data:`MIGRATE_CELL` /
    :data:`MIGRATE_ROUTE`).
    """

    name: str
    size: Callable[[EngineContext], int]
    migration: str = MIGRATE_ROUTE


class WorkloadSpec:
    """Base class for one request kind's declarative spec.

    Subclass per kind, override the hooks the kind needs, instantiate
    once and :func:`register` it.  The base implementations cover the
    common single-address (arity 1) case.
    """

    #: The kind string — declared here and nowhere else.
    name: str = ""
    #: FOL arity L: 1 for FOL1 kinds, >= 2 for FOL* tuple kinds.
    arity: int = 1
    #: Routing domain this kind's conflict addresses live in.
    domain: str = ""
    #: Executor attribute the built state is aliased to (compatibility
    #: surface for tests/tools that inspect ``executor.table`` etc.).
    state_attr: Optional[str] = None
    #: Legacy per-kind capacity keyword on executor/worker constructors.
    capacity_param: Optional[str] = None
    #: Capacity used when neither a workload count nor an explicit
    #: capacity is given (direct construction).
    default_capacity: int = 1
    #: Whether generated mixed-kind fuzz/workload streams include this
    #: kind by default.
    in_stream_mix: bool = True
    #: One-line summary for CLI help and docs.
    description: str = ""

    # -- sizing and shared state ---------------------------------------
    def state_words(self, capacity: int, ctx: EngineContext) -> int:
        """Memory words this kind's state needs for ``capacity`` lanes;
        capacity 0 means the machine serves none of this kind."""
        return 0

    def shard_capacity(self, n: int) -> int:
        """Per-worker capacity for ``n`` total requests of this kind
        (every worker must be able to absorb the whole workload — see
        :mod:`repro.shard.worker`); 0 when the workload has none."""
        return n

    def build_state(
        self, executor: "StreamExecutor", allocator, capacity: int
    ) -> Optional[object]:
        """Allocate this kind's shared state on the executor's machine
        (or return None when the kind rides on another spec's state)."""
        return None

    def state_aliases(self, state) -> Dict[str, object]:
        """Executor attributes to alias the built state under (the
        compatibility surface tests and tools inspect)."""
        if state is None or self.state_attr is None:
            return {}
        return {self.state_attr: state}

    # -- execution ------------------------------------------------------
    def plan(self, executor: "StreamExecutor", reqs: List["Request"]):
        """Emit this kind's backend-neutral FOL plan for one batch slice
        (a :class:`~repro.backend.plan.FolPlan`), or ``None`` when the
        kind overrides :meth:`run` to drive the ops facade directly
        (irregular plans: the BST claim-descend loop, the sort's
        probe/shift rounds)."""
        return None

    def run(
        self, executor: "StreamExecutor", reqs: List["Request"],
        result: "BatchResult",
    ) -> int:
        """Drive one batch's worth of this kind through FOL; extends
        ``result`` and returns the observed pointer multiplicity M.

        The default dispatches the spec's :meth:`plan` to the
        executor's backend — specs only override this for plans the IR
        cannot express."""
        plan = self.plan(executor, reqs)
        if plan is None:
            raise NotImplementedError(
                f"spec {self.name!r} implements neither plan nor run"
            )
        return executor.backend.run_fol(executor, plan, reqs, result)

    # -- request construction and validation ---------------------------
    def validate(self, req: "Request") -> None:
        """Raise :class:`ReproError` on a malformed request."""

    def make_request(
        self, rid: int, key: int, key2: int, delta: int, arrival: float,
        ctx: EngineContext,
    ):
        """Build a workload-generator request from the generic draws."""
        from ..runtime.queue import Request

        return Request(
            rid=rid, kind=self.name, key=key, delta=delta, arrival=arrival
        )

    def fuzz_request(self, rid: int, key: int, ctx: EngineContext):
        """Build a deterministic fuzz request from a raw generated key
        (delta/targets must be fixed functions of ``rid``/``key`` so
        shrunk key vectors stay valid, comparable workloads)."""
        from ..runtime.queue import Request

        return Request(rid=rid, kind=self.name, key=key, delta=1 + key % 5)

    # -- routing --------------------------------------------------------
    def route_indices(
        self, req: "Request", fold: Callable[[int], int]
    ) -> Tuple[int, ...]:
        """Domain indices this request's unit process touches (one per
        index vector; length equals :attr:`arity`)."""
        return (fold(req.key),)

    def routing_audit(self, req: "Request", partition, shard: int) -> None:
        """Owner-computes invariant: the lane must have landed on the
        shard that owns its conflict indices."""
        table = partition.domain(self.domain)
        owners = {
            table.owner_of(i) for i in self.route_indices(req, table.fold)
        }
        if len(owners) > 1:
            raise AuditError(
                f"request {req.rid} ({self.name}) routed as shard-local "
                f"but its indices are owned by {sorted(owners)}"
            )
        owner = owners.pop()
        if owner != shard:
            raise AuditError(
                f"request {req.rid} ({self.name} key={req.key}) executed "
                f"on shard {shard} but is owned by {owner}"
            )

    # -- cross-shard tuples (arity >= 2 kinds only) ---------------------
    def commit_cross(
        self, coordinator, unit
    ) -> Tuple[Tuple[int, int, int], ...]:
        """One winning cross-shard unit as ``(shard, addr, delta)`` word
        additions; the coordinator applies them on the owners."""
        raise ReproError(
            f"kind {self.name!r} has no cross-shard commit semantics"
        )

    # -- differential oracle --------------------------------------------
    def oracle_diff(
        self, engine, requests: List["Request"], ctx: EngineContext
    ):
        """Compare the engine's end state for this kind against the
        scalar oracle; returns a Divergence or None.  ``requests`` is
        the *whole* completed workload — the spec filters its share."""
        return None

    def cell_deltas(self, req: "Request") -> Tuple[Tuple[int, int], ...]:
        """(cell, delta) contributions this request makes to the shared
        cell bank (empty for kinds that do not touch it)."""
        return ()

    #: Direct-kernel fuzz hook: ``core_fuzz(vm, allocator, keys, ctx)``
    #: running this kind's one-shot kernel against its oracle, or None
    #: when the kind has no standalone kernel (see repro.audit.fuzz).
    core_fuzz = None

    # -- introspection ---------------------------------------------------
    def requests_of(self, requests) -> List["Request"]:
        """This spec's share of a mixed request stream."""
        return [r for r in requests if r.kind == self.name]


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
_SPECS: Dict[str, WorkloadSpec] = {}
_DOMAINS: Dict[str, RoutingDomain] = {}


def register_domain(domain: RoutingDomain) -> RoutingDomain:
    """Register (or return the existing) routing domain ``domain``.
    Kinds may share a domain; the first registration wins and a
    conflicting re-declaration is an error."""
    existing = _DOMAINS.get(domain.name)
    if existing is not None:
        if existing.migration != domain.migration:
            raise ReproError(
                f"routing domain {domain.name!r} re-registered with "
                f"migration {domain.migration!r} != {existing.migration!r}"
            )
        return existing
    _DOMAINS[domain.name] = domain
    return domain


def register(spec: WorkloadSpec) -> WorkloadSpec:
    """Add ``spec`` to the registry (import-time, one call per kind)."""
    if not spec.name:
        raise ReproError("workload spec needs a non-empty kind name")
    if spec.name in _SPECS:
        raise ReproError(f"request kind {spec.name!r} registered twice")
    if spec.domain not in _DOMAINS:
        raise ReproError(
            f"spec {spec.name!r} routes through unregistered domain "
            f"{spec.domain!r}; call register_domain first"
        )
    _SPECS[spec.name] = spec
    return spec


def get_spec(kind: str) -> WorkloadSpec:
    """The spec serving request kind ``kind`` (ReproError on unknown,
    naming the registered kinds)."""
    try:
        return _SPECS[kind]
    except KeyError:
        raise ReproError(
            f"unknown request kind {kind!r}; registered kinds: "
            f"{', '.join(registered_kinds())}"
        ) from None


def registered_kinds() -> Tuple[str, ...]:
    """Registered kind names, in registration order."""
    return tuple(_SPECS)


def specs() -> Tuple[WorkloadSpec, ...]:
    """All registered specs, in registration order."""
    return tuple(_SPECS.values())


def stream_mix_kinds() -> Tuple[str, ...]:
    """Kinds mixed into generated workloads/fuzz streams by default."""
    return tuple(s.name for s in _SPECS.values() if s.in_stream_mix)


def domains() -> Dict[str, RoutingDomain]:
    """Registered routing domains by name (registration order)."""
    return dict(_DOMAINS)


def get_domain(name: str) -> RoutingDomain:
    try:
        return _DOMAINS[name]
    except KeyError:
        raise ReproError(
            f"unknown routing domain {name!r}; registered domains: "
            f"{', '.join(_DOMAINS)}"
        ) from None


def resolve_capacities(
    explicit: Optional[Dict[str, int]], legacy_kwargs: Dict[str, Optional[int]]
) -> Dict[str, int]:
    """Merge an explicit per-kind capacity map with the legacy per-kind
    constructor keywords (``hash_capacity=...``) into one complete map,
    falling back to each spec's :attr:`~WorkloadSpec.default_capacity`."""
    out: Dict[str, int] = {}
    for spec in specs():
        cap = None
        if explicit is not None:
            cap = explicit.get(spec.name)
        if cap is None and spec.capacity_param is not None:
            cap = legacy_kwargs.get(spec.capacity_param)
        out[spec.name] = spec.default_capacity if cap is None else int(cap)
    return out


def machine_words(capacities: Dict[str, int], ctx: EngineContext) -> int:
    """Memory words a machine needs to host every registered kind's
    state at the given per-kind capacities (plus NIL and slack)."""
    words = 1  # NIL
    for spec in specs():
        words += spec.state_words(capacities.get(spec.name, 0), ctx)
    return words + 4096  # slack


def count_by_kind(requests) -> Dict[str, int]:
    """Single-pass request count per kind (replaces the one-``sum()``-
    per-kind scans the executors used to do)."""
    counts: Dict[str, int] = {}
    for req in requests:
        counts[req.kind] = counts.get(req.kind, 0) + 1
    return counts
