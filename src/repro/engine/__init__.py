"""repro.engine — the workload registry every execution path shares.

A request kind is declared exactly once, as a :class:`WorkloadSpec` in
:mod:`repro.engine.kinds`.  The spec bundles everything the layers
above need:

* the FOL planner/executor hook (``run``: FOL1 for single-address
  kinds, FOL* for arity-L tuple kinds),
* shared-state construction and sizing (``build_state`` /
  ``state_words`` / ``shard_capacity``),
* the routing domain + per-request route indices for the K-shard
  engine, plus cross-shard claim/commit hooks for tuple kinds,
* the scalar differential oracle and invariant-audit hooks,
* fuzz-generator parameters and CLI/workload-mix registration.

The stream executor, the shard router/worker/coordinator, the audit
oracle, the fuzzer and the CLI all dispatch through :func:`get_spec` /
:func:`specs` — no kind literals outside ``engine/kinds/`` (enforced
by ``tools/check_no_stray_kinds.py``).

Import order below is deliberate: the spec machinery is re-exported
*before* ``kinds`` is imported, because kind modules import back from
``repro.engine.spec`` while registering themselves.
"""

from .spec import (
    MIGRATE_CELL,
    MIGRATE_CHAIN,
    MIGRATE_ROUTE,
    EngineContext,
    RoutingDomain,
    WorkloadSpec,
    count_by_kind,
    domains,
    get_domain,
    get_spec,
    machine_words,
    register,
    register_domain,
    registered_kinds,
    resolve_capacities,
    specs,
    stream_mix_kinds,
)

from . import kinds  # noqa: E402  (self-registration side effects)

__all__ = [
    "MIGRATE_CELL",
    "MIGRATE_CHAIN",
    "MIGRATE_ROUTE",
    "EngineContext",
    "RoutingDomain",
    "WorkloadSpec",
    "count_by_kind",
    "domains",
    "get_domain",
    "get_spec",
    "kinds",
    "machine_words",
    "register",
    "register_domain",
    "registered_kinds",
    "resolve_capacities",
    "specs",
    "stream_mix_kinds",
]
