"""Deterministic differential fuzzing of the FOL pipelines.

Every case is generated from an explicit seed, runs a *fresh* machine
with an :class:`~repro.audit.invariants.InvariantAuditor` attached, and
is double-checked against the scalar oracles in
:mod:`repro.audit.oracle`.  A failure — an :class:`AuditError` from the
invariant hooks, a :class:`Divergence` from an oracle, or any unexpected
exception — is **shrunk**: the key vector that provoked it is reduced by
greedy delta-debugging (drop chunks, halve the chunk, repeat) until no
smaller vector still fails, and the minimal input is reported in the
:class:`FuzzFailure`.

The generated inputs target FOL's hard regimes:

* ``dup_heavy`` — keys drawn from a tiny key space, so most lanes share
  a storage area (high pointer multiplicity M);
* ``zipf`` — skewed keys, a few hot addresses plus a long tail (the
  streaming benchmarks' stress shape);
* ``all_same`` — every lane targets one address (M == N, the worst case
  of Theorem 6);
* ``near_unique`` — almost no sharing, the M == 1 fast path plus a
  couple of planted duplicates.

Suites:

* ``core`` — direct kernels: every registered workload kind that
  declares a ``core_fuzz`` kernel (chained-hash insert, BST
  multi-insert, address-calculation sort, ...) plus raw FOL1
  decomposition;
* ``stream`` — full :class:`~repro.runtime.service.StreamService` runs
  (carryover, in-batch retry, and adaptive batching) over mixed
  request streams cycling through the registry's stream-mix kinds,
  tiny batches forcing carryover recirculation;
* ``shard`` — the K-shard engine with cross-shard transfers and an
  aggressive rebalancer, so claim/commit and live migration run under
  audit; the ``processes`` scenario runs the same engine over worker
  processes (the serving layer's transport), oracle-checked.

:func:`install_els_fault` is the test-only failpoint the acceptance
tests use: it arms :attr:`~repro.machine.memory.Memory._scatter_fault`
to corrupt one conflicting scatter with an amalgam word no lane wrote,
proving the auditor catches real ELS violations end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..errors import AuditError, ReproError
from .invariants import AuditStats, InvariantAuditor
from .oracle import Divergence, diff_stream_state

#: Key patterns every suite cycles through.
PATTERNS = ("dup_heavy", "zipf", "all_same", "near_unique")

#: Scenarios per suite (cycled per case, crossed with PATTERNS).
#: Core scenarios come from the registry: every kind with a
#: ``core_fuzz`` kernel, plus raw FOL1 decomposition.
STREAM_SCENARIOS = ("carry", "retry", "adaptive")
SHARD_SCENARIOS = ("static", "rebalance", "processes")

SUITES = ("core", "stream", "shard")

#: Exclusive upper bound of generated keys (also the sort's Vmax).
KEY_SPACE = 4096

#: Fuzz-sized shared state: small enough that dup_heavy/zipf inputs
#: actually collide, large enough to exercise multi-slot behaviour.
TABLE_SIZE = 61
N_CELLS = 16


def core_scenarios() -> tuple:
    """Direct-kernel scenarios: registered kinds that declare a
    ``core_fuzz`` kernel, in registration order, plus ``"fol1"`` (raw
    decomposition — a scenario, not a request kind)."""
    from ..engine.spec import specs

    return tuple(
        s.name for s in specs() if s.core_fuzz is not None
    ) + ("fol1",)


def __getattr__(name: str):
    # Live view (PEP 562): kinds registered after this module imports
    # still appear.  Kept as an attribute for backwards compatibility.
    if name == "CORE_SCENARIOS":
        return core_scenarios()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ----------------------------------------------------------------------
# input generation
# ----------------------------------------------------------------------
def generate_keys(
    rng: np.random.Generator, pattern: str, n: int, key_space: int = KEY_SPACE
) -> np.ndarray:
    """``n`` keys in ``[0, key_space)`` following ``pattern``."""
    if pattern == "dup_heavy":
        pool = max(1, n // 4)
        return rng.integers(0, min(pool, key_space), size=n).astype(np.int64)
    if pattern == "zipf":
        ranks = np.arange(1, key_space + 1, dtype=np.float64)
        p = ranks**-1.2
        p /= p.sum()
        return rng.choice(key_space, size=n, p=p).astype(np.int64)
    if pattern == "all_same":
        return np.full(n, int(rng.integers(0, key_space)), dtype=np.int64)
    if pattern == "near_unique":
        keys = rng.permutation(key_space)[:n].astype(np.int64)
        if n >= 2:
            keys[n - 1] = keys[0]  # plant one duplicate
        return keys
    raise ReproError(f"unknown fuzz pattern {pattern!r}; expected {PATTERNS}")


@dataclass(frozen=True)
class FuzzCase:
    """One deterministic generated case."""

    suite: str
    scenario: str
    pattern: str
    seed: int
    index: int
    n: int

    def describe(self) -> str:
        return (
            f"{self.suite}/{self.scenario} pattern={self.pattern} "
            f"n={self.n} seed={self.seed} case={self.index}"
        )


@dataclass
class FuzzFailure:
    """A failing case plus its shrunk counterexample."""

    case: FuzzCase
    message: str
    keys: List[int]
    shrunk_from: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "suite": self.case.suite,
            "scenario": self.case.scenario,
            "pattern": self.case.pattern,
            "seed": self.case.seed,
            "case": self.case.index,
            "message": self.message,
            "keys": self.keys,
            "lanes": len(self.keys),
            "shrunk_from": self.shrunk_from,
        }


@dataclass
class FuzzReport:
    """Outcome of a whole suite run."""

    suite: str
    cases: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    stats: AuditStats = field(default_factory=AuditStats)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> Dict[str, object]:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "ok": self.ok,
            "failures": [f.as_dict() for f in self.failures],
            "audit_stats": self.stats.as_dict(),
        }


# ----------------------------------------------------------------------
# case runners — return a failure message, or None when the case holds
# ----------------------------------------------------------------------
def _fresh_machine(n: int):
    from ..machine.vm import make_machine
    from ..mem.arena import BumpAllocator

    words = 4 * TABLE_SIZE + 10 * max(n, 1) + 4096
    vm = make_machine(words)
    return vm, BumpAllocator(vm.mem)


def run_core_case(
    scenario: str,
    keys: Sequence[int],
    stats: Optional[AuditStats] = None,
    *,
    kinds: Optional[Sequence[str]] = None,
) -> Optional[str]:
    """Run one direct-kernel case under audit; returns failure text.
    ``kinds`` is accepted for a uniform runner signature and ignored —
    a core scenario *is* a single kind's kernel (or raw FOL1)."""
    keys = np.asarray(list(keys), dtype=np.int64)
    n = int(keys.size)
    vm, alloc = _fresh_machine(n)
    auditor = InvariantAuditor()
    vm.attach_audit(auditor)
    divergence: Optional[Divergence] = None
    try:
        if scenario == "fol1":
            from ..core.fol1 import fol1

            # Raw decomposition over a shared data area; the auditor
            # validates Theorems 3-6 on the finished decomposition and
            # we independently re-check M against the key multiset.
            area = alloc.alloc(TABLE_SIZE, "fuzz.fol1")
            addrs = area + (keys % TABLE_SIZE)
            dec = fol1(vm, addrs)
            if n:
                expected_m = int(
                    np.unique(addrs, return_counts=True)[1].max()
                )
                if dec.m != expected_m:
                    return (
                        f"FOL1 produced {dec.m} rounds but the maximum "
                        f"multiplicity is {expected_m} (Theorem 5)"
                    )
        else:
            from ..engine.spec import EngineContext, get_spec

            spec = get_spec(scenario)
            if spec.core_fuzz is None:
                raise ReproError(
                    f"kind {scenario!r} declares no core fuzz kernel"
                )
            ctx = EngineContext(
                table_size=TABLE_SIZE, n_cells=N_CELLS, key_space=KEY_SPACE
            )
            divergence = spec.core_fuzz(vm, alloc, keys, ctx)
    except (AuditError, ReproError) as exc:
        return str(exc)
    finally:
        if stats is not None:
            stats_merge(stats, auditor.stats)
    return str(divergence) if divergence is not None else None


def _build_requests(
    keys: Sequence[int], kinds: Optional[Sequence[str]] = None
) -> List:
    """Deterministic mixed-kind request stream from a key vector (each
    lane's kind/targets are fixed functions of position and key — via
    each spec's ``fuzz_request`` — so any shrunk sub-vector is itself a
    valid, comparable workload).  ``kinds`` defaults to every kind in
    the registry's stream mix, cycled by lane position."""
    from ..engine.spec import EngineContext, get_spec, stream_mix_kinds

    if kinds is None:
        kinds = stream_mix_kinds()
    cycle = [get_spec(k) for k in kinds]
    ctx = EngineContext(
        table_size=TABLE_SIZE, n_cells=N_CELLS, key_space=KEY_SPACE
    )
    return [
        cycle[i % len(cycle)].fuzz_request(i, k, ctx)
        for i, k in enumerate(int(x) for x in keys)
    ]


def _drive_service(engine, reqs, batcher, stats: Optional[AuditStats]):
    """Run ``reqs`` through a StreamService over ``engine``; returns the
    failure message from audit or oracle, or None."""
    from ..runtime.service import StreamService

    service = StreamService(engine, batcher=batcher)
    try:
        service.run(reqs)
        divergence = diff_stream_state(
            engine,
            reqs,
            table_size=TABLE_SIZE,
            n_cells=N_CELLS,
            key_space=KEY_SPACE,
        )
    except (AuditError, ReproError) as exc:
        return str(exc)
    finally:
        if stats is not None and engine.audit is not None:
            stats_merge(stats, engine.audit.stats)
    return str(divergence) if divergence is not None else None


def run_stream_case(
    scenario: str,
    keys: Sequence[int],
    stats: Optional[AuditStats] = None,
    *,
    kinds: Optional[Sequence[str]] = None,
) -> Optional[str]:
    """Run one full-service case (single pipeline) under audit."""
    from ..runtime.batcher import AdaptiveBatcher, FixedBatcher
    from ..runtime.executor import StreamExecutor

    reqs = _build_requests(keys, kinds)
    if scenario == "carry":
        carryover, batcher = True, FixedBatcher(batch_size=7)
    elif scenario == "retry":
        carryover, batcher = False, FixedBatcher(batch_size=16)
    elif scenario == "adaptive":
        carryover = True
        batcher = AdaptiveBatcher(initial=8, min_size=2, max_size=64)
    else:
        raise ReproError(f"unknown stream scenario {scenario!r}")
    executor = StreamExecutor.for_workload(
        reqs, table_size=TABLE_SIZE, n_cells=N_CELLS, carryover=carryover
    )
    executor.attach_audit(InvariantAuditor())
    return _drive_service(executor, reqs, batcher, stats)


def run_shard_case(
    scenario: str,
    keys: Sequence[int],
    stats: Optional[AuditStats] = None,
    *,
    kinds: Optional[Sequence[str]] = None,
) -> Optional[str]:
    """Run one K-shard case (cross-shard xfers; optional migration).
    ``processes`` runs the migrating engine over worker processes on
    ``native``: it is checked against the scalar oracle only, because
    the invariant auditor needs ``sim`` in process."""
    from ..runtime.batcher import FixedBatcher
    from ..serve.cluster import ProcessCluster
    from ..shard.coordinator import ShardCoordinator

    reqs = _build_requests(keys, kinds)
    if scenario not in SHARD_SCENARIOS:
        raise ReproError(f"unknown shard scenario {scenario!r}")
    engine = dict(
        shards=3,
        table_size=TABLE_SIZE,
        n_cells=N_CELLS,
        key_space=KEY_SPACE,
        rebalance=scenario != "static",
        rebalance_threshold=1.1,
        rebalance_cooldown=1,
    )
    batcher = FixedBatcher(batch_size=7)
    if scenario == "processes":
        cluster = ProcessCluster.for_workload(reqs, backend="native", **engine)
        try:
            return _drive_service(cluster.coordinator, reqs, batcher, stats)
        finally:
            cluster.shutdown()
    coordinator = ShardCoordinator.for_workload(reqs, **engine)
    coordinator.attach_audit(InvariantAuditor())
    return _drive_service(coordinator, reqs, batcher, stats)


def stats_merge(into: AuditStats, other: AuditStats) -> None:
    """Fold ``other``'s counters into ``into`` (suite-level totals)."""
    into.scatters += other.scatters
    into.scatter_lanes += other.scatter_lanes
    into.conflicts += other.conflicts
    into.rounds += other.rounds
    into.claims += other.claims
    into.decompositions += other.decompositions
    into.tuple_decompositions += other.tuple_decompositions
    for fan, count in other.conflict_fanout.items():
        into.conflict_fanout[fan] = into.conflict_fanout.get(fan, 0) + count


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
def shrink_keys(
    still_fails: Callable[[List[int]], bool], keys: Sequence[int]
) -> List[int]:
    """Greedy delta-debugging: repeatedly drop chunks (halving the chunk
    size down to single lanes) while the predicate keeps failing.
    Deterministic, and each probe runs on a fresh machine, so the result
    is a genuinely minimal-ish reproducer."""
    keys = [int(k) for k in keys]
    improved = True
    while improved and len(keys) > 1:
        improved = False
        chunk = max(1, len(keys) // 2)
        while chunk >= 1:
            i = 0
            while i < len(keys) and len(keys) > 1:
                candidate = keys[:i] + keys[i + chunk :]
                if candidate and still_fails(candidate):
                    keys = candidate
                    improved = True
                else:
                    i += chunk
            chunk //= 2
    return keys


# ----------------------------------------------------------------------
# suite driver
# ----------------------------------------------------------------------
# Scenario lists are providers, not tuples: core's list is derived from
# the live registry, so it must be resolved at run time, after every
# kind module has registered.
_RUNNERS = {
    "core": (run_core_case, core_scenarios),
    "stream": (run_stream_case, lambda: STREAM_SCENARIOS),
    "shard": (run_shard_case, lambda: SHARD_SCENARIOS),
}

#: Stop collecting after this many (shrunk) failures per suite run.
MAX_FAILURES = 5


def run_suite(
    suite: str,
    *,
    seed: int,
    cases: int,
    max_lanes: int = 96,
    kinds: Optional[Sequence[str]] = None,
    on_progress: Optional[Callable[[int, FuzzCase], None]] = None,
) -> FuzzReport:
    """Run ``cases`` generated cases of ``suite``; shrink any failures.
    ``kinds`` restricts the stream/shard request mix to those kinds
    (default: the registry's whole stream mix); core cases ignore it."""
    if suite not in _RUNNERS:
        raise ReproError(f"unknown fuzz suite {suite!r}; expected {SUITES}")
    if cases <= 0:
        raise ReproError(f"case count must be positive, got {cases}")
    runner, scenario_provider = _RUNNERS[suite]
    scenarios = scenario_provider()
    report = FuzzReport(suite=suite)
    for index in range(cases):
        rng = np.random.default_rng([seed, index])
        pattern = PATTERNS[index % len(PATTERNS)]
        scenario = scenarios[(index // len(PATTERNS)) % len(scenarios)]
        n = int(rng.integers(1, max_lanes + 1))
        case = FuzzCase(
            suite=suite,
            scenario=scenario,
            pattern=pattern,
            seed=seed,
            index=index,
            n=n,
        )
        if on_progress is not None:
            on_progress(index, case)
        keys = generate_keys(rng, pattern, n)
        report.cases += 1
        message = runner(scenario, keys, report.stats, kinds=kinds)
        if message is None:
            continue
        shrunk = shrink_keys(
            lambda ks: runner(scenario, ks, kinds=kinds) is not None, keys
        )
        # Re-run the minimal input to report its (possibly simpler) error.
        final = runner(scenario, shrunk, kinds=kinds) or message
        report.failures.append(
            FuzzFailure(
                case=case,
                message=final,
                keys=[int(k) for k in shrunk],
                shrunk_from=n,
            )
        )
        if len(report.failures) >= MAX_FAILURES:
            break
    return report


# ----------------------------------------------------------------------
# test-only ELS failpoint
# ----------------------------------------------------------------------
def install_els_fault(memory, *, nth: int = 1, min_lanes: int = 2) -> None:
    """Arm a one-shot ELS violation on ``memory``.

    On the ``nth`` scatter containing an address targeted by at least
    ``min_lanes`` lanes, the first such address is overwritten with
    ``max(conflicting lane values) + 1`` — a word strictly greater than
    anything any lane wrote, i.e. a guaranteed amalgam.  The fault then
    disarms itself.  The corruption happens *between* the raw scatter
    and the audit hook, exactly where broken conflict-resolution
    hardware would bite, so a correctly wired auditor must raise
    :class:`~repro.errors.AuditError` on the very same scatter.
    """
    state = {"count": 0}

    def fault(mem, addrs, values):
        addrs = np.asarray(addrs)
        values = np.asarray(values)
        uniq, counts = np.unique(addrs, return_counts=True)
        conflicted = uniq[counts >= min_lanes]
        if conflicted.size == 0:
            return
        state["count"] += 1
        if state["count"] != nth:
            return
        target = int(conflicted[0])
        lane_values = values[addrs == target]
        mem.words[target] = int(lane_values.max()) + 1
        mem._scatter_fault = None

    memory._scatter_fault = fault
