"""Pluggable execution backends for FOL plans.

The workload registry (:mod:`repro.engine`) describes *what* each kind
does per micro-batch; a :class:`Backend` decides *how* it runs:

``sim``
    The calibrated S-810 cycle-model VM (:mod:`repro.backend.sim`).
    Bit-identical to the pre-backend execution paths — the golden
    cycle-parity tests pin its exact cycle totals and end-state hashes.
``native``
    Raw NumPy with no cycle accounting (:mod:`repro.backend.native`);
    its carryover round is one fused closure per plan shape.  Real
    wall-clock requests/sec; identical end states (the cross-backend
    parity suite proves it per kind).

Every executor owns one backend; specs emit backend-neutral
:class:`~repro.backend.plan.FolPlan`\\ s and the shared
:meth:`Backend.run_fol` executes them on the backend's machine.  Layers
above the backend (``repro.engine``, ``repro.runtime``, ``repro.shard``)
must not import :mod:`repro.machine.vm` directly —
``tools/check_backend_neutral.py`` enforces that in CI.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Type

import numpy as np

from ..core.decomposition import max_multiplicity
from ..core.fol1 import fol1
from ..core.fol_star import fol_star
from ..core.labels import tuple_labels
from ..core.round import fol_round, tuple_round
from ..errors import ReproError


class Backend:
    """One way of executing FOL plans.

    A subclass provides a machine: an object with the
    :class:`~repro.machine.vm.VectorMachine` surface, the *ops facade*
    that specs and commits program against.  :meth:`run_fol` is shared
    by every backend; a backend overrides :meth:`filter_round` only to
    fuse the carryover round, and the override must end bit-identical.
    """

    #: Registry name (the ``--backend`` CLI value).
    name: str = ""
    #: True when the backend charges a calibrated cycle model; cycle-only
    #: features (tracing, a --deadline linger, cost-model overrides) are
    #: rejected on uncalibrated backends instead of silently measuring 0.
    calibrated: bool = False

    def make_machine(self, words: int, *, cost_model=None, seed: int = 0):
        """Build this backend's ops facade over ``words`` of storage."""
        raise NotImplementedError

    def filter_round(self, vm, plan) -> Tuple[np.ndarray, np.ndarray]:
        """One FOL round over ``plan``'s live lanes, issued through the
        ops facade: label scatter (with the §3.3 scalar tail for
        tuples), gather, compare, compress.  Returns ``(winners,
        losers)`` as positions into ``plan.live``."""
        n = plan.live.size
        if plan.arity == 1:
            return fol_round(
                vm, plan.addrs[0], vm.iota(n),
                work_offset=plan.work_offset, policy=plan.policy,
            )
        return tuple_round(
            vm, plan.addrs, tuple_labels(vm, n, plan.arity),
            work_offset=plan.work_offset, policy=plan.policy,
        )

    def run_fol(self, executor, plan, reqs, result) -> int:
        """Execute one kind's :class:`~repro.backend.plan.FolPlan` for a
        batch slice; extends ``result`` and returns the observed
        multiplicity M.  Carryover mode runs one :meth:`filter_round`
        and carries the losers; retry mode loops ``fol1``/``fol_star``
        until every lane won."""
        vm = executor.vm
        result.completed.extend(reqs[i] for i in plan.precompleted)
        live = plan.live
        if live.size and executor.carryover:
            winners, losers = self.filter_round(vm, plan)
            plan.commit(vm, winners)
            result.completed.extend(reqs[i] for i in live[winners])
            for i in live[losers]:
                reqs[i].group = plan.group_of(int(i))
                result.carried.append(reqs[i])
            result.rounds += 1
        elif live.size:
            if plan.arity == 1:
                dec = fol1(
                    vm, plan.addrs[0],
                    work_offset=plan.work_offset, policy=plan.policy,
                    on_set=lambda s, _j: plan.commit(vm, s),
                )
            else:
                # fol_star decomposes first; the sets commit afterwards.
                dec = fol_star(
                    vm, plan.addrs,
                    work_offset=plan.work_offset, policy=plan.policy,
                )
                for s in dec.sets:
                    plan.commit(vm, s)
            result.completed.extend(reqs[i] for i in live)
            result.rounds += dec.m
        return max_multiplicity(plan.measure)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
_BACKENDS: Dict[str, Type[Backend]] = {}


def register_backend(cls: Type[Backend]) -> Type[Backend]:
    """Register a backend class under its :attr:`Backend.name`."""
    if not cls.name:
        raise ReproError("backend needs a non-empty name")
    if cls.name in _BACKENDS:
        raise ReproError(f"backend {cls.name!r} registered twice")
    _BACKENDS[cls.name] = cls
    return cls


#: Presentation order for the built-ins: the reference backend leads
#: the ``--backend`` choices and the ``repro info`` listing regardless
#: of which backend module happened to import first.
_BUILTIN_ORDER = ("sim", "native")


def _ensure_builtins() -> None:
    # Deferred: the built-in modules import this one to subclass Backend.
    if "sim" not in _BACKENDS or "native" not in _BACKENDS:
        from . import native, sim  # noqa: F401  (self-registering)


def registered_backends() -> Tuple[str, ...]:
    """Registered backend names: built-ins first (in presentation
    order), then third-party registrations in registration order."""
    _ensure_builtins()
    builtin = [n for n in _BUILTIN_ORDER if n in _BACKENDS]
    return tuple(builtin + [n for n in _BACKENDS if n not in _BUILTIN_ORDER])


def get_backend(name: str) -> Backend:
    """A fresh instance of the backend registered as ``name``
    (:class:`~repro.errors.ReproError` on unknown, naming the
    registered backends)."""
    _ensure_builtins()
    try:
        cls = _BACKENDS[name]
    except KeyError:
        raise ReproError(
            f"unknown backend {name!r}; registered backends: "
            f"{', '.join(_BACKENDS)}"
        ) from None
    return cls()


def resolve_backend(backend) -> Backend:
    """Coerce a name or instance to a :class:`Backend` instance."""
    if isinstance(backend, Backend):
        return backend
    return get_backend(backend)


def backend_summaries() -> List[Tuple[str, bool, str]]:
    """(name, calibrated, one-line description) per registered backend
    (for ``repro info`` and docs)."""
    out = []
    for name in registered_backends():
        cls = _BACKENDS[name]
        doc = (cls.__doc__ or "").strip().splitlines()
        out.append((name, bool(cls.calibrated), doc[0] if doc else ""))
    return out


__all__ = [
    "Backend",
    "backend_summaries",
    "get_backend",
    "register_backend",
    "registered_backends",
    "resolve_backend",
]
