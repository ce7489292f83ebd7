"""The backend-neutral FOL plan IR.

A :class:`WorkloadSpec` used to *execute* its batch slice directly
against the cycle-model VM; now it *emits* a :class:`FolPlan` — a small
description of the kind's filtering round — and the executor's
:class:`~repro.backend.Backend` runs it: the ``sim`` backend through
the calibrated S-810 primitives (bit-identical to the pre-backend code
paths, pinned by the golden cycle-parity tests), the ``native`` backend
as raw NumPy with no cycle accounting.

FOL (paper §3.2/§3.3) is one fixed round shape — scatter labels under
ELS (with a scalar tail for tuples), gather them back, compare, split
the lanes — repeated either once per micro-batch (carryover mode) or
until the index vector drains (retry mode), followed by the kind's
*commit* (its "main processing": hash-chain link, cell bump, tuple
transfer).  A plan therefore carries only the round's parameters
(arity, conflict policy, work offset), its address vectors and the
commit.

Commit bodies stay per-kind closures (the paper amalgamates main
processing per application); they receive the backend's *ops facade*
— an object with the :class:`~repro.machine.vm.VectorMachine` surface
— so a commit written once runs on every backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

from ..errors import ReproError

#: A commit hook: ``commit(ops, positions)`` where ``positions`` index
#: the plan's *live* lanes (winners of the round just filtered).
CommitFn = Callable[[object, np.ndarray], None]

#: Conflict-group address of a losing lane, by *request* position
#: (consumed by the carryover buffer's per-group dedup).
GroupFn = Callable[[int], int]


@dataclass
class FolPlan:
    """One kind's batch slice, described instead of executed.

    ``addrs`` holds L equal-length conflict-address vectors over the
    *live* lanes (``live`` maps live positions back to request
    positions); address generation is part of the spec's ``plan`` hook
    and runs through the executor's ops facade, so on the ``sim``
    backend it is charged exactly where the pre-backend code charged
    it.  ``precompleted`` lanes finish without filtering (e.g. ``xfer``
    self-transfers, which are net no-ops and internally-duplicated
    tuples in the §3.3 sense).
    """

    kind: str
    arity: int
    policy: str
    work_offset: int
    addrs: List[np.ndarray]
    commit: CommitFn
    group_of: GroupFn
    #: Uncharged diagnostic addresses for the batch's observed
    #: multiplicity M (Theorem 5) — all lanes, not just live ones.
    measure: np.ndarray
    live: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    precompleted: Sequence[int] = ()

    def __post_init__(self) -> None:
        if self.arity != len(self.addrs):
            raise ReproError(
                f"{self.kind!r} plan declares arity {self.arity} but "
                f"carries {len(self.addrs)} address vectors"
            )
        for v in self.addrs:
            if v.size != self.live.size:
                raise ReproError(
                    f"{self.kind!r} plan address vector of {v.size} lanes "
                    f"for {self.live.size} live lanes"
                )


def identity_live(n: int) -> np.ndarray:
    """Live map for plans where every request lane filters (uncharged
    bookkeeping, not a vector instruction)."""
    return np.arange(n, dtype=np.int64)
