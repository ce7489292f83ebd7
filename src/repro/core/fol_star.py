"""FOL* — the Filtering-Overwritten-Label method for unit processes that
rewrite multiple data items (paper §3.3).

A unit process here rewrites a *tuple* of L data items, addressed by L
index vectors V¹ … Vᴸ of equal length (e.g. the associative-law tree
rewrite of §2 rewrites L = 2 nodes).  A tuple is parallel-processable in
a round only if **all L** of its labels survive overwriting.

Deadlock (paper §3.3): with parallel label writing in every vector, it is
possible that *no* tuple wins all of its L cells (tuple A beats B on one
cell, B beats A on another), leaving S_j empty forever.  The paper's
remedy, implemented here: each round writes the labels of all tuples but
the last with vector scatters, then writes the **last tuple's labels with
scalar stores after** the vector writes — so the last remaining tuple
always survives and every round makes progress.  The paper asserts the
last tuple's own L addresses are distinct ("no shared elements among the
last elements"); tuples violating that can never pass the L-fold check,
so :func:`fol_star` either rejects them up front (``internal="error"``)
or peels them into singleton sets processed alone (``internal="isolate"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..errors import DeadlockError, LabelError, VectorLengthError
from ..machine.vm import VectorMachine
from .decomposition import max_multiplicity
from .labels import tuple_labels
from .round import rounds_until_empty


@dataclass
class TupleDecomposition:
    """FOL* output: parallel-processable sets of tuple positions.

    ``sets[j]`` holds positions i such that the tuples
    ⟨V¹[i], …, Vᴸ[i]⟩ may be processed in parallel within round j.
    """

    index_vectors: List[np.ndarray]
    sets: List[np.ndarray] = field(default_factory=list)

    @property
    def l(self) -> int:
        """Number of index vectors (items rewritten per unit process)."""
        return len(self.index_vectors)

    @property
    def n(self) -> int:
        """Number of tuples."""
        return int(self.index_vectors[0].size) if self.index_vectors else 0

    @property
    def m(self) -> int:
        """Number of output sets."""
        return len(self.sets)

    def cardinalities(self) -> List[int]:
        return [int(s.size) for s in self.sets]

    # ------------------------------------------------------------------
    def check_partition(self) -> None:
        """Every tuple appears in exactly one output set."""
        seen = np.zeros(self.n, dtype=np.int64)
        for s in self.sets:
            np.add.at(seen, s, 1)
        if np.any(seen != 1):
            bad = np.flatnonzero(seen != 1)
            raise DeadlockError(f"tuples not output exactly once: {bad[:10].tolist()}")

    def check_parallel_processable(self) -> None:
        """Within one set, no cell is touched by two *different* tuples
        (within-tuple duplication is the separate §3.3 precondition —
        tuples violating it may only appear in singleton sets, where
        they run alone)."""
        for j, s in enumerate(self.sets):
            if s.size == 0:
                continue
            stacked = np.stack([v[s] for v in self.index_vectors])  # L x |S|
            # dedupe within each tuple, then check across tuples
            per_tuple = [np.unique(stacked[:, i]) for i in range(s.size)]
            if s.size > 1 and any(u.size < stacked.shape[0] for u in per_tuple):
                raise DeadlockError(
                    f"FOL* set S_{j + 1} holds an internally-duplicated "
                    f"tuple together with others"
                )
            flat = np.concatenate(per_tuple)
            if np.unique(flat).size != flat.size:
                raise DeadlockError(
                    f"FOL* set S_{j + 1} rewrites a shared address twice"
                )

    def validate(self) -> "TupleDecomposition":
        """Run both output-condition checks; returns self."""
        self.check_partition()
        self.check_parallel_processable()
        return self


def internal_duplicate_mask(index_vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Mask of tuples whose own L addresses are not all distinct."""
    stacked = np.stack([np.asarray(v, dtype=np.int64) for v in index_vectors])
    l, n = stacked.shape
    dup = np.zeros(n, dtype=bool)
    for a in range(l):
        for b in range(a + 1, l):
            dup |= stacked[a] == stacked[b]
    return dup


def fol_star(
    vm: VectorMachine,
    index_vectors: Sequence[np.ndarray],
    *,
    labels: Optional[Sequence[np.ndarray]] = None,
    work_offset: int = 0,
    policy: str = "arbitrary",
    internal: str = "error",
    max_rounds: Optional[int] = None,
) -> TupleDecomposition:
    """Decompose tuples addressed by L index vectors into
    parallel-processable sets (paper §3.3's FOL* algorithm, including
    the scalar-tail deadlock avoidance).

    Parameters
    ----------
    vm, work_offset, policy, max_rounds:
        As in :func:`repro.core.fol1.fol1`.
    index_vectors:
        L equal-length address vectors; tuple i is ⟨V¹[i], …, Vᴸ[i]⟩.
    labels:
        L label vectors, unique *across* vectors (§3.3 step 0); defaults
        to ``tuple_labels``.
    internal:
        Handling of tuples whose own addresses collide: ``"error"``
        (paper's precondition — raise :class:`LabelError`) or
        ``"isolate"`` (emit each such tuple as its own singleton set
        first, then run FOL* on the rest).

    Returns
    -------
    TupleDecomposition
    """
    vs = [np.asarray(v, dtype=np.int64) for v in index_vectors]
    if not vs:
        raise VectorLengthError("FOL* needs at least one index vector")
    n = vs[0].size
    l = len(vs)
    for v in vs:
        if v.ndim != 1 or v.size != n:
            raise VectorLengthError("FOL* index vectors must be 1-D and equal length")

    dec = TupleDecomposition(index_vectors=vs)
    if n == 0:
        return dec

    # Step 0: unique labels across all vectors.
    if labels is None:
        labs = tuple_labels(vm, n, l)
    else:
        labs = [np.asarray(x, dtype=np.int64) for x in labels]
        if len(labs) != l or any(x.size != n for x in labs):
            raise VectorLengthError("need one label vector per index vector")
        flat = np.concatenate(labs)
        if np.unique(flat).size != flat.size:
            raise LabelError("FOL* labels must be unique across all vectors")

    if max_rounds is None:
        max_rounds = n + l

    positions = vm.iota(n)

    # Precondition on internally-duplicated tuples.
    internal_dup = internal_duplicate_mask(vs)
    if internal_dup.any():
        if internal == "error":
            bad = np.flatnonzero(internal_dup)
            raise LabelError(
                f"tuples rewrite one address twice (positions "
                f"{bad[:10].tolist()}); pass internal='isolate' to peel them"
            )
        if internal != "isolate":
            raise ValueError(f"internal must be 'error' or 'isolate', got {internal!r}")
        for p in np.flatnonzero(internal_dup):
            dec.sets.append(np.asarray([p], dtype=np.int64))
        positions = vm.compress(positions, vm.mask_not(internal_dup[positions]))

    work = [vm.add(v, work_offset) if work_offset else v for v in vs]

    # Each round writes the last tuple's labels by scalar stores after
    # the vector scatters, so every round makes progress.  Isolated
    # singletons count against the round budget.
    dec.sets.extend(rounds_until_empty(
        vm, work, labs, positions,
        policy=policy, scalar_tail=True, max_rounds=max_rounds,
        rounds=len(dec.sets),
    ))

    if vm.audit is not None:
        vm.audit.on_tuple_decomposition(dec)
    return dec


def fol_star_lower_bound(index_vectors: Sequence[np.ndarray]) -> int:
    """A lower bound on the number of sets any decomposition needs: the
    maximum multiplicity of any address across all vectors (cf. Lemma 3;
    FOL* may exceed this bound — unlike FOL1 it is not minimal, because
    a tuple fails its round if *any* of its L cells is lost)."""
    flat = np.concatenate([np.asarray(v, dtype=np.int64) for v in index_vectors])
    return max_multiplicity(flat)
