"""FOL1 — the Filtering-Overwritten-Label method, single item per unit
process (paper §3.2).

Given an index vector V whose elements are addresses of storage areas
(possibly with duplicates), FOL1 decomposes V into parallel-processable
sets S₁ … S_M using only vector instructions:

1. **Write labels** — scatter each element's unique label into the work
   area attached to its target address (list-vector store; the ELS
   condition guarantees one label per address survives intact).
2. **Detect overwriting** — gather the labels back through the same
   addresses and compare with the originals.  Surviving lanes form the
   next parallel-processable set.
3. **Update control variables** — delete surviving lanes from V
   (vector compress).
4. **Repeat** until V is empty.

The main processing (hash insert, tree link, …) is *not* part of FOL1
(the paper amalgamates it per-application for efficiency); callers either
consume the returned :class:`~repro.core.decomposition.Decomposition` or
supply ``on_set`` to process each set as soon as it is identified —
matching Figure 7's interleaving.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..errors import VectorLengthError
from ..machine.vm import VectorMachine
from .decomposition import Decomposition
from .labels import index_labels, validate_unique
from .round import rounds_until_empty

#: Callback type: receives (positions, round_index) for each S_j.
SetCallback = Callable[[np.ndarray, int], None]


def fol1(
    vm: VectorMachine,
    index_vector: np.ndarray,
    *,
    labels: Optional[np.ndarray] = None,
    work_offset: int = 0,
    policy: str = "arbitrary",
    on_set: Optional[SetCallback] = None,
    max_rounds: Optional[int] = None,
    stop_after: Optional[int] = None,
) -> Decomposition:
    """Decompose ``index_vector`` into parallel-processable sets.

    Parameters
    ----------
    vm:
        The vector unit (all work is charged to its cycle counter).
    index_vector:
        Addresses of the storage areas to be rewritten; duplicates mark
        shared data.  Every address (+ ``work_offset``) must be a valid
        word address in ``vm.mem``.
    labels:
        Unique int64 labels, one per element.  Defaults to the element
        subscripts (footnote 6).  Uniqueness is validated.
    work_offset:
        Offset of the work area within each storage area.  The default
        of 0 models the common case where the work area *shares storage*
        with the data the main processing will overwrite anyway (§3.2's
        allocation discussion).
    policy:
        Scatter conflict policy; FOL is correct under any ELS-satisfying
        policy (``"arbitrary"``, ``"last"``, ``"first"``).
    on_set:
        If given, called with ``(positions, j)`` immediately after S_j is
        identified and *before* the next round's label writing — the
        paper's Figure 7 step 3 interleaving.  ``positions`` index into
        the original ``index_vector``.
    max_rounds:
        Safety valve for tests; ``None`` means N rounds (the worst case
        of Theorem 6, which is always sufficient by Theorem 1).
    stop_after:
        Stop after this many sets and return the *partial* decomposition
        (its sets no longer partition the input).  ``stop_after=1`` is
        the S₁-only specialisation the paper attributes to vectorized
        garbage collection and maze routing (§5): S₁ holds exactly one
        occurrence of every distinct address.

    Returns
    -------
    Decomposition
        The output sets as position vectors, in order S₁ … S_M.

    Raises
    ------
    DeadlockError
        If a round yields an empty set.  Impossible under a correct ELS
        scatter (Theorem 1's proof); kept as a defensive check so a
        broken conflict policy fails loudly instead of looping forever.
    """
    v = np.asarray(index_vector, dtype=np.int64)
    if v.ndim != 1:
        raise VectorLengthError(f"index vector must be 1-D, got shape {v.shape}")

    dec = Decomposition(index_vector=v)
    n = v.size
    if n == 0:
        return dec

    # Step 0: preprocessing — unique labels (default: subscripts).
    if labels is None:
        lab = index_labels(vm, n)
    else:
        lab = validate_unique(labels)
        if lab.size != n:
            raise VectorLengthError(
                f"{lab.size} labels for {n} index-vector elements"
            )
    dec.labels = lab

    if max_rounds is None:
        max_rounds = n

    # Work-area addresses; shared storage when work_offset == 0.
    if work_offset:
        work_addrs = vm.add(v, work_offset)
    else:
        work_addrs = v

    # `positions` plays the role of V with deletion done by compress;
    # holding positions rather than addresses lets callers slice any
    # per-element payload by S_j.
    sets = rounds_until_empty(
        vm, [work_addrs], [lab], vm.iota(n),
        policy=policy, scalar_tail=False, max_rounds=max_rounds,
    )
    for j, s_j in enumerate(sets):
        dec.sets.append(s_j)
        if on_set is not None:
            on_set(s_j, j)
        if stop_after is not None and len(dec.sets) >= stop_after:
            if vm.audit is not None:
                vm.audit.on_decomposition(dec, partial=True)
            return dec

    if vm.audit is not None:
        vm.audit.on_decomposition(dec)
    return dec


def fol1_sets_of_addresses(
    vm: VectorMachine,
    index_vector: np.ndarray,
    **kwargs,
) -> list[np.ndarray]:
    """Convenience wrapper returning the sets as *address* vectors
    (the paper's literal S_j = sets of data items) rather than position
    vectors."""
    dec = fol1(vm, index_vector, **kwargs)
    return [dec.addresses(j) for j in range(dec.m)]
