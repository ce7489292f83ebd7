"""The FOL filtering round, written once (paper §3.2 steps 1–3, §3.3).

:func:`charged_round` writes each lane's unique label through its work
address under ELS (for FOL*, the last lane's labels by scalar stores
after the vector scatters, so that lane always survives), gathers the
labels back, compares them, ANDs the per-vector masks and compresses
the surviving lane positions, all through the cycle-charging ops
facade.  :func:`rounds_until_empty` repeats it until no lane is left
(FOL1 and FOL*); :func:`fol_round` and :func:`tuple_round` run it once
per micro-batch and leave the losers to the carryover buffer.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AuditError, DeadlockError


def charged_round(
    vm,
    works: Sequence[np.ndarray],
    labels: Sequence[np.ndarray],
    positions: Optional[np.ndarray] = None,
    *,
    policy: str = "arbitrary",
    scalar_tail: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One round over L equal-length work-address vectors and their
    labels (unique across all vectors).  ``positions`` are the lanes to
    filter; ``None`` numbers them ``0..n-1`` with an iota issued after
    the compare.  Returns ``(positions, winners, survived)``.  Raises
    :class:`DeadlockError` if no lane survives, which a correct ELS
    scatter rules out (Theorem 1)."""
    if scalar_tail:
        for wa, lb in zip(works, labels):
            vm.scatter(wa[:-1], lb[:-1], policy=policy)
        for wa, lb in zip(works, labels):
            vm.mem.sstore(int(wa[-1]), int(lb[-1]))
    else:
        for wa, lb in zip(works, labels):
            vm.scatter(wa, lb, policy=policy)
    survived = None
    for wa, lb in zip(works, labels):
        mask = vm.eq(vm.gather(wa), lb)
        survived = mask if survived is None else vm.mask_and(survived, mask)
    if positions is None:
        positions = vm.iota(survived.size)
    winners = vm.compress(positions, survived)
    if winners.size == 0:
        raise DeadlockError(
            "FOL round produced no survivors — ELS condition violated"
        )
    return positions, winners, survived


def rounds_until_empty(
    vm,
    works: Sequence[np.ndarray],
    labels: Sequence[np.ndarray],
    positions: np.ndarray,
    *,
    policy: str,
    scalar_tail: bool,
    max_rounds: int,
    rounds: int = 0,
) -> Iterator[np.ndarray]:
    """The §3.2 step-4 loop: yield each parallel-processable set S_j (as
    positions) and delete it from ``positions`` until none remain.

    The caller consumes S_j before the survivors are deleted and the
    next round's labels are written (Figure 7's interleaving of main
    processing).  ``rounds`` counts rounds already spent against
    ``max_rounds``.
    """
    while positions.size:
        if rounds >= max_rounds:
            raise DeadlockError(
                f"FOL exceeded {max_rounds} rounds with {positions.size} "
                f"lanes remaining — broken ELS scatter?"
            )
        _, s_j, survived = charged_round(
            vm,
            [w[positions] for w in works],
            [x[positions] for x in labels],
            positions,
            policy=policy,
            scalar_tail=scalar_tail,
        )
        yield s_j
        positions = vm.compress(positions, vm.mask_not(survived))
        vm.loop_overhead()
        rounds += 1


def _single_round(vm, addr_vectors, label_vectors, work_offset, policy,
                  scalar_tail):
    if addr_vectors[0].size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    works = [vm.add(v, work_offset) if work_offset else v for v in addr_vectors]
    positions, winners, survived = charged_round(
        vm, works, label_vectors, policy=policy, scalar_tail=scalar_tail
    )
    return winners, vm.compress(positions, vm.mask_not(survived))


def fol_round(
    vm,
    addrs: np.ndarray,
    labels: np.ndarray,
    *,
    work_offset: int = 0,
    policy: str = "arbitrary",
) -> Tuple[np.ndarray, np.ndarray]:
    """One filtering round over ``addrs``: write ``labels`` through the
    work area, gather them back, and split lane positions into
    ``(winners, losers)``.

    Winners hold distinct addresses (Lemma 2) and are safe for parallel
    main processing; losers are the overwritten lanes the caller defers
    to the next micro-batch.
    """
    winners, losers = _single_round(
        vm, [addrs], [labels], work_offset, policy, scalar_tail=False
    )
    if vm.audit is not None and addrs.size:
        vm.audit.on_round(addrs, winners, losers)
    return winners, losers


def tuple_round(
    vm,
    addr_vectors: List[np.ndarray],
    label_vectors: List[np.ndarray],
    *,
    work_offset: int = 0,
    policy: str = "arbitrary",
) -> Tuple[np.ndarray, np.ndarray]:
    """One FOL* filtering round over L index vectors (§3.3): a tuple
    survives only if *all* of its L labels read back intact.

    Unlike :func:`fol_round`, a single round of parallel tuple label
    writing can produce **zero** survivors (tuple A beats B on one cell
    while B beats A on another), so the paper's deadlock remedy is
    applied per round: the last tuple's labels are written with scalar
    stores *after* the vector scatters, guaranteeing at least one
    winner.

    Labels must be unique across all L vectors (use
    :func:`repro.core.labels.tuple_labels`).
    """
    winners, losers = _single_round(
        vm, addr_vectors, label_vectors, work_offset, policy, scalar_tail=True
    )
    if vm.audit is not None and winners.size:
        # Tuple winners must hold *all* their cells exclusively: the
        # concatenated winner addresses across the L vectors must be
        # pairwise distinct (§3.3's parallel-processability).
        flat = np.concatenate([v[winners] for v in addr_vectors])
        if np.unique(flat).size != flat.size:
            raise AuditError(
                "tuple round winners share a cell — not parallel-processable"
            )
        vm.audit.stats.rounds += 1
    return winners, losers
