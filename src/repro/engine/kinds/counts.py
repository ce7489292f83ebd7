"""Value-indexed key counts: duplicate keys as one shared-word update.

A ``bst`` or ``sort`` request whose key is already in the structure
adds nothing to it: it bumps the key's count.  Only a key's first copy
adds a tree node or a ``C`` entry.  That keeps both structures at one
record per distinct key, so their cost follows the batch's key
multiplicity instead of the stream's history.

Several lanes bumping one count in one batch is the shared-data update
FOL exists for (§3.2): :meth:`KeyCounts.count` runs one FOL1 pass over
the batch's count addresses and bumps each parallel-processable set
S_j in turn, M rounds for a key repeated M times (Theorem 5).  S₁ holds
exactly one lane per distinct key, so its lanes whose count is still
zero are the first copies the kind enters into its structure.  Counts
commute, so both backends end bit-identical: they run the same rounds
and draw the same scatter permutations.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ...core.fol1 import fol1
from ...errors import ReproError

#: ``enter(positions)`` adds the first copies at ``positions`` to the
#: kind's structure and returns the mask of those it entered, or None
#: when it entered them all.
EnterFn = Callable[[np.ndarray], Optional[np.ndarray]]


class KeyCounts:
    """``key_space`` count words and an equal-sized FOL work area.

    The count of key ``k`` lives at ``base + k``; FOL writes its labels
    at ``base + key_space + k``, because a count is live data the label
    must not overwrite (§3.2's separate work area).

    A machine sized for none of a kind (capacity 0) has no counts, so a
    stream without ``bst`` or ``sort`` requests keeps its layout: the
    static helpers below are the one place that rule lives.
    """

    def __init__(self, allocator, key_space: int, name: str) -> None:
        self.key_space = int(key_space)
        self.base = allocator.alloc(2 * self.key_space, f"{name}.counts")
        self.memory = allocator.memory

    @staticmethod
    def words(capacity: int, key_space: int) -> int:
        """Memory words of the counts of a kind sized for ``capacity``."""
        return 2 * key_space if capacity > 0 else 0

    @classmethod
    def build(
        cls, allocator, key_space: int, name: str, capacity: int
    ) -> Optional["KeyCounts"]:
        """The counts of a kind sized for ``capacity``, or None."""
        return cls(allocator, key_space, name) if capacity > 0 else None

    @staticmethod
    def require(counts: Optional["KeyCounts"], name: str) -> "KeyCounts":
        """``counts``, or an error when the machine was sized without
        the kind."""
        if counts is None:
            raise ReproError(f"this machine was sized without {name} requests")
        return counts

    @staticmethod
    def expand(counts: Optional["KeyCounts"], keys: Sequence[int]) -> List[int]:
        """The distinct ``keys`` with each repeated by its count: every
        copy inserted (uncharged inspection)."""
        keys = np.asarray(keys, dtype=np.int64)
        if counts is not None:
            keys = np.repeat(keys, counts.table()[keys])
        return keys.tolist()

    def keys_of(self, reqs, what: str) -> np.ndarray:
        """The requests' keys as a vector, each checked to index a
        count word."""
        keys = np.asarray([r.key for r in reqs], dtype=np.int64)
        if keys.size and (keys.min() < 0 or keys.max() >= self.key_space):
            raise ReproError(
                f"{what} keys must lie in [0, {self.key_space})"
            )
        return keys

    def table(self) -> np.ndarray:
        """Every key's count (uncharged inspection)."""
        return np.asarray(self.memory.peek_range(self.base, self.key_space))

    def count(
        self, vm, keys: np.ndarray, policy: str, enter: EnterFn
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Bump the count of every lane whose key is present, or whose
        key's first copy ``enter`` enters, in one FOL pass over the count
        words.  Returns the counted positions, the positions left
        uncounted (first copies ``enter`` did not enter, and their
        copies later in the batch) and M, the pass's round count."""
        addrs = vm.add(keys, self.base)
        counted, missed = [], []

        def bump(s: np.ndarray, j: int) -> None:
            words = addrs[s]
            old = vm.gather(words)
            present = vm.ne(old, 0)
            if not vm.all_true(present):
                absent = vm.compress(s, vm.mask_not(present))
                if j > 0:  # copies of a first copy that did not enter
                    missed.append(absent)
                else:  # S₁: the absent keys' first copies
                    entered = enter(absent)
                    if entered is not None:
                        missed.append(vm.compress(absent, vm.mask_not(entered)))
                        absent = vm.compress(absent, entered)
                    vm.scatter(
                        addrs[absent], vm.splat(absent.size, 1), policy=policy
                    )
                    counted.append(absent)
            vm.scatter_masked(words, vm.add(old, 1), present, policy=policy)
            counted.append(vm.compress(s, present))

        dec = fol1(
            vm, addrs, work_offset=self.key_space, policy=policy, on_set=bump
        )
        empty = np.empty(0, dtype=np.int64)
        return (
            np.concatenate(counted) if counted else empty,
            np.concatenate(missed) if missed else empty,
            dec.m,
        )
