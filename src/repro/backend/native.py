"""The native backend: FOL plans as raw NumPy, no cycle accounting.

Same plans, same end states, real wall-clock speed.  Two pieces:

* :class:`NativeMemory` / :class:`NativeOps` — the machine facade with
  every cycle charge and address check compiled out.  Crucially the
  ``"arbitrary"`` conflict policy still draws from the *same seeded
  rng in the same order* as the simulator (both funnel through
  :meth:`~repro.machine.memory.Memory._raw_scatter`), which is what
  makes end states bit-identical across backends under fixed seeds —
  the cross-backend parity suite depends on it.
* :meth:`NativeBackend.filter_round` — the carryover round fused into
  one closure over ``memory.words`` (:func:`compile_round`), compiled
  the first time a plan shape (arity, work offset, policy) is seen and
  replayed after that, amortising per-op Python dispatch.  Everything
  else, retry mode included, runs the shared
  :meth:`~repro.backend.Backend.run_fol` on :class:`NativeOps`.

Uncalibrated: the counter is a null ledger pinned at zero, simulated-
cycle features (tracing, a --deadline linger, cost-model overrides) are
rejected up front, and invariant auditing is unavailable (audit hooks
live on the charged scatter path).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..errors import DeadlockError, ReproError
from ..machine.counter import CycleCounter
from ..machine.memory import WORD_DTYPE, Memory
from ..machine.vm import VectorMachine
from . import Backend, register_backend
from .plan import FolPlan


class NullCounter(CycleCounter):
    """A cycle ledger that ignores every charge (total stays 0.0)."""

    def charge_scalar(self, cycles: float, category: str = "scalar") -> None:
        self.scalar_instructions += 1

    def charge_vector(self, cycles: float, n: int, category: str = "vector") -> None:
        self.vector_instructions += 1


class NativeMemory(Memory):
    """Word storage with uncharged, unchecked access paths.

    Only :meth:`~repro.machine.memory.Memory._raw_scatter` is shared
    with the simulator — deliberately, so the ``"arbitrary"`` policy's
    permutation draws stay in lock-step between backends.
    """

    def __init__(self, size: int, seed: int = 0) -> None:
        super().__init__(size, counter=NullCounter(), seed=seed)

    # -- scalar port ----------------------------------------------------
    def sload(self, addr: int) -> int:
        return int(self.words[addr])

    def sstore(self, addr: int, value: int) -> None:
        self.words[int(addr)] = value

    # -- vector port ----------------------------------------------------
    def vload(self, base: int, n: int) -> np.ndarray:
        return self.words[base : base + n].copy()

    def vstore(self, base: int, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=WORD_DTYPE)
        self.words[base : base + values.size] = values

    def fill(self, base: int, n: int, value: int) -> None:
        self.words[base : base + n] = value

    def gather(self, addrs: np.ndarray) -> np.ndarray:
        # Fancy indexing already copies; no extra .copy() needed.
        return self.words[np.asarray(addrs, dtype=np.int64)]

    def scatter(self, addrs, values, policy: str = "arbitrary") -> None:
        self._raw_scatter(
            np.asarray(addrs, dtype=np.int64),
            np.asarray(values, dtype=WORD_DTYPE),
            policy,
        )

    def scatter_masked(self, addrs, values, mask, policy: str = "arbitrary") -> None:
        mask = np.asarray(mask, dtype=bool)
        self._raw_scatter(
            np.asarray(addrs, dtype=np.int64)[mask],
            np.asarray(values, dtype=WORD_DTYPE)[mask],
            policy,
        )


class NativeOps(VectorMachine):
    """The ops facade with all cycle charges compiled out."""

    def _charge_alu(self, n: int) -> None:
        pass

    def _charge_compress(self, n: int) -> None:
        pass

    def _charge_reduce(self, n: int) -> None:
        pass

    def loop_overhead(self) -> None:
        pass

    def attach_audit(self, auditor) -> None:
        if auditor is not None:
            raise ReproError(
                "invariant auditing needs the charged scatter path; "
                "run the sim backend to audit"
            )
        self.mem.audit = None


# ----------------------------------------------------------------------
# the fused round
# ----------------------------------------------------------------------
def compile_round(arity: int, work_offset: int, policy: str):
    """Compile one plan shape's filtering round into a fused closure.

    ``replay(mem, addr_vectors, label_vectors) -> (winners, losers)``
    performs the whole scatter→gather→compare→filter round with direct
    array code — one Python call per round instead of one per op.  The
    scatter still routes through ``mem._raw_scatter`` (rng parity); for
    tuples (``arity >= 2``) the last tuple's labels land via scalar
    stores after the vector scatters, mirroring §3.3 exactly.
    """
    offset = int(work_offset)
    scalar_tail = arity >= 2

    def replay(mem, addr_vectors, label_vectors):
        words = mem.words
        works = [v + offset for v in addr_vectors] if offset else addr_vectors
        if scalar_tail:
            for wa, lb in zip(works, label_vectors):
                mem._raw_scatter(wa[:-1], lb[:-1], policy)
            for wa, lb in zip(works, label_vectors):
                words[wa[-1]] = lb[-1]
        else:
            for wa, lb in zip(works, label_vectors):
                mem._raw_scatter(wa, lb, policy)
        survived = None
        for wa, lb in zip(works, label_vectors):
            mask = words[wa] == lb
            survived = mask if survived is None else survived & mask
        winners = np.flatnonzero(survived)
        if winners.size == 0:
            raise DeadlockError(
                "fused FOL round produced no survivors — ELS condition violated"
            )
        return winners, np.flatnonzero(~survived)

    return replay


@register_backend
class NativeBackend(Backend):
    """Raw-NumPy execution with a fused carryover round (no cycle model)."""

    name = "native"
    calibrated = False

    def __init__(self) -> None:
        self._rounds: Dict[Tuple[int, int, str], object] = {}

    def make_machine(self, words: int, *, cost_model=None, seed: int = 0):
        if cost_model is not None:
            raise ReproError(
                "the native backend has no cycle model; cost_model "
                "overrides only apply to the sim backend"
            )
        return NativeOps(NativeMemory(words, seed=seed))

    def _recorded(self, plan: FolPlan):
        key = (plan.arity, plan.work_offset, plan.policy)
        fn = self._rounds.get(key)
        if fn is None:
            fn = self._rounds[key] = compile_round(*key)
        return fn

    def filter_round(self, vm, plan: FolPlan):
        # Unique-across-vectors labels, uncharged (native has no ledger).
        n = plan.live.size
        labels = [
            np.arange(k * n, (k + 1) * n, dtype=np.int64)
            for k in range(plan.arity)
        ]
        return self._recorded(plan)(vm.mem, plan.addrs, labels)
