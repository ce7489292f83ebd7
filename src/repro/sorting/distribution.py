"""Distribution counting sort — paper §4.2 / Table 1.

The classical O(N + R) sort over keys in [0, R): count occurrences of
each key, prefix-sum the counts into starting offsets, then place each
key at its offset.  The paper vectorizes it "using the
overwrite-and-check technique" but omits the listing; our vector version
follows the §4.1 technique literally:

* **Counting** — multiple keys increment the same counter, so counting
  is a multiple-rewrite problem.  Per FOL round: scatter subscript
  labels into a work array indexed by key, gather back, and let the
  surviving lanes (one per *distinct* key value) gather-increment-scatter
  their counter; filtered lanes retry.  Rounds = max key multiplicity.
* **Offsets** — one exclusive prefix-sum scan over the counts.
* **Placement** — the same FOL loop, with survivors placing their key at
  the key's current offset and bumping the offset.

The scalar version is the textbook three-loop algorithm, charged per
operation.  Its cost is dominated by the O(R) initialisation and scan
when N ≪ R, which is exactly why the paper's acceleration ratio
*decreases* with N (8.02 → 5.31 between N = 2⁶ and 2¹⁴): the vector unit
wins biggest on the long R-length passes.
"""

from __future__ import annotations

import numpy as np

from ..core.round import charged_round
from ..errors import ReproError
from ..machine.scalar import ScalarProcessor
from ..machine.vm import VectorMachine
from ..mem.arena import BumpAllocator

#: Paper setting: "the size of work array is 2^16, which is the range of
#: the data".
DEFAULT_RANGE = 2**16


class DistributionWorkspace:
    """Pre-allocated count/work/output regions for keys in [0, R)."""

    def __init__(
        self,
        allocator: BumpAllocator,
        key_range: int = DEFAULT_RANGE,
        n_max: int = 2**14,
        name: str = "dcs",
    ) -> None:
        if key_range <= 0:
            raise ValueError(f"key range must be positive, got {key_range}")
        if n_max <= 0:
            raise ValueError(f"n_max must be positive, got {n_max}")
        self.key_range = int(key_range)
        self.n_max = int(n_max)
        self.count_base = allocator.alloc(self.key_range, f"{name}.counts")
        self.work_base = allocator.alloc(self.key_range, f"{name}.work")
        self.out_base = allocator.alloc(self.n_max, f"{name}.out")
        self.memory = allocator.memory


def _check_keys(a: np.ndarray, key_range: int, n_max: int) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 1:
        raise ReproError(f"input must be a 1-D array, got shape {a.shape}")
    if a.size > n_max:
        raise ReproError(f"{a.size} elements exceed workspace capacity {n_max}")
    if a.size and (a.min() < 0 or a.max() >= key_range):
        raise ReproError(f"keys must lie in [0, {key_range})")
    return a


def scalar_distribution_sort(
    sp: ScalarProcessor,
    ws: DistributionWorkspace,
    a: np.ndarray,
) -> np.ndarray:
    """Sequential distribution counting sort; returns the sorted array."""
    a = _check_keys(a, ws.key_range, ws.n_max)
    n = a.size
    r = ws.key_range

    # 1. clear counters (the O(R) pass that dominates at small N)
    sp.fill_array(ws.count_base, r, 0)

    # 2. count occurrences
    for key in a:
        addr = ws.count_base + int(key)
        sp.alu()
        sp.store(addr, sp.load(addr) + 1)
        sp.alu()
        sp.loop_iter()

    # 3. exclusive prefix sum -> starting offsets (sequential scan, so
    # the cheap pipelined-scan memory cost applies)
    running = 0
    for i in range(r):
        c = sp.seq_load(ws.count_base + i)
        sp.seq_store(ws.count_base + i, running)
        running += c
        sp.alu(2)
    if running != n:
        raise ReproError(f"counted {running} keys, expected {n}")

    # 4. place each key at its offset, bumping the offset
    for key in a:
        addr = ws.count_base + int(key)
        sp.alu()
        pos = sp.load(addr)
        sp.store(ws.out_base + pos, int(key))
        sp.alu()
        sp.store(addr, pos + 1)
        sp.alu()
        sp.loop_iter()

    return ws.memory.peek_range(ws.out_base, n)


def _fol_rounds(
    vm: VectorMachine,
    keys: np.ndarray,
    work_base: int,
    apply_set,
    policy: str,
) -> int:
    """Overwrite-and-check driver shared by counting and placement:
    repeatedly elect one lane per distinct key value and hand the
    survivors (as positions into ``keys``) to ``apply_set``."""
    positions = vm.iota(keys.size)
    rounds = 0
    while positions.size:
        wa = vm.add(keys[positions], work_base)
        # subscripts are unique labels
        _, winners, survived = charged_round(
            vm, [wa], [positions], positions, policy=policy
        )
        apply_set(winners)
        positions = vm.compress(positions, vm.mask_not(survived))
        vm.loop_overhead()
        rounds += 1
    return rounds


def vector_distribution_sort(
    vm: VectorMachine,
    ws: DistributionWorkspace,
    a: np.ndarray,
    policy: str = "arbitrary",
) -> np.ndarray:
    """Vectorized distribution counting sort; returns the sorted array."""
    a = _check_keys(a, ws.key_range, ws.n_max)
    n = a.size
    r = ws.key_range
    if n == 0:
        return a.copy()

    # 1. clear counters (one long vector fill — the big vector win)
    vm.mem.fill(ws.count_base, r, 0)

    # 2. count by overwrite-and-check rounds
    def bump_counts(winners: np.ndarray) -> None:
        addrs = vm.add(a[winners], ws.count_base)
        counts = vm.gather(addrs)
        vm.scatter(addrs, vm.add(counts, 1), policy=policy)

    _fol_rounds(vm, a, ws.work_base, bump_counts, policy)

    # 3. exclusive prefix sum over the counts (vector scan)
    counts = vm.mem.vload(ws.count_base, r)
    offsets = vm.cumsum_exclusive(counts)
    vm.mem.vstore(ws.count_base, offsets)

    # 4. place by overwrite-and-check rounds
    def place(winners: np.ndarray) -> None:
        key_addrs = vm.add(a[winners], ws.count_base)
        pos = vm.gather(key_addrs)
        vm.scatter(vm.add(pos, ws.out_base), a[winners], policy=policy)
        vm.scatter(key_addrs, vm.add(pos, 1), policy=policy)

    _fol_rounds(vm, a, ws.work_base, place, policy)

    return vm.mem.vload(ws.out_base, n)
