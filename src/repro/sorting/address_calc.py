"""Address-calculation sorting (linear-probing sort) — paper §4.2.

Data are "hashed" with an **order-preserving** spreading function

    hash(a) = floor(2·n·a / Vmax)        (range [0, 2n))

into a work array ``C`` of size 3n whose empty entries hold
``unentered = Vmax`` (greater than any datum).  Colliding data shift the
displaced run one slot right, exactly like linear-probing insertion, so
``C`` stays sorted; packing the entered values yields the sorted array.

Note on the hash range: the paper's listings print
``int(float(2 * size(C) * A[i]) / Vmax)``, but with ``size(C) = 3n``
that addresses up to ``6n`` — outside ``C``.  The worked example of
Figure 13 (n = 4, C size 12, ``hash(x) = ⌊(8/100)·x⌋``) shows the
intended factor is ``2·n``, leaving the top third of ``C`` as overflow
slack; we follow the example.

Two implementations:

* :func:`scalar_address_calc_sort` — Figure 11, one datum at a time on
  the scalar unit.
* :func:`vector_address_calc_sort` — Figure 12, all data in parallel:
  part B finds insertion points with masked probing; part C inserts
  under an FOL overwrite check using **negated subscripts** ``−ι`` as
  labels (negative labels cannot collide with the non-negative data, so
  labels and data share ``C`` without a separate work area); part D
  shifts all displaced runs in lock-step; part E collects the filtered
  data for the next round; part F packs.  Parts B–D are
  :func:`insert_round`, which the streaming ``sort`` kind runs once per
  micro-batch against a live ``C``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ReproError
from ..machine.scalar import ScalarProcessor
from ..machine.vm import VectorMachine
from ..mem.arena import BumpAllocator

#: Default exclusive upper bound of sortable values.
DEFAULT_VMAX = 2**40


class AddressCalcWorkspace:
    """Pre-allocated work array ``C`` (with one guard word) reusable
    across sorts of up to ``n_max`` elements."""

    def __init__(self, allocator: BumpAllocator, n_max: int, name: str = "acs") -> None:
        if n_max <= 0:
            raise ValueError(f"n_max must be positive, got {n_max}")
        self.n_max = int(n_max)
        self.c_size = 3 * self.n_max
        self.base = allocator.alloc(self.c_size + 1, name)
        self.memory = allocator.memory


def _check_input(a: np.ndarray, vmax: int, n_max: int) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 1:
        raise ReproError(f"input must be a 1-D array, got shape {a.shape}")
    if a.size > n_max:
        raise ReproError(f"{a.size} elements exceed workspace capacity {n_max}")
    if a.size and (a.min() < 0 or a.max() >= vmax):
        raise ReproError(f"values must lie in [0, {vmax})")
    return a


def scalar_address_calc_sort(
    sp: ScalarProcessor,
    ws: AddressCalcWorkspace,
    a: np.ndarray,
    vmax: int = DEFAULT_VMAX,
) -> np.ndarray:
    """Figure 11: sequential linear-probing sort. Returns the sorted array."""
    a = _check_input(a, vmax, ws.n_max)
    n = a.size
    if n == 0:
        return a.copy()
    c_size = 3 * n
    unentered = vmax
    base = ws.base

    # initialise C
    sp.fill_array(base, c_size, unentered)

    for ai in a:
        ai = int(ai)
        # A. order-preserving "hash"
        sp.alu(3)  # multiply, divide, truncate
        h = (2 * n * ai) // vmax

        # B. find the entry to insert at: first slot with C[h] > ai
        while True:
            entry = sp.load(base + h)
            sp.branch()
            if entry > ai:
                break
            h += 1
            sp.alu()

        # C & D. insert and shift the displaced run one slot right
        w = sp.load(base + h)
        sp.store(base + h, ai)
        while w != unentered:
            sp.branch()
            h += 1
            sp.alu()
            x = sp.load(base + h)
            sp.store(base + h, w)
            w = x
        sp.branch()
        sp.loop_iter()

    # F. pack the entered values back into the result (sequential scan,
    # so the cheap pipelined-scan memory cost applies)
    out = np.empty(n, dtype=np.int64)
    count = 0
    for i in range(c_size):
        v = sp.seq_load(base + i)
        sp.branch()
        if v != unentered:
            out[count] = v
            count += 1
            sp.alu()
    if count != n:
        raise ReproError(f"packed {count} values, expected {n}")
    return out


def insert_round(
    vm: VectorMachine,
    base: int,
    unentered: int,
    rem: np.ndarray,
    hashed: np.ndarray,
    policy: str = "arbitrary",
):
    """Steps B–D of one Figure 12 round: insert the data ``rem``, hashed
    to slots ``hashed`` of the work array ``C`` at ``base``.  Returns
    ``(entered, hashed, caddr)``: the survival mask, the probed slots
    and their conflict addresses."""
    # B. advance each datum to the first slot with C[h] > a
    while True:
        caddr = vm.add(hashed, base)
        cvals = vm.gather(caddr)
        uninsertable = vm.le(cvals, rem)
        if vm.count_true(uninsertable) == 0:
            break
        hashed = vm.select(uninsertable, vm.add(hashed, 1), hashed)
        vm.loop_overhead()

    # C. insert under the FOL overwrite check: store the negated
    # subscripts -ι, read back, and let survivors store their data.
    caddr = vm.add(hashed, base)
    work = vm.gather(caddr)  # save the displaced values
    ids = vm.neg(vm.iota(rem.size, start=1))  # -1, -2, ..., -nrest
    vm.scatter(caddr, ids, policy=policy)
    readback = vm.gather(caddr)
    entered = vm.eq(readback, ids)
    vm.scatter_masked(caddr, rem, entered, policy=policy)

    # D. shift the displaced runs (only for successful inserts whose
    # slot held a real value).  All chains advance in lock-step from
    # distinct starts, so the scatters below are conflict-free.
    to_shift = vm.mask_and(entered, vm.ne(work, unentered))
    shift_vals = vm.compress(work, to_shift)
    shift_addr = vm.compress(vm.add(caddr, 1), to_shift)
    while shift_vals.size:
        nxt = vm.gather(shift_addr)
        vm.scatter(shift_addr, shift_vals, policy=policy)
        nonempty = vm.ne(nxt, unentered)
        shift_vals = vm.compress(nxt, nonempty)
        shift_addr = vm.compress(vm.add(shift_addr, 1), nonempty)
        vm.loop_overhead()
    return entered, hashed, caddr


def vector_address_calc_sort(
    vm: VectorMachine,
    ws: AddressCalcWorkspace,
    a: np.ndarray,
    vmax: int = DEFAULT_VMAX,
    policy: str = "arbitrary",
    validate_rounds: int | None = None,
) -> np.ndarray:
    """Figure 12: vectorized linear-probing sort via FOL.

    Returns the sorted array.  ``validate_rounds`` optionally caps the
    number of outer rounds (tests use it to prove termination bounds);
    the default allows n rounds, which Theorem 1 guarantees suffices.
    """
    a = _check_input(a, vmax, ws.n_max)
    n = a.size
    if n == 0:
        return a.copy()
    c_size = 3 * n
    unentered = vmax
    base = ws.base
    max_rounds = validate_rounds if validate_rounds is not None else n

    # initialise C (one vector fill; the +1 guard word stays unentered)
    vm.mem.fill(base, c_size + 1, unentered)

    # A. order-preserving "hash" of every datum at once
    rem = a.copy()
    hashed = vm.floordiv(vm.mul(rem, 2 * n), vmax)

    rounds = 0
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise ReproError(f"address-calc sort exceeded {max_rounds} rounds")

        # B-D. probe, insert under the FOL check, shift displaced runs
        entered, hashed, _ = insert_round(vm, base, unentered, rem, hashed, policy)

        # E. collect the filtered (not-yet-inserted) data
        not_entered = vm.mask_not(entered)
        nrest = vm.count_true(not_entered)
        if nrest == 0:
            break
        rem = vm.compress(rem, not_entered)
        hashed = vm.compress(hashed, not_entered)
        vm.loop_overhead()

    # F. pack the sorted data
    cvals = vm.mem.vload(base, c_size)
    entered_mask = vm.ne(cvals, unentered)
    out = vm.compress(cvals, entered_mask)
    if out.size != n:
        raise ReproError(f"packed {out.size} values, expected {n}")
    return out
