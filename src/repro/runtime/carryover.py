"""Cross-batch carryover: amortising FOL rounds over the stream.

The paper's FOL1 (§3.2) retries *within* a batch: filtered lanes loop
through label-write/read-back rounds until every lane has survived once,
so a batch with maximum multiplicity M pays M full rounds of vector
start-up before it retires.  A streaming runtime has a better option:
run **one** filtering round per micro-batch, process the surviving
lanes, and re-enqueue the overwritten (filtered) lanes into the *next*
micro-batch, where they ride along with fresh arrivals.

This trades intra-batch rounds for cross-batch recirculation:

* each micro-batch issues a single round's worth of vector instructions
  regardless of sharing, so start-up cost per batch is flat;
* filtered lanes retry at the *next batch's* vector length — duplicates
  of a hot address are spread over the stream instead of serialising one
  short round per duplicate;
* total lane-visits are unchanged (a lane with in-batch rank r still
  filters r-1 times before it wins — Lemma 2 guarantees one winner per
  address per round either way), which is why the final state matches
  the one-shot decomposition.  The equivalence is proved property-wise
  in ``tests/test_runtime_equivalence.py``.

The single-round primitives live in :mod:`repro.core.round`;
:class:`CarryoverBuffer` is the holding pen for filtered requests.
"""

from __future__ import annotations

from typing import List

from .queue import Request


class CarryoverBuffer:
    """Filtered requests waiting for the next micro-batch.

    Carried lanes are *in flight*, not re-offered to the admission
    queue: they already passed admission, so they bypass backpressure
    and are always drained first when the next batch forms.

    Releases are **deduplicated by conflict group** (the target address
    the lane was filtered at, recorded in :attr:`Request.group`): of k
    filtered lanes aliasing one address, only one can survive the next
    round — ELS admits a single winner per address — so re-running the
    other k-1 every batch would re-pay their element work for guaranteed
    losses (the Theorem 6 quadratic blow-up, but against the *global*
    duplicate count instead of one batch's).  :meth:`drain_ready` hands
    out one lane per group in FIFO order and holds the siblings, turning
    a hot address's cost from quadratic re-scans into one lane-visit per
    batch.
    """

    def __init__(self) -> None:
        self._items: List[Request] = []
        self.total_carried = 0
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def depth(self) -> int:
        return len(self._items)

    def put(self, requests: List[Request]) -> None:
        """Defer ``requests`` (just filtered) to a later batch."""
        for req in requests:
            req.attempts += 1
        self._items.extend(requests)
        self.total_carried += len(requests)
        self.max_depth = max(self.max_depth, len(self._items))

    def drain_ready(self) -> List[Request]:
        """Remove and return the lanes eligible for the next batch:
        the oldest deferred request of each conflict group."""
        ready: List[Request] = []
        held: List[Request] = []
        seen = set()
        for req in self._items:
            if req.group in seen:
                held.append(req)
            else:
                seen.add(req.group)
                ready.append(req)
        self._items = held
        return ready

    def drain(self) -> List[Request]:
        """Remove and return every deferred request (no dedup)."""
        items, self._items = self._items, []
        return items
