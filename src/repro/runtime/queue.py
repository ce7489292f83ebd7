"""Bounded admission queue for streaming symbolic-update requests.

The runtime's front door: producers *offer* :class:`Request` objects and
the queue either admits them or pushes back.  Two admission policies:

* ``"block"`` — a full queue refuses the offer and the producer must
  retry later; in the simulated service loop this models closed-loop
  backpressure (arrivals stall and their latency grows, nothing is
  lost).
* ``"reject"`` — a full queue drops the request and counts it; the
  open-loop load-shedding policy of a service that prefers bounded
  latency over completeness.

Timestamps are *simulated cycles* (the same clock the
:class:`~repro.machine.counter.CycleCounter` advances) in the simulated
runtime, and wall-clock seconds when the queue fronts the serving layer
(:mod:`repro.serve`) — the queue itself is unit-agnostic.

The queue is **thread-safe**: one lock serialises admission, dequeue
and the stats counters, so concurrent producers (the serving layer's
load generators, or plain threads) never lose, duplicate or miscount a
request.  The single-threaded simulated service pays one uncontended
lock acquire per operation, which is noise next to a batch execution.
"""

from __future__ import annotations

import math
import threading
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Set

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .qos import QoSPolicy

#: Admission policies understood by :class:`BoundedQueue`.
ADMISSION_POLICIES = ("block", "reject")


def __getattr__(name: str):
    # REQUEST_KINDS is served live from the workload registry (PEP 562)
    # rather than snapshotted at import time: this module is imported
    # while the registry is still filling, and a frozen tuple here
    # would silently miss later-registered kinds.
    if name == "REQUEST_KINDS":
        from ..engine.spec import registered_kinds

        return registered_kinds()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class Request:
    """One symbolic update travelling through the stream.

    ``kind`` selects the main processing, dispatched through the
    workload registry (:mod:`repro.engine`) — run
    ``python -m repro stream --help`` or see ``repro/engine/kinds/``
    for the registered kinds.  Single-address kinds carry their target
    in ``key``; arity-2 tuple kinds (unit processes rewriting *two*
    storage areas, L = 2 in the sense of FOL*, §3.3) name the second
    target in ``key2``.

    The mutable tail fields are per-request execution state the
    carryover loop threads across micro-batches: how many FOL rounds
    the request has been filtered out of (``attempts``) and the
    conflict group it was filtered at (``group``).
    """

    rid: int
    kind: str
    key: int
    delta: int = 1
    key2: int = -1  # second target cell, "xfer" requests only
    arrival: float = 0.0
    enqueued: float = 0.0
    completed: float = 0.0
    attempts: int = 0
    group: int = -1  # conflict group (target address) set when carried
    tenant: str = ""  # tenant tag ("" = untenanted legacy traffic)
    slo: float = math.inf  # latency budget from enqueue (inf = no deadline)

    def __post_init__(self) -> None:
        from ..engine.spec import get_spec

        get_spec(self.kind).validate(self)

    @property
    def latency(self) -> float:
        """Arrival-to-completion latency; ``nan`` until the request
        completes (``completed`` keeps its 0.0 sentinel), matching the
        metrics layer's NaN-for-undefined convention — the old
        ``completed - arrival`` read as a *negative* latency for
        requests that were rejected or still in flight."""
        if not self.completed:
            return float("nan")
        return self.completed - self.arrival

    @property
    def deadline(self) -> float:
        """Absolute completion deadline: ``enqueued + slo``.

        Measured from admission, not arrival — in the closed-loop
        workloads every arrival is t=0, so an arrival-based deadline
        would be blown before the first batch launched."""
        return self.enqueued + self.slo


@dataclass
class QueueStats:
    """Counters the admission queue keeps for the metrics layer.

    ``blocked_offers`` counts refused *offer attempts* under the
    ``block`` policy; ``blocked_requests`` counts unique requests that
    stalled at least once.  They differ because the closed-loop service
    re-offers the same pending request every loop iteration, so the
    old single ``blocked`` counter could exceed the total request count
    while actually describing one stalled head-of-line request.
    """

    offered: int = 0
    admitted: int = 0
    rejected: int = 0
    blocked_offers: int = 0
    blocked_requests: int = 0
    max_depth: int = 0

    @property
    def blocked(self) -> int:
        """Legacy alias for :attr:`blocked_offers`."""
        return self.blocked_offers

    def as_dict(self) -> Dict[str, int]:
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "blocked_offers": self.blocked_offers,
            "blocked_requests": self.blocked_requests,
            "max_depth": self.max_depth,
        }


@dataclass(frozen=True)
class QueueSnapshot:
    """One consistent reading of a :class:`BoundedQueue`."""

    depth: int
    full: bool
    #: Waiting requests per tenant tag (``""`` = untenanted traffic).
    tenant_depths: Dict[str, int]


class BoundedQueue:
    """FIFO request queue with a hard capacity and an admission policy.

    With a :class:`~repro.runtime.qos.QoSPolicy` attached the single
    global FIFO becomes per-tenant FIFOs behind the same interface:

    * admission additionally enforces a per-tenant depth cap, so one
      hot tenant's backlog is bounded instead of monopolising the
      whole queue (the global reject/block cliff);
    * :meth:`take` dequeues by weighted fair queuing — per-tenant
      virtual time advancing ``1/weight`` per dequeued request, ties
      broken by tenant registration order — so batches mix tenants by
      their configured weights yet stay FIFO within a tenant;
    * per-tenant :class:`QueueStats` accumulate next to the global
      ones (also without a policy, whenever requests carry tenant
      tags, so a FIFO baseline can still report per-tenant counts).

    Without a policy every code path is the original global FIFO —
    the simulated cycle accounting is bit-identical.
    """

    def __init__(
        self,
        capacity: int,
        admission: str = "block",
        qos: Optional["QoSPolicy"] = None,
    ) -> None:
        if capacity <= 0:
            raise ReproError(f"queue capacity must be positive, got {capacity}")
        if admission not in ADMISSION_POLICIES:
            raise ReproError(
                f"unknown admission policy {admission!r}; "
                f"expected one of {ADMISSION_POLICIES}"
            )
        self.capacity = capacity
        self.admission = admission
        self.qos = qos
        #: Optional lifecycle-trace recorder (see repro.obs.events).
        #: When set, every offer reports its outcome (``blocked`` only
        #: once per request, mirroring ``blocked_requests``); when None
        #: — the default — admission pays a single attribute check.
        self.observer = None
        self.stats = QueueStats()
        self.tenant_stats: Dict[str, QueueStats] = {}
        self._items: Deque[Request] = deque()  # global FIFO (no policy)
        self._fifos: "OrderedDict[str, Deque[Request]]" = OrderedDict()
        self._vtime: Dict[str, float] = {}
        self._vclock = 0.0  # virtual time of the last dequeue
        self._size = 0
        self._blocked_rids: Set[int] = set()
        self._lock = threading.Lock()
        if qos is not None:
            for name in qos.names:
                self._register_tenant(name)

    def _register_tenant(self, name: str) -> None:
        # Lock held (or __init__).  Unknown tenants register lazily on
        # first offer; registration order is the WFQ tie-break.
        self._fifos[name] = deque()
        self._vtime[name] = 0.0
        self.tenant_stats.setdefault(name, QueueStats())

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return self._size

    @property
    def depth(self) -> int:
        """Requests currently waiting."""
        with self._lock:
            return self._size

    @property
    def full(self) -> bool:
        with self._lock:
            return self._size >= self.capacity

    def snapshot(self) -> QueueSnapshot:
        """Depth, fullness and per-tenant depths under one lock; separate
        :attr:`depth` and :attr:`full` reads can straddle an offer."""
        with self._lock:
            if self.qos is None:
                tenants = dict(Counter(r.tenant for r in self._items))
            else:
                tenants = {name: len(f) for name, f in self._fifos.items()}
            return QueueSnapshot(
                self._size, self._size >= self.capacity, tenants
            )

    def oldest_enqueued(self) -> Optional[float]:
        """Enqueue timestamp of the oldest queued request (None when
        empty) — the min over tenant FIFO heads under a QoS policy."""
        with self._lock:
            if self.qos is None:
                return self._items[0].enqueued if self._items else None
            heads = [f[0].enqueued for f in self._fifos.values() if f]
            return min(heads) if heads else None

    def earliest_deadline(self) -> Optional[float]:
        """Soonest absolute SLO deadline among queued requests, or None
        when no QoS policy is attached / no queued request has a finite
        SLO.  Per-tenant FIFOs make this O(tenants): within a tenant the
        head request has the earliest enqueue time and tenants share one
        SLO class, so the head's deadline is the tenant's minimum."""
        with self._lock:
            if self.qos is None:
                return None
            deadlines = [
                f[0].enqueued + f[0].slo
                for f in self._fifos.values()
                if f and math.isfinite(f[0].slo)
            ]
            return min(deadlines) if deadlines else None

    # ------------------------------------------------------------------
    def offer(self, req: Request, now: float) -> bool:
        """Try to admit ``req`` at time ``now``.

        Returns True on admission.  On a refused offer the request is
        either dropped (``reject``) or left with the producer
        (``block``); both return False and the caller distinguishes via
        :attr:`admission`.  Under a QoS policy the offer is also
        refused when the request's tenant is at its depth cap, even if
        the queue as a whole has room.  Atomic under concurrent
        producers: the full-check, append and counters happen under one
        lock, so ``admitted + rejected + blocked_offers == offered``
        always holds (globally and per tenant) and the queue never
        overshoots its capacity.
        """
        with self._lock:
            name = req.tenant
            tstats: Optional[QueueStats] = None
            if self.qos is not None or name:
                tstats = self.tenant_stats.get(name)
                if tstats is None:
                    if self.qos is not None:
                        self._register_tenant(name)
                        tstats = self.tenant_stats[name]
                    else:
                        tstats = self.tenant_stats.setdefault(
                            name, QueueStats()
                        )
            self.stats.offered += 1
            if tstats is not None:
                tstats.offered += 1

            refuse = self._size >= self.capacity
            fifo: Optional[Deque[Request]] = None
            if self.qos is not None:
                fifo = self._fifos[name]
                refuse = refuse or len(fifo) >= self.qos.depth_cap(
                    name, self.capacity
                )
            if refuse:
                if self.admission == "reject":
                    self.stats.rejected += 1
                    if tstats is not None:
                        tstats.rejected += 1
                    if self.observer is not None:
                        self.observer.request_offered(req, now, "rejected")
                else:
                    self.stats.blocked_offers += 1
                    if tstats is not None:
                        tstats.blocked_offers += 1
                    if req.rid not in self._blocked_rids:
                        self._blocked_rids.add(req.rid)
                        self.stats.blocked_requests += 1
                        if tstats is not None:
                            tstats.blocked_requests += 1
                        if self.observer is not None:
                            self.observer.request_offered(req, now, "blocked")
                return False

            req.enqueued = now
            if fifo is not None:
                fifo.append(req)
            else:
                self._items.append(req)
            self._size += 1
            self.stats.admitted += 1
            self.stats.max_depth = max(self.stats.max_depth, self._size)
            if tstats is not None:
                tstats.admitted += 1
                if fifo is not None:
                    tstats.max_depth = max(tstats.max_depth, len(fifo))
            if self.observer is not None:
                self.observer.request_offered(req, now, "admitted")
            return True

    def take(self, n: int) -> List[Request]:
        """Dequeue up to ``n`` requests — FIFO order, or weighted fair
        queuing across tenant FIFOs when a QoS policy is attached."""
        with self._lock:
            if self.qos is None:
                n = min(n, len(self._items))
                out = [self._items.popleft() for _ in range(n)]
                self._size -= len(out)
                return out
            out: List[Request] = []
            while len(out) < n and self._size > 0:
                best_v = math.inf
                best_name = None
                for name, fifo in self._fifos.items():
                    if fifo:
                        # An idle tenant's virtual time is advanced to
                        # the current virtual clock so it cannot bank
                        # service while absent and burst on return.
                        v = max(self._vtime[name], self._vclock)
                        if v < best_v:
                            best_v, best_name = v, name
                assert best_name is not None
                req = self._fifos[best_name].popleft()
                self._size -= 1
                self._vclock = best_v
                self._vtime[best_name] = best_v + 1.0 / self.qos.weight(
                    best_name
                )
                out.append(req)
            return out
