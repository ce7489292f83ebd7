"""Real-time load generation for the serving layer.

Thin adapter over the simulated runtime's workload generators
(:func:`~repro.runtime.service.open_loop_workload` /
:func:`~repro.runtime.service.closed_loop_workload`): same truncated
Zipf keys, same weighted kind mixes, same per-kind request shapes — the
only difference is the unit of ``Request.arrival``.  Here it is
**seconds** on the front-end's clock:

* **open loop** (``rate`` given) — Poisson arrivals at ``rate``
  requests/second (exponential gaps of mean ``1/rate``); the generator
  does not react to service speed, so an overloaded server shows up as
  queue growth and measured latency, exactly like the simulated open
  loop shows it in cycles;
* **closed loop** (``rate=None``) — every request ready at t=0 and the
  bounded admission queue is the only pacing: the saturation-throughput
  configuration.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..runtime.qos import TenantClass
from ..runtime.queue import Request
from ..runtime.service import make_workload


def timed_workload(
    rng: np.random.Generator,
    n: int,
    *,
    kinds: Sequence[str],
    weights: Optional[Sequence[float]] = None,
    skew: float = 1.2,
    key_space: int = 4096,
    n_cells: int = 64,
    max_delta: int = 9,
    rate: Optional[float] = None,
    tenants: Optional[Sequence[TenantClass]] = None,
) -> List[Request]:
    """``n`` requests with wall-clock arrival offsets in seconds (see
    module docstring for the open/closed-loop split): a rate in front
    of :func:`~repro.runtime.service.make_workload`, whose ``tenants``
    carry their SLO budgets in seconds here."""
    return make_workload(
        rng, n, kinds=kinds, weights=weights, skew=skew,
        key_space=key_space, n_cells=n_cells, max_delta=max_delta,
        mean_gap=None if rate is None else 1.0 / rate, tenants=tenants,
    )
