"""Which calls the traced run wraps, and the per-layer metrics it derives.

Layer names are the program's module names; every span is named
``<layer>:<function>``.  :data:`PER_LAYER` lists the metrics the
benchmark's final JSON line carries (the ``per_layer`` list of
``BENCHMARK.json``).  Each is defined on every workload, and each one
in a time unit is measured on every workload: a layer a workload does
not run shows up as a zero count or share, never as a zero time.
:data:`REPORT_ONLY` adds the times of layers only some workloads run;
the printed report shows them, ``n/a`` where the layer did not run.
The ``obs.stage`` shares come from the serve front-end's lifecycle
recorder on the wall clock; the closed loops report them as 0, since
their latency is a position in the t=0 backlog.

What each metric should move: ``obs.stage.carry_share``,
``runtime.carryover.*`` and ``core.fol.*`` the serve-hot p99 and the
bulk-native throughput; ``runtime.queue.wait_ms_p50``, the batch and
execute shares, ``serve.cluster.*`` and ``serve.transport.*`` the
serve-uniform p50; ``shard.router.*`` and ``engine.*`` the bulk-native
throughput; ``machine.*`` the paper-sim cycles and throughput;
``python.gc.*`` the serve-uniform p99.  ``serve.loadgen.lag_frac``
should move nothing: it shows the load generator's own lateness.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.serve.cluster as cluster_mod
import repro.serve.transport as transport_mod
from repro.backend.native import NativeBackend
from repro.backend.sim import SimBackend
from repro.engine.spec import specs
from repro.obs.core import percentile
from repro.runtime.batcher import FixedBatcher
from repro.runtime.carryover import CarryoverBuffer
from repro.runtime.executor import StreamExecutor
from repro.runtime.queue import BoundedQueue
from repro.runtime.service import StreamService
from repro.serve.cluster import ProcessCluster
from repro.serve.frontend import ServeFrontend
from repro.shard.coordinator import ShardCoordinator
from repro.shard.router import Router
from repro.shard.worker import ShardWorker

from .tracing import LayerTracer

KINDS = ("hash", "list", "xfer", "bst", "sort")
STAGES = ("queue", "batch", "execute", "commit", "carry")
CYCLE_GROUPS = ("v_alu", "v_gather", "v_scatter", "v_compress", "v_reduce")
RUNGS = ("backend", "engine", "executor", "shard", "cluster", "frontend")

#: (name, unit, better) of every per-layer metric in the final JSON line.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    *((f"ladder.{r}_ns_per_req", "ns", "lower") for r in RUNGS),
    ("runtime.queue.wait_ms_p50", "ms", "lower"),
    ("runtime.batcher.lanes_per_exchange", "lanes", "higher"),
    ("runtime.service.exchange_ms_p50", "ms", "lower"),
    ("runtime.service.exchange_ms_p99", "ms", "lower"),
    *((f"obs.stage.{s}_share", "frac", "lower") for s in STAGES),
    ("runtime.carryover.carried_in_frac", "frac", "lower"),
    ("runtime.carryover.max_depth", "count", "lower"),
    ("runtime.carryover.drain_ms_per_batch", "ms", "lower"),
    ("core.fol.filtered_frac", "frac", "lower"),
    ("core.fol.m_p50", "count", "lower"),
    ("core.fol.lane_visits_per_req", "count", "lower"),
    ("serve.loadgen.lag_frac", "frac", "lower"),
    ("serve.frontend.warmup_p99_ms", "ms", "lower"),
    ("serve.cluster.exchanges", "count", "lower"),
    ("serve.cluster.worker_exec_share", "frac", "lower"),
    ("serve.cluster.ipc_share", "frac", "lower"),
    ("serve.transport.time_share", "frac", "lower"),
    ("shard.router.split_share", "frac", "lower"),
    ("shard.router.cross_units", "count", "lower"),
    ("shard.router.claim_win_frac", "frac", "higher"),
    ("shard.coordinator.imbalance_mean", "ratio", "lower"),
    *((f"engine.{k}.us_per_lane", "us", "lower") for k in KINDS[:3]),
    *((f"engine.{k}.time_share", "frac", "lower") for k in KINDS),
    ("backend.run_fol_us_per_lane", "us", "lower"),
    *(
        (f"machine.cycles.{g}_share", "frac", "lower")
        for g in CYCLE_GROUPS + ("scalar", "other")
    ),
    ("machine.avg_vector_length", "elems", "higher"),
    ("machine.vinstr_per_req", "count", "lower"),
    ("machine.sim_cycles_per_req", "cycles", "lower"),
    ("python.gc.gen2_count", "count", "lower"),
    ("python.gc.pause_ms_max", "ms", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)


class Probe:
    """Per-call observations the wrappers collect in the parent."""

    def __init__(self) -> None:
        self.first_offer: Dict[int, float] = {}
        self.admitted_at: Dict[int, float] = {}
        self.arrival: Dict[int, float] = {}
        self.queue_wait_s: List[float] = []
        self.carried_in: List[int] = []
        #: one row per service-level engine call: (seconds, lanes,
        #: filtered, M, max worker exec s, commit s, max/mean shard lanes)
        self.exchanges: List[Tuple[float, ...]] = []
        self.last_exchange = (0.0, 0.0)
        self.cross_units = 0
        self.claims_won = 0

    # -- observers (span, call args, result) ---------------------------
    def offer(self, span, args, admitted) -> None:
        _, req, now = args[:3]
        self.first_offer.setdefault(req.rid, now)
        self.arrival[req.rid] = req.arrival
        if admitted:
            self.admitted_at[req.rid] = span.end

    def take(self, span, args, taken) -> None:
        for req in taken:
            self.queue_wait_s.append(span.end - self.admitted_at.pop(req.rid))

    def drain(self, span, args, ready) -> None:
        self.carried_in.append(len(ready))

    def exchange(self, span, args, result) -> None:
        sizes = list(result.shard_sizes) or [result.size]
        self.exchanges.append((
            span.end - span.start,
            len(args[1]),
            result.filtered,
            result.multiplicity,
            max(result.shard_exec_spans, default=0.0),
            result.exchange_span,
            max(sizes) / (sum(sizes) / len(sizes)) if sum(sizes) else 1.0,
        ))
        self.last_exchange = (span.start, span.end)

    def claims(self, span, args, result) -> None:
        self.cross_units += len(args[1])
        self.claims_won += len(result[0])

    def loadgen_lag_s(self) -> List[float]:
        """First offer minus scheduled arrival, on the front-end clock."""
        return [t - self.arrival[rid] for rid, t in self.first_offer.items()]


def _lanes(tracer: LayerTracer, name: str, count):
    def observe(span, args, result):
        tracer.lanes[name] += count(args, result)

    return observe


def instrument(
    tracer: LayerTracer, probe: Probe, *, serve: bool,
    out_dir: Optional[Path] = None,
) -> None:
    """Wrap the public calls into every layer the workload runs; serve
    workers write their spans to ``out_dir``."""
    w = tracer.wrap
    if serve:
        w(ServeFrontend, "run", "serve.frontend:run", root=True)
        w(ProcessCluster, "execute", "serve.cluster:execute", probe.exchange)
        for fn, count in (
            ("encode_requests", lambda a, r: len(a[0])),
            ("decode_requests", lambda a, r: a[1]),
            ("apply_row", lambda a, r: 1),
        ):
            name = f"serve.transport:{fn}"
            w(transport_mod, fn, name, _lanes(tracer, name, count))
        tracer.wrap_worker_entry(cluster_mod, "worker_main", out_dir)
    else:
        w(StreamService, "run", "runtime.service:run", root=True)
        w(ShardCoordinator, "execute", "shard.coordinator:execute", probe.exchange)
    w(BoundedQueue, "offer", "runtime.queue:offer", probe.offer)
    w(BoundedQueue, "take", "runtime.queue:take", probe.take)
    w(FixedBatcher, "target_size", "runtime.batcher:target_size")
    w(FixedBatcher, "observe", "runtime.batcher:observe")
    w(CarryoverBuffer, "put", "runtime.carryover:put")
    w(CarryoverBuffer, "drain_ready", "runtime.carryover:drain_ready", probe.drain)
    w(Router, "split", "shard.router:split",
      _lanes(tracer, "shard.router:split", lambda a, r: len(a[1])))
    w(Router, "resolve_claims", "shard.router:resolve_claims", probe.claims)
    w(ShardWorker, "execute", "shard.worker:execute")
    # Unsharded in-process runs call the executor straight from the
    # service, so the executor's calls are the service's exchanges.
    w(StreamExecutor, "execute", "runtime.executor:execute",
      None if serve else _executor_exchange(probe))
    for spec in specs():
        name = f"engine.{spec.name}:run"
        w(spec, "run", name, _lanes(tracer, name, lambda a, r: len(a[1])))
    for cls in (NativeBackend, SimBackend):
        name = f"backend.{cls.name}:run_fol"
        w(cls, "run_fol", name, _lanes(tracer, name, lambda a, r: len(a[3])))
    tracer.watch_gc()


def _executor_exchange(probe: Probe):
    def observe(span, args, result):
        if span.parent is not None and span.parent.layer == "runtime.service:run":
            probe.exchange(span, args, result)

    return observe


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_totals(table: Dict[str, Dict[str, float]], prefix: str) -> float:
    return sum(
        cell["total_s"] for name, cell in table.items()
        if name.split(":")[0] == prefix or name.startswith(prefix + ".")
    )


def ladder(
    table: Dict[str, Dict[str, float]], loop_cpu_s: float, completed: int
) -> List[Tuple[str, float, float]]:
    """(rung, cumulative ns/request, marginal ns/request), from the FOL
    round up.  A rung the workload does not run costs nothing extra."""
    total = {r: 0.0 for r in RUNGS}
    total["backend"] = layer_totals(table, "backend")
    total["engine"] = layer_totals(table, "engine")
    total["executor"] = layer_totals(table, "runtime.executor")
    total["shard"] = (
        layer_totals(table, "shard.coordinator")
        or layer_totals(table, "shard.worker")
        or total["executor"]
    )
    total["cluster"] = layer_totals(table, "serve.cluster") or total["shard"]
    if "serve.frontend:run" in table:
        # The front-end waits for arrivals most of the time; its cost is
        # the event-loop thread's CPU time on top of the exchanges.
        total["frontend"] = total["cluster"] + loop_cpu_s
    else:
        total["frontend"] = layer_totals(table, "runtime.service")
    out, below = [], 0.0
    for rung in RUNGS:
        ns = 1e9 * total[rung] / completed
        out.append((rung, ns, ns - below))
        below = ns
    return out


def compute(
    tracer: LayerTracer,
    probe: Probe,
    *,
    completed: int,
    stages: Optional[dict],
    carry_max_depth: int,
    cycles: Optional[Dict[str, float]],
    warmup_p99_ms: float,
    latency_p50_ms: float,
    overhead_frac: float,
    serve: bool,
) -> Dict[str, float]:
    """Every per-layer metric by name.  Metrics of layers
    the workload does not run are ``None`` (see :data:`PER_LAYER` for
    the JSON form)."""
    table = tracer.layer_table()
    m: Dict[str, Optional[float]] = {}
    for rung, ns, _ in ladder(table, tracer.loop_cpu_s, completed):
        m[f"ladder.{rung}_ns_per_req"] = ns

    ex = np.array(probe.exchanges, dtype=float).reshape(-1, 7)
    ex_s, lanes, filtered, mult, worker_s, commit_s, imbalance = ex.T
    lag = probe.loadgen_lag_s()
    m["serve.loadgen.lag_ms_p50"] = 1e3 * percentile(lag, 50) if serve else None
    m["serve.loadgen.lag_ms_p99"] = 1e3 * percentile(lag, 99) if serve else None
    m["serve.loadgen.lag_frac"] = (
        _ratio(1e3 * percentile(lag, 50), latency_p50_ms) if serve else 0.0
    )
    m["runtime.queue.wait_ms_p50"] = 1e3 * percentile(probe.queue_wait_s, 50)
    m["runtime.batcher.lanes_per_exchange"] = float(lanes.mean())
    m["runtime.service.exchange_ms_p50"] = 1e3 * percentile(ex_s, 50)
    m["runtime.service.exchange_ms_p99"] = 1e3 * percentile(ex_s, 99)
    for s in STAGES:
        share = stages["stages"][s]["share"] if stages else float("nan")
        m[f"obs.stage.{s}_share"] = share if share == share else 0.0
    m["runtime.carryover.carried_in_frac"] = _ratio(sum(probe.carried_in), lanes.sum())
    m["runtime.carryover.max_depth"] = float(carry_max_depth)
    drain = table.get("runtime.carryover:drain_ready")
    m["runtime.carryover.drain_ms_per_batch"] = 1e3 * _ratio(drain["total_s"], drain["calls"])
    m["core.fol.filtered_frac"] = _ratio(filtered.sum(), lanes.sum())
    m["core.fol.m_p50"] = percentile(mult, 50)
    m["core.fol.lane_visits_per_req"] = _ratio(lanes.sum(), completed)
    m["serve.frontend.warmup_p99_ms"] = warmup_p99_ms

    exchange_total = ex_s.sum()
    m["serve.cluster.exchanges"] = float(len(ex_s)) if serve else 0.0
    m["serve.cluster.exchange_ms_p50"] = m["runtime.service.exchange_ms_p50"] if serve else None
    m["serve.cluster.exchange_ms_p99"] = m["runtime.service.exchange_ms_p99"] if serve else None
    m["serve.cluster.worker_exec_ms_p50"] = 1e3 * percentile(worker_s, 50) if serve else None
    ipc = ex_s - worker_s - commit_s
    m["serve.cluster.ipc_ms_p50"] = 1e3 * percentile(ipc, 50) if serve else None
    m["serve.cluster.worker_exec_share"] = _ratio(worker_s.sum(), exchange_total) if serve else 0.0
    m["serve.cluster.ipc_share"] = _ratio(ipc.sum(), exchange_total) if serve else 0.0
    for fn, key in (("encode_requests", "encode"), ("apply_row", "apply")):
        cell = table.get(f"serve.transport:{fn}")
        m[f"serve.transport.{key}_us_per_lane"] = (
            1e6 * _ratio(cell["total_s"], cell["lanes"]) if cell else None
        )
    m["serve.transport.time_share"] = _ratio(
        layer_totals(table, "serve.transport"), exchange_total
    )
    split = table.get("shard.router:split")
    m["shard.router.split_us_per_lane"] = (
        1e6 * _ratio(split["total_s"], split["lanes"]) if split else None
    )
    m["shard.router.split_share"] = _ratio(
        split["total_s"] if split else 0.0, exchange_total
    )
    m["shard.router.cross_units"] = float(probe.cross_units)
    m["shard.router.claim_win_frac"] = _ratio(probe.claims_won, probe.cross_units)
    m["shard.coordinator.imbalance_mean"] = float(imbalance.mean())

    engine_total = layer_totals(table, "engine")
    for kind in KINDS:
        cell = table.get(f"engine.{kind}:run")
        has = cell is not None and cell["lanes"] > 0
        m[f"engine.{kind}.us_per_lane"] = (
            1e6 * _ratio(cell["total_s"], cell["lanes"]) if has else None
        )
        m[f"engine.{kind}.time_share"] = (
            _ratio(cell["total_s"], engine_total) if has else 0.0
        )
    fol_s = fol_lanes = 0.0
    for backend in ("native", "sim"):
        cell = table.get(f"backend.{backend}:run_fol")
        has = cell is not None and cell["lanes"] > 0
        m[f"backend.{backend}.run_fol_us_per_lane"] = (
            1e6 * _ratio(cell["total_s"], cell["lanes"]) if has else None
        )
        if has:
            fol_s += cell["total_s"]
            fol_lanes += cell["lanes"]
    m["backend.run_fol_us_per_lane"] = 1e6 * _ratio(fol_s, fol_lanes)

    by_cat = (cycles or {}).get("by_category", {})
    total_cycles = sum(by_cat.values())
    grouped = {g: by_cat.get(g, 0.0) for g in CYCLE_GROUPS}
    grouped["scalar"] = sum(v for k, v in by_cat.items() if k.startswith("scalar"))
    grouped["other"] = total_cycles - sum(grouped.values())
    for g, v in grouped.items():
        m[f"machine.cycles.{g}_share"] = _ratio(v, total_cycles)
    vinstr = (cycles or {}).get("vector_instructions", 0)
    m["machine.avg_vector_length"] = _ratio(
        (cycles or {}).get("vector_elements", 0), vinstr
    )
    m["machine.vinstr_per_req"] = _ratio(vinstr, completed) if cycles else 0.0
    m["machine.sim_cycles_per_req"] = (cycles or {}).get("per_request", 0.0)
    m["machine.host_ns_per_vinstr"] = (
        1e9 * _ratio(layer_totals(table, "runtime.executor"), vinstr)
        if cycles else None
    )
    m["python.gc.gen2_count"] = float(sum(1 for g, _ in tracer.gc_pauses if g == 2))
    m["python.gc.pause_ms_max"] = 1e3 * max((p for _, p in tracer.gc_pauses), default=0.0)
    m["trace.overhead_frac"] = overhead_frac
    return m


#: Layer times printed in the report besides :data:`PER_LAYER`: the layer
#: runs on some workloads only, so these read ``n/a`` on the others.
REPORT_ONLY = (
    ("serve.loadgen.lag_ms_p50", "ms"),
    ("serve.loadgen.lag_ms_p99", "ms"),
    ("serve.cluster.exchange_ms_p50", "ms"),
    ("serve.cluster.exchange_ms_p99", "ms"),
    ("serve.cluster.worker_exec_ms_p50", "ms"),
    ("serve.cluster.ipc_ms_p50", "ms"),
    ("serve.transport.encode_us_per_lane", "us"),
    ("serve.transport.apply_us_per_lane", "us"),
    ("shard.router.split_us_per_lane", "us"),
    ("engine.bst.us_per_lane", "us"),
    ("engine.sort.us_per_lane", "us"),
    ("backend.native.run_fol_us_per_lane", "us"),
    ("backend.sim.run_fol_us_per_lane", "us"),
    ("machine.host_ns_per_vinstr", "ns"),
)
