"""Opt-in request-lifecycle spans: the ``--trace`` event layer.

A :class:`TraceRecorder` observes one run and turns per-request
lifecycle transitions — offered → admitted/rejected/blocked → batched →
executed → committed or parked-for-migration → completed — into an
exact **per-stage latency decomposition**.  Each completed request's
arrival-to-completion latency is split into:

* ``admit``   — arrival to admission (backpressure/blocked time before
  the queue accepted the request);
* ``queue``   — admission to first batch launch, *minus* any overlap
  with deliberate batch-formation waits;
* ``batch``   — the part of the pre-launch wait the loop's release
  rule chose (waiting for a fuller batch, up to its linger or an SLO
  deadline);
* ``execute`` — shard-local pipeline time of every batch the request
  rode (the batch is the unit of time: all riders share its phases);
* ``commit``  — the cross-shard claim/commit exchange phases of those
  batches;
* ``park``    — migration phases plus the carry gaps of lanes parked
  because their routing bin was mid-handoff;
* ``carry``   — inter-batch gaps of lanes filtered by FOL (conflict
  recirculation, claim losses).

The seven spans sum to the end-to-end latency by construction (up to
float rounding), in whatever unit the owning layer's
:class:`~repro.obs.core.Clock` runs — simulated cycles for
``repro stream``, wall seconds for ``repro serve``.

The recorder is passive: it never advances a clock or charges a cycle,
so metrics and simulated cycle counts are bit-identical with tracing on
or off (the golden fixtures pin the off path, the decomposition tests
pin the on path).  With no recorder attached every emission site is a
``None`` check — zero overhead.

Events accumulate in memory and flush to a JSONL sink
(:meth:`TraceRecorder.flush`) that ``python -m repro trace`` renders;
one run at smoke scale is a few thousand events, so memory is not a
concern (a long soak should trace a window, not the whole run).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .core import Clock, format_table, percentile

#: The lifecycle stages, in pipeline order.  Their per-request spans
#: sum to the request's end-to-end latency.
STAGES = ("admit", "queue", "batch", "execute", "commit", "park", "carry")


class _Lane:
    """In-flight per-request span accumulator."""

    __slots__ = ("arrival", "enqueued", "tenant", "stages", "last_exit", "parked")

    def __init__(self, arrival: float, enqueued: float, tenant: str) -> None:
        self.arrival = arrival
        self.enqueued = enqueued
        self.tenant = tenant
        self.stages: Dict[str, float] = dict.fromkeys(STAGES, 0.0)
        self.last_exit: Optional[float] = None  # end of the last batch ridden
        self.parked = False  # parked (vs filtered) out of that batch


class TraceRecorder:
    """Collects lifecycle events and per-request stage spans for one run.

    Emission sites: :class:`~repro.runtime.queue.BoundedQueue` calls
    :meth:`request_offered` (as the queue's ``observer``); the stream
    service / serve frontend call :meth:`linger_wait` when the release
    rule delays a launch and :meth:`record_batch` after each executed
    batch; the :class:`~repro.shard.migration.MigrationController`
    calls :meth:`migration_step` when bin handoffs flip.  Worker-side
    execute timings ride the serving layer's existing mp reply queue
    and arrive on ``BatchResult.shard_exec_spans``.
    """

    def __init__(
        self, clock: Clock, sink: Optional[Union[str, Path]] = None
    ) -> None:
        self.clock = clock
        self.sink = Path(sink) if sink is not None else None
        self.events: List[dict] = []
        self.completed_spans: List[dict] = []
        self.counts = {"offered": 0, "admitted": 0, "rejected": 0, "blocked": 0}
        self._lanes: Dict[int, _Lane] = {}
        # Batch-formation waits, as merged monotonic (start, end) pairs.
        self._linger_starts: List[float] = []
        self._linger_ends: List[float] = []

    # ------------------------------------------------------------------
    # emission hooks
    # ------------------------------------------------------------------
    def request_offered(self, req, now: float, outcome: str) -> None:
        """Admission transition (``outcome`` is ``admitted``,
        ``rejected`` or ``blocked``; the queue reports ``blocked`` once
        per request, not once per re-offer)."""
        self.counts["offered"] += 1
        if outcome == "admitted":
            self.counts["admitted"] += 1
            lane = _Lane(req.arrival, now, req.tenant)
            lane.stages["admit"] = max(0.0, now - req.arrival)
            self._lanes[req.rid] = lane
        else:
            self.counts[outcome] += 1
        self._emit(
            {"ev": "offered", "t": now, "rid": req.rid,
             "tenant": req.tenant, "outcome": outcome}
        )

    def linger_wait(self, start: float, end: float) -> None:
        """The release rule chose to wait ``[start, end)`` for a
        fuller batch; queued lanes' overlap with these intervals is the
        ``batch`` stage."""
        if end <= start:
            return
        if self._linger_ends and start <= self._linger_ends[-1]:
            # merge with the previous interval (contiguous waits)
            self._linger_ends[-1] = max(self._linger_ends[-1], end)
            return
        self._linger_starts.append(start)
        self._linger_ends.append(end)

    def record_batch(
        self, index: int, batch: Sequence, result, t_launch: float, t_end: float
    ) -> None:
        """Close the pre-launch span of every rider, attribute the
        batch's phase spans, and finalise completions.  ``result`` is
        the :class:`~repro.runtime.executor.BatchResult`; its
        ``exchange_span``/``migration_span`` carry the claim-commit and
        migration phases in the layer's clock unit."""
        total = max(0.0, t_end - t_launch)
        commit = min(max(0.0, getattr(result, "exchange_span", 0.0)), total)
        park_phase = min(
            max(0.0, getattr(result, "migration_span", 0.0)), total - commit
        )
        execute = total - commit - park_phase
        parked_rids = {r.rid for r in result.carried[: result.parked]}
        event: dict = {
            "ev": "batch", "t": t_launch, "batch": index,
            "size": len(batch), "completed": len(result.completed),
            "execute": execute, "commit": commit, "park": park_phase,
        }
        shard_exec = getattr(result, "shard_exec_spans", ())
        if shard_exec:
            event["shard_exec"] = [float(s) for s in shard_exec]
        self._emit(event)

        for req in batch:
            lane = self._lane(req)
            if lane.last_exit is None:
                span = max(0.0, t_launch - lane.enqueued)
                overlap = self._linger_overlap(lane.enqueued, t_launch)
                lane.stages["queue"] += span - overlap
                lane.stages["batch"] += overlap
                carried = False
            else:
                gap = max(0.0, t_launch - lane.last_exit)
                lane.stages["park" if lane.parked else "carry"] += gap
                carried = True
            lane.stages["execute"] += execute
            lane.stages["commit"] += commit
            lane.stages["park"] += park_phase
            self._emit(
                {"ev": "batched", "t": t_launch, "rid": req.rid,
                 "batch": index, "carried": carried}
            )
        for rid in getattr(result, "cross_committed", ()):
            self._emit({"ev": "committed", "t": t_end, "rid": rid, "batch": index})
        for req in result.completed:
            lane = self._lanes.pop(req.rid, None)
            if lane is None:
                continue
            record = {
                "ev": "completed", "t": t_end, "rid": req.rid,
                "tenant": lane.tenant,
                "latency": t_end - lane.arrival,
                "stages": dict(lane.stages),
            }
            self.completed_spans.append(record)
            self._emit(record)
        for req in result.carried:
            lane = self._lane(req)
            lane.last_exit = t_end
            lane.parked = req.rid in parked_rids
            self._emit(
                {"ev": "parked" if lane.parked else "filtered",
                 "t": t_end, "rid": req.rid, "batch": index}
            )

    def migration_step(self, report) -> None:
        """A migration step flipped bins (controller observer hook)."""
        self._emit(
            {"ev": "migration", "t": self.clock.now(),
             "bins": report.completed, "skipped": report.skipped,
             "words": report.words, "rtts": report.rtts}
        )

    # ------------------------------------------------------------------
    def _lane(self, req) -> _Lane:
        lane = self._lanes.get(req.rid)
        if lane is None:  # e.g. recorder attached after admission
            lane = _Lane(req.arrival, req.enqueued, req.tenant)
            self._lanes[req.rid] = lane
        return lane

    def _linger_overlap(self, start: float, end: float) -> float:
        """Total overlap of ``[start, end)`` with the linger intervals."""
        if end <= start or not self._linger_starts:
            return 0.0
        i = bisect_left(self._linger_ends, start)
        overlap = 0.0
        while i < len(self._linger_starts) and self._linger_starts[i] < end:
            overlap += min(end, self._linger_ends[i]) - max(
                start, self._linger_starts[i]
            )
            i += 1
        return overlap

    def _emit(self, event: dict) -> None:
        self.events.append(event)

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def stage_breakdown(self) -> Dict[str, object]:
        """Per-stage latency decomposition over completed requests.

        ``stages[<stage>]`` carries total/mean/p50/p99 spans and the
        stage's share of total latency; ``sum_to_latency_max_err`` is
        the worst relative gap between a request's stage sum and its
        end-to-end latency (exact decomposition ⇒ ~float epsilon)."""
        done = self.completed_spans
        total_latency = sum(d["latency"] for d in done)
        out: Dict[str, object] = {
            "unit": self.clock.unit,
            "requests": len(done),
            "total_latency": total_latency,
            "sum_to_latency_max_err": self._max_decomposition_error(),
            "stages": {},
        }
        for stage in STAGES:
            values = [d["stages"][stage] for d in done]
            total = sum(values)
            out["stages"][stage] = {
                "total": total,
                "share": total / total_latency if total_latency else float("nan"),
                "mean": total / len(values) if values else float("nan"),
                "p50": percentile(values, 50),
                "p99": percentile(values, 99),
            }
        return out

    def _max_decomposition_error(self) -> float:
        err = 0.0
        for d in self.completed_spans:
            if d["latency"] > 0:
                gap = abs(sum(d["stages"].values()) - d["latency"])
                err = max(err, gap / d["latency"])
        return err

    def stage_table(self) -> str:
        """The decomposition as a table (milliseconds on a wall clock)."""
        bd = self.stage_breakdown()
        scale = 1e3 if self.clock.unit == "seconds" else 1.0
        unit = "ms" if self.clock.unit == "seconds" else self.clock.unit
        headers = ["stage", f"total ({unit})", "share%", f"p50 ({unit})", f"p99 ({unit})"]
        rows = []
        for stage in STAGES:
            cell = bd["stages"][stage]
            share = cell["share"]
            rows.append([
                stage,
                f"{scale * cell['total']:,.2f}",
                f"{100 * share:.1f}" if share == share else "—",
                f"{scale * cell['p50']:,.2f}" if cell["p50"] == cell["p50"] else "—",
                f"{scale * cell['p99']:,.2f}" if cell["p99"] == cell["p99"] else "—",
            ])
        return format_table(headers, rows)

    # ------------------------------------------------------------------
    # JSONL sink
    # ------------------------------------------------------------------
    def flush(self) -> Optional[Path]:
        """Write every event to the JSONL sink (one object per line,
        prefixed by a ``meta`` header naming the clock unit)."""
        if self.sink is None:
            return None
        self.sink.parent.mkdir(parents=True, exist_ok=True)
        with self.sink.open("w") as fh:
            fh.write(json.dumps(
                {"ev": "meta", "unit": self.clock.unit, "schema": 1}
            ) + "\n")
            for event in self.events:
                fh.write(json.dumps(event, sort_keys=True) + "\n")
        return self.sink


def load_events(path: Union[str, Path]) -> List[dict]:
    """Read a trace JSONL file back into event dicts (skipping blank
    lines; raises ``ValueError`` on malformed JSON with the line no)."""
    out: List[dict] = []
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc})") from None
    return out
