"""The repository benchmark: four sharing-aware workloads.

Run from the repository root::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another, each in
its own process, and exits non-zero if any run does.

Workloads (``perfbench/workloads.py``; ``BENCHMARK.json`` says why each
exists):

* ``serve-hot`` / ``serve-uniform`` — an open-loop Poisson stream at a
  fixed offered rate through ``ServeFrontend`` over a one-worker native
  ``ProcessCluster``, with Zipf 1.2 or uniform keys.  Latency runs from
  each request's scheduled arrival to its completion.  Requests due in
  the first second are the warm-up window: left out of the percentiles
  and reported on their own.  The printed ``latency_p99_ms`` is the
  median of the p99s of the run's 2-second windows (the whole-run p99
  is printed too).
* ``bulk-native`` / ``paper-sim`` — a closed-loop job of a fixed
  request count (the count is part of the workload: in-process cost
  grows faster than linearly with it) through ``StreamService``, on a
  K=4 ``ShardCoordinator`` over the native backend, or on one executor
  over the calibrated ``sim`` backend.  The job is repeated for
  ``--seconds``; the first, cold job is the warm-up.  A job's latency
  is its makespan, the time from input to complete result, and
  ``throughput_rps`` is the request count over the median makespan.
  These timings and the engine build times are scaled to a reference
  host speed by a fixed probe computation timed around each job
  (``workloads.host_probe``); the report prints them unscaled too.
  The serve workloads' cluster spawns are scaled the same way, each by
  the probes timed just before and after it; their latencies are not,
  since linger and timer waits do not follow the host's speed.

``--trace 0`` prints the end-to-end metrics.  The final JSON line
carries those of :data:`END_TO_END`; the report adds ``latency_p99_ms``,
``failed_frac`` and, on paper-sim, ``sim_cycles_per_req`` (simulated
S-810 cycles, identical in every job of one seed or the run fails).
``setup_s`` is the median engine construction time, scaled to the
reference host speed: cluster spawn until every worker is ready (9
spawns per run), or the executor or coordinator build of every job.

``--trace 1`` runs the workload untraced and traced (alternating jobs
in a closed loop, one half-length stream each for serve), prints the
per-layer metrics, the self time of every wrapped call, the per-layer
ladder and the tracing overhead, and checks that the workload is in the
regime it exists for.

Every run diffs the end state with the scalar oracle outside the timed
regions; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status: 0
on success, 1 on an oracle divergence, 2 on bad arguments or a missing
program, 3 when the traced run finds the workload out of its regime
(its report then goes to standard error, with no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, TextIO, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"

#: Setup is timed this many times per serve run (cluster spawns).
SERVE_SETUPS = 9
#: Closed loops time at least this many jobs after the cold one.
MIN_JOBS = 3
#: serve throughput must track the offered rate within this share.
RATE_TOLERANCE = 0.1
#: serve-hot's hot keys must make FOL filter at least this lane share.
MIN_HOT_FILTERED = 0.03
#: serve-uniform's carry share must stay below this.
SMALL_CARRY_SHARE = 0.2
#: The load generator's median lag must stay below this share of the
#: latency p50, and its p99 lag below the latency p99.
MAX_LAG_FRAC = 1 / 3

#: The end-to-end metrics of the final JSON line (``BENCHMARK.json``).
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
#: End-to-end metrics the report prints but the JSON line leaves out.
#: The serve p99's spread (quartile distance over median) across ten
#: runs of one commit was 0.43 on a 2-vCPU VM with hypervisor steal,
#: too wide for any bound; failures are the line's ``failed`` count;
#: simulated cycles exist only on paper-sim.
REPORTED = END_TO_END + (
    ("latency_p99_ms", "ms"),
    ("failed_frac", "frac"),
    ("sim_cycles_per_req", "cycles"),
)


@dataclass
class Outcome:
    attempted: int
    failed: int
    divergences: List[object]
    #: end-to-end metric -> (value, sample count), from untraced runs
    e2e: Dict[str, Tuple[float, int]]
    notes: List[str]
    #: traced runs: (tracer, per-layer metrics, completed requests)
    traced: Optional[Tuple[object, Dict[str, Optional[float]], int]] = None
    problems: List[str] = field(default_factory=list)


def stamp() -> Dict[str, object]:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def git_sha() -> str:
    """HEAD of the checkout's git directory, or ``unknown`` (read from
    the files, so a checkout that is not a repository stays silent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _failures(units) -> Tuple[int, int, List[object]]:
    """(attempted, failed, divergences) over runs or jobs that each
    carry ``requests``, ``completed`` and ``divergence``: a diverged
    run fails every request it was given."""
    attempted = failed = 0
    divergences = []
    for u in units:
        attempted += u.requests
        if u.divergence:
            divergences.append(u.divergence)
            failed += u.requests
        else:
            failed += u.requests - u.completed
    return attempted, failed, divergences


# ----------------------------------------------------------------------
# open loop
# ----------------------------------------------------------------------
def run_serve(w, seed: int, seconds: float, trace: bool) -> Outcome:
    from perfbench import layers
    from perfbench import workloads as wl
    from perfbench.tracing import LayerTracer
    from repro.obs.core import Clock, percentile
    from repro.obs.events import TraceRecorder

    if not trace:
        base = wl.serve_phase(w, seed, seconds, setups=SERVE_SETUPS)
        runs = [base]
    else:
        base = wl.serve_phase(w, seed, seconds / 2)
        tracer, probe = LayerTracer(), layers.Probe()
        recorder = TraceRecorder(Clock.wall())
        out_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        try:
            traced = wl.serve_phase(
                w, seed, seconds / 2, recorder=recorder,
                before_spawn=lambda: layers.instrument(
                    tracer, probe, serve=True, out_dir=out_dir
                ),
            )
            for path in sorted(out_dir.glob("worker-*.json")):
                tracer.merge_worker(path)
        finally:
            tracer.restore()
            shutil.rmtree(out_dir, ignore_errors=True)
        runs = [base, traced]

    out = Outcome(
        *_failures(runs),
        e2e={
            "setup_s": (
                statistics.median(
                    s * k for s, k in zip(base.setup_s, base.setup_scale)
                ),
                len(base.setup_s),
            ),
            "throughput_rps": (base.throughput_rps, base.completed),
            "latency_p50_ms": (
                1e3 * percentile(base.latencies_s, 50), len(base.latencies_s)
            ),
            "latency_p99_ms": (
                1e3 * statistics.median(base.window_p99s_s), len(base.latencies_s)
            ),
            "peak_rss_mb": (peak_rss_mb(), 1),
        },
        notes=[
            f"offered rate {w.rate:.0f} req/s; warm-up window {wl.WARMUP_S:.0f} s: "
            f"{len(base.warmup_s)} requests, "
            f"p99 {1e3 * percentile(base.warmup_s, 99):.2f} ms",
            f"latency p99 per {wl.WINDOW_S:.0f} s window (ms): "
            + " ".join(f"{1e3 * v:.1f}" for v in base.window_p99s_s)
            + f"; whole run {1e3 * percentile(base.latencies_s, 99):.2f}",
            "host scale (reference probe over measured probe) median "
            f"{statistics.median(base.setup_scale):.3f}; unscaled setup "
            f"{1e3 * statistics.median(base.setup_s):.3f} ms",
        ],
    )
    if not trace:
        return out

    base_p50 = 1e3 * percentile(base.latencies_s, 50)
    traced_p50 = 1e3 * percentile(traced.latencies_s, 50)
    stages = recorder.stage_breakdown()
    m = layers.compute(
        tracer, probe,
        completed=traced.completed,
        stages=stages,
        carry_max_depth=traced.carry_max_depth,
        cycles=None,
        warmup_p99_ms=1e3 * percentile(traced.warmup_s, 99),
        latency_p50_ms=traced_p50,
        overhead_frac=traced_p50 / base_p50 - 1.0,
        serve=True,
    )
    out.traced = (tracer, m, traced.completed)
    out.notes.append(
        f"tracing overhead: p50 {base_p50:.3f} ms untraced -> "
        f"{traced_p50:.3f} ms traced ({m['trace.overhead_frac']:+.1%})"
    )
    out.notes.append("stage shares: " + ", ".join(
        f"{s} {cell['share']:.3f}" for s, cell in stages["stages"].items()
    ))
    out.problems = serve_regime_problems(
        w, runs, m, 1e3 * percentile(traced.latencies_s, 99)
    )
    return out


def serve_regime_problems(
    w, runs, m: Dict[str, float], latency_p99_ms: float
) -> List[str]:
    """The serve workloads' regime self-checks: below the knee, the
    generator not measured in place of the program, and hot keys (or
    none) where the workload says."""
    problems = []
    for r in runs:
        if abs(r.throughput_rps / w.rate - 1.0) > RATE_TOLERANCE:
            problems.append(
                f"throughput {r.throughput_rps:.0f} req/s does not track "
                f"the offered {w.rate:.0f} req/s"
            )
    if w.skew > 0:
        if m["core.fol.filtered_frac"] < MIN_HOT_FILTERED:
            problems.append(
                f"filtered fraction {m['core.fol.filtered_frac']:.4f}: hot keys "
                f"do not make FOL filter lanes"
            )
    elif m["obs.stage.carry_share"] >= SMALL_CARRY_SHARE:
        problems.append(f"carry share {m['obs.stage.carry_share']:.3f} is not small")
    if m["serve.loadgen.lag_frac"] >= MAX_LAG_FRAC:
        problems.append(
            f"load generator lag p50 {m['serve.loadgen.lag_ms_p50']:.3f} ms "
            f"is not well below the latency p50"
        )
    if m["serve.loadgen.lag_ms_p99"] >= latency_p99_ms:
        problems.append(
            f"load generator lag p99 {m['serve.loadgen.lag_ms_p99']:.3f} ms "
            f"sets the latency tail"
        )
    return problems


# ----------------------------------------------------------------------
# closed loop
# ----------------------------------------------------------------------
def run_closed(w, seed: int, seconds: float, trace: bool) -> Outcome:
    from perfbench import layers
    from perfbench import workloads as wl
    from perfbench.tracing import LayerTracer
    from repro.obs.core import percentile

    cold = wl.closed_job(w, seed)
    plain: List = []
    traced: List = []
    tracer, probe = LayerTracer(), layers.Probe()
    cycles = {"by_category": {}, "vector_instructions": 0, "vector_elements": 0}
    carry_depth = 0
    measured = 0.0
    while (
        measured < seconds
        or len(plain) < MIN_JOBS
        or (trace and len(traced) < MIN_JOBS)
    ):
        if not (trace and len(traced) <= len(plain)):
            job = wl.closed_job(w, seed)
            plain.append(job)
            measured += job.job_s
            continue
        layers.instrument(tracer, probe, serve=False)
        try:
            job = wl.closed_job(w, seed)
        finally:
            tracer.restore()
        traced.append(job)
        measured += job.job_s
        carry_depth = max(carry_depth, job.carry_max_depth)
        if w.backend == "sim":
            counter = job.counter
            for cat, cyc in counter.by_category.items():
                cycles["by_category"][cat] = cycles["by_category"].get(cat, 0.0) + cyc
            cycles["vector_instructions"] += counter.vector_instructions
            cycles["vector_elements"] += counter.vector_elements
            cycles["per_request"] = job.sim_cycles_per_req

    jobs = [cold] + plain + traced
    # Timings scaled to the reference host speed (see host_probe).
    job_s = [j.job_s * j.host_scale for j in plain]
    out = Outcome(
        *_failures(jobs),
        e2e={
            "setup_s": (
                statistics.median(j.setup_s * j.host_scale for j in plain), len(plain)
            ),
            "throughput_rps": (w.requests / statistics.median(job_s), len(plain)),
            "latency_p50_ms": (1e3 * statistics.median(job_s), len(plain)),
            "latency_p99_ms": (1e3 * percentile(job_s, 99), len(plain)),
            "peak_rss_mb": (peak_rss_mb(), 1),
        },
        notes=[
            f"{w.requests} requests per job; cold job {1e3 * cold.job_s:.1f} ms; "
            "jobs (ms, as measured): " + " ".join(f"{1e3 * j.job_s:.0f}" for j in plain),
            "host scale (reference probe over measured probe) median "
            f"{statistics.median(j.host_scale for j in plain):.3f}; unscaled "
            f"throughput {w.requests / statistics.median(j.job_s for j in plain):.1f} "
            f"req/s, setup {1e3 * statistics.median(j.setup_s for j in plain):.3f} ms",
        ],
    )
    if w.backend == "sim":
        # Simulated cycles are deterministic: every job of one seed,
        # traced or not, must charge exactly the same.
        seen = sorted({j.sim_cycles_per_req for j in jobs})
        if len(seen) != 1:
            out.divergences.append(f"sim_cycles_per_req differs between jobs: {seen}")
            out.failed = out.attempted
        else:
            out.notes.append(f"sim_cycles_per_req identical in all {len(jobs)} jobs")
        out.e2e["sim_cycles_per_req"] = (seen[-1], len(jobs))
    if not trace:
        return out

    completed = sum(j.completed for j in traced)
    plain_med = statistics.median(job_s)
    traced_med = statistics.median(j.job_s * j.host_scale for j in traced)
    m = layers.compute(
        tracer, probe,
        completed=completed,
        stages=None,
        carry_max_depth=carry_depth,
        cycles=cycles if w.backend == "sim" else None,
        warmup_p99_ms=1e3 * cold.job_s,
        latency_p50_ms=1e3 * plain_med,
        overhead_frac=traced_med / plain_med - 1.0,
        serve=False,
    )
    out.traced = (tracer, m, completed)
    out.notes.append(
        f"tracing overhead: job {1e3 * plain_med:.1f} ms untraced -> "
        f"{1e3 * traced_med:.1f} ms traced ({m['trace.overhead_frac']:+.1%})"
    )
    return out


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def print_report(w, args, out: Outcome, file: TextIO) -> None:
    from perfbench import layers

    def say(line: str) -> None:
        print(line, file=file)

    why = {x["name"]: x["why"] for x in json.loads(BENCHMARK.read_text())["workloads"]}
    say(f"perfbench {w.name}: seed {args.seed}, {args.seconds} s, trace {args.trace}")
    say("  " + ", ".join(f"{k} {v}" for k, v in stamp().items()))
    say(f"  why: {why[w.name]}")
    for note in out.notes:
        say(f"  {note}")
    say("end-to-end (untraced):")
    for name, unit in REPORTED:
        if name in out.e2e:
            value, n = out.e2e[name]
            say(f"  {name:<18} {value:>14.4f} {unit:<6} n={n}")
    for d in out.divergences:
        say(f"ORACLE DIVERGENCE: {d}")
    if out.traced is None:
        return
    tracer, m, completed = out.traced
    say("per-layer (traced):")
    for name, unit, *_ in layers.PER_LAYER + layers.REPORT_ONLY:
        shown = "n/a" if m[name] is None else f"{m[name]:.4f}"
        say(f"  {name:<40} {shown:>14} {unit}")
    say("self time per wrapped call (both processes):")
    table = tracer.layer_table()
    for name in sorted(table, key=lambda n: -table[n]["self_s"]):
        cell = table[name]
        say(
            f"  {name:<36} calls {cell['calls']:>8.0f}  total "
            f"{1e3 * cell['total_s']:>10.2f} ms  self {1e3 * cell['self_s']:>10.2f} ms  "
            f"self/req {1e9 * cell['self_s'] / completed:>9.0f} ns"
        )
    say("ladder, ns per completed request (cumulative, marginal):")
    for rung, ns, marginal in layers.ladder(table, tracer.loop_cpu_s, completed):
        say(f"  {rung:<10} {ns:>12.0f} {marginal:>+12.0f}")


def run_all(names: List[str], args) -> int:
    """Run every workload, each in its own process, one after another;
    the last line merges their results, metrics named
    ``<workload>/<metric>``.  Exits with the first non-zero status."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, cell in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = cell
    print(json.dumps(merged))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.layers import PER_LAYER
    from perfbench.workloads import WARMUP_S, WORKLOADS

    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    w = WORKLOADS.get(args.workload)
    if w is None:
        parser.error(
            f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or 'all'"
        )
    phase_s = args.seconds / 2 if args.trace else args.seconds
    if w.open_loop and phase_s <= WARMUP_S:
        parser.error(f"a serve stream of {phase_s} s ends inside the {WARMUP_S} s warm-up")
    runner = run_serve if w.open_loop else run_closed
    out = runner(w, args.seed, args.seconds, bool(args.trace))
    out.e2e["failed_frac"] = (out.failed / out.attempted, out.attempted)
    if out.problems and not out.divergences:
        print_report(w, args, out, sys.stderr)
        for problem in out.problems:
            print(f"INVALID {w.name}: {problem}", file=sys.stderr)
        return 3
    print_report(w, args, out, sys.stdout)
    if out.traced is None:
        metrics = {n: {"value": out.e2e[n][0], "unit": u} for n, u in END_TO_END}
    else:
        metrics = {n: {"value": out.traced[1][n], "unit": u} for n, u, _ in PER_LAYER}
    print(json.dumps({
        "correct": not out.divergences,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 1 if out.divergences else 0


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this run started and wait for each to end.

    Serve workers are joined by ``ProcessCluster.shutdown``; any still
    alive here (a run that raised) is terminated.  The shared-memory
    segments start multiprocessing's resource tracker, which would
    otherwise outlive this process: it exits only on reading EOF from a
    pipe whose write end every process of the run holds, and nobody is
    left to reap it.  Closing our end once the workers are gone and
    waiting for it ends it here."""
    import multiprocessing as mp

    for proc in mp.active_children():
        proc.terminate()
        proc.join(timeout)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracker_mod = sys.modules.get("multiprocessing.resource_tracker")
    if tracker_mod is None:
        return
    tracker = tracker_mod._resource_tracker
    with tracker._lock:
        if tracker._fd is None:
            return
        os.close(tracker._fd)
        tracker._fd = None
        if tracker._pid is not None:
            os.waitpid(tracker._pid, 0)
            tracker._pid = None


if __name__ == "__main__":
    try:
        status = main()
    finally:
        sys.stdout.flush()
        stop_children()
    sys.exit(status)
