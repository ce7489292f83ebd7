"""Bin-granular live migration: rate x latency frontier and recovery.

The tentpole claim under test (ISSUE 8): with two-level bin routing
(:mod:`repro.shard.partition`) and the pacing migration controller
(:mod:`repro.shard.migration`), a K=8 sharded engine on Zipf-1.2
hash+list traffic must beat the static balanced partition's 217.8
cycles/request (the ``skew1.2_k8`` cell of BENCH_shard.json) by at
least 20% — i.e. reach <= ~174.2 steady-state cycles/request — because
re-homing hot bins lets the max-over-shards batch cost stop tracking
the hottest shard.

Three experiments, written to ``BENCH_migration.json``:

* **steady_state** — closed-loop cycles/request for the static
  baseline and each pacing strategy (identical workload, seed and
  batch policy as the BENCH_shard baseline cell), plus the improvement
  percentage the acceptance criterion reads;
* **frontier** — offered rate x achieved throughput x p50/p99 latency
  for each strategy and the no-migration baseline, swept over open-loop
  arrival gaps from under-load to past saturation.  The frontier shows
  what pacing buys: how much offered load each configuration absorbs
  before latency departs;
* **reconfiguration** — the p99 spike while bins are in flight: per
  batch cycles/lane, split into migration-active batches (a handoff
  ran or parked requests replayed) vs quiet batches, reported as the
  active-p99 / quiet-median ratio per strategy.

Dual interface like the other benches; a smoke run needs an explicit
``--json`` path, so it never overwrites the committed file::

    python benchmarks/bench_migration.py [--json PATH]
    python benchmarks/bench_migration.py --smoke --json PATH
    pytest benchmarks/bench_migration.py --benchmark-only -s
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.bench.reporting import format_table, write_json
from repro.runtime import (
    StreamService,
    closed_loop_workload,
    make_batcher,
    open_loop_workload,
)
from repro.shard import PACING_STRATEGIES, ShardCoordinator

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO_ROOT / "BENCH_migration.json"

#: Workload/engine config — identical to the BENCH_shard.json scaling
#: sweep whose skew1.2_k8 cell is the acceptance baseline.
SHARDS = 8
SKEW = 1.2
TABLE_SIZE = 509
KEY_SPACE = 2048
N_CELLS = 256
BATCH_SIZE = 128
KINDS = ("hash", "list")
#: The static balanced-partition cost this bench must improve on
#: (BENCH_shard.json ``scaling.skew1.2_k8``).
BASELINE_CPR = 217.8
TARGET_IMPROVEMENT = 20.0  # percent

#: Rebalancer tuning for the K=8 runs: a higher trigger threshold
#: plans fewer, better-timed bin moves (the decayed load signal at K=8
#: is noisy early on; eager plans chase transients and churn).
REBALANCE = dict(
    rebalance_threshold=2.2, rebalance_cooldown=4, rebalance_max_moves=8
)

#: Open-loop mean inter-arrival gaps (cycles): ~0.5x to ~1.2x the
#: engine's service rate, so the sweep crosses saturation.
MEAN_GAPS = (400.0, 250.0, 180.0, 140.0)


def _workload(n_requests, seed, mean_gap=None):
    rng = np.random.default_rng(seed)
    common = dict(
        kinds=KINDS, skew=SKEW, key_space=KEY_SPACE, n_cells=N_CELLS
    )
    if mean_gap is None:
        return closed_loop_workload(rng, n_requests, **common)
    return open_loop_workload(rng, n_requests, mean_gap=mean_gap, **common)


def run_once(n_requests, seed, *, strategy=None, mean_gap=None):
    """One K=8 run; ``strategy=None`` disables migration entirely.
    Returns (metrics, coordinator, service)."""
    requests = _workload(n_requests, seed, mean_gap)
    coordinator = ShardCoordinator.for_workload(
        requests,
        shards=SHARDS,
        partitioner="hash",  # no-kind-lint
        rebalance=strategy is not None,
        table_size=TABLE_SIZE,
        n_cells=N_CELLS,
        key_space=KEY_SPACE,
        migration=strategy or "all-at-once",
        **REBALANCE,
    )
    service = StreamService(
        coordinator, batcher=make_batcher("fixed", batch_size=BATCH_SIZE)
    )
    metrics = service.run(requests)
    assert metrics.summary()["completed"] == n_requests
    return metrics, coordinator, service


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------
def steady_state_experiment(n_requests, seed):
    """Closed-loop cycles/request, static baseline vs each strategy —
    the same metric as BENCH_shard's scaling cells."""
    out = {"baseline_bench_shard": BASELINE_CPR}
    for arm in (None,) + tuple(PACING_STRATEGIES):
        metrics, coord, service = run_once(n_requests, seed, strategy=arm)
        name = arm or "static"
        out[name] = {
            "cycles_per_request": round(service.now / n_requests, 2),
            "migrations": coord.total_migrations,
            "migration_skips": coord.migration_skips,
            "parked": sum(b.parked for b in metrics.batches),
            "migration_cycles": round(coord.migration_cycles, 1),
        }
    best = min(
        out[s]["cycles_per_request"] for s in PACING_STRATEGIES
    )
    out["best_cycles_per_request"] = best
    out["improvement_pct"] = round(
        100.0 * (1.0 - best / BASELINE_CPR), 1
    )
    return out


def frontier_experiment(n_requests, seed, mean_gaps):
    """Offered rate x achieved throughput x latency per strategy."""
    out = {}
    for arm in (None,) + tuple(PACING_STRATEGIES):
        name = arm or "static"
        points = []
        for gap in mean_gaps:
            metrics, coord, service = run_once(
                n_requests, seed, strategy=arm, mean_gap=gap
            )
            points.append(
                {
                    "mean_gap": gap,
                    "offered_rate": round(1.0 / gap, 6),
                    "achieved_rate": round(n_requests / service.now, 6),
                    "cycles_per_request": round(service.now / n_requests, 2),
                    "p50_latency": round(metrics.latency_percentile(50), 1),
                    "p99_latency": round(metrics.latency_percentile(99), 1),
                    "migrations": coord.total_migrations,
                    "parked": sum(b.parked for b in metrics.batches),
                }
            )
        out[name] = points
    return out


def reconfiguration_experiment(n_requests, seed):
    """The p99 spike while bins are in flight, per strategy: per-batch
    cycles/lane over migration-active batches vs quiet batches."""
    out = {}
    for arm in PACING_STRATEGIES:
        metrics, coord, service = run_once(n_requests, seed, strategy=arm)
        per_lane = lambda b: b.cycles / b.size  # noqa: E731
        # Only full-ish batches: the closed-loop drain phase runs
        # near-empty batches whose per-lane cost says nothing about
        # reconfiguration.
        full = [b for b in metrics.batches if b.size >= BATCH_SIZE // 2]
        active = [
            per_lane(b) for b in full if b.migrations or b.parked
        ]
        quiet = [
            per_lane(b) for b in full if not (b.migrations or b.parked)
        ]
        spike = (
            round(
                float(np.percentile(active, 99)) / float(np.median(quiet)), 3
            )
            if active and quiet
            else None
        )
        out[arm] = {
            "active_batches": len(active),
            "quiet_batches": len(quiet),
            "active_p99_cyc_per_lane": (
                round(float(np.percentile(active, 99)), 1) if active else None
            ),
            "quiet_median_cyc_per_lane": (
                round(float(np.median(quiet)), 1) if quiet else None
            ),
            "p99_spike_ratio": spike,
        }
    return out


# ----------------------------------------------------------------------
def check(payload):
    """Acceptance assertions; returns a list of failure strings."""
    failures = []
    steady = payload["steady_state"]
    if steady["improvement_pct"] < TARGET_IMPROVEMENT:
        failures.append(
            f"steady-state cyc/req improved only "
            f"{steady['improvement_pct']}% over the {BASELINE_CPR} "
            f"baseline (target >= {TARGET_IMPROVEMENT}%)"
        )
    frontier = payload["frontier"]
    for arm in PACING_STRATEGIES:
        if arm not in frontier or not frontier[arm]:
            failures.append(f"frontier missing strategy {arm!r}")
    recon = payload["reconfiguration"]
    for arm in PACING_STRATEGIES:
        if recon.get(arm, {}).get("active_batches", 0) == 0:
            failures.append(
                f"no migration-active batches recorded for {arm!r} — "
                f"the reconfiguration window was never observed"
            )
    return failures


def build_payload(n_requests, seed, mean_gaps=MEAN_GAPS):
    return {
        "bench": "migration",
        "config": {
            "n_requests": n_requests,
            "seed": seed,
            "kinds": list(KINDS),
            "shards": SHARDS,
            "skew": SKEW,
            "table_size": TABLE_SIZE,
            "key_space": KEY_SPACE,
            "n_cells": N_CELLS,
            "batch_size": BATCH_SIZE,
            "partitioner": "hash",  # no-kind-lint
            "strategies": list(PACING_STRATEGIES),
            "mean_gaps": list(mean_gaps),
            "baseline_cycles_per_request": BASELINE_CPR,
            "target_improvement_pct": TARGET_IMPROVEMENT,
            **REBALANCE,
        },
        "steady_state": steady_state_experiment(n_requests, seed),
        "frontier": frontier_experiment(n_requests, seed, mean_gaps),
        "reconfiguration": reconfiguration_experiment(n_requests, seed),
    }


def print_report(payload):
    steady = payload["steady_state"]
    print()
    print(
        f"steady-state cycles/request, K={SHARDS} shards, "
        f"Zipf {SKEW} {'+'.join(KINDS)} (closed loop)"
    )
    rows = [
        [
            name,
            steady[name]["cycles_per_request"],
            steady[name]["migrations"],
            steady[name]["parked"],
        ]
        for name in ("static",) + tuple(PACING_STRATEGIES)
    ]
    print(format_table(["arm", "cyc/req", "bin moves", "parked"], rows))
    print(
        f"best vs BENCH_shard baseline {BASELINE_CPR}: "
        f"{steady['best_cycles_per_request']} "
        f"({steady['improvement_pct']}% better)"
    )
    print()
    print("rate x latency frontier (open loop)")
    headers = ["arm", "gap", "offered", "achieved", "p50", "p99"]
    rows = []
    for name, points in payload["frontier"].items():
        for p in points:
            rows.append(
                [
                    name,
                    f"{p['mean_gap']:g}",
                    f"{p['offered_rate']:.5f}",
                    f"{p['achieved_rate']:.5f}",
                    p["p50_latency"],
                    p["p99_latency"],
                ]
            )
    print(format_table(headers, rows))
    print()
    print("reconfiguration p99 spike (active vs quiet batches)")
    rows = [
        [
            arm,
            cell["active_batches"],
            cell["active_p99_cyc_per_lane"],
            cell["quiet_median_cyc_per_lane"],
            cell["p99_spike_ratio"],
        ]
        for arm, cell in payload["reconfiguration"].items()
    ]
    print(
        format_table(
            ["strategy", "active", "p99 active", "median quiet", "spike"],
            rows,
        )
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for the CI smoke job")
    parser.add_argument("--json", type=Path, default=None,
                        help=f"result path (default {DEFAULT_JSON.name}; "
                             "required with --smoke)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--requests", type=int, default=None,
                        help="override workload size")
    args = parser.parse_args(argv)
    if args.smoke and args.json is None:
        parser.error(f"--smoke needs --json PATH: smoke results never "
                     f"overwrite the committed {DEFAULT_JSON.name}")

    n_requests = args.requests or (400 if args.smoke else 2000)
    mean_gaps = MEAN_GAPS[1::2] if args.smoke else MEAN_GAPS
    payload = build_payload(n_requests, args.seed, mean_gaps)
    print_report(payload)
    path = write_json(args.json or DEFAULT_JSON, payload)
    print(f"\nwrote {path}")

    if args.smoke:
        # Smoke sizes don't reach steady state; only the envelope and
        # the strategy coverage are asserted.
        failures = [
            f for f in check(payload) if "improved only" not in f
        ]
    else:
        failures = check(payload)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


# ----------------------------------------------------------------------
# pytest-benchmark wrappers (full sizes; also refresh BENCH_migration.json)
# ----------------------------------------------------------------------
def test_migration_frontier(benchmark):
    payload = benchmark.pedantic(
        build_payload, args=(2000, 11), rounds=1, iterations=1
    )
    print_report(payload)
    write_json(DEFAULT_JSON, payload)
    benchmark.extra_info["improvement_pct"] = (
        payload["steady_state"]["improvement_pct"]
    )
    assert check(payload) == []


if __name__ == "__main__":
    sys.exit(main())
