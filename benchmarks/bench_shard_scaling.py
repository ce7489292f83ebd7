"""Sharded FOL engine: speedup vs. shard count and hot-shard recovery.

Two claims under test (ISSUE 2 acceptance criteria):

1. **Scaling** — with a balanced (hash/interleaved) partition and
   uniform keys, cycles/request improves monotonically from K=1 to
   K=4: each shard runs its FOL rounds over ~1/K of the batch and the
   batch's cost is the max over the concurrent shards, so per-request
   cost falls until vector start-up and the residual hot addresses
   dominate.  Higher skew flattens the curve — FOL serialises a hot
   address's conflicts on whichever shard owns it (Theorem 5 is per
   address, sharding cannot parallelise *within* one address).

2. **Rebalancing** — a contiguous range partition at Zipf skew 1.2
   concentrates the hot ranks on shard 0 and throughput decays toward
   the single-shard level; Megaphone-style live migration
   (``rebalance.py``) must recover at least half the throughput lost
   relative to the balanced partition.

Dual interface: a plain script and pytest-benchmark wrappers.  Full
runs of both write machine-readable results to ``BENCH_shard.json`` at
the repo root; a smoke run needs an explicit ``--json`` path::

    python benchmarks/bench_shard_scaling.py [--json PATH]
    python benchmarks/bench_shard_scaling.py --smoke --json PATH
    pytest benchmarks/bench_shard_scaling.py --benchmark-only -s
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.bench.reporting import format_table, write_json
from repro.runtime import StreamService, closed_loop_workload, make_batcher
from repro.shard import ShardCoordinator

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO_ROOT / "BENCH_shard.json"

SKEWS = (0.0, 0.8, 1.2)
SHARD_COUNTS = (1, 2, 4, 8)
TABLE_SIZE = 509
KEY_SPACE = 2048
N_CELLS = 256
BATCH_SIZE = 128
KINDS = ("hash", "list")


def run_sharded(
    *, n_requests, skew, shards, partitioner, rebalance, seed, kinds=KINDS
):
    """One closed-loop sharded run; returns (cycles/request, extras)."""
    rng = np.random.default_rng(seed)
    requests = closed_loop_workload(
        rng, n_requests, kinds=kinds, skew=skew,
        key_space=KEY_SPACE, n_cells=N_CELLS,
    )
    coordinator = ShardCoordinator.for_workload(
        requests,
        shards=shards,
        partitioner=partitioner,
        rebalance=rebalance,
        table_size=TABLE_SIZE,
        n_cells=N_CELLS,
        key_space=KEY_SPACE,
    )
    service = StreamService(
        coordinator, batcher=make_batcher("fixed", batch_size=BATCH_SIZE)
    )
    summary = service.run(requests).summary()
    assert summary["completed"] == n_requests
    cpr = service.now / n_requests
    return round(cpr, 2), {
        "migrations": coordinator.total_migrations,
        "cross_units": coordinator.total_cross,
        "batches": summary["batches"],
        "mean_shard_imbalance": round(
            float(summary.get("mean_shard_imbalance", 1.0)), 3
        ),
    }


def scaling_sweep(n_requests, seed):
    """cycles/request by skew x K, balanced (hash) partition."""
    out = {}
    for skew in SKEWS:
        for k in SHARD_COUNTS:
            cpr, _ = run_sharded(
                n_requests=n_requests, skew=skew, shards=k,
                partitioner="hash", rebalance=False, seed=seed,
            )
            out[f"skew{skew}_k{k}"] = cpr
    return out


def sort_sweep(n_requests, seed):
    """cycles/request for the registry-added "sort" kind, K=1..8: the
    kind rides the sharded engine purely through its spec module, so
    this sweep doubles as an extensibility regression check."""
    out = {}
    for k in SHARD_COUNTS:
        cpr, _ = run_sharded(
            n_requests=n_requests, skew=0.8, shards=k,
            partitioner="hash", rebalance=False, seed=seed,
            kinds=("sort",),
        )
        out[f"sort_k{k}"] = cpr
    return out


def rebalance_experiment(n_requests, seed, shards=4):
    """The hot-shard cell: balanced vs. hot (range) vs. hot+rebalance
    at Zipf 1.2, compared on throughput (requests per cycle)."""
    cells = {}
    for name, partitioner, rebalance in (
        ("balanced", "hash", False),
        ("hot", "range", False),
        ("rebalanced", "range", True),
    ):
        cpr, extras = run_sharded(
            n_requests=n_requests, skew=1.2, shards=shards,
            partitioner=partitioner, rebalance=rebalance, seed=seed,
        )
        cells[name] = {"cycles_per_request": cpr, **extras}
    thr = {name: 1.0 / c["cycles_per_request"] for name, c in cells.items()}
    lost = thr["balanced"] - thr["hot"]
    recovered = thr["rebalanced"] - thr["hot"]
    cells["throughput_lost"] = round(lost, 6)
    cells["throughput_recovered"] = round(recovered, 6)
    # The recovered share of the hot-vs-balanced throughput gap, unclamped:
    # live migration can beat the balanced partition outright (isolating
    # hot bins lowers the max-over-shards cost), so it may exceed 1.  The
    # three arms' cycles/request above are the direct comparison.
    cells["recovered_ratio_raw"] = (
        round(recovered / lost, 3) if lost > 0 else None
    )
    cells["shards"] = shards
    return cells


def check(payload):
    """The acceptance assertions; returns a list of failure strings."""
    failures = []
    scaling = payload["scaling"]
    k14 = [scaling["skew0.0_k1"], scaling["skew0.0_k2"], scaling["skew0.0_k4"]]
    if not (k14[0] > k14[1] > k14[2]):
        failures.append(
            f"cycles/request not monotone K=1->4 at uniform keys: {k14}"
        )
    ratio = payload["rebalance"]["recovered_ratio_raw"]
    if ratio is None:
        failures.append("range partition lost no throughput at skew 1.2")
    elif ratio < 0.5:
        failures.append(
            f"rebalancing recovered only {ratio:.0%} of the hot-shard loss"
        )
    return failures


def build_payload(n_requests, seed):
    return {
        "bench": "shard_scaling",
        "config": {
            "n_requests": n_requests,
            "seed": seed,
            "kinds": list(KINDS),
            "table_size": TABLE_SIZE,
            "key_space": KEY_SPACE,
            "n_cells": N_CELLS,
            "batch_size": BATCH_SIZE,
            "skews": list(SKEWS),
            "shard_counts": list(SHARD_COUNTS),
        },
        "scaling": scaling_sweep(n_requests, seed),
        "sort": sort_sweep(n_requests, seed),
        "rebalance": rebalance_experiment(n_requests, seed),
    }


def print_report(payload):
    scaling = payload["scaling"]
    rows = [
        [f"skew={skew}"] + [scaling[f"skew{skew}_k{k}"] for k in SHARD_COUNTS]
        for skew in SKEWS
    ]
    print()
    print(f"cycles/request vs shard count "
          f"({payload['config']['n_requests']} hash+list requests, "
          f"balanced partition, closed loop)")
    print(format_table(["workload"] + [f"K={k}" for k in SHARD_COUNTS], rows))
    sort = payload["sort"]
    print()
    print("cycles/request, sort-only workload (skew 0.8)")
    print(format_table(
        ["workload"] + [f"K={k}" for k in SHARD_COUNTS],
        [["sort"] + [sort[f"sort_k{k}"] for k in SHARD_COUNTS]],
    ))
    reb = payload["rebalance"]
    print()
    print(f"hot-shard recovery at Zipf 1.2, K={reb['shards']} "
          f"(range partition concentrates hot ranks on shard 0)")
    rows = [
        [name, reb[name]["cycles_per_request"], reb[name]["migrations"]]
        for name in ("balanced", "hot", "rebalanced")
    ]
    print(format_table(["partition", "cyc/req", "migrations"], rows))
    print(f"recovered share of lost throughput (raw ratio): "
          f"{reb['recovered_ratio_raw']}")


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

    n_requests = args.requests or (300 if args.smoke else 2000)
    payload = build_payload(n_requests, args.seed)
    print_report(payload)
    path = write_json(args.json or DEFAULT_JSON, payload)
    print(f"\nwrote {path}")

    failures = check(payload)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


# ----------------------------------------------------------------------
# pytest-benchmark wrappers (full sizes; also refresh BENCH_shard.json)
# ----------------------------------------------------------------------
def test_shard_scaling_and_rebalance(benchmark):
    payload = benchmark.pedantic(
        build_payload, args=(2000, 11), rounds=1, iterations=1
    )
    print_report(payload)
    write_json(DEFAULT_JSON, payload)
    for key, value in payload["scaling"].items():
        benchmark.extra_info[key] = value
    benchmark.extra_info["recovered_ratio_raw"] = (
        payload["rebalance"]["recovered_ratio_raw"]
    )
    assert check(payload) == []


if __name__ == "__main__":
    sys.exit(main())
