"""Native backend: real wall-clock throughput vs the cycle simulator.

The ``native`` backend exists to answer "how fast does the paper's
method actually run on this machine?" — it executes the same FOL plans
as the ``sim`` backend with all cycle accounting compiled out and the
carryover round fused into one closure per plan shape.  Two claims
under test:

1. **Speed** — for every workload kind (and the full mix), native
   requests/sec beats the calibrated simulator's wall-clock
   requests/sec.
2. **Parity** — every native run ends with a machine-state fingerprint
   bit-identical to the sim run of the same seeded workload (speed
   never buys a different answer).

Each workload records, per arm, the best rate over the repeats and the
median and interquartile range beside it; ``meta`` stamps the commit,
CPU count and Python/NumPy versions the times were measured under.

Dual interface: a plain script (CI smoke job) and a pytest-benchmark
wrapper.  Full runs of both write machine-readable results to
``BENCH_native.json`` at the repo root; a smoke run needs an explicit
``--json`` path::

    python benchmarks/bench_native_backend.py [--json PATH]
    python benchmarks/bench_native_backend.py --smoke --json PATH
    pytest benchmarks/bench_native_backend.py --benchmark-only -s
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from repro.backend import get_backend
from repro.bench.reporting import (
    format_table,
    spread,
    wall_clock_meta,
    write_json,
)
from repro.runtime import StreamService, closed_loop_workload, make_batcher

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO_ROOT / "BENCH_native.json"

KINDS = ("hash", "bst", "list", "xfer", "sort")
TABLE_SIZE = 509
KEY_SPACE = 2048
N_CELLS = 256
BATCH_SIZE = 128
SKEW = 0.8


#: The execution arms, by registered backend name.
ARMS = ("sim", "native")


def run_once(kinds, backend, *, n_requests, seed):
    """One timed closed-loop run; returns (seconds, state fingerprint)."""
    rng = np.random.default_rng(seed)
    requests = closed_loop_workload(
        rng, n_requests, kinds=kinds, skew=SKEW,
        key_space=KEY_SPACE, n_cells=N_CELLS,
    )
    service = StreamService.for_workload(
        requests,
        batcher=make_batcher("fixed", batch_size=BATCH_SIZE),
        table_size=TABLE_SIZE,
        n_cells=N_CELLS,
        backend=backend,
    )
    t0 = time.perf_counter()
    summary = service.run(requests).summary()
    elapsed = time.perf_counter() - t0
    assert summary["completed"] == n_requests
    return elapsed, service.executor.state_fingerprint()


def build_payload(n_requests, seed, repeats):
    workloads = [(kind, (kind,)) for kind in KINDS] + [("mix", KINDS)]
    results = {}
    for name, kinds in workloads:
        backends = {label: get_backend(label) for label in ARMS}
        rates = {label: [] for label in ARMS}
        fingerprints = set()
        # The arms alternate within each repeat, so a burst of load from
        # elsewhere on the host slows both arms rather than all of one
        # arm's best-of-N.
        for _ in range(repeats):
            for label in ARMS:
                elapsed, fp = run_once(
                    kinds, backends[label], n_requests=n_requests, seed=seed
                )
                rates[label].append(n_requests / elapsed)
                fingerprints.add(fp)
        cells = {}
        for label in ARMS:
            key = f"{label}_req_per_sec"
            cells[key] = round(max(rates[label]), 1)
            for stat, value in spread(rates[label], digits=1).items():
                cells[f"{key}_{stat}"] = value
        cells["state_match"] = len(fingerprints) == 1
        cells["speedup_vs_sim"] = round(
            cells["native_req_per_sec"] / cells["sim_req_per_sec"], 2
        )
        results[name] = cells
    return {
        "bench": "native_backend",
        "config": {
            "n_requests": n_requests,
            "seed": seed,
            "repeats": repeats,
            "kinds": list(KINDS),
            "skew": SKEW,
            "table_size": TABLE_SIZE,
            "key_space": KEY_SPACE,
            "n_cells": N_CELLS,
            "batch_size": BATCH_SIZE,
        },
        "workloads": results,
        "meta": wall_clock_meta(),
    }


def check(payload):
    """The acceptance assertions; returns a list of failure strings."""
    failures = []
    for name, cells in payload["workloads"].items():
        if not cells["state_match"]:
            failures.append(f"{name}: end states diverge across backends")
        if cells["speedup_vs_sim"] <= 1.0:
            failures.append(
                f"{name}: native ({cells['native_req_per_sec']} req/s) did "
                f"not beat sim ({cells['sim_req_per_sec']} req/s)"
            )
    return failures


def print_report(payload):
    rows = [
        [
            name,
            cells["sim_req_per_sec"],
            cells["native_req_per_sec"],
            f"{cells['speedup_vs_sim']}x",
            "yes" if cells["state_match"] else "NO",
        ]
        for name, cells in payload["workloads"].items()
    ]
    print()
    print(f"wall-clock requests/sec, {payload['config']['n_requests']} "
          f"closed-loop requests per workload (best of "
          f"{payload['config']['repeats']}; medians and IQRs in the JSON)")
    print(format_table(
        ["workload", "sim", "native", "native/sim", "states match"],
        rows,
    ))


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

    n_requests = args.requests or (300 if args.smoke else 3000)
    repeats = 2 if args.smoke else 5
    payload = build_payload(n_requests, args.seed, repeats)
    print_report(payload)
    path = write_json(args.json or DEFAULT_JSON, payload)
    print(f"\nwrote {path}")

    failures = check(payload)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


# ----------------------------------------------------------------------
# pytest-benchmark wrapper (full sizes; also refreshes BENCH_native.json)
# ----------------------------------------------------------------------
def test_native_backend_throughput(benchmark):
    payload = benchmark.pedantic(
        build_payload, args=(3000, 11, 5), rounds=1, iterations=1
    )
    print_report(payload)
    write_json(DEFAULT_JSON, payload)
    for name, cells in payload["workloads"].items():
        benchmark.extra_info[f"{name}_speedup_vs_sim"] = cells["speedup_vs_sim"]
    assert check(payload) == []


if __name__ == "__main__":
    sys.exit(main())
