"""Command-line entry point: ``python -m repro``.

Subcommands
-----------
``figures [names...]``
    Regenerate the paper's tables/figures (delegates to
    :mod:`repro.bench.figures`; default: all).
``demo``
    One-screen tour: FOL1 on a shared index vector, the theorem checks,
    and a chained multiple-hashing run with its cycle breakdown.
``stream``
    Run the streaming micro-batch FOL service (:mod:`repro.runtime`)
    over a generated workload and print per-batch metrics.
``serve``
    Run the real multi-process serving layer (:mod:`repro.serve`): one
    shared-memory shard process per worker, asyncio admission and
    batching, measured wall-clock latency, oracle-checked end state.
``audit``
    Fuzz the FOL pipelines under the runtime invariant auditor and the
    scalar differential oracles (:mod:`repro.audit`); exits non-zero
    with a shrunk counterexample on any failure.
``trace``
    Render a lifecycle trace file (``--trace-out`` JSONL from a stream
    or serve run): stage histograms, per-tenant breakdown, slowest
    requests (:mod:`repro.obs.report`).
``info``
    Print the library version, the calibrated cost model, and the
    experiment registry.

An unknown or missing subcommand prints help and exits with status 2.
"""

from __future__ import annotations

import argparse

from .validators import (
    MAX_SKEW,
    nonneg_float,
    positive_float,
    positive_int,
    skew,
)

#: (name, one-line help) per subcommand — single source for the parser
#: and the ``repro info`` listing.
SUBCOMMANDS = (
    ("figures", "regenerate paper tables/figures"),
    ("demo", "one-screen FOL tour"),
    ("info", "version, cost model, kinds, backends, subcommands"),
    ("stream", "run the streaming micro-batch FOL service (simulated clock)"),
    ("serve", "run the multi-process serving layer (measured wall-clock)"),
    ("audit", "fuzz the FOL pipelines under invariant auditing"),
    ("trace", "render a lifecycle trace JSONL (stages, tenants, slowest)"),
)
_HELP = dict(SUBCOMMANDS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    fig = sub.add_parser("figures", help=_HELP["figures"])
    fig.add_argument("names", nargs="*", default=[])
    fig.add_argument("--seed", type=int, default=0)

    sub.add_parser("demo", help=_HELP["demo"])
    sub.add_parser("info", help=_HELP["info"])

    stream = sub.add_parser("stream", help=_HELP["stream"])
    stream.add_argument("--requests", type=positive_int, default=5000,
                        help="number of requests in the workload")
    from ..runtime.batcher import BATCH_POLICIES

    stream.add_argument("--policy", choices=BATCH_POLICIES,
                        default="adaptive", help="batch-sizing policy")
    stream.add_argument("--batch-size", type=positive_int, default=256,
                        help="fixed/initial batch size")
    stream.add_argument("--deadline", type=positive_float, default=None,
                        help="longest the oldest queued request waits for "
                             "a fuller batch, in simulated cycles (default: "
                             "until the batch fills; sim backend only)")
    stream.add_argument("--skew", type=skew, default=0.0,
                        help=f"Zipf key skew (0 = uniform, max {MAX_SKEW})")
    stream.add_argument("--kinds", default="hash",  # no-kind-lint
                        help="comma-separated request kinds; registered kinds "
                             "are listed by `repro info` (uniform mix)")
    stream.add_argument("--mix", default=None, metavar="KIND=W,...",
                        help="weighted workload mix, e.g. hash=3,xfer=1 "
                             "(overrides --kinds; weights need not sum to 1)")
    from ..backend import registered_backends

    stream.add_argument("--backend", choices=registered_backends(),
                        default="sim",
                        help="execution backend: sim = calibrated S-810 "
                             "cycle model, native = raw NumPy wall-clock "
                             "(see docs/backends.md)")
    stream.add_argument("--queue-capacity", type=positive_int, default=4096)
    stream.add_argument("--admission", choices=("block", "reject"),
                        default="block", help="full-queue policy")
    stream.add_argument("--no-carryover", action="store_true",
                        help="retry filtered lanes in-batch (paper §3.2) "
                             "instead of carrying them to the next batch")
    stream.add_argument("--closed-loop", action="store_true",
                        help="all requests ready at t=0 (throughput mode)")
    stream.add_argument("--mean-gap", type=positive_float, default=40.0,
                        help="open loop: mean inter-arrival gap in cycles")
    stream.add_argument("--table-size", type=positive_int, default=509)
    stream.add_argument("--key-space", type=positive_int, default=4096)
    stream.add_argument("--shards", type=positive_int, default=1,
                        help="partition the address space across K workers "
                             "(owner-computes; batch cost = max over shards)")
    from ..shard.migration import PACING_STRATEGIES
    from ..shard.partition import PARTITIONERS
    from ..shard.rebalance import REBALANCE_OBJECTIVES

    stream.add_argument("--partitioner", choices=tuple(PARTITIONERS),
                        default=None,  # resolved to hash; None flags explicit use
                        help="initial shard assignment (needs --shards > 1; "
                             "default hash)")
    stream.add_argument("--rebalance", action="store_true",
                        help="migrate hot routing bins between micro-batches "
                             "(Megaphone-style; needs --shards > 1)")
    stream.add_argument("--bins", type=positive_int, default=None,
                        help="routing bins N per domain (needs --shards > 1; "
                             "default 64 per shard, must be >= shards)")
    stream.add_argument("--migration", choices=PACING_STRATEGIES,
                        default=None,  # resolved to all-at-once
                        help="bin handoff pacing (needs --rebalance; "
                             "default all-at-once)")
    stream.add_argument("--tenants", default=None, metavar="NAME=SHARE[:DIST],...",
                        help="tag requests with tenant classes, e.g. "
                             "A=0.7:zipf1.2,B=0.3:uniform (DIST defaults to "
                             "uniform; replaces the global --skew draw)")
    stream.add_argument("--slo", default=None, metavar="NAME=CYCLES,...",
                        help="per-tenant latency budget in simulated cycles "
                             "(needs --tenants)")
    stream.add_argument("--qos", action="store_true",
                        help="SLO-aware admission: weighted per-tenant depth "
                             "caps + weighted-fair dequeue + deadline-aware "
                             "batch release (needs --tenants)")
    stream.add_argument("--qos-burst", type=positive_float, default=1.0,
                        help="per-tenant depth cap multiplier under --qos "
                             "(cap = burst * capacity * share; < 1 reserves "
                             "headroom for light tenants)")
    stream.add_argument("--rebalance-objective", choices=REBALANCE_OBJECTIVES,
                        default=None,
                        help="migration planning objective (needs --rebalance; "
                             "default imbalance)")
    stream.add_argument("--print-batches", type=positive_int, default=20,
                        help="per-batch rows to print (subsampled)")
    stream.add_argument("--trace", action="store_true",
                        help="record and print the instruction mix and the "
                             "per-stage latency decomposition (sim backend)")
    stream.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write the lifecycle trace as JSONL to PATH "
                             "(render with `repro trace PATH`; implies the "
                             "lifecycle recorder, sim backend only)")
    stream.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser("serve", help=_HELP["serve"])
    serve.add_argument("--workers", type=positive_int, default=2,
                       help="shard worker processes (one shared-memory "
                            "arena each)")
    serve.add_argument("--backend", choices=registered_backends(),
                       default="native",
                       help="execution backend inside each worker process "
                            "(native = raw NumPy, the wall-clock path)")
    serve.add_argument("--requests", type=positive_int, default=2000,
                       help="workload size (pre-generated, replayed in "
                            "real time)")
    serve.add_argument("--rate", type=positive_float, default=None,
                       help="open-loop offered load in requests/second "
                            "(default: closed loop, everything ready at t=0)")
    serve.add_argument("--duration", type=positive_float, default=None,
                       help="stop admitting after S seconds, drain, and "
                            "print the partial summary")
    serve.add_argument("--skew", type=skew, default=1.2,
                       help=f"Zipf key skew (max {MAX_SKEW})")
    serve.add_argument("--kinds", default=None,
                       help="comma-separated request kinds (default: the "
                            "registry's stream mix; see `repro info`)")
    serve.add_argument("--mix", default=None, metavar="KIND=W,...",
                       help="weighted workload mix (overrides --kinds)")
    serve.add_argument("--policy", choices=BATCH_POLICIES,
                       default="fixed", help="batch-sizing policy")
    serve.add_argument("--batch-size", type=positive_int, default=512,
                       help="fixed/initial micro-batch target")
    serve.add_argument("--linger-ms", type=nonneg_float, default=2.0,
                       help="max head-of-line wait for a fuller batch")
    serve.add_argument("--queue-capacity", type=positive_int, default=8192)
    serve.add_argument("--admission", choices=("block", "reject"),
                       default="block", help="full-queue policy")
    serve.add_argument("--table-size", type=positive_int, default=509)
    serve.add_argument("--key-space", type=positive_int, default=4096)
    serve.add_argument("--n-cells", type=positive_int, default=64)
    serve.add_argument("--partitioner", choices=tuple(PARTITIONERS),
                       default="hash",  # partitioner name  # no-kind-lint
                       help="initial shard assignment")
    serve.add_argument("--rebalance", action="store_true",
                       help="migrate hot routing bins between exchanges "
                            "(live, across the worker processes)")
    serve.add_argument("--bins", type=positive_int, default=None,
                       help="routing bins N per domain (default 64 per "
                            "worker, must be >= workers)")
    serve.add_argument("--migration", choices=PACING_STRATEGIES,
                       default=None,  # resolved to all-at-once
                       help="bin handoff pacing (needs --rebalance; "
                            "default all-at-once)")
    serve.add_argument("--tenants", default=None, metavar="NAME=SHARE[:DIST],...",
                       help="tag requests with tenant classes, e.g. "
                            "A=0.7:zipf1.2,B=0.3:uniform (DIST defaults to "
                            "uniform; replaces the global --skew draw)")
    serve.add_argument("--slo", default=None, metavar="NAME=BUDGET,...",
                       help="per-tenant latency budget with unit suffix, e.g. "
                            "A=50ms,B=0.2s (needs --tenants)")
    serve.add_argument("--qos", action="store_true",
                       help="SLO-aware admission: weighted per-tenant depth "
                            "caps + weighted-fair dequeue + deadline-aware "
                            "batch release (needs --tenants)")
    serve.add_argument("--qos-burst", type=positive_float, default=1.0,
                       help="per-tenant depth cap multiplier under --qos "
                            "(cap = burst * capacity * share)")
    serve.add_argument("--rebalance-objective", choices=REBALANCE_OBJECTIVES,
                       default=None,
                       help="migration planning objective (needs --rebalance; "
                            "default imbalance)")
    serve.add_argument("--print-batches", type=positive_int, default=20,
                       help="exchange rows to print (subsampled)")
    serve.add_argument("--trace", action="store_true",
                       help="record request lifecycle spans and print the "
                            "per-stage latency decomposition (wall clock)")
    serve.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write the lifecycle trace as JSONL to PATH "
                            "(render with `repro trace PATH`; implies "
                            "--trace)")
    serve.add_argument("--seed", type=int, default=0)

    audit = sub.add_parser("audit", help=_HELP["audit"])
    audit.add_argument("--suite", choices=("core", "stream", "shard", "all"),
                       default="all", help="which pipeline family to fuzz")
    audit.add_argument("--seed", type=int, default=0,
                       help="base seed (every case derives from it)")
    audit.add_argument("--cases", type=positive_int, default=100,
                       help="generated cases per suite")
    audit.add_argument("--max-lanes", type=positive_int, default=96,
                       help="largest generated input size")
    audit.add_argument("--artifact", default=None, metavar="PATH",
                       help="write a JSON report (counterexamples included) "
                            "to PATH on failure")

    trace = sub.add_parser("trace", help=_HELP["trace"])
    trace.add_argument("file", metavar="FILE",
                       help="a lifecycle trace JSONL written by "
                            "`repro stream/serve --trace-out`")
    trace.add_argument("--top", type=positive_int, default=10,
                       help="slowest requests to list")
    trace.add_argument("--bins", type=positive_int, default=8,
                       help="histogram buckets per stage")
    return parser
