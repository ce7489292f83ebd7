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
    Run the same workload through the real multi-process serving layer
    (:mod:`repro.serve`): one shared-memory shard process per worker,
    asyncio admission and batching, measured wall-clock latency,
    oracle-checked end state.  It shares every ``stream`` option but
    the four of each clock and ``stream``'s ``--no-carryover`` (it
    adds ``--n-cells``), with its own defaults.
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


def _run_options(p: argparse.ArgumentParser, **defaults) -> None:
    """Add the options ``stream`` and ``serve`` share, then that
    subcommand's ``defaults``.  One call per subparser: argparse
    ``parents=`` would share the action objects, so one subcommand's
    ``set_defaults`` would change the other's."""
    from ..backend import registered_backends
    from ..runtime.batcher import BATCH_POLICIES
    from ..shard.migration import PACING_STRATEGIES
    from ..shard.partition import PARTITIONERS
    from ..shard.rebalance import REBALANCE_OBJECTIVES

    add = p.add_argument
    add("--requests", type=positive_int,
        help="number of requests in the workload (default %(default)s)")
    add("--policy", choices=BATCH_POLICIES,
        help="batch-sizing policy (default %(default)s)")
    add("--batch-size", type=positive_int,
        help="fixed/initial batch size (default %(default)s)")
    add("--skew", type=skew,
        help=f"Zipf key skew (0 = uniform, max {MAX_SKEW}; default "
             f"%(default)s)")
    add("--kinds",
        help="comma-separated request kinds; registered kinds are listed "
             "by `repro info` (uniform mix; default: hash on stream, the "
             "registry's stream mix on serve)")
    add("--mix", default=None, metavar="KIND=W,...",
        help="weighted workload mix, e.g. hash=3,xfer=1 (overrides "
             "--kinds; weights need not sum to 1)")
    add("--backend", choices=registered_backends(),
        help="execution backend: sim = calibrated S-810 cycle model, "
             "native = raw NumPy wall-clock (see docs/backends.md; "
             "default %(default)s)")
    add("--queue-capacity", type=positive_int, help="default %(default)s")
    add("--admission", choices=("block", "reject"), default="block",
        help="full-queue policy")
    add("--table-size", type=positive_int, default=509)
    add("--key-space", type=positive_int, default=4096)
    add("--partitioner", choices=tuple(PARTITIONERS),
        default=None,  # resolved to hash; None flags explicit use
        help="initial shard assignment (needs more than one shard; "
             "default hash)")
    add("--rebalance", action="store_true",
        help="migrate hot routing bins between micro-batches "
             "(Megaphone-style; needs more than one shard)")
    add("--bins", type=positive_int, default=None,
        help="routing bins N per domain (needs more than one shard; "
             "default 64 per shard, must be >= shards)")
    add("--migration", choices=PACING_STRATEGIES,
        default=None,  # resolved to all-at-once
        help="bin handoff pacing (needs --rebalance; default all-at-once)")
    add("--rebalance-objective", choices=REBALANCE_OBJECTIVES, default=None,
        help="migration planning objective (needs --rebalance; default "
             "imbalance)")
    add("--tenants", default=None, metavar="NAME=SHARE[:DIST],...",
        help="tag requests with tenant classes, e.g. "
             "A=0.7:zipf1.2,B=0.3:uniform (DIST defaults to uniform; "
             "replaces the global --skew draw)")
    add("--slo", default=None, metavar="NAME=BUDGET,...",
        help="per-tenant latency budget (needs --tenants): bare simulated "
             "cycles for stream, a ms/s suffix for serve, e.g. A=50ms")
    add("--qos", action="store_true",
        help="SLO-aware admission: weighted per-tenant depth caps + "
             "weighted-fair dequeue + deadline-aware batch release "
             "(needs --tenants)")
    add("--qos-burst", type=positive_float, default=1.0,
        help="per-tenant depth cap multiplier under --qos (cap = burst * "
             "capacity * share; < 1 reserves headroom for light tenants)")
    add("--print-batches", type=positive_int, default=20,
        help="per-batch rows to print (subsampled)")
    add("--trace", action="store_true",
        help="record request lifecycle spans and print the per-stage "
             "latency decomposition (stream: sim backend only, and an "
             "unsharded run adds the instruction mix)")
    add("--trace-out", default=None, metavar="PATH",
        help="write the lifecycle trace as JSONL to PATH (render with "
             "`repro trace PATH`; implies the lifecycle recorder)")
    add("--seed", type=int, default=0)
    p.set_defaults(**defaults)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    fig = sub.add_parser("figures", help=_HELP["figures"])
    fig.add_argument("names", nargs="*", default=[])
    fig.add_argument("--seed", type=int, default=0)

    sub.add_parser("demo", help=_HELP["demo"])
    sub.add_parser("info", help=_HELP["info"])

    stream = sub.add_parser("stream", help=_HELP["stream"])
    _run_options(stream, requests=5000, skew=0.0,
                 kinds="hash",  # no-kind-lint
                 backend="sim", policy="adaptive", batch_size=256,
                 queue_capacity=4096)
    stream.add_argument("--shards", type=positive_int, default=1,
                        help="partition the address space across K workers "
                             "(owner-computes; batch cost = max over shards)")
    stream.add_argument("--closed-loop", action="store_true",
                        help="all requests ready at t=0 (throughput mode)")
    stream.add_argument("--mean-gap", type=positive_float, default=40.0,
                        help="open loop: mean inter-arrival gap in cycles")
    stream.add_argument("--deadline", type=positive_float, default=None,
                        help="longest the oldest queued request waits for "
                             "a fuller batch, in simulated cycles (default: "
                             "until the batch fills; sim backend only)")
    stream.add_argument("--no-carryover", dest="carryover",
                        action="store_false",
                        help="retry filtered lanes in-batch (paper §3.2) "
                             "instead of carrying them to the next batch")

    serve = sub.add_parser("serve", help=_HELP["serve"])
    _run_options(serve, requests=2000, skew=1.2, kinds=None,
                 backend="native", policy="fixed", batch_size=512,
                 queue_capacity=8192)
    serve.add_argument("--workers", dest="shards", metavar="WORKERS",
                       type=positive_int, default=2,
                       help="shard worker processes (one shared-memory "
                            "arena each)")
    serve.add_argument("--rate", type=positive_float, default=None,
                       help="open-loop offered load in requests/second "
                            "(default: closed loop, everything ready at t=0)")
    serve.add_argument("--duration", type=positive_float, default=None,
                       help="stop admitting after S seconds, drain, and "
                            "print the partial summary")
    serve.add_argument("--linger-ms", type=nonneg_float, default=2.0,
                       help="max head-of-line wait for a fuller batch")
    serve.add_argument("--n-cells", type=positive_int, default=64,
                       help="shared cells the list and xfer kinds update")

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
