"""``repro stream`` and ``repro serve`` — one run, two clocks.

The two subcommands are two spellings of one run: this module checks
the flags, turns each clock's own options into the runner's (a mean
gap, a linger and an SLO unit in that clock's unit), hands them to
:func:`repro.serve.run_workload` and prints its report.  ``stream``
drives the simulated cycles, ``serve`` the worker processes.
"""

from __future__ import annotations

import sys

from .validators import check_run_flags, parse_kinds_or_mix

#: What the report words differently per clock: the tenant table's
#: latency unit, the stage table's clock, and the note on an early stop.
_WORDS = {
    "stream": ("cycles", "cycles", "interrupted — partial summary"),
    "serve": ("ms", "wall clock", "stopped early — drained partial summary"),
}

#: Flags whose values the runner takes unchanged, under the same name.
#: ``carryover`` (``--no-carryover``) is ``stream``'s and ``n_cells``
#: ``serve``'s; the other subcommand runs the runner's default.
_PASSED = (
    "shards", "backend", "requests", "skew", "policy", "batch_size",
    "queue_capacity", "admission", "table_size", "n_cells", "key_space",
    "carryover", "seed", "bins", "rebalance", "qos", "qos_burst", "trace",
    "trace_out",
)


def run(args) -> int:
    from ..serve import run_workload

    options = _options(args)
    return _print_report(args, options, run_workload(**options))


def _options(args) -> dict:
    """Check the flags and translate them into
    :func:`~repro.serve.run_workload` keywords."""
    from ..runtime import apply_slos, parse_slo, parse_tenants

    check_run_flags(args)
    stream = args.command == "stream"
    tenants = None
    if args.tenants is not None:
        tenants = parse_tenants(args.tenants)
        if args.slo is not None:
            unit = "cycles" if stream else "seconds"
            tenants = apply_slos(tenants, parse_slo(args.slo, unit=unit))
    kinds, weights = parse_kinds_or_mix(args)
    if stream:
        # --mean-gap passes exactly: a gap derived from a rate would
        # round, and shift every open-loop arrival.
        clock = dict(mean_gap=None if args.closed_loop else args.mean_gap,
                     linger=args.deadline)
    else:
        clock = dict(mean_gap=None if args.rate is None else 1.0 / args.rate,
                     linger=args.linger_ms / 1e3, duration=args.duration)
    return dict(
        clock,
        **{name: getattr(args, name) for name in _PASSED
           if hasattr(args, name)},
        driver=args.command,
        kinds=kinds,
        weights=weights,
        tenants=tenants,
        partitioner=args.partitioner or "hash",  # no-kind-lint
        migration=args.migration or "all-at-once",
        rebalance_objective=args.rebalance_objective or "imbalance",
    )


def _print_report(args, o, report) -> int:
    """Print ``report`` of the run ``o`` (the runner's keywords); the
    exit status: 1 on an oracle divergence, 130 when stopped by a
    signal, else 0."""
    m = report.metrics
    stream = args.command == "stream"
    latency_unit, stage_clock, stop_note = _WORDS[args.command]
    if o["weights"] is not None:
        mix = ",".join(f"{k}={w:g}" for k, w in zip(o["kinds"], o["weights"]))
    else:
        mix = ",".join(o["kinds"]) if o["kinds"] is not None else "stream mix"
    if stream:
        loop = "closed loop" if args.closed_loop else "open loop"
    else:
        loop = ("closed loop" if args.rate is None
                else f"open loop @ {args.rate:g}/s")
        loop += f", linger={args.linger_ms:g}ms"
    shard_note = ""
    if args.shards > 1:
        flag = "shards" if stream else "workers"
        bins = "" if args.bins is None else f", bins={args.bins}"
        moves = f", rebalance/{o['migration']}" if args.rebalance else ""
        shard_note = (f", {flag}={args.shards} "
                      f"({o['partitioner']}{bins}{moves})")
    carry = "carryover" if o.get("carryover", True) else "retry-in-batch"
    print(f"{args.command}: {args.requests} requests, kinds={mix}, "
          f"skew={args.skew}, policy={args.policy}, {carry}, {loop}, "
          f"backend={args.backend}{shard_note}")
    if report.interrupted:
        print(f"\n{stop_note} ({m.total_completed} of {args.requests} "
              f"completed)")
    if stream:
        tables = [m.batch_table] + ([m.shard_table] if args.shards > 1 else [])
    else:
        tables = [m.exchange_table]
    for table in tables:
        print()
        print(table(max_rows=args.print_batches))
    print()
    print(m.summary_table())
    if o["tenants"] is not None:
        qos_note = (f"qos admission (burst={args.qos_burst:g})" if args.qos
                    else "global FIFO admission")
        print()
        print(f"per-tenant summary ({qos_note}, latency in {latency_unit}):")
        print(m.tenant_table())
    if stream:
        wall = report.wall_seconds
        rate = args.requests / wall if wall > 0 else float("inf")
        print()
        print(f"wall-clock: {wall:.3f} s on the {args.backend!r} backend "
              f"({rate:,.0f} requests/sec)")
        if m.instruction_mix is not None:
            print()
            print("instruction mix (cycles by category):")
            for cat, cyc in sorted(
                m.instruction_mix.items(), key=lambda kv: -kv[1]
            ):
                print(f"  {cat:<16s} {cyc:>14,.0f}")
    if report.recorder is not None:
        print()
        print(f"request lifecycle stages (latency decomposition, "
              f"{stage_clock}):")
        print(report.recorder.stage_table())
        sink = report.recorder.sink
        if sink is not None:
            print(f"\nlifecycle trace written to {sink} "
                  f"(render with `python -m repro trace {sink}`)")
    if not stream:
        print()
        if report.divergence is not None:
            print(f"ORACLE DIVERGENCE: {report.divergence}", file=sys.stderr)
            return 1
        print(f"merged end state matches the scalar oracle over "
              f"{len(report.completed)} completed requests "
              f"(fingerprint {report.state_fingerprint[:16]})")
    return 130 if report.signalled else 0
