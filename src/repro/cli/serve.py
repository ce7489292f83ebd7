"""``repro serve`` — the multi-process serving layer."""

from __future__ import annotations

import sys

from .validators import check_run_flags, parse_kinds_or_mix


def run(args) -> int:
    from ..serve import run_serve

    check_run_flags(args)
    tenants = None
    if args.tenants is not None:
        from ..runtime import apply_slos, parse_slo, parse_tenants

        tenants = parse_tenants(args.tenants)
        if args.slo is not None:
            tenants = apply_slos(tenants, parse_slo(args.slo, unit="seconds"))
    migration = args.migration or "all-at-once"
    objective = args.rebalance_objective or "imbalance"
    kinds, weights = parse_kinds_or_mix(args)

    report = run_serve(
        workers=args.workers,
        backend=args.backend,
        requests=args.requests,
        rate=args.rate,
        duration=args.duration,
        skew=args.skew,
        kinds=kinds,
        weights=weights,
        policy=args.policy,
        batch_size=args.batch_size,
        linger_ms=args.linger_ms,
        queue_capacity=args.queue_capacity,
        admission=args.admission,
        table_size=args.table_size,
        n_cells=args.n_cells,
        key_space=args.key_space,
        partitioner=args.partitioner,
        seed=args.seed,
        bins=args.bins,
        rebalance=args.rebalance,
        migration=migration,
        rebalance_objective=objective,
        tenants=tenants,
        qos=args.qos,
        qos_burst=args.qos_burst,
        trace=args.trace,
        trace_out=args.trace_out,
    )
    m = report.metrics
    loop = "closed loop" if args.rate is None else f"open loop @ {args.rate:g}/s"
    mix_note = (
        ",".join(f"{k}={w:g}" for k, w in zip(kinds, weights))
        if kinds is not None and weights is not None
        else ",".join(kinds) if kinds is not None else "stream mix"
    )
    print(f"serve: {args.workers} worker processes, backend={args.backend}, "
          f"{args.requests} requests, kinds={mix_note}, skew={args.skew}, "
          f"{loop}, policy={args.policy}, linger={args.linger_ms:g}ms")
    if m.interrupted:
        print(f"\nstopped early — drained partial summary "
              f"({m.total_completed} of {args.requests} completed)")
    print()
    print(m.exchange_table(max_rows=args.print_batches))
    print()
    print(m.summary_table())
    if tenants is not None:
        print()
        qos_note = (
            f"qos admission (burst={args.qos_burst:g})" if args.qos
            else "global FIFO admission"
        )
        print(f"per-tenant summary ({qos_note}, latency in ms):")
        print(m.tenant_table())
    if report.recorder is not None:
        print()
        print("request lifecycle stages (latency decomposition, wall clock):")
        print(report.recorder.stage_table())
        if args.trace_out:
            print(f"\nlifecycle trace written to {args.trace_out} "
                  f"(render with `python -m repro trace {args.trace_out}`)")
    print()
    if report.divergence is not None:
        print(f"ORACLE DIVERGENCE: {report.divergence}", file=sys.stderr)
        return 1
    print(f"merged end state matches the scalar oracle over "
          f"{len(report.completed)} completed requests "
          f"(fingerprint {report.state_fingerprint[:16]})")
    return 130 if report.signalled else 0
