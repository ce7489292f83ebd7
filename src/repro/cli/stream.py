"""``repro stream`` — the streaming micro-batch FOL service."""

from __future__ import annotations

from .validators import check_run_flags, parse_kinds_or_mix


def run(args) -> int:
    import math
    import time

    import numpy as np

    from ..backend import get_backend
    from ..errors import ReproError
    from ..runtime import (
        BoundedQueue,
        QoSPolicy,
        StreamService,
        apply_slos,
        closed_loop_workload,
        make_batcher,
        open_loop_workload,
        parse_slo,
        parse_tenants,
        tenant_workload,
    )

    # Flag combinations that would otherwise be silently ignored are
    # hard errors (exit 2), not no-ops.
    if args.shards == 1:
        if args.rebalance:
            raise ReproError(
                "--rebalance migrates state between shards and needs "
                "--shards > 1"
            )
        if args.partitioner is not None:
            raise ReproError(
                "--partitioner chooses the shard assignment and needs "
                "--shards > 1"
            )
        if args.bins is not None:
            raise ReproError(
                "--bins sizes the routing-bin level and needs --shards > 1"
            )
    check_run_flags(args)
    tenants = None
    if args.tenants is not None:
        tenants = parse_tenants(args.tenants)
        if args.slo is not None:
            tenants = apply_slos(tenants, parse_slo(args.slo, unit="cycles"))
    partitioner = args.partitioner or "hash"  # partitioner name  # no-kind-lint
    migration = args.migration or "all-at-once"
    objective = args.rebalance_objective or "imbalance"

    backend = get_backend(args.backend)
    if not backend.calibrated:
        # Cycle-only features would silently measure zero on an
        # uncalibrated backend; refuse them up front.
        if args.trace or args.trace_out:
            raise ReproError(
                "--trace records the simulated instruction mix, which the "
                f"{backend.name!r} backend does not charge; use --backend sim"
            )
        if args.deadline is not None:
            raise ReproError(
                "--deadline lingers in simulated cycles, which the "
                f"{backend.name!r} backend does not charge; use --backend sim"
            )

    kinds, weights = parse_kinds_or_mix(args)
    rng = np.random.default_rng(args.seed)
    if tenants is not None:
        requests = tenant_workload(
            rng,
            args.requests,
            tenants,
            kinds=kinds,
            weights=weights,
            key_space=args.key_space,
            mean_gap=None if args.closed_loop else args.mean_gap,
        )
    else:
        common = dict(
            kinds=kinds, weights=weights, skew=args.skew,
            key_space=args.key_space,
        )
        if args.closed_loop:
            requests = closed_loop_workload(rng, args.requests, **common)
        else:
            requests = open_loop_workload(
                rng, args.requests, mean_gap=args.mean_gap, **common
            )

    size = "batch_size" if args.policy == "fixed" else "initial"
    batcher = make_batcher(args.policy, **{size: args.batch_size})
    linger = math.inf if args.deadline is None else args.deadline
    policy = QoSPolicy(tenants, burst=args.qos_burst) if args.qos else None
    queue = BoundedQueue(
        args.queue_capacity, admission=args.admission, qos=policy
    )
    if args.shards > 1:
        from ..shard import ShardCoordinator

        coordinator = ShardCoordinator.for_workload(
            requests,
            shards=args.shards,
            partitioner=partitioner,
            rebalance=args.rebalance,
            table_size=args.table_size,
            key_space=args.key_space,
            carryover=not args.no_carryover,
            backend=backend,
            seed=args.seed,
            bins=args.bins,
            migration=migration,
            rebalance_objective=objective,
        )
        service = StreamService(
            coordinator, batcher=batcher, queue=queue, linger=linger
        )
    else:
        service = StreamService.for_workload(
            requests,
            batcher=batcher,
            queue=queue,
            linger=linger,
            table_size=args.table_size,
            key_space=args.key_space,
            carryover=not args.no_carryover,
            trace=args.trace,
            backend=backend,
            seed=args.seed,
        )
    recorder = None
    if args.trace or args.trace_out:
        from ..obs import Clock, TraceRecorder

        recorder = TraceRecorder(
            Clock.simulated(lambda: service.now), sink=args.trace_out
        )
        service.attach_recorder(recorder)
    t0 = time.perf_counter()
    interrupted = False
    try:
        metrics = service.run(requests)
    except KeyboardInterrupt:
        # Partial summary instead of a traceback: the metrics object
        # already holds every batch that finished before the interrupt,
        # and the run copied the admission ledger on its way out.
        interrupted = True
        metrics = service.metrics
    wall = time.perf_counter() - t0
    if tenants is not None:
        # FIFO baseline runs still report weights/SLOs so the tenant
        # table and fairness index are comparable with --qos runs.
        for t in tenants:
            metrics.tenant_weights.setdefault(t.name, t.share)
            if np.isfinite(t.slo):
                metrics.tenant_slos.setdefault(t.name, t.slo)

    mode = "retry-in-batch" if args.no_carryover else "carryover"
    loop = "closed" if args.closed_loop else "open"
    shard_note = (
        f", shards={args.shards} ({partitioner}"
        f"{f', bins={args.bins}' if args.bins is not None else ''}"
        f"{f', rebalance/{migration}' if args.rebalance else ''})"
        if args.shards > 1 else ""
    )
    if weights is not None:
        mix_note = ",".join(f"{k}={w:g}" for k, w in zip(kinds, weights))
    else:
        mix_note = ",".join(kinds)
    print(f"stream: {args.requests} requests, kinds={mix_note}, "
          f"skew={args.skew}, policy={batcher.name}, {mode}, {loop} loop, "
          f"backend={backend.name}{shard_note}")
    if interrupted:
        print(f"\ninterrupted — partial summary "
              f"({metrics.total_completed} of {args.requests} completed)")
    print()
    print(metrics.batch_table(max_rows=args.print_batches))
    if args.shards > 1:
        print()
        print(metrics.shard_table(max_rows=args.print_batches))
    print()
    print(metrics.summary_table())
    if tenants is not None:
        print()
        qos_note = (
            f"qos admission (burst={args.qos_burst:g})" if args.qos
            else "global FIFO admission"
        )
        print(f"per-tenant summary ({qos_note}, latency in cycles):")
        print(metrics.tenant_table())
    print()
    rate = args.requests / wall if wall > 0 else float("inf")
    print(f"wall-clock: {wall:.3f} s on the {backend.name!r} backend "
          f"({rate:,.0f} requests/sec)")
    if metrics.instruction_mix is not None:
        print()
        print("instruction mix (cycles by category):")
        for cat, cyc in sorted(
            metrics.instruction_mix.items(), key=lambda kv: -kv[1]
        ):
            print(f"  {cat:<16s} {cyc:>14,.0f}")
    if recorder is not None:
        print()
        print("request lifecycle stages (latency decomposition, cycles):")
        print(recorder.stage_table())
        sink = recorder.flush()
        if sink is not None:
            print(f"\nlifecycle trace written to {sink} "
                  f"(render with `python -m repro trace {sink}`)")
    return 130 if interrupted else 0
