"""Shared argparse types and small parsers for the ``repro`` CLI.

Every subcommand module imports its input validation from here, so a
bad value always produces the same clean exit-2 argparse error (or
:class:`~repro.errors.ReproError`) instead of a traceback.
"""

from __future__ import annotations

import argparse

#: Largest accepted Zipf skew: beyond this the truncated distribution is
#: numerically degenerate (rank-1 mass ~ 1.0) and run times explode.
MAX_SKEW = 8.0


def positive_int(text: str) -> int:
    """argparse type: an int >= 1 (clean exit 2 on 0/negative input)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def positive_float(text: str) -> float:
    """argparse type: a float > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def nonneg_float(text: str) -> float:
    """argparse type: a float >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def skew(text: str) -> float:
    """argparse type: a Zipf skew in [0, MAX_SKEW]."""
    value = nonneg_float(text)
    if value > MAX_SKEW:
        raise argparse.ArgumentTypeError(
            f"skew must be at most {MAX_SKEW}, got {value}"
        )
    return value


def check_run_flags(args) -> None:
    """Refuse ``stream``/``serve`` flag combinations that would
    otherwise be silently ignored (:class:`ReproError`, exit 2)."""
    from ..backend import get_backend
    from ..errors import ReproError

    one_shard = args.shards == 1
    no_rebalance = not args.rebalance
    no_tenants = args.tenants is None
    sharded = "and needs more than one shard (--shards/--workers > 1)"
    # Cycle-only features would silently measure zero on an
    # uncalibrated backend.
    uncharged = (
        args.command == "stream" and not get_backend(args.backend).calibrated
    )
    no_cycles = (f", which the {args.backend!r} backend does not charge; "
                 f"use --backend sim")
    for flag, given, why in (
        ("--rebalance", one_shard and args.rebalance,
         f"migrates state between shards {sharded}"),
        ("--partitioner", one_shard and args.partitioner is not None,
         f"chooses the shard assignment {sharded}"),
        ("--bins", one_shard and args.bins is not None,
         f"sizes the routing-bin level {sharded}"),
        ("--migration", no_rebalance and args.migration is not None,
         "paces live bin handoff and needs --rebalance"),
        ("--rebalance-objective",
         no_rebalance and args.rebalance_objective is not None,
         "steers migration planning and needs --rebalance"),
        ("--slo", no_tenants and args.slo is not None,
         "assigns per-tenant budgets and needs --tenants"),
        ("--qos", no_tenants and args.qos,
         "admits per tenant class and needs --tenants"),
        ("--trace", uncharged and (args.trace or args.trace_out),
         f"records the simulated instruction mix{no_cycles}"),
        ("--deadline", uncharged and args.deadline is not None,
         f"lingers in simulated cycles{no_cycles}"),
    ):
        if given:
            raise ReproError(f"{flag} {why}")


def parse_mix(text: str):
    """Parse ``--mix kind=weight,...`` into (kinds, weights).  Unknown
    kinds and malformed entries raise :class:`ReproError` (exit 2)."""
    from ..engine.spec import get_spec
    from ..errors import ReproError

    kinds, weights = [], []
    for entry in (e.strip() for e in text.split(",") if e.strip()):
        name, sep, weight = entry.partition("=")
        if not sep:
            raise ReproError(
                f"malformed mix entry {entry!r}; expected kind=weight"
            )
        get_spec(name.strip())  # raises listing registered kinds
        try:
            w = float(weight)
        except ValueError:
            raise ReproError(f"mix weight {weight!r} is not a number")
        if w < 0:
            raise ReproError(f"mix weight for {name!r} is negative: {w}")
        kinds.append(name.strip())
        weights.append(w)
    if not kinds:
        raise ReproError("empty workload mix")
    if sum(weights) <= 0:
        raise ReproError("workload mix weights sum to zero")
    return tuple(kinds), tuple(weights)


def parse_kinds_or_mix(args):
    """Resolve the shared ``--kinds`` / ``--mix`` pair into
    ``(kinds, weights)``; ``--mix`` wins, unknown kinds raise, and no
    ``--kinds`` is ``(None, None)``: the registry's stream mix."""
    from ..engine.spec import get_spec

    if args.mix is not None:
        return parse_mix(args.mix)
    if args.kinds is not None:
        kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
        for kind in kinds:
            get_spec(kind)  # unknown kind -> ReproError naming the registry
        return kinds, None
    return None, None
