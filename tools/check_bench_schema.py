#!/usr/bin/env python
"""Lint: every ``BENCH_*.json`` shares one machine-readable envelope.

The repo's perf trajectory accumulates in ``BENCH_*.json`` files at the
repo root (one per bench, overwritten per run, uploaded by CI).  The
dashboards and regression diffs downstream only work if the files stay
mutually parseable, so this checker enforces the common shape every
bench writer (``repro.bench.reporting.write_json``) produces:

* the top level is a JSON object;
* ``"bench"`` is a non-empty string naming the bench;
* ``"config"`` is an object recording the parameters of the run;
* at least one further object-valued key holds a result series
  (``"saturation"``, ``"scaling"``, ``"workloads"``, ...);
* ``"meta"``, when present, is an object whose ``"schema"`` is an int
  (the envelope version this checker understands is 1);
* no bare ``NaN``/``Infinity`` tokens — undefined metrics must be
  written as ``null`` (non-JSON tokens break strict parsers).

``BENCH_migration.json`` additionally gets a bench-specific check: the
rate/latency ``frontier`` must cover every pacing strategy named in
``config.strategies`` plus the ``static`` baseline arm, the
``steady_state`` series must report ``cycles_per_request`` per arm and
the headline ``improvement_pct``, and ``reconfiguration`` must report a
``p99_spike_ratio`` per strategy — a partially-run sweep must fail CI,
not upload a plausible-looking file.

``BENCH_qos.json`` likewise: the ``hot_tenant`` series must carry both
the ``fifo`` and ``qos`` arms, each with a per-tenant cell (p99 +
admission counters) for every tenant named in ``config.tenants``, a
``jain_fairness`` value and ``worst_tenant_p99``, plus the headline
``improvement_pct``; the ``burst_sweep`` must cover every burst in
``config.bursts``.

``BENCH_serve.json`` (ISSUE 10): the ``trace_overhead`` series must
carry the ``off`` and ``on`` arms (each with ``p99_latency_ms``), the
headline ``overhead_pct`` against ``target_pct``, and the traced arm's
``stage_breakdown`` naming every lifecycle stage (admit / queue /
batch / execute / commit / park / carry) with ``total`` and ``share``
cells — the ``--trace`` cost claim must never upload half-measured.

When the repo root is checked (no arguments, or the root directory),
the committed files must come from full runs: a file whose
``config.smoke`` is true is flagged.  Smoke runs write only to paths
given with ``--json``, such as CI's temp dir.

Exit status: 0 clean, 1 findings, 2 usage error.

Usage::

    python tools/check_bench_schema.py [paths...]   # default: repo root
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Tuple

REPO = Path(__file__).resolve().parent.parent
SCHEMA_VERSION = 1


def _reject_nonfinite(token: str):
    # json.load only calls parse_constant for NaN/Infinity/-Infinity —
    # legal for Python's encoder, fatal for strict JSON parsers.
    raise ValueError(f"non-finite JSON token {token!r} (write null instead)")


def check_file(path: Path, committed: bool = False) -> List[str]:
    """Return the envelope violations for one bench file; a
    ``committed`` (repo-root) file must not be a smoke payload."""
    problems: List[str] = []
    try:
        payload = json.loads(
            path.read_text(), parse_constant=_reject_nonfinite
        )
    except ValueError as exc:
        return [f"{path.name}: not parseable as strict JSON: {exc}"]

    if not isinstance(payload, dict):
        return [f"{path.name}: top level must be an object"]

    bench = payload.get("bench")
    if not isinstance(bench, str) or not bench:
        problems.append(f"{path.name}: 'bench' must be a non-empty string")
    config = payload.get("config")
    if not isinstance(config, dict):
        problems.append(f"{path.name}: 'config' must be an object")
    elif committed and config.get("smoke") is True:
        problems.append(
            f"{path.name}: the committed file is a smoke payload "
            f"(config.smoke is true); regenerate it from a full run"
        )

    meta = payload.get("meta")
    if meta is not None:
        if not isinstance(meta, dict):
            problems.append(f"{path.name}: 'meta' must be an object")
        elif not isinstance(meta.get("schema"), int):
            problems.append(
                f"{path.name}: 'meta.schema' must be an int "
                f"(current version: {SCHEMA_VERSION})"
            )

    series = [
        k
        for k, v in payload.items()
        if k not in ("bench", "config", "meta") and isinstance(v, dict)
    ]
    if not series:
        problems.append(
            f"{path.name}: expected at least one object-valued result "
            f"series besides 'bench'/'config'/'meta'"
        )
    stray = [
        k
        for k, v in payload.items()
        if k not in ("bench", "config", "meta") and not isinstance(v, dict)
    ]
    for k in stray:
        problems.append(
            f"{path.name}: top-level key {k!r} is not an object — result "
            f"series must be objects so diffs stay keyed"
        )
    if payload.get("bench") == "migration":
        problems.extend(check_migration(path, payload))
    if payload.get("bench") == "qos":
        problems.extend(check_qos(path, payload))
    if payload.get("bench") == "serve":
        problems.extend(check_serve(path, payload))
    return problems


#: Lifecycle stages the traced arm's breakdown must cover (must match
#: ``repro.obs.events.STAGES``; duplicated here so the linter stays
#: import-free).
LIFECYCLE_STAGES = (
    "admit", "queue", "batch", "execute", "commit", "park", "carry"
)


def check_serve(path: Path, payload: dict) -> List[str]:
    """Bench-specific shape for ``BENCH_serve.json``: the ``--trace``
    overhead measurement must be complete (both arms + breakdown)."""
    problems: List[str] = []
    overhead = payload.get("trace_overhead")
    if not isinstance(overhead, dict):
        return [f"{path.name}: 'trace_overhead' series missing"]
    for arm in ("off", "on"):
        cell = overhead.get(arm)
        if not isinstance(cell, dict) or "p99_latency_ms" not in cell:
            problems.append(
                f"{path.name}: trace_overhead[{arm!r}] lacks p99_latency_ms"
            )
    for field in ("overhead_pct", "target_pct"):
        if not isinstance(overhead.get(field), (int, float)):
            problems.append(
                f"{path.name}: trace_overhead.{field} must be a number"
            )
    breakdown = overhead.get("stage_breakdown")
    if not isinstance(breakdown, dict):
        problems.append(
            f"{path.name}: trace_overhead.stage_breakdown missing"
        )
    else:
        stages = breakdown.get("stages")
        if not isinstance(stages, dict):
            problems.append(
                f"{path.name}: trace_overhead.stage_breakdown.stages missing"
            )
        else:
            for stage in LIFECYCLE_STAGES:
                cell = stages.get(stage)
                if not isinstance(cell, dict) or not {
                    "total", "share"
                } <= set(cell):
                    problems.append(
                        f"{path.name}: stage_breakdown lacks a "
                        f"total/share cell for stage {stage!r}"
                    )
    return problems


def check_migration(path: Path, payload: dict) -> List[str]:
    """Bench-specific shape for ``BENCH_migration.json``: the pacing
    sweep must be complete across every strategy the run configured."""
    problems: List[str] = []
    config = payload.get("config") or {}
    strategies = config.get("strategies")
    if not isinstance(strategies, list) or not strategies:
        return [
            f"{path.name}: config.strategies must be a non-empty list "
            f"of pacing strategies"
        ]
    arms = ["static"] + [str(s) for s in strategies]

    frontier = payload.get("frontier")
    if not isinstance(frontier, dict):
        problems.append(f"{path.name}: 'frontier' series missing")
    else:
        for arm in arms:
            points = frontier.get(arm)
            if not isinstance(points, list) or not points:
                problems.append(
                    f"{path.name}: frontier is missing arm {arm!r}"
                )
                continue
            for i, pt in enumerate(points):
                missing = [
                    f for f in ("offered_rate", "achieved_rate",
                                "p50_latency", "p99_latency")
                    if f not in pt
                ]
                if missing:
                    problems.append(
                        f"{path.name}: frontier[{arm!r}][{i}] lacks "
                        f"{missing}"
                    )

    steady = payload.get("steady_state")
    if not isinstance(steady, dict):
        problems.append(f"{path.name}: 'steady_state' series missing")
    else:
        for arm in arms:
            cell = steady.get(arm)
            if not isinstance(cell, dict) or "cycles_per_request" not in cell:
                problems.append(
                    f"{path.name}: steady_state[{arm!r}] lacks "
                    f"cycles_per_request"
                )
        if not isinstance(steady.get("improvement_pct"), (int, float)):
            problems.append(
                f"{path.name}: steady_state.improvement_pct must be a "
                f"number (the headline acceptance metric)"
            )

    reconf = payload.get("reconfiguration")
    if not isinstance(reconf, dict):
        problems.append(f"{path.name}: 'reconfiguration' series missing")
    else:
        for strategy in strategies:
            cell = reconf.get(str(strategy))
            if not isinstance(cell, dict) or "p99_spike_ratio" not in cell:
                problems.append(
                    f"{path.name}: reconfiguration[{strategy!r}] lacks "
                    f"p99_spike_ratio"
                )
    return problems


def check_qos(path: Path, payload: dict) -> List[str]:
    """Bench-specific shape for ``BENCH_qos.json``: both admission arms
    must be complete over every configured tenant and burst point."""
    problems: List[str] = []
    config = payload.get("config") or {}
    tenants = config.get("tenants")
    if not isinstance(tenants, dict) or not tenants:
        return [
            f"{path.name}: config.tenants must be a non-empty object "
            f"of tenant classes"
        ]

    hot = payload.get("hot_tenant")
    if not isinstance(hot, dict):
        problems.append(f"{path.name}: 'hot_tenant' series missing")
    else:
        for arm in ("fifo", "qos"):
            cell = hot.get(arm)
            if not isinstance(cell, dict):
                problems.append(
                    f"{path.name}: hot_tenant is missing arm {arm!r}"
                )
                continue
            for field in ("worst_tenant_p99", "jain_fairness"):
                if not isinstance(cell.get(field), (int, float)):
                    problems.append(
                        f"{path.name}: hot_tenant[{arm!r}].{field} must "
                        f"be a number"
                    )
            arm_tenants = cell.get("tenants")
            if not isinstance(arm_tenants, dict):
                problems.append(
                    f"{path.name}: hot_tenant[{arm!r}].tenants missing"
                )
                continue
            for name in tenants:
                tcell = arm_tenants.get(str(name))
                if not isinstance(tcell, dict):
                    problems.append(
                        f"{path.name}: hot_tenant[{arm!r}] lacks a cell "
                        f"for tenant {name!r}"
                    )
                    continue
                missing = [
                    f for f in ("p99_latency", "completed",
                                "offered", "admitted", "rejected")
                    if f not in tcell
                ]
                if missing:
                    problems.append(
                        f"{path.name}: hot_tenant[{arm!r}][{name!r}] "
                        f"lacks {missing}"
                    )
        if not isinstance(hot.get("improvement_pct"), (int, float)):
            problems.append(
                f"{path.name}: hot_tenant.improvement_pct must be a "
                f"number (the headline acceptance metric)"
            )

    sweep = payload.get("burst_sweep")
    bursts = config.get("bursts")
    if not isinstance(sweep, dict):
        problems.append(f"{path.name}: 'burst_sweep' series missing")
    elif isinstance(bursts, list):
        for burst in bursts:
            key = f"burst{burst:g}"
            cell = sweep.get(key)
            if not isinstance(cell, dict) or "worst_tenant_p99" not in cell:
                problems.append(
                    f"{path.name}: burst_sweep[{key!r}] lacks "
                    f"worst_tenant_p99"
                )
    return problems


def main(argv: List[str]) -> int:
    roots = [Path(a) for a in argv] or [REPO]
    files: List[Tuple[Path, bool]] = []  # (path, found in the repo root)
    for root in roots:
        if root.is_file():
            files.append((root, False))
        elif root.is_dir():
            committed = root.resolve() == REPO
            found = sorted(root.glob("BENCH_*.json"))
            files.extend((path, committed) for path in found)
        else:
            print(f"error: no such path: {root}", file=sys.stderr)
            return 2
    if not files:
        print("error: no BENCH_*.json files found", file=sys.stderr)
        return 2

    problems: List[str] = []
    for path, committed in files:
        problems.extend(check_file(path, committed=committed))
    if problems:
        print("bench schema violations:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print(f"bench schema OK: {len(files)} file(s) share the envelope")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
