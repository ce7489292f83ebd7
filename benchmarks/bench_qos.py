"""Multi-tenant QoS admission: worst-tenant tail latency vs global FIFO.

The tentpole claim under test (ISSUE 9): with one hot tenant (Zipf 1.2
keys, >= 70% of offered traffic) saturating a bounded queue, SLO-aware
admission — per-tenant depth caps + weighted-fair dequeue + deadline
-aware batch release (:class:`repro.runtime.qos.QoSPolicy` handed to
:class:`repro.runtime.queue.BoundedQueue`) — must cut the **worst
tenant's p99 latency by >= 30%** against global FIFO admission at equal
aggregate offered load, and raise Jain's fairness index over per-tenant
SLO attainment.

Why it works: under reject admission at saturation a global FIFO fills
to capacity ``C``, so *every* admitted request — light tenant included
— waits the full ``C x service_time`` drain.  Depth caps bound tenant
*t*'s backlog to ``burst x share_t x C`` while weighted-fair dequeue
serves it at rate ``share_t``, so its queueing delay is ``burst x C x
service_time`` — an improvement of about ``1 - burst`` on every
tenant's tail, bought by shedding the hot tenant's excess at the door
instead of queueing it.

The engine runs **retry-in-batch** (``carryover=False``): under
carryover, a Zipf-1.2 tenant's tail is set by FOL's one-winner-per-
address conflict serialisation *across* batches (hot-key duplicates
complete one per micro-batch, hundreds of batches deep) — a cost no
admission policy can touch.  Retry-in-batch resolves those conflicts
inside the batch, so the measured tail is queueing delay, the quantity
QoS admission actually bounds.

Two experiments, written to ``BENCH_qos.json``:

* **hot_tenant** — the acceptance scenario: per-tenant p50/p99,
  admission counters, SLO attainment and Jain fairness for the
  ``fifo`` and ``qos`` arms over the *identical* workload (same seed,
  same arrivals), plus the worst-tenant p99 improvement percentage;
* **burst_sweep** — the burst knob's trade: worst-tenant p99 and
  per-tenant admitted counts as ``burst`` tightens from 1.0 to 0.4
  (lower burst = tighter delay bound, more shedding).

Dual interface like the other benches; a smoke run needs an explicit
``--json`` path, so it never overwrites the committed file::

    python benchmarks/bench_qos.py [--json PATH]
    python benchmarks/bench_qos.py --smoke --json PATH
    pytest benchmarks/bench_qos.py --benchmark-only -s
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from repro.bench.reporting import format_table, write_json
from repro.runtime import (
    BoundedQueue,
    QoSPolicy,
    StreamService,
    TenantClass,
    make_batcher,
    tenant_workload,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO_ROOT / "BENCH_qos.json"

#: The acceptance scenario: tenant A is the hot tenant — Zipf 1.2 keys
#: and 70% of offered traffic; B is a light uniform tenant.  SLOs sit
#: between the QoS-bounded delay and the FIFO full-queue delay so
#: attainment separates the arms.
TENANTS = (
    TenantClass("A", share=0.7, skew=1.2, slo=40_000.0),
    TenantClass("B", share=0.3, skew=0.0, slo=40_000.0),
)
KINDS = ("hash",)  # no-kind-lint
KEY_SPACE = 2048
TABLE_SIZE = 509
BATCH_SIZE = 64
CAPACITY = 256
#: Open-loop mean inter-arrival gap in cycles — well past saturation,
#: so the queue stays full and admission policy is what differentiates
#: the arms.
MEAN_GAP = 30.0
BURST = 0.35
BURST_SWEEP = (1.0, 0.7, 0.5, 0.35)
TARGET_IMPROVEMENT = 30.0  # percent, worst-tenant p99 vs fifo


def _workload(n_requests, seed):
    rng = np.random.default_rng(seed)
    return tenant_workload(
        rng,
        n_requests,
        TENANTS,
        kinds=KINDS,
        key_space=KEY_SPACE,
        mean_gap=MEAN_GAP,
    )


def run_once(n_requests, seed, *, qos=False, burst=BURST):
    """One stream run over the tenant workload; ``qos=False`` is the
    global-FIFO baseline arm (tenants tagged, no policy)."""
    requests = _workload(n_requests, seed)
    policy = QoSPolicy(TENANTS, burst=burst) if qos else None
    queue = BoundedQueue(CAPACITY, admission="reject", qos=policy)
    service = StreamService.for_workload(
        requests,
        batcher=make_batcher("fixed", batch_size=BATCH_SIZE),
        queue=queue,
        table_size=TABLE_SIZE,
        seed=seed,
        carryover=False,  # keep hot-key conflicts inside the batch
    )
    metrics = service.run(requests)
    if not qos:
        # FIFO arm: report against the same weights/SLOs so attainment
        # and fairness are comparable.
        for t in TENANTS:
            metrics.tenant_weights.setdefault(t.name, t.share)
            if math.isfinite(t.slo):
                metrics.tenant_slos.setdefault(t.name, t.slo)
    return metrics, service


def worst_tenant_p99(cells):
    """Max per-tenant p99 over tenants with completions (NaN if none)."""
    vals = [
        c["p99_latency"]
        for c in cells.values()
        if math.isfinite(c["p99_latency"])
    ]
    return max(vals) if vals else float("nan")


def _arm_summary(metrics):
    cells = metrics.tenant_summary()
    return {
        "tenants": cells,
        "worst_tenant_p99": round(worst_tenant_p99(cells), 1),
        "jain_fairness": round(metrics.jain_fairness(), 4),
        "completed": metrics.total_completed,
        "p99_latency": round(metrics.latency_percentile(99), 1),
    }


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------
def hot_tenant_experiment(n_requests, seed):
    """The acceptance scenario: fifo vs qos over the identical
    workload (same seed => same tenants, keys and arrivals)."""
    out = {}
    for arm, qos in (("fifo", False), ("qos", True)):
        metrics, _ = run_once(n_requests, seed, qos=qos)
        out[arm] = _arm_summary(metrics)
    fifo, qos_arm = out["fifo"], out["qos"]
    out["improvement_pct"] = round(
        100.0
        * (1.0 - qos_arm["worst_tenant_p99"] / fifo["worst_tenant_p99"]),
        1,
    )
    out["target_improvement_pct"] = TARGET_IMPROVEMENT
    return out


def burst_sweep_experiment(n_requests, seed, bursts):
    """Worst-tenant p99 and admission vs the burst factor."""
    out = {}
    for burst in bursts:
        metrics, _ = run_once(n_requests, seed, qos=True, burst=burst)
        cells = metrics.tenant_summary()
        out[f"burst{burst:g}"] = {
            "burst": burst,
            "worst_tenant_p99": round(worst_tenant_p99(cells), 1),
            "jain_fairness": round(metrics.jain_fairness(), 4),
            "admitted": {
                name: cells[name].get("admitted", 0) for name in cells
            },
            "completed": metrics.total_completed,
        }
    return out


# ----------------------------------------------------------------------
def check(payload):
    """Acceptance assertions; returns a list of failure strings."""
    failures = []
    hot = payload["hot_tenant"]
    for arm in ("fifo", "qos"):
        cells = hot.get(arm, {}).get("tenants", {})
        for t in TENANTS:
            if t.name not in cells:
                failures.append(f"{arm} arm has no cell for tenant {t.name!r}")
            elif not math.isfinite(cells[t.name]["p99_latency"]):
                failures.append(
                    f"{arm} arm: tenant {t.name!r} recorded no completions"
                )
        if not math.isfinite(hot.get(arm, {}).get("jain_fairness", float("nan"))):
            failures.append(f"{arm} arm has no Jain fairness index")
    if hot["improvement_pct"] < TARGET_IMPROVEMENT:
        failures.append(
            f"worst-tenant p99 improved only {hot['improvement_pct']}% "
            f"over global FIFO (target >= {TARGET_IMPROVEMENT}%)"
        )
    if not payload["burst_sweep"]:
        failures.append("burst sweep is empty")
    return failures


def build_payload(n_requests, seed, bursts=BURST_SWEEP):
    return {
        "bench": "qos",
        "config": {
            "n_requests": n_requests,
            "seed": seed,
            "kinds": list(KINDS),
            "tenants": {
                t.name: {"share": t.share, "skew": t.skew, "slo": t.slo}
                for t in TENANTS
            },
            "key_space": KEY_SPACE,
            "table_size": TABLE_SIZE,
            "batch_size": BATCH_SIZE,
            "queue_capacity": CAPACITY,
            "admission": "reject",
            "carryover": False,
            "mean_gap": MEAN_GAP,
            "burst": BURST,
            "bursts": list(bursts),
            "target_improvement_pct": TARGET_IMPROVEMENT,
        },
        "hot_tenant": hot_tenant_experiment(n_requests, seed),
        "burst_sweep": burst_sweep_experiment(n_requests, seed, bursts),
    }


def print_report(payload):
    hot = payload["hot_tenant"]
    print()
    print(
        f"hot-tenant scenario: A=70% Zipf1.2 vs B=30% uniform, "
        f"open loop @ gap {MEAN_GAP:g} cyc, capacity {CAPACITY}, reject"
    )
    rows = []
    for arm in ("fifo", "qos"):
        for name, cell in hot[arm]["tenants"].items():
            rows.append(
                [
                    arm,
                    name,
                    cell.get("offered", 0),
                    cell.get("admitted", 0),
                    cell.get("rejected", 0),
                    cell["completed"],
                    f"{cell['p99_latency']:,.0f}",
                    f"{100 * cell.get('slo_attainment', 0.0):.1f}",
                ]
            )
    print(
        format_table(
            ["arm", "tenant", "offered", "admitted", "rejected",
             "completed", "p99 cyc", "attain%"],
            rows,
        )
    )
    print(
        f"worst-tenant p99: fifo {hot['fifo']['worst_tenant_p99']:,.0f} -> "
        f"qos {hot['qos']['worst_tenant_p99']:,.0f} "
        f"({hot['improvement_pct']}% better; target "
        f">= {TARGET_IMPROVEMENT}%)"
    )
    print(
        f"jain fairness (SLO attainment): fifo "
        f"{hot['fifo']['jain_fairness']} -> qos {hot['qos']['jain_fairness']}"
    )
    print()
    print("burst sweep (qos arm)")
    rows = [
        [
            f"{p['burst']:g}",
            f"{p['worst_tenant_p99']:,.0f}",
            p["jain_fairness"],
            p["admitted"].get("A", 0),
            p["admitted"].get("B", 0),
            p["completed"],
        ]
        for p in payload["burst_sweep"].values()
    ]
    print(
        format_table(
            ["burst", "worst p99", "jain", "A admitted", "B admitted",
             "completed"],
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
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--requests", type=int, default=None,
                        help="override workload size")
    args = parser.parse_args(argv)
    if args.smoke and args.json is None:
        parser.error(f"--smoke needs --json PATH: smoke results never "
                     f"overwrite the committed {DEFAULT_JSON.name}")

    n_requests = args.requests or (1000 if args.smoke else 6000)
    bursts = BURST_SWEEP[::2] if args.smoke else BURST_SWEEP
    payload = build_payload(n_requests, args.seed, bursts)
    print_report(payload)
    path = write_json(args.json or DEFAULT_JSON, payload)
    print(f"\nwrote {path}")

    if args.smoke:
        # Smoke sizes don't saturate long enough for the tail claim;
        # only the envelope and coverage are asserted.
        failures = [
            f for f in check(payload) if "improved only" not in f
        ]
    else:
        failures = check(payload)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


# ----------------------------------------------------------------------
# pytest-benchmark wrappers (full sizes; also refresh BENCH_qos.json)
# ----------------------------------------------------------------------
def test_qos_hot_tenant(benchmark):
    payload = benchmark.pedantic(
        build_payload, args=(6000, 7), rounds=1, iterations=1
    )
    print_report(payload)
    write_json(DEFAULT_JSON, payload)
    benchmark.extra_info["improvement_pct"] = (
        payload["hot_tenant"]["improvement_pct"]
    )
    assert check(payload) == []


if __name__ == "__main__":
    sys.exit(main())
