"""A traced serve run with live migration records every bin move."""

from __future__ import annotations

from repro.serve import ProcessCluster, run_workload


def test_traced_rebalance_records_every_migration(monkeypatch):
    """The trace's ``migration`` events come from the controller that
    actually moves bins, so their ``bins`` sum to the coordinator's
    ``total_migrations``."""
    clusters = []
    build = ProcessCluster.for_workload.__func__

    def keep(cls, *args, **kwargs):
        clusters.append(build(cls, *args, **kwargs))
        return clusters[-1]

    monkeypatch.setattr(ProcessCluster, "for_workload", classmethod(keep))
    report = run_workload(
        shards=2,
        partitioner="range",
        rebalance=True,
        bins=16,
        skew=1.2,
        kinds=("hash", "list"),
        requests=3000,
        seed=3,
        trace=True,
        install_signal_handlers=False,
    )
    assert report.divergence is None
    moved = clusters[0].coordinator.total_migrations
    events = [e for e in report.recorder.events if e["ev"] == "migration"]
    assert moved > 0
    assert sum(e["bins"] for e in events) == moved
