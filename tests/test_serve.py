"""End-to-end tests for the multi-process serving layer.

These spawn real shard worker processes over shared memory, so they are
kept small (hundreds of requests, 2 workers) — the full-size runs live
in ``benchmarks/bench_serve.py``.
"""

from __future__ import annotations

import glob
import math

import numpy as np
import pytest

from repro.engine.spec import stream_mix_kinds
from repro.errors import ReproError
from repro.serve import ProcessCluster, run_workload, timed_workload


def _shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


class TestRunServe:
    def test_mixed_kinds_oracle_clean(self):
        before = _shm_segments()
        report = run_workload(
            shards=2,
            backend="native",
            requests=400,
            skew=1.2,
            batch_size=128,
            install_signal_handlers=False,
        )
        assert report.divergence is None
        assert len(report.completed) == 400
        assert not report.signalled
        summary = report.metrics.summary()
        assert summary["completed"] == 400
        assert summary["throughput_rps"] > 0
        assert math.isfinite(summary["p50_latency_ms"])
        assert math.isfinite(summary["p99_latency_ms"])
        assert summary["p50_latency_ms"] <= summary["p99_latency_ms"]
        # every registered kind rode through the default mix
        kinds = {r.kind for r in report.completed}
        assert kinds == set(stream_mix_kinds())
        # shutdown unlinked every shared-memory segment it created
        assert _shm_segments() == before

    def test_duration_stop_drains_partial(self):
        report = run_workload(
            shards=2,
            backend="native",
            requests=5000,
            mean_gap=1 / 200.0,  # open loop: ~25 s of offered load
            duration=0.5,
            batch_size=64,
            install_signal_handlers=False,
        )
        # stopped early by the timer, not a signal
        assert report.metrics.interrupted
        assert not report.signalled
        assert 0 < len(report.completed) < 5000
        # the drained prefix still matches the oracle
        assert report.divergence is None

    def test_rejects_unknown_policy(self):
        with pytest.raises(ReproError, match="polic"):
            run_workload(
                shards=1,
                requests=10,
                policy="deadline",
                install_signal_handlers=False,
            )

    @pytest.mark.parametrize("options, match", [
        (dict(driver="stream", duration=1.0), "duration= is serve's"),
        (dict(rebalance=True), "need shards > 1"),
        (dict(partitioner="range"), "need shards > 1"),
        (dict(bins=8), "need shards > 1"),
    ])
    def test_rejects_options_it_cannot_apply(self, options, match):
        """What the run would silently ignore is refused before any
        worker starts: a duration on the simulated driver, and the
        shard options at one shard."""
        with pytest.raises(ReproError, match=match):
            run_workload(shards=1, requests=10,
                         install_signal_handlers=False, **options)


class TestServeCli:
    def test_one_worker_run_passes_the_oracle(self, capsys):
        """``repro serve`` succeeds end to end on one worker: the shared
        header shows the carryover mode, the merged state matches the
        oracle, and the worker's arena is gone afterwards."""
        from repro.__main__ import main

        before = _shm_segments()
        assert main(["serve", "--workers", "1", "--requests", "300",
                     "--kinds", "list,xfer"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("serve: 300 requests, kinds=list,xfer, ")
        assert ", carryover, closed loop, linger=2ms, backend=native\n" in out
        assert "merged end state matches the scalar oracle" in out
        assert _shm_segments() == before


class TestProcessCluster:
    def test_execute_matches_single_process_shards(self):
        """One exchange through worker processes lands the same end
        state as the in-process sharded engine on the same batch."""
        from repro.shard.coordinator import ShardCoordinator

        rng = np.random.default_rng(7)
        batch = timed_workload(rng, 300, kinds=stream_mix_kinds(), skew=1.1)
        local = ShardCoordinator.for_workload(
            [r for r in batch], shards=2, backend="native"
        )
        cluster = ProcessCluster.for_workload(
            [r for r in batch], shards=2, backend="native"
        )
        try:
            carried = list(batch)
            while carried:
                carried = cluster.execute(carried).carried
            carried = [
                r
                for r in timed_workload(
                    np.random.default_rng(7), 300,
                    kinds=stream_mix_kinds(), skew=1.1,
                )
            ]
            while carried:
                carried = local.execute(carried).carried
            assert (
                cluster.coordinator.state_fingerprint()
                == local.state_fingerprint()
            )
        finally:
            cluster.shutdown()

    def test_shutdown_is_idempotent(self):
        rng = np.random.default_rng(0)
        batch = timed_workload(rng, 50, kinds=("hash",))
        cluster = ProcessCluster.for_workload(list(batch), shards=2)
        cluster.execute(list(batch))
        cluster.shutdown()
        cluster.shutdown()  # second call must be a no-op
