"""A worker process killed between exchanges is noticed within one
reply-polling slice, not after the reply timeout, and the cluster still
shuts down promptly and releases every shared-memory segment."""

from __future__ import annotations

import glob
import os
import signal
import time

import numpy as np
import pytest

from repro.errors import ReproError
from repro.serve import ProcessCluster, timed_workload


def _shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


def test_killed_worker_raises_fast_and_shuts_down_clean():
    before = _shm_segments()
    batch = timed_workload(
        np.random.default_rng(0), 200, kinds=("hash", "list")
    )
    cluster = ProcessCluster.for_workload(
        list(batch), shards=2, reply_timeout=5.0
    )
    try:
        first = cluster.execute(list(batch[:100]))
        assert all(first.shard_sizes)  # both workers took part
        os.kill(cluster.coordinator.workers[1].proc.pid, signal.SIGKILL)
        t0 = time.monotonic()
        with pytest.raises(ReproError, match=r"shard 1 .*exit code -9"):
            cluster.execute(list(batch[100:]))
        raised_s = time.monotonic() - t0
    finally:
        t0 = time.monotonic()
        cluster.shutdown()
        shutdown_s = time.monotonic() - t0
    assert raised_s < 1.0
    assert shutdown_s < 1.0
    assert _shm_segments() == before
