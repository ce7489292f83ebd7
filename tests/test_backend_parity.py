"""Cross-backend parity: sim and native runs end bit-identical.

The backend layer's contract is that a :class:`~repro.backend.Backend`
changes *how fast* a workload runs, never *what it computes*: under a
fixed seed the ``"arbitrary"`` conflict policy draws the same
permutations on every backend (both funnel through
``Memory._raw_scatter``), so winner choices — and therefore every
downstream pointer, chain, tree and sort slot — match exactly.  This
suite proves it end-to-end:

* per-kind, full-mix and duplicate-heavy ``bst``+``sort`` closed-loop
  streams: identical machine-state fingerprints, batch counts and round
  totals across ``sim`` and ``native`` (whose carryover round is the
  fused replay);
* retry mode (``carryover=False``, the paper's in-batch loop);
* K=4 sharded runs: identical coordinator fingerprints, merged end
  states and cross-shard transfer counts;
* the scalar differential oracles accept the native end states;
* registry/CLI validation: unknown backends fail with the registered
  list, cycle-only flags are rejected on ``native`` with exit 2;
* the plan IR itself: validation and the per-shape fused-round cache.
"""

import numpy as np
import pytest

from repro.__main__ import main
from repro.audit import diff_stream_state
from repro.backend import (
    Backend,
    backend_summaries,
    get_backend,
    registered_backends,
    resolve_backend,
)
from repro.backend.native import NativeBackend
from repro.backend.plan import FolPlan, identity_live
from repro.errors import ReproError
from repro.runtime import FixedBatcher, StreamService, closed_loop_workload
from repro.shard import ShardCoordinator

KINDS = ("hash", "bst", "list", "xfer", "sort")
TABLE_SIZE = 127
N_CELLS = 32
KEY_SPACE = 512


def _backends():
    """The execution arms under test."""
    return (
        ("sim", get_backend("sim")),
        ("native", NativeBackend()),
    )


def run_stream(kinds, backend, *, carryover=True, n=400, seed=123, skew=1.1):
    rng = np.random.default_rng(seed)
    reqs = closed_loop_workload(
        rng, n, kinds=kinds, skew=skew, key_space=KEY_SPACE, n_cells=N_CELLS
    )
    svc = StreamService.for_workload(
        reqs,
        batcher=FixedBatcher(batch_size=64),
        table_size=TABLE_SIZE,
        n_cells=N_CELLS,
        carryover=carryover,
        backend=backend,
    )
    metrics = svc.run(reqs)
    return svc, reqs, metrics


# ----------------------------------------------------------------------
# registry surface
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_backends_registered(self):
        assert registered_backends() == ("sim", "native")

    def test_unknown_backend_names_registry(self):
        with pytest.raises(ReproError) as err:
            get_backend("cuda")
        message = str(err.value)
        for name in registered_backends():
            assert name in message

    def test_resolve_accepts_name_and_instance(self):
        inst = NativeBackend()
        assert resolve_backend(inst) is inst
        assert isinstance(resolve_backend("sim"), Backend)

    def test_calibration_flags(self):
        assert get_backend("sim").calibrated
        assert not get_backend("native").calibrated

    def test_summaries_cover_every_backend(self):
        rows = backend_summaries()
        assert [name for name, _, _ in rows] == list(registered_backends())
        assert all(doc for _, _, doc in rows)

    def test_native_rejects_cost_model_override(self):
        from repro import CostModel

        with pytest.raises(ReproError, match="cost_model"):
            get_backend("native").make_machine(
                1024, cost_model=CostModel.s810()
            )


# ----------------------------------------------------------------------
# end-state parity, single pipeline
# ----------------------------------------------------------------------
def assert_stream_parity(kinds, **stream):
    """Run one stream on every backend: the end states must pass the
    oracle and match in fingerprint, batch count and round total.
    Returns the ``sim`` run's metrics."""
    ref = None
    for name, backend in _backends():
        svc, reqs, metrics = run_stream(kinds, backend, **stream)
        assert diff_stream_state(
            svc.executor, reqs,
            table_size=TABLE_SIZE, n_cells=N_CELLS, key_space=KEY_SPACE,
        ) is None, name
        state = (
            svc.executor.state_fingerprint(),
            len(metrics.batches),
            metrics.total_rounds,
        )
        if ref is None:
            ref, ref_metrics = state, metrics
        assert state == ref, name
    return ref_metrics


class TestStreamParity:
    @pytest.mark.parametrize("kind", KINDS)
    def test_per_kind_carryover(self, kind):
        assert_stream_parity((kind,))

    @pytest.mark.parametrize("kind", KINDS)
    def test_per_kind_retry_mode(self, kind):
        fingerprints = {}
        for name, backend in _backends():
            svc, _, _ = run_stream((kind,), backend, carryover=False, n=300)
            fingerprints[name] = svc.executor.state_fingerprint()
        assert len(set(fingerprints.values())) == 1, fingerprints

    def test_full_mix_carryover(self):
        assert_stream_parity(KINDS, n=500)

    @pytest.mark.parametrize("carryover", [True, False])
    def test_duplicate_heavy_bst_sort(self, carryover):
        # Hot keys repeated many times a batch: the count pass runs M
        # rounds and draws the same scatter permutations on both.
        metrics = assert_stream_parity(
            ("bst", "sort"), carryover=carryover, n=600, skew=1.6
        )
        assert max(b.multiplicity for b in metrics.batches) > 8

    def test_native_charges_no_cycles(self):
        svc, _, _ = run_stream(("hash",), get_backend("native"), n=200)
        assert svc.executor.vm.counter.total == 0.0
        assert svc.now == 0.0

    def test_sim_still_charges(self):
        svc, _, _ = run_stream(("hash",), get_backend("sim"), n=200)
        assert svc.executor.vm.counter.total > 0.0


# ----------------------------------------------------------------------
# end-state parity, K=4 shards
# ----------------------------------------------------------------------
class TestShardParity:
    def _run(self, backend):
        rng = np.random.default_rng(123)
        reqs = closed_loop_workload(
            rng, 400, kinds=KINDS, skew=1.1,
            key_space=KEY_SPACE, n_cells=N_CELLS,
        )
        coord = ShardCoordinator.for_workload(
            reqs, shards=4, partitioner="hash",
            table_size=TABLE_SIZE, n_cells=N_CELLS, key_space=KEY_SPACE,
            backend=backend,
        )
        svc = StreamService(coord, batcher=FixedBatcher(batch_size=64))
        metrics = svc.run(reqs)
        return coord, metrics

    def test_k4_parity(self):
        ref = None
        for name, backend in _backends():
            coord, metrics = self._run(backend)
            state = (
                coord.state_fingerprint(),
                coord.total_cross,
                len(metrics.batches),
                coord.chain_multisets(),
                coord.bst_inorder(),
                coord.list_values(),
            )
            if ref is None:
                ref = state
            else:
                assert state == ref, name

    def test_native_shard_counters_stay_zero(self):
        coord, _ = self._run(get_backend("native"))
        assert all(
            w.executor.vm.counter.total == 0.0 for w in coord.workers
        )
        assert coord.backend.name == "native"


# ----------------------------------------------------------------------
# CLI validation
# ----------------------------------------------------------------------
class TestCli:
    def test_native_stream_runs(self, capsys):
        rc = main([
            "stream", "--requests", "60", "--closed-loop",
            "--policy", "fixed", "--backend", "native",
            "--mix", "hash=1,xfer=1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "backend=native" in out
        assert "requests/sec" in out

    def test_unknown_backend_exits_2_listing_backends(self, capsys):
        rc = main(["stream", "--requests", "10", "--backend", "vulkan"])
        err = capsys.readouterr().err
        assert rc == 2
        for name in registered_backends():
            assert name in err

    def test_native_rejects_trace(self, capsys):
        rc = main([
            "stream", "--requests", "10", "--backend", "native", "--trace",
        ])
        assert rc == 2
        assert "instruction mix" in capsys.readouterr().err

    def test_native_rejects_deadline_policy(self, capsys):
        # --deadline lingers in simulated cycles, which native does not
        # charge; the refusal must come from the backend check, not from
        # argparse (which would print the usage line).
        rc = main([
            "stream", "--requests", "10", "--backend", "native",
            "--deadline", "700",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--deadline" in err and "native" in err
        assert "usage:" not in err

    def test_info_lists_backends(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "backends:" in out
        for name in registered_backends():
            assert name in out


# ----------------------------------------------------------------------
# the plan IR
# ----------------------------------------------------------------------
class TestPlanIR:
    def _plan(self, arity=1, n=4):
        return FolPlan(
            kind="hash",  # no-kind-lint
            arity=arity,
            policy="arbitrary",
            work_offset=100,
            addrs=[np.arange(n, dtype=np.int64) for _ in range(arity)],
            commit=lambda ops, s: None,
            group_of=lambda i: i,
            measure=np.arange(n, dtype=np.int64),
            live=identity_live(n),
        )

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ReproError, match="arity"):
            FolPlan(
                kind="hash",  # no-kind-lint
                arity=2,
                policy="arbitrary",
                work_offset=0,
                addrs=[np.arange(3, dtype=np.int64)],
                commit=lambda ops, s: None,
                group_of=lambda i: i,
                measure=np.arange(3, dtype=np.int64),
                live=identity_live(3),
            )

    def test_lane_count_mismatch_rejected(self):
        with pytest.raises(ReproError, match="lanes"):
            FolPlan(
                kind="hash",  # no-kind-lint
                arity=1,
                policy="arbitrary",
                work_offset=0,
                addrs=[np.arange(5, dtype=np.int64)],
                commit=lambda ops, s: None,
                group_of=lambda i: i,
                measure=np.arange(5, dtype=np.int64),
                live=identity_live(3),
            )

    def test_recorded_round_cache_is_per_shape(self):
        backend = NativeBackend()
        p1 = self._plan()
        fn = backend._recorded(p1)
        assert backend._recorded(self._plan()) is fn
        p2 = self._plan(arity=2)
        assert backend._recorded(p2) is not fn
