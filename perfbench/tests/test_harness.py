"""Tests of the benchmark harness itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, run, workloads  # noqa: E402
from perfbench.tracing import LayerTracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> workloads.Workload:
    """A workload with the real configuration but a small closed job."""
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, requests=min(w.requests, 1500))


# ----------------------------------------------------------------------
# metric names
# ----------------------------------------------------------------------
def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_names_match_benchmark_json():
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert declared == list(run.END_TO_END)


def test_per_layer_names_match_benchmark_json():
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == list(layers.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace, capsys, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "bulk-native", tiny("bulk-native"))
    code = run.main(
        ["--workload", "bulk-native", "--seed", "3", "--seconds", "0.1",
         "--trace", str(trace)]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _targets():
    """Every attribute the traced run may replace, as currently bound."""
    from repro.engine.spec import specs

    owners = [
        layers.ServeFrontend, layers.ProcessCluster, layers.StreamService,
        layers.ShardCoordinator, layers.BoundedQueue, layers.FixedBatcher,
        layers.CarryoverBuffer, layers.Router, layers.ShardWorker,
        layers.StreamExecutor, layers.NativeBackend, layers.SimBackend,
        layers.transport_mod, layers.cluster_mod, *specs(),
    ]
    return [(owner, dict(vars(owner))) for owner in owners]


def _assert_restored(before):
    import gc

    for owner, saved in before:
        assert dict(vars(owner)) == saved, owner
    assert not any(
        isinstance(getattr(cb, "__self__", None), LayerTracer) for cb in gc.callbacks
    )


@pytest.mark.parametrize("serve", [False, True])
def test_instrument_then_restore_puts_every_original_back(serve, tmp_path):
    before = _targets()
    tracer = LayerTracer()
    layers.instrument(tracer, layers.Probe(), serve=serve, out_dir=tmp_path)
    assert any(dict(vars(o)) != s for o, s in before)
    tracer.restore()
    _assert_restored(before)


def test_traced_closed_run_restores_wrappers():
    before = _targets()
    out = run.run_closed(tiny("paper-sim"), 1, 0.1, trace=True)
    _assert_restored(before)
    assert not out.divergences and not out.problems


def test_traced_serve_run_restores_wrappers_and_merges_worker_spans():
    before = _targets()
    out = run.run_serve(workloads.WORKLOADS["serve-uniform"], 2, 2.4, trace=True)
    _assert_restored(before)
    assert not out.divergences
    tracer, metrics, completed = out.traced
    table = tracer.layer_table()
    # The executor runs only in the forked worker: its spans came back.
    assert table["runtime.executor:execute"]["calls"] > 0
    assert metrics["ladder.backend_ns_per_req"] > 0
    assert not list(ROOT.glob(".perfbench-*"))


def test_self_time_excludes_children():
    tracer = LayerTracer()

    class Box:
        def inner(self):
            return sum(range(2000))

        def outer(self):
            return self.inner() + self.inner()

    tracer.wrap(Box, "inner", "t:inner")
    tracer.wrap(Box, "outer", "t:outer", root=True)
    try:
        Box().outer()
    finally:
        tracer.restore()
    table = tracer.layer_table()
    outer, inner = table["t:outer"], table["t:inner"]
    assert inner["calls"] == 2
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"])


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["bulk-native", "paper-sim"])
def test_tiny_closed_workload_passes_the_oracle(name):
    out = run.run_closed(tiny(name), 4, 0.1, trace=False)
    assert not out.divergences and out.failed == 0
    assert out.attempted == (run.MIN_JOBS + 1) * tiny(name).requests
    assert all(value > 0 for value, _ in out.e2e.values())


@pytest.mark.parametrize("name", ["serve-hot", "serve-uniform"])
def test_tiny_serve_workload_passes_the_oracle(name):
    w = workloads.WORKLOADS[name]
    out = run.run_serve(w, 4, 3.5, trace=False)
    assert not out.divergences and out.failed == 0
    assert out.attempted == int(w.rate * 3.5)
    assert all(value > 0 for value, _ in out.e2e.values())


def test_oracle_divergence_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "paper-sim", tiny("paper-sim"))
    monkeypatch.setattr(workloads, "oracle_diff", lambda engine, done: "cell 0")
    code = run.main(
        ["--workload", "paper-sim", "--seed", "5", "--seconds", "0.1", "--trace", "0"]
    )
    assert code == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_all_runs_every_workload_and_merges_their_results():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seed", "6", "--seconds", "1.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {
        f"{w}/{m}" for w in workloads.WORKLOADS for m, _ in run.END_TO_END
    }


def _session_processes(sid: int) -> list:
    """(pid, name) of every process, zombies too, in session ``sid``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        name, rest = stat[stat.index("(") + 1:stat.rindex(")")], stat[stat.rindex(")") + 2:]
        if int(rest.split()[3]) == sid:
            found.append((int(entry.name), name))
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="needs /proc")
@pytest.mark.parametrize("trace", [0, 1])
def test_serve_run_leaves_no_process_behind(trace):
    """Workers and multiprocessing's resource tracker are ended and
    reaped before the benchmark exits, not left to the system."""
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "serve-uniform",
         "--seed", "7", "--seconds", "2.4", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert json.loads(out.strip().splitlines()[-1])["correct"] is True
    assert _session_processes(proc.pid) == []


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
