"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro 1.0.0" in out
        assert "CostModel" in out
        assert "fig10" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "M = 3" in out
        assert "FOL rounds" in out

    def test_figures_subset(self, capsys):
        assert main(["figures", "ablation_conflict_policy"]) == 0
        out = capsys.readouterr().out
        assert "ablation_conflict_policy" in out
        assert "arbitrary" in out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        out = capsys.readouterr().out
        assert "figures" in out
        assert "stream" in out

    def test_unknown_command_prints_help(self, capsys):
        assert main(["not-a-command"]) == 2
        captured = capsys.readouterr()
        assert "figures" in captured.out
        assert "stream" in captured.out

    def test_help_flag_exits_zero(self):
        assert main(["--help"]) == 0

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["figures", "not_an_experiment"])

    def test_stream(self, capsys):
        assert main(["stream", "--requests", "50", "--policy", "fixed",
                     "--batch-size", "16", "--closed-loop"]) == 0
        out = capsys.readouterr().out
        assert "cycles_per_request" in out
        assert "p50_latency" in out

    def test_stream_key_space_reaches_the_counts(self, capsys):
        # Uniform keys over 8192 values: about half lie past the
        # default key space of 4096, so the bst and sort counts must
        # be sized by --key-space.
        assert main(["stream", "--requests", "200", "--closed-loop",
                     "--kinds", "bst,sort", "--skew", "0",
                     "--key-space", "8192"]) == 0
        assert "cycles_per_request" in capsys.readouterr().out

    def test_stream_sharded(self, capsys):
        assert main(["stream", "--requests", "60", "--closed-loop",
                     "--policy", "fixed", "--batch-size", "16",
                     "--shards", "4", "--kinds", "hash,list"]) == 0
        out = capsys.readouterr().out
        assert "shards=4" in out
        assert "lanes/shard" in out
        assert "mean_shard_occupancy" in out

    def test_stream_sharded_rebalance(self, capsys):
        assert main(["stream", "--requests", "80", "--closed-loop",
                     "--policy", "fixed", "--batch-size", "16",
                     "--shards", "2", "--partitioner", "range",
                     "--rebalance", "--skew", "1.2",
                     "--kinds", "hash,list"]) == 0
        out = capsys.readouterr().out
        assert "migrations" in out


class TestCliBadInput:
    """Invalid sizes must exit 2 with usage help, not crash (ISSUE 2)."""

    @pytest.mark.parametrize("argv", [
        ["stream", "--shards", "0"],
        ["stream", "--shards", "-2"],
        ["stream", "--queue-capacity", "-3"],
        ["stream", "--queue-capacity", "0"],
        ["stream", "--batch-size", "-1"],
        ["stream", "--requests", "-5"],
        ["stream", "--requests", "0"],
        ["stream", "--mean-gap", "-2.0"],
        ["stream", "--deadline", "0"],
        ["stream", "--skew", "-0.5"],
        ["stream", "--table-size", "0"],
        ["stream", "--key-space", "-7"],
        ["stream", "--shards", "two"],
    ])
    def test_bad_sizes_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert "stream" in capsys.readouterr().out  # help was printed

    def test_bad_partitioner_exits_2(self, capsys):
        assert main(["stream", "--shards", "2",
                     "--partitioner", "zigzag"]) == 2

    @pytest.mark.parametrize("argv", [
        # non-positive bins (argparse _positive_int)
        ["stream", "--requests", "10", "--shards", "2", "--bins", "0"],
        ["stream", "--requests", "10", "--shards", "2", "--bins", "-8"],
        # fewer bins than shards (partition-map validation)
        ["stream", "--requests", "10", "--shards", "4", "--bins", "2"],
        # bins without a sharded engine
        ["stream", "--requests", "10", "--bins", "8"],
        # unknown pacing strategy (argparse choices)
        ["stream", "--requests", "10", "--shards", "2", "--rebalance",
         "--migration", "dribble"],
        # pacing without migration enabled
        ["stream", "--requests", "10", "--shards", "2",
         "--migration", "batched"],
        # the serve front-end validates the same pair before spawning
        ["serve", "--workers", "2", "--requests", "10",
         "--migration", "batched"],
        ["serve", "--workers", "2", "--requests", "10", "--bins", "0"],
        # shard flags at one worker, refused as at --shards 1
        ["serve", "--workers", "1", "--requests", "50", "--rebalance"],
        ["serve", "--workers", "1", "--requests", "50",
         "--partitioner", "range"],
        ["serve", "--workers", "1", "--requests", "50", "--bins", "8"],
    ])
    def test_bins_and_migration_validation_exits_2(self, argv, capsys):
        assert main(argv) == 2

    @pytest.mark.parametrize("argv", [
        # malformed tenant specs (parse_tenants grammar)
        ["stream", "--requests", "10", "--tenants", "A"],
        ["stream", "--requests", "10", "--tenants", "A=0.7,"],
        ["stream", "--requests", "10", "--tenants", "A=lots"],
        ["stream", "--requests", "10", "--tenants", "A=0.7:gauss"],
        ["stream", "--requests", "10", "--tenants", "A=0.7:zipfx"],
        ["stream", "--requests", "10", "--tenants", "A=0.5,A=0.5"],
        ["stream", "--requests", "10", "--tenants", "A=-1"],
        # malformed SLO specs (parse_slo grammar)
        ["stream", "--requests", "10", "--tenants", "A=1",
         "--slo", "A="],
        ["stream", "--requests", "10", "--tenants", "A=1",
         "--slo", "A=soon"],
        ["stream", "--requests", "10", "--tenants", "A=1",
         "--slo", "A=-5"],
        # stream SLOs are cycles; a wall-clock suffix is an error
        ["stream", "--requests", "10", "--tenants", "A=1",
         "--slo", "A=50ms"],
        # SLO for a tenant that was never declared
        ["stream", "--requests", "10", "--tenants", "A=1",
         "--slo", "B=5000"],
        # --slo / --qos without --tenants
        ["stream", "--requests", "10", "--slo", "A=5000"],
        ["stream", "--requests", "10", "--qos"],
        # --rebalance-objective without --rebalance
        ["stream", "--requests", "10", "--shards", "2",
         "--rebalance-objective", "worst-tenant"],
        # unknown objective (argparse choices)
        ["stream", "--requests", "10", "--shards", "2", "--rebalance",
         "--rebalance-objective", "roundrobin"],
        # non-positive burst factor (argparse _positive_float)
        ["stream", "--requests", "10", "--tenants", "A=1", "--qos",
         "--qos-burst", "0"],
        # serve validates the same combinations before spawning, and
        # its SLOs are wall-clock: a bare cycle count is an error
        ["serve", "--workers", "2", "--requests", "10", "--qos"],
        ["serve", "--workers", "2", "--requests", "10",
         "--slo", "A=50ms"],
        ["serve", "--workers", "2", "--requests", "10",
         "--tenants", "A=1", "--slo", "A=5000"],
        ["serve", "--workers", "2", "--requests", "10",
         "--tenants", "A=0.7:gauss"],
    ])
    def test_tenant_and_qos_validation_exits_2(self, argv, capsys):
        assert main(argv) == 2
