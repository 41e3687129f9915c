"""The command-line interface."""

import io

import pytest

from repro.cli import main


def run_cli(*argv: str) -> str:
    out = io.StringIO()
    code = main(list(argv), out)
    assert code == 0
    return out.getvalue()


class TestProgramCommand:
    def test_xmark_program(self):
        output = run_cli("program", "MF", "LF")
        assert "scan=24 combine=21 split=0 write=3" in output
        assert "Write(" in output
        assert "@S" in output and "@T" in output

    def test_customer_program(self):
        output = run_cli("program", "S", "T")
        assert "scan=5 combine=2 split=1 write=4" in output
        assert "Split(Line_Feature)" in output

    def test_publishing_program(self):
        output = run_cli("program", "S", "DOC")
        assert "combine=4" in output and "write=1" in output

    def test_dot_output(self):
        output = run_cli("program", "S", "T", "--dot")
        assert output.strip().split("\n", 1)[1].startswith("digraph")

    def test_greedy_optimizer(self):
        output = run_cli("program", "S", "T", "--optimizer", "greedy")
        assert "optimizer=greedy" in output

    def test_mixed_workloads_rejected(self):
        with pytest.raises(SystemExit):
            main(["program", "MF", "T"], io.StringIO())


class TestWsdlCommand:
    def test_registration_document(self):
        output = run_cli("wsdl", "LF")
        assert "<definitions" in output
        assert "<fragmentation" in output
        assert "item" in output


class TestExchangeCommand:
    def test_runs_both_pipelines(self):
        output = run_cli(
            "exchange", "MF", "LF", "--size", "2.5",
            "--scale", "0.02",
        )
        assert "DE" in output and "PM" in output
        assert "saving" in output

    def test_rejects_customer_keys(self):
        with pytest.raises(SystemExit):
            main(["exchange", "S", "T"], io.StringIO())

    def test_workers_flag_is_gone(self, capsys):
        """The program phase has one schedule: ``exchange`` takes no
        worker count (``loadgen --workers`` is session concurrency)."""
        with pytest.raises(SystemExit) as exited:
            main(["exchange", "MF", "MF", "--workers", "2"],
                 io.StringIO())
        assert exited.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_streaming_batch_rows(self):
        output = run_cli(
            "exchange", "MF", "MF", "--size", "2.5",
            "--scale", "0.02", "--batch-rows", "64",
        )
        assert "streaming dataplane (batch_rows=64)" in output
        assert "resident rows" in output

    def test_bad_batch_rows_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["exchange", "MF", "MF", "--batch-rows", "0"],
                io.StringIO(),
            )

    def test_columnar_keeps_explicit_batch_rows(self):
        # MF -> LF: the combine-heavy direction, batched (the
        # streaming test above has nothing to combine).
        output = run_cli(
            "exchange", "MF", "LF", "--size", "2.5",
            "--scale", "0.02", "--batch-rows", "32",
        )
        assert "streaming dataplane (batch_rows=32)" in output


class TestAdaptiveExchange:
    def test_stats_store_persists_and_warms(self, tmp_path):
        import json

        path = tmp_path / "stats.json"
        cold = run_cli(
            "exchange", "MF", "LF", "--size", "2.5",
            "--scale", "0.02",
            "--stats-store", str(path),
        )
        assert f"pair(s) learned -> {path}" in cold
        state = json.loads(path.read_text(encoding="utf-8"))
        assert state["ingests"] > 0
        warm = run_cli(
            "exchange", "MF", "LF", "--size", "2.5",
            "--scale", "0.02",
            "--stats-store", str(path),
        )
        assert "statistics store: 1 endpoint pair(s)" in warm
        warmed = json.loads(path.read_text(encoding="utf-8"))
        # The second run loaded the first run's store and kept learning.
        assert warmed["ingests"] > state["ingests"]

    @pytest.mark.parametrize("content, message", [
        ("[]", "JSON object"),
        ('{"ratios": {"p": {"k": 5}}}', "'ratios'"),
        ("{not json", "not valid JSON"),
    ], ids=["list", "wrong-entry-shape", "invalid-json"])
    def test_malformed_stats_store_rejected(self, tmp_path, content,
                                            message):
        path = tmp_path / "stats.json"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(SystemExit, match=f"--stats-store: .*{message}"):
            main(
                ["exchange", "MF", "LF", "--size", "2.5",
                 "--scale", "0.02", "--stats-store", str(path)],
                io.StringIO(),
            )


class TestSimulateCommand:
    def test_table5_config(self):
        output = run_cli(
            "simulate", "--ratio", "5/1", "--trials", "2",
            "--fragments", "6",
        )
        assert "Worst/Optimal" in output
        assert "Greedy/Optimal" in output

    def test_bad_ratio_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--ratio", "fast"], io.StringIO())

    @pytest.mark.parametrize("flag, value", [
        ("--ratio", "1/0"),
        ("--ratio", "0/1"),
        ("--trials", "0"),
        ("--fragments", "0"),
    ])
    def test_bad_arguments_name_the_flag(self, flag, value):
        with pytest.raises(SystemExit, match=flag):
            main(["simulate", flag, value], io.StringIO())


class TestLossyExchange:
    def test_fault_plan_prints_robustness_summary(self):
        output = run_cli(
            "exchange", "MF", "LF", "--size", "2.5",
            "--scale", "0.02", "--batch-rows", "32",
            "--fault-plan", "drop=0.1,corrupt=0.05,seed=7",
            "--retries", "6",
        )
        assert "lossy channel" in output
        assert "drop=0.1" in output
        assert "saving" in output  # the exchange still completes

    def test_bad_fault_plan_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["exchange", "MF", "MF",
                 "--fault-plan", "drop=2.0"],
                io.StringIO(),
            )

    def test_bad_fault_seed_names_the_token(self):
        with pytest.raises(SystemExit, match="--fault-plan: .*'seed=x'"):
            main(
                ["exchange", "MF", "MF", "--fault-plan", "seed=x"],
                io.StringIO(),
            )

    def test_bad_retries_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["exchange", "MF", "MF",
                 "--fault-plan", "drop=0.1", "--retries", "0"],
                io.StringIO(),
            )


class TestTraceFlags:
    def test_jsonl_trace_written(self, tmp_path):
        import json

        path = tmp_path / "run.jsonl"
        output = run_cli(
            "exchange", "MF", "MF", "--size", "2.5",
            "--trace", str(path),
        )
        assert f"-> {path}" in output
        lines = path.read_text().strip().splitlines()
        assert lines
        categories = {json.loads(line)["cat"] for line in lines}
        assert {"op", "ship", "step"} <= categories

    def test_chrome_trace_loads(self, tmp_path):
        import json

        path = tmp_path / "run.json"
        run_cli(
            "exchange", "MF", "MF", "--size", "2.5",
            "--trace", str(path), "--trace-format", "chrome",
        )
        document = json.loads(path.read_text())
        assert any(
            event["ph"] == "X" for event in document["traceEvents"]
        )

    def test_metrics_table_printed(self):
        output = run_cli(
            "exchange", "MF", "MF", "--size", "2.5", "--metrics",
        )
        assert "op.scan.seconds" in output
        assert "ship.messages" in output

    def test_drift_report_printed(self):
        output = run_cli(
            "exchange", "MF", "MF", "--size", "2.5", "--drift",
        )
        assert "per-kind drift" in output
        assert "comm" in output

    def test_simulate_trace(self, tmp_path):
        import json

        path = tmp_path / "sim.jsonl"
        run_cli(
            "simulate", "--trials", "1", "--fragments", "5",
            "--trace", str(path),
        )
        lines = path.read_text().strip().splitlines()
        assert {json.loads(line)["cat"] for line in lines} == {"sim"}


class TestServiceTier:
    def test_exchange_over_tcp_transport(self):
        output = run_cli(
            "exchange", "MF", "LF", "--transport", "tcp",
            "--size", "1.0", "--scale", "0.02",
        )
        assert "DE" in output and "PM" in output

    def test_brokered_tcp_sessions(self):
        output = run_cli(
            "exchange", "MF", "LF", "--transport", "tcp",
            "--sessions", "2", "--size", "1.0", "--scale", "0.02",
        )
        assert "brokered session(s)" in output

    def test_delta_exchange(self):
        output = run_cli(
            "exchange", "LF", "MF", "--delta",
            "--size", "1.0", "--scale", "0.02",
        )
        assert "delta re-exchange LF->MF, change rate 0.1" in output
        assert "delta/full communication:" in output
        assert "byte-identity vs full re-exchange: OK" in output

    def test_delta_exchange_columnar(self):
        output = run_cli(
            "exchange", "MF", "LF", "--delta",
            "--change-rate", "0.05",
            "--size", "1.0", "--scale", "0.02",
        )
        assert "change rate 0.05" in output
        assert "byte-identity vs full re-exchange: OK" in output

    def test_delta_rejects_bad_combinations(self):
        with pytest.raises(SystemExit):
            main(["exchange", "MF", "LF", "--delta",
                  "--sessions", "2"], io.StringIO())
        with pytest.raises(SystemExit):
            main(["exchange", "MF", "LF", "--delta",
                  "--change-rate", "0"], io.StringIO())
        with pytest.raises(SystemExit):
            main(["exchange", "MF", "LF", "--delta",
                  "--since", "-1"], io.StringIO())

    @pytest.mark.parametrize("flag, value, mode", [
        ("--since", "5", "--delta"),
        ("--change-rate", "0.5", "--delta"),
        ("--trace-format", "chrome", "--trace"),
    ])
    def test_mode_flag_without_its_mode_rejected(self, flag, value,
                                                 mode):
        with pytest.raises(SystemExit,
                           match=f"^{flag} needs {mode}"):
            main(["exchange", "MF", "LF", "--size", "1.0",
                  "--scale", "0.02", flag, value], io.StringIO())

    @pytest.mark.parametrize("brokered", [
        ["--sessions", "2"],
        ["--plan-cache"],
    ])
    def test_drift_rejects_brokered_sessions(self, brokered):
        # Drift prices the CLI's own program; without a cache each
        # brokered session negotiates a program of its own.
        with pytest.raises(SystemExit) as exit_info:
            main(["exchange", "MF", "LF", "--size", "1.0",
                  "--scale", "0.02", "--drift", *brokered],
                 io.StringIO())
        message = str(exit_info.value)
        assert "--drift" in message and brokered[0] in message

    def test_delta_since_ahead_of_the_version_log(self):
        # The run has two mutation batches behind it at most; version
        # 999 is one the source never reached.  A clean exit naming
        # both versions, not an empty delta reported as a sync.
        with pytest.raises(SystemExit) as exit_info:
            main(["exchange", "LF", "MF", "--delta", "--since", "999",
                  "--size", "1.0", "--scale", "0.02"], io.StringIO())
        message = str(exit_info.value)
        assert message.startswith("--since:")
        assert "version 999" in message and "only at version" in message

    def test_serve_smoke(self):
        output = run_cli(
            "serve", "--http-port", "0", "--feed-port", "0",
            "--duration", "0.2",
        )
        assert "control plane: http://" in output
        assert "data plane:" in output

    def test_serve_rejects_bad_duration(self):
        with pytest.raises(SystemExit):
            main(["serve", "--duration", "0"], io.StringIO())

    def test_loadgen_smoke(self, tmp_path):
        out_file = tmp_path / "BENCH_load.json"
        output = run_cli(
            "loadgen", "--sessions", "3", "--workers", "3",
            "--size", "0.5", "--scale", "0.02",
            "--out", str(out_file),
        )
        assert "p95" in output
        assert "failed      0" in output
        assert out_file.exists()

    def test_loadgen_rejects_bad_sessions(self):
        with pytest.raises(SystemExit):
            main(["loadgen", "--sessions", "0"], io.StringIO())

    def test_loadgen_rejects_bad_batch_rows_before_serving(self):
        out = io.StringIO()
        with pytest.raises(SystemExit, match="--batch-rows"):
            main(["loadgen", "--sessions", "2", "--batch-rows", "0"], out)
        assert out.getvalue() == ""
