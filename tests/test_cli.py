"""Unit tests for the CLI entry point."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_experiment_positional(self):
        args = build_parser().parse_args(["fig7"])
        assert args.experiment == "fig7"
        assert not args.full

    def test_full_flag(self):
        args = build_parser().parse_args(["tab4", "--full"])
        assert args.full


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig5", "fig7", "tab6"):
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_experiment(self, capsys, monkeypatch):
        import repro.experiments as ex

        monkeypatch.setitem(ex.EXPERIMENTS, "fig7", type("M", (), {"main": staticmethod(lambda quick: f"ran quick={quick}")}))
        assert main(["fig7"]) == 0
        assert "ran quick=True" in capsys.readouterr().out

    def test_full_propagates(self, capsys, monkeypatch):
        import repro.experiments as ex

        monkeypatch.setitem(ex.EXPERIMENTS, "fig7", type("M", (), {"main": staticmethod(lambda quick: f"ran quick={quick}")}))
        assert main(["fig7", "--full"]) == 0
        assert "ran quick=False" in capsys.readouterr().out

    def test_all_with_json(self, capsys, monkeypatch, tmp_path):
        import repro.experiments as ex
        from repro.experiments.report import Table

        class FakeResult:
            rows = [{"v": 2}]

            def table(self):
                t = Table("fake-table", ["v"])
                t.add_row(2)
                return t

        fake = type("M", (), {"run": staticmethod(lambda quick: FakeResult())})
        monkeypatch.setattr(ex, "EXPERIMENTS", {"fig7": fake})
        out_path = tmp_path / "results.json"
        assert main(["all", "--json", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "===== fig7 =====" in out
        assert "fake-table" in out
        assert out_path.exists()


class TestServe:
    def test_serve_parser_defaults(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args([])
        assert args.rate == 100.0
        assert args.scheduler == "micco"
        assert args.arrivals == "poisson"
        assert args.json == "serve_report.json"

    def test_serve_end_to_end(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        rc = main([
            "serve", "--rate", "200", "--scheduler", "micco",
            "--num-vectors", "6", "--vector-size", "8", "--tensor-size", "64",
            "--batch", "2", "--num-devices", "2", "--json", str(report),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p50" in out and "latency report written" in out
        import json

        payload = json.loads(report.read_text())
        assert payload["summary"]["completed"] == 6
        assert payload["config"]["scheduler"] == "micco"

    def test_serve_groute_and_trace_export(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        trace = tmp_path / "trace.json"
        rc = main([
            "serve", "--scheduler", "groute", "--num-vectors", "4",
            "--vector-size", "8", "--tensor-size", "64", "--batch", "2",
            "--num-devices", "2", "--json", str(report), "--trace", str(trace),
        ])
        assert rc == 0
        import json

        assert json.loads(trace.read_text())["traceEvents"]

    def test_serve_trace_arrivals_from_json(self, capsys, tmp_path):
        from repro.serve import TraceArrivals

        arrivals = tmp_path / "arrivals.json"
        TraceArrivals([0.0, 0.01, 0.02, 0.03]).to_json(arrivals)
        report = tmp_path / "report.json"
        rc = main([
            "serve", "--arrivals", str(arrivals), "--num-vectors", "4",
            "--vector-size", "8", "--tensor-size", "64", "--batch", "2",
            "--num-devices", "2", "--json", str(report),
        ])
        assert rc == 0

    def test_serve_unknown_arrivals(self, capsys, tmp_path):
        rc = main(["serve", "--arrivals", "fractal", "--json", str(tmp_path / "r.json")])
        assert rc == 2
        assert "unknown arrival process" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--health", "--hedge"])
    def test_health_without_sharded_is_an_error(self, capsys, tmp_path, flag):
        # Health checks only exist on the sharded control plane; asking
        # for them on a one-shard run must not be silently ignored.
        rc = main(["serve", flag, "--num-vectors", "4", "--json", str(tmp_path / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "micco serve: error:" in err and "sharded=True" in err
        assert not (tmp_path / "r.json").exists()

    def test_list_mentions_serve(self, capsys):
        assert main(["list"]) == 0
        assert "serve" in capsys.readouterr().out


class TestChaos:
    def test_chaos_parser_inherits_serve_knobs(self):
        from repro.cli import build_chaos_parser

        args = build_chaos_parser().parse_args([])
        assert args.rate == 100.0  # serve knob present
        assert args.kill == 1
        assert args.json == "chaos_report.json"  # chaos-specific default

    def test_chaos_end_to_end_and_deterministic(self, capsys, tmp_path):
        import json

        def run(tag):
            report = tmp_path / f"{tag}.json"
            trace = tmp_path / f"{tag}.trace.json"
            rc = main([
                "chaos", "--seed", "0", "--num-vectors", "8",
                "--vector-size", "8", "--tensor-size", "64", "--batch", "2",
                "--num-devices", "4", "--json", str(report), "--trace", str(trace),
            ])
            assert rc == 0
            return report.read_text(), trace.read_text()

        r1, t1 = run("a")
        r2, t2 = run("b")
        assert r1 == r2  # byte-identical report
        assert t1 == t2  # byte-identical Chrome trace
        payload = json.loads(r1)
        assert payload["faults"]["device_losses"] == 1
        assert "availability_pct" in payload["faults"]
        assert payload["fault_plan"]
        out = capsys.readouterr().out
        assert "availability" in out and "recovery" in out

    def test_chaos_save_plan_feeds_serve_faults(self, capsys, tmp_path):
        import json

        plan = tmp_path / "plan.json"
        rc = main([
            "chaos", "--seed", "3", "--num-vectors", "6", "--vector-size", "8",
            "--tensor-size", "64", "--batch", "2", "--num-devices", "2",
            "--json", str(tmp_path / "c.json"), "--save-plan", str(plan),
        ])
        assert rc == 0 and plan.exists()
        report = tmp_path / "s.json"
        rc = main([
            "serve", "--faults", str(plan), "--num-vectors", "6",
            "--vector-size", "8", "--tensor-size", "64", "--batch", "2",
            "--num-devices", "2", "--json", str(report),
        ])
        assert rc == 0
        assert "faults" in json.loads(report.read_text())

    def test_serve_missing_fault_plan(self, capsys, tmp_path):
        rc = main([
            "serve", "--faults", str(tmp_path / "absent.json"),
            "--json", str(tmp_path / "r.json"),
        ])
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err

    def test_chaos_no_recovery_flag(self, capsys, tmp_path):
        rc = main([
            "chaos", "--seed", "1", "--no-recovery", "--num-vectors", "6",
            "--vector-size", "8", "--tensor-size", "64", "--batch", "2",
            "--num-devices", "2", "--json", str(tmp_path / "r.json"),
        ])
        assert rc == 0

    def test_list_mentions_chaos(self, capsys):
        assert main(["list"]) == 0
        assert "chaos" in capsys.readouterr().out


class TestServeConfigFile:
    def make_config(self, tmp_path, **overrides):
        from repro.serve import AutoscalerConfig, PoissonArrivals, ServeConfig, TenantSpec
        from repro.workloads import WorkloadParams

        cfg = ServeConfig(
            tenants=(
                TenantSpec(
                    "heavy",
                    PoissonArrivals(200.0),
                    WorkloadParams(num_vectors=5, vector_size=8, tensor_size=64, batch=2),
                    weight=3.0,
                ),
                TenantSpec(
                    "light",
                    PoissonArrivals(200.0),
                    WorkloadParams(num_vectors=5, vector_size=8, tensor_size=64, batch=2),
                ),
            ),
            autoscaler=AutoscalerConfig(max_devices=4),
            **overrides,
        )
        path = tmp_path / "serve.json"
        cfg.to_json(path)
        return path

    def test_config_end_to_end_multi_tenant(self, capsys, tmp_path):
        import json

        cfg = self.make_config(tmp_path)
        report = tmp_path / "report.json"
        rc = main(["serve", "--config", str(cfg), "--num-devices", "4", "--json", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tenant" in out and "heavy" in out and "autoscale" in out
        payload = json.loads(report.read_text())
        assert set(payload["tenants"]) == {"heavy", "light"}
        assert payload["summary"]["queue"]["policy"] == "weighted"
        assert "autoscale" in payload
        assert payload["config"]["serve"]["tenants"]

    def test_config_runs_are_byte_identical(self, capsys, tmp_path):
        cfg = self.make_config(tmp_path)

        def run(tag):
            report = tmp_path / f"{tag}.json"
            assert main(["serve", "--config", str(cfg), "--json", str(report)]) == 0
            return report.read_text()

        assert run("a") == run("b")

    def test_flags_override_config(self, capsys, tmp_path):
        import json

        cfg = self.make_config(tmp_path, queue_capacity=7)
        report = tmp_path / "report.json"
        rc = main([
            "serve", "--config", str(cfg), "--queue-capacity", "3",
            "--queue-policy", "fifo", "--json", str(report),
        ])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["summary"]["queue"]["capacity"] == 3
        assert payload["summary"]["queue"]["policy"] == "fifo"

    def test_missing_config_errors(self, capsys, tmp_path):
        rc = main(["serve", "--config", str(tmp_path / "absent.json"), "--json", str(tmp_path / "r.json")])
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err

    def test_bad_config_reports_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"queue_capcity": 3}')
        rc = main(["serve", "--config", str(bad), "--json", str(tmp_path / "r.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_tenant_workload_key_exits_2(self, capsys, tmp_path):
        # A misspelt key inside a nested block used to escape as a
        # TypeError traceback instead of a clean usage error.
        import json

        path = self.make_config(tmp_path)
        doc = json.loads(path.read_text())
        doc["tenants"][0]["workload"]["vectr_size"] = 8
        path.write_text(json.dumps(doc))
        rc = main(["serve", "--config", str(path), "--json", str(tmp_path / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "vectr_size" in err and "tenants[0].workload" in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_corrupt_json_reports_cleanly(self, capsys, tmp_path):
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("not json at all")
        for flag in ("--config", "--arrivals", "--faults"):
            rc = main(["serve", flag, str(corrupt), "--json", str(tmp_path / "r.json")])
            assert rc == 2
            assert "malformed JSON" in capsys.readouterr().err

    def test_sharded_autoscale_line(self, capsys, tmp_path):
        # Both server classes report the autoscale section the same way;
        # the console line takes the pool bounds from the config.
        from pathlib import Path

        example = Path(__file__).resolve().parent.parent / "examples" / "tenants.json"
        rc = main([
            "serve", "--config", str(example), "--sharded", "--num-devices", "8",
            "--devices-per-node", "4", "--json", str(tmp_path / "r.json"),
        ])
        assert rc == 0
        assert "within [1, 4] devices" in capsys.readouterr().out

    def test_autoscale_line_prints_the_clamped_bounds(self, capsys, tmp_path):
        config = tmp_path / "wide.json"
        config.write_text('{"autoscaler": {"max_devices": 64}}')
        base = ["serve", "--config", str(config), "--num-vectors", "10", "--num-devices", "8"]
        assert main([*base, "--json", str(tmp_path / "a.json")]) == 0
        out = capsys.readouterr().out
        assert "within [1, 8] devices\n" in out and "[1, 64]" not in out
        sharded = ["--sharded", "--devices-per-node", "4", "--json", str(tmp_path / "b.json")]
        assert main([*base, *sharded]) == 0
        assert (
            "within [1, 4] devices on shard 0, [1, 4] devices on shard 1\n"
            in capsys.readouterr().out
        )

    def test_example_tenants_config_parses(self):
        from pathlib import Path

        from repro.serve import ServeConfig

        example = Path(__file__).resolve().parent.parent / "examples" / "tenants.json"
        cfg = ServeConfig.from_json(example)
        assert len(cfg.tenants) == 2 and cfg.autoscaler is not None


class TestFailureDomainsCli:
    def test_new_flags_parse_with_defaults(self):
        from repro.cli import build_chaos_parser, build_serve_parser

        args = build_serve_parser().parse_args([])
        assert args.devices_per_node is None
        assert args.warm_restore is False
        assert args.fault_aware is False
        cargs = build_chaos_parser().parse_args([])
        assert cargs.kill_nodes == 0

    def test_node_loss_end_to_end(self, capsys, tmp_path):
        import json

        report = tmp_path / "r.json"
        rc = main([
            "chaos", "--seed", "0", "--num-vectors", "8", "--vector-size", "8",
            "--tensor-size", "64", "--batch", "2", "--num-devices", "8",
            "--devices-per-node", "4", "--kill", "0", "--kill-nodes", "1",
            "--json", str(report),
        ])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["faults"]["node_losses"] == 1
        assert payload["faults"]["device_losses"] == 4  # whole node
        out = capsys.readouterr().out
        assert "node loss" in out

    def test_warm_restore_and_fault_aware_flags(self, capsys, tmp_path):
        import json

        report = tmp_path / "r.json"
        rc = main([
            "chaos", "--seed", "0", "--num-vectors", "8", "--vector-size", "8",
            "--tensor-size", "64", "--batch", "2", "--num-devices", "4",
            "--warm-restore", "--fault-aware", "--json", str(report),
        ])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["config"]["serve"]["warm_restore"] is True
        assert payload["config"]["serve"]["fault_aware_admission"] is True
        # The fault-aware gate sits before routing; the queue keeps FIFO order.
        assert payload["queue"]["policy"] == "fifo"
        assert "journal" in payload

    def test_node_loss_runs_are_byte_identical(self, tmp_path):
        def run(tag):
            report = tmp_path / f"{tag}.json"
            trace = tmp_path / f"{tag}.trace.json"
            rc = main([
                "chaos", "--seed", "7", "--num-vectors", "8", "--vector-size", "8",
                "--tensor-size", "64", "--batch", "2", "--num-devices", "8",
                "--devices-per-node", "4", "--kill-nodes", "1",
                "--json", str(report), "--trace", str(trace),
            ])
            assert rc == 0
            return report.read_text(), trace.read_text()

        assert run("a") == run("b")
