"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table2_accepts_ids(self):
        args = build_parser().parse_args(["table2", "557.xz_r", "505.mcf_r"])
        assert args.benchmarks == ["557.xz_r", "505.mcf_r"]

    def test_generate_seed(self):
        args = build_parser().parse_args(["generate", "505.mcf_r", "--seed", "9"])
        assert args.seed == 9


class TestObservability:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("obs")
        paths = {
            "metrics": root / "metrics.json",
            "prom": root / "metrics.prom",
            "chrome": root / "trace.chrome.json",
            "trace": root / "trace.jsonl",
        }
        rc = main(
            ["suite", "505.mcf_r", "--no-cache",
             "--metrics", str(paths["metrics"]),
             "--prom", str(paths["prom"]),
             "--chrome-trace", str(paths["chrome"]),
             "--trace", str(paths["trace"])]
        )
        assert rc == 0
        return paths

    def test_suite_writes_all_three_artifacts(self, artifacts):
        for path in artifacts.values():
            assert path.exists() and path.stat().st_size > 0

    def test_prom_snapshot_is_text_exposition(self, artifacts):
        text = artifacts["prom"].read_text()
        assert "# TYPE repro_stage_seconds histogram" in text
        assert "repro_cells_total" in text

    def test_chrome_trace_loads_as_trace_event_json(self, artifacts):
        import json

        doc = json.loads(artifacts["chrome"].read_text())
        cats = {e.get("cat") for e in doc["traceEvents"] if e["ph"] == "X"}
        assert cats == {"run", "cell", "stage"}

    def test_metrics_show_renders_stage_percentiles(self, artifacts, capsys):
        assert main(["metrics", "show", str(artifacts["metrics"])]) == 0
        out = capsys.readouterr().out
        assert "p50" in out and "p95" in out and "p99" in out
        assert "repro_stage_seconds" in out

    def test_metrics_prom_matches_suite_export(self, artifacts, capsys):
        assert main(["metrics", "prom", str(artifacts["metrics"])]) == 0
        assert capsys.readouterr().out.strip() == artifacts["prom"].read_text().strip()

    def test_metrics_show_json(self, artifacts, capsys):
        import json

        assert main(["metrics", "show", str(artifacts["metrics"]), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        hist = {h["metric"] for h in data["histograms"]}
        assert "repro_stage_seconds" in hist
        for h in data["histograms"]:
            assert {"metric", "labels", "count", "p50", "p95", "p99"} <= set(h)
        assert any(s["metric"] == "repro_cells_total" for s in data["scalars"])

    def test_trace_summary_json(self, artifacts, capsys):
        import json

        assert main(["trace", "summary", str(artifacts["trace"]), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cells"] > 0 and data["failed"] == 0
        assert data["captures"] > 0 and data["replays"] > 0
        assert data["failed_cells"] == []

    def test_trace_summary_json_lists_failed_cells(self, tmp_path, capsys):
        import json

        from repro.core.trace import CellSpan, TraceWriter

        path = tmp_path / "t.jsonl"
        writer = TraceWriter(path)
        writer.start()
        writer.span(CellSpan("505.mcf_r", "mcf.test", "off", 2, 0.1,
                             "failed", "boom"))
        writer.finish()
        writer.close()
        assert main(["trace", "summary", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        cell, = data["failed_cells"]
        assert cell["workload"] == "mcf.test" and cell["error"] == "boom"

    def test_metrics_missing_snapshot_exits_2(self, tmp_path, capsys):
        assert main(["metrics", "show", str(tmp_path / "nope.json")]) == 2
        assert "no snapshot" in capsys.readouterr().err

    def test_metrics_garbage_snapshot_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["metrics", "show", str(path)]) == 2
        assert "unreadable snapshot" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "505.mcf_r" in out
        assert "no Table II row" in out  # x264

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Arithmetic Average" in out

    def test_generate(self, capsys):
        assert main(["generate", "548.exchange2_r", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "verified : yes" in out
        assert "exchange2" in out

    def test_report(self, capsys):
        assert main(["report", "548.exchange2_r"]) == 0
        out = capsys.readouterr().out
        assert "mu_g(V)" in out

    def test_validate(self, capsys):
        assert main(["validate", "505.mcf_r"]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out

    def test_table2_single(self, capsys):
        assert main(["table2", "548.exchange2_r"]) == 0
        out = capsys.readouterr().out
        assert "548.exchange2_r" in out
        assert "mu_g(V)" in out

    def test_suite_verbose_replay_line_under_any_worker_count(self, capsys):
        """Worker registries merge into the parent's, so ``--verbose``
        reports the same replay volume with and without a pool."""
        lines = []
        for workers in ("1", "2"):
            argv = ["suite", "505.mcf_r", "--no-cache", "--verbose", "--workers", workers]
            assert main(argv) == 0
            err = capsys.readouterr().err
            assert "needs --workers 1" not in err
            (line,) = [ln for ln in err.splitlines() if ln.startswith("replay: ")]
            lines.append(line.split(",")[0])
        assert lines == ["replay: 537508 events over 7 evaluations"] * 2

    def test_fig1(self, capsys):
        assert main(["fig1", "548.exchange2_r"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_fig2(self, capsys):
        assert main(["fig2", "548.exchange2_r"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    @pytest.mark.slow
    def test_export_bundle(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert main(["export", str(out), "548.exchange2_r", "557.xz_r", "541.leela_r"]) == 0
        assert (out / "table1.txt").exists()
        assert (out / "table2.txt").exists()
        assert (out / "table2.json").exists()
        assert (out / "sensitivity.txt").exists()
        assert (out / "comparison.json").exists()
        assert (out / "reports" / "548.exchange2_r.txt").exists()
        assert (out / "figures" / "557.xz_r.fig1.txt").exists()
        assert (out / "figures" / "557.xz_r.fig2.txt").exists()
