"""Run-trace journal tests: writer, readers, CLI, registry counters."""

import json

import pytest

from repro.cli import main
from repro.core import metrics
from repro.core.ledger import _counter_by_benchmark
from repro.core.trace import (
    CellSpan,
    RunSummary,
    TraceWriter,
    export_chrome_trace,
    read_trace,
    render_trace_spans,
    summarize_trace,
    trace_spans,
)

SPANS = [
    CellSpan("505.mcf_r", "mcf.refrate", "miss", 1, 0.05, "ok"),
    CellSpan("505.mcf_r", "mcf.train", "hit", 0, 0.0, "ok"),
    CellSpan("505.mcf_r", "mcf.test", "miss", 3, 0.21, "failed", "boom"),
    CellSpan("557.xz_r", "xz.refrate", "off", 2, 0.40, "timeout", "cell timed out"),
]


def write_journal(path, spans=SPANS, finish=True):
    writer = TraceWriter(path)
    writer.start({"workers": 2, "strict": False})
    for span in spans:
        writer.span(span)
    if finish:
        writer.finish()
    writer.close()
    return writer


class TestWriter:
    def test_journal_round_trips(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = write_journal(path)

        records = read_trace(path)
        assert [r["type"] for r in records] == ["run_start"] + ["span"] * 4 + ["summary"]
        assert records[0]["workers"] == 2
        assert trace_spans(path) == SPANS

        summary = summarize_trace(path)
        assert summary == writer.summary
        assert summary.cells == 4
        assert summary.ok == 2
        assert summary.failed == 2
        assert summary.cache_hits == 1
        assert summary.cache_misses == 2
        assert summary.retries == (3 - 1) + (2 - 1)  # attempts beyond the first
        assert summary.timeouts == 1
        assert summary.crashes == 0

    def test_finish_is_idempotent(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = TraceWriter(path)
        writer.start()
        writer.span(SPANS[0])
        first = writer.finish()
        assert writer.finish() is first
        writer.close()
        assert sum(1 for r in read_trace(path) if r["type"] == "summary") == 1

    def test_tally_only_writer_has_no_path(self):
        writer = TraceWriter(None)
        writer.start()
        writer.span(SPANS[0])
        summary = writer.finish()
        assert writer.path is None
        assert summary.cells == 1

    def test_quarantine_tally_reaches_summary(self, tmp_path):
        writer = TraceWriter(tmp_path / "run.jsonl")
        writer.start()
        writer.quarantine(2)
        assert writer.finish().quarantined == 2
        writer.close()


class TestTruncatedJournal:
    def test_readers_survive_a_killed_run(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_journal(path, finish=False)  # no summary record
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"type":"span","benchmark":"999.trunc')  # torn write

        spans = trace_spans(path)
        assert spans == SPANS  # torn tail skipped
        summary = summarize_trace(path)  # recomputed from spans
        assert summary.cells == 4
        assert summary.failed == 2
        assert summary.timeouts == 1

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("\n" + json.dumps(SPANS[0].to_dict()) + "\n\n")
        assert trace_spans(path) == [SPANS[0]]


class TestRetiredFields:
    def test_journal_with_sampled_replay_fields_still_loads(self, tmp_path):
        """Journals written with phase-sampled replay carry ``sampled``
        spans, a ``sample`` stage and ``replays_sampled`` in the summary;
        the retired keys are ignored, everything else decodes."""
        path = tmp_path / "old.jsonl"
        span = {**SPANS[0].to_dict(), "sampled": True, "replay": "run",
                "span_id": "c1", "parent_id": "run"}
        stage = {"type": "stage", "name": "sample", "benchmark": span["benchmark"],
                 "workload": span["workload"], "start_s": 0.0, "duration_s": 0.1,
                 "span_id": "c1.s", "parent_id": "c1"}
        summary = {**RunSummary(cells=1, ok=1, replays=1).to_dict(),
                   "replays_sampled": 1}
        path.write_text("\n".join(json.dumps(r) for r in (span, stage, summary)) + "\n")
        assert trace_spans(path)[0].workload == span["workload"]
        got = summarize_trace(path)
        assert (got.cells, got.replays) == (1, 1)
        assert "sample" in render_trace_spans(path)
        assert export_chrome_trace(path)["traceEvents"]


def _mcf_cells(registry):
    """``repro_cells_total`` for 505.mcf_r, summed over outcome and cache."""
    by_benchmark = _counter_by_benchmark(registry.to_dict(), metrics.CELLS_TOTAL.name)
    return by_benchmark.get("505.mcf_r", 0)


@pytest.fixture(scope="module")
def mcf_sessions():
    """Two sessions characterizing 505.mcf_r back to back, plus the
    global registry's mcf cell delta across both."""
    from repro.core.run import Session

    before = _mcf_cells(metrics.global_registry())
    with Session(workers=1, cache=None) as first:
        first.characterize("505.mcf_r")
    with Session(workers=1, cache=None) as second:
        second.characterize("505.mcf_r")
    return first, second, _mcf_cells(metrics.global_registry()) - before


class TestRegistryCounters:
    """Run traffic lands in the metrics registry; the global registry
    holds every session's traffic."""

    def test_finished_writer_counts_one_run(self):
        reg = metrics.MetricsRegistry()
        with metrics.collector(reg):
            writer = TraceWriter(None)
            writer.start()
            for span in SPANS:
                writer.span(span)
            writer.finish()
            writer.finish()  # idempotent: still one run
        assert reg.value(metrics.RUNS_TOTAL) == 1

    def test_global_registry_covers_both_sessions(self, mcf_sessions):
        _, _, global_delta = mcf_sessions
        assert global_delta == 14


class TestTelemetryScope:
    """Per-run metric windows stop cross-run counter bleed: a collector
    registry sees only what was recorded while it was active."""

    def test_two_scopes_do_not_bleed(self):
        labels = {"benchmark": "505.mcf_r", "outcome": "ok", "cache": "miss"}
        first, second = metrics.MetricsRegistry(), metrics.MetricsRegistry()
        with metrics.collector(first):
            metrics.inc(metrics.CELLS_TOTAL, 3, **labels)
            with metrics.collector(second):
                metrics.inc(metrics.CELLS_TOTAL, 4, **labels)
        metrics.inc(metrics.CELLS_TOTAL, 5, **labels)  # outside both windows
        assert first.value(metrics.CELLS_TOTAL, **labels) == 7
        assert second.value(metrics.CELLS_TOTAL, **labels) == 4

    def test_session_scope_is_per_session(self, mcf_sessions):
        # Each session's registry is its own window: it reports exactly
        # its own 7 mcf cells, not the other session's.
        first, second, _ = mcf_sessions
        assert _mcf_cells(first.metrics) == 7
        assert _mcf_cells(second.metrics) == 7


class TestConcurrentAppend:
    """Readers must tolerate a journal that is still being appended."""

    def test_reader_mid_torn_write_sees_a_clean_prefix(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_journal(path, spans=SPANS[:2], finish=False)
        # Simulate a writer caught mid-line: no trailing newline yet.
        with path.open("a", encoding="utf-8") as fh:
            line = json.dumps(SPANS[2].to_dict())
            fh.write(line[: len(line) // 2])
            fh.flush()
            assert trace_spans(path) == SPANS[:2]  # torn tail skipped
            fh.write(line[len(line) // 2 :] + "\n")
        assert trace_spans(path) == SPANS[:3]  # completed line now visible

    def test_reader_races_a_writer_thread(self, tmp_path):
        import threading
        import time as _time

        path = tmp_path / "run.jsonl"
        path.touch()
        n = 50
        done = threading.Event()

        def append_spans():
            with path.open("a", encoding="utf-8") as fh:
                for i in range(n):
                    span = CellSpan("505.mcf_r", f"w{i}", "off", 1, 0.01, "ok")
                    fh.write(json.dumps(span.to_dict()) + "\n")
                    fh.flush()
                    _time.sleep(0.001)
            done.set()

        writer = threading.Thread(target=append_spans)
        writer.start()
        counts = []
        try:
            while not done.is_set():
                counts.append(len(trace_spans(path)))  # must never raise
        finally:
            writer.join()
        counts.append(len(trace_spans(path)))
        assert counts[-1] == n
        assert counts == sorted(counts)  # reads only ever grow


class TestSpanTree:
    """Engine runs journal a run -> cell -> stage tree."""

    @pytest.fixture(scope="class")
    def journal(self, tmp_path_factory):
        from repro.core.run import Session

        path = tmp_path_factory.mktemp("tree") / "run.jsonl"
        with Session(workers=1, cache=None, trace=path) as session:
            session.characterize("505.mcf_r")
        return path

    def test_cells_parent_on_the_run_root(self, journal):
        from repro.core.trace import RUN_SPAN_ID

        spans = trace_spans(journal)
        assert spans and all(s.parent_id == RUN_SPAN_ID for s in spans)
        assert len({s.span_id for s in spans}) == len(spans)  # unique ids

    def test_stages_parent_on_their_cell(self, journal):
        from repro.core.trace import STAGE_NAMES, trace_stages

        spans = trace_spans(journal)
        stages = trace_stages(journal)
        cell_ids = {s.span_id for s in spans}
        assert stages
        for stage in stages:
            assert stage.name in STAGE_NAMES
            assert stage.parent_id in cell_ids or stage.parent_id == "run"
        # Every fresh cell ran generate/capture/replay.
        by_parent = {}
        for stage in stages:
            by_parent.setdefault(stage.parent_id, set()).add(stage.name)
        for span in spans:
            if span.cache != "hit":
                assert {"generate", "capture", "replay"} <= by_parent[span.span_id]

    def test_chrome_export_nests_stages_inside_cells(self, journal):
        from repro.core.trace import export_chrome_trace

        doc = export_chrome_trace(journal)
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        cells = [e for e in events if e["cat"] == "cell"]
        stages = [e for e in events if e["cat"] == "stage"]
        assert cells and stages
        tids = {e["tid"] for e in cells}
        for stage in stages:
            # Cell stages render on their cell's lane; run-level stages
            # (workload-set generate, summarize) render on the run
            # root's track 0.
            assert stage["tid"] in tids or (
                stage["name"] in ("generate", "summarize") and stage["tid"] == 0
            )
        assert doc["displayTimeUnit"] == "ms"


class TestCli:
    @pytest.fixture(scope="class")
    def journal(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "run.jsonl"
        rc = main(["suite", "505.mcf_r", "--no-cache", "--trace", str(path)])
        assert rc == 0
        return path

    def test_suite_writes_a_complete_journal(self, journal):
        summary = summarize_trace(journal)
        assert summary.cells == 7  # the mcf Alberta set
        assert summary.failed == 0

    def test_trace_summary_renders(self, journal, capsys):
        assert main(["trace", "summary", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "cells      : 7  (7 ok, 0 failed)" in out

    def test_trace_show_lists_every_cell(self, journal, capsys):
        assert main(["trace", "show", str(journal)]) == 0
        out = capsys.readouterr().out
        assert out.count("505.mcf_r") == 7
        assert "mcf.alberta.sparse" in out

    def test_trace_summary_names_failed_cells(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        write_journal(path)
        assert main(["trace", "summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "failed cells:" in out
        assert "505.mcf_r/mcf.test: failed after 3 attempt(s) — boom" in out

    def test_missing_journal_exits_2(self, tmp_path, capsys):
        assert main(["trace", "summary", str(tmp_path / "nope.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line diagnostic
        assert "no journal" in err

    def test_empty_journal_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        for action in ("summary", "show", "chrome"):
            assert main(["trace", action, str(path)]) == 2
            assert "has no records" in capsys.readouterr().err

    def test_trace_chrome_writes_perfetto_json(self, journal, tmp_path, capsys):
        out = tmp_path / "chrome.json"
        assert main(["trace", "chrome", str(journal), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"X", "M"}
        cats = {e["cat"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert cats == {"run", "cell", "stage"}

    def test_suite_strict_flag_aborts_on_failure(self, tmp_path, monkeypatch, capsys):
        from repro.core.engine import FAULT_INJECT_ENV

        monkeypatch.setenv(FAULT_INJECT_ENV, "raise:505.mcf_r:mcf.train")
        path = tmp_path / "run.jsonl"
        rc = main(
            ["suite", "505.mcf_r", "--no-cache", "--strict", "--retries", "0",
             "--trace", str(path)]
        )
        assert rc == 1
        assert "aborted (strict)" in capsys.readouterr().err
        # The journal still records every settled cell.
        assert any(not s.ok for s in trace_spans(path))

    def test_suite_degraded_run_reports_and_exits_nonzero(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.core.engine import FAULT_INJECT_ENV

        monkeypatch.setenv(FAULT_INJECT_ENV, "raise:505.mcf_r:mcf.train")
        rc = main(["suite", "505.mcf_r", "--no-cache", "--retries", "0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "505.mcf_r" in captured.out  # degraded row still printed
        assert "failed cells:" in captured.err
        assert "mcf.train" in captured.err
