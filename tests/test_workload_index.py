"""The workload-set index: default sets keyed by recipe, minted on a miss.

A default (Alberta) workload set is a pure function of its recipe — the
generator descriptor, its factory, the repro version and the base seed —
so the store indexes every set's workload fingerprints under that recipe
key (:func:`repro.core.cache.set_key`).  A warm run computes its profile
and capture keys from the index and never mints a payload; a cold run
mints each set once.  Mints are counted at the source: every registered
generator's ``alberta_set`` is wrapped.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import render_table2
from repro.cli import main
from repro.core import engine, metrics
from repro.core.artifacts import ArtifactStore, SetIndex
from repro.core.cache import (
    ResultCache,
    WorkloadRef,
    cache_key,
    capture_key,
    payload_digest,
    set_key,
)
from repro.core.registry import REGISTRY, alberta_workloads, benchmark_ids
from repro.core.run import MachineGrid, Session, SweepRequest
from repro.core.trace import RUN_SPAN_ID, render_trace_summary, trace_stages, workload_mints
from repro.core.workload import WorkloadSet

MCF = "505.mcf_r"
IDS = ["505.mcf_r", "519.lbm_r"]


class MintCounter:
    """Wraps every registered generator's ``alberta_set`` and gives the
    engine a fresh process-wide resolver, so earlier tests' memos cannot
    hide a mint."""

    def __init__(self, mp: pytest.MonkeyPatch):
        self.calls: list[tuple[str, int]] = []
        for d in REGISTRY.descriptors("generator"):
            if isinstance(d.factory, type):
                mp.setattr(d.factory, "alberta_set", self._wrap(d.id, d.factory.alberta_set))
        mp.setattr(engine, "_SETS", engine._WorkloadSets())

    def _wrap(self, benchmark_id, original):
        def alberta_set(generator, base_seed=0):
            self.calls.append((benchmark_id, base_seed))
            return original(generator, base_seed)

        return alberta_set


@pytest.fixture
def counter(monkeypatch):
    return MintCounter(monkeypatch)


def suite_run(store, journal=None, *, workers=1, ids=IDS):
    with Session(workers=workers, cache=store, trace=journal) as s:
        result = s.characterize_suite(ids=ids)
    return result, s


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """One cold ``workers=1`` suite run over IDS, with its mints counted."""
    root = tmp_path_factory.mktemp("cold")
    with pytest.MonkeyPatch.context() as mp:
        count = MintCounter(mp)
        result, session = suite_run(root / "store", root / "cold.jsonl")
    return {
        "store": root / "store",
        "journal": root / "cold.jsonl",
        "mints": list(count.calls),
        "table": render_table2(result.characterizations),
        "summary": session.summary,
        "metrics": session.metrics,
    }


@pytest.fixture
def warm_store(cold, tmp_path):
    store = tmp_path / "store"
    shutil.copytree(cold["store"], store)
    return store


def sets_events(reg, event):
    return reg.value(metrics.CACHE_EVENTS_TOTAL, store="sets", event=event) or 0


class TestMintCounts:
    def test_cold_suite_mints_each_set_once(self, cold):
        assert sorted(cold["mints"]) == sorted((bid, 0) for bid in IDS)
        assert cold["summary"].captures == cold["summary"].cells

    def test_warm_suite_mints_nothing(self, cold, warm_store, counter):
        result, session = suite_run(warm_store)
        assert counter.calls == []
        assert session.summary.cache_hits == session.summary.cells
        assert render_table2(result.characterizations) == cold["table"]

    def test_sweep_over_stored_captures_mints_nothing(self, warm_store, counter):
        ArtifactStore(warm_store).profiles.wipe()
        grid = MachineGrid.from_presets("i7-2600", "atom-like")
        with Session(workers=1, cache=warm_store) as s:
            for bid in IDS:
                assert s.characterize_sweep(SweepRequest(bid, grid)).ok
        assert counter.calls == []
        assert s.summary.captures == 0
        assert s.summary.replays == s.summary.cells

    def test_capture_by_name_reads_the_index(self, warm_store, counter):
        with Session(workers=1, cache=warm_store) as s:
            assert s.capture(MCF, "mcf.test") is not None
            assert len(s.capture_set(MCF)) == len(alberta_workloads(MCF))
        assert counter.calls == [(MCF, 0)]  # only the direct call above

    def test_unknown_workload_name_suggests(self, warm_store):
        from repro.core.errors import UnknownScenarioError

        with Session(workers=1, cache=warm_store) as s:
            with pytest.raises(UnknownScenarioError, match="mcf.test"):
                s.capture(MCF, "mcf.tset")


class TestTableIdentity:
    def test_cold_warm_and_parallel_agree(self, cold, warm_store, tmp_path):
        warm, _ = suite_run(warm_store)
        parallel, _ = suite_run(tmp_path / "par", workers=2)
        assert render_table2(warm.characterizations) == cold["table"]
        assert render_table2(parallel.characterizations) == cold["table"]


class TestKeys:
    @pytest.mark.parametrize("base_seed", [0, 2])
    def test_index_keys_equal_payload_keys(self, tmp_path, base_seed):
        index = SetIndex(tmp_path / "sets")
        minting = engine._WorkloadSets()
        for bid in benchmark_ids(table2_only=True):
            minting.resolve(bid, base_seed, index)
            refs = engine._WorkloadSets().resolve(bid, base_seed, index)
            assert all(isinstance(r, WorkloadRef) for r in refs)
            minted = list(minting.workloads(bid, base_seed))
            assert [r.name for r in refs] == [w.name for w in minted]
            assert [cache_key(bid, r) for r in refs] == [cache_key(bid, w) for w in minted]
            assert [capture_key(bid, r) for r in refs] == [
                capture_key(bid, w) for w in minted
            ]

    def test_store_without_index_hits_and_gains_index(self, cold, warm_store, counter):
        shutil.rmtree(warm_store / "sets")
        _, session = suite_run(warm_store)
        assert session.summary.cache_hits == session.summary.cells
        assert session.summary.cache_misses == 0
        assert len(ArtifactStore(warm_store).sets) == len(IDS)
        assert sorted(counter.calls) == sorted((bid, 0) for bid in IDS)

    def test_explicit_workloads_keep_payload_keys(self, tmp_path, counter):
        workloads = alberta_workloads(MCF)
        minted = len(counter.calls)
        store = ArtifactStore(tmp_path / "store")
        with Session(workers=1, cache=store) as s:
            s.characterize(MCF, workloads)
        assert len(counter.calls) == minted
        assert len(store.sets) == 0
        for w in workloads:
            assert store.profiles._path(cache_key(MCF, w)).is_file()
            assert store.captures._path(capture_key(MCF, w)).is_file()

    def test_set_key_covers_the_recipe(self):
        key = set_key(MCF, 0)
        assert key != set_key(MCF, 2)
        assert key != set_key("519.lbm_r", 0)
        assert set_key("999.nope_r", 0) is None
        d = REGISTRY.find("generator", MCF)
        with REGISTRY.override(replace(d, version=2)):
            assert set_key(MCF, 0) != key
        assert set_key(MCF, 0) == key


@pytest.mark.slow
def test_full_suite_store_without_index(tmp_path):
    """A store of the shape written before the index existed: 195/195 hits."""
    store = tmp_path / "store"
    cold, _ = suite_run(store, workers=2, ids=None)
    shutil.rmtree(store / "sets")
    warm, session = suite_run(store, ids=None)
    assert session.summary.cells == session.summary.cache_hits == 195
    assert len(ArtifactStore(store).sets) == 15
    assert render_table2(warm.characterizations) == render_table2(cold.characterizations)


# ------------------------------------------------------------ robustness


@pytest.fixture(scope="module")
def mcf_entry(tmp_path_factory):
    """A valid MCF index entry: (raw bytes, fingerprints)."""
    index = SetIndex(tmp_path_factory.mktemp("entry") / "sets")
    engine._WorkloadSets().resolve(MCF, 0, index)
    raw = index._path(set_key(MCF, 0)).read_bytes()
    return raw, tuple(json.loads(raw)["workloads"])


def _rewrite(entry: dict, **changes) -> bytes:
    return json.dumps({**entry, **changes}).encode()


def _corruptions(raw: bytes) -> dict[str, bytes]:
    entry = json.loads(raw)
    fps = entry["workloads"]
    other = {**entry, "key": set_key(MCF, 2), "base_seed": 2}
    return {
        "truncated": raw[: len(raw) // 2],
        "empty": b"",
        "garbage": b"\x00\xffnot json",
        "not-a-dict": b"[1, 2, 3]",
        "wrong-format": _rewrite(entry, format=99),
        "other-recipe": json.dumps(other).encode(),
        "reordered": _rewrite(entry, workloads=fps[::-1]),
        "shortened": _rewrite(entry, workloads=fps[:-1]),
        "no-workloads": _rewrite(entry, workloads=[], digest=payload_digest([])),
        "extra-field": _rewrite(
            entry,
            workloads=[{**fps[0], "x": 1}] + fps[1:],
        ),
    }


class TestRobustness:
    @pytest.mark.parametrize(
        "kind",
        ["truncated", "empty", "garbage", "not-a-dict", "wrong-format",
         "other-recipe", "reordered", "shortened", "no-workloads", "extra-field"],
    )
    def test_damaged_entry_is_quarantined_and_reminted(self, mcf_entry, tmp_path, kind):
        raw, truth = mcf_entry
        index = SetIndex(tmp_path / "sets")
        path = index._path(set_key(MCF, 0))
        path.parent.mkdir(parents=True)
        path.write_bytes(_corruptions(raw)[kind])
        resolver = engine._WorkloadSets()
        reg = metrics.MetricsRegistry()
        with metrics.collector(reg):
            refs = resolver.resolve(MCF, 0, index)
        assert tuple(r.fingerprint for r in refs) == truth
        assert resolver.mints == 1
        assert index.stats.quarantined == 1
        assert sets_events(reg, "quarantined") == 1
        assert path.with_name(path.name + ".corrupt").is_file()
        assert path.read_bytes() == raw  # re-indexed

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(offset=st.integers(min_value=0), bit=st.integers(min_value=0, max_value=7))
    def test_bit_flips_never_serve_a_wrong_hit(self, mcf_entry, offset, bit):
        raw, truth = mcf_entry
        flipped = bytearray(raw)
        flipped[offset % len(raw)] ^= 1 << bit
        with tempfile.TemporaryDirectory() as tmp:
            index = SetIndex(Path(tmp))
            path = index._path(set_key(MCF, 0))
            path.parent.mkdir(parents=True)
            path.write_bytes(bytes(flipped))
            got = index.get(set_key(MCF, 0), MCF, 0)
            assert got is None or got == truth
            assert index.stats.quarantined == (got is None)

    def test_stale_entry_heals_when_the_run_mints(self, mcf_entry, tmp_path):
        raw, truth = mcf_entry
        index = SetIndex(tmp_path / "sets")
        key = set_key(MCF, 0)
        stale = [dict(fp) for fp in truth]
        stale[2]["payload"] = "0" * 64
        index.put(key, MCF, 0, stale)
        resolver = engine._WorkloadSets()
        reg = metrics.MetricsRegistry()
        with metrics.collector(reg):
            served = resolver.resolve(MCF, 0, index)
            assert served[2].fingerprint["payload"] == "0" * 64  # undetectable yet
            resolver.workloads(MCF, 0)  # a cell needed the payloads
        assert index.stale == 1
        assert sets_events(reg, "stale") == 1
        assert index.get(key, MCF, 0) == truth
        # Once minted, the process itself is the reference.
        index.put(key, MCF, 0, stale)
        assert tuple(r.fingerprint for r in resolver.resolve(MCF, 0, index)) == truth
        assert index.stale == 2

    def test_memo_is_keyed_by_recipe(self, monkeypatch):
        resolver = engine._WorkloadSets()
        monkeypatch.setattr(engine, "_SETS", resolver)
        d = REGISTRY.find("generator", MCF)

        class FirstThree(d.factory):
            def alberta_set(self, base_seed=0):
                return WorkloadSet(MCF, list(super().alberta_set(base_seed))[:3])

        full = len(resolver.workloads(MCF, 0))
        with REGISTRY.override(replace(d, version=2, factory=FirstThree)):
            assert len(resolver.workloads(MCF, 0)) == 3
            assert len(resolver.resolve(MCF, 0, None)) == 3
        assert len(resolver.workloads(MCF, 0)) == full > 3
        assert resolver.mints == 2


# ------------------------------------------------------------ observability


class TestObservability:
    def test_journal_has_one_generate_span_per_benchmark(self, cold, warm_store, tmp_path):
        journal = tmp_path / "warm.jsonl"
        suite_run(warm_store, journal)
        for path, minted in ((cold["journal"], len(IDS)), (journal, 0)):
            run_level = [
                st for st in trace_stages(path)
                if st.name == "generate" and st.parent_id == RUN_SPAN_ID
            ]
            assert sorted(st.benchmark for st in run_level) == sorted(IDS)
            assert workload_mints(trace_stages(path)) == minted
        assert f"{len(IDS)} workload set(s) resolved, 0 minted" in render_trace_summary(journal)

    def test_index_traffic_on_cache_metric_families(self, cold, warm_store):
        assert sets_events(cold["metrics"], "miss") == len(IDS)
        assert sets_events(cold["metrics"], "write") == len(IDS)
        assert sets_events(cold["metrics"], "mint") == len(IDS)
        _, session = suite_run(warm_store)
        assert sets_events(session.metrics, "hit") == len(IDS)
        assert sets_events(session.metrics, "miss") == 0
        assert sets_events(session.metrics, "mint") == 0

    def test_ledger_shows_a_warm_run_minted_nothing(self, warm_store, tmp_path):
        from repro.core.ledger import RunLedger, render_record

        ledger = RunLedger(tmp_path / "ledger")
        with Session(workers=1, cache=warm_store, ledger=ledger) as s:
            s.characterize_suite(ids=IDS)
        record, = ledger.records()
        assert f"workload sets: {len(IDS)} index hits, 0 minted" in render_record(record)


# --------------------------------------------------------- store + CLI


class TestStoreAndCli:
    def test_index_is_its_own_namespace(self, cold, warm_store):
        store = ArtifactStore(warm_store)
        cells = cold["summary"].cells
        assert len(store.sets) == len(IDS)
        assert len(store.profiles) == len(store.captures) == cells
        assert len(ResultCache(warm_store)) == cells
        store.profiles.wipe()
        assert len(store.sets) == len(IDS)
        assert store.wipe() == cells + len(IDS)
        assert len(store.sets) == 0

    def test_cache_info_reports_the_index(self, warm_store, capsys):
        assert main(["cache", "info", "--cache-dir", str(warm_store)]) == 0
        out = capsys.readouterr().out
        block = out[out.index("stage: generate (workload-set index)"):]
        assert f"entries : {len(IDS)}" in block

    def test_verify_passes_flags_and_quarantines(self, mcf_entry, warm_store, capsys, counter):
        assert main(["cache", "verify", "--cache-dir", str(warm_store)]) == 0
        assert "re-minted 2 workload set(s), 0 stale" in capsys.readouterr().out
        _, truth = mcf_entry
        index = ArtifactStore(warm_store).sets
        stale = [dict(fp) for fp in truth]
        stale[1]["payload"] = "0" * 64
        index.put(set_key(MCF, 0), MCF, 0, stale)
        argv = ["cache", "verify", "--cache-dir", str(warm_store), "--sample", "2"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert f"STALE {MCF} base_seed=0 workload {truth[1]['name']}" in out
        assert index.quarantined_entries() == 1
        counter.calls.clear()
        engine._WorkloadSets().resolve(MCF, 0, index)
        assert counter.calls == [(MCF, 0)]
        assert main(argv) == 0

    def test_verify_sample_draw_is_seeded(self, warm_store, capsys):
        argv = ["cache", "verify", "--cache-dir", str(warm_store), "--sample", "1"]
        assert main(argv + ["--seed", "3"]) == 0
        assert "re-minted 1 workload set(s)" in capsys.readouterr().out
        assert main(argv[:-1] + ["0"]) == 2
