"""Parallel/cached characterization engine: equivalence and cache behaviour.

The engine's whole contract is "same numbers, less time": fan-out over
processes and reuse from the on-disk cache must both reproduce the
serial characterization bit-for-bit.  The fast tests here pin that
contract on a couple of benchmarks; the `slow`-marked test sweeps every
registered benchmark (run with ``pytest -m slow``).
"""

import pytest

from repro.core.cache import (
    ResultCache,
    cache_key,
    payload_digest,
    profile_from_dict,
    profile_to_dict,
)
from repro.core import metrics
from repro.core.characterize import characterize, characterize_suite
from repro.core.engine import CharacterizationEngine, default_workers
from repro.core.registry import alberta_workloads, benchmark_ids, get_benchmark
from repro.machine.profiler import Profiler

# Cheap benchmarks exercised by the fast (tier-1) tests.
FAST_IDS = ("505.mcf_r", "557.xz_r")


class TestParallelEquivalence:
    @pytest.mark.parametrize("bid", FAST_IDS)
    def test_workers4_matches_serial(self, bid):
        serial = characterize(bid, workers=1)
        parallel = characterize(bid, workers=4)
        assert parallel.table2_row() == serial.table2_row()
        assert parallel.seconds_by_workload == serial.seconds_by_workload

    def test_workers_none_means_cpu_count(self):
        engine = CharacterizationEngine(workers=None)
        assert engine.workers == default_workers()

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            CharacterizationEngine(workers=0)

    @pytest.mark.slow
    def test_suite_parallel_matches_serial(self):
        serial = characterize_suite(suite="int", table2_only=True, workers=1)
        parallel = characterize_suite(suite="int", table2_only=True, workers=2)
        assert [c.table2_row() for c in parallel] == [c.table2_row() for c in serial]


class TestResultCache:
    @pytest.mark.parametrize("bid", FAST_IDS)
    def test_cached_rerun_identical(self, bid, tmp_path):
        cache = ResultCache(tmp_path)
        serial = characterize(bid, workers=1)
        cold = characterize(bid, cache=cache)
        warm = characterize(bid, cache=cache)
        assert cold.table2_row() == serial.table2_row()
        assert warm.table2_row() == serial.table2_row()
        n = serial.n_workloads
        assert cache.stats.misses == n
        assert cache.stats.hits == n
        assert len(cache) == n

    def test_profile_round_trip_exact(self):
        workloads = alberta_workloads("557.xz_r")
        profile = Profiler().run(get_benchmark("557.xz_r"), workloads[0])
        restored = profile_from_dict(profile_to_dict(profile))
        assert restored.report.topdown == profile.report.topdown
        assert dict(restored.report.coverage.fractions) == dict(
            profile.report.coverage.fractions
        )
        assert restored.report.cycles == profile.report.cycles
        assert restored.report.seconds == profile.report.seconds
        assert restored.report.per_method == profile.report.per_method
        assert restored.report.cache_stats == profile.report.cache_stats
        assert restored.report.counters == profile.report.counters
        assert restored.output is None
        assert restored.verified is profile.verified

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        workloads = alberta_workloads("505.mcf_r")
        key = cache_key("505.mcf_r", workloads[0])
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")
        assert cache.get(key) is None
        assert cache.stats.misses == 1

    def test_wipe(self, tmp_path):
        cache = ResultCache(tmp_path)
        characterize("505.mcf_r", cache=cache)
        assert len(cache) > 0
        removed = cache.wipe()
        assert removed == 7  # mcf's Table II workload count
        assert len(cache) == 0

    def test_key_sensitivity(self, tmp_path):
        """Key changes with workload content and machine config."""
        from repro.machine.cost import MachineConfig

        w0 = alberta_workloads("505.mcf_r", 0)[0]
        w0_again = alberta_workloads("505.mcf_r", 0)[0]
        w1 = alberta_workloads("505.mcf_r", 1)[0]
        assert cache_key("505.mcf_r", w0) == cache_key("505.mcf_r", w0_again)
        assert cache_key("505.mcf_r", w0) != cache_key("505.mcf_r", w1)
        assert cache_key("505.mcf_r", w0) != cache_key(
            "505.mcf_r", w0, MachineConfig(width=2)
        )

    def test_telemetry_counters_surface_cache_traffic(self, tmp_path):
        cold, warm = metrics.MetricsRegistry(), metrics.MetricsRegistry()
        with metrics.collector(cold):
            characterize("505.mcf_r", cache=ResultCache(tmp_path))
        with metrics.collector(warm):
            characterize("505.mcf_r", cache=ResultCache(tmp_path))
        events, io = metrics.CACHE_EVENTS_TOTAL, metrics.CACHE_IO_BYTES_TOTAL
        assert cold.value(events, store="profile", event="miss") == 7
        assert cold.value(io, store="profile", direction="write") > 0
        assert warm.value(events, store="profile", event="hit") == 7
        assert warm.value(io, store="profile", direction="read") > 0


class TestPayloadDigest:
    def test_insertion_order_does_not_leak(self):
        assert payload_digest({"a": 1, "b": 2}) == payload_digest({"b": 2, "a": 1})
        assert payload_digest({1, 2, 3}) == payload_digest({3, 2, 1})

    def test_type_tags_distinguish_values(self):
        assert payload_digest(1) != payload_digest(1.0)
        assert payload_digest("1") != payload_digest(1)
        assert payload_digest(True) != payload_digest(1)

    def test_rejects_identity_reprs(self):
        with pytest.raises(TypeError):
            payload_digest(object())


@pytest.mark.slow
class TestFullSuiteEquivalence:
    def test_every_benchmark_parallel_serial_and_cached_identical(self, tmp_path):
        """ISSUE satellite: every registered benchmark, workers=4 vs 1,
        plus a cache round-trip, all produce identical table2_row dicts."""
        cache = ResultCache(tmp_path)
        for bid in sorted(benchmark_ids()):
            serial = characterize(bid, workers=1)
            parallel = characterize(bid, workers=4)
            cold = characterize(bid, cache=cache)
            warm = characterize(bid, cache=cache)
            assert parallel.table2_row() == serial.table2_row(), bid
            assert cold.table2_row() == serial.table2_row(), bid
            assert warm.table2_row() == serial.table2_row(), bid
