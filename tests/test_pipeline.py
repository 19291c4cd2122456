"""Staged-pipeline tests: codec, capture/replay identity, golden ports.

Three layers of guarantees:

* the telemetry codec round-trips captures exactly (decimation state
  included) and quarantines corrupt artifacts instead of crashing;
  captures reach the store as each cell finishes, and the codec tag
  moves capture keys only;
* capture -> materialize -> replay is bit-identical to the historical
  fused ``Profiler.run`` path;
* the ported studies (compiler variation, similarity, FDO
  cross-validation) produce byte-identical results to the frozen
  pre-port implementations in ``tests/_legacy_studies.py``, and sweeps
  actually reuse captured telemetry (zero re-executions when warm).
"""

from __future__ import annotations

import json
import re
import shutil
import struct
import weakref
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import engine
from repro.core.artifacts import (
    CAPTURE_MAGIC,
    ArtifactStore,
    CaptureStore,
    decode_capture,
    encode_capture,
)
from repro.core.cache import CACHE_FORMAT, cache_key, capture_key, profile_to_dict, set_key
from repro.core.errors import CacheCorruption, MachineMismatch, StudyError
from repro.core.run import Session
from repro.core.registry import alberta_workloads, get_benchmark
from repro.core.sweep import MachineGrid, SweepRequest
from repro.core.trace import summarize_trace
from repro.fdo.evaluation import cross_validate, evaluate_pair, train_profile
from repro.machine.capture import TelemetryCapture, capture_execution, replay_capture
from repro.machine.cost import MachineConfig
from repro.machine.profiler import Profiler
from repro.machine.telemetry import MethodCounters, Probe
from repro.studies.compiler_variation import compiler_variation
from repro.studies.similarity import collect_features

try:
    from tests._legacy_studies import (
        legacy_collect_features,
        legacy_compiler_variation,
        legacy_cross_validate,
    )
except ImportError:  # pragma: no cover - direct invocation from tests/
    from _legacy_studies import (
        legacy_collect_features,
        legacy_compiler_variation,
        legacy_cross_validate,
    )


def _workload(benchmark_id: str, suffix: str):
    return next(
        w for w in alberta_workloads(benchmark_id) if w.name.endswith(suffix)
    )


def _capture(benchmark_id: str = "505.mcf_r", suffix: str = ".refrate"):
    wl = _workload(benchmark_id, suffix)
    return capture_execution(get_benchmark(benchmark_id), wl), wl


_I64 = np.iinfo(np.int64)
#: int64 values biased towards the extremes, so first differences wrap.
_INT64S = st.one_of(
    st.integers(_I64.min, _I64.max),
    st.sampled_from([_I64.min, _I64.min + 1, _I64.max - 1, _I64.max, 0, -1, 1]),
)


@st.composite
def _column_sets(draw, max_events: int = 48):
    """Four equal-length int64 event columns."""
    n = draw(st.integers(0, max_events))
    column = st.lists(_INT64S, min_size=n, max_size=n)
    return tuple(np.array(draw(column), dtype=np.int64) for _ in range(4))


def _synthetic_capture(columns, sampling_stride: int = 2) -> TelemetryCapture:
    return TelemetryCapture(
        benchmark="505.mcf_r",
        workload="synthetic",
        methods=(MethodCounters("main", 0, 4096, 64, calls=1, extra={"x": 3}),),
        columns=columns,
        sampling_stride=sampling_stride,
        event_cap=1024,
        tick=len(columns[0]) * sampling_stride,
    )


class TestCaptureCodec:
    def test_round_trip_exact(self):
        cap, _ = _capture()
        blob = encode_capture(cap)
        back = decode_capture(blob)
        assert back.benchmark == cap.benchmark
        assert back.workload == cap.workload
        assert back.verified == cap.verified
        assert back.sampling_stride == cap.sampling_stride
        assert back.event_cap == cap.event_cap
        assert back.tick == cap.tick
        assert back.methods == cap.methods
        for a, b in zip(back.columns, cap.columns):
            assert a.dtype == np.int64
            assert np.array_equal(a, b)

    def test_round_trip_under_decimation(self):
        # A tiny event cap forces the probe to decimate its event
        # stream; the codec must preserve the resulting sampling state.
        bench = get_benchmark("505.mcf_r")
        wl = _workload("505.mcf_r", ".refrate")
        probe = Probe(event_cap=1024)
        bench.run(wl, probe)
        cap = TelemetryCapture.from_probe(bench.name, wl.name, probe)
        assert cap.sampling_stride > 1  # decimation actually happened
        back = decode_capture(encode_capture(cap))
        assert back.sampling_stride == cap.sampling_stride
        assert back.event_cap == cap.event_cap
        assert back.tick == cap.tick
        for a, b in zip(back.columns, cap.columns):
            assert np.array_equal(a, b)

    def test_decode_rejects_damage(self):
        cap, _ = _capture()
        blob = encode_capture(cap)
        with pytest.raises(CacheCorruption):
            decode_capture(blob[:40])  # truncated
        with pytest.raises(CacheCorruption):
            decode_capture(b"XXXX" + blob[4:])  # wrong magic
        flipped = bytearray(blob)
        flipped[-1] ^= 0xFF  # payload damage -> zlib/crc failure
        with pytest.raises(CacheCorruption):
            decode_capture(bytes(flipped))

    def test_header_is_covered_by_the_crc(self, tmp_path):
        # One flipped bit turns "sampling_stride":2 into 3; the entry
        # must be rejected and quarantined, never served as a hit.
        columns = tuple(np.arange(5, dtype=np.int64) for _ in range(4))
        cap = _synthetic_capture(columns, sampling_stride=2)
        blob = encode_capture(cap)
        digit = blob.index(b'"sampling_stride":2') + len(b'"sampling_stride":')
        flipped = bytearray(blob)
        flipped[digit] ^= 0x01
        assert bytes(flipped[digit : digit + 1]) == b"3"
        with pytest.raises(CacheCorruption):
            decode_capture(bytes(flipped))

        store = CaptureStore(tmp_path)
        store.put("ab" * 32, cap)
        path = next(Path(tmp_path).glob("*/*.bin"))
        path.write_bytes(bytes(flipped))
        assert store.get("ab" * 32) is None
        assert store.quarantined_entries() == 1
        assert store.stats.misses == 1 and store.stats.hits == 0

    @settings(max_examples=200, deadline=None)
    @given(_column_sets())
    @example(tuple(np.zeros(0, dtype=np.int64) for _ in range(4)))
    @example(tuple(np.array([v], dtype=np.int64) for v in (_I64.min, _I64.max, -1, 0)))
    @example(tuple(np.array([_I64.max, _I64.min, _I64.max], dtype=np.int64) for _ in range(4)))
    def test_fuzz_round_trip_is_exact(self, columns):
        cap = _synthetic_capture(columns)
        back = decode_capture(encode_capture(cap))
        assert back.methods == cap.methods
        assert (back.sampling_stride, back.event_cap, back.tick) == (
            cap.sampling_stride, cap.event_cap, cap.tick,
        )
        for a, b in zip(back.columns, columns):
            assert a.dtype == np.int64
            assert np.array_equal(a, b)

    @settings(max_examples=300, deadline=None)
    @given(_column_sets(max_events=16), st.data())
    def test_fuzz_damage_always_raises(self, columns, data):
        blob = encode_capture(_synthetic_capture(columns))
        cut = data.draw(st.integers(0, len(blob) - 1), label="truncate at")
        with pytest.raises(CacheCorruption):
            decode_capture(blob[:cut])
        offset = data.draw(st.integers(0, len(blob) - 1), label="flip byte")
        bit = data.draw(st.integers(0, 7), label="flip bit")
        flipped = bytearray(blob)
        flipped[offset] ^= 1 << bit
        with pytest.raises(CacheCorruption):
            decode_capture(bytes(flipped))

    def test_store_quarantines_corrupt_artifact(self, tmp_path):
        store = CaptureStore(tmp_path)
        cap, wl = _capture()
        key = capture_key(cap.benchmark, wl)
        store.put(key, cap)
        assert len(store) == 1
        path = next(Path(tmp_path).glob("*/*.bin"))
        path.write_bytes(b"garbage")
        assert store.get(key) is None
        assert store.quarantined_entries() == 1
        assert len(store) == 0  # quarantined entry no longer served


class TestCaptureReplayIdentity:
    @pytest.mark.parametrize("bid", ["505.mcf_r", "557.xz_r", "519.lbm_r"])
    def test_replay_matches_fused_profiler(self, bid):
        wl = _workload(bid, ".refrate")
        machine = MachineConfig(predictor="bimodal", width=2)
        direct = Profiler(machine).run(get_benchmark(bid), wl)
        cap = capture_execution(get_benchmark(bid), wl)
        replayed = replay_capture(cap, machine=machine)
        direct_d = profile_to_dict(direct)
        replayed_d = profile_to_dict(replayed)
        assert direct_d == replayed_d

    def test_replay_is_repeatable(self):
        # Replays must not perturb the capture: N replays, one answer.
        cap, _ = _capture("557.xz_r")
        first = profile_to_dict(replay_capture(cap))
        for _ in range(3):
            assert profile_to_dict(replay_capture(cap)) == first


class TestGoldenPorts:
    def test_compiler_variation_equivalent(self):
        new = compiler_variation("557.xz_r", max_workloads=2)
        old = legacy_compiler_variation("557.xz_r", max_workloads=2)
        assert new == old

    def test_similarity_features_equivalent(self):
        new = collect_features("505.mcf_r")
        old = legacy_collect_features("505.mcf_r")
        assert new.benchmark == old.benchmark
        assert new.workload == old.workload
        assert np.array_equal(new.vector, old.vector)

    def test_cross_validate_equivalent(self):
        new = cross_validate("505.mcf_r", max_workloads=2)
        old = legacy_cross_validate("505.mcf_r", max_workloads=2)
        assert new.benchmark == old.benchmark
        assert new.results == old.results

    def test_cross_validate_combined_equivalent(self):
        new = cross_validate("505.mcf_r", max_workloads=3, combined=True)
        old = legacy_cross_validate("505.mcf_r", max_workloads=3, combined=True)
        assert new.results == old.results

    def test_cross_validate_needs_two_workloads(self):
        with pytest.raises(StudyError):
            cross_validate("505.mcf_r", max_workloads=1)


class TestMachineMismatch:
    def test_mismatched_profile_rejected(self):
        wl_train = _workload("557.xz_r", ".train")
        wl_ref = _workload("557.xz_r", ".refrate")
        profile = train_profile("557.xz_r", wl_train, MachineConfig(width=2))
        with pytest.raises(MachineMismatch):
            evaluate_pair(
                "557.xz_r",
                wl_train,
                wl_ref,
                machine=MachineConfig(width=8),
                profile=profile,
            )

    def test_default_config_normalized(self):
        # machine=None and an explicit default config are the same
        # machine: normalized, not rejected.
        wl_train = _workload("557.xz_r", ".train")
        wl_ref = _workload("557.xz_r", ".refrate")
        profile = train_profile("557.xz_r", wl_train, MachineConfig())
        result = evaluate_pair(
            "557.xz_r", wl_train, wl_ref, machine=None, profile=profile
        )
        assert result.fdo_seconds > 0

    def test_unstamped_profile_accepted_anywhere(self):
        # Legacy profiles (machine=None) predate the stamp; they replay
        # under any config without complaint.
        wl_train = _workload("557.xz_r", ".train")
        wl_ref = _workload("557.xz_r", ".refrate")
        profile = train_profile("557.xz_r", wl_train, MachineConfig(width=2))
        profile = type(profile)(
            benchmark=profile.benchmark,
            methods=profile.methods,
            training_workloads=profile.training_workloads,
            machine=None,
        )
        result = evaluate_pair(
            "557.xz_r",
            wl_train,
            wl_ref,
            machine=MachineConfig(width=8),
            profile=profile,
        )
        assert result.fdo_seconds > 0


class TestSweepReuse:
    MACHINES = [None, MachineConfig(predictor="bimodal")]

    @classmethod
    def _request(cls) -> SweepRequest:
        return SweepRequest(
            benchmark="505.mcf_r", grid=MachineGrid.from_machines(cls.MACHINES)
        )

    def test_sweep_executes_each_workload_once(self, tmp_path):
        with Session(cache=tmp_path / "store", trace=tmp_path / "cold.jsonl") as s:
            result = s.characterize_sweep(self._request())
        assert result.ok
        summary = summarize_trace(tmp_path / "cold.jsonl")
        n_workloads = len(alberta_workloads("505.mcf_r"))
        assert summary.cells == n_workloads * len(self.MACHINES)
        assert summary.captures == n_workloads  # one execution per workload
        assert summary.replays == summary.cells

    def test_warm_sweep_executes_nothing(self, tmp_path):
        with Session(cache=tmp_path / "store") as s:
            cold = s.characterize_sweep(self._request())
        with Session(cache=tmp_path / "store", trace=tmp_path / "warm.jsonl") as s:
            warm = s.characterize_sweep(self._request())
        summary = summarize_trace(tmp_path / "warm.jsonl")
        assert summary.captures == 0  # zero benchmark re-executions
        assert summary.replays == 0  # every cell is a profile-cache hit
        assert summary.cache_hits == summary.cells
        for a, b in zip(cold.characterizations, warm.characterizations):
            assert a.table2_row() == b.table2_row()

    def test_capture_store_shared_across_machines(self, tmp_path):
        # A new config added to a warm store replays without executing.
        with Session(cache=tmp_path / "store") as s:
            s.characterize("505.mcf_r")
        with Session(
            machine=MachineConfig(width=2),
            cache=tmp_path / "store",
            trace=tmp_path / "new.jsonl",
        ) as s:
            s.characterize("505.mcf_r")
        summary = summarize_trace(tmp_path / "new.jsonl")
        assert summary.captures == 0
        assert summary.capture_hits == summary.cells
        assert summary.replays == summary.cells

    def test_artifact_store_wipe_covers_both_stages(self, tmp_path):
        with Session(cache=tmp_path / "store") as s:
            s.characterize("505.mcf_r")
        store = ArtifactStore(tmp_path / "store")
        assert len(store.profiles) > 0
        assert len(store.captures) > 0
        removed = store.wipe()
        assert removed > 0
        assert len(store.profiles) == 0
        assert len(store.captures) == 0


class TestCaptureStreaming:
    """Captures go to the store as each cell finishes, not at run end."""

    IDS = ["505.mcf_r", "557.xz_r"]

    @staticmethod
    def _track_captures(monkeypatch) -> list:
        """Weakrefs to every capture the engine's cells execute."""
        refs: list = []
        real = engine.capture_execution

        def capture_execution(*args, **kwargs):
            cap = real(*args, **kwargs)
            refs.append(weakref.ref(cap))
            return cap

        monkeypatch.setattr(engine, "capture_execution", capture_execution)
        return refs

    def test_inline_suite_holds_one_capture_per_put(self, tmp_path, monkeypatch):
        refs = self._track_captures(monkeypatch)
        alive_at_put: list[int] = []
        real_put = CaptureStore.put

        def put(store, key, capture):
            alive_at_put.append(sum(r() is not None for r in refs))
            real_put(store, key, capture)

        monkeypatch.setattr(CaptureStore, "put", put)
        with Session(workers=1, cache=tmp_path / "store") as s:
            result = s.characterize_suite(ids=self.IDS)
        cells = sum(len(alberta_workloads(b)) for b in self.IDS)
        assert len(result.characterizations) == len(self.IDS)
        assert len(refs) == len(alive_at_put) == cells
        assert max(alive_at_put) == 1
        assert all(r() is None for r in refs)  # nothing pins a capture afterwards

    def test_store_is_the_memo(self, tmp_path):
        request = SweepRequest(
            benchmark="505.mcf_r", grid=MachineGrid.from_machines([None])
        )
        with Session(cache=tmp_path / "store", trace=tmp_path / "t.jsonl") as s:
            s.capture_set("505.mcf_r")
            assert s.characterize_sweep(request).ok
            assert s.engine._capture_memo == {}
        summary = summarize_trace(tmp_path / "t.jsonl")
        n = len(alberta_workloads("505.mcf_r"))
        assert summary.captures == n  # the sweep read them back from the store
        assert summary.capture_hits == n

    def test_storeless_session_reuses_one_capture(self, monkeypatch):
        refs = self._track_captures(monkeypatch)
        request = SweepRequest(
            benchmark="505.mcf_r", grid=MachineGrid.from_machines([None])
        )
        with Session() as s:
            first = s.capture_set("505.mcf_r")
            assert s.characterize_sweep(request).ok
            assert s.capture_set("505.mcf_r") == first
        assert len(refs) == len(alberta_workloads("505.mcf_r"))


def _rtc1_blob(capture: TelemetryCapture) -> bytes:
    """An entry in the retired RTC1 layout: magic, u32 header/payload
    lengths, CRC-32 of the raw int64 columns, JSON header, zlib payload."""
    raw = b"".join(np.asarray(c, dtype="<i8").tobytes() for c in capture.columns)
    header = json.dumps(
        {
            "format": CACHE_FORMAT,
            "benchmark": capture.benchmark,
            "workload": capture.workload,
            "verified": capture.verified,
            "sampling_stride": capture.sampling_stride,
            "event_cap": capture.event_cap,
            "tick": capture.tick,
            "events": capture.n_events,
            "methods": [asdict(mc) for mc in capture.methods],
        },
        separators=(",", ":"),
    ).encode()
    payload = zlib.compress(raw, 6)
    return (
        b"RTC1" + struct.pack("<III", len(header), len(payload), zlib.crc32(raw))
        + header + payload
    )


class TestKeyStability:
    """The capture codec tag moves capture keys only."""

    #: Keys of mcf.refrate (base_seed 0, default machine) at the last
    #: RTC1 release, repro 1.0.0.
    PROFILE_KEY = "7e6a63056c03fd2d7d77118dc7385e200f55c3fa5a9d48e2ec434163d8fe8d99"
    SET_KEY = "01e335d9aa144f0f6cae2584e1de653da1216288c4a9437263b7fdd8be1720da"
    RTC1_CAPTURE_KEY = "73b59985e26012c21821b484f7b155bf51265ee23fec3ee30a77684873c79398"

    def test_profile_and_set_keys_are_frozen(self):
        wl = _workload("505.mcf_r", ".refrate")
        assert cache_key("505.mcf_r", wl, None) == self.PROFILE_KEY
        assert set_key("505.mcf_r", 0) == self.SET_KEY
        assert capture_key("505.mcf_r", wl) != self.RTC1_CAPTURE_KEY
        assert CAPTURE_MAGIC == b"RTC2"

    def test_rtc1_store_serves_profiles_and_recaptures(self, tmp_path):
        store = tmp_path / "store"
        with Session(cache=store) as s:
            cold = s.characterize("505.mcf_r")
        # Rewrite the capture stage as an RTC1-era store left it.
        wl = _workload("505.mcf_r", ".refrate")
        shutil.rmtree(store / "capture")
        old = store / "capture" / self.RTC1_CAPTURE_KEY[:2] / f"{self.RTC1_CAPTURE_KEY}.bin"
        old.parent.mkdir(parents=True)
        old.write_bytes(_rtc1_blob(capture_execution(get_benchmark("505.mcf_r"), wl)))

        with Session(cache=store, trace=tmp_path / "warm.jsonl") as s:
            warm = s.characterize("505.mcf_r")
        summary = summarize_trace(tmp_path / "warm.jsonl")
        assert summary.cache_hits == summary.cells
        assert warm.characterization.table2_row() == cold.characterization.table2_row()

        (store / self.PROFILE_KEY[:2] / f"{self.PROFILE_KEY}.json").unlink()
        with Session(cache=store, trace=tmp_path / "miss.jsonl") as s:
            again = s.characterize("505.mcf_r")
        summary = summarize_trace(tmp_path / "miss.jsonl")
        assert summary.cache_hits == summary.cells - 1
        assert summary.captures == 1 and summary.capture_hits == 0
        assert again.characterization.table2_row() == cold.characterization.table2_row()
        captures = ArtifactStore(store).captures
        assert captures.quarantined_entries() == 0
        assert old.exists()  # never read, so never quarantined
        assert len(captures) == 2


GATE_PATTERN = re.compile(r"(?<![\w.])(Probe|CostModel)\s*\(")
GATE_EXEMPT = ("machine/", "fdo/optimizer.py")


def test_no_private_execution_loops_outside_pipeline():
    """Grep gate: only machine/ and the FDO cost model may construct
    Probe or CostModel — everything else must go through the staged
    pipeline (Session/engine)."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        if rel.startswith(GATE_EXEMPT[0]) or rel == GATE_EXEMPT[1]:
            continue
        for i, line in enumerate(path.read_text().splitlines(), 1):
            if GATE_PATTERN.search(line):
                offenders.append(f"{rel}:{i}: {line.strip()}")
    assert not offenders, "direct Probe/CostModel construction:\n" + "\n".join(offenders)
