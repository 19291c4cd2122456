"""The declarative sweep API and the one-pass batched replay behind it.

Covers the :mod:`repro.core.sweep` request values (validation,
serialization, cache tokens), the request-only call forms of
``characterize_sweep`` / ``replay``, and the golden gate of the batched
pass: ``replay_capture_batched(cap, grid)`` must be bit-identical to
``replay_capture`` once per config — the check that the multi-config
memo sharing is exact — on all 16 benchmarks (every Alberta workload
under ``-m slow``).
"""

from __future__ import annotations

import json

import pytest

try:
    from tests.test_golden_equivalence import assert_reports_identical
except ImportError:  # running with tests/ itself on sys.path
    from test_golden_equivalence import assert_reports_identical
from repro.core.cache import ResultCache
from repro.core.registry import alberta_workloads, benchmark_ids, get_benchmark
from repro.core.run import Session
from repro.core.sweep import (
    MachineGrid,
    ReplayRequest,
    SweepRequest,
    default_sweep_grid,
)
from repro.core.trace import summarize_trace
from repro.machine.cache import CacheGeometry
from repro.machine.capture import (
    capture_execution,
    replay_capture,
    replay_capture_batched,
)
from repro.machine.cost import MachineConfig

TIER1_TRIO = ["505.mcf_r", "519.lbm_r", "557.xz_r"]

#: Small but adversarial grid: both predictors, one sub-L1 sizing
#: change, and a line-size change (which shares nothing level-wise).
TEST_GRID = MachineGrid(
    names=("default", "bimodal", "small-llc", "wide-lines"),
    machines=(
        None,
        MachineConfig(predictor="bimodal", predictor_table_bits=12),
        MachineConfig(geometry=CacheGeometry(llc_kib=2048)),
        MachineConfig(geometry=CacheGeometry(line_bytes=128)),
    ),
)


def _refrate(bid):
    workloads = alberta_workloads(bid)
    return next((w for w in workloads if w.name.endswith(".refrate")), workloads[0])


class TestMachineGrid:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            MachineGrid(names=(), machines=())
        with pytest.raises(ValueError, match="names for"):
            MachineGrid(names=("a", "b"), machines=(None,))
        with pytest.raises(ValueError, match="duplicate"):
            MachineGrid(names=("a", "a"), machines=(None, None))
        with pytest.raises(ValueError, match="non-empty string"):
            MachineGrid(names=("",), machines=(None,))
        with pytest.raises(ValueError, match="expected a MachineConfig"):
            MachineGrid(names=("a",), machines=({"width": 4},))

    def test_none_normalizes_to_default(self):
        grid = MachineGrid(names=("default",), machines=(None,))
        assert grid["default"] == MachineConfig()

    def test_lookup_and_len(self):
        grid = TEST_GRID
        assert len(grid) == 4
        assert grid["bimodal"].predictor == "bimodal"
        with pytest.raises(KeyError, match="no config named 'nope'"):
            grid["nope"]

    def test_from_presets(self):
        grid = MachineGrid.from_presets("default", "i7-6700k")
        assert grid.names == ("default", "i7-6700k")
        assert grid["default"] == MachineConfig()
        # no names: every preset, sorted, stable
        assert MachineGrid.from_presets().names == (
            "atom-like", "i7-2600", "i7-6700k",
        )

    def test_from_machines_autonames(self):
        grid = MachineGrid.from_machines([None, MachineConfig(width=8)])
        assert grid.names == ("cfg0", "cfg1")
        assert grid["cfg1"].width == 8

    def test_dict_roundtrip_through_json(self):
        grid = TEST_GRID
        back = MachineGrid.from_dict(json.loads(json.dumps(grid.to_dict())))
        assert back == grid
        assert back.cache_token() == grid.cache_token()

    def test_cache_token_is_content_addressed(self):
        a = MachineGrid.from_presets("default", "i7-6700k")
        b = MachineGrid.from_presets("default", "i7-6700k")
        assert a.cache_token() == b.cache_token()
        assert a.cache_token().startswith("grid.2.")
        # renaming or reordering changes the identity
        c = MachineGrid.from_presets("i7-6700k", "default")
        assert c.cache_token() != a.cache_token()

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(ValueError, match="non-empty 'configs'"):
            MachineGrid.from_dict({})
        with pytest.raises(ValueError, match="needs a 'name'"):
            MachineGrid.from_dict({"configs": [{"width": 4}]})


class TestSweepRequest:
    def test_validation(self):
        grid = MachineGrid.from_presets("default")
        with pytest.raises(ValueError, match="benchmark"):
            SweepRequest(benchmark="", grid=grid)
        with pytest.raises(ValueError, match="grid must be"):
            SweepRequest(benchmark="505.mcf_r", grid=[None])
        with pytest.raises(ValueError, match="base_seed"):
            SweepRequest(benchmark="505.mcf_r", grid=grid, base_seed="0")

    def test_dict_roundtrip(self):
        req = SweepRequest(benchmark="505.mcf_r", grid=TEST_GRID, base_seed=7)
        back = SweepRequest.from_dict(json.loads(json.dumps(req.to_dict())))
        assert back == req
        assert back.cache_token() == req.cache_token()

    def test_from_dict_accepts_null_retired_fields(self):
        """Requests serialized with ``"sampling": null, "batched": null``
        (the earlier to_dict shape) still load."""
        data = {**SweepRequest(benchmark="505.mcf_r", grid=TEST_GRID).to_dict(),
                "sampling": None, "batched": None}
        assert SweepRequest.from_dict(data).benchmark == "505.mcf_r"

    @pytest.mark.parametrize(
        "field, value",
        [("sampling", {"intervals": 1280, "phases": 12}), ("batched", False),
         ("batched", True)],
    )
    def test_from_dict_rejects_retired_fields(self, field, value):
        """A set ``sampling``/``batched`` is outside input the engine can
        no longer honour; running it exact would mislabel the results."""
        data = {**SweepRequest(benchmark="505.mcf_r", grid=TEST_GRID).to_dict(),
                field: value}
        with pytest.raises(ValueError, match=repr(field)):
            SweepRequest.from_dict(data)

    def test_cache_token_shape(self):
        token = SweepRequest(benchmark="505.mcf_r", grid=TEST_GRID).cache_token()
        assert token.startswith("sweep.505.mcf_r.s0.grid.4.")
        seeded = SweepRequest(benchmark="505.mcf_r", grid=TEST_GRID, base_seed=1)
        assert seeded.cache_token() != token


class TestReplayRequest:
    def test_machine_validation(self):
        with pytest.raises(ValueError, match="machine must be"):
            ReplayRequest(machine="i7-6700k")
        assert ReplayRequest(machine=None).machine is None
        assert ReplayRequest().machine is not None  # the engine sentinel


class TestDefaultSweepGrid:
    def test_shape(self):
        grid = default_sweep_grid()
        assert len(grid) == 8
        assert len(set(grid.names)) == 8
        # the grid must exercise both grouping axes of the batched path
        sigs = {
            (m.predictor, m.predictor_table_bits, m.predictor_history_bits)
            for m in grid.machines
        }
        geos = {m.geometry for m in grid.machines}
        assert len(sigs) > 1
        assert len(geos) > 1


class TestRequestOnlyForms:
    def test_sweep_rejects_mixed_forms(self):
        """Only ``characterize_sweep(SweepRequest, workloads=...)`` is
        accepted: the retired positional-id / machine-list / keyword
        forms are type errors, not silent reinterpretations."""
        req = SweepRequest(benchmark="519.lbm_r", grid=TEST_GRID)
        with Session() as s:
            with pytest.raises(TypeError, match="positional"):
                s.characterize_sweep(req, [None])
            with pytest.raises(TypeError, match="base_seed"):
                s.characterize_sweep(req, base_seed=3)
            with pytest.raises(TypeError, match="pass a SweepRequest"):
                s.characterize_sweep("519.lbm_r")

    def test_replay_takes_a_request(self):
        wl = _refrate("519.lbm_r")
        cap = capture_execution(get_benchmark("519.lbm_r"), wl)
        with Session() as s:
            via_request = s.replay(cap, ReplayRequest(machine=MachineConfig(width=8)))
            bare = s.replay(cap)
            with pytest.raises(TypeError, match="machine"):
                s.replay(cap, machine=None)
        direct = replay_capture(cap, machine=MachineConfig(width=8))
        assert_reports_identical(via_request.report, direct.report, "replay request")
        assert bare is not None


def _assert_batched_matches_single(bid, grid, workloads):
    """One N-config pass == N single-config replays, bit for bit."""
    bench = get_benchmark(bid)
    for wl in workloads:
        cap = capture_execution(bench, wl)
        batched = replay_capture_batched(cap, list(grid.machines))
        for name, m, got in zip(grid.names, grid.machines, batched):
            want = replay_capture(cap, machine=m)
            assert_reports_identical(got.report, want.report, f"{bid}/{name}/{wl.name}")


class TestGoldenSweepIdentity:
    """Batched multi-config replay == single-config replay, bit for bit."""

    @pytest.mark.parametrize("bid", TIER1_TRIO)
    def test_trio_bit_identical(self, bid, tmp_path):
        """Every Alberta workload of the trio, through the engine too."""
        _assert_batched_matches_single(bid, TEST_GRID, alberta_workloads(bid))
        trace = tmp_path / "sweep.jsonl"
        with Session(cache=tmp_path / "store", trace=trace) as s:
            result = s.characterize_sweep(
                SweepRequest(benchmark=bid, grid=TEST_GRID, keep_profiles=True)
            )
        assert result.ok
        summary = summarize_trace(trace)
        assert summary.replays_batched == summary.replays == len(TEST_GRID) * len(
            alberta_workloads(bid)
        )

    @pytest.mark.parametrize("bid", sorted(benchmark_ids()))
    def test_refrate_bit_identical(self, bid):
        _assert_batched_matches_single(bid, TEST_GRID, [_refrate(bid)])

    @pytest.mark.slow
    @pytest.mark.parametrize("bid", sorted(benchmark_ids()))
    def test_full_suite_bit_identical(self, bid):
        _assert_batched_matches_single(bid, default_sweep_grid(), alberta_workloads(bid))


class TestSweepResultOrdering:
    def test_profile_for_follows_grid_order(self, tmp_path):
        wl = _refrate("519.lbm_r")
        grid = MachineGrid(
            names=("wide", "default"),
            machines=(MachineConfig(width=8), None),
        )
        with Session(cache=tmp_path / "store") as s:
            result = s.characterize_sweep(
                SweepRequest(benchmark="519.lbm_r", grid=grid)
            )
        assert result.config_names == ["wide", "default"]
        assert result.profile_for("wide") is result.characterizations[0]
        assert result.profile_for("default") is result.characterizations[1]
        with pytest.raises(KeyError, match="no config named 'nope'"):
            result.profile_for("nope")


class TestReplayModeProvenance:
    def test_profiles_round_trip_from_labeled_envelopes(self, tmp_path):
        """Entries earlier versions wrote with ``replay_mode`` provenance
        (and warm hits on them) still decode and serve the same rows."""
        grid = MachineGrid.from_presets("default", "i7-6700k")
        with Session(cache=tmp_path / "store", trace=tmp_path / "cold.jsonl") as s:
            cold = s.characterize_sweep(SweepRequest(benchmark="519.lbm_r", grid=grid))
        cache = ResultCache(tmp_path / "store")
        entries = list(cache._entries())
        assert entries
        for i, path in enumerate(entries):
            data = json.loads(path.read_bytes())
            data["replay_mode"] = ("batched", "per-config")[i % 2]
            path.write_text(json.dumps(data))
        with Session(cache=tmp_path / "store", trace=tmp_path / "warm.jsonl") as s:
            warm = s.characterize_sweep(SweepRequest(benchmark="519.lbm_r", grid=grid))
        assert summarize_trace(tmp_path / "warm.jsonl").replays == 0
        for a, b in zip(cold.characterizations, warm.characterizations):
            assert a.table2_row() == b.table2_row()

    def test_sampled_envelope_section_is_ignored(self):
        """A phase-sampled entry's ``sampling`` section (written by
        earlier versions) decodes as a plain exact-shaped profile."""
        from repro.core.cache import profile_from_dict, profile_to_dict

        cap = capture_execution(get_benchmark("519.lbm_r"), _refrate("519.lbm_r"))
        profile = replay_capture(cap)
        data = {**profile_to_dict(profile), "sampling": {"event_ratio": 13.1}}
        back = profile_from_dict(json.loads(json.dumps(data)))
        assert type(back).__name__ == "ExecutionProfile"
        assert_reports_identical(back.report, profile.report, "sampled envelope")
