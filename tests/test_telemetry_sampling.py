"""Sampling-accuracy tests for the telemetry event stream.

The probe keeps exact per-method counters but decimates the replayed
event stream once it crosses a cap.  The cost model extrapolates
*rates* from the sampled stream to the exact counts, so the sampled
rates must track the unsampled ones.
"""

import math
import random
import weakref
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.cost import CostModel
from repro.machine.telemetry import _SMALL_BATCH, Probe


def _fill(probe: Probe, n_events: int, seed: int = 5) -> None:
    rng = random.Random(seed)
    with probe.method("m"):
        probe.ops(n_events)
        probe.branches((rng.random() < 0.7 for _ in range(n_events)), site=1)
        probe.accesses([rng.randrange(1 << 21) for _ in range(n_events)])


class TestDecimation:
    def test_stream_stays_bounded(self):
        probe = Probe(event_cap=4096)
        _fill(probe, 100_000)
        assert len(probe.events) <= 4096
        assert probe.sampling_stride >= 16

    def test_exact_counters_survive_decimation(self):
        probe = Probe(event_cap=4096)
        _fill(probe, 50_000)
        mc = probe.methods()[0]
        assert mc.branches == 50_000
        assert mc.loads == 50_000

    def test_sampled_rates_track_full_rates(self):
        """Mispredict/bad-spec fractions from a heavily decimated stream
        must approximate the undecimated result."""
        full = Probe(event_cap=1 << 20)  # effectively no decimation
        _fill(full, 60_000)
        sampled = Probe(event_cap=4096)
        _fill(sampled, 60_000)

        rep_full = CostModel().evaluate(full)
        rep_sampled = CostModel().evaluate(sampled)

        assert rep_sampled.topdown.bad_speculation == pytest.approx(
            rep_full.topdown.bad_speculation, rel=0.35
        )
        assert rep_sampled.topdown.back_end == pytest.approx(
            rep_full.topdown.back_end, rel=0.35
        )
        # Absolute cycles are NOT preserved: decimation strips temporal
        # locality from the address stream and history correlation from
        # the branch stream, so miss/mispredict rates — and cycles —
        # are conservatively overestimated.  Only the category
        # *fractions* (what Table II reports) are stable.
        assert rep_sampled.cycles >= rep_full.cycles * 0.8

    def test_small_cap_rejected(self):
        with pytest.raises(ValueError):
            Probe(event_cap=64)

    def test_decimation_preserves_event_mix(self):
        """Uniform decimation keeps branch/data event proportions."""
        probe = Probe(event_cap=4096)
        _fill(probe, 80_000)
        kinds = [e[1] for e in probe.events]
        n_branch = sum(1 for k in kinds if k == 0)
        n_data = sum(1 for k in kinds if k == 1)
        # equal numbers were recorded; the sample must stay near 50/50
        assert abs(n_branch - n_data) < 0.2 * (n_branch + n_data)


def _scalar_reference(probe: Probe, branches, addrs) -> None:
    """Record the same events one at a time (the historical path)."""
    with probe.method("m"):
        for t in branches:
            probe.branch(bool(t), site=1)
        for a in addrs:
            probe.load(int(a))


def _streams_equal(a: Probe, b: Probe) -> bool:
    ca, cb = a.events.columns(), b.events.columns()
    return a.sampling_stride == b.sampling_stride and all(
        np.array_equal(x, y) for x, y in zip(ca, cb)
    )


_OUTCOME = st.one_of(
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 0.5, -2.0, math.nan, math.inf]),
    st.booleans().map(np.bool_),
)
_OPS = st.one_of(
    st.tuples(st.just("branches"), st.lists(_OUTCOME, max_size=2 * _SMALL_BATCH),
              st.integers(0, 3), st.sampled_from(["list", "tuple", "gen"])),
    st.tuples(st.just("accesses"), st.lists(st.integers(0, 1 << 40), max_size=2 * _SMALL_BATCH),
              st.booleans()),
    st.tuples(st.just("branch"), _OUTCOME, st.integers(0, 3)),
    st.tuples(st.just("load"), st.integers(0, 1 << 40)),
    st.tuples(st.just("store"), st.integers(0, 1 << 40)),
    st.tuples(st.just("enter"), st.sampled_from(["outer", "inner", "leaf"])),
    st.tuples(st.just("exit")),
)


def _drive(probe: Probe, prefill: int, ops, scalar_only: bool) -> None:
    """Feed one op sequence to ``probe``; ``scalar_only`` records every
    bulk call as per-event ``branch``/``load``/``store`` calls."""
    scopes = [probe.method("root")]
    scopes[0].__enter__()
    for i in range(prefill):
        probe.load(i * 64)
    for op in ops:
        kind = op[0]
        if kind == "branches":
            _, outcomes, site, shape = op
            if scalar_only:
                for t in outcomes:
                    probe.branch(t, site=site)
            elif shape == "gen":
                probe.branches((t for t in outcomes), site=site)
            else:
                probe.branches(list(outcomes) if shape == "list" else tuple(outcomes),
                               site=site)
        elif kind == "accesses":
            _, addrs, store = op
            if scalar_only:
                for a in addrs:
                    (probe.store if store else probe.load)(a)
            else:
                probe.accesses(addrs, store=store)
        elif kind == "branch":
            probe.branch(op[1], site=op[2])
        elif kind in ("load", "store"):
            getattr(probe, kind)(op[1])
        elif kind == "enter":
            scope = probe.method(op[1])
            scope.__enter__()
            scopes.append(scope)
        elif len(scopes) > 1:
            scopes.pop().__exit__(None, None, None)
    while scopes:
        scopes.pop().__exit__(None, None, None)


class TestVectorDecimationEdges:
    """The vector append path — and the pure-Python path bulk calls of
    at most ``_SMALL_BATCH`` events take — must be event-for-event
    identical to the scalar one, including when the cap trips mid-call."""

    def test_cap_hit_mid_bulk_call(self):
        # one bulk call large enough to cross the cap several times
        rng = np.random.default_rng(0)
        outcomes = rng.random(9000) < 0.6
        addrs = rng.integers(0, 1 << 20, 9000)
        vec, ref = Probe(event_cap=1024), Probe(event_cap=1024)
        with vec.method("m"):
            vec.branches(outcomes, site=1)
            vec.accesses(addrs)
        _scalar_reference(ref, outcomes.tolist(), addrs.tolist())
        # second bulk: loads recorded after branches in the ref probe too
        assert vec.sampling_stride > 1
        assert _streams_equal(vec, ref)

    def test_stride_doubles_during_vector_append(self):
        probe = Probe(event_cap=1024)
        rng = np.random.default_rng(1)
        with probe.method("m"):
            assert probe.sampling_stride == 1
            probe.accesses(rng.integers(0, 1 << 16, 5000))
            stride_after_first = probe.sampling_stride
            assert stride_after_first >= 4  # doubled repeatedly mid-call
            probe.accesses(rng.integers(0, 1 << 16, 5000))
            assert probe.sampling_stride >= stride_after_first
        assert len(probe.events) < 1024

    def test_scalar_and_vector_paths_interleave_consistently(self):
        # alternate bulk and per-event recording; the composite stream
        # must match an all-scalar probe fed the same event sequence
        rng = np.random.default_rng(2)
        chunks = [rng.integers(0, 1 << 18, int(n)) for n in rng.integers(1, 700, 40)]
        mixed, ref = Probe(event_cap=2048), Probe(event_cap=2048)
        with mixed.method("m"), ref.method("m"):
            for i, chunk in enumerate(chunks):
                if i % 2:
                    mixed.accesses(chunk)
                else:
                    for a in chunk.tolist():
                        mixed.load(a)
                for a in chunk.tolist():
                    ref.load(a)
        assert _streams_equal(mixed, ref)

    def test_bulk_calls_match_scalar_without_decimation(self):
        rng = np.random.default_rng(3)
        outcomes = rng.random(500) < 0.5
        addrs = rng.integers(0, 1 << 20, 500)
        vec, ref = Probe(), Probe()
        with vec.method("m"):
            vec.branches(outcomes, site=1)
            vec.accesses(addrs)
        _scalar_reference(ref, outcomes.tolist(), addrs.tolist())
        assert vec.sampling_stride == 1
        assert _streams_equal(vec, ref)

    @given(prefill=st.integers(0, 1100), ops=st.lists(_OPS, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_bulk_calls_match_scalar_only_reference(self, prefill, ops):
        bulk, ref = Probe(event_cap=1024), Probe(event_cap=1024)
        _drive(bulk, prefill, ops, scalar_only=False)
        _drive(ref, prefill, ops, scalar_only=True)
        assert _streams_equal(bulk, ref)
        assert bulk._tick == ref._tick
        assert [asdict(m) for m in bulk.methods()] == [asdict(m) for m in ref.methods()]

    def test_reused_method_scope_nests_and_reenters(self):
        probe = Probe()
        scope = probe.method("m")
        assert probe.method("m") is scope
        with scope:
            with probe.method("m"):
                probe.load(8)
                assert probe.current.name == "m"
            probe.load(16)
        with scope:
            probe.load(24)
        with pytest.raises(RuntimeError):
            _ = probe.current
        [mc] = probe.methods()
        assert mc.calls == 3 and mc.loads == 3
        assert [e[1] for e in probe.events] == [2, 2, 1, 1, 2, 1]


class TestProbeApi:
    def test_finished_probe_is_freed_without_the_cycle_collector(self):
        # cached method scopes must not keep a probe (and its event
        # columns) alive through a reference cycle
        probe = Probe()
        with probe.method("m"):
            probe.load(64)
        ref = weakref.ref(probe)
        del probe
        assert ref() is None

    def test_events_view_is_read_only(self):
        probe = Probe()
        with probe.method("m"):
            probe.load(64)
        view = probe.events
        assert not hasattr(view, "append")
        with pytest.raises(AttributeError):
            view.append((0, 1, 128, 0))  # type: ignore[attr-defined]
        with pytest.raises(TypeError):
            view[0] = (0, 1, 128, 0)  # type: ignore[index]

    def test_columns_are_snapshots(self):
        probe = Probe()
        with probe.method("m"):
            probe.load(64)
            _, _, a, _ = probe.events.columns()
            probe.load(128)  # must not raise BufferError, must not alias
        assert a.tolist()[-1] == 64
        assert probe.events[-1][2] == 128

    def test_replace_events_is_the_mutation_path(self):
        probe = Probe()
        with probe.method("m"):
            probe.load(64)
            probe.load(128)
        kept = [e for e in probe.events if e[2] == 64]
        probe.replace_events(kept)
        assert list(probe.events) == kept

    def test_method_by_index(self):
        probe = Probe()
        names = [f"m{i}" for i in range(50)]
        for name in names:
            probe.register(name)
        for i, name in enumerate(names):
            assert probe.method_by_index(i) is probe.methods()[i]
            assert probe.method_by_index(i).name == name
        with pytest.raises(KeyError):
            probe.method_by_index(len(names))


class TestAttribution:
    def test_costs_attributed_to_emitting_method(self):
        rng = random.Random(2)
        probe = Probe()
        with probe.method("mem_hog"):
            probe.ops(100)
            probe.accesses([rng.randrange(1 << 24) for _ in range(20_000)])
        with probe.method("branch_hog"):
            probe.ops(100)
            probe.branches((rng.random() < 0.5 for _ in range(20_000)), site=2)
        rep = CostModel().evaluate(probe)
        mem = rep.per_method["mem_hog"]
        br = rep.per_method["branch_hog"]
        assert mem.backend_cycles > 10 * br.backend_cycles
        assert br.bad_spec_cycles > 10 * mem.bad_spec_cycles

    def test_calls_attributed_to_callee(self):
        probe = Probe()
        for _ in range(400):
            with probe.method("big", code_bytes=8192):
                probe.ops(10)
            with probe.method("tiny", code_bytes=64):
                probe.ops(10)
        rep = CostModel().evaluate(probe)
        assert (
            rep.per_method["big"].frontend_cycles
            > rep.per_method["tiny"].frontend_cycles
        )
