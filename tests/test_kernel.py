"""Fuzz the vectorized replay kernels against scalar brute force.

Every function in :mod:`repro.machine.kernel` claims bit-exactness
against the reference dict/bytearray implementations; these tests hold
it to that over randomized streams, including the degenerate shapes
(empty, single element, one set, fully associative, saturated counters)
that the closed-form derivations quietly depend on.
"""

from __future__ import annotations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.cache import Cache, CacheConfig
from repro.machine.cost import _ORDER_STRIDE, _replay_code_bursts
from repro.machine.kernel import (
    _lru_scalar,
    counter_scan,
    counter_scan_batched,
    gshare_history,
    left_rank,
    lru_filter,
    lru_hits,
)


def brute_left_rank(values):
    v = list(values)
    return np.array(
        [sum(1 for p in range(q) if v[p] < v[q]) for q in range(len(v))],
        dtype=np.int64,
    )


def brute_counters(idx, taken, table):
    miss = np.empty(idx.size, dtype=np.uint8)
    for i, (j, t) in enumerate(zip(idx.tolist(), taken.tolist())):
        c = table[j]
        miss[i] = (c >= 2) != bool(t)
        if t:
            if c < 3:
                table[j] = c + 1
        elif c > 0:
            table[j] = c - 1
    return miss


class TestLeftRank:
    def test_empty_and_single(self):
        assert left_rank(np.zeros(0, dtype=np.int64)).size == 0
        assert left_rank(np.array([7], dtype=np.int64)).tolist() == [0]

    def test_sorted_and_reversed(self):
        up = np.arange(100, dtype=np.int64)
        assert np.array_equal(left_rank(up), up)
        assert np.array_equal(left_rank(up[::-1].copy()), np.zeros(100, dtype=np.int64))

    def test_fuzz(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(1, 300))
            v = rng.permutation(10 * n)[:n].astype(np.int64) - 5 * n
            assert np.array_equal(left_rank(v), brute_left_rank(v))


class TestLruKernels:
    @pytest.mark.parametrize("kernel", [lru_hits, lru_filter])
    def test_fuzz_against_dict_walk(self, kernel):
        rng = np.random.default_rng(2)
        for trial in range(80):
            n = int(rng.integers(1, 500))
            set_bits = int(rng.integers(0, 4))
            set_mask = (1 << set_bits) - 1 if rng.random() < 0.8 else 0
            assoc = int(rng.integers(1, 9))
            span = int(rng.integers(2, 40))
            tags = rng.integers(0, span, n).astype(np.int64)
            want = _lru_scalar(tags.tolist(), set_mask, assoc)
            got = kernel(tags, set_mask, assoc)
            assert np.array_equal(got, want), f"{kernel.__name__} trial {trial}"

    def test_filter_vector_path_no_eviction(self):
        # large stream, every set's distinct count <= assoc: pure
        # first-touch rule must run (and agree with the dict walk)
        rng = np.random.default_rng(3)
        tags = rng.integers(0, 64, 5000).astype(np.int64)  # 64 lines, 8 sets
        got = lru_filter(tags, 7, 8)
        assert np.array_equal(got, _lru_scalar(tags.tolist(), 7, 8))

    def test_filter_vector_path_with_conflict_sets(self):
        # force one conflicting set among quiet ones, above the scalar cutoff
        rng = np.random.default_rng(4)
        quiet = rng.integers(0, 32, 4000) * 4 + rng.integers(1, 4, 4000)
        noisy = rng.integers(0, 64, 4000) * 4  # set 0: 64 distinct lines
        tags = np.empty(8000, dtype=np.int64)
        tags[0::2] = quiet
        tags[1::2] = noisy
        got = lru_filter(tags, 3, 4)
        assert np.array_equal(got, _lru_scalar(tags.tolist(), 3, 4))

    def test_empty(self):
        assert lru_hits(np.zeros(0, dtype=np.int64), 0, 4).size == 0
        assert lru_filter(np.zeros(0, dtype=np.int64), 0, 4).size == 0


class TestCounterScan:
    def test_fuzz_against_bytearray_walk(self):
        rng = np.random.default_rng(5)
        for trial in range(120):
            n = int(rng.integers(1, 400))
            nslots = int(rng.integers(1, 12))
            idx = rng.integers(0, nslots, n).astype(np.int64)
            bias = (0.9, 0.5, float(rng.random()))[trial % 3]
            taken = (rng.random(n) < bias).astype(np.int64)
            t0 = rng.integers(0, 4, nslots).astype(np.uint8)
            ta, tb = t0.copy(), t0.copy()
            assert np.array_equal(
                counter_scan(idx, taken, ta), brute_counters(idx, taken, tb)
            ), f"miss flags trial {trial}"
            assert np.array_equal(ta, tb), f"table trial {trial}"

    def test_long_biased_stream(self):
        # long same-direction runs exercise the run-compression path
        rng = np.random.default_rng(6)
        n = 50_000
        idx = rng.integers(0, 256, n).astype(np.int64)
        taken = (rng.random(n) < 0.95).astype(np.int64)
        ta = np.ones(256, dtype=np.uint8)
        tb = ta.copy()
        assert np.array_equal(
            counter_scan(idx, taken, ta), brute_counters(idx, taken, tb)
        )
        assert np.array_equal(ta, tb)

    def test_empty(self):
        table = np.ones(4, dtype=np.uint8)
        assert counter_scan(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), table
        ).size == 0
        assert np.array_equal(table, np.ones(4, dtype=np.uint8))


class TestGshareHistory:
    def test_matches_scalar_shift_register(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 200))
            bits = int(rng.integers(0, 13))
            h0 = int(rng.integers(0, 1 << bits)) if bits else 0
            taken = rng.integers(0, 2, n).astype(np.int64)
            got = gshare_history(taken, h0, bits)
            mask = (1 << bits) - 1
            h = h0
            for i in range(n):
                assert got[i] == h, f"event {i}"
                h = ((h << 1) | int(taken[i])) & mask


class TestCodeBursts:
    def test_fuzz_against_per_line_walk(self):
        rng = np.random.default_rng(8)
        exact = 0
        for trial in range(60):
            n_m = int(rng.integers(1, 9))
            assoc = int(rng.integers(1, 9))
            code_base = (rng.integers(0, 1 << 20, n_m) << 6).astype(np.int64)
            code_blocks = rng.integers(1, 200, n_m).astype(np.int64)
            k = int(rng.integers(1, 100))
            c_midx = rng.integers(0, n_m, k).astype(np.int64)
            c_key = np.arange(k, dtype=np.int64) * _ORDER_STRIDE
            l1i = Cache(
                CacheConfig(
                    size_bytes=64 * assoc * 64,
                    line_bytes=64,
                    associativity=assoc,
                    name="L1I",
                )
            )
            n_sets = len(l1i._sets)
            res = _replay_code_bursts(c_midx, c_key, code_base, code_blocks, l1i)

            sets: dict = {}
            hits = misses = 0
            b_addr, b_attr, b_key = [], [], []
            for bi in range(k):
                m = int(c_midx[bi])
                for w in range(int(code_blocks[m])):
                    line = (int(code_base[m]) >> 6) + w
                    lset = sets.setdefault(line & (n_sets - 1), {})
                    if line in lset:
                        del lset[line]
                        lset[line] = None
                        hits += 1
                    else:
                        misses += 1
                        if len(lset) >= assoc:
                            lset.pop(next(iter(lset)))
                        lset[line] = None
                        b_addr.append(line << 6)
                        b_attr.append(m)
                        b_key.append(int(c_key[bi]) + 1 + w)
            if res is None:
                continue  # legitimate fallback (shared lines)
            exact += 1
            n_hits, n_misses, miss_addr, miss_attr, miss_key = res
            assert (n_hits, n_misses) == (hits, misses), f"counts trial {trial}"
            o1 = np.argsort(miss_key)
            o2 = np.argsort(np.asarray(b_key, dtype=np.int64))
            assert np.array_equal(miss_key[o1], np.asarray(b_key, dtype=np.int64)[o2])
            assert np.array_equal(miss_addr[o1], np.asarray(b_addr, dtype=np.int64)[o2])
            assert np.array_equal(miss_attr[o1], np.asarray(b_attr, dtype=np.int64)[o2])
        assert exact >= 40  # the fast path must actually engage


class TestBatchedKernels:
    """Property: an N-config batched kernel call == N single-config calls."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_counter_scan_batched_matches_single_config_runs(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n_cfg = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(0, 500))
        bias = data.draw(st.sampled_from([0.5, 0.9, 0.98]))
        taken = (rng.random(n) < bias).astype(np.int64)
        idx_rows, tables_batched, tables_single = [], [], []
        for _ in range(n_cfg):
            bits = data.draw(st.integers(0, 6))
            t0 = rng.integers(0, 4, 1 << bits).astype(np.uint8)
            idx_rows.append(rng.integers(0, 1 << bits, n).astype(np.int64))
            tables_batched.append(t0.copy())
            tables_single.append(t0.copy())
        miss = counter_scan_batched(idx_rows, taken, tables_batched)
        assert miss.shape == (n_cfg, n)
        for i in range(n_cfg):
            want = counter_scan(idx_rows[i], taken, tables_single[i])
            assert np.array_equal(miss[i], want), f"miss row {i}"
            assert np.array_equal(tables_batched[i], tables_single[i]), f"table {i}"
