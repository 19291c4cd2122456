"""Cycle-accounting cost model mapping telemetry to top-down categories.

This is the stand-in for the Intel top-down hardware counters used in
Section V-B of the paper.  The model replays the probe's sampled event
stream through a branch predictor and a cache hierarchy, extrapolates
the observed misprediction and miss *rates* to the exact event counts,
and then accounts cycles into the four top-down categories:

* **retiring** — issued micro-ops divided by the pipeline width;
* **bad speculation** — wrong-path micro-ops squashed on each branch
  misprediction;
* **front-end bound** — fetch bubbles from instruction-cache misses and
  pipeline refill after mispredictions;
* **back-end bound** — stall cycles from data-cache/TLB misses (scaled
  by a memory-level-parallelism factor) and long-latency floating-point
  operations.

All four components are attributed to the method whose events caused
them, which also yields the method-coverage profile of Section V-C.

There is one replay path, :func:`replay_reports`: a per-kind kernel
over the columnar event stream that evaluates a *list* of machine
configs in one pass.  :meth:`CostModel.evaluate` is its N=1 call and
``replay_capture_batched`` its N-config call.  Every kernel it rests on
is independent along some axis the configs never share, so the config
list is an extra dimension rather than a loop:

* **branch side** — branch events (the only events that touch
  predictor state) are split out with one NumPy mask; configs are
  grouped by predictor signature ``(kind, table_bits, history_bits)``
  and each distinct signature contributes one row to a single
  :func:`~repro.machine.kernel.counter_scan_batched` call.  Gshare
  history columns are computed once per distinct history depth.
* **memory side** — data accesses go through the closed-form LRU
  filters of :mod:`repro.machine.kernel`; instruction-fetch bursts are
  resolved once per unique (callee, intervening-method window) pair
  (:func:`_replay_code_bursts`).  Each cache level is memoized on the
  geometry fields it actually reads (:func:`_mem_replay`), so configs
  that differ only below a level share that level's work.
* **accounting** — per-config tallies are extrapolated to exact counts
  vectorized over methods (:func:`_account`).

Results are bit-identical to the historical scalar loop frozen in
``tests/_legacy_machine.py`` (``tests/test_golden_equivalence.py``);
replay volume and wall time are recorded under the
``engine.profile.*`` telemetry counters.  See DESIGN.md §9.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.coverage import CoverageProfile
from ..core.topdown import TopDownVector
from . import telemetry
from .cache import CacheGeometry, HierarchyStats
from .kernel import counter_scan_batched, gshare_history, lru_filter
from .telemetry import EV_BRANCH, EV_DATA, MethodCounters, Probe

__all__ = ["MachineConfig", "MethodCost", "CostModel", "MachineReport", "replay_reports"]

# Cap on synthesized instruction-fetch blocks per sampled call, so one
# giant method cannot dominate replay cost.
_MAX_FETCH_BLOCKS = 256

# Merge key stride for interleaving data accesses and per-call fetch
# blocks in original order; must exceed _MAX_FETCH_BLOCKS + 1.
_ORDER_STRIDE = 260


@dataclass(frozen=True)
class MachineConfig:
    """Microarchitectural parameters (defaults modelled on an i7-2600)."""

    width: int = 4
    clock_ghz: float = 3.4
    predictor: str = "gshare"
    predictor_table_bits: int = 14
    predictor_history_bits: int = 12
    wrongpath_uops: float = 16.0
    refill_cycles: float = 2.0
    l2_latency: float = 12.0
    llc_latency: float = 30.0
    mem_latency: float = 180.0
    mlp: float = 4.0
    fetch_overlap: float = 2.0
    tlb_walk_cycles: float = 30.0
    fp_backend_stall: float = 0.10
    fpdiv_backend_stall: float = 12.0
    call_overhead_uops: float = 4.0
    #: Cache/TLB geometry; the default matches the historical
    #: hard-coded i7-2600 hierarchy bit-for-bit.
    geometry: CacheGeometry = CacheGeometry()

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.clock_ghz <= 0:
            raise ValueError("clock_ghz must be positive")
        if self.predictor not in ("gshare", "bimodal"):
            raise ValueError(f"unknown predictor {self.predictor!r}")
        if self.mlp < 1.0 or self.fetch_overlap < 1.0:
            raise ValueError("mlp and fetch_overlap must be >= 1")


@dataclass
class MethodCost:
    """Per-method cycle accounting and derived statistics."""

    name: str
    uops: float = 0.0
    retiring_cycles: float = 0.0
    bad_spec_cycles: float = 0.0
    frontend_cycles: float = 0.0
    backend_cycles: float = 0.0
    est_mispredicts: float = 0.0
    est_data_misses: float = 0.0

    @property
    def total_cycles(self) -> float:
        return (
            self.retiring_cycles
            + self.bad_spec_cycles
            + self.frontend_cycles
            + self.backend_cycles
        )


@dataclass
class MachineReport:
    """Everything the cost model derives from one execution's telemetry."""

    topdown: TopDownVector
    coverage: CoverageProfile
    cycles: float
    seconds: float
    per_method: dict[str, MethodCost]
    cache_stats: HierarchyStats
    branch_misprediction_rate: float
    sampling_stride: int
    counters: dict[str, float] = field(default_factory=dict)


def _replay_code_bursts(
    c_midx: np.ndarray,
    c_key: np.ndarray,
    code_base: np.ndarray,
    code_blocks: np.ndarray,
    l1i,
):
    """Exact burst-granular L1I replay; ``None`` if preconditions fail.

    A call expands to a *fixed* sequence of fetch blocks for its callee,
    so the L1I line stream is a sequence of per-method bursts.  When no
    two methods share a line (checked), a burst's lines in one set are
    all hits or all misses together: a line's LRU window spans its own
    burst's other lines in that set plus every line of the *distinct*
    intervening methods, so it hits iff
    ``c[m, s] - 1 + sum(c[m', s] for distinct intervening m') < assoc``
    — one decision per (burst, set) instead of per line.  Intervening
    method sets come from bitmask ORs over inter-occurrence windows
    (``np.bitwise_or.reduceat``), which caps distinct callees at 64;
    streams with more fall back to the generic per-line path.

    ``c_key`` is each burst's pre-scaled merge key (original position
    times ``_ORDER_STRIDE``).  Returns ``(hits, misses, miss_addr,
    miss_attr, miss_key)`` where the arrays describe the per-line L2
    traffic of missing bursts; ``miss_addr`` carries the line address
    (low bits zero), which every lower level reduces by the same
    64-byte line shift.
    """
    if l1i.config.line_bytes != 64:
        # burst lines are ``(base >> shift) + within``, i.e. one line
        # per 64-byte fetch block — with wider lines adjacent blocks
        # share a line (MRU hits the scalar walk models), so fall back
        # to the per-line filter, which is exact for any line size
        return None
    uniq = np.unique(c_midx)
    if uniq.size > 64:
        return None
    n_sets = l1i.config.n_sets
    set_mask = l1i._set_mask
    shift = l1i._line_shift
    assoc = l1i.config.associativity
    k = c_midx.size

    # per-method line geometry, grouped by set
    c_mat = np.zeros((uniq.size, n_sets), dtype=np.int64)
    offs = np.zeros((uniq.size, n_sets + 1), dtype=np.int64)
    grouped_lines = []
    grouped_within = []
    total = 0
    for j, m in enumerate(uniq.tolist()):
        b = int(code_blocks[m])
        within = np.arange(b, dtype=np.int64)
        lines = (int(code_base[m]) >> shift) + within
        sets = lines & set_mask
        order = np.argsort(sets * b + within)
        grouped_lines.append(lines[order])
        grouped_within.append(within[order])
        cnt = np.bincount(sets, minlength=n_sets)
        c_mat[j] = cnt
        offs[j, 0] = total
        offs[j, 1:] = total + np.cumsum(cnt)
        total += b
    all_lines = np.concatenate(grouped_lines)
    if np.unique(all_lines).size != all_lines.size:
        return None  # methods share a line: window counts would double
    all_within = np.concatenate(grouped_within)

    # distinct-method masks of each inter-occurrence window
    uidx = np.searchsorted(uniq, c_midx)
    masks = np.uint64(1) << uidx.astype(np.uint64)
    exists_prev = np.zeros(k, dtype=bool)
    window = np.zeros(k, dtype=np.uint64)
    for j in range(uniq.size):
        p = np.flatnonzero(uidx == j)
        if p.size < 2:
            continue
        exists_prev[p[1:]] = True
        bounds = np.empty(2 * (p.size - 1), dtype=np.int64)
        bounds[0::2] = p[:-1] + 1
        bounds[1::2] = p[1:]
        # empty windows (adjacent occurrences) reduce to the burst's own
        # mask, which the self-bit clear below zeroes out
        w = np.bitwise_or.reduceat(masks, bounds)[0::2]
        window[p[1:]] = w & ~(np.uint64(1) << np.uint64(j))

    # Bursts with the same callee and the same intervening-method mask
    # have identical per-set decisions, so resolve hit/miss rows once
    # per unique (method, window) pair — typically a few dozen pairs
    # for tens of thousands of bursts — and broadcast back.
    uw, winv = np.unique(window, return_inverse=True)
    u = uniq.size
    table_w = np.zeros((uw.size + 1, n_sets), dtype=np.int64)
    for j in range(u):
        present = (uw >> np.uint64(j)) & np.uint64(1) != 0
        if present.any():
            table_w[:-1][present] += c_mat[j]
    # first-occurrence bursts get the sentinel pseudo-window: never hit
    qid = np.where(exists_prev, winv, uw.size) * u + uidx
    uq, qinv = np.unique(qid, return_inverse=True)
    q_m = uq % u
    q_w = uq // u
    q_touch = c_mat[q_m]
    q_hit = (q_touch > 0) & (q_touch - 1 + table_w[q_w] < assoc)
    q_hit[q_w == uw.size] = False
    q_hitw = (q_touch * q_hit).sum(axis=1)
    q_burst = q_touch.sum(axis=1)
    n_hits = int(q_hitw[qinv].sum())
    n_misses = int(q_burst[qinv].sum()) - n_hits

    # expand missing (burst, set) cells to their line-level L2 traffic:
    # per unique pair, the missing lines are a fixed index list into the
    # grouped line table, shared by every burst of that pair
    q_miss = (q_touch > 0) & ~q_hit
    # Expand every missing (pair, set) cell's line-index range in one
    # flat gather: np.nonzero walks row-major, so segments stay grouped
    # by pair, and one keyed sort puts each pair's lines in fetch order
    # — miss_key then comes out globally sorted and the L2 merge below
    # needs no sort of its own.
    qi_idx, s_idx = np.nonzero(q_miss)
    seg_lo = offs[q_m[qi_idx], s_idx]
    seg_len = offs[q_m[qi_idx], s_idx + 1] - seg_lo
    seg_cum = np.zeros(seg_len.size + 1, dtype=np.int64)
    np.cumsum(seg_len, out=seg_cum[1:])
    ramp = np.arange(seg_cum[-1], dtype=np.int64) - np.repeat(seg_cum[:-1], seg_len)
    flat_all = np.repeat(seg_lo, seg_len) + ramp
    rep_qi = np.repeat(qi_idx, seg_len)
    flat_src = flat_all[np.argsort(rep_qi * _ORDER_STRIDE + all_within[flat_all])]
    pair_lens = np.zeros(uq.size, dtype=np.int64)
    np.add.at(pair_lens, qi_idx, seg_len)
    pair_offs = np.zeros(uq.size + 1, dtype=np.int64)
    np.cumsum(pair_lens, out=pair_offs[1:])
    lens_b = pair_lens[qinv]
    n_lines = int(lens_b.sum())
    if not n_lines:
        empty = np.zeros(0, dtype=np.int64)
        return n_hits, n_misses, empty, empty, empty
    starts_b = np.zeros(k, dtype=np.int64)
    np.cumsum(lens_b[:-1], out=starts_b[1:])
    runs = np.arange(n_lines, dtype=np.int64) - np.repeat(starts_b, lens_b)
    src = flat_src[np.repeat(pair_offs[qinv], lens_b) + runs]
    miss_addr = all_lines[src] << shift
    miss_attr = np.repeat(c_midx, lens_b)
    miss_key = np.repeat(c_key, lens_b) + 1 + all_within[src]
    return n_hits, n_misses, miss_addr, miss_attr, miss_key


def _predictor_sig(cfg: MachineConfig) -> tuple:
    hbits = cfg.predictor_history_bits if cfg.predictor == "gshare" else 0
    return (cfg.predictor, cfg.predictor_table_bits, hbits)


def _branch_miss_rows(
    sigs: list[tuple], pc: np.ndarray, tak: np.ndarray
) -> np.ndarray:
    """Per-signature mispredict rows from one batched counter scan."""
    idx_rows: list[np.ndarray] = []
    tables: list[np.ndarray] = []
    hist_cache: dict[int, np.ndarray] = {}
    for kind, tbits, hbits in sigs:
        mask = (1 << tbits) - 1
        if kind == "gshare" and hbits:
            h = hist_cache.get(hbits)
            if h is None:
                h = hist_cache[hbits] = gshare_history(tak, 0, hbits)
            idx = (pc ^ h) & mask
        else:
            idx = pc & mask
        idx_rows.append(idx)
        # fresh predictors: every counter starts weakly not-taken (1)
        tables.append(np.full(1 << tbits, 1, dtype=np.uint8))
    return counter_scan_batched(idx_rows, tak, tables)


def _mem_replay(
    geos: list[CacheGeometry],
    nm: int,
    m_midx: np.ndarray,
    m_a: np.ndarray,
    data_sel: np.ndarray,
    code_base: np.ndarray,
    code_blocks: np.ndarray,
) -> list[tuple[HierarchyStats, dict[str, np.ndarray]]]:
    """Replay the data/fetch stream once for every distinct geometry.

    Data events repeating the previous data event's cache line are MRU
    hits in both the dTLB and the L1D with no state change, so they are
    dropped up front.  Each private level (dTLB, L1D) then filters its
    residual stream with one :func:`~repro.machine.kernel.lru_filter`
    call; the L1I replays call bursts at burst granularity
    (:func:`_replay_code_bursts`) when its preconditions hold.  L1
    misses are merged back into original program order (data and code
    share the L2/LLC) and cascaded through L2 then LLC.

    Each level's result is memoized on the geometry fields that level
    actually reads, so geometries differing only *below* a level share
    that level's work.  A level's memo key folds in the keys of the
    levels feeding it: an L2 filters the miss stream of one particular
    (L1D, L1I) pair, so its key is ``(stream key, own parameters)``.
    The full-length dTLB/L1D/L1I streams typically resolve once or
    twice per sweep; only the short residual miss streams fan out.

    Returns one ``(cache stats, per-method tallies)`` pair per geometry.
    """
    pos = np.arange(m_a.size, dtype=np.int64)
    d_midx = m_midx[data_sel]
    d_addr = m_a[data_sel]
    d_pos = pos[data_sel]
    c_midx = m_a[~data_sel]
    c_key0 = pos[~data_sel] * _ORDER_STRIDE
    nd = d_addr.size
    zeros = np.zeros(nm, dtype=np.int64)
    counts = {
        "data": np.bincount(d_midx, minlength=nm),
        "calls": np.bincount(c_midx, minlength=nm),
    }
    empty_i64 = np.zeros(0, dtype=np.int64)

    kept_memo: dict = {}  # line shift -> (r_midx, r_addr, r_pos, n_dup)
    tlb_memo: dict = {}  # (line shift, page shift, entries) -> tallies
    l1d_memo: dict = {}  # (line shift, set mask, assoc) -> (d_hit1, n_hit)
    l1i_memo: dict = {}  # (line shift, set mask, assoc) -> burst result
    stream_memo: dict = {}  # (l1d key, l1i key) -> merged L2 input
    l2_memo: dict = {}  # (stream key, l2 params) -> tallies + LLC input
    llc_memo: dict = {}  # (l2 key, llc params) -> tallies

    out = []
    for geometry in geos:
        hier = geometry.hierarchy()
        l1d, l1i, l2, llc, dtlb = hier.l1d, hier.l1i, hier.l2, hier.llc, hier.dtlb
        rep = dict(counts)

        # consecutive same-line dedup depends only on the line size
        line_key = l1d._line_shift
        kept = kept_memo.get(line_key)
        if kept is None:
            kept = (d_midx, d_addr, d_pos, 0)
            if nd:
                d_lines = d_addr >> line_key
                dup = np.zeros(nd, dtype=bool)
                dup[1:] = d_lines[1:] == d_lines[:-1]
                n_dup = int(dup.sum())
                if n_dup:
                    keep = ~dup
                    kept = (d_midx[keep], d_addr[keep], d_pos[keep], n_dup)
            kept_memo[line_key] = kept
        r_midx, r_addr, r_pos, n_dup = kept
        nr = r_addr.size

        # --- dTLB (fully associative over pages) and L1D
        dkey = ikey = None
        d_hit1 = np.zeros(0, dtype=bool)
        rep["d_tlb"] = zeros
        if nd:
            tkey = (line_key, dtlb._page_shift, dtlb.entries)
            tres = tlb_memo.get(tkey)
            if tres is None:
                # pages are coarser than lines, so consecutive accesses
                # repeat them even after the line dedup — again MRU hits
                # with no state change
                pages = r_addr >> dtlb._page_shift
                pdup = np.zeros(nr, dtype=bool)
                pdup[1:] = pages[1:] == pages[:-1]
                n_pdup = int(pdup.sum())
                if n_pdup:
                    pkeep = ~pdup
                    t_hit = lru_filter(pages[pkeep], 0, dtlb.entries)
                    t_miss_midx = r_midx[pkeep][~t_hit]
                else:
                    t_hit = lru_filter(pages, 0, dtlb.entries)
                    t_miss_midx = r_midx[~t_hit]
                tres = tlb_memo[tkey] = (
                    n_pdup,
                    int(t_hit.sum()),
                    np.bincount(t_miss_midx, minlength=nm),
                )
            n_pdup, t_hits, rep["d_tlb"] = tres
            dtlb.hits += n_dup + n_pdup + t_hits
            dtlb.misses += (nr - n_pdup) - t_hits

            dkey = (line_key, l1d._set_mask, l1d.config.associativity)
            dres = l1d_memo.get(dkey)
            if dres is None:
                hit = lru_filter(r_addr >> line_key, l1d._set_mask, l1d.config.associativity)
                dres = l1d_memo[dkey] = (hit, int(hit.sum()))
            d_hit1, n_hit = dres
            l1d.hits += n_dup + n_hit
            l1d.misses += nr - n_hit

        # --- L1I: burst-granular, falling back to the per-line filter
        i_miss_addr = i_miss_attr = i_miss_key = empty_i64
        if c_midx.size:
            ikey = (l1i._line_shift, l1i._set_mask, l1i.config.associativity)
            ires = l1i_memo.get(ikey)
            if ires is None:
                ires = _replay_code_bursts(c_midx, c_key0, code_base, code_blocks, l1i)
                if ires is None:
                    blocks = code_blocks[c_midx]
                    total_blocks = int(blocks.sum())
                    starts = np.zeros(c_midx.size, dtype=np.int64)
                    np.cumsum(blocks[:-1], out=starts[1:])
                    within = np.arange(total_blocks, dtype=np.int64) - np.repeat(
                        starts, blocks
                    )
                    i_addr = np.repeat(code_base[c_midx], blocks) + within * 64
                    i_hit1 = lru_filter(
                        i_addr >> l1i._line_shift, l1i._set_mask, l1i.config.associativity
                    )
                    n_hit = int(i_hit1.sum())
                    i_miss = ~i_hit1
                    ires = (
                        n_hit,
                        total_blocks - n_hit,
                        i_addr[i_miss],
                        np.repeat(c_midx, blocks)[i_miss],
                        (np.repeat(c_key0, blocks) + 1 + within)[i_miss],
                    )
                l1i_memo[ikey] = ires
            n_hits, n_misses, i_miss_addr, i_miss_attr, i_miss_key = ires
            l1i.hits += n_hits
            l1i.misses += n_misses

        # --- L2: this L1 pair's misses merged back to program order.
        # Both halves arrive key-sorted (data keys follow event position;
        # fetch-block keys are emitted in fetch order within each burst
        # and bursts in position order), and merge keys are distinct, so
        # two searchsorted calls place every element — no sort needed.
        skey = (dkey, ikey)
        sres = stream_memo.get(skey)
        if sres is None:
            d_miss = ~d_hit1
            a_addr = r_addr[d_miss]
            na, nb = a_addr.size, i_miss_addr.size
            a_keys = r_pos[d_miss] * _ORDER_STRIDE
            pos_a = np.arange(na, dtype=np.int64) + np.searchsorted(i_miss_key, a_keys)
            pos_b = np.arange(nb, dtype=np.int64) + np.searchsorted(a_keys, i_miss_key)
            l2_addr = np.empty(na + nb, dtype=np.int64)
            l2_addr[pos_a] = a_addr
            l2_addr[pos_b] = i_miss_addr
            l2_attr = np.empty(na + nb, dtype=np.int64)
            l2_attr[pos_a] = r_midx[d_miss]
            l2_attr[pos_b] = i_miss_attr
            l2_from_data = np.zeros(na + nb, dtype=bool)
            l2_from_data[pos_a] = True
            sres = stream_memo[skey] = (l2_addr, l2_attr, l2_from_data)
        l2_addr, l2_attr, l2_from_data = sres

        l2key = (skey, l2._line_shift, l2._set_mask, l2.config.associativity)
        l2res = l2_memo.get(l2key)
        if l2res is None:
            hit2 = lru_filter(l2_addr >> l2._line_shift, l2._set_mask, l2.config.associativity)
            miss2 = ~hit2
            l2res = l2_memo[l2key] = (
                int(hit2.sum()),
                int(miss2.sum()),
                np.bincount(l2_attr[hit2 & l2_from_data], minlength=nm),
                np.bincount(l2_attr[hit2 & ~l2_from_data], minlength=nm),
                (l2_addr[miss2], l2_attr[miss2], l2_from_data[miss2]),
            )
        n_hit2, n_miss2, rep["d_l2"], rep["c_l2"], llc_in = l2res
        l2.hits += n_hit2
        l2.misses += n_miss2

        # --- LLC sees L2 misses, order preserved
        lkey = (l2key, llc._line_shift, llc._set_mask, llc.config.associativity)
        lres = llc_memo.get(lkey)
        if lres is None:
            llc_addr, llc_attr, llc_from_data = llc_in
            hit3 = lru_filter(
                llc_addr >> llc._line_shift, llc._set_mask, llc.config.associativity
            )
            lres = llc_memo[lkey] = (
                int(hit3.sum()),
                int((~hit3).sum()),
                np.bincount(llc_attr[hit3 & llc_from_data], minlength=nm),
                np.bincount(llc_attr[hit3 & ~llc_from_data], minlength=nm),
                np.bincount(llc_attr[~hit3 & llc_from_data], minlength=nm),
                np.bincount(llc_attr[~hit3 & ~llc_from_data], minlength=nm),
            )
        n_hit3, n_miss3, rep["d_llc"], rep["c_llc"], rep["d_mem"], rep["c_mem"] = lres
        llc.hits += n_hit3
        llc.misses += n_miss3
        out.append((hier.stats(), rep))
    return out


def _account(
    cfg: MachineConfig,
    methods: "tuple[MethodCounters, ...] | list[MethodCounters]",
    rep: "dict[str, np.ndarray]",
    cache_stats: HierarchyStats,
    sampling_stride: int,
) -> MachineReport:
    """Turn per-method replay tallies into one config's report.

    ``rep`` maps each tally name (``branches``, ``mispredicts``,
    ``data``, ``d_l2``/``d_llc``/``d_mem``/``d_tlb``, ``calls``,
    ``c_l2``/``c_llc``/``c_mem``) to an int64 per-method array.
    Vectorized over methods; every elementwise expression mirrors the
    historical scalar accounting operation-for-operation so results stay
    bit-identical (int64 inputs convert to float64 at the same points
    the historical path converted them).
    """
    nm = len(methods)
    mc_int = np.array([mc.int_ops for mc in methods], dtype=np.int64)
    mc_fp = np.array([mc.fp_ops for mc in methods], dtype=np.int64)
    mc_fpdiv = np.array([mc.fpdiv_ops for mc in methods], dtype=np.int64)
    mc_br = np.array([mc.branches for mc in methods], dtype=np.int64)
    mc_ld = np.array([mc.loads for mc in methods], dtype=np.int64)
    mc_st = np.array([mc.stores for mc in methods], dtype=np.int64)
    mc_calls = np.array([mc.calls for mc in methods], dtype=np.int64)

    rep_br = rep["branches"]
    rep_mis = rep["mispredicts"]
    rep_data = rep["data"]
    d_l2 = rep["d_l2"]
    d_llc = rep["d_llc"]
    d_mem = rep["d_mem"]
    d_tlb = rep["d_tlb"]
    rep_calls = rep["calls"]
    c_l2 = rep["c_l2"]
    c_llc = rep["c_llc"]
    c_mem = rep["c_mem"]

    zeros = np.zeros(nm, dtype=np.float64)
    uops = (
        mc_int + mc_fp + mc_fpdiv + mc_br + mc_ld + mc_st
    ) + mc_calls * cfg.call_overhead_uops
    retiring = uops / cfg.width

    miss_rate = np.divide(rep_mis, rep_br, out=zeros.copy(), where=rep_br > 0)
    est_mispredicts = mc_br * miss_rate
    bad_spec = est_mispredicts * cfg.wrongpath_uops / cfg.width

    call_scale = np.divide(mc_calls, rep_calls, out=zeros.copy(), where=rep_calls > 0)
    frontend = est_mispredicts * cfg.refill_cycles + (
        call_scale
        * (c_l2 * cfg.l2_latency + c_llc * cfg.llc_latency + c_mem * cfg.mem_latency)
        / cfg.fetch_overlap
    )

    data_scale = np.divide(
        mc_ld + mc_st, rep_data, out=zeros.copy(), where=rep_data > 0
    )
    est_data_misses = data_scale * (d_l2 + d_llc + d_mem)
    backend = (
        mc_fp * cfg.fp_backend_stall + mc_fpdiv * cfg.fpdiv_backend_stall
    ) + (
        data_scale
        * (
            d_l2 * cfg.l2_latency
            + d_llc * cfg.llc_latency
            + d_mem * cfg.mem_latency
            + d_tlb * cfg.tlb_walk_cycles
        )
        / cfg.mlp
    )

    per_method: dict[str, MethodCost] = {}
    for i, mc in enumerate(methods):
        per_method[mc.name] = MethodCost(
            name=mc.name,
            uops=float(uops[i]),
            retiring_cycles=float(retiring[i]),
            bad_spec_cycles=float(bad_spec[i]),
            frontend_cycles=float(frontend[i]),
            backend_cycles=float(backend[i]),
            est_mispredicts=float(est_mispredicts[i]),
            est_data_misses=float(est_data_misses[i]),
        )

    total_ret = sum(c.retiring_cycles for c in per_method.values())
    total_bad = sum(c.bad_spec_cycles for c in per_method.values())
    total_fe = sum(c.frontend_cycles for c in per_method.values())
    total_be = sum(c.backend_cycles for c in per_method.values())
    total = total_ret + total_bad + total_fe + total_be
    if total <= 0:
        raise ValueError("cost model: benchmark recorded no work")

    topdown = TopDownVector.from_cycles(total_fe, total_be, total_bad, total_ret)
    coverage = CoverageProfile.from_times(
        {name: c.total_cycles for name, c in per_method.items() if c.total_cycles > 0}
    )
    seconds = total / (cfg.clock_ghz * 1e9)

    total_sampled_branches = float(rep_br.sum())
    total_sampled_miss = float(rep_mis.sum())
    mispred_rate = (
        total_sampled_miss / total_sampled_branches if total_sampled_branches else 0.0
    )
    return MachineReport(
        topdown=topdown,
        coverage=coverage,
        cycles=total,
        seconds=seconds,
        per_method=per_method,
        cache_stats=cache_stats,
        branch_misprediction_rate=mispred_rate,
        sampling_stride=sampling_stride,
        counters={
            "uops": sum(c.uops for c in per_method.values()),
            "branches": float(sum(mc.branches for mc in methods)),
            "data_accesses": float(sum(mc.data_accesses for mc in methods)),
            "est_mispredicts": sum(c.est_mispredicts for c in per_method.values()),
            "est_data_misses": sum(c.est_data_misses for c in per_method.values()),
        },
    )


def replay_reports(
    methods: "tuple[MethodCounters, ...] | list[MethodCounters]",
    columns: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    sampling_stride: int,
    configs: "list[MachineConfig]",
) -> list[MachineReport]:
    """Replay one event stream under every config in ``configs``.

    ``methods`` are the per-method counters in registration-index order
    and ``columns`` the four event columns ``(method index, kind, a,
    b)``.  Returns one :class:`MachineReport` per config, in order; a
    one-element list is exactly what :meth:`CostModel.evaluate` returns.
    The store flag (column ``b`` of data events) does not affect
    replay: caches are write-allocate, so loads and stores take the
    same path.
    """
    nm = len(methods)
    midx, kind, a_col, b_col = columns

    # --- branch side: one batched counter scan over distinct signatures
    branch_sel = kind == EV_BRANCH
    sigs: dict[tuple, int] = {}
    for cfg in configs:
        sigs.setdefault(_predictor_sig(cfg), len(sigs))
    branches = np.zeros(nm, dtype=np.int64)
    mis_rows = [branches] * len(sigs)
    if branch_sel.any():
        b_midx = midx[branch_sel]
        branches = np.bincount(b_midx, minlength=nm)
        tak = (b_col[branch_sel] != 0).astype(np.int64)
        miss = _branch_miss_rows(list(sigs), a_col[branch_sel], tak)
        mis_rows = [
            np.bincount(b_midx, weights=row, minlength=nm).astype(np.int64) for row in miss
        ]

    # --- memory side: one pass over distinct geometries
    geos: dict[CacheGeometry, int] = {}
    for cfg in configs:
        geos.setdefault(cfg.geometry, len(geos))
    code_base = np.zeros(nm, dtype=np.int64)
    code_blocks = np.zeros(nm, dtype=np.int64)
    for mc in methods:
        code_base[mc.index] = mc.code_base
        code_blocks[mc.index] = min(max(1, mc.code_bytes // 64), _MAX_FETCH_BLOCKS)
    mem_sel = ~branch_sel
    mem = _mem_replay(
        list(geos),
        nm,
        midx[mem_sel],
        a_col[mem_sel],
        kind[mem_sel] == EV_DATA,
        code_base,
        code_blocks,
    )

    # --- per-config accounting over the shared tallies
    reports = []
    for cfg in configs:
        cache_stats, rep = mem[geos[cfg.geometry]]
        rep = dict(rep, branches=branches, mispredicts=mis_rows[sigs[_predictor_sig(cfg)]])
        reports.append(_account(cfg, methods, rep, cache_stats, sampling_stride))
    return reports


class CostModel:
    """Evaluates a :class:`~repro.machine.telemetry.Probe` into a report."""

    def __init__(self, config: MachineConfig | None = None):
        self.config = config or MachineConfig()

    def evaluate(self, probe: Probe) -> MachineReport:
        """Replay the probe's sampled stream: :func:`replay_reports` at N=1."""
        t0 = time.perf_counter_ns()
        (report,) = replay_reports(
            probe.methods(), probe.events.columns(), probe.sampling_stride, [self.config]
        )
        telemetry.record("engine.profile.replay_events", len(probe.events))
        telemetry.record("engine.profile.replay_ns", time.perf_counter_ns() - t0)
        telemetry.record("engine.profile.evaluations", 1)
        telemetry.record_max("engine.profile.replay_stride_max", probe.sampling_stride)
        return report
