"""Fault-tolerant, parallel, cached characterization execution engine.

:func:`repro.core.characterize.characterize_suite` is a benchmark ×
workload profiling matrix; every cell — run one benchmark on one
workload under a fixed machine config — is independent and
deterministic.  The engine exploits both properties:

* **Parallelism** — cells fan out over a ``ProcessPoolExecutor``
  (worker count configurable, default ``os.cpu_count()``).  Results
  are collected in submission order, so parallel runs feed
  ``summarize_topdown`` / ``summarize_coverage`` the exact same profile
  sequence as a serial run and the summaries are bit-identical.
* **Staged execution** — every cell is resolved through the
  ``generate → capture → replay → summarize`` pipeline.  The *capture*
  stage executes the benchmark and snapshots its telemetry
  (machine-independent; see :mod:`repro.machine.capture`); the
  *replay* stage evaluates a capture under the cell's machine config.
  The stages are separately cached in an
  :class:`~repro.core.artifacts.ArtifactStore`, so a machine-config or
  FDO-build sweep (:meth:`CharacterizationEngine.characterize_sweep_run`)
  executes each benchmark once and replays the stored stream N times.
* **Caching** — each cell is looked up in the profile store before
  being scheduled, keyed by the cell's full content (see
  :func:`repro.core.cache.cache_key`), so warm re-runs of Table II,
  the figures, and the studies skip the profiling entirely; a profile
  miss next consults the capture store (keyed machine-independently by
  :func:`repro.core.cache.capture_key`) to skip at least the
  benchmark execution.
* **Fault tolerance** — a cell that raises, exceeds the per-cell
  ``timeout``, or takes its worker process down with it is retried up
  to ``retries`` times with a deterministic exponential backoff; a
  broken or timed-out pool is torn down and the surviving cells are
  resubmitted to a fresh one (bounded by ``max_pool_restarts``).
  Under ``strict=True`` (default) an exhausted cell raises
  :class:`~repro.core.errors.CellFailure`; under ``strict=False`` the
  run completes and failed cells are reported in the result instead.
* **Tracing** — every completed cell emits a
  :class:`~repro.core.trace.CellSpan` through the engine's
  :class:`~repro.core.trace.TraceWriter` (benchmark, workload, cache
  hit/miss, attempts, duration, outcome), counted in the metrics
  registry (``repro_cells_total``) and optionally journaled as JSONL
  (see ``repro suite --trace`` / ``repro trace``).

Default Alberta workload sets are keyed by recipe, not minted: the
store's workload-set index (:class:`~repro.core.artifacts.SetIndex`)
holds every set's workload fingerprints, so cells are named and keyed
without their payloads, and a set is minted only on an index miss or
when one of its cells actually executes — at most once per process
(see :class:`_WorkloadSets`).  Worker processes regenerate what they
execute from ``(benchmark_id, base_seed)`` instead of receiving pickled
payloads; explicitly-provided workload sets are shipped to the workers
as-is and keep payload-digest keys.  Profiles returned from workers and
from the cache carry ``output=None`` — the summaries never read the
benchmark output.

Fault injection (for tests and chaos drills): set
``REPRO_FAULT_INJECT`` to ``;``-separated entries of the form
``mode[(arg)]:benchmark_glob:workload_glob[:max_attempt]`` with modes
``raise`` (worker raises), ``exit`` (worker process dies via
``os._exit(arg or 13)``, breaking the pool), and ``hang`` (worker
sleeps ``arg or 60`` seconds, tripping the timeout).  ``max_attempt``
limits the injection to the first N attempts, so retry-recovery paths
are testable deterministically.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError  # distinct type pre-3.11
from dataclasses import dataclass, replace
from fnmatch import fnmatch
from itertools import zip_longest
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from ..machine.capture import (
    TelemetryCapture,
    capture_execution,
    replay_capture,
    replay_capture_batched,
)
from ..machine.cost import MachineConfig
from ..machine.profiler import ExecutionProfile
from . import metrics
from .artifacts import ArtifactStore, SetIndex
from .cache import (
    ResultCache,
    WorkloadRef,
    cache_key,
    capture_key,
    set_key,
    workload_fingerprint,
)
from .errors import CellFailure, WorkloadError
from .registry import (
    CAP_CAPTURE_ONLY,
    CAP_SWEEPABLE,
    REGISTRY,
    alberta_workloads,
    benchmark_ids,
    get_benchmark,
)
from .resources import StageResourceTracker, merge_stacks, sampler_from_env
from .trace import CellSpan, StageSpan, TraceWriter
from .workload import Workload, WorkloadSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .characterize import BenchmarkCharacterization

__all__ = [
    "CharacterizationEngine",
    "CellOutcome",
    "default_workers",
    "verify_workload_sets",
    "FAULT_INJECT_ENV",
]

#: Environment variable holding the fault-injection spec.
FAULT_INJECT_ENV = "REPRO_FAULT_INJECT"

#: Sentinel distinguishing "use the engine's machine" from an explicit None.
_ENGINE_MACHINE: Any = object()


def default_workers() -> int:
    """The engine's default worker count: every available CPU."""
    return os.cpu_count() or 1


def _require_capability(benchmark_id: str, capability: str, *, stage: str) -> None:
    """Reject a registered benchmark whose descriptor forbids ``stage``.

    Unregistered benchmarks (ad-hoc substrates built in tests) pass
    through untouched — capability flags only constrain descriptors
    that actually declared them.
    """
    d = REGISTRY.find("benchmark", benchmark_id)
    if d is None:
        return
    if CAP_CAPTURE_ONLY in d.capabilities:
        raise WorkloadError(
            f"{stage}: benchmark {benchmark_id!r} is registered "
            f"{CAP_CAPTURE_ONLY!r} and cannot be replayed or swept"
        )
    if capability not in d.capabilities:
        raise WorkloadError(
            f"{stage}: benchmark {benchmark_id!r} lacks the "
            f"{capability!r} capability"
        )


@dataclass(frozen=True)
class _Cell:
    """One (benchmark, workload) unit of the profiling matrix.

    ``workload`` is ``None`` for default Alberta workloads — the worker
    regenerates them from ``(benchmark_id, base_seed)`` rather than
    unpickling the payload.  Custom workloads ride along explicitly.
    """

    benchmark_id: str
    workload_name: str
    base_seed: int
    machine: MachineConfig | None
    workload: Workload | None = None


@dataclass(frozen=True)
class CellOutcome:
    """The terminal record of one cell's execution (or cache hit).

    ``capture``/``replay`` record the stage-level story: which stage
    actually ran (``"run"``), was served from a store (``"hit"``), or
    never happened (``"-"``).  ``profile`` holds the finished
    :class:`ExecutionProfile` — except for capture-stage-only outcomes
    (:meth:`CharacterizationEngine.capture_run`), where it holds the
    :class:`~repro.machine.capture.TelemetryCapture` instead.
    """

    cell: _Cell
    profile: Any  # ExecutionProfile | TelemetryCapture | None
    cache: str  # "hit" | "miss" | "off" | "-"
    attempts: int
    duration_s: float
    outcome: str  # "ok" | "failed" | "timeout" | "crashed"
    error: str | None = None
    capture: str = "-"  # "hit" | "run" | "-"
    replay: str = "-"  # "hit" | "run" | "-"
    build: str | None = None
    #: Run-timeline start (seconds since the trace writer started); -1
    #: means "unknown" and is backfilled at span-emission time.
    start_s: float = -1.0
    #: ``(stage_name, start offset within the cell, duration)`` triples,
    #: optionally extended with a fourth resource-attribution dict (see
    #: :mod:`repro.core.resources`).
    stages: tuple = ()
    #: ``replay="run"`` was served by a one-pass multi-config sweep replay.
    batched: bool = False

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    def span(
        self, *, span_id: str = "", parent_id: str = "", start_s: float = 0.0
    ) -> CellSpan:
        return CellSpan(
            benchmark=self.cell.benchmark_id,
            workload=self.cell.workload_name,
            cache=self.cache,
            attempts=self.attempts,
            duration_s=self.duration_s,
            outcome=self.outcome,
            error=self.error,
            capture=self.capture,
            replay=self.replay,
            build=self.build,
            span_id=span_id,
            parent_id=parent_id,
            start_s=start_s,
            batched=self.batched,
        )

    def failure(self) -> CellFailure:
        """The unraised :class:`CellFailure` describing this outcome."""
        return CellFailure(
            self.cell.benchmark_id,
            self.cell.workload_name,
            attempts=self.attempts,
            outcome=self.outcome,
            error=self.error or "",
        )


# ----------------------------------------------------------- worker side

class _WorkloadSets:
    """Process-wide resolver of default (Alberta) workload sets.

    Every engine and Session path that defaults to the Alberta set goes
    through here.  :meth:`resolve` names a set's workloads for keying:
    from the store's :class:`~repro.core.artifacts.SetIndex` when it
    holds the set's recipe key, otherwise by minting the set and
    indexing its fingerprints.  :meth:`workloads` hands out the minted
    payloads to the cells that execute (inline, or in a pool worker's
    own copy of this resolver).  A set is minted at most once per
    process, and both memos are keyed by the recipe key
    (:func:`~repro.core.cache.set_key`), so re-registering a generator
    at a new version never serves the old set.

    A mint is the ground truth: when it happens for a set an index
    served earlier in this process, the index entry is compared with
    it and replaced if stale (``store="sets", event="stale"``).  Every
    mint is counted as ``store="sets", event="mint"``.

    Deliberately unlocked: two threads may both mint a set, which is
    deterministic and so only wasted work, whereas a lock held by one
    thread while another forks a process pool would be inherited held
    by the workers.
    """

    def __init__(self) -> None:
        self._minted: dict[str, WorkloadSet] = {}
        self._fingerprints: dict[str, tuple[dict[str, Any], ...]] = {}
        #: recipe key -> (index, fingerprints) of sets served from an index.
        self._served: dict[str, tuple[SetIndex, tuple[dict[str, Any], ...]]] = {}
        #: Sets minted by this process; stages journal the delta.
        self.mints = 0

    def resolve(
        self, benchmark_id: str, base_seed: int, index: SetIndex | None
    ) -> "list[Workload] | list[WorkloadRef]":
        """The set's workloads in order — payload-free refs when keyed."""
        key = set_key(benchmark_id, base_seed)
        if key is None:  # no generator: let the registry raise its error
            return list(alberta_workloads(benchmark_id, base_seed))
        if index is None:
            return list(self._mint(key, benchmark_id, base_seed))
        fps = index.get(key, benchmark_id, base_seed)
        if fps is None:
            self._mint(key, benchmark_id, base_seed)
            fps = self._fingerprints_of(key)
            index.put(key, benchmark_id, base_seed, fps)
        elif key in self._minted:
            fps = self._heal(index, key, benchmark_id, base_seed, fps)
        else:
            self._served[key] = (index, fps)
        return [WorkloadRef(fp) for fp in fps]

    def workloads(self, benchmark_id: str, base_seed: int) -> WorkloadSet:
        """The minted set (with payloads), minting on a memo miss."""
        key = set_key(benchmark_id, base_seed)
        if key is None:
            return alberta_workloads(benchmark_id, base_seed)
        return self._mint(key, benchmark_id, base_seed)

    def _mint(self, key: str, benchmark_id: str, base_seed: int) -> WorkloadSet:
        wset = self._minted.get(key)
        if wset is not None:
            return wset
        # Through this module's own name, so wrappers of
        # ``engine.alberta_workloads`` see every mint.
        wset = self._minted[key] = alberta_workloads(benchmark_id, base_seed)
        self.mints += 1
        metrics.inc(metrics.CACHE_EVENTS_TOTAL, store="sets", event="mint")
        served = self._served.pop(key, None)
        if served is not None:
            index, indexed = served
            self._heal(index, key, benchmark_id, base_seed, indexed)
        return wset

    def _heal(
        self,
        index: SetIndex,
        key: str,
        benchmark_id: str,
        base_seed: int,
        indexed: tuple[dict[str, Any], ...],
    ) -> tuple[dict[str, Any], ...]:
        """Replace an index entry the minted set disagrees with."""
        minted = self._fingerprints_of(key)
        if minted != indexed:
            index.replace_stale(key, benchmark_id, base_seed, minted)
        return minted

    def _fingerprints_of(self, key: str) -> tuple[dict[str, Any], ...]:
        fps = self._fingerprints.get(key)
        if fps is None:
            fps = self._fingerprints[key] = tuple(
                workload_fingerprint(w) for w in self._minted[key]
            )
        return fps


_SETS = _WorkloadSets()


def verify_workload_sets(
    index: SetIndex, *, sample: int | None = None, seed: int = 0
) -> "tuple[list[tuple[str, int, list[str]]], int]":
    """Re-mint index entries and compare every workload fingerprint.

    ``sample`` picks that many entries (seeded by ``seed``); ``None``
    checks all of them.  Returns ``(checked, skipped)``: one
    ``(benchmark, base_seed, stale workload names)`` triple per
    re-minted entry — no names means the entry matches — and how many
    sampled entries are keyed for another repro version or generator
    (no current run reads those).  A stale entry is quarantined, so the
    next run re-mints its set.
    """
    recipes = index.recipes()
    if sample is not None and sample < len(recipes):
        recipes = sorted(random.Random(seed).sample(recipes, sample))
    checked: list[tuple[str, int, list[str]]] = []
    skipped = 0
    for key, benchmark_id, base_seed in recipes:
        if set_key(benchmark_id, base_seed) != key:
            skipped += 1
            continue
        stored = index.get(key, benchmark_id, base_seed)
        if stored is None:  # quarantined since it was listed
            continue
        fresh = [
            workload_fingerprint(w) for w in alberta_workloads(benchmark_id, base_seed)
        ]
        stale = [
            (new or old)["name"]
            for old, new in zip_longest(stored, fresh)
            if old != new
        ]
        if stale:
            index.quarantine(key)
        checked.append((benchmark_id, base_seed, stale))
    return checked, skipped
_WORKER_BENCHMARKS: dict[str, Any] = {}


def _worker_benchmark(benchmark_id: str) -> Any:
    bench = _WORKER_BENCHMARKS.get(benchmark_id)
    if bench is None:
        bench = _WORKER_BENCHMARKS[benchmark_id] = get_benchmark(benchmark_id)
    return bench


def _worker_workload(cell: _Cell) -> Workload:
    if cell.workload is not None:
        return cell.workload
    return _SETS.workloads(cell.benchmark_id, cell.base_seed)[cell.workload_name]


class _InjectedFault(RuntimeError):
    """Raised by ``REPRO_FAULT_INJECT`` ``raise`` entries."""


def _parse_fault_spec(spec: str) -> list[tuple[str, float | None, str, str, int]]:
    """``mode[(arg)]:bench_glob:wl_glob[:max_attempt]`` entries."""
    entries = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) < 3:
            continue
        mode, arg = parts[0], None
        if "(" in mode and mode.endswith(")"):
            mode, raw = mode[:-1].split("(", 1)
            arg = float(raw)
        max_attempt = int(parts[3]) if len(parts) > 3 else 1 << 30
        entries.append((mode, arg, parts[1], parts[2], max_attempt))
    return entries


def _maybe_inject_fault(cell: _Cell, attempt: int) -> None:
    spec = os.environ.get(FAULT_INJECT_ENV)
    if not spec:
        return
    for mode, arg, bench_glob, wl_glob, max_attempt in _parse_fault_spec(spec):
        if attempt > max_attempt:
            continue
        if not fnmatch(cell.benchmark_id, bench_glob):
            continue
        if not fnmatch(cell.workload_name, wl_glob):
            continue
        if mode == "raise":
            raise _InjectedFault(
                f"injected fault: {cell.benchmark_id}/{cell.workload_name} "
                f"attempt {attempt}"
            )
        if mode == "exit":
            os._exit(int(arg) if arg is not None else 13)
        if mode == "hang":
            time.sleep(arg if arg is not None else 60.0)


def _replay_lap(
    tracker: StageResourceTracker,
    reg: metrics.MetricsRegistry,
    benchmark_id: str,
    share: int = 1,
) -> dict[str, Any]:
    """A replay stage's resources: the rusage lap plus kernel events/ns.

    ``share`` splits one batched replay's resources evenly across the
    ``share`` cells it served, so per-stage sums stay run totals.
    """
    res = tracker.lap()
    res["cpu_user_s"] /= share
    res["cpu_sys_s"] /= share
    for key, family in (
        ("replay_events", metrics.REPLAY_EVENTS_TOTAL),
        ("replay_ns", metrics.REPLAY_NS_TOTAL),
    ):
        res[key] = int(reg.value(family, benchmark=benchmark_id) or 0) // share
    return res


def _run_cell(
    cell: _Cell, attempt: int = 1, mode: str = "replay"
) -> tuple[ExecutionProfile | None, TelemetryCapture | None, dict[str, Any]]:
    """Execute one matrix cell (runs in a worker process or inline).

    Always runs the capture stage; ``mode`` picks what crosses the
    process boundary back to the parent:

    * ``"replay"`` — replay in the worker, return only the profile
      (store-less runs: no reason to ship the telemetry columns);
    * ``"both"`` — replay in the worker *and* return the capture so
      the parent can persist it for later sweeps;
    * ``"capture"`` — skip replay, return only the capture
      (stage-level capture runs).

    The third element is the cell's observability meta: ``"stages"`` is
    ``(name, start offset, duration, resources)`` entries for the
    generate/capture/replay stages — ``resources`` carries the stage's
    ``getrusage`` deltas (and sample counts / replay event totals where
    they apply, see :mod:`repro.core.resources`) — and ``"metrics"`` is
    the worker's
    :class:`~repro.core.metrics.MetricsRegistry` snapshot — the events
    emitted, replay throughput, and per-worker tallies recorded while
    the cell ran, serialized JSON-safe so they survive the pool
    boundary and merge exactly into the parent's registries.

    The benchmark output never crosses the boundary: captures and
    replayed profiles carry ``output=None`` by construction, keeping
    worker results byte-compatible with cache hits.
    """
    _maybe_inject_fault(cell, attempt)
    reg = metrics.MetricsRegistry()
    stages: list[list[Any]] = []
    tracker = StageResourceTracker()
    sampler = sampler_from_env()
    if sampler is not None:
        sampler.start()
    t0 = time.perf_counter()
    try:
        with metrics.collector(reg):
            metrics.inc(metrics.WORKER_CELLS_TOTAL, worker=str(os.getpid()))
            mints = _SETS.mints
            workload = _worker_workload(cell)
            t1 = time.perf_counter()
            res = tracker.lap()
            res["minted"] = _SETS.mints - mints
            stages.append(["generate", 0.0, t1 - t0, res])
            capture = capture_execution(_worker_benchmark(cell.benchmark_id), workload)
            t2 = time.perf_counter()
            stages.append(["capture", t1 - t0, t2 - t1, tracker.lap()])
            if mode == "capture":
                profile = None
            else:
                profile = replay_capture(capture, machine=cell.machine)
                t3 = time.perf_counter()
                res = _replay_lap(tracker, reg, cell.benchmark_id)
                stages.append(["replay", t2 - t0, t3 - t2, res])
    finally:
        if sampler is not None:
            sampler.stop()
    meta = {"stages": stages, "metrics": reg.to_dict()}
    if sampler is not None:
        for st in stages:
            n = sampler.samples_between(t0 + st[1], t0 + st[1] + st[2])
            if n:
                st[3]["samples"] = n
        meta["stacks"] = sampler.stacks
    if mode == "capture":
        return None, capture, meta
    return profile, (capture if mode == "both" else None), meta


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Best-effort terminate a pool's worker processes (hung/broken)."""
    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - process already gone
            pass


# ----------------------------------------------------------- parent side


class CharacterizationEngine:
    """Runs profiling matrices in parallel with cache, retries, tracing.

    Args:
        workers: process count; ``None`` means ``os.cpu_count()``.
            ``workers=1`` executes inline (no pool, no pickling) unless
            a ``timeout`` is set, which requires a pool to enforce.
        cache: an :class:`~repro.core.artifacts.ArtifactStore`, a
            :class:`ResultCache`, a directory path to open one at, or
            ``None`` to disable caching.  A bare ``ResultCache`` (or
            path) is wrapped in an ``ArtifactStore`` so the capture
            stage is cached too; the wrapped cache object is exposed
            unchanged as :attr:`cache`.
        machine: machine configuration shared by every cell.
        timeout: per-cell wall-clock budget in seconds (pool mode
            only); a cell that exceeds it is retried on a fresh pool.
        retries: extra attempts per failed cell (total = 1 + retries).
        backoff: base of the deterministic exponential backoff; the
            sleep before retry *k* is ``backoff * 2**(k-1)`` seconds.
        strict: when True, an exhausted cell raises
            :class:`CellFailure`; when False, runs complete and report
            failed cells in their results.
        trace: a :class:`TraceWriter`, a journal path, or ``None`` for
            a tally-only writer (the run summary is kept either way).
        max_pool_restarts: how many broken/timed-out pools to replace
            before declaring every still-pending cell crashed.
    """

    def __init__(
        self,
        *,
        workers: int | None = None,
        cache: ArtifactStore | ResultCache | str | Path | None = None,
        machine: MachineConfig | None = None,
        timeout: float | None = None,
        retries: int = 1,
        backoff: float = 0.05,
        strict: bool = True,
        trace: TraceWriter | str | Path | None = None,
        max_pool_restarts: int = 3,
    ):
        self.workers = default_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        if cache is None:
            self.store: ArtifactStore | None = None
        elif isinstance(cache, ArtifactStore):
            self.store = cache
        else:
            if not isinstance(cache, ResultCache):
                cache = ResultCache(cache)
            self.store = ArtifactStore(profiles=cache)
        # Back-compat: the profile store under its historical name, the
        # exact object the caller handed in (their .stats keep working).
        self.cache = self.store.profiles if self.store is not None else None
        #: In-process capture reuse for the stage-level APIs (capture_run,
        #: characterize_sweep_run) of a store-less engine.  With a store
        #: attached the capture store is the memo, and run_cells never
        #: memoizes, so no run pins every telemetry stream in memory.
        self._capture_memo: dict[str, TelemetryCapture] = {}
        #: FDO build digests replayed through this engine (name → digest);
        #: the run ledger records them so a build sweep is diffable.
        self.builds_used: dict[str, str] = {}
        #: Collapsed-stack sample counts folded across every sampled cell
        #: (opt-in via ``REPRO_STACK_SAMPLE``), feeding ``repro flame``.
        self.stack_counts: dict[str, int] = {}
        self.machine = machine
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout!r}")
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = max(0.0, float(backoff))
        self.strict = strict
        if not isinstance(trace, TraceWriter):
            trace = TraceWriter(trace)
        self.trace = trace
        self.max_pool_restarts = max(0, int(max_pool_restarts))

    # ------------------------------------------------------------ matrix

    def run_cells(self, cells: list[_Cell], workloads: list[Workload]) -> list[CellOutcome]:
        """Resolve every cell to a :class:`CellOutcome`, in ``cells`` order.

        The staged pipeline: a profile-cache miss next consults the
        capture store — a stored telemetry stream is replayed in the
        parent (``capture="hit"``, no benchmark execution) — and only
        cells missing both artifacts execute the benchmark.  Executed
        cells capture *and* replay in the worker (one process
        round-trip, replay stays parallel) and ship the capture back
        for persistence when a store is attached: each capture is
        written the moment its cell finishes and then dropped, so at
        most one executed cell's telemetry stream is held at a time.

        Never raises for per-cell failures — inspect ``outcome.ok``.
        Cache lookups and stores happen in the parent process only;
        workers never touch the cache directory.  Spans are emitted to
        the trace writer in matrix order once all cells settle.
        """
        if len(cells) != len(workloads):
            raise WorkloadError("run_cells: cells and workloads must align")
        outcomes: list[CellOutcome | None] = [None] * len(cells)
        keys: list[str | None] = [None] * len(cells)
        to_run: list[int] = []
        replays: list[tuple[int, TelemetryCapture]] = []
        quarantined_before = self._quarantined_total()
        cache_state = "off" if self.store is None else "miss"

        for i, (cell, workload) in enumerate(zip(cells, workloads)):
            if self.store is not None:
                looked_up = self.trace.now()
                keys[i] = cache_key(cell.benchmark_id, workload, cell.machine)
                cached = self.cache.get(keys[i])
                if cached is not None:
                    outcomes[i] = CellOutcome(
                        cell, cached, "hit", 0, 0.0, "ok", replay="hit",
                        start_s=looked_up,
                    )
                    continue
                capture = self.store.captures.get(
                    capture_key(cell.benchmark_id, workload)
                )
                if capture is not None:
                    replays.append((i, capture))
                    continue
            to_run.append(i)

        if to_run:
            mode = "both" if self.store is not None else "replay"

            def persist(i: int, result: tuple) -> tuple:
                profile, capture, meta = result
                if capture is not None:
                    self.store.captures.put(
                        capture_key(cells[i].benchmark_id, workloads[i]), capture
                    )
                return profile, None, meta

            self._execute(cells, to_run, outcomes, cache_state, mode, persist)
            for i in to_run:
                oc = outcomes[i]
                if oc is None:
                    continue
                if not oc.ok:
                    outcomes[i] = replace(oc, capture="run")
                    continue
                profile, _, meta = oc.profile
                if meta.get("stacks"):
                    merge_stacks(self.stack_counts, meta["stacks"])
                outcomes[i] = replace(
                    oc, profile=profile, capture="run", replay="run",
                    stages=tuple(tuple(s) for s in meta["stages"]),
                )
                if keys[i] is not None:
                    self.cache.put(keys[i], profile)

        for i, capture in replays:
            cell = cells[i]
            tracker = StageResourceTracker()
            reg = metrics.MetricsRegistry()
            started = time.perf_counter()
            try:
                with metrics.collector(reg):
                    profile = replay_capture(capture, machine=cell.machine)
            except Exception as exc:
                outcomes[i] = CellOutcome(
                    cell, None, cache_state, 1,
                    time.perf_counter() - started, "failed",
                    f"{type(exc).__name__}: {exc}",
                    capture="hit", replay="run",
                    start_s=self.trace.rel(started),
                )
                continue
            duration = time.perf_counter() - started
            res = _replay_lap(tracker, reg, cell.benchmark_id)
            outcomes[i] = CellOutcome(
                cell, profile, cache_state, 0, duration, "ok",
                capture="hit", replay="run",
                start_s=self.trace.rel(started),
                stages=(("replay", 0.0, duration, res),),
            )
            self.cache.put(keys[i], profile)

        self.trace.quarantine(self._quarantined_total() - quarantined_before)
        done = [oc for oc in outcomes if oc is not None]
        self._emit_spans(done)
        return done

    def _quarantined_total(self) -> int:
        """Quarantined entries across both stage stores (0 when off)."""
        if self.store is None:
            return 0
        return self.cache.stats.quarantined + self.store.captures.stats.quarantined

    # ----------------------------------------------------- span emission

    def _emit_spans(self, outcomes: "list[CellOutcome]") -> None:
        """Journal cell spans + their stage children; record cell metrics.

        Each cell gets a fresh span id parented to the run root, and
        its worker-observed stage triples become child ``stage``
        records placed on the run timeline (cell start + in-cell
        offset).  Stage latency histograms are observed here — the one
        place both pooled and inline results funnel through — so stage
        timings are counted exactly once per cell.
        """
        for oc in outcomes:
            start = oc.start_s
            if start < 0:
                start = max(0.0, self.trace.now() - oc.duration_s)
            span_id = self.trace.next_span_id()
            self.trace.span(
                oc.span(
                    span_id=span_id,
                    parent_id=self.trace.run_span_id,
                    start_s=start,
                )
            )
            bench = oc.cell.benchmark_id
            for st in oc.stages:
                name, offset, duration = st[0], st[1], st[2]
                self._emit_stage(
                    name, bench, oc.cell.workload_name,
                    start + offset, duration, parent_id=span_id,
                    resources=st[3] if len(st) > 3 else None,
                )
            metrics.inc(
                metrics.CELLS_TOTAL, benchmark=bench,
                outcome=oc.outcome, cache=oc.cache,
            )
            metrics.observe(
                metrics.CELL_SECONDS, oc.duration_s,
                benchmark=bench, outcome=oc.outcome,
            )
            retries = max(0, oc.attempts - 1)
            if retries:
                metrics.inc(metrics.RETRIES_TOTAL, retries, benchmark=bench)

    def _emit_stage(
        self,
        name: str,
        benchmark: str,
        workload: str,
        start_s: float,
        duration_s: float,
        *,
        parent_id: str | None = None,
        resources: "dict[str, Any] | None" = None,
    ) -> None:
        """Journal one stage span; observe latency + resource metrics."""
        self.trace.stage(
            StageSpan(
                name=name,
                benchmark=benchmark,
                workload=workload,
                start_s=max(0.0, start_s),
                duration_s=duration_s,
                span_id=self.trace.next_span_id(),
                parent_id=self.trace.run_span_id if parent_id is None else parent_id,
                resources=resources,
            )
        )
        metrics.observe(
            metrics.STAGE_SECONDS, duration_s, benchmark=benchmark, stage=name
        )
        if resources:
            metrics.observe(
                metrics.STAGE_CPU_SECONDS, resources.get("cpu_user_s", 0.0),
                benchmark=benchmark, stage=name, cpu="user",
            )
            metrics.observe(
                metrics.STAGE_CPU_SECONDS, resources.get("cpu_sys_s", 0.0),
                benchmark=benchmark, stage=name, cpu="sys",
            )
            rss = resources.get("max_rss_kb")
            if rss:
                metrics.gauge_set(metrics.PEAK_RSS_KB, rss, benchmark=benchmark)
            samples = resources.get("samples")
            if samples:
                metrics.inc(
                    metrics.STACK_SAMPLES_TOTAL, samples,
                    benchmark=benchmark, stage=name,
                )

    def _execute(
        self,
        cells: list[_Cell],
        pending: list[int],
        outcomes: list[CellOutcome | None],
        cache_state: str,
        mode: str,
        persist: "Callable[[int, tuple], tuple]",
    ) -> None:
        """Run the cache-missed cells, inline or pooled.

        ``mode`` is forwarded to :func:`_run_cell`.  Each successful
        worker result ``(profile, capture, meta)`` is handed to
        ``persist(i, result)`` the moment cell ``i`` finishes; what it
        returns lands in the outcome's ``profile`` slot, so a caller
        that stores the capture can drop it there.  Callers unpack that
        tuple and re-tag with the stage states they observed.
        """
        inline = self.timeout is None and (self.workers == 1 or len(pending) == 1)
        if inline:
            self._execute_inline(cells, pending, outcomes, cache_state, mode, persist)
        else:
            self._execute_pool(cells, pending, outcomes, cache_state, mode, persist)

    def _execute_inline(
        self,
        cells: list[_Cell],
        pending: list[int],
        outcomes: list[CellOutcome | None],
        cache_state: str,
        mode: str,
        persist: "Callable[[int, tuple], tuple]",
    ) -> None:
        for i in pending:
            cell = cells[i]
            attempts = 0
            started = time.perf_counter()
            while True:
                attempts += 1
                try:
                    result = _run_cell(cell, attempts, mode)
                except Exception as exc:
                    if attempts <= self.retries:
                        self._backoff_sleep(attempts)
                        continue
                    outcomes[i] = CellOutcome(
                        cell, None, cache_state, attempts,
                        time.perf_counter() - started, "failed",
                        f"{type(exc).__name__}: {exc}",
                        start_s=self.trace.rel(started),
                    )
                else:
                    # Inline cells recorded through this process's own
                    # collector stack already; no snapshot merge needed.
                    result = persist(i, result)
                    outcomes[i] = CellOutcome(
                        cell, result, cache_state, attempts,
                        time.perf_counter() - started, "ok",
                        start_s=self.trace.rel(started),
                    )
                break

    def _execute_pool(
        self,
        cells: list[_Cell],
        pending: list[int],
        outcomes: list[CellOutcome | None],
        cache_state: str,
        mode: str,
        persist: "Callable[[int, tuple], tuple]",
    ) -> None:
        """Pool execution with per-cell timeout, retry, and pool recovery.

        Two phases.  **Batch rounds**: every unresolved cell is
        submitted to a (fresh) shared pool and harvested in matrix
        order.  A per-cell failure (worker raised) is charged to that
        cell and retried.  A timeout charges the cell that tripped it
        and *abandons* the round; a broken pool charges nobody —
        when a worker dies every pending future raises
        ``BrokenProcessPool``, so the culprit is not attributable —
        and also abandons.  On abandon, finished futures are still
        harvested, unfinished cells get their attempt refunded, the
        pool's processes are terminated, and a fresh round begins.
        After ``max_pool_restarts`` abandoned rounds, **isolation**:
        each surviving cell runs alone in a single-worker pool, where a
        crash implicates exactly that cell, so innocents always
        complete and only genuinely crashing cells fail.

        Each future is dropped as soon as it is read, so a harvested
        result is held only through ``persist``'s return value.
        """
        remaining: dict[int, int] = {i: 0 for i in pending}  # index -> attempts
        first_seen: dict[int, float] = {}
        restarts = 0
        round_no = 0

        def finalize(i: int, result: Any, outcome: str, error: str | None) -> None:
            if result is not None:
                # Pooled cell: its observations lived in the worker
                # process — merge the shipped snapshot here.
                metrics.merge_snapshot(result[2]["metrics"])
            outcomes[i] = CellOutcome(
                cells[i], result, cache_state, max(remaining[i], 1),
                time.perf_counter() - first_seen[i], outcome, error,
                start_s=self.trace.rel(first_seen[i]),
            )
            del remaining[i]

        def fail_or_requeue(i: int, outcome: str, error: str) -> None:
            if remaining[i] > self.retries:
                finalize(i, None, outcome, error)

        while remaining and restarts <= self.max_pool_restarts:
            round_no += 1
            order = sorted(remaining)
            now = time.perf_counter()
            for i in order:
                first_seen.setdefault(i, now)
            pool = ProcessPoolExecutor(max_workers=min(self.workers, len(order)))
            futures: dict[int, Future] = {}
            abandon = False
            try:
                for i in order:
                    remaining[i] += 1
                    futures[i] = pool.submit(_run_cell, cells[i], remaining[i], mode)
            except BrokenExecutor:  # pragma: no cover - instant bootstrap death
                for i in order:
                    if i in remaining and i not in futures:
                        remaining[i] -= 1
                abandon = True

            for i in order:
                if i not in remaining or i not in futures:
                    continue
                fut = futures.pop(i)
                if abandon and not fut.done():
                    remaining[i] -= 1  # refund: goes back on the queue
                    continue
                try:
                    result = fut.result(timeout=None if abandon else self.timeout)
                except (FuturesTimeoutError, TimeoutError) as exc:
                    if fut.done():  # the *worker* raised TimeoutError
                        fail_or_requeue(i, "failed", f"TimeoutError: {exc}")
                        continue
                    abandon = True
                    fail_or_requeue(
                        i, "timeout",
                        f"cell exceeded per-cell timeout of {self.timeout}s",
                    )
                except BrokenExecutor:
                    # Unattributable: the dead worker poisons every
                    # pending future.  Refund and let the next round —
                    # or isolation, once the restart budget runs out —
                    # sort the culprit from the innocents.
                    abandon = True
                    remaining[i] -= 1
                except Exception as exc:
                    fail_or_requeue(i, "failed", f"{type(exc).__name__}: {exc}")
                else:
                    finalize(i, persist(i, result), "ok", None)
                    del result  # not held while the next future is awaited

            if abandon:
                pool.shutdown(wait=False, cancel_futures=True)
                _kill_pool(pool)
                restarts += 1
            else:
                pool.shutdown(wait=True)

            if remaining:
                # Deterministic exponential backoff between retry rounds.
                self._backoff_sleep(round_no)

        if remaining:
            self._execute_isolated(
                cells, remaining, outcomes, cache_state, first_seen, mode, persist
            )

    def _execute_isolated(
        self,
        cells: list[_Cell],
        remaining: dict[int, int],
        outcomes: list[CellOutcome | None],
        cache_state: str,
        first_seen: dict[int, float],
        mode: str,
        persist: "Callable[[int, tuple], tuple]",
    ) -> None:
        """Run each surviving cell alone in a one-worker pool.

        The fallback when shared pools keep breaking: a single-cell
        pool makes crashes exactly attributable, so each cell gets its
        honest retry budget and only genuinely failing cells fail.
        """
        for i in sorted(remaining):
            cell = cells[i]
            first_seen.setdefault(i, time.perf_counter())
            while i in remaining:
                remaining[i] += 1
                attempt = remaining[i]
                pool = ProcessPoolExecutor(max_workers=1)
                abandon = False
                outcome, error = "", ""
                result: Any = None
                try:
                    fut = pool.submit(_run_cell, cell, attempt, mode)
                    result = fut.result(timeout=self.timeout)
                except (FuturesTimeoutError, TimeoutError) as exc:
                    abandon = True
                    if fut.done():
                        outcome, error = "failed", f"TimeoutError: {exc}"
                    else:
                        outcome, error = (
                            "timeout",
                            f"cell exceeded per-cell timeout of {self.timeout}s",
                        )
                except BrokenExecutor as exc:
                    abandon = True
                    outcome = "crashed"
                    error = f"worker process died: {exc}" if str(exc) else "worker process died"
                except Exception as exc:
                    outcome, error = "failed", f"{type(exc).__name__}: {exc}"
                if abandon:
                    pool.shutdown(wait=False, cancel_futures=True)
                    _kill_pool(pool)
                else:
                    pool.shutdown(wait=True)
                if result is not None:
                    metrics.merge_snapshot(result[2]["metrics"])
                    outcomes[i] = CellOutcome(
                        cell, persist(i, result), cache_state, attempt,
                        time.perf_counter() - first_seen[i], "ok",
                        start_s=self.trace.rel(first_seen[i]),
                    )
                    del remaining[i]
                elif attempt > self.retries:
                    outcomes[i] = CellOutcome(
                        cell, None, cache_state, attempt,
                        time.perf_counter() - first_seen[i], outcome, error,
                        start_s=self.trace.rel(first_seen[i]),
                    )
                    del remaining[i]
                else:
                    self._backoff_sleep(attempt)

    def _backoff_sleep(self, attempt: int) -> None:
        if self.backoff > 0.0:
            time.sleep(self.backoff * (2 ** (attempt - 1)))

    def run_matrix(
        self, cells: list[_Cell], workloads: list[Workload]
    ) -> list[ExecutionProfile]:
        """Profile every cell, returning results in ``cells`` order.

        Backward-compatible strict surface over :meth:`run_cells`: the
        first failed cell raises its :class:`CellFailure` when
        ``strict`` (failed cells are dropped from the result
        otherwise).
        """
        outcomes = self.run_cells(cells, workloads)
        failed = [oc for oc in outcomes if not oc.ok]
        if failed and self.strict:
            raise failed[0].failure()
        return [oc.profile for oc in outcomes if oc.ok]

    # --------------------------------------------------- stage-level APIs

    def _capture_batch(
        self, cells: list[_Cell], workloads: list[Workload]
    ) -> list[tuple[TelemetryCapture | None, str, CellOutcome | None]]:
        """Resolve the capture stage for every cell: store or memo → run.

        Returns one ``(capture, state, run_outcome)`` triple per cell:
        ``state`` is ``"hit"`` (capture store, or the in-process memo of
        a store-less engine) or ``"run"`` (the benchmark executed —
        successfully or not); ``run_outcome`` carries
        attempts/duration/error for ``"run"`` entries and is ``None``
        for hits.  A fresh capture is written to the store as soon as
        its cell finishes; only a store-less engine memoizes it.  Emits
        no spans — callers decide how capture cost is attributed (a
        sweep charges it to the first consuming cell).
        """
        results: list[Any] = [None] * len(cells)
        cap_keys = [
            capture_key(cell.benchmark_id, w) for cell, w in zip(cells, workloads)
        ]
        to_run: list[int] = []
        for i, key in enumerate(cap_keys):
            if self.store is not None:
                capture = self.store.captures.get(key)
            else:
                capture = self._capture_memo.get(key)
            if capture is not None:
                results[i] = (capture, "hit", None)
            else:
                to_run.append(i)
        if to_run:

            def persist(i: int, result: tuple) -> tuple:
                if self.store is not None:
                    self.store.captures.put(cap_keys[i], result[1])
                else:
                    self._capture_memo[cap_keys[i]] = result[1]
                return result

            scratch: list[CellOutcome | None] = [None] * len(cells)
            self._execute(cells, to_run, scratch, "-", "capture", persist)
            for i in to_run:
                oc = scratch[i]
                if oc is None:  # pragma: no cover - _execute always fills
                    continue
                if oc.ok:
                    _, capture, meta = oc.profile
                    if meta.get("stacks"):
                        merge_stacks(self.stack_counts, meta["stacks"])
                    results[i] = (
                        capture,
                        "run",
                        replace(
                            oc,
                            profile=None,
                            stages=tuple(tuple(s) for s in meta["stages"]),
                        ),
                    )
                else:
                    results[i] = (None, "run", oc)
        return results

    def capture_run(
        self, cells: list[_Cell], workloads: list[Workload]
    ) -> list[CellOutcome]:
        """Run only the capture stage; spans carry ``replay="-"``.

        Successful outcomes hold the
        :class:`~repro.machine.capture.TelemetryCapture` in their
        ``profile`` slot.  Captures are persisted to the capture store
        when one is attached and memoized in-process otherwise, so
        repeated stage-level consumers (the studies) never re-execute
        a benchmark.  Under ``strict=True`` the first failed cell
        raises its :class:`CellFailure` after all spans are journaled.
        """
        if len(cells) != len(workloads):
            raise WorkloadError("capture_run: cells and workloads must align")
        quarantined_before = self._quarantined_total()
        batch = self._capture_batch(cells, workloads)
        outcomes: list[CellOutcome] = []
        for cell, (capture, state, run_oc) in zip(cells, batch):
            if capture is not None:
                outcomes.append(
                    CellOutcome(
                        cell, capture, "-",
                        run_oc.attempts if run_oc is not None else 0,
                        run_oc.duration_s if run_oc is not None else 0.0,
                        "ok", capture=state,
                        start_s=run_oc.start_s if run_oc is not None else -1.0,
                        stages=run_oc.stages if run_oc is not None else (),
                    )
                )
            else:
                outcomes.append(replace(run_oc, capture="run"))
        self.trace.quarantine(self._quarantined_total() - quarantined_before)
        self._emit_spans(outcomes)
        failed = [oc for oc in outcomes if not oc.ok]
        if failed and self.strict:
            raise failed[0].failure()
        return outcomes

    def replay_run(
        self,
        capture: TelemetryCapture,
        *,
        workload: Workload | None = None,
        build: Any = None,
        machine: Any = _ENGINE_MACHINE,
    ) -> CellOutcome:
        """Replay one captured stream under a machine config and build.

        ``machine`` defaults to the engine's config; pass an explicit
        config (or ``None`` for the default machine) to override.
        ``build`` is any object exposing ``name``, ``digest()`` and
        ``cost_model(machine)`` — see
        :class:`repro.fdo.optimizer.FdoBuild` — and changes the replay
        without touching the capture.  When the originating
        ``workload`` is provided and a store is attached, the finished
        profile is cached under the machine+build key (the full
        workload content cannot be reconstructed from a capture, so
        profile-level caching requires it).  Under ``strict=True`` a
        failed replay raises its :class:`CellFailure` after the span
        is journaled.
        """
        m = self.machine if machine is _ENGINE_MACHINE else machine
        build_name = getattr(build, "name", None)
        build_digest = build.digest() if build is not None else None
        if build_name is not None and build_digest is not None:
            self.builds_used[str(build_name)] = str(build_digest)
        cell = _Cell(capture.benchmark, capture.workload, 0, m)
        key = None
        if self.store is not None and workload is not None:
            key = cache_key(capture.benchmark, workload, m, build=build_digest)
            cached = self.cache.get(key)
            if cached is not None:
                oc = CellOutcome(
                    cell, cached, "hit", 0, 0.0, "ok",
                    replay="hit", build=build_name,
                    start_s=self.trace.now(),
                )
                self._emit_spans([oc])
                return oc
        cache_state = "off" if self.store is None else ("miss" if key else "-")
        tracker = StageResourceTracker()
        reg = metrics.MetricsRegistry()
        started = time.perf_counter()
        try:
            with metrics.collector(reg):
                profile = replay_capture(
                    capture,
                    machine=m,
                    cost_model=build.cost_model(m) if build is not None else None,
                )
        except Exception as exc:
            oc = CellOutcome(
                cell, None, cache_state, 1,
                time.perf_counter() - started, "failed",
                f"{type(exc).__name__}: {exc}",
                replay="run", build=build_name,
                start_s=self.trace.rel(started),
            )
        else:
            duration = time.perf_counter() - started
            res = _replay_lap(tracker, reg, capture.benchmark)
            oc = CellOutcome(
                cell, profile, cache_state, 1, duration, "ok",
                replay="run", build=build_name,
                start_s=self.trace.rel(started),
                stages=(("replay", 0.0, duration, res),),
            )
            if key is not None:
                self.cache.put(key, profile)
        self._emit_spans([oc])
        if not oc.ok and self.strict:
            raise oc.failure()
        return oc

    def characterize_sweep_run(
        self,
        benchmark_id: str,
        machines: "list[MachineConfig | None]",
        workloads: WorkloadSet | None = None,
        *,
        base_seed: int = 0,
        keep_profiles: bool = False,
    ) -> "tuple[list[BenchmarkCharacterization | None], list[CellOutcome]]":
        """Characterize one benchmark under N machine configs, capturing once.

        The sweep-reuse guarantee: each workload's benchmark executes
        at most once, however many machine configs are swept — every
        config replays the same captured telemetry stream.  Capture
        cost (attempts, duration) is charged to the first consuming
        cell (``capture="run"``); later consumers report
        ``capture="hit"``, so ``summary.captures`` equals the number
        of real benchmark executions.

        Replays also share *one pass* over the capture columns: all
        pending configs for a workload go through
        :func:`~repro.machine.capture.replay_capture_batched`, which
        carries the config set as an extra kernel dimension and is
        bit-identical to replaying each config alone.  Their spans
        carry ``batched=True``; the group's replay time and resources
        are split evenly across its cells.

        Returns one characterization per machine config, in ``machines``
        order (``None`` where no cell survived), plus the flat outcome
        list in machine-major order.  Under ``strict=True`` the first
        failed cell raises its :class:`CellFailure` after spans are
        journaled.
        """
        from .characterize import assemble_characterization

        machines = list(machines)
        if not machines:
            raise WorkloadError("characterize_sweep: need at least one machine config")
        _require_capability(benchmark_id, CAP_SWEEPABLE, stage="characterize_sweep")
        alberta = workloads is None
        wl = (
            self.default_workloads(benchmark_id, base_seed)
            if alberta
            else list(workloads)
        )
        if not wl:
            raise WorkloadError(f"characterize_sweep: empty workload set for {benchmark_id}")
        quarantined_before = self._quarantined_total()
        cache_state = "off" if self.store is None else "miss"

        grid: list[list[CellOutcome | None]] = [[None] * len(wl) for _ in machines]
        keys: list[list[str | None]] = [[None] * len(wl) for _ in machines]
        need: list[tuple[int, int, _Cell]] = []
        for mi, m in enumerate(machines):
            for wi, w in enumerate(wl):
                cell = _Cell(
                    benchmark_id=benchmark_id,
                    workload_name=w.name,
                    base_seed=base_seed,
                    machine=m,
                    workload=None if alberta else w,
                )
                if self.store is not None:
                    looked_up = self.trace.now()
                    keys[mi][wi] = cache_key(benchmark_id, w, m)
                    cached = self.cache.get(keys[mi][wi])
                    if cached is not None:
                        grid[mi][wi] = CellOutcome(
                            cell, cached, "hit", 0, 0.0, "ok", replay="hit",
                            start_s=looked_up,
                        )
                        continue
                need.append((mi, wi, cell))

        need_w = sorted({wi for _, wi, _ in need})
        cap_cells = [
            _Cell(
                benchmark_id=benchmark_id,
                workload_name=wl[wi].name,
                base_seed=base_seed,
                machine=None,
                workload=None if alberta else wl[wi],
            )
            for wi in need_w
        ]
        batch = self._capture_batch(cap_cells, [wl[wi] for wi in need_w])
        cap_by_w = dict(zip(need_w, batch))

        # Group pending cells by workload: within one workload every
        # config replays the same capture, so they share a single
        # batched pass.  Member order is machine-major (``need``
        # order), so the first member of each group is the cell the
        # capture cost is charged to — same charging as the old
        # per-cell loop.
        by_w: dict[int, list[tuple[int, _Cell]]] = {}
        for mi, wi, cell in need:
            by_w.setdefault(wi, []).append((mi, cell))

        for wi, members in by_w.items():
            capture, state, run_oc = cap_by_w[wi]

            def _charge(j: int) -> tuple[bool, int, float, tuple]:
                fresh = state == "run" and j == 0
                if fresh and run_oc is not None:
                    return fresh, run_oc.attempts, run_oc.duration_s, run_oc.stages
                return fresh, 0, 0.0, ()

            if capture is None:
                # Capture failed: every consumer of this workload fails
                # with the capture's error; only the first is charged.
                for j, (mi, cell) in enumerate(members):
                    fresh, cap_attempts, cap_duration, _ = _charge(j)
                    grid[mi][wi] = CellOutcome(
                        cell, None, cache_state,
                        max(1, cap_attempts), cap_duration,
                        run_oc.outcome if run_oc is not None else "failed",
                        run_oc.error if run_oc is not None else "capture failed",
                        capture="run" if fresh else "-",
                        start_s=run_oc.start_s if run_oc is not None else -1.0,
                    )
                continue

            tracker = StageResourceTracker()
            reg = metrics.MetricsRegistry()
            started = time.perf_counter()
            try:
                with metrics.collector(reg):
                    profiles = replay_capture_batched(
                        capture, [cell.machine for _, cell in members]
                    )
            except Exception as exc:
                profiles, error = None, f"{type(exc).__name__}: {exc}"
            per_dur = (time.perf_counter() - started) / len(members)
            if profiles is not None:
                res = _replay_lap(tracker, reg, benchmark_id, len(members))
            for j, (mi, cell) in enumerate(members):
                fresh, cap_attempts, cap_duration, cap_stages = _charge(j)
                cell_start = (
                    run_oc.start_s
                    if fresh and run_oc is not None and run_oc.start_s >= 0
                    else self.trace.rel(started)
                )
                if profiles is None:
                    grid[mi][wi] = CellOutcome(
                        cell, None, cache_state, max(1, cap_attempts),
                        cap_duration + per_dur * len(members), "failed", error,
                        capture="run" if fresh else "hit", replay="run",
                        start_s=cell_start, stages=cap_stages,
                        batched=True,
                    )
                    continue
                replay_stage = (
                    "replay", self.trace.rel(started) - cell_start, per_dur, dict(res)
                )
                grid[mi][wi] = CellOutcome(
                    cell, profiles[j], cache_state, cap_attempts,
                    cap_duration + per_dur, "ok",
                    capture="run" if fresh else "hit", replay="run",
                    start_s=cell_start,
                    stages=cap_stages + (replay_stage,),
                    batched=True,
                )
                if keys[mi][wi] is not None:
                    self.cache.put(keys[mi][wi], profiles[j])

        self.trace.quarantine(self._quarantined_total() - quarantined_before)
        flat: list[CellOutcome] = []
        for mi in range(len(machines)):
            for wi in range(len(wl)):
                flat.append(grid[mi][wi])
        self._emit_spans(flat)
        failed = [oc for oc in flat if not oc.ok]
        if failed and self.strict:
            raise failed[0].failure()

        sum_start = self.trace.now()
        chars: list["BenchmarkCharacterization | None"] = []
        for mi in range(len(machines)):
            pairs = [(w, oc.profile) for w, oc in zip(wl, grid[mi]) if oc.ok]
            if pairs:
                chars.append(
                    assemble_characterization(
                        benchmark_id,
                        [w for w, _ in pairs],
                        [p for _, p in pairs],
                        keep_profiles=keep_profiles,
                    )
                )
            else:
                chars.append(None)
        self._emit_stage(
            "summarize", benchmark_id, "-", sum_start, self.trace.now() - sum_start
        )
        return chars, flat

    # --------------------------------------------------- characterization

    def default_workloads(
        self, benchmark_id: str, base_seed: int = 0
    ) -> "list[Workload] | list[WorkloadRef]":
        """Resolve one default workload set, journaling its generate stage.

        Goes through the process-wide resolver: an index hit names the
        workloads by fingerprint without minting them; a miss mints the
        set once per process and indexes it.  The run-level ``generate``
        stage span covers the resolution, and its ``minted`` resource
        says whether a set was minted.
        """
        started = self.trace.now()
        tracker = StageResourceTracker()
        mints = _SETS.mints
        index = self.store.sets if self.store is not None else None
        quarantined = index.stats.quarantined if index is not None else 0
        wl = _SETS.resolve(benchmark_id, base_seed, index)
        res = tracker.lap()
        res["minted"] = _SETS.mints - mints
        if index is not None:
            self.trace.quarantine(index.stats.quarantined - quarantined)
        self._emit_stage(
            "generate", benchmark_id, "-", started, self.trace.now() - started,
            resources=res,
        )
        return wl

    def characterize_run(
        self,
        benchmark_id: str,
        workloads: WorkloadSet | None = None,
        *,
        base_seed: int = 0,
        keep_profiles: bool = False,
    ) -> "tuple[BenchmarkCharacterization | None, list[CellOutcome]]":
        """Characterize one benchmark, reporting per-cell outcomes.

        Under ``strict=True`` a failed cell raises its
        :class:`CellFailure` (after all spans are journaled).  Under
        ``strict=False`` the characterization is assembled from the
        surviving cells (``None`` if nothing survived) and the failures
        ride along in the outcome list.
        """
        from .characterize import assemble_characterization

        alberta = workloads is None
        wl = (
            self.default_workloads(benchmark_id, base_seed)
            if alberta
            else list(workloads)
        )
        if not wl:
            raise WorkloadError(f"characterize: empty workload set for {benchmark_id}")
        cells = [
            _Cell(
                benchmark_id=benchmark_id,
                workload_name=w.name,
                base_seed=base_seed,
                machine=self.machine,
                workload=None if alberta else w,
            )
            for w in wl
        ]
        outcomes = self.run_cells(cells, wl)
        failed = [oc for oc in outcomes if not oc.ok]
        if failed and self.strict:
            raise failed[0].failure()
        pairs = [(w, oc.profile) for w, oc in zip(wl, outcomes) if oc.ok]
        char = None
        if pairs:
            sum_start = self.trace.now()
            char = assemble_characterization(
                benchmark_id,
                [w for w, _ in pairs],
                [p for _, p in pairs],
                keep_profiles=keep_profiles,
            )
            self._emit_stage(
                "summarize", benchmark_id, "-",
                sum_start, self.trace.now() - sum_start,
            )
        return char, outcomes

    def characterize(
        self,
        benchmark_id: str,
        workloads: WorkloadSet | None = None,
        *,
        base_seed: int = 0,
        keep_profiles: bool = False,
    ) -> "BenchmarkCharacterization":
        """Engine-backed equivalent of :func:`repro.core.characterize.characterize`."""
        char, outcomes = self.characterize_run(
            benchmark_id, workloads, base_seed=base_seed, keep_profiles=keep_profiles
        )
        if char is None:
            # strict=False but literally nothing survived: there is no
            # characterization to degrade to, so surface the first failure.
            raise next(oc for oc in outcomes if not oc.ok).failure()
        return char

    def characterize_suite_run(
        self,
        *,
        suite: str | None = None,
        table2_only: bool = True,
        base_seed: int = 0,
        ids: "list[str] | None" = None,
    ) -> "tuple[list[BenchmarkCharacterization], list[CellOutcome]]":
        """Fan the full benchmark × workload matrix out at once.

        The whole matrix is scheduled as a single flat cell list so the
        pool stays saturated across benchmark boundaries (a per-benchmark
        fan-out would drain to one straggler at each join).
        ``ids`` restricts the run to an explicit benchmark subset
        (overriding ``suite`` / ``table2_only``).

        Returns the characterizations (assembled per benchmark from the
        surviving cells; benchmarks with zero survivors are omitted)
        and every cell outcome.  Under ``strict=True`` the first failed
        cell raises its :class:`CellFailure` after spans are journaled.
        """
        from .characterize import assemble_characterization

        ids = sorted(ids if ids is not None else benchmark_ids(suite, table2_only=table2_only))
        sets = {bid: self.default_workloads(bid, base_seed) for bid in ids}
        cells: list[_Cell] = []
        flat: list[Workload] = []
        for bid in ids:
            for w in sets[bid]:
                cells.append(
                    _Cell(
                        benchmark_id=bid,
                        workload_name=w.name,
                        base_seed=base_seed,
                        machine=self.machine,
                    )
                )
                flat.append(w)
        outcomes = self.run_cells(cells, flat)
        failed = [oc for oc in outcomes if not oc.ok]
        if failed and self.strict:
            raise failed[0].failure()

        out: list[BenchmarkCharacterization] = []
        cursor = 0
        for bid in ids:
            wl = sets[bid]
            chunk = outcomes[cursor : cursor + len(wl)]
            cursor += len(wl)
            pairs = [(w, oc.profile) for w, oc in zip(wl, chunk) if oc.ok]
            if pairs:
                sum_start = self.trace.now()
                out.append(
                    assemble_characterization(
                        bid,
                        [w for w, _ in pairs],
                        [p for _, p in pairs],
                        keep_profiles=False,
                    )
                )
                self._emit_stage(
                    "summarize", bid, "-", sum_start, self.trace.now() - sum_start
                )
        return out, outcomes

    def characterize_suite(
        self,
        *,
        suite: str | None = None,
        table2_only: bool = True,
        base_seed: int = 0,
        ids: "list[str] | None" = None,
    ) -> "list[BenchmarkCharacterization]":
        """Characterizations only (see :meth:`characterize_suite_run`)."""
        chars, _ = self.characterize_suite_run(
            suite=suite, table2_only=table2_only, base_seed=base_seed, ids=ids
        )
        return chars
