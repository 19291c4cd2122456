"""In-memory span recorder for the traced benchmark pass.

The traced pass wraps the public entry points of each ``repro`` layer
from the benchmark's side (nothing under ``src/`` is instrumented) and
records one span per call: name, start, end, parent span id, pass id and
the benchmark the call served.  Spans stay in memory and are handed to
``run.py`` once, which writes them out as Chrome ``trace_event`` JSON
(:func:`chrome_trace`) and derives each layer's self time
(:func:`layer_metrics`).

Which layer each span name belongs to:

============== ========================================================
span           wrapped entry point
============== ========================================================
startup.import ``import repro`` in the pass process
workloads.mint ``registry.alberta_workloads`` as bound in the engine
capture        ``engine.capture_execution``
replay         ``engine.replay_capture`` and ``engine.replay_capture_batched``
artifacts.get  ``CaptureStore.get``
artifacts.put  ``CaptureStore.put``
cache.key      ``engine.cache_key`` and ``engine.capture_key``
cache.get      ``ResultCache.get``
cache.put      ``ResultCache.put``
summarize      ``characterize.assemble_characterization``
session.open   ``Session(...)``
session.close  ``Session.close``
============== ========================================================
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Benchmark ids whose capture/replay time is reported per benchmark
#: (the fifteen Table II rows).
TABLE2_IDS = (
    "502.gcc_r", "505.mcf_r", "507.cactuBSSN_r", "510.parest_r",
    "511.povray_r", "519.lbm_r", "520.omnetpp_r", "521.wrf_r",
    "523.xalancbmk_r", "526.blender_r", "531.deepsjeng_r", "541.leela_r",
    "544.nab_r", "548.exchange2_r", "557.xz_r",
)

#: span name -> per-layer metric that sums its self time.
SELF_TIME_METRICS = {
    "startup.import": "startup.import_s",
    "workloads.mint": "workloads.mint_s",
    "capture": "capture.s",
    "replay": "replay.s",
    "artifacts.get": "artifacts.get_s",
    "artifacts.put": "artifacts.put_s",
    "cache.key": "cache.key_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "summarize": "summarize.s",
    "session.open": "session.open_s",
    "session.close": "session.close_s",
}

#: Counters the wrappers keep (per-layer metrics of their own name).
COUNTERS = (
    "workloads.mint_calls",
    "capture.calls", "capture.events",
    "replay.calls", "replay.events",
    "artifacts.hits", "artifacts.misses",
    "cache.hits", "cache.misses",
)


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced pass reports, in report order."""
    names = list(SELF_TIME_METRICS.values()) + list(COUNTERS)
    names += ["replay.events_per_s", "cache.hit_ratio", "engine.other_s",
              "trace.overhead_frac"]
    names += [f"capture.{bid}.s" for bid in TABLE2_IDS]
    names += [f"replay.{bid}.s" for bid in TABLE2_IDS]
    return names


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "fraction"
    return "count"


class Recorder:
    """Spans and counters of one pass, kept in memory until the pass ends."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        #: ``[span_id, parent_id, name, start_s, end_s, benchmark]`` rows.
        self.spans: list[list[Any]] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[list[Any]]:
        row = [len(self.spans), self._stack[-1] if self._stack else None,
               name, time.perf_counter(), None, None]
        self.spans.append(row)
        self._stack.append(row[0])
        try:
            yield row
        finally:
            self._stack.pop()
            row[4] = time.perf_counter()

    def to_dict(self) -> dict[str, Any]:
        return {"pass": self.pass_id, "spans": self.spans, "counts": self.counts}


def _wrap(fn: Callable, rec: Recorder, name: str,
          after: Callable[[Any, tuple, list], None] | None = None) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        with rec.span(name) as row:
            result = fn(*args, **kwargs)
        if after is not None:
            after(result, args, row)
        return result

    return traced


def install(rec: Recorder) -> None:
    """Wrap every layer entry point so its calls land in ``rec``.

    The engine binds its collaborators with ``from ... import``, so the
    functions are replaced in ``repro.core.engine``'s namespace; the two
    stores are wrapped on their classes; ``repro.core.characterize``
    names the function once the package is imported, so the module is
    reached through ``sys.modules``.
    """
    from repro.core import artifacts, cache, engine

    counts = rec.counts

    def minted(result: Any, args: tuple, row: list) -> None:
        counts["workloads.mint_calls"] += 1

    def captured(capture: Any, args: tuple, row: list) -> None:
        row[5] = capture.benchmark
        counts["capture.calls"] += 1
        counts["capture.events"] += capture.n_events

    def replayed(profile: Any, args: tuple, row: list) -> None:
        row[5] = args[0].benchmark
        counts["replay.calls"] += 1
        counts["replay.events"] += args[0].n_events

    def replayed_batch(profiles: Any, args: tuple, row: list) -> None:
        row[5] = args[0].benchmark
        counts["replay.calls"] += 1
        counts["replay.events"] += args[0].n_events * len(profiles)

    def looked_up(prefix: str) -> Callable[[Any, tuple, list], None]:
        def after(result: Any, args: tuple, row: list) -> None:
            counts[f"{prefix}.misses" if result is None else f"{prefix}.hits"] += 1
        return after

    engine.alberta_workloads = _wrap(engine.alberta_workloads, rec, "workloads.mint", minted)
    engine.capture_execution = _wrap(engine.capture_execution, rec, "capture", captured)
    engine.replay_capture = _wrap(engine.replay_capture, rec, "replay", replayed)
    engine.replay_capture_batched = _wrap(
        engine.replay_capture_batched, rec, "replay", replayed_batch
    )
    engine.cache_key = _wrap(engine.cache_key, rec, "cache.key")
    engine.capture_key = _wrap(engine.capture_key, rec, "cache.key")
    cache.ResultCache.get = _wrap(cache.ResultCache.get, rec, "cache.get", looked_up("cache"))
    cache.ResultCache.put = _wrap(cache.ResultCache.put, rec, "cache.put")
    artifacts.CaptureStore.get = _wrap(
        artifacts.CaptureStore.get, rec, "artifacts.get", looked_up("artifacts")
    )
    artifacts.CaptureStore.put = _wrap(artifacts.CaptureStore.put, rec, "artifacts.put")
    characterize = sys.modules["repro.core.characterize"]
    characterize.assemble_characterization = _wrap(
        characterize.assemble_characterization, rec, "summarize"
    )


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    Spans of one pass come from one thread and nest strictly, so the
    children of a span never overlap each other.
    """
    own = [end - start for _, _, _, start, end, _ in spans]
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(trace: dict[str, Any], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose spawn-to-exit time is ``wall_s``.

    ``engine.other_s`` is the wall time no span covers: interpreter
    start-up and exit plus the engine's own orchestration.
    """
    spans = trace["spans"]
    out: dict[str, float] = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
    for bid in TABLE2_IDS:
        out[f"capture.{bid}.s"] = 0.0
        out[f"replay.{bid}.s"] = 0.0
    for row, own in zip(spans, self_times(spans)):
        name, benchmark = row[2], row[5]
        out[SELF_TIME_METRICS[name]] += own
        if name in ("capture", "replay") and benchmark in TABLE2_IDS:
            out[f"{name}.{benchmark}.s"] += own
    out.update({k: float(v) for k, v in trace["counts"].items()})
    out["replay.events_per_s"] = (
        out["replay.events"] / out["replay.s"] if out["replay.s"] > 0 else 0.0
    )
    lookups = out["cache.hits"] + out["cache.misses"]
    out["cache.hit_ratio"] = out["cache.hits"] / lookups if lookups else 0.0
    out["engine.other_s"] = wall_s - sum(out[k] for k in SELF_TIME_METRICS.values())
    return out


def chrome_trace(traces: list[dict[str, Any]]) -> dict[str, Any]:
    """Chrome ``trace_event`` JSON with one process row per pass."""
    events = []
    for trace in traces:
        spans = trace["spans"]
        origin = min((s[3] for s in spans), default=0.0)
        for span_id, parent, name, start, end, benchmark in spans:
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "pid": trace["pass"], "tid": 0,
                "args": {"id": span_id, "parent": parent, "benchmark": benchmark},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
