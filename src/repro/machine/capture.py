"""The capture half of the staged characterization pipeline.

A characterize cell used to be one opaque operation: run the benchmark
under a :class:`~repro.machine.telemetry.Probe` *and* replay the
telemetry through the cost model, fused inside
:meth:`~repro.machine.profiler.Profiler.run`.  This module splits the
two stages apart:

* **capture** (:func:`capture_execution`) — execute the benchmark once
  and snapshot everything the cost model will ever read into a
  :class:`TelemetryCapture`.  The capture is *machine-independent*: it
  depends only on (benchmark, workload, repro version), never on a
  :class:`~repro.machine.cost.MachineConfig`.
* **replay** (:func:`replay_capture`) — materialize a fresh
  :class:`~repro.machine.telemetry.Probe` from a capture and evaluate
  it under any cost model.  Replays of the same capture are
  bit-identical to evaluating the original probe, because the capture
  copies the exact columns, per-method counters, and decimation state
  the probe held at the end of the run.

A machine-config or FDO-build sweep therefore executes each benchmark
once and replays the captured stream N times — the separation
SimPoint-style workflows rest on.  A machine sweep goes further:
:func:`replay_capture_batched` replays the N configs in one pass over
the columns (``replay_capture`` is the same kernel at N=1).  An FDO
replay gets its *own*
materialized probe: the FDO cost model mutates the probe it evaluates
(layout decisions rewrite per-method counters, branch hints rewrite
the event stream), so replays must never share one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core import metrics
from ..core.errors import VerificationError, WorkloadError
from .cost import CostModel, MachineConfig, MachineReport, replay_reports
from .profiler import ExecutionProfile
from .telemetry import MethodCounters, Probe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.workload import Workload

__all__ = [
    "TelemetryCapture",
    "capture_execution",
    "replay_capture",
    "replay_capture_batched",
]


def _copy_counters(mc: MethodCounters) -> MethodCounters:
    """A deep-enough copy: all scalar fields plus a fresh ``extra`` dict."""
    return replace(mc, extra=dict(mc.extra))


@dataclass(frozen=True)
class TelemetryCapture:
    """Everything the cost model reads from one benchmark execution.

    The machine-independent artifact of the capture stage: exact
    per-method counters, the four sampled event columns, and the
    decimation state (``sampling_stride``, ``event_cap``, ``tick``).
    Captures are immutable and reusable — :meth:`materialize` builds a
    fresh probe per replay, so even mutating cost models (FDO) cannot
    corrupt the capture.
    """

    benchmark: str
    workload: str
    methods: tuple[MethodCounters, ...]
    columns: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    sampling_stride: int
    event_cap: int
    tick: int
    verified: bool = True

    @property
    def n_events(self) -> int:
        return len(self.columns[0])

    @classmethod
    def from_probe(
        cls,
        benchmark: str,
        workload: str,
        probe: Probe,
        *,
        verified: bool = True,
    ) -> "TelemetryCapture":
        """Snapshot a probe after its benchmark run finished.

        ``EventStream.columns()`` already returns copies, and the
        method counters are copied here, so the capture stays frozen
        even if the probe keeps recording.
        """
        return cls(
            benchmark=benchmark,
            workload=workload,
            methods=tuple(_copy_counters(mc) for mc in probe.methods()),
            columns=probe.events.columns(),
            sampling_stride=probe.sampling_stride,
            event_cap=probe._event_cap,
            tick=probe._tick,
            verified=verified,
        )

    def materialize(self) -> Probe:
        """A fresh probe holding exactly this capture's end-of-run state.

        Evaluating the returned probe is bit-identical to evaluating
        the probe the benchmark originally ran under: same method
        counters (including registration order and ``extra``), same
        event columns, same sampling stride and cap.
        """
        probe = Probe(event_cap=self.event_cap)
        for mc in self.methods:
            clone = _copy_counters(mc)
            probe._methods[clone.name] = clone
            probe._by_index.append(clone)
        probe.replace_events_columns(*self.columns)
        probe._keep_every = self.sampling_stride
        probe._tick = self.tick
        return probe


def capture_execution(
    benchmark: Any,
    workload: "Workload",
    *,
    verify: bool = True,
) -> TelemetryCapture:
    """Run one benchmark on one workload and capture its telemetry.

    The machine-independent half of what ``Profiler.run`` did: execute,
    verify the output (a miscompare raises
    :class:`~repro.core.errors.VerificationError`, mirroring SPEC's
    validation step), and snapshot the probe.  No cost model is
    consulted — that is the replay stage's job.
    """
    if workload.benchmark != benchmark.name:
        raise WorkloadError(
            f"workload {workload.name!r} is for {workload.benchmark!r}, "
            f"not {benchmark.name!r}"
        )
    probe = Probe()
    output = benchmark.run(workload, probe)
    verified = True
    if verify:
        verified = bool(benchmark.verify(workload, output))
        if not verified:
            raise VerificationError(
                f"{benchmark.name}: output verification failed for "
                f"workload {workload.name!r}"
            )
    capture = TelemetryCapture.from_probe(
        benchmark.name, workload.name, probe, verified=verified
    )
    metrics.inc(
        metrics.EVENTS_EMITTED_TOTAL, capture.n_events, benchmark=capture.benchmark
    )
    metrics.gauge_set(
        metrics.SAMPLING_STRIDE_MAX,
        capture.sampling_stride,
        benchmark=capture.benchmark,
    )
    return capture


def _profile(capture: TelemetryCapture, report: MachineReport) -> ExecutionProfile:
    return ExecutionProfile(
        benchmark=capture.benchmark,
        workload=capture.workload,
        report=report,
        output=None,
        verified=capture.verified,
    )


def _record_replay(capture: TelemetryCapture, events: int, elapsed_ns: int) -> None:
    metrics.inc(metrics.REPLAY_EVENTS_TOTAL, events, benchmark=capture.benchmark)
    metrics.inc(metrics.REPLAY_NS_TOTAL, elapsed_ns, benchmark=capture.benchmark)
    metrics.observe(
        metrics.REPLAY_EPS, events / (elapsed_ns / 1e9), benchmark=capture.benchmark
    )
    metrics.gauge_set(
        metrics.SAMPLING_STRIDE_MAX, capture.sampling_stride, benchmark=capture.benchmark
    )


def replay_capture(
    capture: TelemetryCapture,
    *,
    machine: MachineConfig | None = None,
    cost_model: CostModel | None = None,
) -> ExecutionProfile:
    """Replay a capture under a machine model, without re-executing.

    Pass ``machine`` for a baseline replay, or ``cost_model`` for a
    build-specific model (e.g. the FDO build's
    :class:`~repro.fdo.optimizer.FdoCostModel`).  The profile carries
    ``output=None`` — same as pool workers and cache hits, the replay
    stage never sees the benchmark output.
    """
    if cost_model is None:
        cost_model = CostModel(machine)
    probe = capture.materialize()
    t0 = time.perf_counter_ns()
    report = cost_model.evaluate(probe)
    _record_replay(capture, capture.n_events, max(1, time.perf_counter_ns() - t0))
    return _profile(capture, report)


def replay_capture_batched(
    capture: TelemetryCapture,
    machines: "list[MachineConfig | None]",
) -> list[ExecutionProfile]:
    """Replay one capture under N machine configs in a single pass.

    Returns one :class:`ExecutionProfile` per entry of ``machines``
    (``None`` entries mean the default config), each bit-identical to
    ``replay_capture(capture, machine=cfg)``: both run
    :func:`~repro.machine.cost.replay_reports`, this one with the whole
    config list so the configs share every cache level and predictor
    scan they have in common (DESIGN.md §13).
    """
    cfgs = [m if m is not None else MachineConfig() for m in machines]
    t0 = time.perf_counter_ns()
    reports = replay_reports(
        capture.methods, capture.columns, capture.sampling_stride, cfgs
    )
    elapsed_ns = max(1, time.perf_counter_ns() - t0)
    _record_replay(capture, capture.n_events * len(cfgs), elapsed_ns)
    return [_profile(capture, report) for report in reports]
