"""Frozen capture digests: a substrate edit may change speed only.

Every Table II row is computed from the captures of the 195 Alberta
cells (15 benchmarks x their Alberta sets at ``base_seed=0``).  This
table pins each capture byte for byte, playing for the capture stage
the oracle role ``tests/_legacy_machine.py`` plays for replay: a
faster substrate must leave every probe event, its order, every method
counter (``extra`` included) and the decimation state unchanged.

The digest is a sha256 over the four RTC1 event columns as
little-endian int64, every :class:`~repro.machine.telemetry.MethodCounters`
field in registration order, and ``sampling_stride``/``event_cap``/
``tick``.  Tier-1 checks the smallest cell (fewest raw events) of each
benchmark; the ``slow`` test checks all 195.

To regenerate after a *deliberate* stream change::

    PYTHONPATH=src python tests/test_capture_digests.py --force

A deliberate change also needs a descriptor version bump for the
benchmark (so stored captures and profiles are not served stale) and a
``perfbench/make_golden.py`` rerun for the Table II row digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.core.registry import alberta_workloads, benchmark_ids, get_benchmark
from repro.machine import capture_execution

DIGESTS = Path(__file__).with_name("capture_digests.json")
BASE_SEED = 0


def capture_digest(capture) -> str:
    """sha256 over a capture's columns, method counters and decimation state."""
    h = hashlib.sha256()
    h.update(f"events={capture.n_events};".encode())
    for col in capture.columns:
        h.update(np.ascontiguousarray(col, dtype="<i8").tobytes())
    for mc in capture.methods:
        h.update(json.dumps(asdict(mc), sort_keys=True).encode())
    h.update(
        f"stride={capture.sampling_stride};cap={capture.event_cap};"
        f"tick={capture.tick}".encode()
    )
    return h.hexdigest()


def cell_captures(benchmark_id: str, names: set[str] | None = None):
    """Yield ``(workload name, capture)`` for a benchmark's Alberta set."""
    bench = get_benchmark(benchmark_id)
    for w in alberta_workloads(benchmark_id, BASE_SEED):
        if names is None or w.name in names:
            yield w.name, capture_execution(bench, w)


def _frozen() -> dict:
    return json.loads(DIGESTS.read_text())


def test_table_covers_every_table2_benchmark():
    frozen = _frozen()
    assert frozen["base_seed"] == BASE_SEED
    assert set(frozen["cells"]) == set(benchmark_ids(table2_only=True))
    assert sum(len(cells) for cells in frozen["cells"].values()) == 195
    for bid, name in frozen["smallest"].items():
        assert name in frozen["cells"][bid]


@pytest.mark.parametrize("benchmark_id", benchmark_ids(table2_only=True))
def test_smallest_cell_matches_frozen_digest(benchmark_id):
    frozen = _frozen()
    name = frozen["smallest"][benchmark_id]
    [(got_name, capture)] = cell_captures(benchmark_id, {name})
    assert got_name == name
    assert capture_digest(capture) == frozen["cells"][benchmark_id][name], (
        f"{benchmark_id}/{name}: capture stream changed"
    )


@pytest.mark.slow
@pytest.mark.parametrize("benchmark_id", benchmark_ids(table2_only=True))
def test_every_cell_matches_frozen_digest(benchmark_id):
    expected = _frozen()["cells"][benchmark_id]
    got = {name: capture_digest(c) for name, c in cell_captures(benchmark_id)}
    assert set(got) == set(expected), f"{benchmark_id}: Alberta set changed"
    changed = sorted(name for name in got if got[name] != expected[name])
    assert not changed, f"{benchmark_id}: capture stream changed for {changed}"


def main(argv: list[str] | None = None) -> int:  # pragma: no cover - regeneration helper
    ap = argparse.ArgumentParser(description="Regenerate tests/capture_digests.json.")
    ap.add_argument("--force", action="store_true",
                    help="overwrite the committed table (deliberate stream change only)")
    args = ap.parse_args(argv)
    if DIGESTS.exists() and not args.force:
        print(f"{DIGESTS.name} exists; pass --force to overwrite it "
              "(and bump the descriptor version, and rerun "
              "perfbench/make_golden.py)", file=sys.stderr)
        return 1
    cells: dict[str, dict[str, str]] = {}
    smallest: dict[str, str] = {}
    for bid in benchmark_ids(table2_only=True):
        ticks = {}
        cells[bid] = {}
        for name, capture in cell_captures(bid):
            cells[bid][name] = capture_digest(capture)
            ticks[name] = capture.tick
        smallest[bid] = min(ticks, key=lambda n: (ticks[n], n))
        print(f"{bid}: {len(cells[bid])} cells", file=sys.stderr)
    table = {"base_seed": BASE_SEED, "smallest": smallest, "cells": cells}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
