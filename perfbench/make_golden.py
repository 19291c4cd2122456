"""Regenerate ``golden.json``, the Table II row digests ``run.py`` checks.

For each workload seed, one cold suite pass gives the default machine's
rows and one sweep pass gives the rows of the three sweep presets.  Run
it only when a change is meant to alter Table II, and say so in the
change::

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import spans

#: Seed 0 is the benchmark's default; 2 is held out from tuning.
SEEDS = (0, 2)


def main() -> int:
    ids = list(spans.TABLE2_IDS)
    seeds = {}
    work = run.WORK / "golden"
    try:
        for seed in SEEDS:
            rows = {}
            for workload in ("suite_cold", "sweep_replay"):
                shutil.rmtree(work, ignore_errors=True)
                _, stdout = run.spawn("pass", workload, work, seed, ids)
                out = json.loads(stdout.strip().splitlines()[-1])
                if out["failed_cells"]:
                    raise run.BenchError(f"seed {seed}: cells failed: {out['failed_cells']}")
                rows.update(out["rows"])
            seeds[str(seed)] = {
                # The second column of a rendered row is its workload count.
                "cells": {bid: int(line.split()[1]) for bid, line in rows["default"].items()},
                "rows": {config: {bid: run.row_digest(line) for bid, line in lines.items()}
                         for config, lines in rows.items()},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.HERE / "golden.json"
    path.write_text(json.dumps({"format": 1, "seeds": seeds}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
