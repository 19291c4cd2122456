"""One benchmark pass (or one set-up) in a fresh interpreter.

Every ``repro`` CLI run pays interpreter start-up, imports and workload
minting again, so ``run.py`` times each pass from the spawn
of this process to its exit.  The pass drives the public ``repro`` API
with ``workers=1`` and prints one JSON line for ``run.py``: the rendered
Table II rows per machine config, the cells that failed, the paper
comparison, the peak RSS and, with ``--trace``, the recorded spans.

Usage::

    python3 perfbench/one_pass.py setup|pass --workload W --store DIR \\
        --base-seed N --ids ID,ID,... [--trace PASS_ID]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spans  # noqa: E402  (after the path set-up above)

#: The three presets the ``sweep_replay`` workload replays every capture under.
SWEEP_PRESETS = ("i7-2600", "i7-6700k", "atom-like")
#: The sweep config whose Table II feeds the paper comparison.
PAPER_CONFIG = "i7-2600"


def paper_summary(chars: list) -> dict | None:
    """Lowest Spearman rho against the published Table II, and leaders matched."""
    from repro.analysis.paper_baseline import compare_to_paper

    if len(chars) < 3:  # compare_to_paper needs three benchmarks
        return None
    cmp = compare_to_paper(chars)
    rhos = {k: v for k, v in cmp.items() if k.startswith("spearman_")}
    matched = 0
    for text in cmp["leaders"].values():
        paper, ours = text.split()
        matched += paper.split("=", 1)[1] == ours.split("=", 1)[1]
    low = min(rhos, key=rhos.get)
    return {"rho_min": rhos[low], "rho_min_column": low, "leaders_matched": matched}


def table2_lines(chars: list) -> dict[str, str]:
    """``render_table2`` text, one line per benchmark id (header dropped)."""
    from repro import render_table2

    lines = render_table2(chars).splitlines()[2:]
    return {line.split()[0]: line for line in lines}


def setup(workload: str, store: str, base_seed: int, ids: list[str]) -> None:
    """Build the workload's starting store through the public API.

    The warm and sweep stores come from one cold suite run.  It is the
    set-up, not a timed pass, so it uses both CPUs to halve the set-up
    time each run pays.
    """
    from repro.core import ArtifactStore
    from repro.core.run import Session

    if workload == "suite_cold":
        ArtifactStore(store)
        return
    with Session(workers=min(2, os.cpu_count() or 1), cache=store) as session:
        session.characterize_suite(base_seed=base_seed, ids=ids)
    if workload == "sweep_replay":
        ArtifactStore(store).profiles.wipe()


def run_pass(workload: str, store: str, base_seed: int, ids: list[str],
             rec: spans.Recorder | None) -> dict:
    span = rec.span if rec is not None else (lambda name: nullcontext())
    with span("startup.import"):
        from repro.core.run import MachineGrid, Session, SweepRequest
    if rec is not None:
        spans.install(rec)

    with span("session.open"):
        session = Session(workers=1, cache=store, strict=False)
    failed: list[list[str]] = []
    if workload == "sweep_replay":
        grid = MachineGrid.from_presets(*SWEEP_PRESETS)
        by_config: dict[str, list] = {name: [] for name in SWEEP_PRESETS}
        for bid in ids:
            result = session.characterize_sweep(SweepRequest(bid, grid, base_seed=base_seed))
            for name, char in zip(result.config_names, result.characterizations):
                if char is not None:
                    by_config[name].append(char)
            failed += [[bid, f.workload] for f in result.failures]
        rows = {name: table2_lines(chars) for name, chars in by_config.items()}
        paper = paper_summary(by_config[PAPER_CONFIG])
    else:
        result = session.characterize_suite(base_seed=base_seed, ids=ids)
        rows = {"default": table2_lines(result.characterizations)}
        failed = [list(cell) for cell in result.failed_cells]
        paper = paper_summary(result.characterizations)
    with span("session.close"):
        session.close()
    return {
        "rows": rows,
        "failed_cells": failed,
        "paper": paper,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "trace": rec.to_dict() if rec is not None else None,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("stage", choices=("setup", "pass"))
    ap.add_argument("--workload", required=True,
                    choices=("suite_cold", "suite_warm", "sweep_replay"))
    ap.add_argument("--store", required=True)
    ap.add_argument("--base-seed", type=int, required=True)
    ap.add_argument("--ids", required=True, help="comma-separated benchmark ids")
    ap.add_argument("--trace", type=int, default=None, metavar="PASS_ID",
                    help="record spans for this pass id")
    args = ap.parse_args(argv)
    ids = args.ids.split(",")
    if args.stage == "setup":
        setup(args.workload, args.store, args.base_seed, ids)
        return 0
    rec = spans.Recorder(args.trace) if args.trace is not None else None
    out = run_pass(args.workload, args.store, args.base_seed, ids, rec)
    print(json.dumps(out, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
