"""End-to-end benchmark of whole ``repro`` suite and sweep runs.

Three workloads, each timed as fresh-interpreter passes of the public
``repro`` API with ``workers=1`` over the Table II matrix (15 benchmarks
x their Alberta sets = 195 cells):

* ``suite_cold``   -- ``Session.characterize_suite()`` on an empty store
  (capture, replay, and 195 capture + 195 profile writes);
* ``suite_warm``   -- the same call on a store a cold run filled, so
  every profile hits (minting, start-up and profile reads);
* ``sweep_replay`` -- ``Session.characterize_sweep()`` of every benchmark
  under three machine presets, from a store holding the captures only
  (585 batched replays, capture reads, profile writes).

Every pass's Table II rows are checked against the sha256 digests in
``golden.json``.  With ``--trace 1`` the run alternates untraced passes
with traced ones that record a span per layer call (see ``spans.py``)
and reports the per-layer split instead of the end-to-end metrics.

Usage::

    python3 perfbench/run.py --workload suite_warm --seed 1 --seconds 10 --trace 0

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run records, including the
environment stamp, and the Chrome trace of a traced run are written to
``.perfbench_work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402  (after the path set-up above)

WORKLOADS = ("suite_cold", "suite_warm", "sweep_replay")
#: Set-ups per run.  A cold store is an empty directory, cheap enough to
#: build three times and take the median; the warm and sweep stores each
#: take a whole cold characterization, so they are built once.
SETUP_REPEATS = {"suite_cold": 3, "suite_warm": 1, "sweep_replay": 1}
SMOKE_IDS = ("505.mcf_r", "557.xz_r")
#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("store_mb", "MB"),
    ("ok_frac", "fraction"),
    ("paper_rho_min", "rho"),
    ("paper_leaders_matched", "count"),
)
#: A pass that has not exited by then is killed and the run aborted, so
#: that a run stays inside its 180 s limit.
CHILD_TIMEOUT_S = 150.0
WORK = ROOT / ".perfbench_work"


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (not a failed output check)."""


def spawn(stage: str, workload: str, store: Path, base_seed: int,
          ids: list[str], trace_id: int | None = None) -> tuple[float, str]:
    """Run ``one_pass.py`` to completion; returns (spawn-to-exit seconds, stdout)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    cmd = [sys.executable, str(HERE / "one_pass.py"), stage,
           "--workload", workload, "--store", str(store),
           "--base-seed", str(base_seed), "--ids", ",".join(ids)]
    if trace_id is not None:
        cmd += ["--trace", str(trace_id)]
    started = time.perf_counter()
    # A session of its own, so that a set-up's pool workers go with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:  # timeout, SIGTERM (see _terminate), Ctrl-C
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{stage} of {workload} exceeded {CHILD_TIMEOUT_S:.0f} s") from exc
        raise
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise BenchError(f"{stage} of {workload} exited {proc.returncode}:\n{stderr[-4000:]}")
    return wall, stdout


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def row_digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()


def check_rows(rows: dict[str, dict[str, str]], golden: dict, ids: list[str]
               ) -> tuple[int, int, list[str]]:
    """Compare one pass's rows with the golden digests.

    Returns (attempted cells, failed cells, mismatching rows).  Every
    cell of a row that is missing or differs counts as failed.
    """
    attempted = failed = 0
    bad: list[str] = []
    for config, expected in golden["rows"].items():
        if config not in rows:
            continue
        for bid in ids:
            cells = golden["cells"][bid]
            attempted += cells
            line = rows[config].get(bid)
            if line is None or row_digest(line) != expected[bid]:
                failed += cells
                bad.append(f"{config}/{bid}")
    return attempted, failed, bad


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp(args: argparse.Namespace) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "base_seed": args.base_seed,
        "seed": args.seed,
        "loadavg": os.getloadavg(),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def measure(args: argparse.Namespace, golden: dict, ids: list[str], work: Path) -> dict:
    """Set up, run passes for ``args.seconds``, and check every pass."""
    workload = args.workload
    setup_s = []
    base = work / "base"
    for _ in range(SETUP_REPEATS[workload]):
        shutil.rmtree(base, ignore_errors=True)
        wall, _ = spawn("setup", workload, base, args.base_seed, ids)
        setup_s.append(wall)

    store = work / "store"
    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    mismatches: list[str] = []
    started = time.perf_counter()
    while True:
        # With --trace 1, traced passes alternate with untraced ones.
        want_trace = bool(args.trace) and len(traced) < len(plain)
        if not want_trace and plain and time.perf_counter() - started >= args.seconds:
            break
        shutil.rmtree(store, ignore_errors=True)
        shutil.copytree(base, store)
        pass_id = len(plain) + len(traced)
        wall, stdout = spawn("pass", workload, store, args.base_seed, ids,
                             pass_id if want_trace else None)
        out = json.loads(stdout.strip().splitlines()[-1])
        a, f, bad = check_rows(out["rows"], golden, ids)
        attempted += a
        failed += f
        mismatches += [b for b in bad if b not in mismatches]
        record = {"pass": pass_id, "wall_s": wall, "rss_mb": out["rss_mb"],
                  "store_mb": dir_bytes(store) / 1e6, "paper": out["paper"],
                  "failed_cells": out["failed_cells"], "trace": out["trace"]}
        (traced if want_trace else plain).append(record)
    return {"setup_s": setup_s, "plain": plain, "traced": traced,
            "attempted": attempted, "failed": failed, "mismatches": mismatches}


def end_to_end(m: dict) -> dict[str, float | None]:
    plain = m["plain"]
    paper = [p["paper"] for p in plain if p["paper"] is not None]
    return {
        "setup_s": statistics.median(m["setup_s"]),
        "wall_s": statistics.median([p["wall_s"] for p in plain]),
        "peak_rss_mb": statistics.median([p["rss_mb"] for p in plain]),
        "store_mb": statistics.median([p["store_mb"] for p in plain]),
        "ok_frac": 1.0 - m["failed"] / m["attempted"],
        # compare_to_paper needs three benchmarks; a smoke run has two.
        "paper_rho_min": statistics.median([p["rho_min"] for p in paper]) if paper else None,
        "paper_leaders_matched": (
            statistics.median([p["leaders_matched"] for p in paper]) if paper else None
        ),
    }


def per_layer(m: dict) -> dict[str, float]:
    per_pass = [spans.layer_metrics(t["trace"], t["wall_s"]) for t in m["traced"]]
    out = {name: statistics.median([p[name] for p in per_pass]) for name in per_pass[0]}
    plain_wall = statistics.median([p["wall_s"] for p in m["plain"]])
    traced_wall = statistics.median([t["wall_s"] for t in m["traced"]])
    out["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    return {name: out[name] for name in spans.per_layer_names()}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="orders the sweep's benchmarks; the workload seed is --base-seed")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="keep starting passes until this much time has been measured")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: add traced passes and report the per-layer split")
    ap.add_argument("--base-seed", type=int, default=0,
                    help="Alberta workload seed; golden.json must cover it")
    ap.add_argument("--smoke", action="store_true",
                    help=f"only {' + '.join(SMOKE_IDS)} (benchmark self-tests)")
    ap.add_argument("--golden", type=Path, default=HERE / "golden.json",
                    help="golden Table II row digests")
    return ap.parse_args(argv)


def _terminate(signum: int, frame: object) -> None:
    # spawn() kills and reaps its child on any exception, so turning
    # SIGTERM into SystemExit stops the running pass or set-up too.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden = json.loads(args.golden.read_text()).get("seeds", {}).get(str(args.base_seed))
    if golden is None:
        print(f"run.py: {args.golden.name} has no digests for base seed "
              f"{args.base_seed}; regenerate it with make_golden.py", file=sys.stderr)
        return 2
    ids = list(SMOKE_IDS if args.smoke else spans.TABLE2_IDS)
    if args.workload == "sweep_replay":
        random.Random(args.seed).shuffle(ids)

    stamp = env_stamp(args)
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        m = measure(args, golden, ids, work)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = per_layer(m)
        units = {name: spans.unit_of(name) for name in values}
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(spans.chrome_trace([t["trace"] for t in m["traced"]])))
        print(f"trace: {trace_file}")
    else:
        values = end_to_end(m)
        units = dict(END_TO_END)
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    record = {"env": stamp, "metrics": metrics, "setup_s": m["setup_s"],
              "passes": m["plain"] + m["traced"], "mismatches": m["mismatches"]}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    print(f"{args.workload}: {len(m['plain'])} passes, {len(m['traced'])} traced, "
          f"{len(m['setup_s'])} set-ups, base seed {args.base_seed}")
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']!s:>24} {metric['unit']}")
    for row in m["mismatches"]:
        print(f"  output check FAILED: Table II row {row} differs from {args.golden.name}")
    print(json.dumps({"env": stamp}))
    print(json.dumps({
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
