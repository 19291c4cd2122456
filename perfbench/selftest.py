"""Self-tests of the benchmark, on its smoke matrix (505.mcf_r + 557.xz_r).

Checks that every reported metric has a well-formed name and a unit and
matches ``BENCHMARK.json``, that a wrong golden digest is caught and
counted, and that the traced spans plus ``engine.other_s`` add up to the
pass wall time.  Takes about a minute::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def smoke(workload: str, trace: int, *extra: str) -> tuple[str, dict]:
    """One smoke run with a single pass (and a single traced pass)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--smoke",
         "--seed", "0", "--seconds", "0", "--trace", str(trace), *extra],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    runs: dict[tuple[str, int], tuple[str, dict]] = {}

    @classmethod
    def setUpClass(cls) -> None:
        for workload, trace in (("suite_warm", 0), ("sweep_replay", 0), ("suite_cold", 1)):
            cls.runs[workload, trace] = smoke(workload, trace)

    def test_results_correct(self) -> None:
        for (workload, _), (_, result) in self.runs.items():
            with self.subTest(workload=workload):
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)

    def test_metric_names_and_units(self) -> None:
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        expect = {
            0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
            1: {m["name"]: m["unit"] for m in declared["per_layer"]},
        }
        for (workload, trace), (_, result) in self.runs.items():
            metrics = result["metrics"]
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual({k: m["unit"] for k, m in metrics.items()}, expect[trace])
                for name, metric in metrics.items():
                    self.assertTrue(NAME.fullmatch(name), name)
                    self.assertTrue(UNIT.fullmatch(metric["unit"]), metric["unit"])

    def test_wrong_golden_digest_is_counted(self) -> None:
        golden = json.loads((HERE / "golden.json").read_text())
        seed0 = golden["seeds"]["0"]
        seed0["rows"]["default"]["557.xz_r"] = "0" * 64
        run.WORK.mkdir(exist_ok=True)
        wrong = run.WORK / "golden-wrong.json"
        wrong.write_text(json.dumps(golden))
        stdout, result = smoke("suite_warm", 0, "--golden", str(wrong))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], seed0["cells"]["557.xz_r"])
        _, good = self.runs["suite_warm", 0]
        self.assertLess(result["metrics"]["ok_frac"]["value"], good["metrics"]["ok_frac"]["value"])
        self.assertIn("default/557.xz_r", stdout)

    def test_spans_and_other_add_up_to_wall(self) -> None:
        record = json.loads((run.WORK / "result-suite_cold-seed0-trace1.json").read_text())
        traced = [p for p in record["passes"] if p["trace"] is not None]
        self.assertTrue(traced)
        chrome = json.loads((run.WORK / "trace-suite_cold-seed0.json").read_text())
        for p in traced:
            layers = spans.layer_metrics(p["trace"], p["wall_s"])
            self_total = sum(layers[m] for m in spans.SELF_TIME_METRICS.values())
            self.assertGreaterEqual(layers["engine.other_s"], 0.0)
            self.assertAlmostEqual(self_total + layers["engine.other_s"], p["wall_s"], places=9)
            # Self times partition the top-level spans of the written trace.
            top = [e["dur"] for e in chrome["traceEvents"]
                   if e["pid"] == p["pass"] and e["args"]["parent"] is None]
            self.assertAlmostEqual(sum(top) / 1e6, self_total, places=6)
            per_bid = sum(layers[f"capture.{bid}.s"] for bid in spans.TABLE2_IDS)
            self.assertAlmostEqual(per_bid, layers["capture.s"], places=9)
            self.assertEqual(layers["capture.calls"], 19)  # 7 mcf + 12 xz cells


if __name__ == "__main__":
    unittest.main()
