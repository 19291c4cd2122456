"""Frozen FDO replay digests: FDO-build reports stay bit-identical.

``tests/_legacy_machine.py`` pins the baseline cost model, but nothing
else pins :class:`~repro.fdo.optimizer.FdoCostModel`: its probe rewrite
(layout shrink, hinted branches removed from the stream) feeds the
replay kernel inputs the baseline goldens never produce, and its
post-adjust folds the static mispredicts back in.  This table freezes
the complete FDO report for every Table II benchmark so a change to the
replay kernel cannot move an FDO result unnoticed.

Each case captures the benchmark's ``.test`` workload, trains an
:class:`~repro.fdo.optimizer.FdoBuild` on the first workload of its
Alberta set (replayed on the same machine, as ``cross_validate`` does)
and replays the ``.test`` capture through the build's cost model on
the default machine and on ``i7-6700k``.  The digest is a sha256 over
the exact (``float.hex``) cycles, top-down fractions, per-method costs,
cache statistics and misprediction rate.

To regenerate after an *intended* model change:
``PYTHONPATH=src python tests/test_fdo_digests.py``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.registry import alberta_workloads, benchmark_ids, get_benchmark
from repro.fdo import FdoBuild
from repro.fdo.profile_data import collect_profile
from repro.machine import MachineConfig, capture_execution, preset, replay_capture

MACHINES = ("default", "i7-6700k")

CACHE_FIELDS = (
    "l1d_accesses",
    "l1d_misses",
    "l1i_accesses",
    "l1i_misses",
    "l2_accesses",
    "l2_misses",
    "llc_accesses",
    "llc_misses",
    "dtlb_misses",
)
METHOD_FIELDS = (
    "uops",
    "retiring_cycles",
    "bad_spec_cycles",
    "frontend_cycles",
    "backend_cycles",
    "est_mispredicts",
    "est_data_misses",
)

#: sha256 per ``benchmark/machine`` of the FDO report fields.
FROZEN = {
    "502.gcc_r/default": "138c142079c4cf38ba1fd1f10eb9346d08c8429ab262ecbb190de516bbef671b",
    "502.gcc_r/i7-6700k": "27243cefb7e4178b86a3f40cdf8f0224838a4bb55ef6d14f76a8fe987ddeb040",
    "505.mcf_r/default": "3bfdbb91576a73b5f724fbc0021ddcb4d255e57910b7879d5cad34ed22bea1bd",
    "505.mcf_r/i7-6700k": "169ab48d0b03b64c5d13ee3412ab6efad0299b1bc6bf686d6fb81e8e27cc9748",
    "507.cactuBSSN_r/default": "5b5ffa499e8ff55a57d57bf2cf2c9632e8e9022ac1660650797361229dc8500a",
    "507.cactuBSSN_r/i7-6700k": "93b55d69f86522df8e123a50239826506c5a28a74212454291fa178c2ad6629e",
    "510.parest_r/default": "7779930195c6b2127541723506fc97a45ed5999a8c065a2f6206b46059a59f7d",
    "510.parest_r/i7-6700k": "d78b5f65addb96ba417a9edf9897932d0437a5ba6c728b61e44f6cdc1e556038",
    "511.povray_r/default": "68bb52e32930ed12d8f1bdb25493a2ba0606798891057932949a3599f205b70b",
    "511.povray_r/i7-6700k": "764fe22c2dd4671ec81daf50ac876533eb3bb1e6fe21e9b5d7021f5991b121db",
    "519.lbm_r/default": "9fadb5f01e908e1b404f6dd19231dca1992854d6b45700af3aaf6ed4653715c5",
    "519.lbm_r/i7-6700k": "289b2697e32bd4761fffb2fe341279a86b91a80d6c17bb348912016f8cf90ab9",
    "520.omnetpp_r/default": "e0c42c4687a03114512153089d7777b624d8256b9f47736710f89406ff17c334",
    "520.omnetpp_r/i7-6700k": "213e3d485d87ab14154e4b65bc0d2bc37db8bf5f395e5f462329754a7e07b41c",
    "521.wrf_r/default": "40e480667a26deaadbe7c88df9680c17400b66543cc43f49261555429a57d9a0",
    "521.wrf_r/i7-6700k": "cfd4a19911d48b470fefe55a6cf5633426c0498879192943a5c16a8e3f3f3f3c",
    "523.xalancbmk_r/default": "5b0ac6201e363ed36e8adb413857caa87a3af207d9c9eaeb6245f30071e37353",
    "523.xalancbmk_r/i7-6700k": "38b48d3fa37993391d9d1a189d1fc3b89c1ea68e6de9e7b4fe4e7edf1e9c95fb",
    "526.blender_r/default": "110ef9b63cdfcfc5879d39d2b961dc2a73197d480e0fd0f74fee815831a7e4cf",
    "526.blender_r/i7-6700k": "3a0197fede97c60fc72d96ad1f369edfd3b90d6d92b75758729ddcc8d4d38166",
    "531.deepsjeng_r/default": "9222cde35d4c57492a93c51612c2189424197e9550e564f7076f2f86632f4e36",
    "531.deepsjeng_r/i7-6700k": "79ee51a3a7714b84f5969326e24ccdb4cfe388713653d9a07c7f45fd22a089cf",
    "541.leela_r/default": "fa194cce16cd9dc9bd496bdf0919520b5447acd50d15e3be102c042a714740e2",
    "541.leela_r/i7-6700k": "a60c308673655e9996062ca24a4b88aa560cba7d0a425259fa5979357d6309dc",
    "544.nab_r/default": "7ded51cc0ae083ee830ac0401e752ac9e9814f72705d6bb7bdcd42d8dc94341c",
    "544.nab_r/i7-6700k": "f19ecbdba709936c0c48835c6ef778bf84d00c66f8c3f45c419b5115b2d8d448",
    "548.exchange2_r/default": "d0dff518521b9abbfb3d6130c01cdc96fcc93c5678ebd37544e055a87f0d1de0",
    "548.exchange2_r/i7-6700k": "1b83778dfc2ab7b4bfe5c59339ae3c8ccf7ca3b985811c583399d5209b2bba25",
    "557.xz_r/default": "69739958a421e4432a386418dee55ec6568ed69d0ae55df3f6fb559d1b8c5083",
    "557.xz_r/i7-6700k": "e8dcf38e3c59010f2aec72007f0e34176831ecd32d597d56efe89bac5a4bdb95",
}


def _machine(name: str) -> MachineConfig:
    return MachineConfig() if name == "default" else preset(name)


def report_digest(report) -> str:
    """sha256 over every FDO-visible report field, floats exact."""
    h = hashlib.sha256()

    def put(tag, value):
        v = value.hex() if isinstance(value, float) else repr(value)
        h.update(f"{tag}={v};".encode())

    put("cycles", float(report.cycles))
    put("mispredict_rate", float(report.branch_misprediction_rate))
    for f in ("front_end", "back_end", "bad_speculation", "retiring"):
        put(f"topdown.{f}", float(getattr(report.topdown, f)))
    for f in CACHE_FIELDS:
        put(f"cache.{f}", getattr(report.cache_stats, f))
    for name in sorted(report.per_method):
        cost = report.per_method[name]
        for f in METHOD_FIELDS:
            put(f"{name}.{f}", float(getattr(cost, f)))
    return h.hexdigest()


def fdo_digests(benchmark_id: str) -> dict[str, str]:
    """``{"benchmark/machine": digest}`` for one Table II benchmark."""
    workloads = alberta_workloads(benchmark_id)
    bench = get_benchmark(benchmark_id)
    train_wl = workloads[0]
    eval_wl = next(w for w in workloads if w.name.endswith(".test"))
    train_cap = capture_execution(bench, train_wl)
    eval_cap = capture_execution(bench, eval_wl)
    out = {}
    for name in MACHINES:
        m = _machine(name)
        base = replay_capture(train_cap, machine=m)
        build = FdoBuild(collect_profile(base, train_cap.methods, machine=m))
        fdo = replay_capture(eval_cap, cost_model=build.cost_model(m))
        out[f"{benchmark_id}/{name}"] = report_digest(fdo.report)
    return out


@pytest.mark.parametrize("benchmark_id", benchmark_ids(table2_only=True))
def test_fdo_replay_matches_frozen_digest(benchmark_id):
    got = fdo_digests(benchmark_id)
    for key, digest in got.items():
        assert key in FROZEN, f"{key}: no frozen digest"
        assert digest == FROZEN[key], f"{key}: FDO report changed"


def test_table_covers_every_table2_benchmark():
    want = {f"{b}/{m}" for b in benchmark_ids(table2_only=True) for m in MACHINES}
    assert set(FROZEN) == want


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for bid in benchmark_ids(table2_only=True):
        for key, digest in fdo_digests(bid).items():
            print(f'    "{key}": "{digest}",')
