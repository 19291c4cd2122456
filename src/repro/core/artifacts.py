"""Typed per-stage artifact stores for the staged pipeline.

:mod:`repro.core.cache` stores the *end product* of a cell — a
serialized :class:`~repro.machine.profiler.ExecutionProfile`, keyed by
(benchmark, workload, machine, version).  The staged pipeline also
needs to persist the *intermediate* artifact between capture and
replay: the machine-independent :class:`~repro.machine.capture.
TelemetryCapture`, keyed by :func:`~repro.core.cache.capture_key`
(no machine).  This module adds:

* a compact binary codec for captures (:func:`encode_capture` /
  :func:`decode_capture`) — JSON header for the per-method counters
  and decimation state, zlib-compressed raw int64 column bytes with a
  CRC for the event stream.  JSON would baloon the four event columns
  (hundreds of thousands of int64s) roughly 5x and round-trip slowly;
  raw little-endian column bytes restore with one ``frombuffer`` each;
* :class:`CaptureStore` — the on-disk store for encoded captures,
  with the same atomic-write and quarantine-on-corruption discipline
  as :class:`~repro.core.cache.ResultCache` (both are
  :class:`~repro.core.cache.EntryStore` subclasses);
* :class:`SetIndex` — the generate-stage store: the ordered workload
  fingerprints of each default workload set, keyed by the set's recipe
  (:func:`~repro.core.cache.set_key`), so a run computes its keys
  without minting payloads;
* :class:`ArtifactStore` — the per-stage stores the engine holds:
  ``profiles`` (the replay-stage artifact, one entry per
  machine/build), ``captures`` (the capture-stage artifact, one entry
  per workload, shared by every machine/build that replays it) and
  ``sets`` (the workload-set index).

Capture traffic is mirrored under ``engine.artifacts.capture.*`` and
index traffic under ``engine.artifacts.sets.*`` (never
``engine.cache.*``, which remains exclusively profile-store traffic).
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from . import metrics
from ..machine import telemetry
from ..machine.capture import TelemetryCapture
from ..machine.telemetry import MethodCounters
from .cache import CACHE_FORMAT, EntryStore, ResultCache, payload_digest
from .errors import CacheCorruption

__all__ = [
    "CAPTURE_MAGIC",
    "encode_capture",
    "decode_capture",
    "CaptureStore",
    "SetIndex",
    "ArtifactStore",
]

#: Leading bytes of every encoded capture; rev with the layout.
CAPTURE_MAGIC = b"RTC1"

_LEN_HEADER = struct.Struct("<II")  # header length, compressed payload length


def encode_capture(capture: TelemetryCapture) -> bytes:
    """Serialize a capture to the compact binary artifact format.

    Layout: ``CAPTURE_MAGIC``, two little-endian u32 lengths (JSON
    header, compressed payload), a u32 CRC-32 of the *uncompressed*
    column bytes, the JSON header, then the zlib-compressed
    concatenation of the four int64 event columns.  Everything the
    decoder needs to reject a damaged entry is self-contained.
    """
    cols = [np.ascontiguousarray(c, dtype=np.int64) for c in capture.columns]
    raw = b"".join(c.tobytes() for c in cols)
    header = json.dumps(
        {
            "format": CACHE_FORMAT,
            "benchmark": capture.benchmark,
            "workload": capture.workload,
            "verified": capture.verified,
            "sampling_stride": capture.sampling_stride,
            "event_cap": capture.event_cap,
            "tick": capture.tick,
            "events": int(len(cols[0])),
            "methods": [asdict(mc) for mc in capture.methods],
        },
        separators=(",", ":"),
    ).encode()
    payload = zlib.compress(raw, 6)
    return (
        CAPTURE_MAGIC
        + _LEN_HEADER.pack(len(header), len(payload))
        + struct.pack("<I", zlib.crc32(raw))
        + header
        + payload
    )


def decode_capture(blob: bytes) -> TelemetryCapture:
    """Reconstruct a capture; raises :class:`CacheCorruption` on damage.

    Every structural check — magic, declared lengths, format version,
    CRC over the decompressed columns, column count consistency — maps
    to the same exception so stores can quarantine uniformly.
    """
    if blob[: len(CAPTURE_MAGIC)] != CAPTURE_MAGIC:
        raise CacheCorruption("capture artifact: bad magic")
    offset = len(CAPTURE_MAGIC)
    try:
        header_len, payload_len = _LEN_HEADER.unpack_from(blob, offset)
        offset += _LEN_HEADER.size
        (crc,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        header = json.loads(blob[offset : offset + header_len])
        payload = blob[offset + header_len : offset + header_len + payload_len]
        if len(payload) != payload_len:
            raise CacheCorruption("capture artifact: truncated payload")
        raw = zlib.decompress(payload)
    except CacheCorruption:
        raise
    except (struct.error, ValueError, zlib.error) as exc:
        raise CacheCorruption(f"capture artifact: undecodable ({exc})") from exc
    if header.get("format") != CACHE_FORMAT:
        raise CacheCorruption(
            f"capture artifact: unsupported format {header.get('format')!r}"
        )
    if zlib.crc32(raw) != crc:
        raise CacheCorruption("capture artifact: CRC mismatch")
    n = header["events"]
    if len(raw) != 4 * 8 * n:
        raise CacheCorruption(
            f"capture artifact: expected {4 * 8 * n} column bytes, got {len(raw)}"
        )
    width = 8 * n
    columns = tuple(
        np.frombuffer(raw[i * width : (i + 1) * width], dtype=np.int64).copy()
        for i in range(4)
    )
    try:
        methods = tuple(MethodCounters(**mc) for mc in header["methods"])
        return TelemetryCapture(
            benchmark=header["benchmark"],
            workload=header["workload"],
            methods=methods,
            columns=columns,  # type: ignore[arg-type]
            sampling_stride=header["sampling_stride"],
            event_cap=header["event_cap"],
            tick=header["tick"],
            verified=header["verified"],
        )
    except (KeyError, TypeError) as exc:
        raise CacheCorruption(f"capture artifact: bad header ({exc})") from exc


class CaptureStore(EntryStore):
    """Content-addressed on-disk store of encoded telemetry captures.

    :class:`~repro.core.cache.EntryStore` semantics — atomic replace on
    write, quarantine (rename to ``*.bin.corrupt``) plus miss on an
    undecodable read — for ``.bin`` entries at
    ``<root>/<key[:2]>/<key>.bin``.  Traffic is counted per instance in
    :attr:`stats` and process-wide under ``engine.artifacts.capture.*``.
    """

    suffix = ".bin"
    label = "capture"
    counter_prefix = "engine.artifacts.capture"

    def get(self, key: str) -> TelemetryCapture | None:
        """Look up a capture; a miss or corrupt entry returns None."""
        return self._load(key, decode_capture)

    def put(self, key: str, capture: TelemetryCapture) -> None:
        """Store an encoded capture under ``key`` (atomic replace)."""
        self._store(key, encode_capture(capture))


#: The fields of one :func:`~repro.core.cache.workload_fingerprint`.
_FINGERPRINT_FIELDS = frozenset(("name", "benchmark", "kind", "seed", "params", "payload"))


def _json_native(fingerprint: Mapping[str, Any]) -> bool:
    """True when every field survives a JSON round trip unchanged, so a
    fingerprint read back from the index hashes to the same keys."""
    return set(fingerprint) == _FINGERPRINT_FIELDS and all(
        type(v) in (str, int, type(None)) for v in fingerprint.values()
    )


class SetIndex(EntryStore):
    """The generate-stage store: recipe key → ordered workload fingerprints.

    One JSON entry per default workload set at
    ``<root>/<key[:2]>/<key>.json``, keyed by
    :func:`~repro.core.cache.set_key`.  An entry carries its own key,
    benchmark, base seed and a digest over the ordered fingerprint list,
    so a truncated, bit-flipped, foreign, reordered or shortened entry
    fails to decode and is quarantined like any other corrupt artifact —
    it can never serve a wrong fingerprint.  Traffic lands on the cache
    metric families with ``store="sets"`` and under
    ``engine.artifacts.sets.*``; :attr:`stale` counts entries a fresh
    mint found out of date and replaced.
    """

    label = "sets"
    counter_prefix = "engine.artifacts.sets"

    def __init__(self, root: str | Path):
        super().__init__(root)
        self.stale = 0

    def get(
        self, key: str, benchmark_id: str, base_seed: int
    ) -> tuple[dict[str, Any], ...] | None:
        """The indexed fingerprints of one set; None on a miss or corrupt entry."""

        def decode(raw: bytes) -> tuple[dict[str, Any], ...]:
            entry = json.loads(raw)
            return _decode_set(entry, key, benchmark_id, base_seed)

        return self._load(key, decode)

    def put(
        self,
        key: str,
        benchmark_id: str,
        base_seed: int,
        fingerprints: "list[dict[str, Any]] | tuple[dict[str, Any], ...]",
    ) -> None:
        """Index one minted set; nothing is written when a fingerprint
        would not survive the JSON round trip (such a set is re-minted
        by every process that needs it)."""
        fps = [dict(fp) for fp in fingerprints]
        if not all(_json_native(fp) for fp in fps):
            return
        entry = {
            "format": CACHE_FORMAT,
            "key": key,
            "benchmark": benchmark_id,
            "base_seed": base_seed,
            "digest": payload_digest(fps),
            "workloads": fps,
        }
        self._store(key, json.dumps(entry, separators=(",", ":")).encode())

    def replace_stale(
        self,
        key: str,
        benchmark_id: str,
        base_seed: int,
        fingerprints: "tuple[dict[str, Any], ...]",
    ) -> None:
        """Overwrite an entry a fresh mint disagrees with, and count it."""
        self.stale += 1
        telemetry.record(f"{self.counter_prefix}.stale")
        metrics.inc(metrics.CACHE_EVENTS_TOTAL, store=self.label, event="stale")
        self.put(key, benchmark_id, base_seed, fingerprints)

    def quarantine(self, key: str) -> None:
        """Move one entry aside so the next run re-mints its set."""
        self._quarantine(self._path(key))

    def recipes(self) -> list[tuple[str, str, int]]:
        """``(key, benchmark, base_seed)`` of every decodable entry, by key.

        Undecodable entries are quarantined on the way.
        """
        out = []
        for path in sorted(self._entries()):
            try:
                entry = json.loads(path.read_bytes())
                _decode_set(entry, path.stem, entry["benchmark"], entry["base_seed"])
            except (OSError, ValueError, KeyError, TypeError):
                self._quarantine(path)
                continue
            out.append((path.stem, entry["benchmark"], entry["base_seed"]))
        return out


def _decode_set(
    entry: Any, key: str, benchmark_id: str, base_seed: int
) -> tuple[dict[str, Any], ...]:
    """Validate one index entry against the recipe it is read for."""
    if not isinstance(entry, dict) or entry.get("format") != CACHE_FORMAT:
        raise CacheCorruption("set index: unsupported format")
    if (
        entry.get("key") != key
        or entry.get("benchmark") != benchmark_id
        or entry.get("base_seed") != base_seed
    ):
        raise CacheCorruption("set index: entry belongs to another recipe")
    fps = entry["workloads"]
    if not isinstance(fps, list) or not fps:
        raise CacheCorruption("set index: no workloads")
    for fp in fps:
        if not isinstance(fp, dict) or not _json_native(fp):
            raise CacheCorruption("set index: malformed fingerprint")
        if fp["benchmark"] != benchmark_id:
            raise CacheCorruption("set index: fingerprint of another benchmark")
    if len({fp["name"] for fp in fps}) != len(fps):
        raise CacheCorruption("set index: duplicate workload names")
    if entry.get("digest") != payload_digest(fps):
        raise CacheCorruption("set index: digest mismatch")
    return tuple(fps)


class ArtifactStore:
    """The engine's per-stage stores under one cache root.

    ``profiles`` is the replay-stage store — one
    :class:`~repro.machine.profiler.ExecutionProfile` per (workload,
    machine, build) — and is the *same* :class:`ResultCache` object the
    caller handed the engine, so their ``cache.stats`` keep working.
    ``captures`` lives under ``<root>/capture/`` — one
    :class:`~repro.machine.capture.TelemetryCapture` per workload,
    shared across every machine/build.  ``sets`` lives under
    ``<root>/sets/`` — the generate-stage :class:`SetIndex`, one entry
    per default workload set.  Both subdirectories are invisible to the
    profile store's ``*/*.json`` globs, so profile entry counts and
    :meth:`ResultCache.wipe` semantics are unchanged.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        profiles: ResultCache | None = None,
    ):
        if profiles is None:
            if root is None:
                raise ValueError("ArtifactStore: need a root or a ResultCache")
            profiles = ResultCache(root)
        self.profiles = profiles
        self.captures = CaptureStore(Path(profiles.root) / "capture")
        self.sets = SetIndex(Path(profiles.root) / "sets")

    @property
    def root(self) -> Path:
        return self.profiles.root

    def wipe(self) -> int:
        """Wipe every stage; returns total live entries removed."""
        return self.profiles.wipe() + self.captures.wipe() + self.sets.wipe()
