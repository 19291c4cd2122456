"""Mini ``557.xz_r``: an LZMA-style sliding-window compressor.

The SPEC benchmark decompresses a stored file to memory, compresses it,
and decompresses it again.  This substrate implements the same pipeline
with a real LZ77 match finder (hash chains over a sliding-window
dictionary, greedy parse with lazy-match heuristic) and an adaptive
binary range coder — the two phases whose balance the paper found to be
workload-sensitive (its "memoization" discovery: inputs shorter than
the dictionary degenerate into dictionary lookups).

Workload payload: :class:`XzInput` with the raw content and compressor
parameters (dictionary size, minimum/maximum match lengths).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.registry import register_benchmark
from ..core.workload import Workload
from ..machine.telemetry import Probe
from .base import BenchmarkError

__all__ = ["XzInput", "XzBenchmark", "compress", "decompress"]

_MIN_MATCH = 3
_HASH_BITS = 14
_WINDOW_REGION = 0x0100_0000
_HASH_REGION = 0x0200_0000
_CHAIN_REGION = 0x0300_0000
_PROB_REGION = 0x0400_0000


@dataclass(frozen=True)
class XzInput:
    """One xz workload: content plus compressor parameters.

    ``stored`` optionally carries the pre-compressed form of ``content``
    (the real benchmark's input file *is* compressed); when absent the
    benchmark compresses on the fly to create it.
    """

    content: bytes
    dict_size: int = 1 << 13
    max_match: int = 64
    max_chain: int = 32
    lazy: bool = True
    stored: bytes | None = None

    def __post_init__(self) -> None:
        if not self.content:
            raise ValueError("XzInput: content must be non-empty")
        if self.dict_size < 256 or self.dict_size & (self.dict_size - 1):
            raise ValueError("XzInput: dict_size must be a power of two >= 256")
        if self.max_match < _MIN_MATCH:
            raise ValueError(f"XzInput: max_match must be >= {_MIN_MATCH}")
        if self.max_chain < 1:
            raise ValueError("XzInput: max_chain must be >= 1")


#: Range-coder normalization threshold: renormalize below 2**24.
_TOP = 1 << 24

#: ``[True] * k`` for the match-extension branch runs (k <= 16).
_TRUE_RUNS = tuple([True] * k for k in range(17))

#: The eight bits of every byte value, most significant first.
_BYTE_BITS = tuple(tuple(bool((b >> i) & 1) for i in range(7, -1, -1)) for b in range(256))

# The adaptive binary range coder (the LZMA entropy-coding stage) keeps
# its state in locals of :func:`compress` / :func:`decompress`: its
# per-bit step runs inline in their loops.  A coded token is a sequence
# of fields, each a run of bits coded most significant first, the i-th
# adapting ``probs[base + i]``: the encoder's fields are ``(probs, base,
# bits)``, the decoder's ``(probs, base, nbits)``.


def _shift_low(low: int, cache: int, cache_size: int, out: bytearray) -> tuple[int, int, int]:
    """Emit the encoder's top byte, returning the new (low, cache, cache_size).

    The canonical LZMA carry scheme: emitted bytes are buffered through
    ``cache``/``cache_size`` so that a carry out of the 32-bit ``low``
    register can ripple into bytes already produced.
    """
    if low < 0xFF000000 or low >= 0x1_0000_0000:
        carry = low >> 32
        temp = cache
        while True:
            out.append((temp + carry) & 0xFF)
            temp = 0xFF
            cache_size -= 1
            if cache_size == 0:
                break
        cache = (low >> 24) & 0xFF
    return (low << 8) & 0xFFFFFFFF, cache, cache_size + 1


def _new_probs(n: int) -> list[int]:
    return [1024] * n


def compress(
    data: bytes,
    params: XzInput,
    probe: Probe | None = None,
) -> bytes:
    """LZ77 + range-coder compression of ``data``.

    The token stream is: flag bit (0 = literal, 1 = match), literal
    bytes coded bit-by-bit with per-position-context probabilities,
    matches coded as (length, distance) fixed-width numbers under
    adaptive probabilities.
    """
    n = len(data)
    dict_mask = params.dict_size - 1
    hash_mask = (1 << _HASH_BITS) - 1
    head: list[int] = [-1] * (1 << _HASH_BITS)
    chain: list[int] = [-1] * params.dict_size

    low = 0
    range_ = 0xFFFFFFFF
    cache = 0
    cache_size = 1
    out = bytearray()
    flag_probs = _new_probs(2)
    lit_probs = _new_probs(256 * 8)
    len_probs = _new_probs(16)
    dist_probs = _new_probs(32)

    max_match = params.max_match
    min_pos_limit = params.dict_size

    def _hash3(pos: int) -> int:
        return ((data[pos] << 10) ^ (data[pos + 1] << 5) ^ data[pos + 2]) & hash_mask

    pos = 0
    match_probes: list[bool] = []
    bit_branches: list[bool] = []
    window_reads: list[int] = []
    n_matches = 0
    n_literals = 0
    total_match_len = 0

    def _find_match(at: int) -> tuple[int, int]:
        """Hash-chain search for the longest match starting at ``at``."""
        if at + _MIN_MATCH > n:
            return 0, 0
        best_len = 0
        best_dist = 0
        h = _hash3(at)
        window_reads.append(_HASH_REGION + h * 4)
        cand = head[h]
        tries = params.max_chain
        lo_limit = at - min_pos_limit
        limit = min(max_match, n - at)
        while cand >= 0 and cand >= lo_limit and tries > 0:
            tries -= 1
            length = 0
            cpos = cand
            # data-dependent inner match-extension loop
            while length < limit and data[cpos + length] == data[at + length]:
                length += 1
            # the extension loop is a data-dependent branch: `length`
            # taken iterations followed by one not-taken exit
            match_probes.extend(_TRUE_RUNS[length if length < 16 else 16])
            match_probes.append(False)
            match_probes.append(length >= _MIN_MATCH)
            window_reads.append(_WINDOW_REGION + (cand & dict_mask) * 8)
            if length > best_len:
                best_len = length
                best_dist = at - cand
                if length >= max_match:
                    break
            window_reads.append(_CHAIN_REGION + (cand & dict_mask) * 16)
            cand = chain[cand & dict_mask]
        return best_len, best_dist

    deferred: tuple[int, int] | None = None  # lazy: match found at pos
    while pos < n:
        if deferred is not None:
            best_len, best_dist = deferred
            deferred = None
        else:
            best_len, best_dist = _find_match(pos)

        # lazy matching: before committing to a match, peek at pos + 1;
        # if a strictly longer match starts there, emit a literal now
        # and keep the better match for the next iteration
        if params.lazy and _MIN_MATCH <= best_len < max_match and pos + 1 < n:
            next_len, next_dist = _find_match(pos + 1)
            match_probes.append(next_len > best_len)
            if next_len > best_len:
                deferred = (next_len, next_dist)
                best_len = 0  # force the literal path for this byte

        if best_len >= _MIN_MATCH:
            fields = (
                (flag_probs, 0, (True,)),
                # fixed-width numbers: length 8 bits, distance 16 bits
                (len_probs, 0, _BYTE_BITS[best_len & 0xFF]),
                (dist_probs, 0, _BYTE_BITS[(best_dist >> 8) & 0xFF] + _BYTE_BITS[best_dist & 0xFF]),
            )
            n_matches += 1
            total_match_len += best_len
            end = min(pos + best_len, n - 2)
            p = pos
            while p < end:
                h = _hash3(p)
                chain[p & dict_mask] = head[h]
                head[h] = p
                p += 1
            pos += best_len
        else:
            byte = data[pos]
            # literal context: top 3 bits of the previous byte (known to
            # the decoder as well, keeping the adaptive models in sync)
            ctx = (data[pos - 1] >> 5) if pos > 0 else 0
            bits = _BYTE_BITS[byte]
            fields = ((flag_probs, 0, (False,)), (lit_probs, ctx * 8, bits))
            # the range coder branches on the bit value itself — a
            # data-dependent branch that is unpredictable exactly when
            # the content is incompressible
            bit_branches.extend(bits)
            n_literals += 1
            if pos + _MIN_MATCH <= n:
                h = _hash3(pos)
                chain[pos & dict_mask] = head[h]
                head[h] = pos
            pos += 1

        for probs, base, field_bits in fields:
            for idx, bit in enumerate(field_bits, base):
                prob = probs[idx]
                bound = (range_ >> 11) * prob
                if bit:
                    low += bound
                    range_ -= bound
                    probs[idx] = prob - (prob >> 5)
                else:
                    range_ = bound
                    probs[idx] = prob + ((2048 - prob) >> 5)
                while range_ < _TOP:
                    range_ <<= 8
                    low, cache, cache_size = _shift_low(low, cache, cache_size, out)

        if probe is not None and len(window_reads) >= 8192:
            probe.accesses(window_reads)
            probe.branches(match_probes, site=1)
            probe.branches(bit_branches, site=3)
            window_reads.clear()
            match_probes.clear()
            bit_branches.clear()

    if probe is not None:
        probe.accesses(window_reads)
        probe.branches(match_probes, site=1)
        probe.branches(bit_branches, site=3)
        probe.count("matches", n_matches)
        probe.count("literals", n_literals)
        probe.count("match_bytes", total_match_len)
        # entropy-coder work: ~9 ops per literal bit, ~24 per match token
        probe.ops(n_literals * 9 * 8 + n_matches * 24 * 3)
        probe.accesses(
            _PROB_REGION
            + (
                np.arange(0, n_literals * 8 + n_matches * 24, 5, dtype=np.int64)
                * 31
                % 32768
            )
            * 8
        )

    for _ in range(5):
        low, cache, cache_size = _shift_low(low, cache, cache_size, out)
    return bytes(out)


def decompress(blob: bytes, expected_size: int, probe: Probe | None = None) -> bytes:
    """Inverse of :func:`compress`."""
    n_blob = len(blob)
    pos = 5
    range_ = 0xFFFFFFFF
    code = 0
    for i in range(5):
        code = (code << 8) | (blob[i] if i < n_blob else 0)
    code &= 0xFFFFFFFF
    flag_probs = _new_probs(2)
    lit_probs = _new_probs(256 * 8)
    len_probs = _new_probs(16)
    dist_probs = _new_probs(32)

    out = bytearray()
    copy_branches: list[bool] = []
    bit_branches: list[bool] = []
    reads: list[int] = []
    while len(out) < expected_size:
        # one token: the flag field, then a literal byte or a
        # (length, distance) pair
        values: list[int] = []
        field: tuple | None = (flag_probs, 0, 1)
        while field is not None:
            probs, base, nbits = field
            value = 0
            for idx in range(base, base + nbits):
                prob = probs[idx]
                bound = (range_ >> 11) * prob
                if code < bound:
                    value <<= 1
                    range_ = bound
                    probs[idx] = prob + ((2048 - prob) >> 5)
                else:
                    value = (value << 1) | 1
                    code -= bound
                    range_ -= bound
                    probs[idx] = prob - (prob >> 5)
                while range_ < _TOP:
                    nxt = blob[pos] if pos < n_blob else 0
                    pos += 1
                    code = ((code << 8) | nxt) & 0xFFFFFFFF
                    range_ <<= 8
            values.append(value)
            if len(values) == 1 and value:
                field = (len_probs, 0, 8)
            elif len(values) == 1:
                # literal context mirrors the encoder: top 3 bits of the
                # previous (already decoded) byte
                ctx = (out[-1] >> 5) if out else 0
                field = (lit_probs, ctx * 8, 8)
            elif len(values) == 2 and values[0]:
                field = (dist_probs, 0, 16)
            else:
                field = None
        if values[0]:
            _, length, dist = values
            if dist <= 0 or dist > len(out) or length < _MIN_MATCH:
                raise BenchmarkError("xz: corrupt stream (bad match)")
            start = len(out) - dist
            for i in range(length):
                out.append(out[start + i])
                reads.append(_WINDOW_REGION + ((start + i) & 0xFFFF))
            copy_branches.append(True)
        else:
            byte = values[1]
            bit_branches.extend(_BYTE_BITS[byte])
            out.append(byte)
            copy_branches.append(False)
        if probe is not None and len(reads) >= 8192:
            probe.accesses(reads)
            probe.branches(bit_branches, site=4)
            reads.clear()
            bit_branches.clear()
    if probe is not None:
        probe.accesses(reads)
        probe.branches(copy_branches, site=2)
        probe.branches(bit_branches, site=4)
        probe.ops(len(out) * 6)
    return bytes(out)


@register_benchmark
class XzBenchmark:
    """The ``557.xz_r`` substrate: decompress -> compress -> decompress."""

    name = "557.xz_r"
    suite = "int"

    def run(self, workload: Workload, probe: Probe) -> dict:
        payload = workload.payload
        if not isinstance(payload, XzInput):
            raise BenchmarkError(f"xz: bad payload type {type(payload).__name__}")

        # Stage 1: the stored input is itself compressed; decode it.
        stored = payload.stored
        if stored is None:
            stored = compress(payload.content, payload)
        with probe.method("lzma_decode", code_bytes=3072):
            content = decompress(stored, len(payload.content), probe)
        if content != payload.content:
            raise BenchmarkError("xz: stage-1 round trip failed")

        # Stage 2: compress the decoded content.
        with probe.method("lzma_encode", code_bytes=4096):
            blob = compress(content, payload, probe)

        # Stage 3: decompress again and check.
        with probe.method("lzma_decode_check", code_bytes=3072):
            again = decompress(blob, len(content), probe)

        with probe.method("crc_check", code_bytes=512):
            crc = 0
            for i in range(0, len(again), 64):
                chunk = again[i : i + 64]
                crc = (crc * 31 + sum(chunk)) & 0xFFFFFFFF
            probe.ops(len(again) // 8)

        return {
            "ok": again == content,
            "original_size": len(content),
            "compressed_size": len(blob),
            "ratio": len(blob) / len(content),
            "crc": crc,
        }

    def verify(self, workload: Workload, output: dict) -> bool:
        return bool(output["ok"]) and output["compressed_size"] > 0
