"""Counter-based pseudo-random generator for reproducible sampling.

The generator is a fixed 64-bit splitmix-style hash: draw ``i`` from a stream
keyed by ``k`` is the finalizer applied to ``k + (i + 1) * GOLDEN`` modulo
2**64.  Every draw is a pure function of (key, counter), so sequences are
O(1)-seekable, identical across platforms and processes, and never share
state.  Independent substreams are obtained with `derive_key`.

`unit_chunks` draws the leading uniforms of many substreams
``derive_key(key, i)`` at once, bit for bit those of the streams
themselves.  The substreams are independent, so their counters are packed
into one Python int, one 128-bit slot per stream, and each step of
`derive_key` and of the finalizer is one big-int operation over all the
slots: every slot holds a value below 2**64 before a multiply, so a
product never reaches the next slot.  Streams go in chunks of at most
`LANES`, so a call holds O(`LANES`) integers however many streams it
draws; below `LANE_MIN` streams the per-stream loop is the faster.
"""

from __future__ import annotations

import sys
from typing import Iterator, List, Optional

MASK64 = (1 << 64) - 1

# Weyl increment: 2**64 / golden ratio, forced odd.
GOLDEN = 0x9E3779B97F4A7C15

_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: Streams drawn at once, at most: the size of a chunk of lanes.
LANES = 512
#: Fewest streams drawn at once; fewer go through the per-stream loop.
LANE_MIN = 3

_SLOT = 16  # bytes per lane: a 64-bit value times a 64-bit constant fits
_ONES = int.from_bytes((1).to_bytes(_SLOT, "little") * LANES, "little")  # 1 in each slot
_MASKS = _ONES * MASK64
_GOLDENS = _ONES * GOLDEN
_RAMP = int.from_bytes(b"".join(i.to_bytes(_SLOT, "little") for i in range(LANES)),
                       "little")  # i in slot i


def mix64(z: int) -> int:
    """Finalizing hash of a 64-bit integer (splitmix64 finalizer)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def derive_key(key: int, index: int) -> int:
    """Derive the key of an independent substream.

    Used to split one seed into per-component seeds (product coordinates,
    bind stages, chain elements, repeated CLI draws).
    """
    return mix64(((key & MASK64) ^ mix64(index & MASK64)) + GOLDEN)


def _mix_lanes(z: int, mask: int) -> int:
    """`mix64` of every slot of z, whose slots hold values below 2**64."""
    z = ((z ^ (z >> 30)) & mask) * _MIX1 & mask
    z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
    return (z ^ (z >> 31)) & mask


def _columns(key: int, start: int, n: int, k: int) -> List[list]:
    """k lists: list c holds ``unit()`` draw c + 1 of the streams keyed by
    ``derive_key(key, i)`` for start <= i < start + n, n <= LANES."""
    if n < LANE_MIN:  # one stream at a time
        keys = [derive_key(key, i) for i in range(start, start + n)]
        return [[((mix64(s + c * GOLDEN) >> 11) + 0.5) * 2.0 ** -53 for s in keys]
                for c in range(1, k + 1)]
    slots = (1 << (8 * _SLOT * n)) - 1
    ones, mask, goldens = _ONES & slots, _MASKS & slots, _GOLDENS & slots
    z = _mix_lanes(((_RAMP & slots) + (start & MASK64) * ones) & mask, mask)  # mix64(i & MASK64)
    z = _mix_lanes((((key & MASK64) * ones ^ z) + goldens) & mask, mask)  # derive_key(key, i)
    columns = []
    for _ in range(k):
        z = (z + goldens) & mask  # the stream's next counter
        v = _mix_lanes(z, mask) >> 11 & mask
        # The slots' low words, as native 64-bit words: every other word from
        # the first (little-endian), or from the last backwards (big-endian).
        words = memoryview(v.to_bytes(_SLOT * n, sys.byteorder)).cast("Q")
        lanes = words[::2] if sys.byteorder == "little" else words[::-2]
        columns.append([(x + 0.5) * 2.0 ** -53 for x in lanes])  # `RandomStream.unit`
    return columns


def unit_chunks(key: int, start: int, k: int, n: Optional[int] = None) -> Iterator[List[list]]:
    """The first k ``unit()`` draws of the streams keyed by
    ``derive_key(key, i)`` for i = start, start + 1, ..., a chunk at a time:
    each chunk is k lists, list c holding draw c + 1 of each of its streams.

    n streams in chunks of `LANES`; without n, streams without end, in
    chunks that double from 1 up to `LANES`, so a short prefix stays cheap.
    """
    if n is not None:
        for lo in range(start, start + n, LANES):
            yield _columns(key, lo, min(LANES, start + n - lo), k)
        return
    size = 1
    while True:
        yield _columns(key, start, size, k)
        start += size
        size = min(2 * size, LANES)


def unit_block(key: int, n: int, k: int):
    """Yield ``RandomStream(derive_key(key, i)).unit()`` k times for each i < n.

    Values come stream by stream, in draw order, bit for bit those of the
    streams themselves; a chunk of `LANES` streams is held at a time.
    """
    for columns in unit_chunks(key, 0, k, n):
        for row in zip(*columns):
            yield from row


class RandomStream:
    """Sequential view over the counter-based generator for one key.

    The stream holds only (key, counter); two streams with the same key
    produce identical sequences.
    """

    def __init__(self, key: int):
        self.key = key & MASK64
        self.counter = 0

    def next_u64(self) -> int:
        value = mix64(self.key + (self.counter + 1) * GOLDEN)
        self.counter += 1
        return value

    def unit(self) -> float:
        """Uniform draw in the open interval (0, 1).

        Uses the top 53 bits shifted into (0, 1) so the result is never
        exactly 0 or 1 (safe under log).
        """
        return ((self.next_u64() >> 11) + 0.5) * 2.0 ** -53
