"""Counter-based pseudo-random generator for reproducible sampling.

The generator is a fixed 64-bit splitmix-style hash: draw ``i`` from a stream
keyed by ``k`` is the finalizer applied to ``k + (i + 1) * GOLDEN`` modulo
2**64.  Every draw is a pure function of (key, counter), so sequences are
O(1)-seekable, identical across platforms and processes, and never share
state (the one thing kept, a memo of `_indexes`, is a pure function of
its arguments).  Independent substreams are obtained with `derive_key`.  A
uniform is the top 53 bits of a draw, its *word* w, as the midpoint
``(w + 0.5) * 2**-53``; the all-ones word, whose midpoint rounds to 1.0,
gives ``1 - 2**-53`` instead.

`word_chunks` draws the leading words of many substreams
``derive_key(key, i)`` at once, bit for bit those of the streams
themselves.  The substreams are independent, so their counters are packed
into one Python int, one 128-bit slot per stream, and each step of
`derive_key` and of the finalizer is one big-int operation over all the
slots: every slot holds a value below 2**64 before a multiply, so a
product never reaches the next slot.  The key-independent half of
`derive_key`, ``mix64(i)`` over a chunk's indexes, is kept for the
`INDEX_CACHE` chunks last drawn, by start and width.  It saves one of the
four big-int mixes of a Normal chunk when the same chunks come back, as
when a process draws blocks of at most ``INDEX_CACHE * LANES`` streams,
or short chain prefixes, again and again; a chunk not kept mixes its own
index lanes, as it would with no memo.  A column of words is read off the
packed int in C (`memoryview.tolist`), and a family turns it into draws in
one comprehension (`catalog.Lanes`).  Streams go in chunks of at most
`LANES`, so a call holds O(`LANES`) integers however many streams it
draws; below `LANE_MIN` streams the per-stream loop is the faster.
"""

from __future__ import annotations

import functools
import sys
from typing import Iterator, List, Optional, Tuple

MASK64 = (1 << 64) - 1

# Weyl increment: 2**64 / golden ratio, forced odd.
GOLDEN = 0x9E3779B97F4A7C15

_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: Streams drawn at once, at most: the size of a chunk of lanes.
LANES = 512
#: Fewest streams drawn at once; fewer go through the per-stream loop.
LANE_MIN = 3
#: Chunks whose index lanes are kept, at most: at most 8 KB each.
INDEX_CACHE = 32

#: The all-ones word, and the uniform it gives (the largest float below 1).
TOP = (1 << 53) - 1
TOP_UNIT = 1.0 - 2.0 ** -53

_SLOT = 16  # bytes per lane: a 64-bit value times a 64-bit constant fits
_ONES = int.from_bytes((1).to_bytes(_SLOT, "little") * LANES, "little")  # 1 in each slot
_MASKS = _ONES * MASK64
_GOLDENS = _ONES * GOLDEN
_TOPS = _ONES << 53  # the bit an all-ones word carries into when 1 is added
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


@functools.lru_cache(maxsize=INDEX_CACHE)
def _indexes(start: int, n: int) -> int:
    """``mix64(i & MASK64)`` in slot i - start, for the n indexes from start
    on, n <= LANES."""
    slots = (1 << (8 * _SLOT * n)) - 1
    mask = _MASKS & slots
    return _mix_lanes(((_RAMP & slots) + (start & MASK64) * (_ONES & slots)) & mask, mask)


def _unit_column(words: list) -> list:
    """The uniforms of a column of words (`RandomStream.unit`)."""
    return [(w + 0.5) * 2.0 ** -53 if w != TOP else TOP_UNIT for w in words]


def _columns(key: int, start: int, n: int, k: int) -> Tuple[List[list], bool]:
    """k lists: list c holds the word of draw c + 1 of the streams keyed by
    ``derive_key(key, i)`` for start <= i < start + n, n <= LANES, and True;
    or, when a word is `TOP`, the draws' uniforms and False."""
    if n < LANE_MIN:  # one stream at a time
        keys = [derive_key(key, i) for i in range(start, start + n)]
        columns = [[mix64(s + c * GOLDEN) >> 11 for s in keys] for c in range(1, k + 1)]
        clean = not any(TOP in column for column in columns)
    else:
        ones, mask, goldens = _ONES, _MASKS, _GOLDENS
        if n < LANES:  # the leading n slots
            slots = (1 << (8 * _SLOT * n)) - 1
            ones, mask, goldens = ones & slots, mask & slots, goldens & slots
        z = _mix_lanes((((key & MASK64) * ones ^ _indexes(start, n)) + goldens) & mask,
                       mask)  # derive_key(key, i)
        top = 0
        values = []
        for _ in range(k):
            z = (z + goldens) & mask  # the stream's next counter
            v = _mix_lanes(z, mask) >> 11 & mask
            top |= v + ones  # a slot reaches 2**53 only from TOP
            values.append(v)
        # Two columns at a time, in the low and the high halves of the slots,
        # read as native 64-bit words: slot i's halves are words 2i and
        # 2i + 1 (little-endian), or 2n - 1 - 2i and 2n - 2 - 2i (big-endian).
        little = sys.byteorder == "little"
        columns = []
        for c in range(0, k, 2):
            high = values[c + 1] << 64 if c + 1 < k else 0
            words = memoryview((values[c] | high).to_bytes(_SLOT * n, sys.byteorder)).cast("Q")
            columns.append((words[::2] if little else words[::-2]).tolist())
            if c + 1 < k:
                columns.append((words[1::2] if little else words[-2::-2]).tolist())
        clean = not top & _TOPS
    return (columns, True) if clean else ([_unit_column(c) for c in columns], False)


def word_chunks(key: int, start: int, k: int,
                n: Optional[int] = None) -> Iterator[Tuple[List[list], bool]]:
    """The words of the first k draws of the streams keyed by
    ``derive_key(key, i)`` for i = start, start + 1, ..., a chunk at a time:
    each chunk is k lists, list c holding the word of draw c + 1 of each of
    its streams, and True.  A chunk that holds the all-ones word `TOP`
    (chance about 2**-44 per column of a full chunk) comes as uniforms
    (`RandomStream.unit`), and False.

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
        """Uniform draw in the open interval (0, 1), safe under log.

        The top 53 bits w of the next draw give the midpoint
        ``(w + 0.5) * 2**-53``, which is never 0; the all-ones w, whose
        midpoint rounds to 1.0, gives the largest float below 1.
        """
        self.counter += 1  # `next_u64`, inlined
        word = mix64(self.key + self.counter * GOLDEN) >> 11
        return (word + 0.5) * 2.0 ** -53 if word != TOP else TOP_UNIT
