"""Counter-based pseudo-random generator for reproducible sampling.

The generator is a fixed 64-bit splitmix-style hash: draw ``i`` from a stream
keyed by ``k`` is the finalizer applied to ``k + (i + 1) * GOLDEN`` modulo
2**64.  Every draw is a pure function of (key, counter), so sequences are
O(1)-seekable, identical across platforms and processes, and never share
state.  Independent substreams are obtained with `derive_key`.

`unit_block` draws the leading uniforms of many substreams at once, the
hashes inlined: an iid block of n coordinates takes the first k `unit`
values of the streams keyed by ``derive_key(key, i)``, i < n, as it goes.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

# Weyl increment: 2**64 / golden ratio, forced odd.
GOLDEN = 0x9E3779B97F4A7C15

_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


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


def unit_block(key: int, n: int, k: int):
    """Yield ``RandomStream(derive_key(key, i)).unit()`` k times for each i < n.

    Values come stream by stream, in draw order, bit for bit those of the
    streams themselves; nothing is held beyond the current stream.
    """
    mask, mix1, mix2 = MASK64, _MIX1, _MIX2
    key &= mask
    steps = [c * GOLDEN for c in range(1, k + 1)]
    for i in range(n):
        # s = derive_key(key, i), then mix64(s + c * GOLDEN) for c = 1..k.
        z = ((i ^ (i >> 30)) * mix1) & mask
        z = ((z ^ (z >> 27)) * mix2) & mask
        z = ((key ^ z ^ (z >> 31)) + GOLDEN) & mask
        z = ((z ^ (z >> 30)) * mix1) & mask
        z = ((z ^ (z >> 27)) * mix2) & mask
        s = z ^ (z >> 31)
        for step in steps:
            z = (s + step) & mask
            z = ((z ^ (z >> 30)) * mix1) & mask
            z = ((z ^ (z >> 27)) * mix2) & mask
            yield (((z ^ (z >> 31)) >> 11) + 0.5) * 2.0 ** -53


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
