"""Draws of many substreams at once keep the bits of the per-stream draws.

iid blocks, the factors of a product and the steps of a chain over a family
kernel take the leading uniforms of many substreams ``derive_key(seed, i)``
at once (`rng.word_chunks`).  The oracle throughout is the per-stream path:
``RandomStream(derive_key(key, i)).unit()``, a factor's own
``_sample_normalized``, and a chain step that builds the kernel's measure and
draws from it.
"""

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import measurekit as mk
from measurekit import kernels, rng
from measurekit.combinators import ForProduct, Power
from measurekit.rng import LANE_MIN, LANES, RandomStream, derive_key

KEYS = (0, 2**64 - 1, 2**64 + 3, -9)


def _stream_units(key, start, n, k):
    """The per-stream oracle, as k columns."""
    columns = [[] for _ in range(k)]
    for i in range(start, start + n):
        stream = RandomStream(derive_key(key, i))
        for column in columns:
            column.append(stream.unit())
    return columns


def _unit_chunks(key, start, k, n=None):
    """`rng.word_chunks` as uniforms: list c of a chunk holds ``unit()``
    draw c + 1 of each of its streams."""
    for chunk, words in rng.word_chunks(key, start, k, n):
        yield [rng._unit_column(c) for c in chunk] if words else chunk


def _lane_units(key, start, n, k):
    columns = [[] for _ in range(k)]
    for chunk in _unit_chunks(key, start, k, n):
        assert len(chunk) == k and len(chunk[0]) <= LANES
        for column, part in zip(columns, chunk):
            column.extend(part)
    return columns


def _bits(values):
    return [(type(v), repr(v)) for v in values]


class TestLaneUniforms:
    @pytest.mark.parametrize("n", sorted({0, 1, LANE_MIN - 1, LANE_MIN, LANE_MIN + 1,
                                          LANES - 1, LANES, LANES + 1, 3 * LANES + 5}))
    def test_equal_the_substreams_uniforms(self, n):
        for key in KEYS:
            for start in (0, 1, 7):
                for k in (1, 2, 3):
                    assert _lane_units(key, start, n, k) == _stream_units(key, start, n, k), \
                        (key, start, k)

    def test_an_open_ended_run_equals_the_substreams(self):
        # Chains take chunks that grow from one stream; any prefix of the
        # run is the substreams' uniforms.
        n = 2 * LANES + 3
        for key in KEYS:
            got = [[], []]
            for chunk in _unit_chunks(key, 1, 2):
                for column, part in zip(got, chunk):
                    column.extend(part)
                if len(got[0]) >= n:
                    break
            assert [c[:n] for c in got] == _stream_units(key, 1, n, 2)

    def test_counters_wrap_as_derive_key_does(self):
        start = 2**64 - 2
        assert _lane_units(5, start, LANE_MIN + 2, 2) == _stream_units(5, start, LANE_MIN + 2, 2)

    @pytest.mark.parametrize("start", [2**64 - 2, 2**64 - LANES + 1, 2**65 - 7, -3])
    def test_full_chunks_wrap_as_derive_key_does(self, start):
        rng._indexes.cache_clear()
        for _ in range(2):  # the index lanes cold, then kept
            assert _lane_units(5, start, LANES + 3, 1) == _stream_units(5, start, LANES + 3, 1)

    @pytest.mark.parametrize("key", KEYS)
    def test_equal_the_substreams_with_the_index_lanes_cold_and_kept(self, key):
        for start in (0, 1, LANES, 5 * LANES + 9):
            rng._indexes.cache_clear()
            cold = _lane_units(key, start, 2 * LANES + 1, 2)
            assert rng._indexes.cache_info().hits == 0
            assert _lane_units(key, start, 2 * LANES + 1, 2) == cold == \
                _stream_units(key, start, 2 * LANES + 1, 2)
            assert rng._indexes.cache_info().hits == 2  # the two full chunks

    @pytest.mark.parametrize("n", [LANE_MIN, 4, LANES // 2, LANES - 1])
    def test_a_short_chunk_and_a_full_one_keep_their_own_index_lanes(self, n):
        for start in (0, 77):
            rng._indexes.cache_clear()
            full = _lane_units(3, start, LANES, 2)
            for _ in range(2):  # the short chunk's lanes cold, then kept
                assert _lane_units(3, start, n, 2) == [c[:n] for c in full] == \
                    _stream_units(3, start, n, 2)
            assert _lane_units(3, start, LANES, 2) == full
            info = rng._indexes.cache_info()
            assert (info.currsize, info.hits) == (2, 2)

    def test_chain_chunk_starts_off_the_chunk_grid(self):
        # An open-ended run starts its chunks at 1, 2, 4, ..., 256, then 512.
        rng._indexes.cache_clear()
        for _ in range(2):
            size = 1
            while size <= LANES // 2:
                assert _lane_units(11, size, size, 2) == _stream_units(11, size, size, 2), size
                size *= 2

    def test_the_index_lanes_stay_within_their_bound(self):
        rng._indexes.cache_clear()
        n = (rng.INDEX_CACHE + 3) * LANES
        assert _lane_units(9, 0, n, 1) == _stream_units(9, 0, n, 1)
        info = rng._indexes.cache_info()
        assert (info.currsize, info.maxsize) == (rng.INDEX_CACHE, rng.INDEX_CACHE)
        # The latest chunks are the ones kept.
        assert _lane_units(9, n - LANES, LANES, 1) == _stream_units(9, n - LANES, LANES, 1)
        assert rng._indexes.cache_info().hits == info.hits + 1
        assert _lane_units(9, 0, LANES, 1) == _stream_units(9, 0, LANES, 1)
        assert rng._indexes.cache_info().misses == info.misses + 1


# ---------------------------------------------------------------------------
# Each form of a family's draw
# ---------------------------------------------------------------------------

# The draws from a stream's leading uniforms, written out.
DRAWS = {
    "Normal": lambda u1, u2, mu, sigma: mu + sigma * (math.sqrt(-2.0 * math.log(u1))
                                                       * math.cos(2.0 * math.pi * u2)),
    "Exponential": lambda u, rate: -math.log(u) / rate,
    "Bernoulli": lambda u, p: 1 if u < p else 0,
    "Uniform01": lambda u: u,
}
EXTREMES = [mk.Normal(0.3, 1e-300), mk.Normal(-0.0, 1e300), mk.Normal(-1e300, 1.7),
            mk.Exponential(1e-300), mk.Exponential(1e300), mk.Bernoulli(0.0), mk.Bernoulli(1.0),
            mk.Bernoulli(0.3), mk.Uniform01()]


@pytest.mark.parametrize("leaf", EXTREMES, ids=repr)
def test_every_form_of_a_lane_draw_gives_the_written_draw(leaf):
    family = leaf._family
    lanes, args, draw = family.lanes, family.args(leaf), DRAWS[type(leaf).__name__]
    n = LANES + LANE_MIN
    for seed in (0, 2**64 + 3):
        units = _stream_units(seed, 0, n, lanes.units)
        want = _bits([draw(*u, *args) for u in zip(*units)])
        assert _bits(leaf._sample_normalized(derive_key(seed, i)) for i in range(n)) == want
        assert _bits(lanes.block(seed, n, args)) == want
        placed, walked = [], []
        for zs in lanes.noise(seed, 0, n):
            placed.extend(lanes.placed(zs, itertools.repeat(args)))
            walked.extend(lanes.walk(zs, lambda state: args, None))
        assert _bits(placed) == _bits(walked) == want
        # A chunk that holds the all-ones word takes uniforms.
        assert _bits(lanes.placed(lanes._unit_noise(*units), itertools.repeat(args))) == want


# ---------------------------------------------------------------------------
# The all-ones word
# ---------------------------------------------------------------------------


def _inverse_xorshift(z, shift):
    out = z
    for _ in range(64 // shift + 1):
        out = z ^ (out >> shift)
    return out & rng.MASK64


def _inverse_mix64(z):
    z = _inverse_xorshift(z, 31)
    z = z * pow(0x94D049BB133111EB, -1, 2**64) & rng.MASK64
    z = _inverse_xorshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 2**64) & rng.MASK64
    return _inverse_xorshift(z, 30)


# The key whose first draw has all 53 top bits set, and a seed whose
# substream 5 has that key.
TOP_KEY = (_inverse_mix64(rng.TOP << 11) - rng.GOLDEN) & rng.MASK64
TOP_SEED = ((_inverse_mix64(TOP_KEY) - rng.GOLDEN) & rng.MASK64) ^ rng.mix64(5)
TOP_UNIT = 1.0 - 2.0**-53


class TestAllOnesWord:
    def test_the_seeds_reach_the_word(self):
        for z in (0, 1, 2**63 + 5, rng.MASK64):
            assert _inverse_mix64(rng.mix64(z)) == z
        assert RandomStream(TOP_KEY).next_u64() >> 11 == rng.TOP
        assert derive_key(TOP_SEED, 5) == TOP_KEY

    def test_a_stream_gives_the_largest_float_below_one(self):
        stream = RandomStream(TOP_KEY)
        assert stream.unit() == TOP_UNIT < 1.0
        assert 0.0 < stream.unit() < 1.0
        assert mk.sample(mk.Exponential(1.0), TOP_KEY) == -math.log(TOP_UNIT) > 0.0
        assert mk.sample(mk.Bernoulli(1.0), TOP_KEY) == 1
        assert mk.sample(mk.Uniform01(), TOP_KEY) == TOP_UNIT
        assert mk.sample(mk.Normal(), TOP_KEY) != 0.0

    @pytest.mark.parametrize("start,n", [(0, 8), (0, LANES), (4, 4), (4, LANE_MIN - 1), (5, 1)])
    def test_lane_5_gives_the_largest_float_below_one(self, start, n):
        for k in (1, 2):
            lanes = _lane_units(TOP_SEED, start, n, k)
            assert lanes == _stream_units(TOP_SEED, start, n, k)
            assert lanes[0][5 - start] == TOP_UNIT

    @pytest.mark.parametrize("leaf", [mk.Normal(-0.0, 2.0), mk.Exponential(1.0), mk.Bernoulli(1.0),
                                      mk.Uniform01()])
    def test_blocks_and_products_draw_it_as_each_stream(self, leaf):
        for n in (8, LANES + 2):
            block = mk.sample(mk.power(leaf, (n,)), TOP_SEED)
            assert _bits(block) == _bits(_reference(mk.power(leaf, (n,)), TOP_SEED))
            assert block[5] == mk.sample(leaf, TOP_KEY)
            factors = mk.Product((leaf,) * n)
            assert _bits(mk.sample(factors, TOP_SEED)) == _bits(block)

    def test_a_chain_draws_it_as_each_step(self):
        for name in ("Normal", "Exponential", "Uniform01", "Bernoulli"):
            walk = mk.chain(KERNELS[name], INITIAL[name])
            got = tuple(itertools.islice(mk.sample_chain(walk, TOP_SEED), 40))
            assert _bits(got) == _bits(itertools.islice(_per_step(walk, TOP_SEED), 40)), name


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------

KERNELS = {
    "Normal": kernels.make_kernel("Normal", mu="identity", sigma="const:0.3"),
    "Exponential": kernels.make_kernel("Exponential", rate="affine:0.1:0.5"),
    "Uniform01": kernels.make_kernel("Uniform01"),
    "Bernoulli": kernels.make_kernel("Bernoulli", p="affine:0.5:0.2"),
    "Poisson": kernels.make_kernel("Poisson", rate="affine:0.5:1.0"),
    "NegativeBinomial": kernels.make_kernel("NegativeBinomial", r="affine:0.1:1.0", p="const:0.4"),
    "opaque": mk.Kernel(fn=lambda x: mk.Normal(0.5 * x, 1.0)),
}
INITIAL = {"Normal": mk.Normal(0.0, 1.0), "Exponential": mk.Exponential(1.0),
           "Uniform01": mk.Uniform01(), "Bernoulli": mk.Bernoulli(0.5), "Poisson": mk.Poisson(2.0),
           "NegativeBinomial": mk.Poisson(2.0), "opaque": mk.Normal()}


def _per_step(walk, seed):
    """The chain draw one node per step: element i from kernel(x_{i-1})'s
    own draw on the stream derive_key(seed, i)."""
    state = walk.initial._sample(derive_key(seed, 0))
    yield state
    for i in itertools.count(1):
        state = walk.step(state)._sample(derive_key(seed, i))
        yield state


def _lazily(f, *args):
    yield f(*args)


def _outcome(elements, n):
    """The first n elements, or the elements before the error and the error."""
    got = []
    try:
        for x in itertools.islice(elements, n):
            got.append(x)
    except Exception as exc:  # the error must match too
        return _bits(got), type(exc), str(exc)
    return _bits(got), None, None


class TestChainDraws:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_prefixes_equal_the_per_step_draws(self, name):
        walk = mk.chain(KERNELS[name], INITIAL[name])
        for seed in (0, 3, 2**64 + 1):
            long = tuple(itertools.islice(mk.sample_chain(walk, seed), 2000))
            assert _bits(long) == _bits(itertools.islice(_per_step(walk, seed), 2000))
            for n in (1, 2, 17):
                short = tuple(itertools.islice(mk.sample_chain(walk, seed), n))
                assert short == long[:n]

    def test_a_sample_of_the_chain_measure_draws_the_same(self):
        walk = mk.chain(KERNELS["Normal"], INITIAL["Normal"])
        draw = mk.sample(walk, 9)
        assert tuple(itertools.islice(draw, 600)) == tuple(itertools.islice(_per_step(walk, 9), 600))

    def test_sigma_leaving_its_range(self):
        walk = mk.chain(kernels.make_kernel("Normal", mu="identity", sigma="affine:1.0:0.0"),
                        mk.Normal())
        got = _outcome(mk.sample_chain(walk, 3), 2000)
        assert got == _outcome(_per_step(walk, 3), 2000)
        assert got == (_bits([-0.6499634472500344]), ValueError,
                       "Normal requires finite sigma > 0, got -0.6499634472500344")
        # Later elements too, inside a chunk of many streams.
        for seed in (1, 2, 5):
            assert _outcome(mk.sample_chain(walk, seed), 2000) == _outcome(_per_step(walk, seed), 2000)
        assert len(_outcome(mk.sample_chain(walk, 2), 2000)[0]) == 14

    def test_p_leaving_its_range(self):
        for spec, initial in (("affine:0.9:0.3", mk.Bernoulli(0.5)), ("affine:2.0:-0.5", mk.Uniform01())):
            walk = mk.chain(kernels.make_kernel("Bernoulli", p=spec), initial)
            for seed in range(6):
                got = _outcome(mk.sample_chain(walk, seed), 50)
                assert got == _outcome(_per_step(walk, seed), 50)
                assert got[1] is ValueError and got[2].startswith("Bernoulli requires 0 <= p <= 1, got ")

    def test_count_parameters_leaving_their_range(self):
        for spec, want in ((("Poisson", {"rate": "affine:-1.0:2.5"}), "Poisson requires finite rate > 0"),
                           (("NegativeBinomial", {"r": "const:2.0", "p": "affine:0.3:0.1"}),
                            "NegativeBinomial requires 0 < p < 1")):
            step = kernels.make_kernel(spec[0], **spec[1])
            walk = mk.chain(step, mk.Poisson(2.0))
            for seed in range(6):
                got = _outcome(mk.sample_chain(walk, seed), 50)
                assert got == _outcome(_per_step(walk, seed), 50)
                assert got[1] is ValueError and got[2].startswith(want)
            pair = mk.bind(mk.Poisson(3.0), step)
            for seed in range(20):
                assert _outcome(_lazily(mk.sample, pair, seed), 1) == \
                    _outcome(_lazily(_reference, pair, seed), 1)

    def test_a_map_that_raises(self):
        walk = mk.chain(kernels.make_kernel("Normal", mu="identity", sigma="sqrt"), mk.Normal())
        for seed in range(4):
            got = _outcome(mk.sample_chain(walk, seed), 100)
            assert got == _outcome(_per_step(walk, seed), 100)
            assert got[1] is ValueError


class TestChainLogdensityPoint:
    def test_a_scalar_point_is_a_shape_error(self):
        walk = mk.chain(KERNELS["Normal"], INITIAL["Normal"])
        for point in (0.5, 3, None):
            with pytest.raises(mk.ShapeError, match=f"Chain expects a nonempty finite prefix, got {point!r}"):
                kernels.chain_logdensity(walk, point)
            with pytest.raises(mk.ShapeError, match="Chain expects a nonempty finite prefix"):
                mk.log_density(walk, point)

    def test_sequences_still_convert(self):
        walk = mk.chain(KERNELS["Normal"], INITIAL["Normal"])
        xs = [0.1, 0.2, 0.4]
        want = kernels.chain_logdensity(walk, tuple(xs)).value
        assert kernels.chain_logdensity(walk, xs).value == want
        assert kernels.chain_logdensity(walk, iter(xs)).value == want


# ---------------------------------------------------------------------------
# Products and the generated law
# ---------------------------------------------------------------------------


def _reference(m, seed):
    """m's draw at seed through the per-stream path of every node."""
    if isinstance(m, Power):
        flat = [_reference(m.child, derive_key(seed, i)) for i in range(math.prod(m.shape))]
        return mk.combinators._build_shape(m.shape, iter(flat))
    if isinstance(m, (ForProduct, mk.Product)):
        return tuple(_reference(c, derive_key(seed, i)) for i, c in enumerate(m.children))
    if isinstance(m, mk.Chain):
        return m._sample_normalized(seed)  # compared by its prefixes below
    if isinstance(m, mk.Bind):
        first = _reference(m.source, derive_key(seed, 0))
        return first, _reference(m.kernel(first), derive_key(seed, 1))
    return m._sample_normalized(seed)


def _prefix(draw):
    """A chain draw's leading elements; any other draw as it is."""
    if isinstance(draw, kernels.ChainSample):
        return ("chain", tuple(itertools.islice(draw, 40)))
    if isinstance(draw, tuple):
        return tuple(_prefix(d) for d in draw)
    return draw


def _per_step_prefix(draw):
    if isinstance(draw, kernels.ChainSample):
        return ("chain", tuple(itertools.islice(_per_step(draw.spec, draw.seed), 40)))
    if isinstance(draw, tuple):
        return tuple(_per_step_prefix(d) for d in draw)
    return draw


LEAVES = [
    lambda: mk.Normal(0.3, 1.7), lambda: mk.Exponential(0.7), lambda: mk.Uniform01(),
    lambda: mk.Bernoulli(0.3), lambda: mk.Poisson(2.5), lambda: mk.make_negbinomial(r=3.0, p=0.4),
    lambda: mk.Dirac(1.5),
]
# Sizes on both sides of the lane crossover and of the chunk size.
SIZES = (1, LANE_MIN - 1, LANE_MIN, LANES - 1, LANES + 1)

MIXED = (mk.Normal(0.3, 1.7), mk.Exponential(0.7), mk.Bernoulli(0.3), mk.Uniform01())
# Which of MIXED factor i of a product is.
PATTERNS = {
    "alternating": lambda i: i % 2,
    "cycling": lambda i: i % 4,
    "runs across chunks": lambda i: i // 300 % 2,
    "one odd factor": lambda i: 1 if i == 5 else 0,
}


@pytest.mark.parametrize("n", [LANE_MIN, 8, LANES, 2 * LANES + 7])
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_a_product_of_several_families_draws_each_factor_from_its_stream(pattern, n):
    product = mk.Product(tuple(MIXED[PATTERNS[pattern](i)] for i in range(n)))
    for seed in (0, TOP_SEED, 2**64 + 3):  # TOP_SEED: a chunk of uniforms
        assert _bits(mk.sample(product, seed)) == _bits(_reference(product, seed)), seed

leaves = st.sampled_from(range(len(LEAVES))).map(lambda i: LEAVES[i]())
family_kernels = st.sampled_from(sorted(KERNELS)).map(lambda name: (KERNELS[name], INITIAL[name]))
nodes = st.one_of(
    leaves,
    st.tuples(leaves, st.sampled_from(SIZES)).map(lambda t: mk.power(t[0], (t[1],))),
    st.tuples(st.sampled_from(sorted(KERNELS)), st.sampled_from(SIZES)).map(
        lambda t: mk.for_product([0.001 * i for i in range(t[1])], KERNELS[t[0]])),
    st.lists(leaves, min_size=LANE_MIN - 1, max_size=LANE_MIN + 1).map(lambda ms: mk.Product(tuple(ms))),
    family_kernels.map(lambda t: mk.chain(*t)),
    family_kernels.map(lambda t: mk.bind(t[1], t[0])),
)
# One more level, small enough that a draw stays in the thousands of coordinates.
trees = st.one_of(
    nodes,
    st.tuples(nodes, st.sampled_from((2, LANE_MIN))).map(lambda t: mk.power(t[0], (t[1],))),
    st.lists(nodes, min_size=2, max_size=LANE_MIN).map(lambda ms: mk.Product(tuple(ms))),
)


@given(trees, st.integers(min_value=-(2**64), max_value=2**65))
def test_sample_is_a_pure_function_of_the_measure_and_the_seed(m, seed):
    first = _prefix(mk.sample(m, seed))
    assert _prefix(mk.sample(m, seed)) == first
    assert _prefix(mk.sample(m, seed)) == _per_step_prefix(_reference(m, seed))
