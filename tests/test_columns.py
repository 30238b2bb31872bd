"""Chains and binds over a family kernel read their elements over columns,
and a kept walk plan checks a point once where both measures check the same
shape.

The column path (`combinators._column_terms`) has one reference: the
per-element loop of `combinators._kernel_terms`, which a product also runs
below `combinators._COLUMNS_MIN` elements and where an element raises.
Every value must agree with it bit for bit, every call must evaluate the same
number of `Weighted` terms, every error must keep its type and message, and a
user's map must be called once per element.
"""

import itertools
import math
import random
import struct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import measurekit as mk
from measurekit import COUNTING, LEBESGUE, catalog, combinators, core
from measurekit.core import MeasureExpr, ShapeError

# Every family a kernel can name, with the initial law of its chains.
FAMILIES = sorted(name for name, f in catalog.FAMILIES.items() if f.data is not None)
INITIAL = {LEBESGUE: mk.Normal(0.5, 1.0), COUNTING: mk.Poisson(2.0)}
SPECIALS = [math.inf, -math.inf, math.nan, 10**400, -(10**400), "a", (1.0,), True, None,
            0, 1, 2, 0.5, -1.0]


class Counted:
    """A user's parameter map that counts its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


USER_MAPS = [lambda x: abs(x) + 0.25, lambda x: 0.5 * x, lambda x: x, lambda x: 1.0 / (1.0 + x * x)]
MAPS = {
    "identity": st.just("identity"),
    "sqrt": st.just("sqrt"),
    "const": st.sampled_from([0.3, 1.7, 0.0, -0.5, 1e-300, 1e300]).map(lambda v: f"const:{v!r}"),
    "affine": st.sampled_from([(0.5, 1.0), (-1.0, 0.2), (0.01, 0.5), (2.0, -3.0)]).map(
        lambda ab: "affine:%r:%r" % ab),
    "callable": st.sampled_from(USER_MAPS).map(Counted),
}
# Every family kernel: each parameterization, with each kind of map for each
# parameter it names.
GRID = [(name, tuple(zip(sorted(names), kinds)))
        for name in FAMILIES for names in catalog.FAMILIES[name].parameterizations
        for kinds in itertools.product(sorted(MAPS), repeat=len(names))]


@st.composite
def kernels(draw):
    name, kinds = draw(st.sampled_from(GRID))
    return name, {n: draw(MAPS[kind]) for n, kind in kinds}


@st.composite
def prefixes(draw):
    """Prefixes of length 1, 2, 3 and 1000, with non-finite, non-scalar and
    beyond-float elements among plain ones."""
    n = draw(st.sampled_from([1, 2, 3, 1000]))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        xs = [rnd.randint(0, 4) for _ in range(n)]
    else:
        xs = [rnd.uniform(0.05, 1.5) for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        xs[draw(st.sampled_from([0, n // 2, n - 1]))] = draw(st.sampled_from(SPECIALS))
    return tuple(xs)


def _outcome(call):
    """Bits of the value, or the error's type and message, with the number of
    `Weighted` terms evaluated."""
    mk.reset_weight_evaluations()
    try:
        value = call()
    except Exception as exc:
        return type(exc), str(exc), mk.weight_evaluations()
    if isinstance(value, mk.LogWeight):
        value = value.value if value.defined else math.nan
    return struct.pack("<d", value), mk.weight_evaluations()


def _calls(name, maps):
    """The densities of the chain and the bind over the kernel at a prefix,
    each with the point it reads from the prefix."""
    kernel = mk.make_kernel(name, **maps)
    root = catalog.FAMILIES[name].root
    walk = mk.chain(kernel, INITIAL[root])
    pair = mk.bind(INITIAL[root], kernel)
    return [
        (lambda xs: xs, lambda xs: mk.chain_logdensity(walk, xs)),
        (lambda xs: xs, lambda xs: mk.log_density(walk, xs, wrt=mk.power(root, (len(xs),)))),
        (lambda xs: xs, lambda xs: mk.log_density(mk.power(root, (len(xs),)), xs, wrt=walk)),
        (lambda xs: (xs + xs)[:2],
         lambda x: mk.log_density(pair, x, wrt=mk.product(root, root))),
    ]


def _spying(ran):
    """`_column_terms`, noting in ``ran`` how each call ended."""
    original = combinators._column_terms

    def spy(*args):
        try:
            total = original(*args)
        except Exception:
            ran.append("raised")
            raise
        ran.append("declined" if total is None else "columns")
        return total

    return spy


@settings(max_examples=600)
@given(kernels(), prefixes())
def test_columns_match_the_element_loop(kernel, xs):
    name, maps = kernel
    counted = [m for m in maps.values() if isinstance(m, Counted)]
    ran = []
    for point, call in _calls(name, maps):
        x = point(xs)
        with mock.patch.object(combinators, "_column_terms", lambda *args: None):
            want = _outcome(lambda: call(x))
        assert _outcome(lambda: call(x)) == want, (name, maps, x)
        # Every length read over columns, short ones too.
        del ran[:]
        for m in counted:
            m.calls = 0
        with mock.patch.object(combinators, "_COLUMNS_MIN", 1), \
                mock.patch.object(combinators, "_column_terms", _spying(ran)):
            got = _outcome(lambda: call(x))
        assert got == want, (name, maps, x)
        if all(type(v) in (float, int) for v in x[1:]) and not isinstance(want[0], type):
            # A valid prefix of plain elements is read over columns alone,
            # and each user map called once per element and read.
            assert set(ran) == ({"columns"} if len(x) > 1 else set()), (name, maps, x, ran)
            for m in counted:
                assert m.calls == len(ran) * (len(x) - 1), (name, maps, x)


def test_a_user_map_is_called_once_per_element():
    mu = Counted(lambda x: x)
    walk = mk.chain(mk.make_kernel("Normal", mu=mu, sigma="const:0.3"), mk.Normal(0.0, 1.0))
    xs = tuple(itertools.islice(iter(mk.sample_chain(walk, 4)), 1000))
    ran = []
    mu.calls = 0
    with mock.patch.object(combinators, "_column_terms", _spying(ran)):
        mk.log_density(walk, xs, wrt=mk.power(LEBESGUE, (1000,)))
    assert ran == ["columns"] and mu.calls == 999
    # Below the threshold the loop reads the elements, one call each too.
    mu.calls = 0
    with mock.patch.object(combinators, "_column_terms", _spying(ran)):
        mk.log_density(walk, xs[:combinators._COLUMNS_MIN], wrt=mk.power(LEBESGUE, (8,)))
    assert ran == ["columns"] and mu.calls == combinators._COLUMNS_MIN - 1


def test_an_error_keeps_its_element():
    walk = mk.chain(mk.make_kernel("Normal", mu="identity", sigma="affine:1.0:0.0"),
                    mk.Normal(0.0, 1.0))
    xs = (0.5, 0.25, -0.75, 0.5, "a")
    with pytest.raises(ValueError, match=r"^Normal requires finite sigma > 0, got -0.75$"):
        mk.chain_logdensity(walk, xs)
    with pytest.raises(ShapeError, match="Normal expects a scalar point, got 'a'"):
        mk.chain_logdensity(walk, xs[:2] + ("a",) + xs[2:])


# ---------------------------------------------------------------------------
# One pass per block for every family
# ---------------------------------------------------------------------------

BLOCK_MEMBERS = [mk.Exponential(1.5), mk.Poisson(3.0), mk.Poisson(2000.0), mk.Bernoulli(0.3),
                 mk.Bernoulli(1.0), mk.make_negbinomial(r=4.0, p=0.4),
                 mk.make_negbinomial(alpha=2.5, beta=0.7), mk.Uniform01()]
BLOCK = [0, 1, 2, 3, 0.5, 1.0, 2.5, -1, -0.25, 1500, 10**400, -(10**400), math.inf, -math.inf,
         math.nan, 7, 0.999, 1e-300]


@pytest.mark.parametrize("m", BLOCK_MEMBERS, ids=repr)
def test_family_blocks_sum_in_one_pass(m):
    assert type(m)._data_block is catalog._Law._data_block
    for xs in (BLOCK, BLOCK[::-1], BLOCK[:1], [], [3] * 1000):
        want = MeasureExpr._data_block(m, xs)
        assert struct.pack("<d", m._data_block(xs)) == struct.pack("<d", want), xs


# ---------------------------------------------------------------------------
# A kernel applied once per element under pushforward and pointwise_product
# ---------------------------------------------------------------------------


def test_pushforward_and_posterior_apply_the_kernel_once_per_element():
    mu = Counted(lambda x: x)
    walk = mk.chain(mk.make_kernel("Normal", mu=mu, sigma="const:0.3"), mk.Normal(0.0, 1.0))
    x = (0.1, 0.2, -0.3, 0.4)
    reference = mk.power(LEBESGUE, (4,))
    eye = tuple(tuple(1.0 if i == j else 0.0 for j in range(4)) for i in range(4))
    image = mk.pushforward(mk.forward_map(eye), walk)
    posterior = mk.pointwise_product(walk, mk.Likelihood(lambda p: mk.Normal(p[0], 1.0), 0.5))
    assert image.self_checking and posterior.self_checking
    mu.calls = 0
    value = mk.log_density(walk, x, wrt=reference)
    assert mu.calls == 3
    mu.calls = 0
    assert mk.log_density(image, x, wrt=reference) == value
    assert mu.calls == 3
    mu.calls = 0
    loglik = mk.log_density(mk.Normal(0.1, 1.0), 0.5)
    assert mk.log_density(posterior, x, wrt=reference) == value + loglik
    assert mu.calls == 3
    mu.calls = 0
    assert mk.log_density(reference, x, wrt=image) == -value
    assert mu.calls == 3


def test_self_checking_pushforward_and_posterior_keep_their_errors():
    walk = mk.chain(mk.make_kernel("Normal", mu="identity", sigma="const:0.3"), mk.Normal(0.0, 1.0))
    eye = ((1.0, 0.0), (0.0, 1.0))
    image = mk.pushforward(mk.forward_map(eye), walk)
    posterior = mk.pointwise_product(walk, mk.Likelihood(lambda p: mk.Normal(p[0], 1.0), 0.5))
    reference = mk.power(LEBESGUE, (2,))
    with pytest.raises(ShapeError, match="0.5 does not match the affine map"):
        mk.log_density(image, 0.5)
    with pytest.raises(ShapeError, match="Chain expects a nonempty finite prefix, got 0.5"):
        mk.log_density(posterior, 0.5)
    with pytest.raises(ShapeError, match="does not match the affine map"):
        mk.base_measure(image, 0.5)
    # A point the reference checks too: as for the chain itself, the
    # reference's check comes first, and the source's where it passes.
    for m in (walk, image, posterior):
        with pytest.raises(ShapeError, match="expected a tuple of length 2, got 0.5"):
            mk.log_density(m, 0.5, wrt=reference)
    with pytest.raises(ShapeError, match=r"\(0.1, 'a'\) does not match the affine map"):
        mk.log_density(image, (0.1, "a"))
    with pytest.raises(ShapeError, match="Normal expects a scalar point, got 'a'"):
        mk.log_density(posterior, (0.1, "a"))


# ---------------------------------------------------------------------------
# One point check per kept plan
# ---------------------------------------------------------------------------

REPLAYS = 4  # the second call keeps a plan, later ones replay it


def _kept(m, wrt):
    """The flag m's kept plan against wrt notes: whether wrt's check is implied."""
    (plan,) = [p for t, p in m._plans if t is wrt and p is not None]
    return plan[-1]


def test_powers_of_one_shape_check_the_point_once():
    for n in (3, 1000):
        p = mk.power(mk.Normal(0.3, 1.2), (n,))
        x = mk.sample(p, 5)
        for wrt in (mk.power(LEBESGUE, (n,)), mk.base_measure(p, x)):
            values = {mk.log_density(p, x, wrt=wrt) for _ in range(REPLAYS)}
            assert len(values) == 1 and _kept(p, wrt) is True
            values = {mk.log_density(wrt, x, wrt=p) for _ in range(REPLAYS)}
            assert len(values) == 1 and _kept(wrt, p) is True
    nested = mk.power(mk.power(LEBESGUE, (3,)), (2,))
    flat = mk.power(mk.Normal(), (2, 3))
    x = ((0.1, 0.2, 0.3), (0.4, 0.5, 0.6))
    for _ in range(REPLAYS):
        mk.log_density(flat, x, wrt=nested)
    assert _kept(flat, nested) is True


def test_a_reference_of_another_shape_still_raises_its_error():
    source, reference = mk.power(mk.Normal(), (3,)), mk.power(LEBESGUE, (4,))
    for _ in range(REPLAYS):
        with pytest.raises(ShapeError, match=r"expected a tuple of length 4, got \(0.1, 0.2, 0.3\)"):
            mk.log_density(source, (0.1, 0.2, 0.3), wrt=reference)
        with pytest.raises(ShapeError, match=r"expected a tuple of length 3"):
            mk.log_density(source, (0.1, 0.2, 0.3, 0.4), wrt=reference)


def test_a_malformed_entry_raises_the_source_error_after_replays():
    source, reference = mk.power(mk.Normal(), (3,)), mk.power(LEBESGUE, (3,))
    for _ in range(REPLAYS):
        mk.log_density(source, (0.1, 0.2, 0.3), wrt=reference)
        mk.log_density(reference, (0.1, 0.2, 0.3), wrt=source)
    assert _kept(source, reference) is True and _kept(reference, source) is True
    for _ in range(REPLAYS):
        with pytest.raises(ShapeError, match="Normal expects a scalar point, got 'a'"):
            mk.log_density(source, (0.1, "a", 0.3), wrt=reference)
        with pytest.raises(ShapeError, match="Lebesgue expects a scalar point, got 'a'"):
            mk.log_density(reference, (0.1, "a", 0.3), wrt=source)
        with pytest.raises(ShapeError, match="expected a tuple of length 3"):
            mk.log_density(source, (0.1, 0.2), wrt=reference)


def _counting_checks(cls, calls):
    """Patch cls.check_point to count its calls in ``calls``."""
    original = cls.check_point

    def check(node, x):
        calls.append(x)
        return original(node, x)

    return mock.patch.object(cls, "check_point", check)


@pytest.mark.parametrize("source, reference, x", [
    (mk.Dirac((0.0, 0.0)), mk.power(LEBESGUE, (2,)), (0.0, 0.0)),
    (mk.power(LEBESGUE, (2,)), mk.Dirac((0.0, 0.0)), (0.0, 0.0)),
    (mk.power(mk.Normal(), (2,)), mk.product(LEBESGUE, LEBESGUE), (0.1, 0.2)),
    (mk.Normal(), mk.pushforward(mk.forward_map(2.0, 0.0), LEBESGUE), 0.3),
    (mk.power(mk.Normal(), (2,)),
     mk.pushforward(mk.forward_map(((2.0, 0.0), (0.0, 1.0))), mk.power(LEBESGUE, (2,))), (0.1, 0.2)),
    (mk.power(mk.Normal(), (2,)), mk.power(mk.Dirac(0.0), (2,)), (0.0, 0.0)),
], ids=["dirac-atom-source", "dirac-atom-reference", "product", "pushforward", "matrix-pushforward",
        "power-of-atoms"])
def test_other_checks_are_never_skipped(source, reference, x):
    for _ in range(REPLAYS):
        mk.log_density(source, x, wrt=reference)
    assert _kept(source, reference) is False
    calls = []
    with _counting_checks(type(reference), calls):
        for _ in range(REPLAYS):
            mk.log_density(source, x, wrt=reference)
    assert len(calls) >= REPLAYS


def test_a_dirac_atom_source_leaves_the_entries_to_its_reference():
    source, reference = mk.Dirac((0.0, 0.0)), mk.power(LEBESGUE, (2,))
    for _ in range(REPLAYS):
        mk.log_density(source, (0.0, 0.0), wrt=reference)
    for _ in range(REPLAYS):
        with pytest.raises(ShapeError, match="Lebesgue expects a scalar point, got 'a'"):
            mk.log_density(source, (0.0, "a"), wrt=reference)
