"""The column check: a product over one family reads its parameters' check
over whole columns, and falls back to the element loop wherever a column is
in doubt.

Its references are the loops it replaces: for a chain, the per-element loop
of `combinators._kernel_terms` (`_column_terms` patched to decline); for a
`Product` or `ForProduct` of one family's members, the same product with
its stored columns removed, which checks and sums factor by factor.  Every
value must agree bit for bit, and every error keep its type and message.
"""

import itertools
import math
import random
import struct
from unittest import mock

import pytest

import measurekit as mk
from measurekit import COUNTING, LEBESGUE, catalog, combinators
from measurekit.core import ShapeError
from test_columns import SPECIALS, _counting_checks, _outcome

N = 1000
POSITIONS = (0, N // 2, N - 1)  # the first, a middle and the last element
REPLAYS = 4  # the second call keeps a walk plan, later ones replay it


def _loop_outcome(call):
    with mock.patch.object(combinators, "_column_terms", lambda *args: None):
        return _outcome(call)


# ---------------------------------------------------------------------------
# Chains: each doubtful value at the first, a middle and the last element
# ---------------------------------------------------------------------------

# (family, maps, a plain element): mu reads the previous element, and sigma
# or rate through an affine map that a negative element makes non-positive.
CHAINS = [
    ("Normal", {"mu": "identity", "sigma": "const:0.7"}, 0.8),
    ("Normal", {"mu": "identity", "sigma": "affine:1.0:0.0"}, 0.8),
    ("Normal", {"mu": "affine:0.5:0.1", "sigma": "identity"}, 0.8),
    ("Exponential", {"rate": "affine:2.0:0.0"}, 0.8),
    ("Poisson", {"rate": "affine:1.0:0.0"}, 3),
    ("Bernoulli", {"p": "affine:0.25:0.0"}, 1),
]
DOUBTS = [math.nan, math.inf, -math.inf, 10**400, -(10**400), 2, -0.5, 0.0]


def _prefix(plain, value, position):
    rnd = random.Random(position)
    if isinstance(plain, int):
        xs = [rnd.randint(1, 3) for _ in range(N)]
    else:
        xs = [rnd.uniform(0.5, 1.5) for _ in range(N)]
    xs[position] = value
    return tuple(xs)


@pytest.mark.parametrize("name, maps, plain", CHAINS, ids=lambda v: repr(v))
def test_a_doubtful_element_gives_the_loop_outcome(name, maps, plain):
    walk = mk.chain(mk.make_kernel(name, **maps), mk.Normal(0.5, 1.0))
    root = mk.power(catalog.FAMILIES[name].root, (N,))
    for value, position in itertools.product(DOUBTS, POSITIONS):
        xs = _prefix(plain, value, position)
        for call in (lambda: mk.chain_logdensity(walk, xs),
                     lambda: mk.log_density(walk, xs, wrt=root),
                     lambda: mk.base_measure(walk, xs).logweight):
            assert _outcome(call) == _loop_outcome(call), (name, maps, value, position)


def test_an_error_is_the_first_elements():
    walk = mk.chain(mk.make_kernel("Normal", mu="identity", sigma="affine:1.0:0.0"), mk.Normal())
    xs = list(_prefix(0.8, -0.5, 10))
    xs[700] = math.nan
    with pytest.raises(ValueError, match=r"^Normal requires finite sigma > 0, got -0.5$"):
        mk.chain_logdensity(walk, tuple(xs))
    walk = mk.chain(mk.make_kernel("Normal", mu="identity", sigma="const:0.5"), mk.Normal())
    with pytest.raises(ValueError, match=r"^Normal requires finite mu, got inf$"):
        mk.chain_logdensity(walk, _prefix(0.8, 10**400, N // 2))


def test_the_screen_passes_plain_floats_and_declines_any_doubt():
    kernel = mk.make_kernel("Normal", mu="identity", sigma="affine:1.0:0.0")
    column = kernel._law.column
    xs = _prefix(0.8, 0.8, 0)
    passed, columns = column(xs)
    assert passed and list(columns[0]) == list(xs) and list(columns[1]) == [1.0 * x for x in xs]
    for value, position in itertools.product(DOUBTS, POSITIONS):
        try:
            passed, columns = column(_prefix(0.8, value, position))
        except OverflowError:  # the affine map at an int beyond the float range
            assert abs(value) == 10**400
            continue
        assert not passed, (value, position)
        assert len(columns) == 2 and all(len(c) == N for c in columns)
    # A constant map is read once; one out of range declines every element.
    passed, columns = mk.make_kernel("Normal", mu="identity", sigma="const:-1.0")._law.column(xs)
    assert not passed and columns[1] == [-1.0] * N
    # A family that declares `checked` has no column check.
    law = mk.make_kernel("NegativeBinomial", r="const:2.0", p="const:0.5")._law
    assert law.column(xs)[0] is False


def test_a_users_map_is_read_once_per_element_when_the_screen_declines():
    calls = []

    def mu(x):
        calls.append(x)
        return 1  # an int: the screen declines, `checked` converts it

    walk = mk.chain(mk.make_kernel("Normal", mu=mu, sigma="const:0.5"), mk.Normal())
    xs = _prefix(0.8, 0.8, 0)
    want = _loop_outcome(lambda: mk.chain_logdensity(walk, xs))
    del calls[:]
    assert _outcome(lambda: mk.chain_logdensity(walk, xs)) == want
    assert len(calls) == N - 1


def test_the_joined_base_keeps_the_left_to_right_sum():
    walk = mk.chain(mk.make_kernel("Normal", mu="identity", sigma="affine:0.5:0.25"), mk.Normal())
    xs = _prefix(0.8, 0.8, 0)
    weights = [-math.log(1.0) - 0.5 * math.log(2.0 * math.pi)]
    weights += [-math.log(0.5 * x + 0.25) - 0.5 * math.log(2.0 * math.pi) for x in xs[:-1]]
    total = 0.0
    for w in weights:
        total += w
    base = mk.base_measure(walk, xs)
    assert base == mk.scale(total, mk.power(LEBESGUE, (N,)))
    assert struct.pack("<d", base.logweight) == struct.pack("<d", total)
    # A factor with no weight among weighted ones: the others', in order.
    walk = mk.chain(mk.make_kernel("Normal", mu="identity", sigma="const:0.5"), mk.Uniform01())
    want = 0.0
    for _ in range(N - 1):
        want += -math.log(0.5) - 0.5 * math.log(2.0 * math.pi)
    assert mk.base_measure(walk, (0.5,) * N).logweight == want


# ---------------------------------------------------------------------------
# Products and ForProducts of one family
# ---------------------------------------------------------------------------

KERNELS = [
    ("Normal", {"mu": "affine:0.01:-0.5", "sigma": "affine:0.002:0.5"}),
    ("Exponential", {"rate": "affine:0.01:0.5"}),
    ("Poisson", {"rate": "affine:0.5:1.0"}),
    ("Bernoulli", {"p": "affine:0.0005:0.2"}),
    ("NegativeBinomial", {"r": "affine:0.5:1.0", "p": "const:0.4"}),
    ("Uniform01", {}),
]


def _products(name, maps, n):
    """A ForProduct and a Product of n members of the family, each with a
    twin whose stored columns are removed, so it reads factor by factor."""
    kernel = mk.make_kernel(name, **maps)
    pairs = []
    for make in (lambda: mk.for_product(range(n), kernel),
                 lambda: mk.Product(tuple(kernel(i) for i in range(n)))):
        m, loop = make(), make()
        object.__setattr__(loop, "_columns", None)
        assert m._columns is not None and m._checked_shape() == (n,)
        pairs.append((m, loop))
    return pairs


@pytest.mark.parametrize("n", [combinators._COLUMNS_MIN, N])
@pytest.mark.parametrize("name, maps", KERNELS, ids=[k[0] for k in KERNELS])
def test_one_family_products_give_the_factor_loop_outcome(name, maps, n):
    root = catalog.FAMILIES[name].root
    points = [tuple(i % 3 for i in range(n))]
    points += [tuple(v if i == p else i % 3 for i in range(n))
               for v in SPECIALS for p in (0, n // 2, n - 1)]
    points += [tuple(range(n + 1)), 0.5, None]
    for m, loop in _products(name, maps, n):
        for wrt in (None, mk.power(root, (n,))):
            for x in points:
                for _ in range(2 if wrt is None else REPLAYS):
                    got = _outcome(lambda: mk.log_density(m, x, wrt=wrt))
                    assert got == _outcome(lambda: mk.log_density(loop, x, wrt=wrt)), (m, x)
                    if wrt is not None:
                        back = _outcome(lambda: mk.log_density(wrt, x, wrt=m))
                        assert back == _outcome(lambda: mk.log_density(wrt, x, wrt=loop))
        x = points[0]
        assert mk.base_measure(m, x) == mk.base_measure(loop, x)
        assert struct.pack("<d", m.log_density_at(x)) == struct.pack("<d", loop.log_density_at(x))


def test_a_mixed_family_for_product_keeps_the_loop():
    def kernel(i):
        return mk.Normal(0.1 * i, 1.0) if i % 2 else mk.Exponential(1.0 + i)

    m = mk.for_product(range(N), kernel)
    assert m._columns is None and m._checked_shape() is None
    x = tuple(0.5 + 0.001 * i for i in range(N))
    want = 0.0
    for i, xi in enumerate(x):
        want += mk.log_density(kernel(i), xi, wrt=LEBESGUE).value
    assert math.isclose(mk.log_density(m, x, wrt=mk.power(LEBESGUE, (N,))).value, want,
                        rel_tol=1e-12)
    with pytest.raises(ShapeError, match="Exponential expects a scalar point, got 'a'"):
        mk.log_density(m, ("a",) + x[1:])


def test_a_kept_for_product_plan_checks_the_point_once():
    m = mk.for_product(range(N), mk.make_kernel("Normal", mu="affine:0.01:0.0", sigma="const:1.5"))
    reference = mk.power(LEBESGUE, (N,))
    x = mk.sample(m, 3)
    values = {mk.log_density(m, x, wrt=reference) for _ in range(REPLAYS)}
    assert len(values) == 1
    ((plan,),) = [(p,) for t, p in m._plans if t is reference and p is not None]
    assert plan[-1] is True  # the ForProduct's check implies the reference's
    calls = []
    with _counting_checks(mk.Power, calls):
        for _ in range(REPLAYS):
            assert mk.log_density(m, x, wrt=reference) in values
    assert calls == []
    # The product's own check still raises its errors after the replays.
    with pytest.raises(ShapeError, match="Normal expects a scalar point, got 'a'"):
        mk.log_density(m, x[:5] + ("a",) + x[6:], wrt=reference)
    with pytest.raises(ShapeError, match=f"ForProduct over {N} indices expects a {N}-tuple"):
        mk.log_density(m, x[1:], wrt=reference)


def test_a_count_for_product_against_counting_measure():
    m = mk.for_product(range(N), mk.make_kernel("Poisson", rate="affine:0.001:2.0"))
    x = tuple(i % 5 for i in range(N))
    want = 0.0
    for i, k in enumerate(x):
        want += mk.log_density(mk.Poisson(0.001 * i + 2.0), k, wrt=COUNTING).value
    got = mk.log_density(m, x, wrt=mk.power(COUNTING, (N,))).value
    assert struct.pack("<d", got) == struct.pack("<d", want)
