"""Chains and binds over a family kernel evaluate in one loop over the
family's functions, with no measure built per element.

The oracle is the same chain built with an opaque kernel, whose elements are
the nodes it returns, checked and unfolded one by one: every value must agree
bit for bit, every call must evaluate the same number of `Weighted` terms, and
every error must keep its type and message.
"""

import itertools
import math
import random
import struct

import pytest

import measurekit as mk
from measurekit import COUNTING, LEBESGUE

STEP = 0.3


def _walks(sigma=STEP):
    """The random walk over the family kernel and over an opaque kernel."""
    initial = mk.Normal(0.0, 1.0)
    family = mk.chain(mk.make_kernel("Normal", mu="identity", sigma=f"const:{sigma!r}"), initial)
    opaque = mk.chain(mk.Kernel(fn=lambda x: mk.Normal(x, sigma)), initial)
    return family, opaque


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


def _prefixes():
    rnd = random.Random(13)
    walk, _ = _walks()
    drawn = [tuple(itertools.islice(iter(mk.sample_chain(walk, s)), n))
             for s, n in ((1, 1), (2, 2), (3, 10), (4, 1000))]
    edges = [(0.5, 1, 2), (0.0, math.inf), (0.0, -math.inf), (0.1, math.nan, 0.2),
             (1e300, -1e300), [0.25, 0.5, -0.75]]
    return drawn + edges + [tuple(rnd.gauss(0.0, 3.0) for _ in range(5)) for _ in range(20)]


def _same(build):
    """build(walk) agrees on the family walk and its opaque twin."""
    family, opaque = _walks()
    for xs in _prefixes():
        assert _outcome(lambda: build(family, xs)) == _outcome(lambda: build(opaque, xs)), xs


class TestAgainstOpaqueKernel:
    def test_against_lebesgue(self):
        _same(lambda walk, xs: mk.log_density(walk, xs, wrt=mk.power(LEBESGUE, (len(xs),))))
        _same(lambda walk, xs: mk.log_density(mk.power(LEBESGUE, (len(xs),)), xs, wrt=walk))

    def test_against_its_own_base(self):
        def own_base(walk, xs):
            return mk.log_density(walk, xs, wrt=mk.base_measure(walk, xs))

        _same(own_base)

    def test_bases_are_equal(self):
        def base(walk, xs):
            try:
                return mk.base_measure(walk, xs)
            except ValueError as exc:
                return str(exc)

        family, opaque = _walks()
        for xs in _prefixes():
            assert base(family, xs) == base(opaque, xs), xs

    def test_chain_logdensity(self):
        _same(lambda walk, xs: mk.chain_logdensity(walk, xs))

    def test_under_power(self):
        def rows(walk, xs):
            n = len(xs)
            return mk.log_density(mk.power(walk, (2,)), (xs, xs[::-1]),
                                  wrt=mk.power(mk.power(LEBESGUE, (n,)), (2,)))

        _same(rows)

    def test_under_scale(self):
        _same(lambda walk, xs: mk.log_density(mk.scale(STEP, walk), xs,
                                              wrt=mk.power(LEBESGUE, (len(xs),))))
        _same(lambda walk, xs: mk.log_density(mk.scale(-STEP, walk), xs))

    def test_under_for_product(self):
        def pair(walk, xs):
            n = len(xs)
            return mk.log_density(mk.for_product((0, 1), lambda i: walk), (xs, xs[::-1]),
                                  wrt=mk.power(mk.power(LEBESGUE, (n,)), (2,)))

        _same(pair)

    def test_poisson_bind_over_exponential(self):
        maps = dict(rate="affine:1.5:0.7")
        family = mk.bind(mk.Exponential(1.3), mk.make_kernel("Poisson", **maps))
        opaque = mk.bind(mk.Exponential(1.3), mk.Kernel(fn=lambda a: mk.Poisson(1.5 * a + 0.7)))
        rnd = random.Random(5)
        points = [(0.8, 3), (0.0, 0), (2.5, 0.5), (-1.0, 2), (0.3, -1), (0.3, 10**400),
                  (1.0, 1500), (math.inf, 2), (0.4, math.nan)]
        points += [(rnd.expovariate(1.3), rnd.randrange(0, 12)) for _ in range(30)]
        for wrt in (None, mk.product(LEBESGUE, COUNTING), mk.product(LEBESGUE, LEBESGUE)):
            for x in points:
                assert (_outcome(lambda: mk.log_density(family, x, wrt=wrt))
                        == _outcome(lambda: mk.log_density(opaque, x, wrt=wrt))), (x, wrt)
        for x in points[:3]:
            assert mk.base_measure(family, x) == mk.base_measure(opaque, x)


class TestErrors:
    @staticmethod
    def _pair(maps, fn):
        initial = mk.Normal(0.0, 1.0)
        return mk.chain(mk.make_kernel("Normal", **maps), initial), mk.chain(mk.Kernel(fn=fn), initial)

    def _same_error(self, family, opaque, xs, kind, message):
        for wrt in (None, mk.power(LEBESGUE, (len(xs),)), mk.power(COUNTING, (len(xs),))):
            got = _outcome(lambda: mk.log_density(family, xs, wrt=wrt))
            assert got == _outcome(lambda: mk.log_density(opaque, xs, wrt=wrt))
            # A reference checks the point first, and may name it itself.
            assert got[0] is kind and (wrt is not None or message in got[1]), got

    def test_sigma_out_of_range_at_an_element(self):
        family, opaque = self._pair(dict(mu="identity", sigma="affine:1:0"),
                                    lambda x: mk.Normal(x, 1.0 * x + 0.0))
        self._same_error(family, opaque, (0.5, 0.25, -0.5, 1.0), ValueError,
                         "Normal requires finite sigma > 0, got -0.5")

    def test_mu_not_finite_at_an_element(self):
        family, opaque = self._pair(dict(mu="identity", sigma="const:0.5"),
                                    lambda x: mk.Normal(x, 0.5))
        self._same_error(family, opaque, (0.5, math.inf, 1.0), ValueError,
                         "Normal requires finite mu, got inf")

    def test_non_scalar_element(self):
        family, opaque = self._pair(dict(mu="identity"), lambda x: mk.Normal(x))
        self._same_error(family, opaque, (0.5, (0.1, 0.2), 1.0), mk.ShapeError,
                         "Normal expects a scalar point, got (0.1, 0.2)")
        self._same_error(family, opaque, (0.5, "a"), mk.ShapeError,
                         "Normal expects a scalar point, got 'a'")

    def test_int_beyond_the_float_range(self):
        family, opaque = self._pair(dict(mu="identity"), lambda x: mk.Normal(x))
        # The last element: its data term is -inf, as the Normal's own is.
        xs = (0.5, 10**400)
        for wrt in (None, mk.power(LEBESGUE, (2,))):
            got = _outcome(lambda: mk.log_density(family, xs, wrt=wrt))
            assert got == _outcome(lambda: mk.log_density(opaque, xs, wrt=wrt))
            assert struct.unpack("<d", got[0])[0] == -math.inf
        # Before the last: it is the next element's mean.
        self._same_error(family, opaque, (0.5, 10**400, 1.0), ValueError,
                         "Normal requires finite mu, got inf")

    def test_poisson_kernel_at_a_non_count(self):
        initial = mk.Poisson(2.0)
        family = mk.chain(mk.make_kernel("Poisson", rate="affine:0.5:1"), initial)
        opaque = mk.chain(mk.Kernel(fn=lambda k: mk.Poisson(0.5 * k + 1.0)), initial)
        for xs in ((1, 2.5, 3), (1, -1), (2, 3, 10**400)):
            for wrt in (None, mk.power(COUNTING, (len(xs),))):
                got = _outcome(lambda: mk.log_density(family, xs, wrt=wrt))
                assert got == _outcome(lambda: mk.log_density(opaque, xs, wrt=wrt))
                assert struct.unpack("<d", got[0])[0] == -math.inf

    def test_shape_errors(self):
        family, opaque = _walks()
        for xs in ((), [], 0.5, None):
            for walk in (family, opaque):
                with pytest.raises(mk.ShapeError, match="Chain expects a nonempty finite prefix"):
                    mk.log_density(walk, xs)


class TestOneApplicationPerElement:
    """Each element's kernel map runs once under power, for_product and scale."""

    @staticmethod
    def counting_walks():
        calls = []

        def mean(v):
            calls.append(v)
            return v

        def step(v):
            calls.append(v)
            return mk.Normal(v, 0.5)

        initial = mk.Normal(0.0, 2.0)
        return (mk.chain(mk.make_kernel("Normal", mu=mean, sigma="const:0.5"), initial),
                mk.chain(mk.Kernel(fn=step), initial)), calls

    @pytest.mark.parametrize("opaque", [False, True])
    def test_power_for_product_and_scale(self, opaque):
        walks, calls = self.counting_walks()
        walk = walks[opaque]
        x = (0.1, -0.2, 0.4, 0.3)
        rows = mk.power(mk.power(LEBESGUE, (4,)), (2,))
        cases = [
            (mk.power(walk, (2,)), (x, x), rows, 6),
            (mk.for_product((0, 1), lambda i: walk), (x, x), rows, 6),
            (mk.scale(0.3, walk), x, mk.power(LEBESGUE, (4,)), 3),
        ]
        for m, point, wrt, applications in cases:
            calls.clear()
            mk.log_density(m, point, wrt=wrt)
            assert len(calls) == applications, m


def test_sum_of_scaled_chains_reads_each_point():
    # A Weighted or an IntegralMeasure over a chain takes the chain's
    # point-dependent base flag, so a sum of them reads its summands' bases
    # afresh at every point and keeps no walk plan.
    walk = mk.chain(mk.make_kernel("Normal", mu="identity", sigma="affine:0.1:2"), mk.Normal())
    iid = mk.power(mk.Normal(), (3,))
    line = mk.power(LEBESGUE, (3,))

    def tilt(xs):
        return -0.1 * sum(v * v for v in xs)

    points = ((0.1, 0.2, 0.3), (1.0, -1.0, 2.0), (5.0, 6.0, 7.0))
    scaled = mk.superpose(mk.scale(math.log(0.5), walk), mk.scale(math.log(0.5), iid))
    for x in points:
        parts = mk.logaddexp(mk.log_density(walk, x, wrt=line), mk.log_density(iid, x, wrt=line))
        assert mk.log_density(scaled, x, wrt=line).value == pytest.approx(
            math.log(0.5) + parts.value, rel=1e-12)
    tilted = mk.superpose(mk.integrate_exp(tilt, walk), iid)
    for x in points:
        parts = mk.logaddexp(tilt(x) + mk.log_density(walk, x, wrt=line).value,
                             mk.log_density(iid, x, wrt=line))
        assert mk.log_density(tilted, x, wrt=line).value == pytest.approx(parts.value, rel=1e-12)
    for mixture in (scaled, tilted):
        assert not mixture.static_base
        assert all(plan is None for _, plan in mixture._plans)
