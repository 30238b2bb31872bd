"""Base measures, primitives, and the density recursion engine."""

import math
import random

import pytest

import measurekit as mk
from measurekit import (
    COUNTING,
    LEBESGUE,
    Dirac,
    ShapeError,
    UnrelatedPrimitivesError,
    Weighted,
    base_measure,
    is_primitive,
    log_density,
    scale,
)

from oracles import dec_normal_logpdf

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


class TestBaseMeasure:
    def test_primitives_are_fixed_points(self):
        assert base_measure(LEBESGUE, 0.3) == LEBESGUE
        assert base_measure(COUNTING, 4) == COUNTING
        assert base_measure(Dirac(2), 2) == Dirac(2)

    def test_normal_base_carries_normalization(self):
        base = base_measure(mk.make_normal(mu=0, sigma=2), 1.0)
        assert base == Weighted(-math.log(2.0) - _HALF_LOG_2PI, LEBESGUE)

    def test_product_base_is_product_of_bases(self):
        m = mk.product(mk.make_normal(), mk.make_normal())
        base = base_measure(m, (0.0, 0.0))
        expected_factor = Weighted(-math.log(1.0) - _HALF_LOG_2PI, LEBESGUE)
        assert base == mk.Product((expected_factor, expected_factor))

    def test_default_base_ignores_the_point(self):
        n = mk.make_normal()
        assert base_measure(n, -5.0) == base_measure(n, 17.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            base_measure(mk.make_normal(), (1.0, 2.0))


class TestRootMeasure:
    def test_family_chains_end_at_their_primitive(self):
        assert mk.root_measure(mk.make_normal(), 0.3) == LEBESGUE
        assert mk.root_measure(scale(-0.7, mk.Poisson(3.0)), 2) == COUNTING

    def test_spike_and_slab_ends_at_the_sum_of_its_roots(self):
        half = math.log(0.5)
        ss = mk.superpose(scale(half, Dirac(0)), scale(half, mk.make_normal()))
        for x in (0, 0.0, 1.5):
            assert mk.root_measure(ss, x) == mk.Superposition((Dirac(0), LEBESGUE))

    def test_too_deep_is_a_depth_error(self):
        deep = mk.make_normal()
        for _ in range(2000):
            deep = mk.Pushforward(mk.forward_map(1.0, 0.0), deep)
        with pytest.raises(mk.DepthError, match="nested too deeply"):
            mk.root_measure(deep, 0.1)


class TestIsPrimitive:
    def test_primitives(self):
        assert is_primitive(LEBESGUE)
        assert is_primitive(COUNTING)
        assert is_primitive(Dirac(0))

    def test_non_primitives(self):
        assert not is_primitive(mk.make_normal())
        assert not is_primitive(Weighted(0.5, LEBESGUE))
        assert not is_primitive(mk.superpose(LEBESGUE, COUNTING))


class TestLogDensityOwnBase:
    def test_standard_normal_at_mean(self):
        assert log_density(mk.make_normal(mu=0, sigma=1), 0.0) == 0.0

    def test_normal_data_term(self):
        assert log_density(mk.make_normal(mu=0, sigma=2), 2.0) == -0.5

    def test_dirac_atom(self):
        assert log_density(Dirac(3), 3) == 0.0
        assert log_density(Dirac(3), 4).is_neg_inf


class TestLogDensityBetween:
    def test_normal_vs_lebesgue(self):
        got = log_density(mk.make_normal(mu=0, sigma=1), 1.0, wrt=LEBESGUE)
        assert got.value == pytest.approx(float(dec_normal_logpdf(1.0)), abs=1e-14)
        assert got.value == -1.4189385332046727

    def test_identity_is_zero(self):
        n = mk.make_normal(mu=0, sigma=1)
        assert log_density(n, 0.7, wrt=n) == 0.0

    def test_dirac_vs_counting_special_values(self):
        assert log_density(Dirac(0), 5, wrt=COUNTING).is_neg_inf
        assert log_density(COUNTING, 5, wrt=Dirac(0)).is_pos_inf
        assert log_density(Dirac(0), 0, wrt=COUNTING) == 0.0
        assert log_density(COUNTING, 0, wrt=Dirac(0)) == 0.0

    def test_unrelated_primitives_raise(self):
        with pytest.raises(UnrelatedPrimitivesError):
            log_density(LEBESGUE, 0.0, wrt=COUNTING)
        with pytest.raises(UnrelatedPrimitivesError):
            log_density(COUNTING, 0.0, wrt=LEBESGUE)

    def test_distinct_dirac_atoms_are_undefined(self):
        assert log_density(Dirac(0), 0, wrt=Dirac(1)).is_undefined
        assert log_density(Dirac(0), 1, wrt=Dirac(1)).is_undefined

    def test_dirac_vs_lebesgue(self):
        assert log_density(Dirac(0), 1.0, wrt=LEBESGUE).is_neg_inf
        assert log_density(Dirac(0), 0.0, wrt=LEBESGUE).is_undefined
        assert log_density(LEBESGUE, 1.0, wrt=Dirac(0)).is_pos_inf

    def test_weighted_lebesgue_scaling(self):
        half = Weighted(math.log(0.5), LEBESGUE)
        assert log_density(half, 2.0, wrt=LEBESGUE).value == math.log(0.5)
        assert log_density(LEBESGUE, 2.0, wrt=half).value == -math.log(0.5)


def _random_catalog_measure(rnd, continuous):
    if continuous:
        choices = [
            lambda: mk.make_normal(mu=rnd.uniform(-2, 2), sigma=rnd.uniform(0.3, 3)),
            lambda: mk.Exponential(rate=rnd.uniform(0.3, 3)),
            lambda: mk.Uniform01(),
            lambda: LEBESGUE,
        ]
    else:
        choices = [
            lambda: mk.Poisson(rate=rnd.uniform(0.5, 10)),
            lambda: mk.make_negbinomial(r=rnd.uniform(1, 20), p=rnd.uniform(0.2, 0.8)),
            lambda: mk.Bernoulli(p=rnd.uniform(0.05, 0.95)),
            lambda: COUNTING,
        ]
    return rnd.choice(choices)()


class TestRecursionConsistency:
    def test_one_step_unfolding_matches(self):
        # d(mu)/d(nu) == d(mu)/d(alpha) + d(alpha)/d(beta) - d(nu)/d(beta)
        rnd = random.Random(20240817)
        checked = 0
        for _ in range(300):
            continuous = rnd.random() < 0.5
            mu = _random_catalog_measure(rnd, continuous)
            nu = _random_catalog_measure(rnd, continuous)
            x = rnd.uniform(-4, 4) if continuous else rnd.randrange(0, 12)
            direct = log_density(mu, x, wrt=nu)
            lhs = log_density(mu, x)
            mid = log_density(base_measure(mu, x), x, wrt=base_measure(nu, x))
            rhs = log_density(nu, x)
            if all(v.is_finite for v in (direct, lhs, mid, rhs)):
                checked += 1
                assert direct.value - (lhs.value + mid.value - rhs.value) == pytest.approx(
                    0.0, abs=1e-12
                )
        assert checked > 100


def _expression_depth(m):
    children = []
    if isinstance(m, Weighted):
        children = [m.base]
    elif isinstance(m, mk.Product):
        children = list(m.children)
    elif isinstance(m, mk.Power):
        children = [m.child]
    elif isinstance(m, mk.Superposition):
        children = list(m.components)
    elif isinstance(m, mk.Pushforward):
        children = [m.inner]
    if not children:
        return 1
    return 1 + max(_expression_depth(c) for c in children)


class TestTermination:
    @pytest.mark.parametrize(
        "m, x",
        [
            (LEBESGUE, 0.0),
            (mk.make_normal(), 0.0),
            (Weighted(0.5, mk.make_normal()), 0.0),
            (mk.Exponential(2.0), 1.0),
            (mk.make_negbinomial(alpha=10, beta=3), 4),
            (mk.product(mk.make_normal(), mk.Exponential(1.0)), (0.0, 1.0)),
            (mk.power(mk.make_normal(), (4,)), (0.0, 0.1, 0.2, 0.3)),
            (mk.superpose(mk.make_normal(), mk.make_normal(mu=1, sigma=2)), 0.5),
            (mk.superpose(scale(math.log(0.5), Dirac(0)), scale(math.log(0.5), mk.make_normal())), 0.5),
            (mk.pushforward(mk.forward_map(2.0, 1.0), mk.make_normal()), 0.0),
        ],
    )
    def test_base_chain_reaches_fixed_point_quickly(self, m, x):
        depth = _expression_depth(m)
        steps = 0
        current = m
        while True:
            nxt = current.base_at(x)
            if nxt == current:
                break
            current = nxt
            steps += 1
            assert steps <= depth + 2


class TestSpecialValueClosure:
    def test_no_quiet_nan_escapes(self):
        rnd = random.Random(99)
        measures = [
            mk.Uniform01(),
            mk.make_normal(),
            Dirac(0),
            Dirac(1),
            scale(-math.inf, mk.make_normal()),
            Weighted(math.log(0.5), LEBESGUE),
            LEBESGUE,
        ]
        for _ in range(400):
            mu, nu = rnd.choice(measures), rnd.choice(measures)
            x = rnd.choice([0.0, 1.0, 2.0, -3.0, 0.5])
            try:
                v = log_density(mu, x, wrt=nu)
            except UnrelatedPrimitivesError:
                continue
            if not v.is_undefined:
                assert not math.isnan(v.value)


class TestAntisymmetrySpot:
    def test_negation_identity_for_catalog_pairs(self):
        cases = [
            (mk.make_normal(mu=0, sigma=1), LEBESGUE, 0.4),
            (mk.make_normal(mu=0, sigma=1), mk.make_normal(mu=2, sigma=3), -1.0),
            (mk.Uniform01(), LEBESGUE, 2.0),
            (mk.Poisson(2.0), COUNTING, 3),
            (Dirac(0), COUNTING, 5),
            (scale(-math.inf, mk.make_normal()), mk.make_normal(), 0.3),
        ]
        for mu, nu, x in cases:
            assert log_density(mu, x, wrt=nu) == -log_density(nu, x, wrt=mu)


class TestDecompositionExactness:
    def test_value_equals_data_term_plus_base_weight(self):
        rnd = random.Random(5)
        for _ in range(50):
            mu, sigma = rnd.uniform(-3, 3), rnd.uniform(0.2, 4)
            x = rnd.uniform(-6, 6)
            n = mk.make_normal(mu=mu, sigma=sigma)
            via_engine = log_density(n, x, wrt=LEBESGUE).value
            by_hand = log_density(n, x).value + base_measure(n, x).logweight
            assert via_engine == by_hand


class TestAntisymmetryAgainstOwnBase:
    # The walk from a measure stops at its base; the swapped walk must stop
    # there too, not telescope both sides down to Lebesgue.
    @pytest.mark.parametrize(
        "m, point",
        [
            (mk.Normal(0.3, 1.7), lambda rnd: rnd.uniform(-6.0, 6.0)),
            (
                mk.power(mk.Normal(0.3, 1.7), (100,)),
                lambda rnd: tuple(rnd.uniform(-6.0, 6.0) for _ in range(100)),
            ),
        ],
    )
    def test_bitwise_at_1000_points(self, m, point):
        rnd = random.Random(665)
        for _ in range(1000):
            x = point(rnd)
            base = base_measure(m, x)
            forward = log_density(m, x, wrt=base)
            assert forward == log_density(m, x)
            assert forward == -log_density(base, x, wrt=m)


class TestShapeChecks:
    def test_malformed_point_against_wrt_alone(self):
        walk = mk.chain(mk.make_kernel("Normal", mu="identity"), mk.make_normal())
        with pytest.raises(ShapeError):
            log_density(LEBESGUE, 0.5, wrt=walk)
        with pytest.raises(ShapeError):
            log_density(mk.power(LEBESGUE, (2,)), (0.5, 1.0), wrt=mk.power(LEBESGUE, (3,)))

    def test_malformed_point_when_mu_equals_wrt(self):
        walk = mk.chain(mk.make_kernel("Normal", mu="identity"), mk.make_normal())
        bad_chain = mk.chain(lambda x: mk.product(mk.make_normal(), mk.make_normal()),
                             mk.make_normal())
        for m, x in [
            (mk.make_normal(), (1.0, 2.0)),
            (mk.power(mk.make_normal(), (3,)), (1.0, 2.0)),
            (walk, 0.5),
            (bad_chain, (0.0, 0.5)),
            (mk.for_product((1, 2), lambda j: mk.make_normal(mu=j)), (1.0, (2.0,))),
            (mk.bind(mk.make_normal(), lambda v: mk.make_normal(mu=v)), (0.0, "y")),
        ]:
            with pytest.raises(ShapeError):
                log_density(m, x, wrt=m)

    def test_kernel_nodes_reject_malformed_points(self):
        walk = mk.chain(mk.make_kernel("Normal", mu="identity"), mk.make_normal())
        pair = mk.bind(mk.make_normal(), mk.make_kernel("Normal", mu="identity"))
        indexed = mk.for_product((1, 2), lambda j: mk.make_normal(mu=j))
        refs = [None, LEBESGUE, mk.power(LEBESGUE, (2,)), mk.superpose(LEBESGUE, LEBESGUE)]
        for m in (walk, pair, indexed):
            for x in (0.3, "ab", ((0.1,), 0.2)):
                with pytest.raises(ShapeError):
                    base_measure(m, x)
                for ref in refs:
                    with pytest.raises(ShapeError):
                        log_density(m, x, wrt=ref)

    @pytest.mark.parametrize("bad", [True, False, "0.5", None, 1j])
    def test_non_real_power_entries_rejected(self, bad):
        m = mk.power(mk.make_normal(), (3,))
        for wrt in (None, mk.power(LEBESGUE, (3,))):
            with pytest.raises(ShapeError):
                log_density(m, (0.5, bad, 1.0), wrt=wrt)

    def test_int_and_float_entries_accepted(self):
        m = mk.power(mk.make_normal(), (2,))
        assert log_density(m, (0, 1.0)) == -0.5


class TestDepth:
    @staticmethod
    def nests():
        pushed = mk.make_normal()
        for _ in range(2000):
            pushed = mk.Pushforward(mk.forward_map(1.0, 0.0), pushed)
        paired, x = mk.make_normal(), 0.1
        for _ in range(1500):
            paired, x = mk.product(paired, mk.make_normal()), (x, 0.1)
        return [(pushed, 0.1), (paired, x)]

    def test_too_deep_is_a_measure_error_at_the_public_boundary(self):
        for m, x in self.nests():
            for call in (lambda: log_density(m, x), lambda: log_density(m, x, wrt=LEBESGUE),
                         lambda: mk.sample(m, 1), lambda: base_measure(m, x)):
                with pytest.raises(mk.DepthError, match="nested too deeply"):
                    call()
            assert issubclass(mk.DepthError, mk.MeasureError)


class TestSpecialValuesAtTheBoundary:
    def test_engine_results_come_out_as_log_weight_constants(self):
        undefined = log_density(Dirac(0), 0, wrt=Dirac(1))
        assert isinstance(undefined, mk.LogWeight)
        assert undefined.is_undefined and undefined == mk.UNDEFINED
        pos = log_density(COUNTING, 5, wrt=Dirac(0))
        assert pos.is_pos_inf and pos == mk.POS_INF
        neg = log_density(Dirac(0), 5, wrt=COUNTING)
        assert neg.is_neg_inf and neg == mk.NEG_INF
        both_vanish = log_density(scale(-math.inf, mk.make_normal()),
                                  0.5, wrt=scale(-math.inf, mk.Uniform01()))
        assert both_vanish.is_undefined
        assert log_density(mk.Uniform01(), 2.0).is_neg_inf
