"""Products, powers, bind, superposition, pointwise products, pushforwards."""

import math
import random

import pytest

import measurekit as mk
from measurekit import (
    COUNTING,
    LEBESGUE,
    Dirac,
    Likelihood,
    UnrelatedPrimitivesError,
    base_measure,
    log_density,
    loglik,
    sample,
    scale,
)
from measurekit.rng import derive_key

from oracles import dec_logaddexp, dec_normal_logpdf

LOG_HALF = math.log(0.5)
LEB2 = mk.product(LEBESGUE, LEBESGUE)


class TestProduct:
    def test_two_standard_normals_at_origin(self):
        m = mk.product(mk.make_normal(), mk.make_normal())
        got = log_density(m, (0.0, 0.0), wrt=LEB2)
        expected = float(dec_normal_logpdf(0.0) * 2)
        assert got.value == pytest.approx(expected, abs=1e-14)
        assert got.value == pytest.approx(-1.8378770664093453, abs=1e-15)

    def test_dirac_product_data_term(self):
        assert log_density(mk.product(Dirac(1), Dirac(2)), (1, 2)) == 0.0

    def test_factorization_against_component_references(self):
        rnd = random.Random(8)
        for _ in range(50):
            mu = mk.make_normal(mu=rnd.uniform(-1, 1), sigma=rnd.uniform(0.5, 2))
            nu = mk.Exponential(rnd.uniform(0.5, 2))
            alpha = mk.make_normal(mu=rnd.uniform(-1, 1), sigma=rnd.uniform(0.5, 2))
            beta = LEBESGUE
            x, y = rnd.uniform(-2, 2), rnd.uniform(0.01, 3)
            joint = log_density(mk.product(mu, nu), (x, y), wrt=mk.product(alpha, beta))
            split = log_density(mu, x, wrt=alpha) + log_density(nu, y, wrt=beta)
            assert joint.value == pytest.approx(split.value, abs=1e-12)

    def test_point_shape_validated_eagerly(self):
        m = mk.product(mk.make_normal(), mk.make_normal())
        with pytest.raises(mk.ShapeError):
            log_density(m, (1.0, 2.0, 3.0))
        with pytest.raises(mk.ShapeError):
            log_density(m, 1.0)


class TestPower:
    def test_three_fold_power_at_origin(self):
        m = mk.power(mk.make_normal(), (3,))
        got = log_density(m, (0.0, 0.0, 0.0), wrt=mk.power(LEBESGUE, (3,)))
        assert got.value == pytest.approx(float(dec_normal_logpdf(0.0) * 3), abs=1e-14)

    def test_unit_power_matches_the_base_measure_everywhere(self):
        rnd = random.Random(9)
        for _ in range(25):
            m = mk.make_normal(mu=rnd.uniform(-1, 1), sigma=rnd.uniform(0.5, 2))
            x = rnd.uniform(-3, 3)
            unit = log_density(mk.power(m, (1,)), (x,), wrt=mk.power(LEBESGUE, (1,)))
            direct = log_density(m, x, wrt=LEBESGUE)
            assert unit.value == pytest.approx(direct.value, abs=1e-13)

    def test_base_weight_evaluated_once(self):
        m = mk.power(mk.make_normal(mu=0.3, sigma=1.7), (1000,))
        xs = tuple(0.1 * (i % 7) for i in range(1000))
        mk.reset_weight_evaluations()
        log_density(m, xs, wrt=mk.power(LEBESGUE, (1000,)))
        assert mk.weight_evaluations() == 1

    def test_matrix_shape_points(self):
        m = mk.power(mk.make_normal(), (2, 3))
        xs = ((0.0, 0.1, 0.2), (0.3, 0.4, 0.5))
        got = log_density(m, xs, wrt=mk.power(LEBESGUE, (2, 3)))
        expected = sum(
            log_density(mk.make_normal(), x, wrt=LEBESGUE).value
            for row in xs
            for x in row
        )
        assert got.value == pytest.approx(expected, abs=1e-12)

    def test_power_vs_flat_product_reference(self):
        m = mk.power(mk.make_normal(), (2,))
        got = log_density(m, (0.5, -0.5), wrt=LEB2)
        expected = log_density(m, (0.5, -0.5), wrt=mk.power(LEBESGUE, (2,)))
        assert got.value == pytest.approx(expected.value, abs=1e-13)

    def test_empty_shape_rejected(self):
        with pytest.raises(ValueError):
            mk.power(mk.make_normal(), ())

    def test_base_per_coordinate_when_child_base_depends_on_the_point(self):
        coin = mk.bind(
            mk.Bernoulli(0.5), lambda a: mk.make_normal() if a == 1 else mk.Poisson(2.0)
        )
        m = mk.power(coin, (2,))
        x = ((0, 2), (1, 0.3))
        normal_weight = -0.5 * math.log(2.0 * math.pi)
        assert base_measure(m, x) == mk.Product((
            mk.Product((COUNTING, COUNTING)),
            mk.Product((COUNTING, mk.Weighted(normal_weight, LEBESGUE))),
        ))
        ref = scale(1.0, mk.Product((
            mk.Product((COUNTING, COUNTING)), mk.Product((COUNTING, LEBESGUE))
        )))
        got = log_density(m, x, wrt=ref)
        expected = (
            math.log(0.5) + (2.0 * math.log(2.0) - 2.0 - math.log(2.0))
            + math.log(0.5) + float(dec_normal_logpdf(0.3)) - 1.0
        )
        assert got.value == pytest.approx(expected, abs=1e-12)
        assert round(got.value, 3) == -4.657

    def test_point_dependent_bases_nest_by_shape(self):
        coin = mk.bind(
            mk.Bernoulli(0.5), lambda a: mk.make_normal() if a == 1 else mk.Poisson(2.0)
        )
        x = (((0, 2), (1, 0.3)), ((1, -0.2), (0, 1)))

        def ref(xi):
            return mk.product(COUNTING, COUNTING if xi[0] == 0 else LEBESGUE)

        got = log_density(mk.power(coin, (2, 2)), x,
                          wrt=mk.Product(tuple(mk.Product(tuple(ref(xi) for xi in row)) for row in x)))
        expected = sum(log_density(coin, xi, wrt=ref(xi)).value for row in x for xi in row)
        assert got.value == pytest.approx(expected, abs=1e-12)

    def test_static_child_base_is_computed_once(self):
        calls = []

        class Counted(mk.Normal):
            def base_at(self, x):
                calls.append(x)
                return super().base_at(x)

        m = mk.power(Counted(0.0, 2.0), (50,))
        base = base_measure(m, tuple(0.1 * i for i in range(50)))
        assert len(calls) == 1
        assert base == mk.Weighted(
            50 * (-math.log(2.0) - 0.5 * math.log(2.0 * math.pi)), mk.power(LEBESGUE, (50,))
        )


# One measure per catalog family, for the iid block path.
FAMILY_CHILDREN = (
    mk.Normal(0.3, 1.7),
    mk.make_negbinomial(r=3, p=0.4),
    mk.Uniform01(),
    mk.Bernoulli(0.3),
    mk.Poisson(45.0),
    mk.Exponential(2.0),
    Dirac(1.5),
)
BLOCK_SHAPES = ((1,), (3,), (1000,), (2, 500))
BLOCK_SEEDS = (0, 7, 2**63 - 5, 2**64 + 11, -3)


def _flatten(x, shape):
    return list(x) if len(shape) == 1 else [xi for row in x for xi in _flatten(row, shape[1:])]


def _bits(values):
    return [(type(v), repr(v)) for v in values]


class TestPowerBlocks:
    """A Power hands its child whole coordinate blocks; bits match the
    per-coordinate methods."""

    @pytest.mark.parametrize("child", FAMILY_CHILDREN, ids=lambda c: type(c).__name__)
    def test_draws_match_per_coordinate_draws(self, child):
        for shape in BLOCK_SHAPES:
            n = math.prod(shape)
            for seed in BLOCK_SEEDS:
                x = sample(mk.power(child, shape), seed)
                assert len(x) == shape[0]
                want = [child._sample_normalized(derive_key(seed, i)) for i in range(n)]
                assert _bits(_flatten(x, shape)) == _bits(want)

    @pytest.mark.parametrize("child", FAMILY_CHILDREN, ids=lambda c: type(c).__name__)
    def test_densities_are_the_left_to_right_sum(self, child):
        for shape in BLOCK_SHAPES:
            m = mk.power(child, shape)
            x = sample(m, 11)
            data = 0.0
            for xi in _flatten(x, shape):
                data += child.log_density_at(xi)
            assert repr(log_density(m, x).value) == repr(data)
            if isinstance(child, Dirac):
                continue
            kind = child.base_at(0.5)
            kind = kind.base if isinstance(kind, mk.Weighted) else kind
            base = base_measure(m, x)
            weight = base.logweight if isinstance(base, mk.Weighted) else None
            got = log_density(m, x, wrt=mk.power(kind, shape)).value
            assert repr(got) == repr(data if weight is None else data + weight)

    @pytest.mark.parametrize("child", FAMILY_CHILDREN, ids=lambda c: type(c).__name__)
    @pytest.mark.parametrize("bad", ["a", True, (1.0, 2.0)], ids=["str", "bool", "tuple"])
    def test_bad_entry_mid_block_raises_the_scalar_error(self, child, bad):
        name = type(child).__name__
        point = [0.5] * 1000
        point[500] = bad
        for m, x in (
            (mk.power(child, (1000,)), tuple(point)),
            (mk.power(child, (2, 500)), (tuple(point[:500]), tuple(point[500:]))),
        ):
            with pytest.raises(mk.ShapeError) as err:
                log_density(m, x)
            assert str(err.value) == f"{name} expects a scalar point, got {bad!r}"

    def test_integer_and_real_subclass_entries_pass_the_check(self):
        class Real(float):
            pass

        m = mk.power(mk.Poisson(3.0), (4,))
        assert log_density(m, (1, 2, Real(3.0), 0)).value == sum(
            mk.Poisson(3.0).log_density_at(k) for k in (1, 2, 3, 0)
        )

    def test_power_of_bind_keeps_its_value(self):
        coin = mk.bind(
            mk.Bernoulli(0.5), lambda a: mk.make_normal() if a == 1 else mk.Poisson(2.0)
        )
        ref = scale(1.0, mk.Product((
            mk.Product((COUNTING, COUNTING)), mk.Product((COUNTING, LEBESGUE))
        )))
        got = log_density(mk.power(coin, (2,)), ((0, 2), (1, 0.3)), wrt=ref)
        assert got.value == -4.6570857137646176


class TestForProduct:
    def test_kernel_applied_once_per_index(self):
        calls = []

        def kernel(j):
            calls.append(j)
            return mk.make_normal(mu=j, sigma=2.0)

        m = mk.for_product(range(20), kernel)
        ys = tuple(0.5 * j for j in range(20))
        mk.reset_weight_evaluations()
        got = log_density(m, ys, wrt=mk.power(LEBESGUE, (20,)))
        assert len(calls) == 20
        assert mk.weight_evaluations() == 1
        expected = sum(
            log_density(mk.make_normal(mu=j, sigma=2.0), y, wrt=LEBESGUE).value
            for j, y in enumerate(ys)
        )
        assert got.value == pytest.approx(expected, abs=1e-12)

    def test_sampling_applies_the_kernel_once_per_index(self):
        calls = []

        def kernel(j):
            calls.append(j)
            return mk.make_normal(mu=0.01 * j, sigma=2.0)

        draw = sample(mk.for_product(range(100), kernel), 3)
        assert calls == list(range(100))
        assert draw == tuple(kernel(j)._sample_normalized(derive_key(3, j)) for j in range(100))

    def test_kernel_applied_once_per_index_over_the_node_lifetime(self):
        # The factors depend on their index alone, so however often the node
        # is evaluated or drawn from, each index's measure is built once.
        calls = []

        def kernel(j):
            calls.append(j)
            return mk.make_normal(mu=0.1 * j, sigma=1.5)

        n = 12
        m = mk.for_product(range(n), kernel)
        lebesgue = mk.power(LEBESGUE, (n,))
        for k in range(4):
            ys = tuple(0.2 * j - 0.3 * k for j in range(n))
            assert log_density(m, ys, wrt=lebesgue).is_finite
            assert log_density(m, ys).is_finite
            assert len(sample(m, k)) == n
        assert calls == list(range(n))

    def test_sampling_refuses_a_kernel_of_non_unit_mass(self):
        kernel = lambda j: scale(-0.5, mk.make_normal()) if j == 7 else mk.make_normal()
        with pytest.raises(mk.NotProbabilityError):
            sample(mk.for_product(range(10), kernel), 3)
        with pytest.raises(mk.NotProbabilityError):
            sample(mk.for_product(range(10), lambda j: LEBESGUE if j == 2 else mk.make_normal()), 3)

    def test_each_coordinate_at_its_mean(self):
        m = mk.for_product((1, 2, 3), lambda j: mk.make_normal(mu=j, sigma=1))
        assert log_density(m, (1.0, 2.0, 3.0)) == 0.0

    def test_matches_nested_binary_products(self):
        k = lambda j: mk.make_normal(mu=j, sigma=1)
        flat = mk.for_product((1, 2, 3), k)
        nested = mk.product(k(1), mk.product(k(2), k(3)))
        for point in [(0.0, 0.0, 0.0), (1.5, -2.0, 3.25)]:
            a = log_density(flat, point, wrt=mk.power(LEBESGUE, (3,)))
            b = log_density(
                nested,
                (point[0], (point[1], point[2])),
                wrt=mk.product(LEBESGUE, LEB2),
            )
            assert a.value == pytest.approx(b.value, abs=1e-12)

    def test_regression_shape(self):
        xs = (0.5, 1.0, 1.5, 2.0)
        beta, sigma = 2.0, 0.75
        m = mk.for_product(range(4), lambda j: mk.make_normal(mu=beta * xs[j], sigma=sigma))
        ys = (1.2, 2.1, 2.9, 4.2)
        got = log_density(m, ys, wrt=mk.power(LEBESGUE, (4,)))
        expected = sum(
            log_density(mk.make_normal(mu=beta * x, sigma=sigma), y, wrt=LEBESGUE).value
            for x, y in zip(xs, ys)
        )
        assert got.value == pytest.approx(expected, abs=1e-12)


class TestBind:
    def test_kernel_applied_once_per_evaluation(self):
        calls = []

        def kernel(v):
            calls.append(v)
            return mk.make_normal(mu=v)

        m = mk.bind(mk.make_normal(), kernel)
        log_density(m, (0.5, 1.0), wrt=LEB2)
        assert len(calls) == 1
        calls.clear()
        log_density(m, (0.5, 1.0))
        assert len(calls) == 1

    def test_dirac_bind_data_term(self):
        m = mk.bind(Dirac(2), lambda x: mk.make_normal(mu=x, sigma=1))
        assert log_density(m, (2, 2)) == 0.0

    def test_gaussian_bind_against_plane(self):
        m = mk.bind(mk.make_normal(), lambda x: mk.make_normal(mu=x, sigma=1))
        got = log_density(m, (0.0, 0.0), wrt=LEB2)
        assert got.value == pytest.approx(float(dec_normal_logpdf(0.0) * 2), abs=1e-14)

    def test_split_seed_sampling_contract(self):
        k = lambda x: mk.make_normal(mu=x, sigma=1)
        m = mk.bind(mk.make_normal(), k)
        for seed in (0, 7, 123456):
            x, y = sample(m, seed)
            assert x == sample(mk.make_normal(), derive_key(seed, 0))
            assert y == sample(k(x), derive_key(seed, 1))


class TestSuperpose:
    def test_two_normal_mixture_density(self):
        m = mk.superpose(mk.make_normal(), mk.make_normal(mu=1))
        got = log_density(m, 0.0, wrt=LEBESGUE)
        expected = float(dec_logaddexp(-0.9189385332046727, -1.4189385332046727))
        assert got.value == pytest.approx(expected, abs=1e-13)
        assert got.value == pytest.approx(-0.444862, abs=1e-6)

    def test_equal_bases_reduce_to_average(self):
        m = mk.superpose(mk.make_normal(), mk.make_normal())
        for x in (0.0, 0.5, -2.0):
            assert log_density(m, x).value == pytest.approx(
                log_density(mk.make_normal(), x).value, abs=1e-15
            )

    def test_spike_and_slab(self):
        ss = mk.superpose(
            scale(LOG_HALF, Dirac(0)), scale(LOG_HALF, mk.make_normal())
        )
        assert log_density(ss, 0, wrt=COUNTING).value == pytest.approx(LOG_HALF, abs=1e-15)
        got = log_density(ss, 1.0, wrt=LEBESGUE)
        expected = LOG_HALF + log_density(mk.make_normal(), 1.0, wrt=LEBESGUE).value
        assert got.value == pytest.approx(expected, abs=1e-15)
        assert log_density(ss, 0.0, wrt=LEBESGUE).is_undefined

    def test_against_own_base_consistency(self):
        mixtures = [
            mk.superpose(mk.make_normal(), mk.Exponential(1.0)),
            mk.superpose(
                mk.make_normal(), mk.Exponential(1.0), scale(LOG_HALF, mk.make_normal(mu=1, sigma=2))
            ),
        ]
        for m in mixtures:
            for x in (0.2, 1.0, 3.5):
                own = log_density(m, x)
                alpha_beta = base_measure(m, x)
                via_engine = log_density(m, x, wrt=alpha_beta)
                assert own.value == pytest.approx(via_engine.value, abs=1e-12)

    def test_all_components_unrelated_raises(self):
        m = mk.superpose(mk.make_normal(), mk.make_normal(mu=3))
        with pytest.raises(UnrelatedPrimitivesError):
            log_density(m, 0, wrt=COUNTING)

    def test_grouping_gives_one_flat_sum(self):
        a, b, c = mk.make_normal(), mk.Exponential(1.0), mk.Uniform01()
        flat = mk.superpose(a, b, c)
        assert flat.components == (a, b, c)
        assert mk.superpose(a, mk.superpose(b, c)) == mk.superpose(mk.superpose(a, b), c) == flat
        assert mk.Superposition((a, mk.Superposition((b, c)))) == flat

    def test_ten_thousand_components(self):
        rnd = random.Random(10_000)
        weights = [rnd.random() for _ in range(10_000)]
        total = math.fsum(weights)
        parts = [(math.log(w / total), rnd.uniform(-5, 5), rnd.uniform(0.5, 2)) for w in weights]
        m = mk.superpose(*[scale(lw, mk.Normal(mu, sigma)) for lw, mu, sigma in parts])
        for x in (-3.0, 0.25, 4.0):
            terms = [
                lw - math.log(sigma) - 0.5 * math.log(2 * math.pi) - 0.5 * ((x - mu) / sigma) ** 2
                for lw, mu, sigma in parts
            ]
            top = max(terms)
            reference = top + math.log(math.fsum(math.exp(t - top) for t in terms))
            assert log_density(m, x, wrt=LEBESGUE).value == pytest.approx(reference, rel=1e-12)
        draws = [sample(m, seed) for seed in range(5)]
        assert all(math.isfinite(d) for d in draws)
        assert draws == [sample(m, seed) for seed in range(5)]

    def test_a_draw_reads_each_component_mass_once(self):
        reads = []

        class Counted(mk.Normal):
            def log_total_mass(self):
                reads.append(self.mu)
                return 0.0

        m = mk.superpose(*[scale(-math.log(8), Counted(float(j), 1.0)) for j in range(8)])
        for draw in (m._sample_normalized, lambda seed: sample(m, seed)):
            for seed in range(5):
                reads.clear()
                draw(seed)
                assert sorted(reads) == [float(j) for j in range(8)]

    def test_two_component_draws_are_pinned(self):
        # One uniform from derive_key(seed, 0) picks the component, which then
        # draws from derive_key(seed, 1).
        ss = mk.superpose(scale(math.log(0.3), Dirac(0.0)), scale(math.log(0.7), mk.Normal(1.0, 2.0)))
        assert [sample(ss, seed) for seed in range(12)] == [
            3.939854643471539, -0.5239488713882012, 2.859036945818716, 2.660830311572372,
            3.2799524409103404, -1.2007342592342245, -0.16151892023515235, 1.4297642837227618,
            0.0, 0.34096683545320383, 0.0, -0.6237086073413372,
        ]
        counts = mk.superpose(
            scale(math.log(0.6), mk.Poisson(2.0)),
            scale(math.log(0.4), mk.make_negbinomial(r=3, p=0.25)),
        )
        assert [sample(counts, seed) for seed in range(6)] == [17, 1, 2, 9, 15, 6]


class TestScale:
    def test_zero_weight_is_identity(self):
        m = mk.make_normal()
        assert scale(0.0, m) is m

    def test_half_mass(self):
        got = mk.verify.mass(scale(LOG_HALF, mk.make_normal()), mk.verify.Interval(-8, 8))
        assert got == pytest.approx(0.5, abs=1e-6)

    def test_additivity_is_structural(self):
        m = mk.make_normal()
        assert scale(-0.2, scale(-0.3, m)) == scale(-0.5, m)

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            scale(math.inf, mk.make_normal())
        with pytest.raises(ValueError):
            scale(math.nan, mk.make_normal())


class TestLikelihood:
    def _kernel(self):
        return mk.make_kernel("Normal", mu="identity", sigma="const:1")

    def test_data_at_mean(self):
        lik = Likelihood(self._kernel(), 0.5)
        assert loglik(lik, 0.5).value == 0.0

    def test_data_off_mean(self):
        lik = Likelihood(self._kernel(), 0.5)
        assert loglik(lik, 0.0).value == -0.125

    def test_negbinomial_kernel_shares_catalog_value(self):
        k = lambda theta: mk.make_negbinomial(r=theta, p=0.75)
        lik = Likelihood(k, 2)
        assert loglik(lik, 10) == log_density(mk.make_negbinomial(r=10, p=0.75), 2)


class TestPointwiseProduct:
    def _lik(self, data=0.5):
        return Likelihood(mk.make_kernel("Normal", mu="identity", sigma="const:1"), data)

    def test_posterior_data_term(self):
        post = mk.pointwise_product(mk.make_normal(), self._lik())
        assert log_density(post, 0.0).value == -0.125

    def test_base_measure_is_preserved(self):
        post = mk.pointwise_product(mk.make_normal(), self._lik())
        for theta in (0.0, 1.0, -2.5):
            assert base_measure(post, theta) == base_measure(mk.make_normal(), theta)

    def test_increment_is_exactly_the_log_likelihood(self):
        post = mk.pointwise_product(mk.make_normal(), self._lik())
        for theta in (0.0, 0.3, -1.7, 2.2):
            lhs = log_density(post, theta).value
            rhs = (log_density(mk.make_normal(), theta) + loglik(self._lik(), theta)).value
            assert lhs == rhs

    def test_flat_kernel_gives_constant_shift(self):
        lik = Likelihood(mk.make_kernel("Normal", mu="const:0", sigma="const:1"), 0.5)
        post = mk.pointwise_product(mk.make_normal(), lik)
        shifts = {
            round(log_density(post, t).value - log_density(mk.make_normal(), t).value, 12)
            for t in (-2.0, -0.5, 0.0, 1.0, 2.0)
        }
        assert len(shifts) == 1


class TestDensityClosures:
    def test_self_derivative_is_one(self):
        rnd = random.Random(3)
        for _ in range(20):
            m = mk.make_normal(mu=rnd.uniform(-1, 1), sigma=rnd.uniform(0.5, 2))
            x = rnd.uniform(-3, 3)
            assert mk.rn_derivative(m, m, log=False)(x) == 1.0
            assert mk.rn_derivative(m, m)(x) == 0.0

    def test_normal_density_value(self):
        f = mk.rn_derivative(mk.make_normal(), LEBESGUE, log=False)
        assert f(0.0) == pytest.approx(0.3989422804014327, abs=1e-15)

    def test_derivative_of_integral_recovers_density(self):
        f = lambda x: 1 + x * x
        closure = mk.rn_derivative(mk.integrate(f, mk.Uniform01()), mk.Uniform01(), log=False)
        rnd = random.Random(17)
        for _ in range(100):
            x = rnd.random()
            assert closure(x) == pytest.approx(f(x), abs=1e-12)


class TestIntegralMeasures:
    def test_unit_density_reproduces_the_reference(self):
        m = mk.integrate(lambda x: 1.0, mk.Uniform01())
        for x in (0.1, 0.9, 2.0):
            assert (
                log_density(m, x, wrt=LEBESGUE) == log_density(mk.Uniform01(), x, wrt=LEBESGUE)
            )

    def test_constant_density_mass(self):
        m = mk.integrate(lambda x: 2.0, LEBESGUE)
        got = mk.verify.mass(m, mk.verify.Interval(0.0, 3.0))
        assert got == pytest.approx(6.0, abs=1e-6)

    def test_negative_density_rejected_at_evaluation(self):
        m = mk.integrate(lambda x: -1.0, LEBESGUE)
        with pytest.raises(ValueError, match="negative"):
            log_density(m, 0.0)

    def test_log_space_round_trip_is_exact(self):
        ell = lambda x: -0.5 * x * x
        m = mk.integrate_exp(ell, LEBESGUE)
        closure = mk.rn_derivative(m, LEBESGUE)
        for x in (-2.0, 0.0, 0.7, 3.1):
            assert closure(x).value == ell(x)

    def test_measure_reconstruction_law(self):
        # integrating a measure's own log-density over its reference gives it back
        mu = mk.Normal(0.3, 1.7)
        recon = mk.integrate_exp(mk.rn_derivative(mu, LEBESGUE), LEBESGUE)
        rnd = random.Random(21)
        for _ in range(100):
            x = rnd.uniform(-5, 5)
            assert log_density(recon, x, wrt=LEBESGUE).value == pytest.approx(
                log_density(mu, x, wrt=LEBESGUE).value, abs=1e-12
            )


class TestAffineMap:
    def test_forward_and_inverse_are_mutual(self):
        t = mk.forward_map(2.0, 1.0)
        for z in (-1.0, 0.0, 2.5):
            assert t.to_source(t.from_source(z)) == pytest.approx(z, abs=1e-15)
        ti = t.inverse()
        for x in (-1.0, 0.0, 2.5):
            assert ti.from_source(x) == pytest.approx(t.to_source(x), abs=1e-15)

    def test_matrix_round_trip(self):
        t = mk.forward_map(((2.0, 0.0), (0.5, 1.5)), (1.0, -1.0))
        z = (0.3, -0.7)
        x = t.from_source(z)
        back = t.to_source(x)
        assert all(a == pytest.approx(b, abs=1e-14) for a, b in zip(back, z))
        assert t.log_det_forward() == pytest.approx(math.log(2.0) + math.log(1.5), abs=1e-15)

    def test_matrix_inversion_round_trips(self):
        L = ((2.0, 0.0), (0.5, 1.5))
        b = (1.0, -1.0)
        z = (0.3, -0.7)
        for t in (mk.forward_map(L, b), mk.inverse_map(L, b)):
            ti = t.inverse()
            x = t.from_source(z)
            back = ti.from_source(x)
            assert all(u == pytest.approx(v, abs=1e-14) for u, v in zip(back, z))
            assert ti.log_det_forward() == pytest.approx(-t.log_det_forward(), abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            mk.forward_map(0.0, 1.0)
        with pytest.raises(ValueError):
            mk.forward_map(((1.0, 2.0), (0.0, 1.0)), (0.0, 0.0))  # upper entry
        with pytest.raises(ValueError):
            mk.forward_map(((1.0, 0.0), (0.0, -1.0)), (0.0, 0.0))  # bad diagonal
        with pytest.raises(ValueError):
            mk.AffineMap("sideways", 1.0, 0.0)


class TestPushforward:
    def test_forward_scalar_matches_analytic_normal(self):
        m = mk.pushforward(mk.forward_map(2.0, 1.0), mk.make_normal())
        got = log_density(m, 1.0, wrt=LEBESGUE)
        assert got.value == pytest.approx(float(dec_normal_logpdf(1.0, 1.0, 2.0)), abs=1e-14)
        assert got.value == pytest.approx(-1.6120857137646181, abs=1e-15)

    def test_no_jacobian_in_own_base_density(self):
        t = mk.forward_map(3.0, -2.0)
        m = mk.pushforward(t, mk.make_normal())
        rnd = random.Random(4)
        for _ in range(50):
            z = rnd.uniform(-3, 3)
            assert log_density(m, t.from_source(z)).value == pytest.approx(
                log_density(mk.make_normal(), z).value, abs=1e-12
            )

    def test_forward_inverse_duality(self):
        fwd = mk.pushforward(mk.forward_map(2.0, 1.0), mk.make_normal())
        inv = mk.pushforward(mk.inverse_map(0.5, 1.0), mk.make_normal())
        rnd = random.Random(5)
        for _ in range(100):
            x = rnd.uniform(-8, 10)
            a = log_density(fwd, x, wrt=LEBESGUE).value
            b = log_density(inv, x, wrt=LEBESGUE).value
            assert a == pytest.approx(b, abs=1e-10)

    def test_round_trip_through_the_inverse_map(self):
        t = mk.forward_map(2.0, 1.0)
        m = mk.pushforward(t.inverse(), mk.pushforward(t, mk.make_normal()))
        rnd = random.Random(6)
        for _ in range(50):
            x = rnd.uniform(-4, 4)
            assert log_density(m, x, wrt=LEBESGUE).value == pytest.approx(
                log_density(mk.make_normal(), x, wrt=LEBESGUE).value, abs=1e-10
            )

    def test_dirac_transports_to_its_image(self):
        t = mk.forward_map(2.0, 1.0)
        assert mk.pushforward(t, Dirac(3.0)) == Dirac(7.0)

    def test_atomic_base_has_no_determinant_factor(self):
        t = mk.forward_map(2.0, 0.0)
        m = mk.pushforward(t, mk.Poisson(3.0))
        assert log_density(m, 4.0, wrt=COUNTING).value == pytest.approx(
            log_density(mk.Poisson(3.0), 2, wrt=COUNTING).value, abs=1e-15
        )

    def test_matrix_case_matches_hand_computed_mvn(self):
        L = ((2.0, 0.0), (0.5, 1.5))
        b = (1.0, -1.0)
        m = mk.pushforward(mk.forward_map(L, b), mk.power(mk.make_normal(), (2,)))
        x = (1.7, 0.3)
        z0 = (x[0] - 1.0) / 2.0
        z1 = (x[1] + 1.0 - 0.5 * z0) / 1.5
        expected = (
            -0.5 * (z0 * z0 + z1 * z1)
            - math.log(2.0 * math.pi)
            - math.log(2.0)
            - math.log(1.5)
        )
        got = log_density(m, x, wrt=mk.power(LEBESGUE, (2,)))
        assert got.value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("t, x, rounded", [
        (mk.forward_map(2.0, -0.5), 10**400, math.inf),
        (mk.inverse_map(2.0, -0.5), -10**400, -math.inf),
        (mk.forward_map(((2.0, 0.0), (0.5, 1.5)), (1.0, -1.0)), (10**400, 0.3), (math.inf, 0.3)),
        (mk.inverse_map(((2.0, 0.0), (0.5, 1.5)), (1.0, -1.0)), (0.3, -10**400), (0.3, -math.inf)),
        (mk.forward_map(((2.0, 0.0), (0.0, 1.0))), (10**400, 0.3), (math.inf, 0.3)),
        (mk.inverse_map(((2.0, 0.0), (0.0, 1.0))), (10**400, 0.3), (math.inf, 0.3)),
    ], ids=["scalar-forward", "scalar-inverse", "matrix-forward", "matrix-inverse",
            "zero-below-diagonal-forward", "zero-below-diagonal-inverse"])
    def test_int_beyond_the_float_range_is_neg_inf_not_error(self, t, x, rounded):
        # Such an int evaluates as the infinity it rounds to.  A zero entry of
        # the map adds nothing to the other coordinate, not 0.0 * inf = NaN.
        if t.is_matrix:
            m = mk.pushforward(t, mk.power(mk.Normal(0.1, 0.8), (2,)))
            wrt = mk.power(LEBESGUE, (2,))
        else:
            m, wrt = mk.pushforward(t, mk.Normal(0.1, 0.8)), LEBESGUE
        for ref in (wrt, None):
            assert log_density(m, x, wrt=ref).is_neg_inf
            assert log_density(m, rounded, wrt=ref).is_neg_inf

    def test_sampling_transports_draws(self):
        t = mk.forward_map(2.0, 1.0)
        m = mk.pushforward(t, mk.make_normal())
        for seed in (1, 2, 3):
            assert sample(m, seed) == t.from_source(sample(mk.make_normal(), seed))

    def test_matrix_round_trip_measure(self):
        t = mk.forward_map(((2.0, 0.0), (0.5, 1.5)), (1.0, -1.0))
        base = mk.power(mk.make_normal(), (2,))
        m = mk.pushforward(t.inverse(), mk.pushforward(t, base))
        ref = mk.power(LEBESGUE, (2,))
        for pt in [(0.4, -1.2), (0.0, 0.0), (2.5, 1.0)]:
            assert log_density(m, pt, wrt=ref).value == pytest.approx(
                log_density(base, pt, wrt=ref).value, abs=1e-10
            )

    def test_power_of_pushforward_factors_once(self):
        pf = mk.pushforward(mk.forward_map(2.0, 1.0), mk.make_normal())
        pp = mk.power(pf, (2,))
        got = log_density(pp, (1.5, 0.0), wrt=mk.power(LEBESGUE, (2,)))
        want = (
            log_density(mk.Normal(1, 2), 1.5, wrt=LEBESGUE).value
            + log_density(mk.Normal(1, 2), 0.0, wrt=LEBESGUE).value
        )
        assert got.value == pytest.approx(want, abs=1e-12)
        mk.reset_weight_evaluations()
        log_density(mk.power(pf, (500,)), tuple([1.0] * 500), wrt=mk.power(LEBESGUE, (500,)))
        assert mk.weight_evaluations() == 1

    def test_weighted_against_pushed_lebesgue(self):
        # 0.5 * lambda and the image of lambda under z -> 2z are the same measure
        half = mk.Weighted(math.log(0.5), LEBESGUE)
        pushed = mk.pushforward(mk.forward_map(2.0, 0.0), LEBESGUE)
        assert log_density(half, 3.0, wrt=pushed).value == pytest.approx(0.0, abs=1e-15)
        assert log_density(pushed, 3.0, wrt=half).value == pytest.approx(0.0, abs=1e-15)


class TestMixtures:
    def test_mixture_normalization(self):
        rnd = random.Random(12)
        for _ in range(5):
            w = rnd.uniform(0.1, 0.9)
            m = mk.superpose(
                scale(math.log(w), mk.make_normal()),
                scale(math.log1p(-w), mk.make_normal(mu=3, sigma=2)),
            )
            assert mk.verify.mass(m, mk.verify.Interval(-14, 20)) == pytest.approx(
                1.0, abs=1e-6
            )

    def test_mixture_sampling_statistics(self):
        m = mk.superpose(
            scale(math.log(0.25), Dirac(0.0)),
            scale(math.log(0.75), mk.make_normal(mu=1)),
        )
        n = 4000
        draws = [sample(m, derive_key(77, i)) for i in range(n)]
        zero_frac = sum(1 for d in draws if d == 0.0) / n
        assert abs(zero_frac - 0.25) < 4.0 * math.sqrt(0.25 * 0.75 / n)


class TestCombinatorSampling:
    def test_product_draws_split_seeds(self):
        m = mk.product(mk.make_normal(), mk.Exponential(2.0))
        for seed in (0, 9, 314):
            x, y = sample(m, seed)
            assert x == sample(mk.make_normal(), derive_key(seed, 0))
            assert y == sample(mk.Exponential(2.0), derive_key(seed, 1))

    def test_power_draws_are_independent_coordinates(self):
        m = mk.power(mk.make_normal(), (3,))
        draw = sample(m, 5)
        assert len(draw) == 3 and len(set(draw)) == 3
        assert draw == sample(m, 5)

    def test_power_matrix_shape(self):
        draw = sample(mk.power(mk.Bernoulli(0.5), (2, 3)), 17)
        assert len(draw) == 2 and all(len(row) == 3 for row in draw)

    def test_for_product_draw(self):
        m = mk.for_product((1, 2, 3), lambda j: Dirac(j * 10))
        assert sample(m, 123) == (10, 20, 30)

    def test_pushforward_of_mixture(self):
        inner = mk.superpose(
            scale(math.log(0.5), mk.make_normal()),
            scale(math.log(0.5), mk.make_normal(mu=4)),
        )
        m = mk.pushforward(mk.forward_map(2.0, 1.0), inner)
        assert sample(m, 3) == sample(m, 3)
        assert mk.verify.mass(m, mk.verify.Interval(-18, 28)) == pytest.approx(
            1.0, abs=1e-6
        )
        analytic = mk.superpose(
            scale(math.log(0.5), mk.Normal(1.0, 2.0)),
            scale(math.log(0.5), mk.Normal(9.0, 2.0)),
        )
        for i in range(41):
            x = -6.0 + 0.5 * i
            assert log_density(m, x, wrt=LEBESGUE).value == pytest.approx(
                log_density(analytic, x, wrt=LEBESGUE).value, abs=1e-12
            )


class TestDiscreteSuperposition:
    def test_two_atom_mixture_mass(self):
        m = mk.superpose(
            scale(math.log(0.5), Dirac(1)), scale(math.log(0.5), Dirac(2))
        )
        got = mk.verify.mass(m, mk.verify.IntegerRange(0, 5))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_atom_weights_against_counting(self):
        m = mk.superpose(
            scale(math.log(0.25), Dirac(1)), scale(math.log(0.75), Dirac(2))
        )
        assert log_density(m, 1, wrt=COUNTING).value == pytest.approx(
            math.log(0.25), abs=1e-15
        )
        assert log_density(m, 2, wrt=COUNTING).value == pytest.approx(
            math.log(0.75), abs=1e-15
        )
        assert log_density(m, 3, wrt=COUNTING).is_neg_inf


class TestSuperposedReferences:
    def test_doubled_counting_reference_paths_agree(self):
        # d(Dirac)/d(Counting + Counting) via the componentwise rule ...
        doubled = mk.superpose(COUNTING, COUNTING)
        direct = log_density(Dirac(3), 3, wrt=doubled)
        assert direct.value == pytest.approx(-math.log(2.0), abs=1e-15)
        # ... and via the fixed-point classification inside a wrapper.
        wrapped = log_density(
            mk.power(Dirac(3), (2,)), (3, 3), wrt=mk.power(doubled, (2,))
        )
        assert wrapped.value == pytest.approx(-2.0 * math.log(2.0), abs=1e-15)

    def test_doubled_lebesgue_inside_pushforward(self):
        inner = mk.superpose(mk.make_normal(), mk.make_normal(mu=4))
        m = mk.pushforward(mk.forward_map(2.0, 1.0), inner)
        analytic = mk.superpose(mk.Normal(1.0, 2.0), mk.Normal(9.0, 2.0))
        for x in (-3.0, 1.0, 9.0, 14.0):
            assert log_density(m, x, wrt=LEBESGUE).value == pytest.approx(
                log_density(analytic, x, wrt=LEBESGUE).value, abs=1e-12
            )


class TestDistributivity:
    def test_product_distributes_over_superposition(self):
        rnd = random.Random(13)
        eta = LEB2
        for _ in range(100):
            a = mk.make_normal(mu=rnd.uniform(-1, 1), sigma=rnd.uniform(0.5, 2))
            g = mk.make_normal(mu=rnd.uniform(-1, 1), sigma=rnd.uniform(0.5, 2))
            d = mk.Exponential(rnd.uniform(0.5, 2))
            p = (rnd.uniform(-2, 2), rnd.uniform(0.05, 3))
            left = log_density(mk.product(a, mk.superpose(g, d)), p, wrt=eta)
            right = log_density(
                mk.superpose(mk.product(a, g), mk.product(a, d)), p, wrt=eta
            )
            assert left.value == pytest.approx(right.value, abs=1e-12)
            q = (p[1], p[0])
            left2 = log_density(mk.product(mk.superpose(g, d), a), q, wrt=eta)
            right2 = log_density(
                mk.superpose(mk.product(g, a), mk.product(d, a)), q, wrt=eta
            )
            assert left2.value == pytest.approx(right2.value, abs=1e-12)


def _density_or_error(mu, x, nu):
    try:
        return log_density(mu, x, wrt=nu)
    except (mk.MeasureError, ValueError) as exc:  # a kernel may reject its input
        return type(exc)


_WALK = mk.chain(mk.make_kernel("Normal", mu="identity"), mk.Normal())


class TestPowerAgainstProduct:
    """A power against a product ends by the product's rule read negated, so
    the two orders must give exactly opposite values (undefined matching
    undefined), or raise the same type of error."""

    SCALAR = (
        (
            mk.superpose(mk.Normal(-1.0, 1.0), mk.Normal(1.0, 0.5)),
            mk.superpose(scale(math.log(0.3), Dirac(0.0)), scale(math.log(0.7), mk.Normal(0.2, 1.3))),
            LEBESGUE,
            scale(0.7, LEBESGUE),
            mk.Normal(0.3, 1.7),
            Dirac(0.0),
            mk.Poisson(2.0),
            COUNTING,
        ),
        ((0.0, 0.0), (0.0, 1.5), (-0.7, 2), (3, 0.0)),
    )
    PAIR = (
        (
            mk.bind(mk.Normal(), lambda x: mk.Normal(x, 1.0)),
            mk.bind(mk.Exponential(1.3), mk.make_kernel("Poisson", rate="affine:1.2:0.7")),
            LEB2,
            mk.power(LEBESGUE, (2,)),
            mk.product(LEBESGUE, COUNTING),
        ),
        (((0.5, 1), (1.0, 2)), ((0.5, 1.5), (-1.0, 0)), ((2, 3), (0.25, 1))),
    )
    CHAIN = (
        (_WALK, mk.power(LEBESGUE, (3,)), mk.power(mk.Normal(), (3,))),
        (((0.1, -0.2, 0.4), (1.0, 1.5, 0.5)), ((0.0, 0.0, 0.0), (2, -1, 0.25))),
    )

    @pytest.mark.parametrize("factors, points", [SCALAR, PAIR, CHAIN], ids=["scalar", "pair", "chain"])
    def test_both_orders_agree(self, factors, points):
        outcomes = 0
        values = 0
        for a in factors:
            for b in factors:
                for c in factors:
                    mu, nu = mk.power(a, (2,)), mk.product(b, c)
                    for x in points:
                        f, g = _density_or_error(mu, x, nu), _density_or_error(nu, x, mu)
                        if isinstance(f, type) or isinstance(g, type):
                            assert f is g, (mu, nu, x, f, g)
                        else:
                            assert f == -g, (mu, nu, x, f, g)
                            values += 1
                        outcomes += 1
        assert values >= outcomes / 4


def _left_to_right(terms):
    total = 0.0
    for t in terms:
        total += t
    return total


def test_affine_and_reference_sums_add_left_to_right():
    # Left to right, 1e16 + 1.0 rounds to 1e16, so the last row is 0.0; the
    # builtin `sum` of Python 3.12 and later compensates and gives 1.0.  On
    # earlier versions `sum` adds left to right, so this passes either way.
    z = (1e16, 1.0, -1e16)
    assert math.fsum(z) == 1.0 and _left_to_right(z) == 0.0
    tri = ((1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (1.0, 1.0, 1.0))
    assert mk.forward_map(tri).from_source(z) == (1e16, 1e16, 0.0)  # by `_matvec`
    assert mk.inverse_map(tri).to_source(z) == (1e16, 1e16, 0.0)
    # The triangular solve subtracts the same left sum: x3 - (1e16 + 1.0 - 1e16).
    last = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (1.0, 1.0, 1.0, 1.0))
    assert mk.forward_map(last).to_source(z + (0.0,)) == z + (0.0,)
    # Log-determinants and the reference scales of a product of pushforwards.
    factors = (2.0 ** 1000, 1.0 + 2.0 ** -40, 2.0 ** -1000)
    logs = [math.log(v) for v in factors]
    assert _left_to_right(logs) != math.fsum(logs)
    diagonal = tuple(tuple(v if i == j else 0.0 for j in range(3)) for i, v in enumerate(factors))
    assert mk.forward_map(diagonal).log_det_forward() == _left_to_right(logs)
    scaled = [mk.pushforward(mk.forward_map(v), LEBESGUE) for v in factors]
    want = _left_to_right(m.reference_class()[1] for m in scaled)
    assert mk.Product(tuple(scaled)).reference_class() == ("lebesgue", want)
