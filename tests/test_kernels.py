"""Kernels, Markov chains, reproducible chain sampling, prefix densities."""

import itertools
import math
import statistics

import pytest

import measurekit as mk
from measurekit import (
    LEBESGUE,
    Dirac,
    NotProbabilityError,
    chain,
    chain_logdensity,
    log_density,
    make_kernel,
    sample,
    sample_chain,
)

WALK_PREFIX = (-0.4931543737034523, -0.5661895116186417, -1.3286977670590228)
WALK_VALUE = -0.4149771036439342


def gaussian_walk():
    return chain(make_kernel("Normal", mu="identity"), mk.make_normal(mu=0.0))


class TestMakeKernel:
    def test_mean_identity_scale_sqrt(self):
        k = make_kernel("Normal", mu="identity", sigma="sqrt")
        assert mk.apply_kernel(k, 4) == mk.Normal(mu=4.0, sigma=2.0)

    def test_constant_scale(self):
        k = make_kernel("Normal", mu="identity", sigma="const:1")
        assert mk.apply_kernel(k, 0) == mk.Normal(mu=0.0, sigma=1.0)

    def test_domain_error_propagates(self):
        k = make_kernel("Normal", mu="identity", sigma="sqrt")
        with pytest.raises(ValueError):
            mk.apply_kernel(k, -1)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown measure family"):
            make_kernel("Gamma", shape="identity")

    def test_unknown_parameter_names(self):
        with pytest.raises(ValueError, match="unknown parameterization"):
            make_kernel("Normal", tau="identity")

    def test_unknown_map_spec(self):
        with pytest.raises(ValueError, match="unknown parameter map"):
            make_kernel("Normal", mu="cube")

    @pytest.mark.parametrize("spec", ["affine:1", "affine:1:2:3"])
    def test_affine_map_with_the_wrong_number_of_values(self, spec):
        with pytest.raises(ValueError, match=f"unknown parameter map '{spec}'"):
            make_kernel("Normal", mu=spec)

    def test_purity_gives_structural_equality(self):
        k = make_kernel("Normal", mu="affine:2:1", sigma="const:3")
        assert mk.apply_kernel(k, 0.5) == mk.apply_kernel(k, 0.5)

    def test_resolved_maps_take_no_part_in_identity(self):
        a = make_kernel("Normal", mu="affine:2:1", sigma="const:3")
        b = make_kernel("Normal", sigma="const:3", mu="affine:2:1")
        assert a == b and hash(a) == hash(b)
        assert repr(a) == (
            "Kernel(family='Normal', maps=(('mu', 'affine:2:1'), ('sigma', 'const:3')), fn=None)"
        )
        assert a != make_kernel("Normal", mu="affine:2:1", sigma="const:2")


class TestChainConstruction:
    def test_gaussian_walk_builds(self):
        walk = gaussian_walk()
        assert walk.initial == mk.Normal(mu=0.0, sigma=1.0)

    def test_constant_chain(self):
        c = chain(lambda x: Dirac(x), Dirac(0))
        assert list(itertools.islice(iter(sample_chain(c, 5)), 4)) == [0, 0, 0, 0]

    def test_improper_initial_rejected(self):
        with pytest.raises(NotProbabilityError, match="improper initial"):
            chain(lambda x: mk.make_normal(mu=x), LEBESGUE)

    def test_mismatched_spaces_error_on_use(self):
        bad = chain(lambda x: mk.product(mk.make_normal(), mk.make_normal()), mk.make_normal())
        with pytest.raises(mk.ShapeError):
            chain_logdensity(bad, [0.0, 0.5])


class TestChainSampling:
    def test_prefixes_reproduce_exactly(self):
        walk = gaussian_walk()
        r = sample_chain(walk, 42)
        first = list(itertools.islice(iter(r), 3))
        second = list(itertools.islice(iter(r), 3))
        assert first == second

    def test_many_seeds_reproduce(self):
        walk = gaussian_walk()
        for seed in range(10):
            a = list(itertools.islice(iter(sample_chain(walk, seed)), 100))
            b = list(itertools.islice(iter(sample_chain(walk, seed)), 100))
            assert a == b

    def test_different_seeds_differ(self):
        walk = gaussian_walk()
        a = list(itertools.islice(iter(sample_chain(walk, 1)), 5))
        b = list(itertools.islice(iter(sample_chain(walk, 2)), 5))
        assert a != b

    def test_sample_of_chain_measure_is_a_chain_sample(self):
        r = sample(gaussian_walk(), 3)
        assert isinstance(r, mk.ChainSample)

    def test_lag_one_increments_have_zero_mean(self):
        n = 100_000
        xs = list(itertools.islice(iter(sample_chain(gaussian_walk(), 2024)), n + 1))
        increments = [b - a for a, b in zip(xs, xs[1:])]
        assert abs(statistics.fmean(increments)) < 4.0 / math.sqrt(n)


class TestChainLogDensity:
    def test_reference_random_walk_prefix_value(self):
        got = chain_logdensity(gaussian_walk(), WALK_PREFIX)
        x1, x2, x3 = WALK_PREFIX
        by_hand = -0.5 * (x1 * x1 + (x2 - x1) ** 2 + (x3 - x2) ** 2)
        assert got.value == pytest.approx(by_hand, abs=1e-15)
        assert got.value == pytest.approx(WALK_VALUE, abs=1e-12)

    def test_single_point_prefix_at_the_mean(self):
        assert chain_logdensity(gaussian_walk(), [0.0]) == 0.0

    def test_prefix_additivity(self):
        walk = gaussian_walk()
        xs = list(itertools.islice(iter(sample_chain(walk, 7)), 6))
        for n in range(2, 7):
            whole = chain_logdensity(walk, xs[:n]).value
            head = chain_logdensity(walk, xs[: n - 1]).value
            step = log_density(mk.make_normal(mu=xs[n - 2]), xs[n - 1]).value
            assert whole == head + step

    def test_finite_restriction_against_power_of_lebesgue(self):
        walk = gaussian_walk()
        got = log_density(walk, WALK_PREFIX, wrt=mk.power(LEBESGUE, (3,)))
        expected = WALK_VALUE + 3 * (-0.5 * math.log(2.0 * math.pi))
        assert got.value == pytest.approx(expected, abs=1e-12)

    def test_heterogeneous_step_bases(self):
        # Steps with state-dependent scale exercise the pointwise base product.
        c = chain(make_kernel("Normal", mu="identity", sigma="affine:0.5:1"), mk.make_normal())
        prefix = (0.1, 0.6, -0.2)
        got = log_density(c, prefix, wrt=mk.power(LEBESGUE, (3,)))
        expected = (
            log_density(mk.make_normal(), 0.1, wrt=LEBESGUE).value
            + log_density(mk.Normal(0.1, 1.05), 0.6, wrt=LEBESGUE).value
            + log_density(mk.Normal(0.6, 1.3), -0.2, wrt=LEBESGUE).value
        )
        assert got.value == pytest.approx(expected, abs=1e-12)

    def test_empty_prefix_rejected(self):
        with pytest.raises(mk.ShapeError):
            chain_logdensity(gaussian_walk(), [])


class TestOnePassPerElement:
    @staticmethod
    def counting_walk():
        calls = []

        def step(v):
            calls.append(v)
            return mk.Normal(v, 0.5)

        return chain(mk.Kernel(fn=step), mk.Normal(0.0, 2.0)), calls

    @pytest.mark.parametrize("n", [1, 2, 10, 1000])
    def test_kernel_applied_once_per_step(self, n):
        walk, calls = self.counting_walk()
        xs = tuple(0.01 * i for i in range(n))
        chain_logdensity(walk, xs)
        assert len(calls) == n - 1
        calls.clear()
        log_density(walk, xs, wrt=mk.power(LEBESGUE, (n,)))
        assert len(calls) == n - 1

    def test_kernel_inside_product_or_power_applied_once_per_step(self):
        walk, calls = self.counting_walk()
        xs = tuple(0.01 * i for i in range(100))
        pair = mk.product(walk, mk.Normal())
        for wrt in (None, mk.product(mk.power(LEBESGUE, (100,)), LEBESGUE)):
            calls.clear()
            log_density(pair, (xs, 0.5), wrt=wrt)
            assert len(calls) == 99
        rows = mk.power(walk, (3,))
        for wrt, applications in ((None, 297), (mk.power(mk.power(LEBESGUE, (100,)), (3,)), 297)):
            calls.clear()
            log_density(rows, (xs, xs, xs), wrt=wrt)
            assert len(calls) == applications

    def test_parents_of_kernel_nodes_keep_their_shape_errors(self):
        walk, _ = self.counting_walk()
        xs = (0.1, 0.2)
        pair, rows = mk.product(walk, mk.Normal()), mk.power(walk, (2,))
        cases = [
            (pair, (xs, 0.5, 0.5), "Product of 2 factors expects a 2-tuple"),
            (pair, (xs, "a"), "Normal expects a scalar point"),
            (pair, ((), 0.5), "Chain expects a nonempty finite prefix"),
            (rows, (xs,), "expected a tuple of length 2"),
            (rows, (xs, "ab"), "Chain expects a nonempty finite prefix"),
        ]
        for m, x, message in cases:
            for call in (lambda: log_density(m, x), lambda: log_density(m, x, wrt=m),
                         lambda: mk.base_measure(m, x)):
                with pytest.raises(mk.ShapeError, match=message):
                    call()

    def test_weight_evaluations_do_not_grow_with_length(self):
        walk = chain(make_kernel("Normal", mu="identity", sigma="const:0.5"), mk.Normal(0.0, 2.0))
        counts = []
        for n in (10, 1000):
            xs = tuple(0.01 * i for i in range(n))
            mk.reset_weight_evaluations()
            log_density(walk, xs, wrt=mk.power(LEBESGUE, (n,)))
            counts.append(mk.weight_evaluations())
        assert counts == [1, 1]

    def test_base_folds_weights_into_one_term(self):
        walk = chain(make_kernel("Normal", mu="identity", sigma="const:0.5"), mk.Normal(0.0, 2.0))
        base = mk.base_measure(walk, (0.1, 0.2, 0.3))
        w0 = -math.log(2.0) - 0.5 * math.log(2.0 * math.pi)
        w = -math.log(0.5) - 0.5 * math.log(2.0 * math.pi)
        assert base == mk.Weighted(w0 + w + w, mk.power(LEBESGUE, (3,)))
        assert mk.base_measure(walk, (0.1,)) == mk.Weighted(w0, mk.power(LEBESGUE, (1,)))
