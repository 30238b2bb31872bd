"""Quadrature, summation, and Monte Carlo oracles."""

import math

import pytest

import measurekit as mk
from measurekit import LEBESGUE, Dirac, UndefinedDensityError, scale
from measurekit.verify import (
    IntegerRange,
    Interval,
    ProductRegion,
    adaptive_simpson,
    additivity_check,
    mass,
    mc_mean,
)

from oracles import normal_mass


class TestRegions:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)

    def test_integer_range_validation(self):
        with pytest.raises(ValueError):
            IntegerRange(3, 2)


class TestAdaptiveSimpson:
    def test_polynomial_is_exact(self):
        got = adaptive_simpson(lambda x: x * x, 0.0, 3.0, 1e-10)
        assert got == pytest.approx(9.0, abs=1e-12)

    def test_oscillatory_integrand(self):
        got = adaptive_simpson(math.sin, 0.0, math.pi, 1e-10)
        assert got == pytest.approx(2.0, abs=1e-9)


class TestMass:
    def test_lebesgue_interval_length(self):
        for a, b in [(0.0, 1.0), (-3.5, 2.25), (10.0, 10.5)]:
            assert mass(LEBESGUE, Interval(a, b), 1e-10) == pytest.approx(b - a, abs=1e-10)

    def test_normal_unit_mass(self):
        assert mass(mk.make_normal(), Interval(-8, 8), 1e-8) == pytest.approx(1.0, abs=1e-6)

    def test_normal_partial_mass_matches_erf(self):
        got = mass(mk.make_normal(mu=1, sigma=2), Interval(-2.0, 3.0), 1e-9)
        assert got == pytest.approx(normal_mass(-2.0, 3.0, 1.0, 2.0), abs=1e-8)

    def test_uniform01(self):
        assert mass(mk.Uniform01(), Interval(0.0, 1.0), 1e-9) == pytest.approx(1.0, abs=1e-9)

    def test_scaled_measure(self):
        got = mass(scale(math.log(0.5), mk.make_normal()), Interval(-8, 8), 1e-8)
        assert got == pytest.approx(0.5, abs=1e-6)

    def test_poisson_summation(self):
        assert mass(mk.Poisson(4.0), IntegerRange(0, 80), 1e-8) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_truncated_tail_warns(self):
        with pytest.warns(UserWarning, match="truncated"):
            mass(mk.Poisson(10.0), IntegerRange(0, 12), 1e-8)

    def test_product_region(self):
        m = mk.product(mk.make_normal(), mk.make_normal())
        got = mass(m, ProductRegion((Interval(-7, 7), Interval(-7, 7))), 1e-6)
        assert got == pytest.approx(1.0, abs=1e-5)

    def test_discrete_product_region(self):
        m = mk.product(mk.Poisson(2.0), mk.Bernoulli(0.5))
        got = mass(m, ProductRegion((IntegerRange(0, 40), IntegerRange(0, 1))), 1e-8)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_mixed_product_region(self):
        m = mk.product(mk.make_normal(), mk.Bernoulli(0.25))
        got = mass(m, ProductRegion((Interval(-8, 8), IntegerRange(0, 1))), 1e-6)
        assert got == pytest.approx(1.0, abs=1e-5)

    def test_undefined_density_raises(self):
        ss = mk.superpose(
            scale(math.log(0.5), Dirac(0.0)), scale(math.log(0.5), mk.make_normal())
        )
        with pytest.raises(UndefinedDensityError):
            mass(ss, Interval(-8.0, 8.0), 1e-8)  # a quadrature node hits the atom


class TestQuadratureConvergence:
    def test_halving_tolerance_never_increases_error(self):
        truth = normal_mass(-8.0, 8.0)
        errors = []
        tol = 1e-3
        while tol >= 1e-9:
            errors.append(abs(mass(mk.make_normal(), Interval(-8, 8), tol) - truth))
            tol /= 2.0
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier


class TestAdditivity:
    def test_overlapping_intervals(self):
        got = additivity_check(mk.make_normal(), Interval(-1.0, 1.0), Interval(0.0, 2.0))
        assert got <= 1e-6

    def test_disjoint_intervals(self):
        got = additivity_check(mk.make_normal(), Interval(-2.0, -1.0), Interval(1.0, 2.0))
        assert got <= 1e-6

    def test_identical_regions(self):
        got = additivity_check(mk.make_normal(), Interval(-1.0, 1.0), Interval(-1.0, 1.0))
        assert got <= 1e-12

    def test_integer_ranges(self):
        got = additivity_check(mk.Poisson(3.0), IntegerRange(0, 4), IntegerRange(3, 40))
        assert got <= 1e-9

    def test_mixed_region_kinds_rejected(self):
        with pytest.raises(TypeError):
            additivity_check(mk.make_normal(), Interval(0.0, 1.0), IntegerRange(0, 1))


class TestMcMean:
    def test_dirac_is_exact(self):
        assert mc_mean(Dirac(3), lambda v: v, 10, 99) == 3.0

    def test_normal_mean_within_clt_bound(self):
        n = 20_000
        got = mc_mean(mk.Normal(2.0, 1.0), lambda v: v, n, seed=101)
        assert abs(got - 2.0) < 4.0 / math.sqrt(n)

    def test_bernoulli_mean_within_clt_bound(self):
        n = 20_000
        got = mc_mean(mk.Bernoulli(0.25), lambda v: v, n, seed=102)
        assert abs(got - 0.25) < 4.0 * math.sqrt(0.25 * 0.75 / n)

    def test_determinism(self):
        a = mc_mean(mk.make_normal(), lambda v: v, 100, seed=5)
        b = mc_mean(mk.make_normal(), lambda v: v, 100, seed=5)
        assert a == b

    def test_improper_rejected(self):
        with pytest.raises(mk.NotProbabilityError):
            mc_mean(LEBESGUE, lambda v: v, 10, seed=0)

    @pytest.mark.parametrize("n", [0, -1, -100])
    def test_fewer_than_one_draw_rejected(self, n):
        with pytest.raises(ValueError, match="mc_mean needs n >= 1 draws"):
            mc_mean(mk.Normal(), lambda v: v, n, seed=0)
