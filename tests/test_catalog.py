"""Parameterized families: construction, densities, support, samplers."""

import math
import os
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import measurekit as mk
from measurekit import COUNTING, LEBESGUE, Dirac, NotProbabilityError, log_density, sample
from measurekit.cli import parse_expr, print_expr
from measurekit.rng import derive_key

from oracles import dec_normal_logpdf, negbinomial_exact_logpmf


class TestMakeNormal:
    def test_normalization_constant(self):
        got = log_density(mk.make_normal(mu=0, sigma=1), 0.0, wrt=LEBESGUE)
        assert got.value == pytest.approx(float(dec_normal_logpdf(0.0)), abs=1e-14)
        assert got.value == -0.9189385332046727

    def test_data_term_vanishes_at_mean(self):
        assert log_density(mk.make_normal(mu=3, sigma=1), 3.0) == 0.0

    def test_degenerate_scale_rejected(self):
        with pytest.raises(ValueError):
            mk.make_normal(sigma=0)
        with pytest.raises(ValueError):
            mk.make_normal(sigma=-1.5)

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="unknown parameterization"):
            mk.make_normal(mu=0, tau=1)

    def test_parameters_are_stored_as_floats(self):
        for mu, sigma in ((1, True), (True, 2), (0.5, 2), (Fraction(1, 4), 3.0)):
            m = mk.Normal(mu, sigma)
            assert (type(m.mu), type(m.sigma)) == (float, float)
            assert (m.mu, m.sigma) == (float(mu), float(sigma))
        w = mk.Weighted(True, LEBESGUE)
        assert type(w.logweight) is float and w.logweight == 1.0
        with pytest.raises(ValueError, match="got 0.0"):
            mk.Normal(0.0, False)
        with pytest.raises(ValueError, match="invalid log weight 'nan'"):
            mk.Weighted("nan", LEBESGUE)
        with pytest.raises(ValueError, match="invalid log weight inf"):
            mk.Weighted(math.inf, LEBESGUE)

    def test_defaults(self):
        assert mk.make_normal() == mk.Normal(mu=0.0, sigma=1.0)
        assert mk.make_normal(mu=2) == mk.Normal(mu=2.0, sigma=1.0)
        assert mk.make_normal(sigma=3) == mk.Normal(mu=0.0, sigma=3.0)


class TestNegativeBinomial:
    def test_rp_value_against_exact_rational(self):
        nb = mk.make_negbinomial(r=10, p=0.75)
        expected = negbinomial_exact_logpmf(2, 10, Fraction(3, 4))
        assert log_density(nb, 2, wrt=COUNTING).value == pytest.approx(expected, abs=1e-12)

    def test_parameterizations_agree_on_grid(self):
        ab = mk.make_negbinomial(alpha=10, beta=3)
        rp = mk.make_negbinomial(r=10, p=0.75)
        for y in range(201):
            assert log_density(ab, y).value == pytest.approx(
                log_density(rp, y).value, abs=1e-12
            )

    def test_no_conversion_at_construction(self):
        assert mk.make_negbinomial(alpha=10, beta=3) != mk.make_negbinomial(r=10, p=0.75)
        assert mk.make_negbinomial(r=10, p=0.75).params == (("p", 0.75), ("r", 10.0))

    def test_outside_support(self):
        nb = mk.make_negbinomial(r=10, p=0.75)
        assert log_density(nb, -1).is_neg_inf
        assert log_density(nb, 2.5).is_neg_inf

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            mk.make_negbinomial(r=0, p=0.5)
        with pytest.raises(ValueError):
            mk.make_negbinomial(r=10, p=1.0)
        with pytest.raises(ValueError):
            mk.make_negbinomial(alpha=10, beta=0)
        with pytest.raises(ValueError, match="unknown parameterization"):
            mk.make_negbinomial(r=10, beta=3)

    def test_repeated_name_rejected(self):
        with pytest.raises(ValueError, match=r"unknown parameterization \{p,r,r\}"):
            mk.NegativeBinomial((("p", 0.5), ("r", 3.0), ("r", 4.0)))


class TestMakeSimple:
    def test_uniform01_is_unit_restriction_of_lebesgue(self):
        u = mk.make_simple("Uniform01")
        assert log_density(u, 0.5, wrt=LEBESGUE) == 0.0
        assert log_density(u, 2.0, wrt=LEBESGUE).is_neg_inf

    def test_poisson_pmf_at_zero(self):
        assert log_density(mk.make_simple("Poisson", rate=1.0), 0, wrt=COUNTING).value == -1.0

    def test_dirac(self):
        assert mk.make_simple("Dirac", a=3) == Dirac(3)

    def test_bernoulli(self):
        b = mk.make_simple("Bernoulli", p=0.25)
        assert log_density(b, 1).value == math.log(0.25)
        assert log_density(b, 0).value == math.log1p(-0.25)

    def test_exponential_decomposition(self):
        e = mk.make_simple("Exponential", rate=2.0)
        assert log_density(e, 1.5).value == -3.0
        assert log_density(e, 1.5, wrt=LEBESGUE).value == pytest.approx(
            math.log(2.0) - 3.0, abs=1e-15
        )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            mk.make_simple("Poisson", rate=-1)
        with pytest.raises(ValueError):
            mk.make_simple("Bernoulli", p=1.5)
        with pytest.raises(ValueError):
            mk.make_simple("Nonesuch")


# One valid value for every parameter name a registered family uses.
PARAM_VALUES = {
    "mu": 0.5, "sigma": 2.0, "p": 0.25, "r": 3.0, "alpha": 2.0, "beta": 1.5, "rate": 1.5, "a": 2.0
}
MAKERS = {"Normal": mk.make_normal, "NegativeBinomial": mk.make_negbinomial}


@pytest.mark.parametrize("name", sorted(mk.FAMILIES))
def test_every_path_reads_the_family_declaration(name):
    for names in mk.FAMILIES[name].parameterizations:
        params = {n: PARAM_VALUES[n] for n in names}
        m = mk.make_simple(name, **params)
        if name in MAKERS:
            assert MAKERS[name](**params) == m
        kernel = mk.make_kernel(name, **{n: f"const:{v!r}" for n, v in params.items()})
        assert kernel(0.0) == m
        assert parse_expr({name: params}) == m
        assert parse_expr(print_expr(m)) == m
    message = rf"unknown parameterization \{{bogus\}} for {name}\b"
    with pytest.raises(ValueError, match="^" + message):
        mk.make_simple(name, bogus=1.0)
    if name in MAKERS:
        with pytest.raises(ValueError, match="^" + message):
            MAKERS[name](bogus=1.0)
    with pytest.raises(ValueError, match="^" + message):
        mk.make_kernel(name, bogus="identity")
    with pytest.raises(ValueError, match=rf"^at \$\.{name}: {message}"):
        parse_expr({name: {"bogus": 1.0}})


class TestSupportDiscipline:
    @pytest.mark.parametrize(
        "m, x",
        [
            (mk.Uniform01(), -0.5),
            (mk.Uniform01(), 1.5),
            (mk.Exponential(1.0), -2.0),
            (mk.Poisson(3.0), 2.5),
            (mk.Poisson(3.0), -1),
            (mk.Bernoulli(0.5), 2),
            (mk.make_negbinomial(r=2, p=0.5), -3),
        ],
    )
    def test_outside_support_is_neg_inf_not_error(self, m, x):
        assert log_density(m, x).is_neg_inf

    @pytest.mark.parametrize(
        "m, wrt",
        [
            (mk.Poisson(3.0), None),
            (mk.Poisson(3.0), mk.COUNTING),
            (mk.make_negbinomial(r=2, p=0.5), mk.COUNTING),
            (mk.make_normal(), mk.LEBESGUE),
            (mk.Exponential(1.0), None),
            (mk.Exponential(1.0), mk.LEBESGUE),
        ],
    )
    def test_int_beyond_the_float_range_is_neg_inf_not_error(self, m, wrt):
        # Such an int evaluates as the float it rounds to, +-inf.
        assert log_density(m, 10**400, wrt=wrt).is_neg_inf
        assert log_density(m, math.inf, wrt=wrt).is_neg_inf

    def test_power_of_normal_with_a_huge_int_entry(self):
        m = mk.power(mk.make_normal(), (3,))
        x = (0.5, -10**400, 1)
        assert log_density(m, x).is_neg_inf
        assert log_density(m, x, wrt=mk.power(mk.LEBESGUE, (3,))).is_neg_inf


class TestSamplers:
    def test_dirac_atom(self):
        for seed in (0, 1, 123456789):
            assert sample(Dirac(3), seed) == 3

    def test_determinism(self):
        for m in (
            mk.make_normal(mu=0, sigma=1),
            mk.Poisson(4.5),
            mk.make_negbinomial(r=3, p=0.4),
            mk.Bernoulli(0.3),
            mk.Exponential(2.0),
            mk.Uniform01(),
        ):
            assert sample(m, 42) == sample(m, 42)
            assert sample(m, 42) != sample(m, 43) or isinstance(sample(m, 42), int)

    def test_improper_measures_rejected(self):
        with pytest.raises(NotProbabilityError, match="not a probability measure"):
            sample(LEBESGUE, 1)
        with pytest.raises(NotProbabilityError):
            sample(mk.scale(math.log(0.5), mk.make_normal()), 1)

    def test_poisson_support_and_type(self):
        draws = [sample(mk.Poisson(2.5), derive_key(7, i)) for i in range(200)]
        assert all(isinstance(d, int) and d >= 0 for d in draws)

    def test_large_rate_poisson_uses_chunking(self):
        draws = [sample(mk.Poisson(95.0), derive_key(11, i)) for i in range(500)]
        mean = statistics.fmean(draws)
        assert abs(mean - 95.0) < 4.0 * math.sqrt(95.0 / 500)

    def test_normal_mean_and_spread(self):
        n = 20000
        draws = [sample(mk.Normal(2.0, 1.0), derive_key(123, i)) for i in range(n)]
        assert abs(statistics.fmean(draws) - 2.0) < 4.0 / math.sqrt(n)
        assert abs(statistics.pstdev(draws) - 1.0) < 0.05

    def test_negbinomial_mean(self):
        n = 20000
        nb = mk.make_negbinomial(r=10, p=0.75)
        draws = [sample(nb, derive_key(9, i)) for i in range(n)]
        true_mean = 10 * 0.25 / 0.75
        true_sd = math.sqrt(10 * 0.25) / 0.75
        assert abs(statistics.fmean(draws) - true_mean) < 4.0 * true_sd / math.sqrt(n)

    def test_uniform_empirical_cdf(self):
        n = 20000
        draws = [sample(mk.Uniform01(), derive_key(55, i)) for i in range(n)]
        for q in (0.1, 0.5, 0.9):
            frac = sum(1 for d in draws if d <= q) / n
            assert abs(frac - q) < 4.0 * math.sqrt(q * (1 - q) / n)

    def test_exponential_empirical_cdf(self):
        n = 20000
        rate = 2.0
        draws = [sample(mk.Exponential(rate), derive_key(56, i)) for i in range(n)]
        for q in (0.25, 1.0):
            truth = 1.0 - math.exp(-rate * q)
            frac = sum(1 for d in draws if d <= q) / n
            assert abs(frac - truth) < 4.0 * math.sqrt(truth * (1 - truth) / n)

    def test_negbinomial_parameterizations_same_law(self):
        n = 20000
        ab = mk.make_negbinomial(alpha=10, beta=3)
        draws = [sample(ab, derive_key(31, i)) for i in range(n)]
        true_mean = 10 * 0.25 / 0.75
        true_sd = math.sqrt(10 * 0.25) / 0.75
        assert abs(statistics.fmean(draws) - true_mean) < 4.0 * true_sd / math.sqrt(n)


class TestLargeRatePoisson:
    """Above a rate of 1400 a chunk of CDF inversion would start where
    exp(-rate) underflows; those draws come from transformed rejection."""

    @pytest.mark.parametrize("rate", [2000.0, 1e5])
    def test_moments_within_six_standard_errors(self, rate):
        n = 2000
        draws = [sample(mk.Poisson(rate), derive_key(41, i)) for i in range(n)]
        assert all(isinstance(d, int) and d >= 0 for d in draws)
        assert abs(statistics.fmean(draws) - rate) < 6.0 * math.sqrt(rate / n)
        assert abs(statistics.variance(draws) / rate - 1.0) < 6.0 * math.sqrt(2.0 / n)

    @pytest.mark.parametrize("expr, mean, sd", [
        ("mk.Poisson(1e18)", 1e18, 1e9),
        ("mk.make_negbinomial(r=1e300, p=0.5)", 1e300, math.sqrt(2e300)),
    ])
    def test_huge_rates_draw_in_bounded_time(self, expr, mean, sd):
        # In a subprocess, so that a sampler that never returns fails the test.
        script = f"import measurekit as mk; print(mk.sample({expr}, 1))"
        src = str(Path(__file__).resolve().parent.parent / "src")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                timeout=30, env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 0, result.stderr
        assert abs(int(result.stdout) - mean) < 10.0 * sd


class TestNonFiniteParameters:
    @pytest.mark.parametrize("build, message", [
        (lambda: mk.Normal(math.inf, 1.0), "Normal requires finite mu, got inf"),
        (lambda: mk.Normal(math.nan, 1.0), "Normal requires finite mu, got nan"),
        (lambda: mk.Normal(0.0, math.inf), "Normal requires finite sigma > 0, got inf"),
        (lambda: log_density(mk.Exponential(math.inf), 1.0, wrt=LEBESGUE),
         "Exponential requires finite rate > 0, got inf"),
        (lambda: sample(mk.Poisson(math.inf), 1), "Poisson requires finite rate > 0, got inf"),
        (lambda: mk.make_negbinomial(r=math.inf, p=0.5), "NegativeBinomial requires finite r > 0"),
        (lambda: mk.make_negbinomial(alpha=math.inf, beta=1.0),
         "NegativeBinomial requires finite alpha > 0"),
        (lambda: mk.make_negbinomial(alpha=1.0, beta=math.inf),
         "NegativeBinomial requires finite beta > 0"),
    ])
    def test_rejected_at_construction(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


def _dec_poisson_logpmf(k, rate):
    """k log(rate) - rate - log k! in 60-digit Decimal, with log k! from
    Stirling's series to the k^-7 term (error below 1e-24 for k >= 1000)."""
    from decimal import Decimal

    from oracles import HALF_LOG_TWO_PI

    k, rate = Decimal(k), Decimal(repr(rate))
    log_fact = ((k + Decimal("0.5")) * k.ln() - k + HALF_LOG_TWO_PI + 1 / (12 * k)
                - 1 / (360 * k ** 3) + 1 / (1260 * k ** 5) - 1 / (1680 * k ** 7))
    return float(k * rate.ln() - rate - log_fact)


class TestPoissonAtLargeCounts:
    """From k = 1000 on, the log-pmf is written about k - rate, whose terms do
    not cancel at large rates; below, it keeps its bits."""

    def test_rate_1e18_at_its_mean(self):
        got = log_density(mk.Poisson(1e18), 10**18, wrt=COUNTING)
        assert got.value == pytest.approx(-21.6422043701511, abs=1e-12)

    @pytest.mark.parametrize("k, rate", [
        (1000, 1000.0), (1000, 3.0), (1000, 0.5), (1000, 1e-300), (1000, 1e6), (1000, 1e300),
        (2000, 999.0), (2000, 1001.0), (5000, 4000.0), (100_000, 100_000.0),
        (100_000, 99_000.0), (10**9, 3.0), (10**18, 1e18), (10**18 + 4096, 1e18),
    ])
    def test_matches_a_high_precision_oracle(self, k, rate):
        want = _dec_poisson_logpmf(k, rate)
        got = log_density(mk.Poisson(rate), k, wrt=COUNTING).value
        assert got == pytest.approx(want, rel=1e-14, abs=1e-13)

    def test_counts_below_1000_keep_their_bits(self):
        for rate in (0.5, 3.0, 480.0, 520.0, 1e5, 1e18):
            for k in (0, 1, 7, 500, 999):
                want = k * math.log(rate) - rate - math.lgamma(k + 1.0)
                assert log_density(mk.Poisson(rate), k).value == want


class TestIntegerParametersBeyondTheFloatRange:
    @pytest.mark.parametrize("build, message", [
        (lambda: mk.Poisson(10**400), "Poisson requires finite rate > 0, got inf"),
        (lambda: mk.Normal(10**400, 1), "Normal requires finite mu, got inf"),
        (lambda: mk.Normal(-10**400, 1), "Normal requires finite mu, got -inf"),
        (lambda: mk.Normal(0, 10**400), "Normal requires finite sigma > 0, got inf"),
        (lambda: mk.Bernoulli(10**400), r"Bernoulli requires 0 <= p <= 1, got inf"),
        (lambda: mk.Exponential(10**400), "Exponential requires finite rate > 0, got inf"),
        (lambda: mk.make_negbinomial(r=10**400, p=0.5), "NegativeBinomial requires finite r > 0, got inf"),
        (lambda: mk.make_negbinomial(alpha=2, beta=10**400),
         "NegativeBinomial requires finite beta > 0, got inf"),
    ])
    def test_rejected_with_the_documented_error(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_ints_in_the_float_range_are_kept(self):
        assert mk.Poisson(10**300).rate == 1e300
        assert mk.Normal(3, 2) == mk.Normal(3.0, 2.0)


class TestNegativeBinomialDrawOverflow:
    def test_a_gamma_rate_beyond_the_float_range_names_the_parameters(self):
        m = mk.make_negbinomial(r=1e300, p=1e-10)
        with pytest.raises(ValueError, match=r"NegativeBinomial\{'p': 1e-10, 'r': 1e\+300\} draw overflows"):
            sample(m, 1)
