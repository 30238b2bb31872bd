"""Sums against sums: one local reference read from both roots.

At x the engine reads one local reference class from the roots of both
measures: counting measure when either root puts an atom at x, else Lebesgue
measure.  d(mu/nu) is then A - B, the densities of mu and nu against that
reference, so the two orders are exact negations, for sums of any parts.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import measurekit as mk
from measurekit import COUNTING, LEBESGUE, Dirac, UnrelatedPrimitivesError, log_density

LEAVES = (
    mk.Normal(),
    mk.Exponential(1.0),
    mk.Poisson(3.0),
    Dirac(1),
    LEBESGUE,
    COUNTING,
    mk.make_negbinomial(r=2, p=0.4),
    mk.scale(0.7, COUNTING),
    mk.scale(-0.3, LEBESGUE),
    mk.pushforward(mk.forward_map(2.0, 1.0), mk.Normal()),
    mk.pushforward(mk.forward_map(1.0, 1.0), mk.Poisson(2.0)),
)
POINTS = (0, 1, 2, 0.5, 4)
HALF = math.log(0.5)


def _outcome(mu, x, nu):
    try:
        return log_density(mu, x, wrt=nu)
    except mk.DepthError:
        raise  # these trees are shallow: a DepthError is a walk that loops
    except mk.MeasureError as exc:
        return type(exc)


def _antisymmetric(forward, backward) -> bool:
    """Bitwise negation for defined values, else undefined both ways, else
    the same error type both ways."""
    if isinstance(forward, type) or isinstance(backward, type):
        return forward is backward
    if forward.is_undefined or backward.is_undefined:
        return forward.is_undefined and backward.is_undefined
    return forward.value == -backward.value


def test_every_pair_of_two_leaf_sums_is_antisymmetric():
    sums = [mk.superpose(a, b) for a, b in itertools.combinations(LEAVES, 2)]
    assert len(sums) == 55
    failures = [
        (mu, nu, x)
        for mu in sums
        for nu in sums
        for x in POINTS
        if not _antisymmetric(_outcome(mu, x, nu), _outcome(nu, x, mu))
    ]
    assert failures == []


class TestSumsAgainstSums:
    def test_a_counting_atom_on_one_side_makes_the_other_vanish(self):
        mu = mk.superpose(Dirac(1), LEBESGUE)
        nu = mk.superpose(LEBESGUE, COUNTING)
        assert log_density(mu, 0, wrt=nu).is_neg_inf
        assert log_density(nu, 0, wrt=mu).is_pos_inf

    def test_counting_parts_meet_off_every_support(self):
        mu = mk.superpose(COUNTING, mk.make_negbinomial(r=2, p=0.4))
        nu = mk.superpose(mk.Poisson(3.0), COUNTING)
        assert log_density(mu, 0.5, wrt=nu).value == 0.0
        assert log_density(nu, 0.5, wrt=mu).value == 0.0

    def test_transitivity_through_counting_measure(self):
        mu = mk.superpose(mk.Normal(), mk.Poisson(3.0))
        nu = mk.superpose(COUNTING, Dirac(1))
        assert log_density(mu, 2, wrt=nu).value == -1.4959226032237254
        assert log_density(mu, 2, wrt=COUNTING).value == -1.4959226032237254
        assert log_density(COUNTING, 2, wrt=nu).value == 0.0

    def test_a_count_spike_against_lebesgue_off_its_atom_raises(self):
        spike = mk.superpose(mk.scale(HALF, Dirac(0)), mk.scale(HALF, mk.Poisson(3.0)))
        with pytest.raises(UnrelatedPrimitivesError):
            log_density(spike, 2, wrt=LEBESGUE)
        with pytest.raises(UnrelatedPrimitivesError):
            log_density(LEBESGUE, 2, wrt=spike)

    def test_a_count_spike_at_its_atom_against_lebesgue_is_undefined(self):
        spike = mk.superpose(mk.scale(HALF, Dirac(0)), mk.scale(HALF, mk.Poisson(3.0)))
        assert log_density(spike, 0, wrt=LEBESGUE).is_undefined
        assert log_density(LEBESGUE, 0, wrt=spike).is_undefined


def _log_phi(x, mu=0.0):
    return -0.5 * (x - mu) ** 2 - 0.5 * math.log(2.0 * math.pi)


def _log_sum_phi(x, *mus):
    return math.log(sum(math.exp(_log_phi(x, mu)) for mu in mus))


class TestChainsThatEndAtSums:
    # Nodes whose base chain ends at a sum of roots, met by a sum and by
    # Lebesgue measure: the values, in both orders.  The likelihood carries
    # the data term of Normal(t, 1) at 0.7 only, -(0.7 - t)^2 / 2.
    LIK = mk.Likelihood(lambda t: mk.Normal(t, 1.0), 0.7)

    @pytest.mark.parametrize("t", [0.0, 0.3, -1.2, 2.5])
    def test_a_sum_against_a_posterior_over_a_mixture(self, t):
        posterior = mk.pointwise_product(mk.superpose(mk.Normal(), mk.Normal(1.0)), self.LIK)
        against_lebesgue = _log_sum_phi(t, 0.0, 1.0) - 0.5 * (0.7 - t) ** 2
        cases = [
            (mk.superpose(mk.Normal(), mk.Normal(2.0)), _log_sum_phi(t, 0.0, 2.0) - against_lebesgue),
            (mk.superpose(LEBESGUE, LEBESGUE), math.log(2.0) - against_lebesgue),
            (LEBESGUE, -against_lebesgue),
        ]
        for other, want in cases:
            forward = log_density(other, t, wrt=posterior).value
            assert forward == pytest.approx(want, abs=1e-12)
            assert log_density(posterior, t, wrt=other).value == -forward

    def test_a_posterior_over_a_mixture_as_a_component(self):
        posterior = mk.pointwise_product(mk.superpose(mk.Normal(), mk.Normal(1.0)), self.LIK)
        want = math.log(math.exp(_log_sum_phi(0.3, 0.0, 1.0) - 0.5 * 0.4 ** 2)
                        + math.exp(_log_phi(0.3)))
        got = log_density(mk.superpose(posterior, mk.Normal()), 0.3, wrt=LEBESGUE).value
        assert got == pytest.approx(want, abs=1e-12)

    def test_weighted_integral_and_pushforward_nodes_over_sums(self):
        inner = mk.superpose(mk.Normal(), mk.Normal(1.0))
        cases = [
            (mk.Weighted(0.3, inner), 0.3 + _log_sum_phi(0.4, 0.0, 1.0)),
            (mk.integrate_exp(lambda x: -x * x, inner), -0.16 + _log_sum_phi(0.4, 0.0, 1.0)),
            (mk.Pushforward(mk.forward_map(2.0, 1.0), inner),
             _log_sum_phi(-0.3, 0.0, 1.0) - math.log(2.0)),
        ]
        for m, want in cases:
            forward = log_density(m, 0.4, wrt=LEBESGUE).value
            assert forward == pytest.approx(want, abs=1e-12)
            assert log_density(LEBESGUE, 0.4, wrt=m).value == -forward
            other = mk.superpose(mk.Normal(), mk.Exponential(1.0))
            assert log_density(m, 0.4, wrt=other).value == -log_density(other, 0.4, wrt=m).value


class TestPartsOfNoClass:
    # Roots whose parts reference_class() names no class of: powers and
    # products of atoms, beside parts of Lebesgue class.
    LEBESGUE2 = (mk.power(LEBESGUE, (2,)), mk.product(LEBESGUE, LEBESGUE))

    def test_a_two_dimensional_spike_and_slab(self):
        spike = mk.superpose(mk.power(Dirac(0), (2,)), mk.power(mk.Normal(), (2,)))
        for ref in self.LEBESGUE2:
            assert log_density(spike, (1.0, 1.0), wrt=ref).value == -2.8378770664093453
            assert log_density(ref, (1.0, 1.0), wrt=spike).value == 2.8378770664093453
            assert log_density(spike, (0, 0), wrt=ref).is_undefined
            assert log_density(ref, (0, 0), wrt=spike).is_undefined

    def test_a_product_with_an_atom_as_a_component(self):
        m = mk.superpose(mk.product(Dirac(0), mk.Normal()), mk.product(mk.Normal(), mk.Normal()))
        for ref in self.LEBESGUE2:
            assert log_density(m, (1.0, 1.0), wrt=ref).value == -2.8378770664093453
            assert log_density(ref, (1.0, 1.0), wrt=m).value == 2.8378770664093453

    def test_powers_of_distinct_atoms(self):
        a, b = mk.power(Dirac(0), (2,)), mk.power(Dirac(1), (2,))
        assert log_density(a, (0, 0), wrt=b).is_undefined
        assert log_density(b, (0, 0), wrt=a).is_undefined


class TestTheClassFollowsTheMass:
    # Counting measure is the reference only where a Dirac sits at x or a
    # summand of counting class has mass there; off the integers a Poisson
    # summand has none, and the Lebesgue parts answer.
    MIXED = mk.superpose(mk.Normal(), mk.Poisson(3.0))

    @pytest.mark.parametrize("x", [0.5, 2])
    def test_a_mixed_sum_against_its_own_base(self, x):
        m = mk.superpose(mk.scale(-1.5, mk.Normal()), mk.scale(-1.5, mk.Poisson(3.0)))
        base = mk.base_measure(m, x)
        assert log_density(m, x, wrt=base).value == -1.5
        assert log_density(base, x, wrt=m).value == 1.5

    def test_a_mixed_sum_against_lebesgue_off_the_integers(self):
        assert log_density(self.MIXED, 0.5, wrt=LEBESGUE).value == -1.0439385332046727
        assert log_density(LEBESGUE, 0.5, wrt=self.MIXED).value == 1.0439385332046727

    def test_a_mixed_sum_against_lebesgue_at_an_integer_raises(self):
        with pytest.raises(UnrelatedPrimitivesError):
            log_density(self.MIXED, 2, wrt=LEBESGUE)
        with pytest.raises(UnrelatedPrimitivesError):
            log_density(LEBESGUE, 2, wrt=self.MIXED)


class TestASumOfRootsAgainstItself:
    # A sum that is its own base has no data term against itself: like a
    # Dirac's, its own density is 0.0 where it has mass at x, else -inf.
    ATOMS = mk.superpose(Dirac(1), Dirac(1))

    def test_off_and_at_its_atoms(self):
        assert log_density(Dirac(1), 0).is_neg_inf
        assert log_density(self.ATOMS, 0).is_neg_inf
        assert log_density(self.ATOMS, 1).value == 0.0

    def test_a_pushforward_built_over_it(self):
        m = mk.Pushforward(mk.forward_map(2.0, 0.0), self.ATOMS)
        assert log_density(m, 0).is_neg_inf
        assert log_density(m, 2).value == 0.0


class TestFailuresNameBothRoots:
    def test_lebesgue_against_counting(self):
        message = r"at 0\.0: Lebesgue\(\) against Counting\(\), local reference class counting"
        with pytest.raises(UnrelatedPrimitivesError, match=message):
            log_density(LEBESGUE, 0.0, wrt=COUNTING)

    def test_a_count_spike_against_lebesgue(self):
        spike = mk.superpose(mk.scale(HALF, Dirac(0)), mk.scale(HALF, mk.Poisson(3.0)))
        message = (r"at 2: Superposition\(components=\(Dirac\(atom=0\), Counting\(\)\)\) "
                   r"against Lebesgue\(\), local reference class counting")
        with pytest.raises(UnrelatedPrimitivesError, match=message):
            log_density(spike, 2, wrt=LEBESGUE)


class TestSumsStayOutermost:
    def test_scale_and_pushforward_go_summand_by_summand(self):
        a, b = mk.Normal(), mk.Poisson(2.0)
        t = mk.forward_map(2.0, 1.0)
        assert mk.scale(0.5, mk.superpose(a, b)) == mk.superpose(mk.scale(0.5, a), mk.scale(0.5, b))
        pushed = mk.superpose(mk.pushforward(t, a), mk.pushforward(t, b))
        assert mk.pushforward(t, mk.superpose(a, b)) == pushed

    def test_a_sum_against_its_own_base_reads_the_local_reference(self):
        spike = mk.superpose(mk.scale(HALF, Dirac(0.0)), mk.scale(HALF, mk.Normal()))
        assert log_density(spike, 0.0).value == HALF
        assert log_density(spike, 1.5).value == pytest.approx(HALF, abs=1e-15)

    @pytest.mark.parametrize("x", [0.5, 30.0, 100.0])
    def test_a_mixture_against_its_own_base_keeps_its_digits_in_the_tails(self, x):
        # The data terms the two sides share cancel before the sums: at 100
        # the two densities are about e^-1226 of Lebesgue measure.
        import mpmath
        weights, means, sigmas = (0.3, 0.7), (0.0, 1.0), (1.0, 2.0)
        mix = mk.superpose(*(mk.scale(math.log(w), mk.Normal(m, s))
                             for w, m, s in zip(weights, means, sigmas)))

        def pdf(m, s):
            return mpmath.npdf(mpmath.mpf(x), m, s)

        with mpmath.workdps(50):
            want = mpmath.log(sum(mpmath.mpf(w) * pdf(m, s) for w, m, s in zip(weights, means, sigmas))
                              / sum(pdf(m, s) for m, s in zip(means, sigmas)))
        got = log_density(mix, x)
        assert abs(got.value - float(want)) <= 2 * math.ulp(float(want))
        assert log_density(mk.base_measure(mix, x), x, wrt=mix).value == -got.value


# Sums of up to three leaves, under scale and pushforward, at points of their
# space, and under nodes whose base chain then ends at a sum: every order is
# antisymmetric.

_MAPS = (mk.forward_map(2.0, 1.0), mk.forward_map(1.0, -1.0), mk.inverse_map(0.5, 2.0))


def _wrapped(inner):
    return st.one_of(
        inner,
        st.builds(mk.scale, st.sampled_from((-1.5, -0.3, 0.7, 2.0)), inner),
        st.builds(mk.pushforward, st.sampled_from(_MAPS), inner),
    )


def _above_a_sum(inner):
    return st.one_of(
        inner,
        st.builds(mk.Weighted, st.sampled_from((-0.3, 0.7)), inner),
        st.builds(mk.Pushforward, st.sampled_from(_MAPS), inner),
        st.builds(mk.pointwise_product, inner, st.just(TestChainsThatEndAtSums.LIK)),
        st.builds(mk.integrate_exp, st.just(_half_square), inner),
    )


def _half_square(x):
    return -0.5 * x * x


_LEAF = _wrapped(_wrapped(st.sampled_from(LEAVES)))
_MEASURES = _above_a_sum(_wrapped(st.lists(_LEAF, min_size=1, max_size=3).map(
    lambda parts: mk.superpose(*parts) if len(parts) > 1 else parts[0])))
_POINTS = st.one_of(st.integers(-3, 9), st.sampled_from((0.5, 1.5, 2.5, -0.5)),
                    st.floats(-6.0, 9.0))


@settings(max_examples=600)
@given(_MEASURES, _MEASURES, _POINTS)
def test_generated_sums_are_antisymmetric(mu, nu, x):
    forward, backward = _outcome(mu, x, nu), _outcome(nu, x, mu)
    assert _antisymmetric(forward, backward), (forward, backward)


def _check_transitive(mu, nu, rho, x):
    """d(mu/nu) + d(nu/rho) == d(mu/rho) wherever the first two are finite,
    and d(mu/rho) is finite there too."""
    first, second = _outcome(mu, x, nu), _outcome(nu, x, rho)
    if isinstance(first, type) or isinstance(second, type) or not (first.is_finite and second.is_finite):
        return
    through = _outcome(mu, x, rho)
    assert not isinstance(through, type) and through.is_finite, (first, second, through)
    assert through.value == pytest.approx(first.value + second.value, rel=1e-9), (first, second)


def _sums(parts):
    """One of the parts, or the sum of two of them."""
    return st.lists(st.sampled_from(parts), min_size=1, max_size=2).map(
        lambda chosen: mk.superpose(*chosen) if len(chosen) > 1 else chosen[0])


@settings(max_examples=800)
@given(_sums(LEAVES), _sums(LEAVES), _sums(LEAVES), st.sampled_from((0, 1, 2, 0.5, 4, 3, -1)))
def test_generated_sums_are_transitive(mu, nu, rho, x):
    _check_transitive(mu, nu, rho, x)


# Two-dimensional roots with parts of no class (powers and products of
# atoms, a product of two classes), which relate through their rules.
_PLANE = _sums((mk.power(Dirac(0), (2,)), mk.product(Dirac(0), mk.Normal()), mk.power(mk.Normal(), (2,)),
                mk.product(LEBESGUE, COUNTING), mk.power(LEBESGUE, (2,))))
_PLANE_POINTS = st.tuples(*[st.sampled_from((0, 1, 0.5, -1, 2))] * 2)


@settings(max_examples=300)
@given(_PLANE, _PLANE, _PLANE, _PLANE_POINTS)
def test_generated_plane_sums_are_antisymmetric_and_transitive(mu, nu, rho, x):
    forward, backward = _outcome(mu, x, nu), _outcome(nu, x, mu)
    assert _antisymmetric(forward, backward), (forward, backward)
    _check_transitive(mu, nu, rho, x)


class TestUndefinedWinsAcrossCoordinates:
    # Coordinate 0 alone is unrelated (an atom against a density); the other
    # is undefined: both sides vanish there.  The order of the coordinates,
    # and of the two measures, must not decide.
    @pytest.mark.parametrize("mu, nu, x", [
        (mk.product(mk.Poisson(3.0), mk.Poisson(3.0)),
         mk.product(mk.Exponential(1.0), mk.Poisson(2.0)), (0, 0.5)),
        (mk.product(mk.Poisson(3.0), mk.Poisson(3.0)),
         mk.product(mk.Poisson(2.0), mk.Exponential(1.0)), (0.5, 0)),
    ])
    def test_an_undefined_coordinate_wins_over_an_unrelated_one(self, mu, nu, x):
        assert log_density(mu, x, wrt=nu).is_undefined
        assert log_density(nu, x, wrt=mu).is_undefined

    def test_unrelated_coordinates_still_raise(self):
        mu = mk.product(mk.Poisson(3.0), mk.Poisson(3.0))
        nu = mk.product(mk.Exponential(1.0), mk.Poisson(2.0))
        for a, b in ((mu, nu), (nu, mu)):
            with pytest.raises(UnrelatedPrimitivesError, match="unrelated measures at 0:"):
                log_density(a, (0, 1), wrt=b)


def test_parts_of_another_class_take_no_walk():
    # Only the atom's weight is read: the slab's chain ends at Lebesgue measure.
    spike = mk.superpose(mk.scale(HALF, Dirac(0.0)), mk.scale(HALF, mk.Normal()))
    for _ in range(3):
        mk.reset_weight_evaluations()
        assert log_density(spike, 0.0, wrt=COUNTING).value == HALF
        assert mk.weight_evaluations() == 1


def test_kept_roots_take_no_part_in_equality():
    m, fresh = (mk.superpose(mk.Normal(), mk.Poisson(2.0)) for _ in range(2))
    log_density(m, 1, wrt=COUNTING)
    assert m._kept_local is not None and fresh._kept_local is None
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
