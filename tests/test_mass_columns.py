"""`verify.mass` over columns of points: the per-point path's bits and errors.

`mass` evaluates a grid's new nodes, or a run of an integer range, as one
column, replaying the kept walk plan over it where the measure has one.
The reference here is the per-point path: the public `log_density` at each
node, turned into a density as `mass` always did, under the public scalar
`adaptive_simpson`, or summed term by term, left to right.  Every mass must
agree bit for bit, with the same count of constant-weight evaluations, and
every error must be the reference's: its type, its message and its point.
"""

import math
import struct
import warnings
from dataclasses import dataclass

import pytest

import measurekit as mk
from measurekit import core, verify
from measurekit.core import LEBESGUE, COUNTING, MeasureError, ShapeError, UndefinedDensityError
from measurekit.verify import Interval, IntegerRange, ProductRegion


def _bits(value):
    return struct.pack("<d", value)


def per_point(mu, ref):
    """The density of mu against ref at a point, by the public API."""

    def f(x):
        value = mk.log_density(mu, x, wrt=ref)
        if value.is_undefined:
            raise UndefinedDensityError(f"undefined density of {mu!r} at {x!r}")
        p = value.exp()
        if p == math.inf:
            raise MeasureError(f"infinite density of {mu!r} at {x!r}")
        return p

    return f


def reference_mass(mu, region, tol):
    if isinstance(region, ProductRegion):
        return _iterated(per_point(mu, verify._reference(region)), (), region.children, tol)
    if isinstance(region, Interval):
        return verify.adaptive_simpson(per_point(mu, LEBESGUE), region.a, region.b, tol)
    f = per_point(mu, COUNTING)
    total = 0.0
    for k in range(region.lo, region.hi + 1):
        total += f(k)
    return total


def _iterated(f, prefix, regions, tol):
    """The iterated integral of f at tuple points, point by point: the
    first coordinate outermost, each inner integral at a quarter of the
    tolerance of the one around it."""
    first, rest = regions[0], regions[1:]
    if rest:
        def g(x):
            return _iterated(f, prefix + (x,), rest, tol / 4.0)
    else:
        def g(x):
            return f(prefix + (x,))
    if isinstance(first, Interval):
        return verify.adaptive_simpson(g, first.a, first.b, tol)
    total = 0.0
    for k in range(first.lo, first.hi + 1):
        total += g(k)
    return total


def _nb_rp():
    return mk.make_negbinomial(r=3.5, p=0.3)


def _nb_ab():
    return mk.make_negbinomial(alpha=2.5, beta=0.8)


def _mixture():
    return mk.superpose(mk.scale(math.log(0.3), mk.Normal(-1.0, 1.0)),
                        mk.scale(math.log(0.7), mk.Normal(2.0, 0.5)))


def _posterior():
    data = (0.4, -0.2, 1.1)
    return mk.pointwise_product(
        mk.Normal(0.0, 1.7),
        mk.Likelihood(lambda p: mk.power(mk.Normal(p, 1.3), (len(data),)), data))


# (name, a builder of a fresh measure, region, tol): every catalog family,
# both NegativeBinomial parameterizations, scaled members, Dirac against
# counting measure, pushforwards, a sum and a posterior.  Integer ranges
# start below 0 and run past the support.
CORPUS = [
    ("Normal", lambda: mk.Normal(0.3, 1.2), Interval(-14.1, 14.7), 1e-8),
    ("Uniform01", lambda: mk.Uniform01(), Interval(-0.5, 1.5), 1e-4),
    ("Exponential", lambda: mk.Exponential(2.0), Interval(0.0, 20.0), 1e-8),
    ("Bernoulli", lambda: mk.Bernoulli(0.3), IntegerRange(-3, 5), 1e-8),
    ("Bernoulli-0", lambda: mk.Bernoulli(0.0), IntegerRange(-1, 3), 1e-8),
    ("Poisson", lambda: mk.Poisson(4.0), IntegerRange(-4, 60), 1e-8),
    ("NegativeBinomial-rp", _nb_rp, IntegerRange(-2, 199), 1e-8),
    ("NegativeBinomial-ab", _nb_ab, IntegerRange(-5, 120), 1e-8),
    ("scaled-Normal", lambda: mk.scale(0.7, mk.Normal(1.0, 2.0)), Interval(-24.0, 26.0), 1e-8),
    ("scaled-Exponential", lambda: mk.scale(-1.2, mk.Exponential(0.5)), Interval(0.0, 60.0), 1e-8),
    ("scaled-Poisson", lambda: mk.scale(-1.2, mk.Poisson(3.0)), IntegerRange(-4, 40), 1e-8),
    ("scaled-NegativeBinomial", lambda: mk.scale(0.4, _nb_ab()), IntegerRange(-1, 90), 1e-8),
    ("Dirac-counting", lambda: mk.Dirac(3), IntegerRange(-2, 6), 1e-8),
    ("pushforward", lambda: mk.pushforward(mk.forward_map(2.5, -1.0), mk.Normal(0.3, 0.8)),
     Interval(-26.0, 24.0), 1e-8),
    ("pushforward-counts", lambda: mk.pushforward(mk.forward_map(1.0, 2.0), mk.Poisson(2.0)),
     IntegerRange(-3, 40), 1e-8),
    ("mixture", _mixture, Interval(-12.0, 12.0), 1e-8),
    ("posterior", _posterior, Interval(-6.0, 6.0), 1e-10),
]


def _counted(fn):
    """fn()'s value and the constant-weight evaluations it made."""
    core.reset_weight_evaluations()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a truncated tail is intended on some ranges
        value = fn()
    return value, core.weight_evaluations()


@pytest.mark.parametrize("column", [verify._COLUMN, 3])
@pytest.mark.parametrize("case", CORPUS, ids=[c[0] for c in CORPUS])
def test_mass_is_the_per_point_mass(case, column, monkeypatch):
    # A column of 3 points cuts every grid and range into many columns.
    monkeypatch.setattr(verify, "_COLUMN", column)
    name, build, region, tol = case
    mu, nu = build(), build()
    walked = []
    log_density = core._log_density

    def counted(*args):
        walked.append(args[1])
        return log_density(*args)

    monkeypatch.setattr(core, "_log_density", counted)
    for _ in range(2):  # fresh, then with the plans the first pass kept
        walked.clear()
        got, got_weights = _counted(lambda: verify.mass(mu, region, tol))
        mass_walked = len(walked)
        want, want_weights = _counted(lambda: reference_mass(nu, region, tol))
        assert _bits(got) == _bits(want)
        assert got_weights == want_weights
    # With its plan kept, a mass walks no point in turn, also where the plan
    # ends in a rule (`core._local_rule` for the sums and pushforwards).
    assert mass_walked == 0


# (a builder of a fresh product measure, a product region, tol): intervals
# and integer ranges in either order, weighted factors, a factor whose walk
# ends in a rule (a pushforward), and three coordinates.
PRODUCTS = [
    (lambda: mk.product(mk.Normal(0.2, 1.1), mk.Exponential(1.5)),
     ProductRegion((Interval(-8.0, 8.0), Interval(0.0, 20.0))), 1e-5),
    (lambda: mk.product(mk.scale(0.3, mk.Poisson(2.5)), mk.Normal(0.2, 1.1)),
     ProductRegion((IntegerRange(-1, 12), Interval(-8.0, 8.0))), 1e-6),
    (lambda: mk.product(mk.pushforward(mk.forward_map(2.0, -0.5), mk.Normal(0.1, 1.3)),
                        mk.scale(-0.2, mk.Exponential(1.0))),
     ProductRegion((Interval(-12.0, 12.0), Interval(-1.0, 15.0))), 1e-4),
    (lambda: mk.Product((mk.Normal(), mk.scale(-0.2, mk.Poisson(1.5)), mk.Exponential(2.0))),
     ProductRegion((Interval(-6.0, 6.0), IntegerRange(0, 6), Interval(0.0, 10.0))), 1e-2),
]


@pytest.mark.parametrize("column", [verify._COLUMN, 3])
@pytest.mark.parametrize("k", range(len(PRODUCTS)))
def test_a_product_mass_is_the_iterated_per_point_mass(k, column, monkeypatch):
    monkeypatch.setattr(verify, "_COLUMN", column)
    build, region, tol = PRODUCTS[k]
    mu, nu = build(), build()
    for _ in range(2):  # fresh, then with the plans the first pass kept
        got, got_weights = _counted(lambda: verify.mass(mu, region, tol))
        want, want_weights = _counted(lambda: reference_mass(nu, region, tol))
        assert _bits(got) == _bits(want)
        assert got_weights == want_weights


def _fresh(mu, region):
    return mu


def _noted(mu, region):
    """mu after one density against the region's reference: the next call
    keeps its plan."""
    mk.log_density(mu, 1, wrt=verify._reference(region))
    return mu


def _kept(mu, region):
    """mu with its plan against the region's reference kept."""
    return _noted(_noted(mu, region), region)


# (a builder of a fresh measure, region, the error, the point it names)
ERRORS = [
    # Undefined at 0.5, a node in the middle of the first grid.
    (lambda: mk.Dirac(0.5), Interval(0.0, 1.0), UndefinedDensityError, 0.5),
    # Infinite first at -1.5, the fourth node of the first grid, not the first.
    (lambda: mk.scale(712.0, mk.Normal()), Interval(-3.0, 3.0), MeasureError, -1.5),
    # Infinite at b, the second node: where a fresh measure keeps its plan.
    (lambda: mk.scale(712.0, mk.Normal(3.0)), Interval(-3.0, 3.0), MeasureError, 3.0),
    # Infinite in the second grid: 2.625 is no node of the first.
    (lambda: mk.scale(709.0, mk.Normal(2.625, 0.01)), Interval(-3.0, 3.0), MeasureError, 2.625),
    # A scalar region for a measure on pairs.
    (lambda: mk.power(mk.Normal(), (2,)), Interval(-1.0, 1.0), ShapeError, None),
    # Infinite at 0, the third term: after the two that keep the plan.
    (lambda: mk.scale(750.0, mk.Poisson(3.0)), IntegerRange(-2, 10), MeasureError, 0),
]


# A noted measure keeps its plan at the column's first point, a fresh one
# at its second.  A measure on pairs keeps no plan at a scalar point.
@pytest.mark.parametrize("k, state", [
    (k, state) for k in range(len(ERRORS)) for state in (_fresh, _noted, _kept)
    if ERRORS[k][2] is not ShapeError or state is _fresh],
    ids=lambda v: v.__name__.strip("_") if callable(v) else str(v))
def test_an_error_is_the_per_point_error(k, state):
    build, region, error, point = ERRORS[k]
    mu, nu = state(build(), region), state(build(), region)
    core.reset_weight_evaluations()
    with pytest.raises(error) as got:
        verify.mass(mu, region, 1e-8)
    got_weights = core.weight_evaluations()
    core.reset_weight_evaluations()
    with pytest.raises(error) as want:
        reference_mass(nu, region, 1e-8)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert got_weights == core.weight_evaluations()
    if point is not None:
        assert str(got.value).endswith(f" at {point!r}")


def _bits_or_nan(value):
    return "nan" if value != value else _bits(value)


@pytest.mark.parametrize("mu, nu", [
    (mk.scale(0.3, mk.Normal(1.0, 2.0)), mk.scale(-0.4, LEBESGUE)),
    # Targets with data terms: at -1 both vanish, at 2 only the target.
    (mk.scale(0.3, mk.Exponential(1.0)), mk.scale(-0.4, mk.Uniform01())),
    (mk.scale(-0.4, mk.Uniform01()), mk.scale(0.3, mk.Exponential(1.0))),
    # The walk meets above the source's root, so data terms follow the
    # meeting node: at -1 the source vanishes there, and the target too.
    (mk.scale(0.8, mk.Exponential(1.0)), mk.pointwise_product(
        mk.scale(0.7, mk.Exponential(1.0)),
        mk.Likelihood(lambda p: mk.Uniform01() if p >= -0.5 else mk.Dirac(0.0), 0.25))),
])
def test_a_column_of_a_kept_plan_is_the_walk(mu, nu):
    # The core column replay against the walk at each point, bit for bit,
    # through each of its NaN exits.
    xs = [-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 7.25, 1e300, -math.inf, math.inf, math.nan,
          10 ** 400]
    assert core._log_density_column(mu, nu, xs) is None  # no plan kept yet
    for x in (0.1, 0.2):
        core._log_density(mu, x, nu)
    got = core._log_density_column(mu, nu, xs)
    want = [core._recurse(mu, nu, x) for x in xs]
    assert [_bits_or_nan(v) for v in got] == [_bits_or_nan(v) for v in want]
    assert {v != v for v in want} == {True, False}


@pytest.mark.parametrize("mu, nu", [
    # Data terms on the source side only, each order: NaN at nan.
    (mk.pushforward(mk.forward_map(2.0, -0.5), mk.Normal(0.1, 1.3)), LEBESGUE),
    # A source NaN below -2, and -inf against -inf at -inf.
    (mk.integrate_exp(lambda x: math.nan if x < -2 else -abs(x), LEBESGUE),
     mk.pushforward(mk.forward_map(2.0, -0.5), LEBESGUE)),
    # Data terms on both sides; both vanish at -inf and +inf.
    (mk.scale(0.3, mk.Exponential(1.0)),
     mk.pushforward(mk.forward_map(2.0, -0.5), mk.Normal(0.1, 1.3))),
])
def test_a_column_applies_the_rule_only_where_the_walk_reaches_it(mu, nu, monkeypatch):
    # A plan that ends in the local rule: the column gives the walk's bits
    # and calls the rule at the points the walk calls it at, none past a
    # NaN exit.
    calls = []
    local_rule = core._local_rule

    def counted(a, b, x):
        calls.append(x)
        return local_rule(a, b, x)

    monkeypatch.setattr(core, "_local_rule", counted)
    xs = [-3.0, -0.5, 0, 0.0, 0.5, 2, 7.25, 1e300, -math.inf, math.inf, math.nan]
    for source, target in ((mu, nu), (nu, mu)):
        for x in (0.1, 0.2):
            core._log_density(source, x, target)
        calls.clear()
        got = core._log_density_column(source, target, xs)
        replayed, calls[:] = calls[:], []
        want = [core._recurse(source, target, x) for x in xs]
        assert [_bits_or_nan(v) for v in got] == [_bits_or_nan(v) for v in want]
        assert replayed == calls and len(calls) < len(xs)


@dataclass(frozen=True)
class _HalfLine(core.Weighted):
    """A constant weight whose check also refuses negative points."""

    def check_point(self, x):
        super().check_point(x)
        if x < 0:
            raise ShapeError(f"negative point {x!r}")

    def _checked_shape(self):
        return None


def test_a_column_checks_each_point_against_the_target():
    mu, nu = mk.scale(0.3, mk.Normal()), _HalfLine(-0.4, LEBESGUE)
    for x in (0.1, 0.2):
        core._log_density(mu, x, nu)
    xs = [0.0, 1.5, 2.0]
    assert core._log_density_column(mu, nu, xs) == [core._recurse(mu, nu, x) for x in xs]
    with pytest.raises(ShapeError, match="negative point -1.0"):
        core._log_density(mu, -1.0, nu)
    with pytest.raises(ShapeError, match="negative point -1.0"):
        core._log_density_column(mu, nu, xs + [-1.0])


def test_masses_over_one_product_region_share_one_reference(monkeypatch):
    # The region's reference is one node per tuple of its regions'
    # references, so the plan the first mass keeps serves the later ones,
    # and no reference a later call drops is left in the measure's plans.
    mu = mk.product(mk.Normal(0.2, 1.1), mk.Exponential(1.5))
    walked = []
    log_density = core._log_density

    def counted(*args):
        walked.append(args[0])
        return log_density(*args)

    monkeypatch.setattr(core, "_log_density", counted)
    masses = []
    for i in range(6):
        walked.clear()
        region = ProductRegion((Interval(-4.0, 4.0), Interval(0.0, 6.0)))
        masses.append(verify.mass(mu, region, 1e-4))
        assert len(walked) == (2 if i == 0 else 0), i
    assert len(set(masses)) == 1
    assert len(mu._plans) == 1
    assert mu._plans[0][0] is verify._reference(ProductRegion((Interval(-1.0, 1.0),) * 2))
