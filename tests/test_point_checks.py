"""Each point is checked where it is read.

An affine map checks the points it maps, so a pushforward's point, a
pushed Dirac's atom and a draw pass one check; a walk that steps onto a
measure that checks as it evaluates (a chain, or a Weighted over one)
leaves the check to that measure, so each element's kernel runs once.
"""

import math
import re
from collections import namedtuple

import pytest

import measurekit as mk
from measurekit import verify
from measurekit.core import LEBESGUE, ShapeError
from measurekit.verify import Interval, ProductRegion

TRI = ((1.0, 0.0), (0.5, 2.0))
MAPS = [mk.forward_map(TRI, (0.1, 0.2)), mk.inverse_map(TRI, (0.1, 0.2))]
SCALAR_MAPS = [mk.forward_map(2.0, 0.5), mk.inverse_map(2.0, 0.5)]
Pair = namedtuple("Pair", "a b")


@pytest.mark.parametrize("t", MAPS, ids=["forward", "inverse"])
@pytest.mark.parametrize("x", [(0.5, 1.0, 2.0), [0.5, 1.0], (0.5,), 0.5, (0.5, "a"), (0.5, True)])
def test_a_matrix_pushforward_refuses_a_point_outside_the_map(t, x):
    image = mk.pushforward(t, mk.power(mk.Normal(), (2,)))
    for wrt in (None, mk.pushforward(t, mk.power(LEBESGUE, (2,)))):
        with pytest.raises(ShapeError, match="does not match the affine map"):
            mk.log_density(image, x, wrt=wrt)
    for f in (t.to_source, t.from_source):
        with pytest.raises(ShapeError, match="does not match the affine map"):
            f(x)


@pytest.mark.parametrize("t", MAPS, ids=["forward", "inverse"])
def test_a_mass_over_more_coordinates_than_the_map_is_refused(t):
    image = mk.pushforward(t, mk.power(mk.Normal(), (2,)))
    with pytest.raises(ShapeError, match=r"point \(-8, -8, -8\) does not match the affine map"):
        verify.mass(image, ProductRegion((Interval(-8, 8),) * 3), 1e-3)


@pytest.mark.parametrize("t", SCALAR_MAPS, ids=["forward", "inverse"])
@pytest.mark.parametrize("x", [True, False, "0.5", (0.5,), None])
def test_a_scalar_map_takes_a_number_and_no_bool(t, x):
    image = mk.pushforward(t, mk.Normal())
    for wrt in (None, LEBESGUE):
        with pytest.raises(ShapeError, match="does not match the affine map"):
            mk.log_density(image, x, wrt=wrt)
    for f in (t.to_source, t.from_source):
        with pytest.raises(ShapeError, match="does not match the affine map"):
            f(x)


@pytest.mark.parametrize("t", MAPS, ids=["forward", "inverse"])
@pytest.mark.parametrize("atom", [(1.0, 2.0, 3.0), 1.0, (1.0,), [1.0, 2.0]])
def test_a_pushed_dirac_must_fit_the_map(t, atom):
    with pytest.raises(ShapeError, match="does not match the affine map"):
        mk.pushforward(t, mk.Dirac(atom))


def test_in_space_points_keep_their_values():
    # An int is mapped as the float it rounds to, one beyond the float range
    # as the infinity of its sign.
    for t in SCALAR_MAPS:
        image = mk.pushforward(t, mk.Normal())
        assert mk.log_density(image, 1, wrt=LEBESGUE) == mk.log_density(image, 1.0, wrt=LEBESGUE)
        assert t.to_source(10**400) == t.to_source(math.inf)
        assert mk.pushforward(t, mk.Dirac(3)) == mk.Dirac(t.from_source(3.0))
    for t in MAPS:
        image = mk.pushforward(t, mk.power(mk.Normal(), (2,)))
        assert mk.log_density(image, (1, 2)) == mk.log_density(image, (1.0, 2.0))
        assert mk.log_density(image, Pair(1.0, 2.0)) == mk.log_density(image, (1.0, 2.0))
        assert t.to_source((-10**400, 0)) == t.to_source((-math.inf, 0.0))
        assert mk.pushforward(t, mk.Dirac((1, 2))) == mk.Dirac(t.from_source((1.0, 2.0)))


def _counting_chain():
    calls = []

    def step(v):
        calls.append(v)
        return mk.Normal(v, 0.5)

    return mk.chain(mk.Kernel(fn=step), mk.Normal()), calls


def test_root_measure_of_a_scaled_chain_applies_each_kernel_once():
    walk, calls = _counting_chain()
    scaled = mk.scale(0.3, walk)
    xs = tuple(0.1 * i for i in range(10))
    assert mk.root_measure(scaled, xs) == mk.power(LEBESGUE, (10,))
    assert len(calls) == 9
    calls.clear()
    mk.log_density(scaled, xs, wrt=mk.power(LEBESGUE, (10,)))
    assert len(calls) == 9
    # The chain's check still runs, on the step onto it.
    with pytest.raises(ShapeError, match="Chain expects a nonempty finite prefix, got 0.5"):
        mk.root_measure(scaled, 0.5)


def test_a_pushforward_over_a_chain_checks_the_point_once():
    walk, calls = _counting_chain()
    eye = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    image = mk.scale(-0.2, mk.pushforward(mk.forward_map(eye), walk))
    xs = (0.1, 0.2, 0.3)
    mk.log_density(image, xs, wrt=mk.power(LEBESGUE, (3,)))
    assert len(calls) == 2
    calls.clear()
    assert mk.root_measure(image, xs) == mk.pushforward(mk.forward_map(eye), mk.power(LEBESGUE, (3,)))
    assert len(calls) == 2
    with pytest.raises(ShapeError, match="does not match the affine map"):
        mk.root_measure(image, (0.1, 0.2))


@pytest.mark.parametrize("x", [("a", None), (1.0, True), (True, 2.0), (1.0, "2"), (1.0, (2.0,)), [1.0, 2.0],
                               (1.0,)])
def test_a_tuple_dirac_checks_each_entry(x):
    source = mk.Dirac((1.0, 2.0))
    with pytest.raises(ShapeError, match=r"Dirac atom has shape \(1.0, 2.0\)"):
        mk.log_density(source, x)
    # Against a reference of scalar entries, the reference's check reads
    # them, on a walk and on a replay of the kept plan.
    reference = mk.power(mk.COUNTING, (2,))
    for _ in range(3):
        with pytest.raises(ShapeError):
            mk.log_density(source, x, wrt=reference)
        assert mk.log_density(source, (1.0, 2.0), wrt=reference) == 0.0


def test_a_tuple_dirac_keeps_its_value_on_points_of_its_shape():
    atom = mk.Dirac((1.0, 2.0))
    assert mk.log_density(atom, (1.0, 2.0)) == 0.0
    assert mk.log_density(atom, (1, 2)) == 0.0
    assert mk.log_density(atom, Pair(1.0, 2.5)).is_neg_inf
    nested = mk.Dirac((1.0, (2.0, 3.0)))
    assert mk.log_density(nested, (1.0, (2.0, 3.0))) == 0.0
    with pytest.raises(ShapeError, match="Dirac atom has shape"):
        mk.log_density(nested, (1.0, 2.0))


@pytest.mark.parametrize("x", [("a", None), (1.0, True), (1.0, "2"), (1.0, (2.0,)), ((1.0,), 2.0)])
def test_two_tuple_diracs_refuse_a_point_that_does_not_fit_them(x):
    # Neither Dirac is a reference of scalar entries, so no check reads the
    # point's entries before the local rule: it refuses them, in both
    # orders, on a walk and on a replay of the kept plan.
    one, other = mk.Dirac((1.0, 2.0)), mk.Dirac((1.0, 3.0))
    for source, target in ((one, other), (other, one)):
        for _ in range(3):
            with pytest.raises(ShapeError, match=re.escape(f"Dirac atom has shape {source.atom!r}")):
                mk.log_density(source, x, wrt=target)
            assert mk.log_density(source, (1.0, 2.0), wrt=target).is_undefined
            assert mk.log_density(source, (5.0, 5.0), wrt=target).is_undefined
    nested = mk.Dirac((1.0, (2.0, 3.0)))
    with pytest.raises(ShapeError, match="Dirac atom has shape"):
        mk.log_density(nested, (1.0, 2.0), wrt=mk.Dirac((1.0, (2.0, 4.0))))
