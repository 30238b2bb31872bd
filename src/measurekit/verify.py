"""Independent numerical oracles: quadrature, summation, Monte Carlo.

These checks deliberately avoid the density engine's own algebra: masses are
obtained by adaptive Simpson quadrature or exact summation of pointwise
density evaluations, so they can catch errors in the measure combinators and
base-weight bookkeeping.
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import astuple, dataclass
from functools import cache
from typing import Callable, Tuple

from . import core, rng
from .combinators import Power, Product
from .core import COUNTING, LEBESGUE, MeasureError, MeasureExpr, UndefinedDensityError, _as_float

#: Bisections after the first 8 panels: at most 2**20 panels, so a call ends
#: in bounded time at any tolerance.
_MAX_DEPTH = 17

#: Most integer points a mass sums, the quadrature's node cap: 2**20 + 1.
_MAX_TERMS = (8 << _MAX_DEPTH) + 1

#: Most points in one column of density values: a grid's new nodes or an
#: integer range beyond it are evaluated a column at a time, so the lists a
#: column builds stay small at the panel cap.
_COLUMN = 4096


@dataclass(frozen=True)
class Interval:
    """Axis-aligned continuous region [a, b]: a < b, with a, b and b - a
    finite (an int beyond the float range counts as the infinity of its
    sign), since quadrature places its nodes in floats across the width."""

    a: float
    b: float

    def __post_init__(self):
        a, b = _as_float(self.a), _as_float(self.b)
        if not (a < b and math.isfinite(b - a)):
            raise ValueError(f"Interval needs finite a < b with b - a finite, got [{self.a}, {self.b}]")


@dataclass(frozen=True)
class IntegerRange:
    """Inclusive integer region {lo, ..., hi}: int bounds (no bool), lo <= hi."""

    lo: int
    hi: int

    def __post_init__(self):
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (self.lo, self.hi)):
            raise ValueError(f"IntegerRange needs int bounds, got [{self.lo!r}, {self.hi!r}]")
        if not self.lo <= self.hi:
            raise ValueError(f"IntegerRange needs lo <= hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class ProductRegion:
    """Cartesian product of one or more regions, matching a product
    measure's arity; its points are tuples with one slot per region."""

    children: Tuple[object, ...]

    def __post_init__(self):
        if not self.children:
            raise ValueError("ProductRegion needs at least one region")


def _reference(region) -> MeasureExpr:
    """The region's reference measure.  Its integer ranges hold at most the
    quadrature's node cap of integer points, alone and together, so a sum
    ends in bounded time."""
    if isinstance(region, Interval):
        return LEBESGUE
    if isinstance(region, IntegerRange):
        if region.hi - region.lo >= _MAX_TERMS:
            raise ValueError(f"mass sums at most {_MAX_TERMS} integers, got [{region.lo}, {region.hi}]")
        return COUNTING
    if isinstance(region, ProductRegion):
        refs = tuple(map(_reference, region.children))
        n = _integer_points(region)
        if n > _MAX_TERMS:
            raise ValueError(f"mass sums at most {_MAX_TERMS} integer points, got {n} in {region!r}")
        return _product_reference(refs)
    raise TypeError(f"not a region: {region!r}")


def _integer_points(region) -> int:
    """How many points the region's integer ranges hold together."""
    if isinstance(region, IntegerRange):
        return region.hi - region.lo + 1
    if isinstance(region, ProductRegion):
        return math.prod(map(_integer_points, region.children))
    return 1


@cache
def _product_reference(refs: tuple) -> MeasureExpr:
    """The reference of a product region whose regions have the references
    refs: one node per tuple, so the walk plan a measure keeps against it
    (looked up by the target's identity) serves every later mass."""
    return Product(refs) if len(refs) > 1 else Power(refs[0], (1,))


def _density_fn(mu: MeasureExpr, region) -> Callable[[list], list]:
    """The density of mu against the region's reference measure at each
    point of a list (a column): the values `log_density` gives at each, in
    order, and the first one's first error.

    The engine evaluates the column (`core._log_density_column`).  A column
    with an error, an undefined or an infinite value is evaluated again
    point by point, from the weight count it started at, so the error is
    the first point's.
    """
    ref = _reference(region)

    def dens(x):
        value = core.log_density(mu, x, ref)
        if value.is_undefined:
            raise UndefinedDensityError(f"undefined density of {mu!r} at {x!r}")
        p = value.exp()
        if p == math.inf:
            raise MeasureError(f"infinite density of {mu!r} at {x!r}")
        return p

    def column(xs: list) -> list:
        count = core.weight_evaluations()
        try:
            values = core._log_density_column(mu, ref, xs)
            # A sum below +inf holds no NaN and no +inf; a finite value too
            # large for exp raises OverflowError there.
            if sum(values) < math.inf:
                return list(map(math.exp, values))
        except Exception:
            pass
        core._weight_evaluations = count  # the points are evaluated again, in turn
        return [dens(x) for x in xs]

    return column


def adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Simpson quadrature, adapted to tol by bisecting every panel.

    Composite Simpson estimates are computed on nested panel grids (every
    bisection doubles the panel count) until the Richardson error estimate
    |S_2n - S_n| / 15 drops to the absolute tolerance, or up to 2**20
    panels, whose estimate is returned.
    Nested grids make the achieved error non-increasing as tol shrinks, which
    the per-panel local-tolerance variant does not guarantee.

    Each node is evaluated once: a grid keeps its values, as doubles, and
    the next grid takes them as its even nodes (the same floats, since the
    panel width halves exactly) and calls f only at the new midpoints, left
    to right.  So f is called n + 1 times for a final grid of n panels, at
    most 2**20 + 1 times (about 8 MB of values at the cap), first at a, b
    and the first grid's interior, left to right.  (Where b - a is so small
    that the panel widths are subnormal, halving rounds and no node is
    shared: each grid is then evaluated whole, in that order.)

    `mass` runs the same quadrature with f applied to a column of nodes at
    a time, those a grid adds, which gives the same values in the same
    order.
    """
    return _quadrature(lambda xs: [f(x) for x in xs], a, b, tol)


def _quadrature(column: Callable[[list], list], a: float, b: float, tol: float) -> float:
    """`adaptive_simpson` with the integrand's values at a list of nodes
    given by ``column``, called on the nodes each grid adds, in the order
    f would be called, at most `_COLUMN` nodes at a time."""
    n = 8
    h = (b - a) / n
    ys = _whole_grid(column, a, b, n)
    prev = _simpson(ys, h)
    for _ in range(_MAX_DEPTH):
        n *= 2
        half = (b - a) / n
        if half * 2.0 == h:  # the even nodes are the last grid's nodes
            grid = array("d", [0.0]) * (n + 1)
            grid[0::2] = ys
            for lo in range(1, n, 2 * _COLUMN):
                hi = min(lo + 2 * _COLUMN, n)
                grid[lo:hi:2] = array("d", column([a + i * half for i in range(lo, hi, 2)]))
        else:  # a width in the subnormals, where halving rounds: all move
            grid = _whole_grid(column, a, b, n)
        ys, h = grid, half
        cur = _simpson(ys, h)
        if abs(cur - prev) / 15.0 <= tol:
            return cur
        prev = cur
    return cur


def _whole_grid(column, a: float, b: float, n: int) -> array:
    """The integrand at the n + 1 nodes of n equal panels on [a, b],
    evaluated at a, at b, then at the interior left to right."""
    h = (b - a) / n
    nodes = [a, b, *(a + i * h for i in range(1, n))]
    values = array("d")
    for lo in range(0, n + 1, _COLUMN):
        values.extend(column(nodes[lo:lo + _COLUMN]))
    return values[:1] + values[2:] + values[1:2]


def _simpson(ys, h: float) -> float:
    """Composite Simpson sum of the node values ys, spaced h apart, added
    left to right.  Where that overflows, though the terms may not, each
    value is scaled by h / 3 before it is weighted and added."""
    total = _weighted_sum(ys) * h / 3.0
    return total if -math.inf < total < math.inf else _weighted_sum([y * (h / 3.0) for y in ys])


def _weighted_sum(ys) -> float:
    """The sum of ys, left to right, each times its Simpson weight: 1, 4, 2,
    4, ..., 2, 4, 1."""
    s = ys[0] + ys[-1]
    for i in range(1, len(ys) - 1):
        s += (4.0 if i % 2 else 2.0) * ys[i]
    return s


def mass(mu: MeasureExpr, region, tol: float = 1e-8) -> float:
    """Mass of mu on the region via quadrature or exact summation.

    Continuous regions integrate exp(log-density against Lebesgue) with
    adaptive Simpson at the given absolute tolerance; integer regions sum the
    probability mass function exactly and warn when the last term still
    exceeds the tolerance (truncated tail).  Product regions use iterated
    quadrature (`_integral`) over tuple points, against the product of their
    regions' references, or `Power(reference, (1,))` for one region.  The
    tolerance must be finite and positive, and the integer ranges of a
    region may hold at most 2**20 + 1 integer points, alone and together.

    Raises UndefinedDensityError at the first node or term whose density is
    undefined, and MeasureError, naming the point, at the first whose
    density is infinite (its log-density +inf, or beyond the float range),
    where no sum could converge.  Quadrature evaluates each node once, at
    most 2**20 + 1 per interval (`adaptive_simpson`).

    The nodes a grid adds, and the terms of an integer range, are evaluated
    as a column of up to `_COLUMN` points (`_density_fn`).  Each value has
    the bits of the point's own `log_density`, and an error is the first
    point's.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"mass tolerance must be finite and > 0, got {tol!r}")
    column = _density_fn(mu, region)
    if not isinstance(region, IntegerRange):
        return _integral(column, region, tol)
    total, last = _range_sum(column, region)
    if last > tol:
        warnings.warn(f"mass sum truncated: pmf at {region.hi} is {last:.3g} > tol {tol:.3g}",
                      stacklevel=2)
    return total


def _integral(column: Callable[[list], list], region, tol: float) -> float:
    """The integral over the region of the values ``column`` gives at a list
    of points: an interval by `_quadrature`, an integer range by
    `_range_sum`, and a product region over tuple points, its first
    coordinate outermost, each inner integral at a quarter of the
    tolerance of the one around it."""
    if isinstance(region, Interval):
        return _quadrature(column, region.a, region.b, tol)
    if isinstance(region, IntegerRange):
        return _range_sum(column, region)[0]
    first, *rest = region.children
    if not rest:
        return _integral(lambda xs: column([(x,) for x in xs]), first, tol)
    inner = ProductRegion(tuple(rest))
    return _integral(lambda xs: [_integral(lambda ys: column([(x, *y) for y in ys]), inner,
                                           tol / 4.0) for x in xs], first, tol)


def _range_sum(column: Callable[[list], list], region: IntegerRange) -> Tuple[float, float]:
    """The sum of the values ``column`` gives at the region's integers,
    added left to right, and the last of them."""
    total = last = 0.0
    for lo in range(region.lo, region.hi + 1, _COLUMN):
        for last in column(list(range(lo, min(lo + _COLUMN, region.hi + 1)))):
            total += last
    return total, last


def additivity_check(mu: MeasureExpr, region_a, region_b, tol: float = 1e-9) -> float:
    """Inclusion-exclusion violation |m(A u B) + m(A n B) - m(A) - m(B)|."""
    with warnings.catch_warnings():
        # Partial regions are intended here; the truncated-tail hint is noise.
        warnings.simplefilter("ignore")
        return _additivity_check(mu, region_a, region_b, tol)


def _additivity_check(mu: MeasureExpr, region_a, region_b, tol: float) -> float:
    kind = type(region_a)
    if kind not in (Interval, IntegerRange) or type(region_b) is not kind:
        raise TypeError("additivity_check supports interval or integer-range pairs")
    (a_lo, a_hi), (b_lo, b_hi) = astuple(region_a), astuple(region_b)
    ma = mass(mu, region_a, tol)
    mb = mass(mu, region_b, tol)
    if a_lo <= b_hi and b_lo <= a_hi:
        union = mass(mu, kind(min(a_lo, b_lo), max(a_hi, b_hi)), tol)
        ilo, ihi = max(a_lo, b_lo), min(a_hi, b_hi)
        # An Interval needs a < b; an IntegerRange may hold a single integer.
        nonempty = ilo < ihi if kind is Interval else ilo <= ihi
        inter = mass(mu, kind(ilo, ihi), tol) if nonempty else 0.0
    else:
        union = ma + mb
        inter = 0.0
    return abs(union + inter - ma - mb)


def mc_mean(mu: MeasureExpr, f: Callable, n: int, seed: int) -> float:
    """Monte Carlo mean of f under mu over n >= 1 draws; deterministic
    given the seed."""
    if n < 1:
        raise ValueError(f"mc_mean needs n >= 1 draws, got {n!r}")
    total = 0.0
    for i in range(n):
        total += f(core.sample(mu, rng.derive_key(seed, i)))
    return total / n
