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
from typing import Callable, Tuple

from . import core, rng
from .combinators import Product
from .core import (_TOO_DEEP, COUNTING, LEBESGUE, DepthError, MeasureError, MeasureExpr,
                   UndefinedDensityError, _as_float)

#: Bisections after the first 8 panels: at most 2**20 panels, so a call ends
#: in bounded time at any tolerance.
_MAX_DEPTH = 17

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
    """Inclusive integer region {lo, ..., hi}."""

    lo: int
    hi: int

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"IntegerRange needs lo <= hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class ProductRegion:
    """Cartesian product of regions, matching a product measure's arity."""

    children: Tuple[object, ...]


def _reference(region) -> MeasureExpr:
    if isinstance(region, Interval):
        return LEBESGUE
    if isinstance(region, IntegerRange):
        return COUNTING
    if isinstance(region, ProductRegion):
        return Product(tuple(_reference(c) for c in region.children))
    raise TypeError(f"not a region: {region!r}")


def _density_fn(mu: MeasureExpr, region) -> Tuple[Callable, Callable]:
    """The density of mu against the region's reference measure, as a
    function of a point and as a function of a list of points (a column),
    which gives the values the first gives at each, in order, and raises
    the first one's first error."""
    ref = _reference(region)

    def dens(x):
        try:
            value = core._log_density(mu, x, ref)
        except RecursionError:
            raise DepthError(_TOO_DEEP) from None
        if value != value:
            raise UndefinedDensityError(f"undefined density of {mu!r} at {x!r}")
        try:
            p = math.exp(value)
        except OverflowError:
            p = math.inf
        if p == math.inf:
            raise MeasureError(f"infinite density of {mu!r} at {x!r}")
        return p

    def replayed(xs):
        """The column by mu's kept plan (`core._log_density_column`); None
        where mu keeps none, and where a value is undefined or infinite or
        an error is raised, after which the weight counter reads as before."""
        count = core.weight_evaluations()
        try:
            values = core._log_density_column(mu, ref, xs)
            if values is None:
                return None
            # A sum below +inf holds no NaN and no +inf; a finite value too
            # large for exp raises OverflowError there.
            if sum(values) < math.inf:
                return list(map(math.exp, values))  # OverflowError beyond the float range
        except Exception:
            pass
        core._weight_evaluations = count  # the points are evaluated again, in turn
        return None

    def column(xs: list) -> list:
        if not mu.static_base:  # the walk depends on the point: no plan to replay
            return [dens(x) for x in xs]
        values = replayed(xs)
        if values is not None:
            return values
        # A pair keeps its plan at its second call: two points in turn, then
        # the rest by the plan if it is kept.
        done = [dens(x) for x in xs[:2]]
        values = replayed(xs[2:]) if len(xs) > 2 else None
        return done + ([dens(x) for x in xs[2:]] if values is None else values)

    return dens, column


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
    quadrature.  The tolerance must be finite and positive.

    Raises UndefinedDensityError at the first node or term whose density is
    undefined, and MeasureError, naming the point, at the first whose
    density is infinite (its log-density +inf, or beyond the float range),
    where no sum could converge.  Quadrature evaluates each node once, at
    most 2**20 + 1 per interval (`adaptive_simpson`).

    The nodes a grid adds, and the terms of an integer range, are evaluated
    as a column of up to `_COLUMN` points: where mu keeps a walk plan
    against the reference that ends where the two chains meet, its data
    terms are evaluated node by node over the whole column
    (`core._log_density_column`), else point by point, as for a measure
    whose base depends on the point, a plan that ends in a rule (sums,
    pushforwards, Diracs) and a measure's first two points, at the second
    of which it keeps its plan.  Either way each value has the bits of the
    point's own `log_density`; a column in which a density is undefined or
    infinite, or an error is raised, is evaluated again point by point, so
    the error is the first point's.  Product regions are evaluated point by
    point.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"mass tolerance must be finite and > 0, got {tol!r}")
    if isinstance(region, Interval):
        return _quadrature(_density_fn(mu, region)[1], region.a, region.b, tol)
    if isinstance(region, IntegerRange):
        column = _density_fn(mu, region)[1]
        total = 0.0
        last = 0.0
        for lo in range(region.lo, region.hi + 1, _COLUMN):
            for last in column(list(range(lo, min(lo + _COLUMN, region.hi + 1)))):
                total += last
        if last > tol:
            warnings.warn(
                f"mass sum truncated: pmf at {region.hi} is {last:.3g} > tol {tol:.3g}",
                stacklevel=2,
            )
        return total
    if isinstance(region, ProductRegion):
        return _product_mass(mu, region, tol)
    raise TypeError(f"not a region: {region!r}")


def _product_mass(mu: MeasureExpr, region: ProductRegion, tol: float) -> float:
    dens = _density_fn(mu, region)[0]

    def level(prefix, remaining, level_tol):
        region0 = remaining[0]
        rest = remaining[1:]
        if not rest:
            def f(x):
                return dens(prefix + (x,))
        else:
            def f(x):
                return level(prefix + (x,), rest, level_tol / 4.0)
        if isinstance(region0, Interval):
            return adaptive_simpson(f, region0.a, region0.b, level_tol)
        if isinstance(region0, IntegerRange):
            return sum(f(k) for k in range(region0.lo, region0.hi + 1))
        raise TypeError(f"not a region: {region0!r}")

    return level((), region.children, tol)


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
