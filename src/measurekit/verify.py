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
from .core import COUNTING, LEBESGUE, MeasureError, MeasureExpr, UndefinedDensityError

#: Bisections after the first 8 panels: at most 2**20 panels, so a call ends
#: in bounded time at any tolerance.
_MAX_DEPTH = 17


@dataclass(frozen=True)
class Interval:
    """Axis-aligned continuous region [a, b]."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"Interval needs a < b, got [{self.a}, {self.b}]")


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


def _density_fn(mu: MeasureExpr, region) -> Callable:
    ref = _reference(region)

    def dens(x):
        value = core.log_density(mu, x, wrt=ref)
        if value.is_undefined:
            raise UndefinedDensityError(f"undefined density of {mu!r} at {x!r}")
        p = value.exp()
        if p == math.inf:
            raise MeasureError(f"infinite density of {mu!r} at {x!r}")
        return p

    return dens


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
    """
    n = 8
    h = (b - a) / n
    ys = _whole_grid(f, a, b, n)
    prev = _simpson(ys, h)
    for _ in range(_MAX_DEPTH):
        n *= 2
        half = (b - a) / n
        if half * 2.0 == h:  # the even nodes are the last grid's nodes
            grid = array("d", [0.0]) * (n + 1)
            grid[0::2] = ys
            for i in range(1, n, 2):
                grid[i] = f(a + i * half)
        else:  # a width in the subnormals, where halving rounds: all move
            grid = _whole_grid(f, a, b, n)
        ys, h = grid, half
        cur = _simpson(ys, h)
        if abs(cur - prev) / 15.0 <= tol:
            return cur
        prev = cur
    return cur


def _whole_grid(f, a: float, b: float, n: int) -> array:
    """f at the n + 1 nodes of n equal panels on [a, b], evaluated at a, at
    b, then at the interior left to right."""
    h = (b - a) / n
    fa, fb = f(a), f(b)
    return array("d", [fa, *(f(a + i * h) for i in range(1, n)), fb])


def _simpson(ys, h: float) -> float:
    """Composite Simpson sum of the node values ys, spaced h apart, added
    left to right."""
    s = ys[0] + ys[-1]
    for i in range(1, len(ys) - 1):
        s += (4.0 if i % 2 else 2.0) * ys[i]
    return s * h / 3.0


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
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"mass tolerance must be finite and > 0, got {tol!r}")
    if isinstance(region, Interval):
        return adaptive_simpson(_density_fn(mu, region), region.a, region.b, tol)
    if isinstance(region, IntegerRange):
        dens = _density_fn(mu, region)
        total = 0.0
        last = 0.0
        for k in range(region.lo, region.hi + 1):
            last = dens(k)
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
    dens = _density_fn(mu, region)

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
    """Monte Carlo mean of f under mu; deterministic given the seed."""
    total = 0.0
    for i in range(n):
        total += f(core.sample(mu, rng.derive_key(seed, i)))
    return total / n
