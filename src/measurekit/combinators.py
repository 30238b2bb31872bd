"""Measure-forming operations.

Products, powers, indexed products, monadic bind, superposition, constant
scaling, pointwise products with likelihoods, density closures, integral
measures, and affine pushforwards.  All nodes are immutable; evaluation is
pure.

`Product`, `ForProduct`, `Bind` and `kernels.Chain` are products on tuple
points and share one set of loops (`_Product`): each declares only its
factors at a point and how their bases make its base.  `Product` and
`ForProduct` have fixed factors (`_FixedProduct`); a ForProduct applies its
kernel once per index, when it is built.  The fields of eight or more
factors of one family are kept as columns, the one record their checks,
data terms and lane draws read.  The factors of `Bind` and `Chain` depend on
the point; over a family kernel they are read over columns of the elements
(`_column_terms`), with no measure built, and their parameters checked a
column at a time.  `Pushforward` and
`PointwiseProduct` over such a measure check the point as they evaluate it,
as `Power` and the fixed products do, so a kernel runs once per element.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import islice, repeat
from typing import Any, Callable, Optional, Sequence, Tuple

from . import core, rng
from .core import (
    Dirac,
    LogWeight,
    MeasureExpr,
    NotProbabilityError,
    ShapeError,
    Weighted,
    _as_float,
    _is_scalar,
    _log_density,
    _logsumexp,
)


# ---------------------------------------------------------------------------
# Product measures
# ---------------------------------------------------------------------------


class _Product(MeasureExpr):
    """A product on tuple points: slot i of the point is measured by factor i.

    A subclass declares `_terms(x)`: after the checks it owes x, the sum of
    the factors' data terms, left to right from 0.0, each factor's base and
    the base's constant weight (None when it has none), from one loop over
    the factors; a factor the loop builds no measure for gives its root as
    its base, and the weight the base would carry over it.  And it declares
    `_base_of(weights, bases)`, its base joined from those.  `unfold` reads
    both from one `_terms`.
    """

    def check_point(self, x) -> None:
        self._terms(x)

    def log_density_at(self, x) -> float:
        return self._terms(x)[0]

    def base_at(self, x) -> MeasureExpr:
        _, weights, bases = self._terms(x)
        return self._base_of(weights, bases)

    def unfold(self, x):
        data, weights, bases = self._terms(x)
        base = self._base_of(weights, bases)
        if type(base) is type(self) and base == self:  # a Product of fixed points
            return None
        return data, base


def _unfold_into(m: MeasureExpr, xi, data: float, weights: list, bases: list) -> float:
    """data plus m's data term at xi; m's base there, and its weight, go to
    ``bases`` and ``weights``.  xi is checked already, unless m checks it
    itself."""
    step = m.unfold(xi)
    if step is None:  # a fixed point: its own base
        step = m.log_density_at(xi), m
    base = step[1]
    weights.append(base.logweight if isinstance(base, Weighted) else None)
    bases.append(base)
    return data + step[0]


def _kernel_terms(first: MeasureExpr, kernel, x):
    """`_Product._terms` of a product whose factor 0 is ``first`` and whose
    factor i >= 1 is kernel(x[i - 1]), each element checked as it is read.
    A family kernel (`kernels.Kernel._law`) builds no measure.  From
    `_COLUMNS_MIN` elements on they are read over columns (`_column_terms`);
    fewer, and any the columns decline or raise on, are read one by one by
    the loop below, which maps and checks each element's parameters, checks
    the element, adds the family's data term and notes its base weight, and
    so gives the value, or the error of the first element that has one.
    Any other kernel's element is the node it returns."""
    weights, bases = [], []
    if not first.self_checking:
        first.check_point(x[0])
    data = _unfold_into(first, x[0], 0.0, weights, bases)
    law = getattr(kernel, "_law", None)
    if law is None:
        for prev, cur in zip(x, x[1:]):
            m = kernel(prev)
            if not m.self_checking:
                m.check_point(cur)
            data = _unfold_into(m, cur, data, weights, bases)
        return data, weights, bases
    params, _, _, family = law
    bases.extend(repeat(family.root, len(x) - 1))
    if len(x) > _COLUMNS_MIN:
        try:
            total = _column_terms(law, x, data, weights)
        except Exception:  # the loop below raises it again, at its element
            total = None
        if total is not None:
            return total, weights, bases
        del weights[1:]
    term, weight, name = family.data, family.weight, family.cls.__name__
    note = weights.append
    for prev, cur in zip(x, x[1:]):
        args = params(prev)
        t = type(cur)
        if t is not float and t is not int and not _is_scalar(cur):
            raise core._not_scalar(name, cur)
        data += term(cur, *args)
        note(None if weight is None else weight(*args))
    return data, weights, bases


#: The fewest elements a family kernel's product reads over columns.  The
#: columns cost a fixed set-up, so below about this many the loop is faster
#: (a one-element `Bind`'s density, say).
_COLUMNS_MIN = 8

_PLAIN = frozenset((float, int))
_FLOAT = frozenset((float,))


def _column_terms(law, x, data: float, weights: list) -> Optional[float]:
    """data plus the family's data terms of x[1:], the elements of a product
    over a family kernel, each at the parameters the law maps x[i - 1] to,
    added left to right as the loop of `_kernel_terms` adds them; their base
    weights go to ``weights``.  Each parameter map, the data term and the
    weight run over whole columns, the weight once when the parameters it
    reads are constant; the check screens each column whole
    (`catalog._columns`), and where a column does not pass, `checked` reads
    it element by element, which converts a value or raises at the first it
    rejects.  None where an element is no float or int."""
    cur = x[1:]
    if not _PLAIN.issuperset(map(type, cur)):
        return None
    _, column, fixed, family = law
    passed, params = column(x[:-1])
    if not passed:
        params = tuple(zip(*map(family.checked, *params)))
    weight = family.weight
    if weight is None:
        weights += [None] * len(cur)
    elif fixed:
        weights += [weight(*[p[0] for p in params])] * len(cur)
    else:
        weights.extend(map(weight, *params))
    return family.columns(data, cur, *params)


def _rejoined(weight: Optional[float], base: MeasureExpr) -> MeasureExpr:
    """The base a `_Product._terms` entry stands for: ``base``, or the
    Weighted that a root under its weight stands for."""
    return base if weight is None or isinstance(base, Weighted) else Weighted(weight, base)


class _FixedProduct(_Product):
    """Independent product of the fixed measures ``children``: checks, masses
    and draws run factor by factor, left to right.  From `_COLUMNS_MIN`
    factors of one family on, the family and its fields' columns over the
    factors are kept as the product is built: the point's check is then its
    length and one scan of its types (each factor's is the default scalar
    check), its data terms are one sum over the columns, and, where the
    family declares `catalog.Lanes`, the standard draws come a chunk of
    streams at a time and are placed at the columns' parameters.
    A subclass declares ``children``, the message of its length error and
    `_base_of`.
    """

    #: The ShapeError message for a point that is no tuple of the right length.
    _length_error = "Product of {n} factors expects a {n}-tuple, got {x!r}"
    #: When the factors are `_COLUMNS_MIN` or more members of one family:
    #: the `catalog.Family` and its fields' columns over the factors.
    _columns = None

    def __post_init__(self):
        # The flags and the columns are stored, not computed per read: a
        # ForProduct may have thousands of factors.
        children = self.children
        if len(children) >= _COLUMNS_MIN:  # a short product, a Bind's base say, skips the scan
            cls = type(children[0])
            family = getattr(cls, "_family", None)
            if (family is not None and children[0]._checked_shape() == ()
                    and all(type(child) is cls for child in children)):
                object.__setattr__(self, "_columns", (family, tuple(zip(*map(family.args, children)))))
        static = True
        for child in self.children:
            if child.self_checking:
                # Such a child checks its entry as it is evaluated; a
                # separate check would apply its kernels twice.
                object.__setattr__(self, "self_checking", True)
            if not child.static_base:
                static = False
        if static:
            object.__setattr__(self, "static_base", True)

    def _check_length(self, x) -> None:
        if not isinstance(x, tuple) or len(x) != len(self.children):
            raise ShapeError(self._length_error.format(n=len(self.children), x=x))

    def check_point(self, x) -> None:
        self._check_length(x)
        if self._columns is not None and _PLAIN.issuperset(map(type, x)):
            return  # each factor's check passes a float or an int
        for child, xi in zip(self.children, x):
            child.check_point(xi)

    def _checked_shape(self):
        return None if self._columns is None else (len(self.children),)

    def _factors(self, x):
        if self.self_checking:
            # The checks that the children's evaluation skips.
            self._check_length(x)
            for child, xi in zip(self.children, x):
                if not child.self_checking:
                    child.check_point(xi)
        return self.children

    def log_density_at(self, x) -> float:
        # The data terms alone: a walk plan replays them at every point.
        if self._columns is not None:
            family, columns = self._columns
            return family.columns(0.0, x, *columns)
        total = 0.0
        for m, xi in zip(self._factors(x), x):
            total += m.log_density_at(xi)
        return total

    def base_at(self, x) -> MeasureExpr:
        bases = [m.base_at(xi) for m, xi in zip(self._factors(x), x)]
        return self._base_of(_weights(bases), bases)

    def _terms(self, x):
        weights, bases = [], []
        data = 0.0
        for m, xi in zip(self._factors(x), x):
            data = _unfold_into(m, xi, data, weights, bases)
        return data, weights, bases

    def log_total_mass(self):
        total = 0.0
        for child in self.children:
            lm = child.log_total_mass()
            if lm is None:
                return None
            total += lm
        return total

    def _sample_normalized(self, seed: int):
        lanes = None if self._columns is None else self._columns[0].lanes
        if lanes is None:
            return tuple(child._sample_normalized(rng.derive_key(seed, i))
                         for i, child in enumerate(self.children))
        fields = self._columns[1]
        draws = []
        for chunk, words in rng.word_chunks(seed, 0, lanes.units, len(self.children)):
            lo = len(draws)
            params = zip(*[c[lo:lo + len(chunk[0])] for c in fields]) if fields else repeat(())
            draws.extend(lanes.placed(lanes.standard(chunk, words), params))
        return tuple(draws)


@dataclass(frozen=True)
class Product(_FixedProduct):
    """Independent product; points are tuples with one slot per factor."""

    children: Tuple[MeasureExpr, ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("Product needs at least two factors")
        super().__post_init__()

    def _base_of(self, weights, bases) -> MeasureExpr:
        return Product(tuple(map(_rejoined, weights, bases)))

    # The rules evaluate each coordinate through `_log_density`, which checks it.

    def rule_vs(self, other, x) -> Optional[float]:
        # d(mu1 x mu2)/d(nu1 x nu2) factors coordinatewise.
        if isinstance(other, Product) and len(other.children) == len(self.children):
            targets = other.children
        elif isinstance(other, Power) and other.shape == (len(self.children),):
            targets = (other.child,) * len(self.children)
        else:
            return None
        if self.self_checking:
            self._check_length(x)
        return _coordinatewise(self.children, targets, x)

    def reference_class(self):
        # A rescaling of one primitive reference when every factor is.
        refs = [m.reference_class() for m in self.children]
        if None in refs or len({ref[0] for ref in refs}) != 1:
            return None
        return refs[0][0], _left_sum((ref[1] for ref in refs), 0)


def _coordinatewise(sources, targets, x) -> float:
    """Sum of `_log_density` of each coordinate against its target, left to
    right from 0.0; zip's shortest argument sets the number of coordinates.
    Undefined wins over unrelated, as in the local rule: where a coordinate's
    measures are unrelated, the rest are added too, and the density is
    undefined (NaN) if that sum is, else the coordinate's error is raised."""
    total = 0.0
    coordinates = zip(sources, targets, x)
    for source, target, xi in coordinates:
        try:
            total += _log_density(source, xi, target)
        except core.UnrelatedPrimitivesError:
            for source, target, xi in coordinates:
                try:
                    total += _log_density(source, xi, target)
                except core.MeasureError:
                    pass
            if math.isnan(total):
                return math.nan
            raise
    return total


def product(mu: MeasureExpr, nu: MeasureExpr) -> Product:
    """Independent product measure on pair points."""
    return Product((mu, nu))


def product_base(bases: Sequence[MeasureExpr], shape: Tuple[int, ...]) -> MeasureExpr:
    """Base measure of an independent product over ``shape``.

    ``bases`` holds the base of each coordinate in row-major order, or one
    base shared by every coordinate.  When the bases, stripped of their
    constant ``Weighted`` terms, all equal one measure B, the result is
    Weighted(sum of the terms, Power(B, shape)): the normalization is one
    term however many coordinates there are.  Otherwise the bases are nested
    into Products that follow the shape.
    """
    return _joined_base(_weights(bases), bases, shape)


# Before Python 3.12 `sum` adds floats left to right, as a loop does; from
# 3.12 on it compensates, which rounds otherwise.  Every float sum here
# goes through this, so the bits are the same on every supported Python.
_left_sum = sum if sys.version_info < (3, 12) else partial(reduce, operator.add)


def _weights(bases) -> list:
    return [b.logweight if isinstance(b, Weighted) else None for b in bases]


def _joined_base(weights: list, bases: list, shape: Tuple[int, ...]) -> MeasureExpr:
    """`product_base` of entries as `_Product._terms` gives them.  Where
    every base after the first is the first's root, as a family kernel's
    are, one list comparison in C finds it, and the weights, when none is
    None, are summed left to right in C too."""
    first = bases[0]
    if isinstance(first, Weighted):
        first = first.base
    if bases[1:] != [first] * (len(bases) - 1):
        for b in bases:
            if b is not first:
                inner = b.base if isinstance(b, Weighted) else b
                if inner is not first and inner != first:
                    return _nested_product(map(_rejoined, weights, bases), shape)
    try:
        logweight, weighted = _left_sum(weights, 0.0), True
    except TypeError:  # a factor with no weight: the others', left to right
        weighted = False
        logweight = 0.0
        for w in weights:
            if w is not None:
                weighted = True
                logweight += w
    if len(bases) == 1:
        logweight *= _shape_size(shape)
    return Weighted(logweight, Power(first, shape)) if weighted else Power(first, shape)


def _nested_product(bases, shape) -> MeasureExpr:
    if len(shape) == 1:
        parts = tuple(next(bases) for _ in range(shape[0]))
    else:
        parts = tuple(_nested_product(bases, shape[1:]) for _ in range(shape[0]))
    return Product(parts) if len(parts) > 1 else Power(parts[0], (1,))


# ---------------------------------------------------------------------------
# Power measures
# ---------------------------------------------------------------------------


def _shape_size(shape: Tuple[int, ...]) -> int:
    n = 1
    for s in shape:
        n *= s
    return n


def _flat(x, shape):
    """The scalar-level entries of a nested tuple of the given shape."""
    if len(shape) == 1:
        return x
    return [xi for row in x for xi in _flat(row, shape[1:])]


def _check_shape(x, shape, child: Optional[MeasureExpr]):
    """Check that x nests tuples as ``shape``, and its entries against ``child``
    unless that is None."""
    if not isinstance(x, tuple) or len(x) != shape[0]:
        raise ShapeError(f"expected a tuple of length {shape[0]}, got {x!r}")
    if len(shape) == 1:
        if child is not None:
            _check_entries(x, child)
    else:
        for row in x:
            _check_shape(row, shape[1:], child)


def _check_entries(xs, child: MeasureExpr) -> None:
    """``child.check_point`` on each entry of a flat block, in order; a
    child's default scalar check sees only entries that are no float or int."""
    check = child.check_point
    if type(child).check_point is MeasureExpr.check_point:
        for x in xs:
            t = type(x)
            if t is not float and t is not int:
                check(x)
    else:
        for x in xs:
            check(x)


def _build_shape(shape, entries):
    """Nest an iterator of row-major entries into tuples of the given shape."""
    if len(shape) == 1:
        return tuple(islice(entries, shape[0]))
    return tuple(_build_shape(shape[1:], entries) for _ in range(shape[0]))


@dataclass(frozen=True)
class Power(MeasureExpr):
    """iid product of one measure over a shape.

    The base measure factors any constant weight once: the base of
    Normal^n is Weighted(n * w, Lebesgue^n) rather than a product of n
    weighted factors, so the normalization term is evaluated a single time
    regardless of n.  A child whose base ignores the point has its base
    computed once; otherwise each coordinate's base is taken at its entry.
    Checks, data terms and draws take the whole flat block of coordinates at
    once (`_check_entries`, and the child's `_data_block` and `_sample_block`
    hooks).  A power of a self-checking child is self-checking: it checks
    only the nesting, and the child its entries.
    """

    child: MeasureExpr
    shape: Tuple[int, ...]

    def __post_init__(self):
        if not self.shape:
            raise ValueError("Power needs a nonempty shape")
        if any(not isinstance(s, int) or isinstance(s, bool) or s < 1 for s in self.shape):
            raise ValueError(f"invalid power shape {self.shape!r}")
        if self.child.self_checking:
            object.__setattr__(self, "self_checking", True)
        object.__setattr__(self, "static_base", self.child.static_base)

    def check_point(self, x) -> None:
        _check_shape(x, self.shape, self.child)

    def _checked_shape(self):
        inner = self.child._checked_shape()
        return None if inner is None else self.shape + inner

    def _entries(self, x):
        """x's entries, row-major; a self-checking power checks the nesting
        here, as its child checks each entry as it evaluates it."""
        if self.self_checking:
            _check_shape(x, self.shape, None)
        return _flat(x, self.shape)

    def log_density_at(self, x) -> float:
        return self.child._data_block(self._entries(x))

    def base_at(self, x) -> MeasureExpr:
        base = self.child.base_at
        if self.child.static_base:  # so this power is not self-checking
            first = x
            for _ in self.shape:
                first = first[0]
            return product_base((base(first),), self.shape)
        return product_base([base(xi) for xi in self._entries(x)], self.shape)

    def unfold(self, x):
        if self.child.static_base:
            return MeasureExpr.unfold(self, x)
        # Each coordinate's base is taken at its entry, which is unfolded once.
        weights, bases = [], []
        data = 0.0
        for xi in self._entries(x):
            data = _unfold_into(self.child, xi, data, weights, bases)
        base = _joined_base(weights, bases, self.shape)
        return None if base == self else (data, base)

    def reference_class(self):
        ref = self.child.reference_class()
        if ref is None:
            return None
        return (ref[0], _shape_size(self.shape) * ref[1])

    def rule_vs(self, other, x) -> Optional[float]:
        # Two powers of one shape that are chain fixed points (a power of atoms,
        # say) split coordinatewise; Power(Normal, n) walks its chain instead.
        if (isinstance(other, Power) and other.shape == self.shape and self.static_base
                and other.static_base and self.base_at(x) == self and other.base_at(x) == other):
            return _coordinatewise(repeat(self.child), repeat(other.child), _flat(x, self.shape))
        return None

    def log_total_mass(self):
        lm = self.child.log_total_mass()
        return None if lm is None else _shape_size(self.shape) * lm

    def _sample_normalized(self, seed: int):
        block = self.child._sample_block(seed, _shape_size(self.shape))
        return _build_shape(self.shape, iter(block))


def power(mu: MeasureExpr, shape: Sequence[int]) -> Power:
    """iid product of mu over the given shape."""
    return Power(mu, tuple(shape))


# ---------------------------------------------------------------------------
# Indexed products and monadic bind
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForProduct(_FixedProduct):
    """Product of kernel(i) over a finite index sequence; points are flat tuples.

    Each factor depends on its index alone, so the kernel is applied once per
    index, when the node is built.  The factors are kept in ``children``,
    which takes no part in equality, hashing or repr.
    """

    indices: Tuple[Any, ...]
    kernel: Callable[[Any], MeasureExpr]
    children: Tuple[MeasureExpr, ...] = field(init=False, repr=False, compare=False)
    _length_error = "ForProduct over {n} indices expects a {n}-tuple, got {x!r}"

    def __post_init__(self):
        if not self.indices:
            raise ValueError("ForProduct needs at least one index")
        object.__setattr__(self, "children", tuple(self.kernel(i) for i in self.indices))
        super().__post_init__()

    def _base_of(self, weights, bases) -> MeasureExpr:
        return _joined_base(weights, bases, (len(bases),))


def for_product(indices: Sequence[Any], kernel) -> ForProduct:
    """Product of kernel(i) over the indices; points are flat tuples."""
    return ForProduct(tuple(indices), kernel)


@dataclass(frozen=True)
class Bind(_Product):
    """Monadic bind: pair measure (x, y) with y drawn from kernel(x).

    The base measure at (x, y) is base(source, x) x base(kernel(x), y),
    assembled lazily at the evaluation point.  Each evaluation checks y
    against kernel(x) as it evaluates it (``self_checking``), in the loop a
    chain uses (`_kernel_terms`), so a family kernel's output is not built.
    """

    source: MeasureExpr
    kernel: Callable[[Any], MeasureExpr]
    self_checking = True
    _base_of = Product._base_of

    def _terms(self, x):
        if not isinstance(x, tuple) or len(x) != 2:
            raise ShapeError(f"Bind expects a pair point, got {x!r}")
        return _kernel_terms(self.source, self.kernel, x)

    def log_total_mass(self):
        # Assumes the kernel is Markov (unit-mass outputs); checked per draw.
        return self.source.log_total_mass()

    def _sample_normalized(self, seed: int):
        first = self.source._sample(rng.derive_key(seed, 0))
        law = getattr(self.kernel, "_law", None)
        if law is None:
            second = self.kernel(first)._sample(rng.derive_key(seed, 1))
        else:  # a family kernel: its member's draw, with no member built
            stream = rng.RandomStream(rng.derive_key(seed, 1))
            second = law.family.sample(stream, *law.params(first))
        return (first, second)


def bind(mu: MeasureExpr, kernel) -> Bind:
    """Pair measure: x from mu, then y from kernel(x)."""
    return Bind(mu, kernel)


# ---------------------------------------------------------------------------
# Superposition and scaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Superposition(MeasureExpr):
    """Sum of two or more measures (the measure-theoretic mixture).

    A walk that reaches a sum, at the top of either side or down a chain,
    reads the density of the two measures it started from through one local
    reference from their roots (`core._local_rule`), as does a sum that is
    not its own base against its base.  Against Lebesgue measure it is the
    logsumexp of the component densities; at the atom of a spike-and-slab
    it is Undefined (neither side locally dominates).
    """

    components: Tuple[MeasureExpr, ...]

    def __post_init__(self):
        # A sum is flat however it was grouped, so a component that is itself
        # a Superposition contributes its components.
        flat = []
        for c in self.components:
            flat.extend(c.components if isinstance(c, Superposition) else (c,))
        if len(flat) < 2:
            raise ValueError("Superposition needs at least two components")
        object.__setattr__(self, "components", tuple(flat))
        object.__setattr__(self, "static_base", all(c.static_base for c in flat))

    def check_point(self, x) -> None:
        for c in self.components:
            c.check_point(x)

    #: The base, kept on first use when no component's base depends on the
    #: point, so later calls walk between the same nodes and replay their
    #: plans.  An instance attribute, not a field: `==` and `repr` skip it.
    _kept_base = None

    def base_at(self, x) -> MeasureExpr:
        base = self._kept_base
        if base is None:
            base = Superposition(tuple(c.base_at(x) for c in self.components))
            if self.static_base:
                object.__setattr__(self, "_kept_base", base)
        return base

    def log_density_at(self, x) -> float:
        base = self.base_at(x)
        if base == self:  # a sum of roots: like a Dirac, 0.0 where it has mass, else -inf
            return max(c.log_density_at(x) for c in self.components)
        return core._local_rule(self, base, x)

    is_sum = True

    def _summands(self) -> tuple:
        return self.components

    def _masses(self):
        """The components' log masses and their log sum, each mass read once.

        (None, None) when a component's mass is unknown; reading stops there.
        """
        masses = []
        for c in self.components:
            lm = c.log_total_mass()
            if lm is None:
                return None, None
            masses.append(lm)
        return masses, _logsumexp(masses)

    def log_total_mass(self):
        return self._masses()[1]

    def _sample(self, seed: int):
        return self._sample_normalized(seed, core._require_probability)

    def _sample_normalized(self, seed: int, require=None):
        """Draw from the component that one uniform picks by cumulative mass;
        each mass is read once, for the pick and for `sample`'s ``require``."""
        masses, total = self._masses()
        if require is not None:
            require(self, total)
        elif masses is None:
            raise NotProbabilityError("superposition component has unknown mass")
        u = rng.RandomStream(rng.derive_key(seed, 0)).unit()
        cumulative = 0.0
        for chosen, lm in zip(self.components[:-1], masses):
            cumulative += math.exp(lm - total)
            if u < cumulative:
                break
        else:
            chosen = self.components[-1]
        return chosen._sample_normalized(rng.derive_key(seed, 1))


def superpose(*measures: MeasureExpr) -> Superposition:
    """Superposition (sum) of two or more measures on a common space.

    An argument that is itself a Superposition contributes its components.
    """
    return Superposition(measures)


def scale(logw, mu: MeasureExpr) -> MeasureExpr:
    """Reweight mu by the constant exp(logw).

    scale(0, mu) is mu itself and nested scalings collapse additively, to
    the inner measure when they cancel, so scale(a, scale(b, mu)) ==
    scale(a + b, mu) structurally.  A sum is scaled summand by summand, so
    sums stay outermost.
    """
    w = core._to_float(logw)
    if w != w or w == math.inf:
        raise ValueError(f"invalid scaling weight {w!r}")
    if w == 0.0:
        return mu
    if isinstance(mu, Superposition):
        return Superposition(tuple(scale(w, c) for c in mu.components))
    if isinstance(mu, Weighted):
        w += mu.logweight
        return mu.base if w == 0.0 else Weighted(w, mu.base)
    return Weighted(w, mu)


# ---------------------------------------------------------------------------
# Likelihoods and pointwise products
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Likelihood:
    """A kernel evaluated toward fixed observed data.

    Not a measure: it participates only through `loglik` and
    `pointwise_product`.
    """

    kernel: Callable[[Any], MeasureExpr]
    x: Any

    def __call__(self, p) -> LogWeight:
        return loglik(self, p)


def loglik(lik: Likelihood, p) -> LogWeight:
    """Log-likelihood of the stored data under kernel(p)."""
    return LogWeight(_log_density(lik.kernel(p), lik.x))


@dataclass(frozen=True)
class PointwiseProduct(MeasureExpr):
    """Prior-times-likelihood measure; keeps the prior's base measure.

    Over a self-checking prior (a chain, say) it is self-checking, and one
    step down its chain unfolds the prior once.
    """

    prior: MeasureExpr
    likelihood: Likelihood

    def __post_init__(self):
        object.__setattr__(self, "static_base", self.prior.static_base)
        if self.prior.self_checking:
            object.__setattr__(self, "self_checking", True)

    def check_point(self, x) -> None:
        self.prior.check_point(x)

    def log_density_at(self, x) -> float:
        lik = self.likelihood
        return self.prior.log_density_at(x) + _log_density(lik.kernel(x), lik.x)

    def base_at(self, x) -> MeasureExpr:
        return self.prior.base_at(x)

    def unfold(self, x):
        step = self.prior.unfold(x)
        if step is None:  # a prior that is its own base is the base of this
            return MeasureExpr.unfold(self, x)
        lik = self.likelihood
        return step[0] + _log_density(lik.kernel(x), lik.x), step[1]


def pointwise_product(mu: MeasureExpr, lik: Likelihood) -> PointwiseProduct:
    """Unnormalized posterior: density of mu times the likelihood."""
    return PointwiseProduct(mu, lik)


# ---------------------------------------------------------------------------
# Density closures and integral measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityClosure:
    """Pointwise density of ``numerator`` against ``denominator``.

    Calling the closure evaluates the local log-density; in linear mode the
    value is exponentiated (undefined maps to nan).
    """

    numerator: MeasureExpr
    denominator: MeasureExpr
    logspace: bool = True

    def __call__(self, x):
        value = core.log_density(self.numerator, x, wrt=self.denominator)
        if self.logspace:
            return value
        return value.exp()


def rn_derivative(mu: MeasureExpr, nu: MeasureExpr, log: bool = True) -> DensityClosure:
    """Radon-Nikodym derivative of mu against nu as a closure.

    With ``log=True`` the closure returns log-densities; otherwise plain
    densities.  Evaluation may still produce special values pointwise.
    """
    return DensityClosure(mu, nu, logspace=log)


@dataclass(frozen=True, eq=False)
class IntegralMeasure(MeasureExpr):
    """Measure defined by a log-density function over a reference measure."""

    log_fn: Callable[[Any], float]
    reference: MeasureExpr
    static_base = True

    def __post_init__(self):
        if not self.reference.static_base:  # one base everywhere, but the chain below it moves
            object.__setattr__(self, "static_base", False)

    def check_point(self, x) -> None:
        self.reference.check_point(x)

    def log_density_at(self, x) -> float:
        return core._to_float(self.log_fn(x))

    def base_at(self, x) -> MeasureExpr:
        return self.reference


def integrate(f: Callable[[Any], float], nu: MeasureExpr) -> IntegralMeasure:
    """Measure with density f against nu.

    f must be nonnegative on nu's support; negative values raise at
    evaluation time, and a NaN value is an undefined density there, as
    `integrate_exp` gives for a NaN log-density.
    """

    def log_fn(x):
        v = f(x)
        if v < 0.0:
            raise ValueError(f"density function returned a negative value at {x!r}")
        return math.log(v) if v > 0.0 else -math.inf if v == 0.0 else math.nan

    return IntegralMeasure(log_fn, nu)


def integrate_exp(log_f: Callable[[Any], float], nu: MeasureExpr) -> IntegralMeasure:
    """Measure with log-density log_f against nu."""
    return IntegralMeasure(log_f, nu)


# ---------------------------------------------------------------------------
# Affine pushforwards
# ---------------------------------------------------------------------------


def _as_matrix(m):
    return tuple(tuple(_as_float(v) for v in row) for row in m)


def _check_lower_triangular(m):
    k = len(m)
    for i, row in enumerate(m):
        if len(row) != k:
            raise ValueError("affine factor must be square")
        for j in range(i + 1, k):
            if row[j] != 0.0:
                raise ValueError("affine factor must be lower triangular")
        if not row[i] > 0.0:
            raise ValueError("affine factor must have a positive diagonal")


# Both skip the zero entries of the triangle: a zero entry adds nothing, where
# 0.0 * inf would add NaN at an infinite coordinate.
def _matvec(m, v):
    return tuple(
        _left_sum((m[i][j] * v[j] for j in range(i + 1) if m[i][j]), 0) for i in range(len(m))
    )


def _solve_lower(m, v):
    out = []
    for i in range(len(m)):
        s = v[i] - _left_sum((m[i][j] * out[j] for j in range(i) if m[i][j]), 0)
        out.append(s / m[i][i])
    return tuple(out)


def _log_det(m) -> float:
    if isinstance(m, tuple):
        return _left_sum((math.log(m[i][i]) for i in range(len(m))), 0)
    return math.log(m)


@dataclass(frozen=True)
class AffineMap:
    """Invertible affine change of coordinates, scalar or lower-triangular.

    * ``forward`` mode stores (factor=sigma, offset=x0) and maps source
      points z to sigma z + x0.
    * ``inverse`` mode stores (factor=psi, offset=mu0) and maps target points
      x back to psi (x - mu0); going from source to target solves the
      triangular system.
    """

    mode: str
    factor: Any
    offset: Any

    def __post_init__(self):
        if self.mode not in ("forward", "inverse"):
            raise ValueError(f"unknown affine mode {self.mode!r}")
        if isinstance(self.factor, (tuple, list)):
            m = _as_matrix(self.factor)
            _check_lower_triangular(m)
            off = self.offset
            if not isinstance(off, (tuple, list)) or len(off) != len(m):
                raise ValueError("affine offset does not match the factor dimension")
            off = tuple(_as_float(v) for v in off)
            values = [v for row in m for v in row] + list(off)
        else:
            m, off = _as_float(self.factor), _as_float(self.offset)
            if not m > 0.0:
                raise ValueError(f"affine factor must be positive, got {self.factor!r}")
            values = [m, off]
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"affine map must be finite, got factor {m!r}, offset {off!r}")
        object.__setattr__(self, "factor", m)
        object.__setattr__(self, "offset", off)

    @property
    def is_matrix(self) -> bool:
        return isinstance(self.factor, tuple)

    def _floats(self, x):
        """x in floats, where it is a point of the map's space: a number (no
        bool) for a scalar map, a tuple of as many numbers as the dimension
        for a matrix map; an int beyond the float range is the infinity of
        its sign.  Else ShapeError, naming x."""
        if type(self.factor) is tuple:
            if isinstance(x, tuple) and len(x) == len(self.offset):
                if _FLOAT.issuperset(map(type, x)):
                    return x
                if all(map(_is_scalar, x)):
                    return tuple(map(_as_float, x))
        elif type(x) is float:
            return x
        elif _is_scalar(x):
            return _as_float(x)
        raise ShapeError(f"point {x!r} does not match the affine map")

    def from_source(self, z):
        """Map a source-space point to the transformed space."""
        z = self._floats(z)
        if self.mode == "forward":
            if self.is_matrix:
                return tuple(a + b for a, b in zip(_matvec(self.factor, z), self.offset))
            return self.factor * z + self.offset
        if self.is_matrix:
            return tuple(a + b for a, b in zip(_solve_lower(self.factor, z), self.offset))
        return z / self.factor + self.offset

    def to_source(self, x):
        """Map a transformed-space point back to the source space."""
        x = self._floats(x)
        if self.is_matrix:
            shifted = tuple(a - b for a, b in zip(x, self.offset))
            return (_solve_lower if self.mode == "forward" else _matvec)(self.factor, shifted)
        if self.mode == "forward":
            return (x - self.offset) / self.factor
        return self.factor * (x - self.offset)

    def log_det_forward(self) -> float:
        """log |d(transformed)/d(source)|."""
        d = _log_det(self.factor)
        return d if self.mode == "forward" else -d

    def inverse(self) -> "AffineMap":
        """The inverse map, with the modes swapped (one triangular solve)."""
        if self.mode == "forward":
            if self.is_matrix:
                shift = tuple(-v for v in _solve_lower(self.factor, self.offset))
            else:
                shift = -self.offset / self.factor
            return AffineMap("inverse", self.factor, shift)
        if self.is_matrix:
            shift = tuple(-v for v in _matvec(self.factor, self.offset))
        else:
            shift = -self.factor * self.offset
        return AffineMap("forward", self.factor, shift)


def forward_map(factor, offset=None) -> AffineMap:
    """Affine map z -> factor z + offset (sampling-friendly form)."""
    if offset is None:
        offset = (0.0,) * len(factor) if isinstance(factor, (tuple, list)) else 0.0
    return AffineMap("forward", factor, offset)


def inverse_map(factor, offset=None) -> AffineMap:
    """Affine map given by x -> factor (x - offset) (density-friendly form)."""
    if offset is None:
        offset = (0.0,) * len(factor) if isinstance(factor, (tuple, list)) else 0.0
    return AffineMap("inverse", factor, offset)


@dataclass(frozen=True)
class Pushforward(MeasureExpr):
    """Image of a measure under an invertible affine map.

    The log-density against its own (transformed) base has no determinant
    factor; the determinant enters only through the local rule, as the log
    scale of the root's Lebesgue class, when the density is taken across the
    transform against an untransformed Lebesgue reference, and is absent when
    the inner reference is purely atomic.
    """

    map: AffineMap
    inner: MeasureExpr

    def __post_init__(self):
        object.__setattr__(self, "static_base", self.inner.static_base)
        if self.inner.self_checking:
            object.__setattr__(self, "self_checking", True)

    # Over a self-checking inner measure (a chain, say) it is self-checking:
    # each method maps the point, which the map checks, and the inner
    # measure checks the source point as it evaluates it.

    def check_point(self, x) -> None:
        self.inner.check_point(self.map.to_source(x))

    def log_density_at(self, x) -> float:
        return self.inner.log_density_at(self.map.to_source(x))

    def base_at(self, x) -> MeasureExpr:
        return pushforward(self.map, self.inner.base_at(self.map.to_source(x)))

    def unfold(self, x):
        step = self.inner.unfold(self.map.to_source(x))
        if step is None:  # an inner fixed point: this is one too, or an atom is its base
            return MeasureExpr.unfold(self, x)
        return step[0], pushforward(self.map, step[1])

    def reference_class(self):
        ref = self.inner.reference_class()
        if ref is None:
            return None
        if ref[0] == "lebesgue":
            # t* (exp(w) lambda) = exp(w) / |J| lambda.
            return ("lebesgue", ref[1] - self.map.log_det_forward())
        return ref

    def log_total_mass(self):
        return self.inner.log_total_mass()

    def _sample_normalized(self, seed: int):
        return self.map.from_source(self.inner._sample_normalized(seed))


def pushforward(t: AffineMap, mu: MeasureExpr) -> MeasureExpr:
    """Pushforward of mu through the affine map t.

    Dirac measures are transported directly to their image atom, and a sum
    summand by summand.
    """
    if isinstance(mu, Superposition):
        return Superposition(tuple(pushforward(t, c) for c in mu.components))
    if isinstance(mu, Dirac):
        return Dirac(t.from_source(mu.atom))
    if isinstance(mu, Weighted):
        return Weighted(mu.logweight, pushforward(t, mu.base))
    return Pushforward(t, mu)
