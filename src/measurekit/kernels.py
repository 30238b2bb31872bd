"""Kernels (measure-valued functions) and Markov chains.

A kernel maps points to measures, either through a family constructor with
per-parameter maps or as an opaque function.  Chains pair a starting
probability measure with a kernel on the state space; sampling a chain gives
a seed-carrying lazy infinite iterator, and finite prefixes have
data-dependent log-densities.  A chain prefix is a product whose factors
depend on the point (on the loops of `combinators._Product`).  For a family
kernel its density builds no measure and runs over columns: a kernel
resolves each parameter map once, at construction, to its value at a point
and its values over a column of points (`catalog.Map`), so the map of the
previous elements, the parameter check, the elements' type check and the
data term each run once over their column, and the base constant once when
the parameters it reads are constant; a short prefix, and one where an
element raises, is read by the per-element loop, which raises at that
element.  An opaque kernel's element is the node it returns, checked and
unfolded once.  A draw over a family kernel whose draws take a fixed number
of uniforms builds no measure either: each step maps and checks the
parameters and calls the family's draw.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable, Optional, Sequence, Tuple

from . import catalog, core, rng
from .combinators import ForProduct, _kernel_terms, _Product
from .core import LogWeight, MeasureExpr, NotProbabilityError, ShapeError

# Closed vocabulary of serializable parameter maps.


def resolve_map(spec) -> catalog.Map:
    """Resolve a parameter map, a callable or one of the named forms
    "identity", "sqrt", "const:<v>", "affine:<a>:<b>", to its value at a
    point and over a column of points: the column of "identity" is the
    points themselves, that of "const:<v>" repeats v, that of
    "affine:<a>:<b>" is one comprehension, and a callable or "sqrt" is
    mapped over the points."""
    if callable(spec):
        return catalog.calls(spec)
    if spec == "identity":
        return catalog.Map(lambda x: x, lambda xs: xs)
    if spec == "sqrt":
        return catalog.calls(math.sqrt)
    if isinstance(spec, str) and spec.startswith("const:"):
        return catalog.constant(float(spec.split(":", 1)[1]))
    if isinstance(spec, str) and spec.startswith("affine:") and spec.count(":") == 2:
        _, a, b = spec.split(":")
        a, b = float(a), float(b)
        return catalog.Map(lambda x: a * x + b, lambda xs: [a * x + b for x in xs])
    raise ValueError(f"unknown parameter map {spec!r}")


@dataclass(frozen=True)
class Kernel:
    """Measure-valued function of a point.

    Either a registered family name plus per-parameter maps, or an opaque
    function.  Application is deterministic and yields structurally equal
    measures for equal inputs.  The family, its parameter names and the maps
    are checked and resolved once, at construction: application calls the
    family's constructor directly, and a family kernel's ``_law``
    (`catalog.Family.law`) lets a product evaluate its elements over
    columns, and a chain draw one, without building a measure.  The
    resolved form takes no part in equality, hashing or repr.
    """

    family: Optional[str] = None
    maps: Tuple[Tuple[str, Any], ...] = ()
    fn: Optional[Callable[[Any], MeasureExpr]] = None
    _apply: Callable[[Any], MeasureExpr] = field(init=False, repr=False, compare=False)
    _law: Optional[catalog.Law] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        law = None
        if self.fn is not None:
            apply = self.fn
        else:
            try:
                family = catalog.FAMILIES[self.family]
            except KeyError:
                raise ValueError(f"unknown measure family {self.family!r}") from None
            family.check(name for name, _ in self.maps)
            build = family.build
            resolved = {name: resolve_map(spec) for name, spec in self.maps}
            law = family.law(resolved)
            points = tuple((name, m.point) for name, m in resolved.items())

            def apply(x):
                return build(**{name: f(x) for name, f in points})

        object.__setattr__(self, "_apply", apply)
        object.__setattr__(self, "_law", law)

    def __call__(self, x) -> MeasureExpr:
        return self._apply(x)


def make_kernel(family: str, **param_maps) -> Kernel:
    """Kernel from a family name and per-parameter maps.

    Maps may be callables or entries of the closed vocabulary understood by
    `resolve_map`.  The family must be registered and the map names must form
    one of its parameterizations.
    """
    return Kernel(family=family, maps=tuple(sorted(param_maps.items())))


def as_kernel(k) -> Kernel:
    """Coerce a Kernel or plain callable into a Kernel."""
    if isinstance(k, Kernel):
        return k
    if callable(k):
        return Kernel(fn=k)
    raise TypeError(f"not a kernel: {k!r}")


def apply_kernel(k, x) -> MeasureExpr:
    """Apply a kernel at a point, yielding a measure."""
    return as_kernel(k)(x)


# ---------------------------------------------------------------------------
# Markov chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chain(_Product):
    """Markov chain: initial probability measure plus a step kernel.

    As a measure expression it is evaluated at finite prefixes: the
    log-density of a length-n prefix is the data-dependent sum
    log p(x1) + sum_i log p(x_{i+1} | x_i), and the base measure at the
    prefix joins the initial and per-step bases, so densities against
    Lebesgue^n work through the ordinary recursion.  Each evaluation runs
    one loop over the elements, which checks each as it goes
    (``self_checking``) and, for a family kernel, builds no measure per
    step; the base is one Weighted(sum of the constants, Power(root, (n,)))
    when every element's base ends at one root.
    """

    initial: MeasureExpr
    step: Kernel
    self_checking = True
    _base_of = ForProduct._base_of

    def _terms(self, x):
        if not isinstance(x, (tuple, list)) or len(x) == 0:
            raise ShapeError(f"Chain expects a nonempty finite prefix, got {x!r}")
        return _kernel_terms(self.initial, self.step, x)

    def log_total_mass(self):
        # Assumes the step kernel is Markov; each element draw re-checks it.
        return self.initial.log_total_mass()

    def _sample_normalized(self, seed: int):
        return ChainSample(self, seed)


def chain(step, initial: MeasureExpr) -> Chain:
    """Markov chain with the given step kernel and initial distribution."""
    lm = initial.log_total_mass()
    if lm is None or not abs(lm) <= 1e-9:
        raise NotProbabilityError(f"improper initial measure: {initial!r}")
    return Chain(initial=initial, step=as_kernel(step))


@dataclass(frozen=True)
class ChainSample:
    """Seed-carrying lazy realization of a chain.

    Element i is a deterministic function of (chain, seed, i), drawn from
    the stream ``derive_key(seed, i)``; iterating the same ChainSample twice
    reproduces the sequence exactly, and concurrent iterators are
    independent.
    """

    spec: Chain
    seed: int

    def __iter__(self):
        spec, seed = self.spec, self.seed
        state = spec.initial._sample(rng.derive_key(seed, 0))
        yield state
        law = spec.step._law
        if law is not None and law.family.units:
            # A family kernel whose draws take a fixed number of uniforms:
            # each step maps and checks the parameters (``law``) and draws
            # from its stream's leading uniforms, drawn many streams at
            # once, with no measure built.
            params, family = law.params, law.family
            draw = family.draw
            for columns in rng.unit_chunks(seed, 1, family.units):
                for units in zip(*columns):
                    state = draw(*units, *params(state))
                    yield state
        else:
            for i in count(1):
                state = spec.step(state)._sample(rng.derive_key(seed, i))
                yield state


def sample_chain(spec: Chain, seed: int) -> ChainSample:
    """Reproducible infinite sample of a chain as a lazy iterator."""
    return ChainSample(spec, int(seed))


def chain_logdensity(spec: Chain, prefix: Sequence) -> LogWeight:
    """Data-dependent log-density of a finite chain prefix."""
    return core.log_density(spec, tuple(prefix) if isinstance(prefix, Iterable) else prefix)
