"""Kernels (measure-valued functions) and Markov chains.

A kernel maps points to measures, either through a family constructor with
per-parameter maps or as an opaque function.  Chains pair a starting
probability measure with a kernel on the state space; sampling a chain gives
a seed-carrying lazy infinite iterator, and finite prefixes have
data-dependent log-densities.  A chain prefix is a product whose factors
depend on the point (on the loops of `combinators._Product`).  Its density
is one loop over the elements: for a family kernel each element maps the
parameters, checks them and the element, and adds its data term and its
base constant, with no measure built; an opaque kernel's element is the
node it returns, checked and unfolded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Tuple

from . import catalog, core, rng
from .combinators import ForProduct, _kernel_terms, _Product
from .core import LogWeight, MeasureExpr, NotProbabilityError, ShapeError

# Closed vocabulary of serializable parameter maps.


def resolve_map(spec):
    """Resolve a parameter map: a callable, or one of the named forms
    "identity", "sqrt", "const:<v>", "affine:<a>:<b>"."""
    if callable(spec):
        return spec
    if spec == "identity":
        return lambda x: x
    if spec == "sqrt":
        return math.sqrt
    if isinstance(spec, str) and spec.startswith("const:"):
        value = float(spec.split(":", 1)[1])
        return lambda x: value
    if isinstance(spec, str) and spec.startswith("affine:") and spec.count(":") == 2:
        _, a, b = spec.split(":")
        a, b = float(a), float(b)
        return lambda x: a * x + b
    raise ValueError(f"unknown parameter map {spec!r}")


@dataclass(frozen=True)
class Kernel:
    """Measure-valued function of a point.

    Either a registered family name plus per-parameter maps, or an opaque
    function.  Application is deterministic and yields structurally equal
    measures for equal inputs.  The family, its parameter names and the maps
    are checked and resolved once, at construction: application calls the
    family's constructor directly, and a family kernel's ``_law``
    (`catalog.Family.law`) lets a product evaluate an element without
    building its measure.  The resolved form takes no part in equality,
    hashing or repr.
    """

    family: Optional[str] = None
    maps: Tuple[Tuple[str, Any], ...] = ()
    fn: Optional[Callable[[Any], MeasureExpr]] = None
    _apply: Callable[[Any], MeasureExpr] = field(init=False, repr=False, compare=False)
    _law: Optional[tuple] = field(init=False, repr=False, compare=False)

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
            resolved = tuple((name, resolve_map(spec)) for name, spec in self.maps)
            law = family.law(dict(resolved))

            def apply(x):
                return build(**{name: f(x) for name, f in resolved})

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

    Element i is a deterministic function of (chain, seed, i); iterating the
    same ChainSample twice reproduces the sequence exactly, and concurrent
    iterators are independent.
    """

    spec: Chain
    seed: int

    def __iter__(self):
        state = self.spec.initial._sample(rng.derive_key(self.seed, 0))
        yield state
        i = 1
        while True:
            state = self.spec.step(state)._sample(rng.derive_key(self.seed, i))
            yield state
            i += 1


def sample_chain(spec: Chain, seed: int) -> ChainSample:
    """Reproducible infinite sample of a chain as a lazy iterator."""
    return ChainSample(spec, int(seed))


def chain_logdensity(spec: Chain, prefix: Sequence) -> LogWeight:
    """Data-dependent log-density of a finite chain prefix."""
    return core.log_density(spec, tuple(prefix))
