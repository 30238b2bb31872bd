"""Parameterized measure families with named-parameter construction.

Each family keeps the decomposition discipline: `log_density_at` carries only
the data-dependent terms, while constant and parameter-dependent terms (the
normalization) are pushed to a Weighted base measure.  Outside the support the
data term is -inf, never an error.

`FAMILIES` declares, once per family, the accepted parameter name sets, how
document names map to fields, and the family's parameter check, data term,
base weight and root as functions of its parameters, and its draw from a
stream; a family whose draw takes a fixed number of uniforms declares it
once, as a standard draw and its placement at the parameters (`Lanes`).
Construction, kernels, the document format and the family's classes all
read it.  Construction dispatches on the names given and never
converts between parameterizations.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from itertools import repeat
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Set, Tuple

from . import rng
from .core import COUNTING, LEBESGUE, Dirac, MeasureExpr, Weighted, _add_up, _as_float, _is_scalar

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_TWO_PI = 2.0 * math.pi
_INF = math.inf


def _is_count(x) -> bool:
    """Nonnegative integer-valued scalar within the float range."""
    try:
        return _is_scalar(x) and x >= 0 and float(x) == math.floor(x)
    except OverflowError:  # inf, or an int too large for a float
        return False


def log_binomial(n: float, k: float) -> float:
    """log of the (generalized) binomial coefficient C(n, k) via log-gamma."""
    return math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------
#
# Each family's facts are written once, as functions of its parameters:
# ``_<family>_checked`` converts them to floats and rejects a value out of
# range, ``_<family>_data`` is the data term at a point,
# ``_<family>_weight`` the log constant its base carries, and, for a family
# whose draw is no fixed function of a few uniforms, ``_<family>_draw`` a
# draw from a stream.  The classes below and a kernel's element loops
# (`kernels.Kernel`) both call them, except that `Normal` inlines its data term and the in-range case of
# its check, which mixtures reach once per component.


def _normal_checked(mu, sigma) -> tuple:
    if type(mu) is not float:
        mu = _as_float(mu)
    if type(sigma) is not float:
        sigma = _as_float(sigma)
    if not -_INF < mu < _INF:
        raise ValueError(f"Normal requires finite mu, got {mu}")
    if not 0.0 < sigma < _INF:
        raise ValueError(f"Normal requires finite sigma > 0, got {sigma}")
    return mu, sigma


def _normal_data(x, mu, sigma) -> float:
    try:
        z = (x - mu) / sigma
    except OverflowError:  # an int beyond the float range rounds to +-inf
        return -math.inf
    return -0.5 * z * z


def _normal_weight(mu, sigma) -> float:
    return -math.log(sigma) - _HALF_LOG_TWO_PI


def _uniform01_data(x) -> float:
    return 0.0 if 0.0 <= x <= 1.0 else -math.inf


def _positive_rate(family: str):
    def checked(rate) -> tuple:
        rate = _as_float(rate)
        if not 0.0 < rate < _INF:
            raise ValueError(f"{family} requires finite rate > 0, got {rate}")
        return (rate,)

    return checked


_exponential_checked = _positive_rate("Exponential")
_poisson_checked = _positive_rate("Poisson")


def _exponential_data(x, rate) -> float:
    try:
        return -rate * x if x >= 0.0 else -math.inf
    except OverflowError:  # an int beyond the float range rounds to inf
        return -math.inf


def _bernoulli_checked(p) -> tuple:
    p = _as_float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Bernoulli requires 0 <= p <= 1, got {p}")
    return (p,)


def _bernoulli_data(x, p) -> float:
    if x == 1:
        return math.log(p) if p > 0.0 else -math.inf
    if x == 0:
        return math.log1p(-p) if p < 1.0 else -math.inf
    return -math.inf


def _poisson_data(x, rate) -> float:
    if not _is_count(x):
        return -math.inf
    k = float(x)
    if k >= 1000.0:  # where the terms below cancel at large rates
        return _poisson_log_pmf(k, rate)
    return k * math.log(rate) - rate - math.lgamma(k + 1.0)


def _negbinomial_checked(params) -> tuple:
    FAMILIES["NegativeBinomial"].check(name for name, _ in params)
    params = tuple(sorted((name, _as_float(value)) for name, value in params))
    values = dict(params)
    for name in ("r", "alpha", "beta"):
        if name in values and not 0.0 < values[name] < _INF:
            raise ValueError(f"NegativeBinomial requires finite {name} > 0, got {values[name]}")
    if "p" in values and not 0.0 < values["p"] < 1.0:
        raise ValueError(f"NegativeBinomial requires 0 < p < 1, got {values['p']}")
    return (params,)


def _negbinomial_data(x, params) -> float:
    if not _is_count(x):
        return -math.inf
    y = float(x)
    (first, a), (_, b) = params
    if first == "p":
        r, log_p, log_q = b, math.log(a), math.log1p(-a)
    else:
        r, log_p, log_q = a, math.log(b) - math.log1p(b), -math.log1p(b)
    if y > 0.0 and y + r >= 1000.0:  # where the lgamma terms below cancel
        return _negbin_log_pmf(y, r, math.exp(log_p), math.exp(log_q))
    return log_binomial(y + r - 1.0, r - 1.0) + r * log_p + y * log_q


class _Law(MeasureExpr):
    """A catalog family's measure: unit mass, on a base that ignores the point.

    Its fields are its family's parameters, checked by the family's
    ``checked`` on construction.  Its base is the family's ``root``; a class
    whose family declares a ``weight`` puts the root under the weight of its
    fields.  It draws as its family's ``sample`` does; a class whose family
    declares `Lanes` draws an iid block from the words of many streams at
    once.
    """

    static_base = True
    _family = None  # its `Family`, bound where `FAMILIES` is declared

    def _data_block(self, xs) -> float:
        family = self._family
        return _add_up(map(family.data, xs, *[repeat(a) for a in family.args(self)]), 0.0)

    def _sample_block(self, seed: int, n: int) -> list:
        family = self._family
        if family.lanes is None or n < rng.LANE_MIN:  # one draw at a time is the faster
            return MeasureExpr._sample_block(self, seed, n)
        return family.lanes.block(seed, n, family.args(self))

    def base_at(self, x) -> MeasureExpr:
        return self._family.root

    def unfold(self, x):
        return self.log_density_at(x), self.base_at(x)  # never its own base

    def log_total_mass(self):
        return 0.0


@dataclass(frozen=True)
class Normal(_Law):
    """Gaussian with mean ``mu`` and scale ``sigma``.

    Data term: -((x - mu)/sigma)^2 / 2.  Base: Weighted(-log sigma -
    log(2 pi)/2, Lebesgue).
    """

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        mu, sigma = self.mu, self.sigma
        if not (type(mu) is float and type(sigma) is float and -_INF < mu < _INF
                and 0.0 < sigma < _INF):
            mu, sigma = _normal_checked(mu, sigma)
            object.__setattr__(self, "mu", mu)
            object.__setattr__(self, "sigma", sigma)

    def log_density_at(self, x) -> float:
        # `_normal_data`, inlined.
        try:
            z = (x - self.mu) / self.sigma
        except OverflowError:  # an int beyond the float range rounds to +-inf
            return -math.inf
        return -0.5 * z * z

    def base_at(self, x) -> MeasureExpr:
        family = self._family
        return Weighted(family.weight(self.mu, self.sigma), family.root)

    def _sample_normalized(self, seed: int):
        return self._family.sample(rng.RandomStream(seed), self.mu, self.sigma)

    def _data_block(self, xs) -> float:
        mu, sigma = self.mu, self.sigma
        total = 0.0
        try:
            for x in xs:
                z = (x - mu) / sigma
                total += -0.5 * z * z
        except OverflowError:  # an int beyond the float range: see `_normal_data`
            return MeasureExpr._data_block(self, xs)
        return total


@dataclass(frozen=True)
class Uniform01(_Law):
    """Restriction of Lebesgue measure to [0, 1]."""

    def log_density_at(self, x) -> float:
        return _uniform01_data(x)

    def _sample_normalized(self, seed: int):
        return self._family.sample(rng.RandomStream(seed))


@dataclass(frozen=True)
class Exponential(_Law):
    """Exponential with rate parameter; density rate * exp(-rate x) on x >= 0."""

    rate: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "rate", _exponential_checked(self.rate)[0])

    def log_density_at(self, x) -> float:
        return _exponential_data(x, self.rate)

    def base_at(self, x) -> MeasureExpr:
        family = self._family
        return Weighted(family.weight(self.rate), family.root)

    def _sample_normalized(self, seed: int):
        return self._family.sample(rng.RandomStream(seed), self.rate)


@dataclass(frozen=True)
class Bernoulli(_Law):
    """Coin flip on {0, 1} over counting measure."""

    p: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "p", _bernoulli_checked(self.p)[0])

    def log_density_at(self, x) -> float:
        return _bernoulli_data(x, self.p)

    def _sample_normalized(self, seed: int):
        return self._family.sample(rng.RandomStream(seed), self.p)


@dataclass(frozen=True)
class Poisson(_Law):
    """Poisson counts with the given rate, over counting measure."""

    rate: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "rate", _poisson_checked(self.rate)[0])

    def log_density_at(self, x) -> float:
        return _poisson_data(x, self.rate)

    def _sample_normalized(self, seed: int):
        return _poisson_draw(rng.RandomStream(seed), self.rate)


@dataclass(frozen=True)
class NegativeBinomial(_Law):
    """Negative binomial on the nonnegative integers, over counting measure.

    Two parameterizations coexist and are kept exactly as constructed:

    * ``(r, p)``: pmf C(y+r-1, r-1) p^r (1-p)^y
    * ``(alpha, beta)``: pmf C(y+alpha-1, alpha-1) (beta/(beta+1))^alpha
      (1/(beta+1))^y

    ``params`` holds (name, value) pairs, sorted by name on construction; use
    `make_negbinomial` to construct from keywords.
    """

    params: tuple

    def __post_init__(self):
        object.__setattr__(self, "params", _negbinomial_checked(self.params)[0])

    def log_density_at(self, x) -> float:
        return _negbinomial_data(x, self.params)

    def _sample_normalized(self, seed: int):
        return _negbinomial_draw(rng.RandomStream(seed), self.params)


# ---------------------------------------------------------------------------
# Named-parameter constructors
# ---------------------------------------------------------------------------


class Map(NamedTuple):
    """A kernel's parameter map, resolved: ``point(x)`` is its value at a
    point, ``column(xs)`` an iterable of its values at each point of a
    sequence, and ``constant`` says whether it ignores the point."""

    point: Callable[[Any], Any]
    column: Callable[[Sequence], Iterable]
    constant: bool = False


def calls(f) -> Map:
    """The map that calls f, once per point."""
    return Map(f, lambda xs: map(f, xs))


def constant(value) -> Map:
    """The map that ignores the point and gives ``value``."""
    return Map(lambda x: value, lambda xs: repeat(value, len(xs)), True)


class Law(NamedTuple):
    """What a kernel over a family needs to evaluate or draw the member at a
    point without building it (`Family.law`)."""

    params: Callable[[Any], tuple]  # the member's checked parameters at a point
    column: Callable[[Sequence], list]  # ``params`` at each point of a sequence
    fixed: bool  # whether every parameter ``family.weight`` reads is constant
    family: "Family"


def _negbinomial_arguments(maps: dict) -> tuple:
    points = [(name, m.point) for name, m in maps.items()]
    return (calls(lambda x: tuple([(name, f(x)) for name, f in points])),)


# A `Lanes` compiles these functions from its two expressions: {draw} is
# ``place`` at z = ``noise``, in uniforms; {word_noise} and {word_draw} read
# each uniform from its word; {target} unpacks a tuple of parameters.
# ``block`` is ``placed(noise(...), repeat(params))`` in one pass: about 5%
# more `iid-chain` draws per second than the two passes (`BENCH_16.json`).
_LANE_SOURCE = """\
def sample(stream{params}):
{stream_units}
    return {draw}

def block({columns}{params}):
    return [{word_draw} for {word_rows}]

def noise({columns}):
    return [{word_noise} for {word_rows}]

def unit_noise({columns}):
    return [{noise} for {unit_rows}]

def placed(zs, ps):
    return [{place} for z, {target} in zip(zs, ps)]

def walk(zs, params, state):
    for z in zs:
        {target} = params(state)
        state = {place}
        yield state
    return state
"""
_LANE_NAMES = {"sqrt": math.sqrt, "log": math.log, "cos": math.cos, "TWO_PI": _TWO_PI,
               "S": 2.0 ** -53}


class Lanes:
    """A draw from a fixed number of uniforms, written once and compiled into
    the form each caller needs.

    ``noise`` is the standard draw: an expression in the uniforms ``u1``,
    ``u2``, ... of a stream that reads no parameter.  ``place`` is an
    expression in that draw ``z`` and the ``params`` names: the draw at those
    parameters.  ``sample(stream, *params)`` is their composition, drawn
    from a stream's leading uniforms.  Over columns of the words of many
    streams (`rng.word_chunks`), uniform c being ``(w_c + 0.5) * 2**-53``,
    each form is one comprehension per chunk: `block` draws an iid block at
    fixed parameters, `noise` gives the standard draws, ``placed(zs, ps)``
    puts standard draws at a sequence of parameter tuples, and
    ``walk(zs, params, state)`` steps a chain whose parameters
    ``params(state)`` follow its state, yielding each element and returning
    the last.  Every form gives the bits of ``sample``.
    """

    def __init__(self, noise: str, place: str, params: Sequence[str], name: str):
        units = max(int(c) for c in re.findall(r"\bu(\d+)\b", noise))
        us, ws, columns = ([f"{v}{c}" for c in range(1, units + 1)] for v in "uwc")

        def rows(names):
            if units == 1:
                return f"{names[0]} in c1"
            return f"{', '.join(names)} in zip({', '.join(columns)})"

        def placing(z):
            return re.sub(r"\bz\b", f"({z})", place)

        word_noise = re.sub(r"\bu(\d+)\b", r"((w\1 + 0.5) * S)", noise)
        source = _LANE_SOURCE.format(
            params="".join(", " + p for p in params),
            columns=", ".join(columns), stream_units="\n".join(f"    {u} = stream.unit()" for u in us),
            draw=placing(noise), word_draw=placing(word_noise), noise=noise, word_noise=word_noise,
            word_rows=rows(ws), unit_rows=rows(us),
            place=place, target="(%s)" % "".join(p + ", " for p in params).rstrip(" "))
        namespace = dict(_LANE_NAMES)
        exec(compile(source, f"<lanes of {name}>", "exec"), namespace)
        self.units = units
        self.sample, self.placed, self.walk = namespace["sample"], namespace["placed"], namespace["walk"]
        self._block, self._noise, self._unit_noise = (
            namespace["block"], namespace["noise"], namespace["unit_noise"])

    def block(self, seed: int, n: int, args: tuple) -> list:
        """The draws at parameters ``args`` from the streams
        ``derive_key(seed, i)``, i < n."""
        out = []
        for columns, words in rng.word_chunks(seed, 0, self.units, n):
            if words:
                out.extend(self._block(*columns, *args))
            else:  # a chunk that holds the all-ones word comes as uniforms
                out.extend(self.placed(self._unit_noise(*columns), repeat(args)))
        return out

    def noise(self, seed: int, start: int, n: Optional[int] = None) -> Iterator[list]:
        """The standard draws from the streams ``derive_key(seed, i)``, i from
        start on, a chunk at a time as `rng.word_chunks` gives them."""
        for columns, words in rng.word_chunks(seed, start, self.units, n):
            yield self.standard(columns, words)

    def standard(self, columns: Sequence[list], words: bool) -> list:
        """The standard draws from a chunk of `rng.word_chunks`: its leading
        columns, of words if ``words``, else of uniforms."""
        return (self._noise if words else self._unit_noise)(*columns)


@dataclass(frozen=True)
class Family:
    """A catalog family, declared once for constructors, kernels, documents
    and the family's own measures.

    ``parameterizations`` are the accepted sets of parameter names.  Four
    functions of the parameters say what a member is: ``checked(*values)``
    takes the values of the fields of ``cls`` in order and gives them back
    as floats, or raises ValueError for one out of range; ``data(x,
    *checked)`` is the data term at x; ``weight(*checked)`` the log constant
    the base carries (None: the base is ``root`` itself), which reads only
    the parameters named in ``weight_reads``; and ``root`` the primitive
    measure the base ends at.  A member builds its base from
    ``weight`` and ``root`` (`base_at`), and a kernel over the family
    evaluates its members through them without building one (`law`).  Dirac
    declares none of them: its root is the member itself.  A member draws
    with ``sample(stream, *checked)``, as does a kernel over the family,
    with no member built.  A family whose draw takes a fixed number of
    uniforms declares instead ``draw``, a pair of expressions: its standard
    draw in the uniforms and the placement of that draw ``z`` at the fields
    (`Lanes`, found as ``lanes``; ``sample`` is its draw from a stream).  Its
    iid blocks, the factors of a product of its members, and the steps of a
    chain over a kernel of it then draw the words of many streams at once
    and turn each chunk into draws in one comprehension.

    ``build`` makes the measure from keyword parameters named as in one of
    the parameterizations, and ``params`` reads them back from a measure, in
    document order; both default to the fields of ``cls``.  ``arguments``
    gives, from parameter maps by name (`Map`), the maps that give the
    values ``checked`` takes; by default, each field's map or its default.
    Calling the family checks the names and builds.
    """

    cls: type
    parameterizations: Tuple[Set[str], ...]
    checked: Optional[Callable[..., tuple]] = None
    data: Optional[Callable[..., float]] = None
    weight: Optional[Callable[..., float]] = None
    root: Optional[MeasureExpr] = None
    weight_reads: Tuple[str, ...] = ()
    build: Optional[Callable[..., MeasureExpr]] = None
    params: Optional[Callable[[MeasureExpr], dict]] = None
    arguments: Optional[Callable[[dict], tuple]] = None
    draw: Optional[Tuple[str, str]] = None
    sample: Optional[Callable[..., Any]] = None

    def __post_init__(self):
        # ``args(m)``: the fields of a member in order, the parameters the
        # family's functions take (attrgetter gives a tuple for two or more).
        names = [f.name for f in fields(self.cls)]
        if len(names) == 1:
            field = attrgetter(*names)
            args = lambda m: (field(m),)  # noqa: E731
        else:
            args = attrgetter(*names) if names else lambda m: ()
        object.__setattr__(self, "args", args)
        lanes = None if self.draw is None else Lanes(*self.draw, names, self.cls.__name__)
        object.__setattr__(self, "lanes", lanes)
        if lanes is not None:
            object.__setattr__(self, "sample", lanes.sample)
        if self.build is None:
            object.__setattr__(self, "build", self.cls)
        if self.params is None:
            object.__setattr__(self, "params", lambda m: {n: getattr(m, n) for n in names})
        if self.arguments is None:
            defaults = [(f.name, f.default) for f in fields(self.cls)]
            object.__setattr__(self, "arguments", lambda maps: tuple(
                maps.get(name) or constant(default) for name, default in defaults))

    def check(self, names) -> None:
        """Raise ValueError unless the names form one parameterization."""
        names = sorted(names)
        if len(set(names)) != len(names) or set(names) not in self.parameterizations:
            raise ValueError(
                "unknown parameterization {%s} for %s; expected %s"
                % (
                    ",".join(names),
                    self.cls.__name__,
                    " or ".join("{%s}" % ",".join(sorted(s)) for s in self.parameterizations),
                )
            )

    def law(self, maps: dict) -> Optional[Law]:
        """The `Law` of a kernel with these parameter maps (name -> `Map`);
        None for Dirac."""
        if self.data is None:
            return None
        checked, args = self.checked, self.arguments(maps)
        # One or two maps without a list per point: a 1000-step Normal
        # chain takes about 1.5 times as long through the list.
        if len(args) == 1:
            ((f, c, _),) = args
            params = lambda x: checked(f(x))  # noqa: E731
            column = lambda xs: list(map(checked, c(xs)))  # noqa: E731
        elif len(args) == 2:
            (f, c, _), (g, d, _) = args
            params = lambda x: checked(f(x), g(x))  # noqa: E731
            column = lambda xs: list(map(checked, c(xs), d(xs)))  # noqa: E731
        else:
            getters = [m.point for m in args]
            params = lambda x: checked(*[g(x) for g in getters])  # noqa: E731
            column = lambda xs: [params(x) for x in xs]  # noqa: E731
        names = [f.name for f in fields(self.cls)]
        fixed = all(args[names.index(name)].constant for name in self.weight_reads)
        return Law(params, column, fixed, self)

    def __call__(self, **params) -> MeasureExpr:
        self.check(params)
        return self.build(**params)


FAMILIES = {
    family.cls.__name__: family
    for family in (
        Family(Normal, ({"mu", "sigma"}, {"mu"}, {"sigma"}, set()),
               _normal_checked, _normal_data, _normal_weight, LEBESGUE, ("sigma",),
               draw=("sqrt(-2.0 * log(u1)) * cos(TWO_PI * u2)",  # Box-Muller
                     "mu + sigma * z")),
        Family(
            NegativeBinomial,
            ({"p", "r"}, {"alpha", "beta"}),
            _negbinomial_checked, _negbinomial_data, None, COUNTING,
            build=lambda **params: NegativeBinomial(tuple(params.items())),
            params=lambda m: dict(m.params),
            arguments=_negbinomial_arguments,
            sample=lambda stream, params: _negbinomial_draw(stream, params),  # defined below
        ),
        Family(Uniform01, (set(),), lambda: (), _uniform01_data, None, LEBESGUE,
               draw=("u1", "z")),
        Family(Bernoulli, ({"p"}, set()), _bernoulli_checked, _bernoulli_data, None, COUNTING,
               draw=("u1", "1 if z < p else 0")),
        Family(Poisson, ({"rate"}, set()), _poisson_checked, _poisson_data, None, COUNTING,
               sample=lambda stream, rate: _poisson_draw(stream, rate)),
        Family(Exponential, ({"rate"}, set()), _exponential_checked, _exponential_data,
               math.log, LEBESGUE, ("rate",), draw=("-log(u1)", "z / rate")),
        Family(Dirac, ({"a"},), build=lambda a: Dirac(a), params=lambda m: {"a": m.atom}),
    )
}
for _family in FAMILIES.values():
    if _family.data is not None:  # not Dirac, which is its own base
        _family.cls._family = _family


def make_normal(**params) -> Normal:
    """Normal from named parameters (mu, sigma), with defaults mu=0, sigma=1."""
    return FAMILIES["Normal"](**params)


def make_negbinomial(**params) -> NegativeBinomial:
    """NegativeBinomial from named parameters: either (r, p) or (alpha, beta)."""
    return FAMILIES["NegativeBinomial"](**params)


def make_simple(kind: str, **params) -> MeasureExpr:
    """Construct one of the catalog measures by family name."""
    try:
        family = FAMILIES[kind]
    except KeyError:
        raise ValueError(f"unknown measure family {kind!r}") from None
    return family(**params)


# ---------------------------------------------------------------------------
# Draw algorithms (deterministic given the stream)
# ---------------------------------------------------------------------------


def _standard_normal(stream: rng.RandomStream) -> float:
    """One standard normal variate from a pair of uniforms (Box-Muller)."""
    # 0.0 + 1.0 * z is z but for the sign of a zero, which no caller reads.
    return FAMILIES["Normal"].sample(stream, 0.0, 1.0)


def _poisson_inversion(stream: rng.RandomStream, rate: float) -> int:
    # Sequential inversion of the CDF.  exp(-rate) underflows above a rate
    # of about 745, so `_poisson_draw` passes it rates of 700 at most.
    u = stream.unit()
    p = math.exp(-rate)
    cum = p
    k = 0
    cap = int(rate) + 200
    while u > cum and k < cap:
        k += 1
        p *= rate / k
        cum += p
    return k


def _poisson_draw(stream: rng.RandomStream, rate: float) -> int:
    """Poisson draw: inversion for small rates, additivity chunking up to a
    rate of 1400 (halves of 700 at most), transformed rejection above."""
    if rate > 1400.0:
        return _poisson_ptrs(stream, rate)
    total = 0
    while rate > 30.0:
        half = rate / 2.0
        total += _poisson_inversion(stream, half)
        rate -= half
    return total + _poisson_inversion(stream, rate)


def _poisson_ptrs(stream: rng.RandomStream, rate: float) -> int:
    """Poisson draw by transformed rejection with squeeze (PTRS; Hoermann,
    Insurance: Mathematics and Economics 12, 1993), for the rates above 1400
    that `_poisson_draw` passes it: a bounded expected number of uniforms at
    any such rate."""
    b = 0.931 + 2.53 * math.sqrt(rate)
    a = -0.059 + 0.02483 * b
    log_alpha = math.log(1.1239 + 1.1328 / (b - 3.4))
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = stream.unit() - 0.5
        v = stream.unit()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + rate + 0.43)
        if us >= 0.07 and v <= v_r:
            return k
        # P(0) < exp(-1400) is 0 in floating point, so k = 0 is rejected too.
        if k < 1 or (us < 0.013 and v > us):
            continue
        if math.log(v) + log_alpha - math.log(a / (us * us) + b) <= _poisson_log_pmf(k, rate):
            return k


def _poisson_log_pmf(k: float, rate: float) -> float:
    """log(rate^k e^-rate / k!) for k >= 1, written with `_stirlerr` and
    `_bd0` about k - rate, so its terms do not cancel at large rates
    (k log(rate) - rate - lgamma(k + 1) loses every digit at 1e18)."""
    return -_stirlerr(k) - _bd0(k, rate) - 0.5 * math.log(2.0 * math.pi * k)


def _negbin_log_pmf(y: float, r: float, p: float, q: float) -> float:
    """log NB(y; r, p) for y >= 1, with q = 1 - p, as Loader's saddle-point
    form of log(r/n) + log Binomial(r; n, p), n = y + r, so no two large
    terms cancel at a large y or r."""
    n = y + r
    return (math.log(r / n) + _stirlerr(n) - _stirlerr(r) - _stirlerr(y)
            - _bd0(r, n * p) - _bd0(y, n * q) - 0.5 * math.log(2.0 * math.pi * r * y / n))


def _stirlerr(n: float) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n) for n > 0: Stirling's series from
    n = 15 on (error below 1/(1188 n^9)), directly below."""
    if n < 15.0:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _HALF_LOG_TWO_PI
    nn = n * n
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - 1.0 / (1680.0 * nn)) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """x log(x/m) + m - x for x, m > 0, with log(x/m) as log1p((x - m)/m)
    near x = m and as a difference of logs far from it."""
    d = x - m
    return x * (math.log1p(d / m) if abs(d) < 0.5 * m else math.log(x) - math.log(m)) - d


def _negbinomial_draw(stream: rng.RandomStream, params) -> int:
    """NegativeBinomial draw: a Poisson draw at a gamma-distributed rate."""
    (first, a), (_, b) = params
    if first == "p":
        r, scale = b, (1.0 - a) / a
    else:
        r, scale = a, 1.0 / b
    lam = _gamma_draw(stream, r) * scale
    if not lam < _INF:
        raise ValueError(f"NegativeBinomial{dict(params)} draw overflows: rate {lam}")
    if lam == 0.0:
        return 0
    return _poisson_draw(stream, lam)


def _gamma_draw(stream: rng.RandomStream, shape: float) -> float:
    """Gamma(shape, 1) via the Marsaglia-Tsang squeeze."""
    if shape < 1.0:
        boost = stream.unit() ** (1.0 / shape)
        return _gamma_draw(stream, shape + 1.0) * boost
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = _standard_normal(stream)
        v = (1.0 + c * x) ** 3
        if v <= 0.0:
            continue
        u = stream.unit()
        if u < 1.0 - 0.0331 * x ** 4:
            return d * v
        if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v
