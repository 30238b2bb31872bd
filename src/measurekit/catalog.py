"""Parameterized measure families with named-parameter construction.

Each family keeps the decomposition discipline: `log_density_at` carries only
the data-dependent terms, while constant and parameter-dependent terms (the
normalization) are pushed to a Weighted base measure.  Outside the support the
data term is -inf, never an error.

`FAMILIES` declares, once per family, the accepted parameter name sets, how
document names map to fields, the family's checks, data term and base
weight as source in the names of its parameters, the root its base ends at,
and its draw from a stream, or, as `Lanes`, from a fixed number of
uniforms.  `Family` compiles each declaration into one source, the file
``<family Name>``: the methods of the family's class, the functions a
kernel over it calls, and its lane draws.  Construction, kernels, the
document format and the family's classes all read it.  Construction
dispatches on the names given and never converts between
parameterizations.
"""

from __future__ import annotations

import linecache
import math
import re
import sys
from dataclasses import dataclass, fields
from itertools import repeat
from math import cos, log, sqrt  # for the lane draws' expressions
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Set, Tuple

from . import rng
from .core import COUNTING, LEBESGUE, Dirac, MeasureExpr, Weighted, _as_float, _is_scalar

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_TWO_PI = 2.0 * math.pi
_INF = math.inf
_MAX = sys.float_info.max


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
# A family's facts are written once, as source in its `Family` entry in
# `FAMILIES` (last in the module), which compiles them into the methods of
# the classes below and the forms a kernel runs; a class is its fields.


def _negbinomial_checked(params) -> tuple:
    pairs = params if type(params) is tuple else (params,)
    FAMILIES["NegativeBinomial"].check(
        p[0] if type(p) is tuple and len(p) == 2 and type(p[0]) is str else repr(p) for p in pairs)
    params = tuple(sorted((name, _as_float(value)) for name, value in params))
    values = dict(params)
    for name in ("r", "alpha", "beta"):
        if name in values and not 0.0 < values[name] < _INF:
            raise ValueError(f"NegativeBinomial requires finite {name} > 0, got {values[name]}")
    if "p" in values and not 0.0 < values["p"] < 1.0:
        raise ValueError(f"NegativeBinomial requires 0 < p < 1, got {values['p']}")
    return (params,)


class _Law(MeasureExpr):
    """A catalog family's measure: unit mass, on a base that ignores the point.

    Its fields are its family's parameters.  Its class's `__post_init__`,
    `log_density_at`, `base_at`, `_sample_normalized`, `_data_block`, the
    loop an iid block sums, and `_data_column`, the data terms at a column
    of points, are compiled by its `Family`; a class whose
    family declares `Lanes` draws an iid block from the words of many
    streams at once.
    """

    static_base = True
    _family = None  # its `Family`, bound as `FAMILIES` is declared

    def __post_init__(self):
        # Replaced by the family's check; a dataclass calls `__post_init__`
        # only if the class has one when it is made.
        pass

    def _sample_block(self, seed: int, n: int) -> list:
        family = self._family
        if family.lanes is None or n < rng.LANE_MIN:  # one draw at a time is the faster
            return MeasureExpr._sample_block(self, seed, n)
        return family.lanes.block(seed, n, family.args(self))

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


@dataclass(frozen=True)
class Uniform01(_Law):
    """Restriction of Lebesgue measure to [0, 1]."""


@dataclass(frozen=True)
class Exponential(_Law):
    """Exponential with rate parameter; density rate * exp(-rate x) on x >= 0."""

    rate: float = 1.0


@dataclass(frozen=True)
class Bernoulli(_Law):
    """Coin flip on {0, 1} over counting measure."""

    p: float = 0.5


@dataclass(frozen=True)
class Poisson(_Law):
    """Poisson counts with the given rate, over counting measure."""

    rate: float = 1.0


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
    column: Callable[[Sequence], tuple]  # the maps' columns over a sequence (`_columns`)
    fixed: bool  # whether every parameter ``family.weight`` reads is constant
    family: "Family"


_FLOAT = frozenset((float,))


def _columns(xs: Sequence, maps: Sequence[Map], within, wide: Sequence[bool]) -> Tuple[bool, list]:
    """Whether the columns of ``maps`` over ``xs`` pass the family's checks
    whole, and the columns, each read once.  They pass when every value is
    a float, no sum is NaN, and ``within`` holds at the minima and at the
    maxima: each check is an interval in its own field, so then `checked`
    would pass every element unchanged.  A field whose check passes every
    finite float (``wide``) needs only a finite sum.  A constant map is
    screened once.  Anything else, and no ``within``, does not pass."""
    n = len(xs)
    columns, lows, highs = [], [], []
    passed = within is not None and n > 0
    for (point, column, constant), finite in zip(maps, wide):
        if constant:
            value = point(None)
            columns.append([value] * n)
            passed = passed and type(value) is float
            lows.append(value)
            highs.append(value)
            continue
        values = column(xs)
        if type(values) is not list and type(values) is not tuple:
            values = list(values)
        columns.append(values)
        passed = passed and _FLOAT.issuperset(map(type, values)) and (total := sum(values)) == total
        if passed and finite and -_INF < total < _INF:
            lows.append(total)
            highs.append(total)
        elif passed:
            lows.append(min(values))
            highs.append(max(values))
    return passed and within(*lows) and within(*highs), columns


def _negbinomial_arguments(maps: dict) -> tuple:
    points = [(name, m.point) for name, m in maps.items()]
    return (calls(lambda x: tuple([(name, f(x)) for name, f in points])),)


def _compiled(source: str, filename: str, namespace: dict) -> dict:
    """``namespace`` with the definitions of ``source`` run in it, compiled
    as ``filename``, whose lines tracebacks and pdb then show (`linecache`)."""
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)
    return namespace


class Lanes:
    """A family's draw from a fixed number of uniforms, in the forms that
    draw from many streams at once.

    The family declares it as ``draw``: ``noise``, the standard draw, an
    expression in the uniforms ``u1``, ``u2``, ... of a stream that reads
    no parameter, and ``place``, an expression in that draw ``z`` and the
    fields, the draw at those parameters.  Its `Family` compiles them with
    its other forms: ``sample(stream, *fields)`` is their composition, drawn
    from a stream's leading uniforms.  Over columns of the words of many
    streams (`rng.word_chunks`), uniform c being ``(w_c + 0.5) * 2**-53``,
    each form here is one comprehension per chunk: `block` draws an iid
    block at fixed parameters, `noise` gives the standard draws,
    ``placed(zs, ps)`` puts standard draws at a sequence of parameter
    tuples, and ``walk(zs, params, state)`` steps a chain whose parameters
    ``params(state)`` follow its state, yielding each element and returning
    the last.  Every form gives the bits of ``sample``.
    """

    def __init__(self, namespace: dict):
        self.units = namespace["units"]
        self.placed, self.walk = namespace["placed"], namespace["walk"]
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


# What a `Family` compiles, in a copy of the module's namespace, as the
# file ``<family {name}>``: {body} is the data term, {summed} and
# {appended} the data term in a loop with each ``return`` made an addition
# to ``total`` or an ``append`` to the column, {reads} reads the fields
# into locals, as every method does, and {target} is the tuple of them.
# ``law`` takes a kernel's maps of the fields (`Map`: point form, column
# form, constant).  ``weight`` is None for a family that declares none, and
# ``within`` for one that declares no ``checks``.  `__post_init__` calls
# ``checked`` only when a field is no float or out of range.
_MEMBER_SOURCE = """\
def data(x{params}):
{body}
def log_density_at(self, x):
{reads}{body}
def _data_block(self, xs):
{reads}    total = 0.0
    for x in xs:
{summed}    return total

def _data_column(self, xs):
{reads}    out = []
    append = out.append
    for x in xs:
{appended}    return out

def columns(total, xs{params}):
    for {column_rows}:
{summed}    return total

def args(self):
{reads}    return {target}

def _sample_normalized(self, seed):
{reads}    return sample(rng.RandomStream(seed){params})

def base_at(self, x):
{base}

def law(maps):
    {law_target} = maps
    def params(x):
        return checked({law_points})
    def column(xs):
        return _columns(xs, maps, within, wide)
    return Law(params, column, {law_fixed}, family)
"""
_WEIGHT_SOURCE = """
def weight({args}):
    return {weight}
"""
_CHECKED_SOURCE = """
def checked({args}):
{converts}{raises}    return {target}

def within({args}):
    return {conditions}
"""
_POST_INIT_SOURCE = """
def __post_init__(self):
{reads}{guard}{indent}{target} = checked({args})
{stores}"""
# The forms of `Lanes`, for a family that declares ``draw``: {draw} is
# ``place`` at z = ``noise``, in uniforms; {word_noise} and {word_draw} read
# each uniform from its word.  ``block`` is ``placed(noise(...),
# repeat(params))`` in one pass: about 5% more `iid-chain` draws per second
# than the two passes (`BENCH_16.json`).
_LANE_SOURCE = """
units = {units}

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


def _member_source(family: "Family", names: Sequence[str]) -> str:
    """The source `Family` compiles for a family with fields ``names``."""
    name, checks, weight = family.cls.__name__, family.checks, family.weight
    lines = [line for line in family.data.splitlines() if line.strip()]
    margin = min(len(line) - len(line.lstrip()) for line in lines)
    data = "".join(line[margin:] + "\n" for line in lines)
    # The data term as the body of a loop over x: each ``return`` made a
    # step, added to ``total`` or appended, then ``continue``, except on the
    # last line.
    loops = {}
    for slot, step in (("summed", r"total += \2"), ("appended", r"append(\2)")):
        looped = re.sub(r"(?m)^( *)return (.*)$", rf"\1{step}\n\1continue", data)
        loops[slot] = re.sub(r"(?m)^(?=.)", "        ", re.sub(r"\ncontinue\n$", "\n", looped))
    reads = "".join(f"    {f} = self.{f}\n" for f in names)
    slots = dict(
        params="".join(", " + f for f in names), args=", ".join(names),
        target="(%s)" % "".join(f + ", " for f in names).rstrip(" "), reads=reads,
        body=re.sub(r"(?m)^(?=.)", "    ", data),
        **loops, weight=weight,
        base="    return root" if weight is None else f"{reads}    return Weighted({weight}, root)",
        law_target="(%s)" % "".join(f"(f_{f}, c_{f}, k_{f}), " for f in names).rstrip(" "),
        law_points=", ".join(f"f_{f}(x)" for f in names),
        column_rows="x, %s in zip(xs, %s)" % (", ".join(names), ", ".join(names))
        if names else "x in xs",
        law_fixed=" and ".join(f"k_{f}" for f in names if re.search(rf"\b{f}\b", weight or ""))
        or "True")
    source = _MEMBER_SOURCE + ("\nweight = None\n" if weight is None else _WEIGHT_SOURCE)
    if checks is None:
        source += "\nwithin = None\n"
    else:
        source += _CHECKED_SOURCE
        slots.update(
            conditions=" and ".join(f"({condition})" for condition, _ in checks) or "True",
            converts="".join(f"    if type({f}) is not float:\n        {f} = _as_float({f})\n"
                             for f in names),
            raises="".join(f"    if not ({condition}):\n        raise ValueError("
                           f"f\"{name} requires {requirement}, got {{{f}}}\")\n"
                           for f, (condition, requirement) in zip(names, checks)))
    if names:
        source += _POST_INIT_SOURCE
        guard = "" if checks is None else "    if not (%s):\n" % " and ".join(
            [f"type({f}) is float" for f in names] + [f"({c})" for c, _ in checks])
        indent = "    " if checks is None else "        "
        slots.update(guard=guard, indent=indent, stores="".join(
            f"{indent}object.__setattr__(self, {f!r}, {f})\n" for f in names))
    if family.draw is not None:
        source += _LANE_SOURCE
        noise, place = family.draw
        units = max(int(c) for c in re.findall(r"\bu(\d+)\b", noise))
        us, ws, cs = ([f"{v}{c}" for c in range(1, units + 1)] for v in "uwc")
        chunk = "c1" if units == 1 else f"zip({', '.join(cs)})"
        word_noise = re.sub(r"\bu(\d+)\b", r"((w\1 + 0.5) * 2.0 ** -53)", noise)
        slots.update(
            units=units, columns=", ".join(cs), place=place, noise=noise, word_noise=word_noise,
            stream_units="\n".join(f"    {u} = stream.unit()" for u in us),
            draw=re.sub(r"\bz\b", f"({noise})", place),
            word_draw=re.sub(r"\bz\b", f"({word_noise})", place),
            word_rows=f"{', '.join(ws)} in {chunk}", unit_rows=f"{', '.join(us)} in {chunk}")
    return source.format(**slots)


@dataclass(frozen=True)
class Family:
    """A catalog family, declared once for constructors, kernels, documents
    and the family's own measures.

    ``parameterizations`` are the accepted sets of parameter names.  The
    fields of ``cls`` are the parameters, and what a member is comes as
    source in their names: ``checks``, per field, a condition on its value
    (a value that is no float is converted first) and what the error says
    it requires; ``data``, the data term at x, the body of a function of x
    and the fields with each ``return`` on one line; and ``weight``, the
    log constant its base carries over ``root`` (None: the base is ``root``
    itself).  NegativeBinomial, whose field is no float, declares a
    function ``checked`` instead of ``checks``.  Dirac declares none of
    them: its root is the member itself.

    `Family` compiles that source once, as the file ``<family Name>``
    (`_MEMBER_SOURCE`), into the class's `__post_init__`,
    `log_density_at`, `base_at`, `_sample_normalized`, `_data_block`, the
    sum over an iid block, and `_data_column`, the data terms at a column
    of points, each reading the fields into locals; into
    the functions of the checked fields that a kernel over the family calls
    with no member built: ``checked``, ``data``, ``weight`` and
    ``columns(total, xs, *fields)``, total plus the terms at a column of
    points, with one column per field; into the kernel's `Law` (`law`),
    whose weight is fixed when the maps of the fields ``weight`` names are
    constant and whose column form screens whole columns with ``within``,
    the conjunction of the checks (`_columns`); and into ``args(m)``, a
    member's fields.

    A member draws with ``sample(stream, *fields)``, as does a kernel over
    the family.  A family whose draw takes a fixed number of uniforms
    declares instead ``draw``, a pair of expressions: its standard draw in
    the uniforms and the placement of that draw ``z`` at the fields.  The
    same source then holds ``sample``, its draw from a stream, and the
    forms of its `Lanes`, found as ``lanes``: its iid blocks, the factors
    of a product of its members, and the steps of a chain over a kernel of
    it draw the words of many streams at once and turn each chunk into
    draws in one comprehension.

    ``build`` makes the measure from keyword parameters named as in one of
    the parameterizations, and ``params`` reads them back from a measure, in
    document order; both default to the fields of ``cls``.  ``arguments``
    gives, from parameter maps by name (`Map`), the maps that give the
    values ``checked`` takes; by default, each field's map or its default.
    Calling the family checks the names and builds.
    """

    cls: type
    parameterizations: Tuple[Set[str], ...]
    checks: Optional[Tuple[Tuple[str, str], ...]] = None
    data: Any = None  # source, then its compiled point form
    weight: Any = None  # likewise
    root: Optional[MeasureExpr] = None
    checked: Optional[Callable[..., tuple]] = None
    build: Optional[Callable[..., MeasureExpr]] = None
    params: Optional[Callable[[MeasureExpr], dict]] = None
    arguments: Optional[Callable[[dict], tuple]] = None
    draw: Optional[Tuple[str, str]] = None
    sample: Optional[Callable[..., Any]] = None
    lanes = None  # not a field: its `Lanes`, for a family that declares ``draw``

    def __post_init__(self):
        cls, names = self.cls, [f.name for f in fields(self.cls)]
        if self.data is not None:
            # Per field, whether its check passes every finite float: an
            # interval that holds both extremes holds all between them.
            wide = (False,) * len(names) if self.checks is None else tuple(
                all(eval(condition, globals(), {name: v}) for v in (-_MAX, _MAX))
                for name, (condition, _) in zip(names, self.checks))
            namespace = _compiled(_member_source(self, names), f"<family {cls.__name__}>",
                                  dict(globals(), root=self.root, sample=self.sample,
                                       checked=self.checked, family=self, wide=wide))
            if self.draw is not None:
                object.__setattr__(self, "lanes", Lanes(namespace))
            object.__setattr__(self, "_law", namespace["law"])
            for name in ("checked", "data", "weight", "args", "columns", "sample"):
                object.__setattr__(self, name, namespace[name])
            for name in ("__post_init__", "log_density_at", "base_at", "_sample_normalized",
                         "_data_block", "_data_column"):
                if name in namespace:
                    setattr(cls, name, namespace[name])
            cls._family = self
        if self.build is None:
            object.__setattr__(self, "build", cls)
        if self.params is None:
            object.__setattr__(self, "params", lambda m: {n: getattr(m, n) for n in names})
        if self.arguments is None:
            defaults = [(f.name, f.default) for f in fields(cls)]
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
        return None if self.data is None else self._law(self.arguments(maps))

    def __call__(self, **params) -> MeasureExpr:
        self.check(params)
        return self.build(**params)


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
        # At a float k: above a rate of about 1e154 the int's square in
        # `_stirlerr` is beyond the float range.
        if math.log(v) + log_alpha - math.log(a / (us * us) + b) <= _poisson_log_pmf(float(k), rate):
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


# ---------------------------------------------------------------------------
# The declarations
# ---------------------------------------------------------------------------
# Last in the module: a family's source is compiled in the module's
# namespace as it stands, so each function the source calls comes first.

_POSITIVE_RATE = (("0.0 < rate < _INF", "finite rate > 0"),)

FAMILIES = {
    family.cls.__name__: family
    for family in (
        Family(
            Normal, ({"mu", "sigma"}, {"mu"}, {"sigma"}, set()),
            checks=(("-_INF < mu < _INF", "finite mu"), ("0.0 < sigma < _INF", "finite sigma > 0")),
            data="""
                try:
                    z = (x - mu) / sigma
                except OverflowError:  # an int beyond the float range rounds to +-inf
                    return -math.inf
                return -0.5 * z * z
            """,
            weight="-math.log(sigma) - _HALF_LOG_TWO_PI", root=LEBESGUE,
            draw=("sqrt(-2.0 * log(u1)) * cos(_TWO_PI * u2)",  # Box-Muller
                  "mu + sigma * z"),
        ),
        Family(
            NegativeBinomial, ({"p", "r"}, {"alpha", "beta"}),
            checked=_negbinomial_checked,
            data="""
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
            """,
            root=COUNTING,
            build=lambda **params: NegativeBinomial(tuple(params.items())),
            params=lambda m: dict(m.params),
            arguments=_negbinomial_arguments,
            sample=_negbinomial_draw,
        ),
        Family(
            Uniform01, (set(),), checks=(),
            data="return 0.0 if 0.0 <= x <= 1.0 else -math.inf", root=LEBESGUE,
            draw=("u1", "z"),
        ),
        Family(
            Bernoulli, ({"p"}, set()), checks=(("0.0 <= p <= 1.0", "0 <= p <= 1"),),
            data="""
                if x == 1:
                    return math.log(p) if p > 0.0 else -math.inf
                if x == 0:
                    return math.log1p(-p) if p < 1.0 else -math.inf
                return -math.inf
            """,
            root=COUNTING, draw=("u1", "1 if z < p else 0"),
        ),
        Family(
            Poisson, ({"rate"}, set()), checks=_POSITIVE_RATE,
            data="""
                if not _is_count(x):
                    return -math.inf
                k = float(x)
                if k >= 1000.0:  # where the terms below cancel at large rates
                    return _poisson_log_pmf(k, rate)
                return k * math.log(rate) - rate - math.lgamma(k + 1.0)
            """,
            root=COUNTING, sample=_poisson_draw,
        ),
        Family(
            Exponential, ({"rate"}, set()), checks=_POSITIVE_RATE,
            data="""
                try:
                    return -rate * x if x >= 0.0 else -math.inf
                except OverflowError:  # an int beyond the float range rounds to inf
                    return -math.inf
            """,
            weight="math.log(rate)", root=LEBESGUE, draw=("-log(u1)", "z / rate"),
        ),
        Family(Dirac, ({"a"},), build=lambda a: Dirac(a), params=lambda m: {"a": m.atom}),
    )
}
