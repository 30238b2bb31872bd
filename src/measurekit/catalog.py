"""Parameterized measure families with named-parameter construction.

Each family keeps the decomposition discipline: `log_density_at` carries only
the data-dependent terms, while constant and parameter-dependent terms (the
normalization) are pushed to a Weighted base measure.  Outside the support the
data term is -inf, never an error.

`FAMILIES` declares, once per family, the accepted parameter name sets and
how document names map to fields; construction, kernels and the document
format all read it.  Construction dispatches on the names given and never
converts between parameterizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional, Set, Tuple

from . import rng
from .core import COUNTING, LEBESGUE, Dirac, MeasureExpr, Weighted, _is_scalar

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_INF = math.inf


def _is_count(x) -> bool:
    """Nonnegative integer-valued scalar within the float range."""
    try:
        return _is_scalar(x) and x >= 0 and float(x) == math.floor(x)
    except OverflowError:  # inf, or an int too large for a float
        return False


def _as_float(v) -> float:
    """float(v); an int beyond the float range becomes the infinity of its sign."""
    try:
        return float(v)
    except OverflowError:
        return _INF if v > 0 else -_INF


def log_binomial(n: float, k: float) -> float:
    """log of the (generalized) binomial coefficient C(n, k) via log-gamma."""
    return math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


class _Law(MeasureExpr):
    """A catalog family's measure: unit mass, on a base that ignores the point."""

    static_base = True

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
        if type(self.mu) is not float:
            object.__setattr__(self, "mu", _as_float(self.mu))
        if type(self.sigma) is not float:
            object.__setattr__(self, "sigma", _as_float(self.sigma))
        if not -_INF < self.mu < _INF:
            raise ValueError(f"Normal requires finite mu, got {self.mu}")
        if not 0.0 < self.sigma < _INF:
            raise ValueError(f"Normal requires finite sigma > 0, got {self.sigma}")

    def log_density_at(self, x) -> float:
        try:
            z = (x - self.mu) / self.sigma
        except OverflowError:  # an int beyond the float range rounds to +-inf
            return -math.inf
        return -0.5 * z * z

    def base_at(self, x) -> MeasureExpr:
        return Weighted(-math.log(self.sigma) - _HALF_LOG_TWO_PI, LEBESGUE)

    def _sample_normalized(self, seed: int):
        stream = rng.RandomStream(seed)
        return self.mu + self.sigma * _standard_normal(stream)

    def _data_block(self, xs) -> float:
        mu, sigma = self.mu, self.sigma
        total = 0.0
        try:
            for x in xs:
                z = (x - mu) / sigma
                total += -0.5 * z * z
        except OverflowError:  # an int beyond the float range: see log_density_at
            return MeasureExpr._data_block(self, xs)
        return total

    def _sample_block(self, seed: int, n: int) -> list:
        # `_standard_normal` inlined, on the uniforms of each coordinate's stream.
        mu, sigma = self.mu, self.sigma
        sqrt, log, cos, two_pi = math.sqrt, math.log, math.cos, 2.0 * math.pi
        units = rng.unit_block(seed, n, 2)
        return [mu + sigma * (sqrt(-2.0 * log(u1)) * cos(two_pi * u2)) for u1, u2 in zip(units, units)]


@dataclass(frozen=True)
class Uniform01(_Law):
    """Restriction of Lebesgue measure to [0, 1]."""

    def log_density_at(self, x) -> float:
        return 0.0 if 0.0 <= x <= 1.0 else -math.inf

    def base_at(self, x) -> MeasureExpr:
        return LEBESGUE

    def _sample_normalized(self, seed: int):
        return rng.RandomStream(seed).unit()


@dataclass(frozen=True)
class Exponential(_Law):
    """Exponential with rate parameter; density rate * exp(-rate x) on x >= 0."""

    rate: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "rate", _as_float(self.rate))
        if not 0.0 < self.rate < _INF:
            raise ValueError(f"Exponential requires finite rate > 0, got {self.rate}")

    def log_density_at(self, x) -> float:
        try:
            return -self.rate * x if x >= 0.0 else -math.inf
        except OverflowError:  # an int beyond the float range rounds to inf
            return -math.inf

    def base_at(self, x) -> MeasureExpr:
        return Weighted(math.log(self.rate), LEBESGUE)

    def _sample_normalized(self, seed: int):
        return -math.log(rng.RandomStream(seed).unit()) / self.rate


@dataclass(frozen=True)
class Bernoulli(_Law):
    """Coin flip on {0, 1} over counting measure."""

    p: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "p", _as_float(self.p))
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"Bernoulli requires 0 <= p <= 1, got {self.p}")

    def log_density_at(self, x) -> float:
        if x == 1:
            return math.log(self.p) if self.p > 0.0 else -math.inf
        if x == 0:
            return math.log1p(-self.p) if self.p < 1.0 else -math.inf
        return -math.inf

    def base_at(self, x) -> MeasureExpr:
        return COUNTING

    def _sample_normalized(self, seed: int):
        return 1 if rng.RandomStream(seed).unit() < self.p else 0


@dataclass(frozen=True)
class Poisson(_Law):
    """Poisson counts with the given rate, over counting measure."""

    rate: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "rate", _as_float(self.rate))
        if not 0.0 < self.rate < _INF:
            raise ValueError(f"Poisson requires finite rate > 0, got {self.rate}")

    def log_density_at(self, x) -> float:
        if not _is_count(x):
            return -math.inf
        k = float(x)
        if k >= 1000.0:  # where the terms below cancel at large rates
            return _poisson_log_pmf(k, self.rate)
        return k * math.log(self.rate) - self.rate - math.lgamma(k + 1.0)

    def base_at(self, x) -> MeasureExpr:
        return COUNTING

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
        FAMILIES["NegativeBinomial"].check(name for name, _ in self.params)
        params = tuple(sorted((name, _as_float(value)) for name, value in self.params))
        object.__setattr__(self, "params", params)
        values = dict(params)
        for name in ("r", "alpha", "beta"):
            if name in values and not 0.0 < values[name] < _INF:
                raise ValueError(f"NegativeBinomial requires finite {name} > 0, got {values[name]}")
        if "p" in values and not 0.0 < values["p"] < 1.0:
            raise ValueError(f"NegativeBinomial requires 0 < p < 1, got {values['p']}")

    def log_density_at(self, x) -> float:
        if not _is_count(x):
            return -math.inf
        y = float(x)
        (first, a), (_, b) = self.params
        if first == "p":
            p, r = a, b
            return log_binomial(y + r - 1.0, r - 1.0) + r * math.log(p) + y * math.log1p(-p)
        alpha, beta = a, b
        return (
            log_binomial(y + alpha - 1.0, alpha - 1.0)
            + alpha * (math.log(beta) - math.log1p(beta))
            - y * math.log1p(beta)
        )

    def base_at(self, x) -> MeasureExpr:
        return COUNTING

    def _sample_normalized(self, seed: int):
        (first, a), (_, b) = self.params
        if first == "p":
            r, scale = b, (1.0 - a) / a
        else:
            r, scale = a, 1.0 / b
        stream = rng.RandomStream(seed)
        lam = _gamma_draw(stream, r) * scale
        if not lam < _INF:
            raise ValueError(f"NegativeBinomial{dict(self.params)} draw overflows: rate {lam}")
        if lam == 0.0:
            return 0
        return _poisson_draw(stream, lam)


# ---------------------------------------------------------------------------
# Named-parameter constructors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """A catalog family as constructors, kernels and documents see it.

    ``parameterizations`` are the accepted sets of parameter names.  ``build``
    makes the measure from keyword parameters named as in one of those sets,
    and ``params`` reads them back from a measure, in document order; both
    default to the fields of ``cls``.  Calling the family checks the names and
    builds.
    """

    cls: type
    parameterizations: Tuple[Set[str], ...]
    build: Optional[Callable[..., MeasureExpr]] = None
    params: Optional[Callable[[MeasureExpr], dict]] = None

    def __post_init__(self):
        if self.build is None:
            object.__setattr__(self, "build", self.cls)
        if self.params is None:
            names = [f.name for f in fields(self.cls)]
            object.__setattr__(self, "params", lambda m: {n: getattr(m, n) for n in names})

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

    def __call__(self, **params) -> MeasureExpr:
        self.check(params)
        return self.build(**params)


FAMILIES = {
    family.cls.__name__: family
    for family in (
        Family(Normal, ({"mu", "sigma"}, {"mu"}, {"sigma"}, set())),
        Family(
            NegativeBinomial,
            ({"p", "r"}, {"alpha", "beta"}),
            build=lambda **params: NegativeBinomial(tuple(params.items())),
            params=lambda m: dict(m.params),
        ),
        Family(Uniform01, (set(),)),
        Family(Bernoulli, ({"p"}, set())),
        Family(Poisson, ({"rate"}, set())),
        Family(Exponential, ({"rate"}, set())),
        Family(Dirac, ({"a"},), build=lambda a: Dirac(a), params=lambda m: {"a": m.atom}),
    )
}


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
    u1 = stream.unit()
    u2 = stream.unit()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


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
    """log(rate^k e^-rate / k!) for k >= 1, by Stirling's series for log k!.

    Written about d = k - rate, so its terms do not cancel at large rates
    (k log(rate) - rate - lgamma(k + 1) loses every digit at 1e18).  The
    series' error is below 1/(1260 k^5).  Below rate = k/2, where 1 - d/k
    would cancel (to 0 at a tiny rate), log(rate/k) is a difference of logs.
    """
    d = k - rate
    ratio = math.log1p(-d / k) if rate >= 0.5 * k else math.log(rate) - math.log(k)
    return (k * ratio + d - _HALF_LOG_TWO_PI - 0.5 * math.log(k)
            - (1.0 / 12.0 - 1.0 / (360.0 * k * k)) / k)


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
