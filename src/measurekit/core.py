"""Measure expressions, extended log-weights, and the density recursion engine.

A measure is an immutable expression tree.  Every node reports a base measure
near a point (`base_at`) and its own log-density against that base
(`log_density_at`, the data-dependent terms).  The log-density between two
arbitrary measures is computed by `log_density(mu, x, wrt=nu)`: telescope both
base-measure chains until the nodes coincide structurally, a direct rule
applies (either node's `rule_vs`, the target's read negated), a sum is
reached, or two chain fixed points are.  Primitive measures (Lebesgue,
counting, Dirac) are their own base measures and terminate every chain.  The
last two cases meet through one local reference read from both roots
(`_local_rule`): counting measure where a Dirac or a summand of counting
class has mass at x, or no part of Lebesgue class competes, else Lebesgue
measure.  A walk that reaches a sum, on either side, applies it to the two
measures it started from, so both orders end at the same rule.

Inside the engine every log-density is a plain float: -inf when the left
measure vanishes locally but the right does not, +inf in the reverse case,
and NaN when neither measure locally dominates.  IEEE arithmetic already
follows the extended rules (inf + -inf is NaN, NaN absorbs everything).  The
public `log_density` wraps the float once in a `LogWeight`, whose Undefined
state is the tagged form of NaN.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import reduce
from operator import add as _add
from typing import Any, NamedTuple, Optional, Tuple

from . import rng

_MAX_CHAIN_STEPS = 10_000
_PLAN_SLOTS = 4


class MeasureError(Exception):
    """Base class for measure-theoretic failures."""


class ShapeError(MeasureError):
    """Point does not match the measure's sample space."""


class UnrelatedPrimitivesError(MeasureError):
    """Reached two distinct primitive measures with no density rule."""


class NotProbabilityError(MeasureError):
    """Operation requires a probability measure."""


class UndefinedDensityError(MeasureError):
    """A computation required a density where none is defined."""


class DepthError(MeasureError):
    """An expression is nested too deeply for the interpreter's call stack."""


_TOO_DEEP = "expression nested too deeply to evaluate"


# ---------------------------------------------------------------------------
# Extended-real log weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LogWeight:
    """Extended-real log weight: finite float, +inf, -inf, or undefined.

    Undefined is a tagged state distinct from a float NaN so callers can
    branch on it reliably.  Arithmetic follows the extended rules: negation
    swaps the infinities, finite + (-inf) = -inf, (+inf) + (-inf) is
    undefined, and undefined absorbs everything.
    """

    value: float = 0.0
    defined: bool = True

    def __post_init__(self):
        v = float(self.value)
        if math.isnan(v):
            object.__setattr__(self, "value", 0.0)
            object.__setattr__(self, "defined", False)
        else:
            object.__setattr__(self, "value", v)

    # -- predicates --------------------------------------------------------

    @property
    def is_undefined(self) -> bool:
        return not self.defined

    @property
    def is_finite(self) -> bool:
        return self.defined and math.isfinite(self.value)

    @property
    def is_neg_inf(self) -> bool:
        return self.defined and self.value == -math.inf

    @property
    def is_pos_inf(self) -> bool:
        return self.defined and self.value == math.inf

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self) -> "LogWeight":
        if not self.defined:
            return UNDEFINED
        return LogWeight(-self.value)

    def __add__(self, other) -> "LogWeight":
        other = as_log_weight(other)
        if not (self.defined and other.defined):
            return UNDEFINED
        return LogWeight(self.value + other.value)  # inf + -inf -> NaN -> undefined

    __radd__ = __add__

    def __sub__(self, other) -> "LogWeight":
        return self + (-as_log_weight(other))

    def exp(self) -> float:
        """Linear-space weight; 0.0 for -inf, inf beyond the float range, nan
        for undefined."""
        if not self.defined:
            return math.nan
        if self.value == -math.inf:
            return 0.0
        try:
            return math.exp(self.value)
        except OverflowError:
            return math.inf

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, LogWeight):
            if not (self.defined and other.defined):
                return self.defined == other.defined
            return self.value == other.value
        if isinstance(other, numbers.Real):
            return self.defined and self.value == float(other)
        return NotImplemented

    def __hash__(self):
        # Equal values hash equal, including LogWeight(v) == v for floats.
        return hash(self.value) if self.defined else hash("LogWeight.undefined")

    def __repr__(self):
        if not self.defined:
            return "LogWeight(undefined)"
        return f"LogWeight({self.value!r})"


ZERO = LogWeight(0.0)
NEG_INF = LogWeight(-math.inf)
POS_INF = LogWeight(math.inf)
UNDEFINED = LogWeight(0.0, defined=False)


def as_log_weight(v) -> LogWeight:
    if isinstance(v, LogWeight):
        return v
    return LogWeight(_to_float(v))


def _to_float(v) -> float:
    """Engine form of a log weight or real: a float, NaN for undefined."""
    if isinstance(v, LogWeight):
        return v.value if v.defined else math.nan
    if isinstance(v, numbers.Real):
        return _as_float(v)
    raise TypeError(f"cannot interpret {v!r} as a log weight")


def _as_float(v) -> float:
    """float(v); an int beyond the float range becomes the infinity of its sign."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _logaddexp(a: float, b: float) -> float:
    """log(e^a + e^b) on engine floats; see `logaddexp`."""
    if a != a or b != b:
        return math.nan
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    if a == math.inf or b == math.inf:
        return math.inf
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def _logsumexp(values) -> float:
    """log of the sum of e^v, folded pairwise from the left.

    Two values give exactly `_logaddexp`, so two-component sums keep their
    bits.
    """
    return reduce(_logaddexp, values)


def logaddexp(a, b) -> LogWeight:
    """log(e^a + e^b), overflow-safe via max-shift.

    Finite whenever either argument is finite; -inf acts as the identity;
    undefined propagates.
    """
    return LogWeight(_logaddexp(_to_float(a), _to_float(b)))


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------

_weight_evaluations = 0


def reset_weight_evaluations() -> None:
    """Reset the counter of constant base-weight term evaluations."""
    global _weight_evaluations
    _weight_evaluations = 0


def weight_evaluations() -> int:
    """Number of times a Weighted node contributed its constant term."""
    return _weight_evaluations


# ---------------------------------------------------------------------------
# Measure expressions
# ---------------------------------------------------------------------------


def _is_scalar(x) -> bool:
    t = type(x)
    if t is float or t is int:
        return True
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _fits(atom, x) -> bool:
    """Whether x nests tuples as atom does, each of atom's length, with a
    real scalar that is not a bool wherever atom has no tuple."""
    if isinstance(atom, tuple):
        return isinstance(x, tuple) and len(x) == len(atom) and all(map(_fits, atom, x))
    return _is_scalar(x)


def _not_scalar(name: str, x) -> ShapeError:
    return ShapeError(f"{name} expects a scalar point, got {x!r}")


class MeasureExpr:
    """Base class for measure expression nodes.

    Subclasses are frozen dataclasses; structural equality is the generated
    field equality.  All evaluation methods are pure, so values are safely
    shareable across threads.

    Log-densities returned by nodes are floats: -inf and +inf for
    non-domination, NaN for undefined.  Evaluation methods may assume a point
    that passed `check_point`, except on nodes that set ``self_checking``.

    A ``static_base`` node must decide by its structure alone, never by the
    point, whether it equals another node and whether its rule hooks fire,
    its `unfold` must give exactly (`log_density_at`, `base_at`), and it is
    never ``self_checking`` (the nodes that check as they evaluate build
    their factors from the point).  A container that takes a flag from its
    children sets it once, in ``__post_init__``.  The engine relies on this
    to keep the plan of a walk between two static-base measures on the
    source (`_Plan`, ``_plans``) and replay it at later points.
    """

    #: Walk plans of this node as a source, newest first: up to _PLAN_SLOTS
    #: (target, `_Plan`) pairs, looked up by the target's identity; the plan
    #: is None for a target met once.  An instance attribute, not a field.
    _plans = ()

    #: True when `base_at` ignores the point, so one base serves every point.
    static_base = False

    #: True when the evaluation methods (`log_density_at`, `base_at`,
    #: `unfold`) validate the point themselves, as nodes whose factors depend
    #: on the point do, and the containers above them; the engine then
    #: skips the separate `check_point` pass, so each element is evaluated
    #: once.
    self_checking = False

    def check_point(self, x) -> None:
        """Raise ShapeError when x is not in this measure's sample space."""
        t = type(x)
        if t is not float and t is not int and not _is_scalar(x):
            raise _not_scalar(type(self).__name__, x)

    def _checked_shape(self) -> Optional[Tuple[int, ...]]:
        """The shape of nested tuples of scalars that `check_point` accepts
        and nothing else, () for a scalar, when the check is the default
        scalar check under iid powers, constant weights and products of one
        family's members (`combinators._FixedProduct`); else None.  Two
        measures of one such shape accept the same points."""
        return () if type(self).check_point is MeasureExpr.check_point else None

    def log_density_at(self, x) -> float:
        """Log-density against this measure's own base measure at x."""
        raise NotImplementedError

    # Block hooks: an iid power hands its child a flat block of coordinates
    # (row-major) to sum or to draw in one call.  An override must give
    # exactly the bits and the errors of the per-coordinate methods.

    def _data_block(self, xs) -> float:
        """Sum of `log_density_at` over a flat block, left to right from 0.0."""
        data = self.log_density_at
        total = 0.0
        for x in xs:
            total += data(x)
        return total

    def _data_column(self, xs) -> list:
        """`log_density_at` at each point of a sequence, in its order."""
        data = self.log_density_at
        return [data(x) for x in xs]

    def _sample_block(self, seed: int, n: int) -> list:
        """Draws for coordinates 0..n-1, coordinate i from `derive_key(seed, i)`."""
        return [self._sample_normalized(rng.derive_key(seed, i)) for i in range(n)]

    def base_at(self, x) -> "MeasureExpr":
        """Base measure near x.  Primitives return themselves."""
        raise NotImplementedError

    def unfold(self, x) -> Optional[Tuple[float, "MeasureExpr"]]:
        """One step down the base chain: (log_density_at(x), base_at(x)).

        None when this node is its own base (a chain fixed point), in which
        case no data term is computed.
        """
        base = self.base_at(x)
        if base is self or base == self:
            return None
        return self.log_density_at(x), base

    # Optional hooks for the recursion engine ------------------------------

    def rule_vs(self, other: "MeasureExpr", x) -> Optional[float]:
        """Direct rule for d(self)/d(other) at x, or None.  The engine also
        reads it negated, as the rule for d(other)/d(self)."""
        return None

    def reference_class(self) -> Optional[Tuple[str, float]]:
        """Classification of a base-chain fixed point.

        A recognizable fixed point equals exp(logscale) times a primitive
        reference; the return value is ("lebesgue" | "counting", logscale).
        None when the node is no rescaling of one primitive reference; the
        local rule then relates it by `rule_vs` (see `_local_rule`).
        """
        return None

    #: True for a sum.  A walk that reaches a sum on either side, at its top
    #: or down a chain, ends by the local rule between the two measures it
    #: started from, so both orders end at the same rule.
    is_sum = False

    def _summands(self) -> tuple:
        """The measures this one is the sum of: itself, unless it is a sum."""
        return (self,)

    #: `_local` of a static-base node, kept on first use.  An instance
    #: attribute, not a field: `==` and `repr` skip it.
    _kept_local = None

    # Mass and sampling -----------------------------------------------------

    def log_total_mass(self) -> Optional[float]:
        """Log of the total mass when statically known, else None."""
        return None

    def _sample(self, seed: int):
        """`sample`: check that the total mass is one, then draw."""
        _require_probability(self, self.log_total_mass())
        return self._sample_normalized(seed)

    def _sample_normalized(self, seed: int):
        raise NotProbabilityError(f"cannot sample from {type(self).__name__}")


class _Primitive(MeasureExpr):
    """A primitive measure: its own base, so every base chain ends at one."""

    static_base = True
    _kind = None  # the reference class of Lebesgue and counting measure

    def reference_class(self):
        return None if self._kind is None else (self._kind, 0.0)

    def log_density_at(self, x) -> float:
        return 0.0

    def base_at(self, x) -> MeasureExpr:
        return self


@dataclass(frozen=True)
class Lebesgue(_Primitive):
    """Length/volume on the real line; a primitive measure."""

    _kind = "lebesgue"


@dataclass(frozen=True)
class Counting(_Primitive):
    """Unit mass on every point of a countable carrier; a primitive measure."""

    _kind = "counting"


@dataclass(frozen=True)
class Dirac(_Primitive):
    """Unit point mass at ``atom``; a primitive measure."""

    atom: Any

    def check_point(self, x) -> None:
        if isinstance(self.atom, tuple):
            if not isinstance(x, tuple) or len(x) != len(self.atom):
                raise ShapeError(f"Dirac atom has shape {self.atom!r}, got point {x!r}")
        elif not _is_scalar(x):
            raise ShapeError(f"Dirac expects a scalar point, got {x!r}")

    def log_density_at(self, x) -> float:
        # A tuple point's entries are checked where the atom reads them:
        # `check_point` leaves them to a reference, which checks them first.
        if isinstance(self.atom, tuple) and not _fits(self.atom, x):
            raise ShapeError(f"Dirac atom has shape {self.atom!r}, got point {x!r}")
        return 0.0 if x == self.atom else -math.inf

    def log_total_mass(self):
        return 0.0

    def _sample_normalized(self, seed: int):
        return self.atom


LEBESGUE = Lebesgue()
COUNTING = Counting()


@dataclass(frozen=True)
class Weighted(MeasureExpr):
    """Constant reweighting of another measure.

    The density with respect to ``base`` is the constant ``logweight``; this
    is the carrier for normalization and parameter-dependent terms pushed out
    of a family's data-dependent log-density.  ``logweight`` may be -inf (the
    zero measure) but not +inf or NaN.
    """

    logweight: float
    base: MeasureExpr
    static_base = True

    def __post_init__(self):
        w = self.logweight
        if type(w) is not float:
            w = _as_float(w)
        if math.isnan(w) or w == math.inf:
            raise ValueError(f"invalid log weight {self.logweight!r}")
        if w is not self.logweight:
            object.__setattr__(self, "logweight", w)
        if not self.base.static_base:  # one base everywhere, but the chain below it moves
            object.__setattr__(self, "static_base", False)

    def check_point(self, x) -> None:
        self.base.check_point(x)

    def _checked_shape(self):
        return self.base._checked_shape()

    def log_density_at(self, x) -> float:
        global _weight_evaluations
        _weight_evaluations += 1
        return self.logweight

    def _data_column(self, xs) -> list:
        global _weight_evaluations
        _weight_evaluations += len(xs)  # one evaluation per point, as `log_density_at` counts
        return [self.logweight] * len(xs)

    def base_at(self, x) -> MeasureExpr:
        return self.base

    def log_total_mass(self):
        inner = self.base.log_total_mass()
        return None if inner is None else self.logweight + inner

    def _sample_normalized(self, seed: int):
        return self.base._sample_normalized(seed)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def is_primitive(m: MeasureExpr) -> bool:
    """True exactly for the primitive measures: Lebesgue, Counting, Dirac."""
    return isinstance(m, _Primitive)


def base_measure(m: MeasureExpr, x) -> MeasureExpr:
    """Base measure of m near x; primitives are their own base measure.

    Raises DepthError when m is nested too deeply to evaluate.
    """
    try:
        if not m.self_checking:
            m.check_point(x)
        return m.base_at(x)
    except RecursionError:
        raise DepthError(_TOO_DEEP) from None


def root_measure(m: MeasureExpr, x) -> MeasureExpr:
    """The end of m's base chain near x: the first node that is its own base.

    Raises DepthError when m is nested too deeply to evaluate.
    """
    try:
        if not _checked_by_walk(m):  # else `_chain` steps onto the measure that checks
            m.check_point(x)
        return _chain(m, x)[-1]
    except RecursionError:
        raise DepthError(_TOO_DEEP) from None


def log_density(m: MeasureExpr, x, wrt: Optional[MeasureExpr] = None) -> LogWeight:
    """Local log-density of m at x.

    With ``wrt=None`` this is the density against m's own base measure (the
    data-dependent terms only).  With an explicit reference it is the density
    d(m)/d(wrt) near x, computed by density recursion.

    Raises UnrelatedPrimitivesError when the recursion bottoms out at two
    distinct primitive measures with no rule (e.g. Lebesgue vs Counting),
    and DepthError when m or wrt is nested too deeply to evaluate.
    """
    try:
        return LogWeight(_log_density(m, x, wrt))
    except RecursionError:
        raise DepthError(_TOO_DEEP) from None


def _log_density(m: MeasureExpr, x, wrt: Optional[MeasureExpr] = None) -> float:
    """`log_density` as an engine float (NaN for undefined).

    Between two static-base measures every call walks with `_recurse` until
    the second call against the same ``wrt`` object, which keeps the walk's
    plan on ``m``; later calls replay it.  The first call only notes ``wrt``,
    so a pair that meets once (nodes built per call, or more targets in turn
    than the memo holds) pays for no plan.
    """
    if wrt is None:
        if not m.self_checking:
            m.check_point(x)
        return m.log_density_at(x)
    if not (m.static_base and wrt.static_base):
        if not _checked_by_walk(m):
            m.check_point(x)
        if not _checked_by_walk(wrt):
            wrt.check_point(x)
        return _recurse(m, wrt, x)
    m.check_point(x)  # a static-base node is never self-checking
    plan = False  # no entry for wrt; None for a target met once
    for target, kept in m._plans:
        if target is wrt:
            plan = kept
            break
    if plan:  # replay the kept walk (see `_Plan`)
        head, tail, targets, end, same = plan
        if not same:  # unless m's check, just passed, implies wrt's
            wrt.check_point(x)
        num = 0.0
        for node in head:
            num += (m if node is None else node).log_density_at(x)
            if num != num:
                return num
        meet = num  # the source sum on reaching the meeting node
        for node in tail:
            num += (m if node is None else node).log_density_at(x)
            if num != num:
                return num
        den = 0.0
        for node in targets:
            den += node.log_density_at(x)
            if den != den or (num == -math.inf and den == -math.inf):
                return math.nan
        if end is None:
            return (meet - den) + 0.0
        f, a, b = end
        return (num - den) + f(m if a is None else a, m if b is None else b, x)
    wrt.check_point(x)
    # Each memo update is one tuple swap, so a concurrent reader sees the old
    # or the new memo.
    if plan is False:
        object.__setattr__(m, "_plans", ((wrt, None),) + m._plans[: _PLAN_SLOTS - 1])
        return _recurse(m, wrt, x)
    plan = []
    try:
        return _recurse(m, wrt, x, plan)
    finally:
        if plan:
            kept = tuple(entry for entry in m._plans if entry[0] is not wrt)
            object.__setattr__(m, "_plans", ((wrt, plan[0]),) + kept[: _PLAN_SLOTS - 1])


def _checked_by_walk(m: MeasureExpr) -> bool:
    """Whether a walk from m checks the point as it goes, so m's own check is
    left to it: m is self-checking, or a Weighted over a self-checking
    measure, which the walk unfolds next (so `scale(w, chain)` applies the
    chain's kernel once per element).  Never so for a static-base m."""
    return m.self_checking or (type(m) is Weighted and m.base.self_checking)


def _recurse(mu: MeasureExpr, nu: MeasureExpr, x, plan: Optional[list] = None) -> float:
    # The source-chain and target-chain sums are accumulated separately and
    # combined once, so swapping the arguments negates the result bitwise.
    # The source side is stepped first and its chain is kept: the target
    # side stops at the first node of it that it reaches, which is where the
    # swapped walk stops too.  So when one measure lies on the other's base
    # chain, only the other side is stepped, in either argument order.
    # At each pair `_rule` asks mu's rule, then nu's negated, so a walk that
    # a rule ends is antisymmetric too; a walk that reaches a sum, wherever
    # it reaches it, ends by the local rule of the two top measures.
    # A walk that ends other than by a NaN exit appends its `_Plan` to ``plan``.
    top_mu, top_nu = mu, nu
    # Self-checking sides are validated by their first unfold or by a rule
    # that fires (rules evaluate through validating calls), else on exit; a
    # Weighted over one by the walk on to it, as after its unfold the walk
    # unfolds that measure, meets an equal one or ends in such a rule.
    mu_pending = _checked_by_walk(mu)
    nu_pending = _checked_by_walk(nu)
    nodes = []  # mu's base chain ...
    sums = []  # ... and the source sum on reaching each of its nodes
    targets = []  # nu's nodes that were stepped
    num = den = 0.0
    end = None  # how the walk ended: a meeting node's index, or (f, a, b)
    try:
        for _ in range(_MAX_CHAIN_STEPS):
            if mu is nu or mu == nu:
                if mu is top_mu:
                    nu_pending = False  # equal measures share one check
                end = len(nodes)
                return (num - den) + 0.0
            if mu.is_sum or nu.is_sum:
                break
            rule = _rule(mu, nu, x)
            if rule is not None:
                end = rule[1]
                mu_pending = nu_pending = False
                return (num - den) + rule[0]
            nodes.append(mu)
            sums.append(num)
            step = mu.unfold(x)
            mu_pending = False
            if step is None:
                break
            num += step[0]
            mu = step[1]
            if num != num:
                return num
        else:
            raise RuntimeError("base-measure recursion did not terminate")
        for _ in range(_MAX_CHAIN_STEPS):
            if mu.is_sum or nu.is_sum:
                # Both orders end here, by the local rule of the tops, which
                # reads their chains itself: the plan keeps no step.
                del nodes[:], targets[:]
                end = (_local_rule, top_mu, top_nu)
                mu_pending = nu_pending = False
                return 0.0 + _local_rule(top_mu, top_nu, x)
            step = nu.unfold(x)
            nu_pending = False
            if step is None:
                end = (_local_rule, mu, nu)
                return (num - den) + _local_rule(mu, nu, x)
            targets.append(nu)
            den += step[0]
            nu = step[1]
            if den != den or (num == -math.inf and den == -math.inf):
                # Undefined, or both measures vanish locally: neither dominates.
                return math.nan
            for i, (node, source_sum) in enumerate(zip(nodes, sums)):
                if node is nu or node == nu:
                    end = i
                    return (source_sum - den) + 0.0
            rule = _rule(mu, nu, x)
            if rule is not None:
                end = rule[1]
                return (num - den) + rule[0]
        raise RuntimeError("base-measure recursion did not terminate")
    finally:
        if mu_pending:
            top_mu.check_point(x)
        if nu_pending:
            top_nu.check_point(x)
        # A plan is kept only where every node the walk reached has a static
        # base; the wrappers (`Weighted`, `IntegralMeasure`, ...) take their
        # flag from the measure they wrap.
        if (plan is not None and end is not None
                and all(n.static_base for n in (*nodes, *targets, mu, nu))):
            # After a source fixed point, the last node of `nodes` (mu) was
            # not stepped; an unfolded node is never its own base.
            if nodes and nodes[-1] is mu:
                del nodes[-1]
            # The plan names top_mu as None, as `_Plan` says.
            if nodes:
                nodes[0] = None
            if type(end) is int:
                cut, end = end, None
            else:
                f, a, b = end
                cut, end = len(nodes), (f, None if a is top_mu else a, None if b is top_mu else b)
            shape = top_mu._checked_shape()
            plan.append(_Plan(nodes[:cut], nodes[cut:], targets, end,
                              shape is not None and shape == top_nu._checked_shape()))


def _rule(mu: MeasureExpr, nu: MeasureExpr, x):
    """(d(mu)/d(nu), (f, a, b)) by mu's rule, else by nu's negated, where
    f(a, b, x) gives the value again; None when neither rule fires."""
    rule = mu.rule_vs(nu, x)
    if rule is not None:
        return rule, (type(mu).rule_vs, mu, nu)
    rule = nu.rule_vs(mu, x)
    if rule is not None:
        return -rule, (_reversed_rule, mu, nu)
    return None


def _reversed_rule(mu: MeasureExpr, nu: MeasureExpr, x) -> float:
    """d(mu)/d(nu) by nu's rule: the negation of d(nu)/d(mu)."""
    return -nu.rule_vs(mu, x)


class _Plan(NamedTuple):
    """The record of a `_recurse` walk from mu to nu, kept on mu (``_plans``)
    so `_log_density` and `_log_density_column` replay it at later points.

    ``head``: the source nodes stepped before the node where the chains met
    (all of them where a rule ended the walk); ``tail``: those stepped past
    it, summed only for the NaN exits.  ``targets``: the target nodes
    stepped.  ``end``: None for a meeting, worth (head's data - targets'
    data) + 0.0; else the triple (f, a, b) of the rule that ended the walk
    (`_rule`'s or `_local_rule`), worth (source data - targets' data) +
    f(a, b, x).  None names mu, in ``head`` and in ``end``, so the plan
    holds no reference cycle.  ``same``: whether mu's check implies nu's,
    as both check one shape by the default scalar check
    (`MeasureExpr._checked_shape`), so a replay checks the point once;
    found once per pair, when the plan is kept.

    The scalar replay stops at the walk's first NaN exit, so it evaluates
    the walk's data terms and raises its errors; the column evaluates every
    term at every point, then applies the same exits per point.  One shared
    per-point function would cost each scalar replay a call.
    """

    head: list
    tail: list
    targets: list
    end: Optional[tuple]
    same: bool


def _log_density_column(m: MeasureExpr, wrt: MeasureExpr, xs) -> Optional[list]:
    """`_log_density(m, x, wrt)` at each point of a sequence xs, by m's kept
    `_Plan` against ``wrt`` replayed over the whole column: None where m
    keeps no plan for ``wrt``.

    Each point is checked as a scalar replay checks it; then each node of
    the plan gives its data terms as one column (`_data_column`), combined
    per point in the plan's order, and the rule that ended the walk, if
    any, runs per point, so each value has its bits.  A column evaluates
    every node at every point, also past the point's NaN exit and past an
    error at an earlier point: a caller that needs the errors and the side
    effects of the points in turn (the weight counter) evaluates them again
    by `_log_density`.
    """
    plan = next((p for target, p in m._plans if target is wrt), None)
    if plan is None:
        return None
    head, tail, targets, end, same = plan
    for check in (m.check_point,) if same else (m.check_point, wrt.check_point):
        for x in xs:
            check(x)
    num = [0.0] * len(xs)
    for node in head:
        num = list(map(_add, num, (m if node is None else node)._data_column(xs)))
    meet = num  # the source sums on reaching the meeting node
    for node in tail:
        num = list(map(_add, num, (m if node is None else node)._data_column(xs)))
    den = [0.0] * len(xs)
    for node in targets:
        den = list(map(_add, den, node._data_column(xs)))
    f, a, b = end or (None, None, None)
    a, b = m if a is None else a, m if b is None else b
    # A den that reached -inf at some step ends at -inf or NaN.  A rule
    # plan keeps no tail, so there meet is num.
    return [s if s != s else math.nan if d != d or s == d == -math.inf
            else (e - d) + (0.0 if f is None else f(a, b, x))
            for x, s, e, d in zip(xs, num, meet, den)]


# ---------------------------------------------------------------------------
# The local reference
# ---------------------------------------------------------------------------


class _Local(NamedTuple):
    """A measure near x as the sum of its summands, read from their roots;
    None stands for the measure itself, so a record kept on it makes no cycle."""

    # (chain, scales, atoms, loose): a summand's base chain, root excluded;
    # its root parts' log scales by class, Dirac atoms and parts of no class.
    # The summands that are roots share one entry, with an empty chain.
    entries: tuple
    classes: dict  # (part, log scale) of the first root part of each class
    atoms: tuple
    loose: tuple
    walks: bool  # whether a summand is no root
    plain: bool  # whether all are roots of a class, so the scales are all they hold


def _chain(m: MeasureExpr, x) -> list:
    """m's base chain at x, from m to the root it ends at."""
    chain = [m]
    for _ in range(_MAX_CHAIN_STEPS):
        base = m.base_at(x)
        if base is m or base == m:
            return chain
        chain.append(base)
        m = base
    raise RuntimeError("base-measure chain did not terminate")


def _local(m: MeasureExpr, x) -> _Local:
    """m near x, read from its summands' roots.  Kept on a static-base m,
    whose roots do not depend on x, so each root is found once."""
    kept = m._kept_local
    if kept is None:
        entries, classes, roots = [], {}, None
        for summand in m._summands():
            chain = _chain(summand, x)
            root = chain.pop()
            if chain:  # a summand that walks: an entry of its own
                entries.append(((None if summand is m else summand, *chain[1:]), {}, [], []))
            elif roots is None:  # the first root: the entry all roots share
                roots = ((), {}, [], [])
                entries.append(roots)
            _, scales, atoms, loose = entries[-1] if chain else roots
            for p in root._summands():
                ref, part = p.reference_class(), None if p is m else p
                if isinstance(p, Dirac):
                    atoms.append(p.atom)
                elif ref is None:
                    loose.append(part)
                else:
                    scales[ref[0]] = _logaddexp(scales.get(ref[0], -math.inf), ref[1])
                    classes.setdefault(ref[0], (part, ref[1]))
        atoms = tuple(a for e in entries for a in e[2])
        loose = tuple(u for e in entries for u in e[3])
        walks = any(e[0] for e in entries)
        kept = _Local(tuple(entries), classes, atoms, loose, walks, not (walks or atoms or loose))
        if m.static_base:
            object.__setattr__(m, "_kept_local", kept)
    return kept


def _local_rule(mu: MeasureExpr, nu: MeasureExpr, x) -> float:
    """d(mu)/d(nu) at x through one local reference rho read from both roots.

    rho is counting measure if a Dirac of either side sits at x, or if a root
    part is of its class and either none is of Lebesgue class or a summand of
    counting class has mass at x (`_charges`); else Lebesgue measure if a
    root part is of its class or none is of no class; else the first by repr
    of the parts of no class.  The result is A - B, the log sums over each
    side's summands of d(summand)/d(rho) (`_terms`), so the two orders are
    exact negations.  If one side has no term, the primitive table answers:
    undefined if the other has an atom at x, is undefined or vanishes, +inf
    against Diracs elsewhere, else UnrelatedPrimitivesError naming both roots.
    """
    left, right = _local(mu, x), _local(nu, x)
    lebesgue = "lebesgue" in left.classes or "lebesgue" in right.classes
    if x in left.atoms or x in right.atoms or (
            ("counting" in left.classes or "counting" in right.classes)
            and (not lebesgue or _charges(mu, left, x) or _charges(nu, right, x))):
        rho = "counting"
    elif lebesgue or not (left.loose or right.loose):
        rho = "lebesgue"
    else:
        rho = min([mu if u is None else u for u in left.loose]
                  + [nu if u is None else u for u in right.loose], key=repr)
    if left.plain and right.plain:  # two sums of roots: their kept scales
        a, b = left.entries[0][1].get(rho), right.entries[0][1].get(rho)
        if a is not None and b is not None:
            return a - b
    # When both sides walk chains, each term's chain and its sums are noted.
    walked_a, walked_b = ([], []) if left.walks and right.walks else (None, None)
    a = _terms(mu, left, nu, right, rho, x, walked_a)
    b = _terms(nu, right, mu, left, rho, x, walked_b)
    if a and b:
        if walked_a is None:
            return _logsumexp(a) - _logsumexp(b)
        # Less the largest term, and less the data terms both sides share.
        top = max(max(a), max(b))
        top = top if math.isfinite(top) else 0.0
        return (_logsumexp(_shifted(mu, a, walked_a, nu, b, walked_b, top))
                - _logsumexp(_shifted(nu, b, walked_b, mu, a, walked_a, top)))
    if not (a or b):
        return math.nan  # neither side has mass of rho's class at x
    full, other, value, sign = (left, right, _logsumexp(a), 1.0) if a else (
        right, left, _logsumexp(b), -1.0)
    if x in full.atoms or not value > -math.inf:
        return math.nan  # undefined, or both sides vanish at x: wins over unrelated
    if other.atoms:
        return sign * (value + math.inf)
    raise _unrelated(mu, nu, x, rho)


def _charges(m, local, x) -> bool:
    """Whether a summand of m whose root has parts of counting class has mass
    at x: its data terms plus their log scale are not -inf."""
    for chain, scales, _, _ in local.entries:
        if "counting" in scales:
            data = 0.0
            for node in chain:
                data += (m if node is None else node).log_density_at(x)
            if data + scales["counting"] != -math.inf:
                return True
    return False


def _terms(m, local, other, other_local, rho, x, walked) -> list:
    """log d(summand)/d(rho) for each entry of m's record with mass of rho's
    class at x: its data terms down its chain, with the sum above each
    node, plus its root's log scale in the class; each term's chain,
    with those sums, goes to ``walked`` unless that is None.  An entry
    without such mass is skipped without a walk.  A part of no class counts
    by its rule against rho (`_loose`)."""
    terms = []
    for chain, scales, atoms, loose in local.entries:
        scale = scales.get(rho)
        if atoms and rho == "counting" and x in atoms:
            count = math.log(atoms.count(x))
            scale = count if scale is None else _logaddexp(scale, count)
        for u in loose:
            w = _loose(m if u is None else u, rho, m, local, other, other_local, x)
            scale = w if scale is None else _logaddexp(scale, w)
        if scale is None and (m.is_sum or not chain):
            continue
        data, above = 0.0, []
        for node in chain:
            above.append(data)
            data += (m if node is None else node).log_density_at(x)
        if scale is not None:
            data += scale
        else:
            # m whole, which a walk in the other order steps down to a sum or
            # its root first: data there that is undefined, or vanishes, ends
            # that walk, and so is its term here, with no data to share.
            for node, data_above in zip(chain, above):
                if node is not None and node.is_sum:
                    data = data_above
                    break
            if data == data and data != -math.inf:
                continue
            chain = ()
        terms.append(data)
        if walked is not None:
            walked.append((chain, above))
    return terms


def _shifted(m, terms, walked, other, others, others_walked, top: float) -> list:
    """Each term less top.  A term whose chain passes through the summand of
    a term t of the other side gives the data above that node plus (t - top),
    so the data terms the two sides share cancel exactly."""
    below = {id(other if chain[0] is None else chain[0]): t - top
             for t, (chain, _) in zip(others, others_walked) if chain}
    out = []
    for t, (chain, above) in zip(terms, walked):
        value = t - top
        for node, data in zip(chain, above):
            key = id(m if node is None else node)
            if key in below:
                value = data + below[key]
                break
        out.append(value)
    return out


def _loose(u: MeasureExpr, rho, m, local, other, other_local, x) -> float:
    """log d(u)/d(rho) for a root part u of m of no class, by the rule
    (`_rule`) between u and a part that is exp(scale) times rho: rho itself
    if it is no class, else the first part of class rho of m's roots, else
    of other's."""
    if u == rho:
        return 0.0
    part, scale = rho, 0.0
    if isinstance(rho, str):
        side, record = (m, local) if rho in local.classes else (other, other_local)
        if rho not in record.classes:
            raise _unrelated(m, other, x, rho)
        part, scale = record.classes[rho]
        part = side if part is None else part
    rule = _rule(u, part, x)
    if rule is None:
        raise UnrelatedPrimitivesError(f"unrelated measures at {x!r}: {u!r} against {part!r}")
    return rule[0] + scale


def _unrelated(mu: MeasureExpr, nu: MeasureExpr, x, rho) -> UnrelatedPrimitivesError:
    return UnrelatedPrimitivesError(f"unrelated measures at {x!r}: {root_measure(mu, x)!r} "
                                    f"against {root_measure(nu, x)!r}, local reference class {rho}")


def sample(m: MeasureExpr, seed: int):
    """Deterministic draw from a probability measure.

    The result is a pure function of (m, seed).  Raises NotProbabilityError
    for improper measures (unknown or non-unit total mass), and DepthError
    when m is nested too deeply to evaluate.
    """
    try:
        return m._sample(int(seed))
    except RecursionError:
        raise DepthError(_TOO_DEEP) from None


def _require_probability(m: MeasureExpr, lm: Optional[float]) -> None:
    """Raise NotProbabilityError unless the log total mass ``lm`` is 0."""
    if lm is None or not abs(lm) <= 1e-9:
        raise NotProbabilityError(f"not a probability measure: {m!r}")
