"""Walk plans: a memoised walk gives exactly what the reference walk gives.

`core._log_density` walks a pair of static-base measures once, keeps the
walk's plan on the source node, and at later points re-runs only the plan's
data terms and the rule that ended the walk.  The reference is the plain walk,
`core._recurse`, with no plan used anywhere (nested walks included): each
value must agree bit for bit, each error in type and message, and each call
must evaluate the same number of `Weighted` terms.
"""

import contextlib
import dataclasses
import gc
import math
import random
import struct
import sys
import weakref

import pytest

import measurekit as mk
from measurekit import COUNTING, LEBESGUE, cli, combinators, core


def _reference_log_density(m, x, wrt=None):
    if not m.self_checking:
        m.check_point(x)
    if wrt is None:
        return m.log_density_at(x)
    if not wrt.self_checking:
        wrt.check_point(x)
    return core._recurse(m, wrt, x)


@contextlib.contextmanager
def _reference():
    """Inside the block every density, nested ones included, walks afresh."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_log_density", _reference_log_density)
        patch.setattr(combinators, "_log_density", _reference_log_density)
        yield


def _outcome(mu, x, nu):
    """Bits of the density (or the error's type and message), and the
    number of `Weighted` terms the call evaluated."""
    mk.reset_weight_evaluations()
    try:
        value = core._log_density(mu, x, nu)
    except Exception as exc:  # the reference's errors must repeat exactly
        return type(exc), str(exc), mk.weight_evaluations()
    return struct.pack("<d", value), mk.weight_evaluations()


def _has_plan(mu, nu):
    return any(target is nu and plan is not None for target, plan in mu._plans)


# -- the corpus --------------------------------------------------------------

def _scalar_points(rnd, n=210):
    # Atoms, support edges, points outside every support, and points whose
    # data terms are NaN (nan itself) or infinite.
    special = [0.0, -0.0, 1, 2, 0.5, 1.0, 0, 3, -1, -2.5, 1.5, 7, 25,
               math.nan, math.inf, -math.inf, 1e300, -1e-300, 10**400]
    points = [1] + special
    while len(points) < n:
        if rnd.random() < 0.5:
            points.append(rnd.gauss(0.0, 3.0))
        else:
            points.append(rnd.randrange(-3, 16))
    return points


def _pair_points(rnd, n=210):
    pool = _scalar_points(rnd)
    points = [(1, 1), (0.0, 0.0), (0.0, 1), (math.nan, 0.5), (2, -1.0), (math.inf, 0)]
    while len(points) < n:
        points.append((rnd.choice(pool), rnd.choice(pool)))
    return points


def _lik_kernel(p):
    return mk.Normal(p, 1.0)


def _scalar_sources():
    rnd = random.Random(64)
    normals = [mk.scale(-math.log(64), mk.Normal(rnd.uniform(-3, 3), rnd.uniform(0.3, 2)))
               for _ in range(64)]
    return [
        mk.Normal(0.3, 1.7),
        mk.Uniform01(),
        mk.Exponential(2.0),
        mk.Bernoulli(0.3),
        mk.Poisson(3.5),
        mk.make_negbinomial(r=2.5, p=0.4),
        mk.make_negbinomial(alpha=2.5, beta=0.7),
        mk.Dirac(0.0),
        mk.Dirac(2),
        mk.scale(-0.7, mk.Normal()),
        mk.scale(0.4, mk.Poisson(2.0)),
        mk.superpose(mk.Normal(-1.0, 1.0), mk.Normal(1.0, 0.5)),
        mk.superpose(mk.Normal(), mk.Exponential(1.5), mk.scale(-1.0, mk.Uniform01())),
        mk.superpose(*normals),
        mk.superpose(mk.scale(math.log(0.3), mk.Dirac(0.0)),
                     mk.scale(math.log(0.7), mk.Normal(0.2, 1.3))),
        mk.superpose(mk.scale(math.log(0.4), mk.Dirac(1)),
                     mk.scale(math.log(0.6), mk.Poisson(3.0))),
        mk.pushforward(mk.forward_map(2.0, -0.5), mk.Normal(0.1, 0.8)),
        mk.pushforward(mk.inverse_map(1.5, 0.25), mk.Exponential(1.0)),
        mk.pointwise_product(mk.Normal(0.0, 2.0), mk.Likelihood(_lik_kernel, 0.4)),
        mk.integrate(lambda x: 1.0 + x * x if x == x else math.nan, LEBESGUE),
        mk.integrate_exp(lambda x: math.nan if x < -2 else -abs(x), LEBESGUE),
        mk.integrate_exp(lambda k: -0.5 * k, COUNTING),
    ]


def _pair_sources():
    tri = ((1.5, 0.0), (-0.4, 0.7))
    return [
        mk.product(mk.Normal(), mk.Exponential(1.0)),
        mk.product(mk.Poisson(2.0), mk.Bernoulli(0.6)),
        mk.product(mk.Dirac(0.0), mk.Normal(0.5, 2.0)),
        mk.power(mk.Normal(0.1, 2.0), (2,)),
        mk.power(mk.Poisson(2.0), (2,)),
        mk.pushforward(mk.forward_map(tri, (0.3, -0.2)), mk.power(mk.Normal(), (2,))),
        mk.pushforward(mk.inverse_map(tri, (0.1, 0.0)), mk.product(mk.Normal(), mk.Normal(1.0))),
        mk.for_product((0, 1), mk.make_kernel("Normal", mu="affine:0.5:-0.2", sigma="const:1.3")),
        mk.for_product((1, 3), mk.make_kernel("Poisson", rate="affine:1.5:0.5")),
    ]


_SCALAR_TARGETS = (LEBESGUE, COUNTING)
_PAIR_TARGETS = (
    mk.power(LEBESGUE, (2,)),
    mk.product(LEBESGUE, LEBESGUE),
    mk.power(COUNTING, (2,)),
    mk.product(COUNTING, COUNTING),
    mk.product(LEBESGUE, COUNTING),
)


def _pairs(sources, targets, x0):
    """Each source against each target and its own base, both ways round."""
    out = []
    for m in sources:
        for t in targets + (mk.base_measure(m, x0),):
            for pair in ((m, t), (t, m)):
                if not any(p[0] is pair[0] and p[1] is pair[1] for p in out):
                    out.append(pair)
    return out


def _check_pairs(pairs, points, static=True):
    """Compare each pair at every point; return how many pairs kept a plan.

    With ``static`` every node the walks reach has a static base."""
    with _reference():
        expected = [[_outcome(mu, x, nu) for x in points] for mu, nu in pairs]
    replayed = 0
    for (mu, nu), want in zip(pairs, expected):
        assert not _has_plan(mu, nu)
        # The first call notes nu, the second records, the later ones replay.
        for i, x in enumerate(points):
            got = _outcome(mu, x, nu)
            assert got == want[i], (mu, nu, x, got, want[i])
        # A walk ended by a rule that raised (a factor against an unrelated
        # reference, say) keeps no plan.
        if static and mu.static_base and nu.static_base and len(want[0]) == 2:
            assert _has_plan(mu, nu), (mu, nu)
        replayed += _has_plan(mu, nu)
    return replayed


def test_scalar_pairs_replay_the_reference_walk():
    sources = _scalar_sources()
    pairs = _pairs(sources, _SCALAR_TARGETS, 1)
    # Pairs of catalog measures on one reference, where both data terms can
    # be -inf at once (Uniform01 against Exponential at -1, say).
    for a in sources[:7]:
        for b in sources[:7]:
            if a is not b:
                pairs.append((a, b))
    # The 64-component mixture's base against the mixture costs K^2 walks
    # per point; that direction is covered at K = 2 and 3.
    wide = sources[13]
    pairs.remove((mk.base_measure(wide, 1), wide))
    replayed = _check_pairs(pairs, _scalar_points(random.Random(1)))
    assert replayed >= 0.6 * len(pairs)


def test_pair_points_replay_the_reference_walk():
    pairs = _pairs(_pair_sources(), _PAIR_TARGETS, (1, 1))
    replayed = _check_pairs(pairs, _pair_points(random.Random(2)))
    assert replayed >= 0.6 * len(pairs)


def test_point_dependent_bases_take_no_plan():
    def step(x):
        return mk.Poisson(1.0 + abs(x))

    c = mk.chain(step, mk.Poisson(2.0))
    b = mk.bind(mk.Bernoulli(0.5), lambda a: mk.Normal() if a == 1 else mk.Poisson(2.0))
    rnd = random.Random(3)
    prefixes = [tuple(rnd.randrange(0, 6) for _ in range(5)) for _ in range(20)]
    pairs = [(c, mk.power(COUNTING, (5,))), (mk.power(COUNTING, (5,)), c)]
    _check_pairs(pairs, prefixes)
    pairs = [(b, mk.product(COUNTING, COUNTING)), (b, mk.product(COUNTING, LEBESGUE))]
    _check_pairs(pairs, [(1, 0.5), (0, 2), (1, 3), (0, 0.5)])
    assert c._plans == () and b._plans == ()


def test_static_wrappers_of_point_dependent_bases_take_no_plan():
    # `Weighted` and `IntegralMeasure` have a static base, but the chain or
    # bind under them does not: each point gives that node its own base.
    c = mk.chain(lambda p: mk.Normal(p, 1.0 + abs(p)), mk.Normal())
    b = mk.bind(mk.Normal(), lambda a: mk.Normal(a, 1.0 + abs(a)))
    n = 3
    scaled = mk.scale(0.3, c)
    over = mk.integrate_exp(lambda xs: -0.1 * sum(xs), c)
    mixed = mk.superpose(mk.scale(math.log(0.4), c),
                         mk.scale(math.log(0.6), mk.chain(lambda p: mk.Normal(-p, 2.0), mk.Normal(1.0))))
    rnd = random.Random(6)
    triples = [tuple(rnd.gauss(0.0, 3.0) for _ in range(n)) for _ in range(200)]
    line = mk.power(LEBESGUE, (n,))
    _check_pairs([(scaled, line), (line, scaled), (over, line), (mixed, line)], triples, False)
    assert not _has_plan(scaled, line) and not _has_plan(over, line)
    # The mixture's own walk ends in its rule, which it re-runs at each point.
    mixed = mk.superpose(mk.scale(math.log(0.4), mk.power(mk.Normal(), (n,))),
                         mk.scale(math.log(0.6), mk.power(mk.Normal(1.0, 2.0), (n,))))
    _check_pairs([(mixed, line)], triples)
    assert _has_plan(mixed, line)

    pairs = [(mk.scale(0.2, b), mk.product(LEBESGUE, LEBESGUE)),
             (mk.product(LEBESGUE, LEBESGUE), mk.scale(-0.5, b))]
    _check_pairs(pairs, [(rnd.gauss(0.0, 3.0), rnd.gauss(0.0, 3.0)) for _ in range(200)], False)
    assert not _has_plan(*pairs[0]) and not _has_plan(*pairs[1])


def test_alternating_targets_keep_their_plans():
    spike = _scalar_sources()[14]
    targets = [COUNTING, LEBESGUE] * 60
    points = _scalar_points(random.Random(4), n=len(targets))
    with _reference():
        expected = [_outcome(spike, x, t) for x, t in zip(points, targets)]
    assert [_outcome(spike, x, t) for x, t in zip(points, targets)] == expected
    assert [t for t, _ in spike._plans] == [LEBESGUE, COUNTING]

    # More targets than the memo holds: plans are evicted, values still agree.
    many = [LEBESGUE, COUNTING, mk.scale(0.5, LEBESGUE), mk.scale(-1.0, COUNTING),
            mk.base_measure(spike, 1.0), mk.Normal(), mk.Poisson(2.0)]
    targets = many * 30
    points = _scalar_points(random.Random(5), n=len(targets))
    with _reference():
        expected = [_outcome(spike, x, t) for x, t in zip(points, targets)]
    assert [_outcome(spike, x, t) for x, t in zip(points, targets)] == expected
    assert len(spike._plans) == core._PLAN_SLOTS


def test_a_pair_met_once_records_no_plan():
    # Nodes built per call meet their target once; more targets in turn than
    # the memo holds never meet one twice while it is held.
    m = mk.scale(-0.2, mk.Normal(0.3, 1.2))
    assert core._log_density(m, 0.5, LEBESGUE) == _reference_log_density(m, 0.5, LEBESGUE)
    assert m._plans == ((LEBESGUE, None),)
    targets = [mk.Normal(0.1 * i, 1.0 + 0.1 * i) for i in range(core._PLAN_SLOTS + 1)]
    for x in _scalar_points(random.Random(7), n=20):
        for t in targets:
            with _reference():
                want = _outcome(m, x, t)
            assert _outcome(m, x, t) == want
    assert len(m._plans) == core._PLAN_SLOTS
    assert all(plan is None for _, plan in m._plans)


def test_memo_is_invisible_to_equality_hash_repr_and_documents():
    fresh = _scalar_sources() + _pair_sources()
    scalar, pair = _scalar_sources(), _pair_sources()
    for sources, x, targets in ((scalar, 1, _SCALAR_TARGETS), (pair, (1, 1), _PAIR_TARGETS)):
        for m in sources:
            for t in targets + (mk.base_measure(m, x),):
                for _ in range(2):
                    try:
                        core._log_density(m, x, t)
                    except mk.MeasureError:
                        pass
            assert m._plans
    used = scalar + pair
    for m, f in zip(used, fresh):
        kept = {"_plans", "_kept_base", "_kept_local"}
        assert kept.isdisjoint(field.name for field in dataclasses.fields(m))
        if isinstance(m, mk.Superposition):  # the memos are in use, yet no field
            assert m._kept_base is not None and m._kept_local is not None
        if not isinstance(m, mk.IntegralMeasure):  # compared by identity
            assert m == f and hash(m) == hash(f)
        if isinstance(m, (mk.IntegralMeasure, mk.PointwiseProduct)):
            continue  # their functions print by address and have no document
        assert repr(m) == repr(f)
        assert cli.print_expr(m) == cli.print_expr(f)


def _frame_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_plans_add_no_stack_depth():
    depths = []

    def log_fn(x):
        depths.append(_frame_depth())
        return -x * x

    for wrap in (lambda leaf: leaf, lambda leaf: mk.superpose(leaf, mk.Normal())):
        m = wrap(mk.integrate_exp(log_fn, LEBESGUE))
        depths.clear()
        with _reference():
            core._log_density(m, 0.5, LEBESGUE)
        core._log_density(m, 0.5, LEBESGUE)  # notes the target
        core._log_density(m, 0.5, LEBESGUE)  # records
        core._log_density(m, 0.5, LEBESGUE)  # replays
        walked, noted, recorded, replayed = depths
        assert noted == recorded == walked
        assert replayed <= walked


def test_plans_hold_no_reference_cycle():
    # A plan kept on a node must not refer back to it: nodes built per call
    # would otherwise wait for the cycle collector.
    spike = _scalar_sources()[14]
    cases = [(lambda: mk.Normal(0.3, 1.2), LEBESGUE, 0.5),  # meeting
             (lambda: mk.superpose(*spike.components), LEBESGUE, 0.5),  # rule
             (lambda: mk.Dirac(0.0), LEBESGUE, 0.0)]  # fixed-point rule
    enabled = gc.isenabled()
    gc.disable()
    try:
        for make, target, x in cases:
            m = make()
            core._log_density(m, x, target)
            core._log_density(m, x, target)
            assert _has_plan(m, target)
            ref = weakref.ref(m)
            del m
            assert ref() is None
    finally:
        if enabled:
            gc.enable()
