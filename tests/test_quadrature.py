"""Nested-grid quadrature: each node evaluated once, the same bits.

`verify.adaptive_simpson` keeps each grid's node values and evaluates only
the next grid's midpoints.  The reference below is the quadrature that
evaluated every grid whole (`composite`): every estimate, and so every
returned value, must agree bit for bit, the new function must evaluate
exactly the reference's distinct nodes, in its order, once each, and an
error raised at a node must be the reference's first.
"""

import math
import random
import struct

import pytest

import measurekit as mk
from measurekit import verify
from measurekit.verify import Interval, IntegerRange, ProductRegion


def reference_simpson(f, a, b, tol):
    """`adaptive_simpson` as it was, evaluating every grid whole."""

    def composite(n: int) -> float:
        h = (b - a) / n
        s = f(a) + f(b)
        for i in range(1, n):
            s += (4.0 if i % 2 else 2.0) * f(a + i * h)
        return s * h / 3.0

    n = 8
    prev = composite(n)
    for _ in range(verify._MAX_DEPTH):
        n *= 2
        cur = composite(n)
        if abs(cur - prev) / 15.0 <= tol:
            return cur
        prev = cur
    return cur


def _bits(value):
    return struct.pack("<d", value)


class Recorded:
    """An integrand that records the points it is called at, and raises at
    the points in ``bad``."""

    def __init__(self, g, bad=()):
        self.g, self.bad, self.calls = g, set(bad), []

    def __call__(self, x):
        self.calls.append(x)
        if x in self.bad:
            raise ValueError(f"bad node {x!r}")
        return self.g(x)


def _expected_order(reference_calls):
    """The reference's calls, whole grids of 9, 17, 33, ... points (a, b,
    then the interior), cut to the nodes a nested grid adds: all of the
    first grid, then the odd interior nodes of each later one."""
    order, start, n = [], 0, 8
    while start < len(reference_calls):
        grid = reference_calls[start:start + n + 1]
        order.extend(grid if start == 0 else grid[2::2])  # grid[i + 1] is node i
        start += n + 1
        n *= 2
    return order


def _step(c):
    return lambda x: 1.0 if x < c else 0.0


INTEGRANDS = {
    "square": lambda c: lambda x: x * x,
    "sin": lambda c: math.sin,
    "gauss": lambda c: lambda x: math.exp(-c * x * x),
    "abs15": lambda c: lambda x: abs(x - c) ** 1.5,
    "step": _step,
}


def _cases(count, seed):
    rnd = random.Random(seed)
    for k in range(count):
        name = sorted(INTEGRANDS)[k % len(INTEGRANDS)]
        width = 10.0 ** rnd.uniform(-6.0, 5.0)
        a = rnd.uniform(-2.0, 2.0) * max(width, 1.0)
        c = a + rnd.uniform(0.0, 1.0) * width if name in ("abs15", "step") else rnd.uniform(0.1, 3.0)
        tol = 10.0 ** rnd.uniform(-12.0, -3.0)
        yield name, c, a, a + width, tol


@pytest.fixture
def shallow(monkeypatch):
    """A 2**11-panel cap, so the integrands that never converge (a step, a
    kink at small tolerances) reach the cap quickly, in both functions."""
    monkeypatch.setattr(verify, "_MAX_DEPTH", 8)


@pytest.mark.parametrize("case", list(_cases(300, 19)), ids=lambda c: f"{c[0]}-{c[2]:.3g}-{c[3]:.3g}")
def test_values_and_nodes_match_the_reference(shallow, case):
    name, c, a, b, tol = case
    ref = Recorded(INTEGRANDS[name](c))
    new = Recorded(INTEGRANDS[name](c))
    want = reference_simpson(ref, a, b, tol)
    assert _bits(verify.adaptive_simpson(new, a, b, tol)) == _bits(want)
    assert new.calls == _expected_order(ref.calls)
    assert set(new.calls) == set(ref.calls)
    assert len(new.calls) == len(set(new.calls))


def test_a_subnormal_width_matches_the_reference():
    # Halving a subnormal width rounds, so the grids share no nodes.
    for b in (5e-321, 1e-318, 3.3e-310):
        ref, new = Recorded(lambda x: 1.0), Recorded(lambda x: 1.0)
        want = reference_simpson(ref, 0.0, b, 1e-330)
        assert _bits(verify.adaptive_simpson(new, 0.0, b, 1e-330)) == _bits(want)
        assert set(new.calls) == set(ref.calls)


@pytest.mark.parametrize("pick", [3, 8, 9, 15, 30, 80, 128])
def test_an_error_comes_from_the_reference_node(pick):
    # Picks 3 and 8 are nodes of the first grid, the others of later ones.
    g = INTEGRANDS["gauss"](1.3)
    nodes = Recorded(g)
    reference_simpson(nodes, -4.0, 4.0, 1e-12)
    bad = _expected_order(nodes.calls)[pick]
    ref, new = Recorded(g, {bad}), Recorded(g, {bad})
    with pytest.raises(ValueError) as want:
        reference_simpson(ref, -4.0, 4.0, 1e-12)
    with pytest.raises(ValueError) as got:
        verify.adaptive_simpson(new, -4.0, 4.0, 1e-12)
    assert str(got.value) == str(want.value) == f"bad node {bad!r}"
    assert new.calls == _expected_order(ref.calls)[:pick + 1]


def _product_measure():
    return mk.product(mk.Normal(0.2, 1.1), mk.Exponential(1.5))


def _masses():
    tau, sigma, data = 1.7, 1.3, (0.4, -0.2, 1.1, 0.8)
    posterior = mk.pointwise_product(
        mk.Normal(0.0, tau),
        mk.Likelihood(lambda p: mk.power(mk.Normal(p, sigma), (len(data),)), data))
    parts = [(-1.2, -2.0, 0.7), (-0.9, 0.5, 1.4), (-1.6, 2.5, 0.6), (-1.5, 4.0, 1.9)]
    mixture = mk.superpose(*(mk.scale(lw, mk.Normal(mu, s)) for lw, mu, s in parts))
    pushed = mk.pushforward(mk.forward_map(2.5, -1.0), mk.Normal(0.3, 0.8))
    return [
        (posterior, Interval(-6.0, 6.0), 1e-10),
        (mixture, Interval(-12.0, 16.0), 1e-8),
        (pushed, Interval(-26.0, 24.0), 1e-8),
        (mk.Exponential(1.5), Interval(0.0, 30.0), 1e-8),
        (_product_measure(), ProductRegion((Interval(-8.0, 8.0), Interval(0.0, 20.0))), 1e-5),
        (mk.product(mk.Normal(0.2, 1.1), mk.Poisson(2.5)),
         ProductRegion((Interval(-8.0, 8.0), IntegerRange(0, 30))), 1e-6),
    ]


@pytest.mark.parametrize("k", range(len(_masses())))
def test_mass_matches_the_reference(k, monkeypatch):
    mu, region, tol = _masses()[k]
    calls = []
    log_density = mk.core.log_density

    def counted(*args, **kwargs):
        calls.append(args[1])
        return log_density(*args, **kwargs)

    monkeypatch.setattr(mk.core, "log_density", counted)
    got = verify.mass(mu, region, tol)
    new = len(calls)
    monkeypatch.setattr(verify, "adaptive_simpson", reference_simpson)
    assert _bits(got) == _bits(verify.mass(mu, region, tol))
    if k == 4:  # the 2-D ProductRegion: each inner quadrature's nodes once
        assert len(set(calls[:new])) == new and 2 * new < len(calls) - new
