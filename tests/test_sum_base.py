"""A sum and its own base relate through one rule, read in both orders.

A walk that reaches a sum ends by the local rule of the two measures
(`core._local_rule`): one local reference, read from both sides' roots, and
the difference of the two sides' log sums of their summands' terms.  So
d(base)/d(sum) is the exact negation of d(sum)/d(base), and the base against
a wide sum costs at most a nested walk per component, not one per pair of
components.
"""

import math
import random

import measurekit as mk
from measurekit import LEBESGUE, combinators, core


def _mixtures():
    rnd = random.Random(10)
    out = []
    for k in (2, 3, 8):
        params = [(rnd.uniform(-3.0, 3.0), rnd.uniform(0.3, 2.0)) for _ in range(k)]
        out.append(mk.superpose(*[mk.Normal(mu, sigma) for mu, sigma in params]))
        weights = [rnd.random() for _ in range(k)]
        total = sum(weights)
        out.append(mk.superpose(*[mk.scale(math.log(w / total), mk.Normal(mu, sigma))
                                  for w, (mu, sigma) in zip(weights, params)]))
    out.append(mk.superpose(mk.scale(math.log(0.3), mk.Dirac(0.0)),
                            mk.scale(math.log(0.7), mk.Normal(0.2, 1.3))))
    out.append(mk.superpose(mk.scale(math.log(0.4), mk.Dirac(1)),
                            mk.scale(math.log(0.6), mk.Poisson(3.0))))
    return out


def _points():
    rnd = random.Random(11)
    points = [0.0, -0.0, 0, 1, 1.0, 2, 0.2, -3.0, 7, 25, math.inf, -math.inf, math.nan]
    while len(points) < 120:
        points.append(rnd.gauss(0.0, 3.0) if rnd.random() < 0.5 else rnd.randrange(-3, 16))
    return points


def _outcome(mu, x, nu):
    try:
        return mk.log_density(mu, x, wrt=nu)
    except mk.MeasureError as exc:
        return type(exc)


def test_a_sum_against_its_base_is_the_negation_of_the_reverse():
    points = _points()
    for m in _mixtures():
        base = mk.base_measure(m, 1)
        assert isinstance(base, mk.Superposition)
        for x in points:
            forward, backward = _outcome(m, x, base), _outcome(base, x, m)
            if isinstance(forward, type):
                assert backward is forward, (m, x)
            else:
                # LogWeight equality: undefined matches undefined only.
                assert backward == -forward, (m, x, forward, backward)
                assert forward.is_undefined == backward.is_undefined


def test_the_base_against_a_wide_sum_takes_linear_nested_walks(monkeypatch):
    k = 64
    rnd = random.Random(64)
    m = mk.superpose(*[mk.scale(-math.log(k), mk.Normal(rnd.uniform(-3, 3), rnd.uniform(0.3, 2)))
                       for _ in range(k)])
    base = mk.base_measure(m, 0.5)
    calls = []
    inner = core._log_density

    def counted(mu, x, wrt=None):
        calls.append(wrt)
        return inner(mu, x, wrt)

    monkeypatch.setattr(combinators, "_log_density", counted)
    value = mk.log_density(base, 0.5, wrt=m)
    assert len(calls) <= 2 * k
    assert value == -mk.log_density(m, 0.5, wrt=base)
    # Against Lebesgue measure the sum reads each component's chain down to
    # its root itself: no nested walk.
    calls.clear()
    assert mk.log_density(m, 0.5, wrt=LEBESGUE).is_finite
    assert calls == []
