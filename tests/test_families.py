"""The contract of a catalog family: every form `catalog.Family` compiles from
its declaration gives the bits of a closed-form reference written here, and
no family class writes those forms by hand."""

import math
import os
import struct
import subprocess
import sys
import traceback
from pathlib import Path

import pytest

import measurekit as mk
from measurekit import COUNTING, LEBESGUE, Weighted, catalog
from measurekit.combinators import _COLUMNS_MIN
from measurekit.rng import RandomStream

BIG = 10**400
POINTS = [0, 0.0, 1, 1.0, 2, 3, 7, -1, -3, -0.5, 0.5, 2.5, 0.999, 1e-300, 1000, 1500, 10**6,
          BIG, -BIG, math.inf, -math.inf, math.nan]


def bits(v: float) -> bytes:
    return struct.pack("<d", v)


def as_float(x) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def count(x):
    """x as a float when it is a count within the float range, else None."""
    k = as_float(x)
    return k if 0.0 <= k < math.inf and k == math.floor(k) else None


def normal(x, mu, sigma):
    z = (as_float(x) - mu) / sigma
    return -0.5 * z * z


def exponential(x, rate):
    x = as_float(x)
    return -rate * x if x >= 0.0 else -math.inf


def uniform01(x):
    return 0.0 if 0.0 <= x <= 1.0 else -math.inf


def bernoulli(x, p):
    mass = {1: p, 0: 1.0 - p}.get(x)  # 1.0 and 0.0 look up as 1 and 0
    if not mass:
        return -math.inf
    return math.log(p) if x == 1 else math.log1p(-p)


def poisson(x, rate):
    k = count(x)
    if k is None:
        return -math.inf
    if k >= 1000.0:  # the saddle-point form, whose lgamma terms do not cancel
        return catalog._poisson_log_pmf(k, rate)
    return k * math.log(rate) - rate - math.lgamma(k + 1.0)


def negbinomial(x, r=None, p=None, alpha=None, beta=None):
    y = count(x)
    if y is None:
        return -math.inf
    if p is not None:
        log_p, log_q = math.log(p), math.log1p(-p)
    else:
        r, log_p, log_q = alpha, math.log(beta) - math.log1p(beta), -math.log1p(beta)
    if y > 0.0 and y + r >= 1000.0:  # as for Poisson
        return catalog._negbin_log_pmf(y, r, math.exp(log_p), math.exp(log_q))
    return catalog.log_binomial(y + r - 1.0, r - 1.0) + r * log_p + y * log_q


# (family, parameters by name, data term, log weight of the base or None, root)
CASES = [
    ("Normal", {"mu": 0.0, "sigma": 1.0}, normal, -0.5 * math.log(2.0 * math.pi), LEBESGUE),
    ("Normal", {"mu": 1.5, "sigma": 0.25}, normal,
     -math.log(0.25) - 0.5 * math.log(2.0 * math.pi), LEBESGUE),
    ("Exponential", {"rate": 1.5}, exponential, math.log(1.5), LEBESGUE),
    ("Exponential", {"rate": 1e-3}, exponential, math.log(1e-3), LEBESGUE),
    ("Uniform01", {}, uniform01, None, LEBESGUE),
    ("Bernoulli", {"p": 0.3}, bernoulli, None, COUNTING),
    ("Bernoulli", {"p": 0.0}, bernoulli, None, COUNTING),
    ("Bernoulli", {"p": 1.0}, bernoulli, None, COUNTING),
    ("Poisson", {"rate": 3.0}, poisson, None, COUNTING),
    ("Poisson", {"rate": 2000.0}, poisson, None, COUNTING),
    ("NegativeBinomial", {"r": 2.0, "p": 0.4}, negbinomial, None, COUNTING),
    ("NegativeBinomial", {"r": 0.5, "p": 0.9}, negbinomial, None, COUNTING),
    ("NegativeBinomial", {"alpha": 2.5, "beta": 0.7}, negbinomial, None, COUNTING),
]
IDS = [f"{name}{sorted(params.items())}" for name, params, *_ in CASES]


def test_every_family_with_a_data_term_has_a_case():
    declared = {name for name, family in catalog.FAMILIES.items() if family.data is not None}
    assert declared == {name for name, *_ in CASES}


@pytest.mark.parametrize("name, params, term, weight, root", CASES, ids=IDS)
def test_each_form_gives_the_reference_bits(name, params, term, weight, root):
    m = mk.make_simple(name, **params)
    for x in POINTS:
        assert bits(m.log_density_at(x)) == bits(term(x, **params)), x
    xs = POINTS + POINTS[::-1]
    want = 0.0
    for x in xs:
        want += term(x, **params)
    assert bits(mk.power(m, (len(xs),)).log_density_at(tuple(xs))) == bits(want)
    kernel = mk.make_kernel(name, **{n: f"const:{v!r}" for n, v in params.items()})
    assert len(xs) > _COLUMNS_MIN
    assert bits(mk.chain(kernel, m).log_density_at(tuple(xs))) == bits(want)
    family = catalog.FAMILIES[name]
    assert bits(family.columns(0.0, xs, *zip(*[family.args(m)] * len(xs)))) == bits(want)


@pytest.mark.parametrize("name, params, term, weight, root", CASES, ids=IDS)
def test_the_base_is_the_weighted_root(name, params, term, weight, root):
    m = mk.make_simple(name, **params)
    for x in (0.5, 3):
        base = m.base_at(x)
        if weight is None:
            assert base is root
        else:
            assert base == Weighted(weight, root) and bits(base.logweight) == bits(weight)


@pytest.mark.parametrize("name, params, term, weight, root", CASES, ids=IDS)
def test_a_member_draws_as_its_family_does(name, params, term, weight, root):
    m = mk.make_simple(name, **params)
    family = catalog.FAMILIES[name]
    for seed in (0, 1, 2**63 + 5):
        got = m._sample_normalized(seed)
        assert got == family.sample(RandomStream(seed), *family.args(m))
        assert type(got) is type(family.sample(RandomStream(seed), *family.args(m)))


COMPILED = ("__post_init__", "log_density_at", "base_at", "_sample_normalized", "_data_block")


@pytest.mark.parametrize("name", sorted(n for n, f in catalog.FAMILIES.items() if f.data))
def test_no_family_class_writes_a_compiled_method(name):
    cls = catalog.FAMILIES[name].cls
    for method in COMPILED:
        fn = vars(cls).get(method)
        if fn is not None:
            assert fn.__code__.co_filename == f"<family {name}>", method
    assert "log_density_at" in vars(cls) and "base_at" in vars(cls)
    assert cls._data_block.__code__.co_filename == f"<family {name}>"


def test_each_family_compiles_one_source():
    # In a fresh interpreter: the cache after the import and nothing else.
    script = """
import linecache, measurekit
names = [name for name in linecache.cache if name.startswith(("<family ", "<lanes "))]
print("\\n".join(sorted(names)))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    compiled = result.stdout.splitlines()
    assert compiled == sorted(f"<family {n}>" for n, f in catalog.FAMILIES.items() if f.data)


@pytest.mark.parametrize("name", sorted(catalog.FAMILIES))
def test_no_form_without_a_caller(name):
    family = catalog.FAMILIES[name]
    assert not hasattr(family.cls, "_block") and not hasattr(catalog._Law, "_block")
    assert not hasattr(family, "column")
    if family.lanes is not None:
        lanes = vars(family.lanes).values()
        assert all(f.__code__.co_filename == f"<family {name}>" for f in lanes if callable(f))
        assert family.sample.__code__.co_filename == f"<family {name}>"


def test_a_traceback_shows_the_compiled_lines():
    try:
        mk.Exponential(1.0).log_density_at("a")
    except TypeError:
        text = "".join(traceback.format_exception(*sys.exc_info()))
    assert 'File "<family Exponential>"' in text
    assert "return -rate * x if x >= 0.0 else -math.inf" in text
    walk = mk.chain(mk.make_kernel("Normal", mu="identity", sigma="const:-1.0"), mk.Normal())
    try:
        list(zip(range(2), mk.sample_chain(walk, 3)))
    except ValueError:
        text = "".join(traceback.format_exception(*sys.exc_info()))
    assert 'File "<family Normal>"' in text and "(mu, sigma,) = params(state)" in text
    assert 'raise ValueError(f"Normal requires finite sigma > 0, got {sigma}")' in text
