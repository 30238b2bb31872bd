"""Calls that must end, and end in a documented way: Poisson draws at rates
near the top of the float range, quadrature at a tiny or invalid tolerance
or over non-finite bounds, densities beyond the float range, and a negative
sample count on the command line."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import measurekit as mk
from measurekit import verify
from measurekit.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("rate", [1e160, 1e300])
def test_poisson_draws_at_huge_rates_never_raise(rate):
    sd = math.sqrt(rate)
    for seed in range(400):
        k = mk.sample(mk.Poisson(rate), seed)
        assert type(k) is int and abs(k - rate) < 10.0 * sd, seed


def test_negative_binomial_draws_at_a_huge_r_never_raise():
    for seed in range(100):
        assert type(mk.sample(mk.make_negbinomial(r=1e300, p=0.5), seed)) is int


def test_cli_samples_a_huge_poisson_rate(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"Poisson": {"rate": 1e300}}))
    code, out, err = _run(capsys, ["sample", "--expr", str(path), "-n", "50", "--seed", "3"])
    assert code == 0, err
    assert len(out.splitlines()) == 50


def _python(args, timeout=60):
    """Run Python on ``args`` in a subprocess, so that a call that never
    returns fails the test."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env={**os.environ, "PYTHONPATH": SRC})


def test_mass_rejects_an_invalid_tolerance():
    script = """
import math, measurekit as mk
from measurekit import verify
for tol in (0.0, -1.0, math.nan, math.inf, -math.inf):
    for region in (verify.Interval(-1.0, 1.0), verify.IntegerRange(0, 5)):
        try:
            verify.mass(mk.Normal(), region, tol)
        except ValueError as exc:
            assert str(exc).startswith("mass tolerance must be finite and > 0"), exc
        else:
            raise AssertionError(tol)
"""
    result = _python(["-c", script])
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_cli_check_rejects_an_invalid_tolerance(tmp_path, tol):
    path = tmp_path / "n.json"
    path.write_text(json.dumps({"Normal": {}}))
    result = _python(["-m", "measurekit", "check", "--expr", str(path), "--lo", "-1", "--hi", "1",
                      "--tol", tol])
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr.startswith("error: mass tolerance must be finite and > 0")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("mu", [mk.Normal(), mk.Poisson(3.0)], ids=["lebesgue", "counting"])
@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, math.inf), (-math.inf, 0.0),
                                  (-1e308, 1e308), (0, 10**400), (-10**400, 0), (math.nan, 1.0)],
                         ids=["0,inf", "-inf,inf", "-inf,0", "-1e308,1e308", "0,10**400",
                              "-10**400,0", "nan,1"])
def test_mass_rejects_a_non_finite_interval(mu, a, b):
    with pytest.raises(ValueError, match="Interval needs finite a < b with b - a finite"):
        verify.mass(mu, verify.Interval(a, b))


def test_an_interval_within_the_float_range_is_kept():
    assert verify.Interval(-1e307, 1e307).b == 1e307
    wide = verify.Interval(0, 10**300)  # an int within the float range
    assert wide.b == 10**300 and type(wide.b) is int


@pytest.mark.parametrize("doc", [{"Normal": {}}, {"Poisson": {"rate": 3.0}}],
                         ids=["lebesgue", "counting"])
@pytest.mark.parametrize("lo, hi", [("0", "inf"), ("-inf", "inf"), ("-inf", "0"), ("nan", "1"),
                                    ("0", "1e400")])
def test_cli_check_rejects_a_non_finite_bound(tmp_path, doc, lo, hi):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    result = _python(["-m", "measurekit", "check", "--expr", str(path), f"--lo={lo}", f"--hi={hi}"])
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr.startswith("error: --lo and --hi must be finite")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("lo, hi", [(0, math.inf), (0.5, 3), (0, 2.5), (0, 3.0), (True, 3),
                                    (3, 2)])
def test_an_integer_range_needs_int_bounds_in_order(lo, hi):
    with pytest.raises(ValueError, match=r"IntegerRange needs (int bounds|lo <= hi)"):
        verify.IntegerRange(lo, hi)


def test_mass_refuses_a_range_past_the_node_cap_before_any_density():
    # The density is infinite at 0, the first term: a range within the cap
    # reaches it, one integer more is refused first.
    heavy = mk.scale(750.0, mk.Poisson(3.0))
    with pytest.raises(mk.MeasureError, match="infinite density .* at 0$"):
        verify.mass(heavy, verify.IntegerRange(0, 2**20))
    refused = r"mass sums at most 1048577 integers, got \[{}, {}\]$"
    with pytest.raises(ValueError, match=refused.format(-1, 2**20)):
        verify.mass(heavy, verify.IntegerRange(-1, 2**20))
    with pytest.raises(ValueError, match=refused.format(0, 10**7)):
        verify.mass(heavy, verify.IntegerRange(0, 10**7))
    with pytest.raises(ValueError, match=refused.format(0, 10**12)):
        verify.mass(mk.product(mk.Normal(), heavy),
                    verify.ProductRegion((verify.Interval(-1.0, 1.0), verify.IntegerRange(0, 10**12))))


def test_mass_refuses_product_ranges_past_the_node_cap_before_any_density():
    # The density is infinite at the first point: ranges within the cap
    # together reach it; a product region past it is refused first, also
    # with an interval or a nested product among its regions.
    script = """
import measurekit as mk
from measurekit import verify
from measurekit.verify import Interval, IntegerRange, ProductRegion
heavy = mk.scale(750.0, mk.Poisson(3.0))
try:
    verify.mass(mk.product(heavy, heavy), ProductRegion((IntegerRange(0, 1023),) * 2))
except mk.MeasureError as e:
    print(e)
for m, region in [
        (mk.product(heavy, heavy), ProductRegion((IntegerRange(0, 1024),) * 2)),
        (mk.product(heavy, heavy), ProductRegion((IntegerRange(0, 2),) * 2)),
        (mk.Product((mk.Normal(), heavy, heavy)),
         ProductRegion((Interval(-1, 1), IntegerRange(0, 1024), IntegerRange(-1024, 0)))),
        (mk.product(heavy, mk.product(heavy, heavy)),
         ProductRegion((IntegerRange(0, 1), ProductRegion((IntegerRange(0, 1023),) * 2)))),
        (mk.product(heavy, heavy), ProductRegion((IntegerRange(0, 10**9),) * 2))]:
    try:
        verify.mass(m, region)
    except ValueError as e:
        print(str(e).split(" in ")[0])
    except mk.MeasureError as e:
        print(e)
"""
    result = _python(["-c", script], timeout=10)
    assert result.returncode == 0, result.stderr
    infinite = r"infinite density of .* at \(0, 0\)$"
    lines = result.stdout.splitlines()
    assert len(lines) == 6
    assert re.match(infinite, lines[0]) and re.match(infinite, lines[2])
    assert lines[1] == "mass sums at most 1048577 integer points, got 1050625"
    assert lines[3] == "mass sums at most 1048577 integer points, got 1050625"
    assert lines[4] == "mass sums at most 1048577 integer points, got 2097152"
    assert lines[5] == "mass sums at most 1048577 integers, got [0, 1000000000]"


@pytest.mark.parametrize("lo, hi, message", [
    ("0", "1e9", "error: mass sums at most 1048577 integers, got [0, 1000000000]"),
    ("0", "1e12", "error: mass sums at most 1048577 integers, got [0, 1000000000000]"),
    ("0.5", "0.7", "error: --lo 0.5 and --hi 0.7 hold no integer"),
])
def test_cli_check_refuses_a_range_it_cannot_sum_promptly(tmp_path, lo, hi, message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"Poisson": {"rate": 3.0}}))
    result = _python(["-m", "measurekit", "check", "--expr", str(path), "--lo", lo, "--hi", hi],
                     timeout=10)
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr == message + "\n"


def test_mass_at_a_tiny_tolerance_ends():
    script = ("import measurekit as mk; from measurekit import verify; "
              "print(verify.mass(mk.Normal(), verify.Interval(-1.0, 1.0), 1e-17))")
    result = _python(["-c", script])
    assert result.returncode == 0, result.stderr
    assert abs(float(result.stdout) - math.erf(1.0 / math.sqrt(2.0))) < 1e-14


def test_quadrature_stops_at_its_panel_cap():
    # A step off every panel edge: |S_2n - S_n| shrinks as 1/n, never to
    # 1e-300.  Panels 8, 16, ..., 2**20, each node evaluated once.
    script = """
from measurekit import verify
calls = []
def f(x):
    calls.append(x)
    return 1.0 if x < 1.0 / 3.0 else 0.0
assert abs(verify.adaptive_simpson(f, 0.0, 1.0, 1e-300) - 1.0 / 3.0) < 1e-5
assert len(calls) == 2**20 + 1, len(calls)
"""
    result = _python(["-c", script])
    assert result.returncode == 0, result.stderr


def test_cli_sample_rejects_a_negative_count(tmp_path, capsys):
    path = tmp_path / "n.json"
    path.write_text(json.dumps({"Normal": {}}))
    code, out, err = _run(capsys, ["sample", "--expr", str(path), "-n", "-3", "--seed", "1"])
    assert code == 1 and out == ""
    assert err == "error: -n must be >= 0, got -3\n"
    code, out, _ = _run(capsys, ["sample", "--expr", str(path), "-n", "0", "--seed", "1"])
    assert code == 0 and out == ""


def test_a_density_beyond_the_float_range_is_infinite():
    assert mk.LogWeight(800.0).exp() == math.inf
    assert mk.LogWeight(math.inf).exp() == math.inf
    heavy = mk.scale(800.0, mk.Normal())
    assert mk.rn_derivative(heavy, mk.LEBESGUE, log=False)(0.5) == math.inf
    assert mk.rn_derivative(heavy, mk.LEBESGUE)(0.5).value > 709.0


@pytest.mark.parametrize("mu, region, at", [
    (mk.scale(800.0, mk.Normal()), verify.Interval(-1.0, 1.0), "-1.0"),
    (mk.scale(800.0, mk.Poisson(2.0)), verify.IntegerRange(3, 9), "3"),
    # Finite at a = -2.0; b is evaluated next, before the interior.
    (mk.superpose(mk.Normal(), mk.scale(750.0, mk.Exponential(1.0))),
     verify.Interval(-2.0, 2.0), "2.0"),
])
def test_mass_names_the_first_point_of_infinite_density(mu, region, at):
    with pytest.raises(mk.MeasureError) as info:
        verify.mass(mu, region)
    assert type(info.value) is mk.MeasureError
    assert str(info.value) == f"infinite density of {mu!r} at {at}"


@pytest.mark.parametrize("doc, lo, hi", [
    ({"Scale": {"logw": 800.0, "of": {"Normal": {}}}}, "-1", "1"),
    ({"Scale": {"logw": 800.0, "of": {"Poisson": {"rate": 2.0}}}}, "0", "5"),
])
def test_cli_check_of_an_infinite_density_is_one_error(tmp_path, doc, lo, hi):
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(doc))
    result = _python(["-m", "measurekit", "check", "--expr", str(path), "--lo", lo, "--hi", hi])
    assert result.returncode == 1 and result.stdout == "", result.stderr
    assert result.stderr.startswith("error: infinite density of ")
    assert result.stderr.endswith(f" at {lo}.0\n" if lo == "-1" else f" at {lo}\n")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


@pytest.mark.parametrize("logw, tol, mass", [(700.0, "1e290", "6.92405566356e+303"),
                                             (708.0, "1e295", "2.0640319033e+307")])
def test_cli_check_of_a_heavy_finite_density_ends(tmp_path, logw, tol, mass):
    # Finite at every node, with a Simpson sum at or beyond the float range:
    # the tolerance is met at the first refinements, the mass
    # e^logw erf(1/sqrt 2).
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps({"Scale": {"logw": logw, "of": {"Normal": {}}}}))
    result = _python(["-m", "measurekit", "check", "--expr", str(path), "--lo", "-1", "--hi", "1",
                      "--tol", tol])
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"mass {mass} FAIL\n"
