"""Calls that must end, and end in a documented way: Poisson draws at rates
near the top of the float range, quadrature at a tiny or invalid tolerance,
densities beyond the float range, and a negative sample count on the
command line."""

import json
import math
import os
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


def _python(args):
    """Run Python on ``args`` in a subprocess, so that a call that never
    returns fails the test."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": SRC})


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
