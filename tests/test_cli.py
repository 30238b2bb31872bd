"""Command-line interface: parsing, printing, commands, exit codes."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from measurekit import cli, combinators, core
from measurekit.cli import format_log_weight, main, parse_expr, print_expr
import measurekit as mk

SRC = str(Path(__file__).resolve().parent.parent / "src")


def write_doc(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_normal(self):
        assert parse_expr({"Normal": {"mu": 0, "sigma": 1}}) == mk.Normal(0.0, 1.0)

    def test_negative_binomial_alpha_beta(self):
        got = parse_expr({"NegativeBinomial": {"alpha": 10, "beta": 3}})
        assert got == mk.make_negbinomial(alpha=10, beta=3)

    def test_unknown_parameterization_message(self):
        with pytest.raises(ValueError, match=r"unknown parameterization \{mu,tau\}"):
            parse_expr({"Normal": {"mu": 0, "tau": 1}})

    def test_unknown_kind_names_path(self):
        with pytest.raises(ValueError, match=r"\$\.Product\[1\]"):
            parse_expr({"Product": [{"Normal": {}}, {"Gamma": {"a": 1}}]})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            parse_expr({"Power": {"of": {"Lebesgue": {}}, "shape": [2], "stride": 1}})
        with pytest.raises(ValueError):
            parse_expr({"Lebesgue": {"x": 1}})

    def test_two_key_object_rejected(self):
        with pytest.raises(ValueError, match="single-key"):
            parse_expr({"Normal": {}, "Poisson": {}})

    @pytest.mark.parametrize(
        "doc", [{"Pushforward": [1]}, {"Scale": 5}, {"Normal": [1]}, {"Chain": "x"}]
    )
    def test_body_of_the_wrong_type_is_a_parse_error(self, doc):
        with pytest.raises(ValueError, match=r"^at \$\."):
            parse_expr(doc)

    def test_a_power_shape_refuses_bools(self):
        # As IntegerRange and the CLI's numbers refuse them: True is no 1.
        with pytest.raises(ValueError, match=r"^invalid power shape \(True,\)$"):
            mk.power(mk.Normal(), (True,))
        with pytest.raises(ValueError, match=r"^at \$\.Power: invalid power shape \(True, 2\)$"):
            parse_expr(json.loads('{"Power": {"of": {"Normal": {}}, "shape": [true, 2]}}'))


def corpus():
    """Fifty expression documents covering every serializable kind."""
    docs = [
        {"Lebesgue": {}},
        {"Counting": {}},
        {"Uniform01": {}},
        {"Dirac": {"a": 0}},
        {"Dirac": {"a": -2.5}},
        {"Normal": {}},
        {"Normal": {"mu": 1.5}},
        {"Normal": {"sigma": 0.2}},
        {"Normal": {"mu": -3, "sigma": 4}},
        {"NegativeBinomial": {"r": 10, "p": 0.75}},
        {"NegativeBinomial": {"alpha": 10, "beta": 3}},
        {"Bernoulli": {"p": 0.25}},
        {"Poisson": {"rate": 2.5}},
        {"Exponential": {"rate": 0.5}},
    ]
    kernel = {"family": "Normal", "maps": {"mu": "identity", "sigma": "const:1"}}
    sqrt_kernel = {"family": "Normal", "maps": {"mu": "identity", "sigma": "sqrt"}}
    affine_kernel = {"family": "Poisson", "maps": {"rate": "affine:2:1"}}
    docs += [
        {"Scale": {"logw": math.log(0.5), "of": {"Normal": {}}}},
        {"Scale": {"logw": -2.25, "of": {"Poisson": {"rate": 1.0}}}},
        {"Scale": {"logw": -0.1, "of": {"Scale": {"logw": -0.2, "of": {"Uniform01": {}}}}}},
        {"Superpose": [{"Normal": {}}, {"Normal": {"mu": 1}}]},
        {"Superpose": [
            {"Scale": {"logw": math.log(0.5), "of": {"Dirac": {"a": 0}}}},
            {"Scale": {"logw": math.log(0.5), "of": {"Normal": {}}}},
        ]},
        {"Superpose": [{"Normal": {}}, {"Exponential": {"rate": 1.0}}, {"Uniform01": {}}]},
        {"Product": [{"Normal": {}}, {"Normal": {}}]},
        {"Product": [{"Normal": {}}, {"Poisson": {"rate": 3.0}}, {"Uniform01": {}}]},
        {"Product": [{"Lebesgue": {}}, {"Lebesgue": {}}]},
        {"Power": {"of": {"Normal": {}}, "shape": [3]}},
        {"Power": {"of": {"Lebesgue": {}}, "shape": [3]}},
        {"Power": {"of": {"Normal": {}}, "shape": [2, 3]}},
        {"Power": {"of": {"Bernoulli": {"p": 0.5}}, "shape": [8]}},
        {"For": {"indices": [1, 2, 3], "kernel": kernel}},
        {"For": {"indices": [1, 4, 9], "kernel": sqrt_kernel}},
        {"For": {"indices": [0, 1], "kernel": affine_kernel}},
        {"Bind": {"of": {"Normal": {}}, "kernel": kernel}},
        {"Bind": {"of": {"Exponential": {"rate": 1.0}}, "kernel": sqrt_kernel}},
        {"PointwiseProduct": {"of": {"Normal": {}}, "likelihood": {"kernel": kernel, "x": 0.5}}},
        {"PointwiseProduct": {
            "of": {"Exponential": {"rate": 1.0}},
            "likelihood": {"kernel": sqrt_kernel, "x": 1.25},
        }},
        {"Pushforward": {"mode": "Forward", "sigma": 2.0, "x0": 1.0, "of": {"Normal": {}}}},
        {"Pushforward": {"mode": "Inverse", "psi": 0.5, "mu0": 1.0, "of": {"Normal": {}}}},
        {"Pushforward": {
            "mode": "Forward",
            "sigma": [[2.0, 0.0], [0.5, 1.5]],
            "x0": [1.0, -1.0],
            "of": {"Power": {"of": {"Normal": {}}, "shape": [2]}},
        }},
        {"Pushforward": {
            "mode": "Inverse",
            "psi": [[1.0, 0.0], [0.25, 2.0]],
            "mu0": [0.0, 0.5],
            "of": {"Power": {"of": {"Normal": {}}, "shape": [2]}},
        }},
        {"Pushforward": {"mode": "Forward", "sigma": 3.0, "x0": 0.0, "of": {"Uniform01": {}}}},
        {"Chain": {"initial": {"Normal": {"mu": 0.0}}, "step": kernel}},
        {"Chain": {"initial": {"Dirac": {"a": 4.0}}, "step": sqrt_kernel}},
        {"Chain": {"initial": {"Normal": {}}, "step": {"family": "Normal", "maps": {"mu": "affine:0.9:0.1"}}}},
    ]
    docs += [
        {"Superpose": [
            {"Scale": {"logw": math.log(0.3), "of": {"Normal": {"mu": -1}}}},
            {"Scale": {"logw": math.log(0.7), "of": {"Normal": {"mu": 2, "sigma": 2}}}},
        ]},
        {"Product": [{"Power": {"of": {"Normal": {}}, "shape": [2]}}, {"Normal": {}}]},
        {"Power": {"of": {"Superpose": [{"Normal": {}}, {"Normal": {"mu": 3}}]}, "shape": [2]}},
        {"Scale": {"logw": -1.0, "of": {"Product": [{"Normal": {}}, {"Normal": {}}]}}},
        {"Bind": {"of": {"Uniform01": {}}, "kernel": affine_kernel}},
        {"For": {"indices": [2, 3, 5, 7], "kernel": affine_kernel}},
        {"Superpose": [{"Dirac": {"a": 1}}, {"Dirac": {"a": 2}}]},
        {"Pushforward": {"mode": "Forward", "sigma": 1.5, "x0": -2.0, "of": {"Exponential": {"rate": 2.0}}}},
        {"Power": {"of": {"Exponential": {"rate": 1.5}}, "shape": [4]}},
    ]
    return docs


class TestRoundTrip:
    def test_corpus_is_large_enough(self):
        assert len(corpus()) >= 50

    @pytest.mark.parametrize("doc", corpus())
    def test_parse_print_parse_is_stable(self, doc):
        first = parse_expr(doc)
        printed = print_expr(first)
        second = parse_expr(printed)
        assert first == second
        assert json.dumps(printed) == json.dumps(print_expr(second))

    def test_base_with_a_nested_sum_round_trips(self):
        # The base of a scaled mixture is a sum of sums.
        m = mk.superpose(mk.scale(-1.0, mk.superpose(mk.Normal(1.0), mk.Normal(2.0))), mk.Normal())
        base = mk.base_measure(m, 0.5)
        assert parse_expr(print_expr(base)) == base

    def test_opaque_kernels_are_not_serializable(self):
        m = mk.bind(mk.make_normal(), lambda x: mk.make_normal(mu=x))
        with pytest.raises(ValueError, match="not serializable"):
            print_expr(m)


class TestFormat:
    def test_seventeen_significant_digits(self):
        assert format_log_weight(mk.LogWeight(-1.4189385332046727)) == "-1.4189385332046727"

    def test_special_values(self):
        assert format_log_weight(mk.NEG_INF) == "-inf"
        assert format_log_weight(mk.POS_INF) == "inf"
        assert format_log_weight(mk.UNDEFINED) == "undefined"


class TestLogDensityCommand:
    def test_normal_against_lebesgue(self, tmp_path, capsys):
        expr = write_doc(tmp_path, "n", {"Normal": {"mu": 0, "sigma": 1}})
        wrt = write_doc(tmp_path, "leb", {"Lebesgue": {}})
        code, out, _ = run(capsys, ["logdensity", "--expr", expr, "--wrt", wrt, "--at", "1"])
        assert code == 0
        assert out == "-1.4189385332046727\n"

    def test_own_base_default(self, tmp_path, capsys):
        expr = write_doc(tmp_path, "n", {"Normal": {"mu": 0, "sigma": 2}})
        code, out, _ = run(capsys, ["logdensity", "--expr", expr, "--at", "2"])
        assert code == 0
        assert out == "-0.5\n"

    def test_wrt_base_literal(self, tmp_path, capsys):
        expr = write_doc(tmp_path, "n", {"Normal": {"mu": 0, "sigma": 2}})
        code, out, _ = run(capsys, ["logdensity", "--expr", expr, "--wrt", "base", "--at", "2"])
        assert code == 0
        assert out == "-0.5\n"

    def test_dirac_against_counting_prints_minus_inf(self, tmp_path, capsys):
        expr = write_doc(tmp_path, "d", {"Dirac": {"a": 0}})
        wrt = write_doc(tmp_path, "c", {"Counting": {}})
        code, out, _ = run(capsys, ["logdensity", "--expr", expr, "--wrt", wrt, "--at", "5"])
        assert code == 0
        assert out == "-inf\n"

    def test_unrelated_primitives_exit_2(self, tmp_path, capsys):
        expr = write_doc(tmp_path, "l", {"Lebesgue": {}})
        wrt = write_doc(tmp_path, "c", {"Counting": {}})
        code, _, err = run(capsys, ["logdensity", "--expr", expr, "--wrt", wrt, "--at", "0"])
        assert code == 2
        assert "unrelated" in err

    def test_undefined_prints_and_exits_0(self, tmp_path, capsys):
        expr = write_doc(tmp_path, "d", {"Dirac": {"a": 0}})
        wrt = write_doc(tmp_path, "d2", {"Dirac": {"a": 1}})
        code, out, _ = run(capsys, ["logdensity", "--expr", expr, "--wrt", wrt, "--at", "0"])
        assert code == 0
        assert out == "undefined\n"

    def test_parse_error_exit_1(self, tmp_path, capsys):
        expr = write_doc(tmp_path, "bad", {"Normal": {"mu": 0, "tau": 1}})
        code, _, err = run(capsys, ["logdensity", "--expr", expr, "--at", "0"])
        assert code == 1
        assert "unknown parameterization" in err

    def test_shape_error_exit_1(self, tmp_path, capsys):
        expr = write_doc(tmp_path, "n", {"Normal": {}})
        code, _, _ = run(capsys, ["logdensity", "--expr", expr, "--at", "[1, 2]"])
        assert code == 1

    def test_product_pair_point(self, tmp_path, capsys):
        expr = write_doc(tmp_path, "pair", {"Product": [{"Normal": {}}, {"Normal": {}}]})
        wrt = write_doc(tmp_path, "plane", {"Product": [{"Lebesgue": {}}, {"Lebesgue": {}}]})
        code, out, _ = run(
            capsys, ["logdensity", "--expr", expr, "--wrt", wrt, "--at", "[0, 0]"]
        )
        assert code == 0
        assert out == "-1.8378770664093453\n"

    def test_chain_prefix(self, tmp_path, capsys):
        expr = write_doc(
            tmp_path,
            "walk",
            {"Chain": {"initial": {"Normal": {"mu": 0.0}},
                       "step": {"family": "Normal", "maps": {"mu": "identity"}}}},
        )
        prefix = "[-0.4931543737034523, -0.5661895116186417, -1.3286977670590228]"
        code, out, _ = run(capsys, ["logdensity", "--expr", expr, "--at", prefix])
        assert code == 0
        assert out == "-0.4149771036439342\n"


    def test_negative_exponent_point_as_separate_argument(self, tmp_path, capsys):
        expr = write_doc(tmp_path, "n", {"Normal": {}})
        wrt = write_doc(tmp_path, "leb", {"Lebesgue": {}})
        base = ["logdensity", "--expr", expr, "--wrt", wrt]
        code, joined, _ = run(capsys, base + ["--at=-1e-05"])
        assert code == 0
        code, separate, err = run(capsys, base + ["--at", "-1e-05"])
        assert code == 0, err
        assert separate == joined == "-0.91893853325467267\n"

    def test_too_deep_mixture_is_an_error_not_a_traceback(self, tmp_path, capsys):
        # Each level is two JSON levels, which the json module still reads;
        # building the expression then passes the recursion limit.
        depth = 400
        text = '{"Power": {"of": ' * depth + '{"Normal": {}}' + ', "shape": [1]}}' * depth
        expr = tmp_path / "deep.json"
        expr.write_text(text)
        wrt = write_doc(tmp_path, "leb", {"Lebesgue": {}})
        point = "[" * depth + "0.1" + "]" * depth
        code, out, err = run(
            capsys, ["logdensity", "--expr", str(expr), "--wrt", wrt, "--at", point]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_wide_mixture_prints_reference_density(self, tmp_path, capsys):
        k = 300
        doc = {"Superpose": [
            {"Scale": {"logw": -math.log(k), "of": {"Normal": {"mu": 0.01 * i}}}}
            for i in range(k)
        ]}
        expr = write_doc(tmp_path, "wide", doc)
        wrt = write_doc(tmp_path, "leb", {"Lebesgue": {}})
        code, out, err = run(capsys, ["logdensity", "--expr", expr, "--wrt", wrt, "--at", "0.1"])
        assert code == 0, err
        terms = [-math.log(k) - 0.5 * math.log(2 * math.pi) - 0.5 * (0.1 - 0.01 * i) ** 2
                 for i in range(k)]
        top = max(terms)
        reference = top + math.log(math.fsum(math.exp(t - top) for t in terms))
        assert float(out) == pytest.approx(reference, rel=1e-12)


class TestSampleCommand:
    def test_dirac_two_draws(self, tmp_path, capsys):
        expr = write_doc(tmp_path, "d3", {"Dirac": {"a": 3}})
        code, out, _ = run(capsys, ["sample", "--expr", expr, "-n", "2", "--seed", "5"])
        assert code == 0
        assert out == "3\n3\n"

    def test_same_seed_is_byte_identical(self, tmp_path, capsys):
        expr = write_doc(tmp_path, "n", {"Normal": {"mu": 2, "sigma": 1}})
        _, first, _ = run(capsys, ["sample", "--expr", expr, "-n", "5", "--seed", "7"])
        _, second, _ = run(capsys, ["sample", "--expr", expr, "-n", "5", "--seed", "7"])
        assert first == second
        _, third, _ = run(capsys, ["sample", "--expr", expr, "-n", "5", "--seed", "8"])
        assert first != third

    def test_chain_take_is_reproducible(self, tmp_path, capsys):
        expr = write_doc(
            tmp_path,
            "walk",
            {"Chain": {"initial": {"Normal": {"mu": 0.0}},
                       "step": {"family": "Normal", "maps": {"mu": "identity"}}}},
        )
        args = ["sample", "--expr", expr, "-n", "2", "--seed", "11", "--take", "3"]
        code, first, _ = run(capsys, args)
        assert code == 0
        assert len(first.splitlines()) == 2
        assert all(len(json.loads(line)) == 3 for line in first.splitlines())
        _, second, _ = run(capsys, args)
        assert first == second

    def test_chain_without_take_exit_1(self, tmp_path, capsys):
        expr = write_doc(
            tmp_path,
            "walk",
            {"Chain": {"initial": {"Normal": {"mu": 0.0}},
                       "step": {"family": "Normal", "maps": {"mu": "identity"}}}},
        )
        code, _, err = run(capsys, ["sample", "--expr", expr, "-n", "1", "--seed", "1"])
        assert code == 1
        assert "--take" in err

    def test_improper_measure_exit_1(self, tmp_path, capsys):
        expr = write_doc(tmp_path, "leb", {"Lebesgue": {}})
        code, _, err = run(capsys, ["sample", "--expr", expr, "-n", "1", "--seed", "1"])
        assert code == 1
        assert "not a probability measure" in err

    def test_pair_samples_are_json_lines(self, tmp_path, capsys):
        expr = write_doc(
            tmp_path,
            "b",
            {"Bind": {"of": {"Normal": {}},
                      "kernel": {"family": "Normal", "maps": {"mu": "identity"}}}},
        )
        code, out, _ = run(capsys, ["sample", "--expr", expr, "-n", "3", "--seed", "2"])
        assert code == 0
        for line in out.splitlines():
            pair = json.loads(line)
            assert len(pair) == 2


class TestNonFiniteParameterDocuments:
    def test_infinite_poisson_rate_exit_1(self, tmp_path, capsys):
        path = tmp_path / "poisson.json"
        path.write_text('{"Poisson": {"rate": 1e999}}')
        code, out, err = run(capsys, ["sample", "--expr", str(path), "--seed", "1"])
        assert code == 1 and out == ""
        assert "at $.Poisson: Poisson requires finite rate > 0, got inf" in err


class TestCheckCommand:
    def test_normal_passes(self, tmp_path, capsys):
        expr = write_doc(tmp_path, "n", {"Normal": {}})
        code, out, _ = run(capsys, ["check", "--expr", expr, "--lo", "-8", "--hi", "8"])
        assert code == 0
        assert out.endswith("PASS\n")
        assert out.startswith("mass 1")

    def test_half_mass_fails(self, tmp_path, capsys):
        expr = write_doc(
            tmp_path, "half", {"Scale": {"logw": math.log(0.5), "of": {"Normal": {}}}}
        )
        code, out, _ = run(capsys, ["check", "--expr", expr, "--lo", "-8", "--hi", "8"])
        assert code == 0
        assert out.endswith("FAIL\n")
        assert out.startswith("mass 0.5")

    def test_too_deep_pushforward_is_a_depth_error(self, tmp_path, capsys, monkeypatch):
        # A nest that loads but is too deep to evaluate: the probes must not
        # read the depth error as "no density against this reference".
        deep = mk.Normal()
        for _ in range(2000):
            deep = mk.Pushforward(mk.forward_map(1.0, 0.0), deep)
        monkeypatch.setattr("measurekit.cli._load_expr", lambda path: deep)
        expr = write_doc(tmp_path, "n", {"Normal": {}})
        code, out, err = run(capsys, ["check", "--expr", expr, "--lo", "-8", "--hi", "8"])
        assert code == 1
        assert out == ""
        assert err == "error: expression nested too deeply to evaluate\n"

    def test_uniform01_passes(self, tmp_path, capsys):
        expr = write_doc(tmp_path, "u", {"Uniform01": {}})
        code, out, _ = run(capsys, ["check", "--expr", expr, "--lo", "0", "--hi", "1"])
        assert code == 0
        assert out.endswith("PASS\n")

    def test_discrete_measure_uses_summation(self, tmp_path, capsys):
        expr = write_doc(tmp_path, "p", {"Poisson": {"rate": 1.0}})
        code, out, _ = run(capsys, ["check", "--expr", expr, "--lo", "0", "--hi", "60"])
        assert code == 0
        assert out.endswith("PASS\n")

    def test_negbinomial_check(self, tmp_path, capsys):
        expr = write_doc(tmp_path, "nb", {"NegativeBinomial": {"alpha": 10, "beta": 3}})
        code, out, _ = run(capsys, ["check", "--expr", expr, "--lo", "0", "--hi", "300"])
        assert code == 0
        assert out.endswith("PASS\n")

    def test_undefined_density_exit_2(self, tmp_path, capsys):
        expr = write_doc(
            tmp_path,
            "ss",
            {"Superpose": [
                {"Scale": {"logw": math.log(0.5), "of": {"Dirac": {"a": 0}}}},
                {"Scale": {"logw": math.log(0.5), "of": {"Normal": {}}}},
            ]},
        )
        code, _, err = run(capsys, ["check", "--expr", expr, "--lo", "-8", "--hi", "8"])
        assert code == 2
        assert "undefined" in err.lower()

    def test_atom_plus_count_law_sums_over_integers(self, tmp_path, capsys):
        expr = write_doc(
            tmp_path,
            "dp",
            {"Superpose": [
                {"Scale": {"logw": math.log(0.5), "of": {"Dirac": {"a": 0}}}},
                {"Scale": {"logw": math.log(0.5), "of": {"Poisson": {"rate": 3.0}}}},
            ]},
        )
        code, out, _ = run(capsys, ["check", "--expr", expr, "--lo", "-0.5", "--hi", "60"])
        assert code == 0
        assert out == "mass 1 PASS\n"

    def test_atom_plus_count_law_when_the_probe_hits_the_atom(self, tmp_path, capsys):
        # The Lebesgue probe at 0 is undefined there; the counting probes at
        # 0 and 1 are both finite, so the sum runs over {-1, 0, 1}.
        expr = write_doc(
            tmp_path,
            "dp",
            {"Superpose": [
                {"Scale": {"logw": math.log(0.5), "of": {"Dirac": {"a": 0}}}},
                {"Scale": {"logw": math.log(0.5), "of": {"Poisson": {"rate": 3.0}}}},
            ]},
        )
        with pytest.warns(UserWarning, match="truncated"):
            code, out, _ = run(capsys, ["check", "--expr", expr, "--lo", "-1", "--hi", "1"])
        assert code == 0
        assert out == f"mass {0.5 + 2.0 * math.exp(-3.0):.12g} FAIL\n"

    def test_atom_outside_the_count_law_sums_over_integers(self, tmp_path, capsys):
        # The atom at -3 lies below the Poisson's support; the range holds it
        # and the Poisson's mass at 0.
        expr = write_doc(
            tmp_path,
            "dp",
            {"Superpose": [
                {"Scale": {"logw": math.log(0.5), "of": {"Dirac": {"a": -3}}}},
                {"Scale": {"logw": math.log(0.5), "of": {"Poisson": {"rate": 3.0}}}},
            ]},
        )
        with pytest.warns(UserWarning, match="truncated"):
            code, out, _ = run(capsys, ["check", "--expr", expr, "--lo", "-6", "--hi", "0"])
        assert code == 0
        assert out == "mass 0.524893534184 FAIL\n"

    def test_atom_at_an_integer_sums_over_integers(self, tmp_path, capsys):
        expr = write_doc(tmp_path, "d", {"Dirac": {"a": 2}})
        code, out, _ = run(capsys, ["check", "--expr", expr, "--lo", "0", "--hi", "5"])
        assert code == 0
        assert out == "mass 1 PASS\n"

    def test_count_law_moved_off_the_integers_exit_1(self, tmp_path, capsys):
        # sigma 0.5 puts the odd counts on half-integers, where a sum over the
        # integers would miss them.
        expr = write_doc(tmp_path, "pf", {"Pushforward": {
            "mode": "Forward", "sigma": 0.5, "x0": 0, "of": {"Poisson": {"rate": 3.0}}}})
        code, out, err = run(capsys, ["check", "--expr", expr, "--lo", "0", "--hi", "30"])
        assert code == 1
        assert out == ""
        assert "scalar Lebesgue or Counting reference" in err

    def test_count_law_moved_along_the_integers_sums_over_them(self, tmp_path, capsys):
        expr = write_doc(tmp_path, "pf", {"Pushforward": {
            "mode": "Forward", "sigma": 2, "x0": 1, "of": {"Poisson": {"rate": 3.0}}}})
        code, out, _ = run(capsys, ["check", "--expr", expr, "--lo", "0", "--hi", "80"])
        assert code == 0
        assert out == "mass 1 PASS\n"

    @pytest.mark.parametrize("doc", [
        {"Dirac": {"a": 0.5}},
        {"Chain": {"initial": {"Normal": {"mu": 0}},
                   "step": {"family": "Normal", "maps": {"mu": "identity", "sigma": "const:1"}}}},
    ], ids=["atom-off-the-integers", "chain"])
    def test_unsupported_reference_exit_1(self, tmp_path, capsys, doc):
        expr = write_doc(tmp_path, "m", doc)
        code, out, err = run(capsys, ["check", "--expr", expr, "--lo", "0", "--hi", "1"])
        assert code == 1
        assert out == ""
        assert "scalar Lebesgue or Counting reference" in err

    def test_region_choice_evaluates_no_density(self, tmp_path, capsys, monkeypatch):
        choose = cli._region

        def no_density(*args):
            raise AssertionError("the region choice evaluated a density")

        def guarded(*args):
            with monkeypatch.context() as patch:
                patch.setattr(core, "_log_density", no_density)
                patch.setattr(combinators, "_log_density", no_density)
                return choose(*args)

        monkeypatch.setattr(cli, "_region", guarded)
        half = math.log(0.5)
        cases = [
            ({"Normal": {}}, "-8", "8", "mass 1 PASS\n"),
            ({"Poisson": {"rate": 1.0}}, "0", "60", "mass 1 PASS\n"),
            ({"Superpose": [{"Scale": {"logw": half, "of": {"Dirac": {"a": 0}}}},
                            {"Scale": {"logw": half, "of": {"Poisson": {"rate": 3.0}}}}]},
             "-0.5", "60", "mass 1 PASS\n"),
        ]
        for doc, lo, hi, want in cases:
            expr = write_doc(tmp_path, "m", doc)
            assert run(capsys, ["check", "--expr", expr, "--lo", lo, "--hi", hi]) == (0, want, "")


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_missing_required_argument(self, capsys):
        assert main(["logdensity", "--at", "0"]) == 1

    def test_negative_range_bounds_in_exponent_notation(self, tmp_path, capsys):
        expr = write_doc(tmp_path, "n", {"Normal": {}})
        code, out, _ = run(capsys, ["check", "--expr", expr, "--lo", "-8e0", "--hi", "8e0"])
        assert code == 0
        assert out.endswith("PASS\n")

    def test_missing_file(self, capsys):
        assert main(["logdensity", "--expr", "/nonexistent.json", "--at", "0"]) == 1

    def test_bad_json_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["logdensity", "--expr", str(path), "--at", "0"]) == 1


class TestSharedParser:
    """`main` builds its parser once; no call leaves a value on it for the next."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_take_does_not_carry_over(self, tmp_path, capsys):
        expr = write_doc(
            tmp_path,
            "walk",
            {"Chain": {"initial": {"Normal": {"mu": 0.0}},
                       "step": {"family": "Normal", "maps": {"mu": "identity"}}}},
        )
        code, out, _ = run(capsys, ["sample", "--expr", expr, "--seed", "3", "--take", "5"])
        assert code == 0 and len(json.loads(out)) == 5
        code, out, err = run(capsys, ["sample", "--expr", expr, "--seed", "3"])
        assert code == 1 and out == "" and "--take" in err

    def test_wrt_does_not_carry_over(self, tmp_path, capsys):
        expr = write_doc(tmp_path, "n", {"Normal": {"mu": 0, "sigma": 2}})
        wrt = write_doc(tmp_path, "leb", {"Lebesgue": {}})
        code, out, _ = run(capsys, ["logdensity", "--expr", expr, "--wrt", wrt, "--at", "2"])
        assert code == 0 and out != "-0.5\n"
        code, out, _ = run(capsys, ["logdensity", "--expr", expr, "--at", "2"])
        assert (code, out) == (0, "-0.5\n")


class TestSubprocessInvocation:
    def test_module_entry_point_runs(self, tmp_path):
        expr = write_doc(tmp_path, "n", {"Normal": {}})
        result = subprocess.run(
            [sys.executable, "-m", "measurekit", "logdensity", "--expr", expr, "--at", "0"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0
        assert result.stdout == "0\n"


class TestParametersBeyondTheFloatRange:
    def test_a_401_digit_poisson_rate_exits_1(self, tmp_path, capsys):
        path = tmp_path / "poisson.json"
        path.write_text('{"Poisson": {"rate": %s}}' % ("1" + "0" * 400))
        code, out, err = run(capsys, ["sample", "--expr", str(path), "--seed", "1"])
        assert code == 1 and out == ""
        assert "at $.Poisson: Poisson requires finite rate > 0, got inf" in err

    def test_an_overflowing_negative_binomial_draw_exits_1(self, tmp_path, capsys):
        expr = write_doc(tmp_path, "nb", {"NegativeBinomial": {"r": 1e300, "p": 1e-10}})
        code, out, err = run(capsys, ["sample", "--expr", expr, "--seed", "1"])
        assert code == 1 and out == ""
        assert "NegativeBinomial{'p': 1e-10, 'r': 1e+300} draw overflows" in err
