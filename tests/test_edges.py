"""Edges: ints beyond the float range, scalings that cancel, and the
negative binomial log-pmf at large r and k."""

import json
import math

import pytest

import measurekit as mk
from measurekit import COUNTING, Dirac, log_density
from measurekit.cli import main, parse_expr, print_expr

BIG = 10**400


class TestIntsBeyondTheFloatRange:
    def test_scale_reads_them_as_infinities(self):
        with pytest.raises(ValueError, match="invalid scaling weight inf"):
            mk.scale(BIG, mk.Normal())
        with pytest.raises(ValueError, match="invalid log weight"):
            mk.Weighted(BIG, mk.Normal())
        zero = mk.Weighted(-math.inf, mk.Normal())
        assert mk.scale(-BIG, mk.Normal()) == mk.Weighted(-BIG, mk.Normal()) == zero

    @pytest.mark.parametrize("build", [
        lambda: mk.forward_map(BIG, 0.0),
        lambda: mk.inverse_map(2.0, -BIG),
        lambda: mk.forward_map(((BIG, 0.0), (0.0, 1.0))),
        lambda: mk.forward_map(((1.0, 0.0), (0.0, 1.0)), (0.0, BIG)),
    ])
    def test_affine_maps_reject_them_with_the_documented_error(self, build):
        with pytest.raises(ValueError, match="affine map must be finite"):
            build()

    def test_a_dirac_atom_maps_to_an_infinity(self):
        assert mk.pushforward(mk.forward_map(2.0, 1.0), Dirac(BIG)) == Dirac(math.inf)
        t = mk.forward_map(((2.0, 0.0), (0.0, 1.0)))
        assert mk.pushforward(t, Dirac((BIG, 1))) == Dirac((math.inf, 1.0))

    def test_a_scale_document_exits_1_with_one_line(self, tmp_path, capsys):
        doc = tmp_path / "scale.json"
        doc.write_text(json.dumps({"Scale": {"logw": BIG, "of": {"Normal": {}}}}))
        assert main(["sample", "--expr", str(doc), "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "invalid scaling weight inf" in err


class TestScalingsThatCancel:
    def test_the_inner_measure_comes_back(self):
        m = mk.scale(1.0, mk.scale(-1.0, COUNTING))
        assert m == mk.scale(0.0, COUNTING) == COUNTING
        assert parse_expr(print_expr(m)) == m

    def test_additivity_holds_at_zero(self):
        for a, b in ((0.25, -0.25), (-3.0, 3.0), (1.5, -1.0)):
            for inner in (mk.Normal(), mk.Poisson(2.0), mk.scale(0.5, mk.LEBESGUE)):
                m = mk.scale(a, mk.scale(b, inner))
                assert m == mk.scale(a + b, inner)
                assert parse_expr(print_expr(m)) == m


class TestNegativeBinomialAtLargeArguments:
    # log NB(k; r, p) by mpmath at 50 digits.
    REFERENCES = [
        (10**12, 1e12, 0.5, -15.081022681449044),
        (10**15, 1e15, 0.5, -18.53490032093999),
        (10**15, 2.0, 1e-15, -35.538776394910684),
    ]

    @pytest.mark.parametrize("k, r, p, want", REFERENCES)
    def test_matches_a_high_precision_oracle(self, k, r, p, want):
        for m in (mk.make_negbinomial(r=r, p=p), mk.make_negbinomial(alpha=r, beta=p / (1 - p))):
            got = log_density(m, k, wrt=COUNTING).value
            assert got == pytest.approx(want, rel=1e-14, abs=1e-13)

    def test_small_arguments_keep_their_bits(self):
        for r in (0.5, 3.0, 4.75, 20.0):
            for p in (0.1, 0.4, 0.6):
                for k in (0, 1, 7, 29, 500):
                    log_p, log_q = math.log(p), math.log1p(-p)
                    got = log_density(mk.make_negbinomial(r=r, p=p), k).value
                    lb = mk.catalog.log_binomial(k + r - 1.0, r - 1.0)
                    assert got == lb + r * log_p + k * log_q
                    lgammas = math.lgamma(k + r) - math.lgamma(r) - math.lgamma(k + 1.0)
                    want = lgammas + r * log_p + k * log_q
                    assert got == pytest.approx(want, rel=1e-12)
