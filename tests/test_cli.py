"""End-to-end command-line behavior: output shapes and exit codes."""
import argparse
import json
import math

import pytest

from knotcover import acceptance, cli, exact_linalg, invariants, knots, rep_variety
from knotcover.cli import main
from knotcover.exact_linalg import AbelianGroup
from knotcover.invariants import cyclic_product_magnitude
from knotcover.laurent_poly import LaurentPoly

FIG8 = LaurentPoly(-1, (-1, 3, -1))
# 8_18 and the granny knot 3_1 # 3_1: their Alexander modules are not
# cyclic, so coker delta(tau) has the right order but the wrong structure.
KNOT_8_18 = "strands=3; 1 -2 1 -2 1 -2 1 -2"
GRANNY = "strands=3; 1 1 1 2 2 2"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_alexander_text(capsys):
    code, out, err = run(capsys, "alexander", "4_1")
    assert code == 0 and err == ""
    assert out.strip() == "-1*t^-1 + 3 - 1*t^1"


def test_alexander_json(capsys):
    code, out, _ = run(capsys, "alexander", "3_1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == 1
    assert obj["knot"] == "3_1"
    assert obj["delta"] == {"min_deg": -1, "coeffs": ["1", "-1", "1"]}
    assert obj["text"] == "1*t^-1 - 1 + 1*t^1"
    # the strands= prefix is omitted when the letters pin it down
    assert obj["braid"] == "1 1 1"


def test_alexander_literal_braid(capsys):
    code, out, _ = run(capsys, "alexander", "strands=2; 1 1 1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["knot"] == "1 1 1"
    assert obj["text"] == "1*t^-1 - 1 + 1*t^1"


def test_invariant_json_even_rank(capsys):
    code, out, _ = run(capsys, "invariant", "3_1", "--n", "2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["N"] == 2
    assert int(obj["value"]) == 3
    assert obj["sign_determined"] is False
    assert obj["degenerate"] is False
    assert obj["homology"] == ["3"]
    assert obj["free_rank"] == 0
    assert obj["method_agreement"] is True


def test_invariant_json_odd_rank_signed(capsys):
    code, out, _ = run(capsys, "invariant", "3_1", "--n", "3", "--json")
    obj = json.loads(out)
    assert code == 0
    assert int(obj["value"]) == 4
    assert obj["sign_determined"] is True


def test_invariant_text_mode(capsys):
    code, out, _ = run(capsys, "invariant", "4_1", "--n", "3")
    assert code == 0
    assert "q(4_1, N=3) = 16" in out
    assert "methods agree: yes" in out


def test_invariant_big_value_survives_json(capsys):
    code, out, _ = run(capsys, "invariant", "6_1", "--n", "12", "--json")
    obj = json.loads(out)
    assert code == 0
    assert int(obj["value"]) == (2**12 - 1) ** 2


def test_homology_text(capsys):
    code, out, _ = run(capsys, "homology", "4_1", "--n", "3")
    assert code == 0
    assert out.strip() == "Z/4 + Z/4"


def test_homology_degenerate_reports_free_rank(capsys):
    code, out, _ = run(capsys, "homology", "3_1", "--n", "6", "--json")
    obj = json.loads(out)
    assert code == 0
    assert obj["free_rank"] >= 1


@pytest.mark.parametrize(
    "knot, n, text, factors, free",
    [
        (KNOT_8_18, 2, "Z/3 + Z/15", ["3", "15"], 0),
        (GRANNY, 2, "Z/3 + Z/3", ["3", "3"], 0),
        (GRANNY, 6, "Z^4", [], 4),
    ],
)
def test_non_cyclic_alexander_module_groups(capsys, knot, n, text, factors, free):
    code, out, _ = run(capsys, "homology", knot, "--n", str(n))
    assert code == 0 and out == text + "\n"
    code, out, _ = run(capsys, "homology", knot, "--n", str(n), "--json")
    obj = json.loads(out)
    assert code == 0
    assert (obj["invariant_factors"], obj["free_rank"], obj["text"]) == (factors, free, text)
    code, out, _ = run(capsys, "invariant", knot, "--n", str(n), "--json")
    obj = json.loads(out)
    assert code == 0
    assert (obj["homology"], obj["free_rank"]) == (factors, free)
    assert obj["method_agreement"] is True
    if free == 0:
        code, out, _ = run(capsys, "repvar", knot, "--n", str(n), "--json")
        assert code == 0
        assert json.loads(out)["group"] == text


@pytest.mark.parametrize(
    "n, wrong",
    [
        (2, AbelianGroup((5,), 0)),  # order 5 against |q| = 3
        (2, AbelianGroup((3,), 1)),  # infinite where the product is 3
        (6, AbelianGroup((2,), 0)),  # finite where the product vanishes
    ],
)
def test_homology_order_is_cross_checked(monkeypatch, capsys, n, wrong):
    monkeypatch.setattr(invariants, "cover_homology", lambda braid, n: wrong)
    code, out, err = run(capsys, "homology", "3_1", "--n", str(n))
    assert code == 1 and out == ""
    assert err.startswith("error: CrossCheckMismatch:")


def test_invariant_factors_only_2g_square_matrices(monkeypatch, capsys):
    # 6_1 is the closure of a 7-crossing braid on 4 strands, so 2g = 4; at
    # N = 120 the companion route would factor a 119 x 119 matrix.
    shapes = []
    real = exact_linalg.smith_normal_form

    def recording(a):
        form = real(a)
        shapes.append((form.rows, form.cols))
        return form

    monkeypatch.setattr(exact_linalg, "smith_normal_form", recording)
    monkeypatch.setattr(invariants, "smith_normal_form", recording)
    code, out, _ = run(capsys, "invariant", "6_1", "--n", "120", "--json")
    assert code == 0 and json.loads(out)["method_agreement"] is True
    assert shapes and all(rows <= 4 and cols <= 4 for rows, cols in shapes)


def test_one_parser_serves_every_call(monkeypatch, capsys):
    expected = [
        (["alexander", "4_1"], 0, "-1*t^-1 + 3 - 1*t^1\n"),
        (["homology", "4_1", "--n", "3"], 0, "Z/4 + Z/4\n"),
        (["invariant", "3_1"], 2, ""),
        (["dim", "--n", "4", "--k3"], 0, "kappa = 15/4\ndim = 0\n"),
        (["homology", "3_1", "--n", "2"], 0, "Z/3\n"),
        (["alexander", "4_1"], 0, "-1*t^-1 + 3 - 1*t^1\n"),
    ]
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    for argv, want_code, want_out in expected:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert (code, capsys.readouterr().out) == (want_code, want_out)
    assert built == []


def test_default_table_is_parsed_once(monkeypatch, capsys):
    parsed = []
    parse = knots.KnotTable.parse
    monkeypatch.setattr(knots.KnotTable, "parse", lambda text: parsed.append(text) or parse(text))
    knots.KnotTable.default.cache_clear()
    for argv in (["alexander", "3_1"], ["homology", "4_1", "--n", "3"], ["repvar", "3_1", "--n", "2"]):
        assert run(capsys, *argv)[0] == 0
    assert len(parsed) == 1


def test_repvar_json(capsys):
    code, out, _ = run(capsys, "repvar", "3_1", "--n", "2", "--json")
    obj = json.loads(out)
    assert code == 0
    assert obj["t3_points"] == 2
    assert obj["cs_ladder"] == ["0/1", "1/2"]
    assert obj["kernel_count"] == "3"
    assert obj["wirtinger_count"] == "3"
    assert obj["group"] == "Z/3"


def test_repvar_degenerate_is_a_computation_error(capsys):
    code, out, err = run(capsys, "repvar", "3_1", "--n", "6")
    assert code == 1
    assert out == ""
    assert err.startswith("error: Degenerate:")


def test_repvar_cap_exceeded(capsys):
    code, _, err = run(capsys, "repvar", "4_1", "--n", "3", "--cap", "2")
    assert code == 1
    assert err.startswith("error: CapExceeded:")


def test_repvar_group_order_is_cross_checked(monkeypatch, capsys):
    monkeypatch.setattr(invariants, "cover_homology", lambda braid, n: AbelianGroup((5,), 0))
    code, out, err = run(capsys, "repvar", "3_1", "--n", "2")
    assert (code, out) == (1, "")
    assert err.startswith("error: CrossCheckMismatch:")


def test_repvar_wirtinger_count_is_cross_checked(monkeypatch, capsys):
    count = rep_variety.wirtinger_torus_count
    monkeypatch.setattr(rep_variety, "wirtinger_torus_count", lambda pres, n: count(pres, n) + 1)
    code, out, err = run(capsys, "repvar", "3_1", "--n", "2", "--json")
    assert (code, out) == (1, "")
    assert err.startswith("error: CrossCheckMismatch:")


def test_series_json(capsys):
    code, out, _ = run(capsys, "series", "4_1", "--order", "4", "--json")
    obj = json.loads(out)
    assert code == 0
    assert obj["coefficients"] == ["1/1", "0/1", "-4/1", "0/1", "-4/3"]
    assert (obj["q_h"], obj["f_h"], obj["order"]) == (0, 1, 4)


def test_series_text(capsys):
    code, out, _ = run(capsys, "series", "unknot", "--q-h", "2", "--order", "4")
    assert code == 0
    assert out.strip() == "1 + 1*s^2 + 1/2*s^4"


def test_mahler_csv_shape_and_reproducibility(capsys):
    code, out1, _ = run(capsys, "mahler", "4_1", "--n-max", "21")
    assert code == 0
    lines = out1.strip().splitlines()
    assert lines[0] == "n,q,rate,log_alpha,gap,degenerate"
    assert len(lines) == 1 + len(range(3, 22, 2))
    first = lines[1].split(",")
    assert first[0] == "3" and first[1] == "16"
    assert all(line.endswith("false") for line in lines[1:])
    code, out2, _ = run(capsys, "mahler", "4_1", "--n-max", "21")
    assert out2 == out1


def test_mahler_json_big_integers_exact(capsys):
    code, out, _ = run(capsys, "mahler", "4_1", "--n-max", "99", "--json")
    obj = json.loads(out)
    assert code == 0
    assert obj["measure_roots"] == pytest.approx(2.618033988749895, abs=1e-9)
    assert abs(obj["measure_roots"] - obj["measure_integral"]) < 1e-6
    last = obj["rows"][-1]
    assert last["n"] == 99
    assert int(last["q"]) == cyclic_product_magnitude(FIG8, 99)
    assert last["gap"] < 1e-3


def test_mahler_degree_32_torus_knot_ladder(capsys):
    # The closure of (1 2 3 4)^9 is T(5, 9); its Alexander polynomial has
    # degree 32 and vanishes exactly at the roots of unity of order 15 and 45.
    braid = "strands=5; " + " ".join(["1 2 3 4"] * 9)
    code, out, _ = run(capsys, "mahler", braid, "--n-max", "399", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["n"] for r in rows] == list(range(3, 400, 2))
    for r in rows:
        assert r["degenerate"] == (r["n"] % 15 == 0)
        if math.gcd(r["n"], 45) == 1:
            # the cover is the Brieskorn homology sphere Sigma(5, 9, n)
            assert r["q"] == "1"


def test_dim_k3(capsys):
    code, out, _ = run(capsys, "dim", "--n", "4", "--k3", "--json")
    obj = json.loads(out)
    assert code == 0
    assert obj == {"schema": 1, "kappa": "15/4", "dim": 0}


def test_dim_explicit_charge(capsys):
    code, out, _ = run(capsys, "dim", "--n", "2", "--c2", "1", "--b2-plus", "1")
    assert code == 0
    assert "kappa = 1/1" in out and "dim = 2" in out


def test_dim_warns_on_small_b2_plus(capsys):
    code, _, err = run(capsys, "dim", "--n", "2", "--c2", "1", "--b2-plus", "1")
    assert code == 0
    assert "b2+ = 1 < 2" in err


def test_dim_without_charge_is_usage_error(capsys):
    code, _, err = run(capsys, "dim", "--n", "2")
    assert code == 2
    assert err.startswith("usage error:")


def test_dim_fractional_charge_integer_dimension(capsys):
    # 4*N*kappa = 4*N*c2 - 2*(N-1)*c1^2 is an even integer for any integer
    # inputs, so the dimension is always defined from the command line
    code, out, _ = run(capsys, "dim", "--n", "2", "--c2", "0", "--c1-sq", "1", "--json")
    obj = json.loads(out)
    assert code == 0
    assert obj["kappa"] == "-1/4"
    assert obj["dim"] == -14


def test_unknown_knot_is_usage_error(capsys):
    code, _, err = run(capsys, "alexander", "9_99")
    assert code == 2
    assert err.startswith("usage error:")


def test_link_closure_is_usage_error(capsys):
    code, _, err = run(capsys, "alexander", "strands=2; 1 1")
    assert code == 2
    assert "2-component link" in err


def test_huge_strand_count_is_usage_error(monkeypatch, capsys):
    # The table knots still build their short permutations; only a long one
    # would mean the huge strand count reached the closure check.
    real = knots.BraidWord.permutation

    def short_permutation(self):
        if self.strands > 1000:
            raise AssertionError("a long closure permutation was built")
        return real(self)

    monkeypatch.setattr(knots.BraidWord, "permutation", short_permutation)
    code, _, err = run(capsys, "alexander", "strands=1000000000; 1")
    assert code == 2
    assert err.startswith("usage error:") and "at least 999999999 components" in err


def test_table_override(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text("mytref: strands=2; 1 1 1\n", encoding="utf-8")
    code, out, _ = run(capsys, "--table", str(table), "alexander", "mytref")
    assert code == 0
    assert out.strip() == "1*t^-1 - 1 + 1*t^1"
    code, _, err = run(capsys, "--table", str(tmp_path / "missing.txt"), "alexander", "x")
    assert code == 2


def test_selftest_single_criterion(capsys):
    code, out, _ = run(capsys, "selftest", "--only", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("PASS  4. K3 and blow-up bookkeeping:")
    assert lines[-1] == "1/1 criteria passed"


def test_selftest_bad_only_values(capsys):
    code, _, err = run(capsys, "selftest", "--only", "banana")
    assert code == 2
    code, _, err = run(capsys, "selftest", "--only", "99")
    assert code == 2
    assert "no such criterion" in err


def test_selftest_failure_exits_3(capsys, monkeypatch):
    def exploding():
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(acceptance, "CRITERIA", ((1, "synthetic", exploding),))
    code, out, _ = run(capsys, "selftest")
    assert code == 3
    assert "FAIL" in out and "synthetic failure" in out
    assert "0/1 criteria passed" in out


def test_missing_required_option_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invariant", "3_1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["invariant", "3_1", "--n", "1"],
        ["homology", "3_1", "--n", "0"],
        ["repvar", "3_1", "--n", "1"],
        ["series", "3_1", "--order", "-1"],
        ["mahler", "3_1", "--samples", "0"],
        ["dim", "--n", "1", "--k3"],
        ["repvar", "3_1", "--n", "2", "--cap", "0"],
        ["mahler", "3_1", "--n-max", "1"],
    ],
)
def test_out_of_range_argument_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err
