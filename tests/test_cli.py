"""Command line behavior: outputs, exit codes, stream separation."""

import json

import pytest

from hdcalc.cli import main
from hdcalc.ratfield import RatFun
from hdcalc.multicopy import SigmaArray


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_verify_ybe(capsys):
    rc, out, _ = run(capsys, "verify", "ybe", "-n", "3")
    assert rc == 0
    assert out.strip() == "729/729 pass"


def test_verify_other_suites(capsys):
    for what in ("rsq", "ice", "shift", "skew", "qid"):
        rc, out, _ = run(capsys, "verify", what, "-n", "2")
        assert rc == 0
        assert out.strip().endswith("pass")


def test_verify_rejects_empty_sweep(capsys):
    rc, out, err = run(capsys, "verify", "ybe", "-n", "0")
    assert rc == 2
    assert out == "" and "n >= 1" in err


def test_check_pbw_flat(capsys):
    rc, out, _ = run(capsys, "check-pbw", "-n", "2", "--sigmas", "1;1")
    assert rc == 0
    assert out.strip() == "flat"


def test_check_pbw_not_flat_puts_witness_on_stderr(capsys):
    rc, out, err = run(capsys, "check-pbw", "--sigmas", "h1;h2")
    assert rc == 1
    assert out.strip() == "not flat"
    assert "fails:" in err


def test_solve_potential(capsys):
    rc, out, _ = run(capsys, "solve-potential",
                     "--sigmas", "h1+h1+h2-1;h2+h1+h2-1")
    assert rc == 0
    assert out.strip() == "H(2)"


def test_solve_potential_ones(capsys):
    rc, out, _ = run(capsys, "solve-potential", "--sigmas", "1;1;1")
    assert rc == 0
    assert out.strip() == "H(1)"


def test_solve_potential_rejects_nonflat(capsys):
    rc, _, err = run(capsys, "solve-potential", "--sigmas", "h1;h2")
    assert rc == 1
    assert "check failed" in err


def test_nf_basic(capsys):
    rc, out, _ = run(capsys, "nf", "x1*d1", "-n", "2", "--sigmas", "1;1")
    assert rc == 0
    assert out.strip() == "-1/(h1-h2-1)*d2*x2 + d1*x1 - 1"


def test_nf_json_reingestion(capsys):
    args = ("-n", "2", "--sigmas", "1;1")
    rc, out, _ = run(capsys, "nf", "x1*d1", *args, "--format", "json")
    assert rc == 0
    blob = out.strip()
    json.loads(blob)
    rc, out2, _ = run(capsys, "nf", blob, "--in", "json", *args, "--format", "json")
    assert rc == 0
    assert out2.strip() == blob


def test_nf_strategy_flag(capsys):
    rc1, out1, _ = run(capsys, "nf", "x1*d1*d2", "-n", "2", "--potential",
                       "H(2)", "--strategy", "left")
    rc2, out2, _ = run(capsys, "nf", "x1*d1*d2", "-n", "2", "--potential",
                       "H(2)", "--strategy", "right")
    assert rc1 == rc2 == 0
    assert out1 == out2  # flat, so the strategies agree


def test_mul(capsys):
    rc, out, _ = run(capsys, "mul", "d1", "x1", "-n", "1", "--sigmas", "h1")
    assert rc == 0
    assert out.strip() == "d1*x1"
    rc, out, _ = run(capsys, "mul", "x1", "d1", "-n", "1", "--sigmas", "h1")
    assert rc == 0
    assert out.strip() == "d1*x1 - h1"


def test_delta_check(capsys):
    rc, out, _ = run(capsys, "delta-check", "H(2)", "-n", "3")
    assert rc == 0 and out.strip() == "pass"
    rc, out, err = run(capsys, "delta-check", "h1*h2", "-n", "2")
    assert rc == 1 and out.strip() == "fail"
    assert "(i,j)" in err


def test_decompose(capsys):
    rc, out, _ = run(capsys, "decompose", "(h2^2)/chi(2) + 3*H(2)", "-n", "3")
    assert rc == 0
    assert out.strip() == "(h2^2)/chi(2) + 3*H(2)"
    rc, out, _ = run(capsys, "decompose", "H(1)", "-n", "2", "--format", "json")
    obj = json.loads(out)
    assert obj["symmetric"] == [[1, "1"]]
    assert obj["parts"] == {}


def test_central_frozen(capsys):
    rc, out, _ = run(capsys, "central", "-n", "2", "--potential", "H(1)")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rho_0 = h1 + h2"
    assert lines[1] == "rho_1 = h1*h2"
    assert lines[2] == "c_1 = d2*x2 + d1*x1 + (-h1 - h2)"


def test_lw_character(capsys):
    rc, out, _ = run(capsys, "lw-character", "-n", "2",
                     "--lambda", "4/3;8/3", "--potential", "H(1)")
    assert rc == 0
    assert out.strip().splitlines() == ["c_1 = -2", "c_2 = -5/9"]


def test_lw_eval(capsys):
    rc, out, _ = run(capsys, "lw-eval", "x2*x1", "-n", "2",
                     "--lambda", "4/3;8/3")
    assert rc == 0
    assert out.strip() == "x2*x1"


def test_lw_nongeneric_weight_is_usage_error(capsys):
    rc, _, err = run(capsys, "lw-character", "-n", "2",
                     "--lambda", "1;2", "--potential", "H(1)")
    assert rc == 2
    assert "integer" in err


def test_zhelobenko(capsys):
    rc, out, _ = run(capsys, "zhelobenko-check", "-n", "2", "--potential", "H(1)")
    assert rc == 0 and out.strip() == "i=1: pass"
    rc, out, _ = run(capsys, "zhelobenko-check", "-n", "2",
                     "--potential", "1/chi(1)")
    assert rc == 1 and out.strip() == "i=1: fail"


def test_flatness_file(tmp_path, capsys):
    s = SigmaArray.constant(2, 2, 2, 1)
    path = tmp_path / "sig.json"
    path.write_text(json.dumps(s.to_json()), encoding="utf-8")
    rc, out, _ = run(capsys, "flatness", "-n", "2", "--copies", "2,2",
                     "--sigma-file", str(path))
    assert rc == 0 and out.strip() == "flat"
    bad = SigmaArray(2, 2, 2, {(i, 1, 1): RatFun.var(2, i) for i in (1, 2)})
    path.write_text(json.dumps(bad.to_json()), encoding="utf-8")
    rc, out, err = run(capsys, "flatness", "-n", "2", "--copies", "2,2",
                       "--sigma-file", str(path))
    assert rc == 1 and out.strip() == "not flat"
    assert "fails:" in err


def test_flatness_entries_only_file(tmp_path, capsys):
    s = SigmaArray.constant(2, 1, 2, {(1, 1): 2, (1, 2): 3})
    ent = [{"i": i, "alpha": a, "beta": b, "value": v.to_json()}
           for (i, a, b), v in sorted(s.entries.items())]
    path = tmp_path / "ent.json"
    path.write_text(json.dumps(ent), encoding="utf-8")
    rc, out, _ = run(capsys, "flatness", "-n", "2", "--copies", "2,1",
                     "--sigma-file", str(path))
    assert rc == 0 and out.strip() == "flat"


def test_usage_errors(capsys):
    assert run(capsys, )[0] == 2  # no subcommand
    assert run(capsys, "nf", "x1 + + 2")[0] == 2  # parse error
    assert run(capsys, "nf", "x3", "-n", "2")[0] == 2  # index above n
    assert run(capsys, "nf", "1/x1", "-n", "1")[0] == 2  # bad division
    assert run(capsys, "nf", "x1", "--sigmas", "1", "--potential", "H(1)")[0] == 2
    rc, _, err = run(capsys, "check-pbw", "-n", "2", "--sigmas", "1;1;1")
    assert rc == 2 and "--n 2" in err


@pytest.mark.parametrize("expr", ["1/0", "1/(h1-h1)"])
def test_division_by_zero_is_usage_error(capsys, expr):
    rc, out, err = run(capsys, "nf", expr, "-n", "2")
    assert rc == 2 and out == ""
    assert err.strip() == "error: division by zero"


def test_nf_inverse_of_huge_shift(capsys):
    rc, out, _ = run(capsys, "nf", "1/(h1-h2+10^20)", "-n", "2")
    assert rc == 0
    assert out.strip() == "1/(h1-h2+100000000000000000000)"


@pytest.mark.parametrize("expr", ["(" * 3000 + "h1" + ")" * 3000,
                                  "+".join(["h1"] * 3000)],
                         ids=["parentheses", "flat-sum"])
def test_deep_nesting_is_usage_error(capsys, expr):
    rc, out, err = run(capsys, "nf", expr, "-n", "2")
    assert rc == 2 and out == ""
    assert err.strip() == "error: expression nested too deeply"


def test_help_exits_zero(capsys):
    assert main(["-h"]) == 0
    capsys.readouterr()
    assert main(["nf", "-h"]) == 0
    capsys.readouterr()


def test_format_env_default(capsys, monkeypatch):
    monkeypatch.setenv("HDCALC_FORMAT", "latex")
    rc, out, _ = run(capsys, "nf", "d1*x1", "-n", "1")
    assert rc == 0
    assert out.strip() == r"\bar\partial_1 x^1"
    # explicit flag wins over the environment
    rc, out, _ = run(capsys, "nf", "d1*x1", "-n", "1", "--format", "text")
    assert out.strip() == "d1*x1"
