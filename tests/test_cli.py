"""Command line behavior: outputs, exit codes, stream separation."""

import contextlib
import io
import json
import pathlib
import re
import shlex
import sys

import pytest
from hypothesis import given, settings, strategies as st

from hdcalc import cli, diffring
from hdcalc.cli import main
from hdcalc.diffring import RingSpec, multiply, normal_form
from hdcalc.expressions import evaluate, format_value, parse, value_from_json
from hdcalc.ratfield import RatFun
from hdcalc.multicopy import SigmaArray


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def _readme_examples():
    """(command line, documented stdout) of each `$ hdcalc ...` example in
    README.md; an example's output runs to the next blank line or fence."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^\$ hdcalc (.*)\n((?:(?!```).+\n)*)",
                        readme.read_text(encoding="utf-8"), re.M)
    assert len(blocks) >= 6
    return blocks


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("line, want", README_EXAMPLES,
                         ids=[line for line, _ in README_EXAMPLES])
def test_readme_example(capsys, line, want):
    rc, out, _ = run(capsys, *shlex.split(line))
    assert rc == 0
    assert out == want


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


def test_check_pbw_prints_the_first_residual(capsys):
    rc, out, err = run(capsys, "check-pbw", "-n", "2", "--sigmas", "1;h1")
    assert rc == 1 and out == "not flat\n"
    lines = err.splitlines()
    assert lines[0].startswith("fails: ") and lines[-1].startswith("residual: ")
    assert all(line.startswith("fails: ") for line in lines[:-1])
    # the first failing word, e.g. x1*d1*d2
    w = [(t[0], int(t[1:])) for t in lines[0][len("fails: "):].split("*")]
    assert len(w) == 3
    spec = RingSpec(2, (RatFun.one(2), RatFun.var(2, 1)))
    want = normal_form(spec, w, "left") - normal_form(spec, w, "right")
    assert not want.is_zero()
    assert evaluate(parse(lines[-1][len("residual: "):]), 2, spec) == want


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


def test_nf_json_prints_the_element_it_read(capsys, monkeypatch):
    # an element read from JSON is in normal form already: nf prints it
    # without walking its words, so a huge d exponent costs no rewriting
    def refuse(*args):
        raise AssertionError("nf --in json rewrote its input")

    monkeypatch.setattr(diffring, "_rewrite", refuse)
    args = ("-n", "2", "--sigmas", "1;h1")
    blob = json.dumps({"n": 2, "terms": [
        {"d": [4_000_000, 0], "x": [0, 0], "coeff": {"num": [[[0, 0], "1/1"]]}},
        {"d": [1, 0], "x": [0, 2], "coeff": {"num": [[[1, 0], "-2/3"]],
                                             "den": [[1, 2, 1, 1]]}}]})
    rc, text, _ = run(capsys, "nf", blob, "--in", "json", *args)
    assert rc == 0
    assert text.strip() == format_value(value_from_json(json.loads(blob)))
    assert "d1^4000000" in text
    rc, out, _ = run(capsys, "nf", blob, "--in", "json", *args,
                     "--format", "json")
    assert rc == 0
    assert json.loads(out) == value_from_json(json.loads(blob)).to_json()
    assert value_from_json(json.loads(out)) == value_from_json(json.loads(blob))


def test_nf_strategy_flag(capsys):
    rc1, out1, _ = run(capsys, "nf", "x1*d1*d2", "-n", "2", "--potential",
                       "H(2)", "--strategy", "left")
    rc2, out2, _ = run(capsys, "nf", "x1*d1*d2", "-n", "2", "--potential",
                       "H(2)", "--strategy", "right")
    assert rc1 == rc2 == 0
    assert out1 == out2  # flat, so the strategies agree
    # sigma = (1, h1) is not flat: the flag reaches the product, and each
    # strategy prints the library's product under it
    spec = RingSpec(2, (RatFun.one(2), RatFun.var(2, 1)))
    a, b = (evaluate(parse(t), 2, spec) for t in ("x1*x1", "d1*d1"))
    outs = {}
    for strategy in ("left", "right"):
        rc, outs[strategy], _ = run(
            capsys, "nf", "(x1*x1)*(d1*d1)", "-n", "2", "--sigmas", "1;h1",
            "--strategy", strategy)
        assert rc == 0
        assert outs[strategy] == format_value(
            multiply(spec, a, b, strategy)) + "\n"
    assert outs["left"] != outs["right"]
    assert "(2*h1 - 4*h2 - 6)/((h1-h2-2)*(h1-h2-1))*d2*x2" in outs["left"]
    assert " + 4/(h1-h2-1)*d2*x2 " in outs["right"]


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
    rc, out, _ = run(capsys, "decompose",
                     "(h2^2 - 3*h2 + 1/2)/chi(2) - H(1) + 2*H(3)", "-n", "3",
                     "--format", "latex")
    assert rc == 0
    assert out == (r"\frac{\frac{1}{2} - 3 \tilde h_2 + \tilde h_2^2}{\chi_2}"
                   r" - H_1 + 2 H_3" "\n")
    rc, out, _ = run(capsys, "decompose", "(h2^2 - 3*h2 + 1/2)/chi(2) - H(1)",
                     "-n", "3")
    assert rc == 0
    assert out == "(1/2 - 3*h2 + h2^2)/chi(2) - H(1)\n"


def test_central_frozen(capsys):
    rc, out, _ = run(capsys, "central", "-n", "2", "--potential", "H(1)")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rho_0 = h1 + h2"
    assert lines[1] == "rho_1 = h1*h2"
    assert lines[2] == "c_1 = d2*x2 + d1*x1 + (-h1 - h2)"
    rc, out, _ = run(capsys, "central", "-n", "2", "--potential", "H(1)",
                     "--format", "latex")
    assert rc == 0
    assert out.splitlines() == [
        r"rho_0 = \tilde h_1 + \tilde h_2",
        r"rho_1 = \tilde h_1 \tilde h_2",
        r"c_1 = \bar\partial_2 x^2 + \bar\partial_1 x^1 - \tilde h_1 - \tilde h_2",
        r"c_2 = \left(\tilde h_1\right) \bar\partial_2 x^2"
        r" + \left(\tilde h_2\right) \bar\partial_1 x^1 - \tilde h_1 \tilde h_2",
    ]


def test_central_json_rho_round_trips(capsys):
    """Each rho_k line of --format json is one JSON value, equal to the
    polynomial the text format prints."""
    argv = ("central", "-n", "3", "--potential", "H(2)")
    texts, jsons = ([line.split(" = ", 1) for line in run(capsys, *argv, *fmt)[1]
                     .splitlines() if line.startswith("rho_")]
                    for fmt in ((), ("--format", "json")))
    assert [name for name, _ in jsons] == ["rho_0", "rho_1", "rho_2"]
    for (_, text), (_, js) in zip(texts, jsons):
        assert format_value(value_from_json(json.loads(js))) == text


def test_lw_character(capsys):
    rc, out, _ = run(capsys, "lw-character", "-n", "2",
                     "--lambda", "4/3;8/3", "--potential", "H(1)")
    assert rc == 0
    assert out.strip().splitlines() == ["c_1 = -2", "c_2 = -5/9"]


_FRACTION_POTENTIAL = ("4/3*H(1) - 1/2*H(2) + 3/5*H(3)"
                       " + (1/3 - 2*h2 + h2^2)/chi(2)")
# each potential with the lowest n it is read at; H(0) is the constant 1
_ROUTE_POTENTIALS = {
    "H(2)-H(1)": 1,
    "H(3)+2*H(1)": 1,
    "1/chi(1)": 1,
    "H(2)+h2/chi(2)": 2,
    "1/chi(2)+h3/chi(3)": 3,
    _FRACTION_POTENTIAL: 2,
    _FRACTION_POTENTIAL + " + (3 + 1/7*h4)/chi(4)": 4,
    "H(1)+5": 1,
    "H(2)-3*H(0)+1/chi(2)": 2,
}
_LAMBDA = ("1/3", "2/5", "4/7", "5/9")


def _sigmas_of(potential, n):
    return ";".join(f"Delta({j},{potential})" for j in range(1, n + 1))


def _family_commands(n):
    return (["central", "-n", str(n)],
            ["central", "-n", str(n), "--format", "latex"],
            ["central", "-n", str(n), "--format", "json"],
            ["lw-character", "-n", str(n), "--lambda", ";".join(_LAMBDA[:n])])


@pytest.mark.parametrize("potential, n", [
    (f, n) for f, low in _ROUTE_POTENTIALS.items() for n in range(low, 5)])
def test_potential_and_its_sigmas_give_the_same_family(capsys, potential, n):
    """--potential F and --sigmas "Delta(1,F);...;Delta(n,F)" print the
    same lines: the family depends on F only through its sigma, so F's
    constant term shows in neither."""
    for argv in _family_commands(n):
        given = run(capsys, *argv, "--potential", potential)
        assert given[0] == 0 and given[1]
        assert run(capsys, *argv, "--sigmas", _sigmas_of(potential, n)) == given


def test_a_given_potential_is_not_reconstructed(capsys, monkeypatch):
    """--potential builds the family from the potential as given; only
    --sigmas reconstructs one."""
    class Reconstructed(Exception):
        pass

    def refuse(sigma):
        raise Reconstructed

    monkeypatch.setattr(cli, "reconstruct_potential", refuse)
    potential = "H(2)-3*H(0)+1/chi(2)"
    for argv in _family_commands(3):
        assert run(capsys, *argv, "--potential", potential)[0] == 0
        with pytest.raises(Reconstructed):
            run(capsys, *argv, "--sigmas", _sigmas_of(potential, 3))


_POLE_ELEMENT = json.dumps({"n": 2, "terms": [
    {"d": [1, 0], "x": [0, 1], "coeff": {"num": [[[1, 0], 3]]}}]})


@pytest.mark.parametrize("argv, want", [
    (["central", "-n", "2"],
     "rho_0 = (h1^3 - h2^3 - 1)/(h1-h2)\n"
     "rho_1 = (h1^3*h2 - h1*h2^3 - h1)/(h1-h2)\n"
     "c_1 = d2*x2 + d1*x1 + (-h1^3 + h2^3 + 1)/(h1-h2)\n"
     "c_2 = h1*d2*x2 + h2*d1*x1 + (-h1^3*h2 + h1*h2^3 + h1)/(h1-h2)\n"),
    (["lw-character", "-n", "2", "--lambda", "1/3;2/5"],
     "c_1 = -3646/225\nc_2 = 788/75\n"),
    (["nf", _POLE_ELEMENT, "--in", "json"], "3*h1*d1*x2\n"),
], ids=["central", "lw-character", "nf-json"])
def test_commands_that_never_read_the_ring_do_not_difference_f(
        capsys, monkeypatch, argv, want):
    """central and lw-character build their one ring from the potential in
    `central_family`, and nf --in json only checks its sigma flags: none
    of them differences --potential in the CLI."""
    def refuse(*args):
        raise AssertionError("Delta f taken in the CLI")

    monkeypatch.setattr(cli, "sigma_from_potential", refuse)
    assert run(capsys, *argv, "--potential", "H(2)+1/chi(2)") == (0, want, "")


@pytest.mark.parametrize("argv", _family_commands(2),
                         ids=["central", "central-latex", "central-json",
                              "lw-character"])
def test_a_potential_outside_w_fails_its_check(capsys, argv):
    # the given potential fails W's membership system; its sigma, given
    # instead, fails the flatness system
    assert run(capsys, *argv, "--potential", "h1^2") == (
        1, "", "check failed: delta system fails at (1, 2)\n")
    assert run(capsys, *argv, "--sigmas", _sigmas_of("h1^2", 2)) == (
        1, "", "check failed: sigma system fails at (i,j)=(1, 2)\n")


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


@pytest.mark.parametrize("entry", ["1e1000000", "1e{L}", "-1e-{L}",
                                   "0.{Z}1", "1e{LL}"],
                         ids=["1e1000000", "numerator", "denominator",
                              "decimal", "huge-exponent"])
def test_lambda_past_the_digit_limit_is_refused_before_any_work(
        capsys, monkeypatch, entry):
    """An entry of more digits than the int/str conversion limit allows is
    refused at once, its exponent read before 10**e is built."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("no limit on int/str conversion")
    entry = entry.format(L=limit, LL=10 ** 6 * limit, Z="0" * (limit - 1))
    monkeypatch.setattr(cli, "central_family", None)  # never reached
    rc, out, err = run(capsys, "lw-character", "-n", "2", "--lambda",
                       "1/3;" + entry, "--potential", "H(1)")
    assert (rc, out) == (2, "")
    assert err == f"error: --lambda entry 2 has more than {limit} digits\n"


def test_zhelobenko(capsys):
    rc, out, _ = run(capsys, "zhelobenko-check", "-n", "2", "--potential", "H(1)")
    assert rc == 0 and out.strip() == "i=1: pass"
    rc, out, err = run(capsys, "zhelobenko-check", "-n", "2",
                       "--potential", "1/chi(1)")
    assert rc == 1 and out.strip() == "i=1: fail"
    assert "fails: x1*d1" in err.splitlines()


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


_ONE = {"num": [[[0, 0], "1/1"]], "den": []}
# an integer literal past the interpreter's int/str limit of 4,300 digits;
# json.dumps cannot write it, so the JSON texts holding it are spliced
_LONG = "7" * 5000
_LONG_EXPONENT = '{"num": [[[%s, 0], "1/1"]], "den": []}' % _LONG
_SIGMAS = {
    "not-json": "not json",
    "no-n": json.dumps({"copies": [1, 1], "entries": []}),
    "i-above-n": json.dumps({"n": 2, "copies": [1, 1], "entries": [
        {"i": 3, "alpha": 1, "beta": 1, "value": _ONE}]}),
    "fits": json.dumps({"n": 2, "copies": [1, 1], "entries": []}),
    "long-exponent": '{"n": 2, "copies": [1, 1], "entries": [{"i": 1,'
                     ' "alpha": 1, "beta": 1, "value": %s}]}' % _LONG_EXPONENT,
}


def _element(d, coeff=_ONE):
    return json.dumps({"n": 2, "terms": [{"d": d, "x": [0, 0],
                                          "coeff": coeff}]})


@pytest.mark.parametrize("argv", [
    ["nf", "not json", "--in", "json"],
    ["nf", '{"n":2}', "--in", "json"],
    ["nf", "[1,2]", "--in", "json"],
    ["nf", _element([1, 0, 0]), "--in", "json"],
    ["nf", _element([-1, 0]), "--in", "json"],
    ["nf", _element([0, 1], {"num": [[[0, 0, 1], "1/1"]], "den": []}),
     "--in", "json"],
    ["flatness", "-n", "2", "--copies", "1,1", "--sigma-file", "not-json"],
    ["flatness", "-n", "2", "--copies", "1,1", "--sigma-file", "no-n"],
    ["flatness", "-n", "2", "--copies", "1,1", "--sigma-file", "i-above-n"],
    ["flatness", "-n", "2", "--copies", "a,b", "--sigma-file", "fits"],
    ["flatness", "-n", "2", "--copies", "1,1,1", "--sigma-file", "fits"],
    ["flatness", "-n", "3", "--copies", "1,1", "--sigma-file", "fits"],
    ["lw-eval", "x1", "-n", "2", "--lambda", "a;b"],
    ["solve-potential", "-n", "3", "--sigmas", "1;1"],
    ["nf", "2^100000", "-n", "1"],
    ["nf", "2^20000", "-n", "1", "--format", "json"],
    ["nf", "2^20000", "-n", "1", "--format", "latex"],
    ["nf", _LONG, "-n", "1"],
    ["nf", '{"n":%s,"terms":[]}' % _LONG, "--in", "json"],
    ["nf", '{"n": 2, "terms": [{"d": [0, 0], "x": [0, 0], "coeff": %s}]}'
     % _LONG_EXPONENT, "--in", "json"],
    ["flatness", "-n", "2", "--copies", "1,1", "--sigma-file",
     "long-exponent"],
    ["central", "-n", "2", "--potential", "H(1) + 2^20000*H(2)"],
    ["lw-character", "-n", "2", "--potential", "2^20000*H(1)",
     "--lambda", "1/3;1/5"],
], ids=["nf-not-json", "nf-no-num", "nf-list", "nf-d-too-long",
        "nf-negative-d", "nf-coeff-exponents-too-long", "flatness-not-json",
        "flatness-no-n", "flatness-i-above-n", "copies-not-ints",
        "copies-three", "flatness-n-3-file-n-2", "lambda-not-rational",
        "sigma-count", "print-long-text", "print-long-json",
        "print-long-latex", "long-literal", "json-long-n",
        "json-long-exponent", "sigma-file-long-exponent",
        "central-long-line", "lw-character-long-line"])
def test_malformed_outside_input_is_usage_error(tmp_path, capsys, argv):
    argv = list(argv)
    if "--sigma-file" in argv:
        path = tmp_path / "sigma.json"
        path.write_text(_SIGMAS[argv[-1]], encoding="utf-8")
        argv[-1] = str(path)
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("blob, want", [
    (json.dumps({"n": 2, "terms": [{"d": [1, 0], "x": [0, 0], "coeff": c}
                                   for c in (_ONE, {"num": [[[0, 0], 2]]})]}),
     "3*d1"),
    (json.dumps({"n": 2, "num": [[[1, 0], "1/2"], [[1, 0], "1/2"],
                                 [[0, 0], 0]]}), "h1"),
], ids=["element", "rational-function"])
def test_nf_json_terms_with_equal_keys_add_up(capsys, blob, want):
    assert run(capsys, "nf", blob, "--in", "json") == (0, want + "\n", "")


@pytest.mark.parametrize("expr", ["1/0", "1/(h1-h1)"])
def test_division_by_zero_is_usage_error(capsys, expr):
    rc, out, err = run(capsys, "nf", expr, "-n", "2")
    assert rc == 2 and out == ""
    assert err.strip() == "error: division by zero"


def test_nf_inverse_of_huge_shift(capsys):
    rc, out, _ = run(capsys, "nf", "1/(h1-h2+10^20)", "-n", "2")
    assert rc == 0
    assert out.strip() == "1/(h1-h2+100000000000000000000)"


def test_nf_of_the_empty_element_of_a_huge_ring(capsys):
    # a ring without sigmas shares one zero among its n sigma entries
    blob = '{"n":1000000,"terms":[]}'
    assert run(capsys, "nf", "--in", "json", blob) == (0, "0\n", "")


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
    """HDCALC_FORMAT is read on every call of one process's parser."""
    monkeypatch.delenv("HDCALC_FORMAT", raising=False)
    argv = ("nf", "d1*x1", "-n", "1")
    assert run(capsys, *argv) == (0, "d1*x1\n", "")
    monkeypatch.setenv("HDCALC_FORMAT", "latex")
    assert run(capsys, *argv) == (0, "\\bar\\partial_1 x^1\n", "")
    # explicit flag wins over the environment
    assert run(capsys, *argv, "--format", "text") == (0, "d1*x1\n", "")
    monkeypatch.setenv("HDCALC_FORMAT", "")  # empty means unset
    assert run(capsys, *argv) == (0, "d1*x1\n", "")
    monkeypatch.setenv("HDCALC_FORMAT", "json")
    assert json.loads(run(capsys, *argv)[1])["n"] == 1
    monkeypatch.delenv("HDCALC_FORMAT")
    assert run(capsys, *argv) == (0, "d1*x1\n", "")


@pytest.mark.parametrize("value", ["bogus", "LATEX", " text"])
@pytest.mark.parametrize("argv", [
    ["nf", "d1*x1", "-n", "1"],
    ["central", "-n", "2", "--potential", "H(1)"],
], ids=["nf", "central"])
def test_bad_format_env_is_usage_error(capsys, monkeypatch, argv, value):
    monkeypatch.setenv("HDCALC_FORMAT", value)
    # rejected before any work
    monkeypatch.setattr(cli, "evaluate", None)
    monkeypatch.setattr(cli, "reconstruct_potential", None)
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err == f"error: HDCALC_FORMAT must be one of text, json, latex, not {value!r}\n"


def test_format_env_is_only_the_default_of_format(capsys, monkeypatch):
    monkeypatch.setenv("HDCALC_FORMAT", "bogus")
    assert run(capsys, "nf", "d1*x1", "-n", "1", "--format", "text") == \
        (0, "d1*x1\n", "")
    # a command without --format does not read it
    assert run(capsys, "check-pbw", "-n", "2", "--sigmas", "1;1") == \
        (0, "flat\n", "")


def test_parser_is_built_once_and_reused(capsys, monkeypatch):
    monkeypatch.delenv("HDCALC_FORMAT", raising=False)
    readme = dict(README_EXAMPLES)
    nf_line = 'nf "x1*d1" -n 2 --sigmas "1;1"'
    misses = cli.build_parser.cache_info().misses
    # a usage error, then a valid call
    assert run(capsys, "nf", "x1*", "-n", "2")[0] == 2
    assert run(capsys, *shlex.split(nf_line)) == (0, readme[nf_line], "")
    assert run(capsys, "nf", "--strategy", "sideways", "x1")[0] == 2
    assert run(capsys, *shlex.split(nf_line)) == (0, readme[nf_line], "")
    # a non-default --strategy does not stay for the next call
    argv = ("nf", "(x1*x1)*(d1*d1)", "-n", "2", "--sigmas", "1;h1")
    left = run(capsys, *argv, "--strategy", "left")
    right = run(capsys, *argv, "--strategy", "right")
    assert left[0] == right[0] == 0 and left != right
    assert run(capsys, *argv) == left
    # help, then a command
    assert main(["-h"]) == 0
    assert "usage: hdcalc" in capsys.readouterr().out
    assert main(["nf", "-h"]) == 0
    capsys.readouterr()
    assert run(capsys, *shlex.split(nf_line)) == (0, readme[nf_line], "")
    assert cli.build_parser.cache_info().misses == misses
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv", [
    ["nf", "x0", "-n", "3"],
    ["nf", "d0*x1", "-n", "2", "--sigmas", "1;1"],
    ["nf", "h2[e0]", "-n", "2"],
    ["nf", "h0", "-n", "2"],
    ["zhelobenko-check", "-n", "3", "--i", "0"],
    ["zhelobenko-check", "-n", "3", "--i", "3"],
    ["decompose", "1/chi(2)", "-n", "3", "--pivot", "0"],
    ["decompose", "1/chi(2)", "-n", "3", "--pivot", "4"],
], ids=["x0", "d0", "e0-shift", "h0", "zhelobenko-i0", "zhelobenko-i-n",
        "pivot0", "pivot-above-n"])
def test_index_outside_1_to_n_is_usage_error(capsys, argv):
    """Index 0 once wrapped round to n (x0 read as x3) or failed an assert."""
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_index_zero_stays_legal_in_symmetric_polynomials(capsys):
    assert run(capsys, "nf", "e(0) + H(0)", "-n", "2") == (0, "2\n", "")


@pytest.mark.parametrize("argv", [
    ["central", "-n", "0"],
    ["solve-potential", "-n", "0"],
    ["check-pbw", "-n", "0"],
    ["check-pbw", "-n", "-1"],
    ["nf", "x1", "-n", "0"],
    ["mul", "x1", "d1", "-n", "0"],
    ["delta-check", "H(1)", "-n", "0"],
    ["decompose", "H(1)", "-n", "0"],
    ["lw-eval", "x1", "-n", "0", "--lambda", ""],
    ["lw-character", "-n", "0", "--lambda", ""],
    ["zhelobenko-check", "-n", "0"],
    ["flatness", "-n", "0", "--copies", "1,1", "--sigma-file", "none.json"],
], ids=lambda argv: "-".join(argv[:1] + argv[argv.index("-n") + 1:][:1]))
def test_n_below_one_is_usage_error(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", "error: needs n >= 1\n")


@pytest.mark.parametrize("argv, texts", [
    (["nf", "x1*d1", "--sigmas", "1;h1"], ["x1*d1", "1", "h1"]),
    (["nf", "x1*d2", "--potential", "H(1)"], ["x1*d2", "H(1)"]),
    (["nf", _element([1, 0]), "--in", "json", "--sigmas", "1;h1"], ["1", "h1"]),
    (["mul", "x1", "d2", "-n", "2", "--sigmas", "1;1"], ["x1", "d2", "1", "1"]),
    (["check-pbw", "--sigmas", "h1;h2"], ["h1", "h2"]),
    (["delta-check", "H(2)", "-n", "3"], ["H(2)"]),
    (["decompose", "1/chi(2)", "-n", "3"], ["1/chi(2)"]),
    (["central", "-n", "2", "--potential", "H(1)"], ["H(1)"]),
    (["lw-eval", "x2*x1", "--lambda", "1/3;2/5", "--potential", "H(1)"],
     ["x2*x1", "H(1)"]),
    (["lw-character", "--lambda", "1/3;2/5", "--sigmas", "1;1"], ["1", "1"]),
    (["zhelobenko-check", "--potential", "H(1)", "-n", "3"], ["H(1)"]),
], ids=["nf-sigmas", "nf-potential", "nf-json", "mul", "check-pbw", "delta-check",
        "decompose", "central", "lw-eval", "lw-character", "zhelobenko-check"])
def test_each_input_text_is_parsed_once(capsys, monkeypatch, argv, texts):
    parsed = []

    def counted(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(cli, "parse", counted)
    assert run(capsys, *argv)[0] in (0, 1)
    assert sorted(parsed) == sorted(texts)


# The exit-code contract over the README grammar: every call returns 0, 1 or
# 2, and 1 or 2 explains itself on stderr.  The atoms include index 0, an
# index above a small n, poles, huge constants and shifts; sigma entries and
# potentials are drawn mostly from weight functions, so that most rings are
# built.


def _exprs(atoms):
    return st.recursive(
        st.sampled_from(atoms),
        lambda sub: st.one_of(
            st.tuples(sub, st.sampled_from("+-*/"), sub).map(
                lambda t: f"({t[0]}){t[1]}({t[2]})"),
            st.tuples(sub, st.integers(-1, 2)).map(
                lambda t: f"({t[0]})^{t[1]}"),
            sub.map(lambda s: f"(-{s})")),
        max_leaves=3)


_H_ATOMS = ("0", "1", "3", "h1", "h2", "h3", "h0", "chi(2)", "1/(h1-h2)",
            "2^100", "h2[e0]", "h1[e1-e2]", "H(1)", "H(2)", "H(0)", "e(2)",
            "e(0)", "Delta(1,h1*h2)", "1/chi(1)")
_EXPRS = _exprs(_H_ATOMS + ("x1", "x2", "d1", "d2", "d3", "x0"))
_H_EXPRS = _exprs(_H_ATOMS + ("x1",))
_SIGMA_COMMANDS = ("nf", "mul", "check-pbw", "solve-potential", "central",
                   "lw-eval", "lw-character", "zhelobenko-check")
_FORMAT_COMMANDS = ("nf", "mul", "decompose", "central", "lw-eval")


@st.composite
def _argv(draw):
    """A command line; option values are attached with "=", and a negation
    is bracketed, so that no argument starting with "-" is read as an
    option by argparse."""
    cmd = draw(st.sampled_from(_SIGMA_COMMANDS + ("delta-check", "decompose")))
    argv = [cmd]
    n = draw(st.sampled_from([-1, 0, 1, 2, 3, None]))
    if n is not None:
        argv.append(f"-n={n}")
    # lists one entry short, exact or one entry long
    size = max(0, (n if n and n > 0 else draw(st.integers(1, 3)))
               + draw(st.sampled_from([-1, 0, 0, 1])))
    if cmd in _SIGMA_COMMANDS:
        for flag in draw(st.sampled_from(
                [(), ("--sigmas",), ("--sigmas",), ("--potential",),
                 ("--potential",), ("--sigmas", "--potential")])):
            k = size if flag == "--sigmas" else 1
            argv.append(f"{flag}=" + ";".join(draw(_H_EXPRS) for _ in range(k)))
    if cmd.startswith("lw-"):
        argv.append("--lambda=" + ";".join(draw(st.sampled_from(
            ["1/3", "2/5", "4/7", "1", "x"])) for _ in range(size)))
    if cmd in _FORMAT_COMMANDS:
        argv += draw(st.sampled_from(
            [[], ["--format=text"], ["--format=json"], ["--format=latex"]]))
    argv += draw(st.sampled_from({
        "nf": [[], ["--strategy=right"], ["--in=json"]],
        "decompose": [[], ["--pivot=2"], ["--pivot=0"]],
        "zhelobenko-check": [[], ["--i=1"], ["--i=0"]]}.get(cmd, [[]])))
    return argv + [draw(_EXPRS) for _ in range(
        {"nf": 1, "delta-check": 1, "decompose": 1, "lw-eval": 1, "mul": 2}
        .get(cmd, 0))]


@settings(max_examples=2000)
@given(_argv())
def test_every_input_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    assert rc == 0 or err.getvalue()
