"""Expression grammar, evaluator and the three output formats."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hdcalc.ratfield import Poly, RatFun, DomainError
from hdcalc.diffring import RingSpec, NormalElement
from hdcalc.cli import main
from hdcalc.expressions import (parse, infer_n, evaluate, parse_and_eval,
                                ast_to_text, format_ratfun, format_element,
                                latex_ratfun, latex_element, format_value,
                                value_to_json, value_from_json)


def test_parse_numbers_and_generators():
    assert parse("42") == ("num", Fraction(42))
    assert parse("h3") == ("h", 3)
    assert parse("x1") == ("x", 1)
    assert parse("d12") == ("d", 12)
    assert parse("H(2)") == ("H", 2)
    assert parse("chi(1)") == ("chi", 1)


def test_precedence_and_associativity():
    # unary minus binds tighter than *
    assert parse("-h1*h2") == ("*", ("neg", ("h", 1)), ("h", 2))
    assert parse("h1 - h2 - h3") == ("-", ("-", ("h", 1), ("h", 2)), ("h", 3))
    # shift binds tighter than power
    v, _ = parse_and_eval("h1[e1]^2", 1)
    assert v == (RatFun.var(1, 1) + 1) ** 2


def test_negative_exponent():
    v, _ = parse_and_eval("(h1-h2)^-2", 2)
    assert v == RatFun.inverse_diff(2, 1, 2) ** 2
    v, _ = parse_and_eval("2^-1", 1)
    assert v == RatFun.const(1, Fraction(1, 2))


def test_shift_vectors():
    v, _ = parse_and_eval("h1[e1-e2]", 2)
    assert v == RatFun.var(2, 1) + 1
    v, _ = parse_and_eval("h1[-e1+e2]", 2)
    assert v == RatFun.var(2, 1) - 1
    v, _ = parse_and_eval("(1/(h1-h2))[-e1][-e1]", 2)
    assert v == RatFun.inverse_diff(2, 1, 2, -2)


def test_delta_call():
    v, _ = parse_and_eval("Delta(1,H(2))", 2)
    want = RatFun.from_poly(Poly(2, {(1, 0): Fraction(2), (0, 1): Fraction(1),
                                     (0, 0): Fraction(-1)}))
    assert v == want
    assert format_ratfun(v) == "2*h1 + h2 - 1"


def test_infer_n():
    assert infer_n(parse("H(5)")) == 0  # degree argument, not an index
    assert infer_n(parse("x3*h1")) == 3
    assert infer_n(parse("Delta(2,1)")) == 2
    assert infer_n(parse("h1[e2]")) == 2
    assert infer_n(parse("chi(4)")) == 4


def test_evaluate_in_ring():
    n = 1
    spec = RingSpec(n, (RatFun.one(n),))
    v = evaluate(parse("x1*d1"), n, spec)
    assert isinstance(v, NormalElement)
    assert format_element(v) == "d1*x1 - 1"
    assert latex_element(v) == r"\bar\partial_1 x^1 - 1"


def test_format_ratfun_shapes():
    n = 2
    assert format_ratfun(RatFun.inverse_diff(n, 1, 2)) == "1/(h1-h2)"
    f = RatFun.inverse_diff(n, 1, 2) ** 2
    assert format_ratfun(f) == "1/(h1-h2)^2"
    g = RatFun.build(Poly.const(3, 1), [(1, 2, 0), (1, 3, 0)])
    assert format_ratfun(g) == "1/((h1-h2)*(h1-h3))"
    assert format_ratfun(-RatFun.inverse_diff(n, 1, 2)) == "-1/(h1-h2)"
    assert latex_ratfun(RatFun.inverse_diff(n, 1, 2)) == \
        r"\frac{1}{(\tilde h_1 - \tilde h_2)}"


def test_text_roundtrip_preserves_value():
    n = 2
    spec = RingSpec(n, (RatFun.one(n), RatFun.one(n)))
    samples = ["x1*d1 + 3*x2", "(h1-h2)^-1 * d2", "H(2) - e(2)",
               "chi(1)*x1", "d1*d2 + 1/2"]
    for s in samples:
        v = evaluate(parse(s), n, spec)
        txt = format_value(v)
        v2 = evaluate(parse(txt), n, spec)
        if isinstance(v, NormalElement) and not isinstance(v2, NormalElement):
            v2 = spec.coeff(v2)
        assert v2 == v


def test_json_roundtrip_preserves_value():
    n = 2
    spec = RingSpec(n, (RatFun.one(n), RatFun.one(n)))
    for s in ["x1*d1", "1/(h1-h2)", "H(3)"]:
        v = evaluate(parse(s), n, spec)
        blob = format_value(v, "json")
        v2 = value_from_json(json.loads(blob))
        assert v2 == v


def test_ast_print_parse_roundtrip_random():
    rng = random.Random(17)

    def gen(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([("num", Fraction(rng.randrange(1, 9))),
                               ("h", rng.randrange(1, 3)),
                               ("x", rng.randrange(1, 3)),
                               ("d", rng.randrange(1, 3)),
                               ("H", rng.randrange(4)),
                               ("chi", rng.randrange(1, 3))])
        op = rng.choice(["+", "-", "*", "/", "neg", "^", "shift", "Delta"])
        if op in "+-*/":
            return (op, gen(depth - 1), gen(depth - 1))
        if op == "neg":
            return (op, gen(depth - 1))
        if op == "^":
            return (op, gen(depth - 1), rng.choice([-2, -1, 2, 3]))
        if op == "shift":
            units = tuple((rng.randrange(1, 3), rng.choice([1, -1]))
                          for _ in range(rng.randrange(1, 3)))
            return (op, gen(depth - 1), units)
        return ("Delta", rng.randrange(1, 3), gen(depth - 1))

    for _ in range(60):
        ast = gen(3)
        assert parse(ast_to_text(ast)) == ast


_INDEX = st.integers(1, 12)
_AST_LEAF = st.one_of(
    st.builds(lambda k: ("num", Fraction(k)), st.integers(0, 20)),
    st.tuples(st.sampled_from(["h", "x", "d", "chi"]), _INDEX),
    st.tuples(st.sampled_from(["H", "e"]), st.integers(0, 12)))


def _ast_node(sub):
    return st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*", "/"]), sub, sub),
        st.tuples(st.just("neg"), sub),
        st.tuples(st.just("^"), sub, st.integers(-12, 12)),
        st.tuples(st.just("shift"), sub, st.lists(
            st.tuples(_INDEX, st.sampled_from([1, -1])),
            min_size=1, max_size=3).map(tuple)),
        st.tuples(st.just("Delta"), _INDEX, sub))


@settings(max_examples=300)
@given(st.recursive(_AST_LEAF, _ast_node, max_leaves=12))
def test_ast_print_parse_roundtrip_property(ast):
    assert parse(ast_to_text(ast)) == ast


@st.composite
def _ratfuns(draw, n):
    coeff = st.one_of(st.integers(-12, 12),
                      st.fractions(-5, 5, max_denominator=7)).filter(bool)
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * n), coeff, max_size=4))
    pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
    factor = st.tuples(pair, st.integers(-3, 3)).map(lambda t: (*t[0], t[1]))
    den = draw(st.lists(st.tuples(factor, st.integers(1, 3)), max_size=3))
    return RatFun.build(Poly(n, terms), den)


@st.composite
def _values(draw):
    n = draw(st.integers(2, 3))
    if draw(st.booleans()):
        return draw(_ratfuns(n))
    mono = st.tuples(*[st.integers(0, 2)] * n)
    return NormalElement(n, draw(st.dictionaries(
        st.tuples(mono, mono), _ratfuns(n), max_size=3)))


@settings(max_examples=150)
@given(_values())
def test_text_and_json_roundtrip_property(v):
    spec = RingSpec(v.n)
    back = evaluate(parse(format_value(v)), v.n, spec)
    if isinstance(v, NormalElement) and isinstance(back, RatFun):
        back = spec.coeff(back)  # no generator left to print
    assert back == v
    assert value_from_json(value_to_json(v)) == v
    assert value_from_json(json.loads(format_value(v, "json"))) == v


def test_syntax_errors_carry_position():
    with pytest.raises(SyntaxError) as exc:
        parse("x1 + + 2")
    assert "column 6" in str(exc.value)
    with pytest.raises(SyntaxError):
        parse("h1[")
    with pytest.raises(SyntaxError):
        parse("H(2")
    with pytest.raises(SyntaxError):
        parse("x1 @ 2")


def test_domain_errors():
    with pytest.raises(DomainError):
        parse_and_eval("1/x1")  # only weight functions are invertible
    with pytest.raises(DomainError):
        parse_and_eval("x1[e1]")  # shifts act on coefficients
    with pytest.raises(DomainError):
        parse_and_eval("Delta(1,x1)")
    with pytest.raises(DomainError):
        evaluate(parse("x3"), 2)
    with pytest.raises(DomainError):
        parse_and_eval("x1^-1")


def test_element_json_wrapper():
    n = 2
    spec = RingSpec(n)
    el = spec.x(1) + spec.d(2).scale(RatFun.inverse_diff(n, 1, 2))
    obj = value_to_json(el)
    assert obj["n"] == n and "terms" in obj
    assert value_from_json(obj) == el
    f = RatFun.inverse_diff(n, 1, 2)
    obj = value_to_json(f)
    assert obj["n"] == n and "terms" not in obj
    assert value_from_json(obj) == f


def test_printer_styles_pinned(capsys):
    """Exact text and LaTeX for each place where the two styles differ."""
    def both(v):
        return format_value(v), format_value(v, "latex")

    # indices and exponents >= 10 are braced in LaTeX only
    f = RatFun.var(11, 11) ** 10 * RatFun.var(11, 1)
    assert both(f) == ("h1*h11^10", r"\tilde h_1 \tilde h_{11}^{10}")
    top = tuple(int(i == 11) for i in range(1, 12))
    e = NormalElement(11, {(top, tuple(12 * k for k in top)): RatFun.one(11)})
    assert both(e) == ("d11*x11^12", r"\bar\partial_{11} (x^{11})^{12}")
    # a powered x^i is parenthesised; a rational constant is \frac in LaTeX
    e = NormalElement(1, {((0,), (2,)): RatFun.one(1),
                          ((0,), (1,)): RatFun.const(1, Fraction(2, 3))})
    assert both(e) == ("x1^2 + 2/3*x1", r"(x^1)^2 + \frac{2}{3} x^1")
    assert both(RatFun.const(1, Fraction(2, 3))) == ("2/3", r"\frac{2}{3}")
    # a two-factor denominator
    g = RatFun.build(Poly.var(3, 1) + Poly.const(3, 1), [(1, 2, 0), (1, 3, 1)])
    assert both(g) == (
        "(h1 + 1)/((h1-h2)*(h1-h3+1))",
        r"\frac{\tilde h_1 + 1}{(\tilde h_1 - \tilde h_2) (\tilde h_1 - \tilde h_3 + 1)}")
    # text moves the sign out of a one-term numerator, LaTeX does not
    e = NormalElement(2, {((1, 0), (0, 0)): -RatFun.inverse_diff(2, 1, 2),
                          ((0, 0), (1, 0)): -RatFun.var(2, 1)
                          * RatFun.inverse_diff(2, 1, 2, 1)})
    assert both(e) == (
        "-h1/(h1-h2+1)*x1 - 1/(h1-h2)*d1",
        r"\left(\frac{-\tilde h_1}{(\tilde h_1 - \tilde h_2 + 1)}\right) x^1"
        r" + \left(\frac{-1}{(\tilde h_1 - \tilde h_2)}\right) \bar\partial_1")
    # a polynomial coefficient: text parenthesises it, LaTeX only before a
    # monomial, and an unbracketed LaTeX sum led by a negative term moves its
    # sign out
    p = -RatFun.var(2, 1) - RatFun.var(2, 2)
    e = NormalElement(2, {((0, 0), (1, 0)): p, ((0, 0), (0, 0)): p})
    assert both(e) == (
        "(-h1 - h2)*x1 + (-h1 - h2)",
        r"\left(-\tilde h_1 - \tilde h_2\right) x^1 - \tilde h_1 - \tilde h_2")
    e = NormalElement(2, {((0, 0), (0, 0)): p})
    assert both(e) == ("(-h1 - h2)", r"-\tilde h_1 - \tilde h_2")
    # zero
    assert both(NormalElement(2, {})) == ("0", "0")
    assert both(RatFun.zero(2)) == ("0", "0")
    # a decomposition moves the sign of each part into its join
    assert main(["decompose", "(h2^2 - 3*h2 + 1/2)/chi(2) - H(1)",
                 "-n", "3"]) == 0
    assert capsys.readouterr().out == "(1/2 - 3*h2 + h2^2)/chi(2) - H(1)\n"
