"""Expression language and formatters for the command line.

Grammar (EBNF):

    expr     = term  { ("+" | "-") term } ;
    term     = factor { ("*" | "/") factor } ;
    factor   = "-" factor | power ;
    power    = postfix [ "^" [ "-" ] integer ] ;
    postfix  = atom { shift } ;
    shift    = "[" [ "+" | "-" ] unit { ("+" | "-") unit } "]" ;
    unit     = "e" index ;
    atom     = integer | "h" index | "x" index | "d" index | call
             | "(" expr ")" ;
    call     = ("H" | "e") "(" integer ")" | "chi" "(" index ")"
             | "Delta" "(" index "," expr ")" ;
    index    = positive integer ;

Precedence, tightest first: shifts, "^", unary "-", "*" and "/", binary
"+" and "-"; binary operators associate to the left.  Division is only
defined when the divisor is a pure-h expression whose numerator factors
into integer-shifted differences.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from math import gcd

from .ratfield import (RatFun, DomainError, checked_int, int_from_text,
                       printing_numbers, reading_input, ring_mismatch)
from .rmatrix import chi as _chi, elementary_symmetric, complete_symmetric
from .diffring import RingSpec, NormalElement, multiply


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)(\d*)|([-+*/^(),\[\]]))")


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            tail = text[pos:].lstrip()
            if not tail:
                break
            raise SyntaxError(f"column {pos + 1}: unexpected character {tail[0]!r}")
        if m.group(1):
            out.append(("num", int_from_text(m.group(1)), m.start(1)))
        elif m.group(2):
            out.append(("name", (m.group(2), m.group(3)), m.start(2)))
        else:
            out.append(("op", m.group(4), m.start(4)))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, msg):
        pos = self.toks[self.i][2]
        raise SyntaxError(f"column {pos + 1}: {msg}")

    def expect_op(self, op):
        kind, val, _ = self.peek()
        if kind != "op" or val != op:
            self.fail(f"expected {op!r}")
        self.next()

    def expect_int(self):
        kind, val, _ = self.peek()
        if kind != "num":
            self.fail("expected an integer")
        self.next()
        return val

    def expect_index(self):
        kind, val, _ = self.peek()
        if kind != "num":
            self.fail("expected an integer")
        return self.index(val)

    def index(self, v):
        """int(v), an index written at the current token, which is consumed;
        v is a number token or the digits after a name, as 2 of x2."""
        v = int_from_text(v) if isinstance(v, str) else v
        if v < 1:
            self.fail("index must be positive")
        self.next()
        return v

    # grammar

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                node = (val, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = (val, node, self.factor())
            else:
                return node

    def factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return ("neg", self.factor())
        return self.power()

    def power(self):
        node = self.postfix()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            sign = 1
            kind, val, _ = self.peek()
            if kind == "op" and val == "-":
                self.next()
                sign = -1
            node = ("^", node, sign * self.expect_int())
        return node

    def postfix(self):
        node = self.atom()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "[":
                self.next()
                node = ("shift", node, self.shift_vector())
            else:
                return node

    def shift_vector(self):
        units = []
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = 1 if val == "+" else -1
        while True:
            kind, val, _ = self.peek()
            if kind != "name" or val[0] != "e" or not val[1]:
                self.fail("expected a shift unit e<i>")
            units.append((self.index(val[1]), sign))
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                sign = 1 if val == "+" else -1
                self.next()
                continue
            self.expect_op("]")
            return tuple(units)

    def atom(self):
        kind, val, _ = self.peek()
        if kind == "num":
            self.next()
            return ("num", Fraction(val))
        if kind == "op" and val == "(":
            self.next()
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "name":
            base, digits = val
            if digits:
                if base in ("h", "x", "d"):
                    return (base, self.index(digits))
                self.fail(f"unknown generator {base + digits!r}")
            if base in ("H", "e", "chi", "Delta"):
                self.next()
                self.expect_op("(")
                if base == "Delta":
                    j = self.expect_index()
                    self.expect_op(",")
                    node = self.expr()
                    self.expect_op(")")
                    return ("Delta", j, node)
                arg = self.expect_index() if base == "chi" else self.expect_int()
                self.expect_op(")")
                return (base, arg)
            self.fail(f"unknown name {base!r}")
        self.fail("expected an expression")


def parse(text):
    p = _Parser(text)
    node = p.expr()
    kind, val, pos = p.peek()
    if kind != "end":
        raise SyntaxError(f"column {pos + 1}: unexpected {val!r}")
    return node


def infer_n(ast):
    """Highest generator / weight index appearing in the tree."""
    tag = ast[0]
    if tag in ("h", "x", "d", "chi"):
        return ast[1]
    if tag == "num":
        return 0
    if tag in ("H", "e"):
        return 0
    if tag == "Delta":
        return max(ast[1], infer_n(ast[2]))
    if tag == "shift":
        return max(infer_n(ast[1]), max(j for j, _ in ast[2]))
    if tag == "neg":
        return infer_n(ast[1])
    if tag == "^":
        return infer_n(ast[1])
    return max(infer_n(ast[1]), infer_n(ast[2]))


def evaluate(ast, n, spec=None, strategy="left"):
    """Value of a parsed expression: RatFun if pure-h, else NormalElement;
    every product is reduced with `strategy` (see `diffring.multiply`)."""
    if spec is None:
        spec = RingSpec(n)
    elif spec.n != n:
        raise ring_mismatch(n, spec.n)

    def ev(node):
        tag = node[0]
        if tag == "num":
            return RatFun.const(n, node[1])
        if tag == "h":
            return RatFun.var(n, node[1])
        if tag in ("x", "d"):
            return spec.x(node[1]) if tag == "x" else spec.d(node[1])
        if tag == "H":
            return RatFun.from_poly(complete_symmetric(n, node[1]))
        if tag == "e":
            return RatFun.from_poly(elementary_symmetric(n, node[1]))
        if tag == "chi":
            return _chi(n, node[1])
        if tag == "Delta":
            f = ev(node[2])
            if not isinstance(f, RatFun):
                raise DomainError("Delta applies to pure-h expressions")
            return f.delta(node[1])
        if tag == "shift":
            f = ev(node[1])
            if not isinstance(f, RatFun):
                raise DomainError("shifts apply to pure-h expressions")
            svec = [0] * n
            for j, s in node[2]:
                svec[j - 1] += s
            return f.shift(tuple(svec))
        if tag == "neg":
            return -ev(node[1])
        if tag == "^":
            base, k = ev(node[1]), node[2]
            if isinstance(base, RatFun):
                return base ** k
            if k < 0:
                raise DomainError("negative power of a generator expression")
            out = spec.one()
            for _ in range(k):
                out = multiply(spec, out, base, strategy)
            return out
        l, r = ev(node[1]), ev(node[2])
        if tag == "/":
            if not isinstance(r, RatFun):
                raise DomainError("division by a generator expression")
            tag, r = "*", r.inverse()
        if tag not in ("+", "-", "*"):
            raise AssertionError(f"unhandled node {tag!r}")
        if isinstance(l, RatFun) and isinstance(r, RatFun):
            return l + r if tag == "+" else l - r if tag == "-" else l * r
        # a coefficient next to a generator expression is lifted into the ring
        l = spec.coeff(l) if isinstance(l, RatFun) else l
        r = spec.coeff(r) if isinstance(r, RatFun) else r
        if tag == "*":
            return multiply(spec, l, r, strategy)
        return l + r if tag == "+" else l - r

    # every index is at least 1 (the parser rejects 0), so this bounds every
    # index of the tree to 1..n before any node is evaluated
    if max(infer_n(ast), 1) > n:
        raise DomainError(f"expression uses index {infer_n(ast)} but n={n}")
    return ev(ast)


def parse_and_eval(text, n=None, spec=None):
    ast = parse(text)
    if n is None:
        n = infer_n(ast)
        if n == 0:
            n = 1
    return evaluate(ast, n, spec), n


# ---------------------------------------------------------------------------
# printing the AST (exact round-trip)


def ast_to_text(ast):
    def wrap(node, need):
        txt, prec = go(node)
        return f"({txt})" if prec < need else txt

    def go(node):
        tag = node[0]
        if tag == "num":
            return str(node[1]), 100
        if tag in ("h", "x", "d"):
            return f"{tag}{node[1]}", 100
        if tag in ("H", "e", "chi"):
            return f"{tag}({node[1]})", 100
        if tag == "Delta":
            return f"Delta({node[1]},{ast_to_text(node[2])})", 100
        if tag == "shift":
            bits = []
            for j, s in node[2]:
                bits.append(("-" if s < 0 else ("+" if bits else "")) + f"e{j}")
            return wrap(node[1], 90) + "[" + "".join(bits) + "]", 90
        if tag == "^":
            return wrap(node[1], 90) + "^" + str(node[2]), 80
        if tag == "neg":
            return "-" + wrap(node[1], 80), 70
        l, r = node[1], node[2]
        if tag in "*/":
            return wrap(l, 60) + tag + wrap(r, 70), 60
        return wrap(l, 50) + tag + wrap(r, 60), 50

    return go(ast)[0]


# ---------------------------------------------------------------------------
# value formatting: one renderer, two styles


def _sub(i):
    return str(i) if i < 10 else "{%d}" % i


def _text_quotient(num, dens, num_terms):
    den = dens[0] if len(dens) == 1 else "(" + "*".join(dens) + ")"
    return f"({num})/{den}" if num_terms > 1 else f"{num}/{den}"


# How each output format spells a generator (`names` + `sub(index)`), a
# product (`sep`), the + or - inside a linear factor (`op`), a quotient, and a
# non-constant coefficient f before a generator monomial: `pull_sign` prints
# -f*m as "- f*m" when f has a one-term numerator, `group` brackets f.  A
# decomposition writes a pole part pi_k(h_k)/chi_k with `pole(pi_k, k)` and a
# symmetric part with `sym(L)` for H_L.
_Style = namedtuple("_Style",
                    "names sub sep op quotient pull_sign group pole sym")
_TEXT = _Style(
    names={"h": "h", "d": "d", "x": "x"}, sub=str, sep="*", op=str,
    quotient=_text_quotient, pull_sign=True,
    group=lambda s, f, mono: f"({s})" if len(f.num.ints) > 1 and not f.den
    else s,
    pole="({})/chi({})".format, sym="H({})".format)
_LATEX = _Style(
    names={"h": r"\tilde h_", "d": r"\bar\partial_", "x": "x^"}, sub=_sub,
    sep=" ", op=" {} ".format,
    quotient=lambda num, dens, _: r"\frac{%s}{%s}" % (num, " ".join(dens)),
    pull_sign=False,
    group=lambda s, f, mono: r"\left(%s\right)" % s if mono else s,
    pole=lambda num, k: r"\frac{%s}{\chi_%s}" % (num, _sub(k)),
    sym=lambda L: "H_" + _sub(L))
_STYLES = {"text": _TEXT, "latex": _LATEX}


def _pow(st, base, m):
    if m == 1:
        return base
    return (f"({base})" if "^" in base else base) + "^" + st.sub(m)


def _gen(st, g, i, m):
    """g_i^m, or "" for m = 0."""
    return _pow(st, st.names[g] + st.sub(i), m) if m else ""


def _term(st, c, mono, den=1):
    """(sign, body) of the nonzero rational c / den, den >= 1, times the
    monomial text; c is an int, or a Fraction when den is 1."""
    sign = "-" if c < 0 else "+"
    c = abs(c)
    p, q = c.numerator, c.denominator * den
    g = gcd(p, q)
    p, q = p // g, q // g
    if mono and p == q == 1:
        return sign, mono
    body = str(p) if q == 1 else st.quotient(str(p), [str(q)], 1)
    return sign, body + st.sep + mono if mono else body


def _join(parts):
    """Signed terms as "a - b + c"; "0" for none."""
    if not parts:
        return "0"
    sign, body = parts[0]
    return ("-" if sign == "-" else "") + body + "".join(
        f" {sign} {body}" for sign, body in parts[1:])


def _poly(st, p):
    terms = sorted(p.ints.items(),
                   key=lambda t: (-sum(t[0]), tuple(-v for v in t[0])))
    return _join([_term(st, c, st.sep.join(
        _gen(st, "h", i, m) for i, m in enumerate(e, start=1) if m), p.den)
        for e, c in terms])


def _ratfun(st, f):
    num = _poly(st, f.num)
    if not f.den:
        return num
    dens = []
    for (i, j, a), m in sorted(f.den.items()):
        fac = _gen(st, "h", i, 1) + st.op("-") + _gen(st, "h", j, 1)
        if a:
            fac += st.op("+" if a > 0 else "-") + str(abs(a))
        dens.append(_pow(st, f"({fac})", m))
    return st.quotient(num, dens, len(f.num.ints))


def _element(st, el):
    parts = []
    for (a, b), f in sorted(el.terms.items(), key=lambda t: (
            -(sum(t[0][0]) + sum(t[0][1])), t[0])):
        mono = st.sep.join(_gen(st, g, i, e[i - 1])
                           for g, e in (("d", a), ("x", b))
                           for i in range(len(e), 0, -1) if e[i - 1])
        c = f.const_value()
        if c is not None:
            parts.append(_term(st, c, mono))
            continue
        sign = "+"
        if (st.pull_sign and len(f.num.ints) == 1
                and next(iter(f.num.ints.values())) < 0):
            sign, f = "-", -f
        body = st.group(_ratfun(st, f), f, mono)
        if body.startswith("-"):
            # an unbracketed sum led by a negative term (LaTeX only: text
            # brackets every sum): "+ -a - b" reads "- a - b"
            sign, body = "-", body[1:]
        parts.append((sign, body + st.sep + mono if mono else body))
    return _join(parts)


def format_ratfun(f):
    return format_value(f)


def format_element(el):
    return format_value(el)


def latex_ratfun(f):
    return format_value(f, "latex")


def latex_element(el):
    return format_value(el, "latex")


def format_decomposition(dec, mode="text"):
    """A W-decomposition in the text or LaTeX style: its pole parts
    pi_k(h_k)/chi_k, then its symmetric parts c_L H_L, joined as "a - b"."""
    st = _STYLES[mode]
    parts = []
    with printing_numbers():
        for k in sorted(dec.parts):
            poly = _join([_term(st, c, _gen(st, "h", k, m))
                          for m, c in enumerate(dec.parts[k]) if c])
            parts.append(("+", st.pole(poly, k)))
        parts += [_term(st, c, st.sym(L)) for L, c in dec.symmetric]
    return _join(parts)


# json


def value_to_json(v, n=None):
    if isinstance(v, NormalElement):
        return v.to_json()
    obj = v.to_json()
    obj["n"] = n if n is not None else v.n
    return obj


def value_from_json(obj):
    """Inverse of value_to_json; DomainError on a malformed value."""
    with reading_input("value"):
        if "terms" in obj:
            return NormalElement.from_json(obj)
        return RatFun.from_json(checked_int(obj["n"], 1), obj)


def format_value(v, mode="text"):
    """v, a RatFun or a NormalElement, as text, LaTeX or JSON; all its
    numbers are printed inside one printing_numbers block."""
    if mode == "json":
        import json
        with printing_numbers():
            return json.dumps(value_to_json(v), sort_keys=True)
    if mode not in _STYLES:
        raise ValueError(f"unknown format {mode!r}")
    with printing_numbers():
        return (_ratfun if isinstance(v, RatFun) else _element)(
            _STYLES[mode], v)
