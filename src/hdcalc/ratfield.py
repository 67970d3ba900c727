"""Exact arithmetic in the coefficient field U(n): rational functions in the
weight variables h_1..h_n whose denominators are products of integer-shifted
differences h_i - h_j + a.

A Poly is a sparse int polynomial over one positive int denominator, the
least one, so only this module knows how coefficients become ints and
every kernel adds and multiplies ints; a float never becomes a
coefficient.  Denominators of a RatFun
are kept as factored multisets of LinFactor keys (i, j, a) with i < j, meaning
h_i - h_j + a, and are never expanded; this keeps shifts, cancellation and
partial fractions exact and cheap.  The two kernels on such a factor are
single passes over the term dict: Poly.mul_linfactor lifts a numerator by
(h_i - h_j + a)^k as k passes of three shifted copies, and
Poly.div_linfactor divides exactly by synthetic division in h_i, with no
intermediate Poly.
Poly.subst_var_linear (h_i := h_j + a) is the one substitution kernel, with
the binomial row of each degree built once per call: j == i is the shift,
which Poly.shift loops over, and RatFun.subst_var renames h_j in every
denominator factor by one rule.  An index outside 1..n and a mix of two
ring sizes raise DomainError.

A RatFun is canonical: no denominator factor divides its numerator.  A
construction that is not known to be canonical cancels: a denominator
factor h_i - h_j + a divides the numerator exactly when the substitution
h_i := h_j - a makes it zero, and each factor that passes this exact test
is then divided out.

Arithmetic tests only the factors that can cancel (Henrici's rule).  Both
operands are canonical and distinct factors are coprime, so in a * b a
factor of den(a) alone can only divide num(b), and one of den(b) alone only
num(a); each numerator is cancelled against those before the product, and a
factor of both denominators is not tested.  In a + b only a factor with the
same power in both denominators can divide the lifted sum.  The lift to the
lcm of two denominators is one function, lcm_lift, which cancels nothing.
A product with a constant and a sum with zero are canonical as they stand.
Cancelling a one-term numerator tests nothing, since no linear factor
h_i - h_j + a divides a nonzero monomial; so RatFun.build, which often has
a constant numerator, needs no case of its own.
Powers and inverses are canonical as they stand: a linear factor is
prime, so one that does not divide num does not divide num^k, and the
numerator of 1/f is built from the factors of den(f), none of which is a
factor of num(f).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction
from math import comb, gcd, inf, lcm
from operator import add

F0 = Fraction(0)
F1 = Fraction(1)


class PoleError(ArithmeticError):
    """Evaluation point lies on a denominator factor."""


class DomainError(ValueError):
    """Operation leaves the allowed coefficient class."""


@contextmanager
def reading_input(what):
    """Report the KeyError, TypeError or ValueError that reading a malformed
    value from outside the program raises (a missing field, a field of the
    wrong type or length) as a DomainError naming `what`."""
    try:
        yield
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise DomainError(f"malformed {what}: {e!r}") from None


def int_from_text(digits):
    """int(digits) for an integer literal read from outside the program;
    DomainError past the interpreter's limit on the digits of an int/str
    conversion (sys.get_int_max_str_digits(), which is kept)."""
    try:
        return int(digits)
    except ValueError:
        raise DomainError(f"an integer of {len(digits)} digits is past the"
                          f" limit of {sys.get_int_max_str_digits()}") from None


@contextmanager
def printing_numbers():
    """Report the ValueError of an int-to-str conversion past that limit, in
    a block that prints numbers, as a DomainError."""
    try:
        yield
    except ValueError:
        raise DomainError("a number past the limit of"
                          f" {sys.get_int_max_str_digits()} digits cannot be"
                          " printed") from None


def number_text(c):
    """str(c) of an int or a Fraction; DomainError past that limit."""
    with printing_numbers():
        return str(c)


def checked_int(v, lo=-inf, hi=inf):
    """v if it is an integer in [lo, hi], else DomainError."""
    if type(v) is not int or not lo <= v <= hi:
        raise DomainError(f"expected an integer in [{lo}, {hi}], got {v!r}")
    return v


def check_index(n, j):
    """j if 1 <= j <= n, else DomainError: an index 0 or below would wrap
    round to n through negative indexing."""
    if not 1 <= j <= n:
        raise DomainError(f"index {j} outside 1..{n}")
    return j


def checked_perm(perm, n):
    """perm as a tuple if it is a permutation of 1..n, else DomainError."""
    perm = tuple(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise DomainError(f"{perm} is not a permutation of 1..{n}")
    return perm


def ring_mismatch(n, m):
    """The DomainError for a value of a ring with n weight variables met by
    one with m; raised by every operation that combines two of them."""
    return DomainError(f"ring sizes differ: n={n} and n={m}")


def json_exponents(v, n):
    """An exponent vector read from JSON: n non-negative integers."""
    if len(v) != n:
        raise DomainError(f"expected {n} exponents, got {v!r}")
    return tuple(checked_int(k, 0) for k in v)


def exact_coeff(c):
    """c as an exact coefficient: an int if it is integral, else a
    Fraction.  A float is refused: its value is already rounded."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"inexact coefficient {c!r}")
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _exact(c, den):
    """The coefficient c / den as an int if it is integral, else a Fraction."""
    return c if den == 1 else Fraction(c, den) if c % den else c // den


# ---------------------------------------------------------------------------
# sparse polynomials


class Poly:
    """Sparse polynomial in h_1..h_n over exact rationals: an int polynomial
    over one denominator, the layout of FLINT's fmpq_poly.

    ints maps exponent tuples (length n) to nonzero ints, and den is the
    least positive int that makes den times every coefficient an int: so
    gcd(den, *ints.values()) == 1, and the zero Poly has den 1.  Poly(n,
    terms) lifts exact coefficients (int or Fraction, never a float); the
    operations pass ints and den, and each one that can leave a common
    factor of the two divides it out once.  terms is the read-only view of
    the exact coefficients, an int where one is integral and a Fraction
    otherwise.  Instances are treated as immutable.
    """

    __slots__ = ("n", "ints", "den")

    def __init__(self, n, terms=None, den=None):
        self.n = n
        if den is None:
            terms = {e: exact_coeff(c) for e, c in (terms or {}).items()}
            den = lcm(*(c.denominator for c in terms.values()))
            terms = {e: c.numerator * (den // c.denominator)
                     for e, c in terms.items() if c}
        self.ints = terms
        self.den = den

    @property
    def terms(self):
        den = self.den
        if den == 1:
            return self.ints
        return {e: _exact(c, den) for e, c in self.ints.items()}

    # -- constructors

    @classmethod
    def zero(cls, n):
        return cls(n, {}, 1)

    @classmethod
    def const(cls, n, c):
        c = exact_coeff(c)
        if c == 0:
            return cls(n, {}, 1)
        return cls(n, {(0,) * n: c.numerator}, c.denominator)

    @classmethod
    def var(cls, n, i):
        """h_i, 1-based."""
        return cls(n, {eps_vec(n, i): 1}, 1)

    @classmethod
    def diff(cls, n, i, j, a=0):
        """h_i - h_j + a (i != j)."""
        canon_factor(i, j, a)  # DomainError if i == j
        out = {eps_vec(n, i): 1, eps_vec(n, j): -1}
        if a:
            out[(0,) * n] = a
        return cls(n, out)

    # -- predicates / shape

    def is_zero(self):
        return not self.ints

    def is_const(self):
        return not self.ints or (len(self.ints) == 1 and (0,) * self.n in self.ints)

    def const_value(self):
        return self.coeff_of((0,) * self.n)

    def total_degree(self):
        if not self.ints:
            return -1
        return max(sum(e) for e in self.ints)

    def degree_in(self, i):
        check_index(self.n, i)
        if not self.ints:
            return -1
        return max(e[i - 1] for e in self.ints)

    def support_vars(self):
        sup = set()
        for e in self.ints:
            for k, ek in enumerate(e):
                if ek:
                    sup.add(k + 1)
        return sup

    def coeff_of(self, expvec):
        c = self.ints.get(tuple(expvec))
        return F0 if c is None else _exact(c, self.den)

    # -- ring ops

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.n == other.n
                and self.den == other.den and self.ints == other.ints)

    __hash__ = None

    def __neg__(self):
        return Poly(self.n, {e: -c for e, c in self.ints.items()}, self.den)

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if self.n != other.n:
            raise ring_mismatch(self.n, other.n)
        # lift both to the lcm of the two denominators
        g = gcd(self.den, other.den)
        m1, m2 = other.den // g, self.den // g
        out = {e: c * m1 for e, c in self.ints.items()} if m1 != 1 else dict(self.ints)
        for e, c in other.ints.items():
            s = out.get(e, 0) + c * m2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _reduced(self.n, out, self.den * m1)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.n != other.n:
            raise ring_mismatch(self.n, other.n)
        out = {}
        sterms = self.ints
        oterms = other.ints
        if len(oterms) == 1:
            sterms, oterms = oterms, sterms
        if len(sterms) == 1:
            # adding one fixed exponent vector is injective: no terms merge
            [(e1, c1)] = sterms.items()
            for e2, c2 in oterms.items():
                out[tuple(map(add, e1, e2))] = c1 * c2
        else:
            for e1, c1 in sterms.items():
                for e2, c2 in oterms.items():
                    e = tuple(map(add, e1, e2))
                    s = out.get(e, 0) + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return _reduced(self.n, out, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c):
        c = exact_coeff(c)
        if c == 0:
            return Poly.zero(self.n)
        m = c.numerator
        return _reduced(self.n, {e: m * v for e, v in self.ints.items()},
                        self.den * c.denominator)

    def __pow__(self, k):
        if k < 0:
            raise DomainError(f"negative power {k} of a polynomial")
        out = Poly.const(self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- substitution and shifts

    def shift(self, svec):
        """Substitute h_k := h_k + s_k for an integer shift vector."""
        p = self
        for k, s in enumerate(svec, 1):
            if s:
                p = p.subst_var_linear(k, k, s)
        return p

    def subst_var_linear(self, i, j, a):
        """Substitute h_i := h_j + a, for an integer a; for j != i the
        result has no h_i, and j == i is the shift h_i := h_i + a.  The one
        substitution kernel.  A shift is an automorphism of Z[h] and keeps
        den; for j != i terms can merge into a common factor (h_1 + h_2 at
        h_1 := h_2 is 2 h_2), which is divided out."""
        if not (0 < i <= self.n and 0 < j <= self.n):
            raise DomainError(f"indices {i}, {j} outside 1..{self.n}")
        if j == i and not a:
            return self
        out = {}
        idx = i - 1
        jdx = j - 1
        rows = {}  # d -> the nonzero terms (m, comb(d, m) a^(d-m)) of (h_j+a)^d
        for e, v in self.ints.items():
            d = e[idx]
            if d == 0:  # free of h_i: the term stays
                s = out.get(e, 0) + v
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
                continue
            row = rows.get(d)
            if row is None:  # highest power of h_j first
                if a:
                    row, b = [], 1
                    for m in range(d, -1, -1):
                        row.append((m, comb(d, m) * b))
                        b *= a
                else:  # only h_j^d is left
                    row = ((d, 1),)
                rows[d] = row
            base = list(e)
            base[idx] = 0
            dj = base[jdx]
            for m, b in row:
                base[jdx] = dj + m
                key = tuple(base)
                s = out.get(key, 0) + v * b
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        if j == i:
            return Poly(self.n, out, self.den)
        return _reduced(self.n, out, self.den)

    def div_linfactor(self, i, j, a):
        """Exact division by h_i - h_j + a; None if not divisible.

        Synthetic division in h_i by the root u = h_j - a, on the int terms:
        from the top degree in h_i down, each remainder term c h_i^d m moves
        to the quotient as c h_i^(d-1) m and leaves c h_i^(d-1) (h_j - a) m
        in degree d - 1.  The factor divides iff degree 0 ends empty.  The
        factor is primitive, so by Gauss's lemma the quotient keeps den."""
        idx, jdx = i - 1, j - 1
        bydeg = {}
        for e, c in self.ints.items():
            bydeg.setdefault(e[idx], {})[e] = c
        out = {}
        for d in range(max(bydeg, default=0), 0, -1):
            rem = bydeg.get(d)
            if not rem:
                continue
            low = bydeg.setdefault(d - 1, {})
            for e, c in rem.items():
                if not c:
                    continue
                b = list(e)
                b[idx] = d - 1
                q = tuple(b)
                out[q] = c
                b[jdx] += 1
                qj = tuple(b)
                low[qj] = low.get(qj, 0) + c
                if a:
                    low[q] = low.get(q, 0) - a * c
        if any(bydeg.get(0, {}).values()):
            return None
        return Poly(self.n, out, self.den)

    def mul_linfactor(self, i, j, a, k=1):
        """self * (h_i - h_j + a)^k, for an integer a: k passes, each adding
        three shifted copies of the terms (times h_i, times -h_j, times a).
        The factor is primitive, so by Gauss's lemma the product keeps den."""
        idx, jdx = i - 1, j - 1
        terms = self.ints
        for _ in range(k):
            out = {}
            for e, c in terms.items():
                ei = e[:idx] + (e[idx] + 1,) + e[idx + 1:]
                out[ei] = out.get(ei, 0) + c
                ej = e[:jdx] + (e[jdx] + 1,) + e[jdx + 1:]
                out[ej] = out.get(ej, 0) - c
                if a:
                    out[e] = out.get(e, 0) + a * c
            terms = {e: c for e, c in out.items() if c}
        return Poly(self.n, terms, self.den)

    def permuted(self, perm):
        """Relabel variables: h_i -> h_{perm[i]} (perm a permutation of
        1..n, DomainError otherwise)."""
        perm = checked_perm(perm, self.n)
        out = {}
        for e, c in self.ints.items():
            # a relabelling is injective on exponent vectors: no terms merge
            ne = [0] * self.n
            for k, ek in enumerate(e):
                ne[perm[k] - 1] = ek
            out[tuple(ne)] = c
        return Poly(self.n, out, self.den)

    def evaluate(self, point):
        """Evaluate at a tuple of rationals (int or Fraction), one per weight
        variable; the value is a Fraction.

        The sum is taken in integers, with one division at the end: with D
        the common denominator of the point, X = D * point and deg the total
        degree, a term c h^e of ints of degree d contributes c X^e D^(deg - d)
        over den D^deg."""
        if len(point) != self.n:
            raise ring_mismatch(self.n, len(point))
        if not self.ints:
            return F0
        D = lcm(*(x.denominator for x in point))
        X = [x.numerator * (D // x.denominator) for x in point]
        deg = max(map(sum, self.ints))
        total = 0
        for e, c in self.ints.items():
            v = c * D ** (deg - sum(e))
            for x, k in zip(X, e):
                if k:
                    v *= x ** k
            total += v
        return Fraction(total, self.den * D ** deg)

    def homogeneous_components(self):
        """dict total degree -> Poly."""
        comps = {}
        for e, c in self.ints.items():
            comps.setdefault(sum(e), {})[e] = c
        return {d: _reduced(self.n, t, self.den) for d, t in comps.items()}

    def __repr__(self):
        terms = self.terms
        if not terms:
            return "Poly<0>"
        bits = []
        for e in sorted(terms, key=lambda t: (sum(t), t)):
            c = terms[e]
            mono = "*".join(
                f"h{k+1}" + (f"^{d}" if d > 1 else "")
                for k, d in enumerate(e) if d
            )
            bits.append(f"{c}" + ("*" + mono if mono else ""))
        return "Poly<" + " + ".join(bits) + ">"


def _reduced(n, ints, den):
    """The Poly ints / den, with the common factor of den and the ints
    divided out."""
    if den > 1:
        g = gcd(den, *ints.values())
        if g > 1:
            den //= g
            ints = {e: c // g for e, c in ints.items()}
    return Poly(n, ints, den)


# ---------------------------------------------------------------------------
# linear denominator factors


def canon_factor(i, j, a):
    """Canonicalize the factor h_i - h_j + a to i < j; returns ((i,j,a), sign)."""
    if i == j:
        raise DomainError(f"h{i} - h{j} + {a} is not a linear factor")
    if i < j:
        return (i, j, a), 1
    return (j, i, -a), -1


def _add_factor(den, i, j, a, m):
    """den[h_i - h_j + a] += m with the factor canonicalized; returns the
    sign, +1 or -1, that canonicalizing puts on the value."""
    fac, s = canon_factor(i, j, a)
    den[fac] = den.get(fac, 0) + m
    return -1 if s < 0 and m % 2 else 1


def lcm_lift(p, dp, q, dq):
    """Lift p/dp and q/dq, numerator Polys over factor dicts, to the lcm of
    the two denominators, cancelling nothing; RatFun.__add__ is its one
    caller.  Returns (p', q', den, same) with p/dp = p'/den and
    q/dq = q'/den, and same mapping each factor of equal power in dp and
    dq to that power.  The lift is exact for any pair; as den is a
    nonzero product of linear factors, p/dp = q/dq iff p' == q'.  When
    both pairs are canonical only a factor in same can divide p' + q': for
    a = p/F^m and b = q/F^k with m > k the sum is (p + q F^(m-k))/F^m, and
    F does not divide p."""
    den = dict(dp)
    same = {}
    for fac, m in dq.items():
        k = dp.get(fac, 0)
        if k == m:
            same[fac] = m
        elif k < m:
            den[fac] = m
            p = p.mul_linfactor(*fac, m - k)
    for fac, k in dp.items():
        extra = k - dq.get(fac, 0)
        if extra > 0:
            q = q.mul_linfactor(*fac, extra)
    return p, q, den, same


# ---------------------------------------------------------------------------
# rational functions


class RatFun:
    """num / prod of LinFactor powers, canonical: no den factor divides num."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _canonical=False):
        self.num = num
        self.den = den or {}
        if not _canonical:
            self._cancel()

    @property
    def n(self):
        return self.num.n

    @classmethod
    def zero(cls, n):
        return cls(Poly.zero(n), {}, _canonical=True)

    @classmethod
    def one(cls, n):
        return cls(Poly.const(n, 1), {}, _canonical=True)

    @classmethod
    def const(cls, n, c):
        return cls(Poly.const(n, c), {}, _canonical=True)

    @classmethod
    def from_poly(cls, p):
        return cls(p, {}, _canonical=True)

    @classmethod
    def var(cls, n, i):
        return cls(Poly.var(n, i), {}, _canonical=True)

    @classmethod
    def build(cls, num, den_items):
        """num: Poly; den_items: iterable of (i, j, a) or ((i, j, a), mult),
        mult >= 1."""
        den = {}
        sign = 1
        for item in den_items:
            if len(item) == 2 and isinstance(item[0], tuple):
                (i, j, a), m = item
            else:
                (i, j, a), m = item, 1
            sign *= _add_factor(den, i, j, a, m)
        if sign < 0:
            num = -num
        return cls(num, den)

    @classmethod
    def inverse_diff(cls, n, i, j, a=0):
        """1 / (h_i - h_j + a)."""
        return cls.build(Poly.const(n, 1), [(i, j, a)])

    def _cancel(self):
        # The result goes to a fresh dict: the caller may still hold `den`.
        num = self.num
        terms = num.ints
        if not terms:
            self.den = {}
            return
        if len(terms) == 1:
            # no linear factor h_i - h_j + a divides a nonzero monomial
            self.den = dict(self.den)
            return
        # Distinct factors are coprime, so a factor that does not divide num
        # does not divide num / (another factor) either: one pass suffices.
        den = {}
        for fac, m in self.den.items():
            i, j, a = fac
            # h_i - h_j + a divides num iff num vanishes at h_i := h_j - a
            while m > 0 and num.subst_var_linear(i, j, -a).is_zero():
                num = num.div_linfactor(i, j, a)
                assert num is not None
                m -= 1
            if m:
                den[fac] = m
        self.num = num
        self.den = den

    # -- predicates

    def is_zero(self):
        return self.num.is_zero()

    def is_poly(self):
        return not self.den

    def is_const(self):
        return not self.den and self.num.is_const()

    def const_value(self):
        """The scalar value, or None if not constant."""
        if not self.is_const():
            return None
        return self.num.const_value()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFun.const(self.n, other)
        if not isinstance(other, RatFun):
            return NotImplemented
        # canonical form is unique: compare representations
        return self.n == other.n and self.den == other.den and self.num == other.num

    __hash__ = None

    # -- arithmetic

    def __neg__(self):
        return RatFun(-self.num, dict(self.den), _canonical=True)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFun.const(self.n, other)
        if isinstance(other, Poly):
            return RatFun.from_poly(other)
        return other

    def __add__(self, other):
        if not isinstance(other, RatFun):
            other = self._coerce(other)
            if not isinstance(other, RatFun):
                return NotImplemented
        num1, num2 = self.num, other.num
        n = num1.n
        if n != num2.n:
            raise ring_mismatch(n, num2.n)
        if not num2.ints:
            return self
        if not num1.ints:
            return other
        # only a factor with the same power in both denominators can cancel
        num1, num2, den, same = lcm_lift(num1, self.den, num2, other.den)
        num = num1 + num2
        if num.is_zero():
            return RatFun.zero(n)
        if same:
            left = RatFun(num, dict(same))
            num = left.num
            for fac in same:
                if fac in left.den:
                    den[fac] = left.den[fac]
                else:
                    del den[fac]
        return RatFun(num, den, _canonical=True)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, RatFun):
            other = self._coerce(other)
            if not isinstance(other, RatFun):
                return NotImplemented
        n = self.num.n
        if n != other.num.n:
            raise ring_mismatch(n, other.num.n)
        a, b = self, other
        ta, tb = a.num.ints, b.num.ints
        if not ta or not tb:
            return RatFun.zero(n)
        # a constant has no denominator and one term, of exponent 0
        if not a.den and len(ta) == 1 and (0,) * n in ta:
            a, b, tb = b, a, ta
        if not b.den and len(tb) == 1 and (0,) * n in tb:
            c = b.num.const_value()
            return a if c == 1 else RatFun(a.num.scale(c), dict(a.den), _canonical=True)
        # A factor in both denominators divides neither numerator.  One in
        # den(a) alone can divide only num(b), and one in den(b) alone only
        # num(a): cancel each numerator against those before the product.
        den_a, den_b = a.den, b.den
        num_a, num_b = a.num, b.num
        only_a = {fac: m for fac, m in den_a.items() if fac not in den_b}
        only_b = {fac: m for fac, m in den_b.items() if fac not in den_a}
        if only_a:
            left = RatFun(num_b, only_a)
            num_b, only_a = left.num, left.den
        if only_b:
            left = RatFun(num_a, only_b)
            num_a, only_b = left.num, left.den
        den = {}
        for fac, m in den_a.items():
            if fac in den_b:
                den[fac] = m + den_b[fac]
            elif fac in only_a:
                den[fac] = only_a[fac]
        den.update(only_b)
        return RatFun(num_a * num_b, den, _canonical=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        # a linear factor is prime: one that does not divide num does not
        # divide num^k either, so the power is canonical as it stands
        den = {fac: m * k for fac, m in self.den.items()} if k else {}
        return RatFun(self.num ** k, den, _canonical=True)

    def inverse(self):
        """1/f; requires num to split into shifted-difference factors."""
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        fac = factor_linfactors(self.num)
        if fac is None:
            raise DomainError(
                "denominator does not factor into shifted differences h_i - h_j + a")
        c, factors = fac
        num = Poly.const(self.n, F1 / c)
        for f, m in self.den.items():
            num = num.mul_linfactor(*f, m)
        # self is canonical: no factor of num (from self.den) is in factors
        return RatFun(num, factors, _canonical=True)

    # -- shifts / difference calculus

    def shift(self, svec):
        """f[s]: substitute h_k := h_k + s_k."""
        if not any(svec):
            return self
        num = self.num.shift(svec)
        den = {}
        for (i, j, a), m in self.den.items():
            den[(i, j, a + svec[i - 1] - svec[j - 1])] = m
        return RatFun(num, den, _canonical=True)

    def delta(self, j):
        """Delta_j f = f - f[-e_j]."""
        return self - self.shift(eps_vec(self.n, j, -1))

    def subst_var(self, j, k, a):
        """Substitute h_j := h_k + a; k == j is the shift h_j := h_j + a.
        PoleError if a denominator factor becomes 0."""
        num = self.num.subst_var_linear(j, k, a)
        den = {}
        scal = 1
        for (p, q, b), m in self.den.items():
            # h_p - h_q + b with h_j renamed to h_k + a
            if p == j:
                p, b = k, b + a
            elif q == j:
                q, b = k, b - a
            if p != q:
                scal *= _add_factor(den, p, q, b, m)
            elif b:
                scal *= b ** m
            else:
                raise PoleError("substitution hits denominator factor")
        if scal != 1:
            num = num.scale(Fraction(1, scal))
        return RatFun(num, den)

    def permuted(self, perm):
        num = self.num.permuted(perm)
        den = {}
        sign = 1
        for (i, j, a), m in self.den.items():
            sign *= _add_factor(den, perm[i - 1], perm[j - 1], a, m)
        return RatFun(num if sign > 0 else -num, den, _canonical=True)

    def evaluate(self, point):
        total = self.num.evaluate(point)
        for (i, j, a), m in self.den.items():
            v = point[i - 1] - point[j - 1] + a
            if v == 0:
                raise PoleError(f"pole at factor h{i}-h{j}{a:+d}")
            total /= v ** m
        return total

    def to_json(self):
        num = [[list(e), f"{c.numerator}/{c.denominator}"]
               for e, c in sorted(self.num.terms.items(), key=lambda t: (sum(t[0]), t[0]))]
        den = [[i, j, a, m] for (i, j, a), m in sorted(self.den.items())]
        return {"num": num, "den": den}

    @classmethod
    def from_json(cls, n, obj):
        """Inverse of to_json; DomainError on a malformed object."""
        with reading_input("rational function"):
            terms = {}  # terms with the same exponents add up
            for e, c in obj["num"]:
                e = json_exponents(e, n)
                terms[e] = terms.get(e, 0) + exact_coeff(c)
            den = [((checked_int(i, 1, n), checked_int(j, 1, n),
                     checked_int(a)), checked_int(m, 1))
                   for i, j, a, m in (obj["den"] if "den" in obj else ())]
            return cls.build(Poly(n, terms), den)

    def __repr__(self):
        if not self.den:
            return f"RatFun<{self.num!r}>"
        d = " ".join(f"(h{i}-h{j}{a:+d})^{m}" if a else f"(h{i}-h{j})^{m}"
                     for (i, j, a), m in sorted(self.den.items()))
        return f"RatFun<{self.num!r} / {d}>"


# ---------------------------------------------------------------------------
# unit shift vectors


def eps_vec(n, j, sign=1):
    """sign * e_j, the one way to build a unit vector; DomainError unless
    1 <= j <= n."""
    s = [0] * n
    s[check_index(n, j) - 1] = sign
    return tuple(s)


# ---------------------------------------------------------------------------
# partial fractions with respect to one weight variable


def partial_fractions(f, j):
    """Decompose f with respect to h_j.

    Returns (principal, regular) where principal is a list of entries
    (k, a, nu, u) meaning u / (h_j - h_k - a)^nu with u free of h_j, and
    regular has no denominator factor involving h_j.
    """
    principal = []
    cur = f
    while True:
        jfacts = [(fac, m) for fac, m in cur.den.items() if fac[0] == j or fac[1] == j]
        if not jfacts:
            break
        (i0, j0, a0), m = max(jfacts, key=lambda t: (t[1], t[0]))
        if i0 == j:
            k, a = j0, -a0       # h_j - h_k + a0 = h_j - h_k - (-a0)
            sign = 1
        else:
            k, a = i0, a0        # h_k - h_j + a0 = -(h_j - h_k - a0)
            sign = (-1) ** m
        rest = dict(cur.den)
        del rest[(i0, j0, a0)]
        u = RatFun(cur.num, rest).subst_var(j, k, a)
        if sign < 0:
            u = -u
        principal.append((k, a, m, u))
        term_den = dict(u.den)
        term_den[(i0, j0, a0)] = term_den.get((i0, j0, a0), 0) + m
        term = RatFun(u.num if sign > 0 else -u.num, term_den)
        cur = cur - term
    return principal, cur


# ---------------------------------------------------------------------------
# factoring polynomials into shifted differences (used for division)


def factor_linfactors(p):
    """Write p = c * prod (h_i - h_j + a)^m with integer a; None if impossible.

    The shifts of each pair i < j are read off by _pair_shifts; every factor
    is confirmed by exact division, and what is left must be constant.
    """
    if p.is_zero():
        raise ZeroDivisionError("cannot factor zero")
    work = p
    factors = {}
    for i in range(1, p.n + 1):
        for j in range(i + 1, p.n + 1):
            shifts = _pair_shifts(work, i, j)
            if shifts is None:
                return None
            for a in shifts:
                work = work.div_linfactor(i, j, a)
                if work is None:
                    return None
                factors[(i, j, a)] = factors.get((i, j, a), 0) + 1
    if not work.is_const():
        return None
    return work.const_value(), factors


def _pair_shifts(p, i, j):
    """The shifts a, with multiplicity, of the factors h_i - h_j + a of p.

    Take the terms of p free of h_j whose exponents in the variables other
    than h_i, h_j are lex-largest.  Their h_i-coefficients u(t) form the
    leading coefficient of p(h_j = 0) in those variables, and the leading
    coefficient of a product is the product of the leading coefficients.  If
    p splits into shifted differences, every factor outside the pair leads
    with a constant, so u = c * prod (t + a)^m over this pair's factors.
    None if u has no such form.
    """
    top, u = None, {}
    for e, c in p.ints.items():
        if e[j - 1]:
            continue
        rest = e[:i - 1] + e[i:j - 1] + e[j:]
        if top is None or rest > top:
            top, u = rest, {}
        if rest == top:
            u[e[i - 1]] = c
    if top is None:
        return None
    roots = _integer_roots(u)
    return None if roots is None else [-r for r in roots]


def _integer_roots(coeffs):
    """The roots, with multiplicity, of sum_k coeffs[k] t^k, coeffs ints, if
    all are integers; None otherwise.

    Floor-Newton from the Fujiwara root bound B.  Right of the largest root r of a
    real-rooted polynomial of degree d, a Newton step never passes r and
    shrinks the distance to it by at least the factor 1 - 1/d.  Rounding
    down keeps the iterate at or above an integer r, so it reaches r within
    d * bit_length(2B) steps; then deflate and go on from r.  A step that is
    not positive, or more steps than that, proves some root is not an
    integer.
    """
    deg = max(coeffs)
    u = [coeffs.get(k, 0) for k in range(deg + 1)]
    # Fujiwara: every root has |t| <= 2 * max_k |u[deg-k] / u[deg]|^(1/k);
    # each term is rounded up to a power of two
    e = 0
    for k in range(1, deg + 1):
        ratio = -(-abs(u[deg - k]) // abs(u[deg]))
        e = max(e, -(-ratio.bit_length() // k))
    bound = 2 << e
    cap = deg * (2 * bound).bit_length()
    roots = []
    x, steps = bound, 0
    while len(u) > 1:
        v = dv = 0
        for c in reversed(u):
            dv = dv * x + v
            v = v * x + c
        if v == 0:
            roots.append(x)
            # deflate by t - x
            q, carry = [], 0
            for c in reversed(u[1:]):
                carry = carry * x + c
                q.append(carry)
            u = q[::-1]
            steps = 0
            continue
        steps += 1
        if dv == 0 or (v > 0) != (dv > 0) or steps > cap:
            return None
        x += (-v) // dv
    return roots


# ---------------------------------------------------------------------------
# small exact linear algebra over Fraction


def rank_exact(matrix):
    """Rank of a dense list-of-lists matrix of ints and Fractions."""
    m = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        piv = None
        for r in range(row, len(m)):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        m[row] = [v / pv for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank
