"""Exact arithmetic in the coefficient field U(n): rational functions in the
weight variables h_1..h_n whose denominators are products of integer-shifted
differences h_i - h_j + a.

Polynomials are sparse exponent-dicts over fractions.Fraction.  Denominators
are kept as factored multisets of LinFactor keys (i, j, a) with i < j, meaning
h_i - h_j + a, and are never expanded; this keeps shifts, cancellation and
partial fractions exact and cheap.

Every RatFun construction cancels: for each denominator factor h_i - h_j + a
the numerator is first evaluated mod the prime 2**61 - 1 at one fixed integer
point of the hyperplane h_i = h_j - a.  A nonzero value proves the factor does
not divide the numerator; only a zero value goes on to the exact test, the
substitution h_i := h_j - a, and then to the exact division.  No answer rests
on the pre-filter alone.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

F0 = Fraction(0)
F1 = Fraction(1)


class PoleError(ArithmeticError):
    """Evaluation point lies on a denominator factor."""


class DomainError(ValueError):
    """Operation leaves the allowed coefficient class."""


def _as_fraction(c):
    return c if isinstance(c, Fraction) else Fraction(c)


# ---------------------------------------------------------------------------
# sparse polynomials


class Poly:
    """Sparse polynomial in h_1..h_n over exact rationals.

    terms maps exponent tuples (length n) to nonzero Fraction coefficients.
    Instances are treated as immutable.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        if terms is None:
            terms = {}
        self.terms = terms

    # -- constructors

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def const(cls, n, c):
        c = _as_fraction(c)
        if c == 0:
            return cls(n, {})
        return cls(n, {(0,) * n: c})

    @classmethod
    def var(cls, n, i):
        """h_i, 1-based."""
        assert 1 <= i <= n
        e = [0] * n
        e[i - 1] = 1
        return cls(n, {tuple(e): F1})

    @classmethod
    def diff(cls, n, i, j, a=0):
        """h_i - h_j + a (i != j)."""
        assert i != j
        out = {}
        ei = [0] * n
        ei[i - 1] = 1
        ej = [0] * n
        ej[j - 1] = 1
        out[tuple(ei)] = F1
        out[tuple(ej)] = Fraction(-1)
        if a:
            out[(0,) * n] = Fraction(a)
        return cls(n, out)

    # -- predicates / shape

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and (0,) * self.n in self.terms)

    def const_value(self):
        if not self.terms:
            return F0
        return self.terms.get((0,) * self.n, F0)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i):
        if not self.terms:
            return -1
        return max(e[i - 1] for e in self.terms)

    def support_vars(self):
        sup = set()
        for e in self.terms:
            for k, ek in enumerate(e):
                if ek:
                    sup.add(k + 1)
        return sup

    def coeff_of(self, expvec):
        return self.terms.get(tuple(expvec), F0)

    # -- ring ops

    def __eq__(self, other):
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    __hash__ = None

    def __neg__(self):
        return Poly(self.n, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        assert self.n == other.n
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, F0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.n, out)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        assert self.n == other.n
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, F0) - c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.n, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        assert self.n == other.n
        out = {}
        sterms = self.terms
        oterms = other.terms
        for e1, c1 in sterms.items():
            for e2, c2 in oterms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, F0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Poly(self.n, out)

    __rmul__ = __mul__

    def scale(self, c):
        c = _as_fraction(c)
        if c == 0:
            return Poly.zero(self.n)
        return Poly(self.n, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, k):
        assert k >= 0
        out = Poly.const(self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- substitution and shifts

    def shift_var(self, i, c):
        """Substitute h_i := h_i + c (integer c)."""
        if not c:
            return self
        out = {}
        idx = i - 1
        for e, v in self.terms.items():
            d = e[idx]
            if d == 0:
                out[e] = out.get(e, F0) + v
                if not out[e]:
                    del out[e]
                continue
            base = list(e)
            for m in range(d + 1):
                base[idx] = m
                coeff = v * comb(d, m) * Fraction(c) ** (d - m)
                key = tuple(base)
                s = out.get(key, F0) + coeff
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return Poly(self.n, out)

    def shift(self, svec):
        """Substitute h_k := h_k + s_k for an integer shift vector."""
        p = self
        for k, s in enumerate(svec):
            if s:
                p = p.shift_var(k + 1, s)
        return p

    def subst_var_linear(self, i, j, a):
        """Substitute h_i := h_j + a (i != j); result has no h_i."""
        assert i != j
        out = {}
        idx = i - 1
        jdx = j - 1
        # expand (h_j + a)^d term by term, highest power of h_j first
        for e, v in self.terms.items():
            d = e[idx]
            base = list(e)
            base[idx] = 0
            dj = e[jdx]
            for m in range(d, -1, -1):
                base[jdx] = dj + m
                key = tuple(base)
                s = out.get(key, F0) + v * (comb(d, m) * a ** (d - m))
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return Poly(self.n, out)

    def div_linfactor(self, i, j, a):
        """Exact division by h_i - h_j + a; None if not divisible."""
        # synthetic division in h_i with u = h_j - a
        idx = i - 1
        maxd = self.degree_in(i)
        if maxd < 1:
            return None if not self.is_zero() else Poly.zero(self.n)
        bydeg = [dict() for _ in range(maxd + 1)]
        for e, v in self.terms.items():
            rest = list(e)
            d = rest[idx]
            rest[idx] = 0
            bydeg[d][tuple(rest)] = bydeg[d].get(tuple(rest), F0) + v
        u = Poly.var(self.n, j) + Poly.const(self.n, -a)
        quot = [None] * maxd  # coefficients of h_i^0 .. h_i^{maxd-1}
        carry = Poly(self.n, {e: c for e, c in bydeg[maxd].items() if c})
        for d in range(maxd - 1, -1, -1):
            quot[d] = carry
            carry = Poly(self.n, {e: c for e, c in bydeg[d].items() if c}) + carry * u
        if not carry.is_zero():
            return None
        out = {}
        for d, q in enumerate(quot):
            for e, c in q.terms.items():
                key = list(e)
                key[idx] = d
                out[tuple(key)] = c
        return Poly(self.n, out)

    def permuted(self, perm):
        """Relabel variables: h_i -> h_{perm[i]} (perm 1-based tuple of length n)."""
        out = {}
        for e, c in self.terms.items():
            ne = [0] * self.n
            for k, ek in enumerate(e):
                ne[perm[k + 1 - 1] - 1] = ek
            key = tuple(ne)
            s = out.get(key, F0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return Poly(self.n, out)

    def derivative(self, i):
        out = {}
        idx = i - 1
        for e, c in self.terms.items():
            d = e[idx]
            if d == 0:
                continue
            ne = list(e)
            ne[idx] = d - 1
            key = tuple(ne)
            out[key] = out.get(key, F0) + c * d
        return Poly(self.n, {e: c for e, c in out.items() if c})

    def evaluate(self, point):
        """Evaluate at a tuple of Fractions."""
        assert len(point) == self.n
        total = F0
        for e, c in self.terms.items():
            v = c
            for x, d in zip(point, e):
                if d:
                    v *= x ** d
            total += v
        return total

    def homogeneous_components(self):
        """dict total degree -> Poly."""
        comps = {}
        for e, c in self.terms.items():
            comps.setdefault(sum(e), {})[e] = c
        return {d: Poly(self.n, t) for d, t in comps.items()}

    def __repr__(self):
        if not self.terms:
            return "Poly<0>"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            c = self.terms[e]
            mono = "*".join(
                f"h{k+1}" + (f"^{d}" if d > 1 else "")
                for k, d in enumerate(e) if d
            )
            bits.append(f"{c}" + ("*" + mono if mono else ""))
        return "Poly<" + " + ".join(bits) + ">"


# ---------------------------------------------------------------------------
# linear denominator factors


def canon_factor(i, j, a):
    """Canonicalize the factor h_i - h_j + a to i < j; returns ((i,j,a), sign)."""
    assert i != j
    if i < j:
        return (i, j, a), 1
    return (j, i, -a), -1


def factor_poly(n, fac):
    i, j, a = fac
    return Poly.diff(n, i, j, a)


# Pre-filter for the divisibility test in RatFun._cancel.  If the factor
# h_i - h_j + a divides num over Q, num vanishes at every integer point with
# h_i = h_j - a, hence so does its value reduced mod a prime P that divides
# no coefficient denominator.  A nonzero value mod P is therefore a proof of
# non-divisibility; a zero value proves nothing and the exact test decides.
_P = 2**61 - 1  # Mersenne prime
_STEP = 0x9E3779B97F4A7C15 % _P  # golden-ratio step: coordinates far apart


def _point(n):
    """The fixed integer point (h_1, ..., h_n) the pre-filter starts from."""
    return [k * _STEP % _P for k in range(1, n + 1)]


def _may_vanish(num, i, j, a):
    """False only if num is provably nonzero on the hyperplane h_i = h_j - a."""
    pt = _point(num.n)
    pt[i - 1] = (pt[j - 1] - a) % _P
    total = 0
    for e, c in num.terms.items():
        v = c.numerator
        d = c.denominator
        if d != 1:
            if d % _P == 0:
                return True
            v = v * pow(d, -1, _P)
        for x, k in zip(pt, e):
            if k:
                v = v * pow(x, k, _P) % _P
        total += v
    return total % _P == 0


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
        """num: Poly; den_items: iterable of (i, j, a) or ((i, j, a), mult)."""
        den = {}
        sign = 1
        for item in den_items:
            if len(item) == 2 and isinstance(item[0], tuple):
                (i, j, a), m = item
            else:
                (i, j, a), m = item, 1
            fac, s = canon_factor(i, j, a)
            den[fac] = den.get(fac, 0) + m
            if s < 0 and m % 2:
                sign = -sign
        if sign < 0:
            num = -num
        return cls(num, den)

    @classmethod
    def inverse_diff(cls, n, i, j, a=0):
        """1 / (h_i - h_j + a)."""
        return cls.build(Poly.const(n, 1), [(i, j, a)])

    def _cancel(self):
        if self.num.is_zero():
            self.den = {}
            return
        # Distinct factors are coprime, so a factor that does not divide num
        # does not divide num / (another factor) either: one pass suffices.
        for fac in list(self.den):
            i, j, a = fac
            m = self.den[fac]
            # h_i - h_j + a divides num iff num vanishes at h_i := h_j - a
            while (m > 0 and _may_vanish(self.num, i, j, a)
                   and self.num.subst_var_linear(i, j, -a).is_zero()):
                q = self.num.div_linfactor(i, j, a)
                assert q is not None
                self.num = q
                m -= 1
            if m:
                self.den[fac] = m
            else:
                del self.den[fac]

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
        other = self._coerce(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        assert self.n == other.n
        den = dict(self.den)
        for fac, m in other.den.items():
            den[fac] = max(den.get(fac, 0), m)
        num1 = self.num
        for fac, m in den.items():
            extra = m - self.den.get(fac, 0)
            if extra:
                num1 = num1 * (factor_poly(self.n, fac) ** extra)
        num2 = other.num
        for fac, m in den.items():
            extra = m - other.den.get(fac, 0)
            if extra:
                num2 = num2 * (factor_poly(self.n, fac) ** extra)
        return RatFun(num1 + num2, den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        assert self.n == other.n
        if self.num.is_zero() or other.num.is_zero():
            return RatFun.zero(self.n)
        den = dict(self.den)
        for fac, m in other.den.items():
            den[fac] = den.get(fac, 0) + m
        return RatFun(self.num * other.num, den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = RatFun.one(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self):
        """1/f; requires num to split into shifted-difference factors."""
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        fac = factor_linfactors(self.num)
        if fac is None:
            raise DomainError(
                "denominator does not factor into shifted differences h_i - h_j + a")
        c, factors = fac
        num = Poly.const(self.n, 1 / c)
        for f, m in self.den.items():
            num = num * (factor_poly(self.n, f) ** m)
        return RatFun(num, dict(factors))

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
        s = [0] * self.n
        s[j - 1] = -1
        return self - self.shift(tuple(s))

    def subst_var(self, j, k, a):
        """Substitute h_j := h_k + a (j != k).  PoleError if a den factor dies."""
        assert j != k
        num = self.num.subst_var_linear(j, k, a)
        den = {}
        scal = F1
        for (i, jj, b), m in self.den.items():
            if i == j and jj == k:
                c = a + b  # h_j - h_k + b -> a + b
                if c == 0:
                    raise PoleError("substitution hits denominator factor")
                scal *= Fraction(c) ** m
            elif i == k and jj == j:
                c = -a + b
                if c == 0:
                    raise PoleError("substitution hits denominator factor")
                scal *= Fraction(c) ** m
            elif i == j:
                fac, s = canon_factor(k, jj, b + a)
                den[fac] = den.get(fac, 0) + m
                if s < 0 and m % 2:
                    num = -num
            elif jj == j:
                fac, s = canon_factor(i, k, b - a)
                den[fac] = den.get(fac, 0) + m
                if s < 0 and m % 2:
                    num = -num
            else:
                den[(i, jj, b)] = den.get((i, jj, b), 0) + m
        if scal != 1:
            num = num.scale(1 / scal)
        return RatFun(num, den)

    def permuted(self, perm):
        num = self.num.permuted(perm)
        den = {}
        for (i, j, a), m in self.den.items():
            fac, s = canon_factor(perm[i - 1], perm[j - 1], a)
            den[fac] = den.get(fac, 0) + m
            if s < 0 and m % 2:
                num = -num
        return RatFun(num, den, _canonical=True)

    def derivative(self, i):
        """d/dh_i by the quotient rule; stays in the class."""
        n = self.n
        out = RatFun(self.num.derivative(i), dict(self.den), _canonical=False)
        for (a, b, c), m in self.den.items():
            dfac = 0
            if a == i:
                dfac = 1
            elif b == i:
                dfac = -1
            if not dfac:
                continue
            den = dict(self.den)
            den[(a, b, c)] = m + 1
            out = out + RatFun(self.num.scale(-m * dfac), den)
        return out

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
        terms = {}
        for e, c in obj["num"]:
            terms[tuple(int(x) for x in e)] = Fraction(c)
        den = {}
        for i, j, a, m in obj.get("den", []):
            den[(int(i), int(j), int(a))] = int(m)
        return cls(Poly(n, terms), den)

    def __repr__(self):
        if not self.den:
            return f"RatFun<{self.num!r}>"
        d = " ".join(f"(h{i}-h{j}{a:+d})^{m}" if a else f"(h{i}-h{j})^{m}"
                     for (i, j, a), m in sorted(self.den.items()))
        return f"RatFun<{self.num!r} / {d}>"


# ---------------------------------------------------------------------------
# difference calculus helpers (free-function forms)


def shift(f, svec):
    return f.shift(tuple(svec))


def delta(f, j):
    return f.delta(j)


def eps_vec(n, j, sign=1):
    s = [0] * n
    s[j - 1] = sign
    return tuple(s)


def evaluate(f, point):
    return f.evaluate(tuple(_as_fraction(x) for x in point))


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


def reassemble_partial_fractions(n, j, principal, regular):
    total = regular
    for k, a, nu, u in principal:
        total = total + u * (RatFun.inverse_diff(n, j, k, -a) ** nu)
    return total


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
    for e, c in p.terms.items():
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
    """The roots, with multiplicity, of sum_k coeffs[k] t^k if all are
    integers; None otherwise.

    Floor-Newton from the Fujiwara root bound B.  Right of the largest root r of a
    real-rooted polynomial of degree d, a Newton step never passes r and
    shrinks the distance to it by at least the factor 1 - 1/d.  Rounding
    down keeps the iterate at or above an integer r, so it reaches r within
    d * bit_length(2B) steps; then deflate and go on from r.  A step that is
    not positive, or more steps than that, proves some root is not an
    integer.
    """
    deg = max(coeffs)
    den = lcm(*(c.denominator for c in coeffs.values()))
    u = [int(coeffs.get(k, F0) * den) for k in range(deg + 1)]
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
# polynomials in an auxiliary variable t with RatFun coefficients


class TPolyRat:
    """Polynomial in t with coefficients in the weight-variable field.

    t never enters denominators; the coefficient list carries it.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs):
        self.n = n
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = cs

    @classmethod
    def zero(cls, n):
        return cls(n, [])

    @classmethod
    def const(cls, n, f):
        if isinstance(f, (int, Fraction)):
            f = RatFun.const(n, f)
        return cls(n, [f])

    @classmethod
    def t(cls, n):
        return cls(n, [RatFun.zero(n), RatFun.one(n)])

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return RatFun.zero(self.n)

    def degree(self):
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if not isinstance(other, TPolyRat):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) != len(b):
            return False
        return all(x == y for x, y in zip(a, b))

    __hash__ = None

    def __add__(self, other):
        m = max(len(self.coeffs), len(other.coeffs))
        return TPolyRat(self.n, [self.coeff(k) + other.coeff(k) for k in range(m)])

    def __sub__(self, other):
        m = max(len(self.coeffs), len(other.coeffs))
        return TPolyRat(self.n, [self.coeff(k) - other.coeff(k) for k in range(m)])

    def __neg__(self):
        return TPolyRat(self.n, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFun.const(self.n, other)
        if isinstance(other, RatFun):
            return TPolyRat(self.n, [c * other for c in self.coeffs])
        out = [RatFun.zero(self.n) for _ in range(len(self.coeffs) + len(other.coeffs))]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return TPolyRat(self.n, out)

    __rmul__ = __mul__

    def shift(self, svec):
        return TPolyRat(self.n, [c.shift(tuple(svec)) for c in self.coeffs])

    def delta(self, j):
        return TPolyRat(self.n, [c.delta(j) for c in self.coeffs])

    def is_zero(self):
        return not self.coeffs

    def __repr__(self):
        return f"TPolyRat<{self.coeffs!r}>"


# ---------------------------------------------------------------------------
# small exact linear algebra over Fraction (solver and rank)


def solve_exact(rows, rhs, ncols):
    """Solve the sparse linear system rows * u = rhs over Fraction.

    rows: list of dicts col -> Fraction; rhs: list of Fraction.
    Returns a solution list (free vars set to 0) or None if inconsistent.
    """
    aug = [dict(r) for r in rows]
    b = list(rhs)
    pivots = {}
    rows_used = []
    for col in range(ncols):
        piv = None
        for ri, r in enumerate(aug):
            if ri in rows_used:
                continue
            if r.get(col):
                piv = ri
                break
        if piv is None:
            continue
        rows_used.append(piv)
        pivots[col] = piv
        pv = aug[piv][col]
        aug[piv] = {c: v / pv for c, v in aug[piv].items()}
        b[piv] = b[piv] / pv
        for ri, r in enumerate(aug):
            if ri == piv:
                continue
            f = r.get(col)
            if not f:
                continue
            for c, v in aug[piv].items():
                s = r.get(c, F0) - f * v
                if s:
                    r[c] = s
                else:
                    r.pop(c, None)
            b[ri] = b[ri] - f * b[piv]
    for ri, r in enumerate(aug):
        if not r and b[ri]:
            return None
    sol = [F0] * ncols
    for col, ri in pivots.items():
        sol[col] = b[ri]
    return sol


def rank_exact(matrix):
    """Rank of a dense list-of-lists Fraction matrix."""
    m = [list(row) for row in matrix]
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
