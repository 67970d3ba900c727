"""Dynamical R-matrix of type A over the weight field, its skew inverse, and
the structure functions built from products of weight differences.

Every R and Psi component is a constant times a product of linear factors
h_i - h_j + a.  Each is built once, in that factored form, from its product
formula (r_terms, r_terms_shifted, psi_terms), and r_component, r_shifted
and psi_component are the canonical RatFuns of those factored values.  The
factored values are also the coefficients of the rewriting rules of
`diffring`, whose double reduction shares the sweeps' zero test,
`ZeroTest`.  Every one is memoised per process and never changed after it
is built, so one cached value can be shared by every reader.  The "ice"
sparsity pattern (R^{ij}_{kl} = 0 unless (k,l) is (i,j) or (j,i)) is used
throughout, so identity checks run over O(n^2) nonzero components per index
pair.

The DYBE, R^2, skew-inverse and shift-invariance identities are checked one
way: for each upper index tuple, both sides are sparse rows over the lower
tuples, built by visiting only the ice-rule support of each factor, and one
loop (`_sweep`) compares the keys found in either row.  Every other lower tuple
is an empty sum on both sides, 0 = 0, and is counted as a pass without
being visited.  The DYBE rows are built for one upper tuple per order
pattern of its indices (13 patterns from n = 3 on), once `_order_equivariant`
has proved, per n, that every R component they read is the renamed
component of its own pattern; the other sweeps' rows hold one or two
products, or sum over every index, and are built for every upper tuple.
`verify_ice` stays exhaustive, and is the independent check of the support
rule that the rows rely on.  A row entry is a factored sum,
{signed exponents over canonical linear factors: nonzero constant}: a
product adds exponents and multiplies constants, and a sum merges like
terms, so nothing is expanded or lifted while the rows are built.

Whether a sum of factored terms is zero (the factored representation of
classical computer algebra; Davenport, Siret and Tournier, Computer
Algebra, 1988) is decided by `ZeroTest`, one per check: for each compared
tuple's lhs - rhs here, and for every sum of the rewriting engine's checks
in `diffring` and of the second YSY equation in `multicopy`, whose terms
may also carry opaque tokens.  Its exact step, `vanishes`, which also
decides each equation of the sigma system in `potential`, expands nothing:
it reads the sum, with every coefficient an int and divided by its common
factor, at one integer point (Kronecker substitution), h_v := B^(w_v) with
B = 2^(8w) above a bound on the coefficients, where the value is the
coefficient list written in base B and so is 0 exactly when the sum is.

Every quotient here (components, phi, Q^+, 1/chi) has a denominator known
as a product of shifted differences, so it is built from those factors;
nothing divides, and ratfield.factor_linfactors is left to user-typed
division.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import comb, lcm, prod
from operator import mul, sub

from .ratfield import Poly, RatFun, canon_factor, eps_vec


# ---------------------------------------------------------------------------
# factored sums
#
# A factored sum is a dict {key: c}.  Each term is a nonzero constant c
# times prod (h_i - h_j + a)^e over its key, a sorted tuple of
# ((i, j, a), e) with every factor canonical (i < j) and every exponent a
# nonzero int; the empty tuple is the term's constant.  Distinct linear
# factors are coprime, so distinct keys are distinct functions and the
# canonical RatFun of a one-term sum needs no cancelling.


def factored(factors):
    """The one-term sum prod (h_i - h_j + a)^e over (i, j, a, e)."""
    pows, c = {}, 1
    for i, j, a, e in factors:
        fac, sign = canon_factor(i, j, a)
        pows[fac] = pows.get(fac, 0) + e
        if sign < 0 and e % 2:
            c = -c
    return {tuple(sorted(item for item in pows.items() if item[1])): c}


def key_product(keys):
    """The key of the product of the terms with the given keys: exponents
    of one factor add, and a factor of exponent 0 drops."""
    if len(keys) < 2:
        return keys[0] if keys else ()
    pows = {}
    for key in keys:
        for fac, e in key:
            pows[fac] = pows.get(fac, 0) + e
    return tuple(sorted(item for item in pows.items() if item[1]))


def shifted_key(key, svec):
    """The key of a term shifted by the integer vector svec: h_i - h_j + a
    becomes h_i - h_j + a + s_i - s_j.  Every factor of one pair i < j
    moves alike, so the key stays canonical and sorted."""
    return tuple([((i, j, a + svec[i - 1] - svec[j - 1]), e)
                  for (i, j, a), e in key])


def add_product(acc, f, g):
    """acc += f * g, for factored sums f and g: exponents add, and like
    terms merge."""
    for kf, cf in f.items():
        for kg, cg in g.items():
            key = key_product((kf, kg)) if kf and kg else kf or kg
            c = acc.get(key, 0) + cf * cg
            if c:
                acc[key] = c
            else:
                del acc[key]


def _ratfun(n, f):
    """The canonical RatFun of the factored sum f."""
    out = RatFun.zero(n)
    for key, c in f.items():
        num, den = Poly.const(n, c), {}
        for fac, e in key:
            if e > 0:
                num = num.mul_linfactor(*fac, e)
            else:
                den[fac] = -e
        out = out + RatFun(num, den, _canonical=True)
    return out


# ---------------------------------------------------------------------------
# structure functions, each the canonical RatFun of its factored product


@lru_cache(maxsize=None)
def psi(n, i):
    """prod_{k > i} (h_i - h_k)."""
    return _ratfun(n, factored([(i, k, 0, 1) for k in range(i + 1, n + 1)]))


@lru_cache(maxsize=None)
def psi_prime(n, i):
    """prod_{k < i} (h_i - h_k)."""
    return _ratfun(n, factored([(i, k, 0, 1) for k in range(1, i)]))


@lru_cache(maxsize=None)
def chi(n, i):
    """prod_{k != i} (h_i - h_k); empty product is 1 (so chi = 1 at n = 1)."""
    return _ratfun(n, factored([(i, k, 0, 1) for k in range(1, n + 1) if k != i]))


@lru_cache(maxsize=None)
def phi(n, i):
    """psi_i / psi_i[-e_i] = prod_{k>i} (h_i - h_k)/(h_i - h_k - 1)."""
    return _ratfun(n, factored([f for k in range(i + 1, n + 1)
                                for f in ((i, k, 0, 1), (i, k, -1, -1))]))


@lru_cache(maxsize=None)
def phi_inv(n, i):
    """prod_{k>i} (h_i - h_k - 1)/(h_i - h_k)."""
    return _ratfun(n, factored([f for k in range(i + 1, n + 1)
                                for f in ((i, k, -1, 1), (i, k, 0, -1))]))


def chi_inv(n, i):
    """1 / chi_i = 1 / prod_{k != i} (h_i - h_k)."""
    return _ratfun(n, factored([(i, k, 0, -1) for k in range(1, n + 1) if k != i]))


def _q_factors(n, i, sign):
    """The factors (i, k, a, e) of Q^{+-}_i = chi_i[+-e_i] / chi_i."""
    return [f for k in range(1, n + 1) if k != i
            for f in ((i, k, sign, 1), (i, k, 0, -1))]


@lru_cache(maxsize=None)
def q_plus(n, i):
    """chi_i[e_i] / chi_i."""
    return _ratfun(n, factored(_q_factors(n, i, 1)))


# ---------------------------------------------------------------------------
# symmetric polynomials


def _monomials(n, d, variables=None, distinct=False):
    """The exponent tuples of the monomials of degree d in h_1..h_n, each
    once: products of d of `variables` (0-based, default all), distinct
    ones if `distinct`; none if d < 0."""
    if d < 0:
        return
    pick = combinations if distinct else combinations_with_replacement
    for vs in pick(range(n) if variables is None else variables, d):
        e = [0] * n
        for v in vs:
            e[v] += 1
        yield tuple(e)


@lru_cache(maxsize=None)
def elementary_symmetric(n, L, skip=0):
    """e_L in h_1..h_n, optionally omitting the variable h_skip: one term
    per L-subset of the other variables."""
    others = [v for v in range(n) if v != skip - 1]
    return Poly(n, dict.fromkeys(_monomials(n, L, others, distinct=True), 1), 1)


@lru_cache(maxsize=None)
def complete_symmetric(n, L):
    """H_L: sum of all monomials of total degree L."""
    return Poly(n, dict.fromkeys(_monomials(n, L), 1), 1)


@lru_cache(maxsize=None)
def hook_schur(n, L, k):
    """The hook Schur polynomial s_(L,1^k) = sum_{i<=k} (-1)^i e_{k-i}
    H_{L+i} (Pieri's rule), for L >= 1: a monomial of degree L + k in m
    variables has the coefficient C(m-1, k), its number of hook tableaux."""
    return Poly(n, {e: comb(n - e.count(0) - 1, k) for e in _monomials(n, L + k)
                    if n - e.count(0) > k}, 1)


# ---------------------------------------------------------------------------
# R-matrix and skew inverse components: factored from their product
# formulas, and canonical RatFuns built from those


@lru_cache(maxsize=None)
def r_terms(n, i, j, k, l):
    """R^{ij}_{kl} as a factored sum."""
    if (k, l) == (i, j):
        return {(): 1} if i == j else factored([(i, j, 0, -1)])
    if (k, l) == (j, i):
        if i >= j:
            return {(): 1}
        # (h_ij^2 - 1) / h_ij^2
        return factored([(i, j, -1, 1), (i, j, 1, 1), (i, j, 0, -2)])
    return {}


@lru_cache(maxsize=None)
def r_terms_shifted(n, i, j, k, l, svec):
    """R^{ij}_{kl}[svec] as a factored sum, each key shifted by svec."""
    return {shifted_key(key, svec): c
            for key, c in r_terms(n, i, j, k, l).items()}


@lru_cache(maxsize=None)
def psi_terms(n, i, j, k, l):
    """Psi^{ij}_{kl} as a factored sum."""
    if (k, l) == (i, j):
        # Q^+_i Q^-_j, over h_i - h_j + 1 when i != j
        factors = _q_factors(n, i, 1) + _q_factors(n, j, -1)
        return factored(factors + [(i, j, 1, -1)] if i != j else factors)
    if (k, l) == (j, i):
        if i < j:
            return {(): 1}
        # (h_ij - 1)^2 / (h_ij (h_ij - 2))
        return factored([(i, j, -1, 2), (i, j, 0, -1), (i, j, -2, -1)])
    return {}


# The canonical values of the factored terms the rewriting engine meets.
# Short words meet a few dozen keys, again and again; a long word meets
# thousands, nearly all once (`lw-eval "x1*x2*x3*d1*d2*d3" -n 3` looks up
# 3,539 distinct keys and repeats 186 lookups), so the cache is bounded.
@lru_cache(maxsize=256)
def factored_value(n, key):
    """The canonical RatFun of prod (h_i - h_j + a)^e over the ((i, j, a), e)
    of the sorted key of a factored term."""
    return _ratfun(n, {key: 1})


@lru_cache(maxsize=None)
def r_component(n, i, j, k, l):
    """R^{ij}_{kl}."""
    return _ratfun(n, r_terms(n, i, j, k, l))


@lru_cache(maxsize=None)
def r_shifted(n, i, j, k, l, svec):
    """R^{ij}_{kl}[svec], for an integer shift tuple svec."""
    return _ratfun(n, r_terms_shifted(n, i, j, k, l, svec))


@lru_cache(maxsize=None)
def psi_component(n, i, j, k, l):
    """Psi^{ij}_{kl}, the skew inverse of R."""
    return _ratfun(n, psi_terms(n, i, j, k, l))


def _nonzero_lower(i, j):
    """Lower index pairs where R^{ij} (or Psi^{ij}) may be nonzero."""
    if i == j:
        return ((i, i),)
    return ((i, j), (j, i))


# ---------------------------------------------------------------------------
# reports


class CheckReport:
    """Result of a verifier: how many checks it made, and the labels of
    those that failed, in check order."""

    __slots__ = ("name", "total", "failures")

    def __init__(self, name, total, failures):
        self.name = name
        self.total = total
        self.failures = list(failures)

    @property
    def passed(self):
        return not self.failures

    def __bool__(self):
        # an object is true by default, so `assert report` would always pass
        raise TypeError(f"{self.name}: a CheckReport has no truth value;"
                        " read .passed")

    def summary(self):
        return f"{self.name}: {self.total - len(self.failures)}/{self.total} pass"

    def __repr__(self):
        return f"CheckReport<{self.summary()}>"


# ---------------------------------------------------------------------------
# verifiers


def _times_r(n, row, s, t, u=None):
    """A sparse row times R acting on slots s, t (0-based) of its tuples.

    row maps index tuples to factored sums.  Each entry row[x] is spread
    over the tuples y that equal x off slots s, t and have (y_s, y_t) on
    the ice-rule support of R^{x_s x_t}, times the factor
    R^{x_s x_t}_{y_s y_t}, shifted by -e_{x_u} when slot u is given."""
    out = {}
    for x, f in row.items():
        svec = None if u is None else eps_vec(n, x[u], -1)
        for c, d in _nonzero_lower(x[s], x[t]):
            if svec is None:
                r = r_terms(n, x[s], x[t], c, d)
            else:
                r = r_terms_shifted(n, x[s], x[t], c, d, svec)
            y = list(x)
            y[s], y[t] = c, d
            add_product(out.setdefault(tuple(y), {}), f, r)
    return out


def _renamed(terms):
    """A sum without opaque tokens with its variables renamed 1..m in
    increasing order, as (m, frozenset of ((key, ()), c)).  The renaming
    keeps every factor canonical and every key sorted, and the sum is zero
    exactly when the renamed one is."""
    used = sorted({v for key, _ in terms for (i, j, _), _ in key
                   for v in (i, j)})
    if used[-1] == len(used):
        return len(used), frozenset(terms.items())
    name = {v: m for m, v in enumerate(used, 1)}
    return len(name), frozenset(
        ((tuple([((name[i], name[j], a), e) for (i, j, a), e in key]), ()), c)
        for (key, _), c in terms.items())


def _divided_keys(keys):
    """The keys of a sum's terms, each a tuple of items or a dict, divided
    by the sum's common factor: the least exponent of each factor over
    every term, 0 where a term lacks it.  Each quotient is a dict of
    exponents, none negative, and the division is injective: distinct keys
    stay distinct."""
    pows = [dict(key) for key in keys]
    for fac in {fac for p in pows for fac in p}:
        k = min([p.get(fac, 0) for p in pows])
        if k:
            for p in pows:
                p[fac] = p.get(fac, 0) - k
    return pows


def _translated(n, terms):
    """A sum with opaque tokens divided by its common factor and translated
    by h -> h - t for t its least token shift, as (n, frozenset of
    ((key, refs), c)): a sum, its translates and its multiples by a product
    of linear factors have one form, and each map is injective on Q(h).  A
    constant multiple keeps its own form."""
    low = min(svec for _, refs in terms for _, svec in refs)
    back = [-s for s in low] if any(low) else None
    out = []
    for key, ((_, refs), c) in zip(_divided_keys([key for key, _ in terms]),
                                   terms.items()):
        key = tuple(sorted([f for f in key.items() if f[1]]))
        if back:
            key = shifted_key(key, back)
            refs = tuple([(name, tuple(map(sub, svec, low)))
                          for name, svec in refs])
        out.append(((key, refs), c))
    return n, frozenset(out)


class ZeroTest:
    """Whether sums of factored terms are zero, with one verdict memo for
    one check.

    A sum is a dict {(key, refs): c}, as the rewriting engine writes one
    word's sum: each term is the nonzero constant c times
    prod (h_i - h_j + a)^e over the ((i, j, a), e) of its key, times each
    opaque token of refs, a sorted tuple of (name, shift), at h + shift;
    hold(token) names a token.  An empty sum is zero, and one term is not
    (no factor or token of a term is zero).  A longer sum is decided once
    per normal form: `_renamed` without tokens, and with them `_translated`,
    which a sum shares with its translates and its multiples by a product
    of linear factors.  `vanishes` decides each new form by one exact value
    at a Kronecker point.  Each token is shifted once per (name, shift)
    and test: `_exact` keeps the shifted tokens in a memo."""

    __slots__ = ("n", "held", "verdicts", "shifted")

    def __init__(self, n):
        self.n = n
        self.held = {}  # name -> token, so that a name stays unique
        self.verdicts = {}
        self.shifted = {}  # (name, shift) -> the token at h + shift

    def hold(self, token):
        """The name of an opaque token: its id, valid while the test
        holds it."""
        self.held[id(token)] = token
        return id(token)

    def is_zero(self, terms):
        """Whether the sum terms, {(key, refs): c}, is zero."""
        if len(terms) < 2:
            return not terms
        tokens = any(refs for _, refs in terms)
        form = _translated(self.n, terms) if tokens else _renamed(terms)
        zero = self.verdicts.get(form)
        if zero is None:
            zero = self.verdicts[form] = self._exact(*form)
        return zero

    def _exact(self, m, terms):
        """Whether the sum of terms in h_1..h_m is zero: each token's
        denominator joins its term's exponents, and `vanishes` decides the
        sum over the groups of terms with the same tokens, each group times
        the product of its tokens' numerators."""
        shifted = self.shifted
        for (_, refs), _ in terms:
            for ref in refs:
                if ref not in shifted:
                    shifted[ref] = self.held[ref[0]].shift(ref[1])
        groups = {}
        for (key, refs), c in terms:
            if refs:
                key = dict(key)
                for ref in refs:
                    for fac, e in shifted[ref].den.items():
                        key[fac] = key.get(fac, 0) - e
            groups.setdefault(refs, []).append((key, c))
        return vanishes(m, [(prod([shifted[r].num for r in refs[1:]],
                                  start=shifted[refs[0]].num)
                             if refs else None, group)
                            for refs, group in groups.items()])


def vanishes(n, groups):
    """Whether a sum of factored terms in h_1..h_n is zero; the exact test
    of `ZeroTest`, and of each equation of `potential.sigma_system_check`.

    groups is an iterable of (num, terms): num is a Poly, or None for 1,
    and terms an iterable of (key, c), each c times prod (h_i - h_j + a)^e
    over the ((i, j, a), e) of key (a tuple of items or a dict, every
    factor canonical).  The sum S over the groups of num times the sum of
    its terms is first multiplied by a nonzero integer, so that every
    coefficient is an int: each num by its denominator d = num.den, which
    leaves num.ints, and each constant by L / d, where L is the lcm over all
    groups (d = 1 for a group without a num), and by D, the lcm of the
    constants' denominators.  Then S is divided by its common factor, the
    least exponent of each linear factor over every term (0 where a term
    lacks it).  That factor is a nonzero product of linear factors, so the
    quotient p, a polynomial with int coefficients, is zero exactly when S
    is.

    When no group has a num, p is read with h_v := 0, v the highest index
    of its factors, so in one variable fewer: each factor h_i - h_v + a
    becomes h_i + a.  This decides the same thing.  Every term is a product
    of differences, so p is invariant under h -> h + t (1, ..., 1); then
    p(h) = p(h - h_v (1, ..., 1)), and setting h_v := 0, a ring map, is
    injective on such sums: p is zero exactly when its restriction is.  A
    num need not be invariant (sigma in double reduction is not), so a sum
    with one keeps every variable.

    p is decided by one exact value, at a Kronecker point (Kronecker 1882;
    Fateman 2005), and is never multiplied out:

    - Bounds.  d_v, the largest sum over a term of the exponents of its
      factors that contain h_v, plus deg_v of its group's num, bounds the
      degree of p in h_v.  With |f|, the sum of the absolute values of a
      polynomial's coefficients, |h_i - h_j + a| = |a| + 2 and
      |h_i + a| = |a| + 1, and |f| is subadditive and submultiplicative,
      so C = sum over groups of |num| * sum over its terms of
      |c| prod |factor|^e bounds the absolute value of every coefficient
      of p.
    - Point.  Take B = 2^(8w), the least such power above C, the weights
      w_v = prod_{u < v} (d_u + 1) and h_v := B^(w_v).  A monomial with
      every e_v <= d_v lands on B^k with k = sum e_v w_v, the mixed-radix
      number of digits e_v, so distinct monomials of p land on distinct
      powers of B.
    - Exactness.  p's value there is its coefficient list written in base
      B, each digit below B in absolute value.  If p is not zero, its
      top nonzero digit contributes at least B^k in absolute value and the
      lower digits less than (B - 1)(1 + B + ... + B^(k-1)) < B^k, so the
      value is 0 exactly when p is zero.

    The value is built on Python ints: each num is packed once, every
    coefficient into its own w-byte slot of a positive or a negative byte
    string (two int.from_bytes calls); a term starts from c times its
    group's packed num, and each factor (h_i - h_j + a)^e is e passes of
    x -> (x << s_i) - (x << s_j) + a x, with s_v = 8 w w_v.  No two large
    ints are multiplied, and no Poly is formed."""
    groups = [(num, list(terms)) for num, terms in groups]
    lifts = [1 if num is None else num.den for num, _ in groups]
    L = lcm(*lifts)
    D = lcm(*(c.denominator for _, terms in groups for _, c in terms))
    # the common factor: each factor's least exponent over the terms, kept
    # where it is negative or where every term has the factor
    low, seen, count = {}, {}, 0
    for _, terms in groups:
        count += len(terms)
        for key, _ in terms:
            for fac, e in key.items() if type(key) is dict else key:
                if e:
                    k = low.get(fac)
                    if k is None:
                        low[fac], seen[fac] = e, 1
                    else:
                        seen[fac] += 1
                        if e < k:
                            low[fac] = e
    low = {fac: k for fac, k in low.items() if k < 0 or seen[fac] == count}
    lifted = {fac: -k for fac, k in low.items() if k < 0}
    drop = (max((j for _, j, _ in seen), default=None)
            if all(num is None for num, _ in groups) else None)
    # the quotient's terms, each (c, [(i, j, a, e)]), its degree bounds d_v
    # and its coefficient bound C
    deg, bound, parts = [0] * (n + 1), 0, []
    for (num, terms), d in zip(groups, lifts):
        if not terms:  # adds nothing, and its num is outside the bound
            continue
        m = L // d * D
        top, size, quotients = {}, 0, []
        for key, c in terms:
            if m != 1 or type(c) is not int:
                c = int(c * m)
            q = dict(lifted)
            for fac, e in key.items() if type(key) is dict else key:
                if e:
                    q[fac] = e - low.get(fac, 0)
            factors, weight, vdeg = [], abs(c), {}
            for (i, j, a), e in q.items():
                if e:
                    factors.append((i, j, a, e))
                    vdeg[i] = vdeg.get(i, 0) + e
                    if j == drop:
                        weight *= (abs(a) + 1) ** e
                    else:
                        vdeg[j] = vdeg.get(j, 0) + e
                        weight *= (abs(a) + 2) ** e
            for v, e in vdeg.items():
                if e > top.get(v, 0):
                    top[v] = e
            size += weight
            quotients.append((c, factors))
        if num is not None:
            for v, e in enumerate(map(max, zip(*num.ints)), 1):
                top[v] = top.get(v, 0) + e
            size *= sum(map(abs, num.ints.values()))
        for v, e in top.items():
            if e > deg[v]:
                deg[v] = e
        bound += size
        parts.append((num, quotients))
    w = max(1, (bound.bit_length() + 7) // 8)
    shifts, k = [0] * (n + 1), 8 * w
    for v in range(1, n + 1):
        shifts[v] = k
        k *= deg[v] + 1
    total = 0
    for num, quotients in parts:
        base = 1 if num is None else _packed(num.ints, shifts[1:], w)
        for c, factors in quotients:
            x = c * base
            for i, j, a, e in factors:
                si, sj = shifts[i], None if j == drop else shifts[j]
                for _ in range(e):
                    y = x << si
                    if sj is not None:
                        y -= x << sj
                    x = y + a * x if a else y
            total += x
    return total == 0


def _packed(ints, shifts, w):
    """The int polynomial ints at h_v := 2^(shifts[v-1]), each shift a
    multiple of 8 w, when every int is below 2^(8w) in absolute value and
    distinct monomials land on distinct w-byte slots: each int is written
    into its slot of a positive or a negative byte string."""
    slots = [sum(map(mul, exps, shifts)) >> 3 for exps in ints]
    size = max(slots, default=0) + w
    pos, neg = bytearray(size), bytearray(size)
    for k, c in zip(slots, ints.values()):
        if c > 0:
            pos[k:k + w] = c.to_bytes(w, "little")
        else:
            neg[k:k + w] = (-c).to_bytes(w, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _sweep(name, n, arity, sides, by_pattern=False):
    """Report an identity over every index tuple upper + lower, each of
    `arity` indices in 1..n, with failures in `product` order.

    sides(n, *upper) gives both sides for every lower tuple at once, as
    sparse rows {lower: factored sum}.  Only keys found in either row are
    compared, each by one ZeroTest of lhs - rhs for the whole sweep.  Every
    other tuple, and every compared one whose terms all cancel, is 0 = 0, a
    pass that is counted but not tested.

    With by_pattern, the caller has proved that the rows of an upper tuple
    are those of its order pattern (its values replaced by their ranks
    1..m) with every index and variable renamed by the increasing map from
    ranks to values.  Then only the pattern's rows are compared, once, and
    each upper tuple's failures are the pattern's, renamed."""
    failures, memo = [], {}
    is_zero = ZeroTest(n).is_zero
    for upper in product(range(1, n + 1), repeat=arity):
        if not by_pattern:
            failures += [upper + lower
                         for lower in _failing(is_zero, *sides(n, *upper))]
            continue
        values = [0, *sorted(set(upper))]  # values[r] has rank r
        pattern = tuple([values.index(v) for v in upper])
        if pattern not in memo:
            memo[pattern] = _failing(is_zero, *sides(n, *pattern))
        failures += [upper + tuple([values[r] for r in lower])
                     for lower in memo[pattern]]
    return CheckReport(f"{name} n={n}", n ** (2 * arity), failures)


def _failing(is_zero, lhs, rhs):
    """The sorted lower tuples where the rows lhs and rhs differ."""
    out = []
    for lower in sorted(lhs.keys() | rhs.keys()):
        diff = dict(lhs.get(lower, {}))
        for key, c in rhs.get(lower, {}).items():
            c = diff.get(key, 0) - c
            if c:
                diff[key] = c
            else:
                del diff[key]
        if diff and not is_zero({(key, ()): c for key, c in diff.items()}):
            out.append(lower)
    return out


def _renamed_by(terms, name):
    """The factored sum terms with every variable v renamed name[v], or None
    when a key names a variable outside name."""
    out = {}
    for key, c in terms.items():
        try:
            out[tuple([((name[i], name[j], a), e)
                       for (i, j, a), e in key])] = c
        except KeyError:
            return None
    return out


@lru_cache(maxsize=None)
def _order_equivariant(n):
    """Whether every R component that the DYBE rows can read is the
    component of its own order pattern, renamed; memoised per n, so it is
    emptied with the components.

    The rows read R^{pq}_{cd} and R^{pq}_{cd}[-e_x] on the ice support.
    For each, the indices (p, q, and x when shifted) are replaced by their
    ranks 1..m among themselves; the component there, with each variable
    renamed by the increasing map from ranks back to values, must equal
    the component itself.  A key naming a variable outside those ranks
    fails the proof.  Renaming by an increasing map commutes with the
    products and sums that build the rows, which is what `verify_dybe`
    relies on."""
    svecs = [None] + [eps_vec(n, x, -1) for x in range(1, n + 1)]
    for p, q, x in product(range(1, n + 1), repeat=3):
        values = sorted({p, q, x})
        rank = {v: r for r, v in enumerate(values, 1)}
        name = dict(enumerate(values, 1))
        for c, d in _nonzero_lower(p, q):
            ranked = (n, rank[p], rank[q], rank[c], rank[d])
            reads = [(r_terms_shifted(n, p, q, c, d, svecs[x]),
                      r_terms_shifted(*ranked, svecs[rank[x]]))]
            if x == p:  # the ranks of p, q alone: R^{pq}_{cd} itself
                reads.append((r_terms(n, p, q, c, d), r_terms(*ranked)))
            for got, base in reads:
                if _renamed_by(base, name) != got:
                    return False
    return True


def _dybe_rows(n, i, j, k):
    """Both sides of the shifted DYBE for upper indices (i, j, k), as sparse
    rows {(m, p, r): value}.  Each is the unit row at (i, j, k) times three
    factors; the unit row times the first factor is that factor's row."""
    si = eps_vec(n, i, -1)
    lhs = {(a, b, k): r_terms(n, i, j, a, b) for a, b in _nonzero_lower(i, j)}
    rhs = {(i, a, b): r_terms_shifted(n, j, k, a, b, si)
           for a, b in _nonzero_lower(j, k)}
    return (_times_r(n, _times_r(n, lhs, 1, 2, 0), 0, 1),
            _times_r(n, _times_r(n, rhs, 0, 1), 1, 2, 0))


def verify_dybe(n):
    """Shifted dynamical Yang-Baxter equation, all n^6 free index tuples.

    sum_{a,b,u} R^{ij}_{ab} R^{bk}_{ur}[-e_a] R^{au}_{mp}
      = sum_{a,b,u} R^{jk}_{ab}[-e_i] R^{ia}_{mu} R^{ub}_{pr}[-e_m]

    The left side is R on slots 1,2, then R on slots 2,3 shifted by -e of
    slot 1's index, then R on slots 1,2; the right side is the mirrored
    chain.  A partial product such as R^{ij}_{ab} R^{bk}_{ur}[-e_a] is
    computed once for all the (m,p) it feeds.

    By the ice rule the rows of (i, j, k) read only R^{pq}_{cd} and
    R^{pq}_{cd}[-e_x] with p, q, x in {i, j, k}.  When each of those is the
    component at its indices' ranks with the variables renamed back
    (`_order_equivariant`, proved once per n), the rows of (i, j, k) are
    those of its order pattern, its ranks 1..m, renamed by the increasing
    map from ranks to values.  Like `_renamed`'s, that renaming keeps every
    factor canonical and every key sorted, so each compared sum keeps its
    verdict and the lower tuples keep their order: only one upper tuple per
    pattern is compared.  Otherwise, and at n <= 2, every upper tuple is:
    there 7 of the 8 upper tuples are patterns of their own, and the proof
    would cost more than the one row it saves.
    """
    return _sweep("dybe", n, 3, _dybe_rows, n > 2 and _order_equivariant(n))


def _r_squared_rows(n, i, j):
    """Both sides of R^2 = 1 for upper indices (i, j), as sparse rows
    {(k, l): value}: R's row at (i, j) times R, and the unit row."""
    row = {(a, b): r_terms(n, i, j, a, b) for a, b in _nonzero_lower(i, j)}
    return _times_r(n, row, 0, 1), {(i, j): {(): 1}}


def verify_r_squared(n):
    """sum_{a,b} R^{ij}_{ab} R^{ab}_{kl} = delta^i_k delta^j_l, all n^4
    tuples (i,j,k,l)."""
    return _sweep("r-squared", n, 2, _r_squared_rows)


def verify_ice(n):
    """Components vanish off the ice pattern; also weight preservation."""
    failures = []
    for i, j, k, l in product(range(1, n + 1), repeat=4):
        nonzero = (k, l) in _nonzero_lower(i, j)
        if r_component(n, i, j, k, l).is_zero() == nonzero:
            failures.append((i, j, k, l))
    return CheckReport(f"ice n={n}", n ** 4, failures)


def _shift_rows(n, i, j):
    """Both sides of shift invariance for upper indices (i, j), as sparse
    rows {(k, l): value} on the ice-rule support: R's row at (i, j)
    shifted by e_i + e_j, and R's row."""
    s = tuple([a + b for a, b in zip(eps_vec(n, i), eps_vec(n, j))])
    lower = _nonzero_lower(i, j)
    return ({kl: r_terms_shifted(n, i, j, *kl, s) for kl in lower},
            {kl: r_terms(n, i, j, *kl) for kl in lower})


def verify_shift_invariance(n):
    """R^{ij}_{kl}[e_i + e_j] = R^{ij}_{kl}, all n^4 tuples (i,j,k,l)."""
    return _sweep("shift-invariance", n, 2, _shift_rows)


def _skew_rows(n, i, j):
    """Both sides of the skew-inverse identity for upper indices (i, j), as
    sparse rows {(m, p): value}: the sums over k, l of
    Psi^{ik}_{jl} R^{ml}_{pk}[e_m], each factor visited only on its
    ice-rule support, and the unit row at (j, i)."""
    out = {}
    for k in range(1, n + 1):
        for a, l in _nonzero_lower(i, k):
            if a != j:
                continue
            v = psi_terms(n, i, k, j, l)
            for m in range(1, n + 1):
                for p, b in _nonzero_lower(m, l):
                    if b == k:
                        add_product(out.setdefault((m, p), {}), v,
                                    r_terms_shifted(n, m, l, p, k, eps_vec(n, m)))
    return out, {(j, i): {(): 1}}


def verify_skew_inverse(n):
    """sum_{k,l} Psi^{ik}_{jl} R^{ml}_{pk}[e_m] = delta^i_p delta^m_j, all
    n^4 tuples (i,j,m,p)."""
    return _sweep("skew-inverse", n, 2, _skew_rows)


def verify_q_identity(n):
    """Generating-function identities for Q^+.

    (i)  sum_j Q^+_j t prod_{m != j}(1 + h_m t) = e(t) - e(t)[-e_1-..-e_n],
         the cleared form of sum_j Q^+_j / (h_j + 1/t) = 1 - e(t)[-eps]/e(t);
    (ii) sum_j Q^+_j / (h_jm + 1) = 1 for every m.
    """
    failures = []
    # both sides of (i) as their n+1 coefficients by power of t
    lhs = [RatFun.zero(n)] * (n + 1)
    for j in range(1, n + 1):
        q = q_plus(n, j)
        comp = [Poly.zero(n)] + [elementary_symmetric(n, L, skip=j)
                                 for L in range(n)]
        lhs = [s + q * p for s, p in zip(lhs, comp, strict=True)]
    shift_all = tuple([-1] * n)
    e = [elementary_symmetric(n, L) for L in range(n + 1)]
    rhs = [RatFun.from_poly(p - p.shift(shift_all)) for p in e]
    if lhs != rhs:
        failures.append("generating")
    for m in range(1, n + 1):
        s = RatFun.zero(n)
        for j in range(1, n + 1):
            if j == m:
                s = s + q_plus(n, j)
            else:
                s = s + q_plus(n, j) * RatFun.inverse_diff(n, j, m, 1)
        if s != RatFun.one(n):
            failures.append(("row", m))
    return CheckReport(f"q-identity n={n}", n + 1, failures)


def verify_chi_identity(n, L):
    """sum_j h_j^L / chi_j = 0 for L <= n-2 and = H_{L-n+1} for L >= n-1;
    one check, labelled L when it fails."""
    s = RatFun.zero(n)
    for j in range(1, n + 1):
        s = s + (Poly.var(n, j) ** L) * chi_inv(n, j)
    if L <= n - 2:
        target = RatFun.zero(n)
    else:
        target = RatFun.from_poly(complete_symmetric(n, L - n + 1))
    return CheckReport(f"chi-identity n={n}", 1, [] if s == target else [L])

