"""Rings of h-deformed differential operators Diff_{h,sigma}(n).

Elements are kept in the normal form "all d-generators left of all
x-generators, each species in descending index, coefficients from the weight
field on the far left".  A second ("module") ordering with x left of d is
provided for evaluating on lowest weight vectors.

Generator words are token lists of three kinds: a generator ('x', i) or
('d', i); a factored coefficient, the one-term factored sum {key: c} of
`rmatrix` (a constant times a product of linear factors h_i - h_j + a),
which is how the rule table writes every R, Psi and swap coefficient; and
an opaque coefficient, any other RatFun: sigma and a caller's
coefficients.  One rule table (`_resolve`, with the order key
`_order`) serves this ring and its multi-copy form in `multicopy`: there the
tokens carry a copy tag, ('x', i, a) and ('d', j, b), and in one copy they
carry none.

The one rewriting engine, `_rewrite`, carries each path's coefficient as a
path term: a constant, the exponents of its linear factors, and its opaque
tokens, each with the shift it has picked up.  A product adds exponents, and
paths that reach the same ordered word merge into that word's sum, term by
term, with no RatFun computed.  Each word of a walk carries its own
strategy, so one walk can reduce a word "left" and minus it "right".  The
canonical forms (`normal_form`, `multiply`, `module_form`,
`multicopy.mixed_normal_form`) turn each word's sum into one RatFun;
`module_form` at a weight evaluates each word's sum there term by term; the
checks (`double_reduction`, `check_assignment`) need only know whether a
result is zero, which `_is_zero` decides on each ordered word's sum as the
engine wrote it, by one `rmatrix.ZeroTest` per check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache, partial
from math import lcm, prod
from operator import add

from .ratfield import (DomainError, Poly, RatFun, checked_int, checked_perm,
                       eps_vec, json_exponents, reading_input, ring_mismatch)
from .rmatrix import (CheckReport, ZeroTest, factored, factored_value,
                      key_product, phi, phi_inv, psi_prime,
                      psi_terms, r_terms, r_terms_shifted, shifted_key)
from .potential import sigma_system_check


class RingSpec:
    """n together with the sigma vector of the defining relations.

    sigma is not validated here; non-flat specs still define the rewriting
    (normal forms are then order-dependent, which verify_pbw detects).
    """

    __slots__ = ("n", "sigma")

    def __init__(self, n, sigma=None):
        self.n = n
        if sigma is None:
            sigma = (RatFun.zero(n),) * n
        sigma = tuple(sigma)
        if len(sigma) != n:
            raise DomainError(f"expected {n} sigma entries, got {len(sigma)}")
        self.sigma = sigma

    # -- element builders

    def zero(self):
        return NormalElement(self.n, {})

    def one(self):
        return self.coeff(RatFun.one(self.n))

    def coeff(self, f):
        if isinstance(f, (int, Fraction)):
            f = RatFun.const(self.n, f)
        if f.is_zero():
            return self.zero()
        z = (0,) * self.n
        return NormalElement(self.n, {(z, z): f})

    def h(self, i):
        return self.coeff(RatFun.var(self.n, i))

    def _unit(self, a, b):
        return NormalElement(self.n, {(a, b): RatFun.one(self.n)})

    def x(self, i):
        return self._unit((0,) * self.n, eps_vec(self.n, i))

    def d(self, i):
        return self._unit(eps_vec(self.n, i), (0,) * self.n)

    def gamma(self, i):
        """d_i x^i, already normal."""
        e = eps_vec(self.n, i)
        return self._unit(e, e)

    def __eq__(self, other):
        return (isinstance(other, RingSpec) and self.n == other.n
                and all(a == b for a, b in zip(self.sigma, other.sigma)))

    __hash__ = None

    def __repr__(self):
        return f"RingSpec<n={self.n}, sigma={list(self.sigma)!r}>"


class NormalElement:
    """Finite sum of coeff * d^a x^b monomials, keyed by (a, b) tuples.

    The key (a, b) denotes d_n^{a_n}..d_1^{a_1} x_n^{b_n}..x_1^{b_1}."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms):
        self.n = n
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, NormalElement):
            return NotImplemented
        if self.n != other.n or set(self.terms) != set(other.terms):
            return False
        return all(self.terms[k] == other.terms[k] for k in self.terms)

    __hash__ = None

    def __add__(self, other):
        if self.n != other.n:
            raise ring_mismatch(self.n, other.n)
        out = dict(self.terms)
        for k, v in other.terms.items():
            _add_term(out, k, v)
        return NormalElement(self.n, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return NormalElement(self.n, {k: -v for k, v in self.terms.items()})

    def scale(self, f):
        """Left multiplication by a coefficient."""
        if isinstance(f, (int, Fraction)):
            f = RatFun.const(self.n, f)
        return NormalElement(self.n, {k: f * v for k, v in self.terms.items()})

    def weights(self):
        """Set of term weights (b - a) as vectors."""
        return {tuple(b - a for a, b in zip(ak, bk)) for ak, bk in self.terms}

    @staticmethod
    def _mono_tokens(a, b):
        w = []
        for i in range(len(a), 0, -1):
            w.extend([('d', i)] * a[i - 1])
        for i in range(len(b), 0, -1):
            w.extend([('x', i)] * b[i - 1])
        return w

    def to_json(self):
        terms = []
        for (a, b), f in sorted(self.terms.items()):
            terms.append({"d": list(a), "x": list(b), "coeff": f.to_json()})
        return {"n": self.n, "terms": terms}

    @classmethod
    def from_json(cls, obj):
        """Inverse of to_json; DomainError on a malformed object."""
        with reading_input("element"):
            n = checked_int(obj["n"], 1)
            terms = {}  # terms with the same monomial add up
            for t in obj["terms"]:
                key = (json_exponents(t["d"], n), json_exponents(t["x"], n))
                _add_term(terms, key, RatFun.from_json(n, t["coeff"]))
        return cls(n, terms)

    def __repr__(self):
        bits = [f"({f!r})*" + ("".join(f"{s}{i}" for s, i
                                       in self._mono_tokens(a, b)) or "1")
                for (a, b), f in sorted(self.terms.items())]
        return "NormalElement<" + (" + ".join(bits) or "0") + ">"


# ---------------------------------------------------------------------------
# the rewriting engine


def _add_term(acc, key, c):
    """acc[key] += c in place; a slot that cancels is dropped."""
    prev = acc.get(key)
    if prev is not None:
        c = prev + c
    if c.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = c


def _rewrite(n, walks, order, resolve):
    """Rewrite a sum of token words into a factored sum over each ordered
    generator word.  walks lists the words as (strategy, word) pairs.

    Tokens are generators (species, index, ...) with species 'x' or 'd',
    and factored and opaque coefficients (see the module docstring).  A
    coefficient moved left across x_j is shifted by -e_j, across d_j by
    +e_j: a factored one on its keys, where h_p - h_q + a becomes
    h_p - h_q + a + s_p - s_q, and an opaque one by keeping the shift
    beside it.  An adjacent pair t1 t2 is out of order when
    order(t1) > order(t2), and resolve(t1, t2) returns its replacement as a
    list of token lists (a sum).  A word's strategy picks which out-of-order
    pair of it, and of every word it rewrites to, is rewritten first: the
    leftmost ("left") or the rightmost ("right").  The result does not
    depend on the strategies exactly when the rules are confluent.

    A path's coefficient is a constant, the factors it has met and its
    opaque tokens with their shifts: a product multiplies constants and
    adds exponents, and a constant opaque token folds into the constant, so
    no RatFun is multiplied or added here.  A path that reaches an ordered
    word merges into that word's sum, whatever its strategy, so memory grows
    with the distinct terms, not with the paths.

    Returns (sums, tokens).  sums maps each ordered generator tuple to its
    sum {(key, refs): c}: c a nonzero constant, key the sorted factor
    exponents of `rmatrix`, and refs the sorted (name, shift) of the term's
    opaque tokens, where tokens maps each name to its token, and a name is
    the token's id."""
    sums = {}
    tokens = {}
    consts = {}  # name -> the token's constant value, or None
    keys = {}  # generator -> order(generator)
    stack = [(strategy == "left", 1, (), (), list(w)) for strategy, w in walks]
    while stack:
        left, c, facs, refs, toks = stack.pop()
        gens = []
        ranks = []
        svec = [0] * n
        for t in toks:
            kind = type(t)
            if kind is tuple:
                gens.append(t)
                k = keys.get(t)
                if k is None:
                    k = keys[t] = order(t)
                ranks.append(k)
                svec[t[1] - 1] += -1 if t[0] == 'x' else 1
            elif kind is dict:
                [(key, k)] = t.items()
                c *= k
                if key:
                    if gens and any(svec):
                        key = shifted_key(key, svec)
                    facs += (key,)
            else:
                # tokens keeps t alive, so its id names it for the whole walk
                name = id(t)
                if name not in tokens:
                    tokens[name] = t
                    consts[name] = t.const_value()
                k = consts[name]
                if k is None:
                    refs += ((name, tuple(svec)),)
                else:
                    c *= k
        if not c:
            continue
        idx = None
        for p in (range(len(ranks) - 1) if left
                  else range(len(ranks) - 2, -1, -1)):
            if ranks[p] > ranks[p + 1]:
                idx = p
                break
        if idx is None:
            term = (key_product(facs),
                    refs if len(refs) < 2 else tuple(sorted(refs)))
            slot = sums.setdefault(tuple(gens), {})
            c += slot.get(term, 0)
            if c:
                slot[term] = c
            else:
                del slot[term]
            continue
        head, tail = gens[:idx], gens[idx + 2:]
        for repl in resolve(gens[idx], gens[idx + 1]):
            stack.append((left, c, facs, refs, head + repl + tail))
    return sums, tokens


def _token_value(n, t):
    """The RatFun of a coefficient token."""
    if type(t) is dict:
        [(key, c)] = t.items()
        v = factored_value(n, key)
        return v if c == 1 else v * c
    return t


def _values(n, result):
    """The canonical RatFun of each ordered word's sum in an engine result,
    for the words where it is not zero.  A term's factored part is the
    cached canonical value of its key; the terms with the same opaque
    tokens are added, and each such sum is multiplied by those tokens, one
    at a time, so that its denominator cancels against each in turn, in the
    order the walk met them: a token's name is its id, so name order would
    change the operations from run to run, though not the result."""
    sums, tokens = result
    rank = {name: r for r, name in enumerate(tokens)}.get
    out = {}
    for gens, terms in sums.items():
        groups = {}  # refs -> the sum of their terms' factored parts
        for (key, refs), c in terms.items():
            v = c  # a term without factors stays a scalar
            if key:
                v = factored_value(n, key)
                if c != 1:
                    v = -v if c == -1 else v * c
            prev = groups.get(refs)
            groups[refs] = v if prev is None else prev + v
        total = None
        for refs, v in groups.items():
            for name, svec in sorted(refs, key=lambda ref: rank(ref[0])):
                f = tokens[name].shift(svec)
                if type(v) is RatFun:
                    v = v * f
                else:
                    v = f if v == 1 else f * v
            if type(v) is not RatFun:
                v = RatFun.const(n, v)
            total = v if total is None else total + v
        if total is not None and not total.is_zero():
            out[gens] = total
    return out


def _is_zero(result, test):
    """Whether an engine result is zero: whether the ZeroTest test finds
    each ordered word's sum zero, with no canonical form built."""
    sums, tokens = result
    for t in tokens.values():
        test.hold(t)
    return all(map(test.is_zero, sums.values()))


def _exponents(n, gens):
    """(a, b) exponents of an ordered word of d's and x's."""
    a = [0] * n
    b = [0] * n
    for s, i in gens:
        (a if s == 'd' else b)[i - 1] += 1
    return tuple(a), tuple(b)


@lru_cache(maxsize=None)
def _swap_coeff(n, kind, i, j):
    """Coefficient of the same-copy swap of generators i < j of one species,
    as a factored token: x^i x^j = (h_ij + 1)/h_ij x^j x^i and
    d_i d_j = (h_ij - 1)/h_ij d_j d_i."""
    return factored([(i, j, 1 if kind == "xx" else -1, 1), (i, j, 0, -1)])


def _order(t):
    # d's left of x's, then by copy tag (none in one copy), descending index
    return (t[0] == 'x', t[2:], -t[1])


def is_overlap_ambiguity(word):
    """True when both adjacent pairs of the three-generator word are out of
    order, in the ring order or its multi-copy form.

    Only these words need double reduction (Bergman's diamond lemma: the
    overlap ambiguities decide confluence).  Every rule replaces one
    adjacent pair, so a word x d d or x x d rewrites only into words of at
    most three generators shaped d x d, d d x, x d x, d x x or shorter, and
    each of those has at most one out-of-order pair.  So when the starting
    word has at most one, the "left" and "right" strategies rewrite the same
    pair at every step, and their normal forms are the same computation."""
    return _order(word[0]) > _order(word[1]) > _order(word[2])


_MINUS_ONE = {(): -1}


def _resolve(n, sigma, t1, t2):
    """Replace the out-of-order pair t1 t2; returns list of token lists.

    The one rule table of the ring and of its multi-copy form: generators
    are (species, index) in one copy and (species, index, copy) in several,
    and the copy tag t[2:] rides along.  sigma(i, ta, tb) is the zero-order
    term of x^{i,ta} d_{i,tb} for the tags ta, tb."""
    s1, i = t1[:2]
    s2, j = t2[:2]
    ta, tb = t1[2:], t2[2:]
    if s1 == s2 and ta == tb:
        # x^i x^j -> (h_ij + 1)/h_ij x^j x^i, d_i d_j -> (h_ij - 1)/h_ij d_j d_i
        return [[_swap_coeff(n, s1 + s2, i, j), t2, t1]]
    if s1 == s2 and i == j:
        return [[t2, t1]]
    if s1 == 'x' and s2 == 'x':
        # x^{i,ta} x^{j,tb} = sum R^{ij}_{kl} x^{k,tb} x^{l,ta}   (ta > tb)
        return [[r_terms(n, i, j, i, j), ('x', i) + tb, ('x', j) + ta],
                [r_terms(n, i, j, j, i), ('x', j) + tb, ('x', i) + ta]]
    if s1 == 'd':
        # d_{i,ta} d_{j,tb} = sum d_{l,tb} d_{k,ta} R^{kl}_{ji}   (ta > tb);
        # both coefficients only involve h_i - h_j, so moving them left past
        # the two d's costs no shift
        return [[r_terms(n, j, i, j, i), ('d', i) + tb, ('d', j) + ta],
                [r_terms(n, i, j, j, i), ('d', j) + tb, ('d', i) + ta]]
    # x^{i,ta} d_{j,tb} = sum_{k,l} d_{k,tb} R^{ki}_{lj}[e_k] x^{l,ta}
    #                     - delta_ij sigma(i, ta, tb)
    if i < j:
        return [[t2, t1]]  # R^{ji}_{ij} = 1
    if i > j:
        # R^{ji}_{ij}[e_j] = h_ij (h_ij - 2) / (h_ij - 1)^2
        return [[r_terms_shifted(n, j, i, i, j, eps_vec(n, j)), t2, t1]]
    out = []
    for k in range(1, n + 1):
        if k == i:
            out.append([t2, t1])  # R^{ii}_{ii} = 1
        else:
            # R^{ki}_{ki}[e_k] = 1/(h_k - h_i + 1)
            out.append([r_terms_shifted(n, k, i, k, i, eps_vec(n, k)),
                        ('d', k) + tb, ('x', k) + ta])
    # -1 as its own token, so that sigma keeps its identity
    out.append([_MINUS_ONE, sigma(i, ta, tb)])
    return out


def _ring_resolve(spec):
    """The ring's rules, with spec.sigma as the zero-order terms."""
    return partial(_resolve, spec.n, lambda i, ta, tb: spec.sigma[i - 1])


def _ring_form(spec, words, strategy):
    """Normal form of the sum of the token words."""
    n = spec.n
    terms = _values(n, _rewrite(n, [(strategy, w) for w in words], _order,
                                _ring_resolve(spec)))
    return NormalElement(n, {_exponents(n, g): c for g, c in terms.items()})


def normal_form(spec, word, strategy="left"):
    """Normal-order a token word (iterable of ('x', i) / ('d', i) / RatFun).

    strategy picks which defect to rewrite first; any strategy gives the same
    result exactly when sigma is flat."""
    return _ring_form(spec, [word], strategy)


def _product_words(a, b):
    """The token words whose sum is the product of two normal elements."""
    mono = NormalElement._mono_tokens
    return [[fa, *mono(am, bm), fb, *mono(an, bn)]
            for (am, bm), fa in a.terms.items()
            for (an, bn), fb in b.terms.items()]


def multiply(spec, a, b, strategy="left"):
    """Product of two normal elements, re-normal-ordered."""
    return _ring_form(spec, _product_words(a, b), strategy)


def commutator(spec, a, b):
    return multiply(spec, a, b) - multiply(spec, b, a)


# ---------------------------------------------------------------------------
# the opposite ("module") order: x left of d, for acting on lowest weights


def _module_order(t):
    # x's left of d's, each species in descending index
    return (t[0] == 'd', -t[1])


def _resolve_module(spec, t1, t2):
    """The module order's rules.  The zero-order term of d_i x^i, gamma_i,
    is n words Psi^{ik}_{ik} sigma_k of one factored and one opaque token
    each, so that no RatFun is added for it."""
    n = spec.n
    s1, j = t1
    s2, i = t2
    if s1 == s2:
        # the ring's rule; a same-species swap has no zero-order term
        return _resolve(n, None, t1, t2)
    # d_j x^i -> sum_{k,l} Psi^{ik}_{jl} x^l d_k + sum_k Psi^{ik}_{jk} sigma_k
    if j != i:
        return [[psi_terms(n, i, j, j, i), ('x', i), ('d', j)]]
    out = []
    for k in range(1, n + 1):
        psi_k = psi_terms(n, i, k, i, k)
        out += [[psi_k, ('x', k), ('d', k)], [psi_k, spec.sigma[k - 1]]]
    return out


def _values_at(n, result, weight):
    """{b: the value at weight + b of the sum of the ordered word x^b}, for
    the words of a module-order engine result that hold no d, where that
    value is not 0.  With D the common denominator of the weight and
    X = D weight, a factor h_i - h_j + a at weight + s is F / D, for
    F = X_i - X_j + (a + s_i - s_j) D, and an opaque token there is u / v,
    its numerator's value, over its factors.  A term is then a product of
    integer powers, and a word's terms are added in ints over one common
    denominator, each integer to the lowest power a term takes it to, with
    one division at the end, as Poly.evaluate adds."""
    sums, tokens = result
    D = lcm(*(x.denominator for x in weight))
    X = [x.numerator * (D // x.denominator) for x in weight]
    facs = {}  # (i, j, a) -> F
    nums = {}  # (name, shift) -> (u, v)
    out = {}
    for gens, terms in sums.items():
        if gens and gens[-1][0] == 'd':
            continue  # a d-part kills the lowest vector
        b = _exponents(n, gens)[1]
        rows = []
        for (key, refs), c in terms.items():
            pows = {D: 0, c.denominator: -1}  # integer -> its exponent
            parts = [(fac, e, b) for fac, e in key]
            for name, svec in refs:
                f = tokens[name]
                shift = tuple(map(add, b, svec))
                if (name, shift) not in nums:
                    v = f.num.evaluate(tuple(map(add, weight, shift)))
                    nums[name, shift] = v.numerator, v.denominator
                u, v = nums[name, shift]
                pows[u] = pows.get(u, 0) + 1
                pows[v] = pows.get(v, 0) - 1
                parts += [(fac, -m, shift) for fac, m in f.den.items()]
            for (i, j, a), e, s in parts:
                fac = (i, j, a + s[i - 1] - s[j - 1])
                if fac not in facs:
                    facs[fac] = X[i - 1] - X[j - 1] + fac[2] * D
                pows[facs[fac]] = pows.get(facs[fac], 0) + e
                pows[D] -= e
            rows.append((c.numerator, pows))
        low = {}  # integer -> the lowest exponent of a term, if below 0
        for _, pows in rows:
            for z, e in pows.items():
                if e < low.get(z, 0):
                    low[z] = e
        total = 0
        for t, pows in rows:
            for z in pows.keys() | low.keys():
                e = pows.get(z, 0) - low.get(z, 0)
                if e:
                    t *= z ** e
            total += t
        if total:
            out[b] = Fraction(total, prod(z ** -e for z, e in low.items()))
    return out


def module_form(spec, words, strategy="left", weight=None):
    """Order a sum of token words with x left of d, both descending, in one
    walk, for acting on a lowest weight vector, which a term still holding
    a d kills.  Without a weight: the canonical form, a dict (a, b) -> the
    RatFun left of x^b d^a.  With a generic weight lambda (a tuple of
    rationals, no lambda_i - lambda_j an integer): a dict b -> the value
    of the coefficient of x^b at lambda + b, where it is not 0, read off the
    walk term by term (_values_at).  That value is exact: every denominator
    of a term is a product of h_i - h_j + a at lambda + b + s, s an integer
    shift, and lambda_i - lambda_j plus an integer is never 0."""
    n = spec.n
    result = _rewrite(n, [(strategy, w) for w in words], _module_order,
                      partial(_resolve_module, spec))
    if weight is not None:
        return _values_at(n, result, weight)
    return {_exponents(n, g): c for g, c in _values(n, result).items()}


# ---------------------------------------------------------------------------
# anti-automorphism


def epsilon_antiauto(spec, elem):
    """The involutive anti-automorphism: fixes the weight field,
    d_i -> phi_i x^i and x^i -> d_i phi_i^{-1}."""
    n = spec.n
    image = {'d': lambda i: [phi(n, i), ('x', i)],
             'x': lambda i: [('d', i), phi_inv(n, i)]}
    # each term's monomial reversed and mapped, then its coefficient
    words = [[t for s, i in reversed(NormalElement._mono_tokens(a, b))
              for t in image[s](i)] + [f]
             for (a, b), f in elem.terms.items()]
    return _ring_form(spec, words, "left")


# ---------------------------------------------------------------------------
# PBW / flatness verification


class PBWReport:
    """The double-reduction and difference-system CheckReports, compared.

    residual is left - right of the first word whose two normal forms
    differ, or None when double reduction passes."""

    def __init__(self, direct, system, residual=None):
        self.direct = direct
        self.system = system
        self.residual = residual

    @property
    def agree(self):
        return self.direct.passed == self.system.passed

    @property
    def flat(self):
        return self.direct.passed and self.system.passed


def overlap_words(n, xtags=((),), dtags=((),)):
    """The words of double reduction, x^i d_j d_k and x^j x^k d_i for all
    i, j, k, with each x tagged by every tag of xtags and each d by every
    tag of dtags: a ring token has no tag, a multi-copy token carries (a,)."""
    words = []
    for i, j, k in itertools.product(range(1, n + 1), repeat=3):
        words += [(('x', i) + a, ('d', j) + b, ('d', k) + g)
                  for a in xtags for b in dtags for g in dtags]
        words += [(('x', j) + a, ('x', k) + g, ('d', i) + b)
                  for a in xtags for g in xtags for b in dtags]
    return words


def word_label(word):
    """A word as failures name it: x1*d1*d2, and x1,2 for a tagged token."""
    return "*".join(t[0] + ",".join(map(str, t[1:])) for t in word)


def index_label(names, values):
    """Indices as failures name them: index_label("ij", (1, 2)) is
    (i,j)=(1,2)."""
    return f"({','.join(names)})=({','.join(map(str, values))})"


def double_reduction(name, n, words, resolve, form):
    """Reduce each overlap ambiguity w among words both ways under the rules
    resolve, as one engine walk of w "left" minus w "right", and decide
    that difference per ordered word by one rmatrix.ZeroTest for every
    word, with no canonical form built: a sum that is a renaming, a
    translate or a multiple by a product of linear factors of one decided
    for an earlier word reuses that verdict.  Every other word counts as a
    pass, as both strategies take the same steps on it (see
    is_overlap_ambiguity).
    Returns the CheckReport of one check per word, each failure labelled by
    its word, and form(word, "left"), form(word, "right"), the two
    canonical forms of the first word that differs, or None."""
    failures = []
    first = None
    test = ZeroTest(n)
    for w in words:
        if not is_overlap_ambiguity(w):
            continue
        walks = [("left", w), ("right", [_MINUS_ONE, *w])]
        if not _is_zero(_rewrite(n, walks, _order, resolve), test):
            failures.append(word_label(w))
            if first is None:
                first = form(w, "left"), form(w, "right")
    return CheckReport(name, len(words), failures), first


def verify_pbw(spec):
    """Two independent flatness checks: (a) double reduction of the 2n^3
    words x^i d_j d_k and x^j x^k d_i, which reduces the n^2(n-1) overlap
    ambiguities (j < k); (b) the closed difference system
    h_ij Delta_j sigma_i = sigma_i - sigma_j, whose failure is labelled by
    its pair, such as "sigma (i,j)=(1,2)"."""
    n = spec.n
    direct, first = double_reduction("double reduction", n, overlap_words(n),
                                     _ring_resolve(spec),
                                     partial(normal_form, spec))
    ok, pair = sigma_system_check(spec.sigma)
    system = CheckReport("sigma system", 1,
                         [] if ok else ["sigma " + index_label("ij", pair)])
    return PBWReport(direct, system,
                     None if first is None else first[0] - first[1])


# ---------------------------------------------------------------------------
# generator assignments (homomorphism checks)


class GeneratorAssignment:
    """Images of the generators under a candidate (iso)morphism.

    x_images/d_images: n normal elements each, of a target ring of that n;
    the weight variables map by h_i -> h_{perm[i]}, for perm a permutation
    of 1..n (the identity by default).  DomainError otherwise.
    """

    __slots__ = ("x_images", "d_images", "perm")

    def __init__(self, x_images, d_images, perm=None):
        self.x_images = list(x_images)
        self.d_images = list(d_images)
        n = len(self.x_images)
        if len(self.d_images) != n or any(
                e.n != n for e in self.x_images + self.d_images):
            raise DomainError(f"{n} x-images and {len(self.d_images)} d-images"
                              " are not n images each in a ring of that n")
        self.perm = checked_perm(range(1, n + 1) if perm is None else perm, n)

    def map_coeff(self, f):
        return f.permuted(self.perm)


def check_assignment(src, dst, assign):
    """Verify that the assignment maps every defining relation of src to zero
    in dst.  The relations are read off the rule table: each out-of-order
    pair t1 t2 must map to the image of its replacement.  The image of
    t1 t2 minus that of its replacement is one sum of words of dst, reduced
    once, which must be zero (see _is_zero).  Returns a
    CheckReport of the 2n weight checks and the n(n-1) + n^2 relations: a
    failing weight check is labelled by the generator whose image it
    checks, e.g. "x1", and a failing relation by its word, e.g. "x1*d1"."""
    n = src.n
    if len(assign.x_images) != n or dst.n != n:
        raise DomainError(f"an assignment of {len(assign.x_images)} generator"
                          f" pairs from n={n} into n={dst.n}")
    failures = []
    X = assign.x_images
    D = assign.d_images
    mc = assign.map_coeff

    # weight homogeneity: image of x^i must have weight e_{perm(i)}, image of
    # d_i weight -e_{perm(i)} (so the weight relations map consistently)
    for i in range(1, n + 1):
        if not X[i - 1].weights() <= {eps_vec(n, assign.perm[i - 1])}:
            failures.append(word_label([('x', i)]))
        if not D[i - 1].weights() <= {eps_vec(n, assign.perm[i - 1], -1)}:
            failures.append(word_label([('d', i)]))

    # every pair the ring order rewrites: the n(n-1) same-species pairs,
    # then the n^2 pairs x^i d_j with the diagonal last
    gens = [(s, i) for s in "xd" for i in range(1, n + 1)]
    image = dict(zip(gens, X + D))
    pairs = sorted(((t1, t2) for t1 in gens for t2 in gens
                    if _order(t1) > _order(t2)),
                   key=lambda p: (p[0][0] != p[1][0], p[0][1] == p[1][1],
                                  p[0][1], p[1][1]))
    resolve, dst_resolve = _ring_resolve(src), _ring_resolve(dst)
    test = ZeroTest(n)
    for t1, t2 in pairs:
        # the image of t1 t2 minus the image of its replacement, as one sum
        # of words of dst; the coefficient tokens of a rule stand first, so
        # their images lead each word and are not shifted
        words = _product_words(image[t1], image[t2])
        for repl in resolve(t1, t2):
            coeffs = [_MINUS_ONE] + [mc(_token_value(n, t)) for t in repl
                                     if type(t) is not tuple]
            g = [image[t] for t in repl if type(t) is tuple]
            words += [coeffs + w for w in (_product_words(*g) if g else [[]])]
        if not _is_zero(_rewrite(n, [("left", w) for w in words], _order,
                                 dst_resolve), test):
            failures.append(word_label((t1, t2)))
    return CheckReport("assignment", 2 * n + len(pairs), failures)


def zhelobenko_assignment(spec, i):
    """The step-i candidate symmetry: acts by the transposition (i, i+1) on
    the weight variables; an endomorphism of Diff_{h,sigma} iff sigma is
    polynomial (checked via check_assignment)."""
    n = spec.n
    if not 1 <= i < n:
        raise DomainError(f"step {i} outside 1..{n - 1}")
    perm = list(range(1, n + 1))
    perm[i - 1], perm[i] = perm[i], perm[i - 1]
    X = []
    D = []
    for j in range(1, n + 1):
        if j == i:
            # x^i -> -x^{i+1} h_{i,i+1}/(h_{i,i+1} - 1), coefficient on the right
            f = RatFun.from_poly(Poly.diff(n, i, i + 1)) \
                * RatFun.inverse_diff(n, i, i + 1, -1)
            X.append(normal_form(spec, [('x', i + 1), -f]))
            # d_i -> -(h_{i,i+1} - 1)/h_{i,i+1} d_{i+1}
            g = RatFun.from_poly(Poly.diff(n, i, i + 1, -1)) \
                * RatFun.inverse_diff(n, i, i + 1)
            D.append(spec.d(i + 1).scale(-g))
        elif j == i + 1:
            X.append(spec.x(i))
            D.append(spec.d(i))
        else:
            X.append(spec.x(j))
            D.append(spec.d(j))
    return GeneratorAssignment(X, D, perm=perm)


def scaling_assignment(spec, gamma):
    """x^i -> x^i, d_i -> gamma d_i: maps Diff_{h,sigma} into Diff_{h,sigma/gamma}."""
    n = spec.n
    X = [spec.x(i) for i in range(1, n + 1)]
    D = [spec.d(i).scale(RatFun.const(n, gamma)) for i in range(1, n + 1)]
    return GeneratorAssignment(X, D)


def localized_coordinates_commute(spec):
    """The rescaled coordinates x^i psi'_i commute pairwise inside the ring:
    one check per pair i < j, labelled by its pair, such as (i,j)=(1,2),
    when it fails."""
    n = spec.n
    elems = [normal_form(spec, [('x', i), psi_prime(n, i)])
             for i in range(1, n + 1)]
    failures = [index_label("ij", (i, j))
                for i in range(1, n + 1) for j in range(i + 1, n + 1)
                if not commutator(spec, elems[i - 1], elems[j - 1]).is_zero()]
    return CheckReport("localized coordinates", n * (n - 1) // 2, failures)
