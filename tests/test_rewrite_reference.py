"""The rewriting engine against a reference copy of a plain stack loop.

`_rewrite_reference` is the engine as a word stack of canonical RatFun
coefficients, with no bookkeeping: it pops a (coefficient, word) pair, moves
every coefficient token to the left, a factored one first turned into a
RatFun factor by factor, finds the out-of-order pair with `order` on each
visit, and pushes the replacements.  The public forms in `diffring` and
`multicopy` must give the same terms, in the same order, for the ring's
normal form, the module form and the multi-copy mixed form, in both
strategies, also where sigma is not flat and the two strategies disagree.
"""

import random
from functools import partial

import pytest

from hdcalc import diffring
from hdcalc.diffring import RingSpec, module_form, normal_form
from hdcalc.multicopy import SigmaArray, mixed_normal_form
from hdcalc.ratfield import Poly, RatFun


def _token_ratfun(n, t):
    """A coefficient token as a RatFun: a factored one {key: c} built
    factor by factor, an opaque one as it is."""
    if not isinstance(t, dict):
        return t
    [(key, c)] = t.items()
    num, den = Poly.const(n, c), []
    for (i, j, a), e in key:
        if e > 0:
            num = num * Poly.diff(n, i, j, a) ** e
        else:
            den.append(((i, j, a), -e))
    return RatFun.build(num, den)


def _rewrite_reference(n, words, order, resolve, strategy):
    acc = {}
    stack = [(RatFun.one(n), list(w)) for w in words]
    while stack:
        coeff, toks = stack.pop()
        gens = []
        svec = [0] * n
        for t in toks:
            if not isinstance(t, tuple):
                t = _token_ratfun(n, t)
                if any(svec):
                    t = t.shift(tuple(svec))
                coeff = coeff * t
            else:
                gens.append(t)
                svec[t[1] - 1] += -1 if t[0] == 'x' else 1
        if coeff.is_zero():
            continue
        pairs = range(len(gens) - 1)
        if strategy != "left":
            pairs = reversed(pairs)
        idx = next((p for p in pairs if order(gens[p]) > order(gens[p + 1])),
                   None)
        if idx is None:
            diffring._add_term(acc, tuple(gens), coeff)
            continue
        head, tail = gens[:idx], gens[idx + 2:]
        for repl in resolve(gens[idx], gens[idx + 1]):
            stack.append((coeff, head + repl + tail))
    return acc


def _h(n, i):
    return RatFun.var(n, i)


def _coefficients(n):
    """Coefficient tokens: a constant, a polynomial and a rational function
    with a shifted-difference pole."""
    return [RatFun.const(n, 3), _h(n, 1) + 2,
            RatFun.build(Poly.var(n, n), [(1, n, 1)])]


def _words(rng, n, count, copies=0):
    """Seeded words of 2-6 generators over indices 1..n, tagged with a copy
    in 1..copies when copies > 0; about half carry a coefficient token."""
    coeffs = _coefficients(n)
    out = []
    for _ in range(count):
        word = []
        for _ in range(rng.randint(2, 6)):
            tag = (rng.randint(1, copies),) if copies else ()
            word.append((rng.choice("xd"), rng.randint(1, n)) + tag)
        if rng.random() < 0.5:
            word.insert(rng.randint(0, len(word)), rng.choice(coeffs))
        out.append(word)
    return out


def _items(form):
    """A form's (key, value) pairs in order; a NormalElement by its terms."""
    return list(getattr(form, "terms", form).items())


def _ring_reference(spec, word, strategy):
    n = spec.n
    terms = _rewrite_reference(n, [word], diffring._order,
                               diffring._ring_resolve(spec), strategy)
    return {diffring._exponents(n, g): c for g, c in terms.items()}


def _module_reference(spec, word, strategy):
    n = spec.n
    terms = _rewrite_reference(n, [word], diffring._module_order,
                               partial(diffring._resolve_module, spec),
                               strategy)
    return {diffring._exponents(n, g): c for g, c in terms.items()}


def _not_flat_specs():
    s2 = RingSpec(2, (RatFun.one(2), _h(2, 1)))
    s3 = RingSpec(3, (_h(3, 2), RatFun.one(3), _h(3, 1)))
    return [s2, s3]


@pytest.mark.parametrize("spec", _not_flat_specs(), ids=["n2", "n3"])
def test_ring_and_module_forms_match_the_reference(spec):
    n = spec.n
    words = _words(random.Random(20 + n), n, 40)
    pairs = ((normal_form, _ring_reference),
             (lambda s, w, strategy: module_form(s, [w], strategy),
              _module_reference))
    got = [_items(f(spec, w, strategy)) for w in words for f, _ in pairs
           for strategy in ("left", "right")]
    want = [_items(ref(spec, w, strategy)) for w in words for _, ref in pairs
            for strategy in ("left", "right")]
    assert got == want
    # the sigmas are not flat: the two strategies differ on some word
    assert any(got[k] != got[k + 1] for k in range(0, len(got), 2))


def test_mixed_forms_match_the_reference():
    n = 2
    sig = SigmaArray(2, 2, 2, {(1, 1, 1): RatFun.one(n),
                               (2, 1, 1): _h(n, 1),
                               (1, 1, 2): RatFun.const(n, 2),
                               (2, 2, 1): _h(n, 2) - 1,
                               (1, 2, 2): RatFun.one(n)})
    words = _words(random.Random(5), n, 50, copies=2)
    resolve = partial(diffring._resolve, n,
                      lambda i, ta, tb: sig.get(i, ta[0], tb[0]))
    got = [_items(mixed_normal_form(n, sig, w, strategy))
           for w in words for strategy in ("left", "right")]
    want = [_items(_rewrite_reference(n, [w], diffring._order, resolve,
                                      strategy))
            for w in words for strategy in ("left", "right")]
    assert got == want
    assert any(got[k] != got[k + 1] for k in range(0, len(got), 2))
