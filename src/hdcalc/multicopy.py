"""Several commuting copies of the coordinate generators.

Generators x^{i,a} (a = 1..nx) and d_{j,b} (b = 1..nd) over the same weight
variables.  Same-copy pairs obey the one-copy rules; cross-copy pairs reorder
through the R-matrix, and x-d pairs through the R-shifted oscillator rule with
a zero-order array sigma_{i,a,b}.  Once more than one copy of either species
is present, flatness forces every sigma entry to be a constant.

The rules are the one rule table of `diffring` (`_resolve`, `_order`): the
tokens ('x', i, a) and ('d', j, b) carry their copy as a tag, where the
one-copy tokens ('x', i) and ('d', j) carry none.
"""

from __future__ import annotations

from functools import partial

from .ratfield import (DomainError, RatFun, checked_int, eps_vec, rank_exact,
                       reading_input)
from .rmatrix import (CheckReport, ZeroTest, add_product, r_component,
                      r_terms_shifted)
from .potential import sigma_system_check
from .diffring import (_order, _resolve, _rewrite, _values, double_reduction,
                       index_label, overlap_words)


class SigmaArray:
    """Zero-order terms sigma_{i,a,b}: i = 1..n, a = 1..nx, b = 1..nd."""

    __slots__ = ("n", "nx", "nd", "entries")

    def __init__(self, n, nx, nd, entries=None):
        self.n = n
        self.nx = nx
        self.nd = nd
        ent = {}
        for (i, a, b), v in (entries or {}).items():
            if not (1 <= i <= n and 1 <= a <= nx and 1 <= b <= nd):
                raise DomainError(f"sigma entry (i, alpha, beta) = {(i, a, b)}"
                                  f" outside n={n}, nx={nx}, nd={nd}")
            if not v.is_zero():
                ent[(i, a, b)] = v
        self.entries = ent

    @classmethod
    def constant(cls, n, nx, nd, values):
        """values: dict (a, b) -> scalar, or a single scalar for all pairs."""
        if not isinstance(values, dict):
            values = {(a, b): values
                      for a in range(1, nx + 1) for b in range(1, nd + 1)}
        ent = {}
        for (a, b), c in values.items():
            for i in range(1, n + 1):
                ent[(i, a, b)] = RatFun.const(n, c)
        return cls(n, nx, nd, ent)

    @classmethod
    def from_one_copy(cls, sigma):
        n = len(sigma)
        return cls(n, 1, 1, {(i, 1, 1): sigma[i - 1] for i in range(1, n + 1)})

    def get(self, i, a, b):
        return self.entries.get((i, a, b), RatFun.zero(self.n))

    def family(self, a, b):
        """The tuple (sigma_{1ab}, ..., sigma_{nab})."""
        return tuple(self.get(i, a, b) for i in range(1, self.n + 1))

    def to_json(self):
        ent = [{"i": i, "alpha": a, "beta": b, "value": v.to_json()}
               for (i, a, b), v in sorted(self.entries.items())]
        return {"n": self.n, "copies": [self.nd, self.nx], "entries": ent}

    @classmethod
    def from_json(cls, obj):
        """Inverse of to_json; DomainError on a malformed object."""
        with reading_input("sigma array"):
            n = checked_int(obj["n"], 1)
            nd, nx = (checked_int(v, 1) for v in obj["copies"])
            ent = {}
            for e in obj["entries"]:
                key = (checked_int(e["i"]), checked_int(e["alpha"]),
                       checked_int(e["beta"]))
                ent[key] = RatFun.from_json(n, e["value"])
        return cls(n, nx, nd, ent)

    def constant_values(self):
        """dict (a, b) -> scalar if every entry is an i-independent constant,
        else None."""
        out = {}
        for a in range(1, self.nx + 1):
            for b in range(1, self.nd + 1):
                vals = set()
                for i in range(1, self.n + 1):
                    c = self.get(i, a, b).const_value()
                    if c is None:
                        return None
                    vals.add(c)
                if len(vals) != 1:
                    return None
                out[(a, b)] = vals.pop()
        return out

    def __repr__(self):
        return (f"SigmaArray<n={self.n} nx={self.nx} nd={self.nd} "
                f"{len(self.entries)} entries>")


def constant_profile(s):
    """Rank and diagonal profile of a constant sigma matrix, or None.

    A constant nx-by-nd matrix can be brought to diagonal form by changes of
    basis in the copies; only the rank survives."""
    vals = s.constant_values()
    if vals is None:
        return None
    rows = [[vals[(a, b)] for b in range(1, s.nd + 1)]
            for a in range(1, s.nx + 1)]
    r = rank_exact(rows)
    return r, tuple([1] * r + [0] * (min(s.nx, s.nd) - r))


# ---------------------------------------------------------------------------
# mixed rewriting over tokens ('x', i, a) / ('d', j, b) / RatFun


def _mixed_resolve(n, sig):
    """The rule table on copy-tagged tokens, with sig's entries as the
    zero-order terms."""
    return partial(_resolve, n, lambda i, ta, tb: sig.get(i, ta[0], tb[0]))


def mixed_normal_form(n, sig, word, strategy="left"):
    """Normal-order a mixed multi-copy word.

    Returns dict: canonical generator tuple -> RatFun.  Canonical order is
    d-block then x-block, each sorted by (copy, descending index)."""
    copies = {'x': sig.nx, 'd': sig.nd}
    for t in word:
        if not (isinstance(t, RatFun)
                or 1 <= t[1] <= n and 1 <= t[2] <= copies.get(t[0], 0)):
            raise DomainError(f"token {t!r} is outside indices 1..{n}, copies"
                              f" 1..{sig.nx} of x and 1..{sig.nd} of d")
    return _values(n, _rewrite(n, [(strategy, word)], _order,
                               _mixed_resolve(n, sig)))


def vcopy_normal_form(n, ncopies, word, strategy="left"):
    """Normal form in the pure coordinate ring on ncopies copies of the x's;
    with no copy of the d's, a d token is refused."""
    return mixed_normal_form(n, SigmaArray(n, ncopies, 0), word, strategy)


# ---------------------------------------------------------------------------
# flatness


def _ysy1_failure(n, fam):
    # R^{ui}_{kj} (sigma_k - sigma_i[-e_u]) = 0, one factor at a time; the
    # read of R keeps perfbench's rmatrix.component_calls nonzero until the
    # program keeps its own counters
    for u in range(1, n + 1):
        for i in range(1, n + 1):
            shifted = fam[i - 1].shift(eps_vec(n, u, -1))
            for (k, j) in {(u, i), (i, u)}:
                if not (r_component(n, u, i, k, j).is_zero()
                        or (fam[k - 1] - shifted).is_zero()):
                    return (u, i, k, j)
    return None


def _ysy2_failure(n, fam):
    # delta^i_j delta^u_k sigma_i = sum_ab R^{ab}_{kj}[-e_i] R^{ui}_{ab}[e_u]
    #                                       sigma_a[e_u],
    # as one sum of factored terms, rhs - lhs: each sigma is an opaque
    # token, and a constant one folds into the constants
    test = ZeroTest(n)
    held = []
    for f in fam:
        k = f.const_value()
        held.append((1, test.hold(f)) if k is None else (k, None))

    def add(acc, terms, a, svec):
        # acc += terms * sigma_a[svec]
        k, name = held[a - 1]
        refs = () if name is None else ((name, svec),)
        for key, c in terms.items():
            acc[key, refs] = acc.get((key, refs), 0) + c * k

    for u in range(1, n + 1):
        su = eps_vec(n, u)
        for i in range(1, n + 1):
            si = eps_vec(n, i, -1)
            pairs = {(u, i), (i, u)}
            for (k, j) in pairs:
                total = {}
                if (i, u) == (j, k):
                    add(total, {(): -1}, i, (0,) * n)
                for (a, b) in pairs:
                    rhs = {}
                    add_product(rhs, r_terms_shifted(n, a, b, k, j, si),
                                r_terms_shifted(n, u, i, a, b, su))
                    add(total, rhs, a, su)
                if not test.is_zero({t: c for t, c in total.items() if c}):
                    return (u, i, k, j)
    return None


def _check_shape(n, nx, nd, s):
    if (s.n, s.nx, s.nd) != (n, nx, nd):
        raise DomainError(f"sigma array of n={s.n}, copies {s.nd},{s.nx} does"
                          f" not match n={n}, copies {nd},{nx}")


def flatness_check(n, nx, nd, s):
    """PBW flatness of the mixed ring with nx x-copies and nd d-copies.

    With a single copy of each species only the one-copy system on sigma is
    required; with more copies the cross-copy orderings force the sigma
    entries to be constants."""
    _check_shape(n, nx, nd, s)
    multi = max(nx, nd) >= 2
    failures = []
    for a in range(1, nx + 1):
        for b in range(1, nd + 1):
            fam = s.family(a, b)
            ok, pair = sigma_system_check(fam)
            if not ok:
                failures.append(f"sigma a={a} b={b} {index_label('ij', pair)}")
            if not multi:
                continue
            for eq, failure in (("ysy1", _ysy1_failure), ("ysy2", _ysy2_failure)):
                w = failure(n, fam)
                if w is not None:
                    failures.append(f"{eq} a={a} b={b} {index_label('uikj', w)}")
    total = nx * nd * (3 if multi else 1)
    return CheckReport(f"flatness n={n} nx={nx} nd={nd}", total, failures)


# ---------------------------------------------------------------------------
# double-reduction oracle


def ambiguity_oracle(n, nx, nd, s, budget=10_000):
    """Double reduction (`diffring.double_reduction`) of the words x d d
    and x x d over every copy; a word that differs witnesses non-flatness.

    The check is exhaustive: `budget` only caps the work, counted in all
    words, and more words than it raise DomainError, before any word is
    built, instead of checking a sample."""
    _check_shape(n, nx, nd, s)
    total = n ** 3 * nx * nd * (nx + nd)
    if total > budget:
        raise DomainError(f"ambiguity oracle: {total} words exceed the "
                          f"budget of {budget}")
    tags = [[(a,) for a in range(1, m + 1)] for m in (nx, nd)]
    report, _ = double_reduction(
        f"ambiguity n={n} nx={nx} nd={nd}", n, overlap_words(n, *tags),
        _mixed_resolve(n, s), partial(mixed_normal_form, n, s))
    return report
