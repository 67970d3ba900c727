"""Seeded job generators and verdict checks for the three workloads.

A job is one call into hdcalc whose verdict is known before it runs: either
by construction (a sigma built as Delta f is flat, a single-entry bump of it
is not, a constant multi-copy array is flat) or from a second route through
the library (the right-first reduction order, the difference equation that
defines rho, the character map).  No expected value is recorded output of
the code under test.

Every generator draws only coefficient values (and, on identities, the
order of a round) from the seed; the job kinds of every round and the shape
of each potential (which symmetric and pole parts it has, and their
degrees) are fixed.  Two seeds therefore give the same workload shape,
which `Job.record` gives per job.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction

from hdcalc.ratfield import Poly, RatFun
from hdcalc.rmatrix import (chi, complete_symmetric, elementary_symmetric,
                            psi_component)
from hdcalc.potential import sigma_from_potential
from hdcalc.diffring import RingSpec, NormalElement, normal_form
from hdcalc.central import central_family, character_map
from hdcalc.multicopy import SigmaArray
from hdcalc.expressions import parse, evaluate, latex_element
# jobs call through module attributes, so that the tracer's wrappers see
# the top-level call too
from hdcalc import cli, diffring, multicopy, rmatrix


class Job:
    """One closed-loop request: `call()` returns the output that `check`
    judges once the job has been timed."""

    __slots__ = ("kind", "n", "shape", "call", "check")

    def __init__(self, kind, n, sigma, call, check):
        self.kind = kind
        self.n = n
        self.shape = [[len(s.num.terms), len(s.den)] for s in sigma]
        self.call = call
        self.check = check

    def record(self):
        return {"kind": self.kind, "n": self.n, "sigma": self.shape}


# ---------------------------------------------------------------------------
# potentials in W with a fixed shape and seeded nonzero coefficients


def _nonzero(rng, lo=-3, hi=3):
    while True:
        c = rng.randint(lo, hi)
        if c:
            return c


class Potential:
    """f = sum_L c_L H_L + sum_k pi_k(h_k)/chi_k, kept both as text for the
    command line and as a RatFun built from the library's constructors."""

    def __init__(self, n, sym, parts):
        self.n = n
        self.sym = sym        # list of (L, c_L), L >= 1
        self.parts = parts    # dict k -> coefficient list of pi_k, k >= 2
        f = RatFun.zero(n)
        for L, c in sym:
            f = f + RatFun.from_poly(complete_symmetric(n, L).scale(c))
        for k, coeffs in parts.items():
            p = Poly.zero(n)
            for m, c in enumerate(coeffs):
                p = p + (Poly.var(n, k) ** m).scale(c)
            f = f + RatFun.from_poly(p) / chi(n, k)
        self.f = f
        bits = [f"({c})*H({L})" for L, c in sym]
        for k, coeffs in parts.items():
            poly = " + ".join(f"({c})*h{k}^{m}" if m else f"({c})"
                              for m, c in enumerate(coeffs))
            bits.append(f"({poly})/chi({k})")
        self.text = " + ".join(bits)

    @classmethod
    def random(cls, rng, n, sym_degrees, pole_degrees):
        """pole_degrees maps k >= 2 to the degree of pi_k."""
        sym = [(L, _nonzero(rng)) for L in sym_degrees]
        parts = {k: [_nonzero(rng) for _ in range(d + 1)]
                 for k, d in pole_degrees.items()}
        return cls(n, sym, parts)

    def sigma(self):
        return sigma_from_potential(self.f, self.n)


# ---------------------------------------------------------------------------
# confluence: verify_pbw at n=2,3 and multi-copy flatness at n=2


def _pbw_job(n, sigma, flat):
    def check(rep):
        return rep.agree and rep.flat == flat
    return Job(f"pbw-{'flat' if flat else 'bumped'}", n, sigma,
               lambda: diffring.verify_pbw(RingSpec(n, sigma)), check)


def _bump(n, sigma, i, which):
    """Add a nonzero term to sigma_i alone.  The (j, i) equation of the
    difference system then fails for any j != i, so the result is never
    flat."""
    bump = [RatFun.var(n, i + 1),
            RatFun.var(n, n - i) ** 2,
            RatFun.inverse_diff(n, 1, 2)][which % 3]
    out = list(sigma)
    out[i] = out[i] + bump
    return tuple(out)


def _multicopy_job(rng, nx, nd, constant):
    n = 2
    if constant:
        vals = {(a, b): Fraction(_nonzero(rng))
                for a in range(1, nx + 1) for b in range(1, nd + 1)}
        s = SigmaArray.constant(n, nx, nd, vals)
    else:
        # one entry per i with an h-dependent value: not constant, not flat
        s = SigmaArray(n, nx, nd, {
            (i, rng.randint(1, nx), rng.randint(1, nd)):
                RatFun.var(n, i) * _nonzero(rng) for i in (1, 2)})

    def call():
        # an oracle budget above the word count makes it an exhaustive
        # double reduction, so its verdict is exact
        return (multicopy.flatness_check(n, nx, nd, s),
                multicopy.ambiguity_oracle(n, nx, nd, s, budget=10 ** 6))

    def check(out):
        chk, orc = out
        return chk.passed == constant and orc.passed == chk.passed

    sigma = [s.entries[k] for k in sorted(s.entries)]
    return Job(f"multicopy-{nx}{nd}-{'const' if constant else 'var'}", n,
               sigma, call, check)


def confluence_round(rng, r):
    jobs = []
    for p in range(2):
        sig = Potential.random(rng, 2, (1, 2, 3), {2: 2}).sigma()
        jobs.append(_pbw_job(2, sig, True))
        jobs.append(_pbw_job(2, _bump(2, sig, (r + p) % 2, r + p), False))
    sig = Potential.random(rng, 3, (1,), {2: 0}).sigma()
    jobs.append(_pbw_job(3, sig, True))
    jobs.append(_pbw_job(3, _bump(3, sig, r % 3, r), False))
    # a third n=3 job, flat in every other round, so that half of all
    # sigmas are flat
    sig = Potential.random(rng, 3, (1,), {3: 0}).sigma()
    if r % 2:
        sig = _bump(3, sig, (r + 1) % 3, r + 1)
    jobs.append(_pbw_job(3, sig, r % 2 == 0))
    for nx, nd in ((2, 1), (1, 2), (2, 2)):
        jobs.append(_multicopy_job(rng, nx, nd, constant=(r + nx) % 2 == 0))
    return jobs


# ---------------------------------------------------------------------------
# identities: the R-matrix sweeps; the seed only orders a round


SWEEPS = {
    "dybe": ("verify_dybe", (2, 3, 4), lambda n: n ** 6),
    "rsq": ("verify_r_squared", (2, 3, 4), lambda n: n ** 4),
    "ice": ("verify_ice", (2, 3, 4), lambda n: n ** 4),
    "shift": ("verify_shift_invariance", (2, 3, 4), lambda n: n ** 4),
    "skew": ("verify_skew_inverse", (2, 3), lambda n: n ** 4),
    "qid": ("verify_q_identity", (2, 3), lambda n: n + 1),
}


def _sweep_job(name, n):
    fn, _, size = SWEEPS[name]
    return Job(name, n, (), lambda: getattr(rmatrix, fn)(n),
               lambda rep: rep.passed and rep.total == size(n))


def identities_round(rng, r):
    # Four sweeps run twice.  verify_dybe(3) makes the tier below
    # verify_dybe(4) wide enough to hold the tail percentile;
    # verify_r_squared(3) puts as many jobs (eight) above the skew(2)/qid(3)
    # tier of ~20 ms as below it, so the median falls in the middle of that
    # tier, and skew(2) and qid(3) double its width: one such job's time
    # varies by about 10% from run to run, and the median of more of them
    # varies less.
    jobs = [_sweep_job(name, n)
            for name, (_, ns, _) in SWEEPS.items() for n in ns]
    jobs += [_sweep_job("dybe", 3), _sweep_job("rsq", 3),
             _sweep_job("skew", 2), _sweep_job("qid", 3)]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# cli: in-process calls of hdcalc.cli.main with captured streams


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


# The examples of README.md, with the output it documents.
README_EXAMPLES = [
    (["verify", "ybe", "-n", "3"], "729/729 pass\n"),
    (["check-pbw", "-n", "2", "--sigmas", "1;1"], "flat\n"),
    (["nf", "x1*d1", "-n", "2", "--sigmas", "1;1"],
     "-1/(h1-h2-1)*d2*x2 + d1*x1 - 1\n"),
    (["solve-potential", "--sigmas", "h1+h1+h2-1;h2+h1+h2-1"], "H(2)\n"),
    (["central", "-n", "2", "--potential", "H(1)"],
     "rho_0 = h1 + h2\nrho_1 = h1*h2\nc_1 = d2*x2 + d1*x1 + (-h1 - h2)\n"
     "c_2 = h1*d2*x2 + h2*d1*x1 - h1*h2\n"),
    (["lw-character", "-n", "2", "--lambda", "4/3;8/3", "--potential",
      "H(1)"], "c_1 = -2\nc_2 = -5/9\n"),
]

VERIFY_TOTALS = {"ybe": 3 ** 6, "rsq": 3 ** 4, "ice": 3 ** 4, "shift": 3 ** 4,
                 "skew": 3 ** 4, "qid": 3 + 1}


def _cli_job(kind, n, sigma, argv, want_rc, check_out):
    def check(res):
        rc, out, err = res
        if rc != want_rc:
            return False
        if rc == 1 and not err:
            return False  # a failed verification explains itself on stderr
        return check_out(out)
    return Job(kind, n, sigma, lambda: run_cli(argv), check)


def _value(text, n, spec=None):
    return evaluate(parse(text.strip()), n, spec)


def _word_text(word):
    return "*".join(f"{s}{i}" for s, i in word)


def _element_json(n, a, b, coeff):
    return json.dumps({"n": n, "terms": [{"d": list(a), "x": list(b),
                                          "coeff": coeff.to_json()}]})


def cli_round(rng, r, scratch):
    jobs = _cli_block(rng, r, 2, Potential.random(rng, 2, (1, 2), {2: 2}))
    jobs += _cli_block(rng, r, 3, Potential.random(rng, 3, (1, 2), {3: 0}))
    jobs += _cli_shared(rng, r, scratch)
    return jobs


def _generic_weight(rng, n):
    """lambda_i = a_i/q_i with distinct primes q_i not dividing a_i, so no
    difference lambda_i - lambda_j is an integer."""
    out = []
    for q in (3, 5, 7)[:n]:
        a = rng.randint(1, 2 * q)
        while a % q == 0:
            a = rng.randint(1, 2 * q)
        out.append(Fraction(a, q))
    return out


def _cli_block(rng, r, n, pot):
    """Commands on one seeded potential at one n."""
    f, F, sig = pot.f, pot.text, pot.sigma()
    spec = RingSpec(n, sig)
    N = ["-n", str(n)]
    sigmas = ";".join(f"Delta({j},{F})" for j in range(1, n + 1))
    lam = _generic_weight(rng, n)
    lam_text = ";".join(str(v) for v in lam)
    jobs = []

    def add(kind, argv, want_rc, check_out, s=sig):
        jobs.append(_cli_job(kind, n, s, argv, want_rc, check_out))

    add("solve-potential", ["solve-potential", "--sigmas", sigmas], 0,
        lambda out: _value(out, n) == f)

    def decomposition(out):
        obj = json.loads(out)
        parts = {int(k): [Fraction(c) for c in v]
                 for k, v in obj["parts"].items()}
        sym = [(L, Fraction(c)) for L, c in obj["symmetric"]]
        return (parts == {k: [Fraction(c) for c in v]
                          for k, v in pot.parts.items()}
                and sym == [(L, Fraction(c)) for L, c in pot.sym])
    add("decompose-json", ["decompose", F, *N, "--format", "json"], 0,
        decomposition)
    add("delta-check", ["delta-check", F, *N], 0, lambda out: out == "pass\n")
    add("delta-check-outside", ["delta-check", f"{F} + h1^2", *N], 1,
        lambda out: out == "fail\n")
    add("check-pbw", ["check-pbw", *N, "--sigmas", sigmas], 0,
        lambda out: out == "flat\n")
    bumped = ";".join(f"Delta({j},{F})" + (" + h1" if j == n else "")
                      for j in range(1, n + 1))
    add("check-pbw-bumped", ["check-pbw", *N, "--sigmas", bumped], 1,
        lambda out: out == "not flat\n")

    def central_lines(out):
        # rho(t) must solve Delta_j rho(t) = prod_{m != j}(1 + h_m t) sigma_j
        lines = out.splitlines()
        if len(lines) != 2 * n:
            return False
        rho = [_value(line.split(" = ", 1)[1], n) for line in lines[:n]]
        for k in range(n):
            for j in range(1, n + 1):
                e = RatFun.from_poly(elementary_symmetric(n, k, skip=j))
                if rho[k].delta(j) != e * sig[j - 1]:
                    return False
        for k in range(1, n + 1):
            want = spec.coeff(-rho[k - 1])
            for i in range(1, n + 1):
                e = RatFun.from_poly(elementary_symmetric(n, k - 1, skip=i))
                want = want + spec.gamma(i).scale(e)
            if _value(lines[n + k - 1].split(" = ", 1)[1], n, spec) != want:
                return False
        return True
    add("central", ["central", *N, "--potential", F], 0, central_lines)

    def characters(out):
        fam = central_family(f, n=n)
        want = [f"c_{k} = {v.evaluate(tuple(lam))}"
                for k, v in enumerate(character_map(fam), start=1)]
        return out.splitlines() == want
    add("lw-character", ["lw-character", *N, "--lambda", lam_text,
                         "--potential", F], 0, characters)

    # d_i x^i acts on the vacuum by gamma_i = sum_k Psi^{ik}_{ik} sigma_k
    def gamma(i):
        g = RatFun.zero(n)
        for k in range(1, n + 1):
            g = g + psi_component(n, i, k, i, k) * sig[k - 1]
        return g.evaluate(tuple(lam))
    i, j = 1 + r % n, 1 + (r + 1) % n

    def scalar(want):
        def check(out):
            terms = json.loads(out)["terms"]
            z = [0] * n
            if want == 0:
                return terms == []
            return (len(terms) == 1 and terms[0]["d"] == z
                    and terms[0]["x"] == z
                    and RatFun.from_json(n, terms[0]["coeff"]).const_value()
                    == want)
        return check
    lw = ["--lambda", lam_text, "--potential", F, "--format", "json"]
    if n == 2:
        add("lw-eval", ["lw-eval", f"d{i}*x{i}*d{j}*x{j}", *N, *lw], 0,
            lambda out: scalar(gamma(i) * gamma(j))(out))
    else:
        add("lw-eval", ["lw-eval", f"d{i}*x{i}", *N, *lw], 0,
            lambda out: scalar(gamma(i))(out))
    add("lw-eval-kill", ["lw-eval", f"x{j}*d{i}", *N, *lw], 0, scalar(0))

    poly = Potential.random(rng, n, (1, 2), {})
    add("zhelobenko-polynomial", ["zhelobenko-check", *N, "--potential",
                                  poly.text], 0,
        lambda out: out == "".join(f"i={i}: pass\n" for i in range(1, n)),
        s=poly.sigma())
    add("zhelobenko-pole", ["zhelobenko-check", *N, "--potential", F], 1,
        lambda out: "fail" in out)

    # products: the library's right-first reduction of the same word is the
    # second route (the command reduces left-first); they agree as sigma is
    # flat
    gens = [("x", 1 + (r + 1) % n), ("d", 1 + r % n), ("x", n), ("d", 1)]
    left, right = gens[:2], gens[2:]
    def want():
        return normal_form(spec, gens, "right")
    fmt = ("text", "json", "latex")[r % 3]
    checks = {
        "text": lambda out: _value(out, n, spec) == want(),
        "json": lambda out: NormalElement.from_json(json.loads(out)) == want(),
        "latex": lambda out: out == latex_element(want()) + "\n",
    }
    pot_flags = ["--potential", F]
    add(f"mul-{fmt}", ["mul", _word_text(left), _word_text(right), *N,
                       *pot_flags, "--format", fmt], 0, checks[fmt])
    fmt2 = ("text", "json", "latex")[(r + 1) % 3]
    add(f"nf-{fmt2}", ["nf", _word_text(gens), *N, *pot_flags,
                       "--format", fmt2], 0, checks[fmt2])

    # a normal element is a fixed point of nf --in json
    a = tuple(int(k == i) for k in range(1, n + 1))
    b = tuple(int(k == j) for k in range(1, n + 1))
    coeff = RatFun.inverse_diff(n, 1, 2, 1 + r % 3) * _nonzero(rng)
    fixed = NormalElement(n, {(a, b): coeff})
    add("nf-json-in", ["nf", _element_json(n, a, b, coeff), "--in", "json",
                       *pot_flags, "--format", "json"], 0,
        lambda out: NormalElement.from_json(json.loads(out)) == fixed)

    return jobs


def _cli_shared(rng, r, scratch):
    """Commands that take no seeded potential."""
    jobs = []

    def add(kind, n, argv, want_rc, check_out, s=()):
        jobs.append(_cli_job(kind, n, s, argv, want_rc, check_out))

    # multi-copy flatness from a file written by the benchmark
    nx, nd = ((2, 1), (1, 2), (2, 2))[r % 3]
    constant = r % 2 == 0

    def value(exps, c):
        return {"num": [[exps, f"{c.numerator}/{c.denominator}"]], "den": []}
    entries = []
    if constant:
        for a in range(1, nx + 1):
            for b in range(1, nd + 1):
                c = Fraction(_nonzero(rng))
                entries += [(i, a, b, value([0, 0], c)) for i in (1, 2)]
    else:
        # sigma_{i,a,b} = h_i at one seeded (a, b) per i
        entries = [(i, rng.randint(1, nx), rng.randint(1, nd),
                    value([int(i == 1), int(i == 2)], Fraction(1)))
                   for i in (1, 2)]
    doc = {"n": 2, "copies": [nd, nx],
           "entries": [{"i": i, "alpha": a, "beta": b, "value": v}
                       for i, a, b, v in entries]}
    path = os.path.join(scratch, f"sigma-{r}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    add(f"flatness-{nx}{nd}", 2, ["flatness", "-n", "2", "--copies",
                              f"{nd},{nx}", "--sigma-file", path],
        0 if constant else 1,
        lambda out: out == ("flat\n" if constant else "not flat\n"),
        s=[RatFun.from_json(2, e["value"]) for e in doc["entries"]])

    # README.md shows `verify ybe -n 3`; the other sweeps rotate here
    what = tuple(VERIFY_TOTALS)[1 + r % (len(VERIFY_TOTALS) - 1)]
    total = VERIFY_TOTALS[what]
    add(f"verify-{what}", 3, ["verify", what, "-n", "3"], 0,
        lambda out: out == f"{total}/{total} pass\n")

    for argv, text in README_EXAMPLES:
        jobs.append(_cli_job(f"readme-{argv[0]}", 0, (), argv, 0,
                             lambda out, text=text: out == text))

    # usage errors exit 2 and print nothing on stdout
    bad = (["nf", "x1*", "-n", "2"], ["verify", "ybe"],
           ["lw-character", "-n", "2", "--lambda", "1;2"])[r % 3]
    jobs.append(_cli_job("usage-error", 0, (), bad, 2, lambda out: out == ""))
    return jobs
