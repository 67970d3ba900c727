"""Command line interface.

Exit codes: 0 success / verification passed, 1 verification failed,
2 usage or parse error.  Diagnostics go to stderr.

The argument parser is built once per process, on the first call of `main`,
and holds no per-call state: the `--format` default is read from
HDCALC_FORMAT on every call, after parsing.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from . import rmatrix
from .ratfield import (RatFun, DomainError, PoleError, checked_int,
                       int_from_text, number_text, reading_input)
from .diffring import RingSpec, NormalElement, \
    verify_pbw, zhelobenko_assignment, check_assignment
from .potential import (NotFlat, NotInW, delta_system_check, w_decompose,
                        reconstruct_potential, sigma_from_potential)
from .central import central_family, MismatchError
from .lowestweight import Weight, NonGenericWeight, LWVector, act, \
    central_character
from .multicopy import SigmaArray, flatness_check
from .expressions import (parse, infer_n, evaluate, ast_to_text, format_value,
                          format_decomposition, value_from_json)


def _fail(msg):
    print(msg, file=sys.stderr)


def _h_value(ast, n):
    v = evaluate(ast, n)
    if not isinstance(v, RatFun):
        raise DomainError(f"{ast_to_text(ast)!r} is not a pure-h expression")
    return v


def _input(args, *asts):
    """(n, f, None) for a --potential f, else (n, None, the --sigmas vector
    or zero); each text is parsed and evaluated once, and f not differenced.
    n is --n, which must be at least every index in `asts` and in the sigma
    texts and the number of sigma entries; without --n it is the largest of
    these.  (`main` has checked that --n >= 1, and RingSpec refuses a sigma
    count other than n.)"""
    sigmas = getattr(args, "sigmas", None)
    potential = getattr(args, "potential", None)
    if sigmas and potential:
        raise DomainError("pass either --sigmas or --potential, not both")
    entries = [parse(s) for s in (sigmas or "").split(";") if s.strip()]
    pot = [parse(potential)] if potential else []
    seen = max([len(entries)] + [infer_n(a) for a in (*asts, *entries, *pot)])
    n = getattr(args, "n", None)
    if n is None:
        if seen == 0:
            raise DomainError("cannot infer n; pass --n")
        n = seen
    elif n < seen:
        raise DomainError(f"--n {n} is smaller than the highest index {seen}")
    if pot:
        return n, _h_value(pot[0], n), None
    return n, None, RingSpec(n, [_h_value(a, n) for a in entries] or None).sigma


def _ring(args, *asts):
    """The ring of a command that reads it: sigma is Delta_i f for a
    --potential f, else the sigma vector of `_input`."""
    n, f, sigma = _input(args, *asts)
    return RingSpec(n, sigma if f is None else sigma_from_potential(f))


def _weight(args, n):
    """The --lambda weight.  An entry with more digits in its numerator or
    denominator than sys.get_int_max_str_digits() allows (0: no limit) is
    refused before any work, by its exponent e before 10**e is built."""
    parts = [p for p in args.lam.split(";") if p.strip()]
    limit = sys.get_int_max_str_digits()
    values = []
    with reading_input("--lambda"):
        for k, p in enumerate(parts, start=1):
            e = re.search(r"e([-+]?[\d_]+)", p, re.I)
            big = limit and e and abs(int(e[1])) > limit
            v = None if big else Fraction(p)
            if big or limit and max(abs(v.numerator),
                                    v.denominator) >= 10 ** limit:
                raise DomainError(f"--lambda entry {k} has more than {limit}"
                                  " digits")
            values.append(v)
    if len(values) != n:
        raise DomainError(f"lambda has {len(values)} entries but n={n}")
    return Weight(values)


def _fails(labels, k):
    """The first k failing checks, one `fails:` line each on stderr."""
    for label in labels[:k]:
        _fail(f"fails: {label}")


def _print_value(v, args):
    print(format_value(v, args.fmt))


# -- subcommands


def _cmd_nf(args):
    if args.input == "text":
        ast = parse(args.expr)
        spec = _ring(args, ast)
        val = evaluate(ast, spec.n, spec, args.strategy)
    else:
        if os.path.exists(args.expr):
            with open(args.expr, encoding="utf-8") as fh:
                val = value_from_json(json.load(fh, parse_int=int_from_text))
        else:
            val = value_from_json(json.loads(args.expr,
                                             parse_int=int_from_text))
        if args.n is not None and args.n != val.n:
            raise DomainError(f"--n {args.n} does not match input n={val.n}")
        args.n = val.n  # the input fixes n; the sigma entries must fit it
        _input(args)
        # an element read from JSON is already in normal form: its key
        # (a, b) stands for d^a x^b, and like keys were added as it was read
    _print_value(val, args)
    return 0


def _cmd_mul(args):
    a1, a2 = parse(args.left), parse(args.right)
    spec = _ring(args, a1, a2)
    _print_value(evaluate(("*", a1, a2), spec.n, spec), args)
    return 0


def _cmd_check_pbw(args):
    report = verify_pbw(_ring(args))
    if not report.agree:
        _fail("internal: double reduction and sigma system disagree")
        return 1
    residual = (None if report.residual is None
                else format_value(report.residual))
    print("flat" if report.flat else "not flat")
    if not report.flat:
        _fails(report.direct.failures + report.system.failures, 5)
        if residual is not None:
            _fail(f"residual: {residual}")
    return 0 if report.flat else 1


def _cmd_delta_check(args):
    ast = parse(args.expr)
    ok, pair = delta_system_check(_h_value(ast, _input(args, ast)[0]))
    print("pass" if ok else "fail")
    if not ok:
        _fail(f"Delta-system violated at (i,j)={pair}")
    return 0 if ok else 1


def _cmd_solve_potential(args):
    f = reconstruct_potential(_ring(args).sigma)
    print(format_decomposition(w_decompose(f, 1)))
    return 0


def _cmd_decompose(args):
    ast = parse(args.expr)
    n = _input(args, ast)[0]
    dec = w_decompose(_h_value(ast, n), args.pivot)
    if args.fmt == "json":
        obj = {
            "n": n,
            "pivot": dec.pivot,
            "parts": {str(k): [number_text(c) for c in v]
                      for k, v in dec.parts.items()},
            "symmetric": [[L, number_text(c)] for L, c in dec.symmetric],
        }
        print(json.dumps(obj, sort_keys=True))
    else:
        print(format_decomposition(dec, args.fmt))
    return 0


def _cmd_central(args):
    n, f, sigma = _input(args)
    fam = central_family(reconstruct_potential(sigma) if f is None else f)
    # every line is formatted before the first is printed
    lines = [f"rho_{k} = {format_value(fam.rho[k], args.fmt)}"
             for k in range(n)]
    lines += [f"c_{k} = {format_value(c, args.fmt)}"
              for k, c in enumerate(fam.elements, start=1)]
    print("\n".join(lines))
    return 0


def _cmd_lw_eval(args):
    ast = parse(args.expr)
    spec = _ring(args, ast)
    n = spec.n
    lam = _weight(args, n)
    v = evaluate(ast, n, spec)
    el = v if isinstance(v, NormalElement) else spec.coeff(v)
    vec = act(spec, el, LWVector.vacuum(lam))
    el_out = NormalElement(n, {((0,) * n, b): RatFun.const(n, c)
                               for b, c in vec.terms.items()})
    _print_value(el_out, args)
    return 0


def _cmd_lw_character(args):
    n, f, sigma = _input(args)
    lam = _weight(args, n)
    fam = central_family(reconstruct_potential(sigma) if f is None else f)
    acted, _ = central_character(fam, lam)
    print("\n".join(f"c_{k} = {number_text(v)}"
                    for k, v in enumerate(acted, start=1)))
    return 0


def _cmd_verify(args):
    # looked up at call time, so that only the requested sweep runs
    sweeps = {
        "ybe": rmatrix.verify_dybe,
        "rsq": rmatrix.verify_r_squared,
        "ice": rmatrix.verify_ice,
        "shift": rmatrix.verify_shift_invariance,
        "skew": rmatrix.verify_skew_inverse,
        "qid": rmatrix.verify_q_identity,
    }
    report = sweeps[args.what](args.n)
    print(f"{report.total - len(report.failures)}/{report.total} pass")
    _fails(report.failures, 5)
    return 0 if report.passed else 1


def _cmd_zhelobenko(args):
    spec = _ring(args)
    n = spec.n
    if n < 2:
        raise DomainError("needs n >= 2")
    all_ok = True
    for i in range(1, n) if args.index is None else [args.index]:
        report = check_assignment(spec, spec, zhelobenko_assignment(spec, i))
        print(f"i={i}: {'pass' if report.passed else 'fail'}")
        _fails(report.failures, 3)
        all_ok = all_ok and report.passed
    return 0 if all_ok else 1


def _cmd_flatness(args):
    with open(args.sigma_file, encoding="utf-8") as fh:
        data = json.load(fh, parse_int=int_from_text)
    with reading_input("--copies"):
        nd, nx = (checked_int(int(v), 1) for v in args.copies.split(","))
    if isinstance(data, list):
        # a bare list of entries takes its shape from --n and --copies
        data = {"n": args.n, "copies": [nd, nx], "entries": data}
    report = flatness_check(args.n, nx, nd, SigmaArray.from_json(data))
    print("flat" if report.passed else "not flat")
    _fails(report.failures, 5)
    return 0 if report.passed else 1


# -- wiring

FORMATS = ("text", "json", "latex")


def _env_format():
    """HDCALC_FORMAT, the default of --format; empty or unset means text."""
    fmt = os.environ.get("HDCALC_FORMAT") or "text"
    if fmt not in FORMATS:
        raise DomainError(f"HDCALC_FORMAT must be one of {', '.join(FORMATS)},"
                          f" not {fmt!r}")
    return fmt


def _add_sigma_flags(p):
    p.add_argument("--sigmas", help="semicolon-separated sigma_i expressions")
    p.add_argument("--potential", help="potential expression; sigma_i = Delta_i of it")


def _add_common(p, fmt=True):
    p.add_argument("-n", "--n", type=int, help="number of weight variables")
    if fmt:
        p.add_argument("--format", dest="fmt", choices=FORMATS)


@functools.cache
def build_parser():
    top = argparse.ArgumentParser(
        prog="hdcalc",
        description="exact calculator for rings of h-deformed differential operators")
    sub = top.add_subparsers(dest="cmd")

    p = sub.add_parser("nf", help="normal-order an expression")
    p.add_argument("expr")
    _add_common(p)
    _add_sigma_flags(p)
    p.add_argument("--strategy", choices=("left", "right"), default="left")
    p.add_argument("--in", dest="input", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("mul", help="multiply two expressions")
    p.add_argument("left")
    p.add_argument("right")
    _add_common(p)
    _add_sigma_flags(p)
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("check-pbw", help="flatness of the sigma deformation")
    _add_common(p, fmt=False)
    _add_sigma_flags(p)
    p.set_defaults(func=_cmd_check_pbw)

    p = sub.add_parser("delta-check", help="membership in the potential space")
    p.add_argument("expr")
    _add_common(p, fmt=False)
    p.set_defaults(func=_cmd_delta_check)

    p = sub.add_parser("solve-potential", help="reconstruct a potential from sigmas")
    _add_common(p, fmt=False)
    _add_sigma_flags(p)
    p.set_defaults(func=_cmd_solve_potential)

    p = sub.add_parser("decompose", help="split a potential into W-parts and H-parts")
    p.add_argument("expr")
    p.add_argument("--pivot", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("central", help="central elements c_1..c_n")
    _add_common(p)
    _add_sigma_flags(p)
    p.set_defaults(func=_cmd_central)

    p = sub.add_parser("lw-eval", help="act on the lowest weight vector")
    p.add_argument("expr")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="semicolon-separated rational weights")
    _add_common(p)
    _add_sigma_flags(p)
    p.set_defaults(func=_cmd_lw_eval)

    p = sub.add_parser("lw-character", help="central character at a weight")
    p.add_argument("--lambda", dest="lam", required=True)
    _add_common(p, fmt=False)
    _add_sigma_flags(p)
    p.set_defaults(func=_cmd_lw_character)

    p = sub.add_parser("verify", help="R-matrix identity sweeps")
    p.add_argument("what", choices=("ybe", "rsq", "ice", "shift", "skew", "qid"))
    p.add_argument("-n", "--n", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("zhelobenko-check", help="weight-permuting assignment check")
    p.add_argument("--i", dest="index", type=int)
    _add_common(p, fmt=False)
    _add_sigma_flags(p)
    p.set_defaults(func=_cmd_zhelobenko)

    p = sub.add_parser("flatness", help="multi-copy flatness of a sigma array")
    p.add_argument("-n", "--n", type=int, required=True)
    p.add_argument("--copies", required=True, help="N,N' (d-copies, x-copies)")
    p.add_argument("--sigma-file", required=True)
    p.set_defaults(func=_cmd_flatness)

    return top


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        if getattr(args, "n", None) is not None and args.n < 1:
            raise DomainError("needs n >= 1")
        # a command with --format has args.fmt, None when it was not given
        if getattr(args, "fmt", "") is None:
            args.fmt = _env_format()
        return args.func(args)
    except SyntaxError as e:
        _fail(f"syntax error: {e}")
        return 2
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        _fail(f"error: input is not JSON: {e}")
        return 2
    except (DomainError, PoleError, NonGenericWeight) as e:
        _fail(f"error: {e}")
        return 2
    except ZeroDivisionError:
        _fail("error: division by zero")
        return 2
    except RecursionError:
        _fail("error: expression nested too deeply")
        return 2
    except (NotFlat, NotInW, MismatchError) as e:
        _fail(f"check failed: {e}")
        return 1
    except OSError as e:
        _fail(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
