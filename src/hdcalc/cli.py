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
import sys
from fractions import Fraction

from . import rmatrix
from .ratfield import (RatFun, DomainError, PoleError, checked_int,
                       reading_input)
from .diffring import RingSpec, NormalElement, multiply, \
    verify_pbw, zhelobenko_assignment, check_assignment
from .potential import (NotFlat, NotInW, delta_system_check, w_decompose,
                        reconstruct_potential, sigma_from_potential)
from .central import central_family, MismatchError
from .lowestweight import Weight, NonGenericWeight, LWVector, act, \
    central_character
from .multicopy import SigmaArray, flatness_check
from .expressions import (parse, infer_n, evaluate, format_value,
                          format_decomposition, value_from_json)


def _fail(msg):
    print(msg, file=sys.stderr)


def _resolve_n(args, *asts):
    seen = max((infer_n(a) for a in asts), default=0)
    sigmas = getattr(args, "sigmas", None)
    if sigmas:
        # a list of k entries needs at least k variables
        seen = max(seen, len([s for s in sigmas.split(";") if s.strip()]))
    n = getattr(args, "n", None)
    if n is None:
        if seen == 0:
            raise DomainError("cannot infer n; pass --n")
        return seen
    if n < seen:
        raise DomainError(f"--n {n} is smaller than the highest index {seen}")
    return n


def _coeff(text, n):
    v = evaluate(parse(text), n)
    if not isinstance(v, RatFun):
        raise DomainError(f"{text!r} is not a pure-h expression")
    return v


def _build_spec(args, n):
    sigmas = getattr(args, "sigmas", None)
    potential = getattr(args, "potential", None)
    if sigmas and potential:
        raise DomainError("pass either --sigmas or --potential, not both")
    if potential:
        return RingSpec(n, sigma_from_potential(_coeff(potential, n), n))
    if sigmas:
        parts = [s for s in sigmas.split(";") if s.strip()]
        if len(parts) != n:
            raise DomainError(f"expected {n} sigma entries, got {len(parts)}")
        return RingSpec(n, tuple(_coeff(s, n) for s in parts))
    return RingSpec(n)


def _sigma_asts(args):
    out = []
    for name in ("sigmas", "potential"):
        raw = getattr(args, name, None)
        if raw:
            for s in (raw.split(";") if name == "sigmas" else [raw]):
                if s.strip():
                    out.append(parse(s))
    return out


def _load_value(args, text):
    if getattr(args, "input", "text") == "json":
        if os.path.exists(text):
            with open(text, encoding="utf-8") as fh:
                return value_from_json(json.load(fh)), None
        return value_from_json(json.loads(text)), None
    ast = parse(text)
    return ast, ast


def _weight(args):
    parts = [p for p in args.lam.split(";") if p.strip()]
    with reading_input("--lambda"):
        values = tuple(Fraction(p) for p in parts)
    return Weight(values)


def _print_value(v, args):
    print(format_value(v, args.fmt))


# -- subcommands


def _cmd_nf(args):
    val, ast = _load_value(args, args.expr)
    if ast is None:
        n = val.n
        if getattr(args, "n", None) is not None and args.n != n:
            raise DomainError(f"--n {args.n} does not match input n={n}")
        spec = _build_spec(args, n)
        if isinstance(val, NormalElement):
            val = multiply(spec, spec.one(), val, args.strategy)
    else:
        n = _resolve_n(args, ast, *_sigma_asts(args))
        spec = _build_spec(args, n)
        val = evaluate(ast, n, spec, args.strategy)
    _print_value(val, args)
    return 0


def _cmd_mul(args):
    a1, a2 = parse(args.left), parse(args.right)
    n = _resolve_n(args, a1, a2, *_sigma_asts(args))
    spec = _build_spec(args, n)
    _print_value(evaluate(("*", a1, a2), n, spec), args)
    return 0


def _cmd_check_pbw(args):
    n = _resolve_n(args, *_sigma_asts(args))
    spec = _build_spec(args, n)
    report = verify_pbw(spec)
    if not report.agree:
        _fail("internal: double reduction and sigma system disagree")
        return 1
    print("flat" if report.flat else "not flat")
    if not report.flat:
        bad = [lbl for lbl, ok in report.direct + report.system if not ok]
        for label in bad[:5]:
            _fail(f"fails: {label}")
        if report.residual is not None:
            _fail(f"residual: {format_value(report.residual)}")
    return 0 if report.flat else 1


def _cmd_delta_check(args):
    f = _coeff(args.expr, _resolve_n(args, parse(args.expr)))
    ok, pair = delta_system_check(f)
    print("pass" if ok else "fail")
    if not ok:
        _fail(f"Delta-system violated at (i,j)={pair}")
    return 0 if ok else 1


def _cmd_solve_potential(args):
    n = _resolve_n(args, *_sigma_asts(args))
    spec = _build_spec(args, n)
    f = reconstruct_potential(spec.sigma)
    dec = w_decompose(f, 1)
    print(format_decomposition(dec))
    return 0


def _cmd_decompose(args):
    n = _resolve_n(args, parse(args.expr))
    f = _coeff(args.expr, n)
    dec = w_decompose(f, args.pivot)
    if args.fmt == "json":
        obj = {
            "n": n,
            "pivot": dec.pivot,
            "parts": {str(k): [str(c) for c in v] for k, v in dec.parts.items()},
            "symmetric": [[L, str(c)] for L, c in dec.symmetric],
        }
        print(json.dumps(obj, sort_keys=True))
    else:
        print(format_decomposition(dec, args.fmt))
    return 0


def _cmd_central(args):
    n = _resolve_n(args, *_sigma_asts(args))
    spec = _build_spec(args, n)
    f = reconstruct_potential(spec.sigma)
    fam = central_family(f, n=n)
    for k in range(n):
        print(f"rho_{k} = {format_value(fam.rho[k], args.fmt)}")
    for k, c in enumerate(fam.elements, start=1):
        print(f"c_{k} = {format_value(c, args.fmt)}")
    return 0


def _cmd_lw_eval(args):
    ast = parse(args.expr)
    n = _resolve_n(args, ast, *_sigma_asts(args))
    lam = _weight(args)
    if lam.n != n:
        raise DomainError(f"lambda has {lam.n} entries but n={n}")
    spec = _build_spec(args, n)
    v = evaluate(ast, n, spec)
    el = v if isinstance(v, NormalElement) else spec.coeff(v)
    vec = act(spec, el, LWVector.vacuum(lam))
    el_out = NormalElement(n, {((0,) * n, b): RatFun.const(n, c)
                               for b, c in vec.terms.items()})
    _print_value(el_out, args)
    return 0


def _cmd_lw_character(args):
    n = _resolve_n(args, *_sigma_asts(args))
    lam = _weight(args)
    if lam.n != n:
        raise DomainError(f"lambda has {lam.n} entries but n={n}")
    spec = _build_spec(args, n)
    f = reconstruct_potential(spec.sigma)
    fam = central_family(f, n=n)
    acted, _ = central_character(fam, lam)
    for k, v in enumerate(acted, start=1):
        print(f"c_{k} = {v}")
    return 0


def _cmd_verify(args):
    if args.n < 1:
        raise DomainError("needs n >= 1")
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
    npass = sum(1 for _, ok in report.results if ok)
    print(f"{npass}/{report.total} pass")
    if npass != report.total:
        for label in report.failures[:5]:
            _fail(f"fails: {label}")
    return 0 if npass == report.total else 1


def _cmd_zhelobenko(args):
    n = _resolve_n(args, *_sigma_asts(args))
    if n < 2:
        raise DomainError("needs n >= 2")
    spec = _build_spec(args, n)
    idx = [args.index] if args.index else list(range(1, n))
    all_ok = True
    for i in idx:
        if not 1 <= i <= n - 1:
            raise DomainError(f"i must be in 1..{n - 1}")
        assign = zhelobenko_assignment(spec, i)
        results = check_assignment(spec, spec, assign)
        ok = all(o for _, o in results)
        print(f"i={i}: {'pass' if ok else 'fail'}")
        if not ok:
            for label in [lbl for lbl, o in results if not o][:3]:
                _fail(f"fails: {label}")
            all_ok = False
    return 0 if all_ok else 1


def _cmd_flatness(args):
    with open(args.sigma_file, encoding="utf-8") as fh:
        data = json.load(fh)
    with reading_input("--copies"):
        nd, nx = (checked_int(int(v), 1) for v in args.copies.split(","))
    if isinstance(data, list):
        # a bare list of entries takes its shape from --n and --copies
        data = {"n": args.n, "copies": [nd, nx], "entries": data}
    s = SigmaArray.from_json(data)
    if (s.n, s.nx, s.nd) != (args.n, nx, nd):
        raise DomainError("sigma file does not match --n/--copies")
    report = flatness_check(args.n, nx, nd, s)
    print("flat" if report.passed else "not flat")
    if not report.passed:
        for label in report.failures[:5]:
            _fail(f"fails: {label}")
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
