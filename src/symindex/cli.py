"""Command-line entry point: iterate / splitting / oracle / jump-search /
ellipsoid / selftest, with JSON or CSV output.

Exit codes: 0 success (a search with no hits is a success), 1 input
validation failure, 2 internal invariant violation.  Output is
deterministic for a fixed configuration and seed: JSON keys are sorted,
numbers are formatted identically.  ``--workers`` is accepted and ignored:
the jump search runs in one process.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from fractions import Fraction

import mpmath
import numpy as np

from .ellipsoid import EllipsoidError, EllipsoidSpec, PipelineParams, run_pipeline
from .iteration import (
    DecompositionError,
    PathIndexData,
    index_iterate,
    mean_index,
    nullity_iterate,
    splitting_numbers,
    unit_spectrum,
    validate,
)
from .jump import (
    JumpError,
    build_jump_vector,
    default_delta,
    default_eps,
    search_N,
    theorem211_report,
    varrho,
)
from .normal_forms import RANK_TOL, NormalFormError
from .oracle import (
    DEFAULT_PERT,
    DEFAULT_STEPS,
    OracleError,
    cz_index,
    estimate_splitting,
    iterate_path,
    path_from_quadratic_hamiltonian,
    path_from_samples,
)
from .scalars import (
    PrecisionError,
    Scalar,
    get_precision,
    parse_scalar,
    set_precision,
)
from . import selftest as selftest_mod

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2


class InputError(ValueError):
    pass


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"input file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno} column {exc.colno}") from exc


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(obj, out_path: str | None):
    _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", out_path)


def _parse_literal(flag: str, parse, text: str):
    """parse(text); a literal it rejects is an input error naming the flag."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"--{flag}: cannot parse {text!r}") from None


def _parse_omega_tagged(text: str):
    """+-1 as integers, otherwise a tagged Scalar angle theta/pi."""
    s = text.strip()
    return int(s) if s in ("1", "-1") else parse_scalar(s)


def _parse_omega_complex(text: str) -> complex:
    """1, -1, or an angle literal x meaning e^(i pi x)."""
    w = _parse_omega_tagged(text)
    return complex(w) if isinstance(w, int) else cmath.exp(1j * math.pi * float(w))


def _require_object(obj, what: str) -> None:
    if not isinstance(obj, dict):
        raise InputError(f"invalid {what}: expected a JSON object, got {type(obj).__name__}")


def _load_path_data(obj) -> PathIndexData:
    _require_object(obj, "path data")
    try:
        return PathIndexData.from_json(obj)
    except (KeyError, TypeError, ValueError, DecompositionError) as exc:
        raise InputError(f"invalid path data: {exc}") from exc


def _load_generator(obj):
    _require_object(obj, "generator file")
    try:
        n = int(obj["n"])
        tau = float(obj["tau"])
        steps = int(obj.get("steps", DEFAULT_STEPS))
        if "B" in obj:
            B = np.array(obj["B"], dtype=float)
            if B.shape != (2 * n, 2 * n):
                raise InputError(f"B must be {2 * n} x {2 * n} for n = {n}, "
                                 f"got shape {B.shape}")
            return path_from_quadratic_hamiltonian(B, tau, steps=steps)
        if "samples" in obj:
            ts = [float(s["t"]) for s in obj["samples"]]
            mats = [np.array(s["mat"], dtype=float) for s in obj["samples"]]
            return path_from_samples(ts, mats, n=n, tau=tau)
        raise InputError("generator file needs a 'B' matrix or a 'samples' list")
    except (KeyError, TypeError, ValueError, OracleError) as exc:
        raise InputError(f"invalid generator file: {exc}") from exc


def _mean_times_m(mi, m: int) -> str:
    if mi.is_rational:
        fr = mi.fraction * m
        return f"{fr.numerator}/{fr.denominator}"
    with mpmath.mp.workdps(get_precision()):
        return mpmath.nstr(mi.mpf() * m, 30)


# ----- subcommand handlers ----------------------------------------------------


def _cmd_iterate(args: argparse.Namespace) -> int:
    data = _load_path_data(_load_json(args.input))
    mi = mean_index(data)
    lines = ["m,i,nu,mean_index_times_m"]
    for m in range(1, args.m_max + 1):
        lines.append(f"{m},{index_iterate(data, m)},{nullity_iterate(data, m)},"
                     f"{_mean_times_m(mi, m)}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_splitting(args: argparse.Namespace) -> int:
    data = _load_path_data(_load_json(args.input))
    d = data.decomp
    out = {"validation": validate(data).to_json()}
    if args.omega is not None:
        pair = splitting_numbers(d, _parse_literal("omega", _parse_omega_tagged, args.omega))
        out["omega"] = args.omega
        out["splitting"] = {"s_plus": pair.s_plus, "s_minus": pair.s_minus}
    else:
        table = []
        for ang, mult in unit_spectrum(d):
            if ang == Scalar.rational(0):
                pair = splitting_numbers(d, 1)
                label = "1"
            else:
                pair = splitting_numbers(d, ang)
                label = f"{ang.fraction}" if ang.is_rational else repr(float(ang))
            table.append({"angle_over_pi": label, "multiplicity": mult,
                          "s_plus": pair.s_plus, "s_minus": pair.s_minus})
        out["spectrum"] = table
    _dump_json(out, args.out)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    path = _load_generator(_load_json(args.input))
    omega = _parse_literal("omega", _parse_omega_complex, args.omega)
    if args.m < 1:
        raise InputError("m must be >= 1")
    eps = args.eps if args.eps is not None else DEFAULT_PERT
    for flag, value in (("eps", eps), ("rank-tol", args.rank_tol)):
        if not (math.isfinite(value) and value > 0):
            raise InputError(f"--{flag} must be finite and > 0, got {value}")
    iterated = iterate_path(path, args.m)
    i_val, nu_val = cz_index(iterated, omega, eps=eps, rank_tol=args.rank_tol)
    out = {"omega": args.omega, "m": args.m, "i": i_val, "nu": nu_val}
    if args.splitting:
        sp, sm = estimate_splitting(iterated, omega)
        out["splitting_estimate"] = {"s_plus": sp, "s_minus": sm}
    _dump_json(out, args.out)
    return EXIT_OK


def _parse_chi(text: str):
    """'auto', or the bits of a 0/1 string; search_N checks that there are h."""
    if text == "auto":
        return "auto"
    bits = text.strip()
    if not all(c in "01" for c in bits):
        raise InputError(f"chi must be 'auto' or a 0/1 string, got {text!r}")
    return tuple(int(c) for c in bits)


def _cmd_jump_search(args: argparse.Namespace) -> int:
    obj = _load_json(args.input)
    raw_paths = obj["paths"] if isinstance(obj, dict) and "paths" in obj else obj
    if not isinstance(raw_paths, list) or not raw_paths:
        raise InputError("paths file must hold a non-empty list of path data objects")
    paths = [_load_path_data(p) for p in raw_paths]
    # a JumpError is an input error, reported by main()
    v = build_jump_vector(paths, M=args.m_scale, M0=args.m0)
    chi = _parse_chi(args.chi)
    delta = _parse_literal("delta", Fraction, args.delta) if args.delta else default_delta(paths)
    eps = args.eps if args.eps is not None else default_eps(paths, v.M, delta)
    result = search_N(v, chi, eps=eps, N_max=args.n_max, paths=paths, delta=delta)
    n = max(p.decomp.n for p in paths)
    reports = [theorem211_report(sol, paths, n).to_json()
               for sol in result.solutions[:args.report_solutions]]
    out = {
        "schema_version": 1,
        "jump_vector": v.to_json(),
        "varrho_n": varrho(paths, n),
        "search": result.to_json(),
        "theorem211": reports,
    }
    _dump_json(out, args.out)
    return EXIT_OK


def _cmd_ellipsoid(args: argparse.Namespace) -> int:
    alphas = [_parse_literal("alphas", parse_scalar, a) for a in args.alphas.split(",") if a]
    if not alphas:
        raise InputError("--alphas requires a comma-separated list, e.g. 1,sqrt2")
    # an EllipsoidError or JumpError is an input error, reported by main()
    spec = EllipsoidSpec(alphas=tuple(alphas), mode=args.mode)
    params = PipelineParams(
        m_max=args.m_max,
        N_max=args.n_max,
        chi=_parse_chi(args.chi),
        eps=args.eps,
        delta=_parse_literal("delta", Fraction, args.delta) if args.delta else None,
    )
    report = run_pipeline(spec, params)
    _dump_json(report.to_json(), args.out)
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    results = selftest_mod.run_all(seed=args.seed)
    ok_all = True
    lines = []
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        ok_all &= ok
        lines.append(f"selftest {name}: {status} ({detail})")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if ok_all else EXIT_INTERNAL


_HANDLERS = {
    "iterate": _cmd_iterate,
    "splitting": _cmd_splitting,
    "oracle": _cmd_oracle,
    "jump-search": _cmd_jump_search,
    "ellipsoid": _cmd_ellipsoid,
    "selftest": _cmd_selftest,
}


def _precision(args: argparse.Namespace) -> int:
    """--precision, or else SYMINDEX_PRECISION, else 50."""
    if args.precision is not None:
        return args.precision
    raw = os.environ.get("SYMINDEX_PRECISION", "50")
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"SYMINDEX_PRECISION must be an integer, got {raw!r}") from None


def dispatch(args: argparse.Namespace) -> int:
    """Run one parsed subcommand; deterministic for fixed arguments (and seed).

    --precision falls back to SYMINDEX_PRECISION.  The working precision is
    restored when the subcommand returns.
    """
    args.precision = _precision(args)
    if args.precision < 30:
        raise InputError(f"precision must be >= 30, got {args.precision}")
    if getattr(args, "m_max", 1) < 1:
        raise InputError("m-max must be >= 1")
    if getattr(args, "n_max", 1) < 1:
        raise InputError("n-max must be >= 1")
    if getattr(args, "report_solutions", 0) < 0:
        raise InputError("report-solutions must be >= 0")
    old_precision = get_precision()
    set_precision(args.precision)
    try:
        return _HANDLERS[args.subcommand](args)
    finally:
        set_precision(old_precision)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symindex",
        description="Index iteration for symplectic paths: exact formulas, "
                    "a geometric crossing-count oracle, and the common-index-jump search.")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", dest="out", default=None, help="output file (default stdout)")
        p.add_argument("--precision", type=int, default=None,
                       help="working precision in decimal digits (>= 30; "
                            "default SYMINDEX_PRECISION, else 50)")

    p = sub.add_parser("iterate", help="CSV table m, i, nu, mean_index*m from path data")
    p.add_argument("--data", dest="input", required=True)
    p.add_argument("--m-max", type=int, default=50)
    common(p)

    p = sub.add_parser("splitting", help="splitting numbers of a decomposition")
    p.add_argument("--data", dest="input", required=True)
    p.add_argument("--omega", default=None,
                   help="1, -1, or an angle literal theta/pi; omit for the whole spectrum")
    common(p)

    p = sub.add_parser("oracle", help="geometric (i, nu) of a generator path")
    p.add_argument("--generator", dest="input", required=True)
    p.add_argument("--omega", default="1")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--eps", type=float, default=None, help="endpoint perturbation scale")
    p.add_argument("--rank-tol", type=float, default=RANK_TOL)
    p.add_argument("--splitting", action="store_true",
                   help="also estimate the splitting pair at omega")
    common(p)

    p = sub.add_parser("jump-search", help="common-index-jump search over a path collection")
    p.add_argument("--paths", dest="input", required=True)
    p.add_argument("--chi", default="auto", help="'auto' or an h-bit 0/1 string")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--delta", default=None, help="threshold as a fraction, e.g. 1/8")
    p.add_argument("--n-max", type=int, default=10 ** 6)
    p.add_argument("--m-scale", type=int, default=None, help="the M multiplier (default: lcm rule)")
    p.add_argument("--m0", type=int, default=None, help="required divisor of N (default: M)")
    p.add_argument("--workers", type=int, default=None,
                   help="ignored; the scan runs in one process")
    p.add_argument("--report-solutions", type=int, default=25)
    common(p)

    p = sub.add_parser("ellipsoid", help="full pipeline on a model ellipsoid")
    p.add_argument("--alphas", required=True, help="comma-separated, e.g. 1,sqrt2")
    p.add_argument("--mode", choices=["quadratic", "convex"], default="convex")
    p.add_argument("--m-max", type=int, default=50)
    p.add_argument("--n-max", type=int, default=10 ** 6)
    p.add_argument("--chi", default="auto")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--delta", default=None)
    p.add_argument("--workers", type=int, default=None,
                   help="ignored; the scan runs in one process")
    common(p)

    p = sub.add_parser("selftest", help="run the built-in property suites")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return dispatch(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NormalFormError, DecompositionError, JumpError, EllipsoidError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OracleError, PrecisionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
