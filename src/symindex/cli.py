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
import contextlib
import errno
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from .ellipsoid import EllipsoidError, EllipsoidSpec, run_pipeline
from .iteration import (
    DecompositionError,
    PathIndexData,
    index_iterate,
    json_field,
    mean_index,
    nullity_iterate,
    splitting_numbers,
    unit_spectrum,
    validate,
)
from .jump import REPORT_SOLUTIONS, JumpError, SearchResult, search_report
from .normal_forms import NormalFormError
from .oracle import (
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
    format_multiple,
    get_precision,
    parse_scalar,
    scalar_to_json,
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


# characters of output held before stdout gets them
_FLUSH = 1 << 16


@contextlib.contextmanager
def _output(out_path: str | None):
    """The write method of the --out file, or one that passes stdout the
    pieces once they hold _FLUSH characters: stdout may be unbuffered
    (PYTHONUNBUFFERED, python -u) or a terminal's line buffer, where every
    write of a piece would be a system call.  An --out file that cannot be
    opened or written is an input error naming the path."""
    if out_path:
        try:
            with open(out_path, "w") as fh:
                yield fh.write
        except OSError as exc:
            raise InputError(f"cannot write --out {out_path}: {exc.strerror or exc}") from None
        return
    pieces = []
    size = 0

    def write(text: str):
        nonlocal size
        pieces.append(text)
        size += len(text)
        if size >= _FLUSH:
            sys.stdout.write("".join(pieces))
            pieces.clear()
            size = 0

    yield write
    sys.stdout.write("".join(pieces))


def _check_out(out_path: str | None) -> None:
    """Refuse, before the run, an --out path that is a directory or whose
    directory does not exist, with the error open() would give; the file
    itself is opened only when the output is written."""
    if not out_path:
        return
    parent = os.path.dirname(out_path) or "."
    if os.path.isdir(out_path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT if not os.path.exists(parent) else errno.ENOTDIR
    else:
        return
    raise InputError(f"cannot write --out {out_path}: {os.strerror(code)}")


# what json.dumps writes for the solutions of a SearchResult, which then
# writes their array in its place; no string of a report holds a NUL: argv
# cannot, and the reports echo no string of their input files
_RESULT_MARK = "\0search result\0"


def _dump_json(obj, out_path: str | None):
    """Write json.dumps(obj, sort_keys=True, indent=2) and a newline, each
    SearchResult in obj as the object of its to_json().  json.dumps writes
    that object, its gates and params; its solutions array comes from the
    columns (SearchResult.write_json), so no dict per solution is built."""
    results = []

    def default(o):
        if isinstance(o, SearchResult):
            results.append(o)
            return {"gates": o.gates, "params": o.params, "solutions": _RESULT_MARK}
        return json.JSONEncoder().default(o)   # the TypeError json.dumps raises

    text = json.dumps(obj, sort_keys=True, indent=2, default=default)
    pieces = text.split(json.dumps(_RESULT_MARK))
    with _output(out_path) as write:
        write(pieces[0])
        for result, before, after in zip(results, pieces, pieces[1:]):
            line = before.rpartition("\n")[2]   # the mark's line, up to the mark
            result.write_json(write, "\n" + " " * (len(line) - len(line.lstrip(" "))))
            write(after)
        write("\n")


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
    """1, -1, or an angle literal x meaning e^(i pi x).  x is reduced mod 2
    before it is rounded to a float: exactly for a rational, at its stored
    bits for an irrational."""
    w = _parse_omega_tagged(text)
    if isinstance(w, int):
        return complex(w)
    return cmath.exp(1j * math.pi * float(w - 2 * w.mul_div_floor(1, 2)))


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
        n = json_field(obj, "n", int)
        tau = json_field(obj, "tau", float)
        steps = json_field(obj, "steps", int, DEFAULT_STEPS)
        if "B" in obj:
            B = np.array(obj["B"], dtype=float)
            if B.shape != (2 * n, 2 * n):
                raise InputError(f"B must be {2 * n} x {2 * n} for n = {n}, "
                                 f"got shape {B.shape}")
            return path_from_quadratic_hamiltonian(B, tau, steps=steps)
        if "samples" in obj:
            ts = [json_field(s, "t", float) for s in obj["samples"]]
            mats = [np.array(s["mat"], dtype=float) for s in obj["samples"]]
            return path_from_samples(ts, mats, n=n, tau=tau)
        raise InputError("generator file needs a 'B' matrix or a 'samples' list")
    except (KeyError, TypeError, ValueError, OracleError) as exc:
        raise InputError(f"invalid generator file: {exc}") from exc


# ----- subcommand handlers ----------------------------------------------------


def _cmd_iterate(args: argparse.Namespace) -> int:
    data = _load_path_data(_load_json(args.input))
    mi = mean_index(data)
    with _output(args.out) as write:   # each row is written as it is computed
        write("m,i,nu,mean_index_times_m\n")
        for m in range(1, args.m_max + 1):
            write(f"{m},{index_iterate(data, m)},{nullity_iterate(data, m)},"
                  f"{format_multiple(mi, m)}\n")
    return EXIT_OK


def _row_label(ang) -> str:
    """The splitting table's label of the angle theta/pi = ang, which
    --omega takes back for its row: "1" and "-1" for theta/pi = 0 and 1, a
    rational's fraction, an irrational's stored decimal."""
    return ("1" if ang == 0 else "-1" if ang == 1 else f"{ang.fraction}" if ang.is_rational
            else scalar_to_json(ang)["irrational"])


def _cmd_splitting(args: argparse.Namespace) -> int:
    data = _load_path_data(_load_json(args.input))
    d = data.decomp
    out = {"validation": validate(data)}
    if args.omega is not None:
        rows = {_row_label(ang): ang for ang, _ in unit_spectrum(d)}
        omega = rows.get(args.omega)
        if omega is None:
            omega = _parse_literal("omega", _parse_omega_tagged, args.omega)
        pair = splitting_numbers(d, omega)
        out["omega"] = args.omega
        out["splitting"] = {"s_plus": pair.s_plus, "s_minus": pair.s_minus}
    else:
        table = []
        for ang, mult in unit_spectrum(d):
            pair = splitting_numbers(d, ang)
            table.append({"angle_over_pi": _row_label(ang), "multiplicity": mult,
                          "s_plus": pair.s_plus, "s_minus": pair.s_minus})
        out["spectrum"] = table
    _dump_json(out, args.out)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    path = _load_generator(_load_json(args.input))
    omega = _parse_literal("omega", _parse_omega_complex, args.omega)
    try:
        iterated = iterate_path(path, args.m)
    except OracleError as exc:  # m < 1, or an iterate over the step cap
        raise InputError(str(exc)) from exc
    i_val, nu_val = cz_index(iterated, omega)
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


def _search_flags(args: argparse.Namespace) -> dict:
    """The search keywords that jump-search and ellipsoid share."""
    return {"N_max": args.n_max, "chi": _parse_chi(args.chi), "eps": args.eps,
            "delta": _parse_literal("delta", Fraction, args.delta) if args.delta else None}


def _cmd_jump_search(args: argparse.Namespace) -> int:
    obj = _load_json(args.input)
    raw_paths = obj["paths"] if isinstance(obj, dict) and "paths" in obj else obj
    if not isinstance(raw_paths, list) or not raw_paths:
        raise InputError("paths file must hold a non-empty list of path data objects")
    paths = [_load_path_data(p) for p in raw_paths]
    # a JumpError is an input error, reported by main()
    report = search_report(paths, M=args.m_scale, M0=args.m0, reports=args.report_solutions,
                           **_search_flags(args))
    _dump_json({"schema_version": 1, **report}, args.out)
    return EXIT_OK


def _cmd_ellipsoid(args: argparse.Namespace) -> int:
    alphas = [_parse_literal("alphas", parse_scalar, a) for a in args.alphas.split(",") if a]
    if not alphas:
        raise InputError("--alphas requires a comma-separated list, e.g. 1,sqrt2")
    # an EllipsoidError or JumpError is an input error, reported by main()
    spec = EllipsoidSpec(alphas=tuple(alphas), mode=args.mode)
    _dump_json(run_pipeline(spec, m_max=args.m_max, **_search_flags(args)), args.out)
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    results = selftest_mod.run_all(seed=args.seed)
    with _output(args.out) as write:
        for name, ok, detail in results:
            write(f"selftest {name}: {'PASS' if ok else 'FAIL'} ({detail})\n")
    return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_INTERNAL


_HANDLERS = {
    "iterate": _cmd_iterate,
    "splitting": _cmd_splitting,
    "oracle": _cmd_oracle,
    "jump-search": _cmd_jump_search,
    "ellipsoid": _cmd_ellipsoid,
    "selftest": _cmd_selftest,
}


def dispatch(args: argparse.Namespace) -> int:
    """Run one parsed subcommand; deterministic for fixed arguments (and seed).

    The working precision is restored when the subcommand returns.
    """
    if args.precision < 30:
        raise InputError(f"precision must be >= 30, got {args.precision}")
    if getattr(args, "m_max", 1) < 1:
        raise InputError("m-max must be >= 1")
    if getattr(args, "n_max", 1) < 1:
        raise InputError("n-max must be >= 1")
    if getattr(args, "report_solutions", 0) < 0:
        raise InputError("report-solutions must be >= 0")
    _check_out(args.out)
    old_precision = get_precision()
    set_precision(args.precision)
    try:
        return _HANDLERS[args.subcommand](args)
    finally:
        set_precision(old_precision)


# built once per process: no part of the parser reads the environment, and
# parse_args does not change it
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symindex",
        description="Index iteration for symplectic paths: exact formulas, "
                    "a geometric crossing-count oracle, and the common-index-jump search.")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", dest="out", default=None, help="output file (default stdout)")
        p.add_argument("--precision", type=int, default=50,
                       help="working precision in decimal digits (>= 30; default 50)")

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
    p.add_argument("--m", type=int, default=1,
                   help="iterate the path m times (held as one period and the powers of its "
                        "endpoint); m x steps may be at most 2^20")
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
    p.add_argument("--report-solutions", type=int, default=REPORT_SOLUTIONS)
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
