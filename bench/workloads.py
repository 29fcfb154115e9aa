"""Seeded inputs, operations and correctness gates of the three workloads.

Every workload is a list of operations (``Op``) built once from the seed.
A pass runs every operation once, in order, in one closed-loop client.
Each operation returns a JSON-able output; its gate checks that output
against an independent route and its sha256 (sorted-key JSON) must repeat
on every later pass.

Operations call the package through module attributes (``jump.search_N``,
``oracle.cz_index``, ``cli.main``), so the tracer's patches apply to them.
The gates use the bindings imported below, taken before any patching, so
checking never shows up in a trace.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from symindex import cli, ellipsoid, jump, oracle, scalars
from symindex.iteration import (
    I_value,
    NormalFormDecomposition,
    PathIndexData,
    index_iterate,
    nullity_iterate,
    splitting_numbers,
    unit_spectrum,
)
from symindex.jump import delta_k, s_minus_angles
from symindex.normal_forms import nontrivial_n2_block, realize, trivial_n2_block
from symindex.scalars import Scalar

PRECISION = 50
ES_WORKERS = 2
ES_N_MAX = 10 ** 6
ORACLE_STEPS = 1024
NEAR_ONE = 1e-3

# Square-free d; the frequencies of ellipsoid-sweep and the irrational
# angles are built from sqrt(d).
SQUARE_FREE = (1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23)


class GateError(AssertionError):
    """An operation's output disagrees with its independent route."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    gate: Callable[[object], None]
    certified: Optional[Callable[[object], int]] = None  # jump solutions in an output
    # A known defect of the package that this op's gate exposes: the gate's
    # outcome is recorded in the report instead of counting as a failure.
    known_defect: str = ""


@dataclass
class Workload:
    name: str
    seed: int
    ops: list
    info: dict


def digest_of(output) -> str:
    """sha256 of an op output: raw bytes as written, else sorted-key JSON."""
    if not isinstance(output, bytes):
        output = json.dumps(output, sort_keys=True).encode()
    return hashlib.sha256(output).hexdigest()


def _ensure(cond: bool, msg: str):
    if not cond:
        raise GateError(msg)


# ----- seeded scalars ---------------------------------------------------------


def quadratic_angle(rng: random.Random, lo: float, hi: float) -> Scalar:
    """theta/pi = q sqrt(d) reduced mod 2, drawn until it lies in (lo, hi)
    and keeps 0.1 away from the -1 eigenvalue angle."""
    while True:
        d = rng.choice(SQUARE_FREE[1:])
        q = rng.randint(1, 9)
        x = Scalar.sqrt(d) * q
        x = x - 2 * x.mul_div_floor(1, 2)
        if lo < float(x) < hi and abs(float(x) - 1.0) > 0.1:
            return x


def rational_angle(rng: random.Random) -> Scalar:
    """theta/pi = p/q with q in {5, 6} and p odd, at least 3 and coprime to
    q.  No m of OC_STRATA or OC_DIAMOND_STRATA is a multiple of q, so the
    rotation iterates stay nondegenerate at omega = 1 (their cost does not
    jump with the draw), and the crossing times 2kq/p miss the dyadic
    sample grid unless p divides k."""
    while True:
        den = rng.choice((5, 6))
        num = rng.randrange(3, 2 * den, 2)
        if math.gcd(num, den) == 1:
            return Scalar.from_fraction(Fraction(num, den))


# ----- jump-certify -----------------------------------------------------------

# Stage-1 survivors per search.  With i1 = 1 the mean index equals theta/pi,
# the angle coordinate of v is exactly 1, and the default eps = 1/(32 theta/pi)
# lets N_max / (16 theta/pi) values of N through; N_max is set from that, so
# every search certifies about this many solutions.
JC_CANDIDATES = 700
JC_SEARCHES = 8


def _gate_search(data: PathIndexData, delta: Fraction, golden: bool):
    """Criterion 4's identity and angle gates, recomputed per solution."""

    def gate(out: dict):
        sols = out["solutions"]
        _ensure(len(sols) > 0, "search certified no solution")
        dps = PRECISION
        for sol in sols:
            (m,) = sol["m"]
            got = I_value(data, m)
            want = sol["N"] + delta_k(data, m, delta)
            _ensure(got == want, f"N={sol['N']}: I = {got} != N + Delta = {want}")
            for ang in s_minus_angles(data.decomp):
                if ang.is_rational:
                    _ensure((m * ang.fraction).denominator == 1,
                            f"N={sol['N']}: rational angle off an integer")
                else:
                    frac = m * ang.mpf(dps) - ang.mul_floor(m)
                    _ensure(frac < float(delta) or 1 - frac < float(delta),
                            f"N={sol['N']}: angle condition fails")
        if golden:
            chis = {tuple(s["chi"]) for s in sols}
            _ensure(chis == {(0, 0), (1, 0)},
                    f"golden fixture must reach both vertices, got {sorted(chis)}")

    return gate


def build_jump_certify(seed: int) -> Workload:
    rng = random.Random(seed)
    thetas = [Scalar.golden()]
    while len(thetas) < JC_SEARCHES:
        th = quadratic_angle(rng, 1.1, 1.9)
        if all(abs(float(th) - float(t)) > 1e-6 for t in thetas):
            thetas.append(th)
    candidates = JC_CANDIDATES
    ops = []
    for k, th in enumerate(thetas):
        data = PathIndexData(NormalFormDecomposition(n=1, thetas=(th,)), i1=1)
        v = jump.build_jump_vector([data])
        delta = jump.default_delta([data])
        eps = jump.default_eps([data], v.M, delta)
        n_max = round(16 * float(th) * candidates)

        def run(v=v, eps=eps, n_max=n_max, data=data, delta=delta):
            res = jump.search_N(v, "auto", eps=eps, N_max=n_max, paths=[data],
                                delta=delta, workers=1)
            return res.to_json()

        label = "golden" if k == 0 else f"theta={float(th):.6f}"
        ops.append(Op(f"search {label} N_max={n_max}", run,
                      _gate_search(data, delta, golden=(k == 0)),
                      lambda out: len(out["solutions"])))
    info = {"thetas_over_pi": [float(t) for t in thetas],
            "target_candidates_per_search": candidates, "i1": 1,
            "chi": "auto", "workers": 1}
    return Workload("jump-certify", seed, ops, info)


# ----- ellipsoid-sweep --------------------------------------------------------


def draw_frequencies(seed: int) -> list:
    """Four distinct square-free d, ascending; seed 0 is criterion 8's
    (1, 2, 3, 5).  d2 <= 2 d1 and d4 <= 5 d1 keep the frequency spread of
    seed 0, so per-orbit work stays comparable across seeds."""
    if seed == 0:
        return [1, 2, 3, 5]
    rng = random.Random(seed)
    while True:
        d1 = rng.choice((1, 2, 3, 5, 6, 7))
        pool = [d for d in SQUARE_FREE if d1 < d <= 5 * d1]
        rest = sorted(rng.sample(pool, 3))
        if rest[0] <= 2 * d1:
            return [d1] + rest


def _alpha_literal(d: int) -> str:
    return "1" if d == 1 else f"sqrt{d}"


def _gate_ellipsoid(text: bytes):
    rep = json.loads(text)
    _ensure(rep["claims"] and all(rep["claims"].values()),
            f"claims not all true: {rep['claims']}")
    _ensure(rep["problems"] == [], f"problems reported: {rep['problems']}")
    _ensure("error" not in rep["search"], f"search failed: {rep['search'].get('error')}")


def build_ellipsoid_sweep(seed: int, out_dir: Path, workers: int = ES_WORKERS) -> Workload:
    ds = draw_frequencies(seed)
    n_max = ES_N_MAX
    out_dir.mkdir(parents=True, exist_ok=True)
    ellipsoid._convex_adjustment()  # one-off lazy oracle measurement
    ops = []
    for n in (2, 3, 4):
        alphas = ",".join(_alpha_literal(d) for d in ds[:n])
        out_path = out_dir / f"ellipsoid-seed{seed}-n{n}.json"
        argv = ["ellipsoid", "--alphas", alphas, "--mode", "convex",
                "--n-max", str(n_max), "--workers", str(workers),
                "--precision", str(PRECISION), "--out", str(out_path)]

        def run(argv=argv, out_path=out_path):
            rc = cli.main(argv)
            if rc != 0:
                raise GateError(f"ellipsoid exited {rc}")
            return out_path.read_bytes()

        ops.append(Op(f"ellipsoid n={n} alphas={alphas}", run, _gate_ellipsoid,
                      lambda out: len(json.loads(out)["search"]["solutions"])))
    info = {"square_free_d": ds, "n_max": n_max, "workers": workers,
            "mode": "convex", "m_max": 50}
    return Workload("ellipsoid-sweep", seed, ops, info)


# ----- oracle-crosscheck ------------------------------------------------------


def _rotation(theta: float, steps: int):
    return oracle.path_from_quadratic_hamiltonian(theta * math.pi * np.eye(2), 1.0, steps=steps)


def _shear(b: int, steps: int):
    return oracle.path_from_quadratic_hamiltonian(np.diag([0.0, -float(b)]), 1.0, steps=steps)


def _constant(steps: int):
    return oracle.path_from_quadratic_hamiltonian(np.zeros((2, 2)), 1.0, steps=steps)


def _n2_path(theta: Scalar, nontrivial: bool, steps: int):
    block = nontrivial_n2_block(theta) if nontrivial else trivial_n2_block(theta)
    return oracle.path_from_logm(realize(block).as_float(), steps=steps)


def _unit(theta_over_pi: float) -> complex:
    return cmath.exp(1j * math.pi * theta_over_pi)


def _iterate_op(label, path, data: PathIndexData, m: int) -> Op:
    """cz_index of the m-th iterate at omega = 1 against the closed forms."""

    def run():
        return {"oracle": list(oracle.cz_index(oracle.iterate_path(path, m), 1))}

    def gate(out):
        want = [index_iterate(data, m), nullity_iterate(data, m)]
        _ensure(out["oracle"] == want, f"{label} m={m}: oracle {out['oracle']} != closed form {want}")

    return Op(f"cz_index {label} m={m}", run, gate)


def _splitting_op(label, path, decomp, omega_complex, omega_tagged) -> Op:
    """estimate_splitting at a unit eigenvalue against splitting_numbers."""

    def run():
        return {"oracle": list(oracle.estimate_splitting(path, omega_complex))}

    def gate(out):
        want = splitting_numbers(decomp, omega_tagged).as_tuple()
        _ensure(out["oracle"] == list(want), f"{label}: oracle {out['oracle']} != {want}")

    return Op(f"estimate_splitting {label}", run, gate)


def _near_one_op(path, data: PathIndexData, sign: int, eps: float) -> Op:
    """cz_index of the N1(1,1) shear at e^{sign i eps}: the one-sided limit
    i_1 + S^{+-}(1) of the closed forms, with nullity 0 off the spectrum."""
    omega = cmath.exp(1j * sign * eps)

    def expected():
        _ensure([float(a) for a, _ in unit_spectrum(data.decomp)] == [0.0],
                "the shear's unit spectrum must be {1}")
        pair = splitting_numbers(data.decomp, 1)
        s = pair.s_plus if sign > 0 else pair.s_minus
        return [index_iterate(data, 1) + s, 0]

    def run():
        return {"oracle": list(oracle.cz_index(path, omega))}

    def gate(out):
        want = expected()
        _ensure(out["oracle"] == want, f"shear near 1: oracle {out['oracle']} != {want}")

    sgn = "+" if sign > 0 else "-"
    return Op(f"cz_index shear N1(1,1) at e^({sgn}i{eps:g})", run, gate)


# The two rotation angles of a seeded R<>R diamond stay this far apart.
# Closer angles put the two blocks' crossings of omega = 1 within a few
# samples of each other, where cz_index miscounts.  That case is not left to
# the seed: every pass runs near_coincident_op(), whose known wrong answer
# is recorded in the report.
MIN_ANGLE_GAP = 0.05
NEAR_COINCIDENT_DEFECT = (
    "cz_index miscounts a diamond of two rotations whose crossings of omega = 1 "
    "lie a few samples apart: R(7/6 pi)<>R((2 sqrt21 - 8) pi) at m = 3 gives "
    "[4, 0], the closed forms [6, 0]")


def near_coincident_op(steps: int = ORACLE_STEPS) -> Op:
    """R(7/6 pi) <> R((2 sqrt21 - 8) pi) at m = 3: the angles differ by
    0.0015, so the two blocks cross omega = 1 at t = 1.7143 and 1.7165, 2.3
    samples apart.  Gated like every cz_index op, but its failure is the
    known defect NEAR_COINCIDENT_DEFECT."""
    a = Scalar.from_fraction(Fraction(7, 6))
    b = Scalar.sqrt(21) * 2 - 8
    path = oracle.diamond_paths(_rotation(float(a), steps), _rotation(float(b), steps),
                                steps=steps)
    data = PathIndexData(NormalFormDecomposition(n=2, thetas=(a, b)), i1=2)
    op = _iterate_op("R(7/6pi)<>R((2sqrt21-8)pi)", path, data, 3)
    op.known_defect = NEAR_COINCIDENT_DEFECT
    return op

# m is drawn from each pair; both members have the same parity (the -I
# iterates are degenerate exactly at even m) and nearly the same length, so
# the work of a pass is nearly the same for every seed
OC_STRATA = ((2, 4), (7, 9), (14, 16))
OC_DIAMOND_STRATA = ((3, 5), (9, 11))


def build_oracle_crosscheck(seed: int) -> Workload:
    rng = random.Random(seed)
    steps = ORACLE_STEPS
    strata, dstrata = OC_STRATA, OC_DIAMOND_STRATA
    draw_m = rng.choice
    ops = []

    def one_block(**counts):
        return NormalFormDecomposition(n=1, **counts)

    def rot_data(th: Scalar):
        return PathIndexData(one_block(thetas=(th,)), i1=1), _rotation(float(th), steps)

    # single blocks (criterion 2's families); base indices are the known
    # values for these generators, so m = 1 is checked too
    fixed = {
        "-I": (PathIndexData(one_block(q_zero=1), i1=1), _rotation(1.0, steps)),
        "I": (PathIndexData(one_block(p_zero=1), i1=-1), _constant(steps)),
        "N1(1,1)": (PathIndexData(one_block(p_minus=1), i1=-1), _shear(1, steps)),
        "N1(1,-1)": (PathIndexData(one_block(p_plus=1), i1=0), _shear(-1, steps)),
    }
    for st in strata:
        th = rational_angle(rng)
        data, path = rot_data(th)
        ops.append(_iterate_op(f"R({th.fraction}pi)", path, data, draw_m(st)))
        th = quadratic_angle(rng, 1.1, 1.4)
        data, path = rot_data(th)
        ops.append(_iterate_op(f"R({float(th):.6f}pi)", path, data, draw_m(st)))
        for name, (data, path) in fixed.items():
            ops.append(_iterate_op(name, path, data, draw_m(st)))
    # diamond products, n = 2 and 3
    for st in dstrata:
        a = rational_angle(rng)
        b = quadratic_angle(rng, 1.1, 1.4)
        while abs(float(a) - float(b)) < MIN_ANGLE_GAP:
            b = quadratic_angle(rng, 1.1, 1.4)
        ra, rb = _rotation(float(a), steps), _rotation(float(b), steps)
        sh = fixed["N1(1,1)"][1]
        p = oracle.diamond_paths(ra, sh, steps=steps)
        d = PathIndexData(NormalFormDecomposition(n=2, p_minus=1, thetas=(a,)), i1=0)
        ops.append(_iterate_op(f"R({a.fraction}pi)<>N1(1,1)", p, d, draw_m(st)))
        p = oracle.diamond_paths(ra, rb, steps=steps)
        d = PathIndexData(NormalFormDecomposition(n=2, thetas=(a, b)), i1=2)
        ops.append(_iterate_op(f"R({a.fraction}pi)<>R({float(b):.6f}pi)", p, d, draw_m(st)))
        p = oracle.diamond_paths(oracle.diamond_paths(rb, fixed["-I"][1], steps=steps),
                                 fixed["N1(1,-1)"][1], steps=steps)
        d = PathIndexData(NormalFormDecomposition(n=3, p_plus=1, q_zero=1, thetas=(b,)), i1=2)
        ops.append(_iterate_op(f"R({float(b):.6f}pi)<>-I<>N1(1,-1)", p, d, draw_m(st)))
    ops.append(near_coincident_op(steps))
    # splitting numbers at unit eigenvalues
    th = rational_angle(rng)
    path = _rotation(float(th), steps)
    dec = one_block(thetas=(th,))
    ops.append(_splitting_op(f"R({th.fraction}pi) at e^(i{th.fraction}pi)", path, dec,
                             _unit(float(th)), th))
    conj = Scalar.rational(2) - th
    ops.append(_splitting_op(f"R({th.fraction}pi) at e^(i{conj.fraction}pi)", path, dec,
                             _unit(float(conj)), conj))
    ops.append(_splitting_op("-I at -1", fixed["-I"][1], fixed["-I"][0].decomp, -1, -1))
    al = rational_angle(rng)
    for nontrivial in (True, False):
        path = _n2_path(al, nontrivial, steps)
        dec = NormalFormDecomposition(n=2, **({"alphas": (al,)} if nontrivial
                                              else {"betas": (al,)}))
        kind = "nontrivial" if nontrivial else "trivial"
        ops.append(_splitting_op(f"N2 {kind} ({al.fraction}pi)", path, dec,
                                 _unit(float(al)), al))
    # the plateau case: D_omega flat and small along the shear
    ops.append(_near_one_op(fixed["N1(1,1)"][1], fixed["N1(1,1)"][0],
                            rng.choice((1, -1)), NEAR_ONE))
    info = {"steps": steps, "m_pairs": [list(s) for s in strata],
            "diamond_m_pairs": [list(s) for s in dstrata], "near_one_eps": NEAR_ONE}
    return Workload("oracle-crosscheck", seed, ops, info)


# ----- registry ---------------------------------------------------------------

WORKLOADS = ("jump-certify", "ellipsoid-sweep", "oracle-crosscheck")


def build(name: str, seed: int, out_dir: Path) -> Workload:
    scalars.set_precision(PRECISION)
    if name == "jump-certify":
        return build_jump_certify(seed)
    if name == "ellipsoid-sweep":
        return build_ellipsoid_sweep(seed, out_dir)
    if name == "oracle-crosscheck":
        return build_oracle_crosscheck(seed)
    raise ValueError(f"unknown workload {name!r}")
