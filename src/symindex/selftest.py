"""Built-in property suites for the CLI selftest subcommand.

Each suite re-checks one cross-module invariant, on seeded random data or
realize_path's block paths, and returns (name, ok, detail).  The CLI
prints one line per suite and exits nonzero if any fails; the pytest
suite runs the same invariants at larger sample sizes.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from functools import reduce

import numpy as np

from .iteration import (
    C_of_M,
    I_value,
    NormalFormDecomposition,
    PathIndexData,
    S_plus_one,
    index_iterate,
    index_iterate_via_splitting,
    nullity_iterate,
    splitting_numbers,
    unit_spectrum,
)
from .jump import search_report
from .oracle import (DEFAULT_STEPS, SampledSymplecticPath, cz_index, diamond_paths,
                     estimate_splitting, iterate_path, path_from_matrix_function,
                     path_from_quadratic_hamiltonian)
from .scalars import Scalar

__all__ = ["random_angle", "random_decomposition", "realize_path", "run_all", "SUITES"]

_SQRT_BASES = (2, 3, 5, 7)


def random_angle(rng: random.Random) -> Scalar:
    """An angle theta/pi in (0,2) minus {1}, rational or sqrt-based irrational."""
    if rng.random() < 0.4:
        base = Scalar.sqrt(rng.choice(_SQRT_BASES))
        num = rng.randint(1, 24)
        den = rng.randint(13, 40)
        x = base * Fraction(num, den)
        # reduce into (0, 2); sqrt-based values never hit 1 exactly
        x = x - 2 * x.mul_div_floor(1, 2)
        if not (Scalar.rational(0) < x < Scalar.rational(2)):
            return random_angle(rng)
        return x
    while True:
        den = rng.randint(2, 12)
        num = rng.randint(1, 2 * den - 1)
        fr = Fraction(num, den)
        if fr != 1:
            return Scalar.from_fraction(fr)


def random_decomposition(rng: random.Random, n_max: int = 5) -> NormalFormDecomposition:
    n = rng.randint(1, n_max)
    counts = {"p_minus": 0, "p_zero": 0, "p_plus": 0,
              "q_minus": 0, "q_zero": 0, "q_plus": 0, "k": 0}
    thetas, alphas, betas = [], [], []
    remaining = n
    slots = list(counts) + ["r", "r_star", "r_zero"]
    while remaining > 0:
        slot = rng.choice(slots)
        cost = 2 if slot in ("r_star", "r_zero") else 1
        if cost > remaining:
            continue
        if slot == "r":
            thetas.append(random_angle(rng))
        elif slot == "r_star":
            alphas.append(random_angle(rng))
        elif slot == "r_zero":
            betas.append(random_angle(rng))
        else:
            counts[slot] += 1
        remaining -= cost
    return NormalFormDecomposition(n=n, thetas=tuple(thetas), alphas=tuple(alphas),
                                   betas=tuple(betas), **counts)


def random_path_data(rng: random.Random, n_max: int = 5) -> PathIndexData:
    d = random_decomposition(rng, n_max)
    return PathIndexData(d, i1=rng.randint(-6, 6))


def realize_path(decomp: NormalFormDecomposition, windings=None,
                 steps: int = DEFAULT_STEPS) -> tuple[SampledSymplecticPath, PathIndexData]:
    """The diamond of the blocks' canonical paths on [0, 1], on one grid in
    realize_decomposition's block order, and its PathIndexData: i1 is
    additive under the diamond, so it is the sum of the blocks' (README's
    block table).  windings holds one nonzero turn count per rotation, +1
    each by default; a winding too fast for steps fails validate's
    STEP_BOUND check.  N2 blocks are refused: their i1 is not derived yet."""
    if decomp.alphas or decomp.betas:
        raise ValueError("realize_path has no canonical path for an N2 block (alphas, betas)")
    windings = (1,) * len(decomp.thetas) if windings is None else tuple(windings)
    if len(windings) != len(decomp.thetas) or 0 in windings:
        raise ValueError(f"windings must hold one nonzero turn count per rotation "
                         f"({len(decomp.thetas)}), got {windings}")

    def n1_minus(b):  # t -> R(pi t) N1(1, -b t), ending at N1(-1, b)
        def f(t):
            c, s = math.cos(math.pi * t), math.sin(math.pi * t)
            return np.array([[c, -s], [s, c]]) @ np.array([[1.0, -b * t], [0.0, 1.0]])
        return f

    # (count, generator B or matrix function, i1) per block kind
    blocks = [(decomp.p_minus, np.diag([0.0, -1.0]), -1), (decomp.p_zero, np.zeros((2, 2)), -1),
              (decomp.p_plus, np.diag([0.0, 1.0]), 0), (decomp.q_minus, n1_minus(1), 1),
              (decomp.q_zero, math.pi * np.eye(2), 1), (decomp.q_plus, n1_minus(-1), 1)]
    for theta, w in zip(decomp.thetas, windings):
        sign = 1 if w > 0 else -1
        blocks.append((1, (float(theta) + 2 * w - 1 - sign) * math.pi * np.eye(2), 2 * w - sign))
    blocks.append((decomp.k, math.log(2) * np.array([[0.0, -1.0], [-1.0, 0.0]]), 0))
    parts = [path_from_matrix_function(g, 1.0, 1, steps) if callable(g)
             else path_from_quadratic_hamiltonian(g, 1.0, steps)
             for count, g, _ in blocks for _ in range(count)]
    path = reduce(lambda p, q: diamond_paths(p, q, steps), parts)
    return path, PathIndexData(decomp, i1=sum(count * i1 for count, _, i1 in blocks))


# ----- suites ----------------------------------------------------------------


def _suite_formula_equivalence(seed: int):
    rng = random.Random(seed)
    for _ in range(40):
        data = random_path_data(rng)
        if index_iterate(data, 1) != data.i1:
            return False, "m=1 self-consistency failed"
        for m in list(range(1, 21)) + [37, 60]:
            a = index_iterate(data, m)
            b = index_iterate_via_splitting(data, m)
            if a != b:
                return False, f"formulas disagree at m={m}: {a} vs {b}"
            nu = nullity_iterate(data, m)
            if not (0 <= nu <= 2 * data.decomp.n):
                return False, f"nullity out of range at m={m}: {nu}"
    return True, "40 decompositions, m up to 60"


def _suite_half_iterate_identity(seed: int):
    rng = random.Random(seed + 1)
    for _ in range(30):
        data = random_path_data(rng)
        d = data.decomp
        base = S_plus_one(d) + C_of_M(d)
        for m in range(1, 31):
            if 2 * I_value(data, m) - base != index_iterate(data, 2 * m):
                return False, f"half-iterate identity failed at m={m}"
    return True, "30 decompositions, m up to 30"


def _agreement_cases():  # every block kind realize_path offers, and a clockwise double turn
    one = [{"p_minus": 1}, {"p_zero": 1}, {"p_plus": 1}, {"q_minus": 1}, {"q_zero": 1},
           {"q_plus": 1}, {"thetas": (Scalar.rational(1, 2),)}, {"k": 1}]
    cases = [(NormalFormDecomposition(n=1, **counts), None) for counts in one]
    cases.append((NormalFormDecomposition(n=3, p_minus=1, q_zero=1,
                                          thetas=(Scalar.rational(2, 5),)), (-2,)))
    return cases


def _suite_oracle_agreement(seed: int):
    for decomp, windings in _agreement_cases():
        path, data = realize_path(decomp, windings, steps=1024)
        for m in range(1, 7):
            got = cz_index(iterate_path(path, m), 1)
            want = (index_iterate(data, m), nullity_iterate(data, m))
            if got != want:
                return False, f"{decomp.to_json()}: oracle {got} != formula {want} at m={m}"
    return True, "9 realized decompositions, m up to 6"


def _suite_splitting_rows(seed: int):
    # N1(1,-1) diamond R(5e-5 rad): the probes must stay inside the rotation's phases
    tiny = Scalar.from_fraction(Fraction(5e-5 / math.pi))
    cases = _agreement_cases() + [(NormalFormDecomposition(n=2, p_plus=1, thetas=(tiny,)), None)]
    for decomp, windings in cases:
        path, _ = realize_path(decomp, windings, steps=1024)
        for phi, _ in unit_spectrum(decomp):
            got = estimate_splitting(path, cmath.exp(1j * math.pi * float(phi)))
            want = splitting_numbers(decomp, phi).as_tuple()
            if got != want:
                return False, f"{decomp.to_json()} at theta/pi = {phi}: splitting {got} != {want}"
    return True, f"every unit eigenvalue of {len(cases)} realized decompositions"


def _suite_jump_golden(seed: int):
    data = PathIndexData(NormalFormDecomposition(n=1, thetas=(Scalar.golden(),)), i1=1)
    solutions = search_report([data], 50_000, reports=0)["search"].solutions
    if not solutions:
        return False, "no golden-ratio hits below 50000"
    vertices = {s.chi for s in solutions}
    if len(vertices) < 2:
        return False, f"expected both chi vertices, got {vertices}"
    for s in solutions[:50]:
        if I_value(data, s.m[0]) != s.N + s.delta[0]:
            return False, f"identity gate broken at N={s.N}"
    return True, f"{len(solutions)} hits, {len(vertices)} vertices"


SUITES = [
    ("formula-equivalence", _suite_formula_equivalence),
    ("half-iterate-identity", _suite_half_iterate_identity),
    ("oracle-agreement", _suite_oracle_agreement),
    ("splitting-rows", _suite_splitting_rows),
    ("jump-golden-ratio", _suite_jump_golden),
]


def run_all(seed: int = 0):
    results = []
    for name, fn in SUITES:
        try:
            ok, detail = fn(seed)
        except Exception as exc:  # an unexpected crash is an invariant violation
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
