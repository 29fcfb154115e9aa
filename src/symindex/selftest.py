"""Built-in property suites for the CLI selftest subcommand.

Each suite re-checks one cross-module invariant on seeded random data and
returns (name, ok, detail).  The CLI prints one line per suite and exits
nonzero if any fails; the pytest suite runs the same invariants at larger
sample sizes.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

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
)
from .jump import build_jump_vector, default_delta, default_eps, search_N
from .normal_forms import diamond
from .oracle import cz_index, estimate_splitting, iterate_path, path_from_quadratic_hamiltonian
from .scalars import Scalar

__all__ = ["random_angle", "random_decomposition", "run_all", "SUITES"]

_SQRT_BASES = (2, 3, 5, 7)


def random_angle(rng: random.Random, allow_irrational: bool = True) -> Scalar:
    """An angle theta/pi in (0,2) minus {1}, rational or sqrt-based irrational."""
    if allow_irrational and rng.random() < 0.4:
        base = Scalar.sqrt(rng.choice(_SQRT_BASES))
        num = rng.randint(1, 24)
        den = rng.randint(13, 40)
        x = base * Fraction(num, den)
        # reduce into (0, 2); sqrt-based values never hit 1 exactly
        x = x - 2 * x.mul_div_floor(1, 2)
        if not (Scalar.rational(0) < x < Scalar.rational(2)):
            return random_angle(rng, allow_irrational)
        return x
    while True:
        den = rng.randint(2, 12)
        num = rng.randint(1, 2 * den - 1)
        fr = Fraction(num, den)
        if fr != 1:
            return Scalar.from_fraction(fr)


def random_decomposition(rng: random.Random, n_max: int = 5,
                         allow_irrational: bool = True) -> NormalFormDecomposition:
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
            thetas.append(random_angle(rng, allow_irrational))
        elif slot == "r_star":
            alphas.append(random_angle(rng, allow_irrational))
        elif slot == "r_zero":
            betas.append(random_angle(rng, allow_irrational))
        else:
            counts[slot] += 1
        remaining -= cost
    return NormalFormDecomposition(n=n, thetas=tuple(thetas), alphas=tuple(alphas),
                                   betas=tuple(betas), **counts)


def random_path_data(rng: random.Random, n_max: int = 5) -> PathIndexData:
    d = random_decomposition(rng, n_max)
    return PathIndexData(d, i1=rng.randint(-6, 6))


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


def _suite_oracle_agreement(seed: int):
    cases = [
        ((math.pi / 2) * np.eye(2),
         PathIndexData(NormalFormDecomposition(n=1, thetas=(Scalar.rational(1, 2),)), i1=1)),
        (np.diag([0.0, -1.0]),
         PathIndexData(NormalFormDecomposition(n=1, p_minus=1), i1=-1)),
        (math.pi * np.eye(2),
         PathIndexData(NormalFormDecomposition(n=1, q_zero=1), i1=1)),
    ]
    for B, data in cases:
        path = path_from_quadratic_hamiltonian(B, 1.0, steps=1024)
        for m in range(1, 7):
            got = cz_index(iterate_path(path, m), 1)
            want = (index_iterate(data, m), nullity_iterate(data, m))
            if got != want:
                return False, f"oracle {got} != formula {want} at m={m}"
    return True, "3 generator paths, m up to 6"


def _suite_splitting_rows(seed: int):
    rows = [
        (np.diag([0.0, -1.0]), 1, (1, 1)),
        (np.diag([0.0, 1.0]), 1, (0, 0)),
        ((0.4 * math.pi) * np.eye(2), complex(math.cos(0.4 * math.pi), math.sin(0.4 * math.pi)), (0, 1)),
        # N1(1,-1) diamond R(5e-5): the probes must stay inside the rotation's phases
        (diamond(np.diag([0.0, 1.0]), 5e-5 * np.eye(2)), 1, (0, 0)),
    ]
    for B, omega, want in rows:
        path = path_from_quadratic_hamiltonian(B, 1.0, steps=1024)
        got = estimate_splitting(path, omega)
        if got != want:
            return False, f"splitting {got} != {want}"
    return True, "N1(1,1), N1(1,-1), R, N1(1,-1)<>R(5e-5) rows recovered"


def _suite_jump_golden(seed: int):
    data = PathIndexData(NormalFormDecomposition(n=1, thetas=(Scalar.golden(),)), i1=1)
    v = build_jump_vector([data])
    delta = default_delta([data])
    eps = default_eps([data], v.M, delta)
    res = search_N(v, "auto", eps=eps, N_max=50_000, paths=[data], delta=delta)
    if not res.solutions:
        return False, "no golden-ratio hits below 50000"
    vertices = {s.chi for s in res.solutions}
    if len(vertices) < 2:
        return False, f"expected both chi vertices, got {vertices}"
    for s in res.solutions[:50]:
        if I_value(data, s.m[0]) != s.N + s.delta[0]:
            return False, f"identity gate broken at N={s.N}"
    return True, f"{len(res.solutions)} hits, {len(vertices)} vertices"


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
