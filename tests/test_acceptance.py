"""Acceptance criteria, one test per criterion, each printing a PASS line.

Budgets and tolerances are pinned here and nowhere else: exact integer
equality for the index formulas and gates, 1e-30 at 50-digit precision for
the mean-index ratio, and wall-clock budgets of 10 s / 60 s / 120 s for
criteria 1, 2 and 4.
"""

import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from symindex.ellipsoid import EllipsoidSpec, orbit_data
from symindex.iteration import (
    C_of_M,
    I_value,
    NormalFormDecomposition,
    PathIndexData,
    S_plus_one,
    index_iterate,
    index_iterate_via_splitting,
    mean_index,
    nullity_iterate,
)
from symindex.jump import (
    build_jump_vector,
    default_delta,
    default_eps,
    delta_k,
    mean_ratio_classify,
    s_minus_angles,
    search_N,
    theorem211_report,
    varrho,
)
from symindex.normal_forms import nontrivial_n2_block, realize, trivial_n2_block
from symindex.oracle import cz_index, estimate_splitting, iterate_path, path_from_logm
from symindex.scalars import Scalar, get_precision
from symindex.selftest import random_path_data, realize_path

from conftest import block_path, rotation_path, shear_path

HALF = Scalar.rational(1, 2)
STEPS = 1024


# ----- shared fixtures --------------------------------------------------------


@pytest.fixture(scope="module")
def ellipsoid_search():
    """Criterion-4 configuration: alpha = (1, sqrt2), convex mode, defaults,
    N_max = 1e6; shared by criteria 4, 6 and 9."""
    spec = EllipsoidSpec(alphas=("1", "sqrt2"), mode="convex")
    t0 = time.perf_counter()
    datas = [orbit_data(spec, i)[0] for i in (1, 2)]
    v = build_jump_vector(datas)
    delta = default_delta(datas)
    eps = default_eps(datas, v.M, delta)
    result = search_N(v, "auto", eps=eps, N_max=10 ** 6, paths=datas, delta=delta)
    elapsed = time.perf_counter() - t0
    return {"datas": datas, "v": v, "delta": delta, "eps": eps,
            "result": result, "elapsed": elapsed}


@pytest.fixture(scope="module")
def golden_search():
    data = PathIndexData(NormalFormDecomposition(n=1, thetas=(Scalar.golden(),)), i1=1)
    v = build_jump_vector([data])
    delta = default_delta([data])
    eps = default_eps([data], v.M, delta)
    res = search_N(v, "auto", eps=eps, N_max=10 ** 6, paths=[data], delta=delta)
    return data, v, res


# ----- criterion 1 ------------------------------------------------------------


def test_criterion_1_formula_equivalence():
    rng = random.Random(987654321)
    datas = [random_path_data(rng, n_max=5) for _ in range(500)]
    t0 = time.perf_counter()
    checked = 0
    for data in datas:
        for m in range(1, 201):
            assert index_iterate(data, m) == index_iterate_via_splitting(data, m)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 100_000
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds the 10s budget"
    print(f"\nCRITERION 1: PASS (500 decompositions x m<=200, exact equality, "
          f"{elapsed:.2f}s < 10s)")


# ----- criterion 2 ------------------------------------------------------------


def _oracle_cases():
    """Diamond products of rotation, +-identity, and shear blocks, n <= 3,
    with realize_path's data."""
    theta_irr = Scalar.sqrt(2) * Fraction(1, 2)
    singles = [{"thetas": (HALF,)}, {"thetas": (theta_irr,)}, {"p_minus": 1}, {"p_plus": 1},
               {"q_zero": 1}, {"p_zero": 1}]
    cases = [(NormalFormDecomposition(n=1, **counts), (1, 2, 3, 5, 8, 13, 20))
             for counts in singles]
    cases.append((NormalFormDecomposition(n=2, p_minus=1, thetas=(HALF,)), (1, 2, 3, 6)))
    cases.append((NormalFormDecomposition(n=2, thetas=(HALF, theta_irr)), (1, 2, 3, 6)))
    cases.append((NormalFormDecomposition(n=3, p_plus=1, q_zero=1, thetas=(theta_irr,)),
                  (1, 2, 4, 7)))
    return [(*realize_path(decomp, steps=STEPS), ms) for decomp, ms in cases]


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    combos = 0
    for path, realized, ms in _oracle_cases():
        decomp = realized.decomp
        i1, nu1 = cz_index(path, 1)
        assert i1 == realized.i1, f"n={decomp.n}: oracle i1 {i1} != realized {realized.i1}"
        data = PathIndexData(decomp, i1=i1)
        assert nu1 == nullity_iterate(data, 1)
        for m in ms:
            got = cz_index(iterate_path(path, m), 1)
            want = (index_iterate(data, m), nullity_iterate(data, m))
            assert got == want, f"n={decomp.n}, m={m}: oracle {got} != formula {want}"
            combos += 1
    elapsed = time.perf_counter() - t0
    assert combos >= 50
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds the 60s budget"
    print(f"\nCRITERION 2: PASS ({combos} path/m combinations exact, "
          f"{elapsed:.2f}s < 60s)")


# ----- criterion 3 ------------------------------------------------------------


def test_criterion_3_splitting_table_recovery():
    w = lambda x: complex(math.cos(x * math.pi), math.sin(x * math.pi))
    rows = [
        ("off-spectrum R", rotation_path(0.4, steps=STEPS), -1, (0, 0)),
        ("off-spectrum D", block_path(STEPS, k=1), 1, (0, 0)),
        ("N1(1,1) at 1", shear_path(1, steps=STEPS), 1, (1, 1)),
        ("I2 at 1", block_path(STEPS, p_zero=1), 1, (1, 1)),
        ("N1(1,-1) at 1", shear_path(-1, steps=STEPS), 1, (0, 0)),
        ("N1(-1,1) at -1", block_path(STEPS, q_minus=1), -1, (0, 0)),
        ("-I2 at -1", rotation_path(1.0, steps=STEPS), -1, (1, 1)),
        ("N1(-1,-1) at -1", block_path(STEPS, q_plus=1), -1, (1, 1)),
        ("R(0.4pi)", rotation_path(0.4, steps=STEPS), w(0.4), (0, 1)),
        ("R(1.6pi)", rotation_path(1.6, steps=STEPS), w(1.6), (0, 1)),
        ("N2 nontrivial (0.4pi)", path_from_logm(
            realize(nontrivial_n2_block(Scalar.rational(2, 5))).as_float(),
            steps=STEPS), w(0.4), (1, 1)),
        ("N2 trivial (0.4pi)", path_from_logm(
            realize(trivial_n2_block(Scalar.rational(2, 5))).as_float(),
            steps=STEPS), w(0.4), (0, 0)),
        ("N2 nontrivial (1.6pi)", path_from_logm(
            realize(nontrivial_n2_block(Scalar.rational(8, 5))).as_float(),
            steps=STEPS), w(1.6), (1, 1)),
        ("N2 trivial (1.6pi)", path_from_logm(
            realize(trivial_n2_block(Scalar.rational(8, 5))).as_float(),
            steps=STEPS), w(1.6), (0, 0)),
    ]
    for name, path, omega, want in rows:
        got = estimate_splitting(path, omega)
        assert got == want, f"{name}: {got} != {want}"
    print(f"\nCRITERION 3: PASS ({len(rows)} splitting-table rows recovered exactly)")


# ----- criterion 4 ------------------------------------------------------------


def test_criterion_4_identity_gate(ellipsoid_search):
    es = ellipsoid_search
    sols = es["result"].solutions
    assert len(sols) >= 1, "no jump solutions found below N_max = 1e6"
    assert es["elapsed"] < 120.0, f"runtime {es['elapsed']:.1f}s exceeds the 120s budget"
    datas, delta = es["datas"], es["delta"]
    for sol in sols:
        for k, data in enumerate(datas):
            # the identity, recomputed from scratch
            assert I_value(data, sol.m[k]) == sol.N + delta_k(data, sol.m[k], delta)
            # near-integrality and rational-angle integrality conditions
            for ang in s_minus_angles(data.decomp):
                if ang.is_rational:
                    fr = sol.m[k] * ang.fraction
                    assert fr.denominator == 1
                else:
                    frac = sol.m[k] * ang.mpf(get_precision()) - ang.mul_floor(sol.m[k])
                    assert frac < float(delta) or 1 - frac < float(delta)
    print(f"\nCRITERION 4: PASS ({len(sols)} solutions below 1e6, identity and "
          f"angle gates verified on all, search in {es['elapsed']:.1f}s < 120s)")


# ----- criterion 5 ------------------------------------------------------------


def test_criterion_5_mean_index_ratio(ellipsoid_search):
    d1, d2 = ellipsoid_search["datas"]
    dps = get_precision()
    assert dps >= 50
    with mpmath.mp.workdps(dps):
        ratio = mean_index(d1).mpf(dps) / mean_index(d2).mpf(dps)
        err = abs(ratio - mpmath.mp.sqrt(2))
        assert err < mpmath.mpf(10) ** -30, f"ratio error {err}"
    print(f"\nCRITERION 5: PASS (mean-index ratio equals sqrt2 within 1e-30 "
          f"at {dps} digits; error {float(err):.1e})")


# ----- criterion 6 ------------------------------------------------------------


def test_criterion_6_theorem_211_consequences(ellipsoid_search):
    es = ellipsoid_search
    datas = es["datas"]
    sols = es["result"].solutions
    assert sols
    n = 2
    checked = 0
    for sol in sols:
        rep = theorem211_report(sol, datas, n)
        assert rep["ordering_ok"], f"ordering fails at N={sol.N}"
        assert rep["chi_monotone_ok"], f"chi monotonicity fails at N={sol.N}"
        for entry in rep["entries"]:
            if entry["j"] is None:
                continue
            k = entry["j"]
            base = S_plus_one(datas[k].decomp) + C_of_M(datas[k].decomp)
            assert index_iterate(datas[k], 2 * sol.m[k]) == \
                2 * (sol.N + sol.delta[k]) - base
            assert entry["index_identity_ok"] and entry["bounds_ok"]
            checked += 1
    assert checked > 0
    print(f"\nCRITERION 6: PASS (doubled-iterate identity, ordering and "
          f"monotonicity verified on {len(sols)} solutions, {checked} assignments)")


# ----- criterion 7 ------------------------------------------------------------


def test_criterion_7_sign_symmetry(golden_search):
    data, v, res = golden_search
    assert res.solutions
    vertices = {s.chi for s in res.solutions}
    # coordinate 0 is irrational (a-component nonzero, must flip);
    # coordinate 1 equals 1 exactly (a-component zero, chi pinned at 0)
    assert not v.coords[0].is_rational
    assert v.coords[1].is_rational
    assert vertices == {(0, 0), (1, 0)}
    n0 = sum(1 for s in res.solutions if s.chi == (0, 0))
    n1 = sum(1 for s in res.solutions if s.chi == (1, 0))
    assert n0 > 0 and n1 > 0
    print(f"\nCRITERION 7: PASS (golden fixture: {n0} hits at chi=(0,0), "
          f"{n1} at the complementary vertex (1,0))")


# ----- criterion 8 ------------------------------------------------------------


def test_criterion_8_varrho_bound():
    freqs = {2: ("1", "sqrt2"), 3: ("1", "sqrt2", "sqrt3"),
             4: ("1", "sqrt2", "sqrt3", "sqrt5")}
    lines = []
    for n, alphas in freqs.items():
        spec = EllipsoidSpec(alphas=alphas, mode="convex")
        datas = [orbit_data(spec, i)[0] for i in range(1, n + 1)]
        rho = varrho(datas, n)
        bound = n // 2 + 1
        assert rho >= bound, f"n={n}: varrho {rho} < bound {bound}"
        matrix = mean_ratio_classify(datas)
        irr = sum(1 for i in range(n)
                  if all(matrix[i][j]["type"] == "irrational"
                         for j in range(n) if j != i))
        assert irr >= min(rho, n), f"n={n}: only {irr} pairwise-irrational orbits"
        lines.append(f"n={n}: varrho={rho}>={bound}, {irr} pairwise-irrational")
    print(f"\nCRITERION 8: PASS ({'; '.join(lines)})")


# ----- criterion 9 ------------------------------------------------------------


def test_criterion_9_worker_determinism(ellipsoid_search):
    es = ellipsoid_search
    datas, v, delta, eps = es["datas"], es["v"], es["delta"], es["eps"]
    base = es["result"].to_json()
    for workers in (4, 8):
        res = search_N(v, "auto", eps=eps, N_max=10 ** 6, paths=datas,
                       delta=delta, workers=workers)
        assert res.to_json() == base, f"workers={workers} changed the result"
    print("\nCRITERION 9: PASS (identical jump-search output for 1, 4 and 8 workers)")
