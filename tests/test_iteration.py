import math
import random
from fractions import Fraction

import pytest

from symindex.iteration import (
    C_of_M,
    DecompositionError,
    I_value,
    NormalFormDecomposition,
    PathIndexData,
    S_plus_one,
    SplittingPair,
    index_iterate,
    index_iterate_via_splitting,
    mean_index,
    nullity_iterate,
    s_minus_angles,
    splitting_numbers,
    unit_spectrum,
    validate,
)
from symindex.scalars import Scalar, scalar_to_json
from symindex.selftest import random_decomposition, random_path_data

HALF = Scalar.rational(1, 2)


def rot_data(theta, i1=1):
    return PathIndexData(NormalFormDecomposition(n=1, thetas=(theta,)), i1=i1)


# ----- splitting numbers -----------------------------------------------------

def test_splitting_shear_at_one():
    d = NormalFormDecomposition(n=1, p_minus=1)
    assert splitting_numbers(d, 1).as_tuple() == (1, 1)


def test_splitting_rotation_at_own_angle():
    d = NormalFormDecomposition(n=1, thetas=(HALF,))
    assert splitting_numbers(d, HALF).as_tuple() == (0, 1)


def test_splitting_off_spectrum():
    d = NormalFormDecomposition(n=2, p_minus=1, thetas=(HALF,))
    assert splitting_numbers(d, Scalar.rational(1, 3)).as_tuple() == (0, 0)
    assert splitting_numbers(d, -1).as_tuple() == (0, 0)


def test_splitting_additivity():
    d = NormalFormDecomposition(n=2, p_minus=1, thetas=(HALF,))
    assert splitting_numbers(d, 1).as_tuple() == (1, 1)


def test_splitting_conjugation_rule():
    # S^+-(conj omega) = S^-+(omega) through the paired angle entries
    d = NormalFormDecomposition(n=1, thetas=(HALF,))
    sp = splitting_numbers(d, HALF)
    sm = splitting_numbers(d, Scalar.rational(2) - HALF)
    assert (sp.s_plus, sp.s_minus) == (sm.s_minus, sm.s_plus)


def test_splitting_nontrivial_n2_both_angles():
    d = NormalFormDecomposition(n=2, alphas=(Scalar.rational(2, 5),))
    assert splitting_numbers(d, Scalar.rational(2, 5)).as_tuple() == (1, 1)
    assert splitting_numbers(d, Scalar.rational(8, 5)).as_tuple() == (1, 1)


def test_splitting_trivial_n2_zero():
    d = NormalFormDecomposition(n=2, betas=(Scalar.rational(2, 5),))
    assert splitting_numbers(d, Scalar.rational(2, 5)).as_tuple() == (0, 0)


def test_unit_spectrum_covers_the_unit_eigenvalues_in_increasing_order(rng):
    # the multiplicities of every block on the circle add up to 2 (n - k),
    # and each row lies strictly above the one before in Scalar's order
    for _ in range(200):
        d = random_decomposition(rng, n_max=8)
        spectrum = unit_spectrum(d)
        assert sum(mult for _ang, mult in spectrum) == 2 * (d.n - d.k)
        assert all(a < b for (a, _), (b, _) in zip(spectrum, spectrum[1:]))


def test_the_table_counts_blocks_without_listing_them():
    # 10**9 blocks of a kind are one entry of the table, so the splitting
    # pair, the spectrum and the parity check answer without listing them
    d = NormalFormDecomposition(n=3 * 10 ** 9, p_minus=10 ** 9, p_plus=10 ** 9, k=10 ** 9)
    assert splitting_numbers(d, 1).as_tuple() == (10 ** 9, 10 ** 9)
    assert unit_spectrum(d) == [(Scalar.rational(0), 4 * 10 ** 9)]
    assert validate(PathIndexData(d, i1=0))["ok"]


@pytest.mark.parametrize("theta", ["0." + "9" * 30, "1." + "0" * 29 + "1"])
def test_unit_spectrum_orders_angles_a_double_cannot_tell_apart(theta):
    # theta = 1 -+ 1e-30 and its conjugate 1 +- 1e-30 round to the float 1.0
    # of the -I2 block's eigenvalue -1; the rows follow the exact values
    th = Scalar.irrational(theta)
    spectrum = unit_spectrum(NormalFormDecomposition(n=2, q_zero=1, thetas=(th,)))
    assert [mult for _ang, mult in spectrum] == [1, 2, 1]
    assert spectrum[0][0] < Scalar.rational(1) == spectrum[1][0] < spectrum[2][0]


# ----- C(M) and S^+(1) -------------------------------------------------------

def test_C_of_M_zero():
    assert C_of_M(NormalFormDecomposition(n=1, p_zero=1)) == 0


def test_C_of_M_formula_instantiation():
    d = NormalFormDecomposition(n=6, q_zero=1, q_plus=1,
                                thetas=(Scalar.rational(1, 3), Scalar.rational(2, 3)),
                                alphas=(HALF,))
    assert C_of_M(d) == 6


def test_C_of_M_matches_spectrum_sum(rng):
    for _ in range(25):
        d = random_decomposition(rng)
        total = 0
        for ang, _mult in unit_spectrum(d):
            if Scalar.rational(0) < ang < Scalar.rational(2):
                total += splitting_numbers(d, ang if ang != Scalar.rational(1) else -1).s_minus
        assert total == C_of_M(d)


def test_s_minus_angles_count_the_s_minus_of_the_spectrum(rng):
    # the path record's angle list against the splitting table, on draws
    # that together hold every block kind
    kinds = set()
    for _ in range(80):
        d = random_decomposition(rng, n_max=8)
        kinds |= {key for key, value in d.to_json().items() if value and key != "n"}
        angles = s_minus_angles(d)
        spectrum = [ang for ang, _mult in unit_spectrum(d)]
        for phi in spectrum:
            if phi != Scalar.rational(0):
                assert sum(a == phi for a in angles) == splitting_numbers(d, phi).s_minus
        assert all(any(a == phi for phi in spectrum) for a in angles)
    assert kinds == {"p_minus", "p_zero", "p_plus", "q_minus", "q_zero", "q_plus",
                     "thetas", "alphas", "betas", "k"}


def test_S_plus_one_examples():
    assert S_plus_one(NormalFormDecomposition(n=1, p_minus=1)) == 1
    assert S_plus_one(NormalFormDecomposition(n=2, p_zero=2)) == 2


def test_S_plus_one_matches_table(rng):
    # S+(1) is 1 for each N1(1,1) block and each I2 block, 0 for every other
    for _ in range(25):
        d = random_decomposition(rng)
        assert S_plus_one(d) == d.p_minus + d.p_zero


# ----- index iteration -------------------------------------------------------

def test_index_self_consistency_at_one():
    assert index_iterate(rot_data(HALF), 1) == 1


def test_index_rotation_fifth_iterate():
    # crossing-count value frozen from the geometric oracle on R(t pi/2)
    assert index_iterate(rot_data(HALF), 5) == 3


def test_index_minus_identity_block_even():
    dq = PathIndexData(NormalFormDecomposition(n=1, q_zero=1), i1=1)
    assert index_iterate(dq, 2) == 1  # parity term active


def test_formula_equivalence_random(rng):
    for _ in range(60):
        data = random_path_data(rng)
        assert index_iterate(data, 1) == data.i1
        assert index_iterate_via_splitting(data, 1) == data.i1
        for m in list(range(1, 30)) + [64, 127, 200, 731, 1000]:
            assert index_iterate(data, m) == index_iterate_via_splitting(data, m)


def test_n2_trivial_vs_nontrivial_differ_by_s_minus_term():
    ang = Scalar.rational(2, 5)
    dn = PathIndexData(NormalFormDecomposition(n=2, alphas=(ang,)), i1=0)
    dt = PathIndexData(NormalFormDecomposition(n=2, betas=(ang,)), i1=0)
    for m in range(1, 30):
        phi = 0 if (Fraction(m) * ang.fraction / 2).denominator == 1 else 1
        diff = index_iterate(dn, m) - index_iterate(dt, m)
        assert diff == 2 * (phi - 1)


def test_rejects_nonpositive_m():
    with pytest.raises(ValueError):
        index_iterate(rot_data(HALF), 0)


def test_invariant_violation_raises():
    with pytest.raises(DecompositionError):
        NormalFormDecomposition(n=3, p_minus=1)


BAD_DECOMPOSITIONS = [
    ({"n": 1, "p_minus": -1, "p_zero": 2}, "block counts must be non-negative"),
    ({"n": 2, "p_minus": 1}, "count sum 1 != n = 2"),
    ({"n": 1, "thetas": (Scalar.rational(0),)}, r"thetas: theta/pi must lie in \(0,2\)"),
    ({"n": 1, "thetas": (Scalar.rational(1),)},
     "thetas: theta/pi = 1 belongs to the -1 eigenvalue blocks"),
    ({"n": 1, "thetas": (Scalar.rational(2),)}, r"thetas: theta/pi must lie in \(0,2\)"),
    ({"n": 1, "thetas": (0.5,)}, "thetas: angles must be Scalars"),
]


def as_json(kwargs):
    """The path-data JSON of decomposition keywords; a plain float angle
    stays a JSON number."""
    obj = dict(kwargs, i1=1)
    if "thetas" in obj:
        obj["thetas"] = [scalar_to_json(x) if isinstance(x, Scalar) else x for x in obj["thetas"]]
    return obj


@pytest.mark.parametrize("kwargs, message", BAD_DECOMPOSITIONS, ids=[
    "negative-count", "count-sum", "angle-0", "angle-1", "angle-2", "float-angle"])
def test_an_invalid_decomposition_cannot_be_built(kwargs, message):
    with pytest.raises(DecompositionError, match=message):
        NormalFormDecomposition(**kwargs)
    with pytest.raises(DecompositionError, match=message):
        PathIndexData.from_json(as_json(kwargs))


def test_formulas_do_not_recheck_a_built_decomposition(monkeypatch):
    d = NormalFormDecomposition(n=6, p_minus=1, q_zero=1, thetas=(HALF, Scalar.sqrt(2) - 1),
                                alphas=(Scalar.rational(2, 5),))
    data = PathIndexData(d, i1=7, convex_mode=True)
    calls = []
    check = NormalFormDecomposition.check
    monkeypatch.setattr(NormalFormDecomposition, "check",
                        lambda self: calls.append(self) or check(self))
    for m in (1, 2, 5):
        index_iterate(data, m)
        index_iterate_via_splitting(data, m)
        nullity_iterate(data, m)
        I_value(data, m)
    mean_index(data)
    for omega in (1, -1, HALF, Scalar.rational(2, 5)):
        splitting_numbers(d, omega)
    unit_spectrum(d)
    C_of_M(d)
    S_plus_one(d)
    assert validate(data)["ok"]
    assert calls == []


# ----- nullity ---------------------------------------------------------------

def test_nullity_irrational_rotation_always_zero():
    d = PathIndexData(NormalFormDecomposition(
        n=1, thetas=(Scalar.sqrt(2) * Fraction(1, 2),)), i1=1)
    for m in (1, 2, 7, 100, 999):
        assert nullity_iterate(d, m) == 0


def test_nullity_identity_block():
    d = PathIndexData(NormalFormDecomposition(n=1, p_zero=1), i1=-1)
    for m in (1, 2, 9):
        assert nullity_iterate(d, m) == 2


def test_nullity_minus_identity_parity():
    d = PathIndexData(NormalFormDecomposition(n=1, q_zero=1), i1=1)
    assert [nullity_iterate(d, m) for m in (1, 2, 3, 4)] == [0, 2, 0, 2]


def test_nullity_range(rng):
    for _ in range(40):
        data = random_path_data(rng)
        for m in (1, 2, 3, 17, 100):
            nu = nullity_iterate(data, m)
            assert 0 <= nu <= 2 * data.decomp.n


def test_even_iterate_nullity_expansion(rng):
    # at even m divisible by every rational angle's (doubled) denominator,
    # nu counts exactly the rational blocks
    for _ in range(20):
        d = random_decomposition(rng)
        dens = [2]
        for ang in d.thetas + d.alphas + d.betas:
            if ang.is_rational:
                dens.append(2 * ang.fraction.denominator)
        m = math.lcm(*dens)
        r_rat = sum(1 for t in d.thetas if t.is_rational)
        rs_rat = sum(1 for t in d.alphas if t.is_rational)
        r0_rat = sum(1 for t in d.betas if t.is_rational)
        want = (d.p_minus + 2 * d.p_zero + d.p_plus
                + d.q_minus + 2 * d.q_zero + d.q_plus
                + 2 * (r_rat + rs_rat + r0_rat))
        assert nullity_iterate(PathIndexData(d, i1=0), m) == want


# ----- mean index ------------------------------------------------------------

def test_mean_index_single_rotation():
    data = rot_data(HALF)
    assert mean_index(data).fraction == Fraction(1, 2)


def test_mean_index_rationality_tag(rng):
    for _ in range(20):
        data = random_path_data(rng)
        mi = mean_index(data)
        assert mi.is_rational == all(t.is_rational for t in data.decomp.thetas)


def test_mean_index_is_iterate_limit(rng):
    for _ in range(8):
        data = random_path_data(rng, n_max=4)
        mi = float(mean_index(data))
        C = 2 * data.decomp.n + abs(data.i1)
        for m in (10, 1000, 10 ** 4):
            assert abs(index_iterate(data, m) / m - mi) <= C / m + 1e-12


# ----- I value ---------------------------------------------------------------

def test_I_value_no_unit_angles():
    d = PathIndexData(NormalFormDecomposition(n=2, p_minus=1, k=1), i1=3)
    sp = S_plus_one(d.decomp)
    C = C_of_M(d.decomp)
    for m in (1, 2, 9):
        assert I_value(d, m) == m * (3 + sp - C)


def test_I_value_rotation_example():
    assert I_value(rot_data(HALF), 2) == 1


def test_I_value_half_iterate_identity(rng):
    for _ in range(30):
        data = random_path_data(rng)
        base = S_plus_one(data.decomp) + C_of_M(data.decomp)
        for m in range(1, 51):
            assert 2 * I_value(data, m) - base == index_iterate(data, 2 * m)


# ----- validation ------------------------------------------------------------

def test_validate_count_mismatch():
    # the count sum is checked when the decomposition is built, before any
    # validate could see it
    with pytest.raises(DecompositionError, match="count sum 1 != n = 2"):
        NormalFormDecomposition(n=2, p_minus=1)


def test_validate_rotation_parity():
    rep = validate(rot_data(HALF, i1=2))
    assert not rep["ok"]
    assert any("odd" in p for p in rep["problems"])
    assert validate(rot_data(HALF, i1=1)) == {"ok": True, "problems": []}


@pytest.mark.parametrize("decomp, want", [
    (dict(n=1, p_minus=1), "odd"),                       # N1(1,1)
    (dict(n=1, p_zero=1), "odd"),                        # I2
    (dict(n=1, p_plus=1), "even"),                       # N1(1,-1)
    (dict(n=1, q_minus=1), "odd"),                       # N1(-1,1)
    (dict(n=1, q_zero=1), "odd"),                        # -I2
    (dict(n=1, q_plus=1), "odd"),                        # N1(-1,-1)
    (dict(n=1, thetas=(HALF,)), "odd"),                  # R
    (dict(n=2, alphas=(Scalar.rational(2, 5),)), "even"),  # nontrivial N2
    (dict(n=2, betas=(Scalar.rational(2, 5),)), "even"),   # trivial N2
    (dict(n=1, k=1), None),                              # hyperbolic
])
def test_validate_single_block_parity(decomp, want):
    d = NormalFormDecomposition(**decomp)
    for i1 in range(-3, 4):
        problems = validate(PathIndexData(d, i1=i1))["problems"]
        if want is None or want == ("odd" if i1 % 2 else "even"):
            assert problems == []
        else:
            assert problems == [f"single-block decomposition requires i1 {want}, got {i1}"]
    # a second block lifts the constraint
    two = NormalFormDecomposition(**{**decomp, "n": decomp["n"] + 1, "k": decomp.get("k", 0) + 1})
    assert all(validate(PathIndexData(two, i1=i1))["ok"] for i1 in (0, 1))


def test_validate_convex_requirements():
    rep = validate(PathIndexData(NormalFormDecomposition(n=1, p_zero=1), i1=1,
                                 convex_mode=True))
    assert any("p_minus" in p for p in rep["problems"])
    d2 = NormalFormDecomposition(n=2, p_minus=1, thetas=(Scalar.rational(1, 5),))
    rep2 = validate(PathIndexData(d2, i1=1, convex_mode=True))
    assert any("i1 >= n" in p for p in rep2["problems"])
    assert any("mean index > 2" in p for p in rep2["problems"])
    assert not rep2["ok"]
    good = validate(PathIndexData(d2, i1=4, convex_mode=True))
    assert good["ok"]


def test_path_data_json_round_trip(rng):
    for _ in range(10):
        data = random_path_data(rng)
        back = PathIndexData.from_json(data.to_json())
        assert back.i1 == data.i1
        assert back.decomp.n == data.decomp.n
        assert back.decomp.count_sum() == data.decomp.count_sum()
        for m in (1, 5, 12):
            assert index_iterate(back, m) == index_iterate(data, m)
            assert nullity_iterate(back, m) == nullity_iterate(data, m)


def test_splitting_pair_type():
    assert SplittingPair(1, 1).as_tuple() == (1, 1)
