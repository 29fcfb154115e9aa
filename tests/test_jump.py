import json
import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np

import pytest
from hypothesis import HealthCheck, assume, example, given, seed, settings
from hypothesis import strategies as st
from mpmath import mp

from conftest import assert_same_text
from symindex import cli, jump
from symindex.ellipsoid import EllipsoidSpec, orbit_data

from symindex.iteration import (
    I_value,
    NormalFormDecomposition,
    PathIndexData,
    mean_index,
    path_record,
)
from symindex.jump import (
    _ANGLE_FAIL,
    _EXACT,
    _GATES,
    _ID_FAIL,
    _M_FAIL,
    _SKIP,
    _SOLVED,
    JumpError,
    JumpSolution,
    JumpVector,
    _batch_gates,
    _batch_limit,
    _certify,
    _close,
    _closer_than,
    _condition_339a_340,
    _mulhi,
    _residual,
    _scan_chunk,
    _scaled_coord,
    _stage1,
    _stride,
    _window_hits,
    build_jump_vector,
    compute_m,
    default_delta,
    default_eps,
    delta_k,
    mean_ratio_classify,
    s_minus_angles,
    search_N,
    search_report,
    theorem211_report,
    varrho,
)
from symindex.scalars import PrecisionError, Scalar, fixed_bits, get_precision, guard_tol

HALF = Scalar.rational(1, 2)
PHI = Scalar.golden()


def rot_data(theta, i1=1):
    return PathIndexData(NormalFormDecomposition(n=1, thetas=(theta,)), i1=i1)


@pytest.fixture(scope="module")
def golden_search():
    data = rot_data(PHI, i1=1)
    v = build_jump_vector([data])
    delta = default_delta([data])
    eps = default_eps([data], v.M, delta)
    res = search_N(v, "auto", eps=eps, N_max=10 ** 5, paths=[data], delta=delta)
    return data, v, delta, eps, res


# ----- vector construction ---------------------------------------------------

def test_build_vector_rational_mean_index():
    # ihat = 5/2 realized as i1 = 3 with one rotation angle pi/2
    data = rot_data(HALF, i1=3)
    assert mean_index(data).fraction == Fraction(5, 2)
    v = build_jump_vector([data], M=1)
    assert v.h == 2
    assert v.coords[0].fraction == Fraction(2, 5)   # 1/(M ihat)
    assert v.coords[1].fraction == Fraction(1, 5)   # (theta/pi)/ihat


def test_build_vector_h_counts_s_minus_angles():
    data = rot_data(HALF, i1=1)
    v = build_jump_vector([data])
    assert v.mu == (1,)
    assert v.h == 2


def test_build_vector_rejects_nonpositive_mean_index():
    data = rot_data(HALF, i1=-3)  # ihat = -3 + 0 - 1 + 1/2 < 0
    with pytest.raises(JumpError, match="positive"):
        build_jump_vector([data])


def test_build_vector_retags_exact_ratios():
    # theta/pi = phi and ihat = phi: the angle coordinate is exactly 1
    v = build_jump_vector([rot_data(PHI, i1=1)])
    assert not v.coords[0].is_rational
    assert v.coords[1].is_rational and v.coords[1].fraction == 1


def test_s_minus_angle_enumeration():
    d = NormalFormDecomposition(n=5, q_zero=1, q_plus=1, thetas=(HALF,),
                                alphas=(Scalar.rational(2, 5),))
    angs = s_minus_angles(d)
    assert [str(a.fraction) for a in angs] == ["1/2", "1", "1", "2/5", "8/5"]
    assert len(angs) == 5  # = C(M)


# ----- m and Delta -----------------------------------------------------------

def test_compute_m_examples():
    data = rot_data(HALF, i1=3)  # ihat = 5/2
    assert compute_m(100, data, 0, 2) == 40
    assert compute_m(100, data, 1, 2) == 42


def test_compute_m_rejects_nonpositive():
    data = rot_data(HALF, i1=3)
    with pytest.raises(JumpError, match="<= 0"):
        compute_m(1, data, 0, 2)


def test_delta_k_no_unit_angles():
    data = PathIndexData(NormalFormDecomposition(n=1, p_minus=1), i1=1)
    assert delta_k(data, 7, Fraction(1, 8)) == 0


def test_delta_k_rational_angle_on_integer_contributes_zero():
    data = rot_data(HALF, i1=3)
    # m even makes m * (1/2) an integer; {x} = 0 is excluded by strictness
    assert delta_k(data, 4, Fraction(1, 8)) == 0


# ----- search ----------------------------------------------------------------

def test_all_rational_coordinates_hit_every_multiple():
    data = PathIndexData(NormalFormDecomposition(n=1, q_zero=1), i1=1)
    v = build_jump_vector([data])
    assert all(c.is_rational for c in v.coords)
    res = search_N(v, (0, 0), eps=0.01, N_max=40, paths=[data], delta=Fraction(1, 8))
    assert [s.N for s in res.solutions] == list(range(1, 41))
    assert all(s.residual == 0.0 for s in res.solutions)


def test_golden_hits_exist_with_both_vertices(golden_search):
    data, v, delta, eps, res = golden_search
    assert res.solutions
    assert res.solutions[0].N == 34  # smallest hit, frozen from the enumeration
    vertices = {s.chi for s in res.solutions}
    assert vertices == {(0, 0), (1, 0)}


def test_identity_gate_certified_on_every_hit(golden_search):
    data, v, delta, eps, res = golden_search
    for sol in res.solutions:
        assert I_value(data, sol.m[0]) == sol.N + sol.delta[0]


def test_explicit_chi_restricts_hits(golden_search):
    data, v, delta, eps, _ = golden_search
    res0 = search_N(v, (0, 0), eps=eps, N_max=10 ** 4, paths=[data], delta=delta)
    res1 = search_N(v, (1, 0), eps=eps, N_max=10 ** 4, paths=[data], delta=delta)
    assert res0.solutions and res1.solutions
    assert all(s.chi == (0, 0) for s in res0.solutions)
    assert all(s.chi == (1, 0) for s in res1.solutions)


def test_gate_c_rejection_is_logged():
    # with tight defaults the closeness and angle gates force the identity,
    # so both tolerances are loosened to let stage-(a) survivors reach and
    # fail the exact identity gate, which the result's gate counts record
    data = rot_data(PHI, i1=1)
    v = build_jump_vector([data])
    res = search_N(v, "auto", eps=0.45, N_max=300, paths=[data],
                   delta=Fraction(49, 100))
    assert res.gates["identity"] > 0
    assert res.gates["certified"] == len(res.solutions)
    assert res.to_json()["gates"] == res.gates


def test_search_rejects_bad_eps():
    data = rot_data(PHI, i1=1)
    v = build_jump_vector([data])
    with pytest.raises(JumpError):
        search_N(v, "auto", eps=0.7, N_max=100, paths=[data], delta=Fraction(1, 8))


# ----- varrho and the theorem-2.11 report -----------------------------------

def test_varrho_single_convex_path():
    for n in (1, 2, 3, 5):
        thetas = tuple(Scalar.sqrt(p) * Fraction(1, 2)
                       for p in (2, 3, 5, 7)[: n - 1])
        d = NormalFormDecomposition(n=n, p_minus=1, thetas=thetas)
        data = PathIndexData(d, i1=n, convex_mode=True)
        # i1 = n, S+ = 1, nu1 = 1: [(n + 2 - 1 + n)/2] = n
        assert varrho([data], n) == n


def test_varrho_takes_minimum():
    d1 = PathIndexData(NormalFormDecomposition(n=2, p_minus=1, thetas=(HALF,)), i1=6)
    d2 = PathIndexData(NormalFormDecomposition(n=2, p_minus=1, thetas=(HALF,)), i1=2)
    assert varrho([d1, d2], 2) == min(varrho([d1], 2), varrho([d2], 2))


def test_theorem211_on_golden_hits(golden_search):
    data, v, delta, eps, res = golden_search
    for sol in res.solutions[:10]:
        rep = theorem211_report(sol, [data], 1)
        assert rep["varrho_n"] == 1
        for entry in rep["entries"]:
            if entry["j"] is not None:
                assert entry["index_identity_ok"]
                assert entry["bounds_ok"]
        assert rep["ordering_ok"] and rep["chi_monotone_ok"]
        assert rep["ok"] is (not rep["problems"])


# ----- a rationally dependent pair -------------------------------------------

def test_dependent_pair_search_certifies_equal_chi():
    # ihat_1 = phi, ihat_2 = phi/2: v = (1/phi, 2/phi, 1, 1).  A hit puts
    # N v_1 and N v_2 = 2 N v_1 both near integers, on the same side of them
    paths = [rot_data(PHI, i1=1), rot_data(PHI * Fraction(1, 2), i1=1)]
    v = build_jump_vector(paths)
    delta = default_delta(paths)
    eps = default_eps(paths, v.M, delta)
    res = search_N(v, "auto", eps=eps, N_max=3 * 10 ** 5, paths=paths, delta=delta)
    assert not v.coords[0].is_rational and not v.coords[1].is_rational
    assert res.solutions
    assert res.gates["certified"] == len(res.solutions)
    assert all(sol.chi[0] == sol.chi[1] for sol in res.solutions)


# ----- mean ratio classification ---------------------------------------------

def test_mean_ratio_rational_pair():
    a = rot_data(HALF, i1=3)  # ihat = 5/2
    b = PathIndexData(NormalFormDecomposition(n=1, thetas=(Scalar.rational(1, 4),)), i1=2)
    assert mean_index(b).fraction == Fraction(5, 4)
    matrix = mean_ratio_classify([a, b])
    assert matrix[0][1] == {"type": "rational", "value": "2/1"}


def test_mean_ratio_irrational_reported():
    a = rot_data(Scalar.sqrt(2), i1=1)
    b = rot_data(HALF, i1=3)
    matrix = mean_ratio_classify([a, b])
    assert matrix[0][1]["type"] == "irrational"


def test_mean_ratio_detects_hidden_multiple():
    a = rot_data(PHI, i1=1)                                   # ihat = phi
    d3 = NormalFormDecomposition(n=3, thetas=(PHI, PHI, PHI))
    b = PathIndexData(d3, i1=3)                               # ihat = 3 phi
    matrix = mean_ratio_classify([b, a])
    assert matrix[0][1] == {"type": "rational", "value": "3/1"}


# ----- integer gates against the former mpmath route --------------------------
#
# The functions below are the mpmath implementations the integer gates
# replaced, kept as the reference: floats of {m x} at the working precision
# compared against float(delta) and float(eps).  delta is drawn dyadic and
# eps sits at least 2**-45 (relative) from the residual, so float rounding
# cannot decide a reference comparison.

def ref_compute_m(N, path_k, chi_k, M):
    mi = mean_index(path_k)
    if mi.is_rational:
        fr = Fraction(N) / (M * mi.fraction)
        fl = fr.numerator // fr.denominator
    else:
        fl = (Scalar.rational(N) / (M * mi)).floor()
    m = (fl + chi_k) * M
    if m <= 0:
        raise JumpError(f"m_k = {m} <= 0 at N = {N}")
    return m


def _ref_frac_of_multiple(ang, m):
    if ang.is_rational:
        fr = m * ang.fraction
        return fr - (fr.numerator // fr.denominator)
    with mp.workdps(get_precision()):
        return m * ang.mpf() - ang.mul_floor(m)


def ref_delta_k(path_k, m_k, delta):
    total = 0
    for ang in s_minus_angles(path_k.decomp):
        fr = _ref_frac_of_multiple(ang, m_k)
        if isinstance(fr, Fraction):
            total += 0 < fr < delta
        else:
            total += 0 < fr < float(delta)
    return total


def ref_condition(path_k, m_k, delta):
    for ang in s_minus_angles(path_k.decomp):
        fr = _ref_frac_of_multiple(ang, m_k)
        if isinstance(fr, Fraction):
            if fr != 0:
                return False
        elif not (fr < float(delta) or 1 - fr < float(delta)):
            return False
    return True


def ref_residual(v, N, bits, dps):
    worst = 0.0
    with mp.workdps(dps):
        for coord, b in zip(v.coords, bits):
            if coord.is_rational:
                fr = N * coord.fraction
                frac = fr - (fr.numerator // fr.denominator)
            else:
                frac = N * coord.mpf(dps) - coord.mul_floor(N)
            worst = max(worst, float(abs(frac - b)))
    return worst


def outcome(fn, *args):
    """fn(*args), or the JumpError it raised."""
    try:
        return fn(*args)
    except JumpError as exc:
        return JumpError, str(exc)


def exact_frac(x, m):
    """{m x} of the stored value, exactly: the stored mpf is a dyadic rational."""
    if x.is_rational:
        fr = m * x.fraction
    else:
        man, exp = x._mpf.man_exp
        fr = m * Fraction(man) * Fraction(2) ** exp
    return fr - (fr.numerator // fr.denominator)


SQUARE_FREE = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15)


@st.composite
def quadratic_angles(draw):
    """q sqrt(d) mod 2 for rational q: irrational, in (0, 2)."""
    q = Fraction(draw(st.integers(1, 60)), draw(st.integers(1, 60)))
    x = Scalar.sqrt(draw(st.sampled_from(SQUARE_FREE))) * q
    return x - 2 * x.mul_div_floor(1, 2)


@st.composite
def rational_angles(draw):
    den = draw(st.integers(2, 30))
    num = draw(st.integers(1, 2 * den - 1).filter(lambda p: p != den))
    return Scalar.from_fraction(Fraction(num, den))


angles = st.one_of(quadratic_angles(), quadratic_angles(), rational_angles())


@st.composite
def path_data(draw):
    thetas = tuple(draw(st.lists(angles, min_size=1, max_size=2)))
    alphas = tuple(draw(st.lists(angles, max_size=1)))
    q_zero = draw(st.integers(0, 1))
    d = NormalFormDecomposition(n=len(thetas) + 2 * len(alphas) + q_zero,
                                q_zero=q_zero, thetas=thetas, alphas=alphas)
    return PathIndexData(d, i1=len(thetas) + draw(st.integers(0, 3)))


# j / 2**k <= 7/16: exact as a float, inside (0, 1/2)
dyadic_deltas = st.builds(lambda k, j: Fraction(j, 2 ** k), st.integers(4, 50), st.integers(1, 7))

PROPERTY = settings(max_examples=150, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@seed(20240811)
@PROPERTY
@given(path_data(), st.integers(1, 10 ** 7), st.integers(1, 12), st.integers(0, 1))
def test_compute_m_matches_reference(data, N, M, chi):
    assert outcome(compute_m, N, data, chi, M) == outcome(ref_compute_m, N, data, chi, M)


def convergent_numerators(x, limit):
    """Numerators p <= limit of the continued-fraction convergents p/q of x:
    p / x is then within 1/(q x) of an integer."""
    with mp.workdps(200):
        y = x.mpf(200)
        p0, q0, p1, q1 = 1, 0, int(mp.floor(y)), 1
        frac = y - p1
        out = []
        while p1 <= limit and frac != 0:
            out.append(p1)
            y = 1 / frac
            a = int(mp.floor(y))
            frac = y - a
            p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
    return out


@seed(20240811)
@PROPERTY
@given(path_data(), st.integers(1, 12), st.integers(0, 1))
def test_compute_m_next_to_integers(data, M, chi):
    # N at the convergent numerators of M ihat, where N / (M ihat) comes
    # closest to an integer
    mi = mean_index(data)
    assume(not mi.is_rational)
    for p in convergent_numerators(mi * M, 10 ** 15):
        for N in (p - 1, p, p + 1):
            if N >= 1:
                assert (outcome(compute_m, N, data, chi, M)
                        == outcome(ref_compute_m, N, data, chi, M))


@seed(20240811)
@PROPERTY
@given(path_data(), st.integers(1, 10 ** 6), dyadic_deltas)
def test_angle_gates_match_reference(data, m, delta):
    assert delta_k(data, m, delta) == ref_delta_k(data, m, delta)
    assert _condition_339a_340(data, m, delta, get_precision()) == ref_condition(data, m, delta)


@seed(20240811)
@PROPERTY
@given(quadratic_angles(), st.integers(1, 10 ** 6), st.integers(20, 50),
       st.sampled_from((0, 1)), st.sampled_from(("low", "high")))
def test_angle_gates_next_to_delta(x, m, k, side, which):
    # delta within 2**-k of {m x} (which = low) or of 1 - {m x} (high), on
    # either side of it
    data = rot_data(x, i1=1)
    t = exact_frac(x, m)
    target = t if which == "low" else 1 - t
    delta = Fraction(int(target * 2 ** k) + side, 2 ** k)
    assume(0 < delta < Fraction(1, 2))
    assert delta_k(data, m, delta) == ref_delta_k(data, m, delta)
    assert _condition_339a_340(data, m, delta, get_precision()) == ref_condition(data, m, delta)
    assert _condition_339a_340(data, m, delta, get_precision()) == (t < delta or 1 - t < delta)


@seed(20240811)
@PROPERTY
@given(path_data(), st.integers(1, 10 ** 6), st.integers(20, 45), st.sampled_from((-1, 1)))
def test_closeness_gate_next_to_eps(data, N, k, side):
    v = build_jump_vector([data])
    bits = tuple(int(exact_frac(c, N) > Fraction(1, 2)) for c in v.coords)  # nearest vertex
    dps = get_precision()
    ref = ref_residual(v, N, bits, dps)
    worst, slack, F, packed = _residual(v, N, bits, dps)
    assert packed == sum(b << i for i, b in enumerate(bits))
    assert float(worst / (1 << F)) == ref
    eps = ref * (1 + side * 2.0 ** -k)
    assume(0 < eps < 0.5)
    assert _closer_than(worst, slack, F, Fraction(eps)) == (ref < eps)


def test_angle_gate_inside_slack_raises():
    x = Scalar.sqrt(3) * Fraction(1, 2)
    data = rot_data(x, i1=1)
    for m in (7, 12345, 987654):
        r, F = x.mul_frac(m)
        t = exact_frac(x, m)
        # delta at r 2**-F, or equal to the stored {m x}, is inside the
        # slack |m| + 2 of the working read: the gate cannot decide it
        for delta in (Fraction(r, 1 << F), t):
            with pytest.raises(PrecisionError, match=f"within {m + 2} \\* 2\\*\\*-{F} of"):
                delta_k(data, m, delta)
        # one unit past the slack on either side it decides, as the stored
        # value does
        above, below = Fraction(r + m + 3, 1 << F), Fraction(r - m - 3, 1 << F)
        assert t < above and t > below
        assert delta_k(data, m, above) == 1 and delta_k(data, m, below) == 0


def true_frac_sqrt3_half(m, bits=2000):
    """{m sqrt(3)/2} of the true value, as an interval of width 2**-bits:
    floor(m sqrt(3) 2**bits / 2) from math.isqrt."""
    lo = math.isqrt(3 * m * m << (2 * bits)) >> 1
    return Fraction(lo, 1 << bits) % 1, Fraction(lo + 1, 1 << bits) % 1


@pytest.mark.parametrize("m", [7, 12345, 987654])
def test_delta_between_the_stored_and_the_true_frac_raises(m):
    # the stored sqrt(3)/2 has 385 bits; delta halfway between its {m x}
    # and the true one lies between the two, so a re-read of the stored
    # value at more bits would decide for the stored value and give the
    # wrong Delta_k: the gate must refuse
    x = Scalar.sqrt(3) * Fraction(1, 2)
    data = rot_data(x, i1=1)
    lo, hi = true_frac_sqrt3_half(m)
    stored = exact_frac(x, m)
    assert not lo <= stored < hi
    delta = (stored + lo) / 2
    with pytest.raises(PrecisionError):
        delta_k(data, m, delta)


def test_closeness_gate_slack_boundaries():
    F = 64
    eps = Fraction(1, 8)
    E = eps * (1 << F)
    for slack in (0, 5):
        assert _closer_than(E - slack - 1, slack, F, eps) is True
        assert _closer_than(E + slack, slack, F, eps) is False
    assert _closer_than(E - 5, 5, F, eps) is None
    assert _closer_than(E + 4, 5, F, eps) is None
    assert _closer_than(E, 0, F, eps) is False  # residual == eps is rejected


@seed(20240811)
@PROPERTY
@given(path_data(), st.integers(1, 10 ** 6), st.integers(1, 6))
def test_residual_picks_the_nearest_vertex(data, N, M):
    # bits None: the vertex bits of the nearest vertex, and the worst and
    # slack that _residual gives at those bits
    v = build_jump_vector([data], M=M)
    dps = get_precision()
    near = tuple(int(exact_frac(c, N) > Fraction(1, 2)) for c in v.coords)
    got = _residual(v, N, None, dps)
    assert got[3] == sum(b << i for i, b in enumerate(near))
    assert got == _residual(v, N, near, dps)


@seed(20240811)
@PROPERTY
@given(st.integers(3, 60), st.integers(1, 59), st.integers(0, 10 ** 4), quadratic_angles())
def test_residual_puts_rational_coordinates_at_q_minus_1_on_vertex_1(q, p, k, x):
    # N p = q - 1 (mod q): {N p/q} = 1 - 1/q, at distance 1/q from vertex 1
    assume(math.gcd(p, q) == 1)
    N = (q - 1) * pow(p, -1, q) % q + k * q
    v = JumpVector(q=1, mu=(1,), coords=(Scalar.from_fraction(Fraction(p, q)), x), M=1, M0=1,
                   mean_indices=(Scalar.rational(q, p),))
    dps = get_precision()
    worst, slack, F, packed = _residual(v, N, None, dps)
    assert packed & 1 == 1
    assert worst >= Fraction(1 << F, q)
    assert (worst, slack, F, packed) == _residual(v, N, (1, packed >> 1), dps)
    # a multiple of q lies on vertex 0
    assert _residual(v, (k + 1) * q, None, dps)[3] & 1 == 0


MIXED_PATHS = [rot_data(PHI), PathIndexData(NormalFormDecomposition(
    n=3, p_minus=1, alphas=(Scalar.rational(2, 5),)), i1=5)]


@pytest.mark.parametrize("paths", [[rot_data(PHI)], MIXED_PATHS])
def test_close_shortcut_accepts_only_what_closer_than_accepts(paths, monkeypatch):
    # eps 2**F at worst + slack + j/3: _closer_than accepts from j = 1 on,
    # the integer shortcut worst + slack < floor(eps 2**F) from j = 3 on,
    # and _close gives the decision of _closer_than at every j
    v = build_jump_vector(paths)
    dps = get_precision()
    closer_than = jump._closer_than
    shortcut = 0
    for N in range(1, 400, 7):
        worst, slack, F, packed = _residual(v, N, None, dps)
        for j in range(-6, 7):
            eps = (worst + slack + Fraction(j, 3)) / (1 << F)
            if not 0 < eps < Fraction(1, 2):
                continue
            eps_floor = int(eps * (1 << F))
            want = closer_than(worst, slack, F, eps)
            calls = []
            monkeypatch.setattr(jump, "_closer_than", lambda *a: calls.append(a) or closer_than(*a))
            if want is None:
                with pytest.raises(PrecisionError, match=f"residual at N = {N} is within"):
                    _close(v, None, eps, eps_floor, dps, N)
                continue
            got = _close(v, None, eps, eps_floor, dps, N)
            assert (got is not None) == want == (j >= 1), (N, j)
            if got is not None:
                assert got == (N, packed, float(worst / (1 << F)))
            shortcut += not calls
            assert (not calls) == (worst + slack < eps_floor)
    assert shortcut


def test_close_decides_a_rational_worst_at_eps():
    # v = (1/4, sqrt2/100) at N = 1: the distance is exactly 1/4, from the
    # rational coordinate, and the irrational one lies far below it, so
    # _residual gives slack 0 and eps = 1/4 + 2**-F decides it
    v = JumpVector(q=1, mu=(1,), coords=(Scalar.rational(1, 4), Scalar.sqrt(2) / 100), M=1,
                   M0=1, mean_indices=(Scalar.rational(4),))
    dps = get_precision()
    F = fixed_bits(dps)
    assert _residual(v, 1, None, dps) == (1 << (F - 2), 0, F, 0)
    eps = Fraction(1, 4) + Fraction(1, 1 << F)
    assert _close(v, None, eps, int(eps * (1 << F)), dps, 1) == (1, 0, 0.25)
    assert _close(v, None, Fraction(1, 4), 1 << (F - 2), dps, 1) is None


def test_explicit_chi_gives_the_auto_solutions_of_its_vertex():
    # h = 5 with four rational coordinates (1/(M ihat) and both angles of
    # the second path, and phi / phi of the first): each vertex that auto
    # reports gives, as an explicit chi, exactly auto's N and residuals there
    v = build_jump_vector(MIXED_PATHS)
    assert v.h == 5 and sum(c.is_rational for c in v.coords) == 4
    delta = default_delta(MIXED_PATHS)
    eps = default_eps(MIXED_PATHS, v.M, delta)
    auto = search_N(v, "auto", eps=eps, N_max=10 ** 6, paths=MIXED_PATHS, delta=delta)
    assert len(auto.N) == 47
    by_vertex = {}
    for N, p, r in zip(auto.N, auto.chi, auto.residual):
        by_vertex.setdefault(p, []).append((N, r))
    for p, want in by_vertex.items():
        chi = tuple((p >> j) & 1 for j in range(v.h))
        got = search_N(v, chi, eps=eps, N_max=10 ** 6, paths=MIXED_PATHS, delta=delta)
        assert list(zip(got.N, got.residual)) == want and set(got.chi) == {p}


@pytest.mark.parametrize("value", ["0.25", "0.25" + "0" * 38 + "1", "0.24" + "9" * 39])
def test_residual_inside_the_guard_band_raises_mul_fracs_error(value):
    # an irrational-tagged 1/4 (or within 1e-40 of it) at N = 4: N x lies
    # within 1e-30 of an integer, on either side of it, so the residual read
    # must raise the PrecisionError of Scalar.mul_frac, text and all
    x = Scalar.irrational(value)
    v = JumpVector(q=1, mu=(1,), coords=(Scalar.rational(1, 2), x), M=1, M0=1,
                   mean_indices=(Scalar.rational(2),))
    dps = get_precision()
    F = fixed_bits(dps)
    with pytest.raises(PrecisionError) as ref:
        x.mul_frac(4, F)
    for bits in ((0, 0), (0, 1)):
        with pytest.raises(PrecisionError) as exc:
            _residual(v, 4, bits, dps)
        assert str(exc.value) == str(ref.value)
    # one step of N away the band is clear
    assert _residual(v, 5, (1, 1), dps)[1] == 5


def test_guard_tol_is_the_guard_band_of_the_floors():
    for F in (fixed_bits(30), fixed_bits(get_precision()), 1000):
        for m in (1, -7, 12345):
            for d in (1, 2, 3, 1000):
                assert guard_tol(F, m, d) == ((d << F) // 10 ** 30) + abs(m) + d + 2
            assert guard_tol(F, m) == guard_tol(F, m, 1)


# ----- stage-1 scan against the stepping loop ---------------------------------

def ref_survivors(first_step, n_steps, step_N, Xs, F, eps_int, explicit_bits):
    """The former stage-1 scan: step N through the chunk, keeping each
    residue N X mod 2**F up to date, and test every N exactly.  Yields
    (N, bits, distances) of the N within eps_int of a vertex."""
    mask = (1 << F) - 1
    modulus = 1 << F
    N0 = first_step * step_N
    rs = [(N0 * X) & mask for X in Xs]
    incs = [(step_N * X) & mask for X in Xs]
    N = N0
    h = len(Xs)
    for _ in range(n_steps):
        bits = 0
        ds = []
        ok = True
        for i in range(h):
            r = rs[i]
            if r < eps_int:
                side = 0
            elif modulus - r < eps_int:
                side = 1
            else:
                ok = False
                break
            if explicit_bits is not None and side != explicit_bits[i]:
                ok = False
                break
            bits |= side << i
            ds.append(modulus - r if side else r)
        if ok:
            yield N, bits, ds
        for i in range(h):
            rs[i] = (rs[i] + incs[i]) & mask
        N += step_N


def fake_close(v, bits, eps, eps_floor, dps, N):
    """A stand-in for _close: drops a third of the N."""
    return None if N % 3 == 0 else (N, N % 7, float(N % 5))


def scan_through(first_step, n_steps, *rest):
    """The steps of _scan_chunk over all n_steps steps, called again from
    where each call's n ends, as lists of Python ints; each call keeps at
    most 2 _CERTIFY_BATCH steps and gets at least one step further."""
    steps, done = [], 0
    while done < n_steps:
        got, n = _scan_chunk(first_step + done, n_steps - done, *rest)
        assert got.dtype == np.uint64 and len(got) <= 2 * jump._CERTIFY_BATCH
        assert 0 < n <= n_steps - done
        steps += [done + j for j in got.tolist()]
        done += n
    return steps


def assert_scan_reaches_the_survivors(chunk):
    """_scan_chunk(*chunk) gives steps j, a uint64 array, increasing, over
    all its steps, whose N = (first_step + j) step_N lie in the chunk and
    include every N that ref_survivors keeps within eps_int of a vertex.
    With chunks of 8 steps, so that a range of more than 8 steps takes a
    stride of at most 8 and pieces, or tests a chunk at a time, and with a
    cap of 2**16 or 4 steps per call, scan_through gives the same steps.
    Returns those N."""
    first_step, n_steps, step_N = chunk[:3]
    steps, n = _scan_chunk(*chunk)
    assert steps.dtype == np.uint64 and n == n_steps
    for batch in (1 << 15, 2):
        with mock.patch.multiple(jump, _CHUNK=8, _CERTIFY_BATCH=batch):
            assert scan_through(*chunk) == steps.tolist()
    seen = [(first_step + j) * step_N for j in steps.tolist()]
    assert all(a < b for a, b in zip(seen, seen[1:]))
    assert set(seen) <= set(range(first_step * step_N, (first_step + n_steps) * step_N, step_N))
    assert {N for N, _, _ in ref_survivors(*chunk, None)} <= set(seen)
    return seen


@st.composite
def scan_coords(draw, F):
    """X = floor(x 2**F) for x irrational-like, rational, integer-valued
    (X a multiple of 2**F, including X = 2**F), or within 2**-k of p/q."""
    one = 1 << F
    kind = draw(st.sampled_from(("irrational", "rational", "integer", "near rational")))
    if kind == "irrational":
        return draw(st.integers(0, one - 1))
    if kind == "integer":
        return draw(st.integers(0, 3)) * one
    q = draw(st.integers(1, 12))
    X = (draw(st.integers(0, 2 * q)) * one) // q
    if kind == "near rational":
        X += draw(st.integers(-one, one)) >> draw(st.integers(20, 60))
    return X


@st.composite
def scan_chunks(draw):
    F = fixed_bits(draw(st.sampled_from((30, 50, 300))))
    h = draw(st.integers(1, 16))
    Xs = [draw(scan_coords(F)) for _ in range(h)]
    step_N = draw(st.integers(1, 40))
    first_step = draw(st.one_of(
        st.integers(1, 10 ** 6),
        # N near 2**63, where the prefilter slack N_last is largest
        st.integers(-300, 0).map(lambda d: (1 << 63) // step_N + d),
        # N beyond 2**64: the window covers the whole circle
        st.integers(0, 10 ** 6).map(lambda d: (1 << 64) + d)))
    n_steps = draw(st.integers(1, 600))
    # eps = j 2**-k, up to 1/2 - 2**-40
    k = draw(st.integers(2, 40))
    eps = Fraction(draw(st.integers(1, 2 ** (k - 1) - 1)), 2 ** k)
    N_last = (first_step + n_steps - 1) * step_N
    eps_int = int(eps * (1 << F)) + draw(st.integers(2, N_last + 2))
    return first_step, n_steps, step_N, Xs, F, eps_int


@seed(20240811)
@settings(max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scan_chunks())
def test_scan_chunk_reaches_every_survivor_of_the_stepping_loop(chunk):
    assert_scan_reaches_the_survivors(chunk)


def window_hits_ref(start, inc, window, n_steps):
    """The steps j < n_steps with (start + j inc) mod 2**64 < window, by
    testing each one."""
    return [j for j in range(n_steps) if (start + j * inc) % (1 << 64) < window]


def convergents_ref(a):
    """(q, d) of the convergents p/q of a / 2**64, 0 <= a < 2**64, in order,
    d = q a - p 2**64, by their own recurrence: the loop _stride ran before
    it took scalars.convergents."""
    wrap = 1 << 64
    num, den = wrap, a
    p0, q0, p1, q1 = 1, 0, 0, 1
    while True:
        yield q1, q1 * a - p1 * wrap
        if not den:
            return
        c = num // den
        num, den = den, num - c * den
        p0, q0, p1, q1 = p1, q1, c * p1 + p0, c * q1 + q0


def stride_ref(inc, window, n_steps):
    """_stride's (q, d, length) on convergents_ref."""
    gap = (1 << 64) - window
    for q, d in convergents_ref(inc):
        if q > jump._CHUNK:
            break
        found = q, d, q * (gap // abs(d) + 1) if d else n_steps
        if found[2] >= n_steps:
            break
    return found


@st.composite
def window_hit_cases(draw):
    """start, inc, window and n_steps for _window_hits, at the edges: inc 0,
    1, 2**63, 2**64 - 1, near 2**64 / 3 (a huge partial quotient) or near
    p 2**64 / q; a window of a few units, or within a few units of 2**64;
    n_steps 1; starts past 2**63."""
    wrap = 1 << 64
    inc = draw(st.one_of(
        st.integers(0, wrap - 1), st.sampled_from((0, 1, 2, 1 << 63, wrap - 1)),
        st.integers(-4, 4).map(lambda d: wrap // 3 + d),
        st.tuples(st.integers(1, 40), st.integers(0, 39), st.integers(-1 << 30, 1 << 30)).map(
            lambda t: (t[1] % t[0] * wrap // t[0] + t[2]) % wrap),
        st.integers(0, 63).map(lambda k: (1 << k) - 1)))
    start = draw(st.one_of(st.integers(0, wrap - 1), st.integers(1 << 63, wrap - 1),
                           st.sampled_from((0, wrap - 1, 1 << 63))))
    window = draw(st.one_of(st.integers(1, wrap - 1), st.integers(1, 4),
                            st.integers(wrap - 4, wrap - 1), st.integers(0, 63).map(lambda k: 1 << k)))
    n_steps = draw(st.one_of(st.just(1), st.integers(1, 3000)))
    return start, inc, window, n_steps


def window_hits_through(start, inc, window, n_steps, cap):
    """The steps of _window_hits over all n_steps steps, called again from
    where each call's n ends, as a list of Python ints; each call gives at
    most cap steps, increasing, and gets at least one step further."""
    steps, done = [], 0
    while done < n_steps:
        got, n = _window_hits((start + done * inc) % (1 << 64), inc, window, n_steps - done, cap)
        assert got.dtype == np.uint64 and len(got) <= cap and 0 < n <= n_steps - done
        assert np.all(got[1:] > got[:-1]) and (not len(got) or got[-1] < n)
        steps += [done + j for j in got.tolist()]
        done += n
    return steps


@seed(20240811)
@settings(max_examples=600, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(window_hit_cases(), st.sampled_from((1 << 15, 64, 7)), st.sampled_from((1 << 62, 300, 20, 5)))
# a second piece cut at the room the first one left, and q = 2 classes both
# in the window, whose hits interleave
@example((8356352752729052758, 11297753893155662659, 13938115850328320577, 327), 7, 20)
@example((9276255585004361513, 1 << 63, (1 << 64) - 4, 260), 7, 5)
def test_window_hits_lists_the_steps_in_the_window(case, chunk, cap):
    # the class intervals of a convergent's stride, at _CHUNK and at chunks
    # of 64 and 7 steps, which cap the stride, so that long ranges take
    # pieces or test a chunk at a time, and with at most 5 or 300 hits a
    # call, so that pieces are shortened: exactly the steps the direct filter
    # keeps.  A range of at most _CHUNK steps is done in one call when its
    # hits fit.  The stride is that of the reference convergent loop
    want = window_hits_ref(*case)
    with mock.patch.object(jump, "_CHUNK", chunk):
        assert _stride(*case[1:]) == stride_ref(*case[1:])
        assert window_hits_through(*case, cap) == want
        if case[3] <= chunk and len(want) <= cap:
            assert _window_hits(*case, cap)[1] == case[3]


def test_window_hits_on_long_ranges():
    # against the numpy filter, at 2**15 steps and more: golden-ratio incs,
    # whose stride is about sqrt(n_steps); an inc near 2**44, whose first
    # convergent past q = 1 has q near 2**20, so the steps come in pieces;
    # an inc so small that q = 1 holds them all; a window of nearly the
    # whole circle, where a chunk at a time is tested; inc 0 and 2**64 / 3,
    # the increments of an integer and of a rational coordinate, whose hits
    # are all or a third of the steps, listed at most 2**16 a call
    wrap = 1 << 64
    phi = 0x9E3779B97F4A7C15
    for start, inc, window, n_steps in ((12345, phi, wrap // 300, 3_000_000),
                                        (wrap - 7, wrap - phi, wrap // 7, 100_000),
                                        (1 << 63, (1 << 44) + 12345, wrap // 2, 1 << 21),
                                        (5, 3 << 40, wrap // 1000, 1 << 20),
                                        (0, phi, wrap - 5, 70_000),
                                        (7, 0, wrap // 1000, 1_000_000),
                                        (wrap - 3, wrap // 3, wrap // 1000, 1_000_000)):
        j = np.arange(n_steps, dtype=np.uint64)
        want = j[j * np.uint64(inc) + np.uint64(start) < np.uint64(window)]
        assert window_hits_through(start, inc, window, n_steps, 1 << 16) == want.tolist()


def test_scan_chunk_at_the_eps_boundary():
    # X with its low F - 64 bits zero makes the prefilter's top bits exact,
    # so the residue r sits exactly at the edge of the window: an N with r
    # just inside eps_int of 0 or 2**F reaches close
    F = fixed_bits(50)
    one = 1 << F
    for Xh in (3, 0x9E3779B97F4A7C15, (1 << 64) - 5):
        X = Xh << (F - 64)
        for N in (1, 7, 12345):
            r = (N * X) % one
            for eps_int in (r + 1, r, one - r + 1, one - r):
                if 2 <= eps_int <= one // 2:
                    seen = assert_scan_reaches_the_survivors((1, 1, N, [X], F, eps_int))
                    assert seen == [N] or min(r, one - r) >= eps_int, (Xh, N, eps_int)


# ----- stage 1 on 128-bit windows against _close ------------------------------

def test_to_float_rounds_as_python_float():
    # random 128-bit values, and halfway cases between two floats (53-bit
    # mantissas m and m + 1 at 2**e) with their neighbours, at every shift
    # _to_float takes
    rng = random.Random(20240811)
    xs = [rng.getrandbits(rng.randint(1, 128)) for _ in range(4000)]
    xs += [0, 1, (1 << 64) - 1, 1 << 64, (1 << 64) + 1, 1 << 127, (1 << 128) - 1]
    for e in range(1, 76, 3):
        half = (2 * (rng.getrandbits(52) | 1 << 52) + 1) << (e - 1)
        xs += [half - 1, half, half + 1]
    words = (np.array([x >> 64 for x in xs], np.uint64),
             np.array([x & ((1 << 64) - 1) for x in xs], np.uint64))
    assert jump._to_float(words).tolist() == [x / (1 << 128) for x in xs]


def dyadic(X, F):
    """The irrational-tagged X / 2**F, exactly: its read at F is X."""
    with mp.workprec(F + 64):
        x = Scalar.irrational(mp.mpf(X) / (1 << F))
    assert x._fixed(F)[0] == X
    return x


def set_coordinate(T, N, F):
    """An irrational coordinate x with N X mod 2**F in [T, T + N), X its read."""
    return dyadic(-(-(T % (1 << F)) // N), F)


def close_of_survivors(v, bits, eps, N_max, dps):
    """[_close(N) for N in the prefilter survivors] where not None, or the
    PrecisionError of the first one that raises, for N_max / M0 within one
    scan chunk."""
    F = fixed_bits(dps)
    eps_floor = int(eps * (1 << F))
    steps = _scan_chunk(1, N_max // v.M0, v.M0, [_scaled_coord(c, F) for c in v.coords], F,
                        eps_floor + N_max + 2)[0].tolist()
    return raised_or(lambda: [c for j in steps if (
        c := _close(v, bits, eps, eps_floor, dps, (1 + j) * v.M0)) is not None])


@st.composite
def window_cases(draw):
    """A jump vector of h = 1 to 6 coordinates, chi auto or explicit, eps
    and N_max, with N up to 7 * 150, or near 2**50, or across 2**64.  A
    coordinate is a quadratic irrational, a rational p/q with q up to 12,
    near 2**32 or near 2**63 / N_max, or set at a target N* to a read
    N* X mod 2**F within three carries N* 2**(F - 128) of eps 2**F, of the
    guard band, of a float rounding boundary below eps, of 2**(F - 1), or
    of a residue below eps 2**F, on either side of 0."""
    F = fixed_bits(get_precision())
    steps = draw(st.integers(1, 150))
    M0 = draw(st.one_of(st.integers(1, 7), st.integers(2 ** 50 // steps, 2 ** 51 // steps),
                        st.integers(-9, 9).map(lambda d: 2 ** 64 // steps + d)))
    N_max = M0 * steps
    Nt = M0 * draw(st.integers(1, steps))
    carry = Nt << (F - 128)
    eps = Fraction(draw(st.integers(1, 2 ** 14 - 1)), 2 ** 15)
    coords = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("quadratic", "rational", "set", "set", "set")))
        if kind == "quadratic":
            coords.append(draw(quadratic_angles()))
        elif kind == "rational":
            q = draw(st.one_of(st.integers(1, 12), st.integers(-3, 3).map(lambda d: 2 ** 32 + d),
                               st.integers(-3, 3).map(lambda d: max(1, 2 ** 63 // N_max + d))))
            coords.append(Scalar.from_fraction(Fraction(draw(st.integers(0, 2 * q)), q)))
        else:
            at = draw(st.sampled_from(("eps", "band", "round", "half", "below")))
            if at == "eps":
                T = int(eps * (1 << F))
            elif at == "band":
                T = guard_tol(F, Nt)
            elif at == "round":
                f = float(eps) * draw(st.floats(0.001, 1))
                T = int((Fraction(f) + Fraction(np.nextafter(f, 1.0))) / 2 * (1 << F))
            elif at == "half":
                T = 1 << (F - 1)
            else:
                T = draw(st.integers(0, int(eps * (1 << F))))
            T += draw(st.integers(-3 * carry, 3 * carry))
            coords.append(set_coordinate(T if draw(st.booleans()) else -T, Nt, F))
    v = JumpVector(q=1, mu=(len(coords) - 1,), coords=tuple(coords), M=1, M0=M0,
                   mean_indices=(Scalar.rational(1),))
    near = tuple(int(exact_frac(c, Nt) > Fraction(1, 2)) for c in coords)
    bits = draw(st.sampled_from((None, near, tuple(1 - b for b in near))))
    return v, bits, eps, N_max


@seed(20240811)
@settings(max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(window_cases())
def test_windows_decide_as_close(case):
    # the batch decision is _close's on every prefilter survivor, residual
    # bits and PrecisionError text included, whether _windows or _close
    # decides it
    v, bits, eps, N_max = case
    dps = get_precision()
    assert raised_or(lambda: rows(_stage1(v, bits, eps, N_max, dps))) == close_of_survivors(
        v, bits, eps, N_max, dps)


def test_windows_leave_the_boundaries_to_close():
    # one set coordinate at N* = 1000 with its read at a boundary: eps, the
    # guard band, a rounding boundary of the residual and 1/2, on either
    # side of 0, beside x = 1/16000 at distance 1/16, which outweighs a
    # distance at the band: its residual needs more bits than a window
    # holds.  _windows leaves N* to _close there, and inside the band; four
    # carries away it decides N* as _close does
    dps = get_precision()
    F = fixed_bits(dps)
    Nt, eps, f = 1000, Fraction(3, 16), 0.1
    carry = Nt << (F - 128)
    mid = (Fraction(f) + Fraction(np.nextafter(f, 1.0))) / 2
    for at, T0 in (("eps", int(eps * (1 << F))), ("band", guard_tol(F, Nt)),
                   ("round", int(mid * (1 << F))), ("half", 1 << (F - 1))):
        for sign in (1, -1):
            for off in (0, 4 * carry, -4 * carry):
                v = JumpVector(q=1, mu=(1,), coords=(set_coordinate(sign * (T0 + off), Nt, F),
                                                     Scalar.rational(1, 16000)),
                               M=1, M0=Nt, mean_indices=(Scalar.rational(1),))
                close, packed, residual, undecided = jump._windows(
                    v, None, eps, np.array([Nt], np.uint64), F)
                assert undecided[0] == (off == 0 or (at, off) == ("band", -4 * carry)), (at, off)
                want = raised_or(lambda: _close(v, None, eps, int(eps * (1 << F)), dps, Nt))
                if not undecided[0]:
                    assert want == ((Nt, int(packed[0]), float(residual[0])) if close[0] else None)
                if at != "half":   # a survivor of the prefilter
                    assert raised_or(lambda: rows(_stage1(v, None, eps, Nt, dps))) == (
                        want if isinstance(want, tuple) and want[0] is PrecisionError
                        else [want] if want else [])
    # reads next to eps 2**F = E, an integer: at N = 1 the carry is 0 and the
    # slack 1, so _close raises at E - 1 and E and decides one unit further
    # out, and stage 1 gives its decision
    E = int(eps * (1 << F))
    for r in range(E - 3, E + 4):
        v = JumpVector(q=1, mu=(0,), coords=(dyadic(r, F),), M=1, M0=1,
                       mean_indices=(Scalar.rational(1),))
        got = raised_or(lambda: rows(_stage1(v, None, eps, 1, dps)))
        assert got == close_of_survivors(v, None, eps, 1, dps)
        assert (got[0] is PrecisionError if got else False) == (r in (E - 1, E)), r


def test_stage1_hands_each_undecided_survivor_to_close(monkeypatch):
    # _windows patched to leave every other survivor undecided, and _close
    # replaced by fake_close: _stage1 calls it on exactly those survivors,
    # in increasing N, and merges its results, where not None, with the
    # window decisions in N order
    data = rot_data(PHI)
    v = build_jump_vector([data])
    eps = Fraction(default_eps([data], v.M, default_delta([data])))
    dps, N_max = get_precision(), 20000
    F = fixed_bits(dps)
    steps, _ = _scan_chunk(1, N_max // v.M0, v.M0, [_scaled_coord(c, F) for c in v.coords], F,
                           int(eps * (1 << F)) + N_max + 2)
    survivors = [(1 + j) * v.M0 for j in steps.tolist()]
    by_N = {c[0]: c for c in rows(_stage1(v, None, eps, N_max, dps))}
    windows = jump._windows
    calls = []

    def every_other(*args):
        close, packed, residual, undecided = windows(*args)
        undecided[::2] = True
        return close, packed, residual, undecided

    monkeypatch.setattr(jump, "_windows", every_other)
    monkeypatch.setattr(jump, "_close", lambda *a: calls.append(a[-1]) or fake_close(*a))
    got = rows(_stage1(v, None, eps, N_max, dps))
    assert len(survivors) > 100 and calls == survivors[::2]
    assert got == [c for i, N in enumerate(survivors) if (
        c := fake_close(v, None, eps, 0, dps, N) if i % 2 == 0 else by_N.get(N)) is not None]


def floor_sum(n, m, a, b):
    """The sum of floor((a i + b) / m) over 0 <= i < n, for ints a and b
    and m > 0, by the Euclid-like recursion of Graham, Knuth and Patashnik,
    Concrete Mathematics, ch. 3: O(log m) steps."""
    total = 0
    while n:
        total += n * (n - 1) // 2 * (a // m) + n * (b // m)
        a, b = a % m, b % m
        top = a * n + b
        if top < m:
            break
        n, b, m, a = top // m, top % m, a, m
    return total


def count_near_integers(X, F, eps, N_max):
    """The number of N in [1, N_max] with ||N X / 2**F|| < eps, eps a
    Fraction: the integers k with |N X / 2**F - k| < eps, summed as
    floor((N X q + e - 1) / D) - floor((N X q - e) / D) for eps = p / q,
    e = p 2**F and D = q 2**F."""
    p, q = eps.numerator, eps.denominator
    D, e, A = q << F, p << F, X * q
    return floor_sum(N_max, D, A, A + e - 1) - floor_sum(N_max, D, A, A - e)


def test_floor_sum_counts_as_the_loop():
    rng = random.Random(20240811)
    for _ in range(300):
        n, m = rng.randint(0, 60), rng.randint(1, 50)
        a, b = rng.randint(-200, 200), rng.randint(-200, 200)
        assert floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))
    F = 20
    for _ in range(100):
        X, N_max = rng.randint(0, 1 << F), rng.randint(1, 300)
        eps = Fraction(rng.randint(1, 499), 1000)
        assert count_near_integers(X, F, eps, N_max) == sum(
            min(N * X % (1 << F), -N * X % (1 << F)) < eps * (1 << F) for N in range(1, N_max + 1))


def test_golden_search_finds_every_close_N():
    # completeness, counted apart from the scan: the golden vector is
    # (1/phi, 1), so the close candidates up to N_max are the N with
    # ||N X / 2**F|| < eps for the read X of 1/phi.  The floor sums count
    # them exactly; a read within N_max 2**-F of +-eps would leave the count
    # undecided, and fails the test
    data = rot_data(PHI)
    v = build_jump_vector([data])
    assert v.M0 == 1 and v.coords[1].is_rational and v.coords[1].fraction == 1
    delta = default_delta([data])
    eps, N_max = default_eps([data], v.M, delta), 10 ** 6
    F = fixed_bits(get_precision())
    X = v.coords[0]._fixed(F)[0]
    band = Fraction(N_max, 1 << F)
    low, high = (count_near_integers(X, F, Fraction(eps) + d, N_max) for d in (-band, band))
    assert low == high, "a read N X / 2**F lies within N_max 2**-F of eps: undecided"
    res = search_N(v, "auto", eps=eps, N_max=N_max, paths=[data], delta=delta)
    assert sum(res.gates.values()) == low == 38628


ROUTE_CASES = {
    # the golden search of CI at N_max 1e6, and the one-path goldens of
    # test_one_path_golden_bytes
    "golden": ([rot_data(PHI)], 10 ** 6),
    "golden_q_zero": ([PathIndexData(NormalFormDecomposition(
        n=2, q_zero=1, thetas=(PHI - 1,)), i1=3)], 300000),
    "sqrt2_q_plus": ([PathIndexData(NormalFormDecomposition(
        n=3, q_plus=1, alphas=(Scalar.sqrt(2) - 1,)), i1=4)], 300000),
    "two_fifths_p_minus": ([PathIndexData(NormalFormDecomposition(
        n=3, p_minus=1, alphas=(Scalar.rational(2, 5),)), i1=5)], 300000),
}


@pytest.mark.parametrize("name", list(ROUTE_CASES))
def test_every_survivor_through_close_gives_the_same_search(name, monkeypatch):
    paths, N_max = ROUTE_CASES[name]
    v = build_jump_vector(paths)
    delta = default_delta(paths)
    eps = default_eps(paths, v.M, delta)
    windowed = search_N(v, "auto", eps=eps, N_max=N_max, paths=paths, delta=delta)
    calls = []

    def undecided(v, bits, eps, N, F):
        calls.append(len(N))
        return np.zeros(len(N), bool), np.zeros(len(N), np.uint64), np.zeros(len(N)), np.ones(
            len(N), bool)

    monkeypatch.setattr(jump, "_windows", undecided)
    exact = search_N(v, "auto", eps=eps, N_max=N_max, paths=paths, delta=delta)
    assert sum(calls) >= sum(exact.gates.values()) > 0
    for col in ("N", "chi", "m", "delta", "residual", "gates", "params"):
        assert getattr(exact, col) == getattr(windowed, col), col


@pytest.fixture(scope="module")
def sqrt2_pair_paths():
    spec = EllipsoidSpec(alphas=("1", "sqrt2"), mode="convex")
    return [orbit_data(spec, i)[0] for i in (1, 2)]


def test_jump_search_json_identical_across_workers(sqrt2_pair_paths, tmp_path):
    fixtures = {"golden": [rot_data(PHI, i1=1)], "sqrt2": sqrt2_pair_paths}
    for name, paths in fixtures.items():
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps([p.to_json() for p in paths]))
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"{name}-{workers}.json"
            assert cli.main(["jump-search", "--paths", str(f), "--n-max", "100000",
                             "--workers", workers, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert_same_text(outs[0], outs[1])
        assert json.loads(outs[0])["search"]["solutions"]


# ----- batched certification against the per-candidate loop -------------------

def ref_closeness(v, N, bits, eps, dps):
    """The former closeness gate: (close, residual) from _residual at dps
    digits; PrecisionError when eps lies within its slack."""
    worst, slack, F, _ = _residual(v, N, bits, dps)
    close = _closer_than(worst, slack, F, eps)
    if close is None:  # eps lies within the truncation slack
        raise PrecisionError(f"residual at N = {N} is within {slack} * 2**-{F} of eps")
    return close, float(worst / (1 << F))


def stored_residual(v, N, bits):
    """The max-norm distance of {N v} from the vertex bits on the stored
    values, exactly: each irrational is a dyadic rational."""
    worst = 0
    for c, b in zip(v.coords, bits):
        f = exact_frac(c, N)
        worst = max(worst, 1 - f if b else f)
    return worst


def ref_certify(v, candidates, paths, eps, delta):
    """The former certification loop of search_N: the exact gates of one
    candidate after another, closeness included.  Returns the solutions and
    the number of candidates each gate stopped or certified."""
    dps = get_precision()
    solutions = []
    gates = Counter()
    for N, bits_packed, _ in candidates:
        bits = tuple((bits_packed >> i) & 1 for i in range(v.h))
        close, res = ref_closeness(v, N, bits, Fraction(eps), dps)
        if not close:
            gates["closeness"] += 1
            continue
        # (b) rational mean indices demand exact divisibility of N
        ok = True
        for k, mi in enumerate(v.mean_indices):
            if mi.is_rational:
                ratio = Fraction(N) / (v.M * mi.fraction)
                if ratio.denominator != 1:
                    ok = False
                    break
        if not ok:
            gates["divisibility"] += 1
            continue
        try:
            ms = tuple(compute_m(N, paths[k], bits[k], v.M) for k in range(v.q))
        except JumpError:
            gates["m_nonpositive"] += 1
            continue
        # (d) angle conditions
        if not all(_condition_339a_340(paths[k], ms[k], delta, dps) for k in range(v.q)):
            gates["angle"] += 1
            continue
        # (c) the identity gate, exact integers
        deltas = tuple(delta_k(paths[k], ms[k], delta) for k in range(v.q))
        if any(I_value(paths[k], ms[k]) != N + deltas[k] for k in range(v.q)):
            gates["identity"] += 1
            continue
        gates["certified"] += 1
        solutions.append(JumpSolution(N=N, m=ms, chi=bits, delta=deltas,
                                      residual=res, delta_threshold=delta))
    return solutions, gates


def assert_certify_matches(v, cands, paths, eps, delta):
    """_certify's solutions, in the order it gives them, and its gate counts
    are those of ref_certify, and the counts cover every candidate; returns
    ref_certify's counts."""
    ref_sol, ref_gates = ref_certify(v, cands, paths, eps, delta)
    res = certify(v, cands, paths, delta)
    gates = res.gates
    assert list(res.solutions) == ref_sol
    assert tuple(gates) == _GATES
    assert Counter(gates) == ref_gates and sum(gates.values()) == len(cands)
    return ref_gates


def rows(batches):
    """The candidates of _stage1's batches as (N, packed, residual) tuples
    of Python numbers."""
    return [row for N, p, r in batches for row in zip(N.tolist(), p.tolist(), r.tolist())]


def columns(v, cands):
    """The (N, packed, residual) tuples cands as the arrays _stage1 yields."""
    N, packed, residual = (list(c) for c in zip(*cands)) if cands else ([], [], [])
    return (np.array(N, np.uint64 if all(n < 1 << 64 for n in N) else object),
            np.array(packed, np.uint64 if v.h <= 64 else object), np.array(residual, float))


def certify(v, cands, paths, delta):
    """_certify of the candidate tuples cands."""
    return _certify(v, *columns(v, cands), paths, delta, get_precision())


def stage1(v, chi, eps, N_max):
    """The close stage-1 candidates of search_N."""
    explicit = None if chi == "auto" else tuple(chi)
    return rows(_stage1(v, explicit, Fraction(eps), N_max, get_precision()))


def batch_codes(v, paths, candidates, delta):
    """_batch_gates of the candidates (N, bits, ...), on the chi bits of m_k."""
    F = fixed_bits(get_precision())
    recs = [(path_record(p), p) for p in paths]
    N = np.array([c[0] for c in candidates], np.uint64)
    packed = np.array([c[1] & ((1 << v.q) - 1) for c in candidates], np.uint64)
    return _batch_gates(v, recs, N, packed, Fraction(delta), F)


ALPHA = Scalar.sqrt(5) * Fraction(1, 3)
CERTIFY_FIXTURES = {
    # name: (paths, chi, eps, delta, N_max, gates the candidates must reach)
    "golden": ([rot_data(PHI)], "auto", None, None, 20000, {"certified"}),
    "golden explicit chi": ([rot_data(PHI)], (1, 0), None, None, 20000, {"certified"}),
    "loose golden": ([rot_data(PHI)], "auto", 0.45, Fraction(49, 100), 3000,
                     {"angle", "identity", "certified"}),
    "m_k <= 0": ([rot_data(PHI, i1=9)], "auto", 0.3, Fraction(3, 8), 400,
                 {"m_nonpositive", "angle"}),
    "rational mean": ([rot_data(HALF, i1=3)], "auto", 0.3, Fraction(1, 8), 500,
                      {"divisibility", "certified"}),
    # v = (1/4, 1/4), M0 = 3: stage 1 drops N = 3, 9 (mod 12), exactly eps
    # from a vertex (test_stage1_drops_a_residual_equal_to_eps)
    "rational mean, residual equal to eps": ([rot_data(Scalar.rational(1, 3), i1=2)], "auto",
                                             0.25, Fraction(1, 8), 500, {"certified"}),
    "rational mean, integer coordinates": ([rot_data(HALF, i1=1)], "auto", None, None, 500,
                                           {"certified"}),
    "-I2 block and N2 pair": ([PathIndexData(NormalFormDecomposition(
        n=4, q_zero=1, thetas=(Scalar.sqrt(2) * HALF,), alphas=(ALPHA,)), i1=4)],
        "auto", 0.3, Fraction(3, 8), 5000, {"angle", "identity", "certified"}),
    "two paths, rational angle": ([
        PathIndexData(NormalFormDecomposition(n=2, thetas=(HALF, Scalar.sqrt(3) * HALF)), i1=2),
        rot_data(Scalar.sqrt(2) * Fraction(5, 7), i1=3)], "auto", 0.3, Fraction(3, 8), 20000,
        {"angle", "identity", "certified"}),
    # h = 66 chi bits, of which the batch reads the q = 1 of m_k
    "h = 66": ([PathIndexData(NormalFormDecomposition(
        n=65, thetas=(HALF,) * 64 + (Scalar.sqrt(2) * HALF,)), i1=65)],
        "auto", 0.3, Fraction(3, 8), 2000, {"m_nonpositive", "angle", "identity", "certified"}),
}


@pytest.mark.parametrize("name", sorted(CERTIFY_FIXTURES))
def test_certify_matches_the_candidate_loop(name):
    paths, chi, eps, delta, N_max, reached = CERTIFY_FIXTURES[name]
    v = build_jump_vector(paths)
    delta = default_delta(paths) if delta is None else delta
    eps = default_eps(paths, v.M, delta) if eps is None else eps
    cands = stage1(v, chi, eps, N_max)
    gates = assert_certify_matches(v, cands, paths, eps, delta)
    assert reached <= set(gates)
    # every gate decided on the top bits: nothing went to the exact gates
    code = batch_codes(v, paths, cands, delta)[0]
    assert not (code == _EXACT).any()
    # and search_N is that certification after the stage-1 scan
    res = search_N(v, chi, eps=eps, N_max=N_max, paths=paths, delta=delta)
    assert list(res.solutions) == ref_certify(v, cands, paths, eps, delta)[0]
    assert Counter(res.gates) == gates


def test_stage1_drops_a_residual_equal_to_eps():
    # v = (1/4, 1/4), M0 = 3, eps = 1/4: the N = 3, 9 (mod 12) exactly eps
    # from a vertex survive the far test and are dropped as not close
    paths, chi, eps, _, N_max, _ = CERTIFY_FIXTURES["rational mean, residual equal to eps"]
    v = build_jump_vector(paths)
    assert [c.fraction for c in v.coords] == [Fraction(1, 4)] * 2 and v.M0 == 3
    F = fixed_bits(get_precision())
    Xs = [_scaled_coord(c, F) for c in v.coords]
    eps_int = int(Fraction(eps) * (1 << F)) + N_max + 2
    survivors = [N for N, _, _ in ref_survivors(1, N_max // 3, 3, Xs, F, eps_int, None)]
    assert {N % 12 for N in survivors} == {0, 3, 9}
    assert [N for N, _, _ in stage1(v, chi, eps, N_max)] == list(range(12, N_max + 1, 12))


def ref_stage1(v, explicit, eps, N_max, dps):
    """Stage 1 by the stepping loop and the former closeness gate."""
    F = fixed_bits(dps)
    Xs = [_scaled_coord(c, F) for c in v.coords]
    eps_int = int(eps * (1 << F)) + N_max + 2
    out = []
    for N, b, _ in ref_survivors(1, N_max // v.M0, v.M0, Xs, F, eps_int, explicit):
        close, res = ref_closeness(v, N, tuple((b >> i) & 1 for i in range(v.h)), eps, dps)
        if close:
            out.append((N, b, res))
    return out


def raised_or(fn):
    """fn(), or the PrecisionError it raised."""
    try:
        return fn()
    except PrecisionError as exc:
        return PrecisionError, str(exc)


@st.composite
def stage1_cases(draw):
    """A jump vector, N_max, chi auto or explicit, and eps loose, equal to
    the residual of one N at dps digits or on the stored values, or within
    a few N_max units of 2**-F of it."""
    data = draw(path_data())
    v = build_jump_vector([data], M=draw(st.integers(1, 6)))
    N_max = draw(st.integers(v.M0, 2000))
    N = v.M0 * draw(st.integers(1, N_max // v.M0))
    bits = tuple(int(exact_frac(c, N) > Fraction(1, 2)) for c in v.coords)   # nearest vertex
    explicit = draw(st.sampled_from((None, bits, tuple(1 - b for b in bits))))
    kind = draw(st.sampled_from(("loose", "at dps", "stored", "next to")))
    dps = get_precision()
    if kind == "loose":
        eps = Fraction(draw(st.integers(1, 2 ** 10 - 1)), 2 ** 13)
    elif kind == "stored":
        eps = stored_residual(v, N, bits)
    else:
        worst, _, F, _ = _residual(v, N, bits, dps)
        eps = Fraction(worst) / (1 << F)
        if kind == "next to":
            eps += Fraction(draw(st.integers(-3 * N_max, 3 * N_max)), 1 << F)
    assume(0 < eps < Fraction(1, 2))
    return v, explicit, eps, N_max


@seed(20240811)
@PROPERTY
@given(stage1_cases())
def test_stage1_matches_the_stepping_loop_and_the_exact_gate(case):
    # the close candidates, each with the residual of the precision that
    # decided it (the working one for the candidates stage 1 finds close),
    # or the PrecisionError of the first undecided one.  With chunks of 64
    # steps and batches of 16, a range of more than 64 steps is cut into
    # segments whose first-coordinate window hits are listed, not tested
    v, explicit, eps, N_max = case
    dps = get_precision()
    want = raised_or(lambda: ref_stage1(v, explicit, eps, N_max, dps))
    assert raised_or(lambda: rows(_stage1(v, explicit, eps, N_max, dps))) == want
    with mock.patch.multiple(jump, _CHUNK=64, _CERTIFY_BATCH=16):
        assert raised_or(lambda: rows(_stage1(v, explicit, eps, N_max, dps))) == want


@pytest.mark.parametrize("data", [rot_data(HALF), rot_data(Scalar.rational(1, 3), i1=3)],
                         ids=["integer", "1/7"])
def test_a_segment_lists_at_most_twice_a_batch(data, monkeypatch):
    # a rational mean index makes the first coordinate 1/(M ihat) an
    # integer (ihat = 1/2) or 1/7 (ihat = 7/3), which hits the window at
    # every step or every seventh whatever eps is.  With eps 1e-9, chunks of
    # 64 steps and batches of 16, the whole range is one planned segment
    # (about 8e9 steps expect 16 hits), yet each _scan_chunk call keeps at
    # most 32 steps, and the candidates are the stepping loop's
    v = build_jump_vector([data])
    eps, dps, N_max = Fraction(1, 10 ** 9), get_precision(), 30_000
    scan, kept = jump._scan_chunk, []

    def recording(*args):
        steps, n = scan(*args)
        kept.append(len(steps))
        return steps, n

    monkeypatch.setattr(jump, "_scan_chunk", recording)
    with mock.patch.multiple(jump, _CHUNK=64, _CERTIFY_BATCH=16):
        got = rows(_stage1(v, None, eps, N_max, dps))
    assert got == ref_stage1(v, None, eps, N_max, dps)
    assert len(got) >= (N_max // v.M0) // 7 and max(kept) <= 32 and len(kept) >= len(got) // 32


@pytest.mark.parametrize("q_of_F", [lambda F: 7, lambda F: (1 << F) + 1, lambda F: 3 * (1 << F) + 7,
                                    lambda F: (1 << (F + 5)) + 3],
                         ids=["7", "2**F + 1", "3 * 2**F + 7", "2**(F + 5) + 3"])
def test_stage1_reads_a_rational_coordinate_of_any_denominator(q_of_F):
    # x = 1 - 1/q reads as ceil(x 2**F), which is 2**F once q > 2**F, though
    # N x lies N/q below an integer: the prefilter still keeps every N that
    # _close accepts, whatever q is
    dps = get_precision()
    F = fixed_bits(dps)
    q = q_of_F(F)
    v = JumpVector(q=1, mu=(1,), coords=(HALF, Scalar.from_fraction(Fraction(q - 1, q))),
                   M=1, M0=1, mean_indices=(Scalar.rational(2),))
    eps = Fraction(1, 4)
    want = [c for N in range(1, 41)
            if (c := _close(v, None, eps, int(eps * (1 << F)), dps, N)) is not None]
    assert want and rows(_stage1(v, None, eps, 40, dps)) == want


def test_integer_rational_coordinates_are_on_vertex_0():
    # ihat = 5/2 and v = (1/5, 1/5): N = 10 j puts N v on integers, which
    # stage 1 must read as vertex 0, at distance 0 from it
    data = rot_data(HALF, i1=3)
    v = build_jump_vector([data])
    res = search_N(v, "auto", eps=0.3, N_max=500, paths=[data], delta=Fraction(1, 8))
    assert [s.N for s in res.solutions] == list(range(10, 501, 10))
    assert all(s.chi == (0, 0) and s.residual == 0.0 for s in res.solutions)
    assert res.solutions[0].m == (4,)


LIMIT_THETAS = [PHI, Scalar.sqrt(2) * Fraction(1, 100)]
LIMIT_EPS, LIMIT_DELTA = 0.45, Fraction(49, 100)


def limit_candidates(theta):
    """The rotation by theta, its jump vector, the batch limit L and the
    close candidates of the N within 40 of L, at their nearest vertex."""
    data = rot_data(theta)
    v = build_jump_vector([data])
    L = _batch_limit(v, [(path_record(data), data)], fixed_bits(get_precision()))
    eps = Fraction(LIMIT_EPS)
    eps_floor = int(eps * (1 << fixed_bits(get_precision())))
    cands = [c for N in range(L - 40, L + 40)
             if (c := _close(v, None, eps, eps_floor, get_precision(), N)) is not None]
    return data, v, L, cands


@pytest.mark.parametrize("theta", LIMIT_THETAS)
def test_candidates_past_the_batch_limit_take_the_exact_gates(theta):
    # ihat = phi > 1, and ihat = sqrt(2)/100, where m_k is about 70 N
    data, v, L, cands = limit_candidates(theta)
    paths = [data]
    eps, delta = LIMIT_EPS, LIMIT_DELTA
    assert 0 < L <= 1 << 50
    assert sum(N < L for N, _, _ in cands) >= 10 and sum(N >= L for N, _, _ in cands) >= 10
    assert (batch_codes(v, paths, [c for c in cands if c[0] < L], delta)[0] != _EXACT).any()
    # just below the limit, m_k and I(k, m_k) are inside the proven ranges
    assert compute_m(L - 1, data, 1, v.M) < 1 << 50
    assert I_value(data, compute_m(L - 1, data, 1, v.M)) < 1 << 63
    gates = assert_certify_matches(v, cands, paths, eps, delta)
    assert {"angle", "certified"} & set(gates)


@pytest.mark.parametrize("theta", LIMIT_THETAS)
def test_exact_solutions_merge_in_by_N(theta, monkeypatch):
    # every other candidate is sent to the exact gates, which decide it as
    # the batch would: the exact solutions, below the limit and past it,
    # interleave with the batch ones, and the columns still come out in
    # increasing N, as Python ints (test_out_of_range_constants_take_the_exact_gates
    # has m_k past the int64 range)
    data, v, L, cands = limit_candidates(theta)
    batch_gates, certify_exact = jump._batch_gates, jump._certify_exact
    exact_N = []

    def every_other_exact(*args):
        code, ms, deltas = batch_gates(*args)
        code[::2] = _EXACT
        return code, ms, deltas

    def record(v, paths, N, *args):
        code, out = certify_exact(v, paths, N, *args)
        if out is not None:
            exact_N.append(N)
        return code, out

    monkeypatch.setattr(jump, "_batch_gates", every_other_exact)
    monkeypatch.setattr(jump, "_certify_exact", record)
    res = certify(v, cands, [data], LIMIT_DELTA)
    batch_N = sorted(set(res.N) - set(exact_N))
    assert min(exact_N) < max(batch_N) and min(batch_N) < max(exact_N)
    assert all(a < b for a, b in zip(res.N, res.N[1:]))
    assert all(type(m) is int for col in res.m + res.delta for m in col)
    assert_certify_matches(v, cands, [data], LIMIT_EPS, LIMIT_DELTA)


def _golden_search(N_max, chi="auto"):
    data = rot_data(PHI)
    v = build_jump_vector([data])
    delta = default_delta([data])
    return search_N(v, chi, eps=default_eps([data], v.M, delta), N_max=N_max, paths=[data],
                    delta=delta)


def _past_the_batch_limit():
    # exact-gate solutions, object columns, with m_k >= 2**50
    data, v, L, cands = limit_candidates(LIMIT_THETAS[1])
    res = certify(v, cands, [data], LIMIT_DELTA)
    assert max(max(col) for col in res.m) >= 1 << 50
    return res


WRITER_FIXTURES = {
    "empty": lambda: _golden_search(1),
    "golden": lambda: _golden_search(20000),
    "golden, chi 10": lambda: _golden_search(30000, chi=(1, 0)),
    # two paths at delta = 1/7, with the flags of test_search_flags_golden_bytes
    "golden and sqrt2 - 1, delta 1/7": lambda: search_report(
        [rot_data(PHI), PathIndexData(NormalFormDecomposition(
            n=2, p_minus=1, thetas=(Scalar.sqrt(2) - 1,)), i1=3)],
        200000, M=2, M0=4, delta=Fraction(1, 7), eps=0.02, reports=0)["search"],
    # the four axis orbits of test_chi_auto_runs_at_h16, at loose eps and
    # delta: its defaults certify nothing up to N_max 1e6
    "h = 16": lambda: search_report(
        [orbit_data(EllipsoidSpec(alphas=("1", "sqrt2", "sqrt3", "sqrt5")), i)[0]
         for i in (1, 2, 3, 4)], 20000, eps=LIMIT_EPS, delta=LIMIT_DELTA, reports=0)["search"],
    "past the batch limit": _past_the_batch_limit,
}


# objects that hold the results r and s, and the empty result e: at top
# level, under "search" as jump-search and ellipsoid print them, three
# levels deep in a dict and in a list, and all three in one object
DUMP_SHAPES = [
    lambda r, s, e: r,
    lambda r, s, e: {"schema_version": 1, "search": r},
    lambda r, s, e: {"a": 1, "b": {"c": {"d": r, "e": [2]}, "f": None}},
    lambda r, s, e: [0.5, [[r, "x"], {}], []],
    lambda r, s, e: {"first": r, "next": {"second": s, "k": [e, 3]}},
]


@pytest.mark.parametrize("name", list(WRITER_FIXTURES))
def test_write_json_gives_the_bytes_of_json_dumps(name, tmp_path, capsys):
    res = WRITER_FIXTURES[name]()
    assert (len(res.N) == 0) == (name == "empty")
    want = json.dumps(res.to_json()["solutions"], sort_keys=True, indent=2)
    for newline in ("\n", "\n  ", "\n      "):
        pieces = []
        res.write_json(pieces.append, newline)
        assert_same_text("".join(pieces), want.replace("\n", newline))
    # cli._dump_json, to --out and to stdout: json.dumps with each result's
    # to_json() in its place
    other, empty = WRITER_FIXTURES["golden, chi 10"](), WRITER_FIXTURES["empty"]()
    out = tmp_path / "out.json"
    for shape in DUMP_SHAPES:
        want = json.dumps(shape(res.to_json(), other.to_json(), empty.to_json()),
                          sort_keys=True, indent=2) + "\n"
        cli._dump_json(shape(res, other, empty), str(out))
        assert_same_text(out.read_text(), want)
        cli._dump_json(shape(res, other, empty), None)
        assert_same_text(capsys.readouterr().out, want)


@pytest.mark.parametrize("name", ["golden", "loose golden", "-I2 block and N2 pair",
                                  "two paths, rational angle", "h = 66"])
def test_certifying_in_small_batches_changes_nothing(name, monkeypatch):
    paths, chi, eps, delta, N_max, _ = CERTIFY_FIXTURES[name]
    v = build_jump_vector(paths)
    delta = default_delta(paths) if delta is None else delta
    eps = default_eps(paths, v.M, delta) if eps is None else eps
    assert len(stage1(v, chi, eps, N_max)) > 3 * 64
    one = search_N(v, chi, eps=eps, N_max=N_max, paths=paths, delta=delta)
    # ranges of more than 200 steps cut into segments of at least 200, and
    # the prefilter survivors decided and certified 64 at a time
    batches = []
    monkeypatch.setattr(jump, "_CHUNK", 200)
    monkeypatch.setattr(jump, "_CERTIFY_BATCH", 64)
    monkeypatch.setattr(jump, "_certify",
                        lambda v, N, *a: batches.append(len(N)) or _certify(v, N, *a))
    small = search_N(v, chi, eps=eps, N_max=N_max, paths=paths, delta=delta)
    assert small.to_json() == one.to_json()
    assert tuple(small.gates) == _GATES and small.gates == one.gates
    assert len(batches) > 3 and sum(batches) == sum(one.gates.values())


def test_a_search_builds_no_solution_object(monkeypatch):
    # the solutions are columns; search_report builds a JumpSolution only
    # for each theorem-2.11 report
    built = []

    def counting(*args):
        built.append(args[0])
        return JumpSolution(*args)

    monkeypatch.setattr(jump, "JumpSolution", counting)
    data = rot_data(PHI)
    v = build_jump_vector([data])
    delta = default_delta([data])
    res = search_N(v, "auto", eps=default_eps([data], v.M, delta), N_max=2 * 10 ** 5,
                   paths=[data], delta=delta)
    out = res.to_json()
    assert built == [] and len(out["solutions"]) == res.gates["certified"] > 3
    report = search_report([data], 2 * 10 ** 5, reports=3)
    assert built == res.N[:3]
    assert report["search"].to_json() == out
    assert [r["N"] for r in report["theorem211"]] == res.N[:3]


@pytest.mark.parametrize("paths, M", [
    ([rot_data(PHI)], 2 ** 70),
    ([PathIndexData(NormalFormDecomposition(
        n=2, thetas=(PHI, Scalar.rational(1, 3 * 2 ** 64 + 1))), i1=2)], 1),
])
def test_out_of_range_constants_take_the_exact_gates(paths, M):
    # M or a denominator past the batch's integer ranges: _batch_limit is 0
    v = build_jump_vector(paths, M=M)
    assert _batch_limit(v, [(path_record(p), p) for p in paths], fixed_bits(get_precision())) == 0
    cands = stage1(v, "auto", 0.45, 400 * M)
    gates = assert_certify_matches(v, cands, paths, 0.45, Fraction(49, 100))
    assert cands and gates["m_nonpositive"] + gates["angle"] + gates["identity"]


def test_precision_error_from_the_exact_fallback():
    # delta equal to the stored {m x} of a certified N: the angle gate is
    # undecided on the top bits and inside its slack at dps, so both loops
    # raise
    data = rot_data(PHI)
    v = build_jump_vector([data])
    delta = default_delta([data])
    eps = default_eps([data], v.M, delta)
    cands = stage1(v, "auto", eps, 2000)
    sols, _ = ref_certify(v, cands, [data], eps, delta)
    m = next(s.m[0] for s in sols if exact_frac(PHI, s.m[0]) < Fraction(1, 2))
    t = exact_frac(PHI, m)
    code = batch_codes(v, [data], cands, t)[0]
    assert (code == _EXACT).sum() >= 1
    with pytest.raises(PrecisionError) as ref_exc:
        ref_certify(v, cands, [data], eps, t)
    with pytest.raises(PrecisionError) as exc:
        certify(v, cands, [data], t)
    assert str(exc.value) == str(ref_exc.value)


def test_mulhi_is_the_high_word():
    rng = np.random.default_rng(20240811)
    a = rng.integers(0, 2 ** 64, size=2000, dtype=np.uint64)
    a[:4] = (0, 1, 2 ** 64 - 1, 2 ** 63)
    for b in (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 0x9E3779B97F4A7C15):
        assert _mulhi(a, b).tolist() == [(x * b) >> 64 for x in a.tolist()]


def scalar_gates(v, paths, N, bits, delta):
    """(code, ms, deltas) of one close candidate from the scalar
    gates at the working precision; None when one of them cannot decide
    there."""
    dps = get_precision()
    try:
        if any(mi.is_rational and (Fraction(N) / (v.M * mi.fraction)).denominator != 1
               for mi in v.mean_indices):
            return _SKIP, None, None
        try:
            ms = tuple(compute_m(N, paths[k], bits[k], v.M) for k in range(v.q))
        except JumpError:
            return _M_FAIL, None, None
        # one precision only: the batch must not decide what dps cannot
        with_dps = [_frac_below_once(a, m, delta, dps) for k, m in enumerate(ms)
                    for a in path_record(paths[k]).angles if not a.is_rational
                    for m in (m, -m)]
        if None in with_dps:
            return None
        if not all(_condition_339a_340(paths[k], ms[k], delta, dps) for k in range(v.q)):
            return _ANGLE_FAIL, ms, None
        deltas = tuple(delta_k(paths[k], ms[k], delta) for k in range(v.q))
        ivals = tuple(I_value(paths[k], ms[k]) for k in range(v.q))
    except PrecisionError:
        return None
    code = _SOLVED if all(i == N + d for i, d in zip(ivals, deltas)) else _ID_FAIL
    return code, ms, deltas


def _frac_below_once(x, m, delta, dps):
    """_frac_below's decision at dps alone: True, False or None."""
    r, F = x.mul_frac(m, fixed_bits(dps))
    gap = r * delta.denominator - (delta.numerator << F)
    slack = (abs(m) + 2) * delta.denominator
    return True if gap < -slack else False if gap > slack else None


@st.composite
def gate_cases(draw):
    """A path, M, and candidates N with delta set next to the quantities
    the angle gates compare."""
    data = draw(path_data())
    M = draw(st.integers(1, 12))
    v = build_jump_vector([data], M=M)
    mi = mean_index(data)
    F = fixed_bits(get_precision())
    L = _batch_limit(v, [(path_record(data), data)], F)
    kind = draw(st.sampled_from(("random", "N near integers", "m near integers", "limit")))
    if kind == "random":
        N = draw(st.integers(1, 10 ** 7))
    elif kind == "limit":
        N = L - 1 - draw(st.integers(0, 1000))
    elif kind == "N near integers" and not mi.is_rational:
        # N / (M ihat) within about 1/N of an integer
        N = draw(st.sampled_from(convergent_numerators(mi * M, 2 ** 40)))
        N += draw(st.integers(-1, 1))
    else:
        # m_k = j M with j M x within about 1/j of an integer for an angle x
        # of the path (up to the +-1 of the floor and of chi)
        x = draw(st.sampled_from(path_record(data).angles))
        if x.is_rational:
            j = draw(st.integers(1, 10 ** 6)) * x.fraction.denominator
        else:
            j = draw(st.sampled_from([1] + convergent_numerators(1 / (x * M), 2 ** 40)[1:]))
        N = -(mi * M).mul_floor(-j) + draw(st.integers(-1, 1))
    assume(1 <= N < L)
    near = [int(exact_frac(c, N) > Fraction(1, 2)) for c in v.coords]
    bits = tuple(draw(st.sampled_from((b, 1 - b))) if draw(st.integers(0, 9)) == 0 else b
                 for b in near)
    # delta next to {m x} or 1 - {m x} for one angle: at 2**-k, or within
    # the top bits' slack of m + 2 units of 2**-64
    delta = draw(dyadic_deltas)
    if draw(st.booleans()):
        try:
            m = compute_m(N, data, bits[0], M)
        except (JumpError, PrecisionError):
            m = None
        irr = [a for a in path_record(data).angles if not a.is_rational]
        if m is not None and irr:
            t = exact_frac(draw(st.sampled_from(irr)), m)
            t = t if draw(st.booleans()) else 1 - t
            if draw(st.booleans()):
                k = draw(st.integers(20, 62))
                delta = Fraction(int(t * 2 ** k) + draw(st.sampled_from((0, 1))), 2 ** k)
            else:
                j = draw(st.integers(-m - 3, m + 3))
                delta = Fraction(int(t * 2 ** 64) + j, 2 ** 64)
    assume(0 < delta < Fraction(1, 2))
    return data, v, N, bits, delta


@seed(20240811)
@settings(max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(gate_cases())
def test_batched_gates_match_the_scalar_gates(case):
    data, v, N, bits, delta = case
    packed = sum(b << i for i, b in enumerate(bits))
    code, ms, deltas = batch_codes(v, [data], [(N, packed)], delta)
    want = scalar_gates(v, [data], N, bits, delta)
    if code[0] == _EXACT:
        return  # handed to the exact gates, which decide alone
    assert want is not None, "the batch decided what the scalar gates cannot"
    assert code[0] == want[0]
    if want[1] is not None:
        assert tuple(ms[:, 0].tolist()) == want[1]
    if want[2] is not None:
        assert tuple(deltas[:, 0].tolist()) == want[2]


def test_angle_gates_within_the_top_bit_slack():
    # delta within m + 3 units of 2**-64 of {m x} or of 1 - {m x}: the batch
    # decides only what the top bits prove and hands the rest to the exact
    # gates
    data = rot_data(PHI)
    v = build_jump_vector([data])
    seen = Counter()
    for N in range(30, 3000, 7):
        bits = tuple(int(exact_frac(c, N) > Fraction(1, 2)) for c in v.coords)
        m = compute_m(N, data, bits[0], v.M)
        t = exact_frac(PHI, m)
        for target in (t, 1 - t):
            for j in sorted({-m - 3, -2, -1, 0, 1, 2, m // 2, m, m + 3}):
                delta = Fraction(int(target * 2 ** 64) + j, 2 ** 64)
                if not 0 < delta < Fraction(1, 2):
                    continue
                code = batch_codes(v, [data], [(N, bits[0] | bits[1] << 1)], delta)[0][0]
                want = scalar_gates(v, [data], N, bits, delta)
                seen[code == _EXACT] += 1
                if code != _EXACT:
                    assert want is not None and code == want[0], (N, m, j)
    assert seen[True] and seen[False]
