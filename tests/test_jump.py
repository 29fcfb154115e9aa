import json
import logging
from collections import Counter
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import HealthCheck, assume, given, seed, settings
from hypothesis import strategies as st
from mpmath import mp

from symindex import cli
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
    _ID_FAIL,
    _M_FAIL,
    _SKIP,
    _SOLVED,
    JumpError,
    JumpSolution,
    JumpVector,
    _band_residual,
    _batch_gates,
    _batch_limit,
    _certify,
    _closer_than,
    _condition_339a_340,
    _mulhi,
    _residual,
    _scan_chunk,
    _scaled_coord,
    _stage1,
    build_jump_vector,
    chi_of,
    compute_m,
    default_delta,
    default_eps,
    delta_k,
    delta_upper_bound,
    mean_ratio_classify,
    ratio_consistency_check,
    s_minus_angles,
    search_N,
    theorem211_report,
    varrho,
)
from symindex.scalars import PrecisionError, Scalar, fixed_bits, get_precision

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


# ----- chi -------------------------------------------------------------------

def test_chi_of_examples():
    assert chi_of([0.1, -0.1]) == (0, 1)
    assert chi_of([0.0, 0.0]) == (0, 0)


def test_chi_of_antisymmetry():
    a = [0.3, -0.2, 0.0, 1.5]
    ca = chi_of(a)
    cn = chi_of([-x for x in a])
    for x, b1, b2 in zip(a, ca, cn):
        if x != 0:
            assert b1 + b2 == 1
        else:
            assert b1 == b2 == 0


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


def test_delta_upper_bound(golden_search):
    data, v, delta, eps, res = golden_search
    bound = delta_upper_bound(data.decomp)
    assert bound == 1
    for sol in res.solutions[:80]:
        assert sol.delta[0] <= bound


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
    # fail the exact identity gate
    data = rot_data(PHI, i1=1)
    v = build_jump_vector([data])
    res = search_N(v, "auto", eps=0.45, N_max=300, paths=[data],
                   delta=Fraction(49, 100))
    for r in res.rejects:
        if r["reason"] == "identity gate failed":
            assert {"k", "I", "N_plus_Delta"} <= set(r["detail"][0])
            break
    else:
        pytest.fail("no identity-gate rejection was logged")


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
        assert rep.varrho_n == 1
        for entry in rep.entries:
            if entry["j"] is not None:
                assert entry["index_identity_ok"]
                assert entry["bounds_ok"]
        assert rep.ordering_ok and rep.chi_monotone_ok


# ----- ratio consistency -----------------------------------------------------

@pytest.fixture(scope="module")
def dependent_pair_search():
    # ihat_1 = phi, ihat_2 = phi/2: v = (1/phi, 2/phi, 1, 1)
    d1 = rot_data(PHI, i1=1)
    d2 = rot_data(PHI * Fraction(1, 2), i1=1)
    paths = [d1, d2]
    v = build_jump_vector(paths)
    delta = default_delta(paths)
    eps = default_eps(paths, v.M, delta)
    res = search_N(v, "auto", eps=eps, N_max=3 * 10 ** 5, paths=paths, delta=delta)
    return paths, v, res


def test_dependent_coordinates_ratio(dependent_pair_search):
    paths, v, res = dependent_pair_search
    assert not v.coords[0].is_rational and not v.coords[1].is_rational
    assert res.solutions
    checked = 0
    for sol in res.solutions[:25]:
        verdict = ratio_consistency_check(sol, v, 0, 1, Fraction(2))
        assert verdict.status in ("ok", "indeterminate")
        if verdict.status == "ok":
            assert verdict.detail["chi_equal"]
            checked += 1
    assert checked > 0


def test_identical_coordinates_trivial_ratio(dependent_pair_search):
    paths, v, res = dependent_pair_search
    sol = res.solutions[0]
    verdict = ratio_consistency_check(sol, v, 0, 0, Fraction(1))
    assert verdict.status in ("ok", "indeterminate")


def test_ratio_check_rejects_rational_coordinate(dependent_pair_search):
    paths, v, res = dependent_pair_search
    with pytest.raises(JumpError, match="irrational"):
        ratio_consistency_check(res.solutions[0], v, 0, 2, Fraction(1))


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
    worst, slack, F = _residual(v, N, bits, dps)
    assert float(worst / (1 << F)) == ref
    eps = ref * (1 + side * 2.0 ** -k)
    assume(0 < eps < 0.5)
    assert _closer_than(worst, slack, F, Fraction(eps)) == (ref < eps)


def test_angle_gate_inside_slack_falls_back_or_raises():
    x = Scalar.sqrt(3) * Fraction(1, 2)
    data = rot_data(x, i1=1)
    for m in (7, 12345, 987654):
        r, F = x.mul_frac(m)
        t = exact_frac(x, m)
        # delta at r 2**-F is inside the slack at F bits; the 2 * dps
        # recomputation decides it exactly against the stored value
        delta = Fraction(r, 1 << F)
        assert delta_k(data, m, delta) == (t < delta)
        # delta equal to the stored {m x} stays ambiguous at 2 * dps as well
        with pytest.raises(PrecisionError):
            delta_k(data, m, t)


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


def ref_scan_chunk(args):
    """_scan_chunk by the stepping loop: a survivor is close when all its
    distances are below close_int - 2 N_last, else band decides."""
    (first_step, n_steps, step_N, Xs, F, eps_int, close_int, explicit_bits, band) = args
    lim = close_int - 2 * (first_step + n_steps - 1) * step_N
    out = []
    for N, bits, ds in ref_survivors(first_step, n_steps, step_N, Xs, F, eps_int,
                                     explicit_bits):
        if max(ds) < lim:
            out.append((N, bits, None))
        else:
            residual = band(N, bits)
            if residual is not None:
                out.append((N, bits, residual))
    return out


def fake_band(N, bits):
    """A stand-in for the exact decision: drops a third of the N."""
    return None if (N + bits) % 3 == 0 else float(N % 7)


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
    # close_int - 2 N_last below, among or above the survivors' distances
    close_int = draw(st.one_of(st.just(0), st.integers(0, eps_int + 2 * N_last)))
    chi = draw(st.one_of(st.none(), st.tuples(*[st.sampled_from((0, 1))] * h)))
    return first_step, n_steps, step_N, Xs, F, eps_int, close_int, chi, fake_band


@seed(20240811)
@settings(max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scan_chunks())
def test_scan_chunk_matches_stepping_loop(chunk):
    assert _scan_chunk(*chunk) == ref_scan_chunk(chunk)


def test_scan_chunk_at_the_eps_boundary():
    # X with its low F - 64 bits zero makes the prefilter's top bits exact,
    # so the residue r sits exactly at the edge of the window: N survives
    # iff r < eps_int (side 0) or 2**F - r < eps_int (side 1), and is kept
    # whether it is close or the band accepts it
    F = fixed_bits(50)
    one = 1 << F
    for Xh in (3, 0x9E3779B97F4A7C15, (1 << 64) - 5):
        X = Xh << (F - 64)
        for N in (1, 7, 12345):
            r = (N * X) % one
            for eps_int, want in ((r + 1, True), (r, False),
                                  (one - r + 1, True), (one - r, False)):
                if not 2 <= eps_int <= one // 2:
                    continue
                for close_int in (0, eps_int + 2 * N):
                    chunk = (1, 1, N, [X], F, eps_int, close_int, None, lambda N, b: 0.0)
                    got = _scan_chunk(*chunk)
                    assert got == ref_scan_chunk(chunk)
                    assert bool(got) == want, (Xh, N, eps_int)


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
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["search"]["solutions"]


# ----- batched certification against the per-candidate loop -------------------

def ref_closeness(v, N, bits, eps, dps):
    """The former closeness gate: (close, residual) from _residual at dps
    digits, or at 2 dps when eps lies within the slack at dps."""
    worst, slack, F = _residual(v, N, bits, dps)
    close = _closer_than(worst, slack, F, eps)
    if close is None:  # eps lies within the truncation slack
        worst, slack, F = _residual(v, N, bits, 2 * dps)
        close = _closer_than(worst, slack, F, eps)
        if close is None:
            raise PrecisionError(f"residual at N = {N} is within {slack} * 2**-{F} of eps")
    return close, float(worst / (1 << F))


def ref_certify(v, candidates, paths, eps, delta, max_reject_log=50):
    """The former certification loop of search_N: the exact gates of one
    candidate after another, closeness included.  Also returns the gate
    each candidate stopped at, so that a fixture can show which gates it
    reaches."""
    dps = get_precision()
    solutions = []
    rejects = []
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
        except JumpError as exc:
            gates["m_k <= 0"] += 1
            if len(rejects) < max_reject_log:
                rejects.append({"N": N, "reason": str(exc)})
            continue
        # (d) angle conditions
        if not all(_condition_339a_340(paths[k], ms[k], delta, dps) for k in range(v.q)):
            gates["angle"] += 1
            if len(rejects) < max_reject_log:
                rejects.append({"N": N, "reason": "angle condition (near-integrality) failed"})
            continue
        # (c) the identity gate, exact integers
        deltas = tuple(delta_k(paths[k], ms[k], delta) for k in range(v.q))
        ivals = tuple(I_value(paths[k], ms[k]) for k in range(v.q))
        bad = [k for k in range(v.q) if ivals[k] != N + deltas[k]]
        if bad:
            gates["identity"] += 1
            entry = {"N": N, "reason": "identity gate failed",
                     "detail": [{"k": k, "I": ivals[k], "N_plus_Delta": N + deltas[k]}
                                for k in bad]}
            if len(rejects) < max_reject_log:
                rejects.append(entry)
            logging.getLogger("symindex.jump").info(
                "rejected N=%d at identity gate: %s", N, entry["detail"])
            continue
        gates["certified"] += 1
        solutions.append(JumpSolution(N=N, m=ms, chi=bits, delta=deltas,
                                      residual=res, delta_threshold=delta))
    return solutions, rejects, gates


def stage1(v, chi, eps, N_max):
    """The close stage-1 candidates of search_N."""
    explicit = None if chi == "auto" else tuple(chi)
    return _stage1(v, explicit, Fraction(eps), N_max, get_precision())


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
                 {"m_k <= 0", "angle"}),
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
        "auto", 0.3, Fraction(3, 8), 2000, {"m_k <= 0", "angle", "identity", "certified"}),
}


@pytest.mark.parametrize("name", sorted(CERTIFY_FIXTURES))
def test_certify_matches_the_candidate_loop(name, caplog):
    paths, chi, eps, delta, N_max, reached = CERTIFY_FIXTURES[name]
    v = build_jump_vector(paths)
    delta = default_delta(paths) if delta is None else delta
    eps = default_eps(paths, v.M, delta) if eps is None else eps
    cands = stage1(v, chi, eps, N_max)
    for cap in (50, 10 ** 6):
        with caplog.at_level(logging.INFO, logger="symindex.jump"):
            caplog.clear()
            ref_sol, ref_rej, gates = ref_certify(v, cands, paths, eps, delta, cap)
            ref_log = caplog.messages
            caplog.clear()
            sol, rej = _certify(v, cands, paths, delta, get_precision(), cap)
            assert caplog.messages == ref_log
        assert sorted(sol, key=lambda s: s.N) == ref_sol
        assert rej == ref_rej
    assert reached <= set(gates)
    # every gate decided on the top bits: nothing went to the exact gates
    code = batch_codes(v, paths, cands, delta)[0]
    assert not (code == _EXACT).any()
    # and search_N is that certification after the stage-1 scan
    res = search_N(v, chi, eps=eps, N_max=N_max, paths=paths, delta=delta)
    assert res.solutions == ref_sol


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
    the residual of one N at dps or at 2 dps digits, or within a few N_max
    units of 2**-F of it."""
    data = draw(path_data())
    v = build_jump_vector([data], M=draw(st.integers(1, 6)))
    N_max = draw(st.integers(v.M0, 2000))
    N = v.M0 * draw(st.integers(1, N_max // v.M0))
    bits = tuple(int(exact_frac(c, N) > Fraction(1, 2)) for c in v.coords)   # nearest vertex
    explicit = draw(st.sampled_from((None, bits, tuple(1 - b for b in bits))))
    kind = draw(st.sampled_from(("loose", "at dps", "at 2 dps", "next to")))
    dps = get_precision()
    if kind == "loose":
        eps = Fraction(draw(st.integers(1, 2 ** 10 - 1)), 2 ** 13)
    else:
        worst, _, F = _residual(v, N, bits, 2 * dps if kind == "at 2 dps" else dps)
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
    # or the PrecisionError of the first undecided one
    v, explicit, eps, N_max = case
    dps = get_precision()
    one = 1 << fixed_bits(dps)

    def scan():
        return [(N, b, float(_residual(v, N, tuple((b >> i) & 1 for i in range(v.h)), dps)[0]
                             / one) if r is None else r)
                for N, b, r in _stage1(v, explicit, eps, N_max, dps)]

    assert raised_or(scan) == raised_or(lambda: ref_stage1(v, explicit, eps, N_max, dps))


def test_stage1_rational_coordinate_past_2_to_the_F():
    # x = 1 - 1/q with q > 2**F would read as X = 2**F, at distance 0 from
    # vertex 0, while N x lies within N/q of 1, so the N near vertex 1 would
    # be missed: stage 1 refuses the coordinate instead
    dps = get_precision()
    q = (1 << fixed_bits(dps)) + 1
    v = JumpVector(q=1, mu=(1,), coords=(HALF, Scalar.from_fraction(Fraction(q - 1, q))),
                   M=1, M0=1, mean_indices=(Scalar.rational(2),))
    message = f"coordinate 1 = {q - 1}/{q} has denominator \\* N_max >= 2\\*\\*"
    with pytest.raises(PrecisionError, match=message):
        _stage1(v, None, Fraction(1, 4), 40, dps)
    with pytest.raises(PrecisionError, match=message):
        search_N(v, "auto", eps=0.25, N_max=40, paths=[], delta=Fraction(1, 8))


def test_integer_rational_coordinates_are_on_vertex_0():
    # ihat = 5/2 and v = (1/5, 1/5): N = 10 j puts N v on integers, which
    # stage 1 must read as vertex 0, at distance 0 from it
    data = rot_data(HALF, i1=3)
    v = build_jump_vector([data])
    res = search_N(v, "auto", eps=0.3, N_max=500, paths=[data], delta=Fraction(1, 8))
    assert [s.N for s in res.solutions] == list(range(10, 501, 10))
    assert all(s.chi == (0, 0) and s.residual == 0.0 for s in res.solutions)
    assert res.solutions[0].m == (4,)


def test_reject_cap_is_kept():
    # more than 50 rejects: search_N keeps the first 50, in candidate order
    paths, chi, eps, delta, N_max, _ = CERTIFY_FIXTURES["loose golden"]
    v = build_jump_vector(paths)
    cands = stage1(v, chi, eps, N_max)
    _, ref_rej, gates = ref_certify(v, cands, paths, eps, delta, 10 ** 6)
    assert len(ref_rej) > 50
    res = search_N(v, chi, eps=eps, N_max=N_max, paths=paths, delta=delta)
    assert res.rejects == ref_rej[:50]


@pytest.mark.parametrize("theta", [PHI, Scalar.sqrt(2) * Fraction(1, 100)])
def test_candidates_past_the_batch_limit_take_the_exact_gates(theta):
    # ihat = phi > 1, and ihat = sqrt(2)/100, where m_k is about 70 N
    data = rot_data(theta)
    paths = [data]
    v = build_jump_vector(paths)
    eps, delta = 0.45, Fraction(49, 100)
    F = fixed_bits(get_precision())
    L = _batch_limit(v, [(path_record(data), data)], F)
    assert 0 < L <= 1 << 50
    cands = []   # the close N around the limit, at their nearest vertex
    for N in range(L - 40, L + 40):
        packed = sum(int(exact_frac(c, N) > Fraction(1, 2)) << i for i, c in enumerate(v.coords))
        if _band_residual(v, N, packed, Fraction(eps), get_precision()) is not None:
            cands.append((N, packed, None))
    assert sum(N < L for N, _, _ in cands) >= 10 and sum(N >= L for N, _, _ in cands) >= 10
    assert (batch_codes(v, paths, [c for c in cands if c[0] < L], delta)[0] != _EXACT).any()
    # just below the limit, m_k and I(k, m_k) are inside the proven ranges
    assert compute_m(L - 1, data, 1, v.M) < 1 << 50
    assert I_value(data, compute_m(L - 1, data, 1, v.M)) < 1 << 63
    ref_sol, ref_rej, gates = ref_certify(v, cands, paths, eps, delta, 10 ** 6)
    assert {"angle", "certified"} & set(gates)
    sol, rej = _certify(v, cands, paths, delta, get_precision(), 10 ** 6)
    assert sorted(sol, key=lambda s: s.N) == ref_sol and rej == ref_rej


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
    ref_sol, ref_rej, gates = ref_certify(v, cands, paths, 0.45, Fraction(49, 100), 10 ** 6)
    assert cands and ref_rej
    sol, rej = _certify(v, cands, paths, Fraction(49, 100), get_precision(), 10 ** 6)
    assert sorted(sol, key=lambda s: s.N) == ref_sol and rej == ref_rej


def test_precision_error_from_the_exact_fallback():
    # delta equal to the stored {m x} of a certified N: the angle gate is
    # undecided on the top bits and at 2 * dps, so both loops raise
    data = rot_data(PHI)
    v = build_jump_vector([data])
    delta = default_delta([data])
    eps = default_eps([data], v.M, delta)
    cands = stage1(v, "auto", eps, 2000)
    sols, _, _ = ref_certify(v, cands, [data], eps, delta)
    m = next(s.m[0] for s in sols if exact_frac(PHI, s.m[0]) < Fraction(1, 2))
    t = exact_frac(PHI, m)
    code = batch_codes(v, [data], cands, t)[0]
    assert (code == _EXACT).sum() >= 1
    with pytest.raises(PrecisionError) as ref_exc:
        ref_certify(v, cands, [data], eps, t)
    with pytest.raises(PrecisionError) as exc:
        _certify(v, cands, [data], t, get_precision(), 50)
    assert str(exc.value) == str(ref_exc.value)


def test_mulhi_is_the_high_word():
    rng = np.random.default_rng(20240811)
    a = rng.integers(0, 2 ** 64, size=2000, dtype=np.uint64)
    a[:4] = (0, 1, 2 ** 64 - 1, 2 ** 63)
    for b in (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 0x9E3779B97F4A7C15):
        assert _mulhi(a, b).tolist() == [(x * b) >> 64 for x in a.tolist()]


def scalar_gates(v, paths, N, bits, delta):
    """(code, ms, deltas, ivals) of one close candidate from the scalar
    gates at the working precision; None when one of them cannot decide
    there."""
    dps = get_precision()
    try:
        if any(mi.is_rational and (Fraction(N) / (v.M * mi.fraction)).denominator != 1
               for mi in v.mean_indices):
            return _SKIP, None, None, None
        try:
            ms = tuple(compute_m(N, paths[k], bits[k], v.M) for k in range(v.q))
        except JumpError:
            return _M_FAIL, None, None, None
        # one precision only: the batch must not decide what dps cannot
        with_dps = [_frac_below_once(a, m, delta, dps) for k, m in enumerate(ms)
                    for a in path_record(paths[k]).angles if not a.is_rational
                    for m in (m, -m)]
        if None in with_dps:
            return None
        if not all(_condition_339a_340(paths[k], ms[k], delta, dps) for k in range(v.q)):
            return _ANGLE_FAIL, ms, None, None
        deltas = tuple(delta_k(paths[k], ms[k], delta) for k in range(v.q))
        ivals = tuple(I_value(paths[k], ms[k]) for k in range(v.q))
    except PrecisionError:
        return None
    code = _SOLVED if all(i == N + d for i, d in zip(ivals, deltas)) else _ID_FAIL
    return code, ms, deltas, ivals


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
    code, ms, deltas, ivals = batch_codes(v, [data], [(N, packed)], delta)
    want = scalar_gates(v, [data], N, bits, delta)
    if code[0] == _EXACT:
        return  # handed to the exact gates, which decide alone
    assert want is not None, "the batch decided what the scalar gates cannot"
    assert code[0] == want[0]
    if want[1] is not None:
        assert tuple(ms[:, 0].tolist()) == want[1]
    if want[2] is not None:
        assert tuple(deltas[:, 0].tolist()) == want[2]
        assert tuple(ivals[:, 0].tolist()) == want[3]


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
