import json
import logging
from fractions import Fraction

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
)
from symindex.jump import (
    JumpError,
    _closer_than,
    _condition_339a_340,
    _residual,
    _scan_chunk,
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
    d = NormalFormDecomposition(n=4, q_zero=1, q_plus=1, thetas=(HALF,),
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


def test_determinism_across_workers(golden_search):
    data, v, delta, eps, res = golden_search
    res4 = search_N(v, "auto", eps=eps, N_max=10 ** 5, paths=[data], delta=delta,
                    workers=4)
    assert res4.to_json() == res.to_json()


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
    assert _condition_339a_340(data, m, delta) == ref_condition(data, m, delta)


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
    assert _condition_339a_340(data, m, delta) == ref_condition(data, m, delta)
    assert _condition_339a_340(data, m, delta) == (t < delta or 1 - t < delta)


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

def ref_scan_chunk(args):
    """The former stage-1 scan: step N through the chunk, keeping each
    residue N X mod 2**F up to date, and test every N exactly."""
    (first_step, n_steps, step_N, Xs, F, eps_int, explicit_bits) = args
    mask = (1 << F) - 1
    modulus = 1 << F
    N0 = first_step * step_N
    rs = [(N0 * X) & mask for X in Xs]
    incs = [(step_N * X) & mask for X in Xs]
    out = []
    N = N0
    h = len(Xs)
    for _ in range(n_steps):
        bits = 0
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
        if ok:
            out.append((N, bits))
        for i in range(h):
            rs[i] = (rs[i] + incs[i]) & mask
        N += step_N
    return out


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
    chi = draw(st.one_of(st.none(), st.tuples(*[st.sampled_from((0, 1))] * h)))
    return first_step, n_steps, step_N, Xs, F, eps_int, chi


@seed(20240811)
@settings(max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scan_chunks())
def test_scan_chunk_matches_stepping_loop(chunk):
    assert _scan_chunk(chunk) == ref_scan_chunk(chunk)


def test_scan_chunk_at_the_eps_boundary():
    # X with its low F - 64 bits zero makes the prefilter's top bits exact,
    # so the residue r sits exactly at the edge of the window: N survives
    # iff r < eps_int (side 0) or 2**F - r < eps_int (side 1)
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
                chunk = (1, 1, N, [X], F, eps_int, None)
                got = _scan_chunk(chunk)
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
