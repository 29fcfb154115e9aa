import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from symindex.iteration import (
    NormalFormDecomposition,
    PathIndexData,
    index_iterate,
    nullity_iterate,
    splitting_numbers,
)
from symindex import normal_forms, oracle
from symindex.normal_forms import (
    d_omega,
    diamond,
    nontrivial_n2_block,
    nu_omega,
    realize,
    standard_J,
    trivial_n2_block,
)
from symindex.oracle import (
    DEFAULT_STEPS,
    MAX_STEPS,
    OracleError,
    _PerturbedPath,
    _brent_min,
    _resample,
    _sample_windows,
    cz_index,
    diamond_paths,
    estimate_splitting,
    extend_with_xi,
    iterate_path,
    path_from_logm,
    path_from_matrix_function,
    path_from_quadratic_hamiltonian,
    path_from_samples,
    xi_matrix,
)
from symindex.scalars import Scalar

from conftest import n1_minus_path, rot_data, rotation_path, shear_path

HALF = Scalar.rational(1, 2)


# ----- constructors ----------------------------------------------------------

def test_quadratic_path_zero_generator():
    p = path_from_quadratic_hamiltonian(np.zeros((2, 2)), 1.0)
    assert np.allclose(p.mats, np.eye(2))


def test_quadratic_path_rotation():
    p = path_from_quadratic_hamiltonian(np.eye(2), 2.0, steps=256)
    for t in (0.3, 1.2, 2.0):
        M = p.evaluate(t)
        want = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        assert np.allclose(M, want, atol=1e-12)


def test_quadratic_path_block_decoupling():
    B = np.diag([0.7, 1.3, 0.7, 1.3])
    p = path_from_quadratic_hamiltonian(B, 1.0, steps=128)
    p1 = path_from_quadratic_hamiltonian(0.7 * np.eye(2), 1.0, steps=128)
    p2 = path_from_quadratic_hamiltonian(1.3 * np.eye(2), 1.0, steps=128)
    pd = diamond_paths(p1, p2, steps=128)
    assert np.allclose(p.mats, pd.mats, atol=1e-12)


def _rotation_function_path(theta_times_pi: float, steps: int):
    def f(t):
        s = theta_times_pi * math.pi * t
        return np.array([[math.cos(s), -math.sin(s)], [math.sin(s), math.cos(s)]])

    return path_from_matrix_function(f, 1.0, 1, steps=steps)


def test_diamond_paths_uses_the_normal_form_layout():
    # sampled from their evaluators, so the samples are the evaluator's values
    p1 = _rotation_function_path(0.3, steps=128)
    p2 = diamond_paths(n1_minus_path(1, steps=128), _rotation_function_path(0.7, steps=128),
                       steps=128)
    pd = diamond_paths(p1, p2, steps=128)
    assert len(pd.mats) == len(p1.mats) == len(p2.mats)
    for k in range(len(pd.mats)):
        assert np.array_equal(pd.mats[k], diamond(p1.mats[k], p2.mats[k]))


def test_oracle_shares_the_matrix_layer():
    # one D_omega and one nu_omega: the oracle must not grow its own copies
    assert oracle.d_omega is normal_forms.d_omega
    assert oracle.nu_omega is normal_forms.nu_omega
    assert oracle.kernel is normal_forms.kernel


def test_quadratic_path_requires_symmetric():
    with pytest.raises(OracleError):
        path_from_quadratic_hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


@pytest.mark.parametrize("steps, tau, message", [
    (0, 1.0, "steps must lie in"),
    (-3, 1.0, "steps must lie in"),
    (MAX_STEPS + 1, 1.0, "steps must lie in"),
    (16, 0.0, "tau must be finite and > 0"),
    (16, -1.0, "tau must be finite and > 0"),
    (16, math.nan, "tau must be finite and > 0"),
    (16, math.inf, "tau must be finite and > 0"),
])
def test_quadratic_path_rejects_bad_steps_and_tau(steps, tau, message):
    with pytest.raises(OracleError, match=message):
        path_from_quadratic_hamiltonian(np.eye(2), tau, steps=steps)


def test_path_samples_must_start_at_identity():
    ts = [0.0, 0.5, 1.0]
    mats = [np.diag([2.0, 0.5])] * 3
    with pytest.raises(OracleError, match="identity"):
        path_from_samples(ts, mats, n=1, tau=1.0)


def test_step_bound_enforced():
    p = path_from_quadratic_hamiltonian(4.0 * np.eye(2), 6.0, steps=16, check=False)
    with pytest.raises(OracleError, match="step-size"):
        p.validate()


# ----- evaluators on a time grid ---------------------------------------------
#
# An evaluator takes a float or a 1-D array of times; on an array it must give
# exactly the stack of its pointwise values, so that sampling a grid in one
# call changes no sample bit.

def grid_path(name: str):
    rot = rotation_path(0.37, steps=64)
    func = n1_minus_path(1, steps=128)
    samples = path_from_samples(rot.ts, rot.mats, n=1, tau=1.0)
    dia = diamond_paths(rot, func, steps=64)
    return {
        "quadratic": lambda: rot,
        "matrix function": lambda: func,
        "sample-only": lambda: samples,
        "diamond": lambda: dia,
        "nested diamond": lambda: diamond_paths(dia, shear_path(1, steps=64), steps=64),
        "iterate of quadratic": lambda: iterate_path(rot, 3),
        "iterate of diamond": lambda: iterate_path(dia, 2),
        "iterate of sample-only": lambda: iterate_path(samples, 3),
    }[name]()


GRID_PATHS = ("quadratic", "matrix function", "sample-only", "diamond", "nested diamond",
              "iterate of quadratic", "iterate of diamond", "iterate of sample-only")


@pytest.mark.parametrize("name", GRID_PATHS)
def test_evaluator_on_a_grid_matches_pointwise_calls(name):
    path = grid_path(name)
    ts = np.concatenate([np.linspace(0.0, path.tau, 41), [path.tau / 3, 0.999999 * path.tau]])
    stacked = path.evaluate(ts)
    assert stacked.shape == (len(ts), 2 * path.n, 2 * path.n)
    assert np.array_equal(stacked, np.stack([path.evaluate(float(t)) for t in ts]))
    if path.evaluator is not None:
        assert np.array_equal(path.evaluator(ts), stacked)


def test_sample_only_evaluator_returns_the_first_of_two_equal_times():
    # the last bracket has two equal times: it gives its first sample
    ts = [0.0, 0.5, 1.0, 1.0]
    mats = [np.diag([1.0 + k / 100, 1 / (1.0 + k / 100)]) for k in range(4)]
    p = path_from_samples(ts, mats, n=1, tau=1.0)
    grid = np.array([0.25, 0.75, 1.0, 1.25])
    assert np.array_equal(p.evaluate(grid), np.stack([p.evaluate(float(t)) for t in grid]))
    assert np.array_equal(p.evaluate(1.0), mats[2])


def test_diamond_paths_samples_match_the_pointwise_construction():
    # the reference is the former construction: one diamond per grid time,
    # stacked
    rot, func = rotation_path(0.37, steps=64), n1_minus_path(1, steps=128)
    for p1, p2 in ((rot, func), (diamond_paths(rot, func, steps=64), shear_path(-1, steps=64))):
        pd = diamond_paths(p1, p2, steps=96)
        ts = np.linspace(0.0, p1.tau, 97)
        want = np.stack([np.asarray(diamond(p1.evaluate(t), p2.evaluate(t)), dtype=float)
                         for t in ts])
        assert np.array_equal(pd.ts, ts)
        assert np.array_equal(pd.mats, want)


@pytest.mark.parametrize("name", GRID_PATHS)
def test_resample_matches_the_pointwise_loop(name):
    path = grid_path(name)
    res = _resample(path, 2)
    if path.evaluator is None:
        assert res is path
        return
    ts = np.linspace(0.0, path.tau, 2 * (len(path.ts) - 1) + 1)
    assert np.array_equal(res.ts, ts)
    assert np.array_equal(res.mats, np.stack([path.evaluator(t) for t in ts]))
    assert res.evaluator is path.evaluator


# ----- extension -------------------------------------------------------------

def test_extend_constant_path():
    p = path_from_quadratic_hamiltonian(np.zeros((2, 2)), 1.0, steps=64)
    ext = extend_with_xi(p)
    assert np.allclose(ext.mats[0], np.diag([2.0, 0.5]))
    assert np.allclose(ext.mats[ext.junction_index], np.eye(2))
    assert np.allclose(ext.mats[-1], p.endpoint())


def test_extension_start_off_the_variety():
    # D_1(xi_n(0)) != 0: eigenvalues 2 and 1/2
    for n in (1, 2, 3):
        assert abs(d_omega(xi_matrix(n, 0.0, 1.0)[None], 1.0, n)[0]) > 1e-6


def test_extension_preserves_endpoint():
    p = rotation_path(0.5, steps=128)
    ext = extend_with_xi(p)
    assert np.allclose(ext.mats[-1], p.endpoint())


# ----- vectorised sampling against the per-sample loops ----------------------
#
# sample_mats and the xi arc of extend_with_xi build all samples at once; the
# loops below are the per-sample code they replaced, kept as the reference.
# The results must be equal, not merely close.

def ref_xi_mats(path):
    tau = path.tau
    steps = max(64, int(round(tau / max(path.ts[1] - path.ts[0], 1e-12))))
    steps = min(steps, DEFAULT_STEPS)
    xi_ts = np.linspace(0.0, tau, steps + 1)
    return np.stack([xi_matrix(path.n, t, tau) for t in xi_ts])[:-1]


def ref_rot(pp, t):
    if pp.pert == 0.0 or t <= pp.t0:
        return np.eye(2 * pp.n)
    s = -pp.pert * (t - pp.t0) / (pp.T - pp.t0)
    return math.cos(s) * np.eye(2 * pp.n) + math.sin(s) * standard_J(pp.n)


def ref_sample_mats(pp):
    out = pp.ext.mats.copy()
    for i in range(pp.ext.junction_index, len(out)):
        out[i] = out[i] @ ref_rot(pp, pp.ext.ts[i])
    return out


def sampled_inputs():
    rot = rotation_path(0.5, steps=256)
    yield "rotation", rot
    yield "rotation tau=0.7", rotation_path(0.3, tau=0.7, steps=300)
    yield "shear", shear_path(1, steps=256)
    yield "iterate m=9", iterate_path(rotation_path(math.sqrt(2) / 2), 9)
    factors = [rot, shear_path(-1, steps=256), rotation_path(0.3, steps=256),
               n1_minus_path(1, steps=256)]
    path = factors[0]
    for k, factor in enumerate(factors[1:], start=2):
        path = diamond_paths(path, factor, steps=256)
        yield f"diamond n={k}", path


def test_vectorised_sampling_matches_per_sample_loops():
    seen = set()
    for name, path in sampled_inputs():
        ext = extend_with_xi(path)
        xi = ref_xi_mats(path)
        assert np.array_equal(ext.mats[:len(xi)], xi), name
        assert ext.junction_index == len(xi), name
        assert np.array_equal(ext.mats[len(xi):], path.mats), name
        for pert in (1e-4, 2.5e-5):
            pp = _PerturbedPath(ext, pert)
            assert np.array_equal(pp.sample_mats(), ref_sample_mats(pp)), (name, pert)
            for t in (ext.ts[1], pp.t0, 0.5 * (pp.t0 + pp.T), pp.T):
                want = ext.evaluate(t) @ ref_rot(pp, t)
                assert np.array_equal(pp.evaluate(t), want), (name, pert, t)
        assert _PerturbedPath(ext, 0.0).sample_mats() is ext.mats
        seen.add(path.n)
    assert seen == {1, 2, 3, 4}


# ----- the sample walk against the per-sample loop ---------------------------
#
# _sample_windows finds the refinement windows of _scan with numpy masks; the
# loop below is the per-sample walk it replaced, recording the windows it
# refined instead of refining them.  The old walk took every sample of a run
# of equal |d| as a local minimum; the new one refines a run once, and only
# when both outer neighbours are strictly larger.

Z_TOL, DIP_TOL = 1e-10, 1e-3


def ref_sample_windows(d, jidx, z_tol, dip_tol):
    N = len(d)
    is_zero = np.abs(d) <= z_tol
    run = longest = 0
    for i in range(N):
        run = run + 1 if is_zero[i] else 0
        longest = max(longest, run)
    windows = []
    i = jidx
    if is_zero[jidx]:
        while i < N - 1 and is_zero[i + 1]:
            i += 1
        i += 1
    scan_start = i
    while i < N - 1:
        a, b = d[i], d[i + 1]
        if is_zero[i]:
            j = i
            while j < N - 1 and is_zero[j + 1]:
                j += 1
            windows.append(("zero", max(i - 1, scan_start - 1, jidx), min(j + 1, N - 1)))
            i = j + 1
            continue
        if a * b < 0:
            windows.append(("sign", i, i + 1))
            i += 1
            continue
        if i > scan_start and abs(a) < dip_tol and \
                abs(d[i - 1]) >= abs(a) and abs(b) >= abs(a):
            windows.append(("dip", i - 1, i + 1))
        i += 1
    if N - 2 >= scan_start and abs(d[N - 1]) < dip_tol and abs(d[N - 2]) >= abs(d[N - 1]):
        windows.append(("edge", N - 2, N - 1))
    return windows, longest


def equal_runs(a):
    """Maximal runs (s, e) of bitwise-equal values, e inclusive."""
    runs, s = [], 0
    for i in range(1, len(a) + 1):
        if i == len(a) or a[i] != a[i - 1]:
            runs.append((s, i - 1))
            s = i
    return runs


# magnitudes that tie often: the first two are zeros under Z_TOL, the next
# two lie below DIP_TOL (listed twice, so that plateaus are frequent)
TIED = (0.0, 1e-12, 2e-4, 5e-4, 2e-4, 5e-4, 0.3, 1.0)


@st.composite
def walk_inputs(draw):
    if draw(st.booleans()):
        # runs of equal magnitude and mostly equal sign
        runs = draw(st.lists(st.tuples(st.sampled_from(TIED), st.integers(1, 4),
                                       st.sampled_from((1.0, 1.0, 1.0, -1.0))),
                             min_size=3, max_size=10))
        mags = [m for m, k, _ in runs for _ in range(k)]
        signs = [s for _, k, s in runs for _ in range(k)]
        flips = draw(st.lists(st.sampled_from((1.0,) * 7 + (-1.0,)),
                              min_size=len(mags), max_size=len(mags)))
        signs = [s * f for s, f in zip(signs, flips)]
    else:
        # no two equal magnitudes; m * 2**-40 is below Z_TOL for m <= 109
        # and below DIP_TOL for m < 1.1e9
        n = draw(st.integers(3, 24))
        ms = draw(st.lists(st.one_of(st.integers(1, 400), st.integers(1, 2 ** 32)),
                           min_size=n, max_size=n, unique=True))
        mags = [m * 2.0 ** -40 for m in ms]
        signs = draw(st.lists(st.sampled_from((1.0, 1.0, -1.0)), min_size=n, max_size=n))
    d = np.array([m * s for m, s in zip(mags, signs)])
    return d, draw(st.one_of(st.integers(0, 2), st.integers(0, len(d) - 1)))


def _position(window, N):
    """The sample at which the per-sample walk meets a window."""
    kind, lo, _hi = window
    return {"sign": lo, "zero": lo + 1, "dip": lo + 1, "edge": N}[kind]


@seed(20240811)
@settings(max_examples=600, deadline=None, database=None)
@given(walk_inputs())
def test_sample_windows_match_the_per_sample_walk(inputs):
    d, jidx = inputs
    got, longest = _sample_windows(d, jidx, Z_TOL, DIP_TOL)
    want, want_longest = ref_sample_windows(d, jidx, Z_TOL, DIP_TOL)
    assert longest == want_longest
    a = np.abs(d)
    if np.all(a[1:] != a[:-1]):
        assert got == want
        return
    # with ties only the dips differ; every window still comes in walk order
    assert [w for w in got if w[0] != "dip"] == [w for w in want if w[0] != "dip"]
    positions = [_position(w, len(d)) for w in got]
    assert positions == sorted(set(positions))
    dips = 0
    for s, e in equal_runs(a):
        mine = [w for w in got if w[0] == "dip" and w[1] == s - 1]
        theirs = [w for w in want if w[0] == "dip" and s <= w[1] + 1 <= e]
        assert len(mine) <= 1
        dips += len(mine)
        if mine:
            assert mine == [("dip", s - 1, e + 1)]
            assert a[s - 1] > a[s] and a[e + 1] > a[e]
            assert all(lo >= s - 1 and hi <= e + 1 for _, lo, hi in theirs)
        elif s == e:
            assert theirs == []
        elif ("dip", s - 1, s + 1) in theirs and e < len(d) - 1 \
                and a[s - 1] > a[s] and a[e + 1] > a[e]:
            # a strict minimum the old walk entered is refined, unless D
            # changes sign inside the run (the sign windows cover that)
            assert any(w[0] == "sign" and s <= w[1] <= e for w in got)
    assert dips == sum(w[0] == "dip" for w in got)


def test_flat_d_omega_is_refined_once(monkeypatch):
    # Near omega = 1 the N1(1,1) shear keeps D_omega bitwise constant along
    # gamma.  The old walk took each of those samples as a dip and refined
    # every one (about 92k point evaluations per query); the flat run reaches
    # the last sample, so only the edge window refines it.
    path = shear_path(1)
    data = PathIndexData(NormalFormDecomposition(n=1, p_minus=1), i1=-1)
    pair = splitting_numbers(data.decomp, 1)
    ext = extend_with_xi(path)
    calls = []
    evaluate = _PerturbedPath.evaluate

    def counted(self, t):
        calls.append(t)
        return evaluate(self, t)

    monkeypatch.setattr(_PerturbedPath, "evaluate", counted)
    for sign, s in ((1, pair.s_plus), (-1, pair.s_minus)):
        omega = cmath.exp(1j * sign * 1e-3)
        d = d_omega(_PerturbedPath(ext, 0.0).sample_mats(), omega, 1)
        assert np.unique(np.abs(d[ext.junction_index:])).size == 1
        calls.clear()
        assert cz_index(path, omega) == (index_iterate(data, 1) + s, 0)
        assert len(calls) <= 200
    calls.clear()
    assert estimate_splitting(path, 1) == pair.as_tuple()
    assert len(calls) <= 5 * 200


# ----- crossing refinement ---------------------------------------------------
#
# _brent_min refines each zero cluster, dip and edge window of |D_omega|.  The
# windows below are one sample step of a 1024-step path, refined to the
# scan's width for T = 2.

T_END = 2.0
WIDTH = 1e-12 * T_END
DIP_T = 0.3 + math.sqrt(2) * 1e-4


def brent_on(f, t_lo, t_hi):
    """_brent_min on f, checking that it returns the best point it evaluated;
    gives (t*, f(t*), number of evaluations)."""
    seen = {}

    def counted(t):
        seen[t] = f(t)
        return seen[t]

    t_star, f_star = _brent_min(counted, t_lo, t_hi, WIDTH)
    assert t_lo <= t_star <= t_hi
    assert seen[t_star] == f_star == min(seen.values())
    return t_star, f_star, len(seen)


def test_brent_min_converges_on_a_quadratic_dip_in_few_steps():
    # |D_omega| near an eigenvalue touching omega: c (t - t0)^2
    t_star, _, evaluations = brent_on(lambda t: 7.0 * (t - DIP_T) ** 2, 0.3, 0.3 + 2 ** -10)
    assert abs(t_star - DIP_T) <= WIDTH
    assert evaluations <= 20


def test_brent_min_finds_a_kink():
    # |D_omega| through a sign change: a V, where parabolas fit badly
    t_star, _, _ = brent_on(lambda t: abs(t - DIP_T) * (3.0 if t < DIP_T else 1.0),
                            0.3, 0.3 + 2 ** -10)
    assert abs(t_star - DIP_T) <= WIDTH


def test_brent_min_on_a_flat_function():
    _, f_star, evaluations = brent_on(lambda t: 0.25, 0.3, 0.3 + 2 ** -10)
    assert f_star == 0.25
    assert evaluations <= 60


def test_brent_min_pinned_at_the_upper_end_lands_in_the_boundary_margin():
    # a minimum pushed past the endpoint: _scan's contribute skips a t*
    # within 50 widths of T
    t_star, _, _ = brent_on(lambda t: (t - T_END - 1e-4) ** 2, T_END - 2 ** -10, T_END)
    assert T_END - t_star < 50 * WIDTH


@pytest.mark.parametrize("theta, m, want, budget", [
    (math.sqrt(2) / 2, 9, (7, 0), 50),
    (1.7, 3, (5, 0), 40),
])
def test_refinement_point_evaluations(monkeypatch, theta, m, want, budget):
    # i(R(theta pi)^m) = 2 floor(m theta / 2) + 1.  Each crossing of a
    # rotation is a smooth dip of |D_omega|, which parabolic steps find in a
    # few point evaluations; golden section alone takes about 45 per dip.
    calls = []
    evaluate = _PerturbedPath.evaluate

    def counted(self, t):
        calls.append(t)
        return evaluate(self, t)

    monkeypatch.setattr(_PerturbedPath, "evaluate", counted)
    assert cz_index(iterate_path(rotation_path(theta), m), 1) == want
    assert len(calls) <= budget


# ----- iteration -------------------------------------------------------------

def test_iterate_path_m1_identity():
    p = rotation_path(0.5, steps=128)
    assert iterate_path(p, 1) is p


def test_iterate_path_endpoint_square():
    p = shear_path(1, steps=128)
    p2 = iterate_path(p, 2)
    assert np.allclose(p2.endpoint(), p.endpoint() @ p.endpoint(), atol=1e-12)


def test_iterate_rotation_is_resampled_group():
    p = rotation_path(0.5, steps=128)
    p3 = iterate_path(p, 3)
    for t in (0.4, 1.7, 2.9):
        s = t * 0.5 * math.pi
        want = np.array([[math.cos(s), -math.sin(s)], [math.sin(s), math.cos(s)]])
        assert np.allclose(p3.evaluate(t), want, atol=1e-10)


# ----- index computation -----------------------------------------------------

def test_rotation_base_index_is_odd():
    i1, nu1 = cz_index(rotation_path(0.5), 1)
    assert i1 % 2 == 1
    assert (i1, nu1) == (1, 0)


def test_rotation_iterates_match_formula():
    p = rotation_path(0.5)
    data = rot_data(HALF, i1=cz_index(p, 1)[0])
    for m in range(1, 21):
        got = cz_index(iterate_path(p, m), 1)
        assert got == (index_iterate(data, m), nullity_iterate(data, m))


def test_endpoint_nullity_is_nu_omega():
    omegas = (1, -1, cmath.exp(0.5j * math.pi), cmath.exp(0.3j * math.pi))
    for path in (rotation_path(0.5, steps=256), shear_path(1, steps=256),
                 n1_minus_path(1, steps=256), rotation_path(0.3, steps=256)):
        for w in omegas:
            assert cz_index(path, w)[1] == nu_omega(path.endpoint(), w)


def test_full_period_nullity():
    p = rotation_path(0.5)
    _i, nu = cz_index(iterate_path(p, 4), 1)
    assert nu == 2


FAMILIES = [
    ("rot_half", lambda: rotation_path(0.5),
     NormalFormDecomposition(n=1, thetas=(HALF,)), 1),
    ("rot_irrational", lambda: rotation_path(float(Scalar.sqrt(2)) / 2),
     NormalFormDecomposition(n=1, thetas=(Scalar.sqrt(2) * Fraction(1, 2),)), 1),
    ("shear_plus", lambda: shear_path(1),
     NormalFormDecomposition(n=1, p_minus=1), -1),
    ("shear_minus", lambda: shear_path(-1),
     NormalFormDecomposition(n=1, p_plus=1), 0),
    ("minus_identity", lambda: rotation_path(1.0),
     NormalFormDecomposition(n=1, q_zero=1), 1),
    ("constant", lambda: path_from_quadratic_hamiltonian(np.zeros((2, 2)), 1.0),
     NormalFormDecomposition(n=1, p_zero=1), -1),
    ("hyperbolic", lambda: path_from_quadratic_hamiltonian(
        np.array([[0.0, -math.log(2)], [-math.log(2), 0.0]]), 1.0),
     NormalFormDecomposition(n=1, k=1), 0),
    ("clockwise", lambda: rotation_path(-0.5),
     NormalFormDecomposition(n=1, thetas=(Scalar.rational(3, 2),)), -1),
    ("q_minus", lambda: n1_minus_path(1),
     NormalFormDecomposition(n=1, q_minus=1), 1),
    ("q_plus", lambda: n1_minus_path(-1),
     NormalFormDecomposition(n=1, q_plus=1), 1),
]


@pytest.mark.parametrize("name,maker,decomp,i1", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_single_block_families_match_formula(name, maker, decomp, i1):
    path = maker()
    data = PathIndexData(decomp, i1=i1)
    assert cz_index(path, 1)[0] == i1
    for m in (1, 2, 3, 4, 5, 8, 11):
        got = cz_index(iterate_path(path, m), 1)
        want = (index_iterate(data, m), nullity_iterate(data, m))
        assert got == want, f"{name} m={m}: {got} != {want}"


def test_well_definedness_under_reparametrization():
    p = rotation_path(0.5)

    def repar(t):
        s = t * t * 0.5 * math.pi
        return np.array([[math.cos(s), -math.sin(s)], [math.sin(s), math.cos(s)]])

    q = path_from_matrix_function(repar, 1.0, 1)
    assert cz_index(p, 1) == cz_index(q, 1)
    assert cz_index(p, -1) == cz_index(q, -1)


def test_omega_must_be_unimodular():
    with pytest.raises(OracleError):
        cz_index(rotation_path(0.5), 2.0)


# ----- splitting recovery ----------------------------------------------------

SPLIT_ROWS = [
    ("N1(1,1)@1", lambda: shear_path(1), 1, (1, 1)),
    ("I2@1", lambda: path_from_quadratic_hamiltonian(np.zeros((2, 2)), 1.0), 1, (1, 1)),
    ("N1(1,-1)@1", lambda: shear_path(-1), 1, (0, 0)),
    ("N1(-1,1)@-1", lambda: n1_minus_path(1), -1, (0, 0)),
    ("-I2@-1", lambda: rotation_path(1.0), -1, (1, 1)),
    ("N1(-1,-1)@-1", lambda: n1_minus_path(-1), -1, (1, 1)),
    ("R(0.4pi)", lambda: rotation_path(0.4), cmath.exp(0.4j * math.pi), (0, 1)),
    ("R(1.6pi)", lambda: rotation_path(1.6), cmath.exp(1.6j * math.pi), (0, 1)),
    ("N2nontriv", lambda: path_from_logm(
        realize(nontrivial_n2_block(Scalar.rational(2, 5))).as_float()),
     cmath.exp(0.4j * math.pi), (1, 1)),
    ("N2triv", lambda: path_from_logm(
        realize(trivial_n2_block(Scalar.rational(2, 5))).as_float()),
     cmath.exp(0.4j * math.pi), (0, 0)),
    ("off-spectrum", lambda: rotation_path(0.4), -1, (0, 0)),
]


@pytest.mark.parametrize("name,maker,omega,want", SPLIT_ROWS, ids=[r[0] for r in SPLIT_ROWS])
def test_splitting_recovery(name, maker, omega, want):
    assert estimate_splitting(maker(), omega) == want
