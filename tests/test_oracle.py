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
    unit_spectrum,
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
    SampledSymplecticPath,
    _PerturbedPath,
    _junction_generator,
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
    # one nu_omega and one J: the oracle must not grow its own copies; it
    # counts eigen-phases and takes no determinant or kernel of its own
    assert oracle.nu_omega is normal_forms.nu_omega
    assert oracle.standard_J is normal_forms.standard_J
    assert not hasattr(oracle, "d_omega") and not hasattr(oracle, "kernel")


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
    with pytest.raises(OracleError, match="step-size"):
        path_from_quadratic_hamiltonian(4.0 * np.eye(2), 6.0, steps=16)


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


def test_nested_diamond_reuses_the_inner_samples(monkeypatch):
    # an outer diamond on the inner diamond's grid takes its samples instead
    # of exponentiating the inner parts again; on another grid it evaluates
    steps = 64
    inner = diamond_paths(rotation_path(0.37, steps=steps), rotation_path(1.0, steps=steps),
                          steps=steps)
    shear = shear_path(-1, steps=steps)
    slices = []
    expm = oracle.expm

    def counted(A):
        slices.append(A.shape[0] if A.ndim == 3 else 1)
        return expm(A)

    monkeypatch.setattr(oracle, "expm", counted)
    outer = diamond_paths(inner, shear, steps=steps)
    assert sum(slices) == steps + 1  # the shear's grid alone
    assert np.array_equal(outer.mats, diamond(inner.mats, shear.evaluate(outer.ts)))
    slices.clear()
    diamond_paths(inner, shear, steps=steps // 2)
    assert sum(slices) == 3 * (steps // 2 + 1)


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
# The xi arc of extend_with_xi builds all samples in one xi_matrix call; the
# loops below take one sample at a time, as the reference.  The results
# must be equal, not merely close.  ref_sample_mats forms the perturbed
# samples M e^{sJ} one product at a time.

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
            for t in (ext.ts[1], pp.t0, 0.5 * (pp.t0 + pp.T), pp.T):
                want = ext.evaluate(t) @ ref_rot(pp, t)
                assert np.array_equal(pp.evaluate(t), want), (name, pert, t)
            # the stack takes numpy's vectorised cos and sin, which may differ
            # from the scalar ones in the last bit
            j = ext.junction_index
            want = ref_sample_mats(pp)[j:]
            got = pp.samples(np.s_[j:])
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), name
        assert np.array_equal(_PerturbedPath(ext, 0.0).samples(np.s_[:]), ext.mats), name
        seen.add(path.n)
    assert seen == {1, 2, 3, 4}


# ----- D_omega against closed forms -------------------------------------------
#
# d_omega takes the complex LU determinant.  On the xi arc D_omega has a
# closed form, a 2 x 2 determinant has the entry formula, and at real omega
# the determinant is real; each is kept here as a reference for the LU.

OMEGAS = (1, -1, cmath.exp(0.3j), cmath.exp(1e-3j), cmath.exp(-1e-3j))


def xi_closed_form(mats, omega, n):
    """D_omega of xi_matrix samples diag(a, ..., 1/a, ...):
    -(a + 1/a - 2 Re omega)^n, with each sample's own a and 1/a."""
    return -(mats[:, 0, 0] + mats[:, n, n] - 2 * omega.real) ** n


@pytest.mark.parametrize("omega", OMEGAS)
def test_xi_d_omega_matches_lu(omega):
    tau = 0.7
    ts = np.linspace(0.0, tau, 513)[:-1]
    for n in (1, 2, 3, 4):
        mats = xi_matrix(n, ts, tau)
        got = xi_closed_form(mats, complex(omega), n)
        want = d_omega(mats, complex(omega), n)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), n
        assert np.all(want < 0), n
        assert int(np.argmax(np.abs(want))) == 0 and abs(want[0]) >= 2.0 ** -n, n


@pytest.mark.parametrize("omega", [w for w in OMEGAS if isinstance(w, complex)])
def test_two_by_two_d_omega_matches_lu(omega):
    seen = 0
    for name, path in sampled_inputs():
        if path.n != 1:
            continue
        ext = extend_with_xi(path)
        A = ext.mats - omega * np.eye(2)
        got = (np.conj(omega) * (A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0])).real
        want = d_omega(ext.mats, omega, 1)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name
        seen += 1
    assert seen == 4


@pytest.mark.parametrize("omega", (1, -1, 1 + 0j, -1 + 0j, 1.0, -1.0))
def test_d_omega_at_real_omega_is_real_arithmetic(omega):
    w = float(complex(omega).real)
    for name, path in sampled_inputs():
        ext = extend_with_xi(path)
        n = path.n
        got = d_omega(ext.mats, omega, n)
        assert got.dtype == np.float64, name
        want = (-1) ** (n - 1) * w ** n * np.linalg.det(ext.mats - w * np.eye(2 * n))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name


# ----- the junction logarithm ------------------------------------------------
#
# windowed_generator takes log M1 M0^{-1} over a 4-sample window at the
# junction by the Gregory series; scipy's logm is the reference.

def junction_windows():
    for name, path in sampled_inputs():
        ext = extend_with_xi(path)
        step = ext.ts[ext.junction_index + 1] - ext.ts[ext.junction_index]
        for pert in (0.0, 1e-4):
            pp = _PerturbedPath(ext, pert)
            M0, M1 = pp.evaluate(pp.t0), pp.evaluate(pp.t0 + 4 * step)
            yield f"{name} pert={pert}", M1 @ np.linalg.inv(M0)


def hamiltonian_exponentials():
    rng = np.random.default_rng(20240811)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            B = rng.standard_normal((2 * n, 2 * n))
            X = standard_J(n) @ (B + B.T)
            X *= rng.uniform(0.05, 0.5) / np.linalg.norm(X, 2)
            yield f"e^X n={n}", oracle.expm(X)


def test_series_log_matches_scipy_logm():
    from scipy.linalg import logm

    names = set()
    for name, M in [*junction_windows(), *hamiltonian_exponentials()]:
        X = oracle._series_log(M, name)
        assert np.max(np.abs(X - logm(M))) <= 1e-12, name
        J = standard_J(len(M) // 2)
        assert np.max(np.abs(J @ X + X.T @ J)) <= 1e-12, name
        names.add(name.split()[0])
    assert {"shear", "diamond", "e^X"} <= names


@pytest.mark.parametrize("M, message", [
    # Z = (M - I)(M + I)^{-1} has spectral radius tan(0.48 pi), about 16
    (np.array([[math.cos(0.96 * math.pi), -math.sin(0.96 * math.pi)],
               [math.sin(0.96 * math.pi), math.cos(0.96 * math.pi)]]), "does not converge"),
    (-np.eye(2), "M \\+ I is singular"),
])
def test_series_log_fails_with_the_window_named(M, message):
    with pytest.raises(OracleError, match=f"the junction window \\[1, 1.1\\].*{message}"):
        oracle._series_log(M, "the junction window [1, 1.1]")


# ----- the windowed generator -------------------------------------------------
#
# The junction's half signature takes its generator from windowed_generator
# over the first four sample steps.  On a quadratic path that is the
# constant generator B, over any window inside [0, T].

def test_windowed_generator_of_a_quadratic_path_is_its_generator():
    rng = np.random.default_rng(20240811)
    for n in (1, 2, 3):
        B = rng.standard_normal((2 * n, 2 * n))
        B = B + B.T
        B *= 2.0 / np.linalg.norm(B, 2)
        pp = _PerturbedPath(extend_with_xi(path_from_quadratic_hamiltonian(B, 1.0)), 0.0)
        h = (pp.T - pp.t0) * 2e-6
        for t in (pp.t0 + 0.3, pp.t0 + 0.77, pp.T - h):
            S = pp.windowed_generator(t, h)
            assert np.max(np.abs(S - B)) <= 1e-8, (n, t)
        assert np.max(np.abs(_junction_generator(pp) - B)) <= 1e-8, n


# ----- point evaluations -------------------------------------------------------
#
# The count takes eigen-data at samples and evaluates the path at a point
# only for the junction's generator and for a sample step it has to halve.

def count_point_evaluations(monkeypatch):
    """Record the time of every point evaluation of a perturbed path in the
    list returned."""
    calls = []
    evaluate = _PerturbedPath.evaluate

    def counted_evaluate(self, t):
        calls.append(t)
        return evaluate(self, t)

    monkeypatch.setattr(_PerturbedPath, "evaluate", counted_evaluate)
    return calls


def test_flat_d_omega_is_refined_once(monkeypatch):
    # Near omega = 1 the N1(1,1) shear keeps D_omega bitwise constant along
    # gamma.  A walk on D_omega once took each of those samples as a dip and
    # refined every one (about 92k point evaluations per query); the phase
    # count has no refinement and evaluates no point off the junction, and
    # the splitting estimate reads the endpoint alone.
    path = shear_path(1)
    data = PathIndexData(NormalFormDecomposition(n=1, p_minus=1), i1=-1)
    pair = splitting_numbers(data.decomp, 1)
    ext = extend_with_xi(path)
    calls = count_point_evaluations(monkeypatch)
    for sign, s in ((1, pair.s_plus), (-1, pair.s_minus)):
        omega = cmath.exp(1j * sign * 1e-3)
        d = d_omega(ext.mats[ext.junction_index:], omega, 1)
        assert np.unique(np.abs(d)).size == 1
        calls.clear()
        assert cz_index(path, omega) == (index_iterate(data, 1) + s, 0)
        assert len(calls) <= 200
    calls.clear()
    scans = []
    monkeypatch.setattr(oracle, "cz_index", lambda *args, **kwargs: scans.append(args))
    assert estimate_splitting(path, 1) == pair.as_tuple()
    assert scans == []
    assert calls == []


@pytest.mark.parametrize("theta, m, want, budget", [
    (math.sqrt(2) / 2, 9, (7, 0), 50),
    (1.7, 3, (5, 0), 40),
])
def test_refinement_point_evaluations(monkeypatch, theta, m, want, budget):
    # i(R(theta pi)^m) = 2 floor(m theta / 2) + 1.  A refining walk on
    # D_omega once took a few point evaluations per crossing (golden section
    # alone about 45); the count needs two, for the junction's generator.
    calls = count_point_evaluations(monkeypatch)
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
    # the probes meet two crossings inside one sample step
    ("R(2.5pi)@1", lambda: rotation_path(2.5), 1, (0, 0)),
    ("R(0.4pi)<>N1(1,1)@1", lambda: diamond_paths(rotation_path(0.4), shear_path(1)), 1, (1, 1)),
    # five index scans per estimate once raised, or read (0, 0), on these
    ("N1(1,1)^4@1", lambda: iterate_path(shear_path(1, steps=64), 4), 1, (1, 1)),
    ("N1(1,1)^64@1", lambda: iterate_path(shear_path(1, steps=64), 64), 1, (1, 1)),
    ("R(0.4pi)^5<>N1(1,1)^5@1", lambda: diamond_paths(
        iterate_path(rotation_path(0.4, steps=64), 5), iterate_path(shear_path(1, steps=64), 5),
        steps=64), 1, (2, 2)),
    ("(R(0.4pi)<>N1(1,1))^5@1", lambda: iterate_path(diamond_paths(
        rotation_path(0.4, steps=64), shear_path(1, steps=64), steps=64), 5), 1, (2, 2)),
]


@pytest.mark.parametrize("name,maker,omega,want", SPLIT_ROWS, ids=[r[0] for r in SPLIT_ROWS])
def test_splitting_recovery(name, maker, omega, want):
    assert estimate_splitting(maker(), omega) == want


@pytest.mark.xfail(strict=True, reason="nu_omega's rank test is relative to the largest "
                   "singular value, which grows with m while the smallest shrinks like 1/m")
def test_cz_index_near_one_on_sheared_iterates():
    # i_omega(N1(1,1)^m) = sum over z^m = omega of i_z(N1(1,1)) = 0 off omega = 1.
    # The smallest singular value of N1(1,m) - omega I is about 1e-8 / m, below
    # RANK_TOL times the largest (about m), so nu_omega reads 1 and the count
    # runs on the perturbed path: (-1, 1) at m = 4 and 8.
    got = [cz_index(iterate_path(shear_path(1, steps=64), m), cmath.exp(1e-4j)) for m in (4, 8)]
    assert got == [(0, 0), (0, 0)]


# ----- crossings closer than one sample step ---------------------------------
#
# A walk on the sign of D_omega read two crossings of the same sign inside one
# sample step as a touch, and counted 0 for 2.  Every row below was miscounted
# that way; the values are the closed forms'.

def two_rotations():
    return diamond_paths(rotation_path(7 / 6, steps=1024),
                         rotation_path(2 * math.sqrt(21) - 8, steps=1024), steps=1024)


def three_rotations():
    return diamond_paths(diamond_paths(rotation_path(0.3), rotation_path(math.sqrt(2) / 2)),
                         rotation_path(1.3))


CLOSE_CROSSINGS = [
    ("R(2.5pi) e^(i1e-3)", lambda: rotation_path(2.5), cmath.exp(1e-3j), (3, 0)),
    ("R(2.5pi) e^(-i1e-3)", lambda: rotation_path(2.5), cmath.exp(-1e-3j), (3, 0)),
    ("R(2.5pi) e^(i1e-4)", lambda: rotation_path(2.5), cmath.exp(1e-4j), (3, 0)),
    ("R(1.7pi)^5 e^(i1e-3)", lambda: iterate_path(rotation_path(1.7), 5), cmath.exp(1e-3j),
     (9, 0)),
    ("R(1.7pi)^5 e^(-i1e-4)", lambda: iterate_path(rotation_path(1.7), 5), cmath.exp(-1e-4j),
     (9, 0)),
    ("three rotations^16 e^(0.4pi i)", lambda: iterate_path(three_rotations(), 16),
     cmath.exp(0.4j * math.pi), (37, 0)),
    ("three rotations^16 e^(i1e-3)", lambda: iterate_path(three_rotations(), 16),
     cmath.exp(1e-3j), (37, 0)),
    ("R(7/6pi)<>R((2sqrt21-8)pi) -1", two_rotations, -1, (4, 0)),
    ("R(7/6pi)<>R((2sqrt21-8)pi)^3 1", lambda: iterate_path(two_rotations(), 3), 1, (6, 0)),
    ("R(0.4pi)<>N1(1,1) e^(i1e-3)", lambda: diamond_paths(rotation_path(0.4), shear_path(1)),
     cmath.exp(1e-3j), (1, 0)),
]


@pytest.mark.parametrize("name,maker,omega,want", CLOSE_CROSSINGS,
                         ids=[r[0] for r in CLOSE_CROSSINGS])
def test_crossings_closer_than_one_sample_step(name, maker, omega, want):
    assert cz_index(maker(), omega) == want


# ----- the oracle against the closed forms on generated diamonds --------------
#
# The reference is Long's Bott-type formula (Index Theory for Symplectic
# Paths, 2002): i_omega(gamma^m) is the sum of i_z(gamma) over z^m = omega, with
#   i_z = i_1 + S+(1) + sum over eigen-angles in (0, arg z) of (S+ - S-) - S-(z),
# every term from splitting_numbers and unit_spectrum.  It stays in this
# module, apart from the package, so that it checks the oracle and the closed
# forms against each other.

def rotation_i1(theta: Fraction) -> int:
    """i_1 of t -> R(theta pi t) on [0, 1], theta not an integer."""
    k = 2 * math.floor(abs(theta) / 2) + 1
    return k if theta > 0 else -k


def bott_index(data: PathIndexData, m: int, omega_over_pi):
    """(i, nu) of gamma^m at omega = e^{i pi omega_over_pi}, omega_over_pi a
    Fraction or a float in [0, 2); every eigen-angle of data is rational."""
    decomp = data.decomp
    spectrum = [(phi, phi.fraction, mult) for phi, mult in unit_spectrum(decomp)]
    index = nu = 0
    for k in range(m):
        a = (omega_over_pi + 2 * k) / m  # arg z / pi
        index += data.i1
        if a != 0:
            index += splitting_numbers(decomp, 1).s_plus
            for phi, f, _ in spectrum:
                pair = splitting_numbers(decomp, phi)
                if 0 < f < a:
                    index += pair.s_plus - pair.s_minus
                elif f == a:
                    index -= pair.s_minus
        nu += sum(mult for _, f, mult in spectrum if f == a)  # rotations are semisimple
    return index, nu


@st.composite
def rotation_diamonds(draw):
    thetas = []
    for _ in range(draw(st.integers(1, 3))):
        if thetas and draw(st.booleans()):
            # crossings of omega less than one sample step (theta / 2048) apart
            thetas.append(thetas[-1] + Fraction(draw(st.sampled_from((-3, -1, 1, 2))), 8192))
        else:
            # a rotation of either direction by up to 4 pi; 97 divides no
            # numerator, so no angle here or above is an integer
            turns, rest = draw(st.integers(0, 3)), draw(st.integers(1, 96))
            thetas.append(draw(st.sampled_from((1, -1))) * Fraction(97 * turns + rest, 97))
    m = draw(st.integers(1, 8))
    if draw(st.booleans()):
        point = Fraction(draw(st.integers(1, 23)), 12)
    else:
        point = (m * draw(st.sampled_from(thetas))) % 2  # on the spectrum of gamma^m
    return thetas, m, point


@seed(20240811)
@settings(max_examples=30, deadline=None, database=None)
@given(rotation_diamonds())
def test_oracle_matches_the_bott_formula_on_rotation_diamonds(drawn):
    thetas, m, point = drawn
    path = rotation_path(float(thetas[0]))
    for theta in thetas[1:]:
        path = diamond_paths(path, rotation_path(float(theta)))
    decomp = NormalFormDecomposition(n=len(thetas), thetas=tuple(
        Scalar.rational((t % 2).numerator, (t % 2).denominator) for t in thetas))
    data = PathIndexData(decomp, i1=sum(rotation_i1(t) for t in thetas))
    iterate = iterate_path(path, m)
    eps_over_pi = 1e-3 / math.pi
    for omega, over_pi in ((1, Fraction(0)), (-1, Fraction(1)),
                           (cmath.exp(1e-3j), eps_over_pi), (cmath.exp(-1e-3j), 2 - eps_over_pi),
                           (cmath.exp(1j * math.pi * point), point)):
        assert cz_index(iterate, omega) == bott_index(data, m, over_pi), (omega, over_pi)


# ----- halving a step whose cut is too near ------------------------------------
#
# Four rotations spread eight eigen-phases of W around the circle, so some
# steps find no cut farther from them than their motion bound.

FOUR_THETAS = (Fraction(13, 10), Fraction(-29, 10), Fraction(7, 10), Fraction(18, 5))


def four_rotations(steps):
    path = rotation_path(float(FOUR_THETAS[0]), steps=steps)
    for theta in FOUR_THETAS[1:]:
        path = diamond_paths(path, rotation_path(float(theta), steps=steps), steps=steps)
    return path


def four_rotations_index(omega_over_pi):
    decomp = NormalFormDecomposition(n=4, thetas=tuple(
        Scalar.rational((t % 2).numerator, (t % 2).denominator) for t in FOUR_THETAS))
    data = PathIndexData(decomp, i1=sum(rotation_i1(t) for t in FOUR_THETAS))
    return bott_index(data, 1, omega_over_pi)


@pytest.mark.parametrize("coarse_bound", [0.05, 0.5, 8.0])
def test_the_count_does_not_depend_on_the_coarse_grid(monkeypatch, coarse_bound):
    # at 8 rad every coarse step is too long for its cut and is halved at
    # samples; at 0.5 rad (the default) only some are
    monkeypatch.setattr(oracle, "COARSE_BOUND", coarse_bound)
    path = four_rotations(2048)
    for k in range(12):
        want = four_rotations_index(Fraction(k, 6))
        assert cz_index(path, cmath.exp(1j * math.pi * k / 6)) == want, k


def test_a_long_sample_step_is_halved_through_the_evaluator(monkeypatch):
    # four sample steps, built without validate (they break STEP_BOUND): a
    # single step moves the phases past every cut
    ts = np.linspace(0.0, 1.0, 5)
    fine = four_rotations(2048)
    coarse = SampledSymplecticPath(n=4, tau=1.0, ts=ts, mats=fine.evaluate(ts),
                                   evaluator=fine.evaluator)
    calls = count_point_evaluations(monkeypatch)
    for over_pi in (Fraction(1, 12), Fraction(1, 6), Fraction(1, 3), Fraction(1)):
        omega = cmath.exp(1j * math.pi * over_pi)
        assert cz_index(coarse, omega) == four_rotations_index(over_pi), over_pi
    assert len(calls) > 0
    bare = SampledSymplecticPath(n=4, tau=1.0, ts=ts, mats=coarse.mats)
    # an iterate or a diamond of a sample-only path has no evaluator either:
    # interpolated samples are not symplectic, so the motion bound fails there
    for path in (bare, iterate_path(bare, 2)):
        with pytest.raises(OracleError, match="and the path has no evaluator to halve it"):
            cz_index(path, -1)
    assert diamond_paths(bare, coarse, steps=4).evaluator is None
