import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
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
from symindex.ellipsoid import EllipsoidSpec, orbit_data
from symindex.normal_forms import (
    diamond,
    graph_phases,
    graph_unitary,
    nontrivial_n2_block,
    nu_omega,
    realize,
    realize_decomposition,
    standard_J,
    trivial_n2_block,
)
from symindex.oracle import (
    MAX_STEPS,
    OracleError,
    SampledSymplecticPath,
    cz_index,
    diamond_paths,
    estimate_splitting,
    extend_with_xi,
    iterate_path,
    path_from_logm,
    path_from_matrix_function,
    path_from_quadratic_hamiltonian,
    path_from_samples,
)
from symindex.scalars import Scalar
from symindex.selftest import realize_path

from conftest import block_path, rotation_path, shear_path

HALF = Scalar.rational(1, 2)


def rotation_diamond(thetas, steps: int = 2048):
    """realize_path of the diamond of t -> R(theta pi t), theta in thetas,
    Fractions that are not integers: theta mod 2 at winding floor(theta / 2),
    plus 1 when theta > 0."""
    decomp = NormalFormDecomposition(n=len(thetas), thetas=tuple(
        Scalar.from_fraction(t % 2) for t in thetas))
    return realize_path(decomp, tuple(t // 2 + (t > 0) for t in thetas), steps)


def sheared_rotation(b: int, phi: float, m: int = 1, steps: int = 256, k: int = 0):
    """(N1(1, b) diamond R(phi) diamond D(2)^k)^m, R(phi) turning by phi over
    the period, and the base path's PathIndexData, both from realize_path."""
    theta = Fraction(abs(phi) / math.pi)
    decomp = NormalFormDecomposition(
        n=2 + k, k=k, thetas=(Scalar.from_fraction(theta if phi > 0 else 2 - theta),),
        **({"p_minus": 1} if b == 1 else {"p_plus": 1}))
    path, data = realize_path(decomp, (1 if phi > 0 else -1,), steps)
    return iterate_path(path, m), data


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
    p2 = diamond_paths(block_path(128, q_minus=1), _rotation_function_path(0.7, steps=128),
                       steps=128)
    pd = diamond_paths(p1, p2, steps=128)
    assert len(pd.mats) == len(p1.mats) == len(p2.mats)
    for k in range(len(pd.mats)):
        assert np.array_equal(pd.mats[k], diamond(p1.mats[k], p2.mats[k]))


def test_oracle_shares_the_matrix_layer():
    # one nu_omega read and one J: the oracle must not grow its own copies;
    # it counts eigen-phases and takes no determinant or kernel of its own
    assert oracle.read_graph is normal_forms.read_graph
    assert oracle.graph_phases is normal_forms.graph_phases
    assert oracle.graph_unitary is normal_forms.graph_unitary
    assert not hasattr(normal_forms, "eigen_phases")
    assert oracle.standard_J is normal_forms.standard_J
    assert not hasattr(oracle, "d_omega") and not hasattr(oracle, "kernel")


def test_quadratic_path_requires_symmetric():
    with pytest.raises(OracleError):
        path_from_quadratic_hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


BAD_GRIDS = [
    (0, 1.0, "steps must lie in"),
    (-3, 1.0, "steps must lie in"),
    (MAX_STEPS + 1, 1.0, "steps must lie in"),
    (16, 0.0, "tau must be finite and > 0"),
    (16, -1.0, "tau must be finite and > 0"),
    (16, math.nan, "tau must be finite and > 0"),
    (16, math.inf, "tau must be finite and > 0"),
]


@pytest.mark.parametrize("steps, tau, message", BAD_GRIDS)
def test_quadratic_path_rejects_bad_steps_and_tau(steps, tau, message):
    with pytest.raises(OracleError, match=message):
        path_from_quadratic_hamiltonian(np.eye(2), tau, steps=steps)


@pytest.mark.parametrize("steps, tau, message", BAD_GRIDS)
def test_matrix_function_path_rejects_bad_steps_and_tau(steps, tau, message):
    # tau = 0 once gave NaN xi samples, and a huge steps an unbounded grid;
    # the function is never called
    def f(t):
        raise AssertionError("sampled a refused grid")

    with pytest.raises(OracleError, match=message):
        path_from_matrix_function(f, tau, 1, steps=steps)


def test_a_sample_list_over_the_step_cap_is_refused():
    ts = np.linspace(0.0, 1.0, MAX_STEPS + 2)
    mats = np.broadcast_to(np.eye(2), (len(ts), 2, 2))
    with pytest.raises(OracleError, match=f"steps must lie in \\[1, {MAX_STEPS}\\], "
                                          f"got {MAX_STEPS + 1}"):
        path_from_samples(ts, mats, n=1, tau=1.0)


def test_path_samples_must_start_at_identity():
    ts = [0.0, 0.5, 1.0]
    mats = [np.diag([2.0, 0.5])] * 3
    with pytest.raises(OracleError, match="identity"):
        path_from_samples(ts, mats, n=1, tau=1.0)


def test_step_bound_enforced():
    with pytest.raises(OracleError, match="step-size"):
        path_from_quadratic_hamiltonian(4.0 * np.eye(2), 6.0, steps=16)


# ----- the exponential and the logarithm ----------------------------------------
#
# scipy is the reference here only: the package computes both with numpy.

def random_hamiltonian(rng, n: int, norm1: float) -> np.ndarray:
    """J B for a random symmetric B, scaled to the given 1-norm."""
    B = rng.standard_normal((2 * n, 2 * n))
    X = standard_J(n) @ (B + B.T)
    return X * (norm1 / np.abs(X).sum(axis=0).max())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_expm_matches_scipy(n):
    rng = np.random.default_rng(n)
    for norm1 in (1e-8, 1e-4, 1e-2, 0.3, 1.0, 5.4, 10.0, 30.0, 60.0):
        for _ in range(10):
            X = random_hamiltonian(rng, n, norm1)
            want = scipy.linalg.expm(X)
            err = np.abs(oracle.expm(X) - want).max() / np.abs(want).max()
            assert err < 1e-11, (n, norm1, err)


def test_expm_of_a_stack_is_bitwise_one_call_per_slice():
    # the slices take Pade degrees 3, 5, 7, 9 and 13 with 0 to 4 squarings;
    # each slice's degree and scaling are its own
    rng = np.random.default_rng(7)
    norms = (0.0, 1e-6, 0.1, 0.5, 1.0, 2.0, 5.0, 6.0, 40.0, 60.0)
    X = np.stack([random_hamiltonian(rng, 3, c) for c in norms])
    stacked = oracle.expm(X)
    assert stacked.shape == X.shape
    for k in range(len(X)):
        assert np.array_equal(stacked[k], oracle.expm(X[k])), k
    assert np.array_equal(oracle.expm(X.reshape(5, 2, 6, 6)), stacked.reshape(5, 2, 6, 6))


N2_TARGETS = [(maker, th) for maker in (nontrivial_n2_block, trivial_n2_block)
              for th in (Scalar.rational(2, 5), Scalar.rational(8, 5))]


@pytest.mark.parametrize("maker, theta", N2_TARGETS)
def test_logm_of_the_n2_targets(maker, theta):
    M = realize(maker(theta)).as_float()
    X = oracle._logm(M)
    J = standard_J(2)
    assert np.abs(oracle.expm(X) - M).max() < 1e-13
    assert np.abs(J @ X + X.T @ J).max() < 1e-13  # Hamiltonian
    assert np.abs(X - scipy.linalg.logm(M).real).max() < 1e-13
    path = path_from_logm(M, steps=256)
    assert np.abs(path.endpoint() - M).max() < 1e-12


@pytest.mark.parametrize("target", [-np.eye(2), -np.eye(4), np.diag([-2.0, -0.5])],
                         ids=["-I2", "-I4", "diag(-2,-1/2)"])
def test_path_from_logm_refuses_negative_real_eigenvalues(target):
    with pytest.raises(OracleError, match="target has no real logarithm"):
        path_from_logm(target)


@pytest.mark.parametrize("steps", [1, 2, 3, 64, 100, 1024])
def test_doubled_samples_match_the_step_loop(steps):
    # sample i is the i-th power of the one-step exponential, built in
    # log2(steps) batched products; the reference multiplies one step at a
    # time.  B is positive definite, so the path stays bounded.
    rng = np.random.default_rng(steps)
    A = rng.standard_normal((4, 4))
    B = A @ A.T / np.abs(A @ A.T).max() + 0.1 * np.eye(4)
    tau = steps / 64
    path = path_from_quadratic_hamiltonian(B, tau, steps=steps)
    step = oracle.expm((standard_J(2) @ B) * (tau / steps))
    want = [np.eye(4)]
    for _ in range(steps):
        want.append(step @ want[-1])
    assert np.array_equal(path.mats[:2], np.stack(want[:2]))
    assert np.abs(path.mats - np.stack(want)).max() < 1e-12
    path.validate()


# ----- evaluators on a time grid ---------------------------------------------
#
# An evaluator takes a float or a 1-D array of times; on an array it must give
# exactly the stack of its pointwise values, so that sampling a grid in one
# call changes no sample bit.

def grid_path(name: str):
    rot = rotation_path(0.37, steps=64)
    func = block_path(128, q_minus=1)
    dia = diamond_paths(rot, func, steps=64)
    return {
        "quadratic": lambda: rot,
        "matrix function": lambda: func,
        "diamond": lambda: dia,
        "nested diamond": lambda: diamond_paths(dia, shear_path(1, steps=64), steps=64),
        "iterate of quadratic": lambda: iterate_path(rot, 3),
        "iterate of diamond": lambda: iterate_path(dia, 2),
    }[name]()


GRID_PATHS = ("quadratic", "matrix function", "diamond", "nested diamond",
              "iterate of quadratic", "iterate of diamond")


@pytest.mark.parametrize("name", GRID_PATHS)
def test_evaluator_on_a_grid_matches_pointwise_calls(name):
    path = grid_path(name)
    length = path.m * path.tau  # an iterate's tau is its period
    ts = np.concatenate([np.linspace(0.0, length, 41), [length / 3, 0.999999 * length]])
    stacked = path.evaluate(ts)
    assert stacked.shape == (len(ts), 2 * path.n, 2 * path.n)
    assert np.array_equal(stacked, np.stack([path.evaluate(float(t)) for t in ts]))
    assert np.array_equal(path.evaluator(ts), stacked)


def test_a_diamond_with_a_sample_only_part_is_refused():
    # interpolating the 64 samples on the 100-step grid gave diamond samples
    # of symplectic defect about 1e-4, which cz_index counted as (0, 0) at -1
    rot = rotation_path(0.5, steps=64)
    samples = path_from_samples(rot.ts, rot.mats, n=1, tau=1.0)
    with pytest.raises(OracleError, match="known only at its samples"):
        samples.evaluate(0.5)
    for p1, p2 in ((samples, rot), (rot, samples)):
        for steps in (100, 64):  # on its own grid too
            with pytest.raises(OracleError, match="known only at its samples"):
                diamond_paths(p1, p2, steps=steps)


def test_diamond_paths_samples_match_the_pointwise_construction():
    # the reference is the former construction: one diamond per grid time,
    # stacked
    rot, func = rotation_path(0.37, steps=64), block_path(128, q_minus=1)
    for p1, p2 in ((rot, func), (diamond_paths(rot, func, steps=64), shear_path(-1, steps=64))):
        pd = diamond_paths(p1, p2, steps=96)
        ts = np.linspace(0.0, p1.tau, 97)
        want = np.stack([np.asarray(diamond(p1.evaluate(t), p2.evaluate(t)), dtype=float)
                         for t in ts])
        assert np.array_equal(pd.ts, ts)
        assert np.array_equal(pd.mats, want)


def test_nested_diamond_reuses_the_inner_samples(monkeypatch):
    # a diamond takes the samples of every part on its own grid, so an outer
    # diamond on that grid exponentiates nothing; on another grid it
    # evaluates every part
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
    assert sum(slices) == 0
    assert np.array_equal(outer.mats, diamond(inner.mats, shear.mats))
    slices.clear()
    diamond_paths(inner, shear, steps=steps // 2)
    assert sum(slices) == 3 * (steps // 2 + 1)


# ----- the start sample --------------------------------------------------------

def test_the_count_starts_at_one_xi_sample():
    # diag(a, ..., 1/a, ...) with a > 1: no eigenvalue on the unit circle
    path = rotation_path(0.5, steps=64)
    for n in (1, 2, 3, 4):
        if n > 1:
            path = diamond_paths(path, rotation_path(0.3, steps=64), steps=64)
        S = extend_with_xi(path)
        a = S[0, 0]
        assert a > 1.0
        assert np.array_equal(S, np.diag([a] * n + [1.0 / a] * n)), n
        assert np.min(np.abs(np.abs(np.linalg.eigvals(S)) - 1.0)) > 1e-4, n


def test_the_start_step_is_never_halved(monkeypatch):
    # the one cut is placed on a phase of W at the start sample: the first
    # coarse step is halved at scan points down to the start step, which is
    # refused; on a constant path every other step has bound 0
    path = path_from_quadratic_hamiltonian(np.zeros((2, 2)), 1.0, steps=64)
    omega = cmath.exp(0.3j)
    start = graph_phases(graph_unitary(extend_with_xi(path))[0], omega) % (2 * math.pi)
    monkeypatch.setattr(oracle, "CUTS", start[:1].copy())
    with pytest.raises(OracleError, match="over the start step from diag"):
        cz_index(path, omega)


# ----- point evaluations -------------------------------------------------------
#
# The count takes eigen-data at samples and evaluates the path at a point
# only for a sample step it has to halve.

def count_point_evaluations(monkeypatch):
    """Record the time of every point evaluation of a path in the list
    returned, each time of an array of them."""
    calls = []
    evaluate = SampledSymplecticPath.evaluate

    def counted_evaluate(self, t):
        calls.extend(np.atleast_1d(t).tolist())
        return evaluate(self, t)

    monkeypatch.setattr(SampledSymplecticPath, "evaluate", counted_evaluate)
    return calls


def test_flat_d_omega_is_refined_once(monkeypatch):
    # Near omega = 1 the N1(1,1) shear keeps D_omega bitwise constant along
    # gamma.  A walk on D_omega once took each of those samples as a dip and
    # refined every one (about 92k point evaluations per query); the phase
    # count evaluates no point, and the splitting estimate reads the
    # endpoint alone.
    path, data = realize_path(NormalFormDecomposition(n=1, p_minus=1))
    pair = splitting_numbers(data.decomp, 1)
    calls = count_point_evaluations(monkeypatch)
    for sign, s in ((1, pair.s_plus), (-1, pair.s_minus)):
        omega = cmath.exp(1j * sign * 1e-3)
        calls.clear()
        assert cz_index(path, omega) == (index_iterate(data, 1) + s, 0)
        assert calls == []
    calls.clear()
    scans = []
    monkeypatch.setattr(oracle, "cz_index", lambda *args, **kwargs: scans.append(args))
    assert estimate_splitting(path, 1) == pair.as_tuple()
    assert scans == []
    assert calls == []


@pytest.mark.parametrize("theta, m, want, walk_budget", [
    (math.sqrt(2) / 2, 9, (7, 0), 50),
    (1.7, 3, (5, 0), 40),
])
def test_refinement_point_evaluations(monkeypatch, theta, m, want, walk_budget):
    # i(R(theta pi)^m) = 2 floor(m theta / 2) + 1.  A refining walk on
    # D_omega once took a few point evaluations per crossing (golden section
    # alone about 45) and was held to walk_budget; the count needs none.
    calls = count_point_evaluations(monkeypatch)
    assert cz_index(iterate_path(rotation_path(theta), m), 1) == want
    assert calls == [], f"{len(calls)} point evaluations (the walk was held to {walk_budget})"


# ----- the junction ------------------------------------------------------------
#
# The count starts at one sample of the xi arc, so the junction gamma(0) = I
# is an interior scan point like any other.  A path that stays at I for a while has a
# whole run of samples whose phases at omega = 1 are 0, and needs no rule of
# its own.

FLAT_STARTS = [(2.5, 3), (1.5, 1), (-0.5, -1), (4.4, 5)]  # (Phi / pi, i_1)


def flat_start(phi_over_pi: float):
    """t -> R(phi(t)) with phi = 0 on [0, 1/2] and Phi (2t - 1)^2 after."""
    def f(t):
        s = 0.0 if t <= 0.5 else phi_over_pi * math.pi * (2 * t - 1) ** 2
        return np.array([[math.cos(s), -math.sin(s)], [math.sin(s), math.cos(s)]])

    return f


def count_scans(monkeypatch):
    """Record the endpoint arc length eps of every scan in the list returned;
    0.0 is a scan without the arc."""
    arcs = []
    scan = oracle._scan

    def counted_scan(path, omega, eps, end):
        arcs.append(eps)
        return scan(path, omega, eps, end)

    monkeypatch.setattr(oracle, "_scan", counted_scan)
    return arcs


@pytest.mark.parametrize("sample_only", [False, True], ids=["function", "sample-only"])
@pytest.mark.parametrize("phi_over_pi, want", FLAT_STARTS)
def test_a_flat_start_is_counted_in_one_unperturbed_scan(monkeypatch, phi_over_pi, want,
                                                         sample_only):
    f = flat_start(phi_over_pi)
    if sample_only:  # on a nonuniform grid
        rng = np.random.default_rng(20240811)
        ts = np.concatenate(([0.0], (np.arange(1, 4096) + rng.uniform(-0.4, 0.4, 4095)) / 4096,
                             [1.0]))
        path = path_from_samples(ts, np.stack([f(t) for t in ts]), n=1, tau=1.0)
    else:
        path = path_from_matrix_function(f, 1.0, 1)
    calls = count_point_evaluations(monkeypatch)
    arcs = count_scans(monkeypatch)
    assert cz_index(path, 1) == (want, 0)
    assert calls == []
    assert arcs == [0.0]


# ----- the endpoint arc --------------------------------------------------------
#
# A degenerate endpoint M = gamma(tau) is counted by going on from M over the
# arc M e^{-sJ}, s from 0 to eps, in the one scan of gamma's own samples.

def orbit_path():
    # the first axis orbit of the ellipsoid with alphas (1, sqrt2): one full
    # turn on its own axis (1, degenerate) and a turn by 2 pi sqrt2 (3)
    return orbit_data(EllipsoidSpec(alphas=("1", "sqrt2")), 1)[1]


DEGENERATE_ENDPOINTS = [
    ("N1(1,1)^4", NormalFormDecomposition(n=1, p_minus=1), 4),
    ("R(pi/2)^4", NormalFormDecomposition(n=1, thetas=(HALF,)), 4),
    ("ellipsoid orbit", None, None),
]


@pytest.mark.parametrize("name, decomp, m", DEGENERATE_ENDPOINTS,
                         ids=[row[0] for row in DEGENERATE_ENDPOINTS])
def test_a_degenerate_endpoint_is_counted_in_one_scan(monkeypatch, name, decomp, m):
    if decomp is None:
        path, want = orbit_path(), (4, 2)
    else:
        base, data = realize_path(decomp, steps=256)
        path, want = iterate_path(base, m), (index_iterate(data, m), nullity_iterate(data, m))
    calls = count_point_evaluations(monkeypatch)
    arcs = count_scans(monkeypatch)
    assert cz_index(path, 1) == want
    assert calls == []
    assert arcs == [oracle.ARC_LENGTH]


@pytest.mark.parametrize("m, want", [(16, (7, 2)), (20, (9, 2))])
def test_a_large_endpoint_is_counted_on_the_arc(m, want):
    # gamma(tau) = diag(2^m, 2^-m) diamond I has norm 2^m, and the arc's
    # motion bound does not depend on it: the arc needs no halving and no
    # evaluator.  i of R(pi/2)^m at I is m - 1, the hyperbolic part 0.
    base = realize_path(NormalFormDecomposition(n=2, k=1, thetas=(HALF,)), steps=256)[0]
    path = iterate_path(base, m)
    ts, mats = oracle._samples(path, np.arange(m * 256 + 1))  # the iterate's every sample
    bare = SampledSymplecticPath(n=2, tau=m * path.tau, ts=ts, mats=mats)
    assert cz_index(path, 1) == want
    assert cz_index(bare, 1) == want


@pytest.mark.parametrize("phi_over_eps, want", [(0.25, ((0, 1), (1, 1))), (1.5, ((0, 1), (1, 1))),
                                                (0.75, ((0, 1), (1, 1)))])
def test_the_counts_at_eps_and_eps_over_2_must_agree(phi_over_eps, want):
    # gamma = N1(1, +-1) diamond R(phi), phi a fraction of ARC_LENGTH: W's
    # phases of R(phi) lie phi from 0, so the arc is about phi / 4 long
    # and never turns R(phi) back through I; a fixed arc of ARC_LENGTH read
    # (-2, 1) at phi = 0.25 ARC_LENGTH and raised at 0.75 ARC_LENGTH.  The
    # values are the closed forms'.
    phi = phi_over_eps * oracle.ARC_LENGTH
    for b, pair in zip((1, -1), want):
        path, data = sheared_rotation(b, phi)
        assert pair == (index_iterate(data, 1), nullity_iterate(data, 1))
        assert cz_index(path, 1) == pair, b


def test_an_arc_past_the_gap_is_refused(monkeypatch):
    # an arc longer than the gap turns R(phi) back through I at s = phi,
    # which counts -2, on the arc's second half: the counts at eps and eps / 2
    # disagree
    monkeypatch.setattr(oracle, "_arc_length", lambda gap: 1e-4)
    with pytest.raises(OracleError, match=r"unstable count under perturbation \(-2 vs 0\)"):
        cz_index(sheared_rotation(1, 0.75e-4)[0], 1)


@pytest.mark.parametrize("b", [1, -1])
def test_cz_index_needs_no_floor_above_the_phase_tolerance(b):
    # (N1(1, b) diamond R(1e-11) diamond hyperbolic)^20: |M| = 2^20 and W's
    # nearest nonzero phase 2e-10, twice PHASE_TOL; the arc, about 5e-11
    # long, still moves the phases at 0 past the rounding of the count
    path, data = sheared_rotation(b, 1e-11, m=20, steps=64, k=1)
    assert np.linalg.norm(path.endpoint(), 2) > 2 ** 19.9
    assert oracle._endpoint(path.endpoint(), 1)[:2] == (1, pytest.approx(2e-10, rel=1e-3))
    assert cz_index(path, 1) == (index_iterate(data, 20), nullity_iterate(data, 20))


@pytest.mark.parametrize("turn", [5e-10, 1e-9, 3e-9])
def test_cz_index_on_a_conjugated_large_endpoint(turn):
    # (P (R(turn / 20) diamond hyperbolic) P^-1)^20, |M| about 1.4e6: read
    # from the frame of [I; M], W's phases were off by about 1e-16 |M|, and
    # the count read (0, 0) for R(turn)'s phase just above PHASE_TOL
    A = np.random.default_rng(1).normal(size=(4, 4))
    P = oracle.expm(0.3 * standard_J(2) @ (A + A.T))
    P_inv = np.linalg.inv(P)
    base, data = realize_path(NormalFormDecomposition(
        n=2, k=1, thetas=(Scalar.from_fraction(Fraction(turn / 20 / math.pi)),)), steps=256)
    path = iterate_path(path_from_matrix_function(lambda t: P @ base.evaluate(t) @ P_inv,
                                                  1.0, 2, steps=256), 20)
    assert np.linalg.norm(path.endpoint(), 2) > 1e6
    assert cz_index(path, 1) == (index_iterate(data, 20), nullity_iterate(data, 20)) == (1, 0)


@pytest.mark.parametrize("maker", [lambda: iterate_path(shear_path(1, steps=64), 4),
                                   lambda: rotation_path(0.4, steps=64)],
                         ids=["degenerate", "nondegenerate"])
def test_the_endpoint_is_read_once(monkeypatch, maker):
    # nu_omega, the gap, the count's and the probes' phases at gamma(tau) all
    # come from one graph_unitary of it
    path = maker()
    reads = []
    unitary = normal_forms.graph_unitary

    def counted(M):
        stack = M.reshape((-1,) + M.shape[-2:])
        reads.append(sum(np.array_equal(m, path.endpoint()) for m in stack))
        return unitary(M)

    monkeypatch.setattr(normal_forms, "graph_unitary", counted)
    monkeypatch.setattr(oracle, "graph_unitary", counted)
    cz_index(path, 1)
    assert sum(reads) == 1
    estimate_splitting(path, 1)
    assert sum(reads) == 2


def test_an_arc_step_is_halved_through_the_closed_form(monkeypatch):
    path = iterate_path(shear_path(1, steps=256), 4)
    want = cz_index(path, 1)
    arc_motion, arc = oracle._arc_motion, oracle._arc
    arcs = []

    def counted_arc(M, s):
        arcs.extend(s)
        return arc(M, s)

    monkeypatch.setattr(oracle, "_arc", counted_arc)
    # a bound 2^20 times too wide: each half of the arc is halved about six times
    monkeypatch.setattr(oracle, "_arc_motion", lambda h: 2 ** 20 * arc_motion(h))
    assert cz_index(path, 1) == want
    assert len(arcs) > 2 and all(0 < s <= oracle.ARC_LENGTH for s in arcs)
    monkeypatch.setattr(oracle, "_arc_motion", lambda h: np.full_like(h, 4.0))  # past every cut
    with pytest.raises(OracleError, match=f"not resolved after {oracle.MAX_HALVINGS} halvings "
                                          f"of the endpoint arc"):
        cz_index(path, 1)


# ----- iteration -------------------------------------------------------------

def test_iterate_path_m1_identity():
    p = rotation_path(0.5, steps=128)
    assert iterate_path(p, 1) is p


def test_iterate_path_endpoint_square():
    p = shear_path(1, steps=128)
    p2 = iterate_path(p, 2)
    assert np.allclose(p2.endpoint(), p.endpoint() @ p.endpoint(), atol=1e-12)


def test_an_iterate_of_an_iterate_is_one_iterate():
    p = rotation_path(0.37, steps=128)
    twice = iterate_path(iterate_path(p, 2), 3)
    once = iterate_path(p, 6)
    assert (twice.m, twice.tau) == (once.m, once.tau) == (6, 1.0)
    assert np.array_equal(twice.endpoint(), once.endpoint())
    ts = np.linspace(0.0, 6.0, 25)
    assert np.allclose(twice.evaluate(ts), once.evaluate(ts), atol=1e-12)
    assert cz_index(twice, 1) == cz_index(once, 1)


def test_an_iterate_over_the_step_cap_is_refused_before_it_is_built():
    p = rotation_path(0.5, steps=64)
    m = MAX_STEPS // 64 + 1
    tracemalloc.start()
    try:
        with pytest.raises(OracleError, match=f"the {m}-fold iterate would have {m} x 64 "
                                              f"sample steps, more than {MAX_STEPS}"):
            iterate_path(p, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    iterate = iterate_path(p, MAX_STEPS // 64)
    assert iterate.m * (len(iterate.ts) - 1) == MAX_STEPS


def test_cz_index_takes_less_memory_than_the_iterate():
    # the count reads one period and the coarse points; the iterate's m L
    # samples alone would take m L (2n)^2 8 bytes (6.5 MB at 2,048 steps,
    # 3.2 MB at 1,024), and the motion bounds' temporaries are held to CHUNK
    # sample steps
    for steps in (2048, 1024):
        path = diamond_paths(rotation_path(1.348469, steps=steps),
                             rotation_path(1.0, steps=steps), steps=steps)
        iterate = iterate_path(diamond_paths(path, shear_path(-1, steps=steps), steps=steps), 11)
        for omega in (1, cmath.exp(0.3j)):
            tracemalloc.start()
            try:
                cz_index(iterate, omega)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            stack = iterate.m * steps * (2 * iterate.n) ** 2 * 8
            assert peak < stack, (steps, omega, peak, stack)


@pytest.mark.parametrize("name", ["iterate of quadratic", "iterate of diamond"])
def test_the_gathered_samples_are_the_iterate_stack(name):
    # the stack an iterate once held: copy j is the base's samples times P^j,
    # P^j built as P P^(j-1); the last copy keeps the base's last sample
    path = grid_path(name)
    m, L = path.m, len(path.ts) - 1
    powers = [np.eye(2 * path.n)]
    for _ in range(m):
        powers.append(path.mats[-1] @ powers[-1])
    stack = np.concatenate([path.mats[:-1] @ powers[j] for j in range(m - 1)]
                           + [path.mats @ powers[m - 1]])
    times = np.concatenate([path.ts[:-1] + j * path.tau for j in range(m - 1)]
                           + [path.ts + (m - 1) * path.tau])
    assert len(stack) == m * L + 1
    k = np.arange(m * L + 1)
    for order in (k, k[::-1], k[1::7]):  # every k, in any order or subset, in one call
        ts, mats = oracle._samples(path, order)
        assert mats.tobytes() == stack[order].tobytes()
        assert ts.tobytes() == times[order].tobytes()
    assert path.endpoint().tobytes() == stack[-1].tobytes()


def test_a_long_iterate_is_counted_from_one_period():
    # 999 periods of 1,024 steps: a stack of the iterate's samples would take
    # 32.8 MB, the count holds one period and the coarse points
    base, data = realize_path(NormalFormDecomposition(n=1, thetas=(Scalar.rational(37, 100),)),
                              steps=1024)
    path = iterate_path(base, 999)
    tracemalloc.start()
    try:
        got = cz_index(path, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (index_iterate(data, 999), nullity_iterate(data, 999)) == (369, 0)
    assert peak < 4 * 1024 * 1024, peak


# ----- the period's bounds ---------------------------------------------------
#
# Copy j of an iterate's base step has that step's motion bound, so a
# period's sample steps are bounded once, on its first count, and every
# iterate of it reads those bounds.  A test that patches _motion builds its
# paths after the patch.

def test_a_period_is_bounded_once_for_all_its_iterates(monkeypatch):
    passes = []  # the _motion calls over the period's whole sample stack
    motion = oracle._motion

    def counted(mats, n):
        if mats.shape[:-2] == (257,):
            passes.append(n)
        return motion(mats, n)

    monkeypatch.setattr(oracle, "_motion", counted)
    base, data = realize_path(NormalFormDecomposition(n=1, thetas=(Scalar.rational(37, 100),)),
                              steps=256)
    for m in range(2, 17):
        path = iterate_path(base, m)
        assert path.bounds is base.bounds
        assert cz_index(path, 1) == (index_iterate(data, m), nullity_iterate(data, m)), m
    twice = iterate_path(iterate_path(base, 3), 5)
    assert twice.bounds is base.bounds
    assert cz_index(twice, 1) == (index_iterate(data, 15), nullity_iterate(data, 15))
    assert passes == [1]


@pytest.mark.parametrize("steps", [1024, 2500])
def test_the_kept_bounds_are_a_fresh_motion_pass(steps):
    base = rotation_path(0.37, steps=steps)
    cz_index(iterate_path(base, 7), 1)
    start, cum_base = base.bounds
    S = extend_with_xi(base)
    assert start.tobytes() == oracle._motion(np.stack((S, base.mats[0])), 1)[0].tobytes()
    fresh = np.concatenate(([0.0], np.cumsum(oracle._motion(base.mats, 1))))
    assert cum_base.tobytes() == fresh.tobytes()


def test_a_diamond_of_iterates_is_its_own_period():
    a = iterate_path(rotation_path(0.3, steps=128), 2)
    b = iterate_path(rotation_path(1.1, steps=128), 2)
    path = diamond_paths(a, b, steps=256)
    assert path.m == 1 and path.bounds is not a.bounds and path.bounds is not b.bounds
    # the index of a diamond is the sum of its parts' indices
    assert cz_index(path, 1) == tuple(map(sum, zip(cz_index(a, 1), cz_index(b, 1))))
    cum_base = path.bounds[1]
    assert len(cum_base) == 257 and len(a.bounds[1]) == len(b.bounds[1]) == 129
    fresh = np.concatenate(([0.0], np.cumsum(oracle._motion(path.mats, 2))))
    assert cum_base.tobytes() == fresh.tobytes()
    cz_index(iterate_path(path, 3), 1)
    assert path.bounds[1] is cum_base


def test_a_motion_mutant_bounds_the_periods_counted_after_it(monkeypatch):
    before, data = realize_path(NormalFormDecomposition(n=1, thetas=(Scalar.rational(37, 100),)),
                                steps=256)
    assert cz_index(iterate_path(before, 3), 1) == (index_iterate(data, 3), 0)
    monkeypatch.setattr(oracle, "_motion",  # past every cut
                        lambda mats, n: np.full(mats.shape[:-3] + (len(mats) - 1,), 4.0))
    assert cz_index(iterate_path(before, 5), 1) == (index_iterate(data, 5), 0)
    after = realize_path(data.decomp, steps=256)[0]
    with pytest.raises(OracleError, match="over the start step from diag"):
        cz_index(iterate_path(after, 5), 1)


def test_a_paths_samples_cannot_be_written():
    # the kept bounds would go stale, so a write raises instead
    base = rotation_path(0.37, steps=64)
    cz_index(iterate_path(base, 3), 1)
    for path in (base, iterate_path(base, 3)):
        for a in (path.ts, path.mats, path.powers):
            with pytest.raises(ValueError, match="read-only"):
                a[-1] = 0.0
    # path_from_samples copies the caller's arrays, and a view is copied
    # before it is frozen, so the caller's arrays stay writable and their
    # writes leave the path as it was
    ts, mats = base.ts.copy(), base.mats.copy()
    path = path_from_samples(ts, mats, n=1, tau=1.0)
    view = SampledSymplecticPath(n=1, tau=1.0, ts=ts[:], mats=mats[:])
    mats[-1] = np.eye(2)
    for p in (path, view):
        assert p.mats.tobytes() == base.mats.tobytes() and p.endpoint().tobytes() == base.endpoint().tobytes()
    assert cz_index(path, 1) == cz_index(base, 1)


def test_a_count_without_the_endpoint_arc_builds_no_arc(monkeypatch):
    arcs = []
    arc = oracle._arc
    monkeypatch.setattr(oracle, "_arc", lambda M, s: arcs.append(len(s)) or arc(M, s))
    path = iterate_path(shear_path(1, steps=256), 4)
    cz_index(path, cmath.exp(0.3j))  # nu_omega = 0: eps = 0
    assert arcs == []
    assert cz_index(path, 1)[1] > 0
    assert arcs[0] == 2  # the arc's points eps / 2 and eps


# a generator with a zero row and column, |gamma(tau)^6| about 2.7e8
LARGE_B = [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0, -1.0, -0.6, -1.4, -2.2, -0.9],
           [0.0, -0.6, 1.4, -1.6, -1.0, -2.7], [0.0, -1.4, -1.6, -2.5, 0.2, 1.2],
           [0.0, -2.2, -1.0, 0.2, 0.2, -2.3], [0.0, -0.9, -2.7, 1.2, -2.3, -0.1]]


@pytest.mark.parametrize("omega", [-1, 1j])
def test_a_large_norm_iterate_obeys_the_bott_formula(omega):
    # i_omega(gamma^m) is the sum of i_z(gamma) over z^m = omega.  A step's
    # relative change read from the samples of gamma^6 itself lost its
    # accuracy with |gamma(t)^j| and was refused after 10 halvings.
    base = path_from_quadratic_hamiltonian(LARGE_B, 1.0, steps=2048)
    roots = [cmath.exp(1j * (cmath.phase(omega) + 2 * math.pi * k) / 6) for k in range(6)]
    want = np.sum([cz_index(base, z) for z in roots], axis=0).tolist()
    assert list(cz_index(iterate_path(base, 6), omega)) == want


def test_an_iterate_of_a_sample_only_path_counts_the_closed_forms():
    # no evaluator anywhere: every count is read at the samples
    rot, data = realize_path(NormalFormDecomposition(n=1, thetas=(Scalar.rational(37, 100),)),
                             steps=1024)
    base = path_from_samples(rot.ts, rot.mats, n=1, tau=1.0)
    for m in (1, 2, 5, 27, 100):
        path = iterate_path(base, m)
        assert path.evaluator is None
        for omega, over_pi in ((1, Fraction(0)), (-1, Fraction(1)),
                               (cmath.exp(0.3j * math.pi), Fraction(3, 10))):
            assert cz_index(path, omega) == bott_index(data, m, over_pi), (m, omega)


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
    p, data = realize_path(NormalFormDecomposition(n=1, thetas=(HALF,)))
    for m in range(1, 21):
        got = cz_index(iterate_path(p, m), 1)
        assert got == (index_iterate(data, m), nullity_iterate(data, m))


def test_endpoint_nullity_is_nu_omega():
    omegas = (1, -1, cmath.exp(0.5j * math.pi), cmath.exp(0.3j * math.pi))
    for path in (rotation_path(0.5, steps=256), shear_path(1, steps=256),
                 block_path(256, q_minus=1), rotation_path(0.3, steps=256)):
        for w in omegas:
            assert cz_index(path, w)[1] == nu_omega(path.endpoint(), w)


def test_full_period_nullity():
    p = rotation_path(0.5)
    _i, nu = cz_index(iterate_path(p, 4), 1)
    assert nu == 2


# every block kind realize_path offers, and rotations at windings +-1, +-2, +-3
FAMILIES = [
    ("rot_half", NormalFormDecomposition(n=1, thetas=(HALF,)), None),
    ("rot_irrational",
     NormalFormDecomposition(n=1, thetas=(Scalar.sqrt(2) * Fraction(1, 2),)), None),
    ("shear_plus", NormalFormDecomposition(n=1, p_minus=1), None),
    ("shear_minus", NormalFormDecomposition(n=1, p_plus=1), None),
    ("minus_identity", NormalFormDecomposition(n=1, q_zero=1), None),
    ("constant", NormalFormDecomposition(n=1, p_zero=1), None),
    ("hyperbolic", NormalFormDecomposition(n=1, k=1), None),
    ("clockwise", NormalFormDecomposition(n=1, thetas=(Scalar.rational(3, 2),)), (-1,)),
    ("q_minus", NormalFormDecomposition(n=1, q_minus=1), None),
    ("q_plus", NormalFormDecomposition(n=1, q_plus=1), None),
    ("rot_half_w2", NormalFormDecomposition(n=1, thetas=(HALF,)), (2,)),
    ("rot_irrational_w3",
     NormalFormDecomposition(n=1, thetas=(Scalar.sqrt(2) * Fraction(1, 2),)), (3,)),
    ("rot_2/5_w-2", NormalFormDecomposition(n=1, thetas=(Scalar.rational(2, 5),)), (-2,)),
    ("clockwise_w-3", NormalFormDecomposition(n=1, thetas=(Scalar.rational(3, 2),)), (-3,)),
]


@pytest.mark.parametrize("name,decomp,windings", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_single_block_families_match_formula(name, decomp, windings):
    path, data = realize_path(decomp, windings)
    assert cz_index(path, 1)[0] == data.i1
    for m in (1, 2, 3, 4, 5, 8, 11):
        got = cz_index(iterate_path(path, m), 1)
        want = (index_iterate(data, m), nullity_iterate(data, m))
        assert got == want, f"{name} m={m}: {got} != {want}"


@pytest.mark.parametrize("decomp, windings", [row[1:] for row in FAMILIES] + [
    (NormalFormDecomposition(n=3, p_minus=1, q_zero=1, thetas=(Scalar.rational(2, 5),)), (-2,)),
    (NormalFormDecomposition(n=4, p_plus=1, q_plus=1, k=1, thetas=(Scalar.sqrt(2) - 1,)), (3,)),
], ids=[row[0] for row in FAMILIES] + ["N1(1,1)<>-I<>R(2/5)", "N1(1,-1)<>N1(-1,-1)<>R<>D(2)"])
def test_a_realized_path_ends_at_its_normal_form(decomp, windings):
    path = realize_path(decomp, windings, steps=1024)[0]
    assert np.abs(path.endpoint() - realize_decomposition(decomp).as_float()).max() < 1e-12


@pytest.mark.parametrize("decomp, windings, message", [
    (NormalFormDecomposition(n=2, alphas=(Scalar.rational(2, 5),)), None, "N2 block"),
    (NormalFormDecomposition(n=2, betas=(Scalar.rational(2, 5),)), None, "N2 block"),
    (NormalFormDecomposition(n=1, thetas=(HALF,)), (0,), r"one nonzero turn count .* got \(0,\)"),
    (NormalFormDecomposition(n=2, thetas=(HALF, HALF)), (1,), r"per rotation \(2\), got \(1,\)"),
    (NormalFormDecomposition(n=1, p_minus=1), (1,), r"per rotation \(0\), got \(1,\)"),
], ids=["alphas", "betas", "zero winding", "too few windings", "too many windings"])
def test_realize_path_refuses_what_it_cannot_realize(decomp, windings, message):
    with pytest.raises(ValueError, match=message):
        realize_path(decomp, windings)


def test_a_winding_too_fast_for_the_grid_is_refused():
    decomp = NormalFormDecomposition(n=1, thetas=(Scalar.rational(2, 5),))
    with pytest.raises(OracleError, match="step-size bound violated"):
        realize_path(decomp, (-3,), steps=256)


def test_well_definedness_under_reparametrization():
    p = rotation_path(0.5)

    def repar(t):
        s = t * t * 0.5 * math.pi
        return np.array([[math.cos(s), -math.sin(s)], [math.sin(s), math.cos(s)]])

    q = path_from_matrix_function(repar, 1.0, 1)
    assert cz_index(p, 1) == cz_index(q, 1)
    assert cz_index(p, -1) == cz_index(q, -1)


def test_omega_must_be_unimodular():
    with pytest.raises(OracleError, match="omega must lie on the unit circle, got"):
        cz_index(rotation_path(0.5), 2.0)
    with pytest.raises(OracleError, match="omega must lie on the unit circle, got"):
        estimate_splitting(shear_path(1), 2.0)


# ----- splitting recovery ----------------------------------------------------

SPLIT_ROWS = [
    ("N1(1,1)@1", lambda: shear_path(1), 1, (1, 1)),
    ("I2@1", lambda: path_from_quadratic_hamiltonian(np.zeros((2, 2)), 1.0), 1, (1, 1)),
    ("N1(1,-1)@1", lambda: shear_path(-1), 1, (0, 0)),
    ("N1(-1,1)@-1", lambda: block_path(q_minus=1), -1, (0, 0)),
    ("-I2@-1", lambda: rotation_path(1.0), -1, (1, 1)),
    ("N1(-1,-1)@-1", lambda: block_path(q_plus=1), -1, (1, 1)),
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
    # W's phases of R(phi) lie phi from 0: fixed probes of 1e-3 and 1e-4 passed
    # them, and read (-1, -1) at 5e-5 and two disagreeing counts at 5e-4
    ("N1(1,-1)<>R(5e-5)@1", lambda: sheared_rotation(-1, 5e-5)[0], 1, (0, 0)),
    ("N1(1,-1)<>R(5e-4)@1", lambda: sheared_rotation(-1, 5e-4)[0], 1, (0, 0)),
    ("N1(1,1)<>R(-5e-5)@1", lambda: sheared_rotation(1, -5e-5)[0], 1, (1, 1)),
    # |M| = 2^20: a floor set from |M|_2 refused every gap up to about 6e-5,
    # though the probes move the phases at 0 of N1(1, +-20) past rounding
    ("(D(2)<>N1(1,1)<>R(5e-7))^20@1", lambda: sheared_rotation(1, 5e-7, 20, 64, k=1)[0],
     1, (1, 1)),
    ("(D(2)<>N1(1,-1)<>R(-5e-7))^20@1", lambda: sheared_rotation(-1, -5e-7, 20, 64, k=1)[0],
     1, (0, 0)),
    ("(D(2)<>N1(1,1)<>R(-5e-8))^20@1", lambda: sheared_rotation(1, -5e-8, 20, 64, k=1)[0],
     1, (1, 1)),
    ("(D(2)<>N1(1,-1)<>R(5e-8))^20@1", lambda: sheared_rotation(-1, 5e-8, 20, 64, k=1)[0],
     1, (0, 0)),
]


@pytest.mark.parametrize("name,maker,omega,want", SPLIT_ROWS, ids=[r[0] for r in SPLIT_ROWS])
def test_splitting_recovery(name, maker, omega, want):
    assert estimate_splitting(maker(), omega) == want


@seed(20240811)
@settings(max_examples=60, deadline=None, database=None)
@given(st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1)), st.floats(-7.0, -2.0),
                 st.integers(1, 6)))
def test_the_oracle_matches_the_closed_forms_at_small_gaps(drawn):
    # (N1(1, +-1) diamond R(+-phi))^m at 1, phi in [1e-7, 1e-2]: the arc and
    # the probes shrink with the gap m phi, which fixed lengths of 1e-4 and
    # 1e-3 passed
    b, sign, log_phi, m = drawn
    phi = sign * 10.0 ** log_phi
    path, data = sheared_rotation(b, phi, m)
    assert cz_index(path, 1) == (index_iterate(data, m), nullity_iterate(data, m))
    pair = splitting_numbers(data.decomp, 1)
    assert estimate_splitting(path, 1) == (pair.s_plus, pair.s_minus)


@pytest.mark.parametrize("b", [1, -1])
def test_a_splitting_gap_below_the_floor_is_refused(b):
    # at phi = 3e-8 the probe, 7.5e-9, moves the phase at 0 of N1(1, b) by
    # about 5.6e-17, below the rounding of the read: the estimate is refused,
    # and the index still counts
    path, data = sheared_rotation(b, 3e-8)
    with pytest.raises(OracleError, match="lies 3e-08 from 0: a probe of 7.5e-09 cannot move"):
        estimate_splitting(path, 1)
    assert cz_index(path, 1) == (index_iterate(data, 1), nullity_iterate(data, 1))


def test_cz_index_near_one_on_sheared_iterates():
    # i_omega(N1(1,1)^m) = sum over z^m = omega of i_z(N1(1,1)) = 0 off omega = 1.
    # W's phase near 0 is about 1e-8 / m.  A rank test relative to the largest
    # singular value of N1(1,m) - omega I (about m) read nu = 1 here, and the
    # count went on over the endpoint arc: (-1, 1) at m = 4 and 8.
    got = [cz_index(iterate_path(shear_path(1, steps=64), m), cmath.exp(1e-4j))
           for m in (4, 8, 16, 64)]
    assert got == [(0, 0)] * 4


def test_cz_index_on_a_large_hyperbolic_endpoint():
    # gamma(tau) = diag(2^30, 2^-30) diamond -I: sigma_min(M - I), about 1, fell
    # below 1e-9 sigma_max under the relative rank test, which read nu = 1 and
    # gave (15, 1).  W's phases at 1 are pi/2 and pi.
    base = realize_path(NormalFormDecomposition(n=2, k=1, thetas=(HALF,)), steps=256)[0]
    assert cz_index(iterate_path(base, 30), 1) == (15, 0)


def test_nu_omega_reads_a_phase_within_the_tolerance_as_0():
    # the boundary of the fixed tolerance: N1(1,1) at e^{i theta} has its phase
    # at theta^2, which reads as 0 from theta = 1e-5 down
    M = shear_path(1, steps=64).endpoint()
    p = graph_phases(graph_unitary(M)[0], cmath.exp(1e-5j))
    assert abs(np.min(np.abs(p)) - 1e-10) < 1e-14
    assert [nu_omega(M, cmath.exp(1j * t)) for t in (1e-4, 2e-5, 1e-6)] == [0, 0, 1]


def test_an_undecided_nullity_is_refused(monkeypatch):
    # a phase of W within twice the symplectic defect of M of PHASE_TOL could
    # fall on either side of it.  The tolerance is moved onto the phase of
    # N1(1,1) at e^{i 1e-4}, about 1e-8, and then just past it.
    path = shear_path(1, steps=64)
    omega = cmath.exp(1e-4j)
    phase = np.min(np.abs(graph_phases(graph_unitary(path.endpoint())[0], omega)))
    monkeypatch.setattr(normal_forms, "PHASE_TOL", phase)
    with pytest.raises(OracleError, match="so nu_omega is undecided"):
        cz_index(path, omega)
    with pytest.raises(OracleError, match="so nu_omega is undecided"):
        estimate_splitting(path, omega)
    monkeypatch.setattr(normal_forms, "PHASE_TOL", phase * (1 + 1e-3))
    assert cz_index(path, omega)[1] == 1


def test_an_endpoint_too_far_from_symplectic_for_its_nullity_is_refused():
    # a sample-only path ending at diag(1 + delta, 1), whose symplectic
    # defect, about delta, moves W's phases by about as much: at delta = 1e-10
    # its phases at 0 cannot be told from PHASE_TOL; at delta = 1e-12 they can
    ts = np.linspace(0.0, 1.0, 9)
    mats = np.stack([np.eye(2)] * 8 + [np.diag([1 + 1e-10, 1.0])])
    with pytest.raises(OracleError, match="so nu_omega is undecided"):
        cz_index(path_from_samples(ts, mats, n=1, tau=1.0), 1)
    mats[-1, 0, 0] = 1 + 1e-12
    assert cz_index(path_from_samples(ts, mats, n=1, tau=1.0), 1) == (-1, 2)


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
    path, data = rotation_diamond(thetas)
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


@pytest.mark.parametrize("coarse_bound", [0.05, 0.5, 1.5, 2.0, 8.0])
def test_the_count_does_not_depend_on_the_coarse_grid(monkeypatch, coarse_bound):
    # at 8 rad every coarse step is too long for its cut and is refined at
    # samples; at 1.5 rad (the default) only some are.  gamma^3(tau) has the
    # eigenvalue e^{i 3 (7/10) pi} = e^{i pi / 10}, so that count goes on
    # over the endpoint arc
    monkeypatch.setattr(oracle, "COARSE_BOUND", coarse_bound)
    path, data = rotation_diamond(FOUR_THETAS)
    degenerate = 3 * FOUR_THETAS[2] % 2
    assert bott_index(data, 3, degenerate)[1] > 0
    for m, over_pi in [(m, Fraction(k, 6)) for m in (1, 3) for k in range(12)] + [(3, degenerate)]:
        want = bott_index(data, m, over_pi)
        assert cz_index(iterate_path(path, m), cmath.exp(1j * math.pi * over_pi)) == want, (m, over_pi)


def test_a_refinement_round_reads_its_midpoints_at_once(monkeypatch):
    # at 8 rad every coarse step is refined.  Each round reads the phases of
    # all its midpoints in one call and counts all its halves in one
    # _count, so a count reads the endpoint, the coarse points and then
    # once per round; halving depth-first read once per halved point
    monkeypatch.setattr(oracle, "COARSE_BOUND", 8.0)
    path, data = rotation_diamond(FOUR_THETAS)
    reads, counts = [], []
    unitary, count = normal_forms.graph_unitary, oracle._count

    def counted_unitary(M):
        reads.append(len(M.reshape((-1,) + M.shape[-2:])))
        return unitary(M)

    def counted_count(p0, p1, bound):
        counts.append(len(p0))
        return count(p0, p1, bound)

    monkeypatch.setattr(normal_forms, "graph_unitary", counted_unitary)
    monkeypatch.setattr(oracle, "graph_unitary", counted_unitary)
    monkeypatch.setattr(oracle, "_count", counted_count)
    for over_pi in (Fraction(1, 6), Fraction(5, 6), Fraction(3, 2)):
        reads.clear()
        counts.clear()
        assert cz_index(path, cmath.exp(1j * math.pi * over_pi)) == bott_index(data, 1, over_pi)
        rounds = len(counts) - 1  # the coarse steps' _count, then one per round
        assert rounds >= 2 and len(reads) == 2 + rounds, (over_pi, reads, counts)
        assert sum(reads[2:]) > rounds  # some round reads more than one midpoint


def test_a_long_sample_step_is_halved_through_the_evaluator(monkeypatch):
    # four sample steps, built without validate (they break STEP_BOUND): a
    # single step moves the phases past every cut
    ts = np.linspace(0.0, 1.0, 5)
    fine, data = rotation_diamond(FOUR_THETAS)
    coarse = SampledSymplecticPath(n=4, tau=1.0, ts=ts, mats=fine.evaluate(ts),
                                   evaluator=fine.evaluator)
    calls = count_point_evaluations(monkeypatch)
    for over_pi in (Fraction(1, 12), Fraction(1, 6), Fraction(1, 3), Fraction(1)):
        omega = cmath.exp(1j * math.pi * over_pi)
        assert cz_index(coarse, omega) == bott_index(data, 1, over_pi), over_pi
    assert len(calls) > 0
    assert all(0.0 <= t <= coarse.tau for t in calls)  # on gamma's own times
    bare = SampledSymplecticPath(n=4, tau=1.0, ts=ts, mats=coarse.mats)
    # an iterate of a sample-only path has no evaluator either, and a diamond
    # with a sample-only part cannot sample its grid
    for path in (bare, iterate_path(bare, 2)):
        with pytest.raises(OracleError, match="and the path has no evaluator to halve it"):
            cz_index(path, -1)
    with pytest.raises(OracleError, match="known only at its samples"):
        diamond_paths(bare, coarse, steps=4)
