import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from symindex.normal_forms import (
    BasicNormalForm,
    NormalFormError,
    SymplecticMatrix,
    diamond,
    frame_defect,
    graph_phases,
    nontrivial_n2_block,
    nu_omega,
    read_graph,
    realize,
    realize_decomposition,
    standard_J,
    symplectic_defect,
    trivial_n2_block,
)
from symindex.iteration import NormalFormDecomposition, unit_spectrum
from symindex.oracle import SPLITTING_PROBES
from symindex.scalars import Scalar


def random_symplectic(rng, n, factors=3, scale=0.4):
    """Product of exponentials of small Hamiltonian generators."""
    J = standard_J(n)
    M = np.eye(2 * n)
    for _ in range(factors):
        A = np.array([[rng.uniform(-scale, scale) for _ in range(2 * n)]
                      for _ in range(2 * n)])
        S = 0.5 * (A + A.T)
        M = M @ expm(J @ S)
    return SymplecticMatrix(n, M).entries


def block(form):
    return realize(form).entries


def test_realize_rotation_quarter_turn():
    M = realize(BasicNormalForm("R", theta=Scalar.rational(1, 2)))
    assert M.entries.tolist() == [[0.0, -1.0], [1.0, 0.0]]
    assert realize(BasicNormalForm("R", theta=Scalar.rational(3, 2))).entries.tolist() == \
        [[0.0, 1.0], [-1.0, 0.0]]


def test_realize_shear():
    M = realize(BasicNormalForm("N1", lam=1, b=1))
    assert M.entries.tolist() == [[1, 1], [0, 1]]


def test_realize_hyperbolic():
    M = realize(BasicNormalForm("D", lam=-2))
    assert M.entries.tolist() == [[-2.0, 0.0], [0.0, -0.5]]


def test_diamond_identity():
    assert diamond(np.eye(2), np.eye(2)).tolist() == np.eye(4).tolist()


def test_diamond_hyperbolic_blocks():
    D2 = block(BasicNormalForm("D", lam=2))
    M = diamond(D2, D2)
    assert M.tolist() == np.diag([2.0, 2.0, 0.5, 0.5]).tolist()


def test_diamond_layout_interleaves_p_then_q():
    A = np.arange(4.0).reshape(2, 2) + 1
    B = np.arange(16.0).reshape(4, 4) + 10
    M = diamond(A, B)
    assert M[np.ix_([0, 3], [0, 3])].tolist() == A.tolist()
    assert M[np.ix_([1, 2, 4, 5], [1, 2, 4, 5])].tolist() == B.tolist()
    assert np.count_nonzero(M) == 4 + 16


def test_diamond_random_symplectic_stays_symplectic():
    rng = random.Random(7)
    for _ in range(10):
        A = random_symplectic(rng, rng.randint(1, 3))
        B = random_symplectic(rng, rng.randint(1, 2))
        assert symplectic_defect(diamond(A, B)) <= 1e-9


@pytest.mark.parametrize("n1, n2", [(1, 1), (1, 2), (2, 1)])
def test_diamond_of_stacks_matches_slice_by_slice(n1, n2):
    rng = np.random.default_rng(10 * n1 + n2)
    A = rng.normal(size=(7, 2 * n1, 2 * n1))
    B = rng.normal(size=(7, 2 * n2, 2 * n2))
    stacked = diamond(A, B)
    assert stacked.shape == (7, 2 * (n1 + n2), 2 * (n1 + n2))
    assert np.array_equal(stacked, np.stack([diamond(a, b) for a, b in zip(A, B)]))


def test_diamond_rejects_non_symplectic_with_diagnostic():
    bad = np.array([[1.0, 0.0], [0.0, 2.0]])
    product = diamond(bad, np.eye(2))
    assert symplectic_defect(product) == symplectic_defect(bad) > 1e-9
    with pytest.raises(NormalFormError, match=r"max \|M\^T J M - J\| entry"):
        SymplecticMatrix(2, product)


def test_symplectic_constructor_rejects_bad_matrix():
    with pytest.raises(NormalFormError, match=r"max \|M\^T J M - J\| entry"):
        SymplecticMatrix(1, np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_nu_omega_examples():
    assert nu_omega(np.eye(2), 1) == 2
    assert nu_omega(block(BasicNormalForm("R", theta=Scalar.rational(1, 2))), 1) == 0
    assert nu_omega(block(BasicNormalForm("R", theta=Scalar.rational(1, 2))), 1j) == 1
    assert nu_omega(block(BasicNormalForm("N1", lam=1, b=1)), 1) == 1


def test_omega_off_the_unit_circle_is_refused():
    # W's eigenvalue 1 has the multiplicity of omega only for |omega| = 1:
    # at 2, diag(2, 1/2) read 0 where dim ker(M - 2 I) is 1, and I read 2
    for M in (np.diag([2.0, 0.5]), np.eye(2)):
        with pytest.raises(NormalFormError, match="omega must lie on the unit circle, got"):
            nu_omega(M, 2.0)
    with pytest.raises(NormalFormError, match="omega must lie on the unit circle, got"):
        read_graph(np.eye(2), 0.5j)


def test_a_graph_with_no_unitary_is_refused():
    # det M = -|M|_F^2 / 2 makes the closed form's denominator (b-c) - i(a+d)
    # vanish; the read is refused, with no division by zero
    for M in (np.diag([1.0, -1.0]), np.zeros((2, 2))):
        for read in (read_graph, nu_omega):
            with pytest.raises(NormalFormError):
                read(M, 1)


# ----- the closed-form read of a 2 x 2 M against a QR reference ----------------


def graph_draws(rng, k):
    """k each of R(t1) diag(lam, 1/lam) R(t2), lam up to 1e6, and of
    R(t1) N1(1, s) R(t2), |s| up to 1e6, a quarter of them unturned, with
    +-I and k rotations; then all of them again with the first row scaled by
    1 + 1e-9 x, a symplectic defect of 1e-9 |x|."""
    def rot(t):
        c, s = np.cos(t), np.sin(t)
        return np.stack((np.stack((c, -s), axis=-1), np.stack((s, c), axis=-1)), axis=-2)

    def turned(A):
        return rot(rng.uniform(0, 2 * math.pi, k) * (rng.random(k) < 0.75)) @ A @ rot(
            rng.uniform(0, 2 * math.pi, k) * (rng.random(k) < 0.75))

    lam = 10.0 ** rng.uniform(0, 6, k)
    hyperbolic = np.zeros((k, 2, 2))
    hyperbolic[:, 0, 0], hyperbolic[:, 1, 1] = lam, 1 / lam
    shear = np.tile(np.eye(2), (k, 1, 1))
    shear[:, 0, 1] = rng.choice((-1.0, 1.0), k) * 10.0 ** rng.uniform(-3, 6, k)
    M = np.concatenate((turned(hyperbolic), turned(shear), [np.eye(2), -np.eye(2)],
                        rot(rng.uniform(0, 2 * math.pi, k))))
    defective = M.copy()
    defective[:, 0, :] *= 1 + 1e-9 * rng.normal(size=(len(M), 1))
    return np.concatenate((M, defective))


def qr_reference(M):
    """(U(M), |a*a - I|_F) per 2 x 2 matrix of a stack, a the frame of the
    orthonormal basis Z of Gr(M) that a QR of [I; M] gives: U(M) = conj(a)
    a^-1, with a solve."""
    Z = np.linalg.qr(np.concatenate((np.broadcast_to(np.eye(2), M.shape), M), axis=-2))[0]
    a = np.stack((Z[:, 0] + 1j * Z[:, 1], Z[:, 2] - 1j * Z[:, 3]), axis=1)
    e = a.conj().swapaxes(-1, -2) @ a - np.eye(2)
    return a.conj() @ np.linalg.inv(a), np.sqrt((np.abs(e) ** 2).sum(axis=(-2, -1)))


def closed_form_failures(draw_seed: int) -> list:
    """Which of the eigen-phases of W and the frame defect, read on
    graph_draws by graph_phases and frame_defect, disagree with
    qr_reference.  The phases are read in one call at a drawn omega and at
    its splitting probes omega e^{+-ie}, e in SPLITTING_PROBES; each row
    (mod 2pi) must lie within 8u (1 + |M|_F) of the eigen-phases of the
    reference's W at its omega, the rounding the inputs carry, and the
    defect must not read below the reference's."""
    rng = np.random.default_rng(draw_seed)
    M = graph_draws(rng, 40)
    omega = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    omega = np.array([omega] + [omega * cmath.exp(1j * sign * e)
                                for e in SPLITTING_PROBES for sign in (1, -1)])
    U_ref, d_ref = qr_reference(M)
    tol = 8 * np.finfo(float).eps * (1 + np.sqrt((M * M).sum(axis=(-2, -1))))
    # U(omega I)* U_ref: U_ref's rows swapped and scaled, one stack per omega
    W_ref = np.stack((omega.conj(), omega), axis=-1)[:, None, :, None] * U_ref[:, ::-1]
    p, p_ref = graph_phases(M)(omega), np.sort(np.angle(np.linalg.eigvals(W_ref)))

    def apart(q):  # of each pair from p_ref, mod 2pi
        return np.max(np.abs((q - p_ref + math.pi) % (2 * math.pi) - math.pi), axis=-1)

    failures = []
    if not (np.minimum(apart(p), apart(p[..., ::-1])) <= tol).all():
        failures.append("phases")
    if not (frame_defect(M) >= d_ref).all():
        failures.append("defect")
    return failures


@seed(20261020)
@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_the_closed_form_read_matches_a_qr_reference(draw_seed):
    assert closed_form_failures(draw_seed) == []


def test_nu_omega_additive_over_diamond():
    rng = random.Random(3)
    R = block(BasicNormalForm("R", theta=Scalar.rational(1, 2)))
    N = block(BasicNormalForm("N1", lam=1, b=1))
    Q = random_symplectic(rng, 2)
    omegas = [1, -1, 1j, complex(math.cos(1.1), math.sin(1.1))]
    for A in (R, N, Q):
        for B in (R, N):
            for w in omegas:
                assert nu_omega(diamond(A, B), w) == nu_omega(A, w) + nu_omega(B, w)


def test_n2_triviality_classification():
    # N2(omega, b) is trivial iff (b_2 - b_3) sin(theta) > 0
    def sign_rule(form):
        (_, b2), (b3, _) = form.b_block
        return (b2 - b3) * math.sin(math.pi * float(form.theta))

    for th in (Scalar.rational(2, 5), Scalar.rational(8, 5)):   # sin > 0, sin < 0
        assert sign_rule(nontrivial_n2_block(th)) < 0
        assert sign_rule(trivial_n2_block(th)) > 0


def test_n2_equal_off_diagonal_rejected():
    with pytest.raises(NormalFormError, match="b_2 != b_3"):
        BasicNormalForm("N2", theta=Scalar.rational(2, 5), b_block=((1.0, 0.5), (0.5, 1.0)))


def test_n2_incompatible_block_rejected():
    with pytest.raises(NormalFormError):
        realize(BasicNormalForm("N2", theta=Scalar.rational(2, 5),
                                b_block=((1.0, 2.0), (-2.0, 5.0))))


def test_n2_realization_is_symplectic():
    for maker in (nontrivial_n2_block, trivial_n2_block):
        M = realize(maker(Scalar.rational(2, 5)))
        assert symplectic_defect(M.entries) <= 1e-9
        assert M.entries[2:, :2].tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_angle_domain_enforced():
    with pytest.raises(NormalFormError):
        BasicNormalForm("R", theta=Scalar.rational(1))
    with pytest.raises(NormalFormError):
        BasicNormalForm("R", theta=Scalar.rational(5, 2))


def test_unit_spectrum_rotation():
    d = NormalFormDecomposition(n=1, thetas=(Scalar.rational(1, 2),))
    spec = unit_spectrum(d)
    assert [(s.fraction, m) for s, m in spec] == [(Fraction(1, 2), 1), (Fraction(3, 2), 1)]


def test_unit_spectrum_hyperbolic_empty():
    assert unit_spectrum(NormalFormDecomposition(n=2, k=2)) == []


def test_unit_spectrum_identity_block():
    spec = unit_spectrum(NormalFormDecomposition(n=1, p_zero=1))
    assert [(s.fraction, m) for s, m in spec] == [(Fraction(0), 2)]


def test_realize_decomposition_matches_spectrum():
    d = NormalFormDecomposition(n=3, p_minus=1, q_zero=1, thetas=(Scalar.rational(2, 3),))
    M = realize_decomposition(d)
    assert M.n == 3
    assert symplectic_defect(M.entries) <= 1e-9
    assert nu_omega(M.entries, 1) == 1
    assert nu_omega(M.entries, -1) == 2
