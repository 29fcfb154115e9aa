import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from symindex.normal_forms import (
    BasicNormalForm,
    NormalFormError,
    SymplecticMatrix,
    diamond,
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
