import math
import os
import random

# One BLAS thread, set before numpy loads BLAS: the matrices are tiny, and an
# idle OpenBLAS thread spinning on a second core slows the oracle tests
# several-fold whenever another process needs that core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from symindex import NormalFormDecomposition, PathIndexData, Scalar  # noqa: E402
from symindex.oracle import path_from_matrix_function, path_from_quadratic_hamiltonian  # noqa: E402


@pytest.fixture
def rng():
    return random.Random(20240811)


def rotation_path(theta_times_pi: float, tau: float = 1.0, steps: int = 2048):
    """gamma(t) = R(theta * t / tau) from the quadratic generator."""
    w = theta_times_pi * math.pi / tau
    return path_from_quadratic_hamiltonian(w * np.eye(2), tau, steps=steps)


def shear_path(b: int, tau: float = 1.0, steps: int = 2048):
    """gamma(t) ending at N1(1, b); generator diag(0, -b)."""
    return path_from_quadratic_hamiltonian(np.diag([0.0, -float(b)]), tau, steps=steps)


def n1_minus_path(b: int, tau: float = 1.0, steps: int = 2048):
    """gamma(t) = R(t pi) N1(1, -b t/tau), ending at N1(-1, b)."""

    def f(t):
        s = math.pi * t / tau
        c = -b * t / tau
        R = np.array([[math.cos(s), -math.sin(s)], [math.sin(s), math.cos(s)]])
        return R @ np.array([[1.0, c], [0.0, 1.0]])

    return path_from_matrix_function(f, tau, 1, steps=steps)


def rot_data(theta: Scalar, i1: int = 1) -> PathIndexData:
    return PathIndexData(NormalFormDecomposition(n=1, thetas=(theta,)), i1=i1)
