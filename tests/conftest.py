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

from symindex.iteration import NormalFormDecomposition  # noqa: E402
from symindex.oracle import path_from_quadratic_hamiltonian  # noqa: E402
from symindex.selftest import realize_path  # noqa: E402


def assert_same_text(got, want):
    """got == want for two str or two bytes, reporting on a mismatch the
    lengths and the first differing offset: pytest's own diff of two
    multi-megabyte texts runs for minutes."""
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        pytest.fail(f"texts of lengths {len(got)} and {len(want)} differ from offset {i}: "
                    f"{got[i:i + 60]!r} != {want[i:i + 60]!r}", pytrace=False)


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


def block_path(steps: int = 2048, **counts):
    """realize_path's path of one n = 1 block, given as its count field."""
    return realize_path(NormalFormDecomposition(n=1, **counts), steps=steps)[0]
