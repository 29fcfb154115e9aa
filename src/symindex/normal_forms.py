"""Symplectic matrices, basic normal forms, the diamond product, D_omega and nu_omega.

Coordinates are ordered (p_1..p_n, q_1..q_n), so the standard symplectic
form is J = [[0, -I], [I, 0]].  This is the one float matrix layer: D_omega,
nu_omega and the diamond layout are implemented here once, and the
crossing-count oracle runs them on its sampled paths.  The formulas take
plain float64 arrays and do no per-call validation; SymplecticMatrix checks
the symplectic relation once, when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Optional

import numpy as np

from .scalars import Scalar

__all__ = [
    "SymplecticMatrix",
    "BasicNormalForm",
    "NormalFormError",
    "standard_J",
    "symplectic_defect",
    "diamond_index_maps",
    "diamond",
    "realize",
    "realize_decomposition",
    "d_omega",
    "nu_omega",
    "nontrivial_n2_block",
    "trivial_n2_block",
]

RANK_TOL = 1e-9  # singular-value threshold for float kernels (CLI-tunable)
SYMPLECTIC_TOL = 1e-9


class NormalFormError(ValueError):
    pass


def standard_J(n: int) -> np.ndarray:
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def symplectic_defect(M: np.ndarray) -> float:
    """max |M^T J M - J| entry of a 2n x 2n float array, or over a whole
    stack (..., 2n, 2n) in one batched product."""
    J = standard_J(M.shape[-1] // 2)
    return float(np.max(np.abs(np.swapaxes(M, -1, -2) @ J @ M - J)))


class SymplecticMatrix:
    """A 2n x 2n real symplectic matrix with float64 entries.

    The symplectic relation M^T J M = J is checked once, on construction,
    to the 1e-9 tolerance.
    """

    def __init__(self, n: int, entries):
        self.n = int(n)
        self.entries = np.asarray(entries, dtype=float)
        if self.entries.shape != (2 * n, 2 * n):
            raise NormalFormError(f"expected shape {(2*n, 2*n)}, got {self.entries.shape}")
        defect = symplectic_defect(self.entries)
        if defect > SYMPLECTIC_TOL:
            raise NormalFormError(
                f"matrix is not symplectic: max |M^T J M - J| entry = {defect:.3e}")

    def as_float(self) -> np.ndarray:
        return self.entries

    def symplectic_defect(self) -> float:
        return symplectic_defect(self.entries)

    def __repr__(self):
        return f"SymplecticMatrix(n={self.n})"


# ----- basic normal forms ---------------------------------------------------


@dataclass(frozen=True)
class BasicNormalForm:
    """One of the 2x2 / 4x4 building blocks D, N1, R, N2.

    kind       : "D" | "N1" | "R" | "N2"
    lam        : eigenvalue parameter for D (+-2) and N1 (+-1)
    b          : shear parameter for N1 (one of 1, 0, -1)
    theta      : rotation angle as a Scalar of theta/pi, in (0,2) minus {1}
    b_block    : 2x2 block for N2 (must make the 4x4 matrix symplectic,
                 with b_block[0,1] != b_block[1,0])
    """

    kind: str
    lam: int = 0
    b: int = 0
    theta: Optional[Scalar] = None
    b_block: Optional[tuple] = None

    def __post_init__(self):
        if self.kind == "D":
            if self.lam not in (2, -2):
                raise NormalFormError("D(lambda) needs lambda in {2, -2}")
        elif self.kind == "N1":
            if self.lam not in (1, -1) or self.b not in (1, 0, -1):
                raise NormalFormError("N1(lambda, b) needs lambda in {1,-1}, b in {1,0,-1}")
        elif self.kind in ("R", "N2"):
            t = self.theta
            if t is None:
                raise NormalFormError(f"{self.kind} needs an angle")
            if not (Scalar.rational(0) < t < Scalar.rational(2)) or t == Scalar.rational(1):
                raise NormalFormError("angle theta/pi must lie in (0,2) minus {1}")
            if self.kind == "N2":
                bb = self.b_block
                if bb is None:
                    raise NormalFormError("N2 needs a 2x2 b block")
                if len(bb) != 2 or len(bb[0]) != 2 or len(bb[1]) != 2:
                    raise NormalFormError("b block must be 2x2")
                if bb[0][1] == bb[1][0]:
                    raise NormalFormError("N2 requires b_2 != b_3")
        else:
            raise NormalFormError(f"unknown normal form kind {self.kind!r}")

    @property
    def half_dim(self) -> int:
        return 2 if self.kind == "N2" else 1

    def sin_sign(self) -> int:
        """Sign of sin(theta), decided from the tag (theta/pi < 1 or > 1)."""
        if self.theta is None:
            raise NormalFormError("no angle")
        return 1 if self.theta < Scalar.rational(1) else -1

    def is_trivial_n2(self) -> bool:
        """Trivial iff (b_2 - b_3) sin(theta) > 0; defined only for N2."""
        if self.kind != "N2":
            raise NormalFormError("triviality is defined for N2 blocks only")
        diff = self.b_block[0][1] - self.b_block[1][0]
        val = (1 if diff > 0 else -1) * self.sin_sign()
        return val > 0


def _rotation_entries(theta: Scalar):
    """cos/sin of pi * (theta/pi); exactly 0.0 and +-1.0 at the quarter turns."""
    if theta == Scalar.rational(1, 2):
        return 0.0, 1.0
    if theta == Scalar.rational(3, 2):
        return 0.0, -1.0
    x = float(theta) * math.pi
    return math.cos(x), math.sin(x)


def _block_entries(form: BasicNormalForm) -> np.ndarray:
    """The literal float matrix of a basic normal form, unchecked."""
    if form.kind == "D":
        return np.diag([float(form.lam), 1.0 / form.lam])
    if form.kind == "N1":
        return np.array([[form.lam, form.b], [0, form.lam]], dtype=float)
    c, s = _rotation_entries(form.theta)
    R = np.array([[c, -s], [s, c]])
    if form.kind == "R":
        return R
    # N2: [[R, b], [0, R]] in (p1, p2, q1, q2) coordinates
    return np.block([[R, np.array(form.b_block, dtype=float)], [np.zeros((2, 2)), R]])


def realize(form: BasicNormalForm) -> SymplecticMatrix:
    """The literal matrix of a basic normal form."""
    try:
        return SymplecticMatrix(form.half_dim, _block_entries(form))
    except NormalFormError as exc:
        # only an N2 block can fail: its b block is free input
        raise NormalFormError(
            "N2 b block incompatible with the rotation part "
            "(R(theta)^T b must be symmetric): " + str(exc)) from exc


def nontrivial_n2_block(theta: Scalar) -> BasicNormalForm:
    """An N2(omega, b) with (b2-b3) sin(theta) < 0; here b = R(theta)."""
    c, s = _rotation_entries(theta)
    return BasicNormalForm(kind="N2", theta=theta, b_block=((c, -s), (s, c)))


def trivial_n2_block(theta: Scalar) -> BasicNormalForm:
    """An N2(omega, b) with (b2-b3) sin(theta) > 0; here b = -R(theta)."""
    c, s = _rotation_entries(theta)
    return BasicNormalForm(kind="N2", theta=theta, b_block=((-c, s), (-s, -c)))


# ----- diamond product ------------------------------------------------------


def diamond_index_maps(n1: int, n2: int):
    """Rows/columns of the n1- and n2-blocks inside their diamond product."""
    n = n1 + n2
    return [*range(n1), *range(n, n + n1)], [*range(n1, n), *range(n + n1, 2 * n)]


@lru_cache(maxsize=None)
def _diamond_slots(n1: int, n2: int):
    """diamond_index_maps as broadcasting (rows, columns) index arrays, built
    once per (n1, n2): one fancy-index assignment places a whole block."""
    return tuple((np.array(idx)[:, None], np.array(idx)) for idx in diamond_index_maps(n1, n2))


def diamond(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Block-interleaved direct sum of two 2n_i x 2n_i arrays, or of two
    stacks (..., 2n_i, 2n_i) slice by slice.

    In (p, q)-ordered coordinates this is the displayed 4-block layout:
    the p-coordinates of A come first, then those of B, then the two
    q-coordinate groups in the same order.
    """
    (rows1, cols1), (rows2, cols2) = _diamond_slots(A.shape[-1] // 2, B.shape[-1] // 2)
    size = A.shape[-1] + B.shape[-1]
    out = np.zeros(np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (size, size))
    out[..., rows1, cols1] = A
    out[..., rows2, cols2] = B
    return out


def realize_decomposition(decomp) -> SymplecticMatrix:
    """Diamond product of basic blocks matching a NormalFormDecomposition.

    Hyperbolic blocks are realized as D(2)^k (the decomposition does not
    record the D(-2) variant; either choice has empty unit spectrum).
    """
    blocks = []
    blocks += [BasicNormalForm("N1", lam=1, b=1)] * decomp.p_minus
    blocks += [BasicNormalForm("N1", lam=1, b=0)] * decomp.p_zero
    blocks += [BasicNormalForm("N1", lam=1, b=-1)] * decomp.p_plus
    blocks += [BasicNormalForm("N1", lam=-1, b=1)] * decomp.q_minus
    blocks += [BasicNormalForm("N1", lam=-1, b=0)] * decomp.q_zero
    blocks += [BasicNormalForm("N1", lam=-1, b=-1)] * decomp.q_plus
    blocks += [BasicNormalForm("R", theta=t) for t in decomp.thetas]
    blocks += [nontrivial_n2_block(t) for t in decomp.alphas]
    blocks += [trivial_n2_block(t) for t in decomp.betas]
    blocks += [BasicNormalForm("D", lam=2)] * decomp.k
    if not blocks:
        raise NormalFormError("empty decomposition")
    return SymplecticMatrix(decomp.n, reduce(diamond, map(_block_entries, blocks)))


# ----- D_omega and nu_omega -------------------------------------------------


def d_omega(mats: np.ndarray, omega, n: int) -> np.ndarray:
    """D_omega(M) = (-1)^(n-1) * conj(omega)^n * det(M - omega I) over a stack
    of 2n x 2n samples; the real part, since D_omega is real on Sp(2n) for
    unit omega up to roundoff."""
    A = mats.astype(complex) - omega * np.eye(2 * n)
    return ((-1) ** (n - 1) * np.conj(omega) ** n * np.linalg.det(A)).real


def nu_omega(M: np.ndarray, omega, tol: float = RANK_TOL) -> int:
    """dim_C ker(M - omega I) of a float array: the number of singular values
    below tol * max(1, largest)."""
    A = M.astype(complex) - omega * np.eye(M.shape[0])
    s = np.linalg.svd(A)[1]
    return int(np.sum(s < tol * max(1.0, float(s[0]))))
