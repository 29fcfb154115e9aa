"""Symplectic matrices, basic normal forms, the diamond product and nu_omega.

Coordinates are ordered (p_1..p_n, q_1..q_n), so the standard symplectic
form is J = [[0, -I], [I, 0]].  This is the one float matrix layer: the
eigen-phases of W, nu_omega and the diamond layout are implemented here
once, and the crossing-count oracle runs them on its sampled paths.  Every
eigen-phase of W is read by one reader, graph_phases: in real closed form
from M's four entries and omega for a 2 x 2 M, else from the unitary U(M)
of an orthonormal basis of the graph of M, so its error is M's own
O(u |M|).  read_graph and nu_omega are built on it and on phase_nullity.
The formulas take plain float64 arrays and do no per-call validation;
SymplecticMatrix checks the symplectic relation once, when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Optional

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
    "unit_omega",
    "graph_phases",
    "frame_defect",
    "phase_nullity",
    "read_graph",
    "nu_omega",
    "nontrivial_n2_block",
    "trivial_n2_block",
]

SYMPLECTIC_TOL = 1e-9
PHASE_TOL = 1e-10  # eigen-phases of W within this of 0 (rad) are counted by nu_omega


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


# ----- the eigen-phases of W and nu_omega --------------------------------------
#
# Gr(M) = {(x, Mx)} is Lagrangian for (-J) + J on C^{4n}, so it is the graph
# of a unitary U(M) from the +1 to the -1 eigenspace of H = i diag(-J, J).
# W = U(omega I)* U(M) has eigenvalue 1 with multiplicity nu_omega(M)
# (Robbin and Salamon, Topology 32, 1993; Beck and Malham, Proc. AMS 143,
# 2015).  W is normal, so the distance of an eigenvalue from 1 is a singular
# value of W - I, and its phases do not scale with |M|.


def unit_omega(omega) -> complex:
    """omega as a complex number, refused with NormalFormError off the unit
    circle (to 1e-9), where W's eigenvalue 1 no longer has the multiplicity
    of the eigenvalue omega of M: at 2, diag(2, 1/2) reads 0 and I reads 2."""
    omega = complex(omega)
    if abs(abs(omega) - 1.0) > 1e-9:
        raise NormalFormError(f"omega must lie on the unit circle, got {omega!r}")
    return omega


def _frame(M: np.ndarray) -> np.ndarray:
    """a = sqrt2 B+* Z per matrix of a stack M, Z the orthonormal basis of
    Gr(M) that a QR of [I; M] gives.  B+ and B- are the orthonormal +1 and
    -1 eigenbases of H spanned by (u, -iu, 0, 0), (0, 0, u, iu) and by
    (u, iu, 0, 0), (0, 0, u, -iu), u in C^n; Z is real, so sqrt2 B-* Z is
    conj(a), and U(M) = conj(a) a^{-1} for any basis.  a*a - I = Z*HZ
    vanishes when M is symplectic: then a is unitary, and U(M) = conj(a) a*."""
    k = M.shape[-1]
    n = k // 2
    Z = np.empty(M.shape[:-2] + (2 * k, k))
    Z[..., :k, :] = np.eye(k)
    Z[..., k:, :] = M
    Z = np.linalg.qr(Z)[0]
    return np.concatenate((Z[..., :n, :] + 1j * Z[..., n:k, :],
                           Z[..., k:k + n, :] - 1j * Z[..., k + n:, :]), axis=-2)


def _times_u_omega(U: np.ndarray, omega) -> np.ndarray:
    """U(omega I)* U per U of a stack, with one leading row per omega of an
    array of them: U(omega I) = [[0, conj(omega) I], [omega I, 0]] is its
    own adjoint, so the product swaps the two row blocks of U and scales
    them."""
    omega = np.asarray(omega, dtype=complex)
    omega = omega.reshape(omega.shape + (1,) * U.ndim)
    n = U.shape[-1] // 2
    return np.concatenate((omega.conj() * U[..., n:, :], omega * U[..., :n, :]), axis=-2)


def _read2(M: np.ndarray):
    """graph_phases of a stack of 2 x 2 M = [[a, b], [c, d]], in real
    arithmetic.  [I; M] has the frame A = [[1, i], [a - ic, b - id]], so
    U(M) = conj(A) A^-1 = [[s + t, -2i], [-2i det M, s - t]] / D, with
    s = b + c, t = i(a - d) and D = det A = (b - c) - i(a + d).  At
    omega = e^{i phi}, det W = -conj(D) / D, so W e^{-i half}, half =
    pi/2 + atan2(a + d, b - c), has determinant 1: it is [[x, -conj y],
    [y, conj x]] with x = -conj(omega) e / |D|, e = det M + 1, and
    y = -i omega (s + t) / |D|.  Its eigenvalues are e^{+-i turn} with
    cos turn = Re x and sin turn = |(Im x, |y|)|, where |D| cancels: turn =
    atan2(|(e sin phi, b + c, a - d)|, -e cos phi), and W's phases are
    half +- turn, taken mod 2pi (a phase just below 0 may round to 2pi).
    atan2 keeps their error O(u (1 + |M|_F)) at a double eigenvalue too,
    where the roots of the characteristic polynomial lose sqrt(u).  D = 0,
    a singular A, is refused."""
    a, b, c, d = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
    trace, skew = a + d, b - c
    if not np.logical_or(trace, skew).all():
        raise NormalFormError("the graph of M has a singular frame: M is far from symplectic")
    half = np.arctan2(trace, skew) + 0.5 * math.pi
    e = a * d - b * c + 1.0
    r = np.hypot(b + c, a - d)

    def phases(omega):
        w = np.asarray(omega, dtype=complex)
        w = w.reshape(w.shape + (1,) * half.ndim)
        turn = np.arctan2(np.hypot(w.imag * e, r), -w.real * e)
        p = np.empty(turn.shape + (2,))
        np.add(half, turn, out=p[..., 0])
        np.subtract(half, turn, out=p[..., 1])
        return np.remainder(p, 2 * math.pi, out=p)

    return phases


def graph_phases(M: np.ndarray) -> Callable:
    """The one reader of W's eigen-phases.  For a stack M (..., 2n, 2n), the
    function of omega that gives the eigen-phases in [0, 2pi) of W =
    U(omega I)* U(M), shape M.shape[:-2] + (2n,) at one omega, with one
    leading row per omega of an array of them.  M is read once, and each
    call at omega reads only its phases: for a 2 x 2 M in real closed form
    (_read2), else from U(M) = conj(a) a* of the QR frame a (_frame), by
    eigvals.  omega is taken as it is (unit_omega refuses one off the unit
    circle)."""
    if M.shape[-1] == 2:
        return _read2(M)
    a = _frame(M)
    U = (a @ a.swapaxes(-1, -2)).conj()
    return lambda omega: np.angle(np.linalg.eigvals(_times_u_omega(U, omega))) % (2 * math.pi)


def frame_defect(M: np.ndarray) -> np.ndarray:
    """d = |a*a - I|_F per matrix of a stack M, the defect of the frame a of
    an orthonormal basis of Gr(M) (_frame); a symplectic defect of M moves
    W's phases by about d.  For a 2 x 2 M it is taken in closed form:
    Z*HZ = i (det M - 1) G^T J G for the orthonormal Z = [I; M] G, so
    d = sqrt2 |det M - 1| / |(D, det M - 1)|, the root of 1 + |M|_F^2 +
    det^2 M (D of _read2).  det M's rounding, 2u (|ad| + |bc|), is added to
    |det M - 1|, and 16u to d, above a QR frame's floor (about 9u)."""
    if M.shape[-1] == 2:
        a, b, c, d = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
        ad, bc = a * d, b * c
        q, u = ad - bc - 1, np.finfo(float).eps
        return (math.sqrt(2) * (np.abs(q) + 2 * u * (np.abs(ad) + np.abs(bc)))
                / np.hypot(np.hypot(b - c, a + d), q) + 16 * u)
    a = _frame(M)
    e = a.conj().swapaxes(-1, -2) @ a - np.eye(M.shape[-1])
    return np.sqrt((e.conj() * e).real.sum(axis=(-2, -1)))


def phase_nullity(p: np.ndarray, d):
    """(nu_omega, g) from W's eigen-phases p in [0, 2pi) at omega, one row
    per matrix, and the frame defects d of the matrices (frame_defect).
    nu_omega is the number of phases within PHASE_TOL of 0, and the gap g
    is the distance from 0 (mod 2pi) of the nearest phase above PHASE_TOL,
    or pi if there is none: arrays, one entry per row, or an int and a
    float for one row.  A symplectic defect of M moves the phases by about
    d, and a phase within 2 d of PHASE_TOL could fall on either side of it:
    the read is then refused with NormalFormError."""
    dist = np.minimum(p, 2 * math.pi - p)
    if (np.abs(dist - PHASE_TOL) <= 2 * d[..., None]).any():
        raise NormalFormError(f"an eigen-phase of W lies within 2 x {np.max(d):.3g} (the "
                              f"symplectic defect of M) of PHASE_TOL = {PHASE_TOL:g}, so "
                              f"nu_omega is undecided")
    far = dist > PHASE_TOL
    nu, gap = (~far).sum(axis=-1), np.where(far, dist, math.pi).min(axis=-1)
    return (nu, gap) if p.ndim > 1 else (int(nu), float(gap))


def read_graph(M: np.ndarray, omega):
    """(nu_omega(M), g, p): p the eigen-phases of W at omega in [0, 2pi)
    from one read of M (graph_phases), and nu_omega and g from them and M's
    frame defect (phase_nullity), refused as there.  For a stack M
    (k, 2n, 2n), read in one batch, nu_omega and g are arrays, one entry per
    matrix.  omega off the unit circle is refused with NormalFormError
    (unit_omega)."""
    omega = unit_omega(omega)
    p = graph_phases(M)(omega)
    return phase_nullity(p, frame_defect(M)) + (p,)


def nu_omega(M: np.ndarray, omega) -> int:
    """dim_C ker(M - omega I) of a symplectic float array, read as in
    read_graph."""
    return read_graph(M, omega)[0]
