"""Geometric index oracle: eigen-phase counts of sampled symplectic paths.

The index of a path gamma is computed from first principles on the extended
path beta = gamma * xi_n, as the signed number of eigen-phases passing 0 of
a unitary W(t) whose eigenvalue 1 has the multiplicity of the eigenvalue
omega of beta(t) (the Souriau map; see "the eigen-phase count" below).  The
xi arc never meets the crossing variety, so the count runs from the
junction on; at omega = 1 the junction sits at the identity and contributes
the half signature of the generator S = -J (d beta/dt) beta^{-1}, taken by
the series logarithm over the first sample steps (the corner convention
for a one-sided crossing).  The count trusts the sample spacing, which
validate bounds by STEP_BOUND, takes eigen-data at coarse points only and
needs no refinement: two crossings inside one sample step count 2, and a
touch nets 0.

A degenerate endpoint (or a degenerate junction form at omega = 1) is
resolved by multiplying gamma by e^{-eps (t/T) J}, which moves the endpoint
to gamma(T) e^{-eps J}; the whole-path version of that endpoint convention
shifts every crossing form downward and realizes the infimum over nearby
nondegenerate paths.  The sign convention is pinned by agreement with the
iteration formulas on rotation paths and recorded here: a crossing passed
in the direction of the curve M e^{t eps J} counts +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .normal_forms import (
    RANK_TOL,
    diamond,
    nu_omega,
    standard_J,
    SYMPLECTIC_TOL,
    symplectic_defect,
)

__all__ = [
    "OracleError",
    "SampledSymplecticPath",
    "path_from_quadratic_hamiltonian",
    "path_from_samples",
    "path_from_matrix_function",
    "path_from_logm",
    "diamond_paths",
    "iterate_path",
    "extend_with_xi",
    "cz_index",
    "estimate_splitting",
]

DEFAULT_STEPS = 2048
MAX_STEPS = 1 << 20
DEFAULT_PERT = 1e-4
STEP_BOUND = 0.05  # max entry change between consecutive samples
SPLITTING_PROBES = (1e-3, 1e-4)  # angles e of the arcs omega -> omega e^{+-ie} of estimate_splitting


class OracleError(RuntimeError):
    pass


def expm(A: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm, imported at the first call so that importing the
    package, and every command that builds no path, leaves scipy unloaded.
    On a stack (..., 2n, 2n) it runs the one-matrix algorithm slice by slice,
    so each slice is bitwise its own exponential."""
    from scipy.linalg import expm as _expm

    return _expm(A)


@dataclass
class SampledSymplecticPath:
    """A discretized path in Sp(2n) starting at the identity.

    ts / mats hold the samples; evaluator, when present, returns the exact
    matrix at arbitrary t, and the index count halves a sample step with it.
    An evaluator takes a float, giving one 2n x 2n matrix, or a 1-D numpy
    array of times, giving the stack of those matrices (bitwise the same as
    one call per time); the evaluator of extend_with_xi takes floats only.
    junction_index marks the concatenation point on extended paths.
    """

    n: int
    tau: float
    ts: np.ndarray
    mats: np.ndarray
    evaluator: Optional[Callable[[float | np.ndarray], np.ndarray]] = None
    junction_index: Optional[int] = None

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.mats = np.asarray(self.mats, dtype=float)
        if self.mats.shape[1:] != (2 * self.n, 2 * self.n):
            raise OracleError("sample shape does not match half-dimension")
        if len(self.ts) != len(self.mats):
            raise OracleError("ts and mats length mismatch")

    def validate(self):
        if not np.allclose(self.mats[0], np.eye(2 * self.n), atol=1e-12):
            raise OracleError("path must start at the identity")
        steps = np.max(np.abs(np.diff(self.mats, axis=0)), axis=(1, 2))
        if steps.size and float(np.max(steps)) > STEP_BOUND:
            raise OracleError(f"step-size bound violated: max entry change "
                              f"{float(np.max(steps)):.3g} > {STEP_BOUND}")
        worst = symplectic_defect(self.mats)  # every sample, in one batched M^T J M
        if worst > SYMPLECTIC_TOL:
            raise OracleError(f"samples are not symplectic to {SYMPLECTIC_TOL}: defect {worst:.3g}")
        return self

    def endpoint(self) -> np.ndarray:
        return self.mats[-1]

    def evaluate(self, t: float | np.ndarray) -> np.ndarray:
        """The matrix at a float t, or the stack at a 1-D array of times."""
        if self.evaluator is not None:
            return self.evaluator(t)
        if isinstance(t, np.ndarray):
            return np.stack([self.evaluate(float(s)) for s in t])
        # fallback: linear interpolation between bracketing samples
        i = int(np.searchsorted(self.ts, t, side="right")) - 1
        i = min(max(i, 0), len(self.ts) - 2)
        t0, t1 = self.ts[i], self.ts[i + 1]
        if t1 == t0:
            return self.mats[i]
        w = (t - t0) / (t1 - t0)
        return (1 - w) * self.mats[i] + w * self.mats[i + 1]


def _check_period(tau) -> None:
    if not (math.isfinite(tau) and tau > 0):
        raise OracleError(f"tau must be finite and > 0, got {tau}")


def path_from_quadratic_hamiltonian(B, tau: float,
                                    steps: int = DEFAULT_STEPS) -> SampledSymplecticPath:
    """Solution samples of d gamma/dt = J B gamma with constant symmetric B.

    Samples come from repeated multiplication by the one-step exponential
    (scaling-and-squaring under the hood); the evaluator recomputes the
    exact exponential at arbitrary t, or at a whole time grid in one call.
    steps must lie in [1, MAX_STEPS] and tau must be finite and > 0.
    """
    if not 1 <= steps <= MAX_STEPS:
        raise OracleError(f"steps must lie in [1, {MAX_STEPS}], got {steps}")
    _check_period(tau)
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1] or B.shape[0] % 2:
        raise OracleError("B must be a 2n x 2n matrix")
    if not np.allclose(B, B.T, atol=1e-12):
        raise OracleError("B must be symmetric")
    n = B.shape[0] // 2
    X = standard_J(n) @ B
    dt = tau / steps
    step = expm(X * dt)
    mats = np.empty((steps + 1, 2 * n, 2 * n))
    mats[0] = np.eye(2 * n)
    for i in range(1, steps + 1):
        mats[i] = step @ mats[i - 1]
    ts = np.linspace(0.0, tau, steps + 1)

    def evaluator(t):
        return expm(t[:, None, None] * X if isinstance(t, np.ndarray) else X * t)

    return SampledSymplecticPath(n=n, tau=float(tau), ts=ts, mats=mats,
                                 evaluator=evaluator).validate()


def path_from_samples(ts, mats, n: int, tau: float) -> SampledSymplecticPath:
    """A path known only by its samples.  The times must run from exactly 0
    to exactly tau without decreasing; two equal neighbouring times are
    allowed, and the evaluator gives the first of them."""
    _check_period(tau)
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or len(ts) < 2:
        raise OracleError("a sample list needs at least 2 samples")
    if ts[0] != 0.0 or ts[-1] != tau:
        raise OracleError(f"sample times must run from 0 to tau = {tau}, "
                          f"got {ts[0]} to {ts[-1]}")
    if not np.all(np.diff(ts) >= 0):
        raise OracleError("sample times must not decrease")
    return SampledSymplecticPath(n=n, tau=tau, ts=ts, mats=mats).validate()


def path_from_matrix_function(f: Callable[[float], np.ndarray], tau: float, n: int,
                              steps: int = DEFAULT_STEPS) -> SampledSymplecticPath:
    """Sample an explicit matrix path t -> f(t) on [0, tau].

    f takes one float.  This is the one adapter that loops a scalar function
    over a time grid: the path's evaluator passes a float straight to f and
    stacks f over an array of times."""

    def evaluator(t):
        if isinstance(t, np.ndarray):
            return np.stack([np.asarray(f(s), dtype=float) for s in t])
        return f(t)

    ts = np.linspace(0.0, tau, steps + 1)
    return SampledSymplecticPath(n=n, tau=float(tau), ts=ts, mats=evaluator(ts),
                                 evaluator=evaluator).validate()


def path_from_logm(M_target, tau: float = 1.0, steps: int = DEFAULT_STEPS) -> SampledSymplecticPath:
    """The one-parameter path exp(t log M) reaching M_target at t = tau.

    Requires the principal matrix logarithm of M_target to be Hamiltonian,
    which holds for symplectic targets without negative real eigenvalues.
    """
    from scipy.linalg import logm

    M = np.asarray(M_target, dtype=float)
    n = M.shape[0] // 2
    X = logm(M)
    if np.max(np.abs(X.imag)) > 1e-9:
        raise OracleError("target has no real logarithm (negative real eigenvalues?)")
    X = X.real
    J = standard_J(n)
    if np.max(np.abs(J @ X + X.T @ J)) > 1e-7:
        raise OracleError("log of target is not Hamiltonian")
    B = -J @ X
    B = 0.5 * (B + B.T)
    return path_from_quadratic_hamiltonian(B, tau, steps)


def diamond_paths(p1: SampledSymplecticPath, p2: SampledSymplecticPath,
                  steps: int = DEFAULT_STEPS) -> SampledSymplecticPath:
    """Pointwise diamond product of two paths over a common period; the
    samples are one diamond of the two parts' stacks on the whole grid.

    Asked for that same grid again, as by a diamond of this diamond with
    the same steps, the evaluator returns the samples instead of
    evaluating the parts a second time; they are bitwise the same.  The
    diamond has an evaluator only when both parts have one."""
    if abs(p1.tau - p2.tau) > 1e-12:
        raise OracleError("diamond of paths needs a common period")
    ts = np.linspace(0.0, p1.tau, steps + 1)
    mats = diamond(p1.evaluate(ts), p2.evaluate(ts))

    def evaluator(t):
        if isinstance(t, np.ndarray) and np.array_equal(t, ts):
            return mats
        return diamond(p1.evaluate(t), p2.evaluate(t))

    halvable = p1.evaluator is not None and p2.evaluator is not None
    return SampledSymplecticPath(n=p1.n + p2.n, tau=float(p1.tau), ts=ts, mats=mats,
                                 evaluator=evaluator if halvable else None)


def iterate_path(path: SampledSymplecticPath, m: int) -> SampledSymplecticPath:
    """The m-fold iterate gamma^m(t) = gamma(t - j tau) gamma(tau)^j on [0, m tau],
    with an evaluator only when the path has one."""
    if m < 1:
        raise OracleError("m must be >= 1")
    if m == 1:
        return path
    mono = path.endpoint()
    powers = [np.eye(2 * path.n)]
    for _ in range(m):
        powers.append(mono @ powers[-1])
    powers = np.stack(powers)
    ts_parts = []
    mats_parts = []
    for j in range(m):
        sel = slice(0, -1) if j < m - 1 else slice(0, None)
        ts_parts.append(path.ts[sel] + j * path.tau)
        mats_parts.append(path.mats[sel] @ powers[j])
    ts = np.concatenate(ts_parts)
    mats = np.concatenate(mats_parts)

    base_eval = path.evaluator
    tau = path.tau

    def evaluator(t):
        if isinstance(t, np.ndarray):
            j = np.minimum(t // tau, m - 1).astype(int)
        else:
            j = min(int(t // tau), m - 1)
        return base_eval(t - j * tau) @ powers[j]

    return SampledSymplecticPath(n=path.n, tau=m * path.tau, ts=ts, mats=mats,
                                 evaluator=None if base_eval is None else evaluator)


def xi_matrix(n: int, t: float | np.ndarray, tau: float) -> np.ndarray:
    """The canonical extension block diag(2 - t/tau, (2 - t/tau)^-1) per mode
    at a float t, or the stack of those matrices at a 1-D array of times."""
    a = 2.0 - np.asarray(t, dtype=float) / tau
    mats = np.zeros(a.shape + (2 * n, 2 * n))
    diag = np.arange(n)
    mats[..., diag, diag] = a[..., None]
    mats[..., diag + n, diag + n] = 1.0 / a[..., None]
    return mats


def extend_with_xi(path: SampledSymplecticPath) -> SampledSymplecticPath:
    """Concatenate: first the canonical arc from diag(2,...,1/2,...) to I, then gamma."""
    n = path.n
    tau = path.tau
    steps = max(64, int(round(tau / max(path.ts[1] - path.ts[0], 1e-12))))
    steps = min(steps, DEFAULT_STEPS)
    xi_ts = np.linspace(0.0, tau, steps + 1)[:-1]
    ts = np.concatenate([xi_ts, path.ts + tau])
    mats = np.concatenate([xi_matrix(n, xi_ts, tau), path.mats])
    junction_index = steps  # index of gamma(0) = I in the combined arrays

    def evaluator(t):
        if t <= tau:
            return xi_matrix(n, t, tau)
        return path.evaluate(t - tau)

    return SampledSymplecticPath(n=n, tau=tau + path.tau, ts=ts, mats=mats,
                                 evaluator=evaluator, junction_index=junction_index)


# ----- the perturbed path and the junction generator --------------------------

SERIES_LOG_TERMS = 64  # cap on the number of odd powers in _series_log


def _series_log(M: np.ndarray, where: str) -> np.ndarray:
    """log M = 2 (Z + Z^3/3 + Z^5/5 + ...) with Z = (M - I)(M + I)^{-1}, the
    Gregory series (Higham, Functions of Matrices, SIAM 2008, ch. 11).

    It converges when the spectral radius of Z is below 1, fast for M near
    I, and it stops once a term is below 1e-17 of the sum.  Odd powers of a
    Hamiltonian Z are Hamiltonian, so a symplectic M gets a Hamiltonian log.
    A singular M + I, or no convergence within SERIES_LOG_TERMS terms, is an
    OracleError naming where.
    """
    I = np.eye(len(M))
    try:
        Z = np.linalg.solve(M + I, M - I)  # (M + I)^{-1} commutes with M - I
    except np.linalg.LinAlgError:
        raise OracleError(f"no series logarithm on {where}: M + I is singular") from None
    Z2 = Z @ Z
    power = total = Z
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging series may overflow
        for k in range(1, SERIES_LOG_TERMS):
            power = power @ Z2
            term = power / (2 * k + 1)
            total = total + term
            if np.max(np.abs(term)) <= 1e-17 * np.max(np.abs(total)):
                return 2 * total
    raise OracleError(f"the series logarithm on {where} does not converge "
                      f"in {SERIES_LOG_TERMS} terms")


class _PerturbedPath:
    """gamma multiplied by e^{-pert (t - t0)/(T - t0) J} past the junction."""

    def __init__(self, ext: SampledSymplecticPath, pert: float):
        self.ext = ext
        self.pert = pert
        self.n = ext.n
        self.t0 = ext.ts[ext.junction_index]
        self.T = ext.ts[-1]
        self.I = np.eye(2 * ext.n)
        self.J = standard_J(ext.n)

    def _rotation(self, t: float | np.ndarray) -> np.ndarray:
        """e^{s(t) J} = cos s I + sin s J, with s(t) 0 up to the junction and
        falling linearly to -pert at T; a stack on an array of times."""
        s = -self.pert * np.maximum(t - self.t0, 0.0) / (self.T - self.t0)
        return np.cos(s)[..., None, None] * self.I + np.sin(s)[..., None, None] * self.J

    def samples(self, idx) -> np.ndarray:
        """The perturbed samples at an index, an index array or a slice."""
        mats = self.ext.mats[idx]
        return mats if self.pert == 0.0 else mats @ self._rotation(self.ext.ts[idx])

    def evaluate(self, t: float) -> np.ndarray:
        M = self.ext.evaluate(t)
        return M if self.pert == 0.0 else M @ self._rotation(t)

    def windowed_generator(self, t: float, h: float) -> np.ndarray:
        """Symmetric generator S = -J log(M(t+h) M(t)^{-1}) / h of the
        window [t, t+h], by the series logarithm.

        For a quadratic path this is its constant generator B.  It is robust
        against reparametrizations with vanishing derivative: the average
        rotation direction over the window decides the sign, not the
        instantaneous speed."""
        M0 = self.evaluate(t)
        M1 = self.evaluate(t + h)
        X = _series_log(M1 @ np.linalg.inv(M0), f"the window [{t:.6g}, {t + h:.6g}]")
        S = -self.J @ X / h
        return 0.5 * (S + S.T)


def _junction_generator(pp: _PerturbedPath) -> np.ndarray:
    """S0 at the junction: windowed_generator over four sample steps of gamma
    (at least 1e-9 of its span)."""
    ts, j = pp.ext.ts, pp.ext.junction_index
    h = max(4 * (ts[j + 1] - pp.t0), (pp.T - pp.t0) * 1e-9)
    return pp.windowed_generator(pp.t0, h)


def _degenerate(S: np.ndarray) -> bool:
    """Whether S has an eigenvalue below 1e-6 of its largest (at least 1)."""
    ev = np.linalg.eigvalsh(S)
    return bool(np.any(np.abs(ev) < 1e-6 * max(1.0, float(np.max(np.abs(ev))))))


def _half_signature_regularized(S: np.ndarray, reg: float) -> int:
    """Half signature with near-zero eigenvalues pushed down (infimum side);
    the result is an integer because dim is even and zeros count negative."""
    ev = np.linalg.eigvalsh(S)
    scale = max(1.0, float(np.max(np.abs(ev))))
    n_plus = int(np.sum(ev > reg * scale))
    n_rest = len(ev) - n_plus
    return (n_plus - n_rest) // 2


# ----- the eigen-phase count -------------------------------------------------
#
# Gr(M) = {(x, Mx)} is Lagrangian for (-J) + J on C^{4n}, so it is the graph
# of a unitary U(M) from the +1 to the -1 eigenspace of H = i diag(-J, J).
# W(t) = U(omega I)* U(beta(t)) has eigenvalue 1 with multiplicity
# nu_omega(beta(t)), and the index is the signed number of eigen-phases of W
# passing 0 (Robbin and Salamon, Topology 32, 1993; Beck and Malham,
# Proc. AMS 143, 2015).  Eigenvalues of unitaries move by at most the
# distance of the unitaries (Bhatia and Davis, Linear Multilinear Algebra
# 15, 1984), so over a step whose phases cannot reach a cut c, the net
# number passing 0 is the change of #{phases in [0, c)}.  A sample step
# moves them by at most 2 asin(min(1, sqrt2 r)), r the step's matrix change
# (_motion).

COARSE_BOUND = 0.5  # motion bound (rad) between the points that get eigen-data
CHUNK = 4096  # sample steps per batch of motion bounds, which bounds the temporaries
CUTS = np.linspace(0.25, 2 * math.pi - 0.25, 64)  # the cuts a step may count at
MAX_HALVINGS = 10  # halvings of one sample step through the evaluator


def _frames(M: np.ndarray, n: int):
    """(a, b) = sqrt2 (B+* Z, B-* Z) for Z = [I; M], per matrix of a stack M,
    so that U(M) = b a^{-1}.  B+ and B- are the orthonormal +1 and -1
    eigenbases of H spanned by (u, -iu, 0, 0), (0, 0, u, iu) and by
    (u, iu, 0, 0), (0, 0, u, -iu), u in C^n."""
    a = np.empty(M.shape, dtype=complex)
    b = np.empty_like(a)
    a[..., :n, :n] = b[..., :n, :n] = np.eye(n)
    a[..., :n, n:] = 1j * np.eye(n)
    b[..., :n, n:] = -1j * np.eye(n)
    a[..., n:, :] = M[..., :n, :] - 1j * M[..., n:, :]
    b[..., n:, :] = M[..., :n, :] + 1j * M[..., n:, :]
    return a, b


def _motion(mats: np.ndarray, n: int) -> np.ndarray:
    """A bound on the eigen-phase motion of W over each step of a stack of
    samples: 2 asin(min(1, sqrt2 r)) with r = min(|dM|_F, |dM M^-1|_F), M the
    step's first sample.  M^-1 = [[D^T, -B^T], [-C^T, A^T]] is taken by
    slicing.  The bound trusts the path not to stray between samples."""
    dM = np.diff(mats, axis=0)
    MT = mats[:-1].swapaxes(1, 2)
    inv = np.empty_like(MT)
    inv[:, :n, :n] = MT[:, n:, n:]
    np.negative(MT[:, n:, :n], out=inv[:, :n, n:])
    np.negative(MT[:, :n, n:], out=inv[:, n:, :n])
    inv[:, n:, n:] = MT[:, :n, :n]
    rel = dM @ inv
    r = np.sqrt(np.minimum(np.einsum("kij,kij->k", dM, dM), np.einsum("kij,kij->k", rel, rel)))
    return 2 * np.arcsin(np.minimum(1.0, math.sqrt(2) * r))


def _cuts(p0: np.ndarray, p1: np.ndarray):
    """(cut, room) for steps whose end phases are the rows of p0 and p1: the
    cut of CUTS farthest from every end phase, and that distance."""
    room = np.full((len(p0), len(CUTS)), math.pi)
    for p in np.concatenate((p0, p1), axis=-1).T:  # one end phase of every step at a time
        d = np.abs(p[:, None] - CUTS)
        np.minimum(room, np.minimum(d, 2 * math.pi - d), out=room)
    best = room.argmax(axis=-1)
    return CUTS[best], room[np.arange(len(best)), best]


def _phases(M: np.ndarray, omega: complex, n: int) -> np.ndarray:
    """The eigen-phases in [0, 2pi) of W = U(omega I)* U(M), per matrix of a stack M."""
    a, b = _frames(omega * np.eye(2 * n), n)
    U_omega_H = np.linalg.solve(a.T, b.T).conj()  # (b a^{-1})*
    a, b = _frames(M, n)
    return np.angle(np.linalg.eigvals(np.linalg.solve(a, U_omega_H @ b))) % (2 * math.pi)


def _scan(pp: _PerturbedPath, omega: complex, halvable: bool,
          S0: Optional[np.ndarray] = None) -> int:
    """The index of one perturbed extended path: the signed count of
    eigen-phases of W passing 0, from the junction on (the xi arc never meets
    the crossing variety).  At omega = 1 the junction sits on the variety:
    it adds the half signature of S0 and the count starts one sample past it.

    Sample steps are grouped into coarse steps of motion bound about
    COARSE_BOUND; a coarse step whose best cut is not farther from its end
    phases than its bound is halved, at sample indices and then, inside one
    sample step, through the evaluator (halvable paths only)."""
    n = pp.n
    start = pp.ext.junction_index
    total = 0
    if abs(omega - 1.0) < 1e-12:
        total += _half_signature_regularized(_junction_generator(pp) if S0 is None else S0,
                                             1e-7)
        start += 1
    ts = pp.ext.ts[start:]
    N = len(ts)
    if N < 2:
        return total
    motion = [_motion(pp.samples(np.s_[start + lo:start + min(lo + CHUNK, N - 1) + 1]), n)
              for lo in range(0, N - 1, CHUNK)]
    cum = np.concatenate(([0.0], np.cumsum(np.concatenate(motion))))
    marks = np.searchsorted(cum, np.arange(COARSE_BOUND, cum[-1], COARSE_BOUND))
    coarse = np.unique(np.concatenate(([0], marks, [N - 1])))
    ph = _phases(pp.samples(start + coarse), omega, n)
    bound = np.diff(cum[coarse])
    cut, room = _cuts(ph[:-1], ph[1:])
    ok = room > bound
    total += int(np.sum(ph[1:][ok] < cut[ok, None]) - np.sum(ph[:-1][ok] < cut[ok, None]))

    # the steps whose cut is too near, as (point, point, bound, halvings left);
    # a point is (sample index or None, t, M, phases)
    todo = [((i0, ts[i0], pp.samples(start + i0), ph[k]),
             (i1, ts[i1], pp.samples(start + i1), ph[k + 1]), bound[k], MAX_HALVINGS)
            for k, i0, i1 in zip(np.flatnonzero(~ok), coarse[:-1][~ok], coarse[1:][~ok])]
    while todo:
        a, b, bnd, depth = todo.pop()
        (i0, t0, M0, p0), (i1, t1, M1, p1) = a, b
        cut, room = _cuts(p0[None], p1[None])
        if room[0] > bnd:
            total += int(np.sum(p1 < cut[0]) - np.sum(p0 < cut[0]))
            continue
        if None not in (i0, i1) and i1 - i0 >= 2:
            k = (i0 + i1) // 2
            M = pp.samples(start + k)
            mid = (k, ts[k], M, _phases(M, omega, n))
            b0, b1 = cum[k] - cum[i0], cum[i1] - cum[k]
        else:
            if not halvable:
                raise OracleError(f"eigen-phases move too far over the sample step at "
                                  f"t = {t0 - pp.t0:.6g}, and the path has no evaluator "
                                  f"to halve it")
            if depth == 0:
                raise OracleError(f"eigen-phases not resolved after {MAX_HALVINGS} halvings "
                                  f"of the sample step at t = {t0 - pp.t0:.6g}")
            t = 0.5 * (t0 + t1)
            M = pp.evaluate(t)
            mid = (None, t, M, _phases(M, omega, n))
            b0, b1 = _motion(np.stack((M0, M, M1)), n)
            depth -= 1
        todo += [(a, mid, b0, depth), (mid, b, b1, depth)]
    return total


def cz_index(path: SampledSymplecticPath, omega, eps: float = DEFAULT_PERT,
             rank_tol: float = RANK_TOL):
    """(i_omega, nu_omega) of a sampled path by the eigen-phase count.

    omega is a unit-circle complex number (1 and -1 included).  eps is the
    perturbation scale of the degenerate-endpoint convention: when
    D_omega(gamma(tau)) = 0 the count is taken on gamma e^{-eps (t/T) J},
    whose endpoint is gamma(tau) e^{-eps J}, and the counts at eps and
    eps / 2 must agree.  A nondegenerate endpoint is counted unperturbed,
    unless the omega = 1 junction form is degenerate.
    """
    omega = complex(omega)
    if abs(abs(omega) - 1.0) > 1e-9:
        raise OracleError(f"omega must lie on the unit circle, got {omega!r}")
    nu = nu_omega(path.endpoint(), omega, rank_tol)
    ext = extend_with_xi(path)
    halvable = path.evaluator is not None
    if nu == 0:
        pp = _PerturbedPath(ext, 0.0)
        S0 = _junction_generator(pp) if abs(omega - 1.0) < 1e-12 else None
        if S0 is None or not _degenerate(S0):
            return _scan(pp, omega, halvable, S0), nu
    index, index2 = (_scan(_PerturbedPath(ext, pert), omega, halvable) for pert in (eps, eps / 2))
    if index != index2:
        raise OracleError(f"unstable count under perturbation ({index} vs {index2})")
    return index, nu


def estimate_splitting(path: SampledSymplecticPath, omega):
    """Oracle estimate of (S^+, S^-) at omega from the endpoint M alone (Long
    2002): the net number of eigen-phases of U(w I)* U(M) passing 0 as w runs
    from omega to omega e^{+-ie}, M first pushed to M e^{-dJ} if degenerate,
    as in cz_index.  They move by at most e, so each count is read at a cut
    farther than e from them; the probes e of SPLITTING_PROBES must agree."""
    omega = complex(omega)
    n = path.n
    M = path.endpoint()
    if nu_omega(M, omega) > 0:
        d = 1e-3 * min(SPLITTING_PROBES) ** 2 / max(1.0, np.linalg.norm(M, 2))
        M = M @ (math.cos(d) * np.eye(2 * n) - math.sin(d) * standard_J(n))
    p0 = _phases(M, omega, n)
    plus_vals = []
    minus_vals = []
    for e in SPLITTING_PROBES:
        for vals, sign in ((plus_vals, 1), (minus_vals, -1)):
            p1 = _phases(M, omega * complex(math.cos(e), sign * math.sin(e)), n)
            cut, room = _cuts(p0[None], p1[None])
            if room[0] <= e:
                raise OracleError(f"no cut farther than {e:g} from the eigen-phases at omega")
            vals.append(int(np.sum(p1 < cut[0]) - np.sum(p0 < cut[0])))
    if len(set(plus_vals)) != 1 or len(set(minus_vals)) != 1:
        raise OracleError(
            f"splitting estimate unstable across probes: +{plus_vals}, -{minus_vals}")
    return plus_vals[0], minus_vals[0]
