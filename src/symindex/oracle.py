"""Geometric index oracle: crossing counts of sampled symplectic paths.

The index of a path gamma is computed from first principles as the signed
count of crossings of t -> D_omega(beta(t)) along the extended path
beta = gamma * xi_n.  Each crossing contributes the signature of the
crossing form v* S(t) v restricted to ker(beta(t) - omega I), where
S = -J (d beta/dt) beta^{-1} is the symmetric generator; the junction of
the extension (always at the identity when omega = 1) contributes a half
signature, the corner convention for a one-sided crossing.

The scan evaluates D_omega on the samples and refines every window that
may hold a crossing or a touch (a zero cluster, a sign change, a dip of
|D_omega|, the last step) by one method, Brent's minimiser on |D_omega|.
The junction and every crossing form take S from one estimate, the
series logarithm of beta(t + h) beta(t)^{-1} over a short window.

Degenerate situations (endpoint on the crossing variety, paths running
inside it) are resolved by multiplying gamma by e^{-eps (t/T) J}, which
moves the endpoint to gamma(T) e^{-eps J}; the whole-path version of that
endpoint convention shifts every crossing form downward and realizes the
infimum over nearby nondegenerate paths.  The sign convention is pinned by
agreement with the iteration formulas on rotation paths and recorded here:
a crossing passed in the direction of the curve M e^{t eps J} counts +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .normal_forms import (
    RANK_TOL,
    d_omega,
    diamond,
    kernel,
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
SPLITTING_PROBES = (1e-3, 1e-4)  # angles of the one-sided probes of estimate_splitting


class OracleError(RuntimeError):
    pass


def expm(A: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm, imported at the first call so that importing the
    package, and every command that builds no path, leaves scipy unloaded.
    On a stack (..., 2n, 2n) it runs the one-matrix algorithm slice by slice,
    so each slice is bitwise its own exponential."""
    from scipy.linalg import expm as _expm

    return _expm(A)


class _NeedPerturbation(Exception):
    pass


@dataclass
class SampledSymplecticPath:
    """A discretized path in Sp(2n) starting at the identity.

    ts / mats hold the samples; evaluator, when present, returns the exact
    matrix at arbitrary t and is what crossing localization refines with.
    An evaluator takes a float, giving one 2n x 2n matrix, or a 1-D numpy
    array of times, giving the stack of those matrices (bitwise the same as
    one call per time); the evaluators of extend_with_xi and _PerturbedPath
    take floats only.  junction_index marks the concatenation point on
    extended paths.
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
        worst = max(symplectic_defect(self.mats[idx])
                    for idx in (0, len(self.mats) // 2, len(self.mats) - 1))
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
    evaluating the parts a second time; they are bitwise the same."""
    if abs(p1.tau - p2.tau) > 1e-12:
        raise OracleError("diamond of paths needs a common period")
    ts = np.linspace(0.0, p1.tau, steps + 1)
    mats = diamond(p1.evaluate(ts), p2.evaluate(ts))

    def evaluator(t):
        if isinstance(t, np.ndarray) and np.array_equal(t, ts):
            return mats
        return diamond(p1.evaluate(t), p2.evaluate(t))

    return SampledSymplecticPath(n=p1.n + p2.n, tau=float(p1.tau), ts=ts, mats=mats,
                                 evaluator=evaluator)


def iterate_path(path: SampledSymplecticPath, m: int) -> SampledSymplecticPath:
    """The m-fold iterate gamma^m(t) = gamma(t - j tau) gamma(tau)^j on [0, m tau]."""
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
        if base_eval is not None:
            return base_eval(t - j * tau) @ powers[j]
        return path.evaluate(t - j * tau) @ powers[j]

    return SampledSymplecticPath(n=path.n, tau=m * path.tau, ts=ts, mats=mats,
                                 evaluator=evaluator)


def xi_matrix(n: int, t: float | np.ndarray, tau: float) -> np.ndarray:
    """The canonical extension block diag(2 - t/tau, (2 - t/tau)^-1) per mode
    at a float t, or the stack of those matrices at a 1-D array of times."""
    a = 2.0 - np.asarray(t, dtype=float) / tau
    mats = np.zeros(a.shape + (2 * n, 2 * n))
    diag = np.arange(n)
    mats[..., diag, diag] = a[..., None]
    mats[..., diag + n, diag + n] = 1.0 / a[..., None]
    return mats


def xi_d_omega(mats: np.ndarray, omega: complex, n: int) -> np.ndarray:
    """D_omega of a stack of xi_matrix samples diag(a, ..., 1/a, ...):
    -(a + 1/a - 2 Re omega)^n, with each sample's own a and 1/a.  It is
    negative for a > 1, and at a = 2 (t = 0) its size is at least 2^-n."""
    return -(mats[:, 0, 0] + mats[:, n, n] - 2 * omega.real) ** n


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


# ----- crossing machinery ---------------------------------------------------


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
    """gamma multiplied by e^{-pert (t - t0)/(T - t0) J} past the junction.

    D_omega of the perturbed path (d_samples, d_at) passes the inverse
    rotation to d_omega instead of forming the product; evaluate forms it
    for the kernels and crossing forms."""

    def __init__(self, ext: SampledSymplecticPath, pert: float):
        self.ext = ext
        self.pert = pert
        self.n = ext.n
        self.t0 = ext.ts[ext.junction_index]
        self.T = ext.ts[-1]
        self.I = np.eye(2 * ext.n)
        self.J = standard_J(ext.n)

    def _angle(self, t: float | np.ndarray) -> float | np.ndarray:
        """s(t) of the rotation e^{s(t) J}: 0 up to the junction, falling
        linearly to -pert at T."""
        return -self.pert * np.maximum(t - self.t0, 0.0) / (self.T - self.t0)

    def _rotation(self, t: float | np.ndarray, sign: float) -> np.ndarray:
        """e^{sign s(t) J} = cos s I + sign sin s J; a stack on an array of times."""
        s = self._angle(t)
        return np.cos(s)[..., None, None] * self.I + sign * np.sin(s)[..., None, None] * self.J

    def _rot(self, t: float) -> np.ndarray:
        """e^{s(t) J}, which is exactly I up to the junction."""
        return self.I if self.pert == 0.0 else self._rotation(t, 1.0)

    def _unrot(self, t: float | np.ndarray) -> Optional[np.ndarray]:
        """e^{-s(t) J}, the U that makes d_omega(M, U) the D_omega of
        M e^{s(t) J}; None (d_omega's exact default I) when pert is 0."""
        return None if self.pert == 0.0 else self._rotation(t, -1.0)

    def d_samples(self, omega: complex) -> np.ndarray:
        """D_omega of every perturbed sample: xi_d_omega's closed form on the
        unperturbed xi arc before the junction, d_omega from the junction on."""
        mats, j = self.ext.mats, self.ext.junction_index
        return np.concatenate((xi_d_omega(mats[:j], omega, self.n),
                               d_omega(mats[j:], omega, self.n, self._unrot(self.ext.ts[j:]))))

    def d_at(self, t: float, omega: complex) -> float:
        """D_omega of the perturbed path at one time."""
        return float(d_omega(self.ext.evaluate(t)[None], omega, self.n, self._unrot(t))[0])

    def evaluate(self, t: float) -> np.ndarray:
        return self.ext.evaluate(t) @ self._rot(t)

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

    def crossing_generator(self, t: float) -> np.ndarray:
        """The generator of a crossing form at t: windowed_generator over
        [t - h, t + h] with h = 1e-6 (T - t0), shifted to stay inside [0, T]."""
        h = (self.T - self.t0) * 1e-6
        return self.windowed_generator(min(max(t - h, 0.0), self.T - 2 * h), 2 * h)


def _signature(gram: np.ndarray, tol: float):
    """(n_plus - n_minus, degenerate?) of a Hermitian form."""
    if gram.size == 0:
        return 0, False
    ev = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    scale = max(1.0, float(np.max(np.abs(ev))))
    degenerate = bool(np.any(np.abs(ev) < tol * scale))
    sig = int(np.sum(ev > 0)) - int(np.sum(ev < 0))
    return sig, degenerate


def _half_signature_regularized(S: np.ndarray, reg: float) -> int:
    """Half signature with near-zero eigenvalues pushed down (infimum side);
    the result is an integer because dim is even and zeros count negative."""
    ev = np.linalg.eigvalsh(S)
    scale = max(1.0, float(np.max(np.abs(ev))))
    n_plus = int(np.sum(ev > reg * scale))
    n_rest = len(ev) - n_plus
    return (n_plus - n_rest) // 2


def _fail_or_perturb(pp, pert_allowed: bool, msg: str):
    if pp.pert == 0.0 and pert_allowed:
        return _NeedPerturbation(msg)
    return OracleError(msg + " (not resolved after refinement)")


GOLDEN_STEP = (3 - math.sqrt(5)) / 2  # golden-section fraction of the larger side


def _brent_min(f, t_lo, t_hi, width: float):
    """(t*, f(t*)): the best point Brent's minimiser finds on [t_lo, t_hi].

    Brent, Algorithms for Minimization without Derivatives (1973), ch. 5:
    a parabola through the three best points so far proposes each step; a
    step that leaves the bracket, or fails to halve the step before last,
    is replaced by a golden-section step into the larger side.  Each point
    lies at least width / 4 from the points before it, and the search stops
    once the bracket around t* is at most width wide.
    """
    tol = width / 4
    a, b = t_lo, t_hi
    x = w = v = a + GOLDEN_STEP * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0  # the last step and the one before it
    while max(x - a, b - x) > 2 * tol:
        m = 0.5 * (a + b)
        parabolic = False
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2 * (q - r)
            if q > 0:
                p = -p
            q = abs(q)
            parabolic = abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x)
        if parabolic:
            e, d = d, p / q
            if min(x + d - a, b - x - d) < 2 * tol:  # too near an end: step inwards
                d = tol if x < m else -tol
        else:
            e = (a if x >= m else b) - x
            d = GOLDEN_STEP * e
        u = x + d if abs(d) >= tol else x + math.copysign(tol, d)
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def _sample_windows(d: np.ndarray, jidx: int, z_tol: float, dip_tol: float):
    """The refinement windows of the sample walk past the junction, in order.

    Returns (windows, longest zero run over all of d).  Each window is
    (kind, lo, hi), sample indices of the bracket to refine:
    - "zero": a cluster of samples with |d| <= z_tol, bracketed by its
      neighbours lo and hi; a sign change between samples lo and
      hi = lo + 1 is a cluster of length 0;
    - "dip": a strict local minimum of |d| below dip_tol, possibly a run of
      bitwise-equal |d| (a flat D_omega), refined once over the run and its
      two strictly larger neighbours; a run reaching the last sample is
      left to the edge window;
    - "edge": |d| not rising into the last sample (always last).
    A window whose end samples differ in sign holds a crossing; every other
    window can only hold a touch.  The windows before the edge come in the
    order of (lo, hi), which is the order the sample walk meets them in.
    The cluster of zeros holding the junction is the junction itself, so
    the walk starts after it.
    """
    N = len(d)
    a = np.abs(d)
    is_zero = a <= z_tol
    edges = np.diff(np.concatenate(([False], is_zero, [False])).astype(np.int8))
    z_starts, z_ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1  # inclusive
    longest = int(np.max(z_ends - z_starts + 1)) if z_starts.size else 0
    scan_start = jidx
    if is_zero[jidx]:
        scan_start = int(z_ends[np.searchsorted(z_starts, jidx, side="right") - 1]) + 1
    # clusters [s, e]: the zero runs but one starting at the last sample (the
    # edge window's), and each sign change between samples i and i + 1 as [i + 1, i]
    sign = d[:-1] * d[1:] < 0
    changes = np.flatnonzero(sign & ~is_zero[:-1])
    inner = z_starts <= N - 2
    s = np.concatenate((z_starts[inner], changes + 1))
    e = np.concatenate((z_ends[inner], changes))
    keep = s > scan_start
    windows = [("zero", first - 1, min(last + 1, N - 1))
               for first, last in zip(s[keep].tolist(), e[keep].tolist())]

    # runs [s, e] of bitwise-equal |d|
    change = np.flatnonzero(a[1:] != a[:-1])
    s = np.concatenate(([0], change + 1))
    e = np.concatenate((change, [N - 1]))
    keep = (s > scan_start) & (e < N - 1)
    s, e = s[keep], e[keep]
    signs_before = np.concatenate(([0], np.cumsum(sign)))
    dip = ((a[s] < dip_tol) & ~is_zero[s] & (a[s - 1] > a[s]) & (a[e + 1] > a[e])
           & (signs_before[e + 1] == signs_before[s]))
    windows += [("dip", first - 1, last + 1)
                for first, last in zip(s[dip].tolist(), e[dip].tolist())]

    windows.sort(key=lambda w: w[1:])  # no two windows share (lo, hi)
    if N - 2 >= scan_start and a[N - 1] < dip_tol and a[N - 2] >= a[N - 1]:
        windows.append(("edge", N - 2, N - 1))
    return windows, longest


KERNEL_TOL = 1e-8  # rank tolerance of ker(M - omega I) at a crossing
FORM_TOL = 1e-5  # relative eigenvalue size below which a crossing form is degenerate


def _scan(pp: _PerturbedPath, omega: complex, *, pert_allowed: bool) -> int:
    """The signed crossing count of one perturbed extended path."""
    ext = pp.ext
    ts = ext.ts
    N = len(ts)
    d = pp.d_samples(omega)
    scale = float(np.max(np.abs(d)))  # at least 2^-n, from the xi arc
    jidx = ext.junction_index
    windows, longest_zero_run = _sample_windows(d, jidx, 1e-10 * scale, 1e-3 * scale)

    if pp.pert == 0.0 and pert_allowed and longest_zero_run >= 4:
        # unperturbed pass: any zero run beyond the junction sample means the
        # path sits inside the crossing variety and needs the perturbation
        raise _NeedPerturbation("path runs inside the crossing variety")

    t_junction = ts[jidx]
    T = ts[-1]
    total = 0

    # junction: for omega = 1 the concatenation point sits on the variety
    if abs(omega - 1.0) < 1e-12:
        step = ts[min(jidx + 1, N - 1)] - t_junction
        h = max(4 * step, (T - t_junction) * 1e-9)
        S0 = pp.windowed_generator(t_junction, h)
        ev = np.linalg.eigvalsh(S0)
        ev_scale = max(1.0, float(np.max(np.abs(ev))))
        if pp.pert == 0.0 and pert_allowed and bool(np.any(np.abs(ev) < 1e-6 * ev_scale)):
            raise _NeedPerturbation("degenerate junction form")
        total += _half_signature_regularized(S0, 1e-7)

    width = 1e-12 * max(1.0, T)
    boundary_margin = 50 * width
    handled = []

    def contribute(t_star: float, kind: str) -> None:
        nonlocal total
        if any(abs(t_star - t0) <= 10 * width for t0 in handled):
            return
        if T - t_star < boundary_margin:
            # a minimum pinned at the endpoint is a crossing pushed off the
            # domain by the perturbation, not an interior crossing
            return
        M = pp.evaluate(t_star)
        V = kernel(M, omega, KERNEL_TOL)
        k = V.shape[1]
        if k == 0:
            return  # near miss: no unit eigenvalue actually crosses here
        if kind == "touch" and k == 1:
            # D_omega keeps its sign through a one-dimensional kernel: the
            # path dips onto a single smooth sheet and returns, so the two
            # resolved crossings cancel (Jordan-block passages land here)
            handled.append(t_star)
            return
        if kind == "crossing" and k % 2 == 0:
            raise _fail_or_perturb(pp, pert_allowed,
                                   f"sign change with even kernel at t = {t_star:.6g}")
        gram = V.conj().T @ pp.crossing_generator(t_star) @ V
        sig, degenerate = _signature(gram, FORM_TOL)
        if degenerate:
            raise _fail_or_perturb(pp, pert_allowed,
                                   f"degenerate crossing form at t = {t_star:.6g}")
        total += sig
        handled.append(t_star)

    # walk the windows past the junction; the extension arc keeps D_omega < 0
    def abs_d_at(t: float) -> float:
        return abs(pp.d_at(t, omega))

    for kind, lo, hi in windows:
        t_star, f_star = _brent_min(abs_d_at, ts[lo], ts[hi], width)
        if kind == "zero":
            contribute(t_star, "crossing" if d[lo] * d[hi] < 0 else "touch")
        elif kind == "edge" or f_star < abs(d[lo + 1]):
            # a dip counts only if refinement went below the samples; a touch
            # may sit inside the final step whatever the refined value
            contribute(t_star, "touch")

    return total


def cz_index(path: SampledSymplecticPath, omega, eps: float = DEFAULT_PERT,
             rank_tol: float = RANK_TOL):
    """(i_omega, nu_omega) of a sampled path by geometric crossing count.

    omega is a unit-circle complex number (1 and -1 included).  eps is the
    perturbation scale of the degenerate-endpoint convention: when
    D_omega(gamma(tau)) = 0 the count is taken on gamma e^{-eps (t/T) J},
    whose endpoint is gamma(tau) e^{-eps J}.  The scan retries with smaller
    perturbations until two consecutive scales agree; persistent tangential
    ambiguity is an explicit error.
    """
    omega = complex(omega)
    if abs(abs(omega) - 1.0) > 1e-9:
        raise OracleError(f"omega must lie on the unit circle, got {omega!r}")
    nu = nu_omega(path.endpoint(), omega, rank_tol)

    # retry plan: perturbation scale shrinks while the sampling density
    # doubles (doubling needs an evaluator and is capped at MAX_STEPS)
    endpoint_degenerate = nu > 0
    if endpoint_degenerate:
        plan = [(eps, 1), (eps / 4, 2), (eps / 16, 4), (eps / 64, 8)]
    else:
        plan = [(0.0, 1), (eps, 1), (eps / 4, 2), (eps / 16, 4), (eps / 64, 8)]

    extensions = {}

    def ext_at(factor: int):
        if factor not in extensions:
            extensions[factor] = extend_with_xi(_resample(path, factor))
        return extensions[factor]

    last_error = None
    for attempt, (pert, factor) in enumerate(plan):
        try:
            ext = ext_at(factor)
            index = _scan(_PerturbedPath(ext, pert), omega,
                          pert_allowed=(attempt + 1 < len(plan)))
            if pert > 0.0:
                index2 = _scan(_PerturbedPath(ext, pert / 2), omega, pert_allowed=False)
                if index2 != index:
                    last_error = OracleError(
                        f"unstable count under perturbation ({index} vs {index2})")
                    continue
            return index, nu
        except _NeedPerturbation as exc:
            last_error = exc
        except OracleError as exc:
            last_error = exc
    raise OracleError(f"crossing count did not stabilize after {len(plan)} attempts: {last_error}")


def _resample(path: SampledSymplecticPath, factor: int) -> SampledSymplecticPath:
    """Rebuild the samples at factor-times density via the evaluator;
    sample-list paths without an evaluator keep their resolution."""
    if factor <= 1 or path.evaluator is None:
        return path
    steps = min((len(path.ts) - 1) * factor, MAX_STEPS)
    ts = np.linspace(0.0, path.tau, steps + 1)
    return SampledSymplecticPath(n=path.n, tau=path.tau, ts=ts, mats=path.evaluator(ts),
                                 evaluator=path.evaluator)


def estimate_splitting(path: SampledSymplecticPath, omega, eps: float = DEFAULT_PERT):
    """Oracle estimate of the splitting pair (S^+, S^-) at omega.

    Computes i at omega e^{+- i eps'} for each eps' in SPLITTING_PROBES and
    requires the probes to agree (stability check of the one-sided limits).
    """
    omega = complex(omega)
    i_base, _ = cz_index(path, omega, eps=eps)
    plus_vals = []
    minus_vals = []
    for e in SPLITTING_PROBES:
        wp = omega * complex(math.cos(e), math.sin(e))
        wm = omega * complex(math.cos(e), -math.sin(e))
        plus_vals.append(cz_index(path, wp, eps=eps)[0] - i_base)
        minus_vals.append(cz_index(path, wm, eps=eps)[0] - i_base)
    if len(set(plus_vals)) != 1 or len(set(minus_vals)) != 1:
        raise OracleError(
            f"splitting estimate unstable across probes: +{plus_vals}, -{minus_vals}")
    return plus_vals[0], minus_vals[0]
