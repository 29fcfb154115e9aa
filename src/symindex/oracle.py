"""Geometric index oracle: eigen-phase counts of sampled symplectic paths.

The index of a path gamma is Long's i_omega of gamma extended backwards by
the canonical arc xi_n from diag(2, ..., 1/2, ...) to I, computed from
first principles as the signed number of eigen-phases passing 0 of a
unitary W(t) whose eigenvalue 1 has the multiplicity of the eigenvalue
omega of the path (the Souriau map; see "the eigen-phase count" below).
The xi arc has no eigenvalue on the unit circle, so no phase passes 0 on
it: the count starts at one sample of it, S = extend_with_xi(gamma), and
then runs over gamma's own samples, where gamma(0) = I is a sample like
any other.  The count trusts the sample spacing, which validate bounds by
STEP_BOUND, takes eigen-data at coarse points and refines a step only to
find a cut far enough from its end phases: two crossings inside one sample
step count 2, and a touch nets 0.  It runs one diamond factor of the path
at a time, and sums their counts.

A degenerate endpoint follows Long's convention, the index of
gamma e^{-eps (t/T) J} as eps -> 0+: the count runs once over gamma's own
samples, unperturbed, and ends with the nu_omega phases of W at 0^-, where
gamma(T) e^{-sJ} takes them whatever gamma(T) (_endpoint; the argument is
in cz_index).  The sign convention is pinned by agreement with the
iteration formulas on rotation paths and recorded here: an eigen-phase
passing 0 counterclockwise, as the phases at 0 do along M e^{sJ} with s
increasing, counts +1.  The splitting estimate reads the endpoint alone,
with the same 0^- placement and probes bounded by the distance g from 0
of W's nearest nonzero phase, and refuses a g too small for its probes to
move the phases at 0 past rounding (estimate_splitting).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .normal_forms import (
    NormalFormError,
    diamond,
    frame_defect,
    graph_phases,
    PHASE_TOL,
    phase_nullity,
    standard_J,
    SYMPLECTIC_TOL,
    symplectic_defect,
    unit_omega,
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
STEP_BOUND = 0.05  # max entry change between consecutive samples
SPLITTING_PROBES = (1e-3, 1e-4)  # angles e of the turns omega -> omega e^{+-ie} of estimate_splitting


class OracleError(RuntimeError):
    pass


# b_0..b_m of the [m/m] Pade approximants of exp, and the 1-norm up to which
# each is accurate to double precision unscaled (Higham, SIAM J. Matrix Anal.
# Appl. 26, 2005, Table 2.3)
PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
        110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
         129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
         40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
         9: 2.097847961257068e0, 13: 5.371920351148152e0}


def _pade(A: np.ndarray, m: int) -> np.ndarray:
    """The [m/m] Pade approximant of exp at each slice of a stack A:
    (V - U)^{-1} (V + U), U the odd and V the even part of the numerator."""
    b = PADE[m]
    eye = np.eye(A.shape[-1])
    A2 = A @ A
    if m == 13:  # Higham's evaluation, from A^2, A^4 and A^6 alone
        A4 = A2 @ A2
        A6 = A4 @ A2
        U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                 + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
        V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye
    else:
        powers = [eye, A2]  # A^0, A^2, ..., A^(m-1)
        while len(powers) <= m // 2:
            powers.append(powers[-1] @ A2)
        U = A @ sum(b[2 * j + 1] * P for j, P in enumerate(powers))
        V = sum(b[2 * j] * P for j, P in enumerate(powers))
    return np.linalg.solve(V - U, V + U)


def expm(A: np.ndarray) -> np.ndarray:
    """The exponential of a square float matrix, or of each slice of a stack
    (..., k, k), by Higham's scaling and squaring: the [m/m] Pade
    approximant with the least m of 3, 5, 7, 9 whose THETA bounds the
    slice's 1-norm, else m = 13 at A / 2^s, squared s times, with the least
    s >= 0 that brings the 1-norm to THETA[13].  m and s are chosen per
    slice and every product is taken per slice, so a stack is bitwise one
    call per slice."""
    A = np.asarray(A, dtype=float)
    flat = A.reshape((-1,) + A.shape[-2:])
    norm = np.abs(flat).sum(axis=-2).max(axis=-1)
    degree = np.select([norm <= THETA[m] for m in (3, 5, 7, 9)], [3, 5, 7, 9], 13)
    out = np.empty_like(flat)
    for m in (3, 5, 7, 9):
        if np.any(degree == m):
            out[degree == m] = _pade(flat[degree == m], m)
    big = degree == 13
    if np.any(big):
        frac, e = np.frexp(norm[big] / THETA[13])
        s = np.maximum(e - (frac == 0.5), 0)  # ceil(log2(|A|_1 / THETA[13])), at least 0
        E = _pade(np.ldexp(flat[big], -s[:, None, None]), 13)
        for k in range(int(s.max())):
            sel = s > k
            E[sel] = E[sel] @ E[sel]
        out[big] = E
    return out.reshape(A.shape)


MAX_ROOT_ITERATIONS = 64  # Denman-Beavers iterations of one square root


def _sqrtm(A: np.ndarray) -> np.ndarray:
    """The principal square root of A by the Denman-Beavers iteration
    Y <- (Y + Z^-1) / 2, Z <- (Z + Y^-1) / 2 from (A, I), which converges
    quadratically when A has no eigenvalue on the closed negative real
    axis.  It stops at the first step that changes Y by at most 1e-12 |Y|_1;
    the error of that step's result is about the square of that change."""
    Y, Z = A, np.eye(len(A))
    for _ in range(MAX_ROOT_ITERATIONS):
        Y_next, Z = 0.5 * (Y + np.linalg.inv(Z)), 0.5 * (Z + np.linalg.inv(Y))
        if np.abs(Y_next - Y).sum(axis=0).max() <= 1e-12 * np.abs(Y_next).sum(axis=0).max():
            return Y_next
        Y = Y_next
    raise OracleError("the square-root iteration of the target's logarithm did not converge")


def _logm(M: np.ndarray) -> np.ndarray:
    """The principal logarithm of a real matrix with no eigenvalue on the
    closed negative real axis, by inverse scaling and squaring (Cheng,
    Higham, Kenney and Laub, SIAM J. Matrix Anal. Appl. 22, 2001): k square
    roots bring A = M^(1/2^k) to |A - I|_1 <= 1/4, and log A =
    2 atanh(Z) = 2 (Z + Z^3/3 + Z^5/5 + ...) with Z = (A + I)^-1 (A - I),
    |Z|_1 <= 1/7; then log M = 2^k log A."""
    eye = np.eye(len(M))
    A, k = M, 0
    while np.abs(A - eye).sum(axis=0).max() > 0.25:
        A, k = _sqrtm(A), k + 1
    Z = np.linalg.solve(A + eye, A - eye)
    Z2 = Z @ Z
    X, term = Z.copy(), Z
    for j in range(1, 11):  # the first term left out, Z^23 / 23, is below 2^-61 |Z|_1
        term = term @ Z2
        X += term / (2 * j + 1)
    return math.ldexp(1.0, k + 1) * X


def _frozen(a) -> np.ndarray:
    """a as a read-only float array; a view is copied first."""
    a = np.asarray(a, dtype=float)
    if not a.flags.owndata:
        a = a.copy()
    a.flags.writeable = False
    return a


@dataclass
class SampledSymplecticPath:
    """A discretized path in Sp(2n) starting at the identity: the m-fold
    iterate of a base path gamma on [0, tau], held as one period.

    ts / mats hold gamma's samples over [0, tau], and powers holds P^0..P^m,
    P = gamma(tau).  Copy j of the iterate, on [j tau, (j + 1) tau], is
    gamma(t - j tau) P^j, so its samples are mats @ P^j; no stack of them is
    built.  A plain path is the case m = 1.  evaluator, when present,
    returns the exact matrix at arbitrary t in [0, m tau], and the index
    count halves a sample step with it.  An evaluator takes a float, giving
    one 2n x 2n matrix, or a 1-D numpy array of times, giving the stack of
    those matrices (bitwise the same as one call per time).

    ts, mats and powers are read-only arrays: a path takes its ts and mats
    as they are and freezes them, copying a view first (its base could
    still be written), and an iterate shares its period's.  bounds holds
    what the index count needs of the period alone (_period_bounds),
    filled on the period's first count; an iterate holds its period's
    list, so every iterate of one period reads the same bounds.
    """

    n: int
    tau: float
    ts: np.ndarray
    mats: np.ndarray
    evaluator: Optional[Callable[[float | np.ndarray], np.ndarray]] = None
    m: int = 1
    powers: np.ndarray = field(init=False, repr=False)
    bounds: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        self.ts, self.mats = _frozen(self.ts), _frozen(self.mats)
        if self.mats.shape[1:] != (2 * self.n, 2 * self.n):
            raise OracleError("sample shape does not match half-dimension")
        if len(self.ts) != len(self.mats):
            raise OracleError("ts and mats length mismatch")
        self.powers = np.empty((self.m + 1, 2 * self.n, 2 * self.n))
        self.powers[0] = np.eye(2 * self.n)
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(self.m):
                np.matmul(self.mats[-1], self.powers[j], out=self.powers[j + 1])
        # a non-finite power stays non-finite in every later one; gamma(tau)
        # itself is checked with the samples (validate)
        if self.m > 1 and not np.isfinite(self.powers[-1]).all():
            raise OracleError(f"the {self.m}-fold iterate overflows: gamma(tau)^{self.m} is not "
                              f"finite")
        self.powers.flags.writeable = False

    def validate(self):
        # NaN fails every comparison below, so the step and defect bounds
        # would pass it
        finite = np.isfinite(self.mats).all(axis=(1, 2))
        if not finite.all():
            raise OracleError(f"samples must be finite: sample {int(np.argmin(finite))} "
                              f"has a non-finite entry")
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
        return self.powers[-1]

    def evaluate(self, t: float | np.ndarray) -> np.ndarray:
        """The matrix at a float t, or the stack at a 1-D array of times; a
        path known only by its samples has no values between them."""
        if self.evaluator is None:
            raise OracleError("the path is known only at its samples and has no evaluator")
        return self.evaluator(t)


def _check_grid(tau, steps: int) -> None:
    """The one size and period rule of every path constructor."""
    if not 1 <= steps <= MAX_STEPS:
        raise OracleError(f"steps must lie in [1, {MAX_STEPS}], got {steps}")
    if not (math.isfinite(tau) and tau > 0):
        raise OracleError(f"tau must be finite and > 0, got {tau}")


def path_from_quadratic_hamiltonian(B, tau: float,
                                    steps: int = DEFAULT_STEPS) -> SampledSymplecticPath:
    """Solution samples of d gamma/dt = J B gamma with constant symmetric B.

    Sample i is the i-th power of the one-step exponential, built by
    doubling: with samples 0..h known, samples h+1..2h are sample h times
    samples 1..h, one batched product per doubling.  The evaluator computes
    the exponential at arbitrary t, or at a whole time grid in one call.
    steps must lie in [1, MAX_STEPS] and tau must be finite and > 0.
    """
    _check_grid(tau, steps)
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1] or B.shape[0] % 2:
        raise OracleError("B must be a 2n x 2n matrix")
    if not np.allclose(B, B.T, atol=1e-12):
        raise OracleError("B must be symmetric")
    n = B.shape[0] // 2
    dt = tau / steps
    mats = np.empty((steps + 1, 2 * n, 2 * n))
    mats[0] = np.eye(2 * n)
    # an infinite B, or a B or tau too large for floats, overflows here;
    # validate refuses the non-finite samples that result
    with np.errstate(over="ignore", invalid="ignore"):
        X = standard_J(n) @ B
        mats[1] = expm(X * dt)
        h = 1
        while h < steps:
            k = min(h, steps - h)
            mats[h + 1:h + 1 + k] = mats[h] @ mats[1:1 + k]
            h += k
    ts = np.linspace(0.0, tau, steps + 1)

    def evaluator(t):
        return expm(t[:, None, None] * X if isinstance(t, np.ndarray) else X * t)

    return SampledSymplecticPath(n=n, tau=float(tau), ts=ts, mats=mats,
                                 evaluator=evaluator).validate()


def path_from_samples(ts, mats, n: int, tau: float) -> SampledSymplecticPath:
    """A path known only by its samples.  The times must run from exactly 0
    to exactly tau without decreasing; two equal neighbouring times are
    allowed.  There are at most MAX_STEPS sample steps.  The path holds
    copies of ts and mats, so the caller's arrays stay writable."""
    ts, mats = np.array(ts, dtype=float), np.array(mats, dtype=float)
    if ts.ndim != 1 or len(ts) < 2:
        raise OracleError("a sample list needs at least 2 samples")
    _check_grid(tau, len(ts) - 1)
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
    stacks f over an array of times.  steps must lie in [1, MAX_STEPS] and
    tau must be finite and > 0."""
    _check_grid(tau, steps)

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
    A target with an eigenvalue on the closed negative real axis (to a
    relative 1e-9) is refused.
    """
    M = np.asarray(M_target, dtype=float)
    n = M.shape[0] // 2
    ev = np.linalg.eigvals(M)
    if np.any((ev.real <= 0) & (np.abs(ev.imag) <= 1e-9 * np.abs(ev))):
        raise OracleError("target has no real logarithm (negative real eigenvalues?)")
    X = _logm(M)
    J = standard_J(n)
    if np.max(np.abs(J @ X + X.T @ J)) > 1e-7:
        raise OracleError("log of target is not Hamiltonian")
    B = -J @ X
    B = 0.5 * (B + B.T)
    return path_from_quadratic_hamiltonian(B, tau, steps)


def diamond_paths(p1: SampledSymplecticPath, p2: SampledSymplecticPath,
                  steps: int = DEFAULT_STEPS) -> SampledSymplecticPath:
    """Pointwise diamond product of two paths over a common length m tau,
    sampled at steps + 1 equally spaced times; both parts need an
    evaluator.  A part whose own sample times are that grid (a plain path,
    as an iterate's cover one period) gives its samples, so a diamond of
    parts on one grid exponentiates nothing again; any other part is
    evaluated on the grid in one call."""
    length = p1.m * p1.tau
    if abs(length - p2.m * p2.tau) > 1e-12:
        raise OracleError("diamond of paths needs a common period")
    ts = np.linspace(0.0, length, steps + 1)
    mats = diamond(*(p.mats if p.evaluator is not None and np.array_equal(p.ts, ts)
                     else p.evaluate(ts) for p in (p1, p2)))

    def evaluator(t):
        return diamond(p1.evaluate(t), p2.evaluate(t))

    return SampledSymplecticPath(n=p1.n + p2.n, tau=float(length), ts=ts, mats=mats,
                                 evaluator=evaluator)


def iterate_path(path: SampledSymplecticPath, m: int) -> SampledSymplecticPath:
    """The m-fold iterate gamma^m(t) = gamma(t - j tau) gamma(tau)^j on [0, m tau],
    held as gamma's one period, m and the powers of gamma(tau); with an
    evaluator only when the path has one; refused past MAX_STEPS sample
    steps.  An iterate of an iterate has the product of their m.  The
    iterate holds gamma's bounds list, so the counts of every iterate of
    one period, however nested, share its bounds (_period_bounds)."""
    if m < 1:
        raise OracleError("m must be >= 1")
    if m == 1:
        return path
    m *= path.m
    if m * (len(path.ts) - 1) > MAX_STEPS:
        raise OracleError(f"the {m}-fold iterate would have {m} x {len(path.ts) - 1} "
                          f"sample steps, more than {MAX_STEPS}")
    iterate = SampledSymplecticPath(n=path.n, tau=path.tau, ts=path.ts, mats=path.mats, m=m)
    iterate.bounds = path.bounds
    base_eval, tau, powers = path.evaluator, path.tau, iterate.powers

    def evaluator(t):
        if isinstance(t, np.ndarray):
            j = np.minimum(t // tau, m - 1).astype(int)
        else:
            j = min(int(t // tau), m - 1)
        return base_eval(t - j * tau) @ powers[j]

    if base_eval is not None:
        iterate.evaluator = evaluator
    return iterate


XI_START = 1.0 + 2.0 ** -11  # a of the xi sample the count starts at, exact in binary


def extend_with_xi(path: SampledSymplecticPath) -> np.ndarray:
    """The sample of the canonical arc xi_n, from diag(2, ..., 1/2, ...) to
    I, that the index count of gamma starts at: diag(a, ..., 1/a, ...) with
    a = XI_START.  Its eigenvalues are real, positive and not 1, as on the
    whole arc, so no eigen-phase passes 0 before it."""
    return np.diag(np.repeat((XI_START, 1.0 / XI_START), path.n))


# ----- the eigen-phase count -------------------------------------------------
#
# W(t) = U(omega I)* U(beta(t)) (normal_forms) has eigenvalue 1
# with multiplicity nu_omega(beta(t)), and the index is the signed number of
# its eigen-phases passing 0 (Robbin and Salamon, Topology 32, 1993; Beck and
# Malham, Proc. AMS 143, 2015).  Eigenvalues of unitaries move by at most the
# distance of the unitaries (Bhatia and Davis, Linear Multilinear Algebra
# 15, 1984), so over a step whose phases cannot reach a cut c, the net
# number passing 0 is the change of #{phases in [0, c)}.  A sample step
# moves them by at most 2 asin(min(1, sqrt2 r)), r = |dM M^-1|_F the step's
# change relative to its first sample M, which is the same in every period
# of an iterate (_motion).
#
# The count runs along the path's diamond factors (_factors).  When no
# sample of a period couples the (p_k, q_k) pairs of one factor with those
# of another, every matrix the count reads is their diamond product:
# Gr(M_1 <> M_2) = Gr(M_1) + Gr(M_2), and H and U(omega I) split the same
# way, so W is the direct sum of the factors' W, its eigen-phases are the
# union of theirs, and the count is the sum of the factors' counts (the
# symplectic additivity of the index, Long 2002).  Each factor is counted at
# a cut of its own, against the bound of its own blocks, r_f = |dM_f M_f^-1|_F
# <= r.  A path that does not split, and a path whose factors differ in
# size, is counted as one factor, the whole matrix.  Every phase the count
# takes is read by the one reader normal_forms.graph_phases, in real closed
# form from the entries of a one-pair factor and omega, and by a QR and
# eigvals past it; W is unitary to rounding, so the phases carry only the
# O(u |beta(t)|) error of the sample.  The endpoint is read in the coarse
# batch: its rows give nu_omega, and its nu_omega phases are placed at 0^-
# (_endpoint); an iterate's points are gathered from its one period
# (_samples).

COARSE_BOUND = 1.5  # motion bound (rad) between the points that get eigen-data
CHUNK = 1024  # sample steps or points per batch of bounds or phases
MAX_HALVINGS = 10  # halvings of one sample step through the evaluator


def _motion(mats: np.ndarray, n: int) -> np.ndarray:
    """A bound on the eigen-phase motion of W over each step of a stack of
    samples (k + 1, 2n, 2n), or of each stack of a batch (..., k + 1, 2n,
    2n): 2 asin(min(1, sqrt2 r)) with r = |dM M^-1|_F, M the step's first
    sample.  r is the step's change relative to M, so it is the same in
    every period of an iterate: (dM P^j)(M P^j)^-1 = dM M^-1.  M^-1 =
    [[D^T, -B^T], [-C^T, A^T]] is taken by slicing.  The count applies it to
    each diamond factor's blocks, n the factor's half-dimension.  The bound
    trusts the path not to stray between samples.  A period's sample-step
    bounds are taken once, on its first count (_period_bounds), so a patched
    _motion bounds them only for periods first counted after the patch; the
    refinement's halves see it at once."""
    dM = np.diff(mats, axis=-3)
    MT = mats[..., :-1, :, :].swapaxes(-1, -2)
    inv = np.empty_like(MT)
    inv[..., :n, :n] = MT[..., n:, n:]
    np.negative(MT[..., n:, :n], out=inv[..., :n, n:])
    np.negative(MT[..., :n, n:], out=inv[..., n:, :n])
    inv[..., n:, n:] = MT[..., :n, :n]
    rel = dM @ inv
    r = np.sqrt(np.einsum("...ij,...ij->...", rel, rel))
    return 2 * np.arcsin(np.minimum(1.0, math.sqrt(2) * r))


def _count(p0: np.ndarray, p1: np.ndarray, bound):
    """The step rule, for steps whose end phases are the rows of p0 and p1:
    (net, ok), net the change of #{phases in [0, c)} at the cut c in the
    middle of the widest circular gap between the row's end phases, the cut
    farthest from all of them, and ok that c is farther than the step's
    motion bound, so that net is the number of phases passing 0 over it.  At
    any cut that no phase can reach, the net is the same; a phase at 2pi
    (0^-, _endpoint) lies outside [0, c), since c < 2pi."""
    q = np.concatenate((p0, p1), axis=-1)
    p = np.sort(q, axis=-1)
    gap = np.empty_like(p)
    np.subtract(p[:, 1:], p[:, :-1], out=gap[:, :-1])
    gap[:, -1] = p[:, 0] + 2 * math.pi - p[:, -1]  # the one that wraps past 0
    rows = np.arange(len(p))
    best = gap.argmax(axis=-1)
    room = 0.5 * gap[rows, best]
    cut = ((p[rows, best] + room) % (2 * math.pi))[:, None]
    net = (q < cut) @ np.repeat((-1, 1), p0.shape[-1])  # p1's phases below the cut less p0's
    return net, room > bound


def _phases(M: np.ndarray, omega: complex) -> np.ndarray:
    """W's eigen-phases in [0, 2pi), per block of a stack M of factor
    blocks, read CHUNK blocks at a time (normal_forms.graph_phases)."""
    return np.concatenate([graph_phases(M[lo:lo + CHUNK])(omega)
                           for lo in range(0, len(M), CHUNK)])


def _samples(path: SampledSymplecticPath, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(times, matrices) of the iterate's samples k, an int array, in one
    batched product: sample k = j L + i, L the base's sample steps, is copy
    j's base sample i, mats[i] P^j at ts[i] + j tau; the last, k = m L, is
    copy m - 1's last sample."""
    L = len(path.ts) - 1
    j = np.minimum(k // L, path.m - 1)
    i = k - j * L
    return path.ts[i] + j * path.tau, path.mats[i] @ path.powers[j]


def _factors(path: SampledSymplecticPath) -> np.ndarray:
    """The diamond factors of the path's period, one row per factor: the
    coordinates p_k of its pairs, then their q_k.  Pairs k and l share a
    factor when some sample of the period, P = gamma(tau) among them, has a
    nonzero entry coupling them; a sample keeps every iterate's matrices on
    the same pattern, and S keeps it by construction.
    Factors of different sizes are taken as one, so that one count runs
    them along one axis; a path that does not split is that one factor, the
    whole matrix, row 0..2n-1."""
    n = path.n
    nz = (path.mats != 0).any(axis=0)
    reach = nz[:n, :n] | nz[:n, n:] | nz[n:, :n] | nz[n:, n:] | np.eye(n, dtype=bool)
    reach = reach | reach.T
    for _ in range(n.bit_length()):  # the transitive closure, by squaring
        reach = (reach.astype(int) @ reach.astype(int)) > 0
    label = reach.argmax(axis=1)  # each pair's first partner names its factor
    pairs = [np.flatnonzero(label == k) for k in sorted(set(label.tolist()))]
    if len({len(p) for p in pairs}) > 1:
        pairs = [np.arange(n)]
    pairs = np.array(pairs)
    return np.concatenate((pairs, pairs + n), axis=1)


def _blocks(M: np.ndarray, idx: np.ndarray, f: Optional[np.ndarray] = None) -> np.ndarray:
    """The factor blocks (..., F, 2k, 2k) of a stack M (..., 2n, 2n), idx
    the F factors of _factors, or with f, the block (q, 2k, 2k) of factor
    f[r] of each matrix r of a stack (q, 2n, 2n); one factor is the whole
    matrix, a view."""
    if len(idx) == 1:
        return M if f is not None else M[..., None, :, :]
    if f is None:
        return M[..., idx[:, :, None], idx[:, None, :]]
    own = idx[f]
    return M[np.arange(len(M))[:, None, None], own[:, :, None], own[:, None, :]]


def _period_bounds(path: SampledSymplecticPath, S: np.ndarray) -> list:
    """[idx, start, cum_base, cum_max] of the path's period: its factors
    (_factors), each factor's motion bound over the start step from S =
    extend_with_xi(gamma) to gamma(0) = I, the summed motion bounds of the
    factors' sample steps, cum_base[i, f] over steps 0..i-1 of factor f, and
    the same sum of each step's largest factor bound, cum_max[i], on which
    the coarse points are placed.  They depend on the period alone, so they
    are computed on its first count, CHUNK sample steps at a time, and kept
    in path.bounds, the list the period shares with its iterates."""
    if not path.bounds:
        L = len(path.ts) - 1
        idx = _factors(path)
        k = idx.shape[1] // 2

        def motion(mats):  # (F, steps): each factor's bound over each step of a stack
            return _motion(np.swapaxes(_blocks(mats, idx), 0, 1), k)

        base = np.concatenate([motion(path.mats[lo:min(lo + CHUNK, L) + 1])
                               for lo in range(0, L, CHUNK)], axis=1).T
        path.bounds.extend((idx, motion(np.stack((S, path.mats[0])))[:, 0],
                            np.concatenate((np.zeros((1, len(idx))), np.cumsum(base, axis=0))),
                            np.concatenate(([0.0], np.cumsum(base.max(axis=1))))))
    return path.bounds


def _scan(path: SampledSymplecticPath, S: np.ndarray, omega: complex) -> tuple[int, int]:
    """(count, nu_omega(gamma(tau))): count is the signed number of
    eigen-phases of W passing 0 over the start step from S =
    extend_with_xi(gamma) to gamma(0) = I and over gamma's own samples.
    The endpoint gamma(tau) is read in the coarse batch, one row per factor:
    its rows give nu_omega, the sum of the factors', and the count ends with
    its nu_omega phases at 0^- (_endpoint, cz_index).

    The count runs along the factors of the period (_period_bounds): each
    step is one row per factor, counted from that factor's phases at a cut
    of its own, against that factor's motion bound, and the index is the sum
    over every row.  Scan point 0 is S, and scan point p >= 1 is sample
    p - 1 of the iterate (_samples).  The period's steps are bounded once
    per process, on its first count: copy j's step has its base step's
    bound (_motion), so the summed bound up to sample j L + i is the start
    step's, plus j times the base's total, plus the base's up to i.  No
    phase has passed 0 before S, and its phases are resolved for every
    omega.  The phases at each scan point are read once and shared by the
    two steps that meet there, and each step's net is the same at any cut
    farther than its bound, so a passage there counts once.

    Sample steps are grouped into coarse steps whose largest factor bound is
    about COARSE_BOUND.  S, the coarse points and gamma(tau) are read in
    one _phases call.  A coarse row's bound is the sum of its factor's
    sample-step bounds, and a row whose widest-gap cut (_count) is not
    farther than its bound is refined until each of its parts is counted at
    a cut farther than that part's bound; so COARSE_BOUND sets only the
    cost, never the count.  When every coarse row finds its cut, the count
    ends there.  The refinement runs in rounds, each over every
    row still unresolved: a step between two scan points at least 2 apart
    is halved at the scan point between them, any other sample step at its
    mid-time through the evaluator.  A round gathers all its midpoints in
    one _samples product and one path.evaluate call, which evaluates each
    distinct time once (the factors of a step share its midpoints), reads
    their factor blocks' phases in one _phases call, bounds the halves by
    the summed bounds and one batched _motion of the (M0, mid, M1) blocks,
    and counts them in one _count.  An evaluator midpoint must keep the
    factors apart, as the samples do, or the count is refused.  The start
    step is never halved: its ends depend only on n and omega, and its
    motion bound is about 2e-3 sqrt(n) rad.  A sample step is halved
    through the evaluator at most MAX_HALVINGS times."""
    n, m, L = path.n, path.m, len(path.ts) - 1
    idx, start, cum_base, cum_max = _period_bounds(path, S)
    F, k = idx.shape[0], idx.shape[1] // 2
    N = m * L + 1  # the iterate's samples; scan points 0..N
    total = cum_base[-1]

    def cum(p, f):  # the summed motion bounds of factors f from scan point 0 to scan points p
        q = np.maximum(p - 1, 0)
        j = np.minimum(q // L, m - 1)
        return np.where(p == 0, 0.0, start[f] + j * total[f] + cum_base[q - j * L, f])

    first, whole = start.max(), cum_max[-1]
    goal = np.arange(COARSE_BOUND, first + m * whole, COARSE_BOUND) - first
    j = np.clip(goal // whole, 0, m - 1).astype(int)
    marks = j * L + np.minimum(np.searchsorted(cum_max, goal - j * whole), L) + 1
    # marks never decrease, so dropping repeats leaves the coarse points in
    # order; np.unique would import numpy.ma on its first call
    coarse = np.concatenate(([0], marks, [N]))
    coarse = coarse[np.concatenate(([True], coarse[1:] > coarse[:-1]))]
    t, M = _samples(path, coarse[1:] - 1)
    M[-1] = path.endpoint()  # gamma(tau) as P^m, the matrix that nu_omega is read from
    # point q is (scan point, t, factor blocks, phases) at coarse[q]; a
    # midpoint through the evaluator, off the samples, has scan point -1
    t, M = np.concatenate(([0.0], t)), _blocks(np.concatenate((S[None], M)), idx)
    ph = _phases(M.reshape(-1, 2 * k, 2 * k), omega).reshape(-1, F, 2 * k)
    nu = int(_endpoint(M[-1], omega, ph[-1])[0].sum())
    bound = np.diff(cum(coarse[:, None], np.arange(F)), axis=0)
    counts, ok = _count(ph[:-1].reshape(-1, 2 * k), ph[1:].reshape(-1, 2 * k), bound.reshape(-1))
    if ok.all():
        return int(counts.sum()), nu

    # the rows (step, factor) whose cut is too near, in path order, each
    # held as its ends (lo, hi) and its row of counts, step F + factor
    row = np.flatnonzero(~ok)
    counts[row] = 0
    step = row // F
    M, ph = M.reshape(-1, 2 * k, 2 * k), ph.reshape(-1, 2 * k)  # one row per (point, factor)
    lo = (coarse[step], t[step], M[row], ph[row])
    hi = (coarse[step + 1], t[step + 1], M[row + F], ph[row + F])
    depth = np.full(len(row), MAX_HALVINGS)

    def pairs(x, y):  # each row's left half, then its right half
        return np.stack((x, y), axis=1).reshape((-1,) + x.shape[1:])

    while len(row):
        (i0, t0, M0, _), (i1, t1, M1, _) = lo, hi
        f = row % F
        on_samples = (i0 >= 0) & (i1 - i0 >= 2)
        through = ~on_samples
        refused = through & ((depth == 0) | (i0 == 0) | (path.evaluator is None))
        if refused.any():
            q = int(np.argmax(refused))
            if i0[q] == 0:
                raise OracleError(f"eigen-phases move too far over the start step from "
                                  f"diag({XI_START}, {1 / XI_START}) to gamma(0) = I at "
                                  f"omega = {omega:.6g}")
            if path.evaluator is None:
                raise OracleError(f"eigen-phases move too far over the sample step at "
                                  f"t = {t0[q]:.6g}, and the path has no evaluator to halve it")
            raise OracleError(f"eigen-phases not resolved after {MAX_HALVINGS} halvings "
                              f"of the sample step at t = {t0[q]:.6g}")
        mid = np.where(on_samples, (i0 + i1) // 2, -1)
        tk, Mk = np.empty_like(t0), np.empty((len(row), 2 * n, 2 * n))
        halves = np.empty((len(row), 2))
        if on_samples.any():
            tk[on_samples], Mk[on_samples] = _samples(path, mid[on_samples] - 1)
            c = cum(np.stack((i0, mid, i1), axis=1)[on_samples], f[on_samples, None])
            halves[on_samples] = np.diff(c, axis=1)
        if through.any():
            tk[through] = 0.5 * (t0[through] + t1[through])
            # the factors of one step share its midpoints: each is evaluated once
            at, each = np.unique(tk[through], return_inverse=True)
            Mt = path.evaluate(at)
            apart = np.ones((2 * n, 2 * n), dtype=bool)  # the entries that couple two factors
            apart[idx[:, :, None], idx[:, None, :]] = False
            coupled = np.any(Mt[:, apart], axis=1)
            if coupled.any():
                raise OracleError(f"the path's value at t = {at[coupled][0]:.6g} "
                                  f"couples diamond factors that its samples keep apart")
            Mk[through] = Mt[each]
        Mk = _blocks(Mk, idx, f)
        if through.any():
            halves[through] = _motion(np.stack((M0[through], Mk[through], M1[through]), axis=1), k)
        mid = (mid, tk, Mk, _phases(Mk, omega))
        lo, hi = tuple(map(pairs, lo, mid)), tuple(map(pairs, mid, hi))
        row = np.repeat(row, 2)
        depth = np.repeat(np.where(on_samples, depth, depth - 1), 2)
        net, ok = _count(lo[3], hi[3], halves.reshape(-1))
        np.add.at(counts, row[ok], net[ok])
        todo = ~ok
        row, depth = row[todo], depth[todo]
        lo, hi = (tuple(x[todo] for x in ends) for ends in (lo, hi))
    return int(counts.sum()), nu


def _on_circle(omega) -> complex:
    """omega as a complex number.  Off the unit circle, the refusal of
    normal_forms.unit_omega is raised as OracleError, in the words of
    _endpoint's refusals."""
    omega = complex(omega)
    try:
        return unit_omega(omega)
    except NormalFormError as exc:
        raise OracleError(f"at gamma(tau), omega = {omega:.6g}: {exc}") from exc


def _endpoint(M: np.ndarray, omega: complex, p: np.ndarray):
    """(nu_omega(M), g) of gamma(tau) = M, or of the stack M of its factor
    blocks, from W's phases p at omega, one row per block, and M's frame
    defect (normal_forms.phase_nullity), a refusal raised as OracleError;
    for a stack, nu_omega and g are arrays, one entry per block.  Every
    phase of p read within PHASE_TOL of 0, which are the nu_omega phases,
    is set in place to 2pi: the 0^- to which M e^{-sJ} takes them as
    s -> 0+ (cz_index)."""
    try:
        nu, gap = phase_nullity(p, frame_defect(M))
    except NormalFormError as exc:
        raise OracleError(f"at gamma(tau), omega = {omega:.6g}: {exc}") from exc
    p[np.minimum(p, 2 * math.pi - p) <= PHASE_TOL] = 2 * math.pi
    return nu, gap


def cz_index(path: SampledSymplecticPath, omega):
    """(i_omega, nu_omega) of a sampled path by the eigen-phase count.

    omega is a unit-circle complex number (1 and -1 included); one off the
    circle is refused.  The count runs once, unperturbed, over gamma's own
    samples, from the one xi sample extend_with_xi(gamma) on, along the
    diamond factors of gamma's period (_scan).  gamma(tau) is read once, its
    factor blocks in the coarse batch (_endpoint): nu_omega is the sum of
    the factors'.

    When nu_omega(gamma(tau)) > 0, the index is Long's limit: that of
    gamma e^{-eps (t/tau) J} as eps -> 0+.  A homotopy with fixed end
    points, (t, s) -> gamma(t) e^{-sJ}, takes that path to gamma followed
    by the perturbation gamma(tau) e^{-sJ}, s in [0, eps].  The scan's last
    step ends with the nu_omega phases at 0^- (_endpoint), and that count
    is the limit, exactly:
    - along M e^{-sJ} the crossing form is that of the Hamiltonian -I,
      which is negative definite, so every phase at 0 leaves it clockwise,
      whatever M = gamma(tau);
    - every other phase lies at least g from 0, g the distance of W's
      nearest nonzero phase, and the perturbation moves it by at most
      2 asin(2 sin(eps/2)), which goes to 0 with eps;
    - the last step was counted at a cut farther than its motion bound, a
      strict inequality, so for every small eps the step followed by the
      perturbation keeps that cut, and its end phases tend to the 0^-
      placement.
    So the count is that limit, with no eps chosen.

    An undecided nu_omega(gamma(tau)), a phase of W too near PHASE_TOL to
    be told from it, raises OracleError.
    """
    return _scan(path, extend_with_xi(path), _on_circle(omega))


def estimate_splitting(path: SampledSymplecticPath, omega):
    """Oracle estimate of (S^+, S^-) at omega from the endpoint M alone (Long
    2002): the net number of eigen-phases of W = U(w I)* U(M) passing 0 as w
    runs from omega to omega e^{+-ie}, for M e^{-dJ} with d -> 0+ when M is
    degenerate, as in cz_index: the nu_omega phases at 0 start from 0^-,
    outside every [0, c) (_endpoint).  The phases move by at most e, so
    each count is read at a cut farther than e from them.  The probes are
    min(e, g/4) for e in SPLITTING_PROBES, g the distance from 0 of W's
    nearest nonzero eigen-phase, so that no nonzero phase reaches 0; they
    must agree.  M is read once (normal_forms.graph_phases): the phases at
    omega, which give nu_omega and g (_endpoint), and at the probes.

    The floor: a probe e moves a phase at 0 of a sheared block B (N1(1, b),
    N2) by only about e^2 / |B|, and a read of W's phases from U(M) is exact
    to about the unit roundoff 2^-52, whatever |M|; so when some probe
    leaves a phase within 2^-52 of 0, which only the nu_omega phases at 0
    can be, the estimate is refused with OracleError.  For |B| about 1 that
    is g below about 6e-8, whatever else M holds.
    """
    omega = _on_circle(omega)
    M = path.endpoint()
    phases = graph_phases(M)
    p0 = phases(omega)
    nu, gap = _endpoint(M, omega, p0)
    probes = [min(e, 0.25 * gap) for e in SPLITTING_PROBES]
    turns = [complex(math.cos(e), sign * math.sin(e)) for e in probes for sign in (1, -1)]
    p = phases([omega * t for t in turns])
    if nu and np.any(np.minimum(p, 2 * math.pi - p) <= np.finfo(float).eps):
        raise OracleError(f"the nearest nonzero eigen-phase of W lies {gap:.3g} from 0: a probe "
                          f"of {min(probes):.3g} cannot move the phases at 0 past rounding")
    bounds = np.repeat(probes, 2)
    net, ok = _count(np.broadcast_to(p0, p.shape), p, bounds)
    if not ok.all():
        raise OracleError(f"no cut farther than {bounds[~ok][0]:g} from the eigen-phases at omega")
    plus_vals, minus_vals = net[0::2].tolist(), net[1::2].tolist()
    if len(set(plus_vals)) != 1 or len(set(minus_vals)) != 1:
        raise OracleError(
            f"splitting estimate unstable across probes: +{plus_vals}, -{minus_vals}")
    return plus_vals[0], minus_vals[0]
