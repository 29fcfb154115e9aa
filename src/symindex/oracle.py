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
step count 2, and a touch nets 0.

A degenerate endpoint follows the convention gamma(T) e^{-eps J}: its index
is that of gamma e^{-eps (t/T) J}, which realizes the infimum over nearby
nondegenerate paths when eps is small against the endpoint's other
eigenvalues.  So eps is read from the endpoint: the arc moves no phase of W
by more than half the distance g from 0 of its nearest nonzero one
(_arc_length).  The count is invariant under homotopies with fixed
end points, and (t, s) -> gamma(t) e^{-sJ} on [0, T] x [0, eps] is one from
that path to gamma followed by the arc gamma(T) e^{-sJ}, s in [0, eps]; so
the count runs once over gamma's own samples, unperturbed, and goes on
over that short arc.  The sign convention is pinned by agreement with the
iteration formulas on rotation paths and recorded here: an eigen-phase
passing 0 counterclockwise, as the phases at 0 do along M e^{sJ} with s
increasing, counts +1.  The splitting estimate reads the endpoint alone,
with probes also bounded by g, and refuses a g too small for its probes to
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
    graph_phases,
    graph_unitary,
    read_graph,
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
ARC_LENGTH = 1e-4  # the longest endpoint arc e^{-sJ} of a degenerate endpoint
STEP_BOUND = 0.05  # max entry change between consecutive samples
SPLITTING_PROBES = (1e-3, 1e-4)  # angles e of the arcs omega -> omega e^{+-ie} of estimate_splitting


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
        for j in range(self.m):
            np.matmul(self.mats[-1], self.powers[j], out=self.powers[j + 1])
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
# of an iterate (_motion).  An arc step M e^{-sJ}, s over an interval of
# length h, moves them by at most 2 asin(min(1, 2 sin(h/2))) whatever M
# (_arc_motion):
# Gr(M e^{-sJ}) = diag(e^{sJ}, I) Gr(M), and diag(e^{sJ}, I) commutes with H
# and acts on its +1 and -1 eigenspaces as unitaries that move by at most
# |e^{ih} - 1| = 2 sin(h/2) each.  Every phase the count takes is read through
# normal_forms.graph_unitary, from an orthonormal basis of the graph, so W is
# unitary to rounding and the phases' error does not grow with |beta(t)|;
# the endpoint's are those of the read that gave nu_omega and g.  An
# iterate's points are gathered from its one period (_samples).

COARSE_BOUND = 1.5  # motion bound (rad) between the points that get eigen-data
CHUNK = 1024  # sample steps, points or steps per batch of bounds, phases or counts
CUTS = np.linspace(0.25, 2 * math.pi - 0.25, 64)  # the cuts a step may count at
MAX_HALVINGS = 10  # halvings of one sample step through the evaluator, or of one arc step


def _motion(mats: np.ndarray, n: int) -> np.ndarray:
    """A bound on the eigen-phase motion of W over each step of a stack of
    samples (k + 1, 2n, 2n), or of each stack of a batch (..., k + 1, 2n,
    2n): 2 asin(min(1, sqrt2 r)) with r = |dM M^-1|_F, M the step's first
    sample.  r is the step's change relative to M, so it is the same in
    every period of an iterate: (dM P^j)(M P^j)^-1 = dM M^-1.  M^-1 =
    [[D^T, -B^T], [-C^T, A^T]] is taken by slicing.  The bound trusts the
    path not to stray between samples.  A period's sample-step bounds are
    taken once, on its first count (_period_bounds), so a patched _motion
    bounds them only for periods first counted after the patch; the
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


def _arc(M: np.ndarray, s: np.ndarray) -> np.ndarray:
    """M e^{-sJ} = M (cos s I - sin s J) at each s of a 1-D array, the arc
    that moves a degenerate endpoint M off its eigenvalue."""
    n = len(M) // 2
    c, si = np.cos(s)[:, None, None], np.sin(s)[:, None, None]
    return M @ (c * np.eye(2 * n) - si * standard_J(n))


def _arc_motion(h):
    """A bound on the eigen-phase motion of W over the arc M e^{-sJ} as s
    runs over an interval of length h, whatever M; h a float or an array."""
    return 2 * np.arcsin(np.minimum(1.0, 2 * np.sin(0.5 * np.abs(h))))


def _count(p0: np.ndarray, p1: np.ndarray, bound):
    """The step rule, for steps whose end phases are the rows of p0 and p1:
    (net, ok), net the change of #{phases in [0, c)} at the cut c of CUTS
    farthest from every end phase, and ok that c is farther than the step's
    motion bound, so that net is the number of phases passing 0 over it.
    Steps are taken CHUNK at a time, which bounds the temporaries."""
    if len(p0) > CHUNK:
        parts = [_count(p0[lo:lo + CHUNK], p1[lo:lo + CHUNK], bound[lo:lo + CHUNK])
                 for lo in range(0, len(p0), CHUNK)]
        return tuple(np.concatenate(part) for part in zip(*parts))
    room = np.full((len(p0), len(CUTS)), math.pi)
    d = np.empty_like(room)
    for p in np.concatenate((p0, p1), axis=-1).T:  # one end phase of every step at a time
        np.abs(np.subtract(p[:, None], CUTS, out=d), out=d)
        np.minimum(room, d, out=room)
        np.minimum(room, np.subtract(2 * math.pi, d, out=d), out=room)
    best = room.argmax(axis=-1)
    cut = CUTS[best, None]
    net = np.sum(p1 < cut, axis=-1) - np.sum(p0 < cut, axis=-1)
    return net, room[np.arange(len(best)), best] > bound


def _phases(M: np.ndarray, omega: complex) -> np.ndarray:
    """W's eigen-phases in [0, 2pi), per matrix of a stack M, read CHUNK
    matrices at a time."""
    return np.concatenate([graph_phases(graph_unitary(M[lo:lo + CHUNK])[0], omega)
                           for lo in range(0, len(M), CHUNK)]) % (2 * math.pi)


def _samples(path: SampledSymplecticPath, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(times, matrices) of the iterate's samples k, an int array, in one
    batched product: sample k = j L + i, L the base's sample steps, is copy
    j's base sample i, mats[i] P^j at ts[i] + j tau; the last, k = m L, is
    copy m - 1's last sample."""
    L = len(path.ts) - 1
    j = np.minimum(k // L, path.m - 1)
    i = k - j * L
    return path.ts[i] + j * path.tau, path.mats[i] @ path.powers[j]


def _period_bounds(path: SampledSymplecticPath, S: np.ndarray) -> list:
    """[start, cum_base] of the path's period: the motion bound of the
    start step from S = extend_with_xi(gamma) to gamma(0) = I, and the
    summed motion bounds of its sample steps, cum_base[i] over steps
    0..i-1.  They depend on the period alone, so they are computed on its
    first count, CHUNK sample steps at a time, and kept in path.bounds,
    the list the period shares with its iterates."""
    if not path.bounds:
        n, L = path.n, len(path.ts) - 1
        base = np.concatenate([_motion(path.mats[lo:min(lo + CHUNK, L) + 1], n)
                               for lo in range(0, L, CHUNK)])
        path.bounds.extend((_motion(np.stack((S, path.mats[0])), n)[0],
                            np.concatenate(([0.0], np.cumsum(base)))))
    return path.bounds


def _scan(path: SampledSymplecticPath, omega: complex, eps: float, end: np.ndarray) -> int:
    """The signed count of eigen-phases of W passing 0 over the start step
    from S = extend_with_xi(gamma) to gamma(0) = I, over gamma's own samples
    and, for eps > 0, over the endpoint arc gamma(tau) e^{-sJ}, s from 0 to
    eps / 2 to eps; no phase may pass 0 on the arc's second half.  end holds
    the phases at gamma(tau), from the read that gave nu_omega and g.

    Scan point 0 is S, and scan point p >= 1 is sample p - 1 of the iterate
    (_samples).  The period's steps are bounded once per process, on its
    first count (_period_bounds): copy j's step has its base step's bound
    (_motion), so the summed bound up to sample j L + i is the start
    step's, plus j times the base's total, plus the base's up to i.  No
    phase has passed 0 before S, and its phases are resolved for
    every omega.  The phases at I and at gamma(tau), 0 up to rounding when
    degenerate, are read once and shared by the two steps that meet there,
    so a passage there counts once.

    Sample steps are grouped into coarse steps of motion bound about
    COARSE_BOUND.  A coarse step's bound is the sum of its sample steps'
    bounds, and a step whose best cut is not farther than its bound is
    refined until each of its parts is counted at a cut farther than that
    part's bound; so COARSE_BOUND sets only the cost, never the count.  The
    refinement runs in rounds, each over every step still unresolved: a
    step between two scan points at least 2 apart is halved at the scan
    point between them, any other sample step at its mid-time through the
    evaluator, and an arc step at its mid-s through _arc.  A round gathers
    all its midpoints in one _samples product, one path.evaluate call and
    one _arc call, reads their phases in one _phases call, bounds the
    halves by the summed bounds, one batched _motion of the (M0, mid, M1)
    triples and _arc_motion, and counts them in one _count.  The start step
    is never halved: its ends depend only on n and omega, and its motion
    bound is about 2e-3 sqrt(n) rad.  An evaluator or arc step is halved at
    most MAX_HALVINGS times."""
    n, m, L = path.n, path.m, len(path.ts) - 1
    S = extend_with_xi(path)
    start, cum_base = _period_bounds(path, S)
    N = m * L + 1  # the iterate's samples; scan points 0..N
    total = cum_base[-1]

    def cum(p):  # the summed motion bound from scan point 0 to each of the scan points p
        k = np.maximum(p - 1, 0)
        j = np.minimum(k // L, m - 1)
        return np.where(p == 0, 0.0, start + j * total + cum_base[k - j * L])

    goal = np.arange(COARSE_BOUND, start + m * total, COARSE_BOUND) - start
    j = np.clip(goal // total, 0, m - 1).astype(int)
    marks = j * L + np.minimum(np.searchsorted(cum_base, goal - j * total), L) + 1
    coarse = np.unique(np.concatenate(([0], marks, [N])))
    arc = np.array([0.5 * eps, eps] if eps else [])
    E = path.endpoint()
    t, M = _samples(path, coarse[1:] - 1)
    # point q is (scan point, t, M, phases) at coarse[q], then at the arc
    # points; a point off the samples, a midpoint through the evaluator or
    # on the arc, has scan point -1, and an arc point holds s for t
    i = np.concatenate((coarse, np.full(len(arc), -1)))
    t = np.concatenate(([0.0], t, arc))
    M = np.concatenate((S[None], M, _arc(E, arc) if eps else M[:0]))
    last = len(coarse) - 1  # gamma(tau), whose phases are end
    ph = _phases(np.concatenate((M[:last], M[last + 1:])), omega)
    ph = np.concatenate((ph[:last], end[None], ph[last:]))
    bound = np.concatenate((np.diff(cum(coarse)), np.full(len(arc), _arc_motion(0.5 * eps))))
    counts, ok = _count(ph[:-1], ph[1:], bound)

    # the steps whose cut is too near, in path order, each held as its ends
    # (lo, hi) and the coarse step it is part of
    step = np.flatnonzero(~ok)
    counts[step] = 0
    lo = (i[step], t[step], M[step], ph[step])
    hi = (i[step + 1], t[step + 1], M[step + 1], ph[step + 1])
    depth = np.full(len(step), MAX_HALVINGS)

    def pairs(x, y):  # each step's left half, then its right half
        return np.stack((x, y), axis=1).reshape((-1,) + x.shape[1:])

    while len(step):
        (i0, t0, M0, _), (i1, t1, M1, _) = lo, hi
        on_samples = (i0 >= 0) & (i1 - i0 >= 2)
        on_arc = ~on_samples & (step >= last)
        through = ~on_samples & ~on_arc
        s0 = np.where(i0 >= 0, 0.0, t0)  # the arc starts at scan point N
        refused = ~on_samples & (depth == 0) | through & ((i0 == 0) | (path.evaluator is None))
        if refused.any():
            q = int(np.argmax(refused))
            if on_arc[q]:
                raise OracleError(f"eigen-phases not resolved after {MAX_HALVINGS} halvings "
                                  f"of the endpoint arc gamma(tau) e^{{-sJ}} at s = {s0[q]:.6g}")
            if i0[q] == 0:
                raise OracleError(f"eigen-phases move too far over the start step from "
                                  f"diag({XI_START}, {1 / XI_START}) to gamma(0) = I at "
                                  f"omega = {omega:.6g}")
            if path.evaluator is None:
                raise OracleError(f"eigen-phases move too far over the sample step at "
                                  f"t = {t0[q]:.6g}, and the path has no evaluator to halve it")
            raise OracleError(f"eigen-phases not resolved after {MAX_HALVINGS} halvings "
                              f"of the sample step at t = {t0[q]:.6g}")
        k = np.where(on_samples, (i0 + i1) // 2, -1)
        tk, Mk, halves = np.empty_like(t0), np.empty_like(M0), np.empty((len(step), 2))
        if on_samples.any():
            tk[on_samples], Mk[on_samples] = _samples(path, k[on_samples] - 1)
            halves[on_samples] = np.diff(cum(np.stack((i0, k, i1), axis=1)[on_samples]), axis=1)
        if through.any():
            tk[through] = 0.5 * (t0[through] + t1[through])
            Mk[through] = path.evaluate(tk[through])
            halves[through] = _motion(np.stack((M0[through], Mk[through], M1[through]), axis=1), n)
        if on_arc.any():
            tk[on_arc] = 0.5 * (s0[on_arc] + t1[on_arc])
            Mk[on_arc] = _arc(E, tk[on_arc])
            halves[on_arc] = _arc_motion(0.5 * (t1[on_arc] - s0[on_arc]))[:, None]
        mid = (k, tk, Mk, _phases(Mk, omega))
        lo, hi = tuple(map(pairs, lo, mid)), tuple(map(pairs, mid, hi))
        step = np.repeat(step, 2)
        depth = np.repeat(np.where(on_samples, depth, depth - 1), 2)
        net, ok = _count(lo[3], hi[3], halves.reshape(-1))
        np.add.at(counts, step[ok], net[ok])
        step, depth = step[~ok], depth[~ok]
        lo, hi = (tuple(x[~ok] for x in ends) for ends in (lo, hi))
    if eps and counts[-1]:
        index = int(np.sum(counts[:-1]))
        raise OracleError(f"unstable count under perturbation ({index + counts[-1]} vs {index})")
    return int(np.sum(counts))


def _endpoint(M: np.ndarray, omega: complex) -> tuple[int, float, np.ndarray, np.ndarray]:
    """(nu_omega(M), g, U(M), W's phases in [0, 2pi)) from
    normal_forms.read_graph, a refusal raised as OracleError."""
    try:
        nu, gap, U, p = read_graph(M, omega)
    except NormalFormError as exc:
        raise OracleError(f"at gamma(tau), omega = {omega:.6g}: {exc}") from exc
    return nu, gap, U, p % (2 * math.pi)


def _arc_length(gap: float) -> float:
    """The length eps of the endpoint arc at an endpoint whose nearest
    nonzero eigen-phase of W lies gap from 0: min(ARC_LENGTH,
    2 asin(sin(gap/4) / 2)), so that _arc_motion(eps) <= gap / 2 and no
    nonzero phase reaches 0 on the arc."""
    return min(ARC_LENGTH, 2 * math.asin(0.5 * math.sin(0.25 * gap)))


def cz_index(path: SampledSymplecticPath, omega):
    """(i_omega, nu_omega) of a sampled path by the eigen-phase count.

    omega is a unit-circle complex number (1 and -1 included).  The count
    runs once, unperturbed, over gamma's own samples, from the one xi sample
    extend_with_xi(gamma) on.  When nu_omega(gamma(tau)) > 0, the index is
    that of gamma e^{-eps (t/tau) J}, whose endpoint is gamma(tau) e^{-eps J};
    a homotopy with fixed end points, (t, s) -> gamma(t) e^{-sJ}, takes that
    path to gamma followed by the arc gamma(tau) e^{-sJ}, s in [0, eps], so
    the scan goes on over that arc.  eps = min(ARC_LENGTH, 2 asin(sin(g/4)
    / 2)) (_arc_length), g the distance from 0 of W's nearest nonzero
    eigen-phase, read with nu_omega: the arc moves every phase by at most
    g / 2, so only the phases at 0 pass 0 on it, and the index is Long's
    i_omega, shared by every eps small against g.  The counts at eps and
    eps / 2 must agree.

    An undecided nu_omega(gamma(tau)), a phase of W too near PHASE_TOL to
    be told from it, raises OracleError.
    """
    omega = complex(omega)
    nu, gap, _, end = _endpoint(path.endpoint(), omega)
    return _scan(path, omega, _arc_length(gap) if nu else 0.0, end), nu


def estimate_splitting(path: SampledSymplecticPath, omega):
    """Oracle estimate of (S^+, S^-) at omega from the endpoint M alone (Long
    2002): the net number of eigen-phases of W = U(w I)* U(M) passing 0 as w
    runs from omega to omega e^{+-ie}, for M e^{-dJ} with d -> 0+ when M is
    degenerate, as in cz_index.  Along M e^{-sJ} the nu_omega phases at 0
    leave it clockwise, whatever M, so they are read at 0^-, outside every
    [0, c).  The phases move by at most e, so each count is read at a cut
    farther than e from them.  The probes are min(e, g/4) for e in
    SPLITTING_PROBES, g the distance from 0 of W's nearest nonzero
    eigen-phase, so that no nonzero phase reaches 0; they must agree.
    Every phase is read from the one unitary U(M) that also gives nu_omega
    and g (normal_forms.read_graph).

    The floor: a probe e moves a phase at 0 of a sheared block B (N1(1, b),
    N2) by only about e^2 / |B|, and a read of W's phases from U(M) is exact
    to about the unit roundoff 2^-52, whatever |M|; so when some probe
    leaves a phase within 2^-52 of 0, which only the nu_omega phases at 0
    can be, the estimate is refused with OracleError.  For |B| about 1 that
    is g below about 6e-8, whatever else M holds.
    """
    omega = complex(omega)
    nu, gap, U, p0 = _endpoint(path.endpoint(), omega)
    probes = [min(e, 0.25 * gap) for e in SPLITTING_PROBES]
    turns = [complex(math.cos(e), sign * math.sin(e)) for e in probes for sign in (1, -1)]
    p = graph_phases(U, [omega * t for t in turns]) % (2 * math.pi)
    if nu and np.any(np.minimum(p, 2 * math.pi - p) <= np.finfo(float).eps):
        raise OracleError(f"the nearest nonzero eigen-phase of W lies {gap:.3g} from 0: a probe "
                          f"of {min(probes):.3g} cannot move the phases at 0 past rounding")
    p0[np.argsort(np.minimum(p0, 2 * math.pi - p0))[:nu]] = 2 * math.pi  # at 0^-
    bounds = np.repeat(probes, 2)
    net, ok = _count(np.broadcast_to(p0, p.shape), p, bounds)
    if not ok.all():
        raise OracleError(f"no cut farther than {bounds[~ok][0]:g} from the eigen-phases at omega")
    plus_vals, minus_vals = net[0::2].tolist(), net[1::2].tolist()
    if len(set(plus_vals)) != 1 or len(set(minus_vals)) != 1:
        raise OracleError(
            f"splitting estimate unstable across probes: +{plus_vals}, -{minus_vals}")
    return plus_vals[0], minus_vals[0]
