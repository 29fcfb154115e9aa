"""The non-resonant ellipsoid model: n decoupled oscillators at desk scale.

Each axis orbit of sum_i (alpha_i/2)(p_i^2 + q_i^2) = 1 carries a linearized
path that is a diamond product of rotations R(alpha_j t) over one period
2 pi / alpha_i.  The module constructs the matching normal-form data, with
the base index in closed form, n + 2 sum_{j != i} floor(alpha_j / alpha_i)
(Ekeland 1990), checked against the geometric oracle's count on the
sampled orbit: a disagreement is reported as a problem.  It runs the jump
search over all orbits and reports the stability/mean-ratio conclusions
the model is expected to exhibit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .iteration import (
    NormalFormDecomposition,
    PathIndexData,
    index_iterate,
    mean_index,
    nullity_iterate,
    validate,
)
from .jump import mean_ratio_classify, search_report
from .oracle import (
    MAX_STEPS,
    STEP_BOUND,
    SampledSymplecticPath,
    cz_index,
    path_from_matrix_function,
    path_from_quadratic_hamiltonian,
)
from .scalars import Scalar, parse_scalar, rational_sqrt, retag, scalar_to_json

__all__ = [
    "EllipsoidError",
    "EllipsoidSpec",
    "orbit_data",
    "run_pipeline",
]


class EllipsoidError(ValueError):
    pass


@dataclass(frozen=True)
class EllipsoidSpec:
    """Frequencies alpha_1..alpha_n plus the normalization mode.

    mode "quadratic" keeps the literal linearization (an I2 block on the
    orbit's own axis); mode "convex" replaces it by the N1(1,1) block that
    the monodromy of a convex-energy orbit carries, with the base index
    adjusted by the oracle-measured difference on the n = 1 model.
    """

    alphas: tuple
    mode: str = "convex"

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(parse_scalar(a) for a in self.alphas))
        if self.mode not in ("quadratic", "convex"):
            raise EllipsoidError(f"unknown mode {self.mode!r}")
        if not self.alphas:
            raise EllipsoidError("need at least one frequency")
        for k, a in enumerate(self.alphas, 1):
            if not (a > Scalar.rational(0)):
                raise EllipsoidError("frequencies must be positive")
            try:
                f = float(a)
            except OverflowError:  # a Fraction past the float range
                f = math.inf
            if not (math.isfinite(f) and f > 0):  # orbit_data samples the orbits in floats
                raise EllipsoidError(f"frequency {k} is {f:g} as a float: frequencies must be "
                                     f"positive and finite as floats")

    @property
    def n(self) -> int:
        return len(self.alphas)

    def ratio(self, j: int, i: int) -> Scalar:
        """alpha_j / alpha_i, tagged rational exactly when it is rational.
        When both squares are known exactly (rational and sqrtK literals,
        Scalar.square), the ratio is rational exactly when alpha_j^2 /
        alpha_i^2 is the square of a fraction (rational_sqrt), and is then
        that fraction; an irrational one is the quotient alpha_j / alpha_i.
        Any other input (phi, a decimal-tagged irrational) has the
        quotient's tag re-derived by retag, which catches rational
        dependencies with denominators up to 1e6 only."""
        a, b = self.alphas[j], self.alphas[i]
        if a.square is None or b.square is None:
            return retag(a / b)
        exact = rational_sqrt(a.square / b.square)
        return a / b if exact is None else Scalar.from_fraction(exact)

    def to_json(self) -> dict:
        return {"alphas": [scalar_to_json(a) for a in self.alphas], "mode": self.mode}


def _rotation_angle(ratio: Scalar) -> Scalar:
    """theta_j/pi = 2 alpha_j/alpha_i reduced mod 2; half-integer ratios are
    resonant and rejected rather than mapped onto the +-1 eigenvalue blocks."""
    two_r = ratio * 2
    red = two_r - 2 * two_r.mul_div_floor(1, 2)
    if red == 0 or red == 1:
        raise EllipsoidError(
            f"resonant frequency ratio {ratio.fraction}: rotation angle lands on +-1")
    return red


@lru_cache(maxsize=1)
def _convex_adjustment() -> int:
    """Base-index difference between the convex-normalized and the literal
    quadratic n = 1 circle paths, measured by the oracle."""
    tau = 2 * math.pi
    quad = path_from_quadratic_hamiltonian(np.eye(2), tau)
    i_quad, _ = cz_index(quad, 1)

    def convex_ref(t):
        c, s = math.cos(t), math.sin(t)
        shear = t / tau
        return np.array([[c, -s], [s, c]]) @ np.array([[1.0, shear], [0.0, 1.0]])

    conv = path_from_matrix_function(convex_ref, tau, 1)
    i_conv, _ = cz_index(conv, 1)
    return i_conv - i_quad


def orbit_data(spec: EllipsoidSpec, i: int):
    """(PathIndexData, the sampled linearized path, problems) of the i-th
    axis orbit (1-based index), period 2 pi / alpha_i; problems lists a
    disagreement of the oracle's count with the closed-form base index.

    The decomposition has one rotation block per other axis with angle
    2 pi alpha_j / alpha_i (mod 2 pi) and, on the orbit's own axis, I2 in
    quadratic mode or N1(1,1) in convex mode.  The base index is the closed
    form n + 2 sum_{j != i} floor(alpha_j / alpha_i) of the quadratic orbit,
    plus _convex_adjustment() in convex mode: the orbit turns its own
    (q, p) plane once, which counts 1 with its degenerate endpoint, and
    plane j by 2 pi alpha_j / alpha_i, which counts 2 floor(alpha_j /
    alpha_i) + 1 off resonance (Ekeland 1990).  The path is e^{tJB}, B =
    diag(alpha, alpha), every alpha_k > 0, on which the crossing-count
    oracle checks the closed form.  It has ceil(2 pi (alpha_max
    / alpha_i) / STEP_BOUND) steps, so alpha_max dt <= STEP_BOUND, and the
    count is exact on that grid: e^{sJB} turns each (q_k, p_k) plane by
    alpha_k s, so |e^{sJB} - I|_F = (sum_k 8 sin^2(alpha_k s / 2))^{1/2},
    which grows with s while alpha_max s <= pi.  The relative change that
    the count reads over a sample step then bounds every part of that step,
    and the path does not stray between samples.  EllipsoidError past
    MAX_STEPS.
    """
    if not (1 <= i <= spec.n):
        raise EllipsoidError(f"axis index {i} out of range 1..{spec.n}")
    idx = i - 1
    alpha_i = spec.alphas[idx]
    tau = 2 * math.pi / float(alpha_i)
    freqs = np.array([float(a) for a in spec.alphas])
    B = np.diag(np.concatenate([freqs, freqs]))
    ratio = float(freqs.max() / freqs[idx])
    need = 2 * math.pi * ratio / STEP_BOUND
    if need > MAX_STEPS:
        raise EllipsoidError(f"frequency ratio {ratio:.6g} needs {need:.6g} samples per "
                             f"orbit, more than {MAX_STEPS}")
    path = path_from_quadratic_hamiltonian(B, tau, math.ceil(need))

    ratios = [spec.ratio(j, idx) for j in range(spec.n) if j != idx]
    thetas = [_rotation_angle(r) for r in ratios]
    i1_quad = spec.n + 2 * sum(r.mul_floor(1) for r in ratios)
    counted, _ = cz_index(path, 1)
    problems = [] if counted == i1_quad else [
        f"the oracle counts base index {counted} on the quadratic orbit, "
        f"the closed form gives {i1_quad}"]
    if spec.mode == "quadratic":
        decomp = NormalFormDecomposition(n=spec.n, p_zero=1, thetas=tuple(thetas))
        data = PathIndexData(decomp, i1=i1_quad, convex_mode=False)
    else:
        decomp = NormalFormDecomposition(n=spec.n, p_minus=1, thetas=tuple(thetas))
        data = PathIndexData(decomp, i1=i1_quad + _convex_adjustment(), convex_mode=True)
    return data, path, problems


def run_pipeline(spec: EllipsoidSpec, m_max: int = 50, N_max: int = 10 ** 6, chi="auto",
                 eps=None, delta=None) -> dict:
    """Construct all axis orbits, check each closed-form base index against
    the oracle's count on its orbit (a disagreement is a problem), tabulate
    iterates, search for common index jumps (jump.search_report), and check
    the model-scale stability claims, which need n >= 2 (else EllipsoidError).
    Returns the report the CLI prints, whose "search" is the SearchResult; a
    search parameter out of range raises JumpError."""
    n = spec.n
    if n < 2:
        raise EllipsoidError(f"the ellipsoid claims need at least two frequencies, got {n}")
    problems = []

    datas = []
    orbit_reports = []
    for i in range(1, n + 1):
        data, _, checked = orbit_data(spec, i)
        datas.append(data)
        vrep = validate(data)
        problems.extend(f"orbit {i}: {p}" for p in checked + vrep["problems"])
        table = [{"m": m,
                  "i": index_iterate(data, m),
                  "nu": nullity_iterate(data, m)}
                 for m in range(1, m_max + 1)]
        orbit_reports.append({
            "axis": i,
            "period_over_pi": float(2 / float(spec.alphas[i - 1])),
            "i1": data.i1,
            "mean_index": scalar_to_json(mean_index(data)),
            "elliptic": data.decomp.k == 0,  # all blocks are rotations or unit-eigenvalue blocks
            "validation": vrep,
            "data": data.to_json(),
            "table": table,
        })

    found = search_report(datas, N_max, chi=chi, eps=eps, delta=delta)
    for rep in found["theorem211"]:
        if not rep["ok"]:
            problems.append(f"theorem-2.11 report at N={rep['N']}: {rep['problems']}")

    matrix = mean_ratio_classify(datas)
    irr_count = 0
    for i in range(n):
        if all(matrix[i][j]["type"] == "irrational" for j in range(n) if j != i):
            irr_count += 1

    rho = found["varrho_n"]
    bound = n // 2 + 1
    elliptic_count = sum(1 for rep in orbit_reports if rep["elliptic"])

    claims = {
        "at_least_two_elliptic": elliptic_count >= 2,
        "varrho_bound_met": rho >= bound,
        "pairwise_irrational_at_least_varrho": irr_count >= min(rho, n),
    }
    if not claims["at_least_two_elliptic"]:
        problems.append("fewer than two elliptic orbits")
    if not claims["varrho_bound_met"]:
        problems.append(f"varrho = {rho} below the bound {bound}")
    if not claims["pairwise_irrational_at_least_varrho"]:
        problems.append("not enough orbits with pairwise irrational mean-index ratios")

    return {
        "schema_version": 1,
        "spec": spec.to_json(),
        "orbits": orbit_reports,
        **found,
        "mean_ratio_matrix": matrix,
        "varrho_lower_bound": bound,
        "elliptic_count": elliptic_count,
        "pairwise_irrational_count": irr_count,
        "claims": claims,
        "problems": problems,
    }
