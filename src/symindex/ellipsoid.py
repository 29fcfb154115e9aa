"""The non-resonant ellipsoid model: n decoupled oscillators at desk scale.

Each axis orbit of sum_i (alpha_i/2)(p_i^2 + q_i^2) = 1 carries a linearized
path that is a diamond product of rotations R(alpha_j t) over one period
2 pi / alpha_i.  The module constructs the matching normal-form data (base
index measured by the geometric oracle, never assumed), runs the jump
search over all orbits, and reports the stability/mean-ratio conclusions
the model is expected to exhibit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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
from .jump import (
    build_jump_vector,
    default_delta,
    default_eps,
    mean_ratio_classify,
    search_N,
    theorem211_report,
    varrho,
)
from .oracle import (
    SampledSymplecticPath,
    cz_index,
    path_from_matrix_function,
    path_from_quadratic_hamiltonian,
)
from .scalars import Scalar, detect_rational, parse_scalar, scalar_to_json

__all__ = [
    "EllipsoidError",
    "EllipsoidSpec",
    "orbit_data",
    "run_pipeline",
    "PipelineParams",
    "EllipsoidReport",
]


REPORT_SOLUTIONS = 25  # cap on per-solution theorem-2.11 reports


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
        for a in self.alphas:
            if not (a > Scalar.rational(0)):
                raise EllipsoidError("frequencies must be positive")

    @property
    def n(self) -> int:
        return len(self.alphas)

    def ratio(self, j: int, i: int) -> Scalar:
        """alpha_j / alpha_i with the rationality tag re-derived, so exact
        rational dependencies between tagged-irrational inputs are caught."""
        r = self.alphas[j] / self.alphas[i]
        if r.is_rational:
            return r
        fr = detect_rational(r)
        return Scalar.from_fraction(fr) if fr is not None else r

    def non_resonant(self) -> bool:
        return all(not self.ratio(j, i).is_rational
                   for i in range(self.n) for j in range(i + 1, self.n))

    def to_json(self) -> dict:
        return {"alphas": [scalar_to_json(a) for a in self.alphas], "mode": self.mode}


def _rotation_angle(ratio: Scalar) -> Scalar:
    """theta_j/pi = 2 alpha_j/alpha_i reduced mod 2; half-integer ratios are
    resonant and rejected rather than mapped onto the +-1 eigenvalue blocks."""
    if ratio.is_rational:
        fr = 2 * ratio.fraction
        red = fr - 2 * (fr.numerator // (2 * fr.denominator))
        if red == 0 or red == 1:
            raise EllipsoidError(
                f"resonant frequency ratio {ratio.fraction}: rotation angle lands on +-1")
        return Scalar.from_fraction(red)
    two_r = ratio * 2
    red = two_r - 2 * (two_r.mul_div_floor(1, 2))
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
    """PathIndexData and the sampled linearized path of the i-th axis orbit
    (1-based index), period 2 pi / alpha_i.

    The decomposition has one rotation block per other axis with angle
    2 pi alpha_j / alpha_i (mod 2 pi) and, on the orbit's own axis, I2 in
    quadratic mode or N1(1,1) in convex mode.  The base index comes from
    the crossing-count oracle on the sampled path.
    """
    if not (1 <= i <= spec.n):
        raise EllipsoidError(f"axis index {i} out of range 1..{spec.n}")
    idx = i - 1
    alpha_i = spec.alphas[idx]
    tau = 2 * math.pi / float(alpha_i)
    freqs = np.array([float(a) for a in spec.alphas])
    B = np.diag(np.concatenate([freqs, freqs]))
    path = path_from_quadratic_hamiltonian(B, tau)

    thetas = []
    for j in range(spec.n):
        if j == idx:
            continue
        thetas.append(_rotation_angle(spec.ratio(j, idx)))

    i1_quad, _ = cz_index(path, 1)
    if spec.mode == "quadratic":
        decomp = NormalFormDecomposition(n=spec.n, p_zero=1, thetas=tuple(thetas))
        data = PathIndexData(decomp, i1=i1_quad, convex_mode=False)
    else:
        decomp = NormalFormDecomposition(n=spec.n, p_minus=1, thetas=tuple(thetas))
        data = PathIndexData(decomp, i1=i1_quad + _convex_adjustment(), convex_mode=True)
    return data, path


@dataclass
class PipelineParams:
    m_max: int = 50
    N_max: int = 10 ** 6
    chi: object = "auto"
    eps: float | None = None
    delta: object = None


@dataclass
class EllipsoidReport:
    spec: dict
    orbits: list
    jump_vector: dict
    search: dict
    theorem211: list
    mean_ratio_matrix: list
    varrho_n: int
    varrho_lower_bound: int
    elliptic_count: int
    pairwise_irrational_count: int
    claims: dict
    problems: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "spec": self.spec,
            "orbits": self.orbits,
            "jump_vector": self.jump_vector,
            "search": self.search,
            "theorem211": self.theorem211,
            "mean_ratio_matrix": self.mean_ratio_matrix,
            "varrho_n": self.varrho_n,
            "varrho_lower_bound": self.varrho_lower_bound,
            "elliptic_count": self.elliptic_count,
            "pairwise_irrational_count": self.pairwise_irrational_count,
            "claims": self.claims,
            "problems": self.problems,
        }


def run_pipeline(spec: EllipsoidSpec, params: PipelineParams | None = None) -> EllipsoidReport:
    """Construct all axis orbits, tabulate iterates, search for common index
    jumps, and check the model-scale stability claims.  A search parameter
    out of range raises JumpError."""
    params = params or PipelineParams()
    n = spec.n
    problems = []

    datas = []
    orbit_reports = []
    for i in range(1, n + 1):
        data, path = orbit_data(spec, i)
        datas.append(data)
        mi = mean_index(data)
        vrep = validate(data)
        if not vrep.ok:
            problems.extend(f"orbit {i}: {p}" for p in vrep.problems)
        table = [{"m": m,
                  "i": index_iterate(data, m),
                  "nu": nullity_iterate(data, m)}
                 for m in range(1, params.m_max + 1)]
        d = data.decomp
        elliptic = (d.k == 0)  # all blocks are rotations or unit-eigenvalue blocks
        orbit_reports.append({
            "axis": i,
            "period_over_pi": float(2 / float(spec.alphas[i - 1])),
            "i1": data.i1,
            "mean_index": scalar_to_json(mi),
            "elliptic": elliptic,
            "validation": vrep.to_json(),
            "data": data.to_json(),
            "table": table,
        })

    v = build_jump_vector(datas)
    delta = params.delta if params.delta is not None else default_delta(datas)
    delta = Fraction(delta) if not isinstance(delta, Fraction) else delta
    eps = params.eps if params.eps is not None else default_eps(datas, v.M, delta)

    result = search_N(v, params.chi, eps=eps, N_max=params.N_max, paths=datas, delta=delta)
    reports_211 = []
    for sol in result.solutions[:REPORT_SOLUTIONS]:
        rep = theorem211_report(sol, datas, n)
        reports_211.append(rep.to_json())
        if not rep.ok:
            problems.append(f"theorem-2.11 report at N={sol.N}: {rep.problems}")

    matrix = mean_ratio_classify(datas)
    irr_count = 0
    for i in range(n):
        if all(matrix[i][j]["type"] == "irrational" for j in range(n) if j != i):
            irr_count += 1

    rho = varrho(datas, n)
    bound = n // 2 + 1
    elliptic_count = sum(1 for rep in orbit_reports if rep["elliptic"])

    claims = {
        "at_least_two_elliptic": elliptic_count >= 2 if n >= 2 else elliptic_count >= 1,
        "varrho_bound_met": rho >= bound,
        "pairwise_irrational_at_least_varrho": irr_count >= min(rho, n),
    }
    if n >= 2 and not claims["at_least_two_elliptic"]:
        problems.append("fewer than two elliptic orbits")
    if not claims["varrho_bound_met"]:
        problems.append(f"varrho = {rho} below the bound {bound}")
    if not claims["pairwise_irrational_at_least_varrho"]:
        problems.append("not enough orbits with pairwise irrational mean-index ratios")

    return EllipsoidReport(
        spec=spec.to_json(),
        orbits=orbit_reports,
        jump_vector=v.to_json(),
        search=result.to_json(),
        theorem211=reports_211,
        mean_ratio_matrix=matrix,
        varrho_n=rho,
        varrho_lower_bound=bound,
        elliptic_count=elliptic_count,
        pairwise_irrational_count=irr_count,
        claims=claims,
        problems=problems,
    )
