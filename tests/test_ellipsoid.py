import math
from fractions import Fraction

import mpmath
import pytest

from symindex.ellipsoid import (
    EllipsoidError,
    EllipsoidSpec,
    PipelineParams,
    orbit_data,
    run_pipeline,
)
from symindex.iteration import index_iterate, mean_index, nullity_iterate, validate
from symindex.oracle import DEFAULT_STEPS, STEP_BOUND, cz_index, iterate_path
from symindex.scalars import Scalar


@pytest.fixture(scope="module")
def spec12():
    return EllipsoidSpec(alphas=("1", "sqrt2"), mode="convex")


def test_single_frequency_has_no_rotation_blocks():
    spec = EllipsoidSpec(alphas=("1",), mode="quadratic")
    data, path = orbit_data(spec, 1)
    d = data.decomp
    assert d.r == 0 and d.p_zero == 1 and d.n == 1
    assert data.i1 == 1  # the circle orbit
    assert index_iterate(data, 3) == 5  # 2m - 1


def test_convex_mode_n1_matches_classical_sequence():
    spec = EllipsoidSpec(alphas=("1",), mode="convex")
    data, _ = orbit_data(spec, 1)
    assert data.decomp.p_minus == 1
    for m in range(1, 8):
        assert index_iterate(data, m) == 2 * m - 1
        assert nullity_iterate(data, m) == 1


def test_rotation_block_tag_and_angle(spec12):
    data, _ = orbit_data(spec12, 1)
    (theta,) = data.decomp.thetas
    assert not theta.is_rational
    assert abs(float(theta) - (2 * math.sqrt(2) - 2)) < 1e-12


def test_base_indices(spec12):
    d1, _ = orbit_data(spec12, 1)
    d2, _ = orbit_data(spec12, 2)
    assert (d1.i1, d2.i1) == (4, 2)
    assert validate(d1).ok and validate(d2).ok


def test_orbit_grid_follows_the_frequency_spread():
    # the slow orbit of (1, sqrt300) needs ceil(2 pi sqrt300 / STEP_BOUND)
    # steps; the fast one, and every spread up to about 16, keep 2048
    spec = EllipsoidSpec(alphas=("1", "sqrt300"))
    (d1, p1), (d2, p2) = orbit_data(spec, 1), orbit_data(spec, 2)
    assert len(p1.ts) - 1 == math.ceil(2 * math.pi * math.sqrt(300) / STEP_BOUND) == 2177
    assert len(p2.ts) - 1 == DEFAULT_STEPS
    assert (d1.i1, d2.i1) == (2 * 17 + 2, 2)   # 2 [alpha_j / alpha_i] + 2
    assert len(orbit_data(EllipsoidSpec(alphas=("1", "sqrt255")), 1)[1].ts) - 1 == DEFAULT_STEPS


def test_mean_index_ratio_exact(spec12):
    d1, _ = orbit_data(spec12, 1)
    d2, _ = orbit_data(spec12, 2)
    with mpmath.mp.workdps(60):
        ratio = mean_index(d1).mpf(60) / mean_index(d2).mpf(60)
        assert abs(ratio - mpmath.mp.sqrt(2)) < mpmath.mpf(10) ** -40


def test_resonant_integer_ratio_rejected():
    spec = EllipsoidSpec(alphas=("1", "2"), mode="quadratic")
    with pytest.raises(EllipsoidError, match="resonant"):
        orbit_data(spec, 1)


def test_resonant_half_integer_ratio_rejected():
    spec = EllipsoidSpec(alphas=("2", "3"), mode="quadratic")
    with pytest.raises(EllipsoidError, match="resonant"):
        orbit_data(spec, 1)


def test_masked_rational_ratio_detected():
    # sqrt2 and sqrt8 are rationally dependent: ratio 1/2, resonant
    spec = EllipsoidSpec(alphas=("sqrt2", "sqrt8"), mode="quadratic")
    assert not spec.non_resonant()
    with pytest.raises(EllipsoidError, match="resonant"):
        orbit_data(spec, 2)


def test_non_half_integer_rational_ratio_allowed():
    spec = EllipsoidSpec(alphas=("3", "4"), mode="quadratic")
    data, _ = orbit_data(spec, 1)
    (theta,) = data.decomp.thetas
    assert theta.fraction == Fraction(2, 3)


def test_quadratic_mode_oracle_agreement(spec12):
    spec = EllipsoidSpec(alphas=("1", "sqrt2"), mode="quadratic")
    for axis, ms in ((1, range(1, 21)), (2, range(1, 11))):
        data, path = orbit_data(spec, axis)
        for m in ms:
            got = cz_index(iterate_path(path, m), 1)
            want = (index_iterate(data, m), nullity_iterate(data, m))
            assert got == want, f"axis {axis}, m={m}"


def test_invalid_axis_rejected(spec12):
    with pytest.raises(EllipsoidError):
        orbit_data(spec12, 3)


def test_nonpositive_frequency_rejected():
    with pytest.raises(EllipsoidError):
        EllipsoidSpec(alphas=("0",), mode="convex")


def test_pipeline_small(spec12):
    params = PipelineParams(m_max=6, N_max=20000)
    rep = run_pipeline(spec12, params)
    assert rep.problems == []
    assert rep.elliptic_count == 2
    assert rep.varrho_n == 2 and rep.varrho_lower_bound == 2
    assert rep.pairwise_irrational_count == 2
    assert all(rep.claims.values())
    assert rep.search["solutions"], "expected jump solutions below 20000"
    for t in rep.theorem211:
        assert t["ok"]
    # tables contain exactly m_max rows and start at the base index
    for orb in rep.orbits:
        assert len(orb["table"]) == 6
        assert orb["table"][0]["i"] == orb["i1"]


def test_pipeline_json_serializable(spec12):
    import json

    params = PipelineParams(m_max=3, N_max=5000)
    rep = run_pipeline(spec12, params)
    text = json.dumps(rep.to_json(), sort_keys=True)
    assert "schema_version" in text
