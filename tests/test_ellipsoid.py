import json
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from symindex import ellipsoid
from symindex.cli import _dump_json
from symindex.ellipsoid import (
    EllipsoidError,
    EllipsoidSpec,
    orbit_data,
    run_pipeline,
)
from symindex.iteration import index_iterate, mean_index, nullity_iterate, validate
from symindex.oracle import (DEFAULT_STEPS, STEP_BOUND, cz_index, iterate_path,
                             path_from_quadratic_hamiltonian)
from symindex.scalars import Scalar


@pytest.fixture(scope="module")
def spec12():
    return EllipsoidSpec(alphas=("1", "sqrt2"), mode="convex")


def test_single_frequency_has_no_rotation_blocks():
    spec = EllipsoidSpec(alphas=("1",), mode="quadratic")
    data, path, _ = orbit_data(spec, 1)
    d = data.decomp
    assert d.r == 0 and d.p_zero == 1 and d.n == 1
    assert data.i1 == 1  # the circle orbit
    assert index_iterate(data, 3) == 5  # 2m - 1


def test_convex_mode_n1_matches_classical_sequence():
    spec = EllipsoidSpec(alphas=("1",), mode="convex")
    data, _, _ = orbit_data(spec, 1)
    assert data.decomp.p_minus == 1
    for m in range(1, 8):
        assert index_iterate(data, m) == 2 * m - 1
        assert nullity_iterate(data, m) == 1


def test_rotation_block_tag_and_angle(spec12):
    data, _, _ = orbit_data(spec12, 1)
    (theta,) = data.decomp.thetas
    assert not theta.is_rational
    assert abs(float(theta) - (2 * math.sqrt(2) - 2)) < 1e-12


def test_base_indices(spec12):
    d1, _, _ = orbit_data(spec12, 1)
    d2, _, _ = orbit_data(spec12, 2)
    assert (d1.i1, d2.i1) == (4, 2)
    assert validate(d1)["ok"] and validate(d2)["ok"]


def orbit_steps(spec, i):
    """The orbit grid: alpha_max dt <= STEP_BOUND and no more."""
    ratio = max(float(a) for a in spec.alphas) / float(spec.alphas[i - 1])
    return math.ceil(2 * math.pi * ratio / STEP_BOUND)


def test_orbit_grid_follows_the_frequency_spread():
    # each orbit of (1, sqrt300) takes ceil(2 pi (alpha_max / alpha_i) /
    # STEP_BOUND) steps: 2177 on the slow one, 126 on the fast one
    spec = EllipsoidSpec(alphas=("1", "sqrt300"))
    (d1, p1, _), (d2, p2, _) = orbit_data(spec, 1), orbit_data(spec, 2)
    assert len(p1.ts) - 1 == math.ceil(2 * math.pi * math.sqrt(300) / STEP_BOUND) == 2177
    assert len(p2.ts) - 1 == orbit_steps(spec, 2) == 126
    assert (d1.i1, d2.i1) == (2 * 17 + 2, 2)   # 2 [alpha_j / alpha_i] + 2
    assert len(orbit_data(EllipsoidSpec(alphas=("1", "sqrt255")), 1)[1].ts) - 1 == 2007


SQUARE_FREE = [d for d in range(2, 301) if all(d % (k * k) for k in range(2, 18))]


def random_frequency(rng):
    """sqrt d, d square-free up to 300, or p/q in [1, 17]: every spread
    stays within that of (1, sqrt300)."""
    if rng.random() < 0.5:
        return f"sqrt{rng.choice(SQUARE_FREE)}"
    q = rng.randint(1, 9)
    return f"{rng.randint(q, 17 * q)}/{q}"


@pytest.mark.parametrize("mode, seed", [("quadratic", 11), ("convex", 12)])
def test_oracle_base_index_matches_the_closed_form(mode, seed):
    # i1 = n + 2 sum_{j != i} [alpha_j / alpha_i]: the orbit turns its own
    # axis once and axis j by 2 pi alpha_j / alpha_i, on generated tuples
    # of 1 to 5 frequencies; resonant tuples are refused and skipped.  The
    # data carries the closed form, and the oracle's count on the orbit
    # must equal it, so orbit_data reports no problem.  On the first four
    # orbits a grid of at least DEFAULT_STEPS steps gives the same count as
    # the orbit's own, coarser one.
    rng = random.Random(seed)
    orbits = rebuilt = 0
    while orbits < 200:
        spec = EllipsoidSpec(alphas=tuple(random_frequency(rng) for _ in range(rng.randint(1, 5))),
                             mode=mode)
        try:
            got = [orbit_data(spec, i) for i in range(1, spec.n + 1)]
        except EllipsoidError as exc:
            assert "resonant" in str(exc)
            continue
        for i, (data, path, problems) in enumerate(got, 1):
            want = spec.n + 2 * sum(spec.ratio(j, i - 1).mul_div_floor(1, 1)
                                    for j in range(spec.n) if j != i - 1)
            assert data.i1 == want, (spec.alphas, i)
            assert cz_index(path, 1)[0] == want, (spec.alphas, i)
            assert problems == [], (spec.alphas, i)
            assert len(path.ts) - 1 == orbit_steps(spec, i)
            if rebuilt < 4:
                freqs = [float(a) for a in spec.alphas]
                dense = path_from_quadratic_hamiltonian(
                    np.diag(freqs + freqs), path.tau, max(DEFAULT_STEPS, len(path.ts) - 1))
                assert cz_index(dense, 1) == cz_index(path, 1), (spec.alphas, i)
                rebuilt += 1
        orbits += spec.n


def test_mean_index_ratio_exact(spec12):
    d1, _, _ = orbit_data(spec12, 1)
    d2, _, _ = orbit_data(spec12, 2)
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
    assert spec.ratio(0, 1).is_rational and spec.ratio(0, 1).fraction == Fraction(1, 2)
    with pytest.raises(EllipsoidError, match="resonant"):
        orbit_data(spec, 2)


def test_non_half_integer_rational_ratio_allowed():
    spec = EllipsoidSpec(alphas=("3", "4"), mode="quadratic")
    data, _, _ = orbit_data(spec, 1)
    (theta,) = data.decomp.thetas
    assert theta.fraction == Fraction(2, 3)


def test_quadratic_mode_oracle_agreement(spec12):
    spec = EllipsoidSpec(alphas=("1", "sqrt2"), mode="quadratic")
    for axis, ms in ((1, range(1, 21)), (2, range(1, 11))):
        data, path, _ = orbit_data(spec, axis)
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
    rep = run_pipeline(spec12, m_max=6, N_max=20000)
    assert rep["problems"] == []
    assert rep["elliptic_count"] == 2
    assert rep["varrho_n"] == 2 and rep["varrho_lower_bound"] == 2
    assert rep["pairwise_irrational_count"] == 2
    assert all(rep["claims"].values())
    assert rep["search"].solutions, "expected jump solutions below 20000"
    for t in rep["theorem211"]:
        assert t["ok"]
    # tables contain exactly m_max rows and start at the base index
    for orb in rep["orbits"]:
        assert len(orb["table"]) == 6
        assert orb["table"][0]["i"] == orb["i1"]


def test_pipeline_json_serializable(spec12, tmp_path):
    # the report holds the SearchResult itself; the CLI's writer prints it
    rep = run_pipeline(spec12, m_max=3, N_max=5000)
    out = tmp_path / "rep.json"
    _dump_json(rep, str(out))
    text = out.read_text()
    assert "schema_version" in text
    assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text


def test_an_oracle_miscount_of_a_base_index_is_a_problem(monkeypatch, spec12):
    # the closed form is the base index, and the oracle's count on each
    # orbit is its check: a count off by 2 is reported, and the data keeps
    # the closed form
    ellipsoid._convex_adjustment()  # cached, and counted before the patch
    count = ellipsoid.cz_index
    monkeypatch.setattr(ellipsoid, "cz_index", lambda path, omega: (count(path, omega)[0] + 2, 0))
    rep = run_pipeline(spec12, m_max=3, N_max=2000)
    assert rep["problems"] == [
        "orbit 1: the oracle counts base index 6 on the quadratic orbit, the closed form gives 4",
        "orbit 2: the oracle counts base index 4 on the quadratic orbit, the closed form gives 2"]
    assert [orbit["i1"] for orbit in rep["orbits"]] == [4, 2]


def test_a_rational_ratio_of_square_roots_is_decided_exactly():
    # 1000003 sqrt2 and 1000033 sqrt2: a ratio of two sqrtK literals is
    # rational exactly when the ratio of their radicands is a square.  Its
    # continued fraction has a denominator past retag's 1e6, so the ratio
    # was called irrational, and so was theta = 60/1000003 of orbit 1
    spec = EllipsoidSpec(alphas=("sqrt2000012000018", "sqrt2000132002178"))
    assert spec.ratio(1, 0).fraction == Fraction(1000033, 1000003)
    assert spec.ratio(0, 1).fraction == Fraction(1000003, 1000033)
    assert orbit_data(spec, 1)[0].decomp.thetas[0].fraction == Fraction(60, 1000003)
    rep = run_pipeline(spec, m_max=3, N_max=1000)
    assert rep["mean_ratio_matrix"][0][1] == {"type": "rational", "value": "1000033/1000003"}
    assert rep["claims"]["pairwise_irrational_at_least_varrho"] is False
    assert "not enough orbits with pairwise irrational mean-index ratios" in rep["problems"]


@pytest.mark.parametrize("alphas", [("1", "sqrt2"), ("sqrt3", "sqrt5"), ("phi", "sqrt2"),
                                    ("2/3", "sqrt7"), ("sqrt6", "sqrt15")])
def test_an_irrational_ratio_is_the_quotient(alphas):
    # the exact decision changes no irrational ratio's value: it is the
    # quotient alpha_j / alpha_i, bit for bit
    spec = EllipsoidSpec(alphas=alphas)
    for j, i in ((0, 1), (1, 0)):
        got, want = spec.ratio(j, i), spec.alphas[j] / spec.alphas[i]
        assert not got.is_rational
        assert got.mpf(200) == want.mpf(200) and got._bits == want._bits
