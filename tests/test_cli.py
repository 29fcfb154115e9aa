import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symindex
from symindex.cli import EXIT_INPUT, EXIT_OK, main
from symindex.ellipsoid import EllipsoidSpec, orbit_data
from symindex.iteration import NormalFormDecomposition, PathIndexData
from symindex.oracle import MAX_STEPS, cz_index, path_from_quadratic_hamiltonian
from symindex.scalars import Scalar, get_precision, set_precision

import numpy as np


@pytest.fixture
def rot_fixture(tmp_path):
    """Path data for R(t pi/2) with the base index measured by the oracle."""
    path = path_from_quadratic_hamiltonian((math.pi / 2) * np.eye(2), 1.0, steps=1024)
    i1, _ = cz_index(path, 1)
    data = PathIndexData(NormalFormDecomposition(
        n=1, thetas=(Scalar.rational(1, 2),)), i1=i1)
    f = tmp_path / "rot.json"
    f.write_text(json.dumps(data.to_json()))
    return f, data


@pytest.fixture
def gen_fixture(tmp_path):
    gen = {"n": 1, "tau": 1.0, "steps": 1024,
           "B": [[math.pi / 2, 0.0], [0.0, math.pi / 2]]}
    f = tmp_path / "gen.json"
    f.write_text(json.dumps(gen))
    return f


def test_iterate_csv(rot_fixture, tmp_path, capsys):
    f, data = rot_fixture
    assert data.i1 == 1
    rc = main(["iterate", "--data", str(f), "--m-max", "5"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "m,i,nu,mean_index_times_m"
    assert lines[1] == "1,1,0,1/2"
    assert lines[5] == "5,3,0,5/2"


def test_oracle_subcommand(gen_fixture, capsys):
    rc = main(["oracle", "--generator", str(gen_fixture), "--omega", "1", "--m", "5"])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert (out["i"], out["nu"]) == (3, 0)


def test_oracle_sample_list_generator(tmp_path, capsys):
    ts = [i / 512 for i in range(513)]
    samples = [{"t": t, "mat": [[math.cos(math.pi / 2 * t), -math.sin(math.pi / 2 * t)],
                                [math.sin(math.pi / 2 * t), math.cos(math.pi / 2 * t)]]}
               for t in ts]
    f = tmp_path / "samples.json"
    f.write_text(json.dumps({"n": 1, "tau": 1.0, "samples": samples}))
    rc = main(["oracle", "--generator", str(f), "--omega", "1", "--m", "1"])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert (out["i"], out["nu"]) == (1, 0)


def test_oracle_splitting_at_one_on_a_rotation_and_a_shear(tmp_path, capsys):
    # R(0.4pi t) <> N1(1, t): the rotation crosses the probes e^{+-i 1e-3}
    # within two sample steps of the junction, beside the shear's flat D_omega
    f = tmp_path / "g.json"
    f.write_text(json.dumps({"n": 2, "tau": 1.0,
                             "B": np.diag([0.4 * math.pi, 0.0, 0.4 * math.pi, -1.0]).tolist()}))
    rc = main(["oracle", "--generator", str(f), "--omega", "1", "--m", "3", "--splitting"])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert (out["i"], out["nu"]) == (0, 1)
    assert out["splitting_estimate"] == {"s_plus": 1, "s_minus": 1}


def test_oracle_splitting_flag(gen_fixture, capsys):
    rc = main(["oracle", "--generator", str(gen_fixture), "--omega", "1/2",
               "--splitting"])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["splitting_estimate"] == {"s_plus": 0, "s_minus": 1}


def test_oracle_splitting_on_a_sheared_iterate(tmp_path, capsys):
    # N1(1,1)^4 = N1(1,4): five index scans per estimate once disagreed
    # across the probes here and exited 2; the endpoint alone gives (1, 1)
    f = tmp_path / "shear.json"
    f.write_text(json.dumps({"n": 1, "tau": 1.0, "steps": 64, "B": [[0.0, 0.0], [0.0, -1.0]]}))
    rc = main(["oracle", "--generator", str(f), "--m", "4", "--splitting"])
    assert rc == EXIT_OK
    assert json.loads(capsys.readouterr().out)["splitting_estimate"] == {"s_plus": 1, "s_minus": 1}


def test_splitting_subcommand(rot_fixture, capsys):
    f, _ = rot_fixture
    rc = main(["splitting", "--data", str(f), "--omega", "1/2"])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["splitting"] == {"s_plus": 0, "s_minus": 1}


def test_malformed_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1,\n  "oops"')
    rc = main(["iterate", "--data", str(bad)])
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert "line 2" in err and "column" in err


def test_missing_file_exit_code(tmp_path, capsys):
    rc = main(["iterate", "--data", str(tmp_path / "nope.json")])
    assert rc == EXIT_INPUT


def test_precision_floor_enforced(rot_fixture, capsys):
    f, _ = rot_fixture
    rc = main(["iterate", "--data", str(f), "--precision", "10"])
    assert rc == EXIT_INPUT


def test_precision_flag_is_restored_after_the_command(rot_fixture, capsys):
    f, _ = rot_fixture
    before = get_precision()
    assert before != 300
    assert main(["iterate", "--data", str(f), "--m-max", "3", "--precision", "300"]) == EXIT_OK
    assert get_precision() == before


@pytest.mark.parametrize("argv, message", [
    (["iterate", "--m-max", "0"], "m-max must be >= 1"),
    (["jump-search", "--n-max", "0"], "n-max must be >= 1"),
    (["jump-search", "--report-solutions", "-1"], "report-solutions must be >= 0"),
    (["jump-search", "--delta", "abc"], "--delta: cannot parse 'abc'"),
    (["jump-search", "--delta", "0"], "delta must lie in (0, 1/2)"),
    (["jump-search", "--m0", "0"], "M0 must be a positive integer"),
    (["jump-search", "--m0", "-3"], "M0 must be a positive integer"),
    (["ellipsoid", "--delta", "abc"], "--delta: cannot parse 'abc'"),
    (["ellipsoid", "--delta", "0"], "delta must lie in (0, 1/2)"),
    (["ellipsoid", "--alphas", "1,abc"], "--alphas: cannot parse 'abc'"),
    (["ellipsoid", "--chi", "abc"], "chi must be 'auto' or a 0/1 string, got 'abc'"),
    (["ellipsoid", "--chi", "01"], "chi needs 4 bits, got 2"),
    (["ellipsoid", "--eps", "0.9"], "eps must lie in (0, 1/2)"),
    (["splitting", "--omega", "abc"], "--omega: cannot parse 'abc'"),
    (["oracle", "--omega", "abc"], "--omega: cannot parse 'abc'"),
    (["oracle", "--eps=-1e-4"], "--eps must be finite and > 0, got -0.0001"),
    (["oracle", "--eps", "0"], "--eps must be finite and > 0, got 0.0"),
    (["oracle", "--eps", "nan"], "--eps must be finite and > 0, got nan"),
    (["oracle", "--rank-tol", "-1"], "--rank-tol must be finite and > 0, got -1.0"),
    (["oracle", "--rank-tol", "inf"], "--rank-tol must be finite and > 0, got inf"),
])
def test_range_checks_exit_1(rot_fixture, gen_fixture, tmp_path, capsys, argv, message):
    f, data = rot_fixture
    paths_file = tmp_path / "paths.json"
    paths_file.write_text(json.dumps([data.to_json()]))
    source = {"iterate": ["--data", str(f)], "splitting": ["--data", str(f)],
              "oracle": ["--generator", str(gen_fixture)],
              "jump-search": ["--paths", str(paths_file)],
              "ellipsoid": ["--alphas", "1,sqrt2", "--m-max", "2", "--n-max", "100"]}[argv[0]]
    rc = main(argv[:1] + source + argv[1:])
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert err == f"error: {message}\n"


ROT_B = [[math.pi / 2, 0.0], [0.0, math.pi / 2]]


def rot_samples(times, angles):
    """Sample list of R(pi a / 2) at each (t, a)."""
    return [{"t": t, "mat": [[math.cos(math.pi / 2 * a), -math.sin(math.pi / 2 * a)],
                             [math.sin(math.pi / 2 * a), math.cos(math.pi / 2 * a)]]}
            for t, a in zip(times, angles)]


GRID = [k / 512 for k in range(513)]


def scaled(samples, k, factor):
    """samples with the matrix of sample k multiplied by factor."""
    samples[k]["mat"] = [[factor * x for x in row] for row in samples[k]["mat"]]
    return samples


@pytest.mark.parametrize("command, content, message", [
    ("iterate", [{"n": 1}], "invalid path data: expected a JSON object, got list"),
    ("splitting", [{"n": 1}], "invalid path data: expected a JSON object, got list"),
    ("oracle", [{"n": 1}], "invalid generator file: expected a JSON object, got list"),
    ("oracle", {"n": 1, "tau": 1.0, "steps": 0, "B": ROT_B},
     f"invalid generator file: steps must lie in [1, {MAX_STEPS}], got 0"),
    ("oracle", {"n": 1, "tau": 1.0, "steps": MAX_STEPS + 1, "B": ROT_B},
     f"invalid generator file: steps must lie in [1, {MAX_STEPS}], got {MAX_STEPS + 1}"),
    ("oracle", {"n": 1, "tau": -1.0, "B": ROT_B},
     "invalid generator file: tau must be finite and > 0, got -1.0"),
    ("oracle", {"n": 1, "tau": 0.0, "B": ROT_B},
     "invalid generator file: tau must be finite and > 0, got 0.0"),
    ("oracle", {"n": 1, "tau": -1.0, "samples": [{"t": 0.0, "mat": [[1, 0], [0, 1]]},
                                                 {"t": 1.0, "mat": [[1, 0], [0, 1]]}]},
     "invalid generator file: tau must be finite and > 0, got -1.0"),
    # times running from 1 down to 0, with gamma(0) = I listed first
    ("oracle", {"n": 1, "tau": 1.0, "samples": rot_samples(GRID[::-1], GRID)},
     "invalid generator file: sample times must run from 0 to tau = 1.0, got 1.0 to 0.0"),
    ("oracle", {"n": 1, "tau": 1.0, "samples": rot_samples(GRID[:3] + [GRID[4], GRID[3]] + GRID[5:],
                                                           GRID)},
     "invalid generator file: sample times must not decrease"),
    ("oracle", {"n": 1, "tau": 3.0, "samples": rot_samples(GRID, GRID)},
     "invalid generator file: sample times must run from 0 to tau = 3.0, got 0.0 to 1.0"),
    ("oracle", {"n": 1, "tau": 1.0, "samples": rot_samples([0.0], [0.0])},
     "invalid generator file: a sample list needs at least 2 samples"),
    ("oracle", {"n": 3, "tau": 1.0, "B": ROT_B},
     "invalid generator file: B must be 6 x 6 for n = 3, got shape (2, 2)"),
    # 65 samples; only a check of every sample sees the one scaled by 1.02
    ("oracle", {"n": 1, "tau": 1.0, "samples": scaled(rot_samples(GRID[::8], GRID[::8]), 10, 1.02)},
     "invalid generator file: samples are not symplectic to 1e-09: defect 0.0404"),
    ("iterate", {"n": 2, "p_minus": 1, "i1": 1}, "invalid path data: count sum 1 != n = 2"),
    ("splitting", {"n": 1, "thetas": [{"rational": "1"}], "i1": 1},
     "invalid path data: thetas: theta/pi = 1 belongs to the -1 eigenvalue blocks"),
])
def test_bad_input_files_exit_1(tmp_path, capsys, command, content, message):
    f = tmp_path / "input.json"
    f.write_text(json.dumps(content))
    flag = "--generator" if command == "oracle" else "--data"
    rc = main([command, flag, str(f)])
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert err == f"error: {message}\n"


def run_fresh_python(*lines: str) -> None:
    """Run lines of code in a new interpreter importing this symindex; it must exit 0."""
    src = str(Path(symindex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", "\n".join(lines)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_commands_that_sample_no_path_leave_scipy_unloaded(rot_fixture, tmp_path):
    # the oracle imports scipy at its first expm or logm; import symindex,
    # iterate, splitting and jump-search never call either
    f, data = rot_fixture
    paths_file = tmp_path / "paths.json"
    paths_file.write_text(json.dumps([data.to_json()]))
    out = str(tmp_path / "out")
    run_fresh_python(
        "import sys, symindex",
        "assert 'scipy' not in sys.modules, 'import symindex'",
        "from symindex.cli import main",
        f"for argv in (['iterate', '--data', {str(f)!r}, '--m-max', '3'],",
        f"             ['splitting', '--data', {str(f)!r}],",
        f"             ['jump-search', '--paths', {str(paths_file)!r}, '--n-max', '500']):",
        f"    assert main(argv + ['--out', {out!r}]) == 0, argv",
        "    assert 'scipy' not in sys.modules, argv[0]",
    )


def test_the_oracle_scan_leaves_scipy_special_unloaded(gen_fixture, tmp_path):
    # the junction generator takes its logarithm by a series, not by scipy's
    # logm, whose first call loads scipy.special; only path_from_logm does
    out = str(tmp_path / "out")
    run_fresh_python(
        "import sys",
        "from symindex.cli import main",
        "for argv in (['ellipsoid', '--alphas', '1,sqrt2', '--n-max', '1000'],",
        f"             ['oracle', '--generator', {str(gen_fixture)!r}, '--m', '3']):",
        f"    assert main(argv + ['--out', {out!r}]) == 0, argv",
        "assert 'scipy.linalg' in sys.modules",
        "assert 'scipy.special' not in sys.modules",
    )


def test_jump_search_deterministic_bytes(rot_fixture, tmp_path):
    f, data = rot_fixture
    paths_file = tmp_path / "paths.json"
    paths_file.write_text(json.dumps([data.to_json()]))
    outputs = []
    for run, workers in (("a", "1"), ("b", "4"), ("c", "1")):
        out = tmp_path / f"out_{run}.json"
        rc = main(["jump-search", "--paths", str(paths_file), "--n-max", "4000",
                   "--workers", workers, "--out", str(out)])
        assert rc == EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_bad_precision_env_exits_1(rot_fixture, monkeypatch, capsys):
    f, _ = rot_fixture
    monkeypatch.setenv("SYMINDEX_PRECISION", "abc")
    rc = main(["iterate", "--data", str(f)])
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert err.count("\n") == 1 and "SYMINDEX_PRECISION" in err and "'abc'" in err
    # an explicit flag does not read the variable
    assert main(["iterate", "--data", str(f), "--precision", "40"]) == EXIT_OK


def test_the_library_does_not_read_the_precision_env(monkeypatch):
    # only the CLI reads SYMINDEX_PRECISION; library callers use set_precision
    monkeypatch.setenv("SYMINDEX_PRECISION", "80")
    run_fresh_python(
        "from symindex.scalars import get_precision",
        "assert get_precision() == 50, get_precision()",
    )


def test_chi_auto_runs_at_h16(tmp_path, capsys):
    # the four axis orbits of alpha = (1, sqrt2, sqrt3, sqrt5): h = 4 + 4 * 3
    spec = EllipsoidSpec(alphas=("1", "sqrt2", "sqrt3", "sqrt5"))
    paths_file = tmp_path / "paths.json"
    paths_file.write_text(json.dumps([orbit_data(spec, i)[0].to_json() for i in (1, 2, 3, 4)]))
    rc = main(["jump-search", "--paths", str(paths_file), "--chi", "auto", "--n-max", "2000"])
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert out["jump_vector"]["h"] == 16


def test_jump_search_high_precision(tmp_path, capsys):
    # at 300 digits the scan's 2**F no longer fits a float
    data = PathIndexData(NormalFormDecomposition(n=1, thetas=(Scalar.golden(),)), i1=1)
    paths_file = tmp_path / "paths.json"
    paths_file.write_text(json.dumps([data.to_json()]))
    hits = {}
    old = get_precision()
    try:
        for digits in ("300", "50"):
            assert main(["jump-search", "--paths", str(paths_file), "--n-max", "3000",
                         "--precision", digits]) == EXIT_OK
            out = json.loads(capsys.readouterr().out)
            hits[digits] = [s["N"] for s in out["search"]["solutions"]]
    finally:
        set_precision(old)
    assert hits["300"] == hits["50"] and hits["50"]


def test_jump_search_bad_chi(rot_fixture, tmp_path, capsys):
    f, data = rot_fixture
    paths_file = tmp_path / "paths.json"
    paths_file.write_text(json.dumps([data.to_json()]))
    rc = main(["jump-search", "--paths", str(paths_file), "--chi", "01x"])
    assert rc == EXIT_INPUT


def test_ellipsoid_subcommand(tmp_path, capsys):
    rc = main(["ellipsoid", "--alphas", "1,sqrt2", "--mode", "convex",
               "--m-max", "4", "--n-max", "5000"])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["claims"]["at_least_two_elliptic"]
    assert out["varrho_n"] >= out["varrho_lower_bound"]


def test_ellipsoid_rejects_resonant(capsys):
    rc = main(["ellipsoid", "--alphas", "1,2", "--m-max", "2", "--n-max", "100"])
    assert rc == EXIT_INPUT


def test_selftest_exit_zero(capsys):
    rc = main(["selftest", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert out.count("PASS") == 5 and "FAIL" not in out
