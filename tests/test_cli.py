import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import symindex
from conftest import assert_same_text
from symindex import cli, jump
from symindex.cli import EXIT_INPUT, EXIT_OK, _dump_json, main
from symindex.ellipsoid import EllipsoidSpec, orbit_data
from symindex.iteration import NormalFormDecomposition, PathIndexData
from symindex.jump import SearchResult
from symindex.oracle import MAX_STEPS
from symindex.scalars import Scalar, _storage_dps, get_precision, set_precision
from symindex.selftest import realize_path

import numpy as np


@pytest.fixture
def rot_fixture(tmp_path):
    """Path data for R(t pi/2), from realize_path."""
    data = realize_path(NormalFormDecomposition(n=1, thetas=(Scalar.rational(1, 2),)),
                        steps=1024)[1]
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


def test_an_iterate_that_overflows_exits_1(tmp_path, capsys):
    # B = -ln2 [[0, 1], [1, 0]] gives D(2) = e^{J B}, so |gamma(tau)^j| is
    # about 2^j: m = 1000 is counted, and at m = 1100 the powers leave the
    # float range and the iterate is refused before any count.  The suite
    # runs RuntimeWarnings as errors, so neither run may raise one
    log2 = math.log(2)
    f = tmp_path / "hyp.json"
    f.write_text(json.dumps({"n": 1, "tau": 1.0, "steps": 64, "B": [[0.0, -log2], [-log2, 0.0]]}))
    assert main(["oracle", "--generator", str(f), "--m", "1000"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert (out["i"], out["nu"]) == (0, 0)
    assert main(["oracle", "--generator", str(f), "--m", "1100"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: the 1100-fold iterate overflows: gamma(tau)^")
    assert err.endswith(" is not finite\n") and err.count("\n") == 1


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


@pytest.mark.parametrize("large, small, want", [
    ("10000000000000001", "-1", (0, 0)), ("1e300", "0", (1, 0)), ("1e400", "0", (1, 0)),
    # sqrt(K) = 2 j + 1.82645500380721..., j an integer
    ("sqrt4726605078643867556437127750161630234573", "1.8264550038072116", (1, 0))])
def test_a_large_omega_angle_is_reduced_mod_2_exactly(tmp_path, capsys, large, small, want):
    # B = I, tau = 1 reads i = 0 at omega = -1 and i = 1 at omega = 1.  The
    # angle was once rounded to a float before its reduction mod 2:
    # 10000000000000001 became the even 1e16, 1e300 and the square root an
    # angle of rounding noise, and 1e400 raised OverflowError
    f = tmp_path / "unit.json"
    f.write_text(json.dumps({"n": 1, "tau": 1.0, "B": [[1.0, 0.0], [0.0, 1.0]]}))
    for omega in (large, small):
        assert main(["oracle", "--generator", str(f), "--omega", omega]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert (out["i"], out["nu"]) == want, omega


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


@pytest.fixture
def golden_file(tmp_path):
    """CI's golden.json: the golden rotation R(phi pi t), i1 = 1."""
    data = PathIndexData(NormalFormDecomposition(n=1, thetas=(Scalar.golden(),)), i1=1)
    f = tmp_path / "golden.json"
    f.write_text(json.dumps([data.to_json()]))
    return f


def _input_flags(command, data_file):
    if command == "jump-search":
        paths_file = data_file.with_name("paths.json")
        paths_file.write_text(json.dumps([json.loads(data_file.read_text())]))
        return ["--paths", str(paths_file)]
    if command == "ellipsoid":
        return ["--alphas", "1,sqrt2", "--n-max", "1000"]
    return ["--data", str(data_file)]


@pytest.mark.parametrize("command", ["iterate", "splitting",     # CSV and JSON
                                     "jump-search", "ellipsoid"])
@pytest.mark.parametrize("where", ["a directory", "a missing directory", "a file"])
def test_an_out_path_that_cannot_be_written_exits_1(rot_fixture, tmp_path, capsys, monkeypatch,
                                                    command, where):
    # the path is refused before the run, with the reason open() gives
    def no_search(*args, **kwargs):
        raise AssertionError("search_N ran")

    monkeypatch.setattr(jump, "search_N", no_search)
    f, _ = rot_fixture
    (tmp_path / "file.txt").write_text("")
    out = {"a directory": tmp_path, "a missing directory": tmp_path / "missing" / "out.txt",
           "a file": tmp_path / "file.txt" / "out.txt"}[where]
    with pytest.raises(OSError) as exc:
        open(out, "w")
    rc = main([command, *_input_flags(command, f), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == EXIT_INPUT and captured.out == ""
    assert captured.err == f"error: cannot write --out {out}: {exc.value.strerror}\n"


@pytest.mark.parametrize("argv", [["jump-search", "--paths", "empty.json"],
                                  ["ellipsoid", "--alphas", "1,2", "--n-max", "100"]])
def test_an_existing_out_file_is_kept_when_the_run_fails(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.json").write_text("[]")
    out = tmp_path / "out.json"
    out.write_text("kept\n")
    assert main([*argv, "--out", str(out)]) == EXIT_INPUT
    assert out.read_text() == "kept\n"


class _Stdout:
    """A stdout that records its write calls."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


def test_stdout_gets_the_output_once_it_holds_flush_characters(monkeypatch):
    stdout = _Stdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    pieces = ["x" * (k % 1000) for k in range(1000)]
    with cli._output(None) as write:
        for piece in pieces:
            write(piece)
    assert "".join(stdout.writes) == "".join(pieces)
    *full, last = stdout.writes
    assert len(full) == sum(map(len, pieces)) // cli._FLUSH
    assert all(cli._FLUSH <= len(text) < cli._FLUSH + 1000 for text in full)
    assert len(last) < cli._FLUSH


@pytest.mark.parametrize("argv", [["jump-search", "--paths", "golden.json", "--n-max", "100000"],
                                  ["ellipsoid", "--alphas", "1,sqrt2", "--n-max", "300000"]])
def test_stdout_and_out_give_the_same_bytes(golden_file, tmp_path, monkeypatch, argv):
    # and stdout is never handed much more than _FLUSH characters at once
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "out.json"]) == EXIT_OK
    stdout = _Stdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == EXIT_OK
    assert_same_text("".join(stdout.writes), (tmp_path / "out.json").read_text())
    assert json.loads("".join(stdout.writes))["search"]["solutions"]
    assert len(stdout.writes) > 1
    assert max(map(len, stdout.writes)) < cli._FLUSH + 2 * jump._JSON_CHUNK


@pytest.mark.parametrize("argv", [["jump-search", "--paths", "golden.json", "--n-max", "20000"],
                                  ["ellipsoid", "--alphas", "1,sqrt2", "--n-max", "20000"]])
def test_the_commands_build_no_solution_dicts(golden_file, tmp_path, capsys, monkeypatch, argv):
    # the solutions are printed from the columns; to_json is for in-process callers
    def no_dicts(self):
        raise AssertionError("SearchResult.to_json ran")

    monkeypatch.setattr(SearchResult, "to_json", no_dicts)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["search"]["solutions"]


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


DEFAULT_EPS_ZERO = ("the default eps = delta / (4 M max mean index) is 0.0 at this delta, "
                    "outside (0, 1/2)")


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
    (["iterate", "--precision", "10"], "precision must be >= 30, got 10"),
    (["ellipsoid", "--alphas", ","], "--alphas requires a comma-separated list, e.g. 1,sqrt2"),
    (["jump-search", "--chi", "1x"], "chi must be 'auto' or a 0/1 string, got '1x'"),
    (["jump-search", "--eps", "0.9"], "eps must lie in (0, 1/2)"),
    (["jump-search", "--delta", "1/2"], "delta must lie in (0, 1/2)"),
    (["oracle", "--m", "0"], "m must be >= 1"),
    # the generator has 1024 steps: one more period than MAX_STEPS allows
    (["oracle", "--m", "1025"],
     f"the 1025-fold iterate would have 1025 x 1024 sample steps, more than {MAX_STEPS}"),
    # checked before the default eps is formed: float(1e999) overflows
    (["jump-search", "--delta", "1e999"], "delta must lie in (0, 1/2)"),
    (["ellipsoid", "--delta", "1e999"], "delta must lie in (0, 1/2)"),
    # a default eps that underflows to 0.0 names delta
    (["jump-search", "--delta", "1e-999"], DEFAULT_EPS_ZERO),
    (["ellipsoid", "--delta", "1e-999"], DEFAULT_EPS_ZERO),
    # the claims are about n >= 2 orbits; orbit_data keeps n = 1
    (["ellipsoid", "--alphas", "1"], "the ellipsoid claims need at least two frequencies, got 1"),
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


def test_oracle_eps_is_an_unrecognized_argument(gen_fixture, capsys):
    # a degenerate endpoint is counted in the limit eps -> 0+, with no eps
    # to choose
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--generator", str(gen_fixture), "--eps", "1e-4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --eps 1e-4" in capsys.readouterr().err


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


def nan_at(samples, k):
    """samples with the matrix of sample k made NaN."""
    samples[k]["mat"] = [[math.nan] * 2] * 2
    return samples


@pytest.mark.parametrize("content", [
    {"n": 1, "tau": 1.0, "samples": nan_at(rot_samples(GRID[::8], GRID[::8]), 10)},
    {"n": 1, "tau": 1.0, "B": [[math.inf, 0.0], [0.0, math.pi / 2]]},
    {"n": 1, "tau": 1e300, "B": [[1.0, 0.0], [0.0, 1.0]]},
    {"n": 1, "tau": 1.0, "B": [[1e200, 0.0], [0.0, 1e200]]},
], ids=["NaN sample", "infinite B", "tau 1e300", "B 1e200 I"])
def test_non_finite_generators_exit_1(tmp_path, capsys, content):
    # NaN compares False with every bound, so the step and symplectic
    # checks alone would let these through to the count
    f = tmp_path / "gen.json"
    f.write_text(json.dumps(content))
    rc = main(["oracle", "--generator", str(f)])
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert err.startswith("error: invalid generator file: samples must be finite: sample ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, content, message", [
    ("iterate", {"n": 1, "thetas": [{"rational": "1/2"}], "i1": 1.7},
     "invalid path data: i1 must be an integer, got 1.7"),
    ("iterate", {"n": "1", "thetas": [{"rational": "1/2"}], "i1": 1},
     'invalid path data: n must be an integer, got "1"'),
    ("iterate", {"n": 1, "p_minus": True, "i1": 1},
     "invalid path data: p_minus must be an integer, got true"),
    ("splitting", {"n": 1, "p_minus": 1, "i1": 1, "convex_mode": "false"},
     'invalid path data: convex_mode must be true or false, got "false"'),
    ("splitting", {"n": 1, "p_minus": 1, "i1": 1, "convex_mode": 0},
     "invalid path data: convex_mode must be true or false, got 0"),
    ("oracle", {"n": 1, "tau": 1.0, "steps": 2.7, "B": ROT_B},
     "invalid generator file: steps must be an integer, got 2.7"),
    ("oracle", {"n": 1.0, "tau": 1.0, "B": ROT_B},
     "invalid generator file: n must be an integer, got 1.0"),
    # a ZeroDivisionError traceback, an angle of 0.1's binary value, 1 and 0.5
    ("splitting", {"n": 1, "thetas": [{"rational": "1/0"}], "i1": 1},
     'invalid path data: rational must be a JSON string p/q with q != 0, got "1/0"'),
    ("iterate", {"n": 1, "thetas": [{"rational": 0.1}], "i1": 1},
     "invalid path data: rational must be a JSON string p/q with q != 0, got 0.1"),
    ("jump-search", [{"n": 1, "thetas": [{"rational": True}], "i1": 1}],
     "invalid path data: rational must be a JSON string p/q with q != 0, got true"),
    ("iterate", {"n": 1, "thetas": [{"irrational": 0.5}], "i1": 1},
     "invalid path data: irrational must be a JSON string of a decimal, got 0.5"),
])
def test_integer_and_bool_fields_are_read_strictly(tmp_path, capsys, command, content, message):
    # each of these once ran: i1 = 1.7 as 1, "false" as true, "1" as 1
    f = tmp_path / "input.json"
    f.write_text(json.dumps(content))
    flag = {"oracle": "--generator", "jump-search": "--paths"}.get(command, "--data")
    rc = main([command, flag, str(f)])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("content, message", [
    ({"n": 1, "tau": True, "B": ROT_B}, "tau must be a number, got true"),
    ({"n": 1, "tau": "1.0", "B": ROT_B}, 'tau must be a number, got "1.0"'),
    ({"n": 1, "tau": 1.0, "samples": [{"t": 0.0, "mat": [[1.0, 0.0], [0.0, 1.0]]},
                                      {"t": True, "mat": [[1.0, 0.0], [0.0, 1.0]]}]},
     "t must be a number, got true"),
    ({"n": 1, "tau": 1.0, "samples": [{"t": "0", "mat": [[1.0, 0.0], [0.0, 1.0]]},
                                      {"t": 1.0, "mat": [[1.0, 0.0], [0.0, 1.0]]}]},
     't must be a number, got "0"'),
], ids=["tau true", "tau string", "t true", "t string"])
def test_generator_times_are_read_as_json_numbers(tmp_path, capsys, content, message):
    # "tau": true once ran as tau = 1, and "1.0" as 1.0
    f = tmp_path / "gen.json"
    f.write_text(json.dumps(content))
    rc = main(["oracle", "--generator", str(f)])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == f"error: invalid generator file: {message}\n"


def test_generator_times_may_be_json_integers(tmp_path, capsys):
    f = tmp_path / "gen.json"
    f.write_text(json.dumps({"n": 1, "tau": 1, "steps": 256, "B": ROT_B}))
    assert main(["oracle", "--generator", str(f)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["i"] == 1


def fresh_python(*args: str) -> str:
    """The stdout of a new interpreter importing this symindex, run with
    args; it must exit 0."""
    src = str(Path(symindex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_fresh_python(*lines: str) -> None:
    """Run lines of code in a new interpreter importing this symindex; it must exit 0."""
    fresh_python("-c", "\n".join(lines))


def test_main_parses_each_call_afresh(rot_fixture, gen_fixture, capsys):
    # the parser is built once per process; each call, whatever subcommand
    # and flags came before it, prints what a fresh process prints
    f, _ = rot_fixture
    for argv in (["iterate", "--data", str(f), "--m-max", "3", "--precision", "60"],
                 ["iterate", "--data", str(f)],
                 ["oracle", "--generator", str(gen_fixture), "--m", "3", "--splitting"],
                 ["splitting", "--data", str(f), "--omega", "1/2"]):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == fresh_python("-m", "symindex.cli", *argv), argv
    assert cli._build_parser() is cli._build_parser()


def test_commands_that_sample_no_path_leave_scipy_unloaded(rot_fixture, tmp_path):
    # the package never imports scipy; import symindex, iterate, splitting
    # and jump-search load no module that might
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


def test_commands_that_sample_paths_leave_scipy_unloaded(gen_fixture, tmp_path):
    # the oracle's exponential and logarithm are numpy code, so sampling,
    # counting and the N2 logarithm path load no scipy module
    out = str(tmp_path / "out")
    run_fresh_python(
        "import sys",
        "from symindex.cli import main",
        "from symindex.normal_forms import nontrivial_n2_block, realize",
        "from symindex.oracle import path_from_logm",
        "from symindex.scalars import Scalar",
        "for argv in (['ellipsoid', '--alphas', '1,sqrt2', '--n-max', '1000'],",
        f"             ['oracle', '--generator', {str(gen_fixture)!r}, '--m', '3']):",
        f"    assert main(argv + ['--out', {out!r}]) == 0, argv",
        "path_from_logm(realize(nontrivial_n2_block(Scalar.rational(2, 5))).as_float(), steps=64)",
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        "assert not loaded, loaded",
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


def test_jump_search_golden_bytes(tmp_path, capsys):
    # the golden rotation R(phi pi t), i1 = 1, as CI's golden.json: the
    # stdout digest was recorded at commit 64616f2, so a change to the
    # search, its gates or its output format shows here
    data = PathIndexData(NormalFormDecomposition(n=1, thetas=(Scalar.golden(),)), i1=1)
    paths_file = tmp_path / "golden.json"
    paths_file.write_text(json.dumps([data.to_json()]))
    assert main(["jump-search", "--paths", str(paths_file), "--n-max", "20000"]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "8cbf8e1c805dae4c77576b6d71332c82f63bb00dc837ba71a4c39e85fc828d9f"


def test_ellipsoid_golden_bytes(capsys):
    # stdout digest recorded at commit 3bc2244: the ratio tags come from
    # detect_rational and the bytes from the streaming JSON writer
    assert main(["ellipsoid", "--alphas", "1,sqrt2,sqrt3", "--n-max", "20000"]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "cb0139b2d1492cae52862d25291507032e39bf453f97b876100033122d1facc3"


def test_search_flags_golden_bytes(tmp_path, capsys, monkeypatch):
    # every search flag the two commands pass on, beside the defaults the
    # other golden tests pin; the stdout digests were recorded at commit
    # ca38d82.  golden.json and two.json hold CI's golden and sqrt2 - 1
    # path data
    golden = PathIndexData(NormalFormDecomposition(n=1, thetas=(Scalar.golden(),)), i1=1)
    sqrt2m1 = PathIndexData(NormalFormDecomposition(
        n=2, p_minus=1, thetas=(Scalar.sqrt(2) - 1,)), i1=3)
    (tmp_path / "golden.json").write_text(json.dumps([golden.to_json()]))
    (tmp_path / "two.json").write_text(json.dumps([golden.to_json(), sqrt2m1.to_json()]))
    monkeypatch.chdir(tmp_path)
    runs = [
        # 13 solutions and 3 theorem-2.11 reports, two of them not ok
        ("jump-search --paths two.json --n-max 200000 --m-scale 2 --m0 4 --delta 1/7 "
         "--eps 0.02 --report-solutions 3",
         "e2ffb348c1ba427af9bb46ada8537e3580d89cdcb9d5c2d72d3ee1419ae72232"),
        ("jump-search --paths golden.json --n-max 300000 --chi 10 --report-solutions 0",
         "33b9e3b43bdc47500dd6ef0f4c03ff5d3430fe7d52ccadd965e479dd81135a25"),
        ("ellipsoid --alphas 1,sqrt2 --n-max 300000 --delta 1/9 --eps 0.002 --m-max 7",
         "56e565e8763eac5e6174e83808b2eacdb88ecc38d8e69dca855ca5041c02bcfa"),
    ]
    for argv, expected in runs:
        assert main(argv.split()) == EXIT_OK
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == expected, argv


@pytest.mark.parametrize("decomp, i1, expected", [
    # a rotation beside a -I2 block: angle 1 in the identity's E sum
    (dict(n=2, q_zero=1, thetas=(Scalar.golden() - 1,)), 3,
     "0246e0a8d6b8b63a8de4e70de2ef7aa09686a390a370f4ea99fed3355f016085"),  # 2,387 solutions
    # an irrational nontrivial N2 beside an N1(-1,-1) block: alpha and 2 - alpha
    (dict(n=3, q_plus=1, alphas=(Scalar.sqrt(2) - 1,)), 4,
     "6bfc7a12a29abcfc169ace1a6ebafcb10047e6f059099c51c937b4b31542275c"),  # 585 solutions
    # a rational nontrivial N2 beside an N1(1,1) block
    (dict(n=3, p_minus=1, alphas=(Scalar.rational(2, 5),)), 5,
     "5ab8b4b1290913de6e488b671c42d6baf05eb6b6f66834c002ed6123adf02cba"),  # 10,000 solutions
], ids=["golden_q_zero", "sqrt2_q_plus", "two_fifths_p_minus"])
def test_one_path_golden_bytes(tmp_path, capsys, decomp, i1, expected):
    # the I(m) terms of -I2, N1(-1,-1) and N2 blocks, which the rotation-only
    # goldens leave out; stdout digests recorded at commit 0f18940, as CI's
    # one-path golden step
    data = PathIndexData(NormalFormDecomposition(**decomp), i1=i1)
    f = tmp_path / "path.json"
    f.write_text(json.dumps([data.to_json()]))
    assert main(["jump-search", "--paths", str(f), "--n-max", "300000"]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == expected


def test_iterate_golden_bytes(tmp_path, capsys):
    # sqrt2 - 1 with an N1(1, 1) block: the irrational mean_index_times_m
    # column is printed to 30 digits; the stdout digest was recorded at
    # commit 1571534
    data = PathIndexData(NormalFormDecomposition(
        n=2, p_minus=1, thetas=(Scalar.sqrt(2) - 1,)), i1=3)
    f = tmp_path / "path.json"
    f.write_text(json.dumps(data.to_json()))
    assert main(["iterate", "--data", str(f), "--m-max", "500"]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "b1cc06685bed6bf47ccc38c676cc8f7730619c9939e5468a9462176ee8d3865e"


def test_iterate_writes_its_rows_as_they_are_computed(rot_fixture, tmp_path, monkeypatch):
    # stdout gets the CSV in pieces of about _FLUSH characters, the bytes
    # that --out gets, and no string of the whole table is built
    f, _ = rot_fixture
    argv = ["iterate", "--data", str(f), "--m-max", "6000"]
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == EXIT_OK
    stdout = _Stdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == EXIT_OK
    assert_same_text("".join(stdout.writes), (tmp_path / "out.csv").read_text())
    assert len(stdout.writes) > 1
    assert max(map(len, stdout.writes)) < cli._FLUSH + 100


def test_splitting_keeps_irrationals_apart_below_a_float_tolerance(tmp_path, capsys):
    # the two angles differ by 1e-47: distinct eigenvalues, one row each
    thetas = [{"irrational": "0.3" + "0" * 45 + d} for d in "12"]
    f = tmp_path / "path.json"
    f.write_text(json.dumps({"n": 2, "i1": 2, "thetas": thetas}))
    assert main(["splitting", "--data", str(f)]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["spectrum"]
    assert [(r["multiplicity"], r["s_plus"], r["s_minus"]) for r in rows] == \
        [(1, 0, 1), (1, 0, 1), (1, 1, 0), (1, 1, 0)]


def test_splitting_labels_irrational_rows_with_their_stored_digits(tmp_path, capsys):
    # the two angles of the test above and their conjugates agree to a
    # double's 17 digits; each row's label is the decimal of scalar_to_json
    thetas = [{"irrational": "0.3" + "0" * 45 + d} for d in "12"]
    f = tmp_path / "path.json"
    f.write_text(json.dumps({"n": 2, "i1": 2, "thetas": thetas}))
    assert main(["splitting", "--data", str(f)]) == EXIT_OK
    labels = [r["angle_over_pi"] for r in json.loads(capsys.readouterr().out)["spectrum"]]
    assert labels[:2] == [t["irrational"] for t in thetas]
    assert len(set(labels)) == 4 and all(label.startswith("1.69999") for label in labels[2:])


def _every_kind(thetas, alphas, betas):
    # one block of each kind: three rotations, the six real kinds, a
    # nontrivial and a trivial N2 and a hyperbolic block
    return PathIndexData(NormalFormDecomposition(
        n=14, p_minus=1, p_zero=1, p_plus=1, q_minus=1, q_zero=1, q_plus=1,
        thetas=thetas, alphas=alphas, betas=betas, k=1), i1=5)


EVERY_KIND = _every_kind((Scalar.rational(1, 3), 2 - Scalar.sqrt(2), Scalar.rational(3, 2)),
                         (Scalar.rational(2, 5),), (Scalar.sqrt(3) / 3,))


@pytest.mark.parametrize("omega, expected", [
    # stdout digests of --omega recorded at commit 1059a98
    ("1", "a9ce1e7cb793c5df93a92b5322ec48dae01d5fa3719e983b2933d8e804cb397d"),
    ("-1", "9e5f9e9f0f038477aa89febff03f9f8143893d3b09e6a8942ae686fe5cb8c400"),
    ("1/3", "986e8791319c1085f661fc3cd01a25dfe063b11144dc32f27d900f9a88c94c11"),
    ("2/5", "cf47d2e5ddaac8273eca581bfc2ee9cf0cafb94d19d29b4cdf3dfd7caf5a3fdf"),
    ("8/5", "83b4a403732bcf25e8cc942b96b4967d5fff7967cdf9be3c39b7401d3bf81b6c"),
    ("sqrt2", "86c85865b87cf8df70ad838ee32bb2ed115df3b2383a30952d5eec223dd38818"),
    # the whole spectrum, with the eigenvalue -1 row labelled "-1"
    (None, "e951a142154b24d96ddf0be0f5d29b0653f885e20ff0f0bd836f7bb612d5d8db"),
], ids=["1", "-1", "1/3", "2/5", "8/5", "sqrt2", "spectrum"])
def test_splitting_golden_bytes_on_every_block_kind(tmp_path, capsys, omega, expected):
    f = tmp_path / "path.json"
    f.write_text(json.dumps(EVERY_KIND.to_json()))
    flags = [] if omega is None else ["--omega", omega]
    assert main(["splitting", "--data", str(f), *flags]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == expected


@pytest.mark.parametrize("data", [
    PathIndexData(NormalFormDecomposition(n=2, p_minus=1, q_minus=1), i1=2),
    _every_kind((Scalar.rational(1, 3), Scalar.rational(1, 2), Scalar.rational(3, 2)),
                (Scalar.rational(2, 5),), (Scalar.rational(1, 7),)),
    EVERY_KIND,
], ids=["real", "every_kind", "every_kind_irrational"])
def test_splitting_row_labels_are_the_omega_of_their_row(tmp_path, capsys, data):
    # each label, passed back as --omega, gives its row's pair: the
    # eigenvalue 1 is "1", -1 is "-1", a rational angle its theta/pi and an
    # irrational one its stored decimal
    f = tmp_path / "path.json"
    f.write_text(json.dumps(data.to_json()))
    assert main(["splitting", "--data", str(f)]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["spectrum"]
    assert len({r["angle_over_pi"] for r in rows}) == len(rows)
    for r in rows:
        assert main(["splitting", "--data", str(f), "--omega", r["angle_over_pi"]]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)["splitting"]
        assert out == {"s_plus": r["s_plus"], "s_minus": r["s_minus"]}, r


def test_jump_search_decides_a_rational_distance_equal_to_eps(tmp_path, capsys):
    # N1(1,1) with i1 = 3 (mean index 4) beside the golden rotation: at N = 3
    # the coordinate 1/4 lies exactly 1/4 from vertex 1, so at eps = 0.25 it
    # is not close; this once exited 2 with "residual at N = 3 is within
    # 3 * 2**-F of eps"
    shear = PathIndexData(NormalFormDecomposition(n=1, p_minus=1), i1=3)
    golden = PathIndexData(NormalFormDecomposition(n=1, thetas=(Scalar.golden(),)), i1=1)
    f = tmp_path / "paths.json"
    f.write_text(json.dumps([shear.to_json(), golden.to_json()]))
    assert main(["jump-search", "--paths", str(f), "--eps", "0.25", "--n-max", "2000"]) == EXIT_OK
    solutions = json.loads(capsys.readouterr().out)["search"]["solutions"]
    assert solutions and 3 not in [s["N"] for s in solutions]


@pytest.mark.parametrize("command", ["iterate", "jump-search"])
@pytest.mark.parametrize("text, pq", [("0.5", "1/2"), ("0." + "6" * 119 + "7", "2/3")])
def test_an_irrational_tag_on_a_rational_exits_1(tmp_path, capsys, command, text, pq):
    # {"irrational": "0.5"} once passed as irrational and died in the guard
    # band with exit 2, "internal error: 4/2 * Scalar(~0.5) is within 1e-30 ..."
    data = {"n": 1, "thetas": [{"irrational": text}], "i1": 1}
    f = tmp_path / "input.json"
    f.write_text(json.dumps(data if command == "iterate" else [data]))
    flag = "--data" if command == "iterate" else "--paths"
    rc = main([command, flag, str(f)])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == (
        f'error: invalid path data: irrational "{text}" equals {pq} within '
        f'1e-{_storage_dps() - 8}; tag it {{"rational": "{pq}"}}\n')


JSON_SCALARS = (st.none() | st.booleans()
                | st.integers() | st.integers(min_value=-10 ** 40, max_value=10 ** 40)
                | st.floats(allow_nan=True, allow_infinity=True)
                | st.sampled_from([-0.0, 1e-7, 1e16, 5e-324, math.nan, math.inf, -math.inf])
                | st.text() | st.sampled_from(["", "\"\\/\b\f\n\r\t\x00\x1f", "é∮😀\u2028"]))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=30)


def _check_dump_json(obj, out_file, capsys):
    want = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    _dump_json(obj, str(out_file))
    assert out_file.read_text() == want
    capsys.readouterr()
    _dump_json(obj, None)
    assert capsys.readouterr().out == want


@given(JSON_VALUES)
@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_dump_json_writes_the_bytes_of_json_dumps(tmp_path, capsys, obj):
    _check_dump_json(obj, tmp_path / "out.json", capsys)


def test_dump_json_on_empty_containers_and_special_values(tmp_path, capsys):
    nested = {}
    for _ in range(5):
        nested = {"a": nested, "b": [], "c": (), "d": [{}, [], ()], "e": [nested]}
    specials = [True, False, None, 0, -1, 2 ** 100, -(3 ** 70), -0.0, 1e-7, 1e16, 5e-324,
                math.nan, math.inf, -math.inf, "", "\"quoted\" \\ \n\t", "é∮😀", ("tuple", 1)]
    # 127 KB, past _FLUSH: stdout gets the text at once and the newline at the end
    for obj in ({}, [], (), nested, specials, {"z": specials, "A": nested, "": None},
                [{"N": n, "m": [n, -n]} for n in range(2000)]):
        _check_dump_json(obj, tmp_path / "out.json", capsys)


def test_dump_json_raises_the_type_error_of_json_dumps(tmp_path):
    # beside a search result too, and before the --out file is opened
    with pytest.raises(TypeError) as want:
        json.dumps({"a": [{1, 2}]})
    res = SearchResult(N=[], chi=[], m=[[]], delta=[[]], residual=[], h=1,
                       delta_threshold=Fraction(1, 8), gates={})
    out = tmp_path / "out.json"
    # the result sorts first, so json.dumps has passed it to default
    for obj in ({"a": [{1, 2}]}, {"a": [{1, 2}], "0": res}):
        with pytest.raises(TypeError, match=f"^{want.value}$"):
            _dump_json(obj, str(out))
        assert not out.exists()


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


def test_ellipsoid_with_a_wide_frequency_spread(capsys):
    # sqrt(300) > 16: 2048 steps of the slow orbit would turn the fast axis
    # by 0.053 per step, past the oracle's step bound
    rc = main(["ellipsoid", "--alphas", "1,sqrt300", "--m-max", "2", "--n-max", "1000"])
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert all(out["claims"].values()) and out["problems"] == []


def test_ellipsoid_with_a_spread_past_the_step_cap(capsys):
    rc = main(["ellipsoid", "--alphas", "1,sqrt10000000001", "--m-max", "2", "--n-max", "100"])
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert err.startswith("error: frequency ratio 100000 needs ") and err.count("\n") == 1
    assert err.endswith(f"samples per orbit, more than {MAX_STEPS}\n")


@pytest.mark.parametrize("alphas, message", [
    ("1e-400,1", "frequency 1 is 0 as a float"),
    ("1,1e400", "frequency 2 is inf as a float"),
], ids=["underflow", "overflow"])
def test_ellipsoid_frequencies_must_be_floats(capsys, alphas, message):
    # 1e-400 once died in orbit_data with a ZeroDivisionError traceback
    rc = main(["ellipsoid", "--alphas", alphas, "--m-max", "2", "--n-max", "100"])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == (f"error: {message}: frequencies must be positive "
                                       f"and finite as floats\n")


def test_ellipsoid_rejects_resonant(capsys):
    rc = main(["ellipsoid", "--alphas", "1,2", "--m-max", "2", "--n-max", "100"])
    assert rc == EXIT_INPUT


def test_selftest_exit_zero(capsys):
    rc = main(["selftest", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert out.count("PASS") == 5 and "FAIL" not in out


def test_the_readme_path_data_example_loads():
    # its count sum was 4 with n = 2, and its elided digits did not parse
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("Path-index data", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    data = PathIndexData.from_json(json.loads(example))
    assert (data.decomp.n, data.i1, data.convex_mode) == (4, 4, True)
