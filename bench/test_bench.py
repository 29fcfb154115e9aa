"""Tests of the benchmark itself: span tree, patch coverage, repeatable
counts, correctness gates and the result-line format.

    python3 -m pytest -q bench/test_bench.py

The in-process tests shrink jump-certify's candidate count and
ellipsoid-sweep's N_max (``SMALL``); every op kind and gate of each workload
still runs.  The result-line tests run the command at full size for two
passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402
from symindex import jump, oracle, scalars  # noqa: E402

# Smaller values of the workloads' size constants, for the in-process tests.
SMALL = {"JC_CANDIDATES": 35, "ES_N_MAX": 10_000}


def build_small(name, seed, out_dir):
    with pytest.MonkeyPatch.context() as mp:
        for key, value in SMALL.items():
            mp.setattr(workloads, key, value)
        return workloads.build(name, seed, out_dir)


def traced_pass(wl):
    tracer = spans.Tracer()
    with tracer:
        outs = [tracer.run_op(i, op.run) for i, op in enumerate(wl.ops)]
    for op, out in zip(wl.ops, outs):
        if not op.known_defect:
            op.gate(out)
    return tracer, outs


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def two_traced_runs(request, tmp_path_factory):
    name = request.param
    out_dir = tmp_path_factory.mktemp("bench_out")
    runs = []
    for _ in range(2):
        wl = build_small(name, 3, out_dir)
        runs.append((wl, *traced_pass(wl)))
    return runs


def test_span_tree_nests_with_nonnegative_self_time(two_traced_runs):
    for wl, tracer, _ in two_traced_runs:
        a = spans.table(tracer)
        assert spans.check_tree(a) == []
        assert (a["self_s"] >= 0).all()
        assert (a["end"] >= a["start"]).all()
        assert int((a["name"] == 0).sum()) == len(wl.ops)


def test_counts_and_outputs_repeat_across_traced_runs(two_traced_runs):
    (wl, t1, out1), (_, t2, out2) = two_traced_runs
    p = scalars.get_precision()
    s1 = spans.summarize(spans.table(t1), range(len(wl.ops)), p)
    s2 = spans.summarize(spans.table(t2), range(len(wl.ops)), p)
    counts = [k for k in s1 if k.endswith(".calls") or k in
              ("jump.candidates", "jump.certified", "jump.scan.steps")]
    assert {k: s1[k] for k in counts} == {k: s2[k] for k in counts}
    assert [workloads.digest_of(o) for o in out1] == [workloads.digest_of(o) for o in out2]
    assert s1["bench.op.calls"] == len(wl.ops)


def test_each_workload_exercises_its_layer(two_traced_runs):
    wl, tracer, _ = two_traced_runs[0]
    s = spans.summarize(spans.table(tracer), range(len(wl.ops)), scalars.get_precision())
    if wl.name == "jump-certify":
        assert s["jump.candidates"] > 0
        assert s["jump.certified"] == s["jump.candidates"]
        assert s["oracle.cz_index.calls"] == 0
    elif wl.name == "ellipsoid-sweep":
        assert s["cli.main.self_s"] > 0 and s["ellipsoid.orbit_data.calls"] == 9
        assert s["oracle.cz_index.calls"] > 0 and s["jump.search_N.calls"] == 3
    else:
        assert s["oracle.cz_index.calls"] > 0 and s["oracle.evaluate.calls"] > 0
        assert s["oracle.estimate_splitting.calls"] > 0
        assert s["jump.search_N.calls"] == 0
        # the closed forms belong to the gates, not to the timed ops
        assert s["iteration.formulas.calls"] == 0
        assert s["oracle.s"] > 0.9 * s["bench.op.s"]


def test_patches_reach_every_binding_and_are_undone():
    import symindex

    originals = {"search_N": jump.search_N, "cz_index": oracle.cz_index,
                 "I_value": symindex.iteration.I_value}
    tracer = spans.Tracer()
    with tracer:
        mods = [m for n, m in sys.modules.items()
                if n == "symindex" or n.startswith("symindex.")]
        for name, fn in originals.items():
            holders = [m.__name__ for m in mods if vars(m).get(name) is fn]
            assert holders == [], f"{name} still unpatched in {holders}"
        assert jump.I_value is symindex.iteration.I_value  # one wrapper, every binding
        assert oracle.expm.__wrapped__ is not None
        assert "mul_floor" in scalars.Scalar.__dict__
    assert jump.search_N is originals["search_N"]
    assert oracle.cz_index is originals["cz_index"]
    assert jump.I_value is originals["I_value"]


def test_gates_reject_wrong_outputs(tmp_path):
    wl = build_small("jump-certify", 1, tmp_path)
    out = wl.ops[0].run()
    wl.ops[0].gate(out)
    out["solutions"][0]["N"] += 1
    with pytest.raises(workloads.GateError):
        wl.ops[0].gate(out)

    wl = workloads.build("oracle-crosscheck", 1, tmp_path)
    out = wl.ops[0].run()
    wl.ops[0].gate(out)
    out["oracle"][0] += 2
    with pytest.raises(workloads.GateError):
        wl.ops[0].gate(out)

    bad = json.dumps({"claims": {"varrho_bound_met": False}, "problems": [],
                      "search": {}}).encode()
    with pytest.raises(workloads.GateError):
        workloads._gate_ellipsoid(bad)


def test_known_defect_is_recorded_not_hidden(tmp_path):
    """oracle-crosscheck runs the near-coincident diamond on every seed; its
    gate fails (NEAR_COINCIDENT_DEFECT) and the outcome is reported beside
    the failures, not dropped.  Once the oracle is fixed this test fails:
    then make the op an ordinary gated one."""
    import run

    wl = workloads.build("oracle-crosscheck", 4, tmp_path)
    probes = [i for i, op in enumerate(wl.ops) if op.known_defect]
    assert len(probes) == 1
    i = probes[0]
    checker = run.Checker(wl.ops, workloads.digest_of)
    out = wl.ops[i].run()
    assert checker.check(i, out, "test") is True
    assert checker.failures == []
    assert checker.known_defects == [{
        "op": wl.ops[i].label, "defect": workloads.NEAR_COINCIDENT_DEFECT,
        "reproduces": True, "gate": checker.known_defects[0]["gate"]}]
    assert "!= closed form [6, 0]" in checker.known_defects[0]["gate"]
    # a later pass must still repeat the output byte for byte
    assert checker.check(i, {"oracle": [6, 0]}, "test") is False


def test_samples_are_scaled_by_the_host_speed_around_them(monkeypatch):
    """An op's time is divided by the mean of the calibrations before and
    after it, over the reference time; raw times stay in ``latencies``."""
    import run

    cals = iter([2.0, 4.0, 1.0])
    monkeypatch.setattr(run, "calibrate", lambda: run.CAL_REF_S * next(cals))
    ops = [workloads.Op(f"op{i}", lambda: i, lambda out: None) for i in range(2)]
    runs = run.run_passes(ops, 1, run.Checker(ops, workloads.digest_of), "test")
    assert runs.failed == 0 and len(runs.latencies) == 2
    assert runs.scaled[0] == pytest.approx(runs.latencies[0] / 3.0)
    assert runs.scaled[1] == pytest.approx(runs.latencies[1] / 2.5)
    assert runs.run_s() == pytest.approx(sum(runs.scaled))


def _result_line(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _result_line(["--workload", "jump-certify", "--seed", "2", "--seconds", "0",
                         "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    report = json.loads(proc.stdout.splitlines()[-2])["report"]
    assert report["environment"]["nproc"] >= 1
    assert report["failures"] == []


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _result_line(["--workload", "jump-certify", "--seed", "0", "--seconds", "1",
                         "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
