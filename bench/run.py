"""symindex benchmark: three workloads, end-to-end metrics, traced per-layer run.

    python3 bench/run.py --workload jump-certify --seed 0 --seconds 30 --trace 0

Run from the repository root (or anywhere: paths are taken from this
file).  The package is imported from ``src/`` of the same checkout; the
benchmark exits 2 without a result when it is missing.

One closed-loop client runs the workload's operations in passes.  The
number of passes is ``--seconds`` divided by the workload's nominal pass
time on the reference machine (at least two), so every run of a workload
makes the same operations whatever the machine's speed.  Each op's output
is gated against an independent route on its first pass and must repeat
byte for byte (sha256) on every later pass.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a separate traced run, which
alternates untraced and traced passes after one warm-up pass.  The line
before it is a JSON report with every metric, its unit, the environment
and the digests.  See bench/README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Read by the package at import time and at CLI parser construction; a
# caller's shell must not change the work, so both are cleared.
PINNED_ENV = ("SYMINDEX_PRECISION", "SYMINDEX_WORKERS")
# One BLAS thread: the matrices are at most 8 x 8, and an idle OpenBLAS
# thread spins on the second core, doubling CPU use without speeding
# anything up and competing with the ellipsoid-sweep pool workers.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Seconds one pass takes on the reference machine (2-CPU Xeon, Python 3.11).
NOMINAL_PASS_S = {
    "jump-certify": 2.5,
    "ellipsoid-sweep": 5.0,
    "oracle-crosscheck": 7.0,
}
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# A traced pass costs about 1.1 untraced passes; the traced run interleaves
# untraced and traced passes after one warm-up pass.
TRACED_PASS_COST = 1.1
# Host speed.  The shared cores run the same code up to 50 % slower in
# phases of seconds to minutes, long enough for a whole run to sit in one.
# A fixed pure-Python loop is timed before every op (and after the last);
# an op's time is scaled by CAL_REF_S over the mean of the loop's two
# times around it, so every timing on the result line reads in seconds at
# the reference speed: the loop's median time on the reference machine.
# The loop's time is the fastest of CAL_REPEATS, so that a single
# preemption does not read as a slow phase.
CAL_ITERS = 20_000
CAL_REPEATS = 5
CAL_REF_S = 0.0018

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "op_p50_s": "s", "op_tail_s": "s",
    "peak_rss_mb": "MB", "certified_per_s": "1/s", "queries_per_s": "1/s",
    "failed_ratio": "ratio",
}
# The end-to-end metrics every workload reports on the result line; the
# workload-specific ones (certified_per_s, queries_per_s) and failed_ratio
# are in the report line.
RESULT_END_TO_END = ("setup_s", "run_s", "op_p50_s", "op_tail_s", "peak_rss_mb")
# The per-layer metrics every workload reports on the traced result line:
# counts, which must repeat exactly, and times that are nonzero on every
# workload.  A layer's own time is 0 on a workload that does not use it, so
# the layer times are in the report line only.
RESULT_PER_LAYER = (
    "scalars.floor.calls", "iteration.check.calls", "iteration.formulas.calls",
    "jump.candidates", "jump.certified",
    "oracle.cz_index.calls", "oracle.evaluate.calls", "oracle.expm.calls",
    "dominant_layer.s", "dominant_layer.share", "trace.overhead_s",
)
# The layer each workload is built to load: certification, the stage-1
# scan, the oracle.
DOMINANT_LAYER = {
    "jump-certify": "jump.certify.s",
    "ellipsoid-sweep": "jump.scan.s",
    "oracle-crosscheck": "oracle.s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("jump-certify", "ellipsoid-sweep", "oracle-crosscheck"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up and exit; used to time set-up in fresh processes")
    return ap.parse_args(argv)


def load_package():
    """Import symindex from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import symindex

    if not Path(symindex.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"symindex imported from {symindex.__file__}, not {SRC}")
    return symindex


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(".calls") or name in ("jump.candidates", "jump.certified",
                                           "jump.scan.steps"):
        return "count"
    if name.endswith(("_ratio", "scaling_eff", ".share")):
        return "ratio"
    if name.endswith("N_per_s"):
        return "1/s"
    if name.endswith("us_per_candidate"):
        return "us"
    return "s"


# ----- measurement ----------------------------------------------------------------


def calibrate() -> float:
    """Seconds the fixed reference loop takes now."""
    best = math.inf
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_ITERS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


class Checker:
    """Gates each op output once, then demands the same sha256 on every pass.

    An op with a known defect is gated too, but its gate's outcome goes to
    ``known_defects`` instead of counting as a failure."""

    def __init__(self, ops, digest):
        self.digest = digest
        self.ops = ops
        self.ref = [None] * len(ops)
        self.failures = []
        self.known_defects = []

    def check(self, i: int, out, where: str) -> bool:
        digest = self.digest(out)
        if self.ref[i] is None:
            op = self.ops[i]
            try:
                op.gate(out)
                error = None
            except Exception as exc:  # every gate failure is counted, not raised
                error = f"{type(exc).__name__}: {exc}"
            if op.known_defect:
                self.known_defects.append({"op": op.label, "defect": op.known_defect,
                                           "reproduces": error is not None,
                                           "gate": error or "passed"})
            elif error is not None:
                self.failures.append(f"{where} {op.label}: {error}")
                return False
            self.ref[i] = digest
            return True
        if digest != self.ref[i]:
            self.failures.append(f"{where} {self.ops[i].label}: output sha256 changed")
            return False
        return True


class Runs:
    """Op latencies, pass times and counts of one series of passes.

    ``latencies`` are wall times as measured; ``scaled`` the same times at
    the reference host speed (see CAL_REF_S)."""

    def __init__(self, n_ops: int):
        self.n_ops = n_ops
        self.pass_s = []
        self.latencies = []
        self.scaled = []
        self.attempted = 0
        self.failed = 0
        self.certified = 0

    def extend(self, other: "Runs"):
        self.pass_s += other.pass_s
        self.latencies += other.latencies
        self.scaled += other.scaled
        self.attempted += other.attempted
        self.failed += other.failed
        self.certified += other.certified

    def per_op(self, samples=None) -> list:
        """Each op's median over passes."""
        samples = self.scaled if samples is None else samples
        return [statistics.median(samples[i::self.n_ops]) for i in range(self.n_ops)]

    def run_s(self, samples=None) -> float:
        """One pass: the sum over ops of each op's median (per_op())."""
        return sum(self.per_op(samples))


def run_passes(ops, n_passes: int, checker: Checker, label: str, runner=None,
               first_op_id: int = 0) -> Runs:
    runs = Runs(len(ops))
    for p in range(n_passes):
        pass_s = 0.0
        cal = calibrate()
        for i, op in enumerate(ops):
            op_id = first_op_id + p * len(ops) + i
            t0 = time.perf_counter()
            try:
                out = runner(op_id, op.run) if runner else op.run()
                ok = True
            except Exception as exc:  # a raising op is a failed op
                out, ok = None, False
                checker.failures.append(f"{label} pass {p} {op.label}: "
                                        f"{type(exc).__name__}: {exc}")
            lat = time.perf_counter() - t0
            cal_before, cal = cal, calibrate()
            pass_s += lat
            runs.latencies.append(lat)
            runs.scaled.append(lat * 2 * CAL_REF_S / (cal_before + cal))
            runs.attempted += 1
            if ok:
                ok = checker.check(i, out, f"{label} pass {p}")
            if ok and op.certified is not None:
                runs.certified += op.certified(out)
            runs.failed += not ok
        runs.pass_s.append(pass_s)
    return runs


def tail(latencies):
    """(value, percentile): the highest whole percentile with at least
    TAIL_BEYOND samples above it, never below the median."""
    n = len(latencies)
    pct = max(50, math.floor(100 * (1 - TAIL_BEYOND / n))) if n >= 2 else 50
    if n < 2:
        return latencies[0], pct
    return statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1], pct


def quartiles(values) -> dict:
    if len(values) == 1:
        q = [values[0]] * 3
    else:
        q = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q[1], "q1": q[0], "q3": q[2], "n": len(values)}


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any child it waited for
    (pool workers included); ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def measure_setup(args) -> tuple:
    """Time SETUP_REPEATS fresh processes from start to the point where the
    first op would run: imports, seeded inputs and one-off lazy work.
    Returns the wall times and the same times at the reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    times, scaled = [], []
    cal = calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        child = subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=170,
                               stdout=subprocess.PIPE, text=True)
        # the child prints when its set-up ended; perf_counter is the
        # system-wide monotonic clock, and the wait for the child's exit
        # (polled every 50 ms under a timeout) stays out of the figure
        t = float(child.stdout.split()[-1]) - t0
        cal_before, cal = cal, calibrate()
        times.append(t)
        scaled.append(t * 2 * CAL_REF_S / (cal_before + cal))
    return times, scaled


def environment(caller_env: dict) -> dict:
    import mpmath
    import numpy
    import scipy
    from symindex import scalars

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
        "precision": scalars.get_precision(),
        "pinned_env": BLAS_ENV,
        "overridden_env": caller_env,
    }


# ----- the untraced run -----------------------------------------------------------


def plain_run(args, wl, w, n_passes: int) -> tuple:
    checker = Checker(wl.ops, w.digest_of)
    t_first = time.perf_counter()
    runs = run_passes(wl.ops, n_passes, checker, "run")
    rss = peak_rss_mb()
    setups, setups_scaled = measure_setup(args)
    run_s = runs.run_s()
    # the latency distribution the client sees, over every op of every pass
    value, pct = tail(runs.scaled)
    metrics = {
        "setup_s": statistics.median(setups_scaled),
        "run_s": run_s,
        "op_p50_s": statistics.median(runs.scaled),
        "op_tail_s": value,
        "peak_rss_mb": rss,
        "failed_ratio": runs.failed / runs.attempted,
    }
    if wl.name == "oracle-crosscheck":
        metrics["queries_per_s"] = len(wl.ops) / run_s
    else:
        metrics["certified_per_s"] = runs.certified / n_passes / run_s
    report = {
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "op_tail_percentile": pct, "op_samples": len(runs.latencies),
        "op_median_s": runs.per_op(),
        "wall": {"setup_s": statistics.median(setups), "run_s": runs.run_s(runs.latencies),
                 "op_p50_s": statistics.median(runs.latencies),
                 "op_tail_s": tail(runs.latencies)[0]},
        "host_speed": quartiles([s / l for s, l in zip(runs.scaled, runs.latencies)]),
        "passes": n_passes, "pass_s": runs.pass_s, "setup_samples_s": setups,
        "setup_scaled_s": setups_scaled,
        "in_process_setup_s": t_first - T_START,
        "certified": runs.certified,
        "digests": checker.ref, "failures": checker.failures,
        "known_defects": checker.known_defects,
    }
    return metrics, RESULT_END_TO_END, runs, report, True


# ----- the traced run -------------------------------------------------------------


def traced_run(args, wl, w, n_passes: int, spans) -> tuple:
    from symindex import scalars

    checker = Checker(wl.ops, w.digest_of)
    n_ops = len(wl.ops)
    warm = run_passes(wl.ops, 1, checker, "warm-up")
    # untraced and traced passes alternate, so host drift hits both alike
    # and the overhead compares like with like
    base, runs = Runs(n_ops), Runs(n_ops)
    tracer = spans.Tracer()
    for p in range(n_passes):
        base.extend(run_passes(wl.ops, 1, checker, f"untraced {p}"))
        with tracer:
            runs.extend(run_passes(wl.ops, 1, checker, f"traced {p}", tracer.run_op,
                                   first_op_id=p * n_ops))
    extra = None
    if wl.name == "ellipsoid-sweep":
        # the same ops at --workers 1: scan scaling, and byte-identity
        # with the workers=2 outputs through the shared checker
        wl1 = w.build_ellipsoid_sweep(wl.seed, OUT_DIR, workers=1)
        with tracer:
            extra = run_passes(wl1.ops, 1, checker, "traced workers=1", tracer.run_op,
                               first_op_id=n_passes * n_ops)
    precision = scalars.get_precision()
    table = spans.table(tracer)
    per_pass = [spans.summarize(table, range(p * n_ops, (p + 1) * n_ops), precision)
                for p in range(n_passes)]
    for pp in per_pass:
        pp["dominant_layer.s"] = pp[DOMINANT_LAYER[wl.name]]
        pp["dominant_layer.share"] = pp["dominant_layer.s"] / pp["bench.op.s"]
    counts = {k for k in per_pass[0] if unit_of(k) == "count"}
    repeat = all(pp[k] == per_pass[0][k] for pp in per_pass for k in counts)
    layer = {k: (per_pass[0][k] if k in counts else statistics.median(pp[k] for pp in per_pass))
             for k in per_pass[0]}
    untraced_run_s = base.run_s()
    layer["trace.overhead_s"] = runs.run_s() - untraced_run_s
    layer["trace.overhead_ratio"] = layer["trace.overhead_s"] / untraced_run_s
    if extra is not None and len(os.sched_getaffinity(0)) >= w.ES_WORKERS:
        # wall-clock scaling only where every worker has a CPU of its own
        one = spans.summarize(table, range(n_passes * n_ops, (n_passes + 1) * n_ops), precision)
        layer["jump.scan.scaling_eff"] = one["jump.scan.s"] / (w.ES_WORKERS * layer["jump.scan.s"])
        layer["jump.scan.workers1_s"] = one["jump.scan.s"]
    tree_problems = spans.check_tree(table)
    baselines = baseline_rows(wl, table, spans, n_passes, n_ops, precision)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{wl.name}-seed{wl.seed}.npz")

    total = Runs(n_ops)
    for r in (warm, base, runs, extra):
        if r is not None:
            total.extend(r)
    report = {
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()},
        "traced_passes": n_passes, "traced_pass_s": runs.pass_s,
        "untraced_pass_s": base.pass_s, "untraced_run_s": untraced_run_s,
        "counts_repeat": repeat,
        "span_tree_problems": tree_problems, "spans": len(tracer.name),
        "baseline_rows": baselines,
        "digests": checker.ref, "failures": checker.failures,
        "known_defects": checker.known_defects,
    }
    ok = repeat and not tree_problems
    return layer, RESULT_PER_LAYER, total, report, ok


def baseline_rows(wl, table, spans, n_passes, n_ops, precision) -> dict:
    """The ROADMAP baseline table, as medians with quartiles over the traced
    passes (tracing overhead included, see trace.overhead_ratio)."""
    def per_op(i):
        return [spans.summarize(table, [p * n_ops + i], precision) for p in range(n_passes)]

    rows = {}
    if wl.name == "jump-certify":
        golden = per_op(0)
        rows["golden_search"] = {
            "label": wl.ops[0].label,
            "search_N_s": quartiles([g["jump.search_N.s"] for g in golden]),
            "scan_s": quartiles([g["jump.scan.s"] for g in golden]),
            "certify_s": quartiles([g["jump.certify.s"] for g in golden]),
            "us_per_candidate": quartiles([g["jump.certify.us_per_candidate"] for g in golden]),
            "certified": golden[0]["jump.certified"],
        }
        rows["closed_form_pairs"] = closed_form_pairs()
    elif wl.name == "ellipsoid-sweep":
        n2 = per_op(0)
        rows["ellipsoid_n2"] = {
            "label": wl.ops[0].label,
            "search_N_s": quartiles([g["jump.search_N.s"] for g in n2]),
            "scan_s": quartiles([g["jump.scan.s"] for g in n2]),
            "orbit_data_s": quartiles([g["ellipsoid.orbit_data.s"] for g in n2]),
            "certified": n2[0]["jump.certified"],
        }
    else:
        for i, op in enumerate(wl.ops):
            if op.label.startswith("cz_index shear"):
                near = per_op(i)
                rows["shear_near_one"] = {
                    "label": op.label,
                    "cz_index_s": quartiles([g["oracle.cz_index.s"] for g in near]),
                    "expm_calls": near[0]["oracle.expm.calls"],
                    "point_evaluations": near[0]["oracle.evaluate.calls"],
                }
    return rows


def closed_form_pairs(repeats: int = 3) -> dict:
    """20,000 index_iterate / index_iterate_via_splitting pairs on
    criterion 1's random decompositions, untraced; every pair must agree."""
    from symindex.iteration import index_iterate, index_iterate_via_splitting
    from symindex.selftest import random_path_data

    rng = random.Random(987654321)
    datas = [random_path_data(rng, n_max=5) for _ in range(100)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        agree = all(index_iterate(d, m) == index_iterate_via_splitting(d, m)
                    for d in datas for m in range(1, 201))
        times.append(time.perf_counter() - t0)
        if not agree:
            raise AssertionError("closed forms disagree")
    return {"pairs": 20_000, "s": quartiles(times)}


# ----- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    caller_env = {k: os.environ.pop(k) for k in PINNED_ENV if k in os.environ}
    caller_env.update({k: os.environ[k] for k in BLAS_ENV
                       if os.environ.get(k, BLAS_ENV[k]) != BLAS_ENV[k]})
    os.environ.update(BLAS_ENV)
    try:
        load_package()
    except ImportError as exc:
        print(f"error: cannot import symindex from {SRC}: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads as w

    wl = w.build(args.workload, args.seed, OUT_DIR)
    if args.setup_only:
        print(repr(time.perf_counter()))
        return 0
    nominal_passes = args.seconds / NOMINAL_PASS_S[wl.name]
    if args.trace:
        n_passes = max(2, round((nominal_passes - 1) / (1 + TRACED_PASS_COST)))
        metrics, keys, runs, report, ok = traced_run(args, wl, w, n_passes, spans)
    else:
        n_passes = max(2, round(nominal_passes))
        metrics, keys, runs, report, ok = plain_run(args, wl, w, n_passes)
    report = {"workload": wl.name, "seed": wl.seed, "trace": args.trace,
              "inputs": wl.info, "ops": [op.label for op in wl.ops],
              "environment": environment(caller_env), **report}
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": ok and runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit_of(k)} for k in keys},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
