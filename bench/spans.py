"""In-memory span tracer that wraps the package's layer functions from outside.

``Tracer.install()`` replaces each target function with a recording
wrapper in every ``symindex`` module that binds it (``from .x import y``
copies the name, so patching only the defining module would miss calls
made through the copies); methods are patched on their class.  ``expm`` is
patched only under the oracle module's own name.  ``uninstall()`` puts the
originals back.

A span is (name, start, end, parent span, op id); self time is the span
minus its direct children.  Spans are kept in flat arrays while the
benchmark runs and written out once, at exit.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute or Class.method, span name)
TARGETS = (
    ("symindex.scalars", "Scalar.mul_floor", "scalars.mul_floor"),
    ("symindex.scalars", "Scalar.mul_div_floor", "scalars.mul_div_floor"),
    ("symindex.iteration", "NormalFormDecomposition.check", "iteration.check"),
    ("symindex.iteration", "index_iterate", "iteration.index_iterate"),
    ("symindex.iteration", "index_iterate_via_splitting", "iteration.index_iterate_via_splitting"),
    ("symindex.iteration", "nullity_iterate", "iteration.nullity_iterate"),
    ("symindex.iteration", "I_value", "iteration.I_value"),
    ("symindex.iteration", "splitting_numbers", "iteration.splitting_numbers"),
    ("symindex.jump", "search_N", "jump.search_N"),
    ("symindex.jump", "_residual", "jump._residual"),
    ("symindex.jump", "compute_m", "jump.compute_m"),
    ("symindex.jump", "_condition_339a_340", "jump._condition_339a_340"),
    ("symindex.jump", "delta_k", "jump.delta_k"),
    ("symindex.jump", "theorem211_report", "jump.theorem211_report"),
    ("symindex.jump", "build_jump_vector", "jump.build_jump_vector"),
    ("symindex.oracle", "cz_index", "oracle.cz_index"),
    ("symindex.oracle", "estimate_splitting", "oracle.estimate_splitting"),
    ("symindex.oracle", "SampledSymplecticPath.evaluate", "oracle.evaluate"),
    ("symindex.oracle", "expm", "oracle.expm"),
    ("symindex.oracle", "iterate_path", "oracle.iterate_path"),
    ("symindex.oracle", "diamond_paths", "oracle.diamond_paths"),
    ("symindex.oracle", "extend_with_xi", "oracle.extend_with_xi"),
    ("symindex.ellipsoid", "orbit_data", "ellipsoid.orbit_data"),
    ("symindex.ellipsoid", "run_pipeline", "ellipsoid.run_pipeline"),
    ("symindex.cli", "main", "cli.main"),
)

# Names patched only in the module listed in TARGETS, not in every importer.
OWN_NAME_ONLY = {"oracle.expm"}

FLOOR = ("scalars.mul_floor", "scalars.mul_div_floor")
FORMULAS = ("iteration.index_iterate", "iteration.index_iterate_via_splitting",
            "iteration.nullity_iterate", "iteration.I_value", "iteration.splitting_numbers")
# the per-candidate gate functions search_N calls
GATES = ("jump._residual", "jump.compute_m", "jump._condition_339a_340",
         "jump.delta_k", "iteration.I_value")
PATH_OPS = ("oracle.iterate_path", "oracle.diamond_paths", "oracle.extend_with_xi")
ORACLE = tuple(name for _, _, name in TARGETS if name.startswith("oracle."))
OP = "bench.op"

# Values kept beside some spans: the solutions a search certified and the
# N it scanned, and the precision a residual ran at (a second, doubled-precision residual of
# the same N is a re-check, not another candidate).
NOTES = {
    "jump.search_N": lambda args, kwargs, out: (
        len(out.solutions), out.params["N_max"] // out.params["M0"]),
    "jump._residual": lambda args, kwargs, out: args[3],
}


class Tracer:
    def __init__(self):
        self.names = [OP]
        self.ids = {OP: 0}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.extra = {}          # span index -> NOTES value
        self._stack = []         # [span index, child time]
        self._op_id = -1
        self._patches = []       # (owner, attribute, original)

    # ----- recording ----------------------------------------------------

    def _open(self, nid: int) -> list:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self._op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.self_s.append(0.0)
        frame = [idx, 0.0, perf_counter()]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        t1 = perf_counter()
        idx, child, t0 = frame
        self._stack.pop()
        d = t1 - t0
        self.start[idx] = t0
        self.end[idx] = t1
        self.self_s[idx] = d - child
        if self._stack:
            self._stack[-1][1] += d

    def run_op(self, op_id: int, fn):
        """Run fn under a root span of its own op id."""
        self._op_id = op_id
        frame = self._open(0)
        try:
            return fn()
        finally:
            self._close(frame)
            self._op_id = -1

    def _wrap(self, span_name: str, fn):
        nid = self.ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        note = NOTES.get(span_name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op_id < 0:
                return fn(*args, **kwargs)
            frame = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
                if note is not None:
                    tracer.extra[frame[0]] = note(args, kwargs, out)
                return out
            finally:
                tracer._close(frame)

        return wrapper

    # ----- patching -----------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "symindex" or name.startswith("symindex."))]
        for mod_name, attr, span_name in TARGETS:
            mod = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(span_name, original))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(span_name, original)
            owners = [mod] if span_name in OWN_NAME_ONLY else mods
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ----- output -------------------------------------------------------

    def arrays(self) -> dict:
        """Copies of the span arrays (a live view would pin the buffers)."""
        col = lambda arr, dt: np.frombuffer(arr, dtype=dt).copy()
        return {
            "names": np.array(self.names),
            "name": col(self.name, np.int32),
            "parent": col(self.parent, np.int32),
            "op": col(self.op, np.int32),
            "start": col(self.start, np.float64),
            "end": col(self.end, np.float64),
            "self_s": col(self.self_s, np.float64),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


# ----- per-layer metrics --------------------------------------------------------


def table(tracer: Tracer) -> dict:
    """The span arrays plus what every summary needs: each span's parent
    name and whether it runs under an oracle.cz_index."""
    a = tracer.arrays()
    names = list(a["names"])
    a["nid"] = {n: i for i, n in enumerate(names)}
    a["extra"] = dict(tracer.extra)
    name, parent = a["name"], a["parent"]
    a["pname"] = pname = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
    cz = a["nid"].get("oracle.cz_index", -99)
    under = np.zeros(len(name), dtype=bool)
    while True:  # parents precede children, so this settles within the tree depth
        nxt = np.where(parent >= 0, under[np.maximum(parent, 0)] | (pname == cz), False)
        if np.array_equal(nxt, under):
            break
        under = nxt
    a["under_cz"] = under
    return a


def summarize(t: dict, op_ids, precision: int) -> dict:
    """Per-layer counts and times of the spans of t that belong to op_ids."""
    nid, name, pname = t["nid"], t["name"], t["pname"]
    sel = np.isin(t["op"], np.asarray(list(op_ids), dtype=np.int32))
    dur = t["end"] - t["start"]
    self_s = t["self_s"]

    def mask(*span_names):
        return sel & np.isin(name, [nid.get(n, -99) for n in span_names])

    def calls(*span_names):
        return int(np.count_nonzero(mask(*span_names)))

    def total(*span_names):
        return float(dur[mask(*span_names)].sum())

    def self_total(*span_names):
        return float(self_s[mask(*span_names)].sum())

    ev = nid.get("oracle.evaluate", -99)
    point_evals = int(np.count_nonzero(sel & (name == ev) & t["under_cz"] & (pname != ev)))

    extra = t["extra"]
    under_search = pname == nid.get("jump.search_N", -99)
    gates = mask(*GATES) & under_search
    res_idx = np.nonzero(mask("jump._residual") & under_search)[0]
    candidates = sum(1 for i in res_idx if extra[int(i)] == precision)
    search_idx = np.nonzero(mask("jump.search_N"))[0]
    certified = sum(extra[int(i)][0] for i in search_idx)
    steps = sum(extra[int(i)][1] for i in search_idx)
    scan_s = self_total("jump.search_N")
    # oracle calls made by the op itself, not through another layer
    oracle_s = float(dur[mask(*ORACLE) & (pname == nid[OP])].sum())
    certify_s = float(dur[gates].sum())

    return {
        "scalars.floor.calls": calls(*FLOOR),
        "scalars.floor.s": total(*FLOOR),
        "iteration.check.calls": calls("iteration.check"),
        "iteration.check.s": total("iteration.check"),
        "iteration.formulas.calls": calls(*FORMULAS),
        "iteration.formulas.s": self_total(*FORMULAS),
        "jump.search_N.calls": calls("jump.search_N"),
        "jump.search_N.s": total("jump.search_N"),
        "jump.scan.s": scan_s,
        "jump.scan.steps": steps,
        "jump.scan.N_per_s": steps / scan_s if scan_s > 0 else 0.0,
        "jump.certify.s": certify_s,
        "jump.certify.us_per_candidate": 1e6 * certify_s / candidates if candidates else 0.0,
        "jump.candidates": candidates,
        "jump.certified": certified,
        "jump.certified_ratio": certified / candidates if candidates else 0.0,
        "jump.theorem211.s": total("jump.theorem211_report"),
        "jump.build_vector.s": total("jump.build_jump_vector"),
        "oracle.cz_index.calls": calls("oracle.cz_index"),
        "oracle.cz_index.s": total("oracle.cz_index"),
        "oracle.estimate_splitting.calls": calls("oracle.estimate_splitting"),
        "oracle.estimate_splitting.s": total("oracle.estimate_splitting"),
        "oracle.evaluate.calls": point_evals,
        "oracle.expm.calls": calls("oracle.expm"),
        "oracle.expm.s": total("oracle.expm"),
        "oracle.path_ops.s": total(*PATH_OPS),
        "oracle.s": oracle_s,
        "ellipsoid.orbit_data.calls": calls("ellipsoid.orbit_data"),
        "ellipsoid.orbit_data.s": total("ellipsoid.orbit_data"),
        "ellipsoid.pipeline.self_s": self_total("ellipsoid.run_pipeline"),
        "cli.main.self_s": self_total("cli.main"),
        "bench.op.calls": calls(OP),
        "bench.op.s": total(OP),
    }


def check_tree(a: dict) -> list:
    """Problems with the span tree of table(): children inside their
    parent's interval, the same op id as the parent, and self time >= 0."""
    parent = a["parent"]
    has = parent >= 0
    p = parent[has]
    problems = []
    if np.any(p >= np.nonzero(has)[0]):
        problems.append("a parent span starts after its child")
    if np.any(a["start"][has] < a["start"][p]) or np.any(a["end"][has] > a["end"][p]):
        problems.append("a child span leaves its parent's interval")
    if np.any(a["op"][has] != a["op"][p]):
        problems.append("a child span carries another op id")
    if np.any(a["self_s"] < 0):
        problems.append("negative self time")
    if np.any(a["name"][~has] != 0):
        problems.append("a root span is not an op span")
    return problems
