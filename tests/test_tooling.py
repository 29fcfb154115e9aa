"""The benchmark's span tracer (bench/spans.py) wraps package functions by
module and attribute name; a rename in the package must fail here, not
only when the benchmark runs.  The package keeps its mpmath use in one
module, scalars.py, and which blocks carry S^- at which angle in one
module, iteration.py."""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

from symindex.iteration import NormalFormDecomposition

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_the_package():
    targets = load_spans().TARGETS
    assert targets
    for module_name, attr, span_name in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{span_name}: {module_name}.{attr} does not resolve"
            owner = getattr(owner, part)
        assert callable(owner), span_name


def test_only_scalars_imports_mpmath():
    importers = set()
    for path in sorted((ROOT / "src" / "symindex").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "mpmath" for name in names):
                importers.add(path.name)
    assert importers == {"scalars.py"}


def test_jump_reads_no_block_layout_of_a_decomposition():
    # jump.py takes the S^- angles, C(M) and S^+(1) from iteration's path
    # record: of a decomposition it reads the half-dimension and nu(gamma, 1)
    # only, and passes none on to a function
    allowed = {"n", "nu_one"}
    layout = {f.name for f in dataclasses.fields(NormalFormDecomposition)}
    layout |= {name for name, value in vars(NormalFormDecomposition).items()
               if isinstance(value, property)}
    layout -= allowed
    assert {"thetas", "alphas", "q_zero", "r", "r_star"} <= layout
    path = ROOT / "src" / "symindex" / "jump.py"
    tree = ast.parse(path.read_text(), str(path))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        assert node.attr not in layout, f"jump.py line {node.lineno} reads .{node.attr}"
        if node.attr == "decomp":
            parent = parents[node]
            assert isinstance(parent, ast.Attribute) and parent.attr in allowed, \
                f"jump.py line {node.lineno} uses a decomposition beyond .n and .nu_one"
