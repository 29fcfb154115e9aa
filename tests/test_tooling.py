"""The benchmark's span tracer (bench/spans.py) wraps package functions by
module and attribute name; a rename in the package must fail here, not
only when the benchmark runs.  And the package keeps its mpmath use in one
module, scalars.py."""

import ast
import importlib
import importlib.util
from pathlib import Path

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
