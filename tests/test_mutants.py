"""The mutant table: one row per formula or bound that a count relies on.

Each row changes one piece of the source of one function of a module,
patches the changed function in, in process, and names the check that must
tell the mutant from the code: the generated property of the closed-form
2 x 2 read (test_normal_forms.closed_form_failures) for a normal_forms row,
and a count against the closed forms for an oracle row.
"""

import inspect
import textwrap

import pytest

from symindex import normal_forms, oracle
from test_normal_forms import closed_form_failures
from test_oracle import DEGENERATE_ENDPOINTS, degenerate_endpoint

SEEDS = range(3)

# (module, function, source piece, its mutant)
ROWS = [
    (normal_forms, "_unitary2", "s + t, -2j", "s - t, -2j"),  # the sign of U_00's (a - d) term
    (normal_forms, "_unitary2", "-2j * det,", "-2j,"),  # det M dropped from U_10
    (normal_forms, "_phases2", "half = 0.5 * np.arctan2", "half = 0.0 * np.arctan2"),  # half dropped
    (oracle, "_endpoint", "] = 2 * math.pi", "] = 0.0"),  # the nu_omega phases at 0^+
    (oracle, "_endpoint", "<= PHASE_TOL", "< 0.0"),  # no phase moved to 0^-
]
FORMULA_ROWS = [row[1:] for row in ROWS if row[0] is normal_forms]
ENDPOINT_ROWS = [row[1:] for row in ROWS if row[0] is oracle]


def mutant(module, name: str, old: str, new: str):
    """module.name compiled from its source with the one piece old replaced
    by new, in a copy of the module's namespace."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, (name, old)
    scope = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), scope)
    return scope[name]


def test_the_code_passes_the_property_on_the_mutant_seeds():
    assert [closed_form_failures(s) for s in SEEDS] == [[]] * len(SEEDS)


@pytest.mark.parametrize("name, old, new", FORMULA_ROWS, ids=["a-d sign", "U10 det", "half"])
def test_each_mutant_fails_the_closed_form_property(monkeypatch, name, old, new):
    monkeypatch.setattr(normal_forms, name, mutant(normal_forms, name, old, new))
    assert any(closed_form_failures(s) for s in SEEDS)


def miscounts() -> list:
    """The DEGENERATE_ENDPOINTS rows whose cz_index at omega = 1 is not the
    closed forms' (i, nu)."""
    bad = []
    for name, decomp, m in DEGENERATE_ENDPOINTS:
        path, want = degenerate_endpoint(decomp, m)
        if oracle.cz_index(path, 1) != want:
            bad.append(name)
    return bad


@pytest.mark.parametrize("name, old, new", ENDPOINT_ROWS, ids=["0^+", "none moved"])
def test_each_endpoint_mutant_miscounts_a_degenerate_endpoint(monkeypatch, name, old, new):
    monkeypatch.setattr(oracle, name, mutant(oracle, name, old, new))
    assert miscounts()
