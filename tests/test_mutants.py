"""The mutant table: one row per formula or bound that a count relies on.

Each row changes one piece of the source of one function of a module,
patches the changed function in, in process, and names the check that must
tell the mutant from the code: the generated property of the closed-form
2 x 2 read (test_normal_forms.closed_form_failures) or a count.
"""

import inspect
import textwrap

import pytest

from symindex import normal_forms
from test_normal_forms import closed_form_failures

SEEDS = range(3)

# (function of normal_forms, source piece, its mutant)
ROWS = [
    ("_unitary2", "s + t, -2j", "s - t, -2j"),  # the sign of U_00's (a - d) term
    ("_unitary2", "-2j * det,", "-2j,"),  # det M dropped from U_10
    ("_phases2", "half = 0.5 * np.arctan2", "half = 0.0 * np.arctan2"),  # half dropped
]


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


@pytest.mark.parametrize("name, old, new", ROWS, ids=["a-d sign", "U10 det", "half"])
def test_each_mutant_fails_the_closed_form_property(monkeypatch, name, old, new):
    monkeypatch.setattr(normal_forms, name, mutant(normal_forms, name, old, new))
    assert any(closed_form_failures(s) for s in SEEDS)
