"""The mutant table: one row per formula or bound that a count relies on.

Each row changes one piece of the source of one function of a module,
patches the changed function in, in process, and names the check that must
tell the mutant from the code: the generated property of the closed-form
2 x 2 read (test_normal_forms.closed_form_failures) for a normal_forms row,
and a count against the closed forms, or a refusal, for an oracle row.

No count yet tells the whole-gap row from the code: _motion's bound is
loose enough that twice the room still never reaches a phase on the
rotation diamonds tried.  It is told apart by the refusal of a sample
step too long to count; a miscount check for it needs an input whose
motion bound is tight.
"""

import inspect
import textwrap

import numpy as np
import pytest

from symindex import normal_forms, oracle
from symindex.oracle import OracleError, SampledSymplecticPath
from test_normal_forms import closed_form_failures
from test_oracle import DEGENERATE_ENDPOINTS, FOUR_THETAS, degenerate_endpoint, rotation_diamond

SEEDS = range(3)

# (module, function, source piece, its mutant)
ROWS = [
    (normal_forms, "_read2", "-w.real * e", "w.real * e"),  # the sign of the cos phi term
    (normal_forms, "_read2", "- b * c + 1.0", "- b * c"),  # e = det M, the 1 dropped
    (normal_forms, "_read2", " + 0.5 * math.pi", ""),  # pi/2 dropped from half
    (oracle, "_endpoint", "] = 2 * math.pi", "] = 0.0"),  # the nu_omega phases at 0^+
    (oracle, "_endpoint", "<= PHASE_TOL", "< 0.0"),  # no phase moved to 0^-
    (oracle, "_count", "+ room) %", ") %"),  # the cut on the gap's lower end phase
    (oracle, "_count", "room > bound", "2 * room > bound"),  # the whole gap as room
]
FORMULA_ROWS = [row[1:] for row in ROWS if row[0] is normal_forms]
ENDPOINT_ROWS = [row[1:] for row in ROWS if row[1] == "_endpoint"]
COUNT_ROWS = [row[1:] for row in ROWS if row[1] == "_count"]


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


@pytest.mark.parametrize("name, old, new", FORMULA_ROWS, ids=["cos sign", "e without 1", "half"])
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


def counts_a_long_step() -> bool:
    """Whether cz_index counts, at omega = -1, the FOUR_THETAS diamond
    sampled at four steps with no evaluator: a single step moves its phases
    too far for any cut, and with nothing to halve it through, the count
    must be refused
    (test_oracle.test_a_long_sample_step_is_halved_through_the_evaluator)."""
    ts = np.linspace(0.0, 1.0, 5)
    mats = rotation_diamond(FOUR_THETAS)[0].evaluate(ts)
    bare = SampledSymplecticPath(n=4, tau=1.0, ts=ts, mats=mats)
    try:
        oracle.cz_index(bare, -1)
    except OracleError:
        return False
    return True


@pytest.mark.parametrize("name, old, new, check",
                         [row + (check,) for row, check in
                          zip(COUNT_ROWS, (miscounts, counts_a_long_step))],
                         ids=["cut on a phase", "whole gap"])
def test_each_step_rule_mutant_fails_its_check(monkeypatch, name, old, new, check):
    monkeypatch.setattr(oracle, name, mutant(oracle, name, old, new))
    assert check()
