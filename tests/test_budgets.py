"""The budget table: its limits, and the one refusal every budget shares."""

import re
from pathlib import Path

import pytest

import steinscope
from steinscope import budgets
from steinscope.budgets import BUDGETS, OverBudget, check


def test_the_limits():
    assert BUDGETS == {
        "MAX_INDEX": 1000,
        "MAX_CONSTRAINTS": 256,
        "MAX_UNKNOWNS": 128,
        "MAX_HERMITE_DEGREE": 2048,
        "MAX_SAMPLES": 10**8,
        "MAX_HORNER_STEPS": 10**10,
        "LOG_WALK_TERMS": 1000,
    }
    assert all(getattr(budgets, name) == limit for name, limit in BUDGETS.items())


def test_every_budget_is_declared_in_the_table_alone():
    # a module-level MAX_* or LOG_WALK_TERMS assignment outside budgets.py
    # would be a second home for a budget
    declared = re.compile(r"^(MAX_[A-Z_]+|LOG_WALK_TERMS) =", re.MULTILINE)
    package = Path(steinscope.__file__).parent
    homes = {path.name: declared.findall(path.read_text(encoding="utf-8"))
             for path in package.glob("*.py")}
    assert {name: found for name, found in homes.items() if found} == {
        "budgets.py": list(BUDGETS)}


def test_check_admits_the_limit_and_refuses_past_it():
    check("MAX_UNKNOWNS", "unknowns", 128)
    with pytest.raises(OverBudget) as caught:
        check("MAX_UNKNOWNS", "unknowns", 129)
    assert str(caught.value) == "unknowns = 129 exceeds the budget MAX_UNKNOWNS = 128"
    assert isinstance(caught.value, ValueError)
