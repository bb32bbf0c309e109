"""Randomized property campaigns: required volume, zero failures."""

import ast
from pathlib import Path

import oracle
import property_helpers

#: The fewest cases each campaign must run.
FLOORS = {name: 1000 for name in property_helpers.SUITES}
FLOORS.update(cross_backend_mirror=100, tracked_mirror=100, boundary_mirror=50)


def test_required_suites_present():
    assert set(property_helpers.REQUIRED_SUITES) <= set(property_helpers.SUITES)


def test_oracle_imports_nothing_from_godeaux():
    tree = ast.parse(Path(oracle.__file__).read_text())
    modules = {a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names}
    modules |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert modules == {"functools", "heapq"}


def _campaign_test(name):
    def test(property_outcomes):
        cases, failures = property_outcomes[name]
        assert cases >= FLOORS[name]
        assert failures == []

    test.__name__ = f"test_{name}"
    return test


# One test per campaign, each under the name it has always had.
for _name in property_helpers.SUITES:
    globals()[f"test_{_name}"] = _campaign_test(_name)
