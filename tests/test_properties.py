"""Randomized property campaigns: required volume, zero failures."""

import property_helpers


def test_required_suites_present():
    assert set(property_helpers.REQUIRED_SUITES) <= set(property_helpers.SUITES)


def test_ring_axioms(property_outcomes):
    cases, failures = property_outcomes["ring_axioms"]
    assert cases >= 1000
    assert failures == []


def test_leibniz(property_outcomes):
    cases, failures = property_outcomes["leibniz"]
    assert cases >= 1000
    assert failures == []


def test_frobenius_oracle(property_outcomes):
    cases, failures = property_outcomes["frobenius_oracle"]
    assert cases >= 1000
    assert failures == []


def test_power_oracle(property_outcomes):
    cases, failures = property_outcomes["power_oracle"]
    assert cases >= 1000
    assert failures == []


def test_substitute_oracle(property_outcomes):
    cases, failures = property_outcomes["substitute_oracle"]
    assert cases >= 1000
    assert failures == []


def test_reduce_idempotence(property_outcomes):
    cases, failures = property_outcomes["reduce_idempotence"]
    assert cases >= 1000
    assert failures == []


def test_spair_vanishing(property_outcomes):
    cases, failures = property_outcomes["spair_vanishing"]
    assert cases >= 1000
    assert failures == []


def test_kernel_closure(property_outcomes):
    cases, failures = property_outcomes["kernel_closure"]
    assert cases >= 1000
    assert failures == []


def test_chart_compatibility(property_outcomes):
    cases, failures = property_outcomes["chart_compatibility"]
    assert cases >= 1000
    assert failures == []


def test_graded_kernel_oracle(property_outcomes):
    cases, failures = property_outcomes["graded_kernel_oracle"]
    assert cases >= 1000
    assert failures == []


def test_cross_backend_mirror(property_outcomes):
    cases, failures = property_outcomes["cross_backend_mirror"]
    assert cases >= 100
    assert failures == []


def test_tracked_mirror(property_outcomes):
    cases, failures = property_outcomes["tracked_mirror"]
    assert cases >= 100
    assert failures == []


def test_packed_encoding(property_outcomes):
    cases, failures = property_outcomes["packed_encoding"]
    assert cases >= 1000
    assert failures == []


def test_boundary_mirror(property_outcomes):
    cases, failures = property_outcomes["boundary_mirror"]
    assert cases >= 50
    assert failures == []


def test_ring_fastpath_oracle(property_outcomes):
    cases, failures = property_outcomes["ring_fastpath_oracle"]
    assert cases >= 1000
    assert failures == []


def test_groebner_fastpath_oracle(property_outcomes):
    cases, failures = property_outcomes["groebner_fastpath_oracle"]
    assert cases >= 1000
    assert failures == []


def test_every_required_suite_clean(property_outcomes):
    for name in property_helpers.REQUIRED_SUITES:
        cases, failures = property_outcomes[name]
        assert cases >= 1000, name
        assert failures == [], name
