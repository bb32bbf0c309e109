"""Acceptance gate: one test per release criterion.

Each test is a single pass/fail line for one shipping requirement; all
six must be green for the package to be considered deliverable.
"""

import json
from pathlib import Path

from godeaux.rings import parse_poly
from godeaux.suite import PASS, report, run_all

GOLDEN = Path(__file__).parent / "data" / "verify_golden.json"

FAST_CHECKS = ("C1", "C2", "C3", "C4", "C5", "C6", "C11", "C12", "C13", "C14")
HEAVY_CHECKS = ("C7", "C8", "C9", "C10")
PAIR_LIMIT = 10 ** 6


def test_criterion_1_full_run_passes_within_budget(suite_results):
    """Seeded verification: 14/14 pass, under time and pair budgets."""
    by_id = {r.id: r for r in suite_results}
    assert len(suite_results) == 14
    assert all(r.status == PASS for r in suite_results)
    assert sum(r.elapsed for r in suite_results) < 300.0
    for cid in FAST_CHECKS:
        assert by_id[cid].elapsed < 1.0, f"{cid} too slow"
    for cid in HEAVY_CHECKS:
        pairs = by_id[cid].witness.get("pairs_processed",
                                       by_id[cid].witness.get(
                                           "elimination_pairs", 0))
        assert pairs < PAIR_LIMIT, f"{cid} exceeded the pair limit"


def test_criterion_2_exact_reference_values(suite_results):
    """Every frozen numerical and algebraic value is reproduced exactly."""
    w = {r.id: r.witness for r in suite_results}
    assert w["C1"]["fifth_power_images"] == ["0", "0", "0", "0"]
    assert set(w["C2"]["radical"]) >= {"x1", "x2", "x3"}
    assert w["C3"]["field_image"] == {"K1": "0", "K2": "0"}
    assert all(c["matches"] for c in w["C4"]["charts"].values())
    assert all(v == "0" for chart in w["C5"]["charts"].values()
               for v in chart.values())
    rows = w["C6"]["rows"]
    assert len(rows) == 6 and all(row["matches"] for row in rows)
    assert w["C11"]["dimension"] == 12
    assert all(w["C11"]["members"].values())
    assert w["C12"]["quintic_invariants"] == {"chi": 5, "k2": 5}
    assert w["C13"]["cover"] == {"chi": 5, "k2": 5, "h0_omega_lower": 4}
    assert w["C13"]["quotient"] == {"chi": 1, "k2": 1}
    assert w["C14"]["feasible"] == {"singular": [2, 3, 5],
                                    "supersingular": [2, 3, 5]}
    assert w["C14"]["torsion_bound_p5"] == 1
    assert w["C14"]["betti"]["b2"] == 9
    assert w["C14"]["degenerate"] == {"singular": True,
                                      "supersingular": False}


def test_criterion_3_kernel_equality_and_unit_witness(suite_results,
                                                      fixtures):
    """Two-sided ideal equality for the eliminated kernel; smoothness
    certificate whose combination literally expands to 1."""
    w = {r.id: r.witness for r in suite_results}

    expected = {str(rel) for rel in fixtures.presentation_rels}
    computed = set(w["C7"]["computed_kernel"])
    assert computed == expected
    membership = w["C7"]["membership"]
    for direction in ("computed_in_expected", "expected_in_computed"):
        assert all(m["remainder"] == "0" for m in membership[direction])

    unit = w["C8"]["unit_witness"]
    ring = fixtures.presentation_ring
    acc = ring.zero()
    for cof, gen in zip(unit["cofactors"], unit["generators"]):
        acc = acc + parse_poly(ring, cof) * parse_poly(ring, gen)
    assert acc == ring.one()


def test_criterion_4_property_campaigns(property_outcomes):
    """Every suite in ``REQUIRED_SUITES``: >= 1000 cases, no failures."""
    import property_helpers
    for name in property_helpers.REQUIRED_SUITES:
        cases, failures = property_outcomes[name]
        assert cases >= 1000, f"{name} ran only {cases} cases"
        assert failures == [], f"{name}: {failures[:3]}"


def test_criterion_5_mutation_coverage(mutation_outcomes):
    """Ten canned single-coefficient mutations, each flips a check."""
    assert len(mutation_outcomes) == 10
    silent = sorted(name for name, ids in mutation_outcomes.items()
                    if not ids)
    assert silent == [], f"silent mutations: {silent}"


def test_criterion_6_byte_identical_reports(suite_report_json):
    """Same seed, same bytes: the default report is fully deterministic."""
    fresh = report(run_all(seed=1), "json")
    assert fresh == suite_report_json
    assert suite_report_json == GOLDEN.read_text()
    json.loads(suite_report_json)  # and it is valid JSON
