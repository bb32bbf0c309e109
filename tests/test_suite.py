"""Verification suite: checks, reports, witnesses, mutation coverage."""

import copy
import hashlib
import json
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from godeaux import (_kernel_pure, backend, derivations, groebner, rings,
                     suite)
from godeaux.errors import ParseError
from godeaux.fixtures import keyvals, load_fixtures
from godeaux.suite import (BUDGET_EXCEEDED, CHECK_IDS, CHECKS, FAIL,
                           MUTATIONS, PASS, CheckResult, SuiteContext, report,
                           run_all, verify_witness)

GOLDEN = Path(__file__).parent / "data" / "verify_golden.json"
MUTATION_REPORTS = Path(__file__).parent / "data" / "mutation_reports.json"
BUDGET_SWEEP_SHA256 = ("044c04e819cf168bb6941a5f82fa1a85"
                       "957a02209f981d4caef39ec76dd1cdcd")


# -- witness tamperings that a sound re-verification must reject -------------


def _edit(name, path, old, new):
    """A tampering called ``name`` that sets the witness value at ``path``
    (keys and list indices) from ``old`` to ``new``.  It raises ValueError
    where the value is not ``old``, so a changed report cannot turn it into
    an edit that proves nothing."""
    def tamper(w):
        *parents, last = path
        for key in parents:
            w = w[key]
        if w[last] != old:
            raise ValueError(f"{name}: expected {old!r} at {path}, "
                             f"found {w[last]!r}")
        w[last] = new

    tamper.__name__ = name
    return tamper


def _unit_witness_from_remainder(w):
    wit = w["unit_witness"]
    wit["cofactors"] = ["0"] * len(wit["cofactors"])
    wit["remainder"] = "1"


def _zero_targets_zero_cofactors(w):
    for wit in w["membership"]["computed_in_expected"]:
        wit["target"] = "0"
        wit["cofactors"] = ["0"] * len(wit["cofactors"])


def _membership_emptied(w):
    for side in w["membership"].values():
        side.clear()


def _unit_locus(w):
    w["locus"] = ["1"]
    gens = w["relations"] + w["minors"] + ["1"]
    w["unit_witness"].update(generators=gens, remainder="0",
                             cofactors=["0"] * (len(gens) - 1) + ["1"])


def _trivial_relations(w):
    w["relations"], w["minors"] = ["w"], []
    w["unit_witness"].update(generators=["w", "w"], cofactors=["0", "0"],
                             remainder="1")


def _forged_minor(w):
    w["minors"][0] = "1"
    gens = w["relations"] + w["minors"] + w["locus"]
    cofactors = ["0"] * len(gens)
    cofactors[len(w["relations"])] = "1"
    w["unit_witness"].update(generators=gens, cofactors=cofactors,
                             remainder="0")


def _non_canonical_minor(w):
    # the same polynomial, its terms printed smallest first
    terms = w["minors"][0].split(" + ")
    assert len(terms) > 1
    w["minors"][0] = " + ".join(reversed(terms))
    w["unit_witness"]["generators"] = (w["relations"] + w["minors"]
                                       + w["locus"])


def _edited_invariants(w):
    w["quintic_invariants"] = {"chi": 6, "k2": 7}


def _edited_expected_relations(w):
    w["expected_relations"] = ["s"]


def _uncertified_relations(w):
    w["certified_by_substitution"] = [False] * len(w["relations"])


def _edited_ambient_variables(w):
    w["ambient_variables"] = w["ambient_variables"][:-1]


def _extra_radical_member(w):
    # x0 is not in the radical: the fixed point is the x0 coordinate point
    w["radical"]["x0"] = True


# Equal polynomials in text the engine does not print: saved text must be
# canonical.

def _combination(w):
    """The first cofactor combination of a C2, C7 or C8-C10 witness."""
    if "powers" in w:
        return w["powers"]["x1"]["witness"]
    if "membership" in w:
        return w["membership"]["computed_in_expected"][0]
    return w["unit_witness"]


def _padded_remainder(w):
    _combination(w)["remainder"] = "0 "


def _product_remainder(w):
    _combination(w)["remainder"] = "0*2"


def _padded_cofactor(w):
    _combination(w)["cofactors"][-1] += " "


def _padded_element(w):
    w["element"] += " "


# Witnesses with a key or a cofactor too many or too few.

def _extra_key(w):
    w["extra"] = "0"


def _surplus_cofactor(w):
    _combination(w)["cofactors"].append("x1")


def _surplus_zero_cofactor(w):
    _combination(w)["cofactors"].append("0")


def _trailing_zero_cofactors_dropped(w):
    cofactors = _combination(w)["cofactors"]
    assert cofactors[-1] == "0"
    while cofactors[-1] == "0":
        cofactors.pop()


def _pairs_deleted(w):
    del w["pairs_processed"]


def _draws_deleted(w):
    del w["draws"]


def _elimination_pairs_deleted(w):
    del w["elimination_pairs"]


TAMPERINGS = (
    ("C8", _unit_witness_from_remainder),
    ("C9", _unit_witness_from_remainder),
    ("C10", _unit_witness_from_remainder),
    ("C7", _zero_targets_zero_cofactors),
    ("C7", _membership_emptied),
    ("C9", _unit_locus),
    ("C9", _trivial_relations),
    ("C8", _edit("codim_one", ("codim",), 2, 1)),
    ("C9", _forged_minor),
    ("C10", _forged_minor),
    ("C9", _non_canonical_minor),
    ("C10", _non_canonical_minor),
    ("C12", _edited_invariants),
    ("C12", _edit("edited_field_image", ("field_image",), "0", "x1 + 1")),
    ("C7", _edited_expected_relations),
    ("C10", _uncertified_relations),
    ("C7", _edited_ambient_variables),
    ("C2", _extra_radical_member),
    ("C2", _edit("negative_exponent", ("powers", "x1", "exponent"), 4, -1)),
    ("C2", _edit("fractional_exponent", ("powers", "x1", "exponent"), 4, 2.5)),
    ("C2", _edit("edited_radical_exponent", ("powers", "x1", "exponent"),
                 4, 3)),
    ("C2", _edit("edited_cofactor",
                 ("powers", "x2", "witness", "cofactors", 2), "1", "2")),
    ("C9", _edit("edited_remainder", ("unit_witness", "remainder"), "0", "1")),
    ("C9", _edit("padded_unit_target", ("unit_witness", "target"), "1", "1 ")),
    ("C8", _edit("product_unit_target", ("unit_witness", "target"), "1",
                 "1*1")),
    ("C2", _padded_remainder),
    ("C7", _product_remainder),
    ("C8", _padded_remainder),
    ("C9", _product_remainder),
    ("C10", _padded_remainder),
    ("C2", _padded_cofactor),
    ("C7", _padded_cofactor),
    ("C10", _padded_cofactor),
    ("C12", _padded_element),
    ("C7", _extra_key),
    ("C9", _extra_key),
    ("C12", _extra_key),
    ("C2", _surplus_cofactor),
    ("C2", _trailing_zero_cofactors_dropped),
    ("C7", _surplus_zero_cofactor),
    ("C9", _surplus_zero_cofactor),
    ("C7", _pairs_deleted),
    ("C8", _pairs_deleted),
    ("C12", _draws_deleted),
    ("C9", _elimination_pairs_deleted),
)

#: The pytest ids of ``TAMPERINGS``: check id and tampering name.
TAMPERING_IDS = [f"{c}-{t.__name__.strip('_')}" for c, t in TAMPERINGS]


def _leaves(node, path=()):
    """(path, value) of every leaf of a parsed JSON value."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaves(child, path + (key,))
    else:
        yield path, node


def _dicts(node, path=()):
    """(path, dict) of every dict inside a parsed JSON value."""
    if isinstance(node, dict):
        yield path, node
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _dicts(child, path + (key,))


def _leaf_edits(value):
    """The report sweep's edits of one leaf: an int +1, a bool flipped, and
    for a string a trailing space, "+1" appended, the first "1" made "2",
    and "0" made "0*2"."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1]
    if not isinstance(value, str):
        return []
    edits = [value + " ", value + "+1"]
    if "1" in value:
        edits.append(value.replace("1", "2", 1))
    if value == "0":
        edits.append("0*2")
    return edits


class TestFixtureReader:
    def test_keyvals_refuses_a_repeated_key(self):
        with pytest.raises(ParseError, match="repeated key 'p'"):
            keyvals(["p = 5", "vars = x", "p = 7"])

    def test_fixture_set_is_immutable(self, fixtures):
        with pytest.raises(AttributeError):
            fixtures.p = 7
        with pytest.raises(AttributeError):
            fixtures.extra = 1


class TestFullRun:
    def test_all_checks_pass(self, suite_results):
        assert [r.status for r in suite_results] == [PASS] * 14

    def test_check_order_and_ids(self, suite_results):
        assert [r.id for r in suite_results] == list(CHECK_IDS)
        assert CHECK_IDS[0] == "C1" and CHECK_IDS[-1] == "C14"

    def test_every_result_carries_anchor_and_witness(self, suite_results):
        for r in suite_results:
            assert r.description
            assert r.paper_anchor
            assert isinstance(r.witness, dict) and r.witness

    def test_checks_return_a_bool_verdict(self, fixtures):
        mutated = load_fixtures(MUTATIONS[0].overrides())
        verdicts = set()
        for fx in (fixtures, mutated):
            ctx = SuiteContext(fx, 1, 2000, None)
            for check in CHECKS.values():
                passed, witness = check.run(ctx)
                assert type(passed) is bool and isinstance(witness, dict)
                verdicts.add(passed)
        assert verdicts == {True, False}


class TestReport:
    def test_matches_golden_file(self, suite_report_json):
        assert suite_report_json == GOLDEN.read_text()

    def test_deterministic_across_runs(self, suite_report_json):
        again = report(run_all(seed=1), "json")
        assert again == suite_report_json

    def test_deterministic_across_backends(self, suite_report_json):
        pure = report(run_all(seed=1, backend_name="pure"), "json")
        compiled = report(run_all(seed=1, backend_name="compiled"), "json")
        assert pure == suite_report_json
        assert compiled == suite_report_json

    def test_json_is_canonical(self, suite_report_json):
        payload = json.loads(suite_report_json)
        assert suite_report_json == json.dumps(payload, indent=2,
                                               sort_keys=True) + "\n"
        assert len(payload) == 14

    def test_no_timings_leak_into_json(self, suite_report_json):
        assert "elapsed" not in suite_report_json
        assert "backend" not in suite_report_json

    def test_text_format(self, suite_results):
        text = report(suite_results, "text")
        lines = [l for l in text.splitlines() if l.strip()]
        for cid in CHECK_IDS:
            assert any(l.startswith(cid + " ") or f" {cid} " in l
                       or l.startswith(cid + ":") for l in lines)
        assert "pass" in text

    def test_unknown_format_rejected(self, suite_results):
        with pytest.raises(ValueError):
            report(suite_results, "yaml")


class TestSubsetting:
    def test_single_check(self):
        results = run_all(seed=1, only=("C3",))
        assert [r.id for r in results] == ["C3"]
        assert results[0].status == PASS

    def test_subset_preserves_canonical_order(self):
        results = run_all(seed=1, only=("C12", "C11"))
        assert [r.id for r in results] == ["C11", "C12"]

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            run_all(seed=1, only=("C99",))


class TestWitnesses:
    def test_all_witnesses_reverify(self, suite_results, fixtures):
        for r in suite_results:
            assert verify_witness(r, fixtures, seed=1), r.id

    def test_reverify_rejects_non_pass(self, fixtures):
        patched = load_fixtures(MUTATIONS[0].overrides())
        results = run_all(seed=1, budget=2000, fixtures=patched)
        flipped = [r for r in results if r.status != PASS]
        assert flipped
        assert not verify_witness(flipped[0], patched, seed=1)

    @pytest.mark.parametrize("check_id,tampering", TAMPERINGS,
                             ids=TAMPERING_IDS)
    def test_reverify_rejects_tampered_witness(self, suite_results, fixtures,
                                               check_id, tampering):
        result = next(r for r in suite_results if r.id == check_id)
        witness = copy.deepcopy(result.witness)
        tampering(witness)
        assert not verify_witness(replace(result, witness=witness), fixtures)

    @pytest.mark.parametrize("check_id,witness", [
        ("C2", {}),
        ("C9", {"verdict": "smooth-on-locus"}),  # C9's verdict, no codim
        ("C7", {"membership": []}),
    ], ids=["C2-empty", "C9-verdict_only", "C7-membership_list"])
    def test_reverify_rejects_wrong_shape(self, suite_results, fixtures,
                                          check_id, witness):
        result = next(r for r in suite_results if r.id == check_id)
        assert verify_witness(replace(result, witness=witness),
                              fixtures) is False

    def test_reverify_calls_no_kernel(self, suite_results, fixtures,
                                      monkeypatch):
        def no_kernel(*args, **kwargs):
            raise AssertionError("re-verification called a Groebner kernel")

        monkeypatch.setattr(backend, "get", no_kernel)
        saved = [CheckResult(**e) for e in json.loads(GOLDEN.read_text())]
        for r in list(suite_results) + saved:
            assert verify_witness(r, fixtures, seed=1), r.id

    def test_reverify_term_products_pinned(self, monkeypatch):
        # A work pin with no clock: the term products summed by
        # rings.add_product while the golden report re-verifies against
        # fresh fixtures.  A change that moves it regenerates the number
        # and says why in CHANGES.md.
        real = rings.add_product
        products = 0

        def counting(sums, a, b):
            nonlocal products
            products += len(a) * len(b)
            real(sums, a, b)

        for module in (rings, groebner, derivations):
            monkeypatch.setattr(module, "add_product", counting)
        fx = load_fixtures()
        saved = [CheckResult(**e) for e in json.loads(GOLDEN.read_text())]
        assert all(verify_witness(r, fx, seed=1) for r in saved)
        assert products == 655

    def test_report_sweep_accepts_only_declared_fields(self, fixtures):
        """Every leaf of the golden report but ``id``, edited each way
        ``_leaf_edits`` gives: an accepted edit must be on a field its
        registry entry declares unchecked, and each declared field must
        be accepted by some edit.  Every dict in a witness, with each key
        deleted in turn and with one key added: none may be accepted."""
        accepted, key_edits = set(), []
        for entry in json.loads(GOLDEN.read_text()):
            for path, value in _leaves(entry):
                for new in _leaf_edits(value) if path != ("id",) else ():
                    edited = copy.deepcopy(entry)
                    *parents, last = path
                    node = edited
                    for key in parents:
                        node = node[key]
                    node[last] = new
                    if verify_witness(CheckResult(**edited), fixtures):
                        accepted.add((entry["id"], path[:2]))
            for path, found in _dicts(entry["witness"]):
                for drop in [*found, None]:
                    edited = copy.deepcopy(entry)
                    node = edited["witness"]
                    for key in path:
                        node = node[key]
                    if drop is None:
                        node["extra"] = "0"
                    else:
                        del node[drop]
                    if verify_witness(CheckResult(**edited), fixtures):
                        key_edits.append((entry["id"], path, drop))
        declared = {(check.id, ("witness", name))
                    for check in CHECKS.values() for name in check.unchecked}
        assert accepted == declared
        assert key_edits == []

    def test_registry_keys_hold_notes_and_unchecked(self, suite_results):
        for r in suite_results:
            check = CHECKS[r.id]
            if check.recheck is None:
                assert check.keys == frozenset(), r.id
            else:
                assert r.witness.keys() == check.keys, r.id
                assert check.notes.keys() | check.unchecked.keys() \
                    <= check.keys, r.id

    def test_radical_power_witness_exponents(self, suite_results):
        c2 = next(r for r in suite_results if r.id == "C2")
        powers = c2.witness["powers"]
        assert powers["x1"]["exponent"] == 4
        assert powers["x2"]["exponent"] == 2
        assert powers["x3"]["exponent"] == 2
        for entry in powers.values():
            assert entry["witness"]["remainder"] == "0"

    def test_kernel_membership_runs_both_directions(self, suite_results):
        c7 = next(r for r in suite_results if r.id == "C7")
        membership = c7.witness["membership"]
        for direction in ("computed_in_expected", "expected_in_computed"):
            entries = membership[direction]
            assert len(entries) == 2
            assert all(m["remainder"] == "0" for m in entries)

    def test_smoothness_unit_witness_is_one(self, suite_results):
        c8 = next(r for r in suite_results if r.id == "C8")
        assert c8.witness["unit_witness"]["target"] == "1"
        assert c8.witness["verdict"] == "smooth"


def _results(text):
    return [CheckResult(**entry) for entry in json.loads(text)]


def _scribble(node):
    """Edit every mapping and list inside a witness in place."""
    children = node.values() if isinstance(node, dict) else node
    for child in list(children):
        if isinstance(child, (dict, list)):
            _scribble(child)
    if isinstance(node, dict):
        node["scribbled"] = True
    else:
        node.append("scribbled")


class TestSharedCache:
    """Fixture-only results are computed once per fixture set; verdicts
    must not depend on which sets were seen before."""

    @pytest.fixture(scope="class")
    def cases(self, suite_results, mutation_reports):
        """(mutation name or None, result, expected verdict or None) for
        the golden report, the full run, each mutation's run, the golden
        report under each mutation, and every tampering."""
        golden = _results(GOLDEN.read_text())
        cases = [(None, r, True) for r in golden + list(suite_results)]
        for m in MUTATIONS:
            cases += [(m.name, r, None)
                      for r in _results(mutation_reports[m.name]) + golden]
        for check_id, tampering in TAMPERINGS:
            result = next(r for r in suite_results if r.id == check_id)
            witness = copy.deepcopy(result.witness)
            tampering(witness)
            cases.append((None, replace(result, witness=witness), False))
        return cases

    @staticmethod
    def _load(name):
        overrides = next((m.overrides() for m in MUTATIONS if m.name == name),
                         None)
        return load_fixtures(overrides)

    @staticmethod
    def _verdicts(cases, fixtures_for):
        return [verify_witness(r, fixtures_for(name), seed=1)
                for name, r, _ in cases]

    def test_verdicts_do_not_depend_on_fixture_reuse(self, cases, fixtures):
        fresh = self._verdicts(cases, self._load)
        assert [v for v, (_, _, e) in zip(fresh, cases) if e is not None] \
            == [e for _, _, e in cases if e is not None]
        loaded = {m.name: self._load(m.name) for m in MUTATIONS}
        loaded[None] = fixtures
        assert self._verdicts(cases, loaded.__getitem__) == fresh
        # unmutated and mutated sets alternate call by call
        plain = [i for i, case in enumerate(cases) if case[0] is None]
        mutated = [i for i, case in enumerate(cases) if case[0]]
        order = [i for k, j in enumerate(mutated)
                 for i in (plain[k % len(plain)], j)]
        assert set(order) == set(range(len(cases)))
        alternating = self._verdicts([cases[i] for i in order],
                                     loaded.__getitem__)
        assert alternating == [fresh[i] for i in order]

    def test_threads_alternating_sets_agree(self, cases, fixtures):
        """Threads that alternate fixture sets, switching often, get the
        verdicts of fresh sets: a context's cache always matches its set."""
        loaded = {m.name: self._load(m.name) for m in MUTATIONS[:4]}
        loaded[None] = fixtures
        picked = [c for c in cases if c[0] in loaded and c[1].id in
                  ("C4", "C5", "C6", "C11")]
        expected = self._verdicts(picked, self._load)
        wrong = []

        def work(shift):
            for _ in range(3):
                for k in range(len(picked)):
                    i = (k + shift) % len(picked)
                    name, result, _ = picked[i]
                    if verify_witness(result, loaded[name]) != expected[i]:
                        wrong.append(picked[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(7 * n,))
                       for n in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_engine_error_is_not_kept(self, fixtures):
        mutation = next(m for m in MUTATIONS
                        if m.name == "invariant1-coefficient")
        patched = load_fixtures(mutation.overrides())
        c6 = next(r for r in _results(GOLDEN.read_text()) if r.id == "C6")
        for _ in range(2):
            assert verify_witness(c6, patched) is False
            assert ("rerun", "C6") not in suite._shared[1]
        assert verify_witness(c6, fixtures) is True

    def test_tampered_c11_after_an_accepted_one(self, suite_results,
                                                fixtures):
        c11 = next(r for r in suite_results if r.id == "C11")
        witness = copy.deepcopy(c11.witness)
        witness["dimension"] = 11
        assert verify_witness(c11, fixtures)
        assert not verify_witness(replace(c11, witness=witness), fixtures)
        assert verify_witness(c11, fixtures)

    def test_degree_five_kernel_computed_once(self, suite_results,
                                              monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return graded_kernel(*args)

        graded_kernel = suite.graded_kernel
        monkeypatch.setattr(suite, "graded_kernel", counted)
        fx = load_fixtures()
        c11 = next(r for r in suite_results if r.id == "C11")
        assert verify_witness(c11, fx) and verify_witness(c11, fx)
        assert len(calls) == 1

    def test_budget_stays_with_the_run(self, fixtures):
        run_all(seed=1, fixtures=fixtures)
        c7 = next(r for r in _results(GOLDEN.read_text()) if r.id == "C7")
        assert verify_witness(c7, fixtures)
        (r,) = run_all(seed=1, budget=1, fixtures=fixtures, only=("C7",))
        assert r.status == BUDGET_EXCEEDED

    def test_edited_witnesses_change_nothing_later(self, fixtures):
        golden = _results(GOLDEN.read_text())
        for _ in range(2):
            for r in run_all(seed=1, fixtures=fixtures):
                _scribble(r.witness)
            assert all(verify_witness(r, fixtures, seed=1) for r in golden)
        again = report(run_all(seed=1, fixtures=fixtures), "json")
        assert again == GOLDEN.read_text()


class TestBudgets:
    def test_budget_exceeded_reports_are_pinned(self):
        # sha256 of C2's and C7's JSON reports, concatenated over the
        # budgets; C2 builds its tracked basis only after x1's radical
        # test, and this pins that order
        budgets = [*range(1, 60), 100, 200, 500]
        for name in ("pure", "compiled"):
            text = "".join(
                report(run_all(seed=1, budget=b, only=("C2", "C7"),
                               backend_name=name), "json")
                for b in budgets)
            digest = hashlib.sha256(text.encode()).hexdigest()
            assert digest == BUDGET_SWEEP_SHA256, name

    def test_one_tracked_basis_per_generator_list(self, monkeypatch):
        # Buchberger runs with cofactor tracking, per check: C2 reuses one
        # basis of its minors for every power, C7 one per side, and C8-C10
        # each run their unit stage once more, tracked
        current = []
        counts = {}
        tracked = _kernel_pure.buchberger_tracked

        def counted(*args, **kwargs):
            counts[current[-1]] = counts.get(current[-1], 0) + 1
            return tracked(*args, **kwargs)

        def labelled(check):
            def run(ctx):
                current.append(check.id)
                return check.run(ctx)
            return replace(check, run=run)

        monkeypatch.setattr(_kernel_pure, "buchberger_tracked", counted)
        for check in list(CHECKS.values()):
            monkeypatch.setitem(CHECKS, check.id, labelled(check))
        for name in ("pure", "compiled"):
            counts.clear()
            assert report(run_all(seed=1, backend_name=name), "json") == \
                GOLDEN.read_text()
            assert counts == {"C2": 1, "C7": 2, "C8": 1, "C9": 1, "C10": 1}

    def test_tiny_budget_reports_in_place(self):
        results = run_all(seed=1, budget=1, only=("C7",))
        (r,) = results
        assert r.status == BUDGET_EXCEEDED
        assert r.witness["pairs_processed"] >= 1
        assert r.witness["basis_size"] > 0

    def test_budget_exceeded_downstream_fallback(self):
        # C8 falls back to the expected relations when C7's elimination
        # cannot finish, and says so in its witness
        results = run_all(seed=1, budget=1, only=("C7", "C8"))
        by_id = {r.id: r for r in results}
        assert by_id["C7"].status == BUDGET_EXCEEDED
        assert by_id["C8"].witness["relations_source"].startswith("expected")

    def test_cheap_checks_survive_tiny_budget(self):
        results = run_all(seed=1, budget=1, only=("C1", "C13", "C14"))
        assert [r.status for r in results] == [PASS] * 3


class TestMutations:
    def test_ten_canned_mutations(self):
        assert len(MUTATIONS) == 10
        assert len({m.name for m in MUTATIONS}) == 10

    def test_every_mutation_flips_a_check(self, mutation_outcomes):
        assert set(mutation_outcomes) == {m.name for m in MUTATIONS}
        silent = [name for name, ids in mutation_outcomes.items() if not ids]
        assert silent == []

    def test_failing_witnesses_are_pinned(self, mutation_reports):
        # sha256 of each mutation's JSON report; the two cohomology
        # mutations agree, because C14 records verdicts, not table values
        digests = {name: hashlib.sha256(text.encode()).hexdigest()
                   for name, text in mutation_reports.items()}
        assert digests == json.loads(MUTATION_REPORTS.read_text())

    def test_field_mutation_flips_core_checks(self, mutation_outcomes):
        flipped = set(mutation_outcomes["field-image-extra-term"])
        assert {"C1", "C2", "C3"} <= flipped

    def test_grid_mutations_flip_degeneration(self, mutation_outcomes):
        assert "C14" in mutation_outcomes["hodge-grid-center"]
        assert "C14" in mutation_outcomes["de-rham-middle"]

    def test_invariant_mutation_fails_cleanly_not_crash(self):
        # a coefficient change makes one chart recipe non-divisible; the
        # engine error is converted into a FAIL with the message recorded
        mutation = next(m for m in MUTATIONS
                        if m.name == "invariant1-coefficient")
        fx = load_fixtures(mutation.overrides())
        results = run_all(seed=1, budget=2000, fixtures=fx, only=("C6",))
        (r,) = results
        assert r.status == FAIL
        assert "error" in r.witness or "rows" in r.witness

    def test_mutation_patch_is_minimal(self):
        for m in MUTATIONS:
            overrides = m.overrides()
            assert set(overrides) == {m.filename}
            original = load_fixtures()
            patched = load_fixtures(overrides)
            assert original != patched
