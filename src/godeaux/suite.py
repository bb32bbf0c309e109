"""Fourteen-check verification suite over the fixture data.

Each check re-derives one constructive claim with the exact engine and
returns ``(passed, witness)``: its verdict, and a witness whose contents
can be re-verified by expansion and evaluation alone, on a fail as on a
pass.  ``run_all`` reports each as an id (C1..C14), a human description,
a status (pass / fail / budget-exceeded) and a stable anchor naming the
source claim, beside the witness; an engine error inside a check fails
it.  Each check is declared once, in the registry ``CHECKS``, which
``verify_witness`` also reads.  Runs are deterministic given the seed:
two runs with equal seed produce byte-identical json reports.
"""

from __future__ import annotations

import json
import random
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from . import numerics
from .derivations import (apply, chart_transform, fixed_locus_ideal,
                          graded_kernel, iterate_power, vector_reduce)
from .errors import BudgetExceeded, EngineError
from .fixtures import CHARTS, FixtureSet, load_fixtures, patched_text
from .groebner import (DEFAULT_BUDGET, SMOOTH, SMOOTH_ON_LOCUS,
                       CombinationWitness, _buchberger_tracked,
                       frobenius_seeds, ideal_member, jacobian_minors,
                       jacobian_smoothness, radical_member, ring_map_kernel)
from .rings import (Polynomial, dehomogenize, laurent_normalize, parse_poly,
                    substitute)

PASS = "pass"
FAIL = "fail"
BUDGET_EXCEEDED = "budget-exceeded"

DEFAULT_SEED = 1

#: The three affine-chart smoothness targets are three-dimensional schemes
#: presented in five variables, so the Jacobian criterion uses 2x2 minors.
_ADJUNCTION_CODIM = 2

_BACKGROUND_NOTE = {"assumed_background": (
    "unverified background: identifying the presented subalgebra with the "
    "full invariant ring rests on normality and fraction-field arguments "
    "outside the engine's scope")}

_COMPLETENESS_NOTE = {"completeness_note": (
    "the two relations are certified fifth-power identities; that they "
    "generate the whole kernel rests on a height-one factoriality argument "
    "not mechanized here")}


#: The keys of one result in a JSON report, in ``to_json_dict`` order.
REPORT_FIELDS = ("id", "description", "status", "witness", "paper_anchor")


@dataclass
class CheckResult:
    id: str
    description: str
    status: str
    witness: dict
    paper_anchor: str
    elapsed: float = 0.0  # wall seconds; diagnostic only, never serialized

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in REPORT_FIELDS}


@dataclass(frozen=True)
class Check:
    """One check.  ``recheck(ctx, witness)`` searches nothing; ``None``
    marks a search-free check, whose ``run`` must give ``(True, witness)``.
    ``keys``: a re-checked witness's top-level keys, the ``notes`` (which
    join the witness) and ``unchecked`` (skipped field -> reason) among
    them."""

    id: str
    description: str
    anchor: str
    run: Callable
    recheck: Callable | None = None
    keys: frozenset = frozenset()
    notes: dict = field(default_factory=dict)
    unchecked: dict = field(default_factory=dict)

    def verify(self, ctx: SuiteContext, result: CheckResult) -> bool:
        """Whether a saved passing result re-checks."""
        w = result.witness
        if (result.description != self.description
                or result.paper_anchor != self.anchor
                or any(w[k] != v for k, v in self.notes.items())):
            return False
        if self.recheck is None:
            return ctx.rerun(self.id) == (True, w)
        return w.keys() == self.keys and self.recheck(ctx, w)


def _wit_json(w: CombinationWitness) -> dict:
    return {
        "target": str(w.target),
        "generators": [str(g) for g in w.generators],
        "cofactors": [str(c) for c in w.cofactors],
        "remainder": str(w.remainder),
    }


@dataclass(frozen=True)
class TableRow:
    """One row of the homogeneous-to-inhomogeneous generator tables."""

    chart: str
    name: str               # "gen1" or "gen2"
    numerator: Polynomial   # homogeneous combination of the two invariants
    shift: int              # power of the last projective coordinate divided out


#: The last fixture set seen and its cache dict; the strong reference
#: keeps the set's ``id`` from being reused while it is compared.
_shared: tuple = (None, {})


class SuiteContext:
    """Lazily-computed artifacts; later checks reuse earlier ones.

    Everything that depends on the fixtures alone (chart fields, table
    rows, chart generators, the degree-5 kernel, C2's minors, and each
    search-free check's ``(passed, witness)``) is computed once per
    ``FixtureSet`` object, which is immutable: every context made with
    the last set seen shares one cache, compared with ``is``.  A context
    keeps the cache it started with.  The chart-x3 elimination depends
    on the budget and the backend, so it stays in the context.
    """

    def __init__(self, fixtures: FixtureSet, seed: int, budget: int | None,
                 backend_name: str | None):
        global _shared
        self.fx = fixtures
        self.seed = seed
        self.budget = budget
        self.backend_name = backend_name
        shared = _shared  # read once: a set and its dict stay paired
        if shared[0] is not fixtures:
            shared = _shared = (fixtures, {})
        self._cache: dict = shared[1]
        self._x3 = None

    # -- chart data -----------------------------------------------------

    def chart_field(self, chart: str):
        key = ("field", chart)
        if key not in self._cache:
            self._cache[key] = chart_transform(
                self.fx.field, chart, names=self.fx.chart_vars[chart])
        return self._cache[key]

    def table_rows(self) -> tuple[TableRow, ...]:
        if "rows" not in self._cache:
            k1, k2 = self.fx.k1, self.fx.k2
            ring = k1.ring
            x2 = ring.gen(2)
            x3 = ring.gen(3)
            two = ring.constant(2)
            self._cache["rows"] = (
                TableRow("x3", "gen1", k1, 0),
                TableRow("x3", "gen2", k2, 0),
                TableRow("x2", "gen1", k1 * k1, 5),
                TableRow("x2", "gen2", k1 * k1 * k2 - x2**5 * x3**5 * k1, 10),
                TableRow("x1", "gen1",
                         k1**4 + two * x3**5 * k1 * k2 * k2
                         + x2**5 * x3**10 * k2, 15),
                TableRow("x1", "gen2",
                         k2**3 * x3**5 + k1**3 * k2 + k1 * k1 * x2**5 * x3**5,
                         15),
            )
        return self._cache["rows"]

    def row_value(self, row: TableRow) -> Polynomial:
        """Dehomogenized value of one table row on its chart."""
        val = row.numerator
        if row.shift:
            val = laurent_normalize(val, "x3", row.shift)
        return dehomogenize(val, row.chart, names=self.fx.chart_vars[row.chart])

    def chart_generators(self, chart: str) -> tuple[Polynomial, Polynomial]:
        """Engine-derived generator pair for one chart (from the tables)."""
        key = ("gens", chart)
        if key not in self._cache:
            vals = [self.row_value(r) for r in self.table_rows()
                    if r.chart == chart]
            self._cache[key] = tuple(vals)
        return self._cache[key]

    def kernel5(self) -> tuple[Polynomial, ...]:
        if "kernel5" not in self._cache:
            self._cache["kernel5"] = tuple(graded_kernel(self.fx.field, 5))
        return self._cache["kernel5"]

    def fixed_minors(self) -> tuple[tuple[Polynomial, ...], list[str]]:
        """C2's fixed-locus minors, and as printed."""
        if "minors" not in self._cache:
            minors = tuple(fixed_locus_ideal(self.fx.field))
            self._cache["minors"] = minors, [str(m) for m in minors]
        return self._cache["minors"]

    def rerun(self, check_id: str) -> tuple[bool, dict]:
        """``(passed, witness)`` of a search-free check, to compare only."""
        key = ("rerun", check_id)
        if key not in self._cache:
            self._cache[key] = CHECKS[check_id].run(self)
        return self._cache[key]

    def adjunction_images(self, chart: str) -> tuple[Polynomial, ...]:
        """Images (three fifth powers, gen1, gen2) presenting the subalgebra."""
        cring = self.chart_field(chart).ring
        powers = tuple(cring.gen(i)**self.fx.p for i in range(cring.nvars))
        return powers + self.chart_generators(chart)

    def x3_presentation(self):
        """Eliminated kernel for the chart-x3 subalgebra (feeds C8)."""
        if self._x3 is None:
            try:
                self._x3 = ring_map_kernel(
                    self.fx.presentation_ring, self.chart_field("x3").ring,
                    self.adjunction_images("x3"), budget=self.budget,
                    backend_name=self.backend_name)
            except BudgetExceeded as exc:
                self._x3 = exc
        if isinstance(self._x3, BudgetExceeded):
            raise self._x3
        return self._x3


# -- the fourteen checks -------------------------------------------------


def _check_c1(ctx: SuiteContext) -> tuple[bool, dict]:
    power = iterate_power(ctx.fx.field, ctx.fx.p)
    return power.is_zero(), {"fifth_power_images":
                             [str(g) for g in power.images]}


def _check_c2(ctx: SuiteContext) -> tuple[bool, dict]:
    fx = ctx.fx
    minors, printed = ctx.fixed_minors()
    witness: dict = {"minors": list(printed),
                     "radical": {}, "powers": {}}
    basis = None
    for name in fx.ring.variables[1:]:
        xi = fx.ring.gen(name)
        witness["radical"][name] = radical_member(
            xi, minors, budget=ctx.budget, backend_name=ctx.backend_name)
        # Not before x1's radical test: a tight budget must stop that first.
        if basis is None:
            basis = _buchberger_tracked(minors, ctx.budget)
        for k in range(1, 11):
            inside, wit = ideal_member(xi**k, basis, witness=True)
            if inside:
                witness["powers"][name] = {"exponent": k,
                                           "witness": _wit_json(wit)}
                break
    passed = (all(witness["radical"].values())
              and witness["powers"].keys() == witness["radical"].keys())
    return passed, witness


def _check_c3(ctx: SuiteContext) -> tuple[bool, dict]:
    fx = ctx.fx
    witness: dict = {"field_image": {}, "degree": {}, "homogeneous": {}}
    passed = True
    for name, poly in (("K1", fx.k1), ("K2", fx.k2)):
        image = apply(fx.field, poly)
        witness["field_image"][name] = str(image)
        witness["degree"][name] = poly.total_degree()
        witness["homogeneous"][name] = poly.is_homogeneous()
        passed = passed and image.is_zero() and poly.is_homogeneous() \
            and poly.total_degree() == 5
    return passed, witness


def _check_c4(ctx: SuiteContext) -> tuple[bool, dict]:
    witness: dict = {"charts": {}}
    for chart in CHARTS:
        computed = ctx.chart_field(chart)
        expected = ctx.fx.chart_fields[chart]
        entry = {
            "computed": {name: str(computed.images[i])
                         for i, name in enumerate(computed.ring.variables)},
            "expected": {name: str(expected.images[i])
                         for i, name in enumerate(expected.ring.variables)},
            "matches": computed == expected,
        }
        witness["charts"][chart] = entry
    return all(e["matches"] for e in witness["charts"].values()), witness


def _check_c5(ctx: SuiteContext) -> tuple[bool, dict]:
    witness: dict = {"charts": {}}
    passed = True
    for chart in CHARTS:
        field = ctx.chart_field(chart)
        entry = {}
        for name, gen in zip(("gen1", "gen2"), ctx.fx.chart_gens[chart]):
            image = apply(field, gen)
            entry[name] = str(image)
            passed = passed and image.is_zero()
        witness["charts"][chart] = entry
    return passed, witness


def _check_c6(ctx: SuiteContext) -> tuple[bool, dict]:
    witness: dict = {"rows": []}
    for row in ctx.table_rows():
        computed = ctx.row_value(row)
        expected = ctx.fx.chart_gens[row.chart][0 if row.name == "gen1" else 1]
        entry = {
            "chart": row.chart,
            "generator": row.name,
            "numerator": str(row.numerator),
            "shift": row.shift,
            "computed": str(computed),
            "expected": str(expected),
            "matches": computed == expected,
        }
        witness["rows"].append(entry)
    return all(e["matches"] for e in witness["rows"]), witness


def _check_c7(ctx: SuiteContext) -> tuple[bool, dict]:
    fx = ctx.fx
    kp = ctx.x3_presentation()
    computed, expected = list(kp.generators), list(fx.presentation_rels)
    witness: dict = {
        "ambient_variables": list(fx.presentation_ring.variables),
        "computed_kernel": [str(g) for g in computed],
        "expected_relations": [str(r) for r in expected],
        "pairs_processed": kp.pairs_processed,
        "membership": {"computed_in_expected": [], "expected_in_computed": []},
    }
    passed = True
    for side, targets, gens in (("computed_in_expected", computed, expected),
                                ("expected_in_computed", expected, computed)):
        basis = _buchberger_tracked(gens, ctx.budget)
        for t in targets:
            member, wit = ideal_member(t, basis, witness=True)
            witness["membership"][side].append(_wit_json(wit))
            passed = passed and member
    return passed, witness


def _smoothness(verdict: str, names: tuple[str, ...], presentation,
                also=None) -> tuple[Callable, Callable]:
    """Run and re-check of a chart's smoothness check, with its expected
    verdict and locus.  ``presentation(ctx)`` gives relations and witness
    fields; ``also(ctx, w, relations)`` is the check's own re-check."""

    def run(ctx: SuiteContext) -> tuple[bool, dict]:
        gens, extra = presentation(ctx)
        ring = ctx.fx.presentation_ring
        cert = jacobian_smoothness(
            gens, _ADJUNCTION_CODIM, locus=[ring.gen(n) for n in names],
            budget=ctx.budget, backend_name=ctx.backend_name)
        witness = {
            "verdict": cert.verdict,
            "codim": cert.codim,
            "relations": [str(g) for g in cert.generators],
            "minors": [str(m) for m in cert.minors],
            "locus": [str(f) for f in cert.locus],
            "pairs_processed": cert.pairs_processed,
            **extra,
        }
        if cert.unit_witness is not None:
            witness["unit_witness"] = _wit_json(cert.unit_witness)
        if cert.residual is not None:
            witness["residual"] = [str(g) for g in cert.residual]
        return cert.verdict == verdict and cert.verify(), witness

    def recheck(ctx: SuiteContext, w: dict) -> bool:
        if (w["verdict"] != verdict or w["codim"] != _ADJUNCTION_CODIM
                or w["locus"] != list(names)
                or len(w["relations"]) < _ADJUNCTION_CODIM):
            return False
        ring = ctx.fx.presentation_ring
        relations = [_parse_canonical(ring, g) for g in w["relations"]]
        # The minors are recomputed and compared as text, never parsed.
        minors = jacobian_minors(relations, _ADJUNCTION_CODIM)
        if [str(m) for m in minors] != w["minors"]:
            return False
        locus = [ring.gen(name) for name in names]
        return (_proves(w["unit_witness"], ring.one(),
                        w["relations"] + w["minors"] + w["locus"],
                        relations + minors + locus)
                and (also is None or also(ctx, w, relations)))

    return run, recheck


def _c8_relations(ctx: SuiteContext) -> tuple[list, dict]:
    try:
        gens, source = ctx.x3_presentation().generators, "eliminated kernel"
    except BudgetExceeded:
        gens = ctx.fx.presentation_rels
        source = "expected relations (elimination exceeded budget)"
    return list(gens), {"relations_source": source}


def _c9_relations(ctx: SuiteContext) -> tuple[list, dict]:
    kp = ring_map_kernel(ctx.fx.presentation_ring, ctx.chart_field("x2").ring,
                         ctx.adjunction_images("x2"), budget=ctx.budget,
                         backend_name=ctx.backend_name)
    return list(kp.generators), {"elimination_pairs": kp.pairs_processed}


def _c10_relations(ctx: SuiteContext) -> tuple[list, dict]:
    # frobenius_seeds substitution-checks each relation as it builds it.
    relations = frobenius_seeds(ctx.fx.presentation_ring,
                                ctx.chart_field("x1").ring,
                                ctx.adjunction_images("x1"))
    return relations, {"certified_by_substitution": [True] * len(relations)}


def _c10_substituted(ctx: SuiteContext, w: dict, relations) -> bool:
    """C10's relations are stated certified and vanish under its images."""
    images = ctx.adjunction_images("x1")
    return (w["certified_by_substitution"] == [True] * len(relations)
            and all(substitute(rel, images[0].ring, images).is_zero()
                    for rel in relations))


def _check_c11(ctx: SuiteContext) -> tuple[bool, dict]:
    fx = ctx.fx
    basis = ctx.kernel5()
    members = {}
    for i in range(fx.ring.nvars):
        name = f"{fx.ring.variables[i]}^5"
        members[name] = vector_reduce(fx.ring.gen(i)**5, basis).is_zero()
    members["K1"] = vector_reduce(fx.k1, basis).is_zero()
    members["K2"] = vector_reduce(fx.k2, basis).is_zero()
    witness = {
        "dimension": len(basis),
        "dimension_expected": 12,
        "members": members,
        "leading_monomials": [str(fx.ring.monomial(f.leading_monomial()))
                              for f in basis],
    }
    return len(basis) == 12 and all(members.values()), witness


def _check_c12(ctx: SuiteContext) -> tuple[bool, dict]:
    fx = ctx.fx
    basis = ctx.kernel5()
    rng = random.Random(ctx.seed)
    base_exp = (5,) + (0,) * (fx.ring.nvars - 1)
    element = fx.ring.zero()
    draws = 0
    for _ in range(1000):
        draws += 1
        coeffs = [rng.randrange(fx.p) for _ in basis]
        element = fx.ring.zero()
        for c, b in zip(coeffs, basis):
            if c:
                element = element + fx.ring.constant(c) * b
        if element.coefficient(base_exp):
            break
    field_image = apply(fx.field, element)
    base_value = element.evaluate((1,) + (0,) * (fx.ring.nvars - 1))
    chi, k2 = numerics.hypersurface_invariants(5)
    witness = {
        "element": str(element),
        "draws": draws,
        "field_image": str(field_image),
        "base_point_value": base_value,
        "quintic_invariants": {"chi": chi, "k2": k2},
    }
    passed = (element.coefficient(base_exp) != 0 and field_image.is_zero()
              and base_value != 0 and (chi, k2) == (5, 5))
    return passed, witness


def _check_c13(ctx: SuiteContext) -> tuple[bool, dict]:
    p = ctx.fx.p
    quotient = numerics.InvariantRecord(p=p, chi=1, k2=1, kind="supersingular")
    cover = numerics.torsor_invariants(quotient)
    descended = numerics.descend_invariants(
        numerics.InvariantRecord(p=p, chi=cover.chi, k2=cover.k2))
    witness = {
        "cover": {"chi": cover.chi, "k2": cover.k2,
                  "h0_omega_lower": cover.h0_omega_lower},
        "quotient": {"chi": descended.chi, "k2": descended.k2},
        "roundtrip_identity": (descended.chi, descended.k2) == (1, 1),
    }
    passed = (cover.chi, cover.k2) == (5, 5) and witness["roundtrip_identity"]
    return passed, witness


def _check_c14(ctx: SuiteContext) -> tuple[bool, dict]:
    fx = ctx.fx
    feasible = {
        "singular": numerics.feasible_characteristics("singular"),
        "supersingular": numerics.feasible_characteristics("supersingular"),
    }
    torsion = numerics.torsion_order_bound(5, 6)
    c2, b2, b3 = numerics.betti_consistency(1, 1, 0)
    degeneration = {}
    for kind in ("singular", "supersingular"):
        verdicts = numerics.e1_degeneration_check(fx.hodge[kind], fx.de_rham)
        degeneration[kind] = {str(n): v for n, v in sorted(verdicts.items())}
    degenerate = {kind: all(v.values()) for kind, v in degeneration.items()}
    witness = {
        "feasible": feasible,
        "torsion_bound_p5": torsion,
        "betti": {"c2": c2, "b2": b2, "b3": b3},
        "degeneration": degeneration,
        "degenerate": degenerate,
    }
    passed = (feasible["singular"] == [2, 3, 5]
              and feasible["supersingular"] == [2, 3, 5]
              and torsion == 1
              and (c2, b2, b3) == (11, 9, 0)
              and degenerate["singular"] is True
              and degenerate["supersingular"] is False)
    return passed, witness


# -- witness re-verification (expansion and evaluation only) ------------------


_COMBINATION_KEYS = frozenset({"target", "generators", "cofactors",
                               "remainder"})


def _parse_canonical(ring, text: str) -> Polynomial:
    """Saved polynomial text, parsed; it must print back to itself, so an
    equal polynomial in other text proves nothing."""
    poly = parse_poly(ring, text)
    if str(poly) != text:
        raise ValueError(f"{text!r} is not canonical")
    return poly


def _proves(wit: dict, target: Polynomial, generators: list[str],
            parsed) -> bool:
    """Whether a saved witness states ``target`` over ``generators``
    (``parsed``), remainder ``"0"``, as text, with one cofactor per
    generator and no other key, and expands back to it."""
    if (wit.keys() != _COMBINATION_KEYS or wit["target"] != str(target)
            or wit["generators"] != generators or wit["remainder"] != "0"):
        return False
    ring = target.ring
    return CombinationWitness(
        target, tuple(parsed),
        tuple(_parse_canonical(ring, c) for c in wit["cofactors"]),
        ring.zero()).verify()


def _reverify_c2(ctx: SuiteContext, w: dict) -> bool:
    ring = ctx.fx.ring
    names = ring.variables[1:]
    minors, printed = ctx.fixed_minors()
    if (w["minors"] != printed
            or w["radical"] != dict.fromkeys(names, True)
            or w["powers"].keys() != set(names)):
        return False
    return all(entry.keys() == {"exponent", "witness"}
               and _proves(entry["witness"],
                           ring.gen(name)**entry["exponent"], printed, minors)
               for name, entry in w["powers"].items())


def _reverify_c7(ctx: SuiteContext, w: dict) -> bool:
    ring = ctx.fx.presentation_ring
    expected = ctx.fx.presentation_rels
    printed = [str(r) for r in expected]
    membership = w["membership"]
    if (w["expected_relations"] != printed
            or w["ambient_variables"] != list(ring.variables)
            or membership.keys() != {"computed_in_expected",
                                     "expected_in_computed"}):
        return False
    computed = [_parse_canonical(ring, g) for g in w["computed_kernel"]]
    sides = ((membership["computed_in_expected"], computed, printed, expected),
             (membership["expected_in_computed"], expected,
              w["computed_kernel"], computed))
    return all(len(wits) == len(targets)
               and all(_proves(wit, t, gens, parsed)
                       for wit, t in zip(wits, targets))
               for wits, targets, gens, parsed in sides)


def _reverify_c12(ctx: SuiteContext, w: dict) -> bool:
    fx = ctx.fx
    element = _parse_canonical(fx.ring, w["element"])
    field_image = apply(fx.field, element)
    base = (1,) + (0,) * (fx.ring.nvars - 1)
    chi, k2 = numerics.hypersurface_invariants(5)
    return (field_image.is_zero() and w["field_image"] == str(field_image)
            and element.evaluate(base) == w["base_point_value"] != 0
            and w["quintic_invariants"] == {"chi": chi, "k2": k2}
            and (chi, k2) == (5, 5))


_PAIRS = "a pair count is known only by redoing the basis search"

#: Top-level keys of a passing smoothness witness, before its own fields.
_SMOOTH_KEYS = frozenset({"verdict", "codim", "relations", "minors", "locus",
                          "pairs_processed", "unit_witness"})

CHECKS = {check.id: check for check in (
    Check("C1", "The vector field's fifth operator power vanishes on every "
                "variable.",
          "additivity of the vector field (vanishing fifth power)", _check_c1),
    Check("C2", "The radical of the fixed-locus ideal contains the last "
                "three coordinates.",
          "single fixed point at the first coordinate point",
          _check_c2, _reverify_c2,
          keys=frozenset({"minors", "radical", "powers"})),
    Check("C3", "Both degree-5 invariants are homogeneous and annihilated "
                "by the vector field.",
          "the two quintic invariants lie in the field's kernel", _check_c3),
    Check("C4", "The induced vector fields on the three affine charts match "
                "the expected forms.",
          "displayed chart forms of the vector field", _check_c4),
    Check("C5", "All six tabulated chart generators lie in the kernel of "
                "their chart field.",
          "tabulated chart generators lie in the chart kernels", _check_c5),
    Check("C6", "Each homogeneous invariant combination dehomogenizes to its "
                "tabulated chart generator.",
          "homogeneous-to-inhomogeneous generator tables", _check_c6),
    Check("C7", "The eliminated chart-x3 subalgebra kernel equals the "
                "expected relations, two-sidedly.",
          "relations presenting the chart-x3 subalgebra over the fifth "
          "powers", _check_c7, _reverify_c7,
          keys=frozenset({"ambient_variables", "computed_kernel",
                          "expected_relations", "pairs_processed",
                          "membership", "assumed_background"}),
          notes=_BACKGROUND_NOTE,
          unchecked={"pairs_processed": _PAIRS}),
    Check("C8", "The chart-x3 subalgebra presentation defines a smooth "
                "scheme.",
          "smoothness of the chart-x3 subalgebra",
          *_smoothness(SMOOTH, (), _c8_relations),
          keys=_SMOOTH_KEYS | {"relations_source"},
          unchecked={"pairs_processed": _PAIRS,
                     "relations_source": "either source is sound: the "
                     "certificate is re-checked over the saved relations"}),
    Check("C9", "The chart-x2 subalgebra is smooth at every point above the "
                "locus w = 0.",
          "smoothness of the chart-x2 subalgebra above the vanishing of the "
          "last fifth-power coordinate",
          *_smoothness(SMOOTH_ON_LOCUS, ("w",), _c9_relations),
          keys=_SMOOTH_KEYS | {"elimination_pairs", "assumed_background"},
          notes=_BACKGROUND_NOTE,
          unchecked={"pairs_processed": _PAIRS, "elimination_pairs": _PAIRS}),
    Check("C10", "The chart-x1 subalgebra is smooth at every point above the "
                 "locus v = w = 0.",
          "smoothness of the chart-x1 subalgebra above the vanishing of both "
          "later fifth-power coordinates",
          *_smoothness(SMOOTH_ON_LOCUS, ("v", "w"), _c10_relations,
                       _c10_substituted),
          keys=_SMOOTH_KEYS | {"certified_by_substitution",
                               "assumed_background", "completeness_note"},
          notes={**_BACKGROUND_NOTE, **_COMPLETENESS_NOTE},
          unchecked={"pairs_processed": _PAIRS}),
    Check("C11", "The degree-5 kernel has dimension 12 and contains the four "
                 "fifth powers and both invariants.",
          "the fifth powers and both invariants inside the degree-5 kernel",
          _check_c11),
    Check("C12", "A seeded random invariant quintic avoids the fixed point "
                 "and has chi = K2 = 5.",
          "an invariant quintic with chi and canonical self-intersection 5",
          _check_c12, _reverify_c12,
          keys=frozenset({"element", "draws", "field_image",
                          "base_point_value", "quintic_invariants"}),
          unchecked={"draws": "the number of draws depends on the seed, "
                     "which the report does not hold"}),
    Check("C13", "Invariants descend through the degree-5 torsor to "
                 "chi = K2 = 1.",
          "descended invariants chi and canonical self-intersection 1",
          _check_c13),
    Check("C14", "Feasibility, torsion bound, Betti numbers, and first-page "
                 "degeneration verdicts agree with the expected tables.",
          "feasible characteristics, torsion bound, second Betti number 9, "
          "first-page degeneration verdicts", _check_c14),
)}

CHECK_IDS = tuple(CHECKS)


def run_all(seed: int = DEFAULT_SEED, budget: int | None = DEFAULT_BUDGET,
            only=None, fixtures: FixtureSet | None = None,
            backend_name: str | None = None) -> list[CheckResult]:
    """Run the check list C1..C14 in order and return the results.

    ``only`` restricts to a subset of check ids without changing the
    behaviour of the selected checks.  A budget overrun inside a check is
    reported in place (status ``budget-exceeded``), never raised.
    """
    if fixtures is None:
        fixtures = load_fixtures()
    if only is not None:
        wanted = {only} if isinstance(only, str) else set(only)
        unknown = wanted - set(CHECK_IDS)
        if unknown:
            raise ValueError(f"unknown check ids: {sorted(unknown)}")
    else:
        wanted = None
    ctx = SuiteContext(fixtures, seed, budget, backend_name)
    results = []
    for check in CHECKS.values():
        if wanted is not None and check.id not in wanted:
            continue
        start = time.monotonic()
        try:
            passed, witness = check.run(ctx)
            witness.update(check.notes)
            status = PASS if passed else FAIL
        except BudgetExceeded as exc:
            witness = {"pairs_processed": exc.pairs_processed,
                       "basis_size": exc.basis_size}
            status = BUDGET_EXCEEDED
        except EngineError as exc:
            # A computation the claim depends on is impossible with this
            # data (e.g. an exact division fails): the claim is false.
            witness = {"error": str(exc)}
            status = FAIL
        results.append(CheckResult(
            id=check.id, description=check.description, status=status,
            witness=witness, paper_anchor=check.anchor,
            elapsed=time.monotonic() - start))
    return results


def report(results: list[CheckResult], fmt: str = "json") -> str:
    """Serialize results; json is the stable, byte-reproducible contract."""
    if fmt == "json":
        payload = [r.to_json_dict() for r in results]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "text":
        lines = []
        for r in results:
            lines.append(f"{r.id:<4} {r.status:<16} {r.description}")
        counts = {}
        for r in results:
            counts[r.status] = counts.get(r.status, 0) + 1
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        lines.append(f"{len(results)} checks: {summary}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def verify_witness(result: CheckResult,
                   fixtures: FixtureSet | None = None,
                   seed: int = DEFAULT_SEED) -> bool:
    """Re-check a passing result with no basis search, by its ``CHECKS``
    entry; the README lists what each re-check compares.

    Description, anchor and notes must be the entry's.  A search-free
    check must give ``(True, saved witness)``, computed once per
    ``FixtureSet`` object (see ``SuiteContext``); the others follow their
    ``recheck``.  Saved targets, generators, remainders and minors are
    compared as canonical text, every other saved polynomial must print
    back to itself, and each cofactor combination must expand back to its
    target.  Only the entry's ``unchecked`` fields go unchecked.  A
    witness of the wrong shape reads as ``False``; an unknown id raises
    ``ValueError``.
    """
    if result.status != PASS:
        return False
    if result.id not in CHECK_IDS:
        raise ValueError(f"unknown check id {result.id!r}")
    fx = fixtures if fixtures is not None else load_fixtures()
    try:
        return CHECKS[result.id].verify(SuiteContext(fx, seed, None, None),
                                        result)
    except (EngineError, LookupError, TypeError, AttributeError, ValueError):
        return False  # a witness of the wrong shape proves nothing


# -- canned sensitivity mutations ----------------------------------------------


@dataclass(frozen=True)
class Mutation:
    """One single-coefficient perturbation of the fixture data."""

    name: str
    filename: str
    old: str
    new: str

    def overrides(self) -> dict[str, str]:
        return {self.filename: patched_text(self.filename, self.old, self.new)}


MUTATIONS = (
    Mutation("field-image-extra-term", "vector_field.txt",
             "x0 -> x1", "x0 -> x1 + x0"),
    Mutation("invariant1-coefficient", "subring_generators.txt",
             "K1 = x1*x3^4 + 2*x2^2*x3^3", "K1 = x1*x3^4 + 3*x2^2*x3^3"),
    Mutation("invariant2-coefficient", "subring_generators.txt",
             "3*x2^3*x3^2", "2*x2^3*x3^2"),
    Mutation("chart-x3-field-constant", "chart_fields.txt",
             "z -> 1", "z -> 2"),
    Mutation("chart-x2-field-constant", "chart_fields.txt",
             "yt -> 1 - yt*zt", "yt -> 2 - yt*zt"),
    Mutation("chart-x2-generator-coefficient", "subring_generators.txt",
             "gen1 = -zt - yt*zt^2 + yt^2*zt^3",
             "gen1 = -zt - 2*yt*zt^2 + yt^2*zt^3"),
    Mutation("chart-x1-generator-coefficient", "subring_generators.txt",
             "3*xh^2*yh*zh", "2*xh^2*yh*zh"),
    Mutation("presentation-coefficient", "subring_generators.txt",
             "rel1 = s^5 - v - 2*w^2", "rel1 = s^5 - v - 3*w^2"),
    Mutation("hodge-grid-center", "cohomology_tables.txt",
             "1 9 1", "1 8 1"),
    Mutation("de-rham-middle", "cohomology_tables.txt",
             "2 = 11", "2 = 10"),
)
