"""Groebner engine: bases, membership, elimination, kernels, smoothness."""

import itertools
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import godeaux
from godeaux import _kernel_pure, backend, groebner
from godeaux.errors import BudgetExceeded, ContextError
from godeaux.fixtures import load_fixtures
from godeaux.groebner import (buchberger, eliminate, ideal_member,
                              jacobian_minors, jacobian_smoothness,
                              radical_member, reduce, reduce_tracked,
                              ring_map_kernel, spolynomial)
from godeaux.rings import (DEGREVLEX, LEX, PolyRing, Polynomial, block_order,
                           parse_poly)

R3 = PolyRing(("x", "y", "z"), 5, DEGREVLEX)
R2 = PolyRing(("x", "y"), 5, DEGREVLEX)


def p3(text):
    return parse_poly(R3, text)


def p2(text):
    return parse_poly(R2, text)


class TestBuchberger:
    def test_already_a_basis(self):
        gb = buchberger([p2("x"), p2("y")])
        assert [str(f) for f in gb] == ["x", "y"]

    def test_classic_lex_example(self):
        # (x^2 - y, x^3 - z) under lex picks up the relation y^3 - z^2
        ring = PolyRing(("x", "y", "z"), 5, LEX)
        f = parse_poly(ring, "x^2 - y")
        g = parse_poly(ring, "x^3 - z")
        gb = buchberger([f, g])
        assert parse_poly(ring, "y^3 - z^2") in list(gb)

    def test_reduced_and_sorted(self):
        # x^2 - y^2 reduces the redundant generator x^2 + x*y away
        gb = buchberger([p2("x^2 - y^2"), p2("x^2 + x*y")])
        leads = gb.leading_monomials()
        keys = [R2.sort_key(e) for e in leads]
        assert keys == sorted(keys, reverse=True)
        for f in gb:
            assert f.leading_coefficient() == 1
            others = [g for g in gb if g is not f]
            assert reduce(f, others) == f  # fully inter-reduced

    def test_unit_ideal(self):
        gb = buchberger([p2("x"), p2("x + 1")])
        assert gb.is_unit_ideal()

    def test_empty_input(self):
        with pytest.raises(ValueError):
            buchberger([])

    @pytest.mark.parametrize("name", ["pure", "compiled"])
    def test_iterator_of_generators(self, name):
        # gens is read once, so an iterator is not used up before the kernel
        gb = buchberger(iter([p2("x^2 - y"), p2("y^2 - 1")]), backend_name=name)
        assert [str(f) for f in gb] == ["x^2 + 4*y", "y^2 + 4"]
        assert gb.backend == name

    def test_tracked_iterator_of_generators(self):
        gens = [p2("x^2 - y"), p2("y^2 - 1")]
        gb = groebner._buchberger_tracked(iter(gens), None)
        assert [str(f) for f in gb] == ["x^2 + 4*y", "y^2 + 4"]
        assert gb.generators == tuple(gens)
        assert gb.backend == "pure"

    def test_zero_generators_dropped(self):
        gb = buchberger([p2("x"), R2.zero()])
        assert [str(f) for f in gb] == ["x"]

    def test_budget_exhaustion(self):
        fx = load_fixtures()
        from godeaux.derivations import fixed_locus_ideal
        minors = fixed_locus_ideal(fx.field)
        with pytest.raises(BudgetExceeded) as info:
            buchberger(minors, budget=1)
        assert info.value.pairs_processed >= 1
        assert info.value.basis_size > 0

    def test_budget_counts_match_across_backends(self):
        fx = load_fixtures()
        from godeaux.derivations import fixed_locus_ideal
        minors = fixed_locus_ideal(fx.field)
        gp = buchberger(minors, backend_name="pure")
        gc = buchberger(minors, backend_name="compiled")
        assert gp.polynomials == gc.polynomials
        assert gp.pairs_processed == gc.pairs_processed

    def test_tracked_unit_from_constant_input(self):
        # 3 * 2 = 1 mod 5: the constant generator alone carries the unit
        gens = [p2("x").terms(), {}, p2("3").terms()]
        unit = [{}, {}, {(0, 0): 2}]
        args = (gens, 2, 5, "degrevlex")
        assert _kernel_pure.buchberger_tracked(*args) == \
            ([{(0, 0): 1}], [unit], 0, None)


class TestReduction:
    def test_spolynomial_cancels_leads(self):
        f, g = p2("x^2 + y"), p2("x*y + 1")
        s = spolynomial(f, g)
        assert s == p2("y^2 - x")

    def test_spolynomial_of_coprime_leads(self):
        s = spolynomial(p2("x + 1"), p2("y + 1"))
        assert s == p2("y - x")  # y*(x+1) - x*(y+1)

    def test_reduce_to_normal_form(self):
        gb = buchberger([p2("x^2 - y"), p2("y^2 - 1")])
        assert reduce(p2("x^4"), gb) == R2.one()

    def test_reduce_idempotent(self):
        gb = buchberger([p2("x^2 - y"), p2("y^2 - 1")])
        nf = reduce(p2("x^3*y + x*y^2 + 3"), gb)
        assert reduce(nf, gb) == nf

    def test_reduce_tracked_expands_back(self):
        gens = [p2("x^2 - y"), p2("y^2 - 1")]
        f = p2("x^4 + x*y + 2")
        nf, cofs = reduce_tracked(f, gens)
        acc = nf
        for c, g in zip(cofs, gens):
            acc = acc + c * g
        assert acc == f

    def test_reduce_tracked_non_monic_reducers(self):
        # Reducers are scaled monic inside the kernel; the quotients must
        # carry each inverse back: 2^-1 = 3 and 3^-1 = 2 mod 5.
        gens = [p2("2*x^2 - y"), p2("3*y^2 - 1")]
        f = p2("x^4 + x*y + 2")
        nf, cofs = reduce_tracked(f, gens)
        assert nf == reduce(f, gens, backend_name="pure") == p2("x*y")
        assert cofs == (p2("3*x^2 + 4*y"), p2("3"))
        assert nf + cofs[0] * gens[0] + cofs[1] * gens[1] == f

    def test_reduce_tracked_zero_reducer_keeps_alignment(self):
        gens = [p2("x^2 - y"), R2.zero(), p2("y^2 - 1")]
        f = p2("x^4 + x*y + 2")
        nf, cofs = reduce_tracked(f, gens)
        assert len(cofs) == 3 and cofs[1].is_zero()
        assert nf == reduce(f, gens)
        assert nf + cofs[0] * gens[0] + cofs[2] * gens[2] == f


class TestBackendRouting:
    """The compiled kernel raises OverflowError where a monomial field
    would exceed MAX_FIELD, at the inputs or mid-run; ``groebner`` reruns
    that call on the pure kernel and reports ``backend == "pure"``."""

    def test_input_above_max_field_reruns_on_pure(self, monkeypatch):
        monkeypatch.setenv("GODEAUX_BACKEND", "auto")
        compiled = backend.get("compiled")
        x = R2.gen("x")
        for degree, name in ((compiled.MAX_FIELD, "compiled"),
                             (compiled.MAX_FIELD + 1, "pure")):
            gens = [x ** degree - 1, x ** 2 - 1]
            if name == "pure":
                with pytest.raises(OverflowError):
                    compiled.buchberger([g.terms() for g in gens],
                                        2, 5, "degrevlex")
            gb = buchberger(gens)
            assert gb.backend == name
            assert gb.polynomials == buchberger(
                gens, backend_name="pure").polynomials

    def test_coprime_lcm_past_max_field_stays_compiled(self, monkeypatch):
        # Once y^2 - 1 is installed, lcm(x^65535, y^2) is past MAX_FIELD,
        # but the pair is coprime: it is never queued and divides nothing.
        monkeypatch.setenv("GODEAUX_BACKEND", "auto")
        x, y = R2.gens()
        gb = buchberger([x ** 65535 - y, x ** 2 - 1])
        assert [str(g) for g in gb] == ["y^2 + 4", "x + 4*y"]
        assert gb.pairs_processed == 2
        assert gb.backend == "compiled"

    def test_mid_run_overflow_reruns_on_pure(self, monkeypatch):
        # Inputs of degree 256 whose basis needs z^65536.
        monkeypatch.setenv("GODEAUX_BACKEND", "auto")
        compiled = backend.get("compiled")
        ring = PolyRing(("x", "y", "z"), 5, LEX)
        gens = [parse_poly(ring, t)
                for t in ("x - y^256", "y - z^256", "x - 1")]
        terms = [g.terms() for g in gens]
        with pytest.raises(OverflowError):
            compiled.buchberger(terms, 3, 5, "lex")
        gb = buchberger(gens)
        assert gb.backend == "pure"
        assert list(gb) == [parse_poly(ring, t)
                            for t in ("x - 1", "y - z^256", "z^65536 - 1")]
        x = parse_poly(ring, "x")
        with pytest.raises(OverflowError):
            compiled.normal_form(x.terms(), terms[:2], 3, 5, "lex")
        assert reduce(x, gens[:2]) == parse_poly(ring, "z^65536") \
            == reduce(x, gens[:2], backend_name="pure")

    @pytest.mark.parametrize("nvars, p", [(17, 5), (3, 2147483659)],
                             ids=["17-variables", "p-past-2^31"])
    def test_ring_past_static_limits_reruns_on_pure(self, nvars, p,
                                                     monkeypatch):
        # The compiled kernel alone knows its limits: it raises
        # OverflowError, and the one routing rule reruns on pure.
        monkeypatch.setenv("GODEAUX_BACKEND", "compiled")
        compiled = backend.get("compiled")
        ring = PolyRing([f"x{i}" for i in range(nvars)], p, DEGREVLEX)
        xs = ring.gens()
        gens = [xs[0] ** 2 - xs[-1], xs[-1] ** 2 + ring.constant(3),
                xs[0] * xs[1] - 1]
        terms = [g.terms() for g in gens]
        with pytest.raises(OverflowError):
            compiled.buchberger(terms, nvars, p, "degrevlex")
        with pytest.raises(OverflowError):
            compiled.normal_form(terms[0], terms[1:], nvars, p, "degrevlex")
        gb = buchberger(gens)
        assert gb.backend == "pure"
        pure = buchberger(gens, backend_name="pure")
        assert (gb.polynomials, gb.pairs_processed) == \
            (pure.polynomials, pure.pairs_processed)
        assert reduce(xs[0] ** 3, gens) == reduce(xs[0] ** 3, gens,
                                                  backend_name="pure")

    @staticmethod
    def _spy_backends(monkeypatch):
        """The backend names that ``_run_kernel`` reports, call by call."""
        names = []
        real = groebner._run_kernel

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            names.append(out[1])
            return out

        monkeypatch.setattr(groebner, "_run_kernel", spy)
        return names

    def test_radical_system_past_max_vars_reruns_on_pure(self, monkeypatch):
        # 16 variables fit the compiled kernel; 1 - T*f makes 17
        monkeypatch.setenv("GODEAUX_BACKEND", "compiled")
        compiled = backend.get("compiled")
        ring = PolyRing([f"x{i}" for i in range(compiled.MAX_VARS)], 5,
                        DEGREVLEX)
        xs = ring.gens()
        gens = [xs[0] ** 2 - xs[-1] ** 3, xs[-1] ** 4]
        names = self._spy_backends(monkeypatch)
        for f, answer in ((xs[0], True), (xs[1], False)):
            assert radical_member(f, gens) is answer
            assert radical_member(f, gens, backend_name="pure") is answer
        assert names == ["pure"] * 4

    def test_eliminate_past_modulus_limit_reruns_on_pure(self, monkeypatch):
        monkeypatch.setenv("GODEAUX_BACKEND", "compiled")
        ring = PolyRing(("t", "x", "y"), 2147483659, DEGREVLEX)
        gens = [parse_poly(ring, "x - t"), parse_poly(ring, "y - t^2")]
        names = self._spy_backends(monkeypatch)
        out = eliminate(gens, drop=("t",))
        assert [str(g) for g in out] == [str(g) for g in eliminate(
            gens, drop=("t",), backend_name="pure")] == ["x^2 + 2147483658*y"]
        assert names == ["pure", "pure"]

    def test_invalid_ring_is_still_a_value_error(self):
        compiled = backend.get("compiled")
        for nvars, p in ((0, 5), (2, 1), (2, -(1 << 70))):
            with pytest.raises(ValueError):
                compiled.buchberger([], nvars, p, "degrevlex")

    def test_auto_equals_pure_above_degree_limit(self, monkeypatch):
        monkeypatch.setenv("GODEAUX_BACKEND", "auto")
        x, y = R2.gens()
        f, gens = x ** 70000, [x ** 2 - y]
        assert reduce(f, gens) == reduce(f, gens, backend_name="pure") \
            == y ** 35000
        g = x ** 70000 - y ** 35000
        assert ideal_member(g, gens) is True
        assert ideal_member(g, gens, backend_name="pure") is True


MAP_ONLY = "a polynomial must be a dict {exponents: coefficient}"
BAD_EXPONENTS = "expected nvars non-negative exponents"
NOT_AN_INTEGER = "'float' object cannot be interpreted as an integer"


@pytest.mark.parametrize("name", ["pure", "compiled"])
class TestKernelBoundary:
    """Both kernels take each polynomial as a term map ``{exponents:
    coefficient}`` and nothing else, check its exponents, reduce its
    coefficients mod p, read each argument once, leave their input maps
    as they were, and return new maps, largest monomial first."""

    RING = PolyRing(("x", "y", "z"), 5, block_order(1))
    GENS = ("x^2 + 2*y*z + 3", "4*x*y - z^2", "2*y^3 + x")
    F = "x^3*y + 3*y^2*z^2 + z + 1"

    def maps(self):
        """The generators and f as maps whose keys run smallest first."""
        key = self.RING.sort_key
        return [dict(sorted(parse_poly(self.RING, t).terms().items(),
                            key=lambda term: key(term[0])))
                for t in self.GENS + (self.F,)]

    def calls(self, name, gens, f):
        """``(label, result)`` of every entry point of the named kernel."""
        kern = backend.get(name)
        shape = (3, 5, "block")
        out = [("buchberger", kern.buchberger(gens, *shape, split=1)),
               ("normal_form", kern.normal_form(f, gens, *shape, split=1))]
        if kern is _kernel_pure:
            out += [("buchberger_tracked",
                     kern.buchberger_tracked(gens, *shape, split=1)),
                     ("normal_form_tracked",
                      kern.normal_form_tracked(f, gens, *shape, split=1))]
        return out

    def test_pair_lists_are_refused(self, name):
        *gens, f = self.maps()
        pairs = [list(g.items()) for g in gens]
        kern = backend.get(name)
        for call in (lambda: kern.buchberger(pairs, 3, 5, "block", split=1),
                     lambda: kern.normal_form(f, pairs, 3, 5, "block",
                                              split=1),
                     lambda: kern.normal_form(list(f.items()), gens, 3, 5,
                                              "block", split=1)):
            with pytest.raises(TypeError) as info:
                call()
            assert str(info.value) == MAP_ONLY

    def test_malformed_exponents_are_refused(self, name):
        kern = backend.get(name)
        for bad in ({(1, 0, 3): 1}, {(1,): 1}, {(1, -1): 1}):
            for call in (lambda: kern.normal_form(bad, [], 2, 5, "lex"),
                         lambda: kern.normal_form({(0, 1): 1}, [bad], 2, 5,
                                                  "lex"),
                         lambda: kern.buchberger([bad], 2, 5, "degrevlex")):
                with pytest.raises(ValueError) as info:
                    call()
                assert str(info.value) == BAD_EXPONENTS

    def test_non_integers_are_refused(self, name):
        kern = backend.get(name)
        for bad in ({(1, 0): 2.0}, {(1.0, 0): 1}):
            for call in (lambda: kern.normal_form(bad, [], 2, 5, "lex"),
                         lambda: kern.normal_form({(0, 1): 1}, [bad], 2, 5,
                                                  "lex"),
                         lambda: kern.buchberger([bad], 2, 5, "degrevlex")):
                with pytest.raises(TypeError) as info:
                    call()
                assert str(info.value) == NOT_AN_INTEGER

    def test_the_first_fault_read_is_raised(self, name):
        """Generators before f, term by term, a term's exponents before
        its coefficient, and an exponent tuple up to its first negative
        entry: both kernels read in that order."""
        kern = backend.get(name)
        cases = [
            ({(1, 0): 2.0, (1, 0, 0): 1}, [], TypeError, NOT_AN_INTEGER),
            ({(1, 0, 0): 1, (1, 0): 2.0}, [], ValueError, BAD_EXPONENTS),
            ({(1, 0): 2.0}, [{(1,): 1}], ValueError, BAD_EXPONENTS),
            ({(-1, 2.0): 1}, [], ValueError, BAD_EXPONENTS),
            ({(2.0, -1): 1}, [], TypeError, NOT_AN_INTEGER),
        ]
        forms = [kern.normal_form]
        if kern is _kernel_pure:
            forms.append(kern.normal_form_tracked)
        for form in forms:
            for f, gens, error, message in cases:
                with pytest.raises(error) as info:
                    form(f, gens, 2, 5, "lex")
                assert str(info.value) == message
        with pytest.raises(TypeError) as info:
            kern.buchberger([{(1, 0): 2.0}, {(1,): 1}], 2, 5, "lex")
        assert str(info.value) == NOT_AN_INTEGER
        # a unit does not end the reading: the fault after it is raised
        with pytest.raises(ValueError) as info:
            kern.buchberger([{(0, 0): 1}, {(1,): 1}], 2, 5, "lex")
        assert str(info.value) == BAD_EXPONENTS

    def test_booleans_are_integers(self, name):
        kern = backend.get(name)
        assert kern.normal_form({(True, False): True}, [], 2, 5,
                                "lex") == {(1, 0): 1}
        assert kern.buchberger([{(False, True): True}], 2, 5,
                               "degrevlex") == ([{(0, 1): 1}], 0)

    def test_coefficients_are_reduced_mod_p(self, name):
        kern = backend.get(name)
        assert kern.normal_form({(1, 0): 7}, [], 2, 5, "lex") == {(1, 0): 2}
        # 5*x is zero over F_5, so the basis is y alone
        assert kern.buchberger([{(1, 0): 5}, {(0, 1): 1}], 2, 5,
                               "degrevlex") == ([{(0, 1): 1}], 0)

    def test_iterables_are_read_once(self, name):
        *gens, f = self.maps()
        kern = backend.get(name)
        shape = (3, 5, "block")
        assert kern.buchberger(iter(gens), *shape, split=1) == \
            kern.buchberger(gens, *shape, split=1)
        assert kern.normal_form(f, iter(gens), *shape, split=1) == \
            kern.normal_form(f, gens, *shape, split=1)

    def test_input_maps_are_not_mutated(self, name):
        *gens, f = self.maps()
        before = [list(t.items()) for t in gens + [f]]
        self.calls(name, gens, f)
        assert [list(t.items()) for t in gens + [f]] == before

    def test_outputs_are_new_maps_largest_first(self, name):
        *gens, f = self.maps()
        key = self.RING.sort_key
        found = []
        for label, result in self.calls(name, gens, f):
            if label == "buchberger":
                found += result[0]
            elif label == "normal_form":
                found.append(result)
            elif label == "buchberger_tracked":
                found += result[0] + [r for rep in result[1] for r in rep]
            else:
                found += [result[0]] + result[1]
        assert all(type(t) is dict for t in found)
        assert sum(map(len, found)) > 20
        assert not any(t is g for t in found for g in gens + [f])
        for t in found:
            keys = [key(e) for e in t]
            assert keys == sorted(keys, reverse=True)


def test_compiled_kernel_reads_inputs_canonically():
    # Coefficients are reduced mod p and zero terms dropped, in any order.
    compiled = backend.get("compiled")
    f = {(0, 0): -1, (0, 1): 10, (1, 0): 7, (2, 0): 5}
    assert list(compiled.normal_form(f, [], 2, 5, "degrevlex").items()) == \
        [((1, 0), 2), ((0, 0), 4)]


ORDERS = [LEX, DEGREVLEX, block_order(2)]


def _pure_kernel_outcome(gens):
    """Plain and tracked pure-kernel runs, checked against each other.

    Both runs give one basis and pair count, every generator reduces to
    zero modulo the basis, every cofactor row expands back to its basis
    element, and a tracked normal form expands back to its input.
    Returns (basis polynomials, pairs processed).
    """
    ring = gens[0].ring
    kind, split = ring.order.kind, ring.order.split
    terms = [g.terms() for g in gens]
    basis, pairs = _kernel_pure.buchberger(terms, ring.nvars, ring.p, kind,
                                           split=split)
    tracked, reps, tracked_pairs, _ = _kernel_pure.buchberger_tracked(
        terms, ring.nvars, ring.p, kind, split=split)
    assert (tracked, tracked_pairs) == (basis, pairs)
    for t in terms:
        assert _kernel_pure.normal_form(t, basis, ring.nvars, ring.p, kind,
                                        split=split) == {}
    polys = [ring.from_terms(b) for b in basis]
    for b, rep in zip(polys, reps):
        acc = ring.zero()
        for r, g in zip(rep, gens):
            acc = acc + ring.from_terms(r) * g
        assert acc == b
    f = gens[0] * gens[-1] + ring.gens()[-1] ** 3 + ring.one()
    r, quots = _kernel_pure.normal_form_tracked(
        f.terms(), basis, ring.nvars, ring.p, kind, split=split)
    acc = ring.from_terms(r)
    for q, b in zip(quots, polys):
        acc = acc + ring.from_terms(q) * b
    assert acc == f
    return polys, pairs


def _record_widths(monkeypatch):
    """The packed width of every run of the pure kernel, in call order."""
    widths = []
    init = _kernel_pure._Packing.__init__

    def recording(self, nvars, kind, split, width):
        widths.append(width)
        init(self, nvars, kind, split, width)

    monkeypatch.setattr(_kernel_pure._Packing, "__init__", recording)
    return widths


@pytest.mark.parametrize("order", ORDERS, ids=str)
class TestPureKernelPastCompiledLimits:
    """Inputs only the pure kernel takes: more than MAX_VARS variables, a
    modulus of at least 2^31, and degrees that outgrow a call's first
    packed width."""

    def test_seventeen_variables(self, order):
        names = [f"x{i}" for i in range(17)]
        ring = PolyRing(names, 5, block_order(8) if order.kind == "block"
                        else order)
        gens = [parse_poly(ring, f"{a} - {b}")
                for a, b in zip(names, names[1:])]
        gens.append(parse_poly(ring, "x16^2 - 1"))
        basis, _ = _pure_kernel_outcome(gens)
        expected = [parse_poly(ring, f"{a} - x16") for a in names[:-1]]
        expected.append(parse_poly(ring, "x16^2 - 1"))
        assert sorted(map(str, basis)) == sorted(map(str, expected))

    def test_modulus_above_2_31(self, order):
        ring = PolyRing(("x", "y", "z"), 2147483659, order)
        gens = [parse_poly(ring, t) for t in
                ("x^2 + 123456789*y*z - 7", "x*y - 2000000000*z^2 + x",
                 "y^2 + 1999999999*x*z - 3")]
        basis, pairs = _pure_kernel_outcome(gens)
        assert pairs > 0 and len(basis) > 1

    @pytest.mark.parametrize("system", [
        ("x^3 - y*z", "y^3 - x*z + 1", "z^3 - x*y"),
        ("x - y^3", "z - 1", "x*y - 1"),
        ("y*z - x*z", "x - z^3")])
    def test_rerun_from_the_narrowest_width(self, order, system,
                                            monkeypatch):
        # Each first width only just fits the degree-3 inputs, so the
        # S-pairs overflow it and the Buchberger calls rerun wider.
        ring = PolyRing(("x", "y", "z"), 5, order)
        gens = [parse_poly(ring, t) for t in system]
        expected = _pure_kernel_outcome(gens)
        widths = _record_widths(monkeypatch)
        monkeypatch.setattr(_kernel_pure, "_first_width", int.bit_length)
        assert _pure_kernel_outcome(gens) == expected
        if expected[1] == 0:
            # x^3, y^3, z^3 lead under degrevlex: every pair is coprime, so
            # none is queued, and an lcm past the width forces no rerun
            assert widths[:2] == [2, 2]
            return
        # the plain and then the tracked Buchberger call each reran
        tracked_start = widths.index(2, 1)
        assert widths[:2] == [2, 4] and widths[tracked_start + 1] == 4


def test_wide_lex_exponent_reruns_wider(monkeypatch):
    # z^256 outgrows the 8-bit fields that degree-8 inputs start with.
    widths = _record_widths(monkeypatch)
    ring = PolyRing(("x", "y", "z"), 5, LEX)
    gens = [parse_poly(ring, t) for t in ("x - y^8", "y - z^8", "x^4 - 1")]
    basis, _ = _pure_kernel_outcome(gens)
    assert basis == [parse_poly(ring, t) for t in
                     ("x - z^64", "y - z^8", "z^256 - 1")]
    assert widths[:2] == [8, 16]
    del widths[:]
    x4 = parse_poly(ring, "x^4").terms()
    assert _kernel_pure.normal_form(x4, [g.terms() for g in gens[:2]],
                                    3, 5, "lex") == {(0, 0, 256): 1}
    assert widths == [8, 16]


def test_lex_tower_reruns_with_a_fresh_memo(monkeypatch):
    # z^65536 needs 17 bits.  The inputs' degree 256 gives a first width
    # of 18; from the narrowest width, 9 bits, the call overflows and
    # reruns at 18, where a memo kept from the first run would be stale.
    ring = PolyRing(("x", "y", "z"), 5, LEX)
    gens = [parse_poly(ring, t) for t in ("x - y^256", "y - z^256", "x - 1")]
    expected = [parse_poly(ring, t)
                for t in ("x - 1", "y - z^256", "z^65536 - 1")]
    widths = _record_widths(monkeypatch)
    assert list(buchberger(gens, backend_name="pure")) == expected
    assert widths == [18]
    del widths[:]
    starts = []  # (run, memo, its size) as each normal form starts
    nf = _kernel_pure._nf

    def recording(work, reducers, p, guard, memo, log=None):
        starts.append((len(widths), memo, len(memo)))
        return nf(work, reducers, p, guard, memo, log)

    monkeypatch.setattr(_kernel_pure, "_nf", recording)
    monkeypatch.setattr(_kernel_pure, "_first_width", int.bit_length)
    assert list(buchberger(gens, backend_name="pure")) == expected
    assert widths == [9, 18]
    (stale,) = [memo for run, memo, _ in starts if run == 1]
    fresh, size = next((memo, size) for run, memo, size in starts if run == 2)
    assert stale and fresh is not stale and size == 0


class TestFirstDivisorMemo:
    """``_nf`` with the memo one Buchberger run keeps across its pairs."""

    PK = _kernel_pure._Packing(2, "lex", None, 8)

    def reducer(self, lead, tail):
        """A monic reducer x^a*y^b + sum(c * x^i*y^j) as ``_nf`` takes it."""
        enc = self.PK.enc
        return (enc(lead), {enc(e): c for e, c in tail.items()})

    def nf(self, exps, reducers, memo, log=None):
        enc = self.PK.enc
        out = _kernel_pure._nf({enc(exps): 1}, reducers, 5, self.PK.guard,
                               memo, log)
        return {self.PK.dec(m): c for m, c in out.items()}

    def test_miss_then_appended_reducer(self):
        m = self.PK.enc((2, 1))
        # y^2 + 1 and x^3 + 1 do not divide x^2*y
        reducers = [self.reducer((0, 2), {(0, 0): 1}),
                    self.reducer((3, 0), {(0, 0): 1})]
        memo = {}
        assert self.nf((2, 1), reducers, memo) == {(2, 1): 1}
        assert memo[m] == ~2
        reducers.append(self.reducer((1, 1), {(0, 0): 4}))  # x*y - 1
        assert self.nf((2, 1), reducers, memo) == {(1, 0): 1}
        assert memo[m] == 2

    @pytest.mark.parametrize("first", [0, 1])
    def test_earlier_of_two_divisors_wins(self, first):
        # x*y - 1 leaves x, x^2 - y leaves y^2: both divide x^2*y
        by_xy = self.reducer((1, 1), {(0, 0): 4})
        by_x2 = self.reducer((2, 0), {(0, 1): 4})
        reducers = [by_xy, by_x2] if first == 0 else [by_x2, by_xy]
        memo, log = {}, []
        remainder = self.nf((2, 1), reducers, memo, log)
        assert memo[self.PK.enc((2, 1))] == 0
        assert [k for k, _, _ in log] == [0]
        assert remainder == ({(1, 0): 1} if first == 0 else {(0, 2): 1})


class TestMembership:
    def test_member_with_witness(self):
        gens = [p2("x^2 - y"), p2("y^2 - 1")]
        ok, wit = ideal_member(p2("x^4 - 1"), gens, witness=True)
        assert ok and wit.is_member and wit.verify()
        assert wit.generators == tuple(gens)

    def test_non_member(self):
        gens = [p2("x^2 - y")]
        ok, wit = ideal_member(p2("x"), gens, witness=True)
        assert not ok and not wit.is_member
        assert wit.verify()  # identity still holds, remainder nonzero

    def test_witness_with_zero_generator(self):
        gens = [p2("x^2 - y"), R2.zero(), p2("y^2 - 1")]
        ok, wit = ideal_member(p2("x^4 - 1"), gens, witness=True)
        assert ok and wit.verify()
        assert len(wit.cofactors) == 3 and wit.generators == tuple(gens)

    def test_bare_bool_form(self):
        assert ideal_member(p2("x^2 - y"), [p2("x^2 - y")]) is True

    def test_tracked_basis_input_matches_generators(self):
        gens = [p2("x^2 - y"), R2.zero(), p2("y^2 - 1")]
        gb = groebner._buchberger_tracked(gens, None)
        assert gb.generators == tuple(gens) and len(gb.rows) == len(gb)
        for f in (p2("x^4 - 1"), p2("x*y^2 - x"), p2("x")):
            assert ideal_member(f, gb, witness=True) == \
                ideal_member(f, gens, witness=True)
        plain = buchberger(gens, backend_name="pure")
        assert (gb.polynomials, gb.pairs_processed) == \
            (plain.polynomials, plain.pairs_processed)
        assert hash(gb) == hash(replace(gb, rows=None))

    def test_groebner_basis_input(self):
        gb = buchberger([p2("x^2 - y"), p2("y^2 - 1")])
        ok, wit = ideal_member(p2("x^4 - 1"), gb, witness=True)
        assert ok and wit.verify()
        assert wit.generators == gb.polynomials

    def test_radical_member(self):
        # x in rad(x^2) but not in (x^2); y in neither
        gens = [p2("x^2")]
        assert radical_member(p2("x"), gens) is True
        assert ideal_member(p2("x"), gens) is False
        assert radical_member(p2("y"), gens) is False

    def test_radical_in_a_ring_with_a_t_variable(self):
        # T is an exponent slot, not a name, so a variable "_t" is harmless
        ring = PolyRing(("x", "_t"), 5, DEGREVLEX)
        gens = [parse_poly(ring, "x^2"), parse_poly(ring, "_t^3 - 1")]
        assert radical_member(parse_poly(ring, "x"), gens) is True
        assert radical_member(parse_poly(ring, "x*_t + x"), gens) is True
        assert radical_member(parse_poly(ring, "_t - 1"), gens) is False
        assert radical_member(parse_poly(ring, "_t^3 - 1"), gens) is True

    def test_radical_of_power_product(self):
        # rad(x^3*y^2, z^4) = (x*y, z): multiples of z qualify, bare x does not
        gens = [p3("x^3*y^2"), p3("z^4")]
        assert radical_member(p3("x*y*z"), gens) is True
        assert radical_member(p3("x*z"), gens) is True
        assert radical_member(p3("x"), gens) is False


class TestEliminate:
    def test_parabola(self):
        # graph of y = t^2 under (x - t, y - t^2): eliminating t leaves y - x^2
        ring = PolyRing(("t", "x", "y"), 5, DEGREVLEX)
        gens = [parse_poly(ring, "x - t"), parse_poly(ring, "y - t^2")]
        out = eliminate(gens, drop=("t",))
        assert len(out) == 1
        assert str(out[0]) == "x^2 + 4*y"
        assert out[0].ring.variables == ("x", "y")

    def test_nothing_kept_rejected(self):
        with pytest.raises(ValueError, match="^cannot eliminate every "
                                             "variable$"):
            eliminate([p2("x + y")], drop=("x", "y"))

    def test_nothing_dropped_rejected(self):
        with pytest.raises(ValueError, match="^nothing to eliminate$"):
            eliminate([p2("x + y")], drop=())

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError, match="^unknown variable 'w'; ring "
                                             "has x, y$"):
            eliminate([p2("x + y")], drop=("w",))

    def test_all_zero_generators_eliminate_to_nothing(self):
        # the ring is known from the generators even when all are zero
        assert eliminate([R2.zero()], [0]) == []
        assert eliminate([R3.zero(), R3.zero()], drop=("x", "z")) == []
        with pytest.raises(ValueError, match="^need at least one polynomial"):
            eliminate([], drop=("x",))

    def test_no_relation(self):
        ring = PolyRing(("t", "x"), 5, DEGREVLEX)
        out = eliminate([parse_poly(ring, "t^2 - x")], drop=("t",))
        assert out == []


class TestRingMapKernel:
    def test_injective_map_has_zero_kernel(self):
        src = PolyRing(("u",), 5, DEGREVLEX)
        out = ring_map_kernel(src, R2, [p2("x")])
        assert out.generators == ()

    def test_plane_curve_kernel(self):
        # u -> t^2, v -> t^3 presents the cuspidal cubic u^3 - v^2
        src = PolyRing(("u", "v"), 5, DEGREVLEX)
        tgt = PolyRing(("t",), 5, DEGREVLEX)
        out = ring_map_kernel(src, tgt, [parse_poly(tgt, "t^2"),
                                         parse_poly(tgt, "t^3")])
        assert [str(g) for g in out.generators] == ["u^3 + 4*v^2"]

    def test_generators_vanish_under_substitution(self):
        fx = load_fixtures()
        src = PolyRing(("s", "t"), 5, DEGREVLEX)
        tgt = fx.chart_fields["x3"].ring
        images = [fx.chart_gens["x3"][0], fx.chart_gens["x3"][1]]
        from godeaux.rings import substitute
        out = ring_map_kernel(src, tgt, images)
        for g in out.generators:
            assert substitute(g, tgt, images).is_zero()

    def test_seeding_preserves_answer(self):
        # the plain graph ideal (u - t^5, v - t^10) in k[t, u, v], t dropped
        src = PolyRing(("u", "v"), 5, DEGREVLEX)
        tgt = PolyRing(("t",), 5, DEGREVLEX)
        images = [parse_poly(tgt, "t^5"), parse_poly(tgt, "t^10")]
        seeded = ring_map_kernel(src, tgt, images)
        combined = PolyRing(("t", "u", "v"), 5, DEGREVLEX)
        plain = eliminate([parse_poly(combined, "u - t^5"),
                           parse_poly(combined, "v - t^10")], drop=("t",))
        assert [str(g) for g in seeded.generators] == [str(g) for g in plain]
        assert seeded.seeds != ()

    def test_variable_overlap_rejected(self):
        src = PolyRing(("x", "s"), 5, DEGREVLEX)
        with pytest.raises(ContextError):
            ring_map_kernel(src, R2, [p2("x"), p2("y")])

    def test_wrong_image_count_rejected(self):
        src = PolyRing(("u", "v"), 5, DEGREVLEX)
        with pytest.raises(ContextError):
            ring_map_kernel(src, R2, [p2("x")])


class TestJacobianMinors:
    def test_power_of_char_differentiates_to_zero(self):
        # formal derivative in characteristic 5: d(s^5)/ds = 0
        ring = PolyRing(("s",), 5, DEGREVLEX)
        assert jacobian_minors([parse_poly(ring, "s^5 - 1")], 1) == []

    def test_full_rank_linear_system(self):
        minors = jacobian_minors([p2("x + y"), p2("x - y")], 2)
        assert [str(m) for m in minors] == ["3"]  # det [[1,1],[1,-1]] = -2

    @pytest.mark.parametrize("n", [2, 3])
    def test_determinant_is_the_leibniz_expansion(self, n):
        rng = random.Random(n)
        for _ in range(30):
            matrix = [[R3.from_terms({tuple(rng.randrange(3) for _ in range(3)):
                                      rng.randrange(5)
                                      for _ in range(rng.randrange(4))})
                       for _ in range(n)] for _ in range(n)]
            want = R3.zero()
            for perm in itertools.permutations(range(n)):
                inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
                term = R3.constant(-1 if inversions % 2 else 1)
                for row, col in enumerate(perm):
                    term = term * matrix[row][col]
                want = want + term
            assert groebner._determinant(matrix, R3) == want

    def test_codim_bounds(self):
        with pytest.raises(ValueError):
            jacobian_minors([p2("x")], 2)
        with pytest.raises(ValueError):
            jacobian_minors([p2("x")], 0)


class TestSmoothness:
    def test_smooth_hypersurface(self):
        cert = jacobian_smoothness([p2("x^2 + y^2 - 1")], 1)
        assert cert.verdict == "smooth"
        assert cert.unit_witness.verify()
        assert cert.unit_witness.target == R2.one()
        assert cert.verify()

    def test_singular_cone_inconclusive(self):
        # x*y = 0 is singular at the origin: no locus, no unit
        cert = jacobian_smoothness([p2("x*y")], 1)
        assert cert.verdict == "inconclusive"
        assert cert.residual is not None
        assert cert.verify()

    def test_smooth_on_locus(self):
        # cusp y^2 = x^3: singular only at origin, smooth where x = 1 - u
        # is invertible; localizing away from the singular point via the
        # locus (x - 1) certifies smoothness over that locus.
        cert = jacobian_smoothness([p2("y^2 - x^3")], 1, locus=[p2("x - 1")])
        assert cert.verdict == "smooth-on-locus"
        assert cert.unit_witness.verify()
        assert cert.verify()

    def test_presentation_relations_globally_smooth(self):
        # the five-variable presentation has a constant 2x2 Jacobian
        # minor, so the certificate is unconditional
        fx = load_fixtures()
        cert = jacobian_smoothness(list(fx.presentation_rels), 2)
        assert cert.verdict == "smooth"
        assert cert.unit_witness.verify()
        assert cert.verify()
        assert any(m.total_degree() == 0 for m in cert.minors)

    def test_foreign_locus_rejected(self):
        with pytest.raises(ContextError):
            jacobian_smoothness([p2("x")], 1, locus=[p3("z")])


def _seeded_smoothness_cases(seed, count):
    """``(gens, codim, locus)``: one plane curve with a constant term and a
    linear locus per case, and sometimes a second curve in three variables."""
    rng = random.Random(seed)

    def rand(ring, deg, nterms):
        terms = {(0,) * ring.nvars: rng.randint(0, 4)}
        while len(terms) <= nterms:
            e = tuple(rng.randint(0, deg) for _ in range(ring.nvars))
            if 0 < sum(e) <= deg:
                terms[e] = rng.randint(1, 4)
        return Polynomial(ring, terms)

    cases = []
    for i in range(count):
        ring = R2 if i % 2 else R3
        gens = [rand(ring, 3, 3) for _ in range(ring.nvars - 1)]
        cases.append((gens, len(gens), [rand(ring, 1, 1)]))
    return cases


@pytest.mark.parametrize("name", ["pure", "compiled"])
def test_certificate_pair_accounting(name):
    # The count is the plain pairs of every stage tried plus those of the
    # pure tracked run behind the unit witness, whose first cofactor row is
    # the witness.
    fx = load_fixtures()
    cases = [([p2("x^2 + y^2 - 1")], 1, []), ([p2("x*y")], 1, []),
             ([p2("y^2 - x^3")], 1, [p2("x - 1")]),
             (list(fx.presentation_rels), 2, [])]
    cases += _seeded_smoothness_cases(1515, 12)
    verdicts = set()
    for gens, codim, locus in cases:
        cert = jacobian_smoothness(gens, codim, locus=locus, backend_name=name)
        verdicts.add(cert.verdict)
        base = list(gens) + list(cert.minors)
        expected, witness_row = 0, None
        for system in [base] + ([base + locus] if locus else []):
            gb = buchberger(system, backend_name=name)
            expected += gb.pairs_processed
            if gb.is_unit_ideal():
                ring = gb.ring
                _, reps, pairs, _ = _kernel_pure.buchberger_tracked(
                    [g.terms() for g in system], ring.nvars, ring.p,
                    ring.order.kind, split=ring.order.split)
                expected += pairs
                witness_row = reps[0]
                break
        assert cert.pairs_processed == expected
        if witness_row is None:
            assert cert.unit_witness is None
        else:
            assert [c.terms() for c in cert.unit_witness.cofactors] == \
                witness_row
    assert verdicts == {"smooth", "smooth-on-locus", "inconclusive"}


# Loads the compiled kernel from the file named in argv[1], arms a 0.5 s
# alarm whose handler raises, and runs a lex system whose basis takes
# minutes and ever more memory (capped at 1 GiB here) to compute.
_INTERRUPT_CHILD = """
import importlib.machinery, importlib.util, resource, signal, sys, time

resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
loader = importlib.machinery.ExtensionFileLoader("godeaux._kernel", sys.argv[1])
kernel = importlib.util.module_from_spec(
    importlib.util.spec_from_loader("godeaux._kernel", loader))
loader.exec_module(kernel)

from godeaux.rings import LEX, PolyRing, parse_poly

class Alarm(Exception):
    pass

def on_alarm(signum, frame):
    raise Alarm

ring = PolyRing(("x", "y", "z", "w"), 7, LEX)
gens = [parse_poly(ring, t) for t in (
    "3*x*y*z + 2*y^2", "4*x*y*w + 4*x*z*w + 5*z", "y^52530 + 3*z", "z^2 + 3")]
signal.signal(signal.SIGALRM, on_alarm)
signal.setitimer(signal.ITIMER_REAL, 0.5)
start = time.perf_counter()
try:
    kernel.buchberger([g.terms() for g in gens], 4, 7, "lex", budget=None)
except Alarm:
    print(time.perf_counter() - start)
else:
    print("finished")
"""


def test_compiled_kernel_is_interruptible():
    # The kernel polls for signals, so the alarm handler's exception
    # surfaces within seconds; a kernel that does not runs into the
    # 30 s timeout.
    if backend._compiled is None:
        pytest.skip("the compiled kernel is not built")
    src = Path(godeaux.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _INTERRUPT_CHILD, backend._compiled.__file__],
        capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 5.0, proc.stdout
