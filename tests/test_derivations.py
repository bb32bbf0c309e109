"""Derivations: Leibniz application, iteration, charts, graded kernels."""

import pytest

from godeaux.derivations import (Derivation, apply, chart_transform,
                                 fixed_locus_ideal, format_derivation,
                                 graded_kernel, iterate_power,
                                 parse_derivation, vector_reduce)
from godeaux.errors import ContextError, GradingError, ParseError
from godeaux.fixtures import load_fixtures
from godeaux.rings import DEGREVLEX, PolyRing, parse_poly

R4 = PolyRing(("x0", "x1", "x2", "x3"), 5, DEGREVLEX)


@pytest.fixture(scope="module")
def field():
    return load_fixtures().field


class TestApplication:
    def test_variable_images(self, field):
        for i, expected in ((0, "x1"), (1, "x2"), (2, "x3"), (3, "0")):
            assert str(apply(field, R4.gen(i))) == expected

    def test_leibniz_on_product(self, field):
        x0, x1 = R4.gen(0), R4.gen(1)
        assert apply(field, x0 * x1) == x1 * x1 + x0 * R4.gen(2)

    def test_constants_killed(self, field):
        assert apply(field, R4.constant(3)).is_zero()

    def test_invariants_killed(self, field):
        fx = load_fixtures()
        assert apply(field, fx.k1).is_zero()
        assert apply(field, fx.k2).is_zero()

    def test_foreign_ring_rejected(self, field):
        other = PolyRing(("a",), 5, DEGREVLEX)
        with pytest.raises(ContextError):
            apply(field, other.gen("a"))


class TestIteration:
    def test_fifth_power_vanishes(self, field):
        assert iterate_power(field, 5).is_zero()

    def test_fourth_power_vanishes_third_does_not(self, field):
        assert iterate_power(field, 4).is_zero()
        third = iterate_power(field, 3)
        assert str(third.images[0]) == "x3"  # x0 -> x1 -> x2 -> x3
        assert all(g.is_zero() for g in third.images[1:])

    def test_single_iteration_is_identity_of_images(self, field):
        assert iterate_power(field, 1) == field

    def test_invalid_count(self, field):
        with pytest.raises(ValueError):
            iterate_power(field, 0)


class TestChartTransforms:
    def test_all_three_charts_match_fixtures(self, field):
        fx = load_fixtures()
        for chart in ("x3", "x2", "x1"):
            computed = chart_transform(field, chart,
                                       names=fx.chart_vars[chart])
            assert computed == fx.chart_fields[chart]

    def test_chart_x3_explicit(self, field):
        c = chart_transform(field, "x3", names=("x", "y", "z"))
        assert [str(g) for g in c.images] == ["y", "z", "1"]

    def test_default_names(self, field):
        c = chart_transform(field, "x3")
        assert c.ring.variables == ("x0", "x1", "x2")

    def test_nonlinear_field_rejected(self):
        delta = Derivation(R4, (R4.gen(1) ** 2, R4.zero(), R4.zero(),
                                R4.zero()))
        from godeaux.errors import TransformError
        with pytest.raises(TransformError):
            chart_transform(delta, "x3")


class TestGradedKernel:
    def test_degree_five_dimension(self, field):
        assert len(graded_kernel(field, 5)) == 12

    def test_degree_five_contains_expected_members(self, field):
        fx = load_fixtures()
        basis = graded_kernel(field, 5)
        for i in range(4):
            assert vector_reduce(R4.gen(i) ** 5, basis).is_zero()
        assert vector_reduce(fx.k1, basis).is_zero()
        assert vector_reduce(fx.k2, basis).is_zero()

    def test_degree_one(self, field):
        basis = graded_kernel(field, 1)
        assert [str(f) for f in basis] == ["x3"]

    def test_degree_zero(self, field):
        assert [str(f) for f in graded_kernel(field, 0)] == ["1"]

    def test_echelonized_reduced(self, field):
        basis = graded_kernel(field, 5)
        leads = [f.leading_monomial() for f in basis]
        # distinct leading monomials, strictly descending
        keys = [R4.sort_key(e) for e in leads]
        assert keys == sorted(keys, reverse=True)
        assert len(set(leads)) == len(leads)
        # no basis element contains another's leading monomial
        for f in basis:
            for g in basis:
                if f is not g:
                    assert f.coefficient(g.leading_monomial()) == 0

    def test_reduced_when_a_later_vector_leads_inside_an_earlier_one(self):
        # b^2 leads the second vector, so the first must not contain it.
        ring = PolyRing(("a", "b", "c", "d"), 5, DEGREVLEX)
        delta = parse_derivation(ring, "a -> 4*b\nb -> 4*a\nc -> 4*b\n"
                                       "d -> b + 3*d")
        assert [str(f) for f in graded_kernel(delta, 2)] == \
            ["a^2 + 3*a*c + c^2", "b^2 + 3*a*c + c^2"]

    def test_zero_derivation_full_space(self):
        zero = Derivation(R4, (R4.zero(),) * 4)
        assert len(graded_kernel(zero, 2)) == 10

    def test_every_basis_element_in_kernel(self, field):
        for f in graded_kernel(field, 5):
            assert apply(field, f).is_zero()

    def test_nonlinear_rejected(self):
        delta = Derivation(R4, (R4.gen(1) * R4.gen(2), R4.zero(), R4.zero(),
                                R4.zero()))
        with pytest.raises(GradingError):
            graded_kernel(delta, 2)


class TestFixedLocus:
    def test_expected_minors(self, field):
        expected = ["x1^2 + 4*x0*x2", "x1*x2 + 4*x0*x3", "x1*x3",
                    "x2^2 + 4*x1*x3", "x2*x3", "x3^2"]
        assert [str(m) for m in fixed_locus_ideal(field)] == expected

    def test_minors_vanish_on_fixed_point(self, field):
        # the unique fixed point: (1, 0, 0, 0)
        for m in fixed_locus_ideal(field):
            assert m.evaluate((1, 0, 0, 0)) == 0


class TestSerialization:
    def test_round_trip(self, field):
        text = format_derivation(field)
        assert parse_derivation(R4, text) == field

    def test_omitted_variables_are_zero(self):
        delta = parse_derivation(R4, "x0 -> x1")
        assert delta.images[3].is_zero()

    def test_duplicate_rejected(self):
        with pytest.raises(ParseError):
            parse_derivation(R4, "x0 -> x1\nx0 -> x2")

    def test_malformed_line_rejected(self):
        with pytest.raises(ParseError):
            parse_derivation(R4, "x0 = x1")
