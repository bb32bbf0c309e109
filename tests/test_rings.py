"""Polynomial core: arithmetic, orders, serialization, structure maps."""

import pytest

from godeaux.errors import (ContextError, DivisibilityError, GradingError,
                            ParseError)
from godeaux.rings import (DEGREVLEX, LEX, MonomialOrder, PolyRing,
                           Polynomial, block_order, dehomogenize, format_poly,
                           frobenius_power, homogenize, is_prime,
                           laurent_normalize, monomial_basis, parse_poly,
                           substitute)

R = PolyRing(("x", "y", "z"), 5, DEGREVLEX)
R4 = PolyRing(("x0", "x1", "x2", "x3"), 5, DEGREVLEX)


class TestPrimality:
    def test_small_values(self):
        assert [n for n in range(2, 20) if is_prime(n)] == \
            [2, 3, 5, 7, 11, 13, 17, 19]
        assert not is_prime(1)
        assert not is_prime(0)
        assert not is_prime(-5)

    def test_nonprime_characteristic_rejected(self):
        with pytest.raises(ValueError):
            PolyRing(("x",), 4, DEGREVLEX)


class TestCanonicalization:
    def test_coefficients_reduced_mod_p(self):
        f = R.from_terms({(1, 0, 0): 7})
        assert f == 2 * R.gen("x")

    def test_zero_coefficients_dropped(self):
        f = R.from_terms({(1, 0, 0): 5, (0, 1, 0): 1})
        assert f == R.gen("y")
        assert len(f) == 1

    def test_negative_coefficients_wrap(self):
        f = R.from_terms({(1, 0, 0): -1})
        assert f.coefficient((1, 0, 0)) == 4

    def test_repeated_exponents_in_pairs_are_summed(self):
        # over F_2, x + x is 0, as parse_poly reads it
        f2 = PolyRing(("x", "y"), 2, DEGREVLEX)
        assert f2.from_terms([((1, 0), 1), ((1, 0), 1)]).is_zero()
        assert f2.from_terms([((1, 0), 1), ((1, 0), 1)]) == \
            parse_poly(f2, "x + x")
        assert R.from_terms([([1, 0, 0], 3), ((1, 0, 0), 4), ((0, 1, 0), 1)]) \
            == parse_poly(R, "2*x + y")

    @pytest.mark.parametrize("exps", [("a", 0, 0), (1.5, 0, 0), (-1, 0, 0)])
    def test_bad_exponent_rejected(self, exps):
        with pytest.raises(ValueError, match="non-negative integers"):
            Polynomial(R, {exps: 1})

    def test_zero_polynomial(self):
        assert R.zero().is_zero()
        assert not R.zero()
        assert str(R.zero()) == "0"
        assert R.from_terms({}).is_zero()


class TestMonomialOrders:
    def test_degrevlex_grading_first(self):
        x, y, z = R.gens()
        f = x * y + z ** 3
        assert f.leading_monomial() == (0, 0, 3)

    def test_degrevlex_tiebreak(self):
        # among degree-2 monomials: x^2 > xy > y^2 > xz > yz > z^2
        monos = [str(R.monomial(e)) for e in
                 sorted([(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1),
                         (0, 1, 1), (0, 0, 2)],
                        key=R.sort_key, reverse=True)]
        assert monos == ["x^2", "x*y", "y^2", "x*z", "y*z", "z^2"]

    def test_lex_ignores_degree(self):
        L = PolyRing(("x", "y", "z"), 5, LEX)
        f = L.gen("x") + L.gen("y") ** 4
        assert f.leading_monomial() == (1, 0, 0)

    def test_block_order_eliminates_front_block(self):
        # front block (x) dominates: any x-power beats any pure (y,z) term
        B = PolyRing(("x", "y", "z"), 5, block_order(1))
        f = B.gen("x") + B.gen("y") ** 4 * B.gen("z") ** 4
        assert f.leading_monomial() == (1, 0, 0)

    def test_order_equality(self):
        assert MonomialOrder("degrevlex") == DEGREVLEX
        assert block_order(2) == block_order(2)
        assert block_order(2) != block_order(1)


class TestArithmetic:
    def test_known_product(self):
        x, y, _ = R.gens()
        # (x + 2y)(x + 3y) = x^2 + 5xy + 6y^2 = x^2 + y^2 mod 5
        assert (x + 2 * y) * (x + 3 * y) == x ** 2 + y ** 2

    def test_characteristic_five(self):
        x = R.gen("x")
        assert x + x + x + x + x == R.zero()
        assert R.constant(5).is_zero()

    def test_freshman_dream(self):
        x, y, _ = R.gens()
        assert (x + y) ** 5 == x ** 5 + y ** 5

    def test_power_zero_and_one(self):
        x = R.gen("x")
        f = x + R.one()
        assert f ** 0 == R.one()
        assert f ** 1 == f

    def test_int_coercion(self):
        x = R.gen("x")
        assert 2 * x + 3 * x == R.zero()
        assert x + 1 == x + R.one()
        assert 1 - x == R.one() - x

    def test_cross_ring_operations_rejected(self):
        with pytest.raises(ContextError):
            R.gen("x") + R4.gen("x0")

    def test_evaluate(self):
        x, y, z = R.gens()
        f = x ** 2 * y + 3 * z
        assert f.evaluate((2, 3, 1)) == (4 * 3 + 3) % 5
        assert R.zero().evaluate((1, 1, 1)) == 0

    def test_derivative_formal_char_p(self):
        x, y, _ = R.gens()
        assert (x ** 5).derivative("x").is_zero()
        assert (x ** 2 * y).derivative("x") == 2 * x * y
        assert (x ** 2 * y).derivative("y") == x ** 2

    def test_total_degree_and_homogeneity(self):
        x, y, z = R.gens()
        f = x * y + z ** 2
        assert f.total_degree() == 2
        assert f.is_homogeneous()
        assert not (f + x).is_homogeneous()
        assert R.zero().is_homogeneous()

    def test_leading_data_and_monic(self):
        x, y, _ = R.gens()
        f = 3 * x ** 2 + y
        assert f.leading_monomial() == (2, 0, 0)
        assert f.leading_coefficient() == 3
        assert f.monic().leading_coefficient() == 1
        assert f.monic() * R.constant(3) == f


class TestSerialization:
    def test_canonical_format(self):
        x, y, z = R.gens()
        f = y * z ** 2 * 4 + x ** 3 + 2 * x
        assert str(f) == "x^3 + 4*y*z^2 + 2*x"

    def test_parse_examples(self):
        f = parse_poly(R4, "x1*x3^4 + 2*x2^2*x3^3")
        assert f.coefficient((0, 1, 0, 4)) == 1
        assert f.coefficient((0, 0, 2, 3)) == 2

    def test_parse_handles_minus_and_constants(self):
        assert parse_poly(R, "-x + 1") == R.one() - R.gen("x")
        assert parse_poly(R, "0").is_zero()
        assert parse_poly(R, "3") == R.constant(3)

    def test_round_trip(self):
        import random
        rng = random.Random(7)
        for _ in range(200):
            terms = {}
            for _ in range(rng.randrange(1, 6)):
                exp = tuple(rng.randrange(4) for _ in range(3))
                terms[exp] = rng.randrange(5)
            f = R.from_terms(terms)
            assert parse_poly(R, str(f)) == f
            assert format_poly(f) == str(f)

    def test_parse_errors(self):
        for bad in ("x +", "w", "x^", "x**2", "2x"):
            with pytest.raises(ParseError):
                parse_poly(R, bad)

    @pytest.mark.parametrize("text, message", [
        ("x ! y", "unexpected character '!' at position 2"),
        ("x²", "unexpected character '²' at position 1"),
        ("x + ", "dangling sign at end of polynomial"),
        ("x * ", "dangling '*' at end of polynomial"),
        ("x^", "expected an integer exponent after '^'"),
        ("x^y", "expected an integer exponent after '^'"),
        ("z", "unknown variable 'z'; ring has x, y"),
        ("", "empty polynomial text"),
        ("x y", "expected '+' or '-' between terms, found 'name'"),
        ("x 2", "expected '+' or '-' between terms, found 'int'"),
        ("* x", "expected a coefficient or variable, found '*'"),
    ])
    def test_parse_error_messages(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_poly(PolyRing(("x", "y"), 5), text)
        assert str(info.value) == message


class TestStructureMaps:
    def test_frobenius_is_fifth_power(self):
        x, y, _ = R.gens()
        f = x + 2 * y ** 2
        assert frobenius_power(f) == f * f * f * f * f == f ** 5

    def test_monomial_basis_counts_and_order(self):
        basis5 = monomial_basis(R4, 5)
        assert len(basis5) == 56  # C(8, 3)
        keys = [R4.sort_key(e) for e in basis5]
        assert keys == sorted(keys, reverse=True)
        assert monomial_basis(R, 0) == [(0, 0, 0)]

    def test_dehomogenize_requires_homogeneous(self):
        x, _, _ = R.gens()
        with pytest.raises(GradingError):
            dehomogenize(x + R.one(), "z")

    def test_dehomogenize_homogenize_round_trip(self):
        f = parse_poly(R4, "x1*x3^4 + 2*x2^2*x3^3")
        g = dehomogenize(f, "x3", names=("u0", "u1", "u2"))
        assert str(g) == "2*u2^2 + u1"
        back = homogenize(g, 5, R4, "x3")
        assert back == f

    def test_laurent_normalize_exact_and_error(self):
        x, _, z = R.gens()
        f = x ** 2 * z ** 3 + z ** 4
        assert laurent_normalize(f, "z", 3) == x ** 2 + z.ring.gen("z")
        with pytest.raises(DivisibilityError):
            laurent_normalize(f, "z", 4)

    def test_substitute_composition(self):
        x, y, z = R.gens()
        f = x * y + z ** 2
        target = PolyRing(("t",), 5, DEGREVLEX)
        t = target.gen("t")
        image = substitute(f, target, (t, t ** 2, t + 1))
        assert image == t * t ** 2 + (t + 1) ** 2

    def test_ring_equality(self):
        assert R == PolyRing(("x", "y", "z"), 5, DEGREVLEX)
        assert R != PolyRing(("x", "y", "z"), 5, LEX)
