"""Sparse multivariate polynomial arithmetic over prime fields.

Polynomials are stored as canonical sparse maps from exponent tuples to
nonzero residues in [1, p).  Monomial orders are realized as integer key
tuples whose lexicographic comparison coincides with the order, which
lets every consumer (sorting, Groebner engine, printing) share one
mechanism.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache
from operator import add

from .errors import ContextError, DivisibilityError, GradingError, ParseError

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


@lru_cache(maxsize=256)  # rings are built per call; test each p once
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _degrevlex_key(exps):
    """Ascending-comparable key: reversed partial sums of the exponents."""
    total = 0
    sums = []
    for e in exps:
        total += e
        sums.append(total)
    sums.reverse()
    return tuple(sums)


class MonomialOrder:
    """A total multiplicative well-order on monomials.

    ``key(exps)`` returns an integer tuple; tuple comparison of keys
    equals comparison under the order.  Kinds: ``degrevlex``, ``lex``,
    and ``block`` (an elimination order whose first ``split`` variables
    dominate, degrevlex within each block).
    """

    __slots__ = ("kind", "split")

    def __init__(self, kind: str, split: int | None = None):
        if kind not in ("degrevlex", "lex", "block"):
            raise ValueError(f"unknown monomial order kind: {kind!r}")
        if (kind == "block") != (split is not None):
            raise ValueError("block orders require a split index; others forbid it")
        if kind == "block" and split < 1:
            raise ValueError("block split must be at least 1")
        self.kind = kind
        self.split = split

    def key(self, exps: Sequence[int]):
        if self.kind == "degrevlex":
            return _degrevlex_key(exps)
        if self.kind == "lex":
            return tuple(exps)
        s = self.split
        return _degrevlex_key(exps[:s]) + _degrevlex_key(exps[s:])

    def __eq__(self, other):
        if not isinstance(other, MonomialOrder):
            return NotImplemented
        return self.kind == other.kind and self.split == other.split

    def __hash__(self):
        return hash((self.kind, self.split))

    def __repr__(self):
        if self.kind == "block":
            return f"MonomialOrder('block', split={self.split})"
        return f"MonomialOrder({self.kind!r})"


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")


def block_order(split: int) -> MonomialOrder:
    """Elimination order: the first ``split`` variables dominate."""
    return MonomialOrder("block", split)


class PolyRing:
    """Context object: variable names, characteristic, monomial order."""

    __slots__ = ("p", "variables", "order", "nvars", "_index")

    def __init__(self, variables: Sequence[str], p: int = 5,
                 order: MonomialOrder = DEGREVLEX):
        variables = tuple(variables)
        if not variables:
            raise ValueError("a polynomial ring needs at least one variable")
        for name in variables:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid variable name: {name!r}")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if order.kind == "block" and not (0 < order.split < len(variables)):
            raise ValueError("block split must lie strictly inside the variables")
        self.p = p
        self.variables = variables
        self.order = order
        self.nvars = len(variables)
        self._index = {name: i for i, name in enumerate(variables)}

    def var_index(self, var) -> int:
        if isinstance(var, int):
            if not 0 <= var < self.nvars:
                raise ValueError(f"variable index out of range: {var}")
            return var
        try:
            return self._index[var]
        except KeyError:
            raise ValueError(f"unknown variable {var!r}; ring has "
                             f"{', '.join(self.variables)}") from None

    def sort_key(self, exps):
        return self.order.key(exps)

    # -- element construction -------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial._raw(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        c %= self.p
        if c == 0:
            return Polynomial._raw(self, {})
        return Polynomial._raw(self, {(0,) * self.nvars: c})

    def gen(self, var) -> "Polynomial":
        i = self.var_index(var)
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial._raw(self, {tuple(exps): 1})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.gen(i) for i in range(self.nvars))

    def monomial(self, exps: Sequence[int], coeff: int = 1) -> "Polynomial":
        return Polynomial(self, {tuple(exps): coeff})

    def from_terms(self, terms: Mapping[tuple, int] | Iterable) -> "Polynomial":
        """A map, or ``(exponents, coefficient)`` pairs whose repeated
        exponents are summed, as ``parse_poly`` sums repeated monomials."""
        if not isinstance(terms, Mapping):
            sums = {}
            for exps, c in terms:
                exps = tuple(exps)
                sums[exps] = sums.get(exps, 0) + c
            terms = sums
        return Polynomial(self, terms)

    def parse(self, text: str) -> "Polynomial":
        return parse_poly(self, text)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, PolyRing):
            return NotImplemented
        return (self.p == other.p and self.variables == other.variables
                and self.order == other.order)

    def __hash__(self):
        return hash((self.p, self.variables, self.order))

    def __repr__(self):
        return (f"PolyRing(p={self.p}, vars={' '.join(self.variables)}, "
                f"order={self.order.kind})")


class Polynomial:
    """Immutable sparse polynomial over F_p.

    ``_terms`` maps exponent tuples to residues in [1, p); the zero
    polynomial has an empty map.  Equal polynomials always carry equal
    maps (canonical form).
    """

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple, int]):
        p = ring.p
        n = ring.nvars
        canon = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != n:
                raise ValueError(f"exponent tuple {exps} has wrong arity for {ring!r}")
            if any(not isinstance(e, int) or e < 0 for e in exps):
                raise ValueError(f"exponents must be non-negative integers: {exps}")
            c %= p
            if c:
                canon[exps] = c
        self.ring = ring
        self._terms = canon

    @classmethod
    def _raw(cls, ring, canonical_terms) -> "Polynomial":
        """Trusting constructor for internally produced canonical maps."""
        self = object.__new__(cls)
        self.ring = ring
        self._terms = canonical_terms
        return self

    @classmethod
    def _from_sums(cls, ring, sums) -> "Polynomial":
        """Reduce a map of unreduced integer coefficients mod p, once."""
        p = ring.p
        return cls._raw(ring, {e: r for e, c in sums.items() if (r := c % p)})

    # -- inspection -----------------------------------------------------------

    def terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int:
        """Maximal term degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(map(sum, self._terms))

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self._terms}
        return len(degrees) <= 1

    def coefficient(self, exps: Sequence[int]) -> int:
        return self._terms.get(tuple(exps), 0)

    def leading_monomial(self) -> tuple:
        if not self._terms:
            raise ValueError("the zero polynomial has no leading monomial")
        key = self.ring.sort_key
        return max(self._terms, key=key)

    def leading_coefficient(self) -> int:
        return self._terms[self.leading_monomial()]

    def monic(self) -> "Polynomial":
        if not self._terms:
            return self
        p = self.ring.p
        inv = pow(self.leading_coefficient(), p - 2, p)
        if inv == 1:
            return self
        return Polynomial._raw(self.ring,
                               {e: (c * inv) % p for e, c in self._terms.items()})

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ContextError("operands belong to different rings")
            return other
        if isinstance(other, int):
            return self.ring.constant(other)
        return NotImplemented

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.ring.p
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = (out.get(e, 0) + c) % p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial._raw(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.p
        return Polynomial._raw(self.ring, {e: p - c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.ring.p
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = (out.get(e, 0) - c) % p
            if s:
                out[e] = s
            else:
                del out[e]
        return Polynomial._raw(self.ring, out)

    def __rsub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        sums = {}
        add_product(sums, self._terms, other._terms)
        return Polynomial._from_sums(self.ring, sums)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """f**n by squaring below p; from n = p on, f^n is
        ``frobenius_power(f ** (n // p)) * f ** (n % p)``, as f^p =
        frobenius_power(f) over F_p.  ``substitute`` takes its powers here,
        so C10's relations ``S^p - twist(image)`` re-check with no squaring.
        """
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        p = self.ring.p
        if n >= p:
            high = frobenius_power(self ** (n // p))
            return high * self ** (n % p) if n % p else high
        if n < 2:
            return self if n else self.ring.one()
        half = self ** (n // 2)
        return half * half * self if n % 2 else half * half

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return ((self.ring is other.ring or self.ring == other.ring)
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self._terms.items())))

    # -- evaluation and calculus ----------------------------------------------

    def evaluate(self, point: Sequence[int]) -> int:
        if len(point) != self.ring.nvars:
            raise ValueError(f"point has {len(point)} coordinates, "
                             f"ring has {self.ring.nvars} variables")
        p = self.ring.p
        point = [v % p for v in point]
        total = 0
        for exps, c in self._terms.items():
            val = c
            for v, e in zip(point, exps):
                if e:
                    val = (val * pow(v, e, p)) % p
                    if val == 0:
                        break
            total = (total + val) % p
        return total

    def derivative(self, var) -> "Polynomial":
        """Formal partial derivative; in characteristic p, d(x^p)/dx = 0."""
        i = self.ring.var_index(var)
        p = self.ring.p
        # Lowering one exponent is injective, so no two terms meet; with c
        # a unit, c*e vanishes mod p exactly when e does.
        return Polynomial._raw(self.ring, {
            exps[:i] + (exps[i] - 1,) + exps[i + 1:]: c * exps[i] % p
            for exps, c in self._terms.items() if exps[i] % p})

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<{format_poly(self)}>"


# -- module-level operations ------------------------------------------------


def add_product(sums: dict, a: Mapping, b: Mapping) -> None:
    """Add the product of the term maps ``a`` and ``b`` into ``sums``.

    Coefficients are left unreduced; ``Polynomial._from_sums`` reduces
    them once, so a sum of products builds no intermediate polynomial.
    """
    if len(a) > len(b):  # the outer loop over the smaller support
        a, b = b, a
    get = sums.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            sums[e] = get(e, 0) + ca * cb


def frobenius_power(f: Polynomial) -> Polynomial:
    """f**p computed termwise: exponents p-fold, coefficients fixed.

    Valid over the prime field: the p-power map is additive in
    characteristic p and fixes every residue (Fermat).
    """
    p = f.ring.p
    return Polynomial._raw(f.ring,
                           {tuple(e * p for e in exps): c
                            for exps, c in f._terms.items()})


def dehomogenize(f: Polynomial, chart,
                 names: Sequence[str] | None = None) -> Polynomial:
    """Set the chart variable to 1, landing in a fresh (n-1)-variable ring.

    ``names`` renames the remaining variables (defaults to their original
    names); the result ring keeps the source order kind except that block
    orders fall back to degrevlex.
    """
    ring = f.ring
    i = ring.var_index(chart)
    if not f.is_homogeneous():
        raise GradingError("dehomogenization requires a homogeneous polynomial")
    if names is None:
        names = ring.variables[:i] + ring.variables[i + 1:]
    order = ring.order if ring.order.kind != "block" else DEGREVLEX
    target = PolyRing(names, ring.p, order)
    # Distinct terms of one total degree stay distinct without exps[i].
    return Polynomial._raw(target, {exps[:i] + exps[i + 1:]: c
                                    for exps, c in f._terms.items()})


def homogenize(f: Polynomial, degree: int, target_ring: PolyRing,
               chart) -> Polynomial:
    """Inverse of dehomogenize: pad each term with the chart variable.

    Variables map positionally: source variable j goes to target position
    j (or j+1 past the chart index).  Terms of degree above ``degree``
    raise a grading error.
    """
    ring = f.ring
    i = target_ring.var_index(chart)
    if target_ring.nvars != ring.nvars + 1:
        raise ContextError("target ring must have exactly one extra variable")
    if target_ring.p != ring.p:
        raise ContextError("characteristics differ")
    out = {}
    for exps, c in f._terms.items():
        d = sum(exps)
        if d > degree:
            raise GradingError(f"term degree {d} exceeds target degree {degree}")
        new = exps[:i] + (degree - d,) + exps[i:]
        out[new] = c
    return Polynomial._raw(target_ring, out)


def laurent_normalize(f: Polynomial, var, exponent: int) -> Polynomial:
    """Exact division by var**exponent; errors if any term is not divisible."""
    if exponent < 0:
        raise ValueError("divisor exponent must be non-negative")
    ring = f.ring
    i = ring.var_index(var)
    if exponent == 0:
        return f
    out = {}
    for exps, c in f._terms.items():
        if exps[i] < exponent:
            raise DivisibilityError(
                f"term with {ring.variables[i]}^{exps[i]} is not divisible by "
                f"{ring.variables[i]}^{exponent}")
        out[exps[:i] + (exps[i] - exponent,) + exps[i + 1:]] = c
    return Polynomial._raw(ring, out)


def substitute(f: Polynomial, target_ring: PolyRing,
               images: Sequence[Polynomial]) -> Polynomial:
    """Apply the ring map sending each source variable to its image.

    Each image power comes from ``**`` once per call, so a p-th power is
    ``frobenius_power(image)`` (f^p over F_p), as in C10's relations
    ``S^p - twist(image)``.  All terms sum unreduced into one map.
    """
    if len(images) != f.ring.nvars:
        raise ContextError("need one image per source variable")
    for g in images:
        if g.ring != target_ring:
            raise ContextError("images must live in the target ring")
    if f.ring.p != target_ring.p:
        raise ContextError("characteristics differ")
    one = target_ring.one()
    powers = {}  # (i, e) -> images[i] ** e
    sums = {}
    for exps, c in f._terms.items():
        factors = []
        for i, e in enumerate(exps):
            if e:
                g = powers.get((i, e))
                if g is None:
                    g = powers[i, e] = images[i] ** e
                factors.append(g)
        *init, last = factors or [one]
        term = target_ring.constant(c)
        for g in init:
            term = term * g
        add_product(sums, term._terms, last._terms)
    return Polynomial._from_sums(target_ring, sums)


def monomial_basis(ring: PolyRing, degree: int) -> list[tuple]:
    """All exponent tuples of the given total degree, largest first."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    n = ring.nvars
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, n)
    out.sort(key=ring.sort_key, reverse=True)
    return out


# -- text grammar -----------------------------------------------------------

# A token is an integer, a name or one of ^ * + -; any other visible
# character is an error, reported at its position before parsing starts.
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\S))")
_BAD_CHAR_RE = re.compile(r"[^\s\dA-Za-z_^*+\-]")


def parse_poly(ring: PolyRing, text: str) -> Polynomial:
    """Parse the textual grammar: terms joined by + or -, factors by *.

    A factor is an integer literal or a variable with an optional ^power.
    Negative coefficients enter through the - join or a leading sign.
    """
    bad = _BAD_CHAR_RE.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r} "
                         f"at position {bad.start()}")
    tokens = _TOKEN_RE.findall(text)  # (digits, name, symbol), one nonempty
    if not tokens:
        raise ParseError("empty polynomial text")
    p = ring.p
    index = ring._index
    zero = [0] * ring.nvars
    end = len(tokens)
    terms: dict[tuple, int] = {}
    sign = tokens[0][2]
    i = 1 if sign in ("+", "-") else 0
    while True:
        if i >= end:
            raise ParseError("dangling sign at end of polynomial")
        coeff = p - 1 if sign == "-" else 1
        exps = zero[:]
        while True:  # one factor per pass
            num, name, symbol = tokens[i]
            i += 1
            if num:
                coeff = coeff * int(num) % p
            elif name:
                v = index.get(name)
                if v is None:
                    raise ParseError(f"unknown variable {name!r}; ring has "
                                     f"{', '.join(ring.variables)}")
                if i < end and tokens[i][2] == "^":
                    i += 1
                    if i >= end or not tokens[i][0]:
                        raise ParseError(
                            "expected an integer exponent after '^'")
                    exps[v] += int(tokens[i][0])
                    i += 1
                else:
                    exps[v] += 1
            else:
                raise ParseError("expected a coefficient or variable, "
                                 f"found {symbol!r}")
            if i >= end or tokens[i][2] != "*":
                break
            i += 1
            if i >= end:
                raise ParseError("dangling '*' at end of polynomial")
        key = tuple(exps)
        s = (terms.get(key, 0) + coeff) % p
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)
        if i >= end:
            break
        num, name, sign = tokens[i]
        if sign not in ("+", "-"):
            kind = "int" if num else "name" if name else sign
            raise ParseError(f"expected '+' or '-' between terms, found {kind!r}")
        i += 1
    return Polynomial._raw(ring, terms)


def format_poly(f: Polynomial) -> str:
    """Canonical text: terms largest-first, least non-negative residues."""
    if f.is_zero():
        return "0"
    terms = f._terms
    names = f.ring.variables
    pieces = []
    for exps in sorted(terms, key=f.ring.order.key, reverse=True):
        c = terms[exps]
        mono = "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(names, exps) if e)
        if not mono:
            pieces.append(str(c))
        elif c == 1:
            pieces.append(mono)
        else:
            pieces.append(f"{c}*{mono}")
    return " + ".join(pieces)
