"""Formal k-linear derivations on polynomial rings.

A derivation is stored by its images on the variables and applied through
linearity and the Leibniz rule.  Includes p-fold iteration (the additivity
test), transforms to affine charts of projective space, graded-kernel
linear algebra, and the fixed-locus ideal of the induced vector field.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ContextError, GradingError, ParseError, TransformError
from .rings import (DEGREVLEX, PolyRing, Polynomial, add_product,
                    dehomogenize, monomial_basis, parse_poly)


class Derivation:
    """k-linear derivation, determined by one image polynomial per variable."""

    __slots__ = ("ring", "images")

    def __init__(self, ring: PolyRing, images: Sequence[Polynomial]):
        images = tuple(images)
        if len(images) != ring.nvars:
            raise ContextError("need exactly one image per variable")
        for g in images:
            if g.ring != ring:
                raise ContextError("derivation images must live in the ring")
        self.ring = ring
        self.images = images

    def image(self, var) -> Polynomial:
        return self.images[self.ring.var_index(var)]

    def is_zero(self) -> bool:
        return all(g.is_zero() for g in self.images)

    def is_linear(self) -> bool:
        """True when every image is homogeneous of degree 1 (or zero)."""
        return all(g.is_zero() or (g.is_homogeneous() and g.total_degree() == 1)
                   for g in self.images)

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.ring == other.ring and self.images == other.images

    def __hash__(self):
        return hash((self.ring, self.images))

    def __repr__(self):
        return f"<Derivation on {self.ring!r}>"


def apply(delta: Derivation, f: Polynomial) -> Polynomial:
    """delta(f) = sum over variables of image_i * df/dx_i (Leibniz chain).

    The products are summed unreduced into one map and reduced mod p once.
    """
    ring = delta.ring
    if f.ring is not ring and f.ring != ring:
        raise ContextError("polynomial belongs to a different ring")
    p = ring.p
    sums: dict = {}
    for i, g in enumerate(delta.images):
        if g._terms:
            # df/dx_i, unreduced; exponents divisible by p differentiate to 0
            part = {exps[:i] + (exps[i] - 1,) + exps[i + 1:]: c * exps[i]
                    for exps, c in f._terms.items() if exps[i] % p}
            add_product(sums, part, g._terms)
    return Polynomial._from_sums(ring, sums)


def iterate_power(delta: Derivation, m: int) -> Derivation:
    """Derivation-shaped record of the m-fold application on each variable.

    For m = p in characteristic p the operator power of a derivation is
    again a derivation, so the images fully determine it; the vanishing
    test (additive vector field) reads them directly.
    """
    if m < 1:
        raise ValueError("iteration count must be at least 1")
    images = []
    for i in range(delta.ring.nvars):
        g = delta.ring.gen(i)
        for _ in range(m):
            g = apply(delta, g)
        images.append(g)
    return Derivation(delta.ring, images)


def chart_transform(delta: Derivation, chart,
                    names: Sequence[str] | None = None) -> Derivation:
    """Transform a linear vector field on projective space to an affine chart.

    The chart coordinate x_j/x_i has derivative
    (delta(x_j)*x_i - x_j*delta(x_i)) / x_i**2; with linear images the
    numerator is homogeneous of degree 2 and dehomogenizing it at the
    chart variable performs the division exactly.
    """
    ring = delta.ring
    i = ring.var_index(chart)
    if not delta.is_linear():
        raise TransformError("chart transforms need homogeneous linear images")
    di = delta.images[i]
    xi = ring.gen(i)
    chart_images = []
    for j in range(ring.nvars):
        if j == i:
            continue
        numerator = delta.images[j] * xi - ring.gen(j) * di
        if not numerator.is_zero() and numerator.total_degree() != 2:
            raise TransformError("chart numerator is not homogeneous of degree 2")
        chart_images.append((j, numerator))
    target_names = tuple(names) if names is not None else (
        ring.variables[:i] + ring.variables[i + 1:])
    if len(target_names) != ring.nvars - 1:
        raise ContextError("need one name per remaining variable")
    chart_ring = PolyRing(target_names, ring.p, DEGREVLEX)
    images = []
    for j, numerator in chart_images:
        if numerator.is_zero():
            images.append(chart_ring.zero())
        else:
            images.append(dehomogenize(numerator, i, names=target_names))
    return Derivation(chart_ring, images)


def _nullspace_echelon(matrix: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """Reduced-echelon basis of the right nullspace of ``matrix`` over F_p.

    Columns are taken in the given order (descending monomial order by the
    callers), and eliminated right to left.  A pivot row's other entries
    then lie in free columns left of its pivot, so the vector of a free
    column c is 1 at c and nonzero elsewhere only in pivot columns right
    of c: it leads at c, no leading position appears in another vector,
    and the vectors come out in order of their leading column.
    """
    rows = [row[:] for row in matrix if any(row)]
    pivots: dict[int, int] = {}
    r = 0
    for c in reversed(range(ncols)):
        pivot_row = None
        for k in range(r, len(rows)):
            if rows[k][c]:
                pivot_row = k
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                factor = rows[k][c]
                rows[k] = [(a - factor * b) % p for a, b in zip(rows[k], rows[r])]
        pivots[c] = r
        r += 1
    out = []
    for c in range(ncols):
        if c in pivots:
            continue
        vec = [0] * ncols
        vec[c] = 1
        for pc, pr in pivots.items():
            vec[pc] = (-rows[pr][c]) % p
        out.append(vec)
    return out


def graded_kernel(delta: Derivation, degree: int) -> list[Polynomial]:
    """Echelonized basis of the degree-``degree`` part of ker(delta).

    Exact linear algebra over F_p on the monomial basis; the result is
    reduced (each leading monomial occurs in exactly one basis element)
    and ordered with the largest leading monomial first.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    ring = delta.ring
    if not delta.is_linear():
        raise GradingError("graded kernels need degree-preserving "
                           "(homogeneous linear) images")
    monos = monomial_basis(ring, degree)  # descending
    index = {m: k for k, m in enumerate(monos)}
    p = ring.p
    # Row r = output monomial, column c = input monomial.
    matrix = [[0] * len(monos) for _ in monos]
    for c, m in enumerate(monos):
        img = apply(delta, ring.monomial(m))
        for e, coeff in img._terms.items():
            matrix[index[e]][c] = coeff
    kernel = _nullspace_echelon(matrix, len(monos), p)
    out = []
    for vec in kernel:
        terms = {monos[c]: v for c, v in enumerate(vec) if v}
        out.append(Polynomial._raw(ring, terms))
    return out


def vector_reduce(f: Polynomial, echelon_basis: Sequence[Polynomial]) -> Polynomial:
    """Linear reduction against an echelonized basis (no search involved).

    Subtracts multiples so every basis leading monomial is cleared;
    membership in the spanned vector space is equivalent to a zero result.
    """
    for g in echelon_basis:
        if g.is_zero():
            continue
        lm = g.leading_monomial()
        coeff = f.coefficient(lm)
        if coeff:
            lc = g.leading_coefficient()
            p = f.ring.p
            factor = (coeff * pow(lc, p - 2, p)) % p
            f = f - f.ring.constant(factor) * g
    return f


def fixed_locus_ideal(delta: Derivation) -> list[Polynomial]:
    """2x2 minors of the matrix with rows (images) and (variables).

    The projective zero set is the locus where the vector field is
    proportional to the radial direction, i.e. its fixed points.  Minors
    are enumerated over index pairs (i, j), i < j, lexicographically;
    identically-zero minors are dropped.
    """
    ring = delta.ring
    if not delta.is_linear():
        raise GradingError("fixed-locus ideals need homogeneous linear images")
    out = []
    for i in range(ring.nvars):
        for j in range(i + 1, ring.nvars):
            m = delta.images[i] * ring.gen(j) - delta.images[j] * ring.gen(i)
            if not m.is_zero():
                out.append(m)
    return out


# -- serialization -------------------------------------------------------------


def format_derivation(delta: Derivation) -> str:
    """One `variable -> polynomial` line per variable."""
    return "\n".join(f"{name} -> {delta.images[i]}"
                     for i, name in enumerate(delta.ring.variables))


def parse_derivation(ring: PolyRing, text: str) -> Derivation:
    """Parse `variable -> polynomial` lines; omitted variables map to zero."""
    images = {i: ring.zero() for i in range(ring.nvars)}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise ParseError(f"line {lineno}: expected `variable -> polynomial`")
        left, right = line.split("->", 1)
        name = left.strip()
        i = ring.var_index(name)
        if i in seen:
            raise ParseError(f"line {lineno}: duplicate image for {name}")
        seen.add(i)
        images[i] = parse_poly(ring, right.strip())
    return Derivation(ring, [images[i] for i in range(ring.nvars)])
