"""Groebner machinery over prime fields.

Reduction, Buchberger with a processed-pair budget, membership with
re-verifiable cofactor witnesses (over one reusable tracked basis, from
the extended Buchberger algorithm), radical membership, elimination,
ring-map kernels via graph ideals, and Jacobian smoothness certificates.
The heavy loops run in a kernel backend, and ``_run_kernel`` is the one
place that calls one: on the selected backend (compiled when available),
or on the pure kernel for cofactor tracking.  It takes a ring's shape and
term maps, so auxiliary systems need no ring of their own.  A call past
the compiled kernel's limits raises OverflowError there and reruns on the
pure kernel, whose results are byte-identical by construction.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

from . import backend as _backend
from .errors import ContextError, EngineError
from .rings import (DEGREVLEX, MonomialOrder, PolyRing, Polynomial, add_product,
                    block_order, substitute)

DEFAULT_BUDGET = 100000

SMOOTH = "smooth"
SMOOTH_ON_LOCUS = "smooth-on-locus"
INCONCLUSIVE = "inconclusive"


# -- plumbing -----------------------------------------------------------------


def _common_ring(polys: Sequence[Polynomial]) -> PolyRing:
    if not polys:
        raise ValueError("need at least one polynomial to infer the ring")
    ring = polys[0].ring
    for f in polys[1:]:
        if f.ring != ring:
            raise ContextError("polynomials belong to different rings")
    return ring


def _run_kernel(nvars: int, p: int, order: MonomialOrder,
                backend_name: str | None, fn: str, *args, **kwargs):
    """``fn(*args, nvars, p, order.kind, split=order.split, **kwargs)`` on
    the named kernel, for a ring of that shape.

    Returns ``(result, backend name)``.  The compiled kernel raises
    OverflowError for a ring past its static limits, or when a monomial
    outgrows its fields, at the inputs or mid-run; the call then reruns
    on the pure kernel.  A polynomial crosses as its term map
    ``{exponents: coefficient in 1..p-1}``, such as ``Polynomial._terms``;
    maps come back new, largest monomial first.
    """
    def call(kern):
        return (getattr(kern, fn)(*args, nvars, p, order.kind,
                                  split=order.split, **kwargs),
                kern.BACKEND_NAME)

    kern = _backend.get(backend_name)
    try:
        return call(kern)
    except OverflowError:
        pure = _backend.get("pure")
        if kern is pure:
            raise
        return call(pure)


# -- results ------------------------------------------------------------------


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis, leading monomials descending; a tracked one
    also holds its inputs and, ignored by ``==``, each element's cofactor
    term maps over them (``rows``)."""

    ring: PolyRing
    polynomials: tuple[Polynomial, ...]
    pairs_processed: int
    backend: str
    generators: tuple[Polynomial, ...] | None = None
    rows: list | None = field(default=None, compare=False)

    def __iter__(self):
        return iter(self.polynomials)

    def __len__(self):
        return len(self.polynomials)

    def is_unit_ideal(self) -> bool:
        return (len(self.polynomials) == 1
                and self.polynomials[0] == self.ring.one())

    def leading_monomials(self) -> tuple[tuple, ...]:
        return tuple(f.leading_monomial() for f in self.polynomials)


@dataclass(frozen=True)
class CombinationWitness:
    """States target = sum(cofactor_i * generator_i) + remainder.

    ``verify`` re-checks the identity by plain expansion, with no search.
    """

    target: Polynomial
    generators: tuple[Polynomial, ...]
    cofactors: tuple[Polynomial, ...]
    remainder: Polynomial

    @property
    def is_member(self) -> bool:
        return self.remainder.is_zero()

    def verify(self) -> bool:
        if len(self.cofactors) != len(self.generators):
            return False
        ring = self.remainder.ring
        sums = dict(self.remainder._terms)
        for cof, gen in zip(self.cofactors, self.generators):
            for f in (cof, gen):
                if f.ring is not ring and f.ring != ring:
                    raise ContextError("operands belong to different rings")
            add_product(sums, cof._terms, gen._terms)
        return Polynomial._from_sums(ring, sums) == self.target


@dataclass(frozen=True)
class KernelPresentation:
    """Generators of a ring-map kernel plus how they were obtained."""

    source_ring: PolyRing
    generators: tuple[Polynomial, ...]
    seeds: tuple[Polynomial, ...]
    pairs_processed: int
    backend: str


@dataclass(frozen=True)
class SmoothnessCertificate:
    """Jacobian-criterion verdict with re-verifiable evidence.

    ``smooth``: 1 lies in (generators) + (minors); ``unit_witness`` expands
    to 1 over exactly that list.  ``smooth-on-locus``: 1 appears only after
    adding the locus generators.  ``inconclusive``: neither; ``residual``
    holds the reduced basis of the largest system tried.
    """

    verdict: str
    generators: tuple[Polynomial, ...]
    minors: tuple[Polynomial, ...]
    locus: tuple[Polynomial, ...]
    codim: int
    unit_witness: CombinationWitness | None
    residual: tuple[Polynomial, ...] | None
    pairs_processed: int

    def verify(self) -> bool:
        if self.verdict == INCONCLUSIVE:
            return self.residual is not None
        w = self.unit_witness
        if w is None or not w.target == w.target.ring.one():
            return False
        expected = self.generators + self.minors
        if self.verdict == SMOOTH_ON_LOCUS:
            expected = expected + self.locus
        return w.generators == expected and w.is_member and w.verify()


# -- elementary operations ----------------------------------------------------


def spolynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The S-polynomial: both leading terms lifted to their lcm and cancelled."""
    ring = _common_ring([f, g])
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomials need nonzero operands")
    lm_f, lm_g = f.leading_monomial(), g.leading_monomial()
    lcm = tuple(max(a, b) for a, b in zip(lm_f, lm_g))
    shift_f = ring.monomial(tuple(l - a for l, a in zip(lcm, lm_f)))
    shift_g = ring.monomial(tuple(l - a for l, a in zip(lcm, lm_g)))
    return shift_f * f.monic() - shift_g * g.monic()


def _reducer_polys(reducers) -> list[Polynomial]:
    if isinstance(reducers, GroebnerBasis):
        return list(reducers.polynomials)
    out = list(reducers)
    if not all(isinstance(f, Polynomial) for f in out):
        raise TypeError("reducers must be polynomials or a GroebnerBasis")
    return out


def reduce(f: Polynomial, reducers, backend_name: str | None = None) -> Polynomial:
    """Full normal form of f against the reducers, in their given order."""
    polys = _reducer_polys(reducers)
    ring = _common_ring([f] + polys) if polys else f.ring
    live = [g._terms for g in polys if g._terms]
    if f.is_zero() or not live:
        return f
    out, _ = _run_kernel(ring.nvars, ring.p, ring.order, backend_name,
                         "normal_form", f._terms, live)
    return Polynomial._raw(ring, out)


def reduce_tracked(f: Polynomial, reducers) -> tuple[Polynomial, tuple[Polynomial, ...]]:
    """Normal form plus per-reducer quotients (pure kernel; exact identity
    f = sum(quotient_i * reducer_i) + remainder)."""
    polys = _reducer_polys(reducers)
    ring = _common_ring([f] + polys) if polys else f.ring
    (r, quots), _ = _run_kernel(ring.nvars, ring.p, ring.order, "pure",
                                "normal_form_tracked", f._terms,
                                [g._terms for g in polys])
    return (Polynomial._raw(ring, r),
            tuple(Polynomial._raw(ring, q) for q in quots))


def buchberger(gens: Sequence[Polynomial], budget: int | None = DEFAULT_BUDGET,
               backend_name: str | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Raises BudgetExceeded when more than ``budget`` S-pairs are processed;
    pass ``budget=None`` to run unbounded.
    """
    gens = list(gens)
    ring = _common_ring(gens)
    live = [g._terms for g in gens if g._terms]
    (basis_terms, pairs), name = _run_kernel(
        ring.nvars, ring.p, ring.order, backend_name, "buchberger", live,
        budget=budget)
    polys = tuple(Polynomial._raw(ring, t) for t in basis_terms)
    return GroebnerBasis(ring=ring, polynomials=polys, pairs_processed=pairs,
                         backend=name)


def _buchberger_tracked(gens: Sequence[Polynomial], budget: int | None):
    """Pure-kernel Buchberger: a ``GroebnerBasis`` that also keeps each
    element's cofactor row over ``gens``, zero generators included."""
    gens = list(gens)
    ring = _common_ring(gens)
    (basis, rows, pairs, _), name = _run_kernel(
        ring.nvars, ring.p, ring.order, "pure", "buchberger_tracked",
        [g._terms for g in gens], budget=budget)
    polys = tuple(Polynomial._raw(ring, t) for t in basis)
    return GroebnerBasis(ring=ring, polynomials=polys, pairs_processed=pairs,
                         backend=name, generators=tuple(gens), rows=rows)


def ideal_member(f: Polynomial, gens, budget: int | None = DEFAULT_BUDGET,
                 witness: bool = False, backend_name: str | None = None):
    """Decide membership of f in the ideal generated by ``gens``.

    A list of generators becomes a basis first (tracked when ``witness``);
    pass a basis to reuse it.  With ``witness=True`` returns ``(bool,
    CombinationWitness)``; the witness expresses f over the generators as
    given (over the basis polynomials for a basis without rows) and
    re-verifies by expansion.  Without, returns a bare bool.
    """
    if not isinstance(gens, GroebnerBasis):
        gens = list(gens)
        gens = (_buchberger_tracked(gens, budget) if witness else
                buchberger(gens, budget=budget, backend_name=backend_name))
    if not witness:
        return reduce(f, gens, backend_name=backend_name).is_zero()
    r, quots = reduce_tracked(f, gens)
    if gens.rows is None:
        return r.is_zero(), CombinationWitness(f, gens.polynomials, quots, r)
    sums = [{} for _ in gens.generators]  # k: sum_j quots[j] * rows[j][k]
    for q, row in zip(quots, gens.rows):
        for s, g in zip(sums, row):
            add_product(s, q._terms, g)
    cofactors = tuple(Polynomial._from_sums(f.ring, s) for s in sums)
    return r.is_zero(), CombinationWitness(f, gens.generators, cofactors, r)


def radical_member(f: Polynomial, gens: Sequence[Polynomial],
                   budget: int | None = DEFAULT_BUDGET,
                   backend_name: str | None = None) -> bool:
    """Radical membership via the auxiliary-variable localization trick:
    f is in the radical iff 1 lies in (gens, 1 - T*f), T an extra exponent."""
    gens = list(gens)
    ring = _common_ring([f] + gens)
    n, p = ring.nvars, ring.p
    one = (0,) * (n + 1)
    system = [{e + (0,): c for e, c in g._terms.items()}
              for g in gens if g._terms]
    system.append({one: 1, **{e + (1,): p - c for e, c in f._terms.items()}})
    (basis, _), _ = _run_kernel(n + 1, p, DEGREVLEX, backend_name,
                                "buchberger", system, budget=budget)
    return basis[0] == {one: 1}


# -- elimination and ring-map kernels ------------------------------------------


def eliminate(gens: Sequence[Polynomial], drop, budget: int | None = DEFAULT_BUDGET,
              backend_name: str | None = None) -> list[Polynomial]:
    """Generators of I ∩ k[kept variables].

    ``drop`` lists the variables to eliminate (names or indices).  The
    result is the reduced degrevlex Groebner basis of the intersection
    ideal, living in a fresh ring on the kept variables; it is complete
    for the intersection by the elimination property of block orders.
    """
    gens = list(gens)
    ring = _common_ring(gens)
    drop_idx = sorted({ring.var_index(v) for v in drop})
    if not drop_idx:
        raise ValueError("nothing to eliminate")
    if len(drop_idx) >= ring.nvars:
        raise ValueError("cannot eliminate every variable")
    keep_idx = [i for i in range(ring.nvars) if i not in drop_idx]
    perm = operator.itemgetter(*(drop_idx + keep_idx))
    system = [{perm(e): c for e, c in g._terms.items()}
              for g in gens if g._terms]
    kept, _, _ = _eliminate(system, ring.nvars, ring.p, len(drop_idx),
                            budget, backend_name)
    target = PolyRing([ring.variables[i] for i in keep_idx], ring.p, DEGREVLEX)
    return [Polynomial._raw(target, t) for t in kept]


def _eliminate(system: list, nvars: int, p: int, nd: int, budget: int | None,
               backend_name: str | None) -> tuple[list[dict], int, str]:
    """``(kept, pairs, backend)``: kept are the elements of the block-order
    basis of ``system`` (term maps, the ``nd`` dropped variables first)
    free of those variables, as term maps over the rest, in basis order.
    An element whose leading monomial is free of them is free of them
    throughout: that is the elimination property of the block order."""
    (basis, pairs), name = _run_kernel(nvars, p, block_order(nd),
                                       backend_name, "buchberger", system,
                                       budget=budget)
    kept = [{e[nd:]: c for e, c in t.items()} for t in basis
            if not any(next(iter(t))[:nd])]
    return kept, pairs, name


def frobenius_seeds(source_ring: PolyRing, target_ring: PolyRing,
                    images: Sequence[Polynomial]) -> list[Polynomial]:
    """Kernel elements of shape S^p - twist(image), available whenever every
    target variable in the image has its p-th power among the images.

    Over the prime field (c^p = c) the p-th power of an image rewrites
    exactly as the image's exponent pattern over those preimage variables,
    so each seed maps to image^p - image^p = 0: a kernel member for free.
    Each seed is substitution-checked as it is built (EngineError if it
    fails); seeds come in image order.
    """
    p = source_ring.p
    preimage: dict[int, int] = {}
    for i, g in enumerate(images):
        terms = g._terms
        if len(terms) != 1:
            continue
        (exps, coeff), = terms.items()
        if coeff != 1 or sum(exps) != p or max(exps) != p:
            continue
        j = exps.index(p)
        preimage.setdefault(j, i)

    seeds = []
    n = source_ring.nvars
    for i, g in enumerate(images):
        support = {j for e in g._terms for j, v in enumerate(e) if v}
        if not support or not support.issubset(preimage):
            continue
        twist = {}
        for e, c in g._terms.items():
            exps = [0] * n
            for j, v in enumerate(e):
                if v:
                    exps[preimage[j]] = v
            twist[tuple(exps)] = c
        head = [0] * n
        head[i] = p
        head = tuple(head)
        twist[head] = (twist.get(head, 0) - 1) % p
        seed = -Polynomial(source_ring, twist)
        if seed.is_zero():
            continue
        if not substitute(seed, target_ring, list(images)).is_zero():
            raise EngineError("internal error: frobenius seed fails the "
                              "substitution check")
        seeds.append(seed)
    return seeds


def ring_map_kernel(source_ring: PolyRing, target_ring: PolyRing,
                    images: Sequence[Polynomial],
                    budget: int | None = DEFAULT_BUDGET,
                    backend_name: str | None = None) -> KernelPresentation:
    """Kernel of the ring map sending each source variable to its image.

    Builds the graph ideal (source_var - image) as term maps over the
    target variables followed by the source ones, adds the Frobenius-power
    seeds (see ``frobenius_seeds``) whenever there are any, then eliminates
    the target variables as ``eliminate`` does.  The seeds lie in the
    graph ideal, so the answer is that of the plain graph ideal; they keep
    the pair count small on p-th-power subring instances.  Every returned
    generator is substitution-checked to actually vanish.
    """
    images = list(images)
    if len(images) != source_ring.nvars:
        raise ContextError("need exactly one image per source variable")
    for g in images:
        if g.ring != target_ring:
            raise ContextError("images must live in the target ring")
    if source_ring.p != target_ring.p:
        raise ContextError("characteristics differ")
    overlap = set(source_ring.variables) & set(target_ring.variables)
    if overlap:
        raise ContextError(f"source and target variables overlap: {sorted(overlap)}")

    nt, ns = target_ring.nvars, source_ring.nvars
    p, zt, zs = target_ring.p, (0,) * nt, (0,) * ns
    # source_var_i - image_i, target exponents first
    graph = [{zt + zs[:i] + (1,) + zs[i + 1:]: 1,
              **{e + zs: p - c for e, c in g._terms.items()}}
             for i, g in enumerate(images)]
    seeds = frobenius_seeds(source_ring, target_ring, images)
    graph.extend({zt + e: c for e, c in g._terms.items()} for g in seeds)

    kept, pairs, name = _eliminate(graph, nt + ns, p, nt, budget, backend_name)
    out = [Polynomial._raw(source_ring, t) for t in kept]
    for g in out:
        if not substitute(g, target_ring, images).is_zero():
            raise EngineError("internal error: eliminated generator fails the "
                              "substitution check")
    return KernelPresentation(source_ring=source_ring, generators=tuple(out),
                              seeds=tuple(seeds), pairs_processed=pairs,
                              backend=name)


# -- smoothness ----------------------------------------------------------------


def _determinant(matrix: list[list[Polynomial]], ring: PolyRing) -> Polynomial:
    """Cofactor expansion along row 0, all products summed into one map."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    sums = {}
    for j, entry in enumerate(matrix[0]):
        if entry._terms:
            sub = [row[:j] + row[j + 1:] for row in matrix[1:]]
            add_product(sums, {e: -v if j % 2 else v
                               for e, v in entry._terms.items()},
                        _determinant(sub, ring)._terms)
    return Polynomial._from_sums(ring, sums)


def jacobian_minors(gens: Sequence[Polynomial], codim: int) -> list[Polynomial]:
    """All nonzero codim×codim minors of the Jacobian of ``gens``.

    Partial derivatives are the formal characteristic-p ones, so p-th
    powers differentiate to zero — that exactness is load-bearing for the
    certificates and must not be altered.  Enumeration order: row subsets,
    then column subsets, both lexicographic.
    """
    gens = list(gens)
    ring = _common_ring(gens)
    if not 1 <= codim <= min(len(gens), ring.nvars):
        raise ValueError("codim must fit inside the Jacobian")
    jac = [[g.derivative(i) for i in range(ring.nvars)] for g in gens]
    out = []
    for rows in itertools.combinations(range(len(gens)), codim):
        for cols in itertools.combinations(range(ring.nvars), codim):
            sub = [[jac[r][c] for c in cols] for r in rows]
            m = _determinant(sub, ring)
            if not m.is_zero():
                out.append(m)
    return out


def jacobian_smoothness(gens: Sequence[Polynomial], codim: int,
                        locus: Sequence[Polynomial] = (),
                        budget: int | None = DEFAULT_BUDGET,
                        backend_name: str | None = None) -> SmoothnessCertificate:
    """Jacobian criterion for the affine scheme cut out by ``gens``.

    ``smooth``: 1 ∈ (gens) + (codim-minors).  ``smooth-on-locus``: 1
    appears once the locus generators are added — smoothness at every
    point of the scheme lying over the locus.  Otherwise
    ``inconclusive``, carrying the reduced basis actually reached.
    """
    gens = tuple(gens)
    ring = _common_ring(list(gens))
    locus = tuple(locus)
    for f in locus:
        if f.ring != ring:
            raise ContextError("locus generators must live in the same ring")
    minors = tuple(jacobian_minors(gens, codim))
    base = list(gens) + list(minors)
    stages = [(SMOOTH, base)]
    if locus:
        stages.append((SMOOTH_ON_LOCUS, base + list(locus)))
    pairs_total = 0
    for verdict, system in stages:
        gb = buchberger(system, budget=budget, backend_name=backend_name)
        pairs_total += gb.pairs_processed
        if gb.is_unit_ideal():
            # The witness run is the same Buchberger on the same system, so
            # it processes exactly gb's pairs; they are counted once more.
            _, wit = ideal_member(ring.one(), system, budget=budget,
                                  witness=True)
            return SmoothnessCertificate(
                verdict=verdict, generators=gens, minors=minors, locus=locus,
                codim=codim, unit_witness=wit, residual=None,
                pairs_processed=pairs_total + gb.pairs_processed)
    return SmoothnessCertificate(verdict=INCONCLUSIVE, generators=gens,
                                 minors=minors, locus=locus, codim=codim,
                                 unit_witness=None, residual=gb.polynomials,
                                 pairs_processed=pairs_total)
