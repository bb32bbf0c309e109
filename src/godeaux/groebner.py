"""Groebner machinery over prime fields.

Reduction, Buchberger with a processed-pair budget, membership with
re-verifiable cofactor witnesses, radical membership, elimination,
ring-map kernels via graph ideals, and Jacobian smoothness certificates.
The heavy loops run in a kernel backend, and ``_run_kernel`` is the one
place that calls one: on the selected backend (compiled when available),
or on the pure kernel for cofactor tracking.  A call past the compiled
kernel's limits raises OverflowError there and reruns on the pure kernel,
whose results are byte-identical by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import backend as _backend
from .errors import ContextError, EngineError
from .rings import (DEGREVLEX, PolyRing, Polynomial, add_product, block_order,
                    substitute)

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


def _to_termlists(polys: Iterable[Polynomial]) -> list:
    return [f._terms.items() for f in polys]


def _from_terms(ring: PolyRing, terms) -> Polynomial:
    return Polynomial._raw(ring, dict(terms))


def _run_kernel(ring: PolyRing, backend_name: str | None, fn: str, *args,
                **kwargs):
    """``fn(*args, nvars, p, kind, split=..., **kwargs)`` on the named kernel.

    Returns ``(result, backend name)``.  The compiled kernel raises
    OverflowError for a ring past its static limits, or when a monomial
    outgrows its fields, at the inputs or mid-run; the call then reruns
    on the pure kernel.  Term lists go in as pairs in any order.
    """
    def call(kern):
        return (getattr(kern, fn)(*args, ring.nvars, ring.p, ring.order.kind,
                                  split=ring.order.split, **kwargs),
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
    """Reduced Groebner basis, leading monomials descending."""

    ring: PolyRing
    polynomials: tuple[Polynomial, ...]
    pairs_processed: int
    backend: str

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
    live = [g for g in polys if not g.is_zero()]
    if f.is_zero() or not live:
        return f
    out, _ = _run_kernel(ring, backend_name, "normal_form", f._terms.items(),
                         _to_termlists(live))
    return _from_terms(ring, out)


def reduce_tracked(f: Polynomial, reducers) -> tuple[Polynomial, tuple[Polynomial, ...]]:
    """Normal form plus per-reducer quotients (pure kernel; exact identity
    f = sum(quotient_i * reducer_i) + remainder)."""
    polys = _reducer_polys(reducers)
    ring = _common_ring([f] + polys) if polys else f.ring
    (r, quots), _ = _run_kernel(ring, "pure", "normal_form_tracked",
                                f._terms.items(), _to_termlists(polys))
    return (_from_terms(ring, r),
            tuple(_from_terms(ring, q) for q in quots))


def buchberger(gens: Sequence[Polynomial], budget: int | None = DEFAULT_BUDGET,
               backend_name: str | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Raises BudgetExceeded when more than ``budget`` S-pairs are processed;
    pass ``budget=None`` to run unbounded.
    """
    ring = _common_ring(list(gens))
    live = [g for g in gens if not g.is_zero()]
    (basis_terms, pairs), name = _run_kernel(
        ring, backend_name, "buchberger", _to_termlists(live), budget=budget)
    polys = tuple(_from_terms(ring, t) for t in basis_terms)
    return GroebnerBasis(ring=ring, polynomials=polys, pairs_processed=pairs,
                         backend=name)


def _buchberger_tracked(gens: Sequence[Polynomial], budget: int | None):
    """Pure-kernel Buchberger with cofactors over the original generators.

    Returns ``(basis, reps, pairs)`` as in
    ``_kernel_pure.buchberger_tracked``, with polynomials for term lists.
    """
    ring = _common_ring(list(gens))
    (basis, reps, pairs, _), _ = _run_kernel(
        ring, "pure", "buchberger_tracked", _to_termlists(gens), budget=budget)
    return ([_from_terms(ring, t) for t in basis],
            [[_from_terms(ring, r) for r in rep] for rep in reps], pairs)


def ideal_member(f: Polynomial, gens, budget: int | None = DEFAULT_BUDGET,
                 witness: bool = False, backend_name: str | None = None):
    """Decide membership of f in the ideal generated by ``gens``.

    With ``witness=True`` returns ``(bool, CombinationWitness | None)``;
    the witness expresses f over the generators exactly as given (or over
    the basis polynomials when a GroebnerBasis is passed) and re-verifies
    by expansion.  Without, returns a bare bool.
    """
    if isinstance(gens, GroebnerBasis):
        if not witness:
            return reduce(f, gens, backend_name=backend_name).is_zero()
        r, quots = reduce_tracked(f, gens)
        return r.is_zero(), CombinationWitness(target=f,
                                               generators=gens.polynomials,
                                               cofactors=quots, remainder=r)
    gens = list(gens)
    if not witness:
        gb = buchberger(gens, budget=budget, backend_name=backend_name)
        return reduce(f, gb, backend_name=backend_name).is_zero()
    basis, reps, _ = _buchberger_tracked(gens, budget)
    r, quots = reduce_tracked(f, basis)
    sums = [{} for _ in gens]  # cofactor k = sum_j quots[j] * reps[j][k]
    for q, rep in zip(quots, reps):
        for s, g in zip(sums, rep):
            add_product(s, q._terms, g._terms)
    cofactors = tuple(Polynomial._from_sums(f.ring, s) for s in sums)
    wit = CombinationWitness(target=f, generators=tuple(gens),
                             cofactors=cofactors, remainder=r)
    return r.is_zero(), wit


def radical_member(f: Polynomial, gens: Sequence[Polynomial],
                   budget: int | None = DEFAULT_BUDGET,
                   backend_name: str | None = None) -> bool:
    """Radical membership via the auxiliary-variable localization trick:
    f is in the radical iff 1 lies in (gens, 1 - T*f) with T fresh."""
    gens = list(gens)
    ring = _common_ring([f] + gens)
    aux = "_t"
    while aux in ring.variables:
        aux += "_"
    ext = PolyRing(ring.variables + (aux,), ring.p, DEGREVLEX)

    def lift(g: Polynomial) -> Polynomial:
        return Polynomial._raw(ext, {e + (0,): c for e, c in g._terms.items()})

    t = ext.gen(aux)
    system = [lift(g) for g in gens if not g.is_zero()]
    system.append(ext.one() - t * lift(f))
    gb = buchberger(system, budget=budget, backend_name=backend_name)
    return gb.is_unit_ideal()


# -- elimination and ring-map kernels ------------------------------------------


def eliminate(gens: Sequence[Polynomial], drop, budget: int | None = DEFAULT_BUDGET,
              backend_name: str | None = None) -> list[Polynomial]:
    """Generators of I ∩ k[kept variables].

    ``drop`` lists the variables to eliminate (names or indices).  The
    result is the reduced degrevlex Groebner basis of the intersection
    ideal, living in a fresh ring on the kept variables; it is complete
    for the intersection by the elimination property of block orders.
    """
    return _eliminate(gens, drop, budget, backend_name)[0]


def _eliminate(gens: Sequence[Polynomial], drop, budget: int | None,
               backend_name: str | None) -> tuple[list[Polynomial], GroebnerBasis]:
    """``eliminate`` plus the block-order basis it projected from."""
    gens = list(gens)
    ring = _common_ring(gens)
    drop_idx = sorted({ring.var_index(v) for v in drop})
    if not drop_idx:
        raise ValueError("nothing to eliminate")
    if len(drop_idx) >= ring.nvars:
        raise ValueError("cannot eliminate every variable")
    keep_idx = [i for i in range(ring.nvars) if i not in drop_idx]
    perm = drop_idx + keep_idx  # position j of the work ring <- source var perm[j]
    work = PolyRing([ring.variables[i] for i in perm], ring.p,
                    block_order(len(drop_idx)))
    target = PolyRing([ring.variables[i] for i in keep_idx], ring.p, DEGREVLEX)

    def to_work(g: Polynomial) -> Polynomial:
        return Polynomial._raw(work, {tuple(e[i] for i in perm): c
                                      for e, c in g._terms.items()})

    gb = buchberger([to_work(g) for g in gens if not g.is_zero()],
                    budget=budget, backend_name=backend_name)
    nd = len(drop_idx)
    out = []
    for f in gb.polynomials:
        if all(all(v == 0 for v in e[:nd]) for e in f._terms):
            out.append(Polynomial._raw(target, {e[nd:]: c
                                                for e, c in f._terms.items()}))
    return out, gb


def _frobenius_seeds(source_ring: PolyRing, target_ring: PolyRing,
                     images: Sequence[Polynomial]) -> list[Polynomial]:
    """Kernel elements of shape S^p - twist(image), available whenever every
    target variable in the image has its p-th power among the images.

    Over the prime field (c^p = c) the p-th power of an image rewrites
    exactly as the image's exponent pattern over those preimage variables,
    so each seed maps to image^p - image^p = 0: a kernel member for free.
    Every candidate is still re-verified by substitution before use.
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
                    backend_name: str | None = None,
                    seed: bool = True) -> KernelPresentation:
    """Kernel of the ring map sending each source variable to its image.

    Builds the graph ideal (source_var - image) in the combined ring with
    the target variables leading, then eliminates them as ``eliminate``
    does.  Frobenius-power seeds (see ``_frobenius_seeds``) are added to
    the same ideal when available; they change nothing about the ideal
    and keep the pair count small on p-th-power subring instances.  Every
    returned generator is substitution-checked to actually vanish.
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
    combined = PolyRing(target_ring.variables + source_ring.variables,
                        target_ring.p, DEGREVLEX)

    def lift_target(g: Polynomial) -> Polynomial:
        return Polynomial._raw(combined, {e + (0,) * ns: c
                                          for e, c in g._terms.items()})

    def lift_source(g: Polynomial) -> Polynomial:
        return Polynomial._raw(combined, {(0,) * nt + e: c
                                          for e, c in g._terms.items()})

    graph = []
    for i, g in enumerate(images):
        graph.append(lift_source(source_ring.gen(i)) - lift_target(g))
    seeds = _frobenius_seeds(source_ring, target_ring, images) if seed else []
    graph.extend(lift_source(s) for s in seeds)

    kept, gb = _eliminate(graph, range(nt), budget, backend_name)
    out = [Polynomial._raw(source_ring, g._terms) for g in kept]
    for g in out:
        if not substitute(g, target_ring, images).is_zero():
            raise EngineError("internal error: eliminated generator fails the "
                              "substitution check")
    return KernelPresentation(source_ring=source_ring, generators=tuple(out),
                              seeds=tuple(seeds), pairs_processed=gb.pairs_processed,
                              backend=gb.backend)


# -- smoothness ----------------------------------------------------------------


def _determinant(matrix: list[list[Polynomial]], ring: PolyRing) -> Polynomial:
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    if n == 2:
        return matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    total = ring.zero()
    rest = matrix[1:]
    for j in range(n):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        sub = [row[:j] + row[j + 1:] for row in rest]
        cof = entry * _determinant(sub, ring)
        total = total + cof if j % 2 == 0 else total - cof
    return total


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


def _unit_witness(system: Sequence[Polynomial],
                  budget: int | None) -> tuple[CombinationWitness | None, int]:
    """Cofactors expressing 1 over ``system`` (pure kernel; the run stops
    as soon as 1 appears)."""
    basis, reps, pairs = _buchberger_tracked(system, budget)
    ring = system[0].ring
    if basis != [ring.one()]:
        return None, pairs
    wit = CombinationWitness(target=ring.one(), generators=tuple(system),
                             cofactors=tuple(reps[0]), remainder=ring.zero())
    return wit, pairs


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
            wit, pairs = _unit_witness(system, budget)
            return SmoothnessCertificate(verdict=verdict, generators=gens,
                                         minors=minors, locus=locus,
                                         codim=codim, unit_witness=wit,
                                         residual=None,
                                         pairs_processed=pairs_total + pairs)
    return SmoothnessCertificate(verdict=INCONCLUSIVE, generators=gens,
                                 minors=minors, locus=locus, codim=codim,
                                 unit_witness=None, residual=gb.polynomials,
                                 pairs_processed=pairs_total)
