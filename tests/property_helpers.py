"""Randomized property campaigns, deterministic by construction.

Each suite runs at least ``CASE_TARGET`` cases with fixed seeds and
returns ``(cases_run, failures)`` where ``failures`` lists short
descriptions (empty on success).  They are shared between the property
tests and the acceptance gate, which re-reads the same outcomes.
"""

from __future__ import annotations

import os
import random

from godeaux import _kernel_pure, backend
from godeaux.backend import available_backends
from godeaux.derivations import Derivation, apply, chart_transform, graded_kernel
from godeaux.errors import BudgetExceeded, ContextError
from godeaux.fixtures import load_fixtures
from godeaux.groebner import (CombinationWitness, buchberger, reduce,
                              spolynomial)
from godeaux.rings import (DEGREVLEX, LEX, MonomialOrder, PolyRing,
                           Polynomial, block_order, dehomogenize,
                           frobenius_power, parse_poly)

CASE_TARGET = 1000

_R3 = PolyRing(("x", "y", "z"), 5, DEGREVLEX)


def _random_poly(rng: random.Random, ring: PolyRing, max_terms: int,
                 max_degree: int, allow_zero: bool = True):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exp = [0] * ring.nvars
        for _ in range(rng.randrange(max_degree + 1)):
            exp[rng.randrange(ring.nvars)] += 1
        terms[tuple(exp)] = rng.randrange(5)
    poly = ring.from_terms(terms)
    if poly.is_zero() and not allow_zero:
        return ring.one()
    return poly


def ring_axioms(n: int = CASE_TARGET):
    rng = random.Random(101)
    failures = []
    for i in range(n):
        f = _random_poly(rng, _R3, 4, 4)
        g = _random_poly(rng, _R3, 4, 4)
        h = _random_poly(rng, _R3, 4, 4)
        checks = (
            ((f + g) + h == f + (g + h), "additive associativity"),
            (f + g == g + f, "additive commutativity"),
            ((f * g) * h == f * (g * h), "multiplicative associativity"),
            (f * g == g * f, "multiplicative commutativity"),
            (f * (g + h) == f * g + f * h, "distributivity"),
            (f + (-f) == _R3.zero(), "additive inverse"),
            (f * _R3.one() == f, "multiplicative identity"),
            (f ** 2 == f * f, "power consistency"),
        )
        for ok, label in checks:
            if not ok:
                failures.append(f"case {i}: {label}")
    return n, failures[:5]


def leibniz(n: int = CASE_TARGET):
    rng = random.Random(202)
    failures = []
    for i in range(n):
        images = [_random_poly(rng, _R3, 3, 2) for _ in range(3)]
        delta = Derivation(_R3, images)
        f = _random_poly(rng, _R3, 4, 3)
        g = _random_poly(rng, _R3, 4, 3)
        lhs = apply(delta, f * g)
        rhs = apply(delta, f) * g + f * apply(delta, g)
        if lhs != rhs:
            failures.append(f"case {i}: Leibniz violated")
    return n, failures[:5]


def frobenius_oracle(n: int = CASE_TARGET):
    rng = random.Random(303)
    failures = []
    for i in range(n):
        f = _random_poly(rng, _R3, 3, 3)
        if frobenius_power(f) != f ** 5:
            failures.append(f"case {i}: frobenius_power != f**5")
    return n, failures[:5]


def reduce_idempotence(n: int = CASE_TARGET):
    rng = random.Random(404)
    failures = []
    cases = 0
    while cases < n:
        gens = [_random_poly(rng, _R3, 3, 3, allow_zero=False)
                for _ in range(rng.randrange(2, 4))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens, budget=50000)
        for _ in range(10):
            f = _random_poly(rng, _R3, 4, 4)
            r = reduce(f, gb)
            if reduce(r, gb) != r:
                failures.append(f"case {cases}: normal form not idempotent")
            cases += 1
    return cases, failures[:5]


def spair_vanishing(n: int = CASE_TARGET):
    rng = random.Random(505)
    failures = []
    cases = 0
    while cases < n:
        gens = [_random_poly(rng, _R3, 3, 3, allow_zero=False)
                for _ in range(rng.randrange(2, 4))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens, budget=50000)
        basis = gb.polynomials
        pairs = [(i, j) for i in range(len(basis))
                 for j in range(i + 1, len(basis))]
        rng.shuffle(pairs)
        for i, j in pairs[:15]:
            s = spolynomial(basis[i], basis[j])
            if not reduce(s, gb).is_zero():
                failures.append(f"case {cases}: S-pair did not vanish")
            cases += 1
    return cases, failures[:5]


def _kernel_data():
    fx = load_fixtures()
    basis = graded_kernel(fx.field, 5)
    charts = {}
    for chart in ("x3", "x2", "x1"):
        charts[chart] = chart_transform(fx.field, chart,
                                        names=fx.chart_vars[chart])
    return fx, basis, charts


def _random_kernel_element(rng, fx, basis):
    element = fx.ring.zero()
    for b in basis:
        c = rng.randrange(5)
        if c:
            element = element + fx.ring.constant(c) * b
    return element


def kernel_closure(n: int = CASE_TARGET):
    rng = random.Random(606)
    fx, basis, _ = _kernel_data()
    failures = []
    for i in range(n):
        f = _random_kernel_element(rng, fx, basis)
        g = _random_kernel_element(rng, fx, basis)
        if not apply(fx.field, f * g).is_zero():
            failures.append(f"case {i}: kernel not closed under product")
    return n, failures[:5]


def chart_compatibility(n: int = CASE_TARGET):
    from godeaux.rings import dehomogenize
    rng = random.Random(707)
    fx, basis, charts = _kernel_data()
    failures = []
    for i in range(n):
        f = _random_kernel_element(rng, fx, basis)
        if f.is_zero():
            continue
        chart = ("x3", "x2", "x1")[rng.randrange(3)]
        fd = dehomogenize(f, chart, names=fx.chart_vars[chart])
        if not apply(charts[chart], fd).is_zero():
            failures.append(f"case {i}: dehomogenized element "
                            f"not invariant on chart {chart}")
    return n, failures[:5]


def _kernel_outcome(fn, *args, **kwargs):
    """``repr`` of a kernel call's result, of its budget counts, or of the
    exception it raised."""
    try:
        return repr(fn(*args, **kwargs))
    except BudgetExceeded as exc:
        return repr(("budget", exc.pairs_processed, exc.basis_size))
    except Exception as exc:  # compared, not swallowed
        return repr(exc)


def _term_order_failures(kern, gens, f, kind, shuffler):
    """Labels of ``kern``'s calls whose output changes when each input
    term list is shuffled instead of sorted largest-monomial-first."""
    ring = gens[0].ring
    split = 1 if kind == "block" else None

    def term_lists(arrange):
        lists = [list(g.terms().items()) for g in [f] + gens]
        for t in lists:
            arrange(t)
        return lists

    inputs = (term_lists(lambda t: t.sort(key=lambda term: ring.sort_key(
        term[0]), reverse=True)), term_lists(shuffler.shuffle))
    calls = [("buchberger", dict(budget=2000)), ("normal_form", {})]
    if kern is _kernel_pure:
        calls += [("buchberger_tracked", dict(budget=2000)),
                  ("normal_form_tracked", {})]
    failures = []
    for name, kwargs in calls:
        outs = set()
        for f_terms, *gens_terms in inputs:
            args = (gens_terms,) if name.startswith("buchberger") else \
                (f_terms, gens_terms)
            outs.add(_kernel_outcome(getattr(kern, name), *args, ring.nvars,
                                     ring.p, kind, split=split, **kwargs))
        if len(outs) != 1:
            failures.append(f"{kern.BACKEND_NAME} {name} {kind}")
    return failures


def cross_backend_mirror(n: int = 150):
    """Identical bases, normal forms (modulo the basis and modulo the raw
    generators), and budget behaviour per backend, and on each kernel the
    same output for sorted and shuffled input term lists, in all three
    order kinds."""
    if "compiled" not in available_backends():
        return 0, ["compiled backend unavailable"]
    rng = random.Random(808)
    shuffler = random.Random(8080)  # apart, so the cases stay as they were
    failures = []
    cases = 0
    lex_ring = PolyRing(("x", "y", "z"), 5, LEX)
    for i in range(n):
        # keep lex instances tiny: lex normal forms can blow up otherwise
        if i % 3 == 0:
            ring, max_terms, max_degree = lex_ring, 3, 2
        else:
            ring, max_terms, max_degree = _R3, 3, 3
        gens = [_random_poly(rng, ring, max_terms, max_degree,
                             allow_zero=False)
                for _ in range(rng.randrange(2, 4))]
        outcomes = {}
        for name in ("pure", "compiled"):
            try:
                gb = buchberger(gens, budget=2000, backend_name=name)
                outcomes[name] = ("basis", gb.polynomials, gb.pairs_processed)
            except BudgetExceeded as exc:
                outcomes[name] = ("budget", exc.pairs_processed,
                                  exc.basis_size)
        if outcomes["pure"] != outcomes["compiled"]:
            failures.append(f"case {i}: backend outcomes differ")
        elif outcomes["pure"][0] == "basis":
            gb = buchberger(gens, budget=2000)
            f = _random_poly(rng, ring, 4, 3)
            nf_pure = reduce(f, gb, backend_name="pure")
            nf_comp = reduce(f, gb, backend_name="compiled")
            if nf_pure != nf_comp:
                failures.append(f"case {i}: normal forms differ")
        kind = ("lex", ring.order.kind, "block")[i % 3]
        f = _random_poly(shuffler, ring, 4, 3)
        # the raw generators are rarely monic, unlike a reduced basis
        if (reduce(f, gens, backend_name="pure")
                != reduce(f, gens, backend_name="compiled")):
            failures.append(f"case {i}: normal forms over the generators "
                            "differ")
        for name in ("pure", "compiled"):
            for label in _term_order_failures(backend.get(name), gens, f,
                                              kind, shuffler):
                failures.append(f"case {i}: {label} depends on term order")
        cases += 1
    return cases, failures[:5]


def tracked_mirror(n: int = 150):
    """Pure kernel only: the cofactor-tracking run of Buchberger matches
    the plain one (basis and pair count, or budget counts), and every
    cofactor row expands back to its basis element over the inputs."""
    rng = random.Random(909)
    failures = []
    lex_ring = PolyRing(("x", "y", "z"), 5, LEX)
    for i in range(n):
        if i % 3 == 0:
            ring, max_terms, max_degree = lex_ring, 3, 2
        else:
            ring, max_terms, max_degree = _R3, 4, 3
        gens = [_random_poly(rng, ring, max_terms, max_degree)
                for _ in range(rng.randrange(2, 5))]
        args = ([g.items_sorted() for g in gens], ring.nvars, ring.p,
                ring.order.kind)
        budget = 2 if i % 4 == 0 else 2000
        try:
            plain = _kernel_pure.buchberger(*args, budget=budget)
        except BudgetExceeded as exc:
            plain = ("budget", exc.pairs_processed, exc.basis_size)
        try:
            basis, reps, pairs, _ = _kernel_pure.buchberger_tracked(
                *args, budget=budget)
            tracked = (basis, pairs)
        except BudgetExceeded as exc:
            reps, tracked = [], ("budget", exc.pairs_processed, exc.basis_size)
        if tracked != plain:
            failures.append(f"case {i}: tracked and plain outcomes differ")
            continue
        for b, rep in zip(tracked[0], reps):
            acc = ring.zero()
            for r, g in zip(rep, gens):
                acc = acc + ring.from_terms(dict(r)) * g
            if acc != ring.from_terms(dict(b)):
                failures.append(f"case {i}: cofactors do not expand back")
    return n, failures[:5]


def _boundary_exponents(rng: random.Random, nvars: int, bound: int) -> list:
    """Exponents whose total degree is at most ``bound``, often exactly it."""
    total = bound if rng.random() < 0.5 else rng.randrange(bound + 1)
    exps = [0] * nvars
    for _ in range(total):
        exps[rng.randrange(nvars)] += 1
    return exps


def packed_encoding(n: int = CASE_TARGET):
    """The pure kernel's packed monomials against ``MonomialOrder.key``:
    int order equals key order, packing is additive, and the guard-bit
    test equals componentwise divisibility, up to the field-width limit."""
    rng = random.Random(1010)
    failures = []
    for i in range(n):
        nvars = rng.randrange(1, 7)
        kind = ("degrevlex", "lex", "block")[i % 3]
        if kind == "block" and nvars < 2:
            kind = "lex"
        split = rng.randrange(1, nvars) if kind == "block" else None
        order = MonomialOrder(kind, split)
        width = rng.randrange(1, 11)
        pk = _kernel_pure._Packing(nvars, kind, split, width)
        bound = pk.mask
        a = _boundary_exponents(rng, nvars, bound)
        b = _boundary_exponents(rng, nvars, bound)
        c = _boundary_exponents(rng, nvars, bound - sum(a))
        ea, eb = pk.enc(a), pk.enc(b)
        ka, kb = order.key(a), order.key(b)
        if (ea < eb, ea == eb) != (ka < kb, ka == kb):
            failures.append(f"case {i}: packed order differs from key order")
        if ea + pk.enc(c) != pk.enc([x + y for x, y in zip(a, c)]):
            failures.append(f"case {i}: packing is not additive")
        for lo, hi, elo, ehi in ((a, b, ea, eb), (c, a, pk.enc(c), ea)):
            divides = all(x <= y for x, y in zip(lo, hi))
            if divides == bool((ehi - elo) & pk.guard):
                failures.append(f"case {i}: guard-bit divisibility is wrong")
        if pk.dec(ea) != tuple(a):
            failures.append(f"case {i}: decoding does not invert encoding")
    return n, failures[:5]


def _boundary_cases(rng: random.Random, limit: int):
    """(label, generators, hand-known basis or None, polynomial to reduce)."""
    for order in (LEX, block_order(1)):
        ring = PolyRing(("x", "y", "z"), 5, order)
        x, y, z = ring.gens()
        # z^(k^2) outgrows 16-bit fields from k = 256 on; x - y^k with
        # x^2 - 1 needs y^(2k), past the limit from k = 2^15 on.
        for k in (255, 256, 257, rng.randrange(240, 272)):
            yield (f"{order} tower k={k}", [x - y ** k, y - z ** k, x - 1],
                   [x - 1, y - z ** k, z ** (k * k) - 1]
                   if order == LEX else None, x)
        for k in (2 ** 15 - 1, 2 ** 15, 2 ** 16 - 1, 2 ** 16,
                  rng.randrange(2 ** 16 - 16, 2 ** 16 + 16)):
            yield (f"{order} square k={k}", [x - y ** k, x ** 2 - 1],
                   [x - y ** k, y ** (2 * k) - 1], x ** 2)
    for order in (DEGREVLEX, LEX, block_order(1)):
        ring = PolyRing(("x", "y"), 5, order)
        x, y = ring.gens()
        for degree in (limit, limit + 1):
            a, c = rng.randrange(1, 4), ring.constant(rng.randrange(1, 5))
            yield (f"{order} degree {degree}",
                   [x ** a * y ** (degree - a) - c, x - 1],
                   [x - 1, y ** (degree - a) - c], x ** a * y ** (degree - a))
    # A rational point: x_i - x_{i+1}^e_i, x_last - c; the basis is
    # x_i - a_i in every order.
    for nvars, p in ((16, 5), (17, 5), (3, 2147483629), (3, 2147483659),
                     (16, 2147483629), (17, 2147483659)):
        for order in (DEGREVLEX, LEX, block_order(nvars // 2)):
            ring = PolyRing([f"x{i}" for i in range(nvars)], p, order)
            xs = ring.gens()
            values = [rng.randrange(1, p)]
            gens = [xs[-1] - ring.constant(values[0])]
            for i in range(nvars - 2, -1, -1):
                e = rng.randrange(1, 4)
                values.insert(0, pow(values[0], e, p))
                gens.append(xs[i] - xs[i + 1] ** e)
            rng.shuffle(gens)
            yield (f"{nvars} variables p={p} {order}", gens,
                   [v - ring.constant(a) for v, a in zip(xs, values)],
                   xs[-2] * xs[-1] + 1)
    for p in (2147483629, 2147483659):
        ring = PolyRing(("x", "y", "z"), p, DEGREVLEX)
        for _ in range(6):
            gens = [ring.from_terms({e: rng.randrange(p) for e in
                                     _random_poly(rng, ring, 3, 3).terms()})
                    for _ in range(rng.randrange(2, 4))]
            yield f"p={p} random", gens, None, _random_poly(rng, ring, 4, 3)


def boundary_mirror():
    """The kernels at the compiled kernel's limits, under
    ``GODEAUX_BACKEND=auto``: lex and block towers whose degrees outgrow
    its 16-bit fields mid-run (k near 2^8 and 2^16), inputs of total
    degree ``MAX_FIELD`` and ``MAX_FIELD + 1``, 16 and 17 variables, and
    moduli just below and above 2^31.  Each basis and pair count, and one
    normal form, must equal the pure kernel's, and the basis must be the
    hand-known one where there is one."""
    if "compiled" not in available_backends():
        return 0, ["compiled backend unavailable"]
    rng = random.Random(1111)
    failures = []
    cases = 0
    saved = os.environ.get("GODEAUX_BACKEND")
    os.environ["GODEAUX_BACKEND"] = "auto"
    try:
        limit = backend.get().MAX_FIELD
        for label, gens, expected, f in _boundary_cases(rng, limit):
            cases += 1
            try:
                auto = buchberger(gens, budget=None)
                pure = buchberger(gens, budget=None, backend_name="pure")
                same_nf = reduce(f, gens) == reduce(f, gens,
                                                    backend_name="pure")
            except Exception as exc:  # a crash fails this case only
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            if ((auto.polynomials, auto.pairs_processed)
                    != (pure.polynomials, pure.pairs_processed)):
                failures.append(f"{label}: auto and pure bases differ")
            if expected is not None and sorted(map(str, pure)) != sorted(
                    map(str, expected)):
                failures.append(f"{label}: not the hand-known basis")
            if not same_nf:
                failures.append(f"{label}: normal forms differ")
    finally:
        if saved is None:
            del os.environ["GODEAUX_BACKEND"]
        else:
            os.environ["GODEAUX_BACKEND"] = saved
    return cases, failures[:5]


# -- reference loops for the ring fast paths -----------------------------------
#
# The term-by-term loops that ``*``, ``-``, ``derivations.apply`` and
# ``CombinationWitness.verify`` used before they summed into one dict and
# reduced mod p once, and that ``Polynomial.derivative`` and
# ``dehomogenize`` used before they became one comprehension each.  They
# are kept here only as the oracle.


def _ref_mul(f, g):
    """f * g, reducing and pruning after every product."""
    if f.ring != g.ring:
        raise ContextError("operands belong to different rings")
    p = f.ring.p
    a, b = f._terms, g._terms
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = (out.get(e, 0) + ca * cb) % p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return Polynomial._raw(f.ring, out)


def _ref_add(f, g):
    if f.ring != g.ring:
        raise ContextError("operands belong to different rings")
    p = f.ring.p
    out = dict(f._terms)
    for e, c in g._terms.items():
        s = (out.get(e, 0) + c) % p
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return Polynomial._raw(f.ring, out)


def _ref_sub(f, g):
    """f + (-g), through an intermediate negation."""
    p = g.ring.p
    return _ref_add(f, Polynomial._raw(g.ring,
                                       {e: p - c for e, c in g._terms.items()}))


def _ref_derivative(f, i):
    """d/dx_i, summing and pruning as if two terms could meet."""
    p = f.ring.p
    out = {}
    for exps, c in f._terms.items():
        e = exps[i]
        cc = (c * e) % p
        if e == 0 or cc == 0:
            continue
        new = exps[:i] + (e - 1,) + exps[i + 1:]
        s = (out.get(new, 0) + cc) % p
        if s:
            out[new] = s
        else:
            out.pop(new, None)
    return Polynomial._raw(f.ring, out)


def _ref_dehomogenize_terms(f, i):
    """The terms of f with x_i set to 1, summed and pruned one by one."""
    p = f.ring.p
    out = {}
    for exps, c in f._terms.items():
        new = exps[:i] + exps[i + 1:]
        s = (out.get(new, 0) + c) % p
        if s:
            out[new] = s
        else:
            out.pop(new, None)
    return out


def _ref_apply(delta, f):
    """A derivative, a product and a sum per variable."""
    if f.ring != delta.ring:
        raise ContextError("polynomial belongs to a different ring")
    total = delta.ring.zero()
    for i, g in enumerate(delta.images):
        if g.is_zero():
            continue
        part = f.derivative(i)
        if not part.is_zero():
            total = _ref_add(total, _ref_mul(g, part))
    return total


def _ref_verify(witness):
    """The running sum, copied once per generator."""
    acc = witness.remainder
    for cof, gen in zip(witness.cofactors, witness.generators):
        acc = _ref_add(acc, _ref_mul(cof, gen))
    return acc == witness.target


def _fastpath_poly(rng, ring):
    """Zero, one term or up to six, exponents up to 4, any residue."""
    size = rng.choice((0, 1, rng.randrange(2, 7)))
    return ring.from_terms({tuple(rng.randrange(5) for _ in range(ring.nvars)):
                            rng.randrange(1, ring.p) for _ in range(size)})


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc)


def ring_fastpath_oracle(n: int = CASE_TARGET):
    """``*``, ``-``, ``apply``, ``CombinationWitness.verify``,
    ``derivative``, ``dehomogenize`` and parsing printed text against the
    reference loops above: 1-8 variables, p in {2, 5, 2147483629}, all
    three orders, zero and single-term operands, and operands from another
    ring, which must raise ``ContextError``."""
    rng = random.Random(1212)
    failures = []
    rings = {}

    def make_ring(nvars, p, order):
        """Two equal rings that are distinct objects."""
        key = (nvars, p, order)
        if key not in rings:
            names = [f"x{k}" for k in range(nvars)]
            rings[key] = (PolyRing(names, p, order), PolyRing(names, p, order))
        return rings[key]

    for i in range(n):
        nvars = rng.randrange(1, 9)
        p = (2, 5, 2147483629)[i % 3]
        kind = ("degrevlex", "lex", "block")[i // 3 % 3]
        if kind == "block" and nvars < 2:
            kind = "lex"
        ring, twin = make_ring(nvars, p, MonomialOrder(
            kind, rng.randrange(1, nvars) if kind == "block" else None))
        # same variables, another order and in odd cases another p
        other = make_ring(nvars, 3 if i % 2 else p,
                          LEX if kind != "lex" else DEGREVLEX)[0]
        f = _fastpath_poly(rng, ring)
        g = _fastpath_poly(rng, twin if i % 2 else ring)
        h = _fastpath_poly(rng, other)
        delta = Derivation(ring, [_fastpath_poly(rng, ring)
                                  for _ in range(nvars)])
        gens = [_fastpath_poly(rng, ring) for _ in range(rng.randrange(4))]
        cofs = [_fastpath_poly(rng, ring) for _ in gens]
        rem = _fastpath_poly(rng, ring)
        target = rem
        for c, b in zip(cofs, gens):
            target = _ref_add(target, _ref_mul(c, b))
        if rng.random() < 0.5:
            target = _ref_add(target, _fastpath_poly(rng, ring))
        wit = CombinationWitness(target, tuple(gens), tuple(cofs), rem)
        k = i % nvars  # the variable to differentiate, or the chart
        top = max(map(sum, f._terms), default=0)
        hom = Polynomial._raw(ring, {e: c for e, c in f._terms.items()
                                     if sum(e) == top})
        chart = dehomogenize(hom, k)._terms if nvars > 1 else {}
        mixed = CombinationWitness(target, tuple(gens) + (h,),
                                   tuple(cofs) + (f,), rem)
        pairs = (
            ("*", f * g, _ref_mul(f, g)),
            ("-", f - g, _ref_sub(f, g)),
            ("int -", 3 - f, _ref_sub(ring.constant(3), f)),
            ("apply", apply(delta, f), _ref_apply(delta, f)),
            ("derivative", f.derivative(k), _ref_derivative(f, k)),
            ("dehomogenize", chart,
             _ref_dehomogenize_terms(hom, k) if nvars > 1 else {}),
            ("verify", wit.verify(), _ref_verify(wit)),
            ("parse", parse_poly(ring, str(f)), f),
            ("mixed ==", f == h, False),
            ("mixed *", _outcome(lambda: f * h), ContextError),
            ("mixed -", _outcome(lambda: f - h), ContextError),
            ("mixed apply", _outcome(apply, delta, h), ContextError),
            ("mixed verify", _outcome(mixed.verify), ContextError),
            ("mixed ref verify", _outcome(_ref_verify, mixed), ContextError),
        )
        for label, got, want in pairs:
            if got != want or type(got) is not type(want):
                failures.append(f"case {i}: {label} differs from the "
                                f"reference ({got!r} != {want!r})")
    return n, failures[:5]


SUITES = {
    "ring_axioms": ring_axioms,
    "leibniz": leibniz,
    "frobenius_oracle": frobenius_oracle,
    "reduce_idempotence": reduce_idempotence,
    "spair_vanishing": spair_vanishing,
    "kernel_closure": kernel_closure,
    "chart_compatibility": chart_compatibility,
    "cross_backend_mirror": cross_backend_mirror,
    "tracked_mirror": tracked_mirror,
    "packed_encoding": packed_encoding,
    "boundary_mirror": boundary_mirror,
    "ring_fastpath_oracle": ring_fastpath_oracle,
}

#: Suites the acceptance gate requires to reach CASE_TARGET cases.
REQUIRED_SUITES = ("ring_axioms", "leibniz", "frobenius_oracle",
                   "reduce_idempotence", "spair_vanishing", "kernel_closure",
                   "chart_compatibility", "ring_fastpath_oracle")


def run_all_property_suites() -> dict[str, tuple[int, list[str]]]:
    return {name: fn() for name, fn in SUITES.items()}
