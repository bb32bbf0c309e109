"""Randomized property campaigns, deterministic by construction.

Each suite runs at least ``CASE_TARGET`` cases with fixed seeds and
returns ``(cases_run, failures)`` where ``failures`` lists short
descriptions (empty on success).  They are shared between the property
tests and the acceptance gate, which re-reads the same outcomes.
"""

from __future__ import annotations

import os
import random

import oracle
from godeaux import _kernel_pure, backend
from godeaux.backend import available_backends
from godeaux.derivations import (Derivation, apply, chart_transform,
                                 graded_kernel)
from godeaux.errors import BudgetExceeded, ContextError
from godeaux.fixtures import load_fixtures
from godeaux.groebner import (CombinationWitness, KernelPresentation,
                              buchberger, eliminate, radical_member, reduce,
                              ring_map_kernel, spolynomial)
from godeaux.rings import (DEGREVLEX, LEX, MonomialOrder, PolyRing,
                           Polynomial, block_order, dehomogenize,
                           frobenius_power, parse_poly, substitute)

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


def _power(f, k):
    """The term map of f**k as k-fold oracle multiplication: no squaring
    and no Frobenius."""
    out = {(0,) * f.ring.nvars: 1}
    for _ in range(k):
        out = oracle.mul(out, f._terms, f.ring.p)
    return out


def frobenius_oracle(n: int = CASE_TARGET):
    """``frobenius_power(f)`` against five-fold oracle multiplication:
    ``f ** 5`` itself goes through ``frobenius_power``, so it cannot be the
    oracle."""
    rng = random.Random(303)
    failures = []
    for i in range(n):
        f = _random_poly(rng, _R3, 3, 3)
        if frobenius_power(f)._terms != _power(f, 5):
            failures.append(f"case {i}: frobenius_power != f*f*f*f*f")
    return n, failures[:5]


def power_oracle(n: int = CASE_TARGET):
    """``f ** k`` against k-fold oracle multiplication over p in {2, 3, 5,
    7}, with k running through 0..2p^2+1: k = p, k = p^2 and every mix of
    base-p digits up to three of them.  Negative and non-int exponents
    raise."""
    rng = random.Random(1313)
    rings = {p: PolyRing(("x", "y"), p, DEGREVLEX) for p in (2, 3, 5, 7)}
    failures = []
    for i in range(n):
        p = (2, 3, 5, 7)[i % 4]
        k = i // 4 % (2 * p * p + 2)
        ring = rings[p]
        f = ring.from_terms({(rng.randrange(3), rng.randrange(3)):
                             rng.randrange(p) for _ in range(rng.randrange(1, 4))})
        if (f ** k)._terms != _power(f, k):
            failures.append(f"case {i}: ({f}) ** {k} over F_{p} differs from "
                            f"{k}-fold multiplication")
        for bad in (-1 - k, k + 0.5):
            if _outcome(f.__pow__, bad) is not ValueError:
                failures.append(f"case {i}: ** {bad!r} does not raise ValueError")
    return n, failures[:5]


def substitute_oracle(n: int = CASE_TARGET):
    """``substitute`` against the sum of c * prod image_i ** e_i in the
    oracle's dict arithmetic, with exponents up to 2p + 1 so that the
    Frobenius split of ``**`` is on the path."""
    rng = random.Random(1414)
    failures = []
    target = PolyRing(("s", "t"), 5, DEGREVLEX)
    for i in range(n):
        source = (_R3, PolyRing(("u",), 5, LEX))[i % 2]
        f = source.from_terms({tuple(rng.randrange(12) for _ in range(source.nvars)):
                               rng.randrange(5) for _ in range(rng.randrange(4))})
        images = [target.from_terms({(rng.randrange(3), rng.randrange(3)):
                                     rng.randrange(5)
                                     for _ in range(rng.randrange(3))})
                  for _ in range(source.nvars)]
        want = {}
        for exps, c in f._terms.items():
            term = {(0, 0): c}
            for g, e in zip(images, exps):
                term = oracle.mul(term, _power(g, e), 5)
            want = oracle.axpy(want, 1, (0, 0), term, 5)
        got = substitute(f, target, images)
        if got._terms != want:
            failures.append(f"case {i}: substitute({f}) differs from the "
                            f"oracle ({got._terms} != {want})")
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


def graded_kernel_oracle(n: int = CASE_TARGET):
    """``graded_kernel`` against ``oracle.graded_kernel`` on random linear
    derivations: p in {2, 3, 5, 7, 11}, 1-4 variables, degrevlex, lex and
    block orders, degrees 0-6, every 25th derivation zero.  The bases must
    agree, and delta must kill every returned vector."""
    rng = random.Random(1515)
    failures = []
    for i in range(n):
        p = (2, 3, 5, 7, 11)[i % 5]
        nvars = 1 + i // 5 % 4
        orders = [(DEGREVLEX, oracle.degrevlex), (LEX, oracle.lex)]
        if nvars > 1:
            split = rng.randrange(1, nvars)
            orders.append((block_order(split), oracle.block(split)))
        order, key = orders[i // 20 % len(orders)]
        ring = PolyRing(("a", "b", "c", "d")[:nvars], p, order)
        units = [tuple(int(j == k) for k in range(nvars)) for j in range(nvars)]
        images = [ring.from_terms({u: rng.randrange(p) for u in units
                                   if i % 25 and rng.random() < 0.7})
                  for _ in range(nvars)]
        delta = Derivation(ring, images)
        degree = rng.randrange(7)
        got = _outcome(graded_kernel, delta, degree)
        if isinstance(got, type):
            failures.append(f"case {i}: graded_kernel raised {got.__name__}")
            continue
        want = oracle.graded_kernel([g._terms for g in images], degree, p,
                                    key)
        if [f._terms for f in got] != want:
            failures.append(f"case {i}: degree-{degree} kernel of "
                            f"{images} over F_{p} differs from the reference")
        if not all(apply(delta, f).is_zero() for f in got):
            failures.append(f"case {i}: a returned vector is not in the kernel")
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
    """Labels of ``kern``'s calls whose output changes when the keys of
    each input term map come shuffled instead of largest-monomial-first."""
    ring = gens[0].ring
    split = 1 if kind == "block" else None

    def term_maps(arrange):
        maps = []
        for g in [f] + gens:
            items = list(g.terms().items())
            arrange(items)
            maps.append(dict(items))
        return maps

    inputs = (term_maps(lambda t: t.sort(key=lambda term: ring.sort_key(
        term[0]), reverse=True)), term_maps(shuffler.shuffle))
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
    generators), and budget behaviour per backend, each basis the budget
    did not stop equal to the oracle's, and on each kernel the same output
    for sorted and shuffled input term lists, in all three order kinds."""
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
            key = oracle.lex if ring is lex_ring else oracle.degrevlex
            if [g._terms for g in outcomes["pure"][1]] != oracle.groebner(
                    [g._terms for g in gens], ring.p, key):
                failures.append(f"case {i}: the basis is not the oracle's")
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
        args = ([g.terms() for g in gens], ring.nvars, ring.p,
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
        if repr(tracked) != repr(plain):  # repr: key order counts too
            failures.append(f"case {i}: tracked and plain outcomes differ")
            continue
        for b, rep in zip(tracked[0], reps):
            acc = ring.zero()
            for r, g in zip(rep, gens):
                acc = acc + ring.from_terms(r) * g
            if acc != ring.from_terms(b):
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


def _shuffled(rng: random.Random, g: Polynomial) -> Polynomial:
    """g with the keys of its term map in shuffled order."""
    items = list(g._terms.items())
    rng.shuffle(items)
    return Polynomial._raw(g.ring, dict(items))


def _listed(polys) -> list:
    """The term maps of ``polys`` as lists, so that key order counts."""
    return [list(g._terms.items()) for g in polys]


def boundary_mirror():
    """The kernels at the compiled kernel's limits, under
    ``GODEAUX_BACKEND=auto``: lex and block towers whose degrees outgrow
    its 16-bit fields mid-run (k near 2^8 and 2^16), inputs of total
    degree ``MAX_FIELD`` and ``MAX_FIELD + 1``, 16 and 17 variables, and
    moduli just below and above 2^31.  Each basis and pair count, and one
    normal form, must equal the pure kernel's, and the basis must be the
    hand-known one where there is one.  The same calls on term maps whose
    keys come in shuffled order must give the same maps, key order
    included, on the same backend."""
    if "compiled" not in available_backends():
        return 0, ["compiled backend unavailable"]
    rng = random.Random(1111)
    shuffler = random.Random(11110)  # apart, so the cases stay as they were
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
                nf = reduce(f, gens)
                same_nf = nf == reduce(f, gens, backend_name="pure")
                mixed = [_shuffled(shuffler, g) for g in gens]
                mixed_gb = buchberger(mixed, budget=None)
                mixed_nf = reduce(_shuffled(shuffler, f), mixed)
            except Exception as exc:  # a crash fails this case only
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            if ((_listed(mixed_gb), mixed_gb.pairs_processed,
                 mixed_gb.backend) != (_listed(auto), auto.pairs_processed,
                                       auto.backend)
                    or _listed([mixed_nf]) != _listed([nf])):
                failures.append(f"{label}: shuffled term maps answer "
                                "differently")
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


# -- the ring fast paths against the oracle's dict arithmetic -----------------


def _derivative(f, i, p):
    """d/dx_i of a term map: lowering one exponent meets no other term."""
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] % p
            for e, c in f.items() if c * e[i] % p}


def _setting_to_one(f, i, p):
    """The term map of f with x_i set to 1, like terms summed."""
    out = {}
    for e, c in f.items():
        rest = e[:i] + e[i + 1:]
        out = oracle.axpy(out, c, rest, {(0,) * len(rest): 1}, p)
    return out


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
    oracle's dict arithmetic: 1-8 variables, p in {2, 5, 2147483629}, all
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
        expansion = rem._terms
        for c, b in zip(cofs, gens):
            expansion = oracle.mul(c._terms, b._terms, p, expansion)
        target = ring.from_terms(expansion)
        if rng.random() < 0.5:
            junk = _fastpath_poly(rng, ring)._terms
            target = ring.from_terms(oracle.axpy(expansion, 1, (0,) * nvars,
                                                 junk, p))
        wit = CombinationWitness(target, tuple(gens), tuple(cofs), rem)
        k = i % nvars  # the variable to differentiate, or the chart
        top = max(map(sum, f._terms), default=0)
        hom = Polynomial._raw(ring, {e: c for e, c in f._terms.items()
                                     if sum(e) == top})
        chart = dehomogenize(hom, k)._terms if nvars > 1 else {}
        mixed = CombinationWitness(target, tuple(gens) + (h,),
                                   tuple(cofs) + (f,), rem)
        zero = (0,) * nvars
        applied = {}
        for j, image in enumerate(delta.images):
            applied = oracle.mul(image._terms, _derivative(f._terms, j, p), p,
                                 applied)
        pairs = (
            ("*", (f * g)._terms, oracle.mul(f._terms, g._terms, p)),
            ("-", (f - g)._terms,
             oracle.axpy(f._terms, p - 1, zero, g._terms, p)),
            ("int -", (3 - f)._terms,
             oracle.axpy({zero: 3 % p}, p - 1, zero, f._terms, p)),
            ("apply", apply(delta, f)._terms, applied),
            ("derivative", f.derivative(k)._terms,
             _derivative(f._terms, k, p)),
            ("dehomogenize", chart,
             _setting_to_one(hom._terms, k, p) if nvars > 1 else {}),
            ("verify", wit.verify(), expansion == target._terms),
            ("parse", parse_poly(ring, str(f)), f),
            ("mixed ==", f == h, False),
            ("mixed *", _outcome(lambda: f * h), ContextError),
            ("mixed -", _outcome(lambda: f - h), ContextError),
            ("mixed apply", _outcome(apply, delta, h), ContextError),
            ("mixed verify", _outcome(mixed.verify), ContextError),
        )
        for label, got, want in pairs:
            if got != want or type(got) is not type(want):
                failures.append(f"case {i}: {label} differs from the "
                                f"oracle ({got!r} != {want!r})")
    return n, failures[:5]


# -- Groebner answers against the oracle --------------------------------------


def _oracle_radical(f, gens):
    """Whether 1 lies in (gens, 1 - T*f), T one more variable, last."""
    n, p = f.ring.nvars, f.ring.p
    lifted = [{e + (0,): c for e, c in g._terms.items()} for g in [f] + gens]
    one = (0,) * (n + 1)
    lifted[0] = oracle.axpy({one: 1}, p - 1, (0,) * n + (1,), lifted[0], p)
    return oracle.groebner(lifted, p, oracle.degrevlex) == [{one: 1}]


def _oracle_eliminate(gens, drop, nvars, p):
    """The reduced basis of (gens) ∩ k[the variables not in ``drop``], as
    term maps over those: by the block order with ``drop`` moved first,
    keeping the elements none of whose terms holds a dropped variable."""
    perm = drop + [i for i in range(nvars) if i not in drop]
    nd = len(drop)
    basis = oracle.groebner([{tuple(e[i] for i in perm): c
                              for e, c in g.items()} for g in gens],
                            p, oracle.block(nd))
    return [{e[nd:]: c for e, c in g.items()} for g in basis
            if not any(any(e[:nd]) for e in g)]


def _oracle_kernel(source, target, images):
    """The reduced degrevlex basis of the kernel, as term maps: the plain
    graph ideal (s_i - image_i) in k[t, s] with the t eliminated."""
    nt, ns, p = target.nvars, source.nvars, target.p
    units = [(0,) * (nt + i) + (1,) + (0,) * (ns - i - 1) for i in range(ns)]
    graph = [oracle.axpy({unit: 1}, p - 1, (0,) * (nt + ns),
                         {e + (0,) * ns: c for e, c in g._terms.items()}, p)
             for unit, g in zip(units, images)]
    return _oracle_eliminate(graph, list(range(nt)), nt + ns, p)


def _groebner_outcome(fn, *args):
    """``("answer", value)`` with each polynomial as its term map,
    ``("budget", pairs, basis size)`` or ``("raised", exception type)``."""
    try:
        value = fn(*args)
    except BudgetExceeded as exc:
        return "budget", exc.pairs_processed, exc.basis_size
    except Exception as exc:  # compared, not swallowed
        return "raised", type(exc)
    if isinstance(value, KernelPresentation):
        value = (value.source_ring, [g._terms for g in value.generators],
                 [s._terms for s in value.seeds], value.pairs_processed)
    elif isinstance(value, list):
        value = [(g.ring.variables, g.ring.order, g._terms) for g in value]
    return "answer", value


def _system_poly(rng, ring, max_terms=3, max_degree=2, min_degree=0):
    """Nonzero, up to ``max_terms`` terms of total degree ``min_degree`` to
    ``max_degree``, coefficients anywhere in 1 .. p - 1."""
    terms = {}
    while not terms:
        for _ in range(rng.randint(1, max_terms)):
            exps = [0] * ring.nvars
            for _ in range(rng.randint(min_degree, max_degree)):
                exps[rng.randrange(ring.nvars)] += 1
            terms[tuple(exps)] = rng.randrange(1, ring.p) if ring.p > 2 else 1
    return ring.from_terms(terms)


def _radical_case(rng, i, ring):
    """(f, gens) with f in the radical by construction in two of three
    cases: a combination of the generators, or f^2 among them.  The
    generators vanish at the origin, so the ideal is never the unit one."""
    gens = [_system_poly(rng, ring, min_degree=1)
            for _ in range(rng.randint(2, 3))]
    if i % 3 == 0:
        f = sum((_system_poly(rng, ring, 2, 1) * g for g in gens), ring.zero())
    elif i % 3 == 1:
        f = _system_poly(rng, ring)
        gens.append(f ** 2)
    else:
        f = _system_poly(rng, ring)
    if i % 7 == 0:
        gens.insert(rng.randrange(len(gens) + 1), ring.zero())
    return f, gens


def _elimination_case(rng, i, ring, other):
    """(gens, drop, error); one case in seven is invalid in one of four
    ways, raising ``error``, or is the all-zero system, which is valid."""
    gens = [_system_poly(rng, ring) for _ in range(rng.randint(2, 3))]
    if i % 5 == 0:
        gens.insert(rng.randrange(len(gens) + 1), ring.zero())
    picked = rng.sample(range(ring.nvars), rng.randint(1, min(2, ring.nvars - 1)))
    drop = picked if i % 2 else [ring.variables[j] for j in picked]
    bad = i // 7 % 5 if i % 7 == 3 else None
    error = (ValueError, ValueError, ValueError, ContextError, None,
             None)[5 if bad is None else bad]
    if bad == 0:
        drop = ()
    elif bad == 1:
        drop = list(ring.variables)
    elif bad == 2:
        drop = ["nope"]
    elif bad == 3:
        gens.append(_system_poly(rng, other))
    elif bad == 4:
        gens = [ring.zero()] * len(gens)
    return gens, drop, error


def _kernel_case(rng, i, nvars, p, order):
    """(source ring, target ring, images, error): 1-2 target variables,
    and on p <= 7 in three cases of five each target variable's p-th power
    among the images, so Frobenius seeds exist.  One case in seven is
    invalid, raising ``error``."""
    nt = rng.randint(1, min(2, nvars - 1))
    ns = nvars - nt
    target = PolyRing([f"t{j}" for j in range(nt)], p, order)
    source = PolyRing([f"s{j}" for j in range(ns)], p, order)
    images = [_system_poly(rng, target) for _ in range(ns)]
    if p <= 7 and rng.random() < 0.6 and ns > nt:
        images[:nt] = [target.gen(j) ** p for j in range(nt)]
    bad = i // 7 % 3 if i % 7 == 5 else None
    if bad == 0:
        images.append(target.one())
    elif bad == 1:
        source = PolyRing(["t0"] + list(source.variables[1:]), p, order)
    elif bad == 2:
        target = PolyRing(target.variables, 3 if p != 3 else 5, order)
        images = [target.one()] * ns
        source = PolyRing(source.variables, p, order)
    return source, target, images, None if bad is None else ContextError


def groebner_fastpath_oracle(n: int = 240):
    """``radical_member``, ``eliminate`` and ``ring_map_kernel`` on both
    backends against the oracle: 2-5 variables, p in {2, 5, 7,
    2147483629}, degrevlex and lex rings (one with a variable named
    ``_t``), drop sets of 1-2 variables by name and by index, kernels with
    and without Frobenius seeds, budget stops and invalid input.  The
    backends must agree on answers, pair counts, budget stops and
    exception types, and an invalid case must raise its error.  Every
    other answer must be the oracle's: the radical verdict, the reduced
    basis of the eliminated ideal (``[]`` for an all-zero system), and
    for a kernel that of the plain graph ideal, by which each seed must
    reduce to 0."""
    if "compiled" not in available_backends():
        return 0, ["compiled backend unavailable"]
    rng = random.Random(1313)
    failures = []
    cases = 0
    rings = {}
    for i in range(n):
        nvars = rng.randint(2, 5)
        p = (2, 5, 7, 2147483629)[i % 4]
        order = (DEGREVLEX, LEX)[i // 4 % 2]
        names = tuple(f"x{j}" for j in range(nvars - 1)) + (
            ("_t",) if i % 13 == 0 else (f"x{nvars - 1}",))
        for key in ((names, p, order), (names, 3, order)):
            if key not in rings:
                rings[key] = PolyRing(*key)
        ring, other = rings[names, p, order], rings[names, 3, order]
        budget = 1 if i % 11 == 0 else 400
        f, gens = _radical_case(rng, i, ring)
        elim_gens, drop, elim_error = _elimination_case(rng, i, ring, other)
        source, target, images, kernel_error = _kernel_case(rng, i, nvars,
                                                            p, order)

        def eliminated():
            idx = sorted({d if isinstance(d, int) else names.index(d)
                          for d in drop})
            kept = tuple(v for j, v in enumerate(names) if j not in idx)
            return [(kept, DEGREVLEX, t) for t in _oracle_eliminate(
                [g._terms for g in elim_gens], idx, nvars, p)]

        def kernel(got):
            want = _oracle_kernel(source, target, images)
            seeds = [oracle.normal_form(s, want, p, oracle.degrevlex)
                     for s in got[2]]
            return got[0] is source and got[1] == want and not any(seeds)

        ops = (
            ("radical_member", radical_member, (f, gens), None,
             lambda got: got == _oracle_radical(f, gens)),
            ("eliminate", eliminate, (elim_gens, drop), elim_error,
             lambda got: got == eliminated()),
            ("ring_map_kernel", ring_map_kernel, (source, target, images),
             kernel_error, kernel),
        )
        for label, fn, args, error, agrees in ops:
            got = [_groebner_outcome(fn, *args, budget, name)
                   for name in ("pure", "compiled")]
            cases += len(got)
            if got[0] != got[1]:
                failures.append(f"case {i}: {label} differs across backends "
                                f"({got[0]!r} != {got[1]!r})")
            elif error is not None or got[0][0] == "raised":
                if got[0] != ("raised", error):
                    failures.append(f"case {i}: {label} gave {got[0]!r}, "
                                    f"not {error}")
            elif got[0][0] == "answer" and not agrees(got[0][1]):
                failures.append(f"case {i}: {label} differs from the oracle "
                                f"({got[0][1]!r})")
    return cases, failures[:5]


SUITES = {
    "ring_axioms": ring_axioms,
    "leibniz": leibniz,
    "frobenius_oracle": frobenius_oracle,
    "power_oracle": power_oracle,
    "substitute_oracle": substitute_oracle,
    "reduce_idempotence": reduce_idempotence,
    "spair_vanishing": spair_vanishing,
    "kernel_closure": kernel_closure,
    "chart_compatibility": chart_compatibility,
    "graded_kernel_oracle": graded_kernel_oracle,
    "cross_backend_mirror": cross_backend_mirror,
    "tracked_mirror": tracked_mirror,
    "packed_encoding": packed_encoding,
    "boundary_mirror": boundary_mirror,
    "ring_fastpath_oracle": ring_fastpath_oracle,
    "groebner_fastpath_oracle": groebner_fastpath_oracle,
}

#: Suites the acceptance gate requires to reach CASE_TARGET cases.
REQUIRED_SUITES = ("ring_axioms", "leibniz", "frobenius_oracle",
                   "power_oracle", "substitute_oracle",
                   "reduce_idempotence", "spair_vanishing", "kernel_closure",
                   "chart_compatibility", "graded_kernel_oracle",
                   "ring_fastpath_oracle")


def run_all_property_suites() -> dict[str, tuple[int, list[str]]]:
    return {name: fn() for name, fn in SUITES.items()}
