"""Pure-Python Groebner kernel: reference implementation.

The compiled extension (``godeaux._kernel``) mirrors this module
step-for-step — same pair selection, same pruning, same reduction,
same canonical output — so the two backends are interchangeable and
byte-for-byte comparable.  Reduction and Buchberger are each written
once; recording quotients and cofactors over the inputs is an option of
that one path (``normal_form_tracked``, ``buchberger_tracked``), offered
only here.  The compiled backend accelerates the untracked hot paths.

Boundary format: a polynomial is a list of ``(exponent_tuple, coeff)``
pairs with distinct exponents and coefficients in [1, p).  Outputs are
sorted largest-monomial-first.

Algorithm notes:

* S-pair selection is the normal strategy — minimal lcm total degree,
  ties by the monomial order on lcms, then by pair indices.
* Pair pruning is the Gebauer–Moeller installation of Buchberger's
  coprimality and chain criteria.
* Reduction is full normal form; the divisor is the first basis element
  (in insertion order) whose leading monomial divides the candidate.
* The budget caps processed S-pairs and raises ``BudgetExceeded``.
"""

from __future__ import annotations

import heapq

from .errors import BudgetExceeded
from .rings import MonomialOrder

BACKEND_NAME = "pure"


def _key_func(kind, split):
    order = MonomialOrder(kind, split if kind == "block" else None)
    return order.key


def _divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def _neg(key):
    return tuple(-k for k in key)


# -- normal form ---------------------------------------------------------------


def _nf(fdict, reducers, key, p):
    """Full normal form of ``fdict`` modulo ``reducers``.

    ``reducers``: list of (lm, lc_inv, terms_dict, quotient) scanned in
    order; the first dividing leading monomial wins.  ``quotient`` is a
    dict that accumulates that reducer's quotient in place, so that
    f = sum(quotient_i * g_i) + r, or None when quotients are not wanted.
    Returns the remainder as a fresh dict.
    """
    work = dict(fdict)
    heap = [(_neg(key(m)), m) for m in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        _, m = heapq.heappop(heap)
        c = work.get(m)
        if not c:
            continue
        for lm, lcinv, g, qd in reducers:
            if _divides(lm, m):
                break
        else:
            out[m] = c
            del work[m]
            continue
        q = tuple(a - b for a, b in zip(m, lm))
        factor = (c * lcinv) % p
        if qd is not None:
            s = (qd.get(q, 0) + factor) % p
            if s:
                qd[q] = s
            else:
                qd.pop(q, None)
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(q, e2))
            prev = work.get(e, 0)
            s = (prev - factor * c2) % p
            if s:
                if prev == 0:
                    heapq.heappush(heap, (_neg(key(e)), e))
                work[e] = s
            else:
                work.pop(e, None)
    return out


# -- dict helpers ---------------------------------------------------------------


def _scale(d, c, p):
    if c == 1:
        return dict(d)
    return {e: (v * c) % p for e, v in d.items()}


def _axpy(target, c, shift, src, p):
    """target += c * x^shift * src, in place."""
    for e2, c2 in src.items():
        e = tuple(a + b for a, b in zip(shift, e2))
        s = (target.get(e, 0) + c * c2) % p
        if s:
            target[e] = s
        else:
            target.pop(e, None)


def _is_one(d):
    return len(d) == 1 and not any(next(iter(d)))


# -- Buchberger -----------------------------------------------------------------


class _PairQueue:
    """Normal-strategy pair queue with Gebauer–Moeller pruning."""

    def __init__(self, key):
        self.key = key
        self.heap = []
        self.alive = {}  # (i, j) -> lcm exps

    def update(self, lms, t):
        """Install pairs of the new element ``t`` against 0..t-1."""
        key = self.key
        lt = lms[t]
        remaining = [(i, _lcm(lms[i], lt)) for i in range(t)]
        prods = [tuple(a + b for a, b in zip(lms[i], lt)) for i in range(t)]
        kept = []
        while remaining:
            i, l = remaining.pop(0)
            if l != prods[i]:
                dominated = any(_divides(l2, l) for _, l2 in remaining) or \
                    any(_divides(l2, l) for _, l2 in kept)
                if dominated:
                    continue
            kept.append((i, l))
        # Chain-criterion filter on the existing queue.
        for (i, j), l in list(self.alive.items()):
            if _divides(lt, l) and _lcm(lms[i], lt) != l and _lcm(lms[j], lt) != l:
                del self.alive[(i, j)]
        # Coprime survivors are dropped (criterion 1); the rest are queued.
        for i, l in kept:
            if l == prods[i]:
                continue
            self.alive[(i, t)] = l
            heapq.heappush(self.heap, (sum(l), key(l), i, t, l))

    def pop(self):
        """Next live pair as (i, j, lcm), or None when drained."""
        while self.heap:
            _, _, i, j, l = heapq.heappop(self.heap)
            if self.alive.get((i, j)) == l:
                del self.alive[(i, j)]
                return i, j, l
        return None


def _sub_quotients(rep, reducers, reps, p):
    """rep -= sum(quotient_b * reps[b]), over the reducers' quotient dicts."""
    for (_, _, _, qd), rb in zip(reducers, reps):
        for q, c in qd.items():
            for k, r in enumerate(rb):
                if r:
                    _axpy(rep[k], p - c, q, r, p)


def _reduce_basis(basis, lms, key, p, reps=None):
    """Minimalize and tail-reduce to the canonical reduced basis.

    Returns (basis, reps) sorted largest leading monomial first; ``reps``
    is carried through the same row operations when provided.
    """
    order = sorted(range(len(basis)), key=lambda i: key(lms[i]))
    kept = []
    for i in order:
        if any(_divides(lms[j], lms[i]) for j in kept):
            continue
        kept.append(i)
    basis = [basis[i] for i in kept]
    lms = [lms[i] for i in kept]
    if reps is not None:
        reps = [reps[i] for i in kept]
    for idx in range(len(basis)):
        others = [j for j in range(len(basis)) if j != idx]
        reducers = [(lms[j], 1, basis[j], None if reps is None else {})
                    for j in others]
        basis[idx] = _nf(basis[idx], reducers, key, p)
        if reps is not None:
            _sub_quotients(reps[idx], reducers, [reps[j] for j in others], p)
    final = sorted(range(len(basis)), key=lambda i: key(lms[i]), reverse=True)
    basis = [basis[i] for i in final]
    if reps is not None:
        reps = [reps[i] for i in final]
    return basis, reps


def _buchberger(gens_terms, nvars, p, key, budget, track):
    """The one Buchberger loop; cofactors are carried only under ``track``.

    Returns ``(basis, reps, pairs_processed, unit_rep)`` as dicts.  When 1
    is discovered the run stops at once with ``basis`` None and
    ``unit_rep`` the cofactors expressing 1 over the inputs.  ``reps`` and
    ``unit_rep`` are None when ``track`` is false.
    """
    ngen = len(gens_terms)
    basis = []
    lms = []
    reps = []
    queue = _PairQueue(key)
    pairs_processed = 0
    unit_rep = None

    def install(d, rep):
        nonlocal unit_rep
        lm = max(d, key=key)
        lc = d[lm]
        if lc != 1:
            inv = pow(lc, p - 2, p)
            d = _scale(d, inv, p)
            if track:
                rep = [_scale(r, inv, p) for r in rep]
        if _is_one(d):
            unit_rep = rep
            return True
        basis.append(d)
        lms.append(lm)
        reps.append(rep)
        queue.update(lms, len(basis) - 1)
        return False

    for k, terms in enumerate(gens_terms):
        d = dict(terms)
        if not d:
            continue
        rep = None
        if track:
            rep = [dict() for _ in range(ngen)]
            rep[k][(0,) * nvars] = 1
        if install(d, rep):
            return None, None, pairs_processed, unit_rep

    while True:
        item = queue.pop()
        if item is None:
            break
        if budget is not None and pairs_processed >= budget:
            raise BudgetExceeded(pairs_processed, len(basis))
        pairs_processed += 1
        i, j, l = item
        qi = tuple(a - b for a, b in zip(l, lms[i]))
        qj = tuple(a - b for a, b in zip(l, lms[j]))
        s = {}
        _axpy(s, 1, qi, basis[i], p)
        _axpy(s, p - 1, qj, basis[j], p)
        reducers = [(lms[k], 1, basis[k], {} if track else None)
                    for k in range(len(basis))]
        r = _nf(s, reducers, key, p)
        if not r:
            continue
        rep = None
        if track:
            rep = [dict() for _ in range(ngen)]
            for k in range(ngen):
                _axpy(rep[k], 1, qi, reps[i][k], p)
                _axpy(rep[k], p - 1, qj, reps[j][k], p)
            _sub_quotients(rep, reducers, reps, p)
        if install(r, rep):
            return None, None, pairs_processed, unit_rep

    basis, reps = _reduce_basis(basis, lms, key, p, reps if track else None)
    return basis, reps, pairs_processed, None


# -- public boundary --------------------------------------------------------------


def _to_terms(d, key):
    return [(e, d[e]) for e in sorted(d, key=key, reverse=True)]


def _reducers(gens_terms, key, p, quotients):
    """Reducer tuples for the nonzero generators, in input order."""
    out = []
    for terms, qd in zip(gens_terms, quotients):
        d = dict(terms)
        if d:
            lm = max(d, key=key)
            out.append((lm, pow(d[lm], p - 2, p), d, qd))
    return out


def normal_form(f_terms, gens_terms, nvars, p, kind, split=None):
    key = _key_func(kind, split)
    reducers = _reducers(gens_terms, key, p, [None] * len(gens_terms))
    return _to_terms(_nf(dict(f_terms), reducers, key, p), key)


def buchberger(gens_terms, nvars, p, kind, split=None, budget=None):
    """Reduced Groebner basis and the processed-pair count."""
    key = _key_func(kind, split)
    basis, _, pairs, _ = _buchberger(gens_terms, nvars, p, key, budget, False)
    if basis is None:
        return [[((0,) * nvars, 1)]], pairs
    return [_to_terms(d, key) for d in basis], pairs


def normal_form_tracked(f_terms, gens_terms, nvars, p, kind, split=None):
    """Remainder plus per-generator quotients (aligned with the input)."""
    key = _key_func(kind, split)
    quots = [dict() for _ in gens_terms]
    r = _nf(dict(f_terms), _reducers(gens_terms, key, p, quots), key, p)
    return _to_terms(r, key), [_to_terms(q, key) for q in quots]


def buchberger_tracked(gens_terms, nvars, p, kind, split=None, budget=None,
                       stop_on_unit=False):
    """Buchberger with cofactor tracking over the original generators.

    Returns ``(basis, reps, pairs_processed, unit_rep)``.  ``reps[k]``
    expresses basis element k as cofactors over the inputs.  When 1 is
    discovered and ``stop_on_unit`` is set, the run aborts immediately
    with ``unit_rep`` (cofactors expressing 1) and no basis.
    """
    key = _key_func(kind, split)
    basis, reps, pairs, unit = _buchberger(gens_terms, nvars, p, key, budget,
                                           True)
    if basis is None:
        unit = [_to_terms(r, key) for r in unit]
        if stop_on_unit:
            return None, None, pairs, unit
        return [[((0,) * nvars, 1)]], [unit], pairs, None
    reps_terms = [[_to_terms(r, key) for r in rep] for rep in reps]
    return [_to_terms(d, key) for d in basis], reps_terms, pairs, None
