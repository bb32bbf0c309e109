"""Pure-Python Groebner kernel: reference implementation.

The compiled extension (``godeaux._kernel``, hand-written C) mirrors
this module step-for-step — same pair selection, same pruning, same
reduction, same canonical output — so the two backends are
interchangeable and byte-for-byte comparable.  Reduction and Buchberger
are each written once; recording quotients and cofactors over the inputs
is an option of that one path (``normal_form_tracked``,
``buchberger_tracked``), offered only here.  The compiled backend
accelerates the untracked calls within fixed limits (variables, modulus,
16-bit fields); past them it raises OverflowError and ``groebner`` reruns
the call here, where any ring is taken and the width grows as needed
(below).

Boundary format: a polynomial is an iterable of ``(exponent_tuple,
coeff)`` pairs in any order, with distinct exponents and coefficients in
[1, p).  Outputs are lists sorted largest-monomial-first.

Packed monomials (Monagan & Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007): inside a call a
monomial is one int.  From the top it holds the fields of
``MonomialOrder.key`` (per block, the reversed partial sums of the
exponents; plain exponents under lex), then, except under lex, the
exponents themselves.  Each field has ``width`` bits under a guard bit
that is 0 in a valid monomial.  The fields are linear in the exponents,
so int comparison is the monomial order, a product is ``+``, a quotient
is ``-``, and ``a`` divides ``m`` iff ``not ((m - a) & guard)``: an
exponent of ``m`` below that of ``a`` borrows into a guard bit.  Tuples
are encoded once on entry and decoded once on exit.

The width is twice the bit length of the inputs' largest total degree,
which bounds every field, and at least 8.  A product that carries into a
guard bit, or the lcm of a pair that is not coprime whose degree does
not fit, raises ``_Overflow`` and the call reruns at twice the width;
being deterministic, the rerun gives what a wide enough first run would
have, pair count included.  A coprime pair is never queued, and an lcm
past the width divides no lcm within it, so such an lcm drops out.

Algorithm notes:

* S-pair selection is the normal strategy — minimal lcm total degree,
  ties by the monomial order on lcms, then by pair indices.
* Pair pruning is the Gebauer–Moeller installation of Buchberger's
  coprimality and chain criteria.
* Reduction is full normal form; the divisor is the first basis element
  (in insertion order) whose leading monomial divides the candidate.
* The budget caps processed S-pairs and raises ``BudgetExceeded``.

Reducers are monic ``(lm, tail)`` pairs, the leading term left out: it
always cancels exactly.  ``normal_form`` scales each generator once.
Cofactor tracking is one reduction log per normal form, ``(reducer
index, shift, coefficient)`` per step.  ``normal_form_tracked`` turns it
into quotients over the inputs, times each leading-coefficient inverse;
``_buchberger`` seeds it with the S-pair's two lifts and replays it over
the cofactor rows.

First-divisor memo: inside one ``_buchberger`` run the reducer list is
only appended to, so a monomial's first divisor, once found, stays the
first, and a monomial with none among ``reducers[:n]`` needs only
``reducers[n:]`` scanned next time.  The run's memo records either, and
the rule above is kept exactly.  The memo's keys are packed at one width,
so each ``_Overflow`` rerun starts a fresh one.  ``normal_form`` and
``_reduce_basis`` pass an empty memo: one normal form never pops a
monomial twice, and ``_reduce_basis`` replaces reducer tails as it goes.
"""

from __future__ import annotations

import heapq
from operator import mul

from .errors import BudgetExceeded
from .rings import MonomialOrder

BACKEND_NAME = "pure"


class _Overflow(Exception):
    """A packed field outgrew the width of the current call."""


class _Packing:
    """The packed-int layout of one call's monomials."""

    __slots__ = ("guard", "mask", "units", "shifts")

    def __init__(self, nvars, kind, split, width):
        order = MonomialOrder(kind, split if kind == "block" else None)
        slot = width + 1

        def pack(fields):
            v = 0
            for f in fields:
                v = (v << slot) | f
            return v

        fields = []
        for k in range(nvars):
            e = (0,) * k + (1,) + (0,) * (nvars - 1 - k)
            fields.append(e if kind == "lex" else order.key(e) + e)
        self.units = [pack(f) for f in fields]
        self.guard = pack([1 << width] * len(fields[0]))
        self.mask = (1 << width) - 1
        self.shifts = [slot * (nvars - 1 - j) for j in range(nvars)]

    def enc(self, exps):
        return sum(map(mul, exps, self.units))

    def dec(self, m):
        mask = self.mask
        return tuple([(m >> s) & mask for s in self.shifts])


def _first_width(degree):
    """Field bits for a call whose inputs have this largest total degree."""
    return max(8, 2 * degree.bit_length())


def _packed(nvars, kind, split, polys, run):
    """``run(packing, packed_polys)`` at a fitting width; wider on overflow."""
    degree = max((sum(e) for terms in polys for e, _ in terms), default=0)
    width = _first_width(degree)
    while True:
        pk = _Packing(nvars, kind, split, width)
        enc = pk.enc
        try:
            return run(pk, [{enc(e): c for e, c in t} for t in polys])
        except _Overflow:
            width *= 2


# -- normal form ---------------------------------------------------------------


def _nf(work, reducers, p, guard, memo, log=None):
    """Full normal form of the packed dict ``work``, which is consumed.

    ``reducers``: list of monic (lm, tail) scanned in order; the first
    dividing leading monomial wins.  ``memo`` maps a monomial to the index
    of its first divisor, or to ``~n`` when ``reducers[:n]`` hold none
    (see the module docstring).  A ``log`` list gets ``(k, shift, c)`` for
    each step, so that f = sum(c * x^shift * reducers[k]) + r.  Returns the
    remainder as a fresh dict.
    """
    heap = [-m for m in work]
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop
    nred = len(reducers)
    out = {}
    while heap:
        m = -heappop(heap)
        c = work.pop(m)
        if not c:
            continue
        k = memo.get(m, -1)
        if k < 0:
            for k in range(~k, nred):
                if not (m - reducers[k][0]) & guard:
                    memo[m] = k
                    break
            else:
                memo[m] = ~nred
                out[m] = c
                continue
        lm, tail = reducers[k]
        q = m - lm
        if log is not None:
            log.append((k, q, c))
        # Every new monomial is below m, so none is pushed twice; a
        # cancelled one stays in ``work`` as 0 until it is popped.
        for e2, c2 in tail.items():
            e = q + e2
            prev = work.get(e)
            if prev is None:
                if e & guard:
                    raise _Overflow
                heappush(heap, -e)
                work[e] = -c * c2 % p
            else:
                work[e] = (prev - c * c2) % p
    return out


# -- dict helpers ---------------------------------------------------------------


def _tail(d, lm):
    t = dict(d)
    del t[lm]
    return t


def _scale(d, c, p):
    return {e: (v * c) % p for e, v in d.items()}


def _axpy(target, c, shift, src, p, guard):
    """target += c * x^shift * src, in place."""
    for e2, c2 in src.items():
        e = shift + e2
        if e & guard:
            raise _Overflow
        s = (target.get(e, 0) + c * c2) % p
        if s:
            target[e] = s
        else:
            target.pop(e, None)


# -- Buchberger -----------------------------------------------------------------


class _PairQueue:
    """Normal-strategy pair queue with Gebauer–Moeller pruning."""

    def __init__(self, pk):
        self.pk = pk
        self.exps = []   # leading exponent tuples, one per basis element
        self.heap = []
        self.alive = {}  # (i, j) -> lcm

    def update(self, lms, t):
        """Install pairs of the new element ``t`` against 0..t-1."""
        pk = self.pk
        guard = pk.guard
        lt = lms[t]
        et = pk.dec(lt)
        lcms, degs = [], []
        for ei in self.exps:
            e = tuple(map(max, ei, et))
            deg = sum(e)
            if deg <= pk.mask:
                lcms.append(pk.enc(e))
            elif any(map(min, ei, et)):
                raise _Overflow
            else:
                # A coprime pair is never queued, and an lcm past the
                # field limit divides no lcm within it: it drops out.
                lcms.append(None)
            degs.append(deg)
        self.exps.append(et)
        kept = []
        for i, l in enumerate(lcms):
            if l is None:
                continue
            if l != lms[i] + lt:
                dominated = any(not (l - l2) & guard for l2 in lcms[i + 1:]
                                if l2 is not None) \
                    or any(not (l - lcms[k]) & guard for k in kept)
                if dominated:
                    continue
            kept.append(i)
        # Chain-criterion filter on the existing queue.
        for (i, j), l in list(self.alive.items()):
            if not (l - lt) & guard and lcms[i] != l and lcms[j] != l:
                del self.alive[(i, j)]
        # Coprime survivors are dropped (criterion 1); the rest are queued.
        for i in kept:
            l = lcms[i]
            if l == lms[i] + lt:
                continue
            self.alive[(i, t)] = l
            heapq.heappush(self.heap, (degs[i], l, i, t))

    def pop(self):
        """Next live pair as (i, j, lcm), or None when drained."""
        while self.heap:
            _, l, i, j = heapq.heappop(self.heap)
            if self.alive.get((i, j)) == l:
                del self.alive[(i, j)]
                return i, j, l
        return None


def _replay(rep, log, reps, p, guard):
    """rep -= sum(c * x^shift * reps[k]) over the ``_nf`` log entries."""
    for k, q, c in log:
        for t, r in enumerate(reps[k]):
            if r:
                _axpy(rep[t], p - c, q, r, p, guard)


def _reduce_basis(basis, lms, p, guard, reps=None):
    """Minimalize and tail-reduce to the canonical reduced basis.

    Each tail is reduced against the whole basis, tails already reduced
    included: a tail monomial lies below its own leading monomial, which
    therefore never divides it.  Returns (basis, reps) sorted largest
    leading monomial first; ``reps`` is carried through the same row
    operations when provided.
    """
    kept = []
    for i in sorted(range(len(basis)), key=lms.__getitem__):
        if any(not (lms[i] - lms[j]) & guard for j in kept):
            continue
        kept.append(i)
    basis = [basis[i] for i in kept]
    lms = [lms[i] for i in kept]
    if reps is not None:
        reps = [reps[i] for i in kept]
    reducers = [(lm, _tail(d, lm)) for d, lm in zip(basis, lms)]
    for idx, (lm, tail) in enumerate(reducers):
        log = None if reps is None else []
        tail = _nf(tail, reducers, p, guard, {}, log)  # consumes the old tail
        reducers[idx] = (lm, tail)
        basis[idx] = {lm: 1, **tail}
        if log:
            _replay(reps[idx], log, reps, p, guard)
    final = sorted(range(len(basis)), key=lms.__getitem__, reverse=True)
    basis = [basis[i] for i in final]
    if reps is not None:
        reps = [reps[i] for i in final]
    return basis, reps


def _buchberger(gens, p, pk, budget, track):
    """The one Buchberger loop; cofactors are carried only under ``track``.

    ``gens`` are packed dicts.  Returns ``(basis, reps, pairs_processed)``
    as packed dicts, ``reps[k]`` holding basis element k's cofactors over
    the inputs (each None when ``track`` is false).  When 1 is discovered
    the run stops at once with basis ``[1]`` and its cofactor row.
    """
    guard = pk.guard
    ngen = len(gens)
    basis = []
    lms = []
    reps = []
    reducers = []   # monic (lm, tail)
    memo = {}
    queue = _PairQueue(pk)
    pairs_processed = 0

    def install(d, rep):
        """Make d monic and add it; True when it is the constant 1."""
        lm = max(d)
        lc = d[lm]
        if lc != 1:
            inv = pow(lc, p - 2, p)
            d = _scale(d, inv, p)
            if track:
                rep = [_scale(r, inv, p) for r in rep]
        basis.append(d)
        lms.append(lm)
        reps.append(rep)
        if lm == 0:
            return True
        reducers.append((lm, _tail(d, lm)))
        queue.update(lms, len(basis) - 1)
        return False

    for k, d in enumerate(gens):
        if not d:
            continue
        rep = None
        if track:
            rep = [dict() for _ in range(ngen)]
            rep[k][0] = 1
        if install(d, rep):
            return basis[-1:], reps[-1:], pairs_processed

    while True:
        item = queue.pop()
        if item is None:
            break
        if budget is not None and pairs_processed >= budget:
            raise BudgetExceeded(pairs_processed, len(basis))
        pairs_processed += 1
        i, j, l = item
        qi = l - lms[i]
        qj = l - lms[j]
        s = {}
        _axpy(s, 1, qi, basis[i], p, guard)
        _axpy(s, p - 1, qj, basis[j], p, guard)
        # The seed entries sum to -s, so the whole log sums to -r and
        # replaying it onto zero rows gives the cofactors of r.
        log = [(i, qi, p - 1), (j, qj, 1)] if track else None
        r = _nf(s, reducers, p, guard, memo, log)
        if not r:
            continue
        rep = None
        if track:
            rep = [dict() for _ in range(ngen)]
            _replay(rep, log, reps, p, guard)
        if install(r, rep):
            return basis[-1:], reps[-1:], pairs_processed

    basis, reps = _reduce_basis(basis, lms, p, guard, reps if track else None)
    return basis, reps, pairs_processed


# -- public boundary --------------------------------------------------------------


def _to_terms(d, pk):
    dec = pk.dec
    return [(dec(m), d[m]) for m in sorted(d, reverse=True)]


def _reducers(gens, p):
    """Monic ``(lm, tail)`` reducers for the nonzero packed generators, in
    input order, and per reducer its generator's index and the inverse of
    that generator's leading coefficient.  The generators are consumed."""
    reducers, owners = [], []
    for k, d in enumerate(gens):
        if d:
            lm = max(d)
            inv = pow(d.pop(lm), p - 2, p)
            reducers.append((lm, d if inv == 1 else _scale(d, inv, p)))
            owners.append((k, inv))
    return reducers, owners


def normal_form(f_terms, gens_terms, nvars, p, kind, split=None):
    def run(pk, polys):
        f, *gens = polys
        reducers, _ = _reducers(gens, p)
        return _to_terms(_nf(f, reducers, p, pk.guard, {}), pk)
    return _packed(nvars, kind, split, [f_terms, *gens_terms], run)


def buchberger(gens_terms, nvars, p, kind, split=None, budget=None):
    """Reduced Groebner basis and the processed-pair count."""
    def run(pk, gens):
        basis, _, pairs = _buchberger(gens, p, pk, budget, False)
        return [_to_terms(d, pk) for d in basis], pairs
    return _packed(nvars, kind, split, gens_terms, run)


def normal_form_tracked(f_terms, gens_terms, nvars, p, kind, split=None):
    """Remainder plus per-generator quotients (aligned with the input)."""
    def run(pk, polys):
        f, *gens = polys
        reducers, owners = _reducers(gens, p)
        log = []
        r = _nf(f, reducers, p, pk.guard, {}, log)
        quots = [dict() for _ in gens]
        for k, q, c in log:   # one normal form reduces each monomial once
            owner, inv = owners[k]
            quots[owner][q] = c * inv % p
        return _to_terms(r, pk), [_to_terms(q, pk) for q in quots]
    return _packed(nvars, kind, split, [f_terms, *gens_terms], run)


def buchberger_tracked(gens_terms, nvars, p, kind, split=None, budget=None):
    """Buchberger with cofactor tracking over the original generators.

    Returns ``(basis, reps, pairs_processed, None)``: ``reps[k]`` expresses
    basis element k as cofactors over the inputs; for the unit ideal the
    basis is ``[1]``.  The last slot is always None; it stays because
    ``perfbench/tracing.py`` unpacks four values.
    """
    def run(pk, gens):
        basis, reps, pairs = _buchberger(gens, p, pk, budget, True)
        return ([_to_terms(d, pk) for d in basis],
                [[_to_terms(r, pk) for r in rep] for rep in reps], pairs, None)
    return _packed(nvars, kind, split, gens_terms, run)
