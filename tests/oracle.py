"""A textbook Groebner oracle over F_p that shares no code with godeaux.

A polynomial is a plain dict ``{exponent tuple: coefficient in 1..p-1}``
and an order is a key function on exponent tuples, larger key meaning
larger monomial.  ``groebner`` is Buchberger's algorithm over all pairs,
with no criteria, taking the pair of least lcm degree and then of least
lcm in the order, followed by minimalisation and inter-reduction.  The
reduced Groebner basis of an ideal is unique for a given order (Becker &
Weispfenning, *Groebner Bases*, GTM 141, ch. 5), so it fixes the answer
any correct engine must give, however that engine gets there.
"""

import functools
import heapq


def axpy(f, c, shift, g, p):
    """f + c * x^shift * g, as a new dict."""
    out = dict(f)
    for e, d in g.items():
        m = tuple(a + b for a, b in zip(shift, e))
        v = (out.get(m, 0) + c * d) % p
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def mul(f, g, p, acc=None):
    """acc + f * g, or f * g alone without ``acc``."""
    if len(f) > len(g):
        f, g = g, f
    out = acc or {}
    for e, c in f.items():
        out = axpy(out, c, e, g, p)
    return out


def degrevlex(e):
    """Total degree first; ties go to the smaller exponent of the last
    variable, then of the one before it, and so on."""
    return sum(e), tuple(-a for a in reversed(e))


def lex(e):
    return tuple(e)


def block(k):
    """The first ``k`` variables by degrevlex, ties broken by degrevlex on
    the rest: an elimination order for the first ``k``."""
    return lambda e: (degrevlex(e[:k]), degrevlex(e[k:]))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def normal_form(f, basis, p, key):
    """The remainder of f on full division by ``basis``, the first divisor
    of each leading term in list order."""
    leads = [(max(g, key=key), g) for g in basis if g]
    f, rem = dict(f), {}
    while f:
        m = max(f, key=key)
        for lm, g in leads:
            if _divides(lm, m):
                c = f[m] * pow(g[lm], p - 2, p) % p
                f = axpy(f, p - c, tuple(a - b for a, b in zip(m, lm)), g, p)
                break
        else:
            rem[m] = f.pop(m)
    return rem


def groebner(gens, p, key):
    """The reduced Groebner basis of ``gens``: monic, leading monomials
    descending; ``[]`` for the zero ideal."""
    key = functools.lru_cache(maxsize=None)(key)
    basis, leads, pairs = [], [], []

    def install(g):
        lg = max(g, key=key)
        for i, lh in enumerate(leads):
            lcm = tuple(map(max, lh, lg))
            heapq.heappush(pairs, (sum(lcm), key(lcm), i, len(basis), lcm))
        basis.append(g)
        leads.append(lg)

    for g in gens:
        if g:
            install(g)
    while pairs:
        *_, i, j, lcm = heapq.heappop(pairs)
        s = {}
        for k, sign in ((i, 1), (j, p - 1)):
            c = sign * pow(basis[k][leads[k]], p - 2, p)
            s = axpy(s, c, tuple(a - b for a, b in zip(lcm, leads[k])),
                     basis[k], p)
        r = normal_form(s, basis, p, key)
        if r:
            install(r)
    minimal = []
    for lg, g in sorted(zip(leads, basis), key=lambda t: key(t[0])):
        if not any(_divides(lh, lg) for lh, _ in minimal):
            minimal.append((lg, g))
    reduced = []
    for lg, g in minimal:
        r = normal_form(g, [h for _, h in minimal if h is not g], p, key)
        inv = pow(r[lg], p - 2, p)
        reduced.append({e: c * inv % p for e, c in r.items()})
    return reduced[::-1]
