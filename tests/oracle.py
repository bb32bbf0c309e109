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


def _monomials(n, degree):
    """Every exponent tuple of ``n`` variables and total degree ``degree``."""
    if n == 1:
        return [(degree,)]
    return [(a,) + rest for a in range(degree + 1)
            for rest in _monomials(n - 1, degree - a)]


def graded_kernel(images, degree, p, key):
    """The reduced echelon basis of the degree-``degree`` part of the kernel
    of the derivation x_i -> ``images[i]``: monic vectors, largest leading
    monomial first.  Monomials are taken smallest first; each image is
    reduced by its leading monomial against the images kept so far, its
    preimage carried along, and an image reduced to 0 leaves a kernel
    vector, reduced against the earlier ones.  A subtraction that leaves
    the leading monomial in place raises instead of looping."""
    zero = (0,) * len(images)
    pivots, kernel = {}, []
    for m in sorted(_monomials(len(images), degree), key=key):
        image, pre = {}, {m: 1}
        for i, g in enumerate(images):
            if m[i] % p:
                image = axpy(image, m[i], m[:i] + (m[i] - 1,) + m[i + 1:], g,
                             p)
        while image:
            lm = max(image, key=key)
            if lm not in pivots:
                pivots[lm] = image, pre
                break
            g, h = pivots[lm]
            c = p - image[lm] * pow(g[lm], p - 2, p) % p
            image, pre = axpy(image, c, zero, g, p), axpy(pre, c, zero, h, p)
            if lm in image:
                raise ArithmeticError(f"the pivot at {lm} did not cancel")
        else:
            for v in kernel:
                lv = max(v, key=key)
                if lv in pre:
                    pre = axpy(pre, p - pre[lv], zero, v, p)
            kernel.append(pre)
    return kernel[::-1]
