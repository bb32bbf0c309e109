/* Compiled Groebner kernel over F_p: the C twin of ``_kernel_pure``.

   Same pair selection (normal strategy), same Gebauer-Moeller pruning,
   same first-divisor full normal form, same reduced output and the same
   budget semantics as the pure kernel; only the data structures differ,
   so both backends return identical bases and pair counts.  Cofactor
   tracking stays in the pure kernel.

   Monomials.  A monomial is ``nw`` 64-bit words of 32-bit fields, two
   per word, most significant first: the fields of ``MonomialOrder.key``
   (per block, the reversed partial sums of the exponents; plain
   exponents under lex), then, except under lex, the exponents.  A valid
   field is at most MAX_FIELD = 0xFFFF, so bits 16-31 of each field are
   its guard.  Word-wise comparison is the monomial order, a product is
   word addition (no field carries into its neighbour), a quotient is
   word subtraction, and ``a`` divides ``m`` iff no guard bit of
   ``m - a`` is set: a field of ``m`` below that of ``a`` borrows into
   its own guard.  An input, a product, or the lcm of a pair that is not
   coprime, with a field above MAX_FIELD raises OverflowError and never
   wraps, as does a ring of more than MAX_VARS variables or a modulus of
   at least MAX_COEFF_MODULUS; ``groebner`` then reruns the call on the
   pure kernel, which takes any ring and widens its fields as needed.
   The kernel knows its limits only here: callers do not check them.

   Polynomials are arrays of terms, largest monomial first; a term is
   ``nw + 1`` words, the monomial and then the coefficient.  A reducer is
   scaled monic once, as ``set_add`` adopts it.

   Reduction merges sorted streams (Monagan & Pearce, "Polynomial
   division using dynamic arrays, heaps, and packed exponent vectors",
   CASC 2007): the polynomial being reduced is a heap of streams, each a
   polynomial times a monomial and a scalar.  Popping the largest
   monomial sums every stream that heads with it; a reduction step adds
   one stream, the monic reducer's tail times the negated term.
   ``reduce_basis`` reduces each tail against the whole basis: a tail
   monomial lies below its own leading monomial, which never divides it.

   Signals.  Both loops poll for pending signals, the Buchberger loop once
   per S-pair and ``nf`` every SIGNAL_POLL popped monomials, so Ctrl-C or
   an alarm handler can stop a long call; its exception leaves through
   the usual cleanup.  */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t u64;
typedef uint32_t u32;
typedef Py_ssize_t ssize;

#define MAX_VARS 16
#define MAX_FIELD 0xFFFF
#define MAX_COEFF_MODULUS (1LL << 31)
#define MAXW MAX_VARS                 /* words: two fields per variable */
#define GUARD 0xFFFF0000FFFF0000ULL
#define SIGNAL_POLL 4096              /* a power of two */

static PyObject *BudgetExceeded;

static int fail(PyObject *type, const char *msg)
{
    PyErr_SetString(type, msg);
    return -1;
}

static int overflow(void)
{
    return fail(PyExc_OverflowError,
                "monomial field exceeds the compiled kernel's MAX_FIELD");
}

/* Resizes the array whose pointer is at p to n elements of size bytes;
   on failure sets MemoryError and leaves the array as it was. */
static int grow(void *p, ssize n, size_t size)
{
    void *old, *q;
    memcpy(&old, p, sizeof old);
    if (!(q = realloc(old, (size_t)n * size))) {
        PyErr_NoMemory();
        return -1;
    }
    memcpy(p, &q, sizeof q);
    return 0;
}

/* -- rings and monomials -------------------------------------------------- */

typedef struct {
    int n, nw, lex, nblocks, bstart[MAX_VARS + 1];
    u64 p;
} Ring;

static int ring_init(Ring *r, ssize n, PyObject *pobj, PyObject *kind,
                     PyObject *split)
{
    int ovf;
    long long p = PyLong_AsLongLongAndOverflow(pobj, &ovf);
    if (p == -1 && PyErr_Occurred()) return -1;
    if (n < 1 || (ovf <= 0 && p < 2))
        return fail(PyExc_ValueError, "a ring needs n >= 1 and p >= 2");
    if (n > MAX_VARS || ovf || p >= MAX_COEFF_MODULUS)
        return fail(PyExc_OverflowError,
                    "compiled kernel takes at most 16 variables and p < 2^31");
    *r = (Ring){.n = (int)n, .p = (u64)p, .nblocks = 1, .bstart = {0, (int)n}};
    if (PyUnicode_CompareWithASCIIString(kind, "lex") == 0) {
        r->lex = 1;
        r->nblocks = r->n;
        for (int i = 0; i <= r->n; i++)
            r->bstart[i] = i;
    } else if (PyUnicode_CompareWithASCIIString(kind, "block") == 0) {
        long s = split == Py_None ? 0 : PyLong_AsLong(split);
        if (s == -1 && PyErr_Occurred()) return -1;
        if (s < 1) return fail(PyExc_ValueError, "block split must be >= 1");
        if (s < n) {          /* a split past the last variable: one block */
            r->nblocks = 2;
            r->bstart[1] = (int)s;
            r->bstart[2] = r->n;
        }
    } else if (PyUnicode_CompareWithASCIIString(kind, "degrevlex") != 0) {
        return fail(PyExc_ValueError, "unknown monomial order kind");
    }
    r->nw = r->lex ? (r->n + 1) / 2 : r->n;
    return 0;
}

/* Exponents -> monomial words; OverflowError when a field would exceed
   MAX_FIELD.  Exponents must be non-negative. */
static int encode(const Ring *r, const long *e, u64 *m)
{
    u32 fld[2 * MAX_VARS] = {0};
    for (int b = 0; b < r->nblocks; b++) {
        int b0 = r->bstart[b], b1 = r->bstart[b + 1];
        long total = 0;
        for (int j = b0; j < b1; j++) {
            if ((total += e[j]) > MAX_FIELD) return overflow();
            fld[b0 + b1 - 1 - j] = (u32)total;
        }
    }
    for (int j = 0; !r->lex && j < r->n; j++)
        fld[r->n + j] = (u32)e[j];
    for (int w = 0; w < r->nw; w++)
        m[w] = (u64)fld[2 * w] << 32 | fld[2 * w + 1];
    return 0;
}

static void exps(const Ring *r, const u64 *m, long *e)
{
    for (int j = 0, f = r->lex ? 0 : r->n; j < r->n; j++, f++)
        e[j] = (u32)(m[f >> 1] >> (f & 1 ? 0 : 32));
}

static inline int mcmp(const u64 *a, const u64 *b, int nw)
{
    for (int w = 0; w < nw; w++)
        if (a[w] != b[w]) return a[w] > b[w] ? 1 : -1;
    return 0;
}

static inline int mdivides(const u64 *a, const u64 *m, int nw)
{
    for (int w = 0; w < nw; w++)
        if ((m[w] - a[w]) & GUARD) return 0;
    return 1;
}

static inline int mmul(u64 *out, const u64 *a, const u64 *b, int nw)
{
    u64 g = 0;
    for (int w = 0; w < nw; w++)
        g |= out[w] = a[w] + b[w];
    return g & GUARD ? overflow() : 0;
}

static inline void mdiv(u64 *out, const u64 *m, const u64 *a, int nw)
{
    for (int w = 0; w < nw; w++)
        out[w] = m[w] - a[w];
}

/* Coarse divisibility filter: bit (v * bpv + k) is set iff e_v >= 2^k, so
   a | m implies mask(a) is a subset of mask(m). */
static u64 divmask(const Ring *r, const u64 *m)
{
    long e[MAX_VARS];
    int bpv = 64 / r->n > 16 ? 16 : 64 / r->n;
    u64 mask = 0;
    exps(r, m, e);
    for (int v = 0; v < r->n; v++)
        for (int k = 0; k < bpv && e[v] >> k; k++)
            mask |= 1ULL << (v * bpv + k);
    return mask;
}

static u64 modpow(u64 a, u64 e, u64 p)
{
    u64 out = 1;
    for (a %= p; e; e >>= 1, a = a * a % p)
        if (e & 1)
            out = out * a % p;
    return out;
}

/* -- polynomials and reducer sets ----------------------------------------- */

typedef struct {
    u64 *t;                   /* len terms of nw + 1 words */
    ssize len, cap;
} Poly;

static int poly_push(Poly *f, int nw, const u64 *m, u64 c)
{
    if (f->len == f->cap) {
        ssize cap = f->cap ? 2 * f->cap : 8;
        if (grow(&f->t, cap * (nw + 1), sizeof *f->t) < 0) return -1;
        f->cap = cap;
    }
    memcpy(f->t + f->len * (nw + 1), m, nw * sizeof *m);
    f->t[f->len++ * (nw + 1) + nw] = c;
    return 0;
}

static void poly_free(Poly *f)
{
    free(f->t);
    *f = (Poly){0};
}

typedef struct {              /* a monic reducer or basis element */
    Poly g;
    u64 mask;                 /* divmask of the leading monomial */
    long e[MAX_VARS];         /* leading exponents */
} Elem;

typedef struct {
    Elem *v;
    ssize n, cap;
} Set;

/* Appends the nonzero g (which the set then owns), scaled monic, with its
   leading data. */
static int set_add(const Ring *r, Set *S, Poly g)
{
    int nw = r->nw;
    u64 inv = modpow(g.t[nw], r->p - 2, r->p);
    for (ssize k = 0; inv != 1 && k < g.len; k++)
        g.t[k * (nw + 1) + nw] = g.t[k * (nw + 1) + nw] * inv % r->p;
    if (S->n == S->cap) {
        if (grow(&S->v, S->cap ? 2 * S->cap : 16, sizeof *S->v) < 0)
            return -1;
        S->cap = S->cap ? 2 * S->cap : 16;
    }
    S->v[S->n] = (Elem){.g = g, .mask = divmask(r, g.t)};
    exps(r, g.t, S->v[S->n++].e);
    return 0;
}

static void set_free(Set *S)
{
    for (ssize i = 0; i < S->n; i++)
        poly_free(&S->v[i].g);
    free(S->v);
}

/* -- binary heaps of indices ---------------------------------------------- */

typedef int (*Above)(const void *ctx, ssize a, ssize b);

static inline void sift_up(ssize *h, ssize i, Above above, const void *ctx)
{
    ssize id = h[i];
    for (; i > 0 && above(ctx, id, h[(i - 1) / 2]); i = (i - 1) / 2)
        h[i] = h[(i - 1) / 2];
    h[i] = id;
}

static inline void sift_down(ssize *h, ssize n, ssize i, Above above,
                             const void *ctx)
{
    ssize id = h[i], c;
    while ((c = 2 * i + 1) < n) {
        if (c + 1 < n && above(ctx, h[c + 1], h[c]))
            c++;
        if (!above(ctx, h[c], id)) break;
        h[i] = h[c];
        i = c;
    }
    h[i] = id;
}

/* -- stream merge and normal form ----------------------------------------- */

typedef struct {              /* terms idx.. of t, times x^q and f */
    const u64 *t;
    ssize idx, len;
    u64 f, q[MAXW], head[MAXW];
} Stream;

typedef struct {
    const Ring *r;
    Stream *s;
    ssize *heap;              /* heap[0..nh) live streams, [nh..ns) spare */
    ssize nh, ns, cap;
} Merge;

static int stream_above(const void *ctx, ssize a, ssize b)
{
    const Merge *M = ctx;
    return mcmp(M->s[a].head, M->s[b].head, M->r->nw) > 0;
}

/* Sets the head monomial of s from its term idx; OverflowError if it
   does not fit. */
static int stream_head(Stream *s, int nw)
{
    return mmul(s->head, s->t + s->idx * (nw + 1), s->q, nw);
}

/* Adds f * x^q * (terms idx.. of g); q NULL means 1. */
static int merge_add(Merge *M, const Poly *g, ssize idx, const u64 *q,
                     u64 f)
{
    int nw = M->r->nw;
    Stream *s;
    if (idx >= g->len) return 0;
    if (M->nh == M->ns) {
        if (M->ns == M->cap) {
            ssize cap = M->cap ? 2 * M->cap : 16;
            if (grow(&M->s, cap, sizeof *M->s) < 0
                || grow(&M->heap, cap, sizeof *M->heap) < 0)
                return -1;
            M->cap = cap;
        }
        M->heap[M->ns] = M->ns;
        M->ns++;
    }
    s = &M->s[M->heap[M->nh]];
    *s = (Stream){.t = g->t, .idx = idx, .len = g->len, .f = f};
    if (q)
        memcpy(s->q, q, nw * sizeof *q);
    if (stream_head(s, nw) < 0) return -1;
    sift_up(M->heap, M->nh++, stream_above, M);
    return 0;
}

/* Pops the largest monomial with a nonzero summed coefficient into (m, c):
   1 when found, 0 when the merge is empty, -1 on error. */
static int merge_next(Merge *M, u64 *m, u64 *c)
{
    int nw = M->r->nw;
    while (M->nh) {
        u64 acc = 0;
        memcpy(m, M->s[M->heap[0]].head, nw * sizeof *m);
        do {
            Stream *s = &M->s[M->heap[0]];
            acc = (acc + s->t[s->idx * (nw + 1) + nw] * s->f) % M->r->p;
            if (++s->idx < s->len) {
                if (stream_head(s, nw) < 0) return -1;
            } else {                  /* retire s to the spare slots */
                ssize done = M->heap[0];
                M->heap[0] = M->heap[--M->nh];
                M->heap[M->nh] = done;
            }
            sift_down(M->heap, M->nh, 0, stream_above, M);
        } while (M->nh && mcmp(M->s[M->heap[0]].head, m, nw) == 0);
        if ((*c = acc) != 0) return 1;
    }
    return 0;
}

/* Full normal form of the merge's contents modulo the monic reducers R,
   appended to out.  The divisor of each monomial is the first reducer
   whose leading monomial divides it, as in the pure kernel. */
static int nf(Merge *M, const Set *R, Poly *out)
{
    const Ring *r = M->r;
    int nw = r->nw, got;
    u64 m[MAXW], q[MAXW], c, pops = 0;
    while ((got = merge_next(M, m, &c)) > 0) {
        u64 mask = divmask(r, m);
        ssize k = 0;
        if (++pops % SIGNAL_POLL == 0 && PyErr_CheckSignals() < 0)
            return -1;
        while (k < R->n && ((R->v[k].mask & ~mask)
                            || !mdivides(R->v[k].g.t, m, nw)))
            k++;
        if (k == R->n) {
            if (poly_push(out, nw, m, c) < 0) return -1;
            continue;
        }
        mdiv(q, m, R->v[k].g.t, nw);
        /* the head term cancels m exactly; add the negated tail */
        if (merge_add(M, &R->v[k].g, 1, q, r->p - c) < 0)
            return -1;
    }
    return got;
}

/* -- the Python boundary -------------------------------------------------- */

/* qsort context, set by sort_by_row: monomial rows with a stride.  The
   interpreter lock is held through every kernel call, so sorts cannot
   interleave. */
static const u64 *sort_rows;
static int sort_nw, sort_stride;

/* Row indices, largest monomial first; equal rows, later index first. */
static int by_row(const void *a, const void *b)
{
    ssize i = *(const ssize *)a, j = *(const ssize *)b;
    int c = mcmp(sort_rows + j * sort_stride, sort_rows + i * sort_stride,
                 sort_nw);
    return c ? c : (i < j) - (i > j);
}

static void sort_by_row(ssize *ix, ssize n, const u64 *rows, int nw,
                        int stride)
{
    sort_rows = rows;
    sort_nw = nw;
    sort_stride = stride;
    qsort(ix, n, sizeof *ix, by_row);
}

static int coeff_mod(PyObject *obj, PyObject *pobj, u64 p, u64 *out)
{
    int ovf;
    long long v = PyLong_AsLongLongAndOverflow(obj, &ovf);
    if (ovf) {                /* a huge coefficient: reduce it in Python */
        PyObject *rem = PyNumber_Remainder(obj, pobj);
        if (!rem) return -1;
        v = PyLong_AsLongLong(rem);
        Py_DECREF(rem);
    }
    if (v == -1 && PyErr_Occurred()) return -1;
    v %= (long long)p;
    *out = (u64)(v < 0 ? v + (long long)p : v);
    return 0;
}

/* Exponent sequence of length r->n -> monomial words. */
static int read_monomial(const Ring *r, PyObject *obj, u64 *m)
{
    long e[MAX_VARS];
    PyObject *seq = PySequence_Fast(obj, "exponents must be a sequence");
    int ok = seq && PySequence_Fast_GET_SIZE(seq) == r->n;
    for (int j = 0; ok && j < r->n; j++)
        ok = (e[j] = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, j))) >= 0;
    Py_XDECREF(seq);
    if (!ok && !PyErr_Occurred())
        fail(PyExc_ValueError, "expected nvars non-negative exponents");
    return ok ? encode(r, e, m) : -1;
}

/* Term list -> canonical polynomial in out (empty on entry): reduced mod
   p, zero terms dropped, and of repeated exponents the last one wins. */
static int to_poly(const Ring *r, PyObject *pobj, PyObject *terms, Poly *out)
{
    int nw = r->nw, sorted = 1, rc = -1;
    PyObject *seq = PySequence_Fast(terms, "a polynomial is a sequence of "
                                    "(exponents, coefficient) pairs");
    ssize n, *ix = NULL;
    u64 *rows = NULL;
    if (!seq) return -1;
    n = PySequence_Fast_GET_SIZE(seq);
    if (grow(&rows, n * (nw + 1) + 1, sizeof *rows) < 0
        || grow(&ix, n + 1, sizeof *ix) < 0)
        goto done;
    for (ssize i = 0; i < n; i++) {
        PyObject *pair = PySequence_Tuple(PySequence_Fast_GET_ITEM(seq, i));
        PyObject *e, *coeff;
        u64 *row = rows + i * (nw + 1);
        int bad = !pair || !PyArg_UnpackTuple(pair, "term", 2, 2, &e, &coeff)
                  || read_monomial(r, e, row) < 0
                  || coeff_mod(coeff, pobj, r->p, row + nw) < 0;
        Py_XDECREF(pair);
        if (bad) goto done;
        ix[i] = i;
        if (i && mcmp(row - (nw + 1), row, nw) <= 0)
            sorted = 0;
    }
    if (!sorted)
        sort_by_row(ix, n, rows, nw, nw + 1);
    for (ssize k = 0; k < n; k++) {
        const u64 *row = rows + ix[k] * (nw + 1);
        if (k && mcmp(rows + ix[k - 1] * (nw + 1), row, nw) == 0)
            continue;         /* an earlier occurrence of the last term */
        if (row[nw] && poly_push(out, nw, row, row[nw]) < 0) goto done;
    }
    rc = 0;
done:
    Py_DECREF(seq);
    free(rows);
    free(ix);
    return rc;
}

static PyObject *to_terms(const Ring *r, const Poly *f)
{
    PyObject *out = PyList_New(f->len);
    for (ssize i = 0; out && i < f->len; i++) {
        const u64 *row = f->t + i * (r->nw + 1);
        long e[MAX_VARS];
        PyObject *t = PyTuple_New(r->n), *term;
        exps(r, row, e);
        for (int j = 0; t && j < r->n; j++) {
            PyObject *v = PyLong_FromLong(e[j]);
            if (!v)
                Py_CLEAR(t);
            else
                PyTuple_SET_ITEM(t, j, v);
        }
        term = Py_BuildValue("(NK)", t, (unsigned long long)row[r->nw]);
        if (!term)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, term);
    }
    return out;
}

/* -- Buchberger ----------------------------------------------------------- */

typedef struct {
    ssize i, j;
    long deg;                 /* total degree of the lcm */
    int alive;
    u64 l[MAXW];              /* lcm of the leading monomials */
} Pair;

typedef struct {
    int nw;
    Pair *v;                  /* every pair ever queued */
    ssize *heap;              /* queued ids: least (deg, lcm, i, j) on top */
    ssize n, nh, cap;
} Pairs;

static int pair_above(const void *ctx, ssize a, ssize b)
{
    const Pairs *P = ctx;
    const Pair *x = &P->v[a], *y = &P->v[b];
    int c;
    if (x->deg != y->deg) return x->deg < y->deg;
    if ((c = mcmp(x->l, y->l, P->nw)) != 0) return c < 0;
    return x->i != y->i ? x->i < y->i : x->j < y->j;
}

static int pairs_push(Pairs *P, const Pair *pair)
{
    if (P->n == P->cap) {
        ssize cap = P->cap ? 2 * P->cap : 64;
        if (grow(&P->v, cap, sizeof *P->v) < 0
            || grow(&P->heap, cap, sizeof *P->heap) < 0)
            return -1;
        P->cap = cap;
    }
    P->v[P->n] = *pair;
    P->heap[P->nh] = P->n++;
    sift_up(P->heap, P->nh++, pair_above, P);
    return 0;
}

/* Next live pair, or -1 when the queue is drained. */
static ssize pairs_pop(Pairs *P)
{
    while (P->nh) {
        ssize id = P->heap[0];
        P->heap[0] = P->heap[--P->nh];
        sift_down(P->heap, P->nh, 0, pair_above, P);
        if (P->v[id].alive) {
            P->v[id].alive = 0;
            return id;
        }
    }
    return -1;
}

/* Gebauer-Moeller installation of the pairs of the newest element t:
   a pair (i, t) is dropped when its leading monomials are coprime, or
   when the lcm of a later pair (j, t) or of a kept one divides its lcm;
   then a queued pair whose lcm lt divides, and equals neither new lcm
   of its two elements, is dropped too (chain criterion). */
static int pairs_update(const Ring *r, Pairs *P, const Set *B)
{
    ssize t = B->n - 1;
    int nw = r->nw, rc = -1;
    Pair *c = NULL;           /* candidates (i, t); alive means kept */
    if (grow(&c, t + 1, sizeof *c) < 0) return -1;
    for (ssize i = 0; i < t; i++) {
        long e[MAX_VARS], deg = 0;
        int coprime = 1;
        for (int v = 0; v < r->n; v++) {
            long a = B->v[i].e[v], b = B->v[t].e[v];
            deg += e[v] = a > b ? a : b;
            coprime &= !a || !b;
        }
        c[i] = (Pair){.i = i, .j = t, .deg = deg, .alive = coprime ? 2 : 1};
        if (encode(r, e, c[i].l) < 0) {
            if (!coprime) goto done;
            /* A coprime pair is never queued, and an lcm past the field
               limit divides no lcm within it: it drops out.  Its guard
               bits are set, so it equals no valid lcm either. */
            PyErr_Clear();
            c[i].alive = 0;
            memset(c[i].l, 0xFF, sizeof c[i].l);
        }
    }
    for (ssize i = 0; i < t; i++)     /* 2 marks a coprime pair */
        for (ssize j = 0; c[i].alive == 1 && j < t; j++)
            if (j != i && c[j].alive && mdivides(c[j].l, c[i].l, nw))
                c[i].alive = 0;
    for (ssize k = 0; k < P->nh; k++) {
        Pair *q = &P->v[P->heap[k]];
        if (q->alive && mdivides(B->v[t].g.t, q->l, nw)
            && mcmp(c[q->i].l, q->l, nw) && mcmp(c[q->j].l, q->l, nw))
            q->alive = 0;
    }
    for (ssize i = 0; i < t; i++)
        if (c[i].alive == 1 && pairs_push(P, &c[i]) < 0) goto done;
    rc = 0;
done:
    free(c);
    return rc;
}

/* Adopts *d into the basis (*d is left empty): 1 when d is a constant,
   so the ideal is the unit ideal. */
static int install(const Ring *r, Set *B, Pairs *P, Poly *d)
{
    for (int w = 0; w < r->nw; w++)
        if (d->t[w]) {
            if (set_add(r, B, *d) < 0) return -1;
            *d = (Poly){0};
            return pairs_update(r, P, B);
        }
    poly_free(d);
    return 1;
}

/* Minimalized, tail-reduced basis as term lists, largest leading
   monomial first. */
static PyObject *reduce_basis(const Ring *r, Set *B, Merge *M)
{
    ssize n = B->n, *ix = NULL;
    int nw = r->nw;
    u64 *lms = NULL;
    Set K = {0};
    PyObject *out = NULL;
    if (grow(&ix, n + 1, sizeof *ix) < 0
        || grow(&lms, n * nw + 1, sizeof *lms) < 0)
        goto done;
    for (ssize i = 0; i < n; i++) {
        memcpy(lms + i * nw, B->v[i].g.t, nw * sizeof *lms);
        ix[i] = i;
    }
    sort_by_row(ix, n, lms, nw, nw);
    for (ssize k = n - 1; k >= 0; k--) {      /* ascending leading monomial */
        ssize j = 0, i = ix[k];
        while (j < K.n && !mdivides(K.v[j].g.t, lms + i * nw, nw))
            j++;
        if (j == K.n) {
            if (set_add(r, &K, B->v[i].g) < 0) goto done;
            B->v[i].g = (Poly){0};
        }
    }
    for (ssize i = 0; i < K.n; i++) {     /* the leading term, then the */
        Poly red = {0};                   /* tail reduced modulo all of K */
        if (poly_push(&red, nw, K.v[i].g.t, 1) < 0
            || merge_add(M, &K.v[i].g, 1, NULL, 1) < 0
            || nf(M, &K, &red) < 0) {
            poly_free(&red);
            goto done;
        }
        poly_free(&K.v[i].g);
        K.v[i].g = red;
    }
    out = PyList_New(K.n);
    for (ssize j = 0; out && j < K.n; j++) {
        PyObject *terms = to_terms(r, &K.v[K.n - 1 - j].g);
        if (!terms)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, j, terms);
    }
done:
    free(ix);
    free(lms);
    set_free(&K);
    return out;
}

static PyObject *py_buchberger(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *names[] = {"gens_terms", "nvars", "p", "kind", "split",
                            "budget", NULL};
    PyObject *gens, *pobj, *kind, *split = Py_None, *budget = Py_None;
    PyObject *seq = NULL, *basis = NULL;
    ssize nvars, limit = -1, pairs = 0;
    int unit = 0;
    Ring r;
    Set B = {0};
    Pairs P = {0};
    Merge M = {.r = &r};
    Poly d = {0};
    if (!PyArg_ParseTupleAndKeywords(args, kw, "OnOU|OO", names, &gens,
                                     &nvars, &pobj, &kind, &split, &budget)
        || ring_init(&r, nvars, pobj, kind, split) < 0)
        return NULL;
    /* a budget past the ssize range is clipped to it */
    if (budget != Py_None && (limit = PyNumber_AsSsize_t(budget, NULL)) == -1
        && PyErr_Occurred())
        return NULL;
    P.nw = r.nw;
    if (!(seq = PySequence_Fast(gens, "gens_terms must be a sequence")))
        goto done;
    for (ssize i = 0; !unit && i < PySequence_Fast_GET_SIZE(seq); i++) {
        if (to_poly(&r, pobj, PySequence_Fast_GET_ITEM(seq, i), &d) < 0
            || (d.len && (unit = install(&r, &B, &P, &d)) < 0))
            goto done;
        poly_free(&d);
    }
    while (!unit) {
        ssize id = pairs_pop(&P);
        u64 s[MAXW];
        Pair q;
        if (id < 0) break;
        if (PyErr_CheckSignals() < 0) goto done;
        if (budget != Py_None && pairs >= limit) {
            PyObject *exc = PyObject_CallFunction(BudgetExceeded, "nn",
                                                  pairs, B.n);
            if (exc) {
                PyErr_SetObject(BudgetExceeded, exc);
                Py_DECREF(exc);
            }
            goto done;
        }
        pairs++;
        q = P.v[id];
        mdiv(s, q.l, B.v[q.i].g.t, r.nw);
        if (merge_add(&M, &B.v[q.i].g, 0, s, 1) < 0) goto done;
        mdiv(s, q.l, B.v[q.j].g.t, r.nw);
        if (merge_add(&M, &B.v[q.j].g, 0, s, r.p - 1) < 0
            || nf(&M, &B, &d) < 0
            || (d.len && (unit = install(&r, &B, &P, &d)) < 0))
            goto done;
    }
    if (unit) {
        u64 one[MAXW + 1] = {0};
        Poly f = {one, 1, 1};
        one[r.nw] = 1;
        basis = Py_BuildValue("[N]", to_terms(&r, &f));
    } else {
        basis = reduce_basis(&r, &B, &M);
    }
done:
    Py_XDECREF(seq);
    set_free(&B);
    free(P.v);
    free(P.heap);
    free(M.s);
    free(M.heap);
    poly_free(&d);
    return basis ? Py_BuildValue("(Nn)", basis, pairs) : NULL;
}

static PyObject *py_normal_form(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *names[] = {"f_terms", "gens_terms", "nvars", "p", "kind",
                            "split", NULL};
    PyObject *f_terms, *gens, *pobj, *kind, *split = Py_None;
    PyObject *seq = NULL, *out = NULL;
    ssize nvars;
    Ring r;
    Set R = {0};
    Merge M = {.r = &r};
    Poly f = {0}, d = {0};
    if (!PyArg_ParseTupleAndKeywords(args, kw, "OOnOU|O", names, &f_terms,
                                     &gens, &nvars, &pobj, &kind, &split)
        || ring_init(&r, nvars, pobj, kind, split) < 0)
        return NULL;
    if (!(seq = PySequence_Fast(gens, "gens_terms must be a sequence")))
        goto done;
    for (ssize i = 0; i < PySequence_Fast_GET_SIZE(seq); i++) {
        if (to_poly(&r, pobj, PySequence_Fast_GET_ITEM(seq, i), &d) < 0
            || (d.len && set_add(&r, &R, d) < 0))
            goto done;
        if (d.len)
            d = (Poly){0};    /* now owned by R */
    }
    if (to_poly(&r, pobj, f_terms, &f) < 0
        || merge_add(&M, &f, 0, NULL, 1) < 0 || nf(&M, &R, &d) < 0)
        goto done;
    out = to_terms(&r, &d);
done:
    Py_XDECREF(seq);
    set_free(&R);
    free(M.s);
    free(M.heap);
    poly_free(&f);
    poly_free(&d);
    return out;
}

/* -- module --------------------------------------------------------------- */

static PyMethodDef methods[] = {
    {"normal_form", (PyCFunction)(void (*)(void))py_normal_form,
     METH_VARARGS | METH_KEYWORDS,
     "normal_form(f_terms, gens_terms, nvars, p, kind, split=None)\n--\n\n"
     "Full normal form of f modulo the generators, in their order."},
    {"buchberger", (PyCFunction)(void (*)(void))py_buchberger,
     METH_VARARGS | METH_KEYWORDS,
     "buchberger(gens_terms, nvars, p, kind, split=None, budget=None)\n--\n\n"
     "Reduced Groebner basis and the processed-pair count."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "_kernel",
    "Compiled Groebner kernel: the C twin of godeaux._kernel_pure.", -1,
    methods,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    PyObject *errors = PyImport_ImportModule("godeaux.errors"), *m, *mod;
    if (!errors) return NULL;
    BudgetExceeded = PyObject_GetAttrString(errors, "BudgetExceeded");
    Py_DECREF(errors);
    if (!BudgetExceeded || !(m = PyModule_Create(&moduledef))) return NULL;
    mod = PyLong_FromLongLong(MAX_COEFF_MODULUS);
    if (!mod || PyModule_AddObjectRef(m, "MAX_COEFF_MODULUS", mod) < 0
        || PyModule_AddStringConstant(m, "BACKEND_NAME", "compiled") < 0
        || PyModule_AddIntConstant(m, "MAX_VARS", MAX_VARS) < 0
        || PyModule_AddIntConstant(m, "MAX_FIELD", MAX_FIELD) < 0
        || PyModule_AddObjectRef(m, "BudgetExceeded", BudgetExceeded) < 0)
        Py_CLEAR(m);
    Py_XDECREF(mod);
    return m;
}
