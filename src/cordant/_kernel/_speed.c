/* Compiled search kernels.
 *
 * Twin of pure.py, written once against the CPython API: the same three
 * kernels (labeling, R*-sequence, sigma-max) with the same traversal
 * order, pruning rules, dead-state memo policy and node accounting, so the
 * two backends return identical results, node counts included.  Any
 * observable divergence on well-formed input is a bug; the parity tests
 * build this file and compare the backends directly.
 *
 * Instances are index-encoded exactly as in pure.py.  Unlike pure.py, a
 * malformed instance (wrong table length, a label or index out of range,
 * an incidence the memo key cannot describe) raises ValueError here
 * instead of reading out of bounds.
 *
 * Build in place with `python setup.py build_ext --inplace`; without this
 * module the package runs on pure.py.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { ERROR = -1, FOUND = 0, EXHAUSTED = 1, BUDGET = 2 };

/* Stop inserting dead states beyond this many entries (lookups continue). */
#define MEMO_LIMIT (1L << 22)
/* Dead-state keys must pack into this many bits or memoization is skipped. */
#define MEMO_MAX_BITS 63
/* Table size ceiling: twice MEMO_LIMIT keeps the load factor at most 1/2. */
#define MEMO_MAX_SLOTS ((size_t)1 << 23)

static int
bitlen(long v)
{
    int n = 0;
    while (v > 0) {
        v >>= 1;
        n++;
    }
    return n > 0 ? n : 1;
}

/* Copy a sequence of ints into a new C array.  The sequence must have
 * `len` entries (any length when len < 0; the length is stored in *out_len
 * when out_len is given) and every entry must lie in [lo, hi].  Returns
 * NULL with an exception set on failure. */
static int *
copy_ints(PyObject *obj, const char *what, Py_ssize_t len, long lo, long hi,
          Py_ssize_t *out_len)
{
    PyObject *seq = PySequence_Fast(obj, what);
    if (seq == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    int *buf = NULL;
    if (len >= 0 && n != len) {
        PyErr_Format(PyExc_ValueError, "%s: expected %zd entries, got %zd",
                     what, len, n);
        goto done;
    }
    buf = malloc((n > 0 ? (size_t)n : 1) * sizeof(int));
    if (buf == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (Py_ssize_t i = 0; i < n; i++) {
        long v = PyLong_AsLong(items[i]);
        if (v == -1 && PyErr_Occurred()) {
            free(buf);
            buf = NULL;
            goto done;
        }
        if (v < lo || v > hi) {
            PyErr_Format(PyExc_ValueError, "%s: entry %zd out of range",
                         what, i);
            free(buf);
            buf = NULL;
            goto done;
        }
        buf[i] = (int)v;
    }
    if (out_len != NULL)
        *out_len = n;
done:
    Py_DECREF(seq);
    return buf;
}

static PyObject *
int_list(const int *values, int n)
{
    PyObject *list = PyList_New(n);
    if (list == NULL)
        return NULL;
    for (int i = 0; i < n; i++) {
        PyObject *v = PyLong_FromLong(values[i]);
        if (v == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, v);
    }
    return list;
}

/* (status, assignment or None, nodes): the chain/generic result shape. */
static PyObject *
assignment_result(int status, const int *assign, int s, long long nodes)
{
    if (status == ERROR)
        return NULL;
    if (status != FOUND)
        return Py_BuildValue("(iOL)", status, Py_None, nodes);
    PyObject *list = int_list(assign, s);
    if (list == NULL)
        return NULL;
    return Py_BuildValue("(iNL)", status, list, nodes);
}

/* ------------------------------------------------------------------------
 * dead-state memo: open-addressing hash set of packed keys.  A packed key
 * starts with a slot position >= 1, so it is never 0 and 0 marks an empty
 * table slot. */

typedef struct {
    uint64_t *keys;
    size_t mask;
    size_t entries;
} Memo;

static int
memo_init(Memo *mm)
{
    size_t size = (size_t)1 << 12;
    mm->keys = calloc(size, sizeof(uint64_t));
    if (mm->keys == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    mm->mask = size - 1;
    mm->entries = 0;
    return 0;
}

static inline size_t
memo_slot(const Memo *mm, uint64_t key)
{
    size_t i = (size_t)((key * 0x9E3779B97F4A7C15ULL) >> 17) & mm->mask;
    while (mm->keys[i] != 0 && mm->keys[i] != key)
        i = (i + 1) & mm->mask;
    return i;
}

static inline int
memo_has(const Memo *mm, uint64_t key)
{
    return mm->keys[memo_slot(mm, key)] != 0;
}

static int
memo_add(Memo *mm, uint64_t key)
{
    if (mm->entries >= (size_t)MEMO_LIMIT)
        return 0;
    size_t size = mm->mask + 1;
    if ((mm->entries + 1) * 2 > size && size < MEMO_MAX_SLOTS) {
        uint64_t *old = mm->keys;
        mm->keys = calloc(size * 2, sizeof(uint64_t));
        if (mm->keys == NULL) {
            mm->keys = old;
            PyErr_NoMemory();
            return -1;
        }
        mm->mask = size * 2 - 1;
        for (size_t i = 0; i < size; i++)
            if (old[i] != 0)
                mm->keys[memo_slot(mm, old[i])] = old[i];
        free(old);
    }
    size_t i = memo_slot(mm, key);
    if (mm->keys[i] == 0) {
        mm->keys[i] = key;
        mm->entries++;
    }
    return 0;
}

/* ------------------------------------------------------------------------
 * labeling kernel: slots feed derived sums through a CSR incidence */

typedef struct {
    int m, s;
    /* neg_t is checked like every table but not needed: partial sums are
     * restored from fed[] */
    int *add_t, *neg_t, *slot_cap, *slot_floor, *dcap, *dfloor;
    int *sd_ptr, *sd_ids, *comp_ptr, *comp_ids;
    int *assign, *psum, *scount, *dcount, *remaining_at;
    /* per feed entry, the partial sum before its slot; per completion
     * entry, that sum times m (an add_t row) */
    int *fed, *row;
    int sdef, ddef;
    long long nodes, budget;
    /* Dead-state memo.  key[i] packs the state before slot i, most
     * significant first: the position, one field per open item (fed by a
     * placed slot, completed by a later one), the slot counts and the
     * derived counts.  shift[d] is the offset of item d's field; an item
     * that is never open has shift 0, and what it adds at its one slot
     * cancels.  With the memo off no key is computed. */
    int memo_on;
    int *shift;
    uint64_t *key, *sunit, *dunit, pos_unit;
    Memo memo;
} Generic;

static void
generic_free(Generic *g)
{
    free(g->memo.keys);
    free(g->add_t);
    free(g->neg_t);
    free(g->slot_cap);
    free(g->slot_floor);
    free(g->dcap);
    free(g->dfloor);
    free(g->sd_ptr);
    free(g->sd_ids);
    free(g->comp_ptr);
    free(g->comp_ids);
    free(g->assign);
    free(g->psum);
    free(g->scount);
    free(g->dcount);
    free(g->remaining_at);
    free(g->fed);
    free(g->row);
    free(g->shift);
    free(g->key);
    free(g->sunit);
    free(g->dunit);
}

/* Check that no slot feeds an item twice and that an item is completed at
 * most once, by the last slot that feeds it: the kernel and its memo key
 * rely on both.  Then number the fields into shift[]: an item gets one when
 * a slot feeds it first and a later slot completes it (an item never
 * completed stays open to the end), and its field is free again once it
 * completes.  Returns the number of fields, or -1 with an exception set. */
static int
plan_fields(Generic *g, int nd)
{
    int width = -1, nfree = 0, s = g->s;
    size_t size = (nd > 0 ? (size_t)nd : 1) * sizeof(int);
    int *close_at = malloc(size), *fed_at = malloc(size), *spare = malloc(size);
    if (!close_at || !fed_at || !spare) {
        PyErr_NoMemory();
        goto done;
    }
    for (int d = 0; d < nd; d++) {
        close_at[d] = s;
        fed_at[d] = -1;
        g->shift[d] = -1;
    }
    for (int i = 0; i < s; i++)
        for (int t = g->comp_ptr[i]; t < g->comp_ptr[i + 1]; t++) {
            int d = g->comp_ids[t];
            if (close_at[d] != s)
                goto malformed;
            close_at[d] = i;
        }
    width = 0;
    for (int i = 0; i < s; i++) {
        for (int t = g->sd_ptr[i]; t < g->sd_ptr[i + 1]; t++) {
            int d = g->sd_ids[t];
            if (fed_at[d] == i || close_at[d] < i)
                goto malformed;
            fed_at[d] = i;
        }
        for (int t = g->comp_ptr[i]; t < g->comp_ptr[i + 1]; t++) {
            int d = g->comp_ids[t];
            if (fed_at[d] != i)
                goto malformed;
            if (g->shift[d] >= 0)
                spare[nfree++] = g->shift[d];
        }
        for (int t = g->sd_ptr[i]; t < g->sd_ptr[i + 1]; t++) {
            int d = g->sd_ids[t];
            if (g->shift[d] < 0 && close_at[d] > i)
                g->shift[d] = nfree > 0 ? spare[--nfree] : width++;
        }
    }
    goto done;
malformed:
    PyErr_SetString(PyExc_ValueError,
                    "a slot feeds an item twice, or an item is completed "
                    "twice or not by its last slot");
    width = -1;
done:
    free(close_at);
    free(fed_at);
    free(spare);
    return width;
}

/* Before labels are tried at slot i: save the partial sums it feeds, and
 * the add_t rows of the items it completes. */
static inline void
generic_enter(Generic *g, int i)
{
    for (int t = g->sd_ptr[i], f1 = g->sd_ptr[i + 1]; t < f1; t++)
        g->fed[t] = g->psum[g->sd_ids[t]];
    for (int t = g->comp_ptr[i], c1 = g->comp_ptr[i + 1]; t < c1; t++)
        g->row[t] = g->psum[g->comp_ids[t]] * g->m;
}

/* After the last label at slot i: restore the partial sums it fed. */
static inline void
generic_leave(Generic *g, int i)
{
    for (int t = g->sd_ptr[i], f1 = g->sd_ptr[i + 1]; t < f1; t++)
        g->psum[g->sd_ids[t]] = g->fed[t];
}

/* Release the sums label x completed at slot i, comp_ptr[i] .. end-1,
 * last first. */
static inline void
generic_uncount(Generic *g, int i, int x, int end)
{
    for (int t = end - 1, c0 = g->comp_ptr[i]; t >= c0; t--) {
        int v = g->add_t[g->row[t] + x];
        if (g->dcount[v] <= g->dfloor[v])
            g->ddef++;
        g->dcount[v]--;
    }
}

/* Take label x off slot i; the partial sums stay until generic_leave. */
static inline void
generic_unplace(Generic *g, int i, int x)
{
    if (g->scount[x] <= g->slot_floor[x])
        g->sdef++;
    g->scount[x]--;
    g->assign[i] = -1;
    generic_uncount(g, i, x, g->comp_ptr[i + 1]);
}

/* Apply label x at slot i and set key[i + 1]; 1 when placed, 0 when
 * rejected.  Slot i feeds every item it completes, so the completed sums
 * are counted and the bounds tested before any partial sum moves. */
static inline int
generic_place(Generic *g, int i, int x)
{
    if (g->scount[x] >= g->slot_cap[x])
        return 0;
    const int c0 = g->comp_ptr[i], c1 = g->comp_ptr[i + 1];
    for (int t = c0; t < c1; t++) {
        int v = g->add_t[g->row[t] + x];
        if (g->dcount[v] >= g->dcap[v]) {
            generic_uncount(g, i, x, t);
            return 0;
        }
        g->dcount[v]++;
        if (g->dcount[v] <= g->dfloor[v])
            g->ddef--;
    }
    int sdef = g->sdef - (g->scount[x] < g->slot_floor[x]);
    if (sdef > g->s - i - 1 || g->ddef > g->remaining_at[i + 1]) {
        generic_uncount(g, i, x, c1);
        return 0;
    }
    g->sdef = sdef;
    g->scount[x]++;
    g->assign[i] = x;
    const int f0 = g->sd_ptr[i], f1 = g->sd_ptr[i + 1];
    for (int t = f0; t < f1; t++)
        g->psum[g->sd_ids[t]] = g->add_t[g->fed[t] * g->m + x];
    if (g->memo_on) {
        uint64_t key = g->key[i] + g->pos_unit + g->sunit[x];
        for (int t = f0; t < f1; t++) {
            int d = g->sd_ids[t];
            key += (uint64_t)(g->psum[d] - g->fed[t]) << g->shift[d];
        }
        for (int t = c0; t < c1; t++) {
            int v = g->add_t[g->row[t] + x];
            key += g->dunit[v] - ((uint64_t)v << g->shift[g->comp_ids[t]]);
        }
        g->key[i + 1] = key;
    }
    return 1;
}

/* A label is looked up in the memo once it passes every bound, and its key
 * is added once its subtree is exhausted; the last slot has no key. */
static int
generic_dfs(Generic *g, int i)
{
    if (i == g->s)
        return FOUND;
    int keyed = g->memo_on && i + 1 < g->s;
    generic_enter(g, i);
    for (int x = 0; x < g->m; x++) {
        if (g->nodes == g->budget)  /* budget -1 (unbounded) never matches */
            return BUDGET;
        g->nodes++;
        if (!generic_place(g, i, x))
            continue;
        uint64_t key = keyed ? g->key[i + 1] : 0;
        if (key != 0 && memo_has(&g->memo, key)) {
            generic_unplace(g, i, x);
            continue;
        }
        int r = generic_dfs(g, i + 1);
        if (r == FOUND)
            return FOUND;
        generic_unplace(g, i, x);
        if (r != EXHAUSTED)
            return r;
        if (key != 0 && memo_add(&g->memo, key) < 0)
            return ERROR;
    }
    generic_leave(g, i);
    return EXHAUSTED;
}

static PyObject *
solve_generic(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "m", "add_t", "neg_t", "num_slots", "slot_cap", "slot_floor", "dcap",
        "dfloor", "num_derived", "sd_ptr", "sd_ids", "comp_ptr", "comp_ids",
        "prefix", "budget", NULL};
    Generic g;
    memset(&g, 0, sizeof g);
    int nd;
    PyObject *add_t, *neg_t, *slot_cap, *slot_floor, *dcap, *dfloor;
    PyObject *sd_ptr, *sd_ids, *comp_ptr, *comp_ids, *prefix;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "iOOiOOOOiOOOOOL:solve_generic", kwlist, &g.m,
            &add_t, &neg_t, &g.s, &slot_cap, &slot_floor, &dcap, &dfloor, &nd,
            &sd_ptr, &sd_ids, &comp_ptr, &comp_ids, &prefix, &g.budget))
        return NULL;
    int m = g.m, s = g.s;
    Py_ssize_t p = PyObject_Length(prefix);
    if (p < 0)
        return NULL;
    if (p > s) {
        PyErr_SetString(PyExc_ValueError, "prefix longer than the slot list");
        return NULL;
    }

    PyObject *result = NULL;
    int *pfx = NULL;
    Py_ssize_t n_sd = 0, n_comp = 0;
    if ((g.add_t = copy_ints(add_t, "add_t", (Py_ssize_t)m * m, 0, m - 1,
                             NULL)) == NULL
        || (g.neg_t = copy_ints(neg_t, "neg_t", m, 0, m - 1, NULL)) == NULL
        || (g.slot_cap = copy_ints(slot_cap, "slot_cap", m, 0, INT_MAX,
                                   NULL)) == NULL
        || (g.slot_floor = copy_ints(slot_floor, "slot_floor", m, 0, INT_MAX,
                                     NULL)) == NULL
        || (g.dcap = copy_ints(dcap, "dcap", m, 0, INT_MAX, NULL)) == NULL
        || (g.dfloor = copy_ints(dfloor, "dfloor", m, 0, INT_MAX,
                                 NULL)) == NULL
        || (g.sd_ids = copy_ints(sd_ids, "sd_ids", -1, 0, nd - 1,
                                 &n_sd)) == NULL
        || (g.sd_ptr = copy_ints(sd_ptr, "sd_ptr", (Py_ssize_t)s + 1, 0,
                                 (long)n_sd, NULL)) == NULL
        || (g.comp_ids = copy_ints(comp_ids, "comp_ids", -1, 0, nd - 1,
                                   &n_comp)) == NULL
        || (g.comp_ptr = copy_ints(comp_ptr, "comp_ptr", (Py_ssize_t)s + 1, 0,
                                   (long)n_comp, NULL)) == NULL
        || (pfx = copy_ints(prefix, "prefix", p, 0, m - 1, NULL)) == NULL)
        goto done;
    size_t mm = m > 0 ? (size_t)m : 1;
    g.assign = malloc((s > 0 ? (size_t)s : 1) * sizeof(int));
    g.psum = calloc(nd > 0 ? nd : 1, sizeof(int));
    g.scount = calloc(mm, sizeof(int));
    g.dcount = calloc(mm, sizeof(int));
    g.remaining_at = calloc((size_t)s + 1, sizeof(int));
    g.fed = calloc(n_sd > 0 ? (size_t)n_sd : 1, sizeof(int));
    g.row = calloc(n_comp > 0 ? (size_t)n_comp : 1, sizeof(int));
    g.shift = calloc(nd > 0 ? nd : 1, sizeof(int));
    g.key = calloc((size_t)s + 1, sizeof(uint64_t));
    g.sunit = calloc(mm, sizeof(uint64_t));
    g.dunit = calloc(mm, sizeof(uint64_t));
    if (!g.assign || !g.psum || !g.scount || !g.dcount || !g.remaining_at
        || !g.fed || !g.row || !g.shift || !g.key || !g.sunit
        || !g.dunit) {
        PyErr_NoMemory();
        goto done;
    }
    for (int j = 0; j < s; j++)
        g.assign[j] = -1;
    int scap_max = 0, dcap_max = 0;
    for (int a = 0; a < m; a++) {
        g.sdef += g.slot_floor[a];
        g.ddef += g.dfloor[a];
        if (g.slot_cap[a] > scap_max)
            scap_max = g.slot_cap[a];
        if (g.dcap[a] > dcap_max)
            dcap_max = g.dcap[a];
    }
    for (int j = s - 1; j >= 0; j--)
        g.remaining_at[j] = g.remaining_at[j + 1]
                            + (g.comp_ptr[j + 1] - g.comp_ptr[j]);

    int width = plan_fields(&g, nd);
    if (width < 0)
        goto done;
    int bits_lab = bitlen(m - 1), bits_sc = bitlen(scap_max),
        bits_dc = bitlen(dcap_max);
    long count_bits = (long)m * (bits_sc + bits_dc);
    g.memo_on = bitlen(s) + (long)width * bits_lab + count_bits
                <= MEMO_MAX_BITS;
    for (int d = 0; d < nd; d++)
        g.shift[d] = g.memo_on && g.shift[d] >= 0
                     ? (int)count_bits + g.shift[d] * bits_lab : 0;
    if (g.memo_on) {
        for (int a = 0; a < m; a++) {
            g.dunit[a] = (uint64_t)1 << (bits_dc * (m - 1 - a));
            g.sunit[a] = (uint64_t)1 << (bits_dc * m + bits_sc * (m - 1 - a));
        }
        g.pos_unit = (uint64_t)1 << (count_bits + (long)width * bits_lab);
        if (memo_init(&g.memo) < 0)
            goto done;
    }

    for (int j = 0; j < p; j++) {
        generic_enter(&g, j);
        if (!generic_place(&g, j, pfx[j])) {
            result = Py_BuildValue("(iOi)", EXHAUSTED, Py_None, 0);
            goto done;
        }
    }
    int status = generic_dfs(&g, (int)p);
    result = assignment_result(status, g.assign, s, g.nodes);
done:
    free(pfx);
    generic_free(&g);
    return result;
}

/* ------------------------------------------------------------------------
 * sequencing kernel: nonzero elements with distinct cyclic differences
 * and a star position */

typedef struct {
    int m, length;
    int *add_t, *neg_t, *seq;
    unsigned char *used, *dused;
    long long nodes, budget;
    int star_at;
} RStar;

static int
rstar_dfs(RStar *r, int i)
{
    int m = r->m, length = r->length;
    if (i == length) {
        int d0 = r->add_t[r->seq[0] * m + r->neg_t[r->seq[length - 1]]];
        if (r->dused[d0])
            return EXHAUSTED;
        for (int idx = 0; idx < length; idx++) {
            int a = r->seq[(idx - 1 + length) % length];
            int b = r->seq[(idx + 1) % length];
            if (r->add_t[a * m + b] == r->seq[idx]) {
                r->star_at = idx;
                return FOUND;
            }
        }
        return EXHAUSTED;
    }
    for (int x = 1; x < m; x++) {
        if (r->nodes == r->budget)  /* budget -1 (unbounded) never matches */
            return BUDGET;
        r->nodes++;
        if (r->used[x])
            continue;
        int d = -1;
        if (i >= 1) {
            d = r->add_t[x * m + r->neg_t[r->seq[i - 1]]];
            if (r->dused[d])
                continue;
            r->dused[d] = 1;
        }
        r->used[x] = 1;
        r->seq[i] = x;
        int res = rstar_dfs(r, i + 1);
        if (res == FOUND)
            return FOUND;
        r->used[x] = 0;
        r->seq[i] = -1;
        if (d >= 0)
            r->dused[d] = 0;
        if (res == BUDGET)
            return BUDGET;
    }
    return EXHAUSTED;
}

static PyObject *
solve_rstar(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"m", "add_t", "neg_t", "prefix", "budget", NULL};
    RStar r;
    memset(&r, 0, sizeof r);
    PyObject *add_t, *neg_t, *prefix;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iOOOL:solve_rstar", kwlist,
                                     &r.m, &add_t, &neg_t, &prefix,
                                     &r.budget))
        return NULL;
    int m = r.m;
    r.length = m - 1;
    r.star_at = -1;
    if (m < 2) {
        PyErr_SetString(PyExc_ValueError, "m must be at least 2");
        return NULL;
    }
    Py_ssize_t p = PyObject_Length(prefix);
    if (p < 0)
        return NULL;
    if (p > r.length) {
        PyErr_SetString(PyExc_ValueError, "prefix longer than the sequence");
        return NULL;
    }

    PyObject *result = NULL;
    int *pfx = NULL;
    if ((r.add_t = copy_ints(add_t, "add_t", (Py_ssize_t)m * m, 0, m - 1,
                             NULL)) == NULL
        || (r.neg_t = copy_ints(neg_t, "neg_t", m, 0, m - 1, NULL)) == NULL
        || (pfx = copy_ints(prefix, "prefix", p, INT_MIN, INT_MAX,
                            NULL)) == NULL)
        goto done;
    r.seq = malloc((size_t)r.length * sizeof(int));
    r.used = calloc(m, 1);
    r.dused = calloc(m, 1);
    if (!r.seq || !r.used || !r.dused) {
        PyErr_NoMemory();
        goto done;
    }
    for (int i = 0; i < r.length; i++)
        r.seq[i] = -1;

    for (int i = 0; i < p; i++) {
        int x = pfx[i];
        if (x < 1 || x >= m || r.used[x])
            goto rejected;
        if (i >= 1) {
            int d = r.add_t[x * m + r.neg_t[r.seq[i - 1]]];
            if (r.dused[d])
                goto rejected;
            r.dused[d] = 1;
        }
        r.used[x] = 1;
        r.seq[i] = x;
    }
    int status = rstar_dfs(&r, (int)p);
    if (status == FOUND) {
        PyObject *list = int_list(r.seq, r.length);
        if (list != NULL)
            result = Py_BuildValue("(iNiL)", FOUND, list, r.star_at, r.nodes);
    }
    else {
        result = Py_BuildValue("(iOiL)", status, Py_None, -1, r.nodes);
    }
    goto done;
rejected:
    result = Py_BuildValue("(iOii)", EXHAUSTED, Py_None, -1, 0);
done:
    free(pfx);
    free(r.add_t);
    free(r.neg_t);
    free(r.seq);
    free(r.used);
    free(r.dused);
    return result;
}

/* ------------------------------------------------------------------------
 * maximum-distinct-sums kernel: branch and bound over element cycles */

typedef struct {
    int m;
    int *add_t, *order, *scount, *best_cycle;
    unsigned char *used;
    int distinct, best, have_best;
    long long nodes, budget;
} Sigma;

static int
sigma_dfs(Sigma *sg, int i)
{
    int m = sg->m;
    if (i == m) {
        int s_close = sg->add_t[sg->order[m - 1] * m + sg->order[0]];
        int d = sg->distinct + (sg->scount[s_close] ? 0 : 1);
        if (d > sg->best) {
            sg->best = d;
            sg->have_best = 1;
            memcpy(sg->best_cycle, sg->order, (size_t)m * sizeof(int));
        }
        return EXHAUSTED;
    }
    for (int x = 1; x < m; x++) {
        if (sg->nodes == sg->budget)  /* budget -1 (unbounded) never matches */
            return BUDGET;
        sg->nodes++;
        if (sg->used[x])
            continue;
        if (i == m - 1 && x < sg->order[1])
            continue;
        int s_new = sg->add_t[sg->order[i - 1] * m + x];
        int nd = sg->distinct + (sg->scount[s_new] ? 0 : 1);
        if (nd + (m - i) <= sg->best)
            continue;
        sg->used[x] = 1;
        sg->order[i] = x;
        sg->scount[s_new]++;
        int saved = sg->distinct;
        sg->distinct = nd;
        int r = sigma_dfs(sg, i + 1);
        sg->scount[s_new]--;
        sg->distinct = saved;
        sg->used[x] = 0;
        if (r == BUDGET)
            return BUDGET;
    }
    return EXHAUSTED;
}

static PyObject *
solve_sigma(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"m", "add_t", "budget", NULL};
    Sigma sg;
    memset(&sg, 0, sizeof sg);
    PyObject *add_t;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iOL:solve_sigma", kwlist,
                                     &sg.m, &add_t, &sg.budget))
        return NULL;
    int m = sg.m;
    if (m == 2)
        return Py_BuildValue("(ii[ii]i)", FOUND, 1, 0, 1, 0);
    if (m < 1) {
        PyErr_SetString(PyExc_ValueError, "m must be positive");
        return NULL;
    }

    PyObject *result = NULL;
    sg.add_t = copy_ints(add_t, "add_t", (Py_ssize_t)m * m, 0, m - 1, NULL);
    if (sg.add_t == NULL)
        goto done;
    sg.order = calloc(m, sizeof(int));
    sg.scount = calloc(m, sizeof(int));
    sg.best_cycle = calloc(m, sizeof(int));
    sg.used = calloc(m, 1);
    if (!sg.order || !sg.scount || !sg.best_cycle || !sg.used) {
        PyErr_NoMemory();
        goto done;
    }
    sg.used[0] = 1;
    int status = sigma_dfs(&sg, 1) == EXHAUSTED ? FOUND : BUDGET;
    PyObject *cycle = sg.have_best ? int_list(sg.best_cycle, m)
                                   : Py_NewRef(Py_None);
    if (cycle == NULL)
        goto done;
    result = Py_BuildValue("(iiNL)", status, sg.best, cycle, sg.nodes);
done:
    free(sg.add_t);
    free(sg.order);
    free(sg.scount);
    free(sg.best_cycle);
    free(sg.used);
    return result;
}

/* ------------------------------------------------------------------------
 * module */

static PyMethodDef speed_methods[] = {
    {"solve_generic", (PyCFunction)(void (*)(void))solve_generic,
     METH_VARARGS | METH_KEYWORDS,
     "Backtracking search over a CSR slot/derived-sum incidence; see "
     "pure.solve_generic.  Returns (status, assignment or None, nodes)."},
    /* perfbench/spans.py wraps the kernels by name, this one included, so
     * the old name of the path and cycle kernel stays as an alias. */
    {"solve_chain", (PyCFunction)(void (*)(void))solve_generic,
     METH_VARARGS | METH_KEYWORDS, "Alias of solve_generic."},
    {"solve_rstar", (PyCFunction)(void (*)(void))solve_rstar,
     METH_VARARGS | METH_KEYWORDS,
     "Search for a star difference sequence; see pure.solve_rstar.  "
     "Returns (status, sequence or None, star_index, nodes)."},
    {"solve_sigma", (PyCFunction)(void (*)(void))solve_sigma,
     METH_VARARGS | METH_KEYWORDS,
     "Most distinct cyclic pair sums over element cycles; see "
     "pure.solve_sigma.  Returns (status, value, cycle or None, nodes)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef speed_module = {
    PyModuleDef_HEAD_INIT, "_speed",
    "Compiled search kernels; twin of cordant._kernel.pure.", -1,
    speed_methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__speed(void)
{
    PyObject *mod = PyModule_Create(&speed_module);
    if (mod == NULL)
        return NULL;
    if (PyModule_AddIntConstant(mod, "FOUND", FOUND) < 0
        || PyModule_AddIntConstant(mod, "EXHAUSTED", EXHAUSTED) < 0
        || PyModule_AddIntConstant(mod, "BUDGET", BUDGET) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
