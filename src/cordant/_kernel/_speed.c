/* Compiled search kernels.
 *
 * Twin of pure.py, written once against the CPython API: same traversal
 * order, pruning rules, dead-state memo policy and node accounting, so the
 * two backends return identical results, node counts included.  Any
 * observable divergence on well-formed input is a bug; the parity tests
 * build this file and compare the backends directly.
 *
 * Instances are index-encoded exactly as in pure.py.  Unlike pure.py, a
 * malformed instance (wrong table length, a label or index out of range)
 * raises ValueError here instead of reading out of bounds.
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
 * chain kernel: slots along a path or around a cycle */

typedef struct {
    int m, s;
    int start_singleton, end_singleton, cyclic;
    int *add_t, *slot_cap, *slot_floor, *dcap, *dfloor;
    int *assign, *scount, *dcount, *ncomp, *comps, *remaining_at;
    int sdef, ddef;
    long long nodes, budget;
    int memo_on, bits_lab, bits_sc, bits_dc;
    Memo memo;
} Chain;

static void
chain_free(Chain *ch)
{
    free(ch->memo.keys);
    free(ch->add_t);
    free(ch->slot_cap);
    free(ch->slot_floor);
    free(ch->dcap);
    free(ch->dfloor);
    free(ch->assign);
    free(ch->scount);
    free(ch->dcount);
    free(ch->ncomp);
    free(ch->comps);
    free(ch->remaining_at);
}

static inline uint64_t
chain_pack(const Chain *ch, int j, int prev)
{
    uint64_t key = ((uint64_t)j << ch->bits_lab) | (uint64_t)prev;
    if (ch->cyclic)
        key = (key << ch->bits_lab) | (uint64_t)ch->assign[0];
    for (int a = 0; a < ch->m; a++)
        key = (key << ch->bits_sc) | (uint64_t)ch->scount[a];
    for (int a = 0; a < ch->m; a++)
        key = (key << ch->bits_dc) | (uint64_t)ch->dcount[a];
    return key;
}

static inline void
chain_unplace(Chain *ch, int i, int x)
{
    if (ch->scount[x] <= ch->slot_floor[x])
        ch->sdef++;
    ch->scount[x]--;
    ch->assign[i] = -1;
    const int *comps = ch->comps + 2 * i;
    for (int t = ch->ncomp[i] - 1; t >= 0; t--) {
        int c = comps[t];
        if (ch->dcount[c] <= ch->dfloor[c])
            ch->ddef++;
        ch->dcount[c]--;
    }
}

/* Apply label x at slot i; 1 when placed, 0 when rejected (state intact). */
static inline int
chain_place(Chain *ch, int i, int x)
{
    if (ch->scount[x] >= ch->slot_cap[x])
        return 0;
    int *comps = ch->comps + 2 * i;
    int n = 0;
    if (i == 0) {
        if (ch->start_singleton)
            comps[n++] = x;
    }
    else {
        comps[n++] = ch->add_t[ch->assign[i - 1] * ch->m + x];
    }
    if (i == ch->s - 1) {
        if (ch->cyclic)
            comps[n++] = ch->add_t[x * ch->m + ch->assign[0]];
        if (ch->end_singleton)
            comps[n++] = x;
    }
    int applied = 0;
    for (; applied < n; applied++) {
        int c = comps[applied];
        if (ch->dcount[c] >= ch->dcap[c])
            break;
        ch->dcount[c]++;
        if (ch->dcount[c] <= ch->dfloor[c])
            ch->ddef--;
    }
    if (applied < n) {
        for (int t = applied - 1; t >= 0; t--) {
            int c = comps[t];
            if (ch->dcount[c] <= ch->dfloor[c])
                ch->ddef++;
            ch->dcount[c]--;
        }
        return 0;
    }
    ch->scount[x]++;
    if (ch->scount[x] <= ch->slot_floor[x])
        ch->sdef--;
    ch->assign[i] = x;
    ch->ncomp[i] = n;
    if (ch->sdef > ch->s - i - 1 || ch->ddef > ch->remaining_at[i + 1]) {
        chain_unplace(ch, i, x);
        return 0;
    }
    return 1;
}

static int
chain_dfs(Chain *ch, int i)
{
    if (i == ch->s)
        return FOUND;
    for (int x = 0; x < ch->m; x++) {
        if (ch->nodes == ch->budget)  /* budget -1 (unbounded) never matches */
            return BUDGET;
        ch->nodes++;
        if (!chain_place(ch, i, x))
            continue;
        uint64_t key = 0;
        if (ch->memo_on && i + 1 < ch->s) {
            key = chain_pack(ch, i + 1, x);
            if (memo_has(&ch->memo, key)) {
                chain_unplace(ch, i, x);
                continue;
            }
        }
        int r = chain_dfs(ch, i + 1);
        if (r == FOUND)
            return FOUND;
        chain_unplace(ch, i, x);
        if (r != EXHAUSTED)
            return r;
        if (key != 0 && memo_add(&ch->memo, key) < 0)
            return ERROR;
    }
    return EXHAUSTED;
}

static PyObject *
solve_chain(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "m", "add_t", "num_slots", "slot_cap", "slot_floor", "dcap",
        "dfloor", "start_singleton", "end_singleton", "cyclic", "prefix",
        "budget", NULL};
    Chain ch;
    memset(&ch, 0, sizeof ch);
    PyObject *add_t, *slot_cap, *slot_floor, *dcap, *dfloor, *prefix;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "iOiOOOOpppOL:solve_chain", kwlist, &ch.m, &add_t,
            &ch.s, &slot_cap, &slot_floor, &dcap, &dfloor,
            &ch.start_singleton, &ch.end_singleton, &ch.cyclic, &prefix,
            &ch.budget))
        return NULL;
    int m = ch.m, s = ch.s;
    if (s < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "chain instances need at least one slot");
        return NULL;
    }
    if (ch.cyclic && (ch.start_singleton || ch.end_singleton || s < 3)) {
        PyErr_SetString(PyExc_ValueError,
                        "cyclic chains exclude singletons and need 3+ slots");
        return NULL;
    }
    Py_ssize_t p = PyObject_Length(prefix);
    if (p < 0)
        return NULL;
    if (p > s) {
        PyErr_SetString(PyExc_ValueError, "prefix longer than the slot list");
        return NULL;
    }

    PyObject *result = NULL;
    int *pfx = NULL;
    if ((ch.add_t = copy_ints(add_t, "add_t", (Py_ssize_t)m * m, 0, m - 1,
                              NULL)) == NULL
        || (ch.slot_cap = copy_ints(slot_cap, "slot_cap", m, 0, INT_MAX,
                                    NULL)) == NULL
        || (ch.slot_floor = copy_ints(slot_floor, "slot_floor", m, 0, INT_MAX,
                                      NULL)) == NULL
        || (ch.dcap = copy_ints(dcap, "dcap", m, 0, INT_MAX, NULL)) == NULL
        || (ch.dfloor = copy_ints(dfloor, "dfloor", m, 0, INT_MAX,
                                  NULL)) == NULL
        || (pfx = copy_ints(prefix, "prefix", p, 0, m - 1, NULL)) == NULL)
        goto done;
    ch.assign = malloc((size_t)s * sizeof(int));
    ch.scount = calloc(m > 0 ? m : 1, sizeof(int));
    ch.dcount = calloc(m > 0 ? m : 1, sizeof(int));
    ch.ncomp = calloc(s, sizeof(int));
    ch.comps = calloc(2 * (size_t)s, sizeof(int));
    ch.remaining_at = malloc(((size_t)s + 1) * sizeof(int));
    if (!ch.assign || !ch.scount || !ch.dcount || !ch.ncomp || !ch.comps
        || !ch.remaining_at) {
        PyErr_NoMemory();
        goto done;
    }
    for (int j = 0; j < s; j++)
        ch.assign[j] = -1;

    int scap_max = 0, dcap_max = 0;
    for (int a = 0; a < m; a++) {
        ch.sdef += ch.slot_floor[a];
        ch.ddef += ch.dfloor[a];
        if (ch.slot_cap[a] > scap_max)
            scap_max = ch.slot_cap[a];
        if (ch.dcap[a] > dcap_max)
            dcap_max = ch.dcap[a];
    }
    int total_derived = (s - 1) + ch.start_singleton + ch.end_singleton
                        + ch.cyclic;
    for (int j = 0; j <= s; j++) {
        int done = j >= 1 ? j - 1 : 0;
        if (ch.start_singleton && j >= 1)
            done++;
        if (j == s)
            done += ch.end_singleton + ch.cyclic;
        ch.remaining_at[j] = total_derived - done;
    }

    ch.bits_lab = bitlen(m - 1);
    ch.bits_sc = bitlen(scap_max);
    ch.bits_dc = bitlen(dcap_max);
    long total_bits = bitlen(s) + ch.bits_lab + (ch.cyclic ? ch.bits_lab : 0)
                      + (long)m * (ch.bits_sc + ch.bits_dc);
    ch.memo_on = total_bits <= MEMO_MAX_BITS;
    if (ch.memo_on && memo_init(&ch.memo) < 0)
        goto done;

    for (int j = 0; j < p; j++) {
        if (!chain_place(&ch, j, pfx[j])) {
            result = Py_BuildValue("(iOi)", EXHAUSTED, Py_None, 0);
            goto done;
        }
    }
    int status = chain_dfs(&ch, (int)p);
    result = assignment_result(status, ch.assign, s, ch.nodes);
done:
    free(pfx);
    chain_free(&ch);
    return result;
}

/* ------------------------------------------------------------------------
 * generic kernel: arbitrary slot / derived-sum incidence in CSR form */

typedef struct {
    int m, s;
    int *add_t, *neg_t, *slot_cap, *slot_floor, *dcap, *dfloor;
    int *sd_ptr, *sd_ids, *comp_ptr, *comp_ids;
    int *assign, *psum, *scount, *dcount, *remaining_at;
    int sdef, ddef;
    long long nodes, budget;
} Generic;

static void
generic_free(Generic *g)
{
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
}

/* Undo the feed of label x into the partial sums of slot i's items. */
static inline void
generic_unfeed(Generic *g, int i, int x)
{
    int neg = g->neg_t[x];
    for (int t = g->sd_ptr[i + 1] - 1; t >= g->sd_ptr[i]; t--) {
        int d = g->sd_ids[t];
        g->psum[d] = g->add_t[g->psum[d] * g->m + neg];
    }
}

/* Release the completed sums comp_ptr[i] .. end-1, last first. */
static inline void
generic_uncount(Generic *g, int i, int end)
{
    for (int t = end - 1; t >= g->comp_ptr[i]; t--) {
        int v = g->psum[g->comp_ids[t]];
        if (g->dcount[v] <= g->dfloor[v])
            g->ddef++;
        g->dcount[v]--;
    }
}

static inline void
generic_unplace(Generic *g, int i, int x)
{
    if (g->scount[x] <= g->slot_floor[x])
        g->sdef++;
    g->scount[x]--;
    g->assign[i] = -1;
    generic_uncount(g, i, g->comp_ptr[i + 1]);
    generic_unfeed(g, i, x);
}

static inline int
generic_place(Generic *g, int i, int x)
{
    if (g->scount[x] >= g->slot_cap[x])
        return 0;
    for (int t = g->sd_ptr[i]; t < g->sd_ptr[i + 1]; t++) {
        int d = g->sd_ids[t];
        g->psum[d] = g->add_t[g->psum[d] * g->m + x];
    }
    for (int t = g->comp_ptr[i]; t < g->comp_ptr[i + 1]; t++) {
        int v = g->psum[g->comp_ids[t]];
        if (g->dcount[v] >= g->dcap[v]) {
            generic_uncount(g, i, t);
            generic_unfeed(g, i, x);
            return 0;
        }
        g->dcount[v]++;
        if (g->dcount[v] <= g->dfloor[v])
            g->ddef--;
    }
    g->scount[x]++;
    if (g->scount[x] <= g->slot_floor[x])
        g->sdef--;
    g->assign[i] = x;
    if (g->sdef > g->s - i - 1 || g->ddef > g->remaining_at[i + 1]) {
        generic_unplace(g, i, x);
        return 0;
    }
    return 1;
}

static int
generic_dfs(Generic *g, int i)
{
    if (i == g->s)
        return FOUND;
    for (int x = 0; x < g->m; x++) {
        if (g->nodes == g->budget)  /* budget -1 (unbounded) never matches */
            return BUDGET;
        g->nodes++;
        if (!generic_place(g, i, x))
            continue;
        int r = generic_dfs(g, i + 1);
        if (r == FOUND)
            return FOUND;
        generic_unplace(g, i, x);
        if (r == BUDGET)
            return BUDGET;
    }
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
    g.assign = malloc((s > 0 ? (size_t)s : 1) * sizeof(int));
    g.psum = calloc(nd > 0 ? nd : 1, sizeof(int));
    g.scount = calloc(m > 0 ? m : 1, sizeof(int));
    g.dcount = calloc(m > 0 ? m : 1, sizeof(int));
    g.remaining_at = calloc((size_t)s + 1, sizeof(int));
    if (!g.assign || !g.psum || !g.scount || !g.dcount || !g.remaining_at) {
        PyErr_NoMemory();
        goto done;
    }
    for (int j = 0; j < s; j++)
        g.assign[j] = -1;
    for (int a = 0; a < m; a++) {
        g.sdef += g.slot_floor[a];
        g.ddef += g.dfloor[a];
    }
    for (int j = s - 1; j >= 0; j--)
        g.remaining_at[j] = g.remaining_at[j + 1]
                            + (g.comp_ptr[j + 1] - g.comp_ptr[j]);

    for (int j = 0; j < p; j++) {
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
    {"solve_chain", (PyCFunction)(void (*)(void))solve_chain,
     METH_VARARGS | METH_KEYWORDS,
     "Backtracking search over a path or cycle of slots; see "
     "pure.solve_chain.  Returns (status, assignment or None, nodes)."},
    {"solve_generic", (PyCFunction)(void (*)(void))solve_generic,
     METH_VARARGS | METH_KEYWORDS,
     "Backtracking search over a CSR slot/derived-sum incidence; see "
     "pure.solve_generic.  Returns (status, assignment or None, nodes)."},
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
