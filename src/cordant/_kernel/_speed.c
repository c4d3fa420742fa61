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
 * an incidence the memo key cannot describe, roots that are not (label,
 * share) pairs) raises ValueError here instead of reading out of bounds.
 *
 * The labeling kernel's leaf-room bound and its roots argument are those of
 * pure.solve_generic, whose docstring gives the rule and its soundness.  A
 * leaf slot completes an item no other slot feeds, so that item's sum is
 * the slot's label y, which takes a unit of y's label room (slot_cap less
 * the slot count) and of y's sum room (dcap less the derived count); no two
 * leaf slots take the same unit, so the leaf room, the sum over the labels
 * of the smaller of the two, is at least the number of leaf slots still
 * empty in any solution.  A placement leaving less is rejected, its node
 * counted.  With fewer than two leaf slots after slot 0 (paths, cycles,
 * vertex labelings) the bound is off, and generic_dfs and generic_place
 * run in copies without it.  roots, (label, share) pairs, runs the branches
 * extending the prefix by each label at the first free slot in one call,
 * in order, each with a fresh memo and its share as its budget, up to the
 * first that is not exhausted.
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
/* A graph symmetry compares only the positions below this (LEX_SPAN in
   _kernel/generic.py). */
#define LEX_SPAN 16

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

/* The symmetry table (marks, succ) of pure.solve_generic, or None (off):
 * copied into *marks and *succ, NULL when off.  Both hold m entries per
 * state, marks in 0..2 and succ in -1..states-1.  Returns -1 with an
 * exception set when the table is malformed. */
static int
copy_table(PyObject *table, int m, int **marks, int **succ)
{
    *marks = *succ = NULL;
    if (table == Py_None)
        return 0;
    PyObject *pair = PySequence_Fast(table, "table");
    if (pair == NULL)
        return -1;
    Py_ssize_t n = 0;
    if (m < 1 || PySequence_Fast_GET_SIZE(pair) != 2) {
        PyErr_SetString(PyExc_ValueError, "table: expected (marks, succ)");
        goto fail;
    }
    PyObject **items = PySequence_Fast_ITEMS(pair);
    if ((*marks = copy_ints(items[0], "table marks", -1, 0, 2, &n)) == NULL)
        goto fail;
    if (n == 0 || n % m != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "table marks: not a whole number of states");
        goto fail;
    }
    if ((*succ = copy_ints(items[1], "table succ", n, -1, (long)(n / m) - 1,
                           NULL)) == NULL)
        goto fail;
    Py_DECREF(pair);
    return 0;
fail:
    Py_DECREF(pair);
    free(*marks);
    *marks = NULL;
    return -1;
}

/* (status, assignment or None, nodes): the labeling kernel's result shape. */
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

/* A rotation or reflection of the slots, pi(p) = (a + b p) mod s, tied with
 * S before position p, in the list of slot d, which decides position p. */
typedef struct {
    int a, b, p, d, next;
} Due;

typedef struct {
    int m, s;
    int *add_t, *slot_cap, *slot_floor, *dcap, *dfloor;
    int *sd_ptr, *sd_ids, *comp_ptr, *comp_ids;
    int *assign, *psum, *scount, *dcount, *remaining_at;
    /* per feed entry, the partial sum before its slot; per completion
     * entry, that sum times m (an add_t row) */
    int *fed, *row;
    int sdef, ddef;
    long long nodes, budget;
    /* The symmetry table (NULL: off) and the state of each slot on the
     * current path, -1 when no symmetry is left: slot i tries only the
     * labels x with marks[state[i] * m + x] nonzero. */
    int *marks, *succ, *state;
    /* The graph symmetries (pure.solve_generic's graph_sym; low NULL: off):
     * low[i], the twin slot bounding slot i from below (-1: none); neg,
     * the negation table when the rotations and reflections are
     * translated, else NULL; and those still tied, a stack of ndue
     * entries linked into a list per deciding slot from head[slot] (-1:
     * empty), pushed as labels are placed and popped as they are undone. */
    int *low, *neg, *head;
    Due *due;
    int ndue, due_cap, span;
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
    /* The leaf-room bound (pure.solve_generic; need NULL: off): need[i],
     * the leaf slots after slot i, and room[i], the leaf room before slot
     * i, kept while need[i - 1] > 0. */
    int *need;
    long long *room;
} Generic;

static void
generic_free(Generic *g)
{
    free(g->memo.keys);
    free(g->add_t);
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
    free(g->marks);
    free(g->succ);
    free(g->state);
    free(g->low);
    free(g->neg);
    free(g->head);
    free(g->due);
    free(g->need);
    free(g->room);
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
 * are counted and the bounds tested before any partial sum moves.  With
 * `bounded` (a constant: each caller gets its own copy) the placement also
 * leaves room for the leaf slots after slot i and sets room[i + 1]: each
 * completed sum v, then the label x, takes a unit of leaf room when at
 * most as much room is left of its other kind. */
#if defined(__GNUC__)
__attribute__((always_inline))
#endif
static inline int
generic_place(Generic *g, int i, int x, const int bounded)
{
    if (g->scount[x] >= g->slot_cap[x])
        return 0;
    const int c0 = g->comp_ptr[i], c1 = g->comp_ptr[i + 1];
    long long room = bounded ? g->room[i] : 0;
    for (int t = c0; t < c1; t++) {
        int v = g->add_t[g->row[t] + x];
        if (g->dcount[v] >= g->dcap[v]) {
            generic_uncount(g, i, x, t);
            return 0;
        }
        g->dcount[v]++;
        if (g->dcount[v] <= g->dfloor[v])
            g->ddef--;
        if (bounded && g->dcap[v] - g->dcount[v] < g->slot_cap[v] - g->scount[v])
            room--;
    }
    int sdef = g->sdef - (g->scount[x] < g->slot_floor[x]);
    if (bounded && g->slot_cap[x] - g->scount[x] <= g->dcap[x] - g->dcount[x])
        room--;
    if (sdef > g->s - i - 1 || g->ddef > g->remaining_at[i + 1]
        || (bounded && room < g->need[i])) {
        generic_uncount(g, i, x, c1);
        return 0;
    }
    if (bounded)
        g->room[i + 1] = room;
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

static inline int
cyclic(int v, int s)
{
    v %= s;
    return v < 0 ? v + s : v;
}

/* Push a tied symmetry onto the list of slot d; -1 when out of memory. */
static int
due_push(Generic *g, int a, int b, int p, int d)
{
    if (g->ndue == g->due_cap) {
        int cap = g->due_cap > 0 ? 2 * g->due_cap : 64;
        Due *grown = realloc(g->due, (size_t)cap * sizeof(Due));
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        g->due = grown;
        g->due_cap = cap;
    }
    Due *e = &g->due[g->ndue];
    e->a = a;
    e->b = b;
    e->p = p;
    e->d = d;
    e->next = g->head[d];
    g->head[d] = g->ndue++;
    return 0;
}

/* Pop the entries pushed since the stack held `base`. */
static inline void
due_pop(Generic *g, int base)
{
    while (g->ndue > base) {
        const Due *e = &g->due[--g->ndue];
        g->head[e->d] = e->next;
    }
}

/* Compare S with g(S) for each symmetry due at slot i, slot i labeled, as
 * pure's settle does, pushing each one still tied onto the list of the
 * slot that decides its next position unless that is the last slot: 1 when
 * none is broken, 0 (nothing pushed) when S > g(S) for one, -1 when out of
 * memory. */
static int
generic_settle(Generic *g, int i)
{
    const int s = g->s, m = g->m, base = g->ndue;
    const int *assign = g->assign;
    for (int e = g->head[i]; e >= 0; e = g->due[e].next) {
        int a = g->due[e].a, b = g->due[e].b, p = g->due[e].p;
        int shift = g->neg != NULL ? g->neg[assign[a]] : 0;
        int q = cyclic(a + b * p, s);
        for (;;) {
            int x = assign[p], y = g->add_t[assign[q] * m + shift];
            if (x != y) {
                if (x > y) {
                    due_pop(g, base);
                    return 0;
                }
                break;
            }
            if (++p == g->span)
                break;
            q = cyclic(a + b * p, s);
            if (p > i || q > i) {
                int d = p > q ? p : q;
                if (d < s - 1 && due_push(g, a, b, p, d) < 0)
                    return -1;
                break;
            }
        }
    }
    return 1;
}

static int generic_dfs(Generic *g, int i);
static int bounded_dfs(Generic *g, int i);

/* A label is looked up in the memo once it passes every bound, and its key
 * is added once its subtree is exhausted, or as soon as the graph
 * symmetries reject it; the last slot has no key.  A label the slot's
 * symmetry state rules out costs its node, and one below its twin bound
 * none.  The memo key leaves the symmetries out; pure.solve_generic says
 * why that is sound.  generic_dfs runs the slots without the leaf-room
 * bound, and bounded_dfs the slots with leaf slots after them. */
#if defined(__GNUC__)
__attribute__((always_inline))
#endif
static inline int
dfs_body(Generic *g, int i, const int bounded)
{
    if (i == g->s)
        return FOUND;
    int keyed = g->memo_on && i + 1 < g->s;
    int st = g->state[i];
    const int *mk = st >= 0 ? g->marks + (size_t)st * g->m : NULL;
    const int *to = st >= 0 ? g->succ + (size_t)st * g->m : NULL;
    int lo = 0, tied = 0, base = g->ndue;
    if (g->low != NULL) {
        if (g->low[i] >= 0)
            lo = g->assign[g->low[i]];
        tied = g->head[i] >= 0;
    }
    generic_enter(g, i);
    for (int x = lo; x < g->m; x++) {
        if (g->nodes == g->budget)  /* budget -1 (unbounded) never matches */
            return BUDGET;
        g->nodes++;
        if (mk != NULL && !mk[x])
            continue;
        if (!generic_place(g, i, x, bounded))
            continue;
        uint64_t key = keyed ? g->key[i + 1] : 0;
        if (key != 0 && memo_has(&g->memo, key)) {
            generic_unplace(g, i, x);
            continue;
        }
        if (tied) {
            int ok = generic_settle(g, i);
            if (ok < 0)
                return ERROR;
            if (!ok) {
                generic_unplace(g, i, x);
                if (key != 0 && memo_add(&g->memo, key) < 0)
                    return ERROR;
                continue;
            }
        }
        g->state[i + 1] = to != NULL ? to[x] : -1;
        int r = bounded && g->need[i + 1] > 0 ? bounded_dfs(g, i + 1)
                                              : generic_dfs(g, i + 1);
        if (r == FOUND)
            return FOUND;
        due_pop(g, base);
        generic_unplace(g, i, x);
        if (r != EXHAUSTED)
            return r;
        if (key != 0 && memo_add(&g->memo, key) < 0)
            return ERROR;
    }
    generic_leave(g, i);
    return EXHAUSTED;
}

static int
generic_dfs(Generic *g, int i)
{
    return dfs_body(g, i, 0);
}

static int
bounded_dfs(Generic *g, int i)
{
    return dfs_body(g, i, 1);
}

/* The slots from i on: bounded_dfs where leaf slots follow. */
static int
search_from(Generic *g, int i)
{
    return g->need != NULL && g->need[i] > 0 ? bounded_dfs(g, i)
                                             : generic_dfs(g, i);
}

/* The graph symmetries (low, cycle, neg_t) of pure.solve_generic, or None
 * (off): the twin bounds into g->low, each slot's earlier or -1, neg_t
 * (None or m labels) into g->neg, and when cycle is true the rotations and
 * reflections onto their first deciding slots.  Returns -1 with an
 * exception set when malformed or out of memory. */
static int
copy_graph_sym(Generic *g, PyObject *graph_sym)
{
    if (graph_sym == Py_None)
        return 0;
    int s = g->s, m = g->m, rc = -1, cycle = 0;
    PyObject *triple = PySequence_Fast(graph_sym, "graph_sym");
    if (triple == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(triple) != 3) {
        PyErr_SetString(PyExc_ValueError,
                        "graph_sym: expected (low, cycle, neg_t)");
        goto done;
    }
    PyObject **items = PySequence_Fast_ITEMS(triple);
    if ((g->low = copy_ints(items[0], "graph_sym low", s, -1, s - 1,
                            NULL)) == NULL
        || (cycle = PyObject_IsTrue(items[1])) < 0
        || (items[2] != Py_None
            && (g->neg = copy_ints(items[2], "graph_sym neg_t", m, 0, m - 1,
                                   NULL)) == NULL))
        goto done;
    for (int i = 0; i < s; i++)
        if (g->low[i] >= i) {
            PyErr_SetString(PyExc_ValueError,
                            "graph_sym low: a bound from a later slot");
            goto done;
        }
    g->head = malloc((s > 0 ? (size_t)s : 1) * sizeof(int));
    if (g->head == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (int i = 0; i < s; i++)
        g->head[i] = -1;
    g->span = s < LEX_SPAN ? s : LEX_SPAN;
    /* translated, position 0 compares S[0] with 0, which the prefix pins */
    int p = g->neg != NULL;
    for (int a = 0; cycle && p < g->span && a < g->span; a++)
        for (int b = a > 0 ? 1 : -1; b >= -1; b -= 2) {  /* no identity */
            int q = cyclic(a + b * p, s), d = p > q ? p : q;
            if (d < a)
                d = a;
            if (d < s - 1 && due_push(g, a, b, p, d) < 0)
                goto done;
        }
    rc = 0;
done:
    Py_DECREF(triple);
    return rc;
}

/* Place label x at slot i of the prefix, or a root label at the first free
 * slot, as the prefix's last label: with the twin bound and the graph
 * symmetries checked.  1 when placed, 0 when rejected (nothing placed),
 * -1 with an exception set. */
static int
generic_pin(Generic *g, int i, int x)
{
    int ok = g->need != NULL && g->need[i] > 0 ? generic_place(g, i, x, 1)
                                               : generic_place(g, i, x, 0);
    if (ok && g->low != NULL) {
        if (g->low[i] >= 0 && x < g->assign[g->low[i]])
            ok = 0;
        else if (g->head[i] >= 0 && (ok = generic_settle(g, i)) < 0)
            return -1;
        if (!ok)
            generic_unplace(g, i, x);
    }
    return ok;
}

/* Find the leaf slots, those completing an item no other slot feeds, and
 * set need[] when at least two come after slot 0 (else the bound is off,
 * and need stays NULL).  Returns -1 with an exception set. */
static int
plan_leaves(Generic *g, int nd, Py_ssize_t n_sd)
{
    int s = g->s, rc = -1;
    int *fed = calloc(nd > 0 ? (size_t)nd : 1, sizeof(int));
    g->need = calloc((size_t)s + 1, sizeof(int));
    if (fed == NULL || g->need == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t t = 0; t < n_sd; t++)
        fed[g->sd_ids[t]]++;
    for (int j = s - 1; j > 0; j--) {
        int leaf = 0;
        for (int t = g->comp_ptr[j]; t < g->comp_ptr[j + 1]; t++)
            leaf |= fed[g->comp_ids[t]] == 1;
        g->need[j - 1] = g->need[j] + leaf;
    }
    rc = 0;
    if (s == 0 || g->need[0] < 2) {
        free(g->need);
        g->need = NULL;
        goto done;
    }
    g->room = calloc((size_t)s + 1, sizeof(long long));
    if (g->room == NULL) {
        PyErr_NoMemory();
        rc = -1;
        goto done;
    }
    for (int a = 0; a < g->m; a++)
        g->room[0] += g->slot_cap[a] < g->dcap[a] ? g->slot_cap[a]
                                                  : g->dcap[a];
done:
    free(fed);
    return rc;
}

/* PySequence_Fast(obj), with a ValueError (roots: `what`) for anything
 * that is not a sequence. */
static PyObject *
roots_sequence(PyObject *obj, const char *what)
{
    PyObject *seq = PySequence_Fast(obj, what);
    if (seq == NULL && PyErr_ExceptionMatches(PyExc_TypeError)) {
        PyErr_Clear();
        PyErr_Format(PyExc_ValueError, "roots: %s", what);
    }
    return seq;
}

/* The (label, share) pairs of pure.solve_generic's roots: the labels, in
 * 0..m-1, into *labels and the shares into *shares.  Returns how many, or
 * -1 with an exception set (ValueError when malformed). */
static Py_ssize_t
copy_roots(PyObject *roots, int m, int **labels, long long **shares)
{
    PyObject *seq = roots_sequence(roots, "expected a list of pairs");
    if (seq == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    size_t size = n > 0 ? (size_t)n : 1;
    *labels = malloc(size * sizeof(int));
    *shares = malloc(size * sizeof(long long));
    if (*labels == NULL || *shares == NULL) {
        PyErr_NoMemory();
        n = -1;
        goto done;
    }
    for (Py_ssize_t k = 0; k < n; k++) {
        PyObject *pair = roots_sequence(PySequence_Fast_GET_ITEM(seq, k),
                                        "expected (label, share)");
        if (pair == NULL) {
            n = -1;
            goto done;
        }
        long x = -1;
        long long share = 0;
        if (PySequence_Fast_GET_SIZE(pair) == 2) {
            x = PyLong_AsLong(PySequence_Fast_GET_ITEM(pair, 0));
            if (!PyErr_Occurred())
                share = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(pair, 1));
        }
        Py_DECREF(pair);
        if (PyErr_Occurred()) {
            n = -1;
            goto done;
        }
        if (x < 0 || x >= m) {
            PyErr_SetString(PyExc_ValueError,
                            "roots: expected (label, share), label in range");
            n = -1;
            goto done;
        }
        (*labels)[k] = (int)x;
        (*shares)[k] = share;
    }
done:
    Py_DECREF(seq);
    return n;
}

static PyObject *
solve_generic(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "m", "add_t", "num_slots", "slot_cap", "slot_floor", "dcap",
        "dfloor", "num_derived", "sd_ptr", "sd_ids", "comp_ptr", "comp_ids",
        "prefix", "budget", "table", "graph_sym", "roots", NULL};
    Generic g;
    memset(&g, 0, sizeof g);
    int nd;
    PyObject *add_t, *slot_cap, *slot_floor, *dcap, *dfloor;
    PyObject *sd_ptr, *sd_ids, *comp_ptr, *comp_ids, *prefix;
    PyObject *table = Py_None, *graph_sym = Py_None, *roots = Py_None;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "iOiOOOOiOOOOOL|OOO:solve_generic", kwlist, &g.m,
            &add_t, &g.s, &slot_cap, &slot_floor, &dcap, &dfloor, &nd,
            &sd_ptr, &sd_ids, &comp_ptr, &comp_ids, &prefix, &g.budget,
            &table, &graph_sym, &roots))
        return NULL;
    int m = g.m, s = g.s;
    Py_ssize_t p = PyObject_Length(prefix);
    if (p < 0)
        return NULL;
    if (p > s) {
        PyErr_SetString(PyExc_ValueError, "prefix longer than the slot list");
        return NULL;
    }
    if (roots != Py_None && p == s) {
        PyErr_SetString(PyExc_ValueError, "no free slot for the root labels");
        return NULL;
    }

    PyObject *result = NULL;
    int *pfx = NULL, *root_label = NULL;
    long long *root_share = NULL;
    Py_ssize_t n_sd = 0, n_comp = 0, n_roots = 0;
    if ((g.add_t = copy_ints(add_t, "add_t", (Py_ssize_t)m * m, 0, m - 1,
                             NULL)) == NULL
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
        || (pfx = copy_ints(prefix, "prefix", p, 0, m - 1, NULL)) == NULL
        || copy_table(table, m, &g.marks, &g.succ) < 0
        || copy_graph_sym(&g, graph_sym) < 0
        || (roots != Py_None
            && (n_roots = copy_roots(roots, m, &root_label,
                                     &root_share)) < 0))
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
    g.state = malloc(((size_t)s + 1) * sizeof(int));
    if (!g.assign || !g.psum || !g.scount || !g.dcount || !g.remaining_at
        || !g.fed || !g.row || !g.shift || !g.key || !g.sunit
        || !g.dunit || !g.state) {
        PyErr_NoMemory();
        goto done;
    }
    for (int j = 0; j < s; j++)
        g.assign[j] = -1;
    for (int j = 0; j <= s; j++)
        g.state[j] = -1;
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
    if (width < 0 || plan_leaves(&g, nd, n_sd) < 0)
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

    int st = g.marks != NULL ? 0 : -1;
    for (int j = 0; j < p; j++) {
        generic_enter(&g, j);
        int ok = generic_pin(&g, j, pfx[j]);
        if (ok < 0)
            goto done;
        if (!ok) {
            result = Py_BuildValue("(iOi)", EXHAUSTED, Py_None, 0);
            goto done;
        }
        if (st >= 0)
            st = g.succ[(size_t)st * m + pfx[j]];
    }
    g.state[p] = st;
    int status;
    long long nodes = 0;
    if (roots == Py_None) {
        status = search_from(&g, (int)p);
        nodes = g.nodes;
    }
    else {
        /* each root label at slot p as the prefix's last label would be,
         * with a fresh memo and its own share, undone once exhausted */
        status = EXHAUSTED;
        generic_enter(&g, (int)p);
        for (Py_ssize_t k = 0; k < n_roots && status == EXHAUSTED; k++) {
            int x = root_label[k], base = g.ndue;
            int ok = generic_pin(&g, (int)p, x);
            if (ok < 0)
                goto done;
            if (!ok)
                continue;
            if (g.memo.entries > 0) {
                free(g.memo.keys);
                g.memo.keys = NULL;
                if (memo_init(&g.memo) < 0)
                    goto done;
            }
            g.state[p + 1] = st >= 0 ? g.succ[(size_t)st * m + x] : -1;
            g.nodes = 0;
            g.budget = root_share[k];
            status = search_from(&g, (int)p + 1);
            nodes += g.nodes;
            if (status == EXHAUSTED) {
                due_pop(&g, base);
                generic_unplace(&g, (int)p, x);
            }
        }
    }
    result = assignment_result(status, g.assign, s, nodes);
done:
    free(pfx);
    free(root_label);
    free(root_share);
    generic_free(&g);
    return result;
}

/* ------------------------------------------------------------------------
 * sequencing kernel: nonzero elements with distinct cyclic differences
 * and a star position, beginning with the 1 (see pure.solve_rstar) */

typedef struct {
    int m, length;
    int *add_t, *neg_t, *seq;
    /* symmetry table and states, as in Generic */
    int *marks, *succ, *state;
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
    int st = r->state[i];
    const int *mk = st >= 0 ? r->marks + (size_t)st * m : NULL;
    const int *to = st >= 0 ? r->succ + (size_t)st * m : NULL;
    for (int x = 1; x < m; x++) {
        if (r->nodes == r->budget)  /* budget -1 (unbounded) never matches */
            return BUDGET;
        r->nodes++;
        if (r->used[x] || (mk != NULL && !mk[x]))
            continue;
        int d = r->add_t[x * m + r->neg_t[r->seq[i - 1]]];
        if (r->dused[d])
            continue;
        r->dused[d] = 1;
        r->used[x] = 1;
        r->seq[i] = x;
        r->state[i + 1] = to != NULL ? to[x] : -1;
        int res = rstar_dfs(r, i + 1);
        if (res == FOUND)
            return FOUND;
        r->used[x] = 0;
        r->seq[i] = -1;
        r->dused[d] = 0;
        if (res == BUDGET)
            return BUDGET;
    }
    return EXHAUSTED;
}

static PyObject *
solve_rstar(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"m", "add_t", "neg_t", "budget", "table", NULL};
    RStar r;
    memset(&r, 0, sizeof r);
    PyObject *add_t, *neg_t, *table = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iOOL|O:solve_rstar",
                                     kwlist, &r.m, &add_t, &neg_t, &r.budget,
                                     &table))
        return NULL;
    int m = r.m;
    r.length = m - 1;
    r.star_at = -1;
    if (m < 2) {
        PyErr_SetString(PyExc_ValueError, "m must be at least 2");
        return NULL;
    }

    PyObject *result = NULL;
    if ((r.add_t = copy_ints(add_t, "add_t", (Py_ssize_t)m * m, 0, m - 1,
                             NULL)) == NULL
        || (r.neg_t = copy_ints(neg_t, "neg_t", m, 0, m - 1, NULL)) == NULL
        || copy_table(table, m, &r.marks, &r.succ) < 0)
        goto done;
    r.seq = malloc((size_t)r.length * sizeof(int));
    r.state = malloc(((size_t)r.length + 1) * sizeof(int));
    r.used = calloc(m, 1);
    r.dused = calloc(m, 1);
    if (!r.seq || !r.state || !r.used || !r.dused) {
        PyErr_NoMemory();
        goto done;
    }
    for (int i = 0; i < r.length; i++)
        r.seq[i] = -1;
    for (int i = 0; i <= r.length; i++)
        r.state[i] = -1;
    /* the pinned 1, from state 0 */
    r.seq[0] = 1;
    r.used[1] = 1;
    if (r.marks != NULL)
        r.state[1] = r.succ[1];
    int status = rstar_dfs(&r, 1);
    if (status == FOUND) {
        PyObject *list = int_list(r.seq, r.length);
        if (list != NULL)
            result = Py_BuildValue("(iNiL)", FOUND, list, r.star_at, r.nodes);
    }
    else {
        result = Py_BuildValue("(iOiL)", status, Py_None, -1, r.nodes);
    }
done:
    free(r.add_t);
    free(r.neg_t);
    free(r.seq);
    free(r.marks);
    free(r.succ);
    free(r.state);
    free(r.used);
    free(r.dused);
    return result;
}

/* ------------------------------------------------------------------------
 * maximum-distinct-sums kernel: branch and bound over element cycles */

typedef struct {
    int m;
    int *add_t, *order, *scount, *best_cycle;
    /* symmetry table and states, as in Generic */
    int *marks, *succ, *state;
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
    int st = sg->state[i];
    const int *mk = st >= 0 ? sg->marks + (size_t)st * m : NULL;
    const int *to = st >= 0 ? sg->succ + (size_t)st * m : NULL;
    for (int x = 1; x < m; x++) {
        if (sg->nodes == sg->budget)  /* budget -1 (unbounded) never matches */
            return BUDGET;
        sg->nodes++;
        if (sg->used[x] || (mk != NULL && !mk[x]))
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
        sg->state[i + 1] = to != NULL ? to[x] : -1;
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
    static char *kwlist[] = {"m", "add_t", "budget", "table", NULL};
    Sigma sg;
    memset(&sg, 0, sizeof sg);
    PyObject *add_t, *table = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iOL|O:solve_sigma", kwlist,
                                     &sg.m, &add_t, &sg.budget, &table))
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
    if (copy_table(table, m, &sg.marks, &sg.succ) < 0)
        goto done;
    sg.order = calloc(m, sizeof(int));
    sg.scount = calloc(m, sizeof(int));
    sg.best_cycle = calloc(m, sizeof(int));
    sg.state = malloc(((size_t)m + 1) * sizeof(int));
    sg.used = calloc(m, 1);
    if (!sg.order || !sg.scount || !sg.best_cycle || !sg.state || !sg.used) {
        PyErr_NoMemory();
        goto done;
    }
    for (int i = 0; i <= m; i++)
        sg.state[i] = -1;
    /* the pinned 0, fixed in state 0 */
    if (sg.marks != NULL)
        sg.state[1] = sg.succ[0];
    sg.used[0] = 1;
    int status = sigma_dfs(&sg, 1) == EXHAUSTED ? FOUND : BUDGET;
    PyObject *cycle = sg.have_best ? int_list(sg.best_cycle, m)
                                   : Py_NewRef(Py_None);
    if (cycle == NULL)
        goto done;
    result = Py_BuildValue("(iiNL)", status, sg.best, cycle, sg.nodes);
done:
    free(sg.add_t);
    free(sg.marks);
    free(sg.succ);
    free(sg.state);
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
     "Backtracking search over a CSR slot/derived-sum incidence, pruned by "
     "the leaf-room bound, in one branch or in one per (label, share) pair "
     "of roots; see pure.solve_generic.  Returns (status, assignment or "
     "None, nodes)."},
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
