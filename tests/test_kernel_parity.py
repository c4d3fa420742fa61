"""Pure and compiled kernels must agree bit for bit, node counts included.

The compiled kernel is built from ``_speed.c`` with gcc into a temporary
copy of the package, so parity is checked wherever gcc is present, whether
or not the extension was built in place.
"""

import json
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from cordant import _kernel

SRC = Path(__file__).resolve().parent.parent / "src"

WORKLOAD = r"""
import json
import cordant as c
from cordant import _kernel
from cordant.groups import op_tables
from cordant.search import _generic_structures

spec = c.GroupSpec
out = []

def record(name, o):
    cert = None
    if o.certificate is not None:
        cert = getattr(o.certificate, "labels", None) or getattr(
            o.certificate, "seq", None)
    out.append([name, o.status, cert, o.nodes_explored])

def record_error(name, call):
    try:
        call()
    except c.CordantError as exc:
        out.append([name, type(exc).__name__, str(exc)])
    else:
        out.append([name, "no error"])

record("ea-p4-z4", c.search_ea_cordial(c.path_graph(4), spec((4,))))
record("ea-p6-z6", c.search_ea_cordial(c.path_graph(6), spec((6,))))
record("ea-c3-z3-prefix",
       c.search_ea_cordial(c.cycle_graph(3), spec((3,)), prefix=((1,),)))
record("ac-c12-z4", c.search_a_cordial(c.cycle_graph(12), spec((4,))))
record("am-p7-z7", c.search_a_antimagic(c.path_graph(7), spec((7,))))
record("as-p8-e3", c.search_a_star_antimagic(c.path_graph(8), spec((2, 2, 2))))
record("rs-e2", c.search_rstar_sequence(spec((2, 2))))
record("rs-e3", c.search_rstar_sequence(spec((2, 2, 2))))
record("rs-z2xz5", c.search_rstar_sequence(spec((2, 5))))
record("ea-p6-z6-w3", c.search_ea_cordial(c.path_graph(6), spec((6,)), workers=3))
record("ea-p6-z6-b100", c.search_ea_cordial(c.path_graph(6), spec((6,)), budget=100))

# searches that skip symmetric root branches, also split over two workers
tree8 = c.tree_graph(8, ((0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (0, 6), (6, 7)))
for w in (1, 2):
    record(f"ac-c10-z10-w{w}",
           c.search_a_cordial(c.cycle_graph(10), spec((10,)), workers=w))
    record(f"ea-p10-z10-w{w}",
           c.search_ea_cordial(c.path_graph(10), spec((10,)), workers=w))
    record(f"as-tree8-z8-w{w}",
           c.search_a_star_antimagic(tree8, spec((8,)), workers=w))

# extreme inputs
record("ea-p6-z6-b0", c.search_ea_cordial(c.path_graph(6), spec((6,)), budget=0))
record("rs-z7-b0", c.search_rstar_sequence(spec((7,)), budget=0))
record("ea-c3-z3-rejected-prefix",
       c.search_ea_cordial(c.cycle_graph(3), spec((3,)), prefix=((1,), (1,))))
spider = c.tree_graph(8, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6), (6, 7)))
record("am-spider8-z8", c.search_a_antimagic(spider, spec((8,))))
record("as-spider8-e3", c.search_a_star_antimagic(spider, spec((2, 2, 2))))
record("ac-spider8-z3", c.search_a_cordial(spider, spec((3,))))
record("ea-spider8-z4-b50", c.search_ea_cordial(spider, spec((4,)), budget=50))
record("ea-deepest-cycle-z3",
       c.search_ea_cordial(c.cycle_graph(c.MAX_DEPTH), spec((3,))))
record("ea-deepest-path-z3",
       c.search_ea_cordial(c.path_graph(c.MAX_DEPTH + 1), spec((3,)),
                           budget=30000))
record_error("ea-too-deep-z3",
             lambda: c.search_ea_cordial(c.path_graph(c.MAX_DEPTH + 2),
                                         spec((3,))))
record_error("rs-too-deep",
             lambda: c.search_rstar_sequence(spec((c.MAX_DEPTH + 1,))))

kern = _kernel.active_backend()


# s edge slots along a path (each end vertex sums one slot alone), s
# vertex slots along a path, and s vertex slots around a cycle
def path_edges(s):
    return _generic_structures(c.path_graph(s + 1).incidence(), s)


def path_vertices(s):
    return _generic_structures(c.path_graph(s).edges, s)


def cycle(s):
    return _generic_structures(c.cycle_graph(s).edges, s)


# slot caps of 2**20 need 21-bit counters, so the packed key exceeds 63 bits
# and the memo is off: 47235 nodes where the memo would take 4449
z3_add = op_tables(spec((3,)))[0]
out.append(["path-no-memo",
            kern.solve_generic(3, z3_add, 12, [1 << 20] * 3, [0] * 3,
                               [3] * 3, [0] * 3, *path_vertices(12), [], -1)])
# searches always pin the first slot; here the first slot of a cycle is free
z4_add = op_tables(spec((4,)))[0]
out.append(["cycle-open-first-slot",
            kern.solve_generic(4, z4_add, 12, [3] * 4, [3] * 4,
                               [3] * 4, [3] * 4, *cycle(12), [], -1)])

# prefixes the kernels reject before searching
add_t = op_tables(spec((5,)))[0]
out.append(["cycle-rejected-prefix",
            kern.solve_generic(5, add_t, 3, [1] * 5, [0] * 5, [1] * 5,
                               [0] * 5, *cycle(3), [1, 1], -1)])
out.append(["generic-rejected-prefix",
            kern.solve_generic(5, add_t, 2, [1] * 5, [0] * 5,
                               [0, 1, 1, 1, 1], [0] * 5, 1, [0, 1, 2], [0, 0],
                               [0, 0, 1], [0], [3, 2], -1)])

# memo-on paths and cycles with unequal floors
z5_add = op_tables(spec((5,)))[0]
out.append(["memo-unequal-floors",
            kern.solve_generic(4, z4_add, 12, [3, 5, 4, 4],
                               [0, 1, 1, 4], [5, 3, 3, 3], [5, 0, 3, 1],
                               *path_edges(12), [], -1),
            kern.solve_generic(4, z4_add, 10, [2, 3, 2, 2],
                               [2, 3, 2, 0], [4, 2, 2, 5], [4, 0, 0, 3],
                               *cycle(10), [], -1),
            kern.solve_generic(5, z5_add, 12, [2, 4, 3, 4, 4],
                               [0, 1, 2, 4, 4], [2, 4, 2, 2, 5],
                               [1, 2, 1, 1, 4], *cycle(12), [], -1)])
# 32 labels need more than 63 key bits: a memo-off search
record("ac-c32-z4xz8-b20000",
       c.search_a_cordial(c.cycle_graph(32), spec((4, 8)), budget=20000))

# budget stops on every slot: budgets in steps up to the node count
z6_add = op_tables(spec((6,)))[0]
spider6 = c.tree_graph(6, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5)))
edge_csr = _generic_structures(spider6.incidence(), 5)
vertex_csr = _generic_structures(spider6.edges, 6)
sweeps = [
    ("path", 1176, 7, lambda b: kern.solve_generic(
        6, z6_add, 5, [1] * 6, [0] * 6, [1] * 6, [1] * 6,
        *path_edges(5), [], b)),
    ("cycle", 3750, 7, lambda b: kern.solve_generic(
        6, z6_add, 6, [1] * 6, [1] * 6, [1] * 6, [1] * 6, *cycle(6),
        [], b)),
    ("generic-edges", 1566, 7, lambda b: kern.solve_generic(
        6, z6_add, 5, [1] * 6, [0] * 6, [1] * 6, [1] * 6,
        *edge_csr, [], b)),
    ("generic-vertices", 268, 1, lambda b: kern.solve_generic(
        5, z5_add, 6, [2] * 5, [1] * 5, [1] * 5, [1] * 5,
        *vertex_csr, [], b)),
]
for name, total, step, solve in sweeps:
    out.append(["budget-sweep-" + name,
                [solve(b) for b in [*range(0, total, step), total]]])

# symmetry tables as the searches pass them, given to the kernels
# directly: slot 0 free, slots pruned below the fixed labels (0 and 3 in
# Z6, 0 and 5 in Z10), and Z2xZ4 and (Z2)^3 moving from state to state,
# with budget stops inside the pruned loops
from cordant._stabilizers import stabilizer_table

z6_table = stabilizer_table(spec((6,)))
z10_table = stabilizer_table(spec((10,)))
z10_add = op_tables(spec((10,)))[0]
z2z4_table = stabilizer_table(spec((2, 4)))
z2z4_add = op_tables(spec((2, 4)))[0]
e3_table = stabilizer_table(spec((2, 2, 2)))
e3_add, e3_neg = op_tables(spec((2, 2, 2)))
marked = [
    ("path-z6", 678, 1, lambda b: kern.solve_generic(
        6, z6_add, 5, [1] * 6, [0] * 6, [1] * 6, [1] * 6,
        *path_edges(5), [], b, z6_table)),
    ("cycle-z6", 1890, 1, lambda b: kern.solve_generic(
        6, z6_add, 6, [1] * 6, [1] * 6, [1] * 6, [1] * 6, *cycle(6),
        [], b, z6_table)),
    ("generic-edges-z6", 756, 1, lambda b: kern.solve_generic(
        6, z6_add, 5, [1] * 6, [0] * 6, [1] * 6, [1] * 6,
        *edge_csr, [], b, z6_table)),
    ("path-vertices-z6", 12955, 211, lambda b: kern.solve_generic(
        6, z6_add, 13, [3] * 6, [2] * 6, [2] * 6, [2] * 6,
        *path_vertices(13), [0], b, z6_table)),
    ("path-z10-prefix", 27150, 1000, lambda b: kern.solve_generic(
        10, z10_add, 9, [1] * 10, [0] * 10, [1] * 10, [1] * 10,
        *path_edges(9), [0], b, z10_table)),
    ("path-z2xz4", 225, 1, lambda b: kern.solve_generic(
        8, z2z4_add, 7, [1] * 8, [0] * 8, [1] * 8, [1] * 8,
        *path_edges(7), [], b, z2z4_table)),
    ("cycle-e3", 592, 1, lambda b: kern.solve_generic(
        8, e3_add, 8, [1] * 8, [1] * 8, [1] * 8, [1] * 8, *cycle(8),
        [], b, e3_table)),
    ("rstar-e3", 140, 1, lambda b: kern.solve_rstar(
        8, e3_add, e3_neg, b, e3_table)),
    ("sigma-z6", 270, 1, lambda b: kern.solve_sigma(6, z6_add, b, z6_table)),
    ("sigma-z2xz4", 210, 1, lambda b: kern.solve_sigma(
        8, z2z4_add, b, z2z4_table)),
]
for name, total, step, solve in marked:
    out.append(["budget-sweep-marked-" + name,
                [solve(b) for b in [*range(0, min(total, 40)),
                                    *range(40, total, step), total]]])
s = c.compute_sigma_max(spec((10,)))
out.append(["sigma-z10", s.status, s.value, list(s.witness.order),
            s.nodes_explored])

# graph symmetries as the searches derive them, given to the kernels
# directly: rotations and reflections translated below the pinned 0, on a
# cycle's vertices and edges, and twin chains on a star's edges and a
# tree's vertices, with budget stops inside the pruned subtrees; then
# prefixes that break a rotation (S[1] > S[2] - S[1]) or a twin bound, and
# one that keeps every rule
from cordant.search import _graph_symmetry

z4_neg, z10_neg = op_tables(spec((4,)))[1], op_tables(spec((10,)))[1]
z3_add = op_tables(spec((3,)))[0]
star7 = c.tree_graph(7, [(0, i) for i in range(1, 7)])
star_csr = _generic_structures(star7.incidence(), 6)
star_sym = _graph_symmetry(star7, star7.incidence(), 6, 0, None)
twins9 = c.tree_graph(9, ((0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (3, 6),
                          (6, 7), (6, 8)))
c8_sym = _graph_symmetry(c.cycle_graph(8), None, 8, 0, z4_neg)
turned = [
    ("cycle-vertices-z4", 3208, 41, lambda b: kern.solve_generic(
        4, z4_add, 12, [3] * 4, [3] * 4, [3] * 4, [3] * 4, *cycle(12), [0],
        b, stabilizer_table(spec((4,))),
        _graph_symmetry(c.cycle_graph(12), None, 12, 0, z4_neg))),
    ("cycle-edges-z10", 28440, 997, lambda b: kern.solve_generic(
        10, z10_add, 10, [1] * 10, [1] * 10, [1] * 10, [1] * 10,
        *_generic_structures(c.cycle_graph(10).incidence(), 10), [0], b,
        z10_table,
        _graph_symmetry(c.cycle_graph(10), c.cycle_graph(10).incidence(), 10,
                        0, z10_neg))),
    ("star-edges-z6", 109, 1, lambda b: kern.solve_generic(
        6, z6_add, 6, [1] * 6, [1] * 6, [1] * 6, [1] * 6, *star_csr, [], b,
        z6_table, star_sym)),
    ("tree-vertices-z3", 15, 1, lambda b: kern.solve_generic(
        3, z3_add, 9, [3] * 3, [3] * 3, [3] * 3, [2] * 3,
        *_generic_structures(twins9.edges, 9), [], b, None,
        _graph_symmetry(twins9, None, 9, 0, None))),
]
for name, total, step, solve in turned:
    out.append(["budget-sweep-turned-" + name,
                [solve(b) for b in [*range(0, min(total, 40)),
                                    *range(40, total, step), total]]])
out.append(["turned-rejected-prefix",
            kern.solve_generic(4, z4_add, 8, [2] * 4, [2] * 4, [2] * 4,
                               [2] * 4, *cycle(8), [0, 3, 1], -1, None,
                               c8_sym),
            kern.solve_generic(4, z4_add, 8, [2] * 4, [2] * 4, [2] * 4,
                               [2] * 4, *cycle(8), [0, 1, 2], -1, None,
                               c8_sym),
            kern.solve_generic(6, z6_add, 6, [1] * 6, [1] * 6, [1] * 6,
                               [1] * 6, *star_csr, [3, 1], -1, None,
                               star_sym)])

# prefixes that leave one slot free
out.append(["path-cycle-one-free-slot",
            kern.solve_generic(4, z4_add, 4, [1] * 4, [0] * 4,
                               [2] * 4, [1] * 4, *path_edges(4), [0, 1, 2],
                               -1),
            kern.solve_generic(4, z4_add, 4, [1] * 4, [0] * 4,
                               [2] * 4, [1] * 4, *path_edges(4), [1, 3, 0],
                               -1),
            kern.solve_generic(6, z6_add, 6, [1] * 6, [1] * 6,
                               [2] * 6, [0] * 6, *cycle(6), [0, 1, 3, 2, 4],
                               -1)])
out.append(["generic-one-free-slot",
            kern.solve_generic(6, z6_add, 5, [1] * 6, [0] * 6,
                               [1] * 6, [1] * 6,
                               *edge_csr,
                               [1, 2, 3, 4], -1),
            kern.solve_generic(5, z5_add, 6, [2] * 5, [1] * 5,
                               [1] * 5, [1] * 5,
                               *vertex_csr,
                               [0, 1, 2, 3, 4], -1)])

# vertex labelings of trees (slots feed one item per incident edge) and A*
tree9 = c.tree_graph(9, ((0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 6),
                         (3, 7), (0, 8)))
record("ac-tree8-z4", c.search_a_cordial(tree8, spec((4,))))
record("ac-tree9-z3-b10", c.search_a_cordial(tree9, spec((3,)), budget=10))
record("as-tree9-z3xz3", c.search_a_star_antimagic(tree9, spec((3, 3))))
record("am-tree9-z3xz3", c.search_a_antimagic(tree9, spec((3, 3))))

# memo-on trees: the three order-10 Z2xZ5 rows the memo settles, and a
# vertex labeling (359 nodes, 2189 with the memo off)
trees10 = list(c.enumerate_trees(10))
for i in (48, 55, 60):
    record(f"am-tree10-{i}-z2xz5",
           c.search_a_antimagic(trees10[i], spec((2, 5))))
record("ac-tree10-29-z5", c.search_a_cordial(trees10[29], spec((5,))))

# the leaf-room bound: tree searches it prunes, A-antimagic over Z9,
# A*-antimagic over Z8, and order-10 trees with a pinned first label
trees9 = list(c.enumerate_trees(9))
for i in (5, 20, 40):
    record(f"am-tree9-{i}-z9", c.search_a_antimagic(trees9[i], spec((9,))))
trees8 = list(c.enumerate_trees(8))
for i in (1, 11, 16):
    record(f"as-tree8-{i}-z8",
           c.search_a_star_antimagic(trees8[i], spec((8,))))
for x in (0, 1):
    record(f"ea-tree10-20-z10-prefix{x}",
           c.search_ea_cordial(trees10[20], spec((10,)), prefix=((x,),)))

# root branches in one call (the searches above make one per search):
# every root exhausted, one rejected at placement with it; Found at a later
# root, each share just enough; a budget stop inside the second root and a
# zero share; a prefix with roots; the symmetries with roots
from cordant.search import _instance


def spider_call(factors, notion, prefix, roots, sym=False):
    sp = spec(factors)
    s, bounds, members = _instance(spider, sp, notion)
    tail = (None, None)
    if sym:
        tail = (stabilizer_table(sp), _graph_symmetry(spider, members, s, 0,
                                                      None))
    return kern.solve_generic(sp.order, op_tables(sp)[0], s, *bounds,
                              *_generic_structures(members, s), prefix, -1,
                              *tail, roots)


am, astar = c.NOTION_A_ANTIMAGIC, c.NOTION_A_STAR_ANTIMAGIC
out.append(["roots", [
    spider_call((2, 2, 2), astar, [], [(0, 5), (1, 2000), (3, 1256),
                                         (6, -1)]),
    spider_call((8,), am, [], [(0, 400), (1, 355)]),
    spider_call((8,), am, [], [(0, 1000), (2, 100), (3, -1)]),
    spider_call((2, 2, 2), astar, [], [(1, 1256), (2, 0), (3, -1)]),
    spider_call((2, 4), astar, [1], [(1, -1), (2, -1), (5, 40), (7, -1)]),
    spider_call((8,), am, [], [(0, 128), (4, 50), (1, -1)], sym=True),
    spider_call((8,), am, [], []),
]])

# cap-one instances, and instances just outside the kernel's test for
# them: one class's floor below its cap while the others equal theirs, or
# one cap of 2; caps of 0 among them.  Paths, cycles and trees, each with
# no prefix or a one-label prefix, with or without roots, with the
# symmetry table the bounds allow and the graph symmetries, and budget
# stops inside the walks
import random
from cordant.search import _symmetry_table

rng = random.Random(36)


def cap_one_classes(m, count):
    if count <= m and rng.random() < 0.5:
        cap = [0] * m
        for x in rng.sample(range(m), count):
            cap[x] = 1
        return cap, cap[:]
    return [int(rng.random() < 0.8) for _ in range(m)], [0] * m


def cap_one_bounds(m, s, completions, inside):
    bounds = [*cap_one_classes(m, s), *cap_one_classes(m, completions)]
    if not inside:
        side = 2 * rng.randrange(2)
        cap, floor = bounds[side][:], bounds[side + 1][:]
        ones = [x for x in range(m) if cap[x]]
        if len(ones) > 1 and rng.random() < 0.5:
            floor = cap[:]
            floor[rng.choice(ones)] = 0
        else:
            cap[rng.randrange(m)] = 2
        bounds[side:side + 2] = cap, floor
    return bounds


spider10 = c.tree_graph(10, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6),
                             (0, 7), (0, 8), (8, 9)))
cap_one = []
for factors, graph, on_edges in (
        ((7,), c.path_graph(8), True), ((2, 3), c.path_graph(6), False),
        ((8,), c.cycle_graph(8), False), ((2, 4), c.cycle_graph(8), True),
        ((8,), spider, True), ((2, 2, 2), spider, True),
        ((10,), spider10, True), ((3, 3), tree9, True),
        ((9,), spider10, False)):
    sp = spec(factors)
    m = sp.order
    if on_edges:
        s, members = len(graph.edges), graph.incidence()
    else:
        s, members = graph.n, [list(e) for e in graph.edges]
    csr = _generic_structures(members, s)
    for inside in (True, False) * 6:
        bounds = cap_one_bounds(m, s, graph.n if on_edges else len(members),
                                inside)
        prefix = [rng.randrange(m)] if rng.random() < 0.4 else []
        sym = _graph_symmetry(graph, members if on_edges else None, s,
                              len(prefix), None)
        table = _symmetry_table(sp, bounds) if rng.random() < 0.7 else None
        if rng.random() < 0.5:
            roots = [(x, rng.choice([-1, -1, 0, 50, 500])) for x in
                     sorted(rng.sample(range(m), rng.randint(1, m)))]
            budget = -1
        else:
            roots = None
            budget = rng.choice([-1, -1, -1, 60, 400])
        cap_one.append(kern.solve_generic(
            m, op_tables(sp)[0], s, *bounds, *csr, prefix, budget, table,
            sym, roots))
out.append(["cap-one", cap_one])

# budgets beyond any search run unbounded on both backends
huge = 10 ** 30
record("ea-p6-z6-huge", c.search_ea_cordial(c.path_graph(6), spec((6,)),
                                            budget=huge))
record("am-spider8-z8-huge", c.search_a_antimagic(spider, spec((8,)),
                                                  budget=huge))
record("rs-e3-huge", c.search_rstar_sequence(spec((2, 2, 2)), budget=huge))
s = c.compute_sigma_max(spec((6,)), budget=huge)
out.append(["sigma-z6-huge", s.status, s.value, list(s.witness.order),
            s.nodes_explored])

# find-any restarts search relabeled copies of an instance (labels 1..m-1
# permuted): several restarts each, Found and Unknown, on a cycle's
# vertices and on a path's edges
from cordant.search import _find_any, _relabeled

for name, graph, notion, factors, budget in (
        ("fa-c16-z2xz2xz4", c.cycle_graph(16), c.NOTION_A_CORDIAL,
         (2, 2, 4), None),
        ("fa-c16-z2xz8", c.cycle_graph(16), c.NOTION_A_CORDIAL, (2, 8), None),
        ("fa-c32-z4xz8-b4000000", c.cycle_graph(32), c.NOTION_A_CORDIAL,
         (4, 8), 4_000_000),
        ("fa-c64-z8xz8-b6400000", c.cycle_graph(64), c.NOTION_A_CORDIAL,
         (8, 8), 6_400_000),
        ("fa-p32-z2^5", c.path_graph(32), c.NOTION_A_ANTIMAGIC, (2,) * 5,
         None),
        ("fa-p64-z2^6-b6400000", c.path_graph(64), c.NOTION_A_ANTIMAGIC,
         (2,) * 6, 6_400_000)):
    record(name, _find_any(graph, spec(factors), notion, budget))
z2z4_add = op_tables(spec((2, 4)))[0]
for perm in ([0, 5, 2, 7, 1, 3, 6, 4], [0, 7, 6, 5, 4, 3, 2, 1]):
    table = _relabeled(z2z4_add, 8, perm)
    out.append(["relabeled-" + "".join(map(str, perm)),
                kern.solve_generic(8, table, 8, [1] * 8, [1] * 8, [1] * 8,
                                   [1] * 8, *cycle(8), [0], -1),
                kern.solve_generic(8, table, 8, [1] * 8, [1] * 8, [1] * 8,
                                   [1] * 8, *cycle(8), [0], 20)])

for factors in ((2, 3), (2,), (4,)):
    s = c.compute_sigma_max(spec(factors))
    out.append(["sigma", factors, s.status, s.value, list(s.witness.order),
                s.witness.distinct_sum_count, s.nodes_explored])
s = c.compute_sigma_max(spec((7,)), budget=0)
out.append(["sigma-z7-b0", s.status, s.value, s.witness, s.nodes_explored])
out.append(["backend", _kernel.backend_name()])
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def built_package(tmp_path_factory):
    """A copy of the package with the compiled kernel built into it."""
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("gcc not found; the compiled kernel cannot be built")
    root = tmp_path_factory.mktemp("kernel")
    kernel_dir = root / "cordant" / "_kernel"
    shutil.copytree(SRC / "cordant", root / "cordant",
                    ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    target = kernel_dir / ("_speed" + sysconfig.get_config_var("EXT_SUFFIX"))
    proc = subprocess.run(
        [gcc, "-O2", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC",
         "-I" + sysconfig.get_paths()["include"],
         str(kernel_dir / "_speed.c"), "-o", str(target)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return root


def _run(root: Path, backend: str, code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a child process on the named backend."""
    select = f"from cordant import _kernel\n_kernel._active = _kernel.{backend}\n"
    env = dict(os.environ, PYTHONPATH=str(root))
    return subprocess.run([sys.executable, "-c", select + code],
                          capture_output=True, text=True, env=env, cwd=root)


def test_backends_produce_identical_results(built_package):
    results = {}
    for backend in ("pure", "compiled"):
        proc = _run(built_package, backend, WORKLOAD)
        assert proc.returncode == 0, proc.stderr
        results[backend] = json.loads(proc.stdout)
    pure, fast = results["pure"], results["compiled"]
    assert pure[-1] == ["backend", "pure"]
    assert fast[-1] == ["backend", "compiled"]
    assert pure[:-1] == fast[:-1]


def test_compiled_kernel_rejects_malformed_instances(built_package):
    code = r"""
from cordant._kernel import _speed
add_t = [0, 1, 1, 0]
bounds = ([1, 1], [0, 0], [2, 2], [0, 0])
# a vertex-labeled path of two slots, and incidences the memo cannot key
pair = (1, [0, 1, 2], [0, 0], [0, 0, 1], [0])
completed_twice = (1, [0, 1, 2], [0, 0], [0, 1, 2], [0, 0])
fed_after_completion = (1, [0, 1, 2], [0, 0], [0, 1, 1], [0])
fed_twice = (1, [0, 2, 2], [0, 0], [0, 0, 1], [0])
completed_by_another_slot = (1, [0, 1, 1], [0], [0, 0, 1], [0])
bad = [
    lambda: _speed.solve_generic(2, add_t[:3], 2, *bounds, *pair,
                                 [], -1),
    lambda: _speed.solve_generic(2, add_t, 2, *bounds, *pair, [2],
                                 -1),
    lambda: _speed.solve_generic(2, add_t, 2, *bounds,
                                 *completed_twice, [], -1),
    lambda: _speed.solve_generic(2, add_t, 2, *bounds,
                                 *fed_after_completion, [], -1),
    lambda: _speed.solve_generic(2, add_t, 2, *bounds, *fed_twice,
                                 [], -1),
    lambda: _speed.solve_generic(2, add_t, 2, *bounds,
                                 *completed_by_another_slot, [], -1),
    lambda: _speed.solve_generic(2, add_t, 1, [1, 1], [0, 0],
                                 [1, 1], [0, 0], 1, [0, 5], [0], [0, 1],
                                 [0], [], -1),
    lambda: _speed.solve_sigma(3, [0] * 8 + [3], -1),
    # symmetry tables: not a pair, a mark out of range, part of a state,
    # a successor state that does not exist
    lambda: _speed.solve_generic(2, add_t, 2, *bounds, *pair, [], -1,
                                 [[2, 1]]),
    lambda: _speed.solve_generic(2, add_t, 2, *bounds, *pair, [], -1,
                                 ([3, 1], [0, -1])),
    lambda: _speed.solve_rstar(2, add_t, [0, 1], -1,
                               ([2, 1, 2], [0, -1, 0])),
    lambda: _speed.solve_sigma(3, [0, 1, 2, 1, 2, 0, 2, 0, 1], -1,
                               ([2, 1, 0], [0, 1, -1])),
    # graph symmetries: not a triple, twin bounds of the wrong length or
    # from a later slot, a short neg_t
    lambda: _speed.solve_generic(2, add_t, 2, *bounds, *pair, [], -1, None,
                                 ([-1, -1], True)),
    lambda: _speed.solve_generic(2, add_t, 2, *bounds, *pair, [], -1, None,
                                 ([-1], False, None)),
    lambda: _speed.solve_generic(2, add_t, 2, *bounds, *pair, [], -1, None,
                                 ([-1, 1], False, None)),
    lambda: _speed.solve_generic(2, add_t, 2, *bounds, *pair, [], -1, None,
                                 ([-1, -1], True, [0])),
    # root branches: not a list of pairs, a pair of the wrong length, a
    # label out of range, no free slot left for them
    lambda: _speed.solve_generic(2, add_t, 2, *bounds, *pair, [], -1, None,
                                 None, 5),
    lambda: _speed.solve_generic(2, add_t, 2, *bounds, *pair, [], -1, None,
                                 None, [(0,)]),
    lambda: _speed.solve_generic(2, add_t, 2, *bounds, *pair, [], -1, None,
                                 None, [(2, -1)]),
    lambda: _speed.solve_generic(2, add_t, 2, *bounds, *pair, [0, 1], -1,
                                 None, None, [(0, -1)]),
]
for call in bad:
    try:
        call()
    except ValueError:
        continue
    raise SystemExit("accepted a malformed instance")
# the well-formed pair they are built from runs: labels 0, 1 sum to 1
assert _speed.solve_generic(2, add_t, 2, *bounds, *pair, [],
                            -1) == (0, [0, 1], 3)
assert _speed.solve_generic(2, add_t, 2, *bounds, *pair, [], -1, None,
                            ([-1, 0], True, [0, 1])) == (0, [0, 1], 3)
assert _speed.solve_generic(2, add_t, 2, *bounds, *pair, [], -1, None,
                            None, [(0, -1)]) == (0, [0, 1], 2)
"""
    proc = _run(built_package, "compiled", code)
    assert proc.returncode == 0, proc.stderr


def test_active_backend_exposes_all_kernels():
    kern = _kernel.active_backend()
    for name in ("solve_chain", "solve_generic", "solve_rstar", "solve_sigma"):
        assert callable(getattr(kern, name))


def test_pure_kernels_load_from_their_own_files_on_first_read():
    # importing the backends compiles no kernel; each solve_* name loads
    # its kernel's file alone, and the pure module answers all four
    code = """\
import json, sys
from cordant._kernel import pure
seen = [sorted(m for m in sys.modules if m.startswith("cordant._kernel."))]
for name in ("solve_sigma", "solve_rstar", "solve_chain", "solve_generic"):
    fn = getattr(pure, name)
    seen.append([fn.__module__, callable(fn)])
seen.append(pure.solve_chain is pure.solve_generic)
seen.append(sorted(m for m in sys.modules if m.startswith("cordant._kernel.")))
print(json.dumps(seen))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    kernels = ["cordant._kernel." + k for k in ("generic", "pure", "rstar",
                                                "sigma")]
    assert json.loads(proc.stdout) == [
        ["cordant._kernel.pure"],
        ["cordant._kernel.sigma", True], ["cordant._kernel.rstar", True],
        ["cordant._kernel.generic", True], ["cordant._kernel.generic", True],
        True, kernels]
