"""The pure kernels against brute force on instances small enough to list.

Every assignment of m labels to s slots (m**s <= 4096) is enumerated in
lexicographic order; the first one whose slot and derived-sum class
counts all lie within their floors and caps is what the kernel must
return.  Runs on the pure kernel alone, so it needs no compiler.
"""

import itertools
import random

from cordant import (
    NOTION_A_STAR_ANTIMAGIC,
    NOTION_EA_CORDIAL,
    GroupSpec,
    cycle_graph,
    enumerate_trees,
    path_graph,
    star_graph,
    tree_graph,
)
from cordant._kernel import generic, pure
from cordant.graphs import SimpleGraph
from cordant.groups import op_tables
from cordant.search import _generic_structures, _instance

GROUPS = ((2,), (3,), (4,), (2, 2), (5,), (6,), (8,), (2, 4))
MAX_ASSIGNMENTS = 4096


def _first_solution(m, num_slots, members, bounds):
    """Lex-first assignment within ``bounds``, or None.

    ``members(a)`` lists the derived sums of the assignment ``a``.
    """
    slot_cap, slot_floor, dcap, dfloor = bounds
    for a in itertools.product(range(m), repeat=num_slots):
        if _within(a, m, slot_cap, slot_floor) \
                and _within(members(a), m, dcap, dfloor):
            return list(a)
    return None


def _within(values, m, cap, floor):
    counts = [0] * m
    for v in values:
        counts[v] += 1
    return all(floor[x] <= counts[x] <= cap[x] for x in range(m))


def _random_bounds(rng, items, m):
    """Equitable bounds, or uneven caps and floors per label."""
    if rng.random() < 0.4:
        q, r = divmod(items, m)
        return [q + (1 if r else 0)] * m, [q] * m
    cap = [rng.randint(0, items // m + 2) for _ in range(m)]
    floor = [rng.randint(0, c) if rng.random() < 0.5 else 0 for c in cap]
    return cap, floor


def _sizes(m):
    """Slot counts whose assignments can all be listed."""
    return [s for s in range(1, 13) if m ** s <= MAX_ASSIGNMENTS]


def _solve_and_compare(solve, m, s, derived, bounds, case, tally):
    expected = _first_solution(m, s, derived, bounds)
    status, assign, _ = solve(bounds)
    want = (pure.EXHAUSTED, None) if expected is None else (pure.FOUND, expected)
    assert (status, assign) == want, (case, bounds)
    tally[status] += 1


def test_path_and_cycle_instances_match_brute_force():
    """Edge-labeled paths (each end vertex sums one slot alone),
    vertex-labeled paths, and cycles, all with the first slot free."""
    rng = random.Random(11)
    tally = {pure.FOUND: 0, pure.EXHAUSTED: 0}
    for factors in GROUPS:
        spec = GroupSpec(factors)
        m, add_t = spec.order, op_tables(spec)[0]
        for s in _sizes(m):
            for singles, cyclic in ((True, False), (False, False),
                                    (False, True)):
                if cyclic and s < 3:
                    continue
                if singles:
                    graph, on_edges = path_graph(s + 1), True
                elif cyclic:
                    graph, on_edges = cycle_graph(s), False
                elif s > 1:
                    graph, on_edges = path_graph(s), False
                else:  # one vertex slot and no derived sum
                    graph, on_edges = tree_graph(1, ()), False

                def derived(a):
                    sums = [add_t[a[i - 1] * m + a[i]] for i in range(1, s)]
                    if singles:
                        sums += [a[0], a[-1]]
                    if cyclic:
                        sums.append(add_t[a[-1] * m + a[0]])
                    return sums

                num_derived = s - 1 + 2 * singles + cyclic
                structures = _generic_structures(
                    graph.incidence() if on_edges else graph.edges, s)
                assert structures[0] == num_derived
                for _ in range(10):
                    bounds = (*_random_bounds(rng, s, m),
                              *_random_bounds(rng, num_derived, m))
                    _solve_and_compare(
                        lambda b: pure.solve_generic(m, add_t, s, *b,
                                                     *structures, [], -1),
                        m, s, derived, bounds,
                        (factors, s, singles, cyclic), tally)
    assert min(tally.values()) >= 50, tally


def _graphs():
    """Trees with every slot shape the generic kernel has (edge slots
    completing none, one or both ends; vertex slots of degree 1 to 4),
    and one cycle."""
    return [
        path_graph(2), path_graph(4),
        tree_graph(4, ((0, 1), (0, 2), (0, 3))),
        tree_graph(5, ((0, 1), (1, 2), (1, 3), (3, 4))),
        tree_graph(6, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5))),
        tree_graph(7, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (5, 6))),
        cycle_graph(5),
    ]


def test_generic_kernel_matches_brute_force():
    """Edge and vertex labelings of trees, and of a cycle."""
    rng = random.Random(12)
    tally = {pure.FOUND: 0, pure.EXHAUSTED: 0}
    for factors in GROUPS:
        spec = GroupSpec(factors)
        m, add_t = spec.order, op_tables(spec)[0]
        for graph in _graphs():
            for on_edges in (True, False):
                if on_edges:
                    s, members = len(graph.edges), graph.incidence()
                else:
                    s, members = graph.n, [list(e) for e in graph.edges]
                if m ** s > MAX_ASSIGNMENTS:
                    continue

                def derived(a):
                    sums = []
                    for slots in members:
                        total = 0
                        for i in slots:
                            total = add_t[total * m + a[i]]
                        sums.append(total)
                    return sums

                structures = _generic_structures(members, s)
                for _ in range(10):
                    bounds = (*_random_bounds(rng, s, m),
                              *_random_bounds(rng, len(members), m))
                    _solve_and_compare(
                        lambda b: pure.solve_generic(m, add_t, s, *b,
                                                     *structures, [], -1),
                        m, s, derived, bounds,
                        (factors, graph.edges, on_edges), tally)
    assert min(tally.values()) >= 50, tally


def _tree_instances():
    """Edge labelings of every tree of order 8, with its edges in storage
    order and shuffled (which moves where items open and complete), with
    the antimagic and A* bounds over every group of order 8; and vertex
    labelings of every tree of order 9 with the a-cordial bounds over Z3
    and Z4."""
    rng = random.Random(13)
    nonzero_once = [0] + [1] * 7
    for tree in enumerate_trees(8):
        shuffled = tree_graph(8, rng.sample(tree.edges, len(tree.edges)))
        for graph in (tree, shuffled):
            structures = _generic_structures(graph.incidence(), 7)
            for factors in ((8,), (2, 4), (2, 2, 2)):
                for bounds in (([1] * 8, [0] * 8, [1] * 8, [1] * 8),
                               (nonzero_once, nonzero_once, [1] * 8,
                                [1] * 8)):
                    yield factors, 7, bounds, structures
    for tree in enumerate_trees(9):
        for m in (3, 4):
            q, r = divmod(9, m)
            e, f = divmod(8, m)
            bounds = ([q + (r > 0)] * m, [q] * m, [e + (f > 0)] * m, [e] * m)
            yield (m,), 9, bounds, _generic_structures(tree.edges, 9)


def test_memo_keeps_tree_outcomes(monkeypatch):
    """The dead-state memo changes node counts only: with it off, every
    status and lex-first assignment is the same."""
    calls = []
    for factors, s, bounds, structures in _tree_instances():
        spec = GroupSpec(factors)
        calls.append((spec.order, op_tables(spec)[0], s, *bounds,
                      *structures, [], -1))
    with_memo = [pure.solve_generic(*call) for call in calls]
    monkeypatch.setattr(generic, "MEMO_MAX_BITS", 0)
    without = [pure.solve_generic(*call) for call in calls]
    assert [r[:2] for r in with_memo] == [r[:2] for r in without]
    assert all(a[2] <= b[2] for a, b in zip(with_memo, without))
    assert sum(a[2] < b[2] for a, b in zip(with_memo, without)) > 100
    assert {r[0] for r in with_memo} == {pure.FOUND, pure.EXHAUSTED}


# ---------------------------------------------------------------------------
# the leaf-room bound and root branches

def _leaf_slots_after_first(graph):
    """The edges after edge 0 with an end of degree 1: the leaf slots of
    an edge labeling, each completing an item no other slot feeds."""
    degree = graph.degrees()
    return sum(min(degree[u], degree[v]) == 1 for u, v in graph.edges[1:])


def _leafy_graphs():
    """Graphs whose edge labelings the leaf-room bound prunes (two or more
    leaf slots after slot 0), from these, each with its edges in storage
    order and reversed: stars, spiders (paths joined at one end), and a
    general graph with a K2 component, whose one edge completes two leaf
    items, and an isolated vertex."""
    graphs = [star_graph(3), star_graph(4), star_graph(5),
              tree_graph(5, ((0, 1), (1, 2), (0, 3), (3, 4))),
              tree_graph(7, ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6))),
              SimpleGraph(7, ((0, 1), (0, 2), (0, 3), (4, 5)))]
    leafy = [h for g in graphs
             for h in (g, SimpleGraph(g.n, g.edges[::-1], g.kind))
             if _leaf_slots_after_first(h) >= 2]
    assert len(leafy) == 11  # the reversed 4-edge spider has one
    return leafy


def test_leaf_room_bound_keeps_brute_force_outcomes():
    """Equitable, zero-free (label 0 never used, the others equitable) and
    random bounds: the first solution is the brute-force one."""
    rng = random.Random(14)
    tally = {pure.FOUND: 0, pure.EXHAUSTED: 0}
    for factors in GROUPS + ((7,),):
        spec = GroupSpec(factors)
        m, add_t = spec.order, op_tables(spec)[0]
        for graph in _leafy_graphs():
            instance = _instance(graph, spec, NOTION_EA_CORDIAL)
            s = graph.edge_count
            if instance is None or m ** s > MAX_ASSIGNMENTS:
                continue
            _, (slot_cap, slot_floor, dcap, dfloor), members = instance
            structures = _generic_structures(members, s)

            def derived(a):
                # an isolated vertex completes no item: its 0 is not counted
                sums = []
                for slots in filter(None, members):
                    total = 0
                    for i in slots:
                        total = add_t[total * m + a[i]]
                    sums.append(total)
                return sums

            q, r = divmod(s, m - 1)
            zero_free = ([0] + [q + (r > 0)] * (m - 1), [0] + [q] * (m - 1))
            choices = [(slot_cap, slot_floor, dcap, dfloor),
                       (*zero_free, dcap, dfloor),
                       (*zero_free, [1] * m, [0] * m)]
            choices += [(*_random_bounds(rng, s, m),
                         *_random_bounds(rng, len(members), m))
                        for _ in range(6)]
            for bounds in choices:
                _solve_and_compare(
                    lambda b: pure.solve_generic(m, add_t, s, *b,
                                                 *structures, [], -1),
                    m, s, derived, bounds, (factors, graph.edges), tally)
    assert min(tally.values()) >= 50, tally


def test_leaf_room_bound_prunes():
    """Two A*-antimagic instances the bound cuts: an order-8 tree over
    (Z2)^3, NotExists in 64 nodes (5440 without the bound), and an
    order-7 tree over Z7, Found in 27 (307 without)."""
    for n, edges, factors, want in (
            (8, ((0, 1), (1, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7)),
             (2, 2, 2), (pure.EXHAUSTED, None, 64)),
            (7, ((0, 1), (1, 2), (2, 3), (0, 4), (0, 5), (0, 6)), (7,),
             (pure.FOUND, [1, 6, 2, 3, 4, 5], 27))):
        spec = GroupSpec(factors)
        s, bounds, members = _instance(tree_graph(n, edges), spec,
                                       NOTION_A_STAR_ANTIMAGIC)
        got = pure.solve_generic(spec.order, op_tables(spec)[0], s, *bounds,
                                 *_generic_structures(members, s), [], -1)
        assert got == want


def test_root_branches_run_as_separate_calls():
    """A call with ``roots`` returns what calls on each root as the
    prefix's last label return, in order up to the first that is not
    exhausted: the status and labels of that one and the nodes of all,
    with every share, zero and uneven ones among them."""
    rng = random.Random(15)
    checked = {pure.FOUND: 0, pure.EXHAUSTED: 0, pure.BUDGET: 0}
    for factors in ((5,), (6,), (2, 4), (8,)):
        spec = GroupSpec(factors)
        m, add_t = spec.order, op_tables(spec)[0]
        for graph in _leafy_graphs() + [path_graph(m), cycle_graph(m)]:
            if graph.n > m + 1 or graph.kind == "general":
                continue
            s = graph.edge_count
            structures = _generic_structures(graph.incidence(), s)
            bounds = (*_random_bounds(rng, s, m),
                      *_random_bounds(rng, graph.n, m))
            for prefix in ([], [rng.randrange(m)]):
                if len(prefix) >= s:
                    continue
                roots = [(x, rng.choice([-1, 0, 3, 40, 400]))
                         for x in rng.sample(range(m), rng.randint(1, m))]
                fixed = (m, add_t, s, *bounds, *structures)
                want, nodes = (pure.EXHAUSTED, None), 0
                for x, share in roots:
                    r = pure.solve_generic(*fixed, prefix + [x], share)
                    nodes += r[2]
                    if r[0] != pure.EXHAUSTED:
                        want = r[:2]
                        break
                got = pure.solve_generic(*fixed, prefix, -1, None, None,
                                         roots)
                assert got == (*want, nodes), (factors, graph.edges, prefix,
                                               roots)
                checked[got[0]] += 1
    assert min(checked.values()) >= 5, checked


# ---------------------------------------------------------------------------
# cap-one instances

def _cap_one_classes(rng, m, count):
    """Caps of 0 and 1 with floors that never reject a label: all 0, or
    equal to the caps, ``count`` of which are 1."""
    if count <= m and rng.random() < 0.5:
        cap = [0] * m
        for x in rng.sample(range(m), count):
            cap[x] = 1
        return cap, cap[:]
    return [int(rng.random() < 0.8) for _ in range(m)], [0] * m


def _cap_one_bounds(rng, m, s, completions, inside):
    """Bounds of a cap-one instance (``inside``), or of one just outside
    the kernel's test for it: one class's floor below its cap while others
    equal theirs, or one cap of 2."""
    bounds = [*_cap_one_classes(rng, m, s),
              *_cap_one_classes(rng, m, completions)]
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
    return tuple(bounds)


def _is_cap_one(bounds, s, completions):
    slot_cap, slot_floor, dcap, dfloor = bounds
    return (max(slot_cap + dcap) <= 1
            and generic._floors_hold(slot_cap, slot_floor, s)
            and generic._floors_hold(dcap, dfloor, completions))


def _cap_one_cases():
    """Edge and vertex labelings of paths and cycles, the trees of
    ``_graphs`` and the leafy graphs' edges: (graph, slots, items)."""
    for n in range(2, 7):
        yield path_graph(n), n - 1, path_graph(n).incidence()
        yield path_graph(n), n, [list(e) for e in path_graph(n).edges]
    for n in range(3, 7):
        cycle = cycle_graph(n)
        yield cycle, n, cycle.incidence()
        yield cycle, n, [list(e) for e in cycle.edges]
    for graph in _graphs()[1:-1]:
        yield graph, graph.edge_count, graph.incidence()
        yield graph, graph.n, [list(e) for e in graph.edges]
    for graph in _leafy_graphs():
        yield graph, graph.edge_count, graph.incidence()


def test_cap_one_walk_matches_brute_force():
    """Bounds on both sides of the cap-one test, caps of 0 among them,
    each with no prefix or a one-label prefix, and with or without root
    branches: the first solution (with a root label at the first free
    slot) is the brute-force one."""
    rng = random.Random(36)
    tally = {(inside, status): 0 for inside in (True, False)
             for status in (pure.FOUND, pure.EXHAUSTED)}
    for factors in GROUPS:
        spec = GroupSpec(factors)
        m, add_t = spec.order, op_tables(spec)[0]
        for graph, s, members in _cap_one_cases():
            if m ** s > MAX_ASSIGNMENTS:
                continue
            fed = [slots for slots in members if slots]
            structures = _generic_structures(members, s)
            table = []
            for a in itertools.product(range(m), repeat=s):
                sums = []
                for slots in fed:
                    total = 0
                    for i in slots:
                        total = add_t[total * m + a[i]]
                    sums.append(total)
                table.append((a, sums))
            for inside in (True, False) * 3:
                bounds = _cap_one_bounds(rng, m, s, len(fed), inside)
                assert _is_cap_one(bounds, s, len(fed)) == inside, bounds
                prefix = [rng.randrange(m)] if s > 1 and rng.random() < 0.5 \
                    else []
                roots = None
                if rng.random() < 0.5:
                    roots = [(x, -1) for x in sorted(rng.sample(
                        range(m), rng.randint(1, m)))]
                first = set(range(m)) if roots is None else {
                    x for x, _ in roots}
                p = len(prefix)
                expected = next(
                    (list(a) for a, sums in table
                     if list(a[:p]) == prefix and a[p] in first
                     and _within(a, m, *bounds[:2])
                     and _within(sums, m, *bounds[2:])), None)
                got = pure.solve_generic(m, add_t, s, *bounds, *structures,
                                         prefix, -1, None, None, roots)
                want = (pure.EXHAUSTED, None) if expected is None else (
                    pure.FOUND, expected)
                assert got[:2] == want, (factors, graph.edges, s, bounds,
                                         prefix, roots)
                tally[inside, got[0]] += 1
    assert min(tally.values()) >= 50, tally
