"""The pure kernels against brute force on instances small enough to list.

Every assignment of m labels to s slots (m**s <= 4096) is enumerated in
lexicographic order; the first one whose slot and derived-sum class
counts all lie within their floors and caps is what the kernel must
return.  Runs on the pure kernel alone, so it needs no compiler.
"""

import itertools
import random

from cordant import GroupSpec, cycle_graph, enumerate_trees, path_graph, tree_graph
from cordant._kernel import pure
from cordant.groups import op_tables
from cordant.search import _generic_structures

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
    monkeypatch.setattr(pure, "MEMO_MAX_BITS", 0)
    without = [pure.solve_generic(*call) for call in calls]
    assert [r[:2] for r in with_memo] == [r[:2] for r in without]
    assert all(a[2] <= b[2] for a, b in zip(with_memo, without))
    assert sum(a[2] < b[2] for a, b in zip(with_memo, without)) > 100
    assert {r[0] for r in with_memo} == {pure.FOUND, pure.EXHAUSTED}
