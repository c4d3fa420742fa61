"""The pure kernels against brute force on instances small enough to list.

Every assignment of m labels to s slots (m**s <= 4096) is enumerated in
lexicographic order; the first one whose slot and derived-sum class
counts all lie within their floors and caps is what the kernel must
return.  Runs on the pure kernel alone, so it needs no compiler.
"""

import itertools
import random

from cordant import GroupSpec, cycle_graph, path_graph, tree_graph
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


def test_chain_kernel_matches_brute_force():
    """Paths with and without singleton ends, and cycles, all with the
    first slot free."""
    rng = random.Random(11)
    tally = {pure.FOUND: 0, pure.EXHAUSTED: 0}
    for factors in GROUPS:
        add_t, neg_t = op_tables(GroupSpec(factors))
        m = len(neg_t)
        for s in _sizes(m):
            for singles, cyclic in ((True, False), (False, False),
                                    (False, True)):
                if cyclic and s < 3:
                    continue

                def derived(a):
                    sums = [add_t[a[i - 1] * m + a[i]] for i in range(1, s)]
                    if singles:
                        sums += [a[0], a[-1]]
                    if cyclic:
                        sums.append(add_t[a[-1] * m + a[0]])
                    return sums

                num_derived = s - 1 + 2 * singles + cyclic
                for _ in range(10):
                    bounds = (*_random_bounds(rng, s, m),
                              *_random_bounds(rng, num_derived, m))
                    _solve_and_compare(
                        lambda b: pure.solve_chain(m, add_t, s, *b, singles,
                                                   singles, cyclic, [], -1),
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
        add_t, neg_t = op_tables(GroupSpec(factors))
        m = len(neg_t)
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

                structures = _generic_structures(graph, s, on_edges)
                for _ in range(10):
                    bounds = (*_random_bounds(rng, s, m),
                              *_random_bounds(rng, len(members), m))
                    _solve_and_compare(
                        lambda b: pure.solve_generic(m, add_t, neg_t, s, *b,
                                                     *structures, [], -1),
                        m, s, derived, bounds,
                        (factors, graph.edges, on_edges), tally)
    assert min(tally.values()) >= 50, tally
