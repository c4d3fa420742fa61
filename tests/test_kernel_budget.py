"""Exact budget stops in the three pure kernels.

Every (slot, label) attempt costs one node, including attempts at labels
that have no room left.  So a search whose unbounded run takes N nodes
stops with BUDGET after exactly b nodes for every budget b < N, and returns
the unbounded result for every b >= N: also when its last nodes are
labels without room after the last one tried, or labels that the
symmetry table or the graph symmetries rule out, and when a twin bound
starts a slot's walk past its first labels.  Runs on the pure kernels
alone, so it needs no compiler.
"""

from cordant import GroupSpec, cycle_graph, path_graph, tree_graph
from cordant._kernel import pure
from cordant._stabilizers import stabilizer_table
from cordant.groups import op_tables
from cordant.search import (
    _equitable_bounds,
    _generic_structures,
    _graph_symmetry,
)


def _budgets(total):
    """Every budget up to 1,500, then a stride to ``total + 1``."""
    return sorted({*range(1501), *range(1501, total + 2, 37),
                   total - 1, total, total + 1})


def _generic(factors, graph, on_edges, bounds, prefix=()):
    spec = GroupSpec(factors)
    if on_edges:
        s, members = len(graph.edges), graph.incidence()
    else:
        s, members = graph.n, graph.edges
    return (spec.order, op_tables(spec)[0], s, *bounds,
            *_generic_structures(members, s), list(prefix))


def _equitable(num_slots, num_derived, m):
    return (*_equitable_bounds(num_slots, m),
            *_equitable_bounds(num_derived, m))


def _generic_instances():
    """Kernel arguments up to the prefix, the symmetry table and the graph
    symmetries."""
    nonzero_once = [0] + [1] * 5
    tree = tree_graph(6, ((0, 1), (0, 2), (2, 3), (3, 4), (4, 5)))
    z4, z6, z2z4 = (stabilizer_table(GroupSpec(f))
                    for f in ((4,), (6,), (2, 4)))
    unmarked = [
        # path edges, exhausted and found
        _generic((6,), path_graph(6), True, _equitable(5, 6, 6)),
        _generic((5,), path_graph(10), True, _equitable(9, 10, 5)),
        # path vertices
        _generic((5,), path_graph(11), False, _equitable(11, 10, 5)),
        # cycle vertices
        _generic((6,), cycle_graph(6), False, _equitable(6, 6, 6)),
        # a tree with a label no slot may take (A*-antimagic bounds)
        _generic((6,), tree, True,
                 (nonzero_once, nonzero_once, [1] * 6, [1] * 6)),
        # a prefix
        _generic((5,), path_graph(10), True, _equitable(9, 10, 5), (2, 0)),
    ]
    # the table prunes slot 0 and the slots below the fixed labels (0 and
    # 2 in Z4, 0 and 3 in Z6), and in Z2xZ4 moves through three states:
    # exhausted and found
    marked = [
        (_generic((4,), cycle_graph(4), True, _equitable(4, 4, 4)), z4),
        (_generic((4,), path_graph(9), False, _equitable(9, 8, 4)), z4),
        (_generic((6,), path_graph(6), True, _equitable(5, 6, 6)), z6),
        (_generic((6,), path_graph(6), True, _equitable(5, 6, 6), (0,)),
         z6),
        (_generic((2, 4), path_graph(8), True, _equitable(7, 8, 8)), z2z4),
        (_generic((2, 4), path_graph(10), False, _equitable(10, 9, 8)),
         z2z4),
    ]
    # the graph symmetries as the searches derive them: a cycle's rotations
    # and reflections, translated below the pinned 0, found and exhausted;
    # twin leaves on a star's edges and on a tree's vertices
    star = tree_graph(6, [(0, i) for i in range(1, 6)])
    twins = tree_graph(7, ((0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (3, 6)))
    neg4 = op_tables(GroupSpec((4,)))[1]
    neg6 = op_tables(GroupSpec((6,)))[1]
    graph_marked = [
        (_generic((4,), cycle_graph(8), False, _equitable(8, 8, 4), (0,)),
         z4, _graph_symmetry(cycle_graph(8), None, 8, 0, neg4)),
        (_generic((6,), cycle_graph(6), True, _equitable(6, 6, 6), (0,)),
         z6, _graph_symmetry(cycle_graph(6), cycle_graph(6).incidence(), 6,
                             0, neg6)),
        (_generic((4,), cycle_graph(12), False, _equitable(12, 12, 4), (0,)),
         z4, _graph_symmetry(cycle_graph(12), None, 12, 0, neg4)),
        (_generic((6,), star, True,
                  (nonzero_once, nonzero_once, [1] * 6, [1] * 6)),
         z6, _graph_symmetry(star, star.incidence(), 5, 0, None)),
        (_generic((3,), twins, False, _equitable(7, 6, 3)),
         None, _graph_symmetry(twins, None, 7, 0, None)),
    ]
    return ([(args, None, None) for args in unmarked]
            + [(args, table, None) for args, table in marked] + graph_marked)


def _check(solve, nodes_at):
    """``solve(budget)`` stops exactly at every budget below its unbounded
    node count and returns its unbounded result from there on."""
    unbounded = solve(-1)
    total = nodes_at(unbounded)
    for budget in _budgets(total):
        result = solve(budget)
        if budget < total:
            assert result[0] == pure.BUDGET, (budget, result)
            assert nodes_at(result) == budget, (budget, result)
        else:
            assert result == unbounded, (budget, result)
    return unbounded[0]


def test_generic_kernel_stops_exactly_at_its_budget():
    statuses = {_check(lambda b: pure.solve_generic(*args, b, table, sym),
                       lambda r: r[2])
                for args, table, sym in _generic_instances()}
    assert statuses == {pure.FOUND, pure.EXHAUSTED}


def test_rstar_and_sigma_kernels_stop_exactly_at_their_budgets():
    for factors in ((4,), (2, 2), (5,), (6,), (2, 4)):
        spec = GroupSpec(factors)
        m = spec.order
        add_t, neg_t = op_tables(spec)[:2]
        table = stabilizer_table(spec)
        _check(lambda b: pure.solve_rstar(m, add_t, neg_t, [], b),
               lambda r: r[3])
        _check(lambda b: pure.solve_rstar(m, add_t, neg_t, [1], b, table),
               lambda r: r[3])
        _check(lambda b: pure.solve_sigma(m, add_t, b), lambda r: r[3])
        _check(lambda b: pure.solve_sigma(m, add_t, b, table),
               lambda r: r[3])
