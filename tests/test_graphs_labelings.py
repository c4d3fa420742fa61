"""Graph shapes, induced labelings, and the four verifiers."""

import itertools

import pytest

from cordant import (
    CYCLE,
    EdgeLabeling,
    GroupSpec,
    InvalidElementError,
    InvalidGraphError,
    PATH,
    SimpleGraph,
    TREE,
    VertexLabeling,
    class_counts,
    cycle_graph,
    induce_edge_labels,
    induce_vertex_labels,
    is_equitable,
    path_graph,
    star_graph,
    sum_elements,
    tree_graph,
    verify_a_antimagic,
    verify_a_cordial,
    verify_a_star_antimagic,
    verify_ea_cordial,
)
from cordant.labelings import (
    EDGE_COLLISION,
    EDGE_IMBALANCE,
    SIZE_MISMATCH,
    VERTEX_COLLISION,
    VERTEX_IMBALANCE,
    ZERO_EDGE_FORBIDDEN,
)

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))
Z4 = GroupSpec((4,))
E2 = GroupSpec((2, 2))


# ---------------------------------------------------------------------------
# graph construction and validation

def test_path_cycle_star_shapes():
    p = path_graph(4)
    assert p.kind == PATH and p.edges == ((0, 1), (1, 2), (2, 3))
    c = cycle_graph(4)
    assert c.kind == CYCLE and c.edges == ((0, 1), (1, 2), (2, 3), (3, 0))
    s = star_graph(3)
    assert s.kind == TREE and s.n == 4 and s.degrees() == [3, 1, 1, 1]
    # the builders skip the shape check a caller's graph gets, and build
    # the graph that check accepts
    for n in (3, 4, 5, 64, 5120):
        for g in (path_graph(n), cycle_graph(n)):
            assert g == SimpleGraph(g.n, g.edges, g.kind)
            assert len(g.edges) == n - (g.kind == PATH)


def test_graph_validation_errors():
    with pytest.raises(InvalidGraphError):
        path_graph(1)
    with pytest.raises(InvalidGraphError):
        cycle_graph(2)
    with pytest.raises(InvalidGraphError):
        SimpleGraph(3, ((0, 0),))
    with pytest.raises(InvalidGraphError):
        SimpleGraph(3, ((0, 1), (1, 0)))
    with pytest.raises(InvalidGraphError):
        SimpleGraph(3, ((0, 3),))
    with pytest.raises(InvalidGraphError):
        tree_graph(4, [(0, 1), (2, 3), (1, 2), (0, 3)])
    with pytest.raises(InvalidGraphError):
        tree_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(InvalidGraphError):
        SimpleGraph(3, ((0, 1), (1, 2)), kind=CYCLE)


@pytest.mark.parametrize("kind,edges", [
    (PATH, ((0, 1), (1, 1))),
    (PATH, ((0, 1), (0, 1))),
    (PATH, ((0, 1), (1, 3))),
    (CYCLE, ((0, 1), (1, 2), (2, 2))),
    (CYCLE, ((0, 1), (1, 2), (2, 0), (2, 0))),
    (CYCLE, ((0, 1), (1, 2), (2, 3))),
    (PATH, ((1, 0), (1, 2))),
    (PATH, ((1, 2), (0, 1))),
    (PATH, ((0, 1), (1, 2), (2, 0))),
    (PATH, [(0, 1), (1, 2)]),
    (CYCLE, ((0, 1), (1, 2), (0, 2))),
    (CYCLE, ((2, 0), (0, 1), (1, 2))),
    (CYCLE, ((0, 1), (1, 2))),
])
def test_paths_and_cycles_with_bad_edges_are_refused(kind, edges):
    # a loop, a duplicate edge or an out-of-range edge; right edges in
    # another orientation or order, one edge too many or too few, or a
    # list: a path or cycle stores exactly its chain edges
    with pytest.raises(InvalidGraphError):
        SimpleGraph(3, edges, kind)


def _chain_by_hand(n, kind):
    edges = [(i, i + 1) for i in range(n - 1)]
    if kind == CYCLE:
        edges.append((n - 1, 0))
    return tuple(edges)


@pytest.mark.parametrize("kind", [PATH, CYCLE])
@pytest.mark.parametrize("n", [3, 4, 7, 64])
def test_built_chains_behave_like_graphs_given_their_edges(kind, n):
    # path_graph and cycle_graph derive their edges when first read; a
    # fresh one compares, hashes, shows, pickles and copies like the graph
    # built from the same edges written out
    import copy
    import pickle

    build = path_graph if kind == PATH else cycle_graph
    edges = _chain_by_hand(n, kind)
    given = SimpleGraph(n, edges, kind)
    assert build(n) == given and given == build(n)
    assert hash(build(n)) == hash(given)
    assert repr(build(n)) == repr(given)
    assert build(n).edge_count == len(edges) == given.edge_count
    for copied in (pickle.loads(pickle.dumps(build(n))),
                   copy.deepcopy(build(n)), copy.copy(build(n))):
        assert type(copied) is SimpleGraph and copied == given
        assert copied.edges == edges
    for read in ("edges", "incidence", "adjacency", "degrees"):
        got, want = getattr(build(n), read), getattr(given, read)
        assert (got() == want() if callable(want) else got == want), read
    assert build(n) != build(n + 1) and build(n) != SimpleGraph(
        n, _chain_by_hand(n, CYCLE if kind == PATH else PATH),
        CYCLE if kind == PATH else PATH)
    # reading the edges keeps one tuple, and the graph stays immutable
    graph = build(n)
    assert graph.edges is graph.edges
    with pytest.raises(AttributeError):
        graph.edges = edges
    with pytest.raises(AttributeError):
        del graph.edges
    assert graph == given


def test_edge_count_of_general_graphs_and_trees():
    assert star_graph(4).edge_count == 4
    assert SimpleGraph(3, ((0, 1),)).edge_count == 1
    assert SimpleGraph(2, ()).edge_count == 0


def test_incidence_matches_edge_storage_order():
    g = tree_graph(4, [(1, 0), (1, 2), (1, 3)])
    assert g.incidence() == [[0], [0, 1, 2], [1], [2]]
    assert g.degrees() == [1, 3, 1, 1]


# ---------------------------------------------------------------------------
# labeling containers

def test_labeling_validation():
    with pytest.raises(InvalidElementError):
        EdgeLabeling(Z3, ((0,), (3,)))
    with pytest.raises(InvalidElementError):
        VertexLabeling(Z3, ((0, 0),))


# what labeling validation rejects, with the exception it raises: labels
# are converted to tuples first, then checked in order
REJECTED = [
    (Z3, ((3,),), InvalidElementError, "coordinate 3 out of range for Z3"),
    (Z3, ((-1,),), InvalidElementError, "coordinate -1 out of range for Z3"),
    (Z3, ((0, 0),), InvalidElementError, "element (0, 0) does not fit Z3"),
    (Z3, ((),), InvalidElementError, "element () does not fit Z3"),
    (E2, ((0, 0), (1,)), InvalidElementError,
     "element (1,) does not fit Z2xZ2"),
    (E2, ((0, 2),), InvalidElementError, "coordinate 2 out of range for Z2"),
    (Z3, ((1.0,),), InvalidElementError, "coordinate 1.0 out of range for Z3"),
    (Z3, (1.0,), TypeError, "'float' object is not iterable"),
    (Z3, (("1",),), InvalidElementError, "coordinate '1' out of range for Z3"),
    (Z3, ("1",), InvalidElementError, "coordinate '1' out of range for Z3"),
    (Z3, ("ab",), InvalidElementError, "element ('a', 'b') does not fit Z3"),
    (Z3, ((None,),), InvalidElementError,
     "coordinate None out of range for Z3"),
    (Z3, ([[1]],), InvalidElementError, "coordinate [1] out of range for Z3"),
    (Z3, (5,), TypeError, "'int' object is not iterable"),
    (Z3, (None,), TypeError, "'NoneType' object is not iterable"),
    # the first bad label is the one reported
    (Z3, ((0,), (1,), (5,)), InvalidElementError,
     "coordinate 5 out of range for Z3"),
    (Z3, ((4,), (5,)), InvalidElementError, "coordinate 4 out of range for Z3"),
    (Z3, ((5,), 7), TypeError, "'int' object is not iterable"),
]


@pytest.mark.parametrize("cls", [EdgeLabeling, VertexLabeling])
@pytest.mark.parametrize("spec, labels, error, message", REJECTED)
def test_labeling_validation_rejects(cls, spec, labels, error, message):
    with pytest.raises(error) as info:
        cls(spec, labels)
    assert type(info.value) is error
    assert str(info.value) == message


class _Int(int):
    pass


@pytest.mark.parametrize("cls", [EdgeLabeling, VertexLabeling])
@pytest.mark.parametrize("spec, labels, stored", [
    (Z3, [[0], [2]], ((0,), (2,))),
    (Z3, ((True,), (False,)), ((True,), (False,))),
    (E2, ([1, True],), ((1, True),)),
    (Z3, ((_Int(2),),), ((2,),)),
    (Z3, (), ()),
])
def test_labeling_validation_accepts(cls, spec, labels, stored):
    got = cls(spec, labels).labels
    assert got == stored
    # coordinates are kept as given: bools stay bools
    assert [type(x) for a in got for x in a] == \
        [type(x) for a in labels for x in a]


def test_bool_labels_count_and_sum_as_ints():
    f = EdgeLabeling(Z3, ((True,), (True,)))
    assert class_counts(Z3, f.labels) == {(0,): 0, (1,): 2, (2,): 0}
    sums = induce_vertex_labels(path_graph(3), f).labels
    assert sums == ((1,), (2,), (1,))
    assert all(type(a[0]) is int for a in sums)


def test_induced_vertex_labels_sum_incident_edges():
    f = EdgeLabeling(Z4, ((1,), (2,), (3,)))
    iv = induce_vertex_labels(path_graph(4), f)
    assert iv.labels == ((1,), (3,), (1,), (3,))


def test_induced_edge_labels_sum_endpoints():
    c = VertexLabeling(Z3, ((0,), (1,), (2,)))
    fe = induce_edge_labels(cycle_graph(3), c)
    assert fe.labels == ((1,), (0,), (2,))


def test_class_counts_and_equitability():
    counts = class_counts(Z3, ((0,), (0,), (1,)))
    assert counts == {(0,): 2, (1,): 1, (2,): 0}
    assert not is_equitable(counts)
    assert is_equitable(class_counts(Z3, ((0,), (1,), (2,))))
    assert sum_elements(Z3, [(1,), (2,), (2,)]) == (2,)


# ---------------------------------------------------------------------------
# verifiers: accepted labelings

def test_ea_cordial_accepts_equitable_path():
    v = verify_ea_cordial(path_graph(4), EdgeLabeling(Z3, ((0,), (1,), (2,))))
    assert v.ok and v.violation is None
    assert v.edge_class_counts == {(0,): 1, (1,): 1, (2,): 1}
    assert v.vertex_class_counts == {(0,): 2, (1,): 1, (2,): 1}


def test_a_cordial_accepts_equitable_cycle():
    v = verify_a_cordial(cycle_graph(3), VertexLabeling(Z3, ((0,), (1,), (2,))))
    assert v.ok
    assert v.vertex_class_counts == {(0,): 1, (1,): 1, (2,): 1}
    assert v.edge_class_counts == {(0,): 1, (1,): 1, (2,): 1}


def test_antimagic_accepts_distinct_sum_path():
    f = EdgeLabeling(Z4, ((0,), (1,), (2,)))
    v = verify_a_antimagic(path_graph(4), f)
    assert v.ok
    assert sorted(v.vertex_class_counts.values()) == [1, 1, 1, 1]


def test_star_over_involutions_attains_zero_at_center():
    # the three nonzero elements sum to zero, so the center lands on 0
    # while the leaves repeat their own labels: a nonzero bijection on
    # edges with all four sums distinct
    f = EdgeLabeling(E2, ((0, 1), (1, 1), (1, 0)))
    star = verify_a_star_antimagic(star_graph(3), f)
    assert star.ok
    assert verify_a_antimagic(star_graph(3), f).ok


# ---------------------------------------------------------------------------
# verifiers: violations, in the fixed reporting order

def test_size_mismatch_reported_first():
    short = EdgeLabeling(Z4, ((0,),))
    v = verify_ea_cordial(path_graph(4), short)
    assert not v.ok and v.violation == SIZE_MISMATCH
    v = verify_a_star_antimagic(path_graph(4), short)
    assert v.violation == SIZE_MISMATCH


def test_zero_edge_forbidden_precedes_sum_checks():
    f = EdgeLabeling(E2, ((0, 0), (0, 1), (0, 1)))
    v = verify_a_star_antimagic(path_graph(4), f)
    assert not v.ok and v.violation == ZERO_EDGE_FORBIDDEN


def test_edge_conditions_precede_vertex_conditions():
    f = EdgeLabeling(Z2, ((0,), (0,), (0,)))
    v = verify_ea_cordial(path_graph(4), f)
    assert not v.ok and v.violation == EDGE_IMBALANCE
    v = verify_a_antimagic(path_graph(4), EdgeLabeling(Z4, ((1,), (1,), (2,))))
    assert not v.ok and v.violation == EDGE_COLLISION


def test_vertex_side_violations():
    f = EdgeLabeling(Z4, ((0,), (1,), (2,), (3,)))
    v = verify_ea_cordial(cycle_graph(4), f)
    assert not v.ok and v.violation == VERTEX_IMBALANCE
    # induced edge sums 0,0,1,1 stay equitable, so only the vertex side trips
    c = VertexLabeling(Z2, ((0,), (0,), (0,), (1,)))
    v = verify_a_cordial(cycle_graph(4), c)
    assert not v.ok and v.violation == VERTEX_IMBALANCE


def test_all_nonzero_involution_orderings_miss_zero_sum():
    # 4 vertices need 4 distinct sums, so 0 must appear; endpoints carry
    # their own nonzero label and internal sums of two distinct nonzero
    # labels are nonzero in (Z2)^2, so every arrangement fails
    pool = [(0, 1), (1, 0), (1, 1)]
    for perm in itertools.permutations(pool):
        v = verify_a_star_antimagic(path_graph(4), EdgeLabeling(E2, perm))
        assert not v.ok and v.violation == VERTEX_COLLISION


def test_ok_iff_no_violation_over_small_exhaustion():
    g = path_graph(3)
    for labels in itertools.product([(0,), (1,), (2,)], repeat=2):
        for verifier in (verify_ea_cordial, verify_a_antimagic,
                         verify_a_star_antimagic):
            v = verifier(g, EdgeLabeling(Z3, labels))
            assert v.ok == (v.violation is None)
