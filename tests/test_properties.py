"""Randomized invariant checks, one property per stated module guarantee.

The hypothesis profile in conftest.py runs every property on 1000
examples with a fixed derandomized seed, so a green run here is a
reproducible bulk audit of the library's algebra.
"""

import json
from functools import lru_cache

from hypothesis import given, strategies as st

from cordant.certificates import (
    certificate_dumps,
    certificate_loads,
    make_edge_certificate,
)
from cordant.constructions import (
    STATUS_FOUND,
    STATUS_IMPOSSIBLE,
    construct_path_antimagic,
    construct_path_ek,
    decide_path_ek_cordial,
    project_labeling,
)
from cordant.explore import explore_conjecture
from cordant.graphs import SimpleGraph, cycle_graph, path_graph
from cordant.groups import (
    GroupSpec,
    add,
    ant_decomposition,
    canonicalize_spec,
    element_at,
    element_index,
    enumerate_elements,
    format_group,
    isomorphism,
    negate,
    parse_group,
    sum_elements,
    sylow_split,
)
from cordant.labelings import (
    EdgeLabeling,
    VertexLabeling,
    class_counts,
    induce_edge_labels,
    induce_vertex_labels,
    verify_a_antimagic,
    verify_a_cordial,
    verify_a_star_antimagic,
    verify_ea_cordial,
)
from cordant.search import search_ea_cordial
from cordant.trees import canonical_form, enumerate_trees

from canonical_reference import CanonicalMap

FACTOR_POOL = (
    (2,), (3,), (4,), (5,), (2, 2), (6,), (7,), (8,), (2, 4), (2, 2, 2),
    (9,), (3, 3), (12,), (4, 3), (2, 2, 3), (8, 3), (24,), (2, 3, 4),
    (16,), (5, 5), (6, 6), (4, 9), (2, 8), (15,), (4, 3, 5),
)
specs = st.sampled_from(tuple(GroupSpec(f) for f in FACTOR_POOL))


@st.composite
def spec_and_elements(draw, count=1):
    spec = draw(specs)
    idx = st.integers(0, spec.order - 1)
    els = tuple(element_at(spec, draw(idx)) for _ in range(count))
    return (spec,) + els


@st.composite
def small_graphs(draw):
    kind = draw(st.sampled_from(("path", "cycle", "tree")))
    if kind == "path":
        return path_graph(draw(st.integers(2, 8)))
    if kind == "cycle":
        return cycle_graph(draw(st.integers(3, 8)))
    trees = tuple(enumerate_trees(draw(st.integers(2, 7))))
    return trees[draw(st.integers(0, len(trees) - 1))]


@st.composite
def graph_and_labeling(draw):
    graph = draw(small_graphs())
    spec = draw(specs)
    idx = st.integers(0, spec.order - 1)
    labels = tuple(element_at(spec, draw(idx)) for _ in graph.edges)
    return graph, EdgeLabeling(spec, labels)


# ---------------------------------------------------------------------------
# groups

@given(spec_and_elements(count=3))
def test_group_axioms(drawn):
    spec, a, b, c = drawn
    assert add(spec, add(spec, a, b), c) == add(spec, a, add(spec, b, c))
    assert add(spec, a, b) == add(spec, b, a)
    assert add(spec, a, spec.zero()) == a
    assert add(spec, a, negate(spec, a)) == spec.zero()


@given(specs)
def test_canonicalize_idempotent(spec):
    canon = canonicalize_spec(spec)
    assert canonicalize_spec(canon) == canon
    assert canon.order == spec.order
    assert all(d >= 2 for d in canon.factors)


@given(specs)
def test_sylow_split_partitions_the_order(spec):
    two, odd = sylow_split(spec)
    assert two.order * odd.order == spec.order
    assert odd.order % 2 == 1
    assert two.order & (two.order - 1) == 0 or all(
        d % 2 == 0 for d in two.factors)
    rejoined = GroupSpec(two.factors + odd.factors)
    assert canonicalize_spec(rejoined) == canonicalize_spec(spec)


@given(specs)
def test_ant_decomposition_invariants(spec):
    dec = ant_decomposition(spec)
    if dec is None:
        return
    assert dec.four_m % 4 == 0 and dec.four_m > 4
    assert dec.odd_part.order % 2 == 1
    assert dec.four_m * dec.odd_part.order == spec.order
    rejoined = GroupSpec((dec.four_m,) + dec.odd_part.factors)
    assert canonicalize_spec(rejoined) == canonicalize_spec(spec)


@given(spec_and_elements(count=2))
def test_isomorphism_to_canonical_is_bijective_homomorphism(drawn):
    spec, a, b = drawn
    cmap = CanonicalMap(spec)
    phi = isomorphism(spec, cmap.canonical)
    assert phi(add(spec, a, b)) == add(cmap.canonical, phi(a), phi(b))
    assert cmap.from_canonical(cmap.to_canonical(a)) == a
    assert cmap.to_canonical(cmap.from_canonical(
        element_at(cmap.canonical, element_index(spec, a)))) == element_at(
            cmap.canonical, element_index(spec, a))


@given(spec_and_elements(count=1))
def test_element_index_round_trip(drawn):
    spec, a = drawn
    i = element_index(spec, a)
    assert 0 <= i < spec.order
    assert element_at(spec, i) == a


@given(specs)
def test_parse_format_round_trip(spec):
    assert parse_group(format_group(spec)).factors == spec.factors


# ---------------------------------------------------------------------------
# graphs and trees

@given(small_graphs())
def test_degree_sum_is_twice_edge_count(graph):
    assert sum(graph.degrees()) == 2 * len(graph.edges)
    assert graph.is_connected()


@given(st.integers(2, 7), st.data())
def test_tree_canonical_form_is_relabeling_invariant(n, data):
    from cordant.graphs import tree_graph

    trees = tuple(enumerate_trees(n))
    tree = trees[data.draw(st.integers(0, len(trees) - 1))]
    perm = data.draw(st.permutations(range(n)))
    relabeled = tree_graph(
        n, [(perm[u], perm[v]) for u, v in tree.edges])
    assert canonical_form(relabeled) == canonical_form(tree)


# ---------------------------------------------------------------------------
# labelings

@given(graph_and_labeling(), st.data())
def test_induced_labels_are_linear(pair, data):
    graph, f = pair
    spec = f.group
    other = tuple(
        element_at(spec, data.draw(st.integers(0, spec.order - 1)))
        for _ in graph.edges)
    g = EdgeLabeling(spec, other)
    both = EdgeLabeling(spec, tuple(
        add(spec, x, y) for x, y in zip(f.labels, g.labels)))
    vf = induce_vertex_labels(graph, f).labels
    vg = induce_vertex_labels(graph, g).labels
    vboth = induce_vertex_labels(graph, both).labels
    assert vboth == tuple(add(spec, x, y) for x, y in zip(vf, vg))


@st.composite
def any_graphs(draw):
    """Paths, cycles and trees, and general graphs, isolated vertices and
    the edgeless graph included."""
    if draw(st.booleans()):
        return draw(small_graphs())
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return SimpleGraph(n, tuple(edges))


@given(any_graphs(), st.one_of(specs, st.just(GroupSpec(()))),
       st.booleans(), st.data())
def test_induced_labels_and_counts_match_the_add_reference(graph, spec,
                                                          on_edges, data):
    """Induced labels and both class-count maps (order included) equal a
    reference built from ``add``/``sum_elements`` and ``element_at``."""
    count = len(graph.edges) if on_edges else graph.n
    idx = st.integers(0, spec.order - 1)
    labels = tuple(element_at(spec, data.draw(idx)) for _ in range(count))
    if on_edges:
        f = EdgeLabeling(spec, labels)
        induced = induce_vertex_labels(graph, f).labels
        want = tuple(sum_elements(spec, (labels[i] for i in ids))
                     for ids in graph.incidence())
        edge, vertex = labels, want
    else:
        c = VertexLabeling(spec, labels)
        induced = induce_edge_labels(graph, c).labels
        want = tuple(add(spec, labels[u], labels[v]) for u, v in graph.edges)
        edge, vertex = want, labels
    assert induced == want
    assert all(type(x) is int for a in induced for x in a)

    def reference_counts(items):
        counts = {element_at(spec, i): 0 for i in range(spec.order)}
        for a in items:
            counts[a] += 1
        return list(counts.items())

    assert list(class_counts(spec, labels).items()) == reference_counts(labels)
    if on_edges and graph.kind in ("path", "tree") and spec.order == graph.n:
        verdict = verify_a_antimagic(graph, f)
    elif on_edges:
        verdict = verify_ea_cordial(graph, f)
    else:
        verdict = verify_a_cordial(graph, c)
    assert list(verdict.edge_class_counts.items()) == reference_counts(edge)
    assert list(verdict.vertex_class_counts.items()) == reference_counts(vertex)


@given(graph_and_labeling())
def test_vertex_sums_conserve_twice_the_edge_sum(pair):
    graph, f = pair
    spec = f.group
    vertex = induce_vertex_labels(graph, f).labels
    total = sum_elements(spec, vertex)
    edge_total = sum_elements(spec, f.labels)
    assert total == add(spec, edge_total, edge_total)


@given(st.integers(3, 8), spec_and_elements(count=1), st.data())
def test_cycle_shift_moves_vertex_sums_by_twice_the_shift(n, drawn, data):
    spec, g = drawn
    cycle = cyc = cycle_graph(n)
    labels = tuple(
        element_at(spec, data.draw(st.integers(0, spec.order - 1)))
        for _ in cyc.edges)
    f = EdgeLabeling(spec, labels)
    neg = negate(spec, g)
    shifted = EdgeLabeling(spec, tuple(add(spec, a, neg) for a in labels))
    two_g = add(spec, g, g)
    before = induce_vertex_labels(cycle, f).labels
    after = induce_vertex_labels(cycle, shifted).labels
    neg2g = negate(spec, two_g)
    assert after == tuple(add(spec, v, neg2g) for v in before)
    # shifting permutes the classes: count multisets agree
    assert sorted(class_counts(spec, f.labels).values()) == sorted(
        class_counts(spec, shifted.labels).values())


@given(graph_and_labeling())
def test_verdicts_are_consistent(pair):
    graph, f = pair
    spec = f.group
    checks = [verify_ea_cordial(graph, f)]
    if len(graph.edges) == graph.n - 1 and graph.n == spec.order:
        checks.append(verify_a_antimagic(graph, f))
        checks.append(verify_a_star_antimagic(graph, f))
    for verdict in checks:
        assert verdict.ok == (verdict.violation is None)
        assert sum(verdict.edge_class_counts.values()) == len(graph.edges)
        assert sum(verdict.vertex_class_counts.values()) == graph.n


@given(st.data())
def test_zero_free_distinct_sums_imply_the_zero_allowed_form(data):
    spec = data.draw(st.sampled_from(tuple(
        GroupSpec(f) for f in ((2, 2), (5,), (6,), (7,), (2, 3), (8,)))))
    trees = tuple(enumerate_trees(spec.order))
    tree = trees[data.draw(st.integers(0, len(trees) - 1))]
    perm = data.draw(st.permutations(enumerate_elements(spec)[1:]))
    f = EdgeLabeling(spec, tuple(perm[:len(tree.edges)]))
    star = verify_a_star_antimagic(tree, f)
    if star.ok:
        assert verify_a_antimagic(tree, f).ok


@given(st.data())
def test_tree_of_group_order_equivalence(data):
    # per labeling: distinct sums with injective labels <=> both-sided
    # equitability, on trees with exactly |A| vertices
    spec = data.draw(st.sampled_from(tuple(
        GroupSpec(f) for f in ((2, 2), (4,), (5,), (6,), (2, 3)))))
    trees = tuple(enumerate_trees(spec.order))
    tree = trees[data.draw(st.integers(0, len(trees) - 1))]
    labels = tuple(
        element_at(spec, data.draw(st.integers(0, spec.order - 1)))
        for _ in tree.edges)
    f = EdgeLabeling(spec, labels)
    assert verify_a_antimagic(tree, f).ok == verify_ea_cordial(tree, f).ok


# ---------------------------------------------------------------------------
# constructions

@lru_cache(maxsize=None)
def _antimagic_path(factors):
    return construct_path_antimagic(GroupSpec(factors)).labeling


@given(st.data())
def test_projection_preserves_class_count_totals(data):
    # a distinct-sums labeling of P_|A| is equitable on a tree of order
    # |A|, so every prefix projection meets the strict preconditions
    factors = data.draw(st.sampled_from(
        ((2, 2), (3, 3), (2, 2, 2), (4, 2), (3, 4), (2, 2, 3))))
    f = _antimagic_path(factors)
    graph = path_graph(f.group.order)
    keep = data.draw(st.integers(0, f.group.rank))
    out = project_labeling(graph, f, keep)
    assert verify_ea_cordial(graph, out).ok
    full = class_counts(f.group, f.labels)
    shrunk = class_counts(out.group, out.labels)
    for b, count in shrunk.items():
        assert count == sum(
            c for a, c in full.items() if a[:keep] == b)


@given(st.integers(2, 14), st.integers(2, 6))
def test_path_ek_construction_matches_the_decider(n, k):
    possible = decide_path_ek_cordial(n, k)
    res = construct_path_ek(n, k)
    if possible:
        assert res.status == STATUS_FOUND
        graph = path_graph(n)
        verdict = verify_ea_cordial(graph, res.labeling)
        assert verdict.ok
    else:
        assert res.status == STATUS_IMPOSSIBLE
        assert res.labeling is None


# ---------------------------------------------------------------------------
# search

@given(st.integers(3, 5),
       st.sampled_from(tuple(GroupSpec(f) for f in ((2,), (3,), (4,), (2, 2)))),
       st.sampled_from((2, 3)))
def test_search_results_are_certified_and_worker_invariant(n, spec, workers):
    graph = path_graph(n)
    base = search_ea_cordial(graph, spec)
    again = search_ea_cordial(graph, spec, workers=workers)
    assert base.status == again.status
    assert base.nodes_explored == again.nodes_explored
    if base.status == "Found":
        assert base.certificate.labels == again.certificate.labels
        assert verify_ea_cordial(graph, base.certificate).ok


# ---------------------------------------------------------------------------
# certificates

@given(graph_and_labeling())
def test_certificate_round_trip(pair):
    graph, f = pair
    cert = make_edge_certificate("ea-cordial", graph, f)
    text = certificate_dumps(cert)
    assert certificate_loads(text) == cert
    assert json.loads(text)["notion"] == "ea-cordial"


# ---------------------------------------------------------------------------
# explore

@given(st.integers(2, 4))
def test_explore_row_counts_match_the_inventory(n_max):
    from cordant.groups import abelian_groups_of_order

    report = explore_conjecture(n_max)
    expected = sum(
        len(abelian_groups_of_order(n)) * len(tuple(enumerate_trees(n)))
        for n in range(2, n_max + 1))
    assert len(report.rows) == expected
    assert len(report.summary_lines()) == len(report.rows) + 1
