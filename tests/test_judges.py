"""The four verifiers against a plain label-by-label reference.

The verifiers decide collisions from set sizes and fill their count maps
in bulk.  Here every verdict is recomputed the slow way: each induced
label summed edge by edge, each class counted label by label, each
condition checked in the fixed order.  Both must give the same ``ok``,
the same ``violation`` and the same count maps, key order included.
"""

import random
from itertools import product

import pytest

from cordant import (
    NOTION_A_ANTIMAGIC,
    NOTION_A_CORDIAL,
    NOTION_A_STAR_ANTIMAGIC,
    NOTION_EA_CORDIAL,
    EdgeLabeling,
    GroupSpec,
    InvalidGraphError,
    VertexLabeling,
    abelian_groups_of_order,
    construct_path_antimagic,
    cycle_graph,
    make_edge_certificate,
    make_vertex_certificate,
    path_graph,
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

VERIFIERS = {
    NOTION_EA_CORDIAL: verify_ea_cordial,
    NOTION_A_CORDIAL: verify_a_cordial,
    NOTION_A_ANTIMAGIC: verify_a_antimagic,
    NOTION_A_STAR_ANTIMAGIC: verify_a_star_antimagic,
}
INJECTIVE = (NOTION_A_ANTIMAGIC, NOTION_A_STAR_ANTIMAGIC)


def _add(spec, a, b):
    return tuple((x + y) % d for x, y, d in zip(a, b, spec.factors))


def _count(elements, labels):
    counts = {}
    for a in elements:
        counts[a] = 0
    for a in labels:
        counts[a] += 1
    return counts


def reference(notion, graph, labels, spec):
    """(ok, violation, edge counts, vertex counts, induced labels)."""
    on_edges = notion != NOTION_A_CORDIAL
    want = len(graph.edges) if on_edges else graph.n
    if (notion in INJECTIVE and graph.n != spec.order) or len(labels) != want:
        return False, SIZE_MISMATCH, {}, {}, None
    zero = (0,) * spec.rank
    if on_edges:
        edge = list(labels)
        vertex = [zero] * graph.n
        for (u, v), a in zip(graph.edges, labels):
            vertex[u] = _add(spec, vertex[u], a)
            vertex[v] = _add(spec, vertex[v], a)
        induced = vertex
    else:
        vertex = list(labels)
        edge = [_add(spec, labels[u], labels[v]) for u, v in graph.edges]
        induced = edge
    elements = list(product(*[range(d) for d in spec.factors]))
    ec, vc = _count(elements, edge), _count(elements, vertex)
    checks = []
    if notion in INJECTIVE:
        if notion == NOTION_A_STAR_ANTIMAGIC:
            checks.append((ec[zero] > 0, ZERO_EDGE_FORBIDDEN))
        checks.append((any(c > 1 for c in ec.values()), EDGE_COLLISION))
        checks.append((any(c > 1 for c in vc.values()), VERTEX_COLLISION))
    else:
        for counts, violation in ((ec, EDGE_IMBALANCE),
                                  (vc, VERTEX_IMBALANCE)):
            values = list(counts.values())
            checks.append((max(values) - min(values) > 1, violation))
    for failed, violation in checks:
        if failed:
            return False, violation, ec, vc, tuple(induced)
    return True, None, ec, vc, tuple(induced)


def _random_tree(rng, n):
    if n <= 2:
        return tree_graph(n, [(0, 1)] if n == 2 else [])
    # a random Pruefer sequence, decoded
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = [v for v in range(n) if degree[v] == 1]
    edges.append((u, v))
    rng.shuffle(edges)
    return tree_graph(n, edges)


def _groups():
    """Every group of order 1..16, canonical and cyclic presentations."""
    specs = []
    for n in range(1, 17):
        specs += abelian_groups_of_order(n)
        if n > 1 and (n,) not in [s.factors for s in specs]:
            specs.append(GroupSpec((n,)))
    return specs


def _labelings(rng, spec, want):
    """Label lists for a graph needing ``want`` labels: constant (zero,
    and the last element), uniform (collisions, imbalance), balanced
    shuffles (equitable), distinct runs with and without zero, and one
    too few and one too many."""
    elements = list(product(*[range(d) for d in spec.factors]))
    m = len(elements)
    out = [[elements[0]] * want, [elements[-1]] * want]
    out += [[rng.choice(elements) for _ in range(want)] for _ in range(3)]
    for _ in range(2):
        rng.shuffle(elements)
        balanced = (elements * (want // m + 1))[:want]
        rng.shuffle(balanced)
        out.append(balanced)
    if want <= m:
        shuffled = elements[:]
        rng.shuffle(shuffled)
        out.append(shuffled[:want])
        nonzero = [a for a in shuffled if any(a)]
        if want <= len(nonzero):
            out.append(nonzero[:want])
    out.append([rng.choice(elements) for _ in range(max(want - 1, 0))])
    out.append([rng.choice(elements) for _ in range(want + 1)])
    return out


def _graphs(rng, spec):
    m = spec.order
    graphs = [_random_tree(rng, m), _random_tree(rng, max(m, 2) + 3)]
    if m >= 2:
        graphs.append(path_graph(m))
    graphs += [path_graph(rng.randint(2, 3 * m + 3)),
               cycle_graph(rng.randint(3, 3 * m + 3))]
    return graphs


def _check(notion, graph, spec, labels):
    labeling = (VertexLabeling if notion == NOTION_A_CORDIAL
                else EdgeLabeling)(spec, tuple(labels))
    if notion in INJECTIVE and graph.kind == "cycle":
        with pytest.raises(InvalidGraphError):
            VERIFIERS[notion](graph, labeling)
        return None
    ok, violation, ec, vc, induced = reference(notion, graph, labels, spec)
    verdict = VERIFIERS[notion](graph, labeling)
    assert (verdict.ok, verdict.violation) == (ok, violation)
    assert list(verdict.edge_class_counts.items()) == list(ec.items())
    assert list(verdict.vertex_class_counts.items()) == list(vc.items())
    if induced is not None:
        cert = (make_vertex_certificate(graph, labeling)
                if notion == NOTION_A_CORDIAL
                else make_edge_certificate(notion, graph, labeling))
        assert cert.verdict == verdict
        partner = (cert.edge_labels if notion == NOTION_A_CORDIAL
                   else cert.vertex_labels)
        assert partner == induced
    return violation


@pytest.mark.parametrize("spec", _groups(), ids=str)
def test_verifiers_match_the_label_by_label_reference(spec):
    rng = random.Random(str(spec))
    seen = set()
    for graph in _graphs(rng, spec):
        for notion in VERIFIERS:
            want = graph.n if notion == NOTION_A_CORDIAL else len(graph.edges)
            for labels in _labelings(rng, spec, want):
                seen.add((notion, _check(notion, graph, spec, labels)))
    # the labelings reach collisions and size mismatches on every group
    assert (NOTION_A_ANTIMAGIC, SIZE_MISMATCH) in seen
    if spec.order > 2:
        assert (NOTION_A_ANTIMAGIC, EDGE_COLLISION) in seen
        assert (NOTION_EA_CORDIAL, EDGE_IMBALANCE) in seen
    if spec.order > 1:
        assert (NOTION_A_STAR_ANTIMAGIC, ZERO_EDGE_FORBIDDEN) in seen


@pytest.mark.parametrize("spec", [s for s in _groups()
                                  if s.order >= 2 and s.order % 4 != 2],
                         ids=str)
def test_found_labelings_match_the_reference(spec):
    # constructed labelings pass; moved by one label they collide
    f = construct_path_antimagic(spec).labeling
    path = path_graph(spec.order)
    assert _check(NOTION_A_ANTIMAGIC, path, spec, f.labels) is None
    assert _check(NOTION_EA_CORDIAL, path, spec, f.labels) is None
    zero_free = all(any(a) for a in f.labels)
    assert _check(NOTION_A_STAR_ANTIMAGIC, path, spec, f.labels) == (
        None if zero_free else ZERO_EDGE_FORBIDDEN)
    if spec.order > 2:
        bent = f.labels[:-1] + f.labels[:1]
        assert _check(NOTION_A_ANTIMAGIC, path, spec, bent) == EDGE_COLLISION
        # the same edge labels in another order keep the edges distinct
        swapped = f.labels[1:2] + f.labels[:1] + f.labels[2:]
        assert _check(NOTION_A_ANTIMAGIC, path, spec, swapped) in (
            None, VERTEX_COLLISION)


def test_each_verdict_owns_its_count_maps():
    # the judges count into copies of one cached zero map per group:
    # changing a verdict's maps, or an enumeration handed out, leaves the
    # next verdict as it was
    from cordant import class_counts, enumerate_elements

    spec = GroupSpec((5, 7))
    f = construct_path_antimagic(spec).labeling
    path = path_graph(35)
    cycle = cycle_graph(6)
    c = VertexLabeling(GroupSpec((3,)), tuple((i % 3,) for i in range(6)))
    calls = [lambda verify=verify: verify(path, f)
             for verify in (verify_ea_cordial, verify_a_antimagic,
                            verify_a_star_antimagic)]
    calls.append(lambda: verify_a_cordial(cycle, c))
    calls.append(lambda: verify_a_antimagic(path, EdgeLabeling(
        spec, (spec.zero(),) * 34)))

    def seen(verdict):
        return (verdict.ok, verdict.violation,
                list(verdict.edge_class_counts.items()),
                list(verdict.vertex_class_counts.items()))

    for call in calls:
        first = call()
        want = seen(first)
        assert first.edge_class_counts is not first.vertex_class_counts
        first.edge_class_counts[spec.zero()] = 99
        first.edge_class_counts.clear()
        first.vertex_class_counts.pop(next(iter(first.vertex_class_counts)))
        enumerate_elements(spec).clear()
        enumerate_elements(c.group).append((7,))
        assert seen(call()) == want
    counts = class_counts(spec, f.labels)
    counts.clear()
    assert list(class_counts(spec, f.labels).values()) == [0] + [1] * 34
