"""Edge and vertex labelings over a group, and the four verifiers.

A labeling pairs a group with a tuple of element labels indexed by edge
(or vertex) storage position.  Each labeling direction induces the other:
an edge labeling induces on every vertex the sum of its incident edge
labels, and a vertex labeling induces on every edge the sum of its two
endpoint labels.

Labels are checked once, when a labeling is built.  Everything computed
from checked labels after that (induced sums, class counts) is plain
residue arithmetic, coordinate by coordinate, with no further checks.

The verifiers return a :class:`Verdict` rather than raising: it carries
both class-count maps and, when the labeling fails, the first violated
condition in the fixed order size-mismatch, zero-edge-forbidden, edge
conditions, vertex conditions.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import add, mod

from ._vocab import Record, set_field
from .errors import InvalidGraphError, InvalidLabelingError
from .graphs import CYCLE, PATH, TREE, SimpleGraph
from .groups import Element, GroupSpec, _zero_counts, check_element

SIZE_MISMATCH = "size-mismatch"
ZERO_EDGE_FORBIDDEN = "zero-edge-forbidden"
EDGE_IMBALANCE = "edge-imbalance"
VERTEX_IMBALANCE = "vertex-imbalance"
EDGE_COLLISION = "edge-collision"
VERTEX_COLLISION = "vertex-collision"


class _Labeling(Record):
    """A group and one label per edge or vertex, checked here once."""

    _fields = ("group", "labels")

    def __init__(self, group: GroupSpec, labels: tuple[Element, ...]) -> None:
        labels = tuple(tuple(a) for a in labels)
        for a in labels:
            check_element(group, a)
        set_field(self, "group", group)
        set_field(self, "labels", labels)


class EdgeLabeling(_Labeling):
    """Group labels on edges, indexed by edge storage position."""


class VertexLabeling(_Labeling):
    """Group labels on vertices, indexed by vertex number."""


def _computed(cls, spec: GroupSpec, labels: tuple[Element, ...]):
    """A labeling of residue tuples computed here, so already elements."""
    out = object.__new__(cls)
    set_field(out, "group", spec)
    set_field(out, "labels", labels)
    return out


class Verdict(Record):
    """Verifier outcome with the class counts it was judged on.

    ``violation`` is None when ``ok`` and otherwise the first failed
    condition in the fixed checking order.
    """

    _fields = ("ok", "edge_class_counts", "vertex_class_counts", "violation")

    def __init__(self, ok: bool, edge_class_counts: dict[Element, int],
                 vertex_class_counts: dict[Element, int],
                 violation: str | None = None) -> None:
        set_field(self, "ok", ok)
        set_field(self, "edge_class_counts", edge_class_counts)
        set_field(self, "vertex_class_counts", vertex_class_counts)
        set_field(self, "violation", violation)


def _induced(graph: SimpleGraph, labeling, on_edges: bool
             ) -> tuple[Element, ...]:
    """The labels an edge (``on_edges``) or vertex labeling induces on
    ``graph``: residues summed coordinate by coordinate, reduced once."""
    factors = labeling.group.factors
    if not factors:
        return ((),) * (graph.n if on_edges else graph.edge_count)
    columns = list(zip(*labeling.labels)) or [()] * len(factors)
    return tuple(zip(*[map(mod, _sums(graph, col, on_edges), repeat(d))
                       for col, d in zip(columns, factors)]))


def _sums(graph: SimpleGraph, col: tuple[int, ...], on_edges: bool):
    """One coordinate column summed, unreduced, as an iterable: per vertex
    over its edges (``on_edges``) or per edge over its two endpoints.
    Path and cycle edges are (i, i+1) in order, so there the sums are
    shifted ``map``s."""
    if graph.kind == PATH:
        if on_edges:
            return chain(col[:1], map(add, col, col[1:]), col[-1:])
        return map(add, col, col[1:])
    if graph.kind == CYCLE:
        if on_edges:
            return map(add, col[-1:] + col[:-1], col)
        return map(add, col, col[1:] + col[:1])
    if on_edges:
        acc = [0] * graph.n
        for (u, v), x in zip(graph.edges, col):
            acc[u] += x
            acc[v] += x
        return acc
    return [col[u] + col[v] for u, v in graph.edges]


def induce_vertex_labels(graph: SimpleGraph, f: EdgeLabeling) -> VertexLabeling:
    """Vertex label = sum of incident edge labels (zero on isolated vertices)."""
    _require_fit(graph, f.labels, graph.edge_count)
    return _computed(VertexLabeling, f.group, _induced(graph, f, True))


def induce_edge_labels(graph: SimpleGraph, c: VertexLabeling) -> EdgeLabeling:
    """Edge label = sum of the two endpoint labels.

    >>> from .graphs import cycle_graph
    >>> from .groups import GroupSpec
    >>> c = VertexLabeling(GroupSpec((4,)), ((0,), (1,), (2,), (3,)))
    >>> induce_edge_labels(cycle_graph(4), c).labels
    ((1,), (3,), (1,), (3,))
    """
    _require_fit(graph, c.labels, graph.n)
    return _computed(EdgeLabeling, c.group, _induced(graph, c, False))


def _tally(counts: dict[Element, int], labels: tuple[Element, ...]
           ) -> dict[Element, int]:
    """``counts``, a count map the caller owns with every element at 0
    (see ``groups._zero_counts``), with the occurrences of each element
    among ``labels`` counted in.  The labels are elements already
    (checked on entry or computed mod d), so each is a key."""
    for a in labels:
        counts[a] += 1
    return counts


def _distinct_tally(counts: dict[Element, int], labels: tuple[Element, ...]
                    ) -> tuple[dict[Element, int], bool]:
    """``_tally(counts, labels)`` and whether two labels collide.  Distinct
    labels are gathered once, as dict keys (a dict takes less room than
    a set of one size), and copied in with their hashes; labels are
    counted one by one only on a collision."""
    seen = dict.fromkeys(labels, 1)
    if len(seen) < len(labels):
        return _tally(counts, labels), True
    counts.update(seen)
    return counts, False


def class_counts(spec: GroupSpec, labels: tuple[Element, ...]) -> dict[Element, int]:
    """Occurrences of every group element among ``labels``, in enumeration order."""
    for a in labels:
        check_element(spec, a)
    return _tally(_zero_counts(spec), labels)


def is_equitable(counts: dict[Element, int]) -> bool:
    """Max minus min class count at most one (vacuously true when empty)."""
    if not counts:
        return True
    values = counts.values()
    return max(values) - min(values) <= 1


def _require_fit(graph: SimpleGraph, labels: tuple, want: int) -> None:
    if len(labels) != want:
        raise InvalidLabelingError(
            f"labeling has {len(labels)} labels, graph needs {want}"
        )


# A judge returns a verdict and the labels the labeling induces, None
# when it does not fit the graph, so a certificate induces them once.

def _judge_equitable(graph: SimpleGraph, labeling, on_edges: bool):
    """Both class families equitable; the edge family is judged first."""
    want = graph.edge_count if on_edges else graph.n
    if len(labeling.labels) != want:
        return Verdict(False, {}, {}, SIZE_MISMATCH), None
    induced = _induced(graph, labeling, on_edges)
    edge, vertex = ((labeling.labels, induced) if on_edges
                    else (induced, labeling.labels))
    zero = _zero_counts(labeling.group)
    ec = _tally(zero.copy(), edge)
    vc = _tally(zero, vertex)
    if not is_equitable(ec):
        return Verdict(False, ec, vc, EDGE_IMBALANCE), induced
    if not is_equitable(vc):
        return Verdict(False, ec, vc, VERTEX_IMBALANCE), induced
    return Verdict(True, ec, vc), induced


def _judge_ea_cordial(graph: SimpleGraph, f: EdgeLabeling):
    return _judge_equitable(graph, f, True)


def _judge_a_cordial(graph: SimpleGraph, c: VertexLabeling):
    return _judge_equitable(graph, c, False)


def verify_ea_cordial(graph: SimpleGraph, f: EdgeLabeling) -> Verdict:
    """Edge classes equitable and induced vertex-sum classes equitable."""
    return _judge_ea_cordial(graph, f)[0]


def verify_a_cordial(graph: SimpleGraph, c: VertexLabeling) -> Verdict:
    """Vertex classes equitable and induced edge-sum classes equitable.

    The edge condition is still reported first, mirroring the edge-side
    verifier's fixed order.
    """
    return _judge_a_cordial(graph, c)[0]


def _require_tree(graph: SimpleGraph) -> None:
    if graph.kind not in (PATH, TREE):
        raise InvalidGraphError(f"expected a path or tree, got kind {graph.kind!r}")


def _judge_injective(graph: SimpleGraph, f: EdgeLabeling, zero_free: bool):
    """Both sides injective on a tree of group order, after the zero-edge
    rule when ``zero_free``.

    A side is injective exactly when its labels make as many distinct
    keys as there are labels (see ``_distinct_tally``); both collision
    checks are read off those sizes."""
    _require_tree(graph)
    spec, labels = f.group, f.labels
    if graph.n != spec.order or len(labels) != graph.edge_count:
        return Verdict(False, {}, {}, SIZE_MISMATCH), None
    induced = _induced(graph, f, True)
    ec, edge_collision = _distinct_tally(_zero_counts(spec), labels)
    # n distinct vertex sums on n vertices: each element once
    vertex_collision = len(dict.fromkeys(induced)) < len(induced)
    vc = (_tally(dict.fromkeys(ec, 0), induced) if vertex_collision
          else dict.fromkeys(ec, 1))
    if zero_free and ec[spec.zero()]:
        return Verdict(False, ec, vc, ZERO_EDGE_FORBIDDEN), induced
    if edge_collision:
        return Verdict(False, ec, vc, EDGE_COLLISION), induced
    if vertex_collision:
        return Verdict(False, ec, vc, VERTEX_COLLISION), induced
    return Verdict(True, ec, vc), induced


def _judge_a_antimagic(graph: SimpleGraph, f: EdgeLabeling):
    return _judge_injective(graph, f, False)


def _judge_a_star_antimagic(graph: SimpleGraph, f: EdgeLabeling):
    return _judge_injective(graph, f, True)


def verify_a_antimagic(graph: SimpleGraph, f: EdgeLabeling) -> Verdict:
    """Injective edge labels and pairwise distinct vertex sums, |T| = |A|.

    The tree has |A| vertices and |A|-1 edges, so injectivity on both sides
    is the same as every class count being at most one.
    """
    return _judge_a_antimagic(graph, f)[0]


def verify_a_star_antimagic(graph: SimpleGraph, f: EdgeLabeling) -> Verdict:
    """Edge labels a bijection onto the nonzero elements, vertex sums distinct."""
    return _judge_a_star_antimagic(graph, f)[0]
