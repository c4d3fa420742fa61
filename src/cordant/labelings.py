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

from dataclasses import dataclass
from itertools import repeat
from operator import add, mod

from .errors import InvalidGraphError, InvalidLabelingError
from .graphs import CYCLE, PATH, TREE, SimpleGraph
from .groups import Element, GroupSpec, check_element, enumerate_elements

SIZE_MISMATCH = "size-mismatch"
ZERO_EDGE_FORBIDDEN = "zero-edge-forbidden"
EDGE_IMBALANCE = "edge-imbalance"
VERTEX_IMBALANCE = "vertex-imbalance"
EDGE_COLLISION = "edge-collision"
VERTEX_COLLISION = "vertex-collision"


@dataclass(frozen=True)
class EdgeLabeling:
    """Group labels on edges, indexed by edge storage position."""

    group: GroupSpec
    labels: tuple[Element, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(tuple(a) for a in self.labels))
        for a in self.labels:
            check_element(self.group, a)


@dataclass(frozen=True)
class VertexLabeling:
    """Group labels on vertices, indexed by vertex number."""

    group: GroupSpec
    labels: tuple[Element, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(tuple(a) for a in self.labels))
        for a in self.labels:
            check_element(self.group, a)


def _computed(cls, spec: GroupSpec, labels: tuple[Element, ...]):
    """A labeling of residue tuples computed here, so already elements."""
    out = object.__new__(cls)
    object.__setattr__(out, "group", spec)
    object.__setattr__(out, "labels", labels)
    return out


@dataclass(frozen=True)
class Verdict:
    """Verifier outcome with the class counts it was judged on.

    ``violation`` is None when ``ok`` and otherwise the first failed
    condition in the fixed checking order.
    """

    ok: bool
    edge_class_counts: dict[Element, int]
    vertex_class_counts: dict[Element, int]
    violation: str | None = None


def _induced(graph: SimpleGraph, labeling, on_edges: bool
             ) -> tuple[Element, ...]:
    """The labels an edge (``on_edges``) or vertex labeling induces on
    ``graph``: residues summed coordinate by coordinate, reduced once."""
    factors = labeling.group.factors
    columns = list(zip(*labeling.labels)) or [()] * len(factors)
    per_coordinate = [list(map(mod, _sums(graph, col, on_edges), repeat(d)))
                      for col, d in zip(columns, factors)]
    if factors:
        return tuple(zip(*per_coordinate))
    return ((),) * (graph.n if on_edges else len(graph.edges))


def _sums(graph: SimpleGraph, col: tuple[int, ...], on_edges: bool) -> list:
    """One coordinate column summed, unreduced: per vertex over its edges
    (``on_edges``) or per edge over its two endpoints.  Path and cycle
    edges are (i, i+1) in order, so there the sums are shifted ``map``s."""
    if graph.kind == PATH:
        if on_edges:
            return [col[0], *map(add, col, col[1:]), col[-1]]
        return list(map(add, col, col[1:]))
    if graph.kind == CYCLE:
        if on_edges:
            return list(map(add, col[-1:] + col[:-1], col))
        return list(map(add, col, col[1:] + col[:1]))
    if on_edges:
        acc = [0] * graph.n
        for (u, v), x in zip(graph.edges, col):
            acc[u] += x
            acc[v] += x
        return acc
    return [col[u] + col[v] for u, v in graph.edges]


def induce_vertex_labels(graph: SimpleGraph, f: EdgeLabeling) -> VertexLabeling:
    """Vertex label = sum of incident edge labels (zero on isolated vertices)."""
    _require_fit(graph, f.labels, len(graph.edges))
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


def _counts(elements: list[Element], labels: tuple[Element, ...]
            ) -> dict[Element, int]:
    # labels are elements already: checked on entry or computed mod d
    counts = dict.fromkeys(elements, 0)
    for a in labels:
        counts[a] += 1
    return counts


def class_counts(spec: GroupSpec, labels: tuple[Element, ...]) -> dict[Element, int]:
    """Occurrences of every group element among ``labels``, in enumeration order."""
    for a in labels:
        check_element(spec, a)
    return _counts(enumerate_elements(spec), labels)


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


def _counts_both(labeling, induced: tuple[Element, ...], on_edges: bool):
    """Edge and vertex class counts of an edge (``on_edges``) or vertex
    labeling and the labels it induces."""
    edge, vertex = ((labeling.labels, induced) if on_edges
                    else (induced, labeling.labels))
    elements = enumerate_elements(labeling.group)
    return _counts(elements, edge), _counts(elements, vertex)


# A judge returns a verdict and the labels the labeling induces, None
# when it does not fit the graph, so a certificate induces them once.

def _judge_equitable(graph: SimpleGraph, labeling, on_edges: bool):
    """Both class families equitable; the edge family is judged first."""
    want = len(graph.edges) if on_edges else graph.n
    if len(labeling.labels) != want:
        return Verdict(False, {}, {}, SIZE_MISMATCH), None
    induced = _induced(graph, labeling, on_edges)
    ec, vc = _counts_both(labeling, induced, on_edges)
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
    rule when ``zero_free``."""
    _require_tree(graph)
    if graph.n != f.group.order or len(f.labels) != len(graph.edges):
        return Verdict(False, {}, {}, SIZE_MISMATCH), None
    induced = _induced(graph, f, True)
    ec, vc = _counts_both(f, induced, True)
    if zero_free and ec[f.group.zero()] > 0:
        return Verdict(False, ec, vc, ZERO_EDGE_FORBIDDEN), induced
    if max(ec.values()) > 1:
        return Verdict(False, ec, vc, EDGE_COLLISION), induced
    if max(vc.values()) > 1:
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
