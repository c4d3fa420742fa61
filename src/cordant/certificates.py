"""Machine-checkable labeling certificates with a stable JSON form.

A certificate bundles the group, the graph, both label families (the
assigned one and the induced one), and the verdict of the matching
verifier.  Serialization is deterministic: same certificate, same
bytes.  Deserialization re-runs the verifier and refuses documents
whose stored verdict does not match, so a loaded certificate is always
a checked one.
"""

from __future__ import annotations

import json
from itertools import chain

from ._vocab import (
    NOTION_A_ANTIMAGIC,
    NOTION_A_CORDIAL,
    NOTION_A_STAR_ANTIMAGIC,
    NOTION_EA_CORDIAL,
    NOTIONS,
    Record,
    indented_json,
    set_field,
)
from .errors import InvalidLabelingError, InvalidSpecError
from .graphs import CYCLE, GENERAL, PATH, TREE, SimpleGraph, cycle_graph, path_graph
from .groups import Element, GroupSpec
from .labelings import (
    EdgeLabeling,
    Verdict,
    VertexLabeling,
    _computed,
    _judge_a_antimagic,
    _judge_a_cordial,
    _judge_a_star_antimagic,
    _judge_ea_cordial,
    _require_fit,
)

# per edge notion, its judge: (verdict, induced vertex labels), so a
# certificate induces its partner labels once; perfbench/spans.py wraps
# these entries to count them as verifier calls
_EDGE_VERIFIERS = {
    NOTION_EA_CORDIAL: _judge_ea_cordial,
    NOTION_A_ANTIMAGIC: _judge_a_antimagic,
    NOTION_A_STAR_ANTIMAGIC: _judge_a_star_antimagic,
}

__all__ = [
    "Certificate",
    "NOTIONS",
    "NOTION_A_ANTIMAGIC",
    "NOTION_A_CORDIAL",
    "NOTION_A_STAR_ANTIMAGIC",
    "NOTION_EA_CORDIAL",
    "certificate_dumps",
    "certificate_loads",
    "is_json_int",
    "load_demo_certificate",
    "make_edge_certificate",
    "make_vertex_certificate",
]


class Certificate(Record):
    """A labeling, its induced partner labels, and the checked verdict."""

    _fields = ("notion", "group", "graph", "edge_labels", "vertex_labels",
               "verdict")

    def __init__(self, notion: str, group: GroupSpec, graph: SimpleGraph,
                 edge_labels: tuple[Element, ...],
                 vertex_labels: tuple[Element, ...],
                 verdict: Verdict) -> None:
        set_field(self, "notion", notion)
        set_field(self, "group", group)
        set_field(self, "graph", graph)
        set_field(self, "edge_labels", edge_labels)
        set_field(self, "vertex_labels", vertex_labels)
        set_field(self, "verdict", verdict)

    @property
    def labels(self) -> tuple[Element, ...]:
        """The assigned family (vertex labels for a-cordial, else edge
        labels), so every verifier takes a certificate as a labeling."""
        if self.notion == NOTION_A_CORDIAL:
            return self.vertex_labels
        return self.edge_labels


def make_edge_certificate(notion: str, graph: SimpleGraph,
                          f: EdgeLabeling) -> Certificate:
    """Certificate for an edge labeling; vertex labels are the sums.

    Refuses a labeling that does not fit the graph, and, for the
    antimagic notions, a tree whose order is not the group order.
    """
    if notion not in _EDGE_VERIFIERS:
        raise InvalidSpecError(f"not an edge-labeling notion: {notion!r}")
    verdict, vertex = _judged(_EDGE_VERIFIERS[notion], graph, f,
                              graph.edge_count)
    return Certificate(notion, f.group, graph, f.labels, vertex, verdict)


def make_vertex_certificate(graph: SimpleGraph,
                            c: VertexLabeling) -> Certificate:
    """Certificate for a vertex labeling; edge labels are endpoint sums."""
    verdict, edge = _judged(_judge_a_cordial, graph, c, graph.n)
    return Certificate(NOTION_A_CORDIAL, c.group, graph, edge, c.labels,
                       verdict)


def _judged(judge, graph: SimpleGraph, labeling, want: int):
    """``judge``'s verdict and induced labels; refuses a labeling without
    ``want`` labels, then a tree whose order is not the group order."""
    verdict, induced = judge(graph, labeling)
    if induced is None:
        _require_fit(graph, labeling.labels, want)
        raise InvalidLabelingError(
            f"tree order {graph.n} must equal group order "
            f"{labeling.group.order}")
    return verdict, induced


# ---------------------------------------------------------------------------
# JSON form

def is_json_int(value) -> bool:
    """Whether a decoded JSON value is an integer (not a float, bool or null)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_ints(value, what: str) -> None:
    if not isinstance(value, list) or not (
            set(map(type, value)) <= {int} or all(map(is_json_int, value))):
        raise InvalidLabelingError(f"{what} must be a list of integers")


def _ints(value, what: str) -> tuple[int, ...]:
    _check_ints(value, what)
    return tuple(value)


def _label_rows(value) -> tuple[tuple[int, ...], ...]:
    """A document's label list as integer tuples.  A list of integer
    lists passes one bulk type check; anything else is checked label by
    label, so the first bad label names the error."""
    if type(value) is list and set(map(type, value)) <= {list} and \
            set(map(type, chain.from_iterable(value))) <= {int}:
        return tuple(map(tuple, value))
    return tuple(_ints(a, "a label") for a in value)


def _checked(cls, spec: GroupSpec, labels: tuple[tuple[int, ...], ...]):
    """``cls(spec, labels)`` for integer tuples.  Arity and range are
    checked per coordinate column with ``min`` and ``max``; if they fail,
    ``cls`` checks label by label and raises the first bad one's error."""
    factors = spec.factors
    if set(map(len, labels)) <= {len(factors)} and all(
            min(col) >= 0 and max(col) < d
            for col, d in zip(zip(*labels), factors)):
        return _computed(cls, spec, labels)
    return cls(spec, labels)


def _graph_to_obj(graph: SimpleGraph) -> dict:
    obj: dict = {"kind": graph.kind, "n": graph.n}
    if graph.kind not in (PATH, CYCLE):
        obj["edges"] = [[u, v] for u, v in graph.edges]
    return obj


def _graph_from_obj(obj: dict, num_vertices: int) -> SimpleGraph:
    kind = obj["kind"]
    n = obj["n"]
    if not is_json_int(n):
        raise InvalidLabelingError("graph size n must be an integer")
    # checked before building, so the graph (and the edge count of a path
    # or cycle) is no larger than the document's own vertex label list
    if n != num_vertices:
        raise InvalidLabelingError(
            f"graph has {n} vertices but {num_vertices} vertex labels")
    if kind == PATH:
        return path_graph(n)
    if kind == CYCLE:
        return cycle_graph(n)
    edges = tuple(_ints(e, "an edge") for e in obj["edges"])
    if kind == TREE:
        return SimpleGraph(n, edges, TREE)
    if kind == GENERAL:
        return SimpleGraph(n, edges, GENERAL)
    raise InvalidLabelingError(f"unknown graph kind {kind!r}")


def _count_list(spec: GroupSpec, values: list[int]) -> list[int]:
    # class counts are stored as a list in element enumeration order; the
    # list's own length bounds the group order before anything is sized by it
    if len(values) != spec.order:
        raise InvalidLabelingError("class count list does not cover the group")
    _check_ints(values, "a class count list")
    return values


def certificate_to_obj(cert: Certificate) -> dict:
    return _certificate_obj(cert, lambda labels: [list(a) for a in labels])


def _certificate_obj(cert: Certificate, rows) -> dict:
    """The JSON object form, each list of labels made by ``rows``.  A
    verdict's count maps hold every element in enumeration order, so
    their values are the stored count lists."""
    verdict = cert.verdict
    return {
        "notion": cert.notion,
        "group": list(cert.group.factors),
        "graph": _graph_to_obj(cert.graph),
        "edge_labels": rows(cert.edge_labels),
        "vertex_labels": rows(cert.vertex_labels),
        "verdict": {
            "ok": verdict.ok,
            "violation": verdict.violation,
            "edge_class_counts": list(verdict.edge_class_counts.values()),
            "vertex_class_counts": list(
                verdict.vertex_class_counts.values()),
        },
    }


def certificate_dumps(cert: Certificate) -> str:
    """Deterministic JSON text for a certificate: byte for byte
    ``json.dumps(certificate_to_obj(cert), indent=2)``.  The label
    tuples go to the writer as they are: it writes a tuple as a list."""
    return indented_json(_certificate_obj(cert, tuple))


def certificate_from_obj(obj: dict) -> Certificate:
    """Rebuild and re-check a certificate from its JSON object form.

    The verifier runs again on the rebuilt labeling; any disagreement
    with the stored verdict (or between stored and induced labels) is
    rejected as corruption.
    """
    try:
        notion = obj["notion"]
        spec = GroupSpec(_ints(obj["group"], "the group"))
        edge_labels = _label_rows(obj["edge_labels"])
        vertex_labels = _label_rows(obj["vertex_labels"])
        stored = obj["verdict"]
        stored_edge = _count_list(spec, stored["edge_class_counts"])
        stored_vertex = _count_list(spec, stored["vertex_class_counts"])
        graph = _graph_from_obj(obj["graph"], len(vertex_labels))
        stored_ok = stored["ok"]
        stored_violation = stored["violation"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidLabelingError(f"malformed certificate: {exc}") from exc
    if not isinstance(stored_ok, bool):
        raise InvalidLabelingError(
            "malformed certificate: verdict ok must be true or false")
    if notion == NOTION_A_CORDIAL:
        rebuilt = make_vertex_certificate(
            graph, _checked(VertexLabeling, spec, vertex_labels))
        if rebuilt.edge_labels != edge_labels:
            raise InvalidLabelingError(
                "stored edge labels are not the induced endpoint sums")
    else:
        rebuilt = make_edge_certificate(
            notion, graph, _checked(EdgeLabeling, spec, edge_labels))
        if rebuilt.vertex_labels != vertex_labels:
            raise InvalidLabelingError(
                "stored vertex labels are not the induced sums")
    # a verdict's count maps hold every element in enumeration order
    v = rebuilt.verdict
    if (v.ok, v.violation, list(v.edge_class_counts.values()),
            list(v.vertex_class_counts.values())) != \
            (stored_ok, stored_violation, stored_edge, stored_vertex):
        raise InvalidLabelingError("stored verdict does not re-verify")
    return rebuilt


def certificate_loads(text: str) -> Certificate:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidLabelingError(f"not valid JSON: {exc}") from exc
    return certificate_from_obj(obj)


def load_demo_certificate(number: int) -> Certificate:
    """Load one of the four bundled example certificates (1 to 4)."""
    if number not in (1, 2, 3, 4):
        raise InvalidSpecError("demo certificates are numbered 1 to 4")
    from importlib import resources

    text = (resources.files("cordant") / "fixtures" /
            f"demo{number}.json").read_text(encoding="utf-8")
    return certificate_loads(text)
